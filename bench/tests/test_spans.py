"""The traced run: counters repeat, reports are untouched, spans add up.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import qkernel.integrate
import qkernel.pochhammer
import qkernel.verify
from run import report_key, run_pass
from spans import Tracer
from workloads import WORKLOADS, make_workload

COUNTERS = ("calls", "points", "nodes", "integrand_points", "rungs", "coeffs")


def _traced_pass(cases):
    with Tracer() as tracer:
        reports, *_ = run_pass(cases, tracer)
        trace = tracer.take()
    return reports, trace


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    cases = make_workload(request.param, 11)
    untraced = run_pass(cases)[0]
    return request.param, untraced, _traced_pass(cases), _traced_pass(cases)


def test_counters_repeat_exactly(runs):
    _, _, (_, first), (_, second) = runs
    keys = {k for k in first.counts if k.rsplit(".", 1)[1] in COUNTERS}
    assert keys
    assert {k: first.counts[k] for k in keys} == {k: second.counts[k] for k in keys}


def test_traced_reports_are_bit_identical(runs):
    _, untraced, (traced, _), _ = runs
    assert [report_key(r) for r in traced] == [report_key(r) for r in untraced]


def test_wrappers_see_every_by_name_import(runs):
    workload, _, (_, trace), _ = runs
    counts = trace.counts
    assert counts["pochhammer.qpoch_infinite.calls"] > 0
    if workload == "stress":
        assert counts["integrate.jackson_q_integral.rungs"] > 0
        assert counts["integrate.periodic_quadrature.integrand_points"] > 0
    if workload == "expand":
        assert counts["series.gf_expand.coeffs"] > 0
        assert counts["integrate.periodic_quadrature.calls"] == 0
        assert counts["integrate.jackson_q_integral.calls"] == 0


def test_self_times_cover_the_root_spans(runs):
    _, _, (_, trace), _ = runs
    roots = sum(end - start for _, parent, _, _, start, end in trace.rows() if parent < 0)
    assert sum(trace.self_times().values()) == pytest.approx(roots, rel=1e-9)
    assert min(trace.self_times().values()) >= 0.0


def test_uninstall_restores_the_originals():
    before = (qkernel.verify.qpoch_infinite, qkernel.integrate.qpoch_infinite,
              qkernel.pochhammer.qpoch_infinite)
    with Tracer():
        assert qkernel.verify.qpoch_infinite is not before[0]
    assert (qkernel.verify.qpoch_infinite, qkernel.integrate.qpoch_infinite,
            qkernel.pochhammer.qpoch_infinite) == before


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = Path(__file__).resolve().parent.parent
    copy = tmp_path / "bench"
    copy.mkdir()
    for source in bench.glob("*.py"):
        (copy / source.name).write_text(source.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(trace, section):
    import json

    from run import measure

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    metrics, problems, attempted, failed = measure("expand", 1, 0.05, trace)
    assert problems == [] and failed == 0 and attempted > 0
    assert list(metrics) == [m["name"] for m in spec[section]]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in spec[section])
