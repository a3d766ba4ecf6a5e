"""qkernel benchmark: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  The run is one process on one thread.
Each report is one call to ``qkernel.verify.CHECK_RUNNERS[id](**params)``,
timed from outside, and each pass over the workload's cases ends by
rendering its reports with ``qkernel.cli.render_reports(..., "json")``.

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
alternates untraced passes with traced ones (bench/spans.py), measures the
set-up split, and reports the per-layer metrics.  The spans of the first
traced pass are written to ``bench/out/``.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
output check held.  Every time of the program is a mean over the run, scaled
to a reference host speed (bench/hostspeed.py); the set-up times are medians
of fresh processes, not scaled.  bench/README.md says why.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostSpeed
from spans import Tracer
from workloads import WORKLOADS, make_workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

COLD_START = ["-m", "qkernel", "eval", "qpoch", "--a", "0.5", "--q", "0.3", "--n", "2"]
COLD_START_VALUE = 0.425  # (0.5; 0.3)_2 = (1 - 0.5)(1 - 0.15)
IMPORT_SPLIT = ("import time; t0 = time.perf_counter(); import numpy; "
                "t1 = time.perf_counter(); import qkernel; t2 = time.perf_counter(); "
                "print(t1 - t0, t2 - t1)")
SPAWNS = 9          # fresh processes per set-up measurement, spawned one at a time
MIN_PASSES = 3      # passes of each kind, even when one pass outlasts --seconds


class OutputError(Exception):
    """An output of the program failed one of the benchmark's checks."""


def spawn(args) -> tuple[float, str]:
    """Wall time and stdout of one fresh interpreter, run to completion."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    env.pop("QKERNEL_TOL", None)
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise OutputError(f"{args} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def spawn_setup(samples: dict, split: bool) -> None:
    """One CLI cold start; with `split`, also one bare interpreter start and
    one timed ``import numpy; import qkernel``.  Appends to `samples`."""
    elapsed, out = spawn(COLD_START)
    try:
        wrong = abs(float(out) - COLD_START_VALUE) > 1e-12
    except ValueError:
        wrong = True
    if wrong:
        raise OutputError(f"cold start printed {out.strip()!r}")
    samples.setdefault("setup_s", []).append(elapsed)
    if split:
        samples.setdefault("cli.start_s", []).append(spawn(["-c", "pass"])[0])
        numpy_s, import_s = map(float, spawn(["-c", IMPORT_SPLIT])[1].split())
        samples.setdefault("cli.numpy_s", []).append(numpy_s)
        samples.setdefault("cli.import_s", []).append(import_s)


def setup_medians(samples: dict) -> dict:
    out = {name: statistics.median(v) for name, v in samples.items()}
    if "cli.import_s" in out:
        out["cli.dispatch_s"] = (out["setup_s"] - out["cli.start_s"]
                                 - out["cli.numpy_s"] - out["cli.import_s"])
    return out


def report_key(report):
    """Everything a report computes, compared bit for bit (not runtime_ms)."""
    if report is None:
        return None
    params = tuple(sorted((k, repr(v)) for k, v in report.params.items()))
    return (report.check_id, params, repr(report.lhs), repr(report.rhs),
            repr(report.rel_err), report.passed)


def run_pass(cases, tracer=None, host=None):
    """One pass: every case once, then the JSON rendering.

    Returns (reports, per-report seconds, render seconds, pass seconds,
    rendered text).  The pass time is the sum of the step times, so the host
    speed samples that `host` takes between the check calls are not in it.
    A runner that raises yields None in place of its report.
    """
    from qkernel.cli import render_reports
    from qkernel.verify import CHECK_RUNNERS

    reports, latencies = [], []
    for index, case in enumerate(cases):
        runner = CHECK_RUNNERS[case.check_id]
        if host is not None:
            host.tick()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = runner(**case.params)
            else:
                tracer.report_id = index
                report = tracer.span("verify.report", runner, **case.params)
        except Exception as exc:  # a raising check is a failed operation, counted below
            print(f"# {case.check_id} {case.params} raised {exc!r}", file=sys.stderr)
            report = None
        latencies.append(time.perf_counter() - t0)
        reports.append(report)
    done = [r for r in reports if r is not None]
    t0 = time.perf_counter()
    if tracer is None:
        text = render_reports(done, "json")
    else:
        tracer.report_id = -1
        text = tracer.span("cli.render", render_reports, done, "json")
        tracer.counts["verify.reports"] += len(reports)
        tracer.counts["verify.failed"] += sum(not (r and r.passed) for r in reports)
    render_s = time.perf_counter() - t0
    return reports, latencies, render_s, math.fsum(latencies) + render_s, text


def check_outputs(workload, cases, reports, text) -> list[str]:
    """Problems with the first pass's outputs; empty when all is well."""
    problems = []
    for case, report in zip(cases, reports):
        if report is None:
            problems.append(f"{case.check_id} {case.params} raised")
        elif not report.passed and not case.known_failure:
            problems.append(f"{case.check_id} {case.params} failed, rel_err={report.rel_err:.3g}")
    if workload == "suite" and (len(reports) != 76 or problems):
        problems.append(f"suite is not 76/76: {sum(bool(r and r.passed) for r in reports)}"
                        f"/{len(reports)}")
    rendered = json.loads(text)
    done = [r for r in reports if r is not None]
    if [(d["check_id"], d["pass"]) for d in rendered] != [(r.check_id, r.passed) for r in done]:
        problems.append("render_reports JSON does not match the reports")
    return problems


@dataclass
class Phase:
    """What a run of timed passes keeps: every latency of each case, the
    pass times, and for traced passes their self times and the first trace.
    Reports are compared with the reference as they come and then dropped."""

    latencies: list = field(default_factory=list)
    pass_s: list = field(default_factory=list)
    self_times: list = field(default_factory=list)
    first_trace: object = None
    attempted: int = 0
    raised: int = 0
    problems: set = field(default_factory=set)

    def case_ms(self, scale) -> list:
        """Each case's mean latency, scaled, in ms, in case order."""
        return [1e3 * scale * statistics.fmean(v) for v in self.latencies]


def record_pass(phase, cases, reference, host, tracer=None) -> None:
    """Run one pass and add it to `phase`."""
    reports, latencies, _, pass_s, _ = run_pass(cases, tracer, host)
    phase.pass_s.append(pass_s)
    if not phase.latencies:
        phase.latencies = [array("d") for _ in latencies]
    for samples, seconds in zip(phase.latencies, latencies):
        samples.append(seconds)
    phase.attempted += len(reports)
    phase.raised += sum(r is None for r in reports)
    if [report_key(r) for r in reports] != reference:
        phase.problems.add("reports differ from the first pass"
                           + (" (traced)" if tracer is not None else ""))
    if tracer is not None:
        trace = tracer.take()
        phase.self_times.append(trace.self_times())
        if phase.first_trace is None:
            phase.first_trace = trace
        elif trace.counts != phase.first_trace.counts:
            phase.problems.add("counters differ between traced passes")


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_metrics(workload, cases, reports, phase, setup, scale) -> dict:
    case_ms = phase.case_ms(scale)
    print(f"# {len(phase.pass_s)} passes; report_ms over {len(case_ms)} cases, each the "
          f"mean of {len(phase.pass_s)} calls")
    if workload != "suite":
        print_cases(cases, reports, case_ms)
    case_ms.sort()
    return {
        "setup_s": metric(setup["setup_s"], "s"),
        "pass_s": metric(scale * statistics.fmean(phase.pass_s), "s"),
        "report_ms.p50": metric(percentile(case_ms, 50), "ms"),
        "report_ms.p90": metric(percentile(case_ms, 90), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def print_cases(cases, reports, case_ms):
    print(f"# {'case':18s} {'params':62s} {'rel_err':9s} pass  mean_ms")
    for case, report, ms in zip(cases, reports, case_ms):
        rel_err = f"{report.rel_err:.3g}" if report else "raised"
        params = ", ".join(f"{k}={v:.4g}" if isinstance(v, complex) else f"{k}={v}"
                           for k, v in case.params.items())
        print(f"# {case.check_id:18s} {params:62s} {rel_err:9s} "
              f"{bool(report and report.passed)!s:5s} {ms:8.3f}")


def traced_metrics(untraced, traced, setup, scale) -> dict:
    counts = traced.first_trace.counts

    def self_s(layer):
        return metric(scale * statistics.fmean(s[layer] for s in traced.self_times), "s")

    def count(name):
        return metric(counts[name], "count")

    untraced_s = scale * statistics.fmean(untraced.pass_s)
    traced_s = scale * statistics.fmean(traced.pass_s)
    nodes = counts["integrate.periodic_quadrature.nodes"]
    points = counts["integrate.periodic_quadrature.integrand_points"]
    print(f"# {len(untraced.pass_s)} untraced and {len(traced.pass_s)} traced passes; "
          f"untraced pass_s = {untraced_s:.6f} s, cold start = {setup['setup_s']:.4f} s")
    return {
        "pochhammer.qpoch_infinite.self_s": self_s("pochhammer.qpoch_infinite"),
        "pochhammer.qpoch_infinite.calls": count("pochhammer.qpoch_infinite.calls"),
        "pochhammer.qpoch_infinite.points": count("pochhammer.qpoch_infinite.points"),
        "pochhammer.qpoch_infinite.errors": count("pochhammer.qpoch_infinite.errors"),
        "pochhammer.qpoch_finite.self_s": self_s("pochhammer.qpoch_finite"),
        "pochhammer.qpoch_finite.calls": count("pochhammer.qpoch_finite.calls"),
        "series.phi_series.self_s": self_s("series.phi_series"),
        "series.phi_series.calls": count("series.phi_series.calls"),
        "series.phi_series.errors": count("series.phi_series.errors"),
        "series.gf_expand.self_s": self_s("series.gf_expand"),
        "series.gf_expand.calls": count("series.gf_expand.calls"),
        "series.gf_expand.coeffs": count("series.gf_expand.coeffs"),
        "polynomials.self_s": self_s("polynomials"),
        "polynomials.calls": count("polynomials.calls"),
        "integrate.periodic_quadrature.self_s": self_s("integrate.periodic_quadrature"),
        "integrate.periodic_quadrature.calls": count("integrate.periodic_quadrature.calls"),
        "integrate.periodic_quadrature.nodes": count("integrate.periodic_quadrature.nodes"),
        "integrate.periodic_quadrature.integrand_points":
            count("integrate.periodic_quadrature.integrand_points"),
        "integrate.periodic_quadrature.node_yield": metric(nodes / points if points else 0.0,
                                                           "ratio"),
        "integrate.periodic_quadrature.errors": count("integrate.periodic_quadrature.errors"),
        "integrate.jackson_q_integral.self_s": self_s("integrate.jackson_q_integral"),
        "integrate.jackson_q_integral.calls": count("integrate.jackson_q_integral.calls"),
        "integrate.jackson_q_integral.rungs": count("integrate.jackson_q_integral.rungs"),
        "integrate.jackson_q_integral.errors": count("integrate.jackson_q_integral.errors"),
        "integrate.weight.self_s": self_s("integrate.weight"),
        "integrate.weight.calls": count("integrate.weight.calls"),
        "integrate.weight.points": count("integrate.weight.points"),
        "verify.self_s": self_s("verify"),
        "verify.reports": count("verify.reports"),
        "verify.failed": count("verify.failed"),
        "fail_frac": metric(counts["verify.failed"] / counts["verify.reports"], "ratio"),
        "cli.render.self_s": self_s("cli.render"),
        "cli.import_s": metric(setup["cli.import_s"], "s"),
        "cli.numpy_s": metric(setup["cli.numpy_s"], "s"),
        "cli.start_s": metric(setup["cli.start_s"], "s"),
        "cli.dispatch_s": metric(setup["cli.dispatch_s"], "s"),
        "trace.overhead_frac": metric((traced_s - untraced_s) / untraced_s, "ratio"),
    }


def write_spans(workload, seed, trace) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for span_id, parent, report, name, start, end in trace.rows():
            fh.write(json.dumps({"id": span_id, "parent": parent, "report": report,
                                 "name": name, "start": start, "end": end}) + "\n")
    print(f"# spans of the first traced pass: {path.relative_to(ROOT)}")


def measure(workload, seed, seconds, trace) -> tuple[dict, list[str], int, int]:
    """Metrics, output problems, reports attempted and checks that raised."""
    cases = make_workload(workload, seed)
    reports, _, _, _, text = run_pass(cases)
    problems = check_outputs(workload, cases, reports, text)
    reference = [report_key(r) for r in reports]
    failed = sum(not (r and r.passed) for r in reports)
    print(f"# fail_frac = {failed}/{len(reports)} = {failed / len(reports):.4f}")
    # The set-up spawns and the host speed samples are spread over the
    # measured window, and traced passes alternate with untraced ones in ABBA
    # order, so that every mean samples the shared host over the whole
    # run, and neither kind always runs first after a spawn.
    tracer = Tracer() if trace else None
    order = [None, tracer] if trace else [None]
    untraced, traced, samples, host = Phase(), Phase(), {}, HostSpeed()
    started = time.perf_counter()
    for i in range(1, SPAWNS + 1):
        spawn_setup(samples, split=bool(trace))
        until = started + seconds * i / SPAWNS
        last = i == SPAWNS
        while time.perf_counter() < until or (last and len(untraced.pass_s) < MIN_PASSES):
            for kind in order:
                if kind is None:
                    record_pass(untraced, cases, reference, host)
                else:
                    with tracer:
                        record_pass(traced, cases, reference, host, tracer)
            order.reverse()
    scale = host.factor()
    print(f"# host speed: reference kernel mean {1e3 * host.mean_s():.4f} ms over "
          f"{len(host.samples)} samples; program times are scaled by {scale:.4f}")
    print(f"# unscaled: mean pass {statistics.fmean(untraced.pass_s):.6f} s, "
          f"median pass {statistics.median(untraced.pass_s):.6f} s")
    setup = setup_medians(samples)
    if tracer is None:
        phases = [untraced]
        metrics = untraced_metrics(workload, cases, reports, untraced, setup, scale)
    else:
        phases = [untraced, traced]
        metrics = traced_metrics(untraced, traced, setup, scale)
        write_spans(workload, seed, traced.first_trace)
    for phase in phases:
        problems += sorted(phase.problems)
    return (metrics, problems, sum(p.attempted for p in phases),
            sum(p.raised for p in phases))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qkernel" / "__init__.py").is_file():
        print(f"error: no qkernel sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # One thread: no BLAS thread pools (set before numpy is imported).
    # QKERNEL_TOL would change every verdict.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("QKERNEL_TOL", None)
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        metrics, problems, attempted, failed = measure(
            args.workload, args.seed, args.seconds, args.trace)
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"# {name:48s} {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"# OUTPUT CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
