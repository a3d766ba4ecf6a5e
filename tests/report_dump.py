"""Print every computed field of every benchmark and default-suite report.

    PYTHONPATH=src python tests/report_dump.py > reports.txt

One line per report: workload, seed, check id, then the repr of lhs, rhs,
rel_err, abs_err, params, nodes_used, pass and tol.  The reports are those
of the `suite`, `stress` and `expand` workloads at seeds 0-2 and of
`run_suite()` (385 in all).  Running it at two versions and diffing the
outputs shows every report value a change moves, params key order included.

bench/workloads.py is loaded read-only from the source checkout.  The file
name keeps pytest from collecting it.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
SEEDS = (0, 1, 2)


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is processed
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def dump_line(label, report) -> str:
    fields = (report.lhs, report.rhs, report.rel_err, report.abs_err, report.params,
              report.nodes_used, report.passed, report.tol)
    return " ".join([label, report.check_id] + [repr(field) for field in fields])


def main() -> None:
    from qkernel import CHECK_RUNNERS, run_suite

    workloads = load_workloads()
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for case in workloads.make_workload(name, seed):
                report = CHECK_RUNNERS[case.check_id](**case.params)
                print(dump_line(f"{name}:{seed}", report))
    for report in run_suite():
        print(dump_line("run_suite", report))


if __name__ == "__main__":
    main()
