"""Every case of the benchmark workloads keeps its verdict.

bench/workloads.py is loaded read-only from the source checkout.  A case not
marked known_failure must pass; a known failure must still come back as a
report.  A change that moves results in their last digits cannot flip a
benchmark verdict without this module failing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from qkernel import CHECK_RUNNERS, VerificationReport

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


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


workloads = load_workloads()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_verdicts(name, seed):
    for case in workloads.make_workload(name, seed):
        report = CHECK_RUNNERS[case.check_id](**case.params)
        assert isinstance(report, VerificationReport)
        if not case.known_failure:
            assert report.passed, (case, report.rel_err)
