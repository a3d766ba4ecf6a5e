"""Every case of the benchmark workloads keeps its verdict.

bench/workloads.py is loaded read-only from the source checkout (by
report_dump.load_workloads).  A case not marked known_failure must pass; a
known failure must still come back as a report.  A change that moves results
in their last digits cannot flip a benchmark verdict without this module
failing.  Every report's params, fed back to its runner, give the same
report, and every Jackson ladder of the suite and stress workloads calls
its integrand twice.
"""

import pytest

from qkernel import CHECK_RUNNERS, VerificationReport
from report_dump import SEEDS, load_workloads

workloads = load_workloads()


def _computed(report):
    return repr((report.lhs, report.rhs, report.rel_err, report.nodes_used, report.passed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_verdicts(name, seed):
    for case in workloads.make_workload(name, seed):
        report = CHECK_RUNNERS[case.check_id](**case.params)
        assert isinstance(report, VerificationReport)
        if not case.known_failure:
            assert report.passed, (case, report.rel_err)
        # a report's params are its runner's full arguments: fed back, they
        # give the same report
        again = CHECK_RUNNERS[case.check_id](**report.params)
        assert again.params == report.params
        assert _computed(again) == _computed(report), case


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["suite", "stress"])
def test_workload_ladders_call_their_integrand_twice(ladder_calls, name, seed):
    # the probe of 8 rungs, then one block up to the reach, within which
    # every prop-3.1 and prop-3.2 ladder of these workloads stops; blocks of
    # 8, 16, 32, ... rungs took 5 to 7 calls a stress prop-3.1 ladder
    for case in workloads.make_workload(name, seed):
        if case.check_id in ("prop-3.1", "prop-3.2"):
            ladder_calls.clear()
            CHECK_RUNNERS[case.check_id](**case.params)
            assert [calls for calls, _ in ladder_calls] == [2, 2], case
