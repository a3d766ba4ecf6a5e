"""The seeded workload generator: reproducible, pinned and in-domain.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import math
import sys

import pytest

import qkernel.verify as verify
from qkernel.errors import DomainError
from workloads import WORKLOADS, make_workload


def _key(case):
    return (case.check_id, repr(sorted(case.params.items())), case.pinned, case.known_failure)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert [_key(c) for c in make_workload(workload, 7)] == \
        [_key(c) for c in make_workload(workload, 7)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_permutes_the_order(workload):
    orders = {tuple(_key(c) for c in make_workload(workload, seed)) for seed in range(5)}
    assert len(orders) == 5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pinned_cases_are_always_present(workload):
    pinned = {_key(c) for c in make_workload(workload, 0) if c.pinned}
    assert pinned
    for seed in range(1, 30):
        assert {_key(c) for c in make_workload(workload, seed) if c.pinned} == pinned


@pytest.mark.parametrize("workload", ("stress", "expand"))
def test_jitter_moves_only_unpinned_cases(workload):
    unpinned = {frozenset(_key(c) for c in make_workload(workload, seed) if not c.pinned)
                for seed in range(5)}
    assert len(unpinned) == 5


def test_suite_is_the_default_suite():
    cases = make_workload("suite", 3)
    assert len(cases) == 76
    assert all(c.pinned and not c.known_failure for c in cases)


def _outcomes(cases, monkeypatch):
    """Run every case; return (report, exception type behind a failed report)."""
    raised = []
    original = verify._failed

    def recording_failed(*args, **kwargs):
        raised.append(type(sys.exc_info()[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "_failed", recording_failed)
    out = []
    for case in cases:
        raised.clear()
        report = verify.CHECK_RUNNERS[case.check_id](**case.params)
        out.append((report, raised[0] if raised else None))
    return out


@pytest.mark.parametrize("workload,seeds", [("suite", [0]), ("stress", [0, 1, 2]),
                                            ("expand", range(10))])
def test_every_input_lies_in_its_domain(workload, seeds, monkeypatch):
    for seed in seeds:
        cases = make_workload(workload, seed)
        for case, (report, error) in zip(cases, _outcomes(cases, monkeypatch)):
            assert error is not DomainError, (case.check_id, case.params)
            if report.rel_err == math.inf:  # a kernel error was caught and recorded
                assert error is not None, (case.check_id, case.params)
            if not case.known_failure:
                assert report.passed, (case.check_id, case.params, report.rel_err)
