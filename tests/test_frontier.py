"""The verdicts the north star asks for at the corners of its domain: q near
1, high degree, results much smaller than 1 and complex parameters.

Each row runs one check and states the verdict it must reach: a pass, or a
failure whose cause the row names.  A row whose verdict is wrong today is
marked xfail(strict=True) with the reason, so the change that mends it must
also drop the mark.  No row's tol is set from its measured error; every
row keeps its check's default tol.  The prop-3.1 row at q = 0.95 and the
two qbinomial rows run the numpy blocks of the Jackson ladder and of
phi_series.
"""

import cmath

import pytest

from qkernel import CHECK_RUNNERS

PROP_3_1 = {"a": 0.3, "b": 0.2, "c": 0.4, "x": 0.5, "y": 0.7}
FALSE_PASS = pytest.mark.xfail(
    strict=True, reason="lhs and rhs are both far below 1 and disagree, so only the "
                        "1 + max(|lhs|, |rhs|) floor of rel_err passes the report")
ABSOLUTE_STOP = pytest.mark.xfail(
    strict=True, reason="the ladder stops after 16 rungs on its absolute rule "
                        "tail <= EPS_SERIES (1 + |total|); a relative stop passes")

ROWS = [  # check id, parameters, whether the report must pass
    # lhs -7.5e-17 after 1353 rungs against rhs 5.1e-30
    pytest.param("prop-3.1", {**PROP_3_1, "q": 0.95}, False, marks=FALSE_PASS,
                 id="prop-3.1-q0.95"),
    # lhs -2.1e-72 after 16 rungs against rhs -3.7e-151
    pytest.param("prop-3.1", {**PROP_3_1, "q": 0.99}, False, marks=FALSE_PASS,
                 id="prop-3.1-q0.99"),
    pytest.param("prop-3.2", {"n": 40, "a": 0.3, "b": 0.2, "x": 0.5, "y": 0.7, "q": 0.95}, True,
                 marks=ABSOLUTE_STOP, id="prop-3.2-n40-q0.95"),
    # an ill-conditioned series: phi_series is off in the leading digit
    # against the 40-digit -6.7e12+1.9e13i, and the report says FAIL
    pytest.param("qbinomial", {"a": cmath.rect(0.8, 0.5), "z": cmath.rect(0.7, -0.3),
                               "q": 0.995}, False, id="qbinomial-complex-q0.995"),
    # 876 terms, most of them in numpy blocks
    pytest.param("qbinomial", {"a": 0.4, "z": 0.5, "q": 0.999}, True, id="qbinomial-q0.999"),
]


@pytest.mark.parametrize("check_id,params,passes", ROWS)
def test_frontier_verdict(check_id, params, passes):
    report = CHECK_RUNNERS[check_id](**params)
    assert report.passed is passes
