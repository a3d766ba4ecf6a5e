"""The verdicts the north star asks for at the corners of its domain: q near
1, high degree, results much smaller than 1 and complex parameters.

Each row runs one check and states the verdict it must reach: a pass, or a
failure whose cause the row names.  A row whose verdict is wrong today is
marked xfail(strict=True) with the reason, so the change that mends it must
also drop the mark.  No row's tol is set from its measured error; every
row keeps its check's default tol.  The prop-3.1 row at q = 0.95 and the
two qbinomial rows run the numpy blocks of the Jackson ladder and of
phi_series.  A required failure names its cause: kappa is
sum|terms| / |sum| of the engine that fails, and kappa u (u = 2**-53) past
the check's tol makes the report ill-conditioned.
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
ZERO_RHS = pytest.mark.xfail(
    strict=True, reason="rhs = 0, and lhs is the roundoff of a sum with kappa = 8.6e14, "
                        "so rel_err reads 1.0; against h sum|f| it is 1e-15")
PROP_3_2 = {"a": 0.3, "b": 0.2, "x": 0.5, "y": 0.7, "q": 0.95}
THM_1_3 = {"alpha": 0.4, "beta": -0.3}

ROWS = [  # check id, parameters, whether the report must pass
    # lhs -7.5e-17 after 1353 rungs against rhs 5.1e-30
    pytest.param("prop-3.1", {**PROP_3_1, "q": 0.95}, False, marks=FALSE_PASS,
                 id="prop-3.1-q0.95"),
    # lhs -2.1e-72 after 16 rungs against rhs -3.7e-151
    pytest.param("prop-3.1", {**PROP_3_1, "q": 0.99}, False, marks=FALSE_PASS,
                 id="prop-3.1-q0.99"),
    pytest.param("prop-3.2", {"n": 40, **PROP_3_2}, True, marks=ABSOLUTE_STOP,
                 id="prop-3.2-n40-q0.95"),
    # ill-conditioned ladders, kappa 3.0e14, 2.8e14 and 4.1e10: with a
    # relative stop they read 1.0, 2.0e-2 and 6.1e-7
    pytest.param("prop-3.2", {"n": 10, **PROP_3_2}, False, id="prop-3.2-n10-q0.95"),
    pytest.param("prop-3.2", {"n": 20, **PROP_3_2}, False, id="prop-3.2-n20-q0.95"),
    pytest.param("prop-3.2", {"n": 30, **PROP_3_2}, False, id="prop-3.2-n30-q0.95"),
    pytest.param("thm-1.1", {"m": 40, "n": 40, "beta": 0.6, "q": 0.99}, True,
                 id="thm-1.1-m40-n40-q0.99"),
    pytest.param("thm-1.1", {"m": 38, "n": 40, "beta": 0.6, "q": 0.99}, True, marks=ZERO_RHS,
                 id="thm-1.1-m38-n40-q0.99"),
    pytest.param("thm-1.2", {"m": 40, "n": 38, "beta": 0.25, "gamma": 0.5, "q": 0.95}, True,
                 id="thm-1.2-m40-n38-q0.95"),
    # ill-conditioned quadrature: kappa = 2.1e10, kappa u = 2.3e-6 > tol
    pytest.param("thm-1.3", {"m": 40, "n": 40, **THM_1_3, "q": 0.95}, False,
                 id="thm-1.3-m40-n40-q0.95"),
    # ill-conditioned quadrature: kappa = 7.9e14 at 2048 nodes
    pytest.param("thm-1.3", {"m": 20, "n": 20, **THM_1_3, "q": 0.99}, False,
                 id="thm-1.3-m20-n20-q0.99"),
    # the periodic quadrature at q = 0.99 against two 2phi1 sums by phi_series
    pytest.param("thm-1.4", {"alpha": 0.5, "beta": 0.2, "s": 0.3, "t": 0.25, "q": 0.99}, True,
                 id="thm-1.4-q0.99"),
    pytest.param("askey-ismail", {"n": 40, "k": 3, "beta": 0.5, "q": 0.95}, True,
                 id="askey-ismail-n40-k3-q0.95"),
    pytest.param("gf-4.1", {"beta": 0.5, "theta": 0.9, "degree": 80, "q": 0.99}, True,
                 id="gf-4.1-degree80-q0.99"),
    # ill-conditioned connection sum: kappa = 3.8e6, kappa u = 4.2e-10 > tol 1e-10
    pytest.param("rogers-connection", {"n": 40, "beta": 0.4, "gamma": 0.7, "q": 0.99}, False,
                 id="rogers-connection-n40-q0.99"),
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
