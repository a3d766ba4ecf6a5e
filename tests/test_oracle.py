"""The kernel against an independent 40-digit mpmath oracle.

gf_expand: the oracle applies the q-binomial theorem to each
numerator/denominator pair,

    (a t; q)_inf / (b t; q)_inf = sum_k (a/b; q)_k b^k t^k / (q; q)_k,

and convolves the pair series in mpmath, so it shares nothing with the
q-difference recurrence inside gf_expand.  The error of a coefficient is
|got - true| / (1 + |true|).  gasper_c: the explicit sum over k of
(alpha;q)_k (beta;q)_{n-k} / ((q;q)_k (q;q)_{n-k}) e^{i(2k-n) theta}, and
the error is relative, |got - true| / |true|.  ultraspherical_table: the
same explicit sum at alpha = beta for every degree up to n, and the error
is |got - true| / (1 + |true|).

qpoch_infinite, qpoch_ladder and the Jackson ladder: mp.qp, and ladders in
mpmath that step down by the ratio of consecutive rungs, (v q^{i+1}; q)_inf
= (v q^i; q)_inf / (1 - v q^i).  The error is relative, |got - true| / |true|.

periodic_quadrature: the thm-1.3 closed form of the circle orthogonality,
from mp.qp at 30 digits, against the quadrature value of the check.

phi_series near q = 1: the q-binomial theorem and the Rogers 6W5 sum, their
products from mp.qp at 30 digits.  The bound is a priori, from the series
itself (see phi_series_error_bound).

h_norm and polynomials._circle_norm: the textbook closed forms of h_n(beta|q)
and of the thm-1.3 norm N_n(alpha, beta) in mpmath, at 40 digits.  The
prop-4.2 right side: mpmath's explicit sum for C_p(x; gamma|q), which the
coefficient of t^p equals, at 40 digits.

Each bound above sits 10-100x above the measured error.  The thm-1.2 right
side, c_j / h_n from the connection row, is held to Theorem 1.2 as the
paper states it, in 40-digit mpmath, and the askey-ismail closed form to
the connection rows it equals, under a priori roundoff budgets
(qpoch_budget) instead.  So are the closed forms that multiply a prefactor
by one qpoch_ratio, against mp.qp products at 40 digits: the right sides of
prop-3.1, askey-ismail (as stated) and thm-1.4 (with mp.qhyper for its two
2phi1 sums), and prop-3.2's closed-form factor, at the default-suite and
`stress` entries.
"""

import cmath
import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest

from qkernel import (QuadratureResult, connection_coeffs, gasper_c, gf_expand, h_norm,
                     jackson_q_integral, phi_series, qpoch_infinite, qpoch_ladder, verify,
                     verify_askey_ismail_chebyshev, verify_prop_3_1, verify_prop_3_2,
                     verify_prop_4_2, verify_thm_1_2, verify_thm_1_3, verify_thm_1_4, w_series)
from qkernel.pochhammer import EPS_PRODUCT, _split
from qkernel.polynomials import _circle_norm, ultraspherical_table
from qkernel.series import EPS_SERIES
from qkernel.verify import default_suite_config
from report_dump import SEEDS, load_workloads

mpmath = pytest.importorskip("mpmath")


def oracle_coeffs(numerators, denominators, q, cap):
    with mpmath.workdps(40):
        q = mpmath.mpmathify(q)
        coeffs = [mpmath.mpc(1)] + [mpmath.mpc(0)] * cap
        for a, b in zip(numerators, denominators):
            a, b = mpmath.mpmathify(a), mpmath.mpmathify(b)
            pair = [mpmath.qp(a / b, q, k) * b**k / mpmath.qp(q, q, k)
                    for k in range(cap + 1)]
            coeffs = [mpmath.fsum(coeffs[i] * pair[n - i] for i in range(n + 1))
                      for n in range(cap + 1)]
        return coeffs


def worst_error(numerators, denominators, q, cap):
    got = gf_expand(numerators, denominators, q, cap).coeffs
    true = oracle_coeffs(numerators, denominators, q, cap)
    with mpmath.workdps(40):
        return max(float(abs(g - t) / (1 + abs(t))) for g, t in zip(got, true))


@pytest.mark.parametrize("beta,q,theta,cap,bound", [
    (0.5, 0.3, 0.9, 24, 1e-13),
    (0.3, -0.6, 1.1, 30, 1e-13),
    (0.4 + 0.2j, 0.7, 0.5, 30, 1e-12),
    (0.5, 0.99, 0.9, 10, 1e-9),
    (0.5, 0.999, 0.9, 8, 1e-10),
    (0.5, 0.9, 0.9, 40, 1e-13),     # 9.8e-15 measured
    (0.5, 0.95, 0.9, 60, 1e-10),    # 2.7e-12 measured
])
def test_gf_4_1_factors_match_oracle(beta, q, theta, cap, bound):
    # the factors of the shifted generating function that gf-4.1 checks
    phase = complex(math.cos(theta), math.sin(theta))
    numerators = [beta * q * phase, beta * q / phase]
    denominators = [phase, 1.0 / phase]
    assert worst_error(numerators, denominators, q, cap) <= bound


def test_complex_parameters_match_oracle():
    assert worst_error([0.3, 0.5j], [0.8, 0.2 - 0.1j], 0.4, 20) <= 1e-14


def test_circle_function_at_the_weight_peak_matches_oracle():
    # thm-1.3's m = n = 30 integrand near theta = pi/2, where the weight is
    # about 8.4e6: |C_30| is about 9.8e4 and is off by 1.4e-10 (1.5e-15
    # relative), which keeps the integrand error near 1e-3
    n, theta, alpha, beta, q = 30, 1.5707, 0.4, -0.3, 0.9
    with mpmath.workdps(40):
        a, b, base = (mpmath.mpf(v) for v in (alpha, beta, q))
        true = mpmath.fsum(
            mpmath.qp(a, base, k) * mpmath.qp(b, base, n - k)
            / (mpmath.qp(base, base, k) * mpmath.qp(base, base, n - k))
            * mpmath.expj((2 * k - n) * mpmath.mpf(theta)) for k in range(n + 1))
        assert float(abs(gasper_c(n, theta, alpha, beta, q) - true) / abs(true)) <= 1e-13


def oracle_ultraspherical(n, x, beta, q, digits):
    """C_0, ..., C_n at x = cos(theta) by the explicit sum over k of
    (beta;q)_k (beta;q)_{m-k} / ((q;q)_k (q;q)_{m-k}) e^{i(m-2k) theta},
    whose imaginary parts cancel in pairs."""
    with mpmath.workdps(digits):
        beta, q = mpmath.mpmathify(beta), mpmath.mpmathify(q)
        theta = mpmath.acos(mpmath.mpf(x))
        ratios = [mpmath.qp(beta, q, k) / mpmath.qp(q, q, k) for k in range(n + 1)]
        return [mpmath.fsum(ratios[k] * ratios[m - k] * mpmath.cos((m - 2 * k) * theta)
                            for k in range(m + 1)) for m in range(n + 1)]


@pytest.mark.parametrize("beta,q,n,digits,bound", [
    (0.6, 0.3, 20, 40, 5e-14),      # 1.3e-15 measured
    (0.6, 0.9, 40, 40, 1e-12),      # 6.2e-14 measured
    (0.5, 0.95, 40, 40, 1e-12),     # 5.4e-14 measured
    # the explicit sum cancels about 34 digits here: at 40 digits it is off
    # by 5e-6, at 60 and 120 digits it gives the same error
    (0.4, 0.99, 40, 60, 1e-10),     # 4.1e-12 measured
    (-0.7, -0.8, 30, 40, 1e-13),    # 4.6e-15 measured
])
def test_ultraspherical_table_matches_oracle(beta, q, n, digits, bound):
    # every degree up to n at 9 angles from 0 to pi, both ends included
    points = np.cos(np.linspace(0.0, math.pi, 9))
    table = ultraspherical_table(n, points, beta, q)
    worst = 0.0
    for j, x in enumerate(points):
        true = oracle_ultraspherical(n, float(x), beta, q, digits)
        with mpmath.workdps(digits):
            worst = max(worst, *(float(abs(float(table[m][j]) - t) / (1 + abs(t)))
                                 for m, t in enumerate(true)))
    assert worst <= bound


def oracle_qp(a, q, digits=40):
    """(a;q)_inf to `digits` digits."""
    with mpmath.workdps(digits):
        return mpmath.qp(mpmath.mpmathify(a), mpmath.mpmathify(q), maxterms=10**6)


PRODUCT_ARGUMENTS = [0.5, -0.9, 0.7 - 0.4j, 1.8j, 0.0, 0.95 + 0.2j]
# at q = 0.999 the products of the others are below the smallest double;
# 20 digits keep mp.qp, which multiplies about 46000 factors there, near 1 s
# per argument
NORMAL_AT_0999 = [0.5, -0.3, 0.2 + 0.3j, 0.0]


PRODUCT_CASES = [  # q, arguments, oracle digits, bound
    (0.3, PRODUCT_ARGUMENTS, 40, 2e-14),
    (-0.6, PRODUCT_ARGUMENTS, 40, 2e-14),
    (0.9, PRODUCT_ARGUMENTS, 40, 1e-13),
    (0.95, PRODUCT_ARGUMENTS, 40, 1e-13),       # 4.5e-15 measured
    (0.99, PRODUCT_ARGUMENTS, 40, 1e-12),
    (0.999, NORMAL_AT_0999, 20, 1e-11),         # 3.0e-13 measured
    (0.5 + 0.3j, PRODUCT_ARGUMENTS, 40, 1e-13),
]


@pytest.mark.parametrize("q,arguments,digits,bound", PRODUCT_CASES,
                         ids=[f"{q}-{bound}" for q, _, _, bound in PRODUCT_CASES])
def test_qpoch_infinite_matches_oracle(q, arguments, digits, bound):
    # scalars one at a time, all of them as one 2-row array, which shares
    # the split of its largest modulus, and repeated over at least 16386
    # points (256 KiB), which takes one factor per block; from q = 0.9 on
    # every product sums the log series
    batch = qpoch_infinite(np.reshape(arguments, (2, -1)), q).ravel()
    wide = qpoch_infinite(np.tile(arguments, 16386 // len(arguments) + 1), q)
    wide = wide.reshape(-1, len(arguments))
    with mpmath.workdps(digits):
        for i, a in enumerate(arguments):
            true = oracle_qp(a, q, digits)
            for got in (qpoch_infinite(a, q), batch[i], *set(wide[:, i])):
                assert float(abs(got - true) / abs(true)) <= bound


# a complex base on a polar grid, q = rho e^{i psi}, against 30-digit mp.qp:
# a scalar in the factor form (rho <= 0.75) is a loop of Python complex
# products, which round differently from numpy's; 2.0e-15 measured there,
# 3.3e-15 in the series form (rho = 0.9)
@pytest.mark.parametrize("rho", [0.3, 0.6, 0.75, 0.9])
def test_scalars_at_a_complex_base_match_oracle(rho):
    for r, phi, psi in itertools.product((0.3, 1.0, 2.0), (0.5, 2.0, 3.0), (0.7, 2.2, -1.3)):
        a, q = cmath.rect(r, phi), cmath.rect(rho, psi)
        true = oracle_qp(a, q, 30)
        with mpmath.workdps(30):
            assert float(abs(qpoch_infinite(a, q) - true) / abs(true)) <= 1e-13, (a, q)


def oracle_ladder(v, q, count, digits=40):
    """(v q^i; q)_inf for i < count at `digits` digits, stepped down from mp.qp."""
    with mpmath.workdps(digits):
        v, q = mpmath.mpmathify(v), mpmath.mpmathify(q)
        value, rungs = oracle_qp(v, q, digits), []
        for i in range(count):
            rungs.append(value)
            value /= 1 - v * q**i
        return rungs


@pytest.mark.parametrize("q", [0.3, 0.9, 0.95, -0.4, 0.6 * np.exp(0.3j)])
def test_qpoch_ladder_matches_oracle(q):
    # rungs 0 ... 511 of every argument: at most 5.3e-15 measured
    table = qpoch_ladder(PRODUCT_ARGUMENTS, q, 512)
    with mpmath.workdps(40):
        for column, a in enumerate(PRODUCT_ARGUMENTS):
            for got, true in zip(table[:, column], oracle_ladder(a, q, 512)):
                assert float(abs(got - true) / abs(true)) <= 1e-13


LADDER_NEAR_ONE = [  # q, arguments, oracle digits, bound
    (0.99, PRODUCT_ARGUMENTS, 40, 1e-12),       # 1.6e-14 measured
    # a ConvergenceError while the ladder took the whole factor form
    # (40734 factors against the 10000 cap); 1.4e-13 measured
    (0.999, [0.5], 20, 1e-11),
    (0.999, [0.2 + 0.3j, 0.0], 20, 5e-12),      # 8.2e-14 measured
]


@pytest.mark.parametrize("q,arguments,digits,bound", LADDER_NEAR_ONE,
                         ids=[f"{q}-{arguments[0]}" for q, arguments, _, _ in LADDER_NEAR_ONE])
def test_qpoch_ladder_near_q_one_matches_oracle(q, arguments, digits, bound):
    # each column closes its K head factors with qpoch_infinite's log series
    table = qpoch_ladder(arguments, q, 512)
    with mpmath.workdps(digits):
        for column, a in enumerate(arguments):
            for got, true in zip(table[:, column], oracle_ladder(a, q, 512, digits)):
                assert float(abs(got - true) / abs(true)) <= bound


def test_qpoch_ladder_below_an_exact_zero_matches_oracle():
    # (4 q^i; q)_inf at q = 1/2 is 0 for i <= 2 and finite below
    table = qpoch_ladder([4.0], 0.5, 40)[:, 0]
    assert np.all(table[:3] == 0)
    with mpmath.workdps(40):
        for i in range(3, 40):
            true = oracle_qp(mpmath.mpf(4) / 2**i, 0.5)
            assert float(abs(table[i] - true) / abs(true)) <= 1e-13


def oracle_prop_3_1_ladder(a, b, c, x, y, q, endpoint):
    """Jackson integral from 0 to `endpoint` of the prop-3.1 integrand

        g(z) = (qz/x, qz/y, abcz; q)_inf / (az/y, bz/x, cz; q)_inf

    at 40 digits: the ladder starts from six mp.qp products and steps down by
    g(qz) = g(z) (1 - az/y)(1 - bz/x)(1 - cz) / ((1 - qz/x)(1 - qz/y)(1 - abcz))."""
    with mpmath.workdps(40):
        a, b, c, x, y, q, z = (mpmath.mpmathify(v) for v in (a, b, c, x, y, q, endpoint))
        g = (oracle_qp(q * z / x, q) * oracle_qp(q * z / y, q) * oracle_qp(a * b * c * z, q)
             / (oracle_qp(a * z / y, q) * oracle_qp(b * z / x, q) * oracle_qp(c * z, q)))
        total, qn = mpmath.mpf(0), mpmath.mpf(1)
        while abs(qn * g) > mpmath.mpf(10) ** -45:
            total += qn * g
            g *= ((1 - a * z / y) * (1 - b * z / x) * (1 - c * z)
                  / ((1 - q * z / x) * (1 - q * z / y) * (1 - a * b * c * z)))
            z *= q
            qn *= q
        return (1 - q) * endpoint * total


def test_jackson_ladders_of_prop_3_1_match_oracle():
    # the q=0.9 stress case: 645 rungs in blocks of 8 ... 256 over the two
    # ladders.  Each ladder is compared on its own: the integral from x to y
    # is their difference, about 5e-15 against ladders of about 0.05, so it
    # keeps only a few digits in double precision.
    a, b, c, x, y, q = 0.3, 0.2, 0.4, 0.5, 0.7, 0.9

    def integrand(z):
        return (qpoch_infinite(q * z / x, q) * qpoch_infinite(q * z / y, q)
                * qpoch_infinite(a * b * c * z, q)
                / (qpoch_infinite(a * z / y, q) * qpoch_infinite(b * z / x, q)
                   * qpoch_infinite(c * z, q)))

    for endpoint in (x, y):
        got = jackson_q_integral(integrand, 0.0, endpoint, q).value
        true = oracle_prop_3_1_ladder(a, b, c, x, y, q, endpoint)
        with mpmath.workdps(40):
            assert float(abs(got - true) / abs(true)) <= 3e-13


@pytest.mark.parametrize("a,b,c,q", [
    (0.3, 0.2, 0.4, 0.35), (0.3, 0.2, 0.4, 0.9), (0.3, 0.2, 0.4, 0.95),
    # the jittered q=0.85 stress cases of seeds 0, 1 and 2
    (0.2718, 0.1441, 0.4724, 0.85), (0.3916, 0.1515, 0.443, 0.85),
    (0.3085, 0.183, 0.3025, 0.85)])
def test_prop_3_1_check_ladders_match_oracle(monkeypatch, a, b, c, q):
    # the integrand verify_prop_3_1 hands the ladder, one qpoch_ladder table
    # per block, on each ladder alone: at most 2.4e-14 measured
    x, y = 0.5, 0.7
    integrands = []
    jackson = verify.jackson_q_integral

    def recorded(f, lower, upper, base):
        integrands.append(f)
        return jackson(f, lower, upper, base)

    monkeypatch.setattr(verify, "jackson_q_integral", recorded)
    assert verify_prop_3_1(a, b, c, x, y, q).passed
    (integrand,) = integrands
    for endpoint in (x, y):
        got = jackson_q_integral(integrand, 0.0, endpoint, q).value
        true = oracle_prop_3_1_ladder(a, b, c, x, y, q, endpoint)
        with mpmath.workdps(40):
            assert float(abs(got - true) / abs(true)) <= 3e-13


def oracle_circle_norms(alpha, beta, q, degrees, digits):
    """2 pi (a, b; q)_inf / (q, ab; q)_inf (1/(1 - a q^n) + 1/(1 - b q^n))
    (ab; q)_n / (q; q)_n for each n in `degrees`, at `digits` digits."""
    with mpmath.workdps(digits):
        a, b, q = (mpmath.mpmathify(v) for v in (alpha, beta, q))
        front = (2 * mpmath.pi * mpmath.qp(a, q) * mpmath.qp(b, q)
                 / (mpmath.qp(q, q) * mpmath.qp(a * b, q)))
        return [front * (1 / (1 - a * q**n) + 1 / (1 - b * q**n))
                * mpmath.qp(a * b, q, n) / mpmath.qp(q, q, n) for n in degrees]


def oracle_thm_1_3_diagonal(n, alpha, beta, q):
    """The thm-1.3 norm N_n(alpha, beta) at 30 digits."""
    return oracle_circle_norms(alpha, beta, q, [n], 30)[0]


def test_circle_orthogonality_at_the_roundoff_floor_matches_oracle():
    # the stress case, n = 10, meets its tolerance at 256 nodes and is within
    # 1.4e-11 of the truth (about 2.9e10); n = 30 stops at 512 nodes on the
    # roundoff floor of its integrand, within 1.0e-10 of the truth (8.7e11)
    for n, nodes, bound in ((10, 256, 5e-10), (30, 512, 1e-9)):
        report = verify_thm_1_3(n, n, 0.4, -0.3, 0.9)
        assert report.nodes_used == nodes
        true = oracle_thm_1_3_diagonal(n, 0.4, -0.3, 0.9)
        with mpmath.workdps(30):
            assert float(abs(report.lhs - true) / abs(true)) <= bound
            assert float(abs(report.rhs - true) / abs(true)) <= 1e-14


def oracle_h_norms(beta, q, degrees):
    """h_n(beta|q) = (q, beta^2; q)_inf (q;q)_n (1 - beta q^n)
    / (2 pi (beta, beta q; q)_inf (beta^2; q)_n (1 - beta)) for each n in
    `degrees`, at 40 digits."""
    with mpmath.workdps(40):
        b, q = mpmath.mpmathify(beta), mpmath.mpmathify(q)
        front = (mpmath.qp(q, q) * mpmath.qp(b * b, q)
                 / (2 * mpmath.pi * mpmath.qp(b, q) * mpmath.qp(b * q, q)))
        return [front * mpmath.qp(q, q, n) * (1 - b * q**n) / (mpmath.qp(b * b, q, n) * (1 - b))
                for n in degrees]


NORM_DEGREES = (0, 1, 2, 5, 12, 25, 40)
NORM_PARAMETERS = [0.6, -0.5, 0.94, -0.9, 0.0, 0.3 + 0.4j, -0.6 + 0.7j, 0.9j]
NORM_PAIRS = [(0.4, -0.3), (0.6, 0.6), (0.94, -0.9), (0.3 + 0.4j, 0.5), (-0.6 + 0.7j, 0.9j),
              (0.0, 0.7), (0.2 - 0.8j, 0.2 + 0.8j)]


# 1.0e-14 measured for h_norm and 9.2e-15 for _circle_norm, both at q = 0.95;
# 3.6e-15 and 2.7e-15 at |q| <= 0.6
@pytest.mark.parametrize("q", [0.3, 0.6, 0.9, 0.95, -0.5, 0.5 + 0.3j])
def test_norms_match_oracle(q):
    worst = 0.0
    with mpmath.workdps(40):
        for beta in NORM_PARAMETERS:
            for n, true in zip(NORM_DEGREES, oracle_h_norms(beta, q, NORM_DEGREES)):
                worst = max(worst, float(abs(h_norm(n, beta, q) - true) / abs(true)))
        for alpha, beta in NORM_PAIRS:
            for n, true in zip(NORM_DEGREES, oracle_circle_norms(alpha, beta, q, NORM_DEGREES, 40)):
                worst = max(worst, float(abs(_circle_norm(n, alpha, beta, q) - true) / abs(true)))
    assert worst <= 1e-13


def prop_4_2_grid():
    """The prop-4.2 entries of the default suite and of the `expand`
    workload at its seeds, and two at beta = 0."""
    workloads = load_workloads()
    grid = list(default_suite_config()["prop-4.2"])
    for seed in SEEDS:
        grid += [case.params for case in workloads.make_workload("expand", seed)
                 if case.check_id == "prop-4.2"]
    return grid + [{"beta": 0.0, "gamma": 0.6, "q": 0.4, "theta": 1.1, "degree": 12},
                   {"beta": 0.0, "gamma": 0.6, "q": 0.9, "theta": 1.1, "degree": 30}]


# at most 6.2e-16 measured at q <= 0.6 and 3.4e-14 at q = 0.9 (degree 30),
# where C_m(x; beta|q) from the recurrence is itself off by 3.4e-15
@pytest.mark.parametrize("params", prop_4_2_grid(),
                         ids=lambda params: "-".join(f"{value:.4g}" for value in params.values()))
def test_prop_4_2_coefficients_match_oracle(params):
    _, rhs, _ = verify_prop_4_2.__wrapped__(**params)
    true = oracle_ultraspherical(params["degree"], math.cos(params["theta"]),
                                 params["gamma"], params["q"], 40)
    with mpmath.workdps(40):
        worst = max(float(abs(complex(got) - t) / (1 + abs(t))) for got, t in zip(rhs, true))
    assert worst <= (1e-14 if params["q"] <= 0.6 else 5e-13)


U = 2.0**-53


def factor_budget(w, products, one=1.0):
    """Roundings, in units of u, that a factor one - w brings into a
    product: w is `products` complex products (each within 3 u) away from
    exact inputs, one - w magnifies their relative error by
    |w| / |one - w|, and the subtraction and the product into the
    accumulator cost 4 u more."""
    return 4 + 3 * products * abs(w) / abs(one - w)


def qpoch_budget(a, q, n=None, carried=0):
    """Roundings, in units of u, of (a;q)_n as qpoch_finite forms it or, n
    None, of (a;q)_inf as qpoch_infinite does, `a` itself `carried`
    products from exact inputs.  Factor k is 1 - a q^k, q^k a running
    product of k factors q.  The series form (pochhammer._split's M > 0)
    follows its K head factors with exp(-sum_{m <= M} b^m / (m (1 - q^m))),
    b = a q^K: term m is within 3 m (K + 2 + carried) + 3 m |q^m| / |1 - q^m|
    + 4 roundings, the sum adds M and exp and the last product 8."""
    head, terms = (n, 0) if n is not None else _split(abs(a), abs(q))
    budget = sum(factor_budget(a * q**k, k + 1 + carried) for k in range(head))
    b = a * q**head
    for m in range(1, terms + 1):
        budget += (abs(b**m / (m * (1 - q**m)))
                   * (3 * m * (head + 2 + carried) + 3 * m * abs(q**m / (1 - q**m)) + 4 + terms))
    return budget + (8 if terms else 0)


def connection_budget(m, k, beta, gamma, q):
    """Roundings, in units of u, of c_k, the coefficient of C_{m-2k}(x; beta|q)
    in connection_coeffs(m, beta, gamma, q): prod_{i<k} (beta - gamma q^i)
    (q^i a power, gamma q^i one product more) times (gamma;q)_{m-k}
    (1 - beta q^{m-2k}) over (q;q)_k (beta q;q)_{m-k} (1 - beta), four
    products and quotients."""
    fronts = sum(factor_budget(gamma * q**i, 2, one=beta) for i in range(k))
    return (fronts + qpoch_budget(gamma, q, m - k) + factor_budget(beta * q ** (m - 2 * k), 2)
            + qpoch_budget(q, q, k) + qpoch_budget(beta * q, q, m - k, carried=1)
            + factor_budget(beta, 0) + 12)


def circle_norm_budget(n, beta, q):
    """Roundings, in units of u, of N_n(beta, beta) / 2 from
    polynomials._circle_norm: 2 pi (beta, beta; q)_inf / (q, beta^2; q)_inf
    times 1/(1 - beta q^n) + 1/(1 - beta q^n) times (beta^2;q)_n / (q;q)_n,
    about ten products, quotients and sums."""
    products = (2 * qpoch_budget(beta, q) + qpoch_budget(q, q)
                + qpoch_budget(beta * beta, q, carried=1))
    return (products + 2 * factor_budget(beta * q**n, 2)
            + qpoch_budget(beta * beta, q, n, carried=1) + qpoch_budget(q, q, n) + 30)


def oracle_thm_1_2(m, n, beta, gamma, q):
    """Theorem 1.2 as the paper states it, at 40 digits: for m >= n, m = n
    (mod 2), j = (m - n)/2,

        beta^j (gamma/beta;q)_j (gamma;q)_{(m+n)/2} (1 - beta q^n)
        / ((1 - beta) (q;q)_j (beta q;q)_{(m+n)/2} h_n(beta|q)),

    beta^j (gamma/beta;q)_j taken as its limit prod_{i<j} (-gamma q^i) at
    beta = 0; zero otherwise."""
    if m < n or (m - n) % 2:
        return 0
    j, half = (m - n) // 2, (m + n) // 2
    h_n = oracle_h_norms(beta, q, [n])[0]
    with mpmath.workdps(40):
        b, g, q = (mpmath.mpmathify(v) for v in (beta, gamma, q))
        front = (b**j * mpmath.qp(g / b, q, j, maxterms=10**6) if b != 0
                 else mpmath.fprod(-g * q**i for i in range(j)))
        return (front * mpmath.qp(g, q, half, maxterms=10**6) * (1 - b * q**n)
                / ((1 - b) * mpmath.qp(q, q, j, maxterms=10**6)
                   * mpmath.qp(b * q, q, half, maxterms=10**6) * h_n))


def thm_1_2_grid():
    """The thm-1.2 entries of the default suite, the `stress` entry at its
    seeds, and entries at beta = 0 and at a complex beta."""
    workloads = load_workloads()
    grid = list(default_suite_config()["thm-1.2"])
    for seed in SEEDS:
        grid += [case.params for case in workloads.make_workload("stress", seed)
                 if case.check_id == "thm-1.2"]
    return grid + [{"m": m, "n": n, "beta": beta, "gamma": 0.5, "q": q}
                   for m, n, beta, q in [(2, 2, 0.0, 0.4), (4, 2, 0.0, 0.4), (6, 0, 0.0, 0.4),
                                         (3, 1, 0.0, 0.4), (8, 6, 0.0, 0.85),
                                         (4, 2, 0.3 + 0.2j, 0.4), (5, 1, 0.3 + 0.2j, 0.85)]]


# the bound is u times the roundings of c_j and N_n / 2 plus the truncation
# of the four infinite products, 2 EPS_PRODUCT each: 3.6e-14 to 9.4e-14 here,
# against 2.5e-16 to 2.2e-15 measured
@pytest.mark.parametrize("params", thm_1_2_grid(),
                         ids=lambda params: "-".join(f"{value:.4g}" for value in params.values()))
def test_thm_1_2_rhs_matches_the_stated_formula(params):
    m, n, beta, gamma, q = params.values()
    rhs = stubbed_rhs(verify_thm_1_2, params)
    true = oracle_thm_1_2(m, n, beta, gamma, q)
    if true == 0:
        assert rhs == 0
        return
    j = (m - n) // 2
    bound = (U * (connection_budget(m, j, beta, gamma, q) + circle_norm_budget(n, beta, q) + 3)
             + 4 * 2 * EPS_PRODUCT)
    with mpmath.workdps(40):
        assert float(abs(rhs - true) / abs(true)) <= bound


def stubbed_rhs(runner, params):
    """The right side of `runner` at `params`, its quadrature and its
    Jackson ladder stubbed out by the value 1, so prop-3.2's right side is
    its closed-form factor."""
    stub = QuadratureResult(1 + 0j, 0, 0.0, 0.0, "tolerance")
    with mock.patch.object(verify, "periodic_quadrature", lambda f: stub), \
            mock.patch.object(verify, "jackson_q_integral", lambda *args: stub):
        return runner(**params).rhs


# T_m = (U_m - U_{m-2}) / 2 and U_m(x) = C_m(x; q|q), so by thm-1.2 at gamma = q
# the stated closed form is (c_k(n+2k) - c_{k-1}(n+2k-2)) / 2 times 1/h_n =
# N_n(beta, beta) / 2.  The difference magnifies the roundings of the two
# coefficients by kappa = (|c_k| + |c_{k-1}|) / |c_k - c_{k-1}|, up to 197
# here (n = 10, k = 4, beta = 0.99, q = 0.3); 4.2e-14 measured at worst.
@pytest.mark.parametrize("beta,q", itertools.product([-0.4, 0.5, 0.99], [0.3, 0.9]))
def test_askey_ismail_closed_form_is_two_connection_rows(beta, q):
    for n, k in itertools.product(range(11), range(1, 5)):
        stated = stubbed_rhs(verify_askey_ismail_chebyshev,
                                   {"n": n, "k": k, "beta": beta, "q": q})
        upper = connection_coeffs(n + 2 * k, beta, q, q)[k]
        lower = connection_coeffs(n + 2 * k - 2, beta, q, q)[k - 1]
        rows = (upper - lower) / 2 * (_circle_norm(n, beta, beta, q) / 2)
        kappa = (abs(upper) + abs(lower)) / abs(upper - lower)
        coefficients = max(connection_budget(n + 2 * k, k, beta, q, q),
                           connection_budget(n + 2 * k - 2, k - 1, beta, q, q))
        bound = (U * (kappa * (coefficients + 2) + circle_norm_budget(n, beta, q)
                      + askey_ismail_budget(n, k, beta, q))
                 + 8 * 2 * EPS_PRODUCT)
        assert abs(stated - rows) <= bound * abs(rows), (n, k)


def askey_ismail_budget(n, k, beta, q):
    """Roundings, in units of u, of the askey-ismail closed form as the
    check forms it: pi [n+k choose k]_q from three (q;q)_j, the factors
    1 - q^{n+2k} and 1 - q^{n+k}, the qpoch_ratio of (beta, beta q^{n+k+1};
    q)_inf over (q, beta^2 q^n; q)_inf and prod_{j<k} (beta - q^j), and 20
    for the products and quotients that join them."""
    return (qpoch_budget(q, q, n + k) + qpoch_budget(q, q, k) + qpoch_budget(q, q, n)
            + factor_budget(q ** (n + 2 * k), 1) + factor_budget(q ** (n + k), 1)
            + qpoch_budget(beta, q) + qpoch_budget(q, q)
            + qpoch_budget(beta * q ** (n + k + 1), q, carried=2)
            + qpoch_budget(beta * beta * q**n, q, carried=3)
            + sum(factor_budget(q**j, 1, one=beta) for j in range(k)) + 20)


def ratio_budget(numerators, denominators, q):
    """Roundings, in units of u, of pochhammer.qpoch_ratio: qpoch_budget of
    each argument, given as a pair (a, carried), 3 u for each complex
    product that joins the factors of a side and 6 u for the quotient."""
    sides = [*numerators, *denominators]
    return sum(qpoch_budget(a, q, carried=c) for a, c in sides) + 3 * (len(sides) - 2) + 6


def closed_form_grid(check_id):
    """The `check_id` entries of the default suite and of the `stress`
    workload at its seeds, each once."""
    workloads = load_workloads()
    grid = list(default_suite_config()[check_id])
    for seed in SEEDS:
        grid += [case.params for case in workloads.make_workload("stress", seed)
                 if case.check_id == check_id and case.params not in grid]
    return grid


def oracle_ratio(numerators, denominators, q):
    """(a_1, ...; q)_inf / (b_1, ...; q)_inf of mpmath numbers at the
    working precision, by mp.qp."""
    return (mpmath.fprod(oracle_qp(a, q) for a in numerators)
            / mpmath.fprod(oracle_qp(b, q) for b in denominators))


def grid_ids(params):
    return "-".join(f"{value:.4g}" for value in params.values())


# The closed forms below multiply a prefactor by one qpoch_ratio.  Each
# bound is u times the roundings of that evaluation plus 2 EPS_PRODUCT per
# infinite product: 1.5e-13 to 1.4e-12 for prop-3.1, against 4.0e-17 to
# 1.2e-14 measured (q = 0.95)
@pytest.mark.parametrize("params", closed_form_grid("prop-3.1"), ids=grid_ids)
def test_prop_3_1_rhs_matches_oracle(params):
    a, b, c, x, y, q = params.values()
    rhs = stubbed_rhs(verify_prop_3_1, params)
    numerators = [(q, 0), (x / y, 1), (q * y / x, 2), (a * b, 1), (a * c * x, 2), (b * c * y, 2)]
    denominators = [(a * x / y, 2), (b * y / x, 2), (a, 0), (b, 0), (c * x, 1), (c * y, 1)]
    # (1 - q) y times the ratio: a subtraction and two products
    bound = U * (ratio_budget(numerators, denominators, q) + 7) + 12 * 2 * EPS_PRODUCT
    with mpmath.workdps(40):
        a, b, c, x, y, q = (mpmath.mpmathify(v) for v in params.values())
        true = (1 - q) * y * oracle_ratio([q, x / y, q * y / x, a * b, a * c * x, b * c * y],
                                          [a * x / y, b * y / x, a, b, c * x, c * y], q)
        assert float(abs(rhs - true) / abs(true)) <= bound


# the right side at a stubbed ladder value 1 is the closed-form factor
# (ab;q)_n (a, b, by/x, ax/y; q)_inf / ((1-q) y (q, ab, x/y, qy/x; q)_inf):
# bound 1.2e-13 to 4.3e-13, 1.4e-15 to 2.6e-15 measured
@pytest.mark.parametrize("params", closed_form_grid("prop-3.2"), ids=grid_ids)
def test_prop_3_2_closed_form_factor_matches_oracle(params):
    n, a, b, x, y, q = params.values()
    factor = stubbed_rhs(verify_prop_3_2, params)
    numerators = [(a, 0), (b, 0), (b * y / x, 2), (a * x / y, 2)]
    denominators = [(q, 0), (a * b, 1), (x / y, 1), (q * y / x, 2)]
    # times (ab;q)_n, over (1 - q) y: two products, a subtraction, a quotient
    bound = (U * (ratio_budget(numerators, denominators, q)
                  + qpoch_budget(a * b, q, n, carried=1) + 13)
             + 8 * 2 * EPS_PRODUCT)
    with mpmath.workdps(40):
        a, b, x, y, q = (mpmath.mpmathify(v) for v in (a, b, x, y, q))
        true = (mpmath.qp(a * b, q, n) / ((1 - q) * y)
                * oracle_ratio([a, b, b * y / x, a * x / y], [q, a * b, x / y, q * y / x], q))
        assert float(abs(factor - true) / abs(true)) <= bound


# the closed form as the paper states it: bound 6.6e-14 to 1.9e-13, 2.8e-16
# to 2.1e-15 measured
@pytest.mark.parametrize("params", closed_form_grid("askey-ismail"), ids=grid_ids)
def test_askey_ismail_stated_closed_form_matches_oracle(params):
    n, k, beta, q = params.values()
    rhs = stubbed_rhs(verify_askey_ismail_chebyshev, params)
    bound = U * askey_ismail_budget(n, k, beta, q) + 4 * 2 * EPS_PRODUCT
    with mpmath.workdps(40):
        b, q = mpmath.mpmathify(beta), mpmath.mpmathify(q)
        true = (mpmath.pi * mpmath.qp(q, q, n + k) / (mpmath.qp(q, q, k) * mpmath.qp(q, q, n))
                * (1 - q ** (n + 2 * k)) / (1 - q ** (n + k))
                * oracle_ratio([b, b * q ** (n + k + 1)], [q, b * b * q**n], q)
                * mpmath.fprod(b - q**j for j in range(k)))
        assert float(abs(rhs - true) / abs(true)) <= bound


# 2 pi (a, b; q)_inf / (q, ab; q)_inf times the two 2phi1 sums divided by
# 1 - a and 1 - b.  Each sum is within phi_series_error_bound, its upper and
# lower parameters and z a product from the exact inputs, which holds the
# tail that phi_series' stop rule leaves, EPS_SERIES (1 + |sum|) at most:
# bound 8.8e-14 to 1.5e-13, 5.7e-16 to 1.1e-14 measured, mostly that tail
@pytest.mark.parametrize("params", closed_form_grid("thm-1.4"), ids=grid_ids)
def test_thm_1_4_rhs_matches_oracle(params):
    alpha, beta, s, t, q = params.values()
    rhs = stubbed_rhs(verify_thm_1_4, params)
    w = s * t
    sums = [([alpha * beta, alpha], [alpha * q], alpha), ([alpha * beta, beta], [beta * q], beta)]
    with mpmath.workdps(40):
        a, b, s, t, base = (mpmath.mpmathify(v) for v in params.values())
        # mp.qhyper does not converge at z = 0, where each sum is 1
        phis = [mpmath.qhyper([a * b, c], [c * base], base, s * t) if s * t else 1
                for c in (a, b)]
        terms = [phi / (1 - c) for phi, c in zip(phis, (a, b))]
        true = 2 * mpmath.pi * oracle_ratio([a, b], [base, a * b], base) * mpmath.fsum(terms)
        # each sum within its bounds, then 1 - c, the quotient and the sum of the two
        series_error = sum(phi_series_error_bound(upper, w, q, lower, inputs=1) / abs(1 - c)
                           + 10 * U * float(abs(term))
                           for (upper, lower, c), term in zip(sums, terms))
        # 2 pi times the ratio, times the series: two products
        bound = (U * (ratio_budget([(alpha, 0), (beta, 0)], [(q, 0), (alpha * beta, 1)], q) + 7)
                 + 4 * 2 * EPS_PRODUCT + series_error / float(abs(mpmath.fsum(terms))))
        assert float(abs(rhs - true) / abs(true)) <= bound


def phi_series_error_bound(upper, z, q, lower=(), inputs=0):
    """u sum_n |t_n| (64 + K_n) + EPS_SERIES (1 + |sum_n t_n|), u = 2**-53,
    from the terms t_n of the series in 30-digit mpmath (mp_phi_series).
    The second term is the tail that phi_series' stop rule leaves: it
    stops once its certified tail bound is at most EPS_SERIES (1 + |total|),
    about 90 u (1 + |total|).  64 u |t_n| covers the summation and the few
    roundings of each term; K_n u bounds the
    error that term n carries in from the factors 1 - c q^k, k < n, of
    every upper and lower parameter c and of q: c q^k is k + 1 complex
    products away from c, each within 3 u (Brent, Percival and
    Zimmermann, Math. Comp. 76, 2007: sqrt(5) u), and 1 - w magnifies a
    relative error of w by |w| / |1 - w|.  So K_n sums 3 m |w| / |1 - w|
    over those factors, m the products behind w, with w in double
    precision, as phi_series forms it.  When the parameters and z are
    themselves `inputs` products from exact inputs, each c q^k is that
    many products further away and z^n carries 3 n inputs u more."""
    return mp_phi_series(tuple(upper), z, q, tuple(lower), inputs)[1]


@functools.cache
def mp_phi_series(upper: tuple, z, q, lower: tuple = (), inputs=0):
    """The series summed in 30-digit mpmath, an mpc, and its
    phi_series_error_bound; each series is summed once per test run.  The
    sum stops at a term below 1e-25 sum|t_n|: the tail it leaves is far
    below the bound's 64 u sum|t_n|, even at a term ratio of 0.999."""
    with mpmath.workdps(30):
        params = [complex(c) for c in upper + lower]
        mp_params = [mpmath.mpmathify(c) for c in params]
        mp_q, mp_z = mpmath.mpmathify(q), mpmath.mpmathify(z)
        r = len(upper)
        term, mp_qk, qk, carried, k = mpmath.mpc(1), mpmath.mpf(1), 1.0 + 0j, 0.0, 0
        size = weighted = total = mpmath.mpf(0)
        modulus, negligible = mpmath.mpf(1), mpmath.mpf(10) ** -25
        while k < 10 or modulus > negligible * size:
            size += modulus
            total += term
            weighted += modulus * (64 + carried)
            factors = [(c * qk, k + 1 + inputs) for c in params] + [(q * qk, k + 2)]
            carried += 3 * inputs + sum(3 * m * abs(w) / abs(1 - w) for w, m in factors)
            ones = [1 - c * mp_qk for c in mp_params]
            term *= mpmath.fprod(ones[:r]) / ((1 - mp_q * mp_qk) * mpmath.fprod(ones[r:])) * mp_z
            modulus = abs(term)
            mp_qk *= mp_q
            qk *= q
            k += 1
        return total, float(weighted) * 2.0**-53 + EPS_SERIES * (1 + float(abs(total)))


def test_series_error_bound_covers_the_stop_rule_tail():
    # a 2phi1 at q = 0.3 that stops on its tail bound: 8.68e-15 off the
    # 40-digit value, more than the 7.37e-15 that the roundings alone
    # allow, and within the 2.77e-14 that adds the tail the stop rule leaves
    upper, z, q, lower = [0.16, 0.4], 0.04, 0.3, [0.12]
    with mpmath.workdps(40):
        true = mpmath.qhyper([mpmath.mpf(c) for c in upper], [mpmath.mpf(c) for c in lower],
                             mpmath.mpf(q), mpmath.mpf(z))
        error = float(abs(phi_series(upper, z, q, lower) - true))
    assert error <= phi_series_error_bound(upper, z, q, lower)


# stress's qbinomial 1phi0(0.4; -; q, 0.5), 139 and 876 terms in
# phi_series: measured 187 and 8816 u sum|t_n| off, bound 15273 and
# 1411317 u sum|t_n|; its terms are positive, so sum|t_n| is the value,
# 1.4e16 and 1.8e161
@pytest.mark.parametrize("q", [0.99, 0.999])
def test_q_binomial_near_q_one_matches_oracle(q):
    with mpmath.workdps(30):
        base = mpmath.mpf(q)
        true = (mpmath.qp(mpmath.mpf(0.4) * mpmath.mpf(0.5), base, maxterms=10**6)
                / mpmath.qp(mpmath.mpf(0.5), base, maxterms=10**6))
        error = float(abs(mpmath.mpc(phi_series([0.4], 0.5, q)) - true))
    assert error <= phi_series_error_bound([0.4], 0.5, q)


def test_rogers_6w5_near_q_one_matches_oracle():
    # the expand workload's 6W5 at q = 0.99, 139 terms: measured 5.2 u
    # sum|t_n| off, bound 816 u sum|t_n|, sum|t_n| = 2.89
    a, b, c, d, q = 0.1, 0.7, 0.6, 0.8, 0.99
    z = a * q / (b * c * d)
    root = cmath.sqrt(a)
    upper = [a, q * root, -q * root, b, c, d]  # w_series' substitution
    lower = [root, -root, q * a / b, q * a / c, q * a / d]
    with mpmath.workdps(30):
        mp_a, mp_b, mp_c, mp_d, base = (mpmath.mpf(v) for v in (a, b, c, d, q))
        aq = mp_a * base
        factors = [mpmath.qp(v, base, maxterms=10**6) for v in
                   (aq, aq / (mp_b * mp_c), aq / (mp_c * mp_d), aq / (mp_b * mp_d),
                    aq / mp_b, aq / mp_c, aq / mp_d, aq / (mp_b * mp_c * mp_d))]
        true = mpmath.fprod(factors[:4]) / mpmath.fprod(factors[4:])
        error = float(abs(mpmath.mpc(w_series(a, [b, c, d], q, z)) - true))
    assert error <= phi_series_error_bound(upper, z, q, lower)
