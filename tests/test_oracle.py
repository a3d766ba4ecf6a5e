"""gf_expand against an independent 40-digit mpmath oracle.

The oracle applies the q-binomial theorem to each numerator/denominator pair,

    (a t; q)_inf / (b t; q)_inf = sum_k (a/b; q)_k b^k t^k / (q; q)_k,

and convolves the pair series in mpmath, so it shares nothing with the
per-factor Euler expansions inside gf_expand.  The error of a coefficient is
|got - true| / (1 + |true|); each bound sits 10-100x above the measured error.
"""

import math

import pytest

from qkernel import gf_expand

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
])
def test_gf_4_1_factors_match_oracle(beta, q, theta, cap, bound):
    # the factors of the shifted generating function that gf-4.1 checks
    phase = complex(math.cos(theta), math.sin(theta))
    numerators = [beta * q * phase, beta * q / phase]
    denominators = [phase, 1.0 / phase]
    assert worst_error(numerators, denominators, q, cap) <= bound


def test_complex_parameters_match_oracle():
    assert worst_error([0.3, 0.5j], [0.8, 0.2 - 0.1j], 0.4, 20) <= 1e-14
