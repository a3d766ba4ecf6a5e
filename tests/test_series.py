"""Truncated power series, generating-function expansion, and the basic
hypergeometric summation engine."""

import numpy as np
import pytest

from qkernel import (ConvergenceError, DomainError, HypergeometricSpec,
                     Method, PoleError, QContext, TruncatedPowerSeries,
                     gf_expand, phi_series, qpoch_finite, qpoch_infinite,
                     rogers_6w5_rhs, ultraspherical_c, w_series)


class TestPowerSeries:
    def test_needs_constant_term(self):
        with pytest.raises(DomainError):
            TruncatedPowerSeries(())


class TestGfExpand:
    def test_no_factors_is_one(self):
        series = gf_expand([], [], 0.3, 4)
        assert series.coeffs == tuple([1.0] + [0.0] * 4)

    def test_q_binomial_theorem_coefficients(self):
        # (a t; q)_inf / (t; q)_inf has t^n coefficient (a;q)_n / (q;q)_n
        a, q = 0.45, 0.3
        series = gf_expand([a], [1.0], q, 10)
        for n in range(11):
            expected = qpoch_finite(a, q, n) / qpoch_finite(q, q, n)
            assert series.coefficient(n) == pytest.approx(expected, rel=1e-13)

    def test_matches_ultraspherical_explicit_sum(self):
        beta, q, theta = 0.55, 0.35, 0.8
        phase = np.exp(1j * theta)
        series = gf_expand([beta * phase, beta / phase], [phase, 1 / phase], q, 16)
        for n in range(17):
            expected = ultraspherical_c(n, np.cos(theta), beta, q, Method.EXPLICIT)
            assert abs(series.coefficient(n) - expected) <= 1e-11 * (1 + abs(expected))

    def test_expansion_is_multiplicative(self):
        # one ratio times another equals the combined expansion
        q, cap = 0.4, 12
        left = gf_expand([0.3], [0.8], q, cap)
        right = gf_expand([0.5j], [0.2 - 0.1j], q, cap)
        combined = gf_expand([0.3, 0.5j], [0.8, 0.2 - 0.1j], q, cap)
        product = np.convolve(left.coeffs, right.coeffs)[: cap + 1]
        assert np.allclose(product, combined.coeffs, rtol=1e-12, atol=1e-12)

    def test_negative_cap_rejected(self):
        with pytest.raises(DomainError):
            gf_expand([0.5], [0.2], 0.3, -1)


class TestPhiSeries:
    def test_needs_one_more_upper(self):
        with pytest.raises(DomainError):
            HypergeometricSpec((0.3, 0.5), (0.2, 0.1), 0.5)

    def test_zero_argument(self):
        spec = HypergeometricSpec((0.3, 0.5), (0.2,), 0.0)
        assert phi_series(spec, 0.4) == 1

    def test_q_binomial_theorem(self):
        a, z, q = 0.4, 0.5, 0.3
        ctx = QContext(q=q)
        got = phi_series(HypergeometricSpec((a,), (), z), q, ctx)
        expected = qpoch_infinite(a * z, ctx) / qpoch_infinite(z, ctx)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_q_binomial_theorem_cloud(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = complex(*rng.uniform(-0.6, 0.6, 2))
            z = complex(*rng.uniform(-0.6, 0.6, 2))
            q = rng.uniform(-0.85, 0.85)
            ctx = QContext(q=q)
            got = phi_series(HypergeometricSpec((a,), (), z), q, ctx)
            expected = qpoch_infinite(a * z, ctx) / qpoch_infinite(z, ctx)
            assert abs(got - expected) <= 1e-11 * (1 + abs(expected))

    def test_terminating_equals_direct_finite_sum(self):
        # upper parameter q^{-3}: four nonzero terms, summed directly from
        # per-term Pochhammer products
        q, z = 0.45, 1.3
        a, b = q**-3, 0.25
        direct = sum(
            qpoch_finite(a, q, n) * qpoch_finite(b, q, n) * z**n
            / (qpoch_finite(q, q, n) * qpoch_finite(0.6, q, n))
            for n in range(4)
        )
        got = phi_series(HypergeometricSpec((a, b), (0.6,), z), q)
        assert got == pytest.approx(direct, rel=1e-12)

    def test_vanishing_lower_parameter_rejected(self):
        q = 0.4
        spec = HypergeometricSpec((0.3, 0.2), (q**-2,), 0.5)
        with pytest.raises(DomainError):
            phi_series(spec, q)

    def test_divergent_argument_raises(self):
        ctx = QContext(q=0.4, max_series_terms=200)
        with pytest.raises(ConvergenceError):
            phi_series(HypergeometricSpec((0.3,), (), 1.5), 0.4, ctx)

    def test_two_one_matches_per_term_summation(self):
        rng = np.random.default_rng(71)
        for _ in range(15):
            a = complex(*rng.uniform(-0.7, 0.7, 2))
            b = complex(*rng.uniform(-0.7, 0.7, 2))
            c = complex(*rng.uniform(-0.7, 0.7, 2))
            z = complex(*rng.uniform(-0.5, 0.5, 2))
            q = rng.uniform(-0.7, 0.7)
            got = phi_series(HypergeometricSpec((a, b), (c,), z), q)
            direct = sum(
                qpoch_finite(a, q, n) * qpoch_finite(b, q, n) * z**n
                / (qpoch_finite(q, q, n) * qpoch_finite(c, q, n))
                for n in range(120)
            )
            assert abs(got - direct) <= 1e-12 * (1 + abs(direct))


def direct_w_series(a1, rest, q, z, terms=400):
    """Independent term-by-term summation of the substituted series."""
    root = np.sqrt(complex(a1))
    upper = [a1, q * root, -q * root, *rest]
    lower = [root, -root, *(q * a1 / b for b in rest)]
    total = 0j
    for n in range(terms):
        num = 1.0 + 0j
        for u in upper:
            num *= qpoch_finite(u, q, n)
        den = qpoch_finite(q, q, n)
        for l in lower:
            den *= qpoch_finite(l, q, n)
        term = num / den * z**n
        total += term
        if n > 4 and abs(term) < 1e-18 * (1 + abs(total)):
            break
    return total


class TestVeryWellPoised:
    def test_zero_argument(self):
        assert w_series(0.5, [0.3, 0.2, 0.1], 0.4, 0.0) == 1

    def test_rogers_summation(self):
        a, b, c, d, q = 0.1, 0.7, 0.6, 0.8, 0.4
        z = a * q / (b * c * d)
        assert w_series(a, [b, c, d], q, z) == pytest.approx(
            rogers_6w5_rhs(a, b, c, d, q), rel=1e-12)

    def test_matches_definitional_expansion(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            a1 = rng.uniform(0.05, 0.5)
            rest = [complex(*rng.uniform(0.3, 0.8, 2) * [1, 0.3]) for _ in range(3)]
            q = rng.uniform(0.2, 0.5)
            z = a1 * q / np.prod(rest)
            if abs(z) >= 0.9:
                continue
            got = w_series(a1, rest, q, z)
            expected = direct_w_series(a1, rest, q, z)
            assert abs(got - expected) <= 1e-11 * (1 + abs(expected))

    def test_terminating_rogers(self):
        # b = q^{-2}: three nonzero terms, any argument size
        q = 0.4
        a, b, c, d = 0.5, q**-2, 0.3, 0.15
        z = a * q / (b * c * d)
        got = w_series(a, [b, c, d], q, z)
        direct = direct_w_series(a, [b, c, d], q, z, terms=3)
        assert got == pytest.approx(direct, rel=1e-13)
        assert got == pytest.approx(rogers_6w5_rhs(a, b, c, d, q), rel=1e-12)

    def test_rhs_pole_at_unit_argument(self):
        # d = aq/(bc) makes aq/(bcd) = 1, a zero denominator product
        a, b, c, q = 0.5, 0.8, 0.75, 0.4
        d = a * q / (b * c)
        with pytest.raises(PoleError):
            rogers_6w5_rhs(a, b, c, d, q)

    def test_rogers_cloud(self):
        rng = np.random.default_rng(53)
        done = 0
        while done < 20:
            b, c, d = rng.uniform(0.55, 0.9, 3)
            a = rng.uniform(0.05, 0.25)
            q = rng.uniform(0.2, 0.5)
            z = a * q / (b * c * d)
            if abs(z) >= 0.9:
                continue
            got = w_series(a, [b, c, d], q, z)
            expected = rogers_6w5_rhs(a, b, c, d, q)
            assert abs(got - expected) <= 1e-11 * (1 + abs(expected))
            done += 1
