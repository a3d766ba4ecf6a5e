"""Jackson ladder sums, the doubling trapezoid rule, and the circle weights."""

import math
from collections import deque

import numpy as np
import pytest

from qkernel import (ConvergenceError, DomainError, PoleError, QContext,
                     jackson_q_integral, periodic_quadrature, qpoch_infinite,
                     ultraspherical_c, weight_omega_ab, weight_omega_beta)


def rung_by_rung(f, endpoint, ctx):
    """sum_n q^n f(endpoint q^n) one scalar call per rung, with the ladder's
    stopping rule; returns the sum and the number of rungs summed."""
    q = ctx.q
    total = 0j
    qn = 1.0 + 0j
    recent = deque(maxlen=8)
    for n in range(ctx.max_series_terms):
        value = complex(f(endpoint * qn))
        total += qn * value
        recent.append(abs(value))
        qn *= q
        if n >= 7 and max(recent) * abs(qn) / (1 - abs(q)) <= ctx.eps_series * (1 + abs(total)):
            return total, n + 1
    raise AssertionError("reference ladder did not stop")


def plain_trapezoid(f, n):
    theta = 2 * np.pi * np.arange(n) / n
    return 2 * np.pi / n * complex(np.sum(f(theta)))


class TestJackson:
    def test_constant_integrand_from_zero(self):
        # b (1-q) sum q^n = b
        ctx = QContext(q=0.4)
        got = jackson_q_integral(lambda z: 1.0, 0.0, 0.7, ctx)
        assert got == pytest.approx(0.7, rel=1e-13)

    def test_linear_integrand_from_zero(self):
        # (1-q) sum q^{2n} = 1/(1+q)
        q, b = 0.35, 0.8
        got = jackson_q_integral(lambda z: z, 0.0, b, QContext(q=q))
        assert got == pytest.approx(b * b / (1 + q), rel=1e-13)

    def test_additivity_in_the_endpoints(self):
        rng = np.random.default_rng(61)
        q = 0.45
        ctx = QContext(q=q)
        coeffs = rng.standard_normal(4)

        def f(z):
            return coeffs[0] + z * (coeffs[1] + z * (coeffs[2] + z * coeffs[3]))

        for _ in range(5):
            a = complex(*rng.uniform(-0.9, 0.9, 2))
            b = complex(*rng.uniform(-0.9, 0.9, 2))
            whole = jackson_q_integral(f, a, b, ctx)
            split = (jackson_q_integral(f, 0.0, b, ctx)
                     - jackson_q_integral(f, 0.0, a, ctx))
            assert whole == pytest.approx(split, rel=1e-12, abs=1e-12)

    def test_polynomial_closed_form(self):
        # termwise: integral of z^j from a to b is (b^{j+1}-a^{j+1})(1-q)/(1-q^{j+1})
        rng = np.random.default_rng(67)
        q = 0.3
        ctx = QContext(q=q)
        for _ in range(5):
            coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            a = complex(*rng.uniform(-0.8, 0.8, 2))
            b = complex(*rng.uniform(-0.8, 0.8, 2))

            def f(z):
                total = 0j
                for c in reversed(coeffs):
                    total = total * z + c
                return total

            expected = sum(
                c * (b ** (j + 1) - a ** (j + 1)) * (1 - q) / (1 - q ** (j + 1))
                for j, c in enumerate(coeffs)
            )
            assert jackson_q_integral(f, a, b, ctx) == pytest.approx(expected, rel=1e-12)

    def test_growing_integrand_raises(self):
        ctx = QContext(q=0.5, max_series_terms=500)
        with pytest.raises(ConvergenceError):
            jackson_q_integral(lambda z: 1.0 / (z * z), 0.0, 1.0, ctx)

    @pytest.mark.parametrize("q", [0.3, -0.6, 0.9, 0.97])
    def test_blocks_stop_and_sum_as_rung_by_rung(self, q):
        # real endpoints and coefficients: numpy and Python round alike, so
        # the blocked ladder must give the rung-by-rung sum and stop exactly
        ctx = QContext(q=q)
        blocks = []

        def f(z):
            return 0.3 + z * (-1.2 + z * (0.7 + z * 2.1))

        def counted(z):
            blocks.append(len(z))
            return f(z)

        a, b = -0.6, 0.9
        value = jackson_q_integral(counted, a, b, ctx)
        upper, upper_rungs = rung_by_rung(f, b, ctx)
        lower, lower_rungs = rung_by_rung(f, a, ctx)
        assert value == (1.0 - q) * (b * upper - a * lower)
        assert value.rungs == upper_rungs + lower_rungs
        assert blocks[:3] == [8, 16, 32]
        # each of the two ladders evaluates at most 2 (rungs summed) + 6 rungs
        assert sum(blocks) <= 2 * value.rungs + 12

    def test_rungs_past_the_stop_are_not_summed(self):
        # the constant ladder at q=0.5 stops after 46 rungs; the third block
        # reaches rung 55, where this integrand is nan
        ctx = QContext(q=0.5)

        def f(z):
            return np.where(np.abs(z) < 1e-15, np.nan, 1.0)

        value = jackson_q_integral(f, 0.0, 1.0, ctx)
        assert value.rungs == 46
        assert value == pytest.approx(1.0, rel=1e-13)

    def test_non_finite_integrand_is_a_pole(self):
        ctx = QContext(q=0.5)
        with pytest.raises(PoleError, match="rung 0"):
            jackson_q_integral(lambda z: 1.0 / (1.0 - z), 0.0, 1.0, ctx)
        with pytest.raises(PoleError, match="rung 2"):
            jackson_q_integral(lambda z: 1.0 / (z - 0.25), 0.0, 1.0, ctx)


class TestPeriodicQuadrature:
    def test_constant(self):
        result = periodic_quadrature(lambda theta: np.ones_like(theta), QContext(q=0.3))
        assert result.value == pytest.approx(2 * math.pi, rel=1e-15)

    def test_pure_oscillation_integrates_to_zero(self):
        result = periodic_quadrature(lambda theta: np.exp(3j * theta), QContext(q=0.3))
        assert abs(result.value) < 1e-13

    def test_bare_weight_value(self):
        # integral of omega_0 over the full period is 4 pi / (q;q)_inf
        q = 0.3
        ctx = QContext(q=q)
        result = periodic_quadrature(lambda theta: weight_omega_beta(theta, 0.0, q, ctx), ctx)
        expected = 4 * math.pi / qpoch_infinite(q, ctx).real
        assert abs(result.value - expected) <= 1e-10 * expected

    def test_error_estimate_invariant(self):
        ctx = QContext(q=0.3)
        result = periodic_quadrature(lambda theta: weight_omega_beta(theta, 0.5, 0.3, ctx), ctx)
        assert result.error_estimate <= ctx.eps_quad * (1 + abs(result.value))
        assert result.nodes_used >= 128

    def test_spectral_doubling(self):
        # doubling 128 -> 256 moves the orthogonality integrand below 1e-12
        beta, q = 0.5, 0.3
        ctx = QContext(q=q)

        def integrand(theta):
            c3 = ultraspherical_c(3, np.cos(theta), beta, q)
            return c3 * c3 * weight_omega_beta(theta, beta, q, ctx)

        t128 = plain_trapezoid(integrand, 128)
        t256 = plain_trapezoid(integrand, 256)
        assert abs(t256 - t128) < 1e-12 * (1 + abs(t256))

    def test_half_period_of_even_integrand(self):
        # full-period trapezoid equals twice the endpoint-weighted half rule
        beta, q = 0.5, 0.3
        ctx = QContext(q=q)

        def integrand(theta):
            c2 = ultraspherical_c(2, np.cos(theta), beta, q)
            return c2 * c2 * weight_omega_beta(theta, beta, q, ctx)

        n = 512
        full = plain_trapezoid(integrand, n)
        half_nodes = np.linspace(0.0, np.pi, n // 2 + 1)
        values = integrand(half_nodes)
        half = (np.pi / (n // 2)) * (values[0] / 2 + values[1:-1].sum() + values[-1] / 2)
        assert abs(full - 2 * half) <= 1e-12 * (1 + abs(full))

    def test_node_cap_raises(self):
        ctx = QContext(q=0.3, max_quad_nodes=128)

        def kinked(theta):
            return np.abs(np.sin(theta / 2))

        with pytest.raises(ConvergenceError):
            periodic_quadrature(kinked, ctx)


class TestWeights:
    def test_vanishes_at_zero_angle(self):
        assert weight_omega_beta(0.0, 0.5, 0.3) == 0
        assert weight_omega_ab(0.0, 0.4, -0.3, 0.35) == 0

    def test_even_in_theta(self):
        for theta in (0.3, 1.1, 2.7):
            left = weight_omega_beta(-theta, 0.5, 0.3)
            right = weight_omega_beta(theta, 0.5, 0.3)
            assert abs(left - right) <= 1e-13 * (1 + abs(right))

    def test_direct_product_at_right_angle(self):
        # e^{+-2i theta} = -1 at theta = pi/2
        q = 0.5
        ctx = QContext(q=q)
        got = weight_omega_beta(math.pi / 2, 0.0, q, ctx)
        direct = qpoch_infinite(-1.0, ctx) ** 2
        assert got == pytest.approx(direct, rel=1e-13)

    def test_two_parameter_swap_conjugation(self):
        # omega^{(a,b)}(-t) = omega^{(b,a)}(t)
        for theta in (0.4, 1.3, 2.2):
            left = weight_omega_ab(-theta, 0.4, -0.3, 0.35)
            right = weight_omega_ab(theta, -0.3, 0.4, 0.35)
            assert abs(left - right) <= 1e-13 * (1 + abs(right))

    def test_equal_parameters_match_single_weight(self):
        theta = np.linspace(0.1, 3.0, 5)
        assert np.allclose(weight_omega_ab(theta, 0.5, 0.5, 0.3),
                           weight_omega_beta(theta, 0.5, 0.3), rtol=1e-14)

