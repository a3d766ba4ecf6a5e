"""Polynomial families: fixed values, cross-method agreement, symmetries,
norms, and connection coefficients."""

import math

import numpy as np
import pytest

from qkernel import (DomainError, Method, PoleError, QContext, chebyshev_t,
                     connection_coeffs, gasper_c, gf_expand, h_norm,
                     periodic_quadrature, phi_poly, q_hermite, qbinom,
                     qpoch_finite, qpoch_infinite, ultraspherical_c)

ALL_METHODS = (Method.EXPLICIT, Method.RECURRENCE, Method.GENFUNC)


class TestUltraspherical:
    def test_degree_zero(self):
        assert ultraspherical_c(0, 0.37, 0.5, 0.3) == 1

    def test_degree_one(self):
        x, beta, q = math.cos(1.0), 0.5, 0.3
        expected = 2 * x * (1 - beta) / (1 - q)
        for method in ALL_METHODS:
            assert ultraspherical_c(1, x, beta, q, method) == pytest.approx(expected, rel=1e-12)

    def test_methods_agree_degree_two(self):
        x = math.cos(1.0)
        values = [ultraspherical_c(2, x, 0.5, 0.3, m) for m in ALL_METHODS]
        assert values[0] == pytest.approx(values[1], rel=1e-12)
        assert values[0] == pytest.approx(values[2], rel=1e-12)

    def test_rejects_points_off_the_interval(self):
        with pytest.raises(DomainError):
            ultraspherical_c(3, 1.2, 0.5, 0.3)

    def test_realness_of_genfunc_route(self):
        value = ultraspherical_c(7, math.cos(0.9), 0.6, 0.35, Method.GENFUNC)
        assert abs(value.imag) <= 1e-13 * (1 + abs(value))

    def test_parity(self):
        rng = np.random.default_rng(19)
        for _ in range(15):
            n = int(rng.integers(0, 14))
            x = rng.uniform(-1, 1)
            beta = rng.uniform(-0.8, 0.8)
            q = rng.uniform(-0.8, 0.8)
            left = ultraspherical_c(n, -x, beta, q)
            right = (-1) ** n * ultraspherical_c(n, x, beta, q)
            assert left == pytest.approx(right, rel=1e-12, abs=1e-12)

    def test_array_evaluation_matches_scalar(self):
        xs = np.cos(np.linspace(0.1, 3.0, 7))
        batch = ultraspherical_c(5, xs, 0.4, 0.3)
        for got, x in zip(batch, xs):
            assert got == pytest.approx(ultraspherical_c(5, float(x), 0.4, 0.3), rel=1e-14)


class TestGasper:
    def test_degree_zero(self):
        assert gasper_c(0, 0.7, 0.4, -0.3, 0.35) == 1

    def test_equal_parameters_reduce_to_ultraspherical(self):
        for n in range(0, 9):
            got = gasper_c(n, 1.1, 0.5, 0.5, 0.3)
            expected = ultraspherical_c(n, math.cos(1.1), 0.5, 0.3)
            assert abs(got - expected) <= 1e-12 * (1 + abs(expected))

    def test_swap_symmetry(self):
        # C_n^{(a,b)}(e^{-i t}) = C_n^{(b,a)}(e^{i t})
        for n in range(0, 13):
            left = gasper_c(n, -0.8, 0.4, -0.25, 0.3)
            right = gasper_c(n, 0.8, -0.25, 0.4, 0.3)
            assert abs(left - right) <= 1e-12 * (1 + abs(right))

    def test_genfunc_agrees(self):
        for n in (0, 1, 4, 9):
            explicit = gasper_c(n, 0.9, 0.4, -0.3, 0.35, Method.EXPLICIT)
            genfunc = gasper_c(n, 0.9, 0.4, -0.3, 0.35, Method.GENFUNC)
            assert abs(explicit - genfunc) <= 1e-12 * (1 + abs(explicit))

    def test_uniform_bound_on_grid(self):
        rng = np.random.default_rng(29)
        grid = 2 * np.pi * np.arange(64) / 64
        for _ in range(8):
            n = int(rng.integers(0, 16))
            alpha, beta, q = rng.uniform(-0.9, 0.9, 3)
            values = np.abs(gasper_c(n, grid, alpha, beta, q))
            bound = complex(gasper_c(n, 0.0, alpha, beta, q)).real
            assert values.max() <= bound + 1e-12

    def test_root_growth_stays_near_one(self):
        # finite-degree proxy for unit radius of convergence at the point 1
        rng = np.random.default_rng(37)
        for _ in range(5):
            alpha, beta, q = rng.uniform(0.0, 0.9, 3)
            top = complex(gasper_c(40, 0.0, alpha, beta, q)).real
            assert 0.5 < top ** (1 / 40) < 1.5


class TestPhiPoly:
    def test_degree_zero(self):
        assert phi_poly(0, 0.3, 0.2, 1.5, -2.0, 0.3) == 1

    def test_circle_specialization(self):
        theta, alpha, beta, q = 0.6, 0.45, -0.2, 0.3
        x = complex(math.cos(theta), math.sin(theta))
        for n in range(0, 9):
            got = phi_poly(n, alpha, beta, x, x.conjugate(), q)
            expected = qpoch_finite(q, q, n) * gasper_c(n, theta, alpha, beta, q)
            assert abs(got - expected) <= 1e-12 * (1 + abs(expected))

    def test_equal_point_generating_function(self):
        # sum_n Phi_n(1, 1) t^n/(q;q)_n = (alpha t, beta t; q)_inf / (t;q)_inf^2
        alpha, beta, q, cap = 0.35, -0.5, 0.4, 12
        series = gf_expand([alpha, beta], [1.0, 1.0], q, cap)
        for n in range(cap + 1):
            expected = phi_poly(n, alpha, beta, 1.0, 1.0, q) / qpoch_finite(q, q, n)
            assert abs(series.coefficient(n) - expected) <= 1e-12 * (1 + abs(expected))

    def test_arbitrary_complex_parameters_allowed(self):
        value = phi_poly(3, 2.5 + 1j, -3.0, 0.7, 0.2j, 0.45)
        direct = sum(
            qbinom(3, k, 0.45) * qpoch_finite(2.5 + 1j, 0.45, k)
            * qpoch_finite(-3.0, 0.45, 3 - k) * 0.7**k * (0.2j) ** (3 - k)
            for k in range(4)
        )
        assert value == pytest.approx(direct, rel=1e-13)


class TestQHermite:
    def test_degree_zero_and_one(self):
        assert q_hermite(0, 0.4, 0.5) == 1
        assert q_hermite(1, 0.4, 0.5) == pytest.approx(0.8, rel=1e-14)

    def test_norm_against_quadrature(self):
        # diagonal of the beta = 0 orthogonality integral
        q, m = 0.5, 3
        ctx = QContext(q=q)

        def integrand(theta):
            plus = np.exp(2j * theta)
            weight = qpoch_infinite(plus, ctx) * qpoch_infinite(1 / plus, ctx)
            h = q_hermite(m, np.cos(theta), q)
            return weight * h * h

        value = periodic_quadrature(integrand, ctx).value / 2
        expected = 2 * math.pi * qpoch_finite(q, q, m) / qpoch_infinite(q, ctx)
        assert abs(value - expected) <= 1e-10 * abs(expected)


class TestChebyshev:
    def test_first_two(self):
        assert chebyshev_t(0, 0.3) == 1
        assert chebyshev_t(1, 0.3) == pytest.approx(0.3, rel=1e-15)

    def test_cosine_identity(self):
        assert chebyshev_t(5, math.cos(0.7)) == pytest.approx(math.cos(3.5), abs=1e-14)

    def test_three_term_recurrence(self):
        x = 0.62
        values = [chebyshev_t(n, x) for n in range(22)]
        for n in range(1, 21):
            assert values[n + 1] == pytest.approx(2 * x * values[n] - values[n - 1], abs=1e-13)


class TestHNorm:
    def test_beta_zero_closed_form(self):
        q, n = 0.3, 4
        ctx = QContext(q=q)
        expected = qpoch_infinite(q, ctx).real * qpoch_finite(q, q, n) / (2 * math.pi)
        assert h_norm(n, 0.0, q) == pytest.approx(expected, rel=1e-13)

    def test_reciprocal_matches_weight_integral(self):
        # 1/h_0 at beta = 0 is the integral of the bare weight over [0, pi]
        q = 0.3
        ctx = QContext(q=q)

        def bare_weight(theta):
            plus = np.exp(2j * theta)
            return qpoch_infinite(plus, ctx) * qpoch_infinite(1 / plus, ctx)

        integral = periodic_quadrature(bare_weight, ctx).value / 2
        assert abs(integral - 1 / h_norm(0, 0.0, q)) <= 1e-9 * abs(integral)

    def test_positive_for_admissible_real_parameters(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            beta = rng.uniform(0.01, 0.95)
            q = rng.uniform(0.01, 0.95)
            n = int(rng.integers(0, 11))
            assert h_norm(n, beta, q) > 0

    def test_pole_at_beta_one(self):
        with pytest.raises(PoleError):
            h_norm(2, 1.0, 0.3)


class TestConnectionCoeffs:
    def test_degree_zero(self):
        assert connection_coeffs(0, 0.4, 0.7, 0.3) == [pytest.approx(1.0, rel=1e-14)]

    def test_equal_parameters_collapse(self):
        coeffs = connection_coeffs(6, 0.4, 0.4, 0.3)
        assert coeffs[0] == pytest.approx(1.0, rel=1e-13)
        assert max(abs(c) for c in coeffs[1:]) == 0

    def test_degree_one_leading_coefficient(self):
        beta, gamma, q = 0.4, 0.7, 0.3
        coeffs = connection_coeffs(1, beta, gamma, q)
        assert coeffs == [pytest.approx((1 - gamma) / (1 - beta), rel=1e-14)]

    def test_pointwise_reconstruction(self):
        n, beta, gamma, q = 5, 0.4, 0.7, 0.3
        coeffs = connection_coeffs(n, beta, gamma, q)
        assert len(coeffs) == n // 2 + 1
        grid = np.cos((np.arange(16) + 0.5) * np.pi / 16)
        target = ultraspherical_c(n, grid, gamma, q)
        rebuilt = sum(c * ultraspherical_c(n - 2 * k, grid, beta, q)
                      for k, c in enumerate(coeffs))
        assert np.max(np.abs(target - rebuilt)) <= 1e-10 * (1 + np.max(np.abs(target)))

    def test_beta_zero_limit_form(self):
        # the product form is finite at beta = 0 and still reconstructs
        n, gamma, q = 4, 0.6, 0.3
        coeffs = connection_coeffs(n, 0.0, gamma, q)
        x = np.cos(np.linspace(0.2, 2.9, 9))
        target = ultraspherical_c(n, x, gamma, q)
        rebuilt = sum(c * ultraspherical_c(n - 2 * k, x, 0.0, q)
                      for k, c in enumerate(coeffs))
        assert np.max(np.abs(target - rebuilt)) <= 1e-12 * (1 + np.max(np.abs(target)))

