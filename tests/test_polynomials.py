"""Polynomial families: fixed values, agreement of the recurrence, the
explicit sum and the generating function, symmetries, norms, and connection
coefficients."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkernel import (DomainError, PoleError, chebyshev_t,
                     connection_coeffs, gasper_c, gf_expand, h_norm,
                     periodic_quadrature, phi_poly, q_hermite, qbinom,
                     qpoch_finite, qpoch_infinite, ultraspherical_c)
from qkernel.polynomials import (_circle_norm, _connection_row, _connection_tables,
                                 ultraspherical_table)

# Property tests draw the same examples on every run.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
BASE = st.one_of(st.floats(-0.99, 0.99), st.complex_numbers(max_magnitude=0.99))


def three_routes(n, theta, beta, q):
    """C_n(cos theta; beta|q) by ultraspherical_c, by the explicit sum
    (phi_poly on the circle over (q;q)_n) and as coefficient n of the
    generating function by gf_expand.  ultraspherical_c and gf_expand run
    one q-difference recurrence (which gasper_c runs too) on the same
    generating function, in real and complex arithmetic; the explicit sum is
    the independent route."""
    phase = np.exp(1j * theta)
    genfunc = gf_expand([beta * phase, beta / phase], [phase, 1 / phase], q, n).coeffs[n]
    return (ultraspherical_c(n, math.cos(theta), beta, q),
            phi_poly(n, beta, beta, phase, np.conj(phase), q) / qpoch_finite(q, q, n),
            genfunc)


class TestUltraspherical:
    def test_degree_zero(self):
        assert ultraspherical_c(0, 0.37, 0.5, 0.3) == 1

    def test_degree_one(self):
        beta, q = 0.5, 0.3
        expected = 2 * math.cos(1.0) * (1 - beta) / (1 - q)
        for value in three_routes(1, 1.0, beta, q):
            assert value == pytest.approx(expected, rel=1e-12)

    def test_methods_agree_degree_two(self):
        values = three_routes(2, 1.0, 0.5, 0.3)
        assert values[0] == pytest.approx(values[1], rel=1e-12)
        assert values[0] == pytest.approx(values[2], rel=1e-12)

    def test_rejects_points_off_the_interval(self):
        with pytest.raises(DomainError):
            ultraspherical_c(3, 1.2, 0.5, 0.3)

    @pytest.mark.parametrize("q,k", [(1.0, 1), (-1.0, 2), (1j, 4)])
    def test_root_of_unity_base_is_refused(self, q, k):
        # the recurrence divides by 1 - q^k, a scalar, for arrays of x too
        for x in (0.3, np.linspace(-1.0, 1.0, 5)):
            with pytest.raises(DomainError, match=rf"q\*\*{k} = 1"):
                ultraspherical_table(4, x, 0.5, q)

    @pytest.mark.parametrize("q,k,power", [(1e200, 2, "inf"), (math.nan, 1, "nan")])
    def test_non_finite_power_is_refused(self, q, k, power):
        # the message names the first q^k that is not finite
        with pytest.raises(DomainError, match=rf"q\*\*{k} = {power} is not finite"):
            ultraspherical_table(4, np.linspace(-1.0, 1.0, 5), 0.5, q)

    def test_negative_degree_is_refused_by_the_recurrence(self):
        for call in (lambda: ultraspherical_table(-1, 0.3, 0.5, 0.3),
                     lambda: gasper_c(-1, 0.3, 0.4, -0.3, 0.35),
                     lambda: gf_expand([0.5], [0.2], 0.3, -1)):
            with pytest.raises(DomainError, match="degree must be >= 0"):
                call()

    @pytest.mark.parametrize("beta,q", [(math.nan, 0.3), (0.5, math.nan), (math.inf, 0.3)])
    def test_non_finite_parameter_is_refused(self, beta, q):
        with pytest.raises(DomainError, match="ultraspherical_c needs finite arguments"):
            ultraspherical_c(3, 0.3, beta, q)

    def test_realness_of_genfunc_route(self):
        # real beta and q: the generating-function coefficients are real up
        # to roundoff; a complex beta gives a genuinely complex value
        real = three_routes(7, 0.9, 0.6, 0.35)
        assert isinstance(real[0], float)
        assert abs(real[2].imag) <= 1e-15 * (1 + abs(real[0]))
        assert real[2].real == pytest.approx(real[0], rel=1e-12)
        complex_beta = three_routes(7, 0.9, 0.6 + 0.1j, 0.35)
        assert abs(complex_beta[2].imag) >= 1e-3
        assert complex_beta[2] == pytest.approx(complex_beta[0], rel=1e-12)

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
        # coefficient n of the defining generating function
        phase = np.exp(0.9j)
        series = gf_expand([0.4 * phase, -0.3 / phase], [phase, 1 / phase], 0.35, 9)
        for n in (0, 1, 4, 9):
            explicit = gasper_c(n, 0.9, 0.4, -0.3, 0.35)
            assert abs(explicit - series.coeffs[n]) <= 1e-12 * (1 + abs(explicit))

    def test_uniform_bound_on_grid(self):
        rng = np.random.default_rng(29)
        grid = 2 * np.pi * np.arange(64) / 64
        for _ in range(8):
            n = int(rng.integers(0, 16))
            alpha, beta, q = rng.uniform(-0.9, 0.9, 3)
            values = np.abs(gasper_c(n, grid, alpha, beta, q))
            bound = complex(gasper_c(n, 0.0, alpha, beta, q)).real
            assert values.max() <= bound + 1e-12

    @pytest.mark.parametrize("theta,alpha,beta,q", [
        (math.nan, 0.4, -0.3, 0.35), (np.array([0.1, math.nan]), 0.4, -0.3, 0.35),
        (0.9, math.nan, -0.3, 0.35), (0.9, 0.4, math.inf, 0.35), (0.9, 0.4, -0.3, math.nan),
    ])
    def test_non_finite_argument_is_refused(self, theta, alpha, beta, q):
        # a NaN theta gave nan+nanj, and a NaN alpha a NaN on the whole grid
        with pytest.raises(DomainError, match="gasper_c needs finite arguments"):
            gasper_c(3, theta, alpha, beta, q)

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
            assert abs(series.coeffs[n] - expected) <= 1e-12 * (1 + abs(expected))

    @PROPERTY
    @given(n=st.integers(0, 60), alpha=st.complex_numbers(max_magnitude=3.0),
           beta=st.complex_numbers(max_magnitude=3.0), x=st.complex_numbers(max_magnitude=1.5),
           y=st.complex_numbers(max_magnitude=1.5), q=BASE)
    @example(n=60, alpha=0.45, beta=-0.2, x=0.8 + 0.6j, y=0.8 - 0.6j, q=0.9)
    def test_equals_the_per_index_formula_bit_for_bit(self, n, alpha, beta, x, y, q):
        # one qpoch_finite call per factor and index, as before the tables
        acc = 0.0
        binom = 1.0
        for k in range(n + 1):
            acc = acc + (binom * qpoch_finite(alpha, q, k) * qpoch_finite(beta, q, n - k)
                         * x**k * y ** (n - k))
            binom = binom * (1.0 - q ** (n - k)) / (1.0 - q ** (k + 1))
        assert repr(phi_poly(n, alpha, beta, x, y, q)) == repr(acc)

    def test_root_of_unity_base_is_refused(self):
        with pytest.raises(DomainError, match=r"q\*\*1 = 1"):
            phi_poly(2, 0.3, 0.2, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError, match=r"q\*\*2 = 1"):
            phi_poly(2, 0.3, 0.2, 1.0, 1.0, -1.0)
        # degree 1 at q = -1 divides by 1 - q only
        assert phi_poly(1, 0.3, 0.2, 1.0, 1.0, -1.0) == 1.5

    def test_huge_base_is_refused(self):
        # q**2 overflowed: the sum raised OverflowError
        with pytest.raises(DomainError, match=r"phi_poly needs finite powers of q, but \(q;q\)_2"):
            phi_poly(2, 0.3, 0.2, 1.0, 1.0, 1e200)
        # every q^k, k <= 4, is finite, their product (q;q)_3 is not
        with pytest.raises(DomainError, match=r"\(q;q\)_3 = -inf"):
            phi_poly(4, 0.3, 0.2, 1.0, 1.0, 1e60)

    @pytest.mark.parametrize("x,y", [(math.nan, 1.0), (0.5, complex(1.0, math.inf)),
                                     (np.array([0.5, math.nan]), np.ones(2))])
    def test_non_finite_point_is_refused(self, x, y):
        # the sum was nan
        with pytest.raises(DomainError, match="phi_poly needs finite arguments"):
            phi_poly(2, 0.3, 0.2, x, y, 0.3)

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

        def integrand(theta):
            plus = np.exp(2j * theta)
            weight = qpoch_infinite(plus, q) * qpoch_infinite(1 / plus, q)
            h = q_hermite(m, np.cos(theta), q)
            return weight * h * h

        value = periodic_quadrature(integrand).value / 2
        expected = 2 * math.pi * qpoch_finite(q, q, m) / qpoch_infinite(q, q)
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

    def test_rejects_points_off_the_interval(self):
        # arccos would return NaN there, with a RuntimeWarning
        with pytest.raises(DomainError, match=r"must lie in \[-1, 1\]"):
            chebyshev_t(3, 2.0)
        with pytest.raises(DomainError):
            chebyshev_t(3, np.array([0.5, -1.5]))
        assert chebyshev_t(3, np.array([-1.0, 1.0])).tolist() == [-1.0, 1.0]


class TestHNorm:
    def test_beta_zero_closed_form(self):
        q, n = 0.3, 4
        expected = qpoch_infinite(q, q).real * qpoch_finite(q, q, n) / (2 * math.pi)
        assert h_norm(n, 0.0, q) == pytest.approx(expected, rel=1e-13)

    def test_reciprocal_matches_weight_integral(self):
        # 1/h_0 at beta = 0 is the integral of the bare weight over [0, pi]
        q = 0.3

        def bare_weight(theta):
            plus = np.exp(2j * theta)
            return qpoch_infinite(plus, q) * qpoch_infinite(1 / plus, q)

        integral = periodic_quadrature(bare_weight).value / 2
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

    @pytest.mark.parametrize("beta,q", [(1 / 0.4, 0.4), (1 / 0.3, 0.3), (0.3**-2, 0.3)])
    def test_vanishing_norm_or_its_pole_is_a_pole(self, beta, q):
        # N_2(beta, beta) = 0 through (beta; q)_inf = 0 at beta = 1/0.4, and
        # poles of N_2 at (beta^2; q)_inf = 0 and at 1 - beta q^2 = 0: each
        # was a bare ZeroDivisionError
        with pytest.raises(PoleError):
            h_norm(2, beta, q)

    def test_pole_left_nonzero_by_roundoff_is_a_pole(self):
        # 1 - beta q^2 rounds to -1.1e-16 at beta = 0.7^-2, q = 0.7: compared
        # with exact 0 it gave 0.109; the relative snap of the products
        # makes it the pole it is
        with pytest.raises(PoleError, match="1 - beta q\\^2 != 0"):
            h_norm(2, 0.7**-2, 0.7)

    def test_is_two_over_the_circle_norm(self):
        for n, beta, q in [(0, 0.6, 0.3), (5, -0.5, 0.6), (3, 0.3 + 0.4j, 0.5 + 0.3j)]:
            assert h_norm(n, beta, q) == 2 / _circle_norm(n, beta, beta, q)

    def test_rejects_negative_degree(self):
        # checked before (q;q)_n, whose negative-index form raises PoleError
        with pytest.raises(DomainError, match="degree must be >= 0"):
            h_norm(-1, 0.5, 0.3)


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

    @PROPERTY
    @given(n=st.integers(0, 60),
           beta=st.one_of(st.floats(-0.95, 0.95), st.complex_numbers(max_magnitude=0.95)),
           gamma=st.complex_numbers(max_magnitude=3.0), q=BASE)
    @example(n=60, beta=0.4, gamma=0.7, q=0.3)
    def test_equal_the_per_index_formula_bit_for_bit(self, n, beta, gamma, q):
        # one qpoch_finite call per factor and index, as before the tables
        expected = []
        front = 1.0
        for k in range(n // 2 + 1):
            expected.append(front * qpoch_finite(gamma, q, n - k)
                            * (1.0 - beta * q ** (n - 2 * k))
                            / (qpoch_finite(q, q, k) * qpoch_finite(beta * q, q, n - k)
                               * (1.0 - beta)))
            front = front * (beta - gamma * q**k)
        assert repr(connection_coeffs(n, beta, gamma, q)) == repr(expected)

    def test_rows_from_longer_tables_are_bit_for_bit(self):
        # prop-4.2 reads every row up to its degree from one set of tables
        beta, gamma, q = 0.3, 0.6 + 0.1j, -0.4
        tables = _connection_tables(40, beta, gamma, q)
        for n in range(41):
            assert (repr(_connection_row(n, beta, gamma, q, tables))
                    == repr(connection_coeffs(n, beta, gamma, q)))

    def test_huge_base_is_refused(self):
        # q**4 overflowed: a bare OverflowError
        with pytest.raises(DomainError,
                           match=r"connection_coeffs needs finite powers of q, but \(q;q\)_2"):
            connection_coeffs(4, 0.4, 0.7, 1e200)

    def test_huge_base_is_refused_before_the_front_factors(self):
        # at n = 8 the front factors' q**2 would overflow too, were they
        # formed before (q;q)_n
        with pytest.raises(DomainError,
                           match=r"connection_coeffs needs finite powers of q, but \(q;q\)_2"):
            connection_coeffs(8, 0.4, 0.7, 1e200)

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_vanishing_denominator_is_a_pole(self, n):
        # beta q = 2 at q = 1/2, so (beta q; q)_{n-k} = 0 once n - k >= 2
        with pytest.raises(PoleError):
            connection_coeffs(n, 4.0, 0.7, 0.5)

    def test_beta_zero_limit_form(self):
        # the product form is finite at beta = 0 and still reconstructs
        n, gamma, q = 4, 0.6, 0.3
        coeffs = connection_coeffs(n, 0.0, gamma, q)
        x = np.cos(np.linspace(0.2, 2.9, 9))
        target = ultraspherical_c(n, x, gamma, q)
        rebuilt = sum(c * ultraspherical_c(n - 2 * k, x, 0.0, q)
                      for k, c in enumerate(coeffs))
        assert np.max(np.abs(target - rebuilt)) <= 1e-12 * (1 + np.max(np.abs(target)))

