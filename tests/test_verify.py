"""Identity checks: spec'd example points, reduction identities, failure
paths, and suite behavior."""

import inspect
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkernel import (CHECK_RUNNERS, DomainError, PoleError, QuadratureResult,
                     connection_coeffs, gasper_c, h_norm, periodic_quadrature,
                     qpoch_finite, qpoch_infinite,
                     qpoch_product, run_suite, ultraspherical_c, weight_omega_ab,
                     weight_omega_beta,
                     verify_askey_ismail_chebyshev, verify_gf_4_1,
                     verify_prop_3_1, verify_prop_3_2, verify_prop_4_2,
                     verify_qbinomial, verify_rogers_6w5,
                     verify_rogers_connection, verify_thm_1_1,
                     verify_thm_1_2, verify_thm_1_3, verify_thm_1_4,
                     verify_uniform_bound)
from qkernel import pochhammer, polynomials, verify
from qkernel.series import EPS_SERIES
from qkernel.verify import default_suite_config


class TestOrthogonality:
    def test_hermite_ground_state(self):
        # m = n = 0, beta = 0: both sides are 2 pi / (q;q)_inf
        report = verify_thm_1_1(0, 0, 0.0, 0.3)
        expected = 2 * math.pi / qpoch_infinite(0.3, 0.3).real
        assert report.passed
        assert report.rel_err <= 1e-10
        assert report.lhs == pytest.approx(expected, rel=1e-10)
        assert report.rhs == pytest.approx(expected, rel=1e-12)

    def test_off_diagonal_vanishes(self):
        report = verify_thm_1_1(1, 3, 0.5, 0.3)
        assert report.passed
        assert report.rhs == 0
        assert abs(report.lhs) <= 1e-10 * (1 + 1 / h_norm(3, 0.5, 0.3))

    def test_diagonal_matches_closed_form(self):
        report = verify_thm_1_1(4, 4, 0.6, 0.3)
        assert report.passed
        assert report.rel_err <= 1e-9

    def test_report_invariants(self):
        report = verify_thm_1_1(2, 2, 0.6, 0.3)
        assert report.abs_err == abs(report.lhs - report.rhs)
        assert report.rel_err == report.abs_err / (1 + max(abs(report.lhs), abs(report.rhs)))
        assert report.passed == (report.rel_err <= report.tol)
        assert report.nodes_used >= 128

    def test_small_gram_matrix_is_symmetric(self):
        size = 5
        gram = np.empty((size, size))
        for m in range(size):
            for n in range(size):
                gram[m, n] = verify_thm_1_1(m, n, 0.6, 0.3).lhs.real
        assert np.max(np.abs(gram - gram.T)) <= 1e-12 * np.max(np.abs(gram))
        off_diag = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off_diag)) <= 1e-10 * np.max(np.diag(gram))

    def test_bitwise_reproducible(self):
        first = verify_thm_1_1(3, 3, 0.6, 0.3)
        second = verify_thm_1_1(3, 3, 0.6, 0.3)
        assert first.lhs == second.lhs
        assert first.rel_err == second.rel_err


class TestMixedParameterIntegral:
    def test_parity_mismatch_gives_zero(self):
        report = verify_thm_1_2(2, 1, 0.25, 0.5, 0.4)
        assert report.passed
        assert report.rhs == 0
        assert report.rel_err <= 1e-9

    def test_lower_degree_gives_zero(self):
        report = verify_thm_1_2(2, 4, 0.25, 0.5, 0.4)
        assert report.passed
        assert report.rhs == 0

    def test_equal_parameters_reduce_to_orthogonality(self):
        for m, n in [(3, 3), (4, 2), (5, 5)]:
            mixed = verify_thm_1_2(m, n, 0.5, 0.5, 0.3)
            plain = verify_thm_1_1(m, n, 0.5, 0.3)
            assert mixed.passed
            assert abs(mixed.rhs - plain.rhs) <= 1e-12 * (1 + abs(plain.rhs))

    def test_closed_form_point(self):
        report = verify_thm_1_2(4, 2, 0.25, 0.5, 0.4)
        assert report.passed
        assert report.rel_err <= 1e-8

    def test_beta_zero_is_accepted(self):
        # the connection row's front product is finite at beta = 0, where the
        # written-out beta^j (gamma/beta;q)_j was refused; test_oracle.py holds
        # this rhs to the paper's formula
        report = verify_thm_1_2(2, 2, 0.0, 0.5, 0.4)
        assert report.passed
        assert report.rel_err <= 1e-14
        assert report.rhs == pytest.approx(
            connection_coeffs(2, 0.0, 0.5, 0.4)[0] / h_norm(2, 0.0, 0.4), rel=1e-14)


class TestTwoParameterOrthogonality:
    def test_diagonal(self):
        report = verify_thm_1_3(0, 0, 0.4, -0.3, 0.35)
        assert report.passed
        assert report.rel_err <= 1e-9

    def test_off_diagonal(self):
        report = verify_thm_1_3(2, 5, 0.4, -0.3, 0.35)
        assert report.passed
        assert report.rhs == 0
        assert report.rel_err <= 1e-10

    def test_imaginary_residue_is_counted(self):
        report = verify_thm_1_3(3, 3, 0.4, -0.3, 0.35)
        assert abs(report.lhs.imag) <= 1e-12

    def test_high_degree_near_q_one_stops_at_the_roundoff_floor(self, monkeypatch):
        # m = n = 30 at q = 0.9: from 512 nodes on, each doubling moves the
        # value (about 8.7e11) by roundoff only, so the rule stops there; with
        # the explicit circle sum this case doubled on noise to the 2^20-node
        # cap (11 s).  The pinned stress case, m = n = 10, meets its
        # tolerance at 256 nodes.
        results = []
        quadrature = verify.periodic_quadrature

        def recorded(f):
            results.append(quadrature(f))
            return results[-1]

        monkeypatch.setattr(verify, "periodic_quadrature", recorded)
        started = time.perf_counter()
        report = verify_thm_1_3(30, 30, 0.4, -0.3, 0.9)
        assert time.perf_counter() - started <= 1.0  # 3 ms measured
        assert report.nodes_used == 512
        assert report.passed
        assert abs(report.lhs - report.rhs) <= 1e-9 * abs(report.rhs)  # 1.0e-10 measured
        assert verify_thm_1_3(10, 10, 0.4, -0.3, 0.9).nodes_used == 256
        result = results[0]
        assert result.stop_reason == "roundoff floor"
        assert result.magnitude >= abs(result.value)
        # the low-degree suite case of the same check stops on its tolerance
        assert verify_thm_1_3(3, 3, 0.4, -0.3, 0.35).passed
        assert results[-1].stop_reason == "tolerance"

    def test_roundoff_floor_keeps_a_margin_near_q_one(self):
        # a floor 4x higher (QUAD_NOISE = 128) stops this case early enough
        # to fail it with rel_err 2.6e-9
        report = verify_thm_1_3(5, 5, -0.5, 0.2, 0.95)
        assert report.passed

    def test_equal_parameter_reduction_to_single_weight(self):
        # closed form of the circle orthogonality at alpha = beta is exactly
        # twice the [0, pi] closed form
        q = 0.3
        for n in range(7):
            for beta in (0.6, -0.45, 0.2):
                two_param = verify_thm_1_3(n, n, beta, beta, q).rhs
                one_param = 2 / h_norm(n, beta, q)
                assert abs(two_param - one_param) <= 1e-12 * abs(one_param)


class TestBetaIntegral:
    def test_s_zero_collapses_to_first_term(self):
        alpha, beta, q = 0.5, 0.2, 0.3
        report = verify_thm_1_4(alpha, beta, 0.0, 0.25, q)
        assert report.passed
        first_term = (2 * math.pi * qpoch_product([alpha, beta], q)
                      / qpoch_product([q, alpha * beta], q)
                      * (1 / (1 - alpha) + 1 / (1 - beta)))
        assert report.rhs == pytest.approx(first_term, rel=1e-12)
        assert report.rel_err <= 1e-9

    def test_reference_point(self):
        report = verify_thm_1_4(0.5, 0.2, 0.3, 0.25, 0.3)
        assert report.passed
        assert report.rel_err <= 1e-8

    def test_series_matches_oracle(self, q_beta_oracle):
        # the right side over its prefactor is the q-beta series, summed to
        # the series budget
        alpha, beta, s, t, q = 0.5, 0.2, 0.3, 0.25, 0.3
        report = verify_thm_1_4(alpha, beta, s, t, q)
        series = report.rhs / polynomials._circle_prefactor(alpha, beta, q)
        true, magnitude = q_beta_oracle(alpha, beta, s * t, q)
        assert report.params == {"alpha": alpha, "beta": beta, "s": s, "t": t, "q": q}
        assert abs(series - true) <= 2 * EPS_SERIES * (1 + magnitude)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(alpha=st.floats(-0.9, 0.9), beta=st.floats(-0.9, 0.9),
           w=st.floats(-0.8, 0.8), q=st.floats(-0.95, 0.95))
    @example(alpha=0.0, beta=0.6, w=0.5, q=0.9)
    @example(alpha=0.0, beta=0.0, w=-0.8, q=-0.95)
    def test_series_oracle_cloud(self, q_beta_oracle, alpha, beta, w, q):
        s = math.sqrt(abs(w))
        t = math.copysign(s, w)
        stub = QuadratureResult(0j, 0, 0.0, 0.0, "tolerance")
        with mock.patch.object(verify, "periodic_quadrature", lambda f: stub):
            rhs = verify_thm_1_4(alpha, beta, s, t, q).rhs
        series = rhs / polynomials._circle_prefactor(alpha, beta, q)
        true, magnitude = q_beta_oracle(alpha, beta, s * t, q)
        assert abs(series - true) <= 2 * EPS_SERIES * (1 + magnitude)

    def test_resummation_of_diagonal_values(self):
        # the left side equals the (st)-weighted sum of the circle
        # orthogonality diagonal closed forms
        alpha = beta = 0.4
        s = t = 0.2
        q = 0.3
        report = verify_thm_1_4(alpha, beta, s, t, q)
        pref = (2 * math.pi * qpoch_product([alpha, beta], q)
                / qpoch_product([q, alpha * beta], q))
        total = sum(
            pref * (1 / (1 - alpha * q**n) + 1 / (1 - beta * q**n))
            * qpoch_finite(alpha * beta, q, n) / qpoch_finite(q, q, n) * (s * t) ** n
            for n in range(60)
        )
        assert report.passed
        assert abs(report.lhs - total) <= 1e-8 * (1 + abs(total))

    def test_modulus_one_parameter_is_a_recorded_failure(self):
        report = verify_thm_1_4(1.0, 0.2, 0.3, 0.25, 0.3)
        assert not report.passed
        assert report.rel_err == math.inf

    @pytest.mark.parametrize("alpha,beta,q,calls", [
        (0.5, 0.2, 0.9, 9),         # the pairs in t, in s and in e^{2iu}
        (0.4, 0.4, 0.9, 6),         # and the alpha and beta pairs
        (0.5, 0.2, 0.5 + 0.3j, 12),  # a complex base shares nothing
    ])
    def test_integrand_shares_conjugate_products(self, monkeypatch, alpha, beta, q, calls):
        # products per integrand call, at the first quadrature level only
        products = []
        per_call = []
        qpoch = pochhammer.qpoch_infinite

        def counted(a, base):
            products.append(np.size(a))
            return qpoch(a, base)

        def one_level(f):
            products.clear()
            f(2 * np.pi * np.arange(64) / 64)
            per_call.append(list(products))
            return QuadratureResult(0j, 64, 0.0, 0.0, "tolerance")

        monkeypatch.setattr(pochhammer, "qpoch_infinite", counted)
        monkeypatch.setattr(verify, "periodic_quadrature", one_level)
        verify_thm_1_4(alpha, beta, 0.3, 0.25, q)
        assert per_call == [[64] * calls]

    def test_pinned_stress_case_matches_twelve_products(self):
        # bit for bit against the integrand that forms every product itself
        alpha, beta, s, t, q = 0.5, 0.2, 0.3, 0.25, 0.9

        def twelve_products(theta):
            plus, minus = np.exp(1j * theta), np.exp(-1j * theta)
            plus2, minus2 = plus * plus, minus * minus
            num = (qpoch_infinite(alpha * t * plus, q) * qpoch_infinite(beta * t * minus, q)
                   * qpoch_infinite(alpha * s * plus, q) * qpoch_infinite(beta * s * minus, q)
                   * qpoch_infinite(plus2, q) * qpoch_infinite(minus2, q))
            den = (qpoch_infinite(t * plus, q) * qpoch_infinite(t * minus, q)
                   * qpoch_infinite(s * plus, q) * qpoch_infinite(s * minus, q)
                   * qpoch_infinite(alpha * plus2, q) * qpoch_infinite(beta * minus2, q))
            return num / den

        report = verify_thm_1_4(alpha, beta, s, t, q)
        reference = periodic_quadrature(twelve_products)
        assert report.passed
        assert (report.lhs, report.nodes_used) == (reference.value, reference.nodes_used)
        assert repr(report.lhs) == repr(reference.value)


class TestJacksonIdentities:
    def test_reference_point(self):
        report = verify_prop_3_1(0.3, 0.2, 0.4, 0.5, 0.7, 0.35)
        assert report.passed
        assert report.rel_err <= 1e-9
        assert report.nodes_used > 0

    def test_dropping_third_parameter(self):
        report = verify_prop_3_1(0.3, 0.2, 0.0, 0.5, 0.7, 0.35)
        assert report.passed
        assert report.rel_err <= 1e-9

    def test_equal_endpoints_vanish_on_both_sides(self):
        report = verify_prop_3_1(0.3, 0.2, 0.4, 0.5, 0.5, 0.35)
        assert report.passed
        assert report.lhs == 0
        assert report.rhs == 0

    def test_representation_trivial_case(self):
        x = 0.8 * np.exp(0.4j)
        report = verify_prop_3_2(0, 0.0, 0.0, x, x.conjugate(), 0.3)
        assert report.passed
        assert report.lhs == 1
        assert report.rel_err <= 1e-10

    def test_representation_reference_point(self):
        x = 0.8 * np.exp(0.4j)
        report = verify_prop_3_2(3, 0.3, 0.2, x, x.conjugate(), 0.3)
        assert report.passed
        assert report.rel_err <= 1e-9

    def test_equal_endpoints_are_a_recorded_failure(self):
        report = verify_prop_3_2(1, 0.3, 0.2, 1.0, 1.0, 0.3)
        assert not report.passed
        assert report.rel_err == math.inf

    def test_ladder_work_near_q_one(self, monkeypatch):
        # each block of m rungs takes one qpoch_ladder table of the six
        # arguments: per column m - 1 + K factors and M log-series terms,
        # (K, M) the split of their largest product, where one qpoch_infinite
        # per argument took 6 m (K + M) and the factor form 6 (m - 1 + N)
        evaluated = []
        splits = []
        entries = []
        inner_products = []
        inside = []
        ladder = verify.qpoch_ladder
        qpoch_infinite = pochhammer.qpoch_infinite
        jackson = verify.jackson_q_integral

        def counted_ladder(values, q, count):
            table = ladder(values, q, count)
            if inside:
                rows = sum(pochhammer._split(float(np.max(np.abs(values))), abs(q)))
                splits.append(rows)
                entries.append((count - 1 + rows) * np.size(values))
            return table

        def counted_qpoch(a, q):
            if inside:
                inner_products.append(np.size(a))
            return qpoch_infinite(a, q)

        def counted_jackson(f, a, b, q):
            def integrand(z):
                evaluated.append(len(z))
                inside.append(True)
                try:
                    return f(z)
                finally:
                    inside.pop()
            return jackson(integrand, a, b, q)

        monkeypatch.setattr(verify, "qpoch_ladder", counted_ladder)
        monkeypatch.setattr(pochhammer, "qpoch_infinite", counted_qpoch)
        monkeypatch.setattr(verify, "qpoch_infinite", counted_qpoch)
        monkeypatch.setattr(verify, "jackson_q_integral", counted_jackson)
        report = verify_prop_3_1(0.3, 0.2, 0.4, 0.5, 0.7, 0.95)
        assert report.passed
        assert report.nodes_used == 1353
        assert inner_products == []
        assert len(entries) == len(evaluated)
        assert sum(entries) <= 6 * (sum(evaluated) + sum(splits))
        assert sum(evaluated) <= 2 * report.nodes_used + 8
        # the first block's largest |v| is 1.33: K + M = 64 against N = 738,
        # and 14172 entries in all against the factor form's 62286
        assert max(splits) <= 64
        assert sum(entries) < 15000


class TestConnectionAndChebyshev:
    def test_equal_parameters_exact(self):
        report = verify_rogers_connection(6, 0.4, 0.4, 0.3)
        assert report.passed
        assert report.rel_err <= 1e-13

    def test_reference_grid(self):
        report = verify_rogers_connection(6, 0.4, 0.7, 0.3)
        assert report.passed
        assert report.rel_err <= 1e-10
        assert report.params["theta_grid"] == 16

    def test_params_rerun_the_same_grid(self):
        report = verify_rogers_connection(4, 0.4, 0.7, 0.3, theta_grid=9)
        assert report.passed
        assert report.params == {"n": 4, "beta": 0.4, "gamma": 0.7, "q": 0.3, "theta_grid": 9}
        again = verify_rogers_connection(**report.params)
        assert (again.lhs, again.rhs, again.nodes_used) == (report.lhs, report.rhs, 9)

    def test_chebyshev_integral_points(self):
        for n, k, beta, q in [(0, 1, 0.5, 0.3), (2, 2, 0.4, 0.25)]:
            report = verify_askey_ismail_chebyshev(n, k, beta, q)
            assert report.passed
            assert report.rel_err <= 1e-8

    def test_negative_beta(self):
        report = verify_askey_ismail_chebyshev(1, 1, -0.4, 0.3)
        assert report.passed

    def test_k_zero_is_a_recorded_failure(self):
        report = verify_askey_ismail_chebyshev(2, 0, 0.5, 0.3)
        assert not report.passed


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its first argument."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestPolynomialReuse:
    """Each polynomial is evaluated once per node set or grid, and the
    reports keep the values of one evaluation per factor, bit for bit."""

    @pytest.mark.parametrize("m,n", [(3, 5), (4, 4), (6, 0)])
    def test_thm_1_1_reads_both_degrees_from_one_table(self, monkeypatch, m, n):
        beta, q = 0.6, 0.3
        nodes = []

        def integrand(theta):
            nodes.append(theta)
            x = np.cos(theta)
            return (ultraspherical_c(m, x, beta, q) * ultraspherical_c(n, x, beta, q)
                    * weight_omega_beta(theta, beta, q))

        expected = periodic_quadrature(integrand).value / 2.0
        tables = counting(monkeypatch, verify, "ultraspherical_table")
        report = verify_thm_1_1(m, n, beta, q)
        assert repr(report.lhs) == repr(complex(expected))
        assert tables == [max(m, n)] * len(nodes)

    @pytest.mark.parametrize("m,n", [(3, 3), (1, 2)])
    def test_thm_1_3_evaluates_gasper_c_once_at_equal_degrees(self, monkeypatch, m, n):
        alpha, beta, q = 0.4, -0.3, 0.35
        nodes = []

        def integrand(theta):
            nodes.append(theta)
            return (gasper_c(m, theta, alpha, beta, q) * gasper_c(n, theta, alpha, beta, q)
                    * weight_omega_ab(theta, alpha, beta, q))

        expected = periodic_quadrature(integrand).value
        calls = counting(monkeypatch, verify, "gasper_c")
        report = verify_thm_1_3(m, n, alpha, beta, q)
        assert repr(report.lhs) == repr(complex(expected))
        assert len(calls) == (1 if m == n else 2) * len(nodes)

    def test_rogers_connection_reads_each_parameter_from_one_table(self, monkeypatch):
        n, beta, gamma, q = 9, 0.4, 0.7, 0.3
        x = np.cos((np.arange(16) + 0.5) * math.pi / 16)
        lhs = ultraspherical_c(n, x, gamma, q) + 0j
        rhs = np.zeros_like(lhs)
        for k, ck in enumerate(connection_coeffs(n, beta, gamma, q)):
            rhs = rhs + ck * ultraspherical_c(n - 2 * k, x, beta, q)
        worst = int(np.argmax(np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))))
        tables = []
        table = verify.ultraspherical_table

        def recorded(degree, points, parameter, base):
            tables.append((degree, parameter))
            return table(degree, points, parameter, base)

        monkeypatch.setattr(verify, "ultraspherical_table", recorded)
        report = verify_rogers_connection(n, beta, gamma, q)
        assert ((repr(report.lhs), repr(report.rhs))
                == (repr(complex(lhs[worst])), repr(complex(rhs[worst]))))
        assert sorted(tables) == [(n, beta), (n, gamma)]


class TestCoefficientwise:
    def test_shifted_generating_function(self):
        report = verify_gf_4_1(0.5, 0.3, 0.9, degree=16)
        assert report.passed
        assert report.rel_err <= 1e-10

    def test_degenerate_beta_zero(self):
        report = verify_gf_4_1(0.0, 0.3, 0.7, degree=12)
        assert report.passed

    def test_double_sum_expansion(self):
        report = verify_prop_4_2(0.3, 0.6, 0.4, 1.1, degree=12)
        assert report.passed
        assert report.rel_err <= 1e-9

    def test_double_sum_equal_parameters(self):
        report = verify_prop_4_2(0.5, 0.5, 0.3, 0.9, degree=10)
        assert report.passed
        assert report.rel_err <= 1e-12

    # the connection row's front product is finite at beta = 0, where the
    # written-out beta^j (gamma/beta;q)_j was refused; test_oracle.py holds
    # these coefficients to the explicit sum
    @pytest.mark.parametrize("q,degree", [(0.4, 12), (0.9, 30)])
    def test_double_sum_at_beta_zero(self, q, degree):
        report = verify_prop_4_2(0.0, 0.6, q, 1.1, degree=degree)
        assert report.passed
        assert report.nodes_used == degree + 1

    def test_double_sum_is_the_connection_formula_at_every_degree(self):
        # the coefficient of t^p is sum_j c_j C_{p-2j}(x; beta), c_j row p of
        # the connection coefficients, bit for bit
        beta, gamma, q, theta, degree = 0.3, 0.6, 0.4, 1.1, 12
        beta_table = polynomials.ultraspherical_table(degree, math.cos(theta), beta, q)
        _, rhs, _ = verify_prop_4_2.__wrapped__(beta, gamma, q, theta, degree)
        for p in range(degree + 1):
            expected = 0.0
            for j, cj in enumerate(connection_coeffs(p, beta, gamma, q)):
                expected = expected + cj * beta_table[p - 2 * j]
            assert repr(complex(rhs[p])) == repr(complex(expected))


class TestBoundsAndSummations:
    def test_degree_zero_equality(self):
        report = verify_uniform_bound(0, 0.5, 0.5, 0.3)
        assert report.passed
        assert report.lhs == 0

    def test_grid_cases(self):
        assert verify_uniform_bound(10, 0.7, -0.5, 0.6).passed
        assert verify_uniform_bound(15, 0.2, 0.9, -0.4).passed

    def test_q_binomial_theorem(self):
        report = verify_qbinomial(0.4, 0.5, 0.3)
        assert report.passed
        assert report.rel_err <= 1e-11

    def test_q_binomial_denominator_underflow_is_a_pole(self):
        # the complex expand case at q = 0.999: (z;q)_inf is below the
        # smallest double, so the right side would divide by zero
        a, z = 0.7020660495122982 + 0.3835404308833624j, 0.6687355423879241 - 0.20686414466293768j
        assert qpoch_infinite(z, 0.999) == 0
        with pytest.raises(PoleError, match=r"the denominator \(\(0\.6687.*; q\)_inf is 0"):
            verify_qbinomial.__wrapped__(a, z, 0.999)
        report = verify_qbinomial(a, z, 0.999)
        assert (report.passed, report.rel_err) == (False, math.inf)

    def test_rogers_summation(self):
        report = verify_rogers_6w5(0.1, 0.7, 0.6, 0.8, 0.4)
        assert report.passed
        assert report.rel_err <= 1e-11


class TestSuite:
    def test_empty_config(self):
        assert run_suite({}) == []

    def test_subset_runs_and_orders_deterministically(self):
        config = {
            "qbinomial": [{"a": 0.4, "z": 0.5, "q": 0.3},
                          {"a": -0.3, "z": 0.6, "q": 0.5}],
            "uniform-bound": [{"n": 3, "alpha": 0.5, "beta": 0.5, "q": 0.3}],
        }
        reports = run_suite(config)
        assert [r.check_id for r in reports] == ["qbinomial", "qbinomial", "uniform-bound"]
        again = run_suite(config)
        assert [r.rel_err for r in reports] == [r.rel_err for r in again]

    def test_unattainable_tolerance_is_recorded_not_raised(self):
        config = {"thm-1.1": [{"m": 2, "n": 2, "beta": 0.6, "q": 0.3, "tol": 1e-30}]}
        reports = run_suite(config)
        assert len(reports) == 1
        assert not reports[0].passed
        assert reports[0].tol == 1e-30

    @pytest.mark.parametrize("check_id,entry", [
        ("rogers-connection", {"n": 3, "beta": 0.4, "gamma": 0.7, "q": 0.3, "theta_grid": 0}),
        ("uniform-bound", {"n": 3, "alpha": 0.5, "beta": 0.5, "q": 0.3, "grid_size": 0}),
        ("prop-4.2", {"beta": 0.3, "gamma": 0.6, "q": 0.4, "theta": 1.1, "degree": -1}),
        ("rogers-6phi5", {"a": 0.1, "b": 0.0, "c": 0.6, "d": 0.8, "q": 0.4}),
        # poles: the Jackson integrand divides by (a z/y; q)_inf = 0 at z = y,
        # by (b z/x; q)_inf = 0 at z = x, and prop-4.2 by (beta; q)_{m+j+1} = 0
        ("prop-3.2", {"n": 3, "a": 1.0, "b": 0.2, "x": 0.5, "y": 0.7, "q": 0.3}),
        ("prop-3.2", {"n": 3, "a": 0.3, "b": 1.0, "x": 0.5, "y": 0.7, "q": 0.3}),
        ("prop-4.2", {"beta": 1.0, "gamma": 0.6, "q": 0.4, "theta": 1.1, "degree": 12}),
        # closed-form poles: (beta q; q)_{n-k} = 0 in the connection
        # coefficients, (q y/x; q)_inf = 0 in the prop-3.2 prefactor
        ("rogers-connection", {"n": 4, "beta": 4.0, "gamma": 0.7, "q": 0.5}),
        ("prop-3.2", {"n": 2, "a": 0.3, "b": 0.2, "x": 0.5, "y": 1.0, "q": 0.5}),
        # degrees are checked before the shared recurrence table is indexed
        ("thm-1.1", {"m": -1, "n": 3, "beta": 0.6, "q": 0.3}),
        ("thm-1.1", {"m": 3, "n": -1, "beta": 0.6, "q": 0.3}),
    ])
    def test_empty_size_arguments_are_recorded_not_raised(self, check_id, entry):
        [report] = run_suite({check_id: [entry]})
        assert not report.passed
        assert report.rel_err == math.inf
        # the runner's full arguments in signature order, defaults included
        # (theta_grid=16 for the rogers-connection pole entry), tol left out
        parameters = inspect.signature(CHECK_RUNNERS[check_id]).parameters
        names = [name for name in parameters if name != "tol"]
        assert list(report.params) == names
        assert report.params == {name: entry.get(name, parameters[name].default)
                                 for name in names}

    # every runner but uniform-bound, whose polynomials are defined for any q
    # with q**k != 1 for 1 <= k <= n: it fails at q = 1 and q = -1 (q**2 = 1),
    # and at q = 1e200, whose q**2 is past the largest double (its guard
    # raised OverflowError there)
    @pytest.mark.parametrize("q,check_id", [
        (q, check_id) for q in (1.0, math.nan)
        for check_id in sorted(set(CHECK_RUNNERS) - {"uniform-bound"})
    ] + [(1.0, "uniform-bound"), (-1.0, "uniform-bound"), (1e200, "uniform-bound")])
    def test_base_off_the_disk_is_a_recorded_failure(self, check_id, q):
        entry = dict(default_suite_config()[check_id][-1], q=q)
        report = CHECK_RUNNERS[check_id](**entry)
        assert not report.passed
        assert report.rel_err == math.inf

    # a NaN or infinite argument of a product or a series is refused before
    # any work, so the report fails within 100 ms (the series ran to its
    # term cap, 150-700 ms, and the products raised a bare ValueError)
    @pytest.mark.parametrize("check_id,params", [
        ("prop-3.2", dict(n=2, a=math.nan, b=0.2, x=0.5, y=0.7, q=0.3)),
        ("thm-1.4", dict(alpha=0.5, beta=0.2, s=math.nan, t=0.25, q=0.3)),
        ("qbinomial", dict(a=math.nan, z=0.5, q=0.3)),
        ("rogers-6phi5", dict(a=math.nan, b=0.7, c=0.6, d=0.8, q=0.4)),
        # finite products, generating functions and circle polynomials: these
        # reported rel_err=nan, or passed (uniform-bound)
        ("gf-4.1", dict(beta=math.nan, q=0.3, theta=0.5)),
        ("gf-4.1", dict(beta=0.5, q=0.3, theta=math.nan)),
        ("prop-4.2", dict(beta=0.3, gamma=math.nan, q=0.4, theta=1.1)),
        # an infinite theta raised a bare ValueError from math.cos out of
        # the runner, and a NaN theta gave prop-4.2 rel_err=nan
        ("gf-4.1", dict(beta=0.3, q=0.4, theta=math.inf)),
        ("prop-4.2", dict(beta=0.3, gamma=0.6, q=0.4, theta=math.inf)),
        ("prop-4.2", dict(beta=0.3, gamma=0.6, q=0.4, theta=math.nan)),
        ("rogers-connection", dict(n=3, beta=math.nan, gamma=0.7, q=0.3)),
        ("rogers-connection", dict(n=3, beta=0.4, gamma=math.inf, q=0.3)),
        ("uniform-bound", dict(n=3, alpha=math.nan, beta=0.2, q=0.3)),
        ("uniform-bound", dict(n=3, alpha=0.5, beta=0.2, q=math.nan)),
    ])
    def test_non_finite_argument_is_a_quick_recorded_failure(self, check_id, params):
        report = CHECK_RUNNERS[check_id](**params)
        assert not report.passed
        assert report.rel_err == math.inf
        assert report.runtime_ms < 100

    def test_uniform_bound_does_not_pass_a_nan_violation(self):
        # |alpha| = 1e300 overflows the polynomials to NaN on the grid and at
        # 1; max(0.0, nan) read that as no violation and passed
        with np.errstate(all="ignore"):
            report = CHECK_RUNNERS["uniform-bound"](n=3, alpha=1e300, beta=0.2, q=0.3)
        assert not report.passed
        assert math.isnan(report.rel_err)

    def test_uniform_bound_accepts_a_base_off_the_disk(self):
        # q = 1.5 has no q**k == 1, so the check runs and this entry holds
        entry = dict(default_suite_config()["uniform-bound"][1], q=1.5)
        report = CHECK_RUNNERS["uniform-bound"](**entry)
        assert report.passed
        assert report.nodes_used == 64

    def test_quadrature_work_of_the_default_suite(self, monkeypatch):
        # each node is evaluated once: a rule that re-evaluates the coarser
        # levels or stops later changes these counts
        points = []
        nodes = []
        quadrature = verify.periodic_quadrature

        def counted(f):
            def integrand(theta):
                points.append(np.size(theta))
                return f(theta)
            result = quadrature(integrand)
            nodes.append(result.nodes_used)
            return result

        monkeypatch.setattr(verify, "periodic_quadrature", counted)
        assert all(report.passed for report in run_suite())
        assert sum(points) == sum(nodes) == 7808

    def test_integrand_calls_of_the_default_suite(self, monkeypatch):
        # the first call takes the levels of 64 and 128 nodes, each further
        # doubling one more: log2(nodes_used / 64) calls per report
        runs = []
        quadrature = verify.periodic_quadrature

        def counted(f):
            sizes = []

            def integrand(theta):
                sizes.append(np.size(theta))
                return f(theta)
            result = quadrature(integrand)
            runs.append((check_id, sizes, result.nodes_used))
            return result

        monkeypatch.setattr(verify, "periodic_quadrature", counted)
        for check_id in ("askey-ismail", "thm-1.1", "thm-1.2", "thm-1.3", "thm-1.4"):
            for entry in default_suite_config()[check_id]:
                assert CHECK_RUNNERS[check_id](**entry).passed
        assert len(runs) == 43
        for _, sizes, nodes in runs:
            assert 2 ** len(sizes) == nodes // 64
            assert sizes == [128] + [64 * 2**k for k in range(1, len(sizes))]
        assert ("thm-1.2", [128], 128) in runs
        assert sum(len(sizes) for _, sizes, _ in runs) == 61

    def test_default_config_covers_every_check(self):
        config = default_suite_config()
        assert set(config) == set(CHECK_RUNNERS)
        assert sum(len(v) for v in config.values()) >= 60

    def test_default_tolerance_is_the_runner_tol_default(self):
        table = {
            "thm-1.1": 1e-9, "thm-1.3": 1e-9, "prop-3.1": 1e-9,
            "prop-3.2": 1e-9, "gf-4.1": 1e-9, "prop-4.2": 1e-9,
            "thm-1.2": 1e-8, "thm-1.4": 1e-8, "askey-ismail": 1e-8,
            "rogers-connection": 1e-10,
            "uniform-bound": 1e-12,
            "qbinomial": 1e-11, "rogers-6phi5": 1e-11,
        }
        parameters = {check_id: inspect.signature(runner, eval_str=True).parameters["tol"]
                      for check_id, runner in CHECK_RUNNERS.items()}
        assert {check_id: p.default for check_id, p in parameters.items()} == table
        assert all(p.annotation is float for p in parameters.values())
        config = default_suite_config()
        assert {check_id: runner(**config[check_id][0]).tol
                for check_id, runner in CHECK_RUNNERS.items()} == table

    def test_tol_none_is_refused(self):
        with pytest.raises(TypeError):
            verify_qbinomial(0.4, 0.5, 0.3, tol=None)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_tol_no_report_could_pass_is_refused(self, tol):
        # rel_err <= tol is false for every rel_err at NaN or a negative tol
        with pytest.raises(DomainError, match="finite and positive"):
            verify_qbinomial(0.4, 0.5, 0.3, tol=tol)
        with pytest.raises(DomainError):
            run_suite({"thm-1.1": [{"m": 1, "n": 1, "beta": 0.6, "q": 0.3, "tol": tol}]})


# q = 0.3 and beta = q^{-1/2}, so beta^2 q = 1: (beta^2; q)_inf vanishes in
# the thm-1.1 and thm-1.2 norm N_n(beta, beta) and (beta^2 q; q)_inf in the
# askey-ismail denominator; thm-1.3 has alpha beta = 1, so (alpha beta; q)_inf
# vanishes in its norm.  Each ended in a bare ZeroDivisionError.
CLOSED_FORM_POLES = [
    ("thm-1.1", {"m": 2, "n": 2, "beta": 0.3**-0.5, "q": 0.3}),
    ("thm-1.2", {"m": 2, "n": 2, "beta": 0.3**-0.5, "gamma": 0.5, "q": 0.3}),
    ("thm-1.3", {"m": 1, "n": 1, "alpha": 0.5, "beta": 2.0, "q": 0.3}),
    ("askey-ismail", {"n": 1, "k": 1, "beta": 0.3**-0.5, "q": 0.3}),
]


class TestClosedFormPoles:
    @pytest.mark.parametrize("check_id,entry", CLOSED_FORM_POLES,
                             ids=[check_id for check_id, _ in CLOSED_FORM_POLES])
    def test_pole_is_a_failed_report(self, check_id, entry):
        with pytest.raises(PoleError):
            CHECK_RUNNERS[check_id].__wrapped__(**entry)
        report = CHECK_RUNNERS[check_id](**entry)
        assert (report.passed, report.rel_err) == (False, math.inf)

    def test_suite_runs_to_completion(self):
        reports = run_suite({check_id: [entry] for check_id, entry in CLOSED_FORM_POLES})
        assert [report.check_id for report in reports] == sorted(
            check_id for check_id, _ in CLOSED_FORM_POLES)
        assert not any(report.passed for report in reports)
