"""Identity checks: spec'd example points, reduction identities, failure
paths, and suite behavior."""

import math

import numpy as np
import pytest

from qkernel import (CHECK_RUNNERS, INFINITY, h_norm,
                     qpoch_finite, qpoch_multi, run_suite,
                     verify_askey_ismail_chebyshev, verify_gf_4_1,
                     verify_prop_3_1, verify_prop_3_2, verify_prop_4_2,
                     verify_qbinomial, verify_rogers_6w5,
                     verify_rogers_connection, verify_thm_1_1,
                     verify_thm_1_2, verify_thm_1_3, verify_thm_1_4,
                     verify_uniform_bound)
from qkernel.verify import default_suite_config, default_tolerance


class TestOrthogonality:
    def test_hermite_ground_state(self):
        # m = n = 0, beta = 0: both sides are 2 pi / (q;q)_inf
        report = verify_thm_1_1(0, 0, 0.0, 0.3)
        expected = 2 * math.pi / qpoch_multi([0.3], 0.3, INFINITY).real
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

    def test_beta_zero_is_a_recorded_failure(self):
        report = verify_thm_1_2(2, 2, 0.0, 0.5, 0.4)
        assert not report.passed
        assert report.rel_err == math.inf


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
        first_term = (2 * math.pi * qpoch_multi([alpha, beta], q, INFINITY)
                      / qpoch_multi([q, alpha * beta], q, INFINITY)
                      * (1 / (1 - alpha) + 1 / (1 - beta)))
        assert report.rhs == pytest.approx(first_term, rel=1e-12)
        assert report.rel_err <= 1e-9

    def test_reference_point(self):
        report = verify_thm_1_4(0.5, 0.2, 0.3, 0.25, 0.3)
        assert report.passed
        assert report.rel_err <= 1e-8

    def test_tail_bound_is_certified(self):
        report = verify_thm_1_4(0.5, 0.2, 0.3, 0.25, 0.3)
        tail = report.params["series_tail_bound"]
        assert tail <= 1e-12 * (1 + abs(report.rhs))

    def test_resummation_of_diagonal_values(self):
        # the left side equals the (st)-weighted sum of the circle
        # orthogonality diagonal closed forms
        alpha = beta = 0.4
        s = t = 0.2
        q = 0.3
        report = verify_thm_1_4(alpha, beta, s, t, q)
        pref = (2 * math.pi * qpoch_multi([alpha, beta], q, INFINITY)
                / qpoch_multi([q, alpha * beta], q, INFINITY))
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


class TestConnectionAndChebyshev:
    def test_equal_parameters_exact(self):
        report = verify_rogers_connection(6, 0.4, 0.4, 0.3)
        assert report.passed
        assert report.rel_err <= 1e-13

    def test_reference_grid(self):
        report = verify_rogers_connection(6, 0.4, 0.7, 0.3)
        assert report.passed
        assert report.rel_err <= 1e-10
        assert report.params["grid_size"] == 16

    def test_explicit_grid_accepted(self):
        grid = np.linspace(0.1, 3.0, 9)
        report = verify_rogers_connection(4, 0.4, 0.7, 0.3, theta_grid=grid)
        assert report.passed
        assert report.params["grid_size"] == 9

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
    ])
    def test_empty_size_arguments_are_recorded_not_raised(self, check_id, entry):
        [report] = run_suite({check_id: [entry]})
        assert not report.passed
        assert report.rel_err == math.inf

    def test_default_config_covers_every_check(self):
        config = default_suite_config()
        assert set(config) == set(CHECK_RUNNERS)
        assert sum(len(v) for v in config.values()) >= 60

    def test_env_override_of_tolerances(self, monkeypatch):
        monkeypatch.setenv("QKERNEL_TOL", "1e-3")
        assert default_tolerance("thm-1.1") == 1e-3
        monkeypatch.delenv("QKERNEL_TOL")
        assert default_tolerance("thm-1.1") == 1e-9
