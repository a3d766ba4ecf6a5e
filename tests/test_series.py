"""Truncated power series, generating-function expansion, and the basic
hypergeometric summation engine."""

import cmath
import collections
import math
import time
import warnings

import numpy as np
import pytest

from qkernel import (CHECK_RUNNERS, ConvergenceError, DomainError, PoleError, TruncatedPowerSeries,
                     gasper_c, gf_expand, phi_series, qpoch_finite, qpoch_infinite,
                     rogers_6w5_rhs, w_series)
from qkernel import integrate, series
from report_dump import SEEDS, load_workloads
from test_oracle import mp_phi_series

mpmath = pytest.importorskip("mpmath")


HUGE = complex(1.5e308, 1.5e308)  # finite parts, |HUGE| > the largest double


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
            assert series.coeffs[n] == pytest.approx(expected, rel=1e-13)

    def test_matches_ultraspherical_explicit_sum(self):
        beta, q, theta = 0.55, 0.35, 0.8
        phase = np.exp(1j * theta)
        series = gf_expand([beta * phase, beta / phase], [phase, 1 / phase], q, 16)
        for n in range(17):
            expected = gasper_c(n, theta, beta, beta, q)
            assert abs(series.coeffs[n] - expected) <= 1e-11 * (1 + abs(expected))

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

    @pytest.mark.parametrize("numerators,denominators", [
        ([math.nan], [0.2]), ([0.5], [math.inf]), ([0.5, complex(0.1, math.nan)], []),
    ])
    def test_non_finite_parameter_is_refused(self, numerators, denominators):
        # the coefficients were (1, nan, nan, nan) for a NaN numerator
        with pytest.raises(DomainError, match="gf_expand needs finite arguments"):
            gf_expand(numerators, denominators, 0.3, 3)


class TestPhiSeries:
    def test_needs_one_more_upper(self):
        with pytest.raises(DomainError):
            phi_series([0.3, 0.5], 0.5, 0.4, [0.2, 0.1])

    def test_zero_argument(self):
        assert phi_series([0.3, 0.5], 0.0, 0.4, [0.2]) == 1

    def test_q_binomial_theorem(self):
        a, z, q = 0.4, 0.5, 0.3
        got = phi_series([a], z, q)
        expected = qpoch_infinite(a * z, q) / qpoch_infinite(z, q)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_q_binomial_theorem_cloud(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = complex(*rng.uniform(-0.6, 0.6, 2))
            z = complex(*rng.uniform(-0.6, 0.6, 2))
            q = rng.uniform(-0.85, 0.85)
            got = phi_series([a], z, q)
            expected = qpoch_infinite(a * z, q) / qpoch_infinite(z, q)
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
        got = phi_series([a, b], z, q, [0.6])
        assert got == pytest.approx(direct, rel=1e-12)

    def test_vanishing_lower_parameter_rejected(self):
        q = 0.4
        with pytest.raises(DomainError):
            phi_series([0.3, 0.2], 0.5, q, [q**-2])

    def test_divergent_argument_raises(self, monkeypatch):
        monkeypatch.setattr("qkernel.series.MAX_SERIES_TERMS", 200)
        with pytest.raises(ConvergenceError):
            phi_series([0.3], 1.5, 0.4)

    @pytest.mark.parametrize("upper,z,lower", [
        ([math.nan], 0.5, []),
        ([0.3], complex(0.5, math.inf), []),
        ([0.3, 0.2], 0.5, [math.nan]),
        ([math.nan], 0.0, []),
    ])
    def test_non_finite_input_is_refused(self, upper, z, lower):
        with pytest.raises(DomainError, match="finite"):
            phi_series(upper, z, 0.3, lower)

    # finite parts whose modulus is past the largest double: abs() raised a
    # bare OverflowError out of phi_series, and so out of w_series
    @pytest.mark.parametrize("call", [
        lambda: phi_series([HUGE], 0.5, 0.9),
        lambda: phi_series([0.4], HUGE, 0.9),
        lambda: phi_series([0.3, 0.2], 0.5, 0.9, [HUGE]),
        lambda: w_series(HUGE, [0.7, 0.6, 0.8], 0.4, 0.3),
    ])
    def test_modulus_past_the_largest_double_is_refused(self, call):
        with pytest.raises(DomainError, match="phi_series needs finite arguments"):
            call()

    def test_overflowing_terms_fail_fast(self):
        # the second term is near 1e600: no tail bound can hold, so the sum
        # stops there instead of after MAX_SERIES_TERMS terms
        started = time.perf_counter()
        with pytest.raises(ConvergenceError, match="non-finite"):
            phi_series([0.3], 1e300, 0.4)
        assert time.perf_counter() - started < 0.1

    def test_overflowing_sum_at_rho_above_one_is_a_convergence_error(self):
        # |z| = 1.5 keeps rho above 1 until the sum overflows in a numpy
        # block, first in its modulus (8.87e307-1.59e308j has finite parts):
        # a ConvergenceError, not that sum as the value
        with pytest.raises(ConvergenceError, match="non-finite sum"):
            phi_series([0.4], 1.5, cmath.rect(0.99, 0.2))

    def test_overflow_before_a_vanishing_lower_factor_decides(self):
        # the sum overflows before 1 - b q^50 vanishes at term 50, both in the
        # first block: the first event decides, as it does for a stop
        with pytest.raises(ConvergenceError, match="non-finite sum"):
            phi_series([0.4, 0.3], 1e8, 0.9, [0.9**-50])

    def test_vanishing_terms_at_a_large_rho_sum_to_one(self):
        # sum_n (q;q)_n^12 0.9^n: rho is 7.7e4 after the first 64 terms and
        # stays above 1 for thousands of terms, but the terms vanish at once
        q = 0.999
        assert phi_series([q] * 13, 0.9, q, [0.0] * 12) == 1.0

    def test_two_one_matches_per_term_summation(self):
        rng = np.random.default_rng(71)
        for _ in range(15):
            a = complex(*rng.uniform(-0.7, 0.7, 2))
            b = complex(*rng.uniform(-0.7, 0.7, 2))
            c = complex(*rng.uniform(-0.7, 0.7, 2))
            z = complex(*rng.uniform(-0.5, 0.5, 2))
            q = rng.uniform(-0.7, 0.7)
            got = phi_series([a, b], z, q, [c])
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


# the summers themselves, which the array_blocks fixture wraps in phi_series
LONG_TERMS, TERM_LOOP = series._long_terms, series._term_loop


def outcome(function, *args) -> str:
    """repr of function(*args), or the type and message of what it raises."""
    try:
        return repr(function(*args))
    except Exception as error:
        return f"{type(error).__name__}: {error}"


def after_loop(upper, z, q, lower=(), terms=8):
    """The series and the term loop's record after its first `terms` terms."""
    prepared = series._series_of([complex(a) for a in upper], [complex(b) for b in lower],
                                 complex(z), complex(q))
    state = TERM_LOOP(prepared, terms, series._FIRST_TERM)
    assert not state.stopped and state.n == terms
    return prepared, state


def both_summers(upper, z, q, lower=(), count=128):
    """The outcomes of the array summer and the term loop on the same block
    of `count` terms, from the same state after the first 8 terms."""
    prepared, state = after_loop(upper, z, q, lower)
    return (outcome(LONG_TERMS, prepared, count, state),
            outcome(TERM_LOOP, prepared, count, state))


def block_then_loop(summer, prepared, count, state):
    """q^n after a block of `count` terms that `summer` sums from `state`
    (None if the series stops in it), and the value of phi_series that
    the term loop then reaches from there.  The block driver runs both, so
    a sum that is not finite raises ConvergenceError, as in phi_series."""
    records = []

    def first_then_loop(prepared, count, state):
        records.append((TERM_LOOP if records else summer)(prepared, count, state))
        return records[-1]

    total = series._sum_blocks("phi_series", count, first_then_loop, first_then_loop,
                               (prepared,), state).total
    return (None if records[0].stopped else records[0].qn), total


def within_oracle_bound(value, upper, z, q, lower=()) -> bool:
    """Whether `value` is within phi_series_error_bound of the series' sum
    in 30-digit mpmath."""
    true, bound = mp_phi_series(tuple(upper), z, q, tuple(lower))
    with mpmath.workdps(30):
        return float(abs(mpmath.mpc(value) - true)) <= bound


@pytest.fixture
def array_blocks(monkeypatch):
    """The sizes of the blocks phi_series hands to the array summer."""
    sizes = []

    def counted(prepared, count, state):
        sizes.append(count)
        return LONG_TERMS(prepared, count, state)

    monkeypatch.setattr(series, "_long_terms", counted)
    return sizes


LONG_BASES = [0.95, 0.99, 0.999, -0.97, cmath.rect(0.99, 0.2), cmath.rect(0.999, -2.0)]


class TestArrayPath:
    """phi_series sums long series in numpy blocks, by the term loop's stop
    rule and with its exceptions, within the loop's oracle bound."""

    @pytest.mark.parametrize("q", LONG_BASES)
    @pytest.mark.parametrize("upper,z,lower", [
        ([0.4], 0.5, []),
        ([cmath.rect(0.8, 0.5)], cmath.rect(0.7, -0.3), []),
        ([0.25, 0.5j], 0.7, [0.45]),
        ([0.3 - 0.2j, -0.6, 0.9], cmath.rect(0.6, 1.0), [0.2j, -0.5]),
    ])
    @pytest.mark.parametrize("count", [64, 128, 1024])
    def test_block_is_within_the_oracle_bound(self, upper, z, q, lower, count):
        # one block after the first 8 terms, then the term loop to the stop:
        # the block stops in it exactly when the loop does, and carries the
        # loop's q^n out of it; both sums stay within the oracle bound, or
        # both raise alike
        prepared, state = after_loop(upper, z, q, lower)
        array, loop = (outcome(block_then_loop, summer, prepared, count, state)
                       for summer in (LONG_TERMS, TERM_LOOP))
        if "Error" in loop:
            assert array == loop
            return
        (array_qn, array), (loop_qn, loop) = (block_then_loop(summer, prepared, count, state)
                                              for summer in (LONG_TERMS, TERM_LOOP))
        assert array_qn == loop_qn
        assert within_oracle_bound(array, upper, z, q, lower)
        assert within_oracle_bound(loop, upper, z, q, lower)

    @pytest.mark.parametrize("q", LONG_BASES)
    def test_terminating_upper_parameter_stops_inside_a_block(self, q, array_blocks):
        # (q^-100; q)_n vanishes from n = 101: the last term is term 100,
        # which both summers reach from term 8 in 92 terms and stop after
        upper, z, lower = [q**-100, 0.5], 0.9, [0.45]
        prepared, state = after_loop(upper, z, q, lower)
        for summer in (LONG_TERMS, TERM_LOOP):
            assert not summer(prepared, 92, state).stopped
        array, loop = (LONG_TERMS(prepared, 128, state), TERM_LOOP(prepared, 128, state))
        assert array.stopped and loop.stopped and array.n == loop.n == 100
        array, loop = array.total, loop.total
        value = phi_series(upper, z, q, lower)
        assert array_blocks
        # so ill-conditioned (sum|t_n| / |sum| up to 1e18) that the summers
        # differ in the leading digit at q = 0.95: compared within 2 x 64 u
        # sum|t_n|, 64 u |t_n| a term as in phi_series_error_bound (measured
        # at most 0.98 u sum|t_n| apart)
        with mpmath.workdps(30):
            term, size = mpmath.mpc(1), mpmath.mpf(1)
            for n in range(100):
                qn = mpmath.mpmathify(q) ** n
                term *= ((1 - upper[0] * qn) * (1 - upper[1] * qn)
                         / ((1 - q * qn) * (1 - lower[0] * qn)) * z)
                size += abs(term)
        for other in (array, value):
            assert abs(other - loop) <= 2 * 64 * 2.0**-53 * float(size)

    @pytest.mark.parametrize("q", LONG_BASES)
    def test_vanishing_lower_factor_inside_a_block(self, q, array_blocks):
        # 1 - b q^150 is zero: the loop's DomainError at term 150
        upper, z, lower = [0.3, 0.5], 0.5, [q**-150]
        array, loop = both_summers(upper, z, q, lower, count=256)
        assert array == loop == ("DomainError: phi_series reached a vanishing "
                                 "lower-parameter factor")
        with pytest.raises(DomainError, match="vanishing lower-parameter"):
            phi_series(upper, z, q, lower)
        assert array_blocks

    @pytest.mark.parametrize("z", [1e3, cmath.rect(1e3, 2.5)])
    def test_overflowing_sum_inside_a_block(self, z, array_blocks):
        # terms grow about 1000-fold a term and overflow at term 103: both
        # summers end their block there, and the driver raises for both
        prepared, state = after_loop([0.4], z, 0.5)
        ends = [summer(prepared, 128, state) for summer in (LONG_TERMS, TERM_LOOP)]
        assert [(end.n, end.stopped) for end in ends] == [(103, True)] * 2
        assert not any(cmath.isfinite(end.total) for end in ends)
        array, loop = (outcome(block_then_loop, summer, prepared, 128, state)
                       for summer in (LONG_TERMS, TERM_LOOP))
        assert array == loop == ("ConvergenceError: phi_series reached a non-finite "
                                 "sum before its tail bound")
        with pytest.raises(ConvergenceError, match="non-finite sum"):
            phi_series([0.4], z, 0.5)
        assert array_blocks == [128]

    def test_overflow_event_in_a_block_warns_nothing(self):
        # 1phi0(0.4; -; 0.99e^{0.2i}, 1.5): the first sum past the largest
        # double has finite parts, and so has its term, so the tail bound of
        # that event overflows too, which outside np.errstate is a
        # RuntimeWarning
        prepared, state = after_loop([0.4], 1.5, cmath.rect(0.99, 0.2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="non-finite sum"):
                series._sum_blocks("phi_series", 64, LONG_TERMS, LONG_TERMS, (prepared,), state)

    @pytest.mark.parametrize("total", [complex(8.87e307, -1.59e308), complex(math.inf, 0.0),
                                       complex(math.nan, math.nan)])
    def test_driver_raises_for_a_sum_that_is_not_finite(self, total):
        # finite parts whose modulus overflows are not finite either, though
        # cmath.isfinite says they are
        def summer(count, state):
            return state._replace(n=state.n + count, total=total, stopped=True)

        with pytest.raises(ConvergenceError, match="^name reached a non-finite sum before"):
            series._sum_blocks("name", 64, summer, summer, (), series._FIRST_TERM)

    def test_term_cap_ends_in_an_array_block(self, monkeypatch, array_blocks):
        # |z| > 1: the terms grow slowly, and no tail bound holds
        monkeypatch.setattr(series, "MAX_SERIES_TERMS", 300)
        with pytest.raises(ConvergenceError, match="within MAX_SERIES_TERMS"):
            phi_series([0.4], 1.001, 0.5)
        assert array_blocks == [128, 108]

    def test_phi_series_cloud_is_within_the_oracle_bound(self, monkeypatch, array_blocks):
        rng = np.random.default_rng(97)
        cases = []
        for _ in range(60):
            r = int(rng.integers(0, 4))
            modulus = rng.choice([0.9, 0.97, 0.99, 0.999])
            q = complex(modulus * np.exp(1j * rng.choice([0.0, np.pi, rng.uniform(-np.pi, np.pi)])))
            upper = [complex(*rng.uniform(-0.9, 0.9, 2)) for _ in range(r + 1)]
            lower = [complex(*rng.uniform(-0.9, 0.9, 2)) for _ in range(r)]
            z = complex(*rng.uniform(-0.7, 0.7, 2))
            cases.append((upper, z, q, lower))
        blocked = [outcome(phi_series, *case) for case in cases]
        assert len(array_blocks) > 20
        monkeypatch.setattr(series, "_long_terms", TERM_LOOP)
        looped = [outcome(phi_series, *case) for case in cases]
        for case, array, loop in zip(cases, blocked, looped):
            if "Error" in loop:
                assert array == loop
            else:
                upper, z, q, lower = case
                assert within_oracle_bound(complex(array), upper, z, q, lower), case

    def test_chain_accumulate_is_pythons_product(self):
        # the terms are np.multiply.accumulate over term, r_0, z, r_1, z, ...;
        # numpy's vectorised complex multiply is not Python's, so this pins
        # the sequential one to (t * r) * z
        rng = np.random.default_rng(5)
        for scale in (1.0, 1e-150, 1e150):
            ratios = rng.normal(size=500) + 1j * rng.normal(size=500)
            z = complex(*rng.normal(size=2))
            chain = np.empty(1001, dtype=complex)
            chain[0], chain[1::2], chain[2::2] = scale * (0.3 - 0.7j), ratios, z
            term, expected = scale * (0.3 - 0.7j), []
            for ratio in ratios.tolist():
                term = term * ratio * z
                expected.append(term)
            assert np.multiply.accumulate(chain)[2::2].tolist() == expected

    def test_workload_blocks_go_to_numpy_by_size_alone(self, monkeypatch):
        # after the first block, every block of 64 steps or more goes to the
        # engine's numpy summer, the Jackson ladder's as well as phi_series';
        # on suite that is one block per seed, the qbinomial a=0.2,
        # z=0.7e^{-0.3i}, q=0.6, whose 128 terms from term 64 stop at term 92
        long_blocks = []
        for module, name in ((series, "_term_loop"), (series, "_long_terms"),
                             (integrate, "_rung_block"), (integrate, "_long_block")):
            def spy(*args, summer=getattr(module, name), name=name):
                end = summer(*args)
                count, state = args[-2:]
                if count >= series._LONG_BLOCK and state.n > 0:
                    long_blocks.append((workload, seed, name, count, end.n))
                return end

            monkeypatch.setattr(module, name, spy)
        workloads = load_workloads()
        for workload in ("suite", "stress", "expand"):
            for seed in SEEDS:
                for case in workloads.make_workload(workload, seed):
                    CHECK_RUNNERS[case.check_id](**case.params)
        per_seed = {("suite", "_long_terms"): 1, ("stress", "_long_block"): 18,
                    ("stress", "_long_terms"): 3, ("expand", "_long_terms"): 8}
        assert collections.Counter(block[:3] for block in long_blocks) == {
            (workload, seed, name): count
            for (workload, name), count in per_seed.items() for seed in SEEDS}
        assert [block[3:] for block in long_blocks if block[0] == "suite"] == [(128, 92)] * 3
