"""Jackson ladder sums, the doubling trapezoid rule, and the circle weights."""

import cmath
import math
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkernel import (ConvergenceError, DomainError, PoleError, QuadratureResult,
                     jackson_q_integral, periodic_quadrature, qpoch_infinite,
                     ultraspherical_c, weight_omega_ab, weight_omega_beta)
from qkernel import integrate, series, verify
from qkernel.integrate import EPS_QUAD, EPS_SERIES, MAX_QUAD_NODES, QUAD_NOISE
from qkernel.series import MAX_SERIES_TERMS
from qkernel.verify import CHECK_RUNNERS, default_suite_config


def rung_by_rung(f, endpoint, q):
    """sum_n q^n f(endpoint q^n) one scalar call per rung, with the ladder's
    stopping rule; returns the sum, the number of rungs summed, the last tail
    bound and sum_n |q^n f(endpoint q^n)|."""
    total = 0j
    size = 0.0
    qn = 1.0 + 0j
    recent = deque(maxlen=8)
    for n in range(MAX_SERIES_TERMS):
        value = complex(f(endpoint * qn))
        total += qn * value
        size += abs(qn * value)
        recent.append(abs(value))
        qn *= q
        tail = max(recent) * abs(qn) / (1 - abs(q))
        if n >= 7 and tail <= EPS_SERIES * (1 + abs(total)):
            return total, n + 1, tail, size
    raise AssertionError("reference ladder did not stop")


U = 2.0**-53


def ladder_sums(record) -> tuple:
    """(sum, rungs, tail bound, sum of moduli) of a ladder's record."""
    return record.total, record.n, record.tail, record.carry


def sums_agree(got, want) -> bool:
    """Whether two (sum, rungs, tail bound, sum of moduli) of one ladder
    stop at the same rung with the same sums up to roundoff: each sum of
    N terms is a recursive sum, within (N - 1) u sum|t_n| (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 4.2), and each term
    and the tail bound carry a few roundings more, so two such sums lie
    within 2 (N + 8) u sum|t_n| of each other."""
    total, rungs, tail, size = got
    want_total, want_rungs, want_tail, want_size = want
    summed = 2 * (rungs + 8) * U * want_size
    return (rungs == want_rungs and abs(total - want_total) <= summed
            and abs(size - want_size) <= summed and abs(tail - want_tail) <= 8 * U * want_tail)


def plain_trapezoid(f, n):
    theta = 2 * np.pi * np.arange(n) / n
    return 2 * np.pi / n * complex(np.sum(f(theta)))


def doubling_without_floor(f):
    """The doubling rule with no roundoff-floor exit and no reuse of levels:
    a fresh trapezoid sum at 64, 128, ... nodes until a doubling moves the
    value by at most EPS_QUAD * (1 + |value|); returns the value and the node
    count."""
    nodes = 64
    previous = plain_trapezoid(f, nodes)
    while 2 * nodes <= MAX_QUAD_NODES:
        nodes *= 2
        current = plain_trapezoid(f, nodes)
        if abs(current - previous) <= EPS_QUAD * (1 + abs(current)):
            return current, nodes
        previous = current
    raise AssertionError("reference doubling did not stop")


def one_level_per_call(f):
    """The doubling rule with one call of f per level: f on the 64 nodes,
    then on the new midpoints of each doubling, with the same running sums,
    stop rule and PoleError message as periodic_quadrature."""
    def level_sums(theta):
        with np.errstate(all="ignore"):
            values = np.asarray(f(theta))
            total = complex(np.sum(values))
        if not cmath.isfinite(total):
            raise PoleError(f"periodic_quadrature integrand is not finite on the "
                            f"{len(theta)} nodes of its latest level")
        return total, float(np.sum(np.abs(values)))

    nodes = 64
    step = 2.0 * np.pi / nodes
    total, magnitude = level_sums(step * np.arange(nodes))
    previous = step * total
    while 2 * nodes <= MAX_QUAD_NODES:
        new_total, new_magnitude = level_sums(step * (np.arange(nodes) + 0.5))
        total += new_total
        magnitude += new_magnitude
        nodes *= 2
        step = 2.0 * np.pi / nodes
        current = step * total
        difference = abs(current - previous)
        threshold = EPS_QUAD * (1.0 + abs(current))
        floor = QUAD_NOISE * 2.0**-53 * step * magnitude
        if difference <= max(threshold, floor):
            reason = "tolerance" if difference <= threshold else "roundoff floor"
            return QuadratureResult(current, nodes, difference, step * magnitude, reason)
        previous = current
    raise AssertionError("reference doubling did not stop")


def trigonometric_polynomial(seed, degree, wave):
    """sum_{|k| <= degree} c_k e^{i k theta} with random complex c_k of size
    about 1/(1 + |k|), plus `wave` cos(theta), term by term elementwise."""
    rng = np.random.default_rng(seed)
    coeffs = ((rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1))
              / (1.0 + np.abs(np.arange(-degree, degree + 1))))

    def f(theta):
        values = wave * np.cos(theta) + 0j
        for k, c in zip(range(-degree, degree + 1), coeffs):
            values = values + c * np.exp(1j * k * theta)
        return values

    return f


class TestJackson:
    def test_constant_integrand_from_zero(self):
        # b (1-q) sum q^n = b
        got = jackson_q_integral(lambda z: 1.0, 0.0, 0.7, 0.4).value
        assert got == pytest.approx(0.7, rel=1e-13)

    def test_linear_integrand_from_zero(self):
        # (1-q) sum q^{2n} = 1/(1+q)
        q, b = 0.35, 0.8
        got = jackson_q_integral(lambda z: z, 0.0, b, q).value
        assert got == pytest.approx(b * b / (1 + q), rel=1e-13)

    def test_additivity_in_the_endpoints(self):
        rng = np.random.default_rng(61)
        q = 0.45
        coeffs = rng.standard_normal(4)

        def f(z):
            return coeffs[0] + z * (coeffs[1] + z * (coeffs[2] + z * coeffs[3]))

        for _ in range(5):
            a = complex(*rng.uniform(-0.9, 0.9, 2))
            b = complex(*rng.uniform(-0.9, 0.9, 2))
            whole = jackson_q_integral(f, a, b, q).value
            split = (jackson_q_integral(f, 0.0, b, q).value
                     - jackson_q_integral(f, 0.0, a, q).value)
            assert whole == pytest.approx(split, rel=1e-12, abs=1e-12)

    def test_polynomial_closed_form(self):
        # termwise: integral of z^j from a to b is (b^{j+1}-a^{j+1})(1-q)/(1-q^{j+1})
        rng = np.random.default_rng(67)
        q = 0.3
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
            assert jackson_q_integral(f, a, b, q).value == pytest.approx(expected, rel=1e-12)

    def test_growing_integrand_raises(self, monkeypatch):
        # the cap of the block driver, which phi_series shares
        monkeypatch.setattr("qkernel.series.MAX_SERIES_TERMS", 500)
        with pytest.raises(ConvergenceError, match="within MAX_SERIES_TERMS"):
            jackson_q_integral(lambda z: 1.0 / (z * z), 0.0, 1.0, 0.5)

    # from |q| = 0.9 on, the stops lie far into blocks of 64 rungs or more
    @pytest.mark.parametrize("q", [0.3, -0.6, 0.9, 0.97, 0.95, 0.99,
                                   pytest.param(cmath.rect(0.95, 0.2), id="0.95e^0.2i"),
                                   pytest.param(cmath.rect(0.95, 2.5), id="0.95e^2.5i")])
    def test_blocks_stop_and_sum_as_rung_by_rung(self, monkeypatch, q):
        # the blocked ladder must stop at the rung-by-rung sum's rung and
        # give its sums up to roundoff, whether a block is summed rung by
        # rung or with array operations
        long_blocks = []

        def spied(f, endpoint, q, recent, count, state):
            long_blocks.append(count)
            return long_block(f, endpoint, q, recent, count, state)

        long_block = integrate._long_block
        monkeypatch.setattr(integrate, "_long_block", spied)
        # a cubic, and z^-0.8, whose terms fall slowly, so that every rung
        # moves the sums; each in Python's complex arithmetic at every point
        for point_value in (lambda z: 0.3 + z * (-1.2 + z * (0.7 + z * 2.1)),
                            lambda z: complex(z) ** -0.8):
            for a, b in ((-0.6, 0.9), (-0.6, 0.5 + 0.7j)):
                blocks = []
                long_blocks.clear()

                def counted(z):
                    blocks.append(len(z))
                    return np.array([point_value(point) for point in z.tolist()])

                result = jackson_q_integral(counted, a, b, q)
                upper, upper_rungs, upper_tail, upper_size = rung_by_rung(point_value, b, q)
                lower, lower_rungs, lower_tail, lower_size = rung_by_rung(point_value, a, q)
                assert result.nodes_used == upper_rungs + lower_rungs
                # the two sums of |t_n| within 2 (N + 8) u sum|t_n| of the
                # reference's, and (1 - q) (b upper - a lower) a few roundings more
                summed = 2 * (result.nodes_used + 16) * U * result.magnitude
                assert abs(result.value - (1.0 - q) * (b * upper - a * lower)) <= summed
                estimate = abs(1.0 - q) * (abs(b) * upper_tail + abs(a) * lower_tail)
                assert abs(result.error_estimate - estimate) <= 8 * U * estimate
                magnitude = abs(1.0 - q) * (abs(b) * upper_size + abs(a) * lower_size)
                assert abs(result.magnitude - magnitude) <= summed
                assert result.stop_reason == "tolerance"
                assert blocks[:3] == [8, 16, 32]
                assert all(m >= 64 for m in long_blocks)
                assert long_blocks or abs(q) < 0.9
                # each of the two ladders evaluates at most 2 (rungs summed) + 6 rungs
                assert sum(blocks) <= 2 * result.nodes_used + 12
                # each ladder on its own, and the points, which are the
                # products endpoint * q^n up to two roundings
                for endpoint, want in ((b, (upper, upper_rungs, upper_tail, upper_size)),
                                       (a, (lower, lower_rungs, lower_tail, lower_size))):
                    points = []

                    def recorded(z):
                        points.extend(z.tolist())
                        return counted(z)

                    assert sums_agree(ladder_sums(integrate._ladder_sum(recorded, endpoint, q)),
                                      want)
                    qn = 1.0 + 0j
                    for point in points:
                        assert abs(point - endpoint * qn) <= 5 * U * abs(endpoint * qn)
                        qn *= q

    def test_long_block_sums_as_the_rung_loop(self):
        # from the state after the first 56 rungs, the array summer and the
        # rung loop give the same stop and power, the same sums and tail
        # bound up to roundoff, and leave the same window of |f| up to a
        # rounding, on every block of 64 rungs or more up to the stop,
        # wherever in its block the stop falls
        stops = []
        for q in [*np.linspace(0.55, 0.9, 36).tolist(), -0.8, cmath.rect(0.8, 1.0)]:
            for f in (lambda z: z, lambda z: (0.3 - 1.2j * z) / (1.0 + 0.5 * z * z)):
                state = series._Sum(0, 0j, 1.0 + 0j, math.inf, abs(q), 0.0, False)
                recent = deque(maxlen=8)
                for count in (8, 16, 32, 64, 128, 256):
                    if count < 64:
                        got = integrate._rung_block(f, 0.9, q, recent, count, state)
                    else:
                        window = deque(recent, maxlen=8)
                        got = integrate._long_block(f, 0.9, q, window, count, state)
                        want = integrate._rung_block(f, 0.9, q, recent, count, state)
                        assert got.stopped == want.stopped and got.qn == want.qn
                        assert sums_agree(ladder_sums(got), ladder_sums(want))
                        assert np.allclose(window, recent, rtol=2 * U, atol=0)
                    if got.stopped:
                        if count >= 64:
                            stops.append(got.n - state.n)
                        break
                    state = got
        # stops at the first rungs of a block read the window carried into it
        assert min(stops) == 1 and max(stops) > 64

    @pytest.mark.parametrize("q,rungs,long_blocks", [(0.6, 63, [64]), (0.75, 112, [64])])
    def test_every_long_block_goes_to_numpy(self, monkeypatch, q, rungs, long_blocks):
        # the constant ladder stops 7 rungs into the 64-rung block from rung 56
        # at q=0.6 and 56 rungs in at q=0.75: the block's size alone sends
        # it to numpy, however near its stop
        spied = []

        def spy(f, endpoint, q, recent, count, state):
            spied.append(count)
            return long_block(f, endpoint, q, recent, count, state)

        long_block = integrate._long_block
        monkeypatch.setattr(integrate, "_long_block", spy)
        assert jackson_q_integral(lambda z: 1.0, 0.0, 1.0, q).nodes_used == rungs
        assert spied == long_blocks

    def test_blocks_are_consecutive_rungs(self):
        # the contract a ladder integrand may rely on: blocks of 8, 16, 32,
        # ... rungs, each starting one step of q below the last
        q, endpoint = 0.9, 0.7
        blocks = []

        def recorded(z):
            blocks.append(z.copy())
            return 1.0 / (1.0 + z)

        jackson_q_integral(recorded, 0.0, endpoint, q)
        assert [len(block) for block in blocks] == [8 * 2**k for k in range(len(blocks))]
        assert len(blocks) >= 4
        assert blocks[0][0] == endpoint
        rungs = np.concatenate(blocks)
        steps = rungs[1:] / rungs[:-1]
        assert np.all(np.abs(steps - q) <= 1e-15)

    def test_rungs_past_the_stop_are_not_summed(self):
        # the constant ladder stops after 46 rungs at q=0.5, in the 32-rung
        # block that ends at rung 55, and after 306 at q=0.9, in the 256-rung
        # block that ends at rung 503; this integrand is nan from rung
        # `rungs` on, in the same block
        for q, rungs in ((0.5, 46), (0.9, 306)):

            def f(z):
                return np.where(np.abs(z) < q ** (rungs - 0.5), np.nan, 1.0)

            result = jackson_q_integral(f, 0.0, 1.0, q)
            assert result.nodes_used == rungs
            assert result.value == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rung_before_a_long_block_stop_is_a_pole(self, bad):
        # as above at q=0.9, but not finite from rung 300 on, six rungs before
        # the stop; an infinite sum must not read as a met tail bound

        def f(z):
            return np.where(np.abs(z) < 0.9 ** 299.5, bad, 1.0)

        with pytest.raises(PoleError, match="rung 300$"):
            jackson_q_integral(f, 0.0, 1.0, 0.9)

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan, complex(0.5, math.inf)])
    def test_non_finite_endpoint_is_refused(self, bound):
        # an infinite endpoint gave nan+nanj with stop_reason "tolerance"
        for a, b in ((0.0, bound), (bound, 0.5)):
            with pytest.raises(DomainError, match="finite"):
                jackson_q_integral(lambda z: 1.0, a, b, 0.5)

    def test_value_whose_modulus_overflows_is_a_pole(self):
        # finite parts, modulus past the largest double: abs() of the rung
        # loop raised a bare OverflowError
        with pytest.raises(PoleError, match="rung 0$"):
            jackson_q_integral(lambda z: 1.3e308 * (1 + 1j), 0.0, 1.0, 0.5)

    def test_value_whose_modulus_overflows_before_a_long_block_stop_is_a_pole(self):
        # the constant ladder at q=0.9 stops after 306 rungs inside the
        # 256-rung block from rung 248, which numpy sums; from rung 300 the
        # integrand's modulus is past the largest double

        def f(z):
            return np.where(np.abs(z) < 0.9 ** 299.5, 1.3e308 * (1 + 1j), 1.0)

        with pytest.raises(PoleError, match="rung 300$"):
            jackson_q_integral(f, 0.0, 1.0, 0.9)

    @pytest.mark.parametrize("value", [1e308, 0.7e308 * (1 + 1j), 2.15e307 * (1 + 1j)])
    def test_sum_that_overflows_is_a_convergence_error(self, value):
        # every value is finite, but the sum overflows: at rung 1 (the
        # second in its modulus alone), where the first two gave nan+nanj
        # with stop_reason "tolerance", and in its modulus alone at rung 8,
        # where the stop test first runs and the third raised a bare
        # OverflowError from abs()
        with pytest.raises(ConvergenceError, match="^Jackson ladder reached a non-finite sum"):
            jackson_q_integral(lambda z: value, 0.0, 1.0, 0.9)

    @pytest.mark.parametrize("value", [1.8e307, 1.2728e307 * (1 + 1j)])
    def test_sum_that_overflows_in_a_long_block_is_a_convergence_error(self, monkeypatch,
                                                                      value):
        # the first 56 rungs sum to 0.9973 of 10 |value|, below the largest
        # double, and the numpy block from rung 56 takes the sum past it
        long_blocks = []

        def spy(f, endpoint, q, recent, count, state):
            long_blocks.append(count)
            return long_block(f, endpoint, q, recent, count, state)

        long_block = integrate._long_block
        monkeypatch.setattr(integrate, "_long_block", spy)
        with pytest.raises(ConvergenceError, match="^Jackson ladder reached a non-finite sum"):
            jackson_q_integral(lambda z: value, 0.0, 1.0, 0.9)
        assert long_blocks == [64]

    def test_non_finite_integrand_is_a_pole(self):
        with pytest.raises(PoleError, match="rung 0"):
            jackson_q_integral(lambda z: 1.0 / (1.0 - z), 0.0, 1.0, 0.5)
        with pytest.raises(PoleError, match="rung 2"):
            jackson_q_integral(lambda z: 1.0 / (z - 0.25), 0.0, 1.0, 0.5)


class TestPeriodicQuadrature:
    def test_constant(self):
        result = periodic_quadrature(lambda theta: np.ones_like(theta))
        assert result.value == pytest.approx(2 * math.pi, rel=1e-15)

    def test_pure_oscillation_integrates_to_zero(self):
        result = periodic_quadrature(lambda theta: np.exp(3j * theta))
        assert abs(result.value) < 1e-13

    def test_bare_weight_value(self):
        # integral of omega_0 over the full period is 4 pi / (q;q)_inf
        q = 0.3
        result = periodic_quadrature(lambda theta: weight_omega_beta(theta, 0.0, q))
        expected = 4 * math.pi / qpoch_infinite(q, q).real
        assert abs(result.value - expected) <= 1e-10 * expected

    def test_error_estimate_invariant(self):
        result = periodic_quadrature(lambda theta: weight_omega_beta(theta, 0.5, 0.3))
        assert result.error_estimate <= EPS_QUAD * (1 + abs(result.value))
        assert result.nodes_used >= 128
        assert result.stop_reason == "tolerance"
        # a nonnegative integrand: h sum |f| is the value itself
        assert result.magnitude == pytest.approx(abs(result.value), rel=1e-14)

    def test_spectral_doubling(self):
        # doubling 128 -> 256 moves the orthogonality integrand below 1e-12
        beta, q = 0.5, 0.3

        def integrand(theta):
            c3 = ultraspherical_c(3, np.cos(theta), beta, q)
            return c3 * c3 * weight_omega_beta(theta, beta, q)

        t128 = plain_trapezoid(integrand, 128)
        t256 = plain_trapezoid(integrand, 256)
        assert abs(t256 - t128) < 1e-12 * (1 + abs(t256))

    def test_half_period_of_even_integrand(self):
        # full-period trapezoid equals twice the endpoint-weighted half rule
        beta, q = 0.5, 0.3

        def integrand(theta):
            c2 = ultraspherical_c(2, np.cos(theta), beta, q)
            return c2 * c2 * weight_omega_beta(theta, beta, q)

        n = 512
        full = plain_trapezoid(integrand, n)
        half_nodes = np.linspace(0.0, np.pi, n // 2 + 1)
        values = integrand(half_nodes)
        half = (np.pi / (n // 2)) * (values[0] / 2 + values[1:-1].sum() + values[-1] / 2)
        assert abs(full - 2 * half) <= 1e-12 * (1 + abs(full))

    def test_node_cap_raises(self, monkeypatch):
        monkeypatch.setattr("qkernel.integrate.MAX_QUAD_NODES", 128)

        def kinked(theta):
            return np.abs(np.sin(theta / 2))

        with pytest.raises(ConvergenceError, match=(
                r"node cap of 128 before converging: last difference \S+, "
                r"tolerance \S+, roundoff floor \S+")):
            periodic_quadrature(kinked)

    @pytest.mark.parametrize("integrand", [
        lambda theta: 1.0 / np.sin(theta),            # inf at theta = 0
        lambda theta: np.sin(theta) / np.sin(theta),  # nan at theta = 0
    ], ids=["inf", "nan"])
    def test_non_finite_level_is_a_pole(self, integrand):
        # the first level holds theta = 0: a PoleError there, with numpy's
        # division warning silenced, instead of doubling to the node cap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoleError, match="not finite on the 64 nodes"):
                periodic_quadrature(integrand)

    def test_each_node_is_evaluated_once(self):
        # the first call holds the 128 angles of levels 64 and 128 (the 64
        # nodes, then their midpoints), every further doubling evaluates only
        # its new midpoints; together the calls cover the final grid
        # 2 pi j / n exactly once
        calls = []

        def integrand(theta):
            calls.append(theta.copy())
            return weight_omega_beta(theta, 0.5, 0.3)

        result = periodic_quadrature(integrand)
        first = calls[0] * 64 / (2 * np.pi)
        assert len(first) == 128
        assert np.max(np.abs(first - np.concatenate((np.arange(64), np.arange(64) + 0.5)))) <= 1e-9
        assert [len(theta) for theta in calls[1:]] == [64 * 2**k for k in range(1, len(calls))]
        assert result.nodes_used == 64 * 2 ** len(calls)
        theta = np.concatenate(calls)
        assert len(theta) == result.nodes_used
        grid = np.sort(theta) * result.nodes_used / (2 * np.pi)
        assert np.array_equal(np.rint(grid), np.arange(result.nodes_used))
        assert np.max(np.abs(grid - np.rint(grid))) <= 1e-9

    def test_roundoff_floor_stops_a_cancelling_sum(self, monkeypatch):
        # 1e8 cos(theta) integrates to 0, but every trapezoid sum keeps a
        # roundoff residue of about 1e-9, above EPS_QUAD * (1 + |value|); the
        # floor QUAD_NOISE u h sum|f| is about 1.4e-6
        def wave(theta):
            return 1e8 * np.cos(theta)

        result = periodic_quadrature(wave)
        assert result.nodes_used == 128
        assert abs(result.value) <= 1e-7
        assert result.stop_reason == "roundoff floor"
        assert result.magnitude == pytest.approx(4e8, rel=1e-3)
        monkeypatch.setattr("qkernel.integrate.QUAD_NOISE", 0)
        with pytest.raises(ConvergenceError, match="roundoff floor 0.000e"):
            periodic_quadrature(wave)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), degree=st.integers(0, 300),
           wave=st.sampled_from([0.0, 1e8]),
           poison=st.sampled_from([None, (0, math.nan), (0, math.inf), (1, math.nan),
                                   (1, -math.inf)]),
           index=st.integers(0, 63))
    @example(seed=1, degree=3, wave=1e8, poison=None, index=0)
    @example(seed=2, degree=300, wave=0.0, poison=None, index=0)
    def test_two_levels_in_one_call_match_one_level_per_call(self, seed, degree, wave,
                                                             poison, index):
        # the same sums of the same values, so every field bit for bit; a
        # non-finite value in level 0 (node j) or level 1 (midpoint j + 1/2)
        # raises the same PoleError
        f = trigonometric_polynomial(seed, degree, wave)
        if poison is not None:
            level, bad = poison
            target = 2.0 * np.pi / 64 * (index + 0.5 * level)

            def integrand(theta):
                return np.where(theta == target, bad, f(theta))
        else:
            integrand = f
        try:
            want = one_level_per_call(integrand)
        except PoleError as error:
            assert poison is not None
            with pytest.raises(PoleError) as got:
                periodic_quadrature(integrand)
            assert str(got.value) == str(error)
            assert "not finite on the 64 nodes" in str(error)
            return
        assert poison is None
        got = periodic_quadrature(integrand)
        assert repr(got.value) == repr(want.value)
        assert got.nodes_used == want.nodes_used
        assert repr(got.error_estimate) == repr(want.error_estimate)
        assert repr(got.magnitude) == repr(want.magnitude)
        assert got.stop_reason == want.stop_reason

    # the quadrature-backed checks of the default suite
    @pytest.mark.parametrize("check_id", ["askey-ismail", "thm-1.1", "thm-1.2",
                                          "thm-1.3", "thm-1.4"])
    def test_never_stops_later_than_without_the_floor(self, monkeypatch, check_id):
        stops = []
        quadrature = verify.periodic_quadrature

        def both(f):
            result = quadrature(f)
            stops.append((*doubling_without_floor(f), result))
            return result

        monkeypatch.setattr(verify, "periodic_quadrature", both)
        for entry in default_suite_config()[check_id]:
            assert CHECK_RUNNERS[check_id](**entry).passed
        assert stops
        for value, nodes, result in stops:
            assert nodes >= result.nodes_used
            # the same nodes summed in another order: at most 8.5e-16 measured
            if nodes == result.nodes_used:
                assert abs(value - result.value) <= 1e-14 * (1 + abs(value))


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
        got = weight_omega_beta(math.pi / 2, 0.0, q)
        direct = qpoch_infinite(-1.0, q) ** 2
        assert got == pytest.approx(direct, rel=1e-13)

    def test_two_parameter_swap_conjugation(self):
        # omega^{(a,b)}(-t) = omega^{(b,a)}(t)
        for theta in (0.4, 1.3, 2.2):
            left = weight_omega_ab(-theta, 0.4, -0.3, 0.35)
            right = weight_omega_ab(theta, -0.3, 0.4, 0.35)
            assert abs(left - right) <= 1e-13 * (1 + abs(right))

    @pytest.mark.parametrize("q", [0.3, 0.9, 0.95, -0.4, 0.5 + 0.2j])
    def test_conjugate_pairs_are_the_four_products_bit_for_bit(self, q):
        # real q: (conj a; q)_inf is conj (a; q)_inf bit for bit, so sharing
        # a product changes no weight; complex q takes the four products
        def four_products(theta, alpha, beta):
            plus, minus = np.exp(2j * theta), np.exp(-2j * theta)
            return (qpoch_infinite(plus, q) * qpoch_infinite(minus, q)
                    / (qpoch_infinite(alpha * plus, q) * qpoch_infinite(beta * minus, q)))

        n = 4096
        grid = 2 * np.pi * np.arange(2 * n) / (2 * n)
        for alpha, beta in [(0.6, 0.6), (0.4, -0.3), (0.3 + 0.2j, 0.3 - 0.2j), (0.2j, 0.1)]:
            want = four_products(grid, alpha, beta)
            assert np.array_equal(weight_omega_ab(grid, alpha, beta, q), want)
            for theta in grid[::257]:
                assert weight_omega_ab(theta, alpha, beta, q) == complex(
                    four_products(theta, alpha, beta))
        assert np.array_equal(weight_omega_beta(grid, 0.6, q), four_products(grid, 0.6, 0.6))
        assert weight_omega_beta(0.0, 0.6, q) == 0

    def test_no_angles_give_an_empty_weight(self):
        for q in (0.3, 0.95):
            assert weight_omega_beta(np.array([]), 0.5, q).shape == (0,)
            assert weight_omega_ab(np.zeros((0, 2)), 0.4, -0.3, q).shape == (0, 2)

    def test_equal_parameters_match_single_weight(self):
        theta = np.linspace(0.1, 3.0, 5)
        assert np.allclose(weight_omega_ab(theta, 0.5, 0.5, 0.3),
                           weight_omega_beta(theta, 0.5, 0.3), rtol=1e-14)

