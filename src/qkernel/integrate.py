"""Integration engines and circle weight functions.

jackson_q_integral evaluates the discrete bilateral ladder sum that replaces
the Riemann integral in q-calculus; periodic_quadrature is a node-doubling
uniform trapezoid rule, which converges geometrically for the smooth
2 pi periodic integrands the identity checks integrate, until it reaches
the roundoff floor of its sum (Trefethen & Weideman, SIAM Rev. 56, 2014).
Its first call of the integrand takes the first two levels, the 64
starting nodes and their midpoints; each later doubling evaluates only the
new midpoints, and the rule stops at that floor as well as at its
tolerance.  Integrals over [0, pi] of even periodic integrands are taken
as one half of the full-period value, keeping the spectral rate.  The
ladder runs series._sum_blocks, the block driver of phi_series, with its
own summers: a rung loop, and for every block of 64 rungs or more numpy's
own complex arithmetic by the rung loop's stop rule.  The driver raises
its ConvergenceError for a ladder sum that is no longer finite.  Both
engines return a
QuadratureResult: the value with the work it took (nodes or ladder rungs),
its error estimate, the sum of |f| it was formed from and why it stopped.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PoleError
# qpoch_infinite is not called here; bench/tests/test_spans.py reads it from
# this module to check that the tracer puts it back.
from .pochhammer import (_check_finite, _power_column, check_base, qpoch_infinite,  # noqa: F401
                         qpoch_ratio)
from .series import EPS_SERIES, _running_sums, _Sum, _sum_blocks

# Budget of periodic_quadrature: doubling tolerance, node cap, and the
# multiple of the roundoff floor u h sum|f| below which a doubling is noise.
EPS_QUAD = 1e-11
MAX_QUAD_NODES = 2**20
QUAD_NOISE = 32
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class QuadratureResult:
    """A converged integral from either engine.

    periodic_quadrature: nodes_used nodes, the last doubling's difference as
    error_estimate, h sum |f| as magnitude, and stop_reason "tolerance" or
    "roundoff floor".  jackson_q_integral: nodes_used ladder rungs, the
    final tail bounds as error_estimate, the weighted sum of |q^n f| as
    magnitude, and stop_reason "tolerance".
    """

    value: complex
    nodes_used: int
    error_estimate: float
    magnitude: float
    stop_reason: str


def periodic_quadrature(f) -> QuadratureResult:
    """Integrate f over [0, 2 pi] with the uniform trapezoid rule.

    `f` receives a numpy array of angles and must return the matching array
    of (possibly complex) values.  The rule starts at 64 nodes and doubles.
    The first call of `f` holds 128 angles, the 64 nodes 2 pi j / 64 followed
    by their midpoints (j + 1/2) 2 pi / 64, and the levels of 64 and 128
    nodes are summed from the two halves of its values.  Each later doubling
    calls `f` only on the n new midpoints (j + 1/2) 2 pi / n.  Every level is
    added to running sums of f and |f|, so every node is evaluated exactly
    once.  With h = 2 pi / n the value is h sum f, and the rule stops
    once the last doubling moves it by at most

        max(EPS_QUAD * (1 + |value|), QUAD_NOISE * u * h * sum |f|),  u = 2**-53.

    The second term is the roundoff floor of the sum: past it the doublings
    only move the value by noise.  PoleError at the first level whose sum is
    not finite; ConvergenceError if MAX_QUAD_NODES is hit first.
    """
    nodes = 64
    step = 2.0 * np.pi / nodes
    start = np.arange(nodes)
    levels = _level_sums(f, step * np.concatenate((start, start + 0.5)), nodes)
    total, magnitude = levels.pop(0)
    previous = step * total
    difference = threshold = floor = math.inf
    while 2 * nodes <= MAX_QUAD_NODES:
        if not levels:
            levels = _level_sums(f, step * (np.arange(nodes) + 0.5), nodes)
        new_total, new_magnitude = levels.pop()
        total += new_total
        magnitude += new_magnitude
        nodes *= 2
        step = 2.0 * np.pi / nodes
        current = step * total
        difference = abs(current - previous)
        threshold = EPS_QUAD * (1.0 + abs(current))
        floor = QUAD_NOISE * _UNIT_ROUNDOFF * step * magnitude
        if difference <= max(threshold, floor):
            reason = "tolerance" if difference <= threshold else "roundoff floor"
            return QuadratureResult(current, nodes, difference, step * magnitude, reason)
        previous = current
    raise ConvergenceError(
        f"periodic_quadrature hit the node cap of {MAX_QUAD_NODES} before converging: "
        f"last difference {difference:.3e}, tolerance {threshold:.3e}, "
        f"roundoff floor {floor:.3e}")


def _level_sums(f, theta, size) -> list[tuple[complex, float]]:
    """Sums of f and of |f| over each run of `size` consecutive angles of
    theta, in order, from one call of f."""
    # A non-finite value is refused below, once per level.
    with np.errstate(all="ignore"):
        values = np.asarray(f(theta))
    sums = []
    for low in range(0, len(values), size):
        level = values[low:low + size]
        with np.errstate(all="ignore"):
            total = complex(np.sum(level))
        if not cmath.isfinite(total):
            raise PoleError(f"periodic_quadrature integrand is not finite on the "
                            f"{size} nodes of its latest level")
        sums.append((total, float(np.sum(np.abs(level)))))
    return sums


def jackson_q_integral(f, a, b, q) -> QuadratureResult:
    """Jackson q-integral of f from a to b at base q, |q| < 1:

        (1-q) b sum_{n>=0} q^n f(b q^n)  -  (1-q) a sum_{n>=0} q^n f(a q^n).

    `f` receives a numpy array of ladder points and must return the matching
    array of (possibly complex) values, or a scalar, which is broadcast.
    Each call of f receives consecutive rungs endpoint q^n, n = n0, ...,
    n0 + m - 1, in that order, in blocks of m = 8, 16, 32, ... rungs, so an
    integrand may treat a block as one ladder from its first point.  The sum
    then runs rung by rung and stops once the geometric tail bound
    max_recent|f| * |q|^{n+1} / (1 - |q|) drops below EPS_SERIES relative,
    where the max runs over the latest 8 rungs (the ladder accumulates at
    0).  The blocks come from series._sum_blocks, the block driver that
    phi_series runs too: a block of 64 rungs or more, from rung 56 on,
    finds its stop with array operations in numpy's complex arithmetic
    instead, by the same stop rule, so the stop and the sum are those of
    one call per rung up to roundoff; the blocks evaluate at most
    2 (rungs summed) + 6 rungs per ladder.

    The result's nodes_used is the number of rungs the two sums used,
    error_estimate |1-q| (|b| tail_b + |a| tail_a) from their final tail
    bounds, magnitude |1-q| (|b| sum|q^n f(b q^n)| + |a| sum|q^n f(a q^n)|),
    and stop_reason "tolerance".  DomainError for an infinite or NaN
    endpoint; PoleError at the first summed rung where f, or its modulus,
    is not finite; ConvergenceError at the first rung where a ladder sum,
    or its modulus, is not finite, and if f grows too fast along the
    ladder for the bound to be met within series.MAX_SERIES_TERMS.
    """
    check_base(q)
    _check_finite("jackson_q_integral", a, b)
    upper, lower = _ladder_sum(f, b, q), _ladder_sum(f, a, q)
    scale = abs(1.0 - q)
    return QuadratureResult((1.0 - q) * (b * upper.total - a * lower.total), upper.n + lower.n,
                            scale * (abs(b) * upper.tail + abs(a) * lower.tail),
                            scale * (abs(b) * upper.carry + abs(a) * lower.carry), "tolerance")


def _ladder_sum(f, endpoint, q) -> _Sum:
    """The stopped record of sum_n q^n f(endpoint q^n): the rungs summed,
    the sum, the last tail bound and, as its carry, sum_n |q^n f(endpoint q^n)|.
    series._sum_blocks sums blocks of 8, 16, 32, ... rungs by _rung_block,
    one rung at a time, or, every block of 64 rungs or more, by _long_block,
    by the same stop rule in numpy's complex arithmetic; it raises
    ConvergenceError for a sum that is not finite."""
    if endpoint == 0:
        return _Sum(0, 0.0 + 0j, 1.0 + 0j, 0.0, abs(q), 0.0, True)
    return _sum_blocks("Jackson ladder", 8, _rung_block, _long_block,
                       (f, endpoint, q, deque(maxlen=8)),
                       _Sum(0, 0.0 + 0j, 1.0 + 0j, math.inf, abs(q), 0.0, False))


def _rung_block(f, endpoint, q, recent, count: int, state: _Sum) -> _Sum:
    """Rungs n, ..., n + count - 1 of _ladder_sum from its record after
    rung n - 1 and `recent`, the last 8 |f|, which it moves on.  One call
    of f on the block's points, then a Python loop that sums rung by rung
    and stops at the first rung whose tail bound is met or whose sum is
    not finite.  Returns the record after that rung, stopped, or after the
    block if there is none; PoleError at the first value it would sum
    whose modulus is not finite."""
    n, total, qn, tail, abs_q, size, _ = state
    powers = []
    for _ in range(count):
        powers.append(qn)
        qn *= q
    # Non-finite values are refused below, rung by rung, as they are summed.
    with np.errstate(all="ignore"):
        values = f(np.array([endpoint * power for power in powers]))
        values = np.broadcast_to(np.asarray(values, dtype=complex), (count,))
        finite = (np.abs(values) < math.inf).tolist()
    for power, value, ok in zip(powers, values.tolist(), finite):
        if not ok:
            raise PoleError(f"Jackson integrand is not finite at rung {n}")
        term = power * value
        total += term
        size += abs(term)
        recent.append(abs(value))
        n += 1
        tail = max(recent) * abs(power * q) / (1.0 - abs_q)
        # hypot, not abs(), which overflows; _sum_blocks raises for it
        if (not math.hypot(total.real, total.imag) < math.inf
                or n >= 8 and tail <= EPS_SERIES * (1.0 + abs(total))):
            return _Sum(n, total, power * q, tail, abs_q, size, True)
    return _Sum(n, total, qn, tail, abs_q, size, False)


def _long_block(f, endpoint, q, recent, count: int, state: _Sum) -> _Sum:
    """_rung_block in numpy's own complex arithmetic: the same call of f,
    stop rule and PoleError, so that it stops at the rung the loop stops
    at, with sums within roundoff of the loop's.  The blocks of 64 rungs
    or more come after the first 56 rungs, so `recent` holds 8 values.
    The terms of finite values are not NaN, so the first sum that is not
    finite has an infinite modulus, which meets the stop rule: the block
    ends there, as the loop's does.

    q^n is pochhammer._power_column, the loop's sequential product; the
    points and the terms are numpy complex products and every modulus is
    np.abs.  The running sums and their moduli are series._running_sums,
    which phi_series' array blocks use too.
    """
    n, total, qn, _, abs_q, size, _ = state
    powers = _power_column(qn, q, count)  # q^n, ..., q^(n + count)
    # Non-finite values are refused below, at the first one before the stop.
    with np.errstate(all="ignore"):
        values = np.broadcast_to(np.asarray(f(endpoint * powers[:-1]), dtype=complex), (count,))
        terms = powers[:-1] * values
        # running sums seeded with the carried ones: entry i + 1 is after rung n + i
        sums, sum_moduli = _running_sums(total, terms)
        sizes = np.add.accumulate(np.concatenate(([size], np.abs(terms))))
        moduli = np.abs(values)
        # max |f| over the 8 rungs up to each rung, in three doublings of the window
        window = np.concatenate((list(recent), moduli))
        for width in (1, 2, 4):
            window = np.maximum(window[width:], window[:-width])
        tails = window[1:] * np.abs(powers[1:]) / (1.0 - abs_q)
        met = tails <= EPS_SERIES * (1.0 + sum_moduli[1:])
        bad = np.flatnonzero(~(moduli < math.inf))
    stops = np.flatnonzero(met[:bad[0]] if bad.size else met)
    if not stops.size and bad.size:
        raise PoleError(f"Jackson integrand is not finite at rung {n + int(bad[0])}")
    i = int(stops[0]) if stops.size else count - 1
    recent.extend(moduli[:i + 1][-8:].tolist())
    return _Sum(n + i + 1, complex(sums[i + 1]), complex(powers[i + 1]), float(tails[i]), abs_q,
                float(sizes[i + 1]), bool(stops.size))


def weight_omega_beta(theta: float, beta, q):
    """One-parameter circle weight

        (e^{2i theta}, e^{-2i theta}; q)_inf / (beta e^{2i theta}, beta e^{-2i theta}; q)_inf,

    real and nonnegative on the circle for real beta, |beta| < 1.  `theta`
    may be an array.
    """
    return weight_omega_ab(theta, beta, beta, q)


def weight_omega_ab(theta: float, alpha, beta, q):
    """Two-parameter (generally complex) circle weight

        (e^{2i theta}, e^{-2i theta}; q)_inf / (alpha e^{2i theta}, beta e^{-2i theta}; q)_inf.

    For real q, qpoch_ratio shares the numerator's conjugate pair, and the
    denominator's when beta = conj alpha.  Where the denominator vanishes,
    a scalar theta raises PoleError and an array gives inf or nan.
    """
    plus = np.exp(2j * np.asarray(theta))
    minus = plus.conjugate()  # bit for bit np.exp(-2j * theta)
    value = qpoch_ratio([plus, minus], [alpha * plus, beta * minus], q)
    return complex(value) if np.ndim(theta) == 0 else value
