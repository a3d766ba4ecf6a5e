"""Integration engines and circle weight functions.

jackson_q_integral evaluates the discrete bilateral ladder sum that replaces
the Riemann integral in q-calculus; periodic_quadrature is a node-doubling
uniform trapezoid rule, which converges geometrically for the smooth
2 pi periodic integrands the identity checks integrate.  Integrals over
[0, pi] of even periodic integrands are taken as one half of the full-period
value, keeping the spectral rate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .context import QContext, context_for
from .errors import ConvergenceError, PoleError
from .pochhammer import qpoch_infinite


@dataclass(frozen=True)
class QuadratureResult:
    """Converged quadrature value with its last-doubling error estimate."""

    value: complex
    nodes_used: int
    error_estimate: float


def periodic_quadrature(f, ctx: QContext) -> QuadratureResult:
    """Integrate f over [0, 2 pi] with the uniform trapezoid rule.

    `f` receives a numpy array of angles and must return the matching array
    of (possibly complex) values.  The node count doubles from 64 until the
    last doubling moves the value by at most eps_quad * (1 + |value|);
    ConvergenceError if max_quad_nodes is hit first.
    """
    nodes = 64
    previous = _trapezoid(f, nodes)
    while 2 * nodes <= ctx.max_quad_nodes:
        nodes *= 2
        current = _trapezoid(f, nodes)
        difference = abs(current - previous)
        if difference <= ctx.eps_quad * (1.0 + abs(current)):
            return QuadratureResult(current, nodes, difference)
        previous = current
    raise ConvergenceError("periodic_quadrature hit the node cap before converging")


def _trapezoid(f, n: int) -> complex:
    theta = (2.0 * np.pi / n) * np.arange(n)
    return (2.0 * np.pi / n) * complex(np.sum(np.asarray(f(theta))))


def jackson_q_integral(f, a, b, ctx: QContext) -> complex:
    """Jackson q-integral of f from a to b at base q = ctx.q:

        (1-q) b sum_{n>=0} q^n f(b q^n)  -  (1-q) a sum_{n>=0} q^n f(a q^n).

    `f` receives a numpy array of ladder points and must return the matching
    array of (possibly complex) values, or a scalar, which is broadcast.
    Each ladder is evaluated in blocks of 8, 16, 32, ... rungs.  The sum then
    runs rung by rung and stops once the geometric tail bound
    max_recent|f| * |q|^{n+1} / (1 - |q|) drops below eps_series relative,
    where the max runs over the latest rungs (the ladder accumulates at 0).
    The stop and the sum are those of one call per rung; the blocks evaluate
    at most 2 (rungs summed) + 6 rungs per ladder.  The complex returned
    carries the number of rungs the two sums used as its `rungs` attribute.
    PoleError at the first summed rung where f is not finite;
    ConvergenceError if f grows too fast along the ladder for the bound to
    be met within max_series_terms.
    """
    q = ctx.q
    upper, upper_rungs = _ladder_sum(f, b, ctx)
    lower, lower_rungs = _ladder_sum(f, a, ctx)
    return _LadderValue((1.0 - q) * (b * upper - a * lower), upper_rungs + lower_rungs)


class _LadderValue(complex):
    """A Jackson integral with the number of ladder rungs it summed."""

    __slots__ = ("rungs",)

    def __new__(cls, value, rungs: int):
        self = super().__new__(cls, value)
        self.rungs = rungs
        return self


def _ladder_sum(f, endpoint, ctx: QContext) -> tuple[complex, int]:
    if endpoint == 0:
        return 0.0 + 0j, 0
    q = ctx.q
    abs_q = abs(q)
    total = 0.0 + 0j
    qn = 1.0 + 0j
    recent = deque(maxlen=8)
    n = 0
    block = 8
    while n < ctx.max_series_terms:
        powers = []
        for _ in range(min(block, ctx.max_series_terms - n)):
            powers.append(qn)
            qn *= q
        # Non-finite values are refused below, rung by rung, as they are summed.
        with np.errstate(all="ignore"):
            values = f(np.array([endpoint * power for power in powers]))
        values = np.broadcast_to(np.asarray(values, dtype=complex), (len(powers),))
        finite = np.isfinite(values).tolist()
        for power, value, ok in zip(powers, values.tolist(), finite):
            if not ok:
                raise PoleError(f"Jackson integrand is not finite at rung {n}")
            total += power * value
            recent.append(abs(value))
            n += 1
            tail = max(recent) * abs(power * q) / (1.0 - abs_q)
            if n >= 8 and tail <= ctx.eps_series * (1.0 + abs(total)):
                return total, n
        block *= 2
    raise ConvergenceError("Jackson ladder sum did not meet its tail bound")


def weight_omega_beta(theta: float, beta, q, ctx: QContext | None = None):
    """One-parameter circle weight

        (e^{2i theta}, e^{-2i theta}; q)_inf / (beta e^{2i theta}, beta e^{-2i theta}; q)_inf,

    real and nonnegative on the circle for real beta, |beta| < 1.  `theta`
    may be an array.
    """
    return weight_omega_ab(theta, beta, beta, q, ctx)


def weight_omega_ab(theta: float, alpha, beta, q, ctx: QContext | None = None):
    """Two-parameter (generally complex) circle weight

        (e^{2i theta}, e^{-2i theta}; q)_inf / (alpha e^{2i theta}, beta e^{-2i theta}; q)_inf.
    """
    c = context_for(q, ctx)
    plus = np.exp(2j * np.asarray(theta))
    minus = np.exp(-2j * np.asarray(theta))
    value = (qpoch_infinite(plus, c) * qpoch_infinite(minus, c)
             / (qpoch_infinite(alpha * plus, c) * qpoch_infinite(beta * minus, c)))
    return complex(value) if np.ndim(theta) == 0 else value
