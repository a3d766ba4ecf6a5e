"""Polynomial families on [-1, 1] and on the unit circle.

ultraspherical_c evaluates the continuous q-ultraspherical polynomials
C_n(x; beta | q); gasper_c their two-parameter circle extension
C_n^{(alpha,beta)}(e^{i theta}; q); phi_poly the bivariate homogeneous
polynomials that reduce to (q;q)_n gasper_c on the circle; q_hermite and
chebyshev_t the classical specializations.  h_norm is the reciprocal of the
diagonal orthogonality integral and connection_coeffs expands one parameter
value of C_n in another.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .context import QContext, context_for
from .errors import DomainError, PoleError
from .pochhammer import INFINITY, qpoch_finite, qpoch_multi
from .series import gf_expand


class Method(enum.Enum):
    EXPLICIT = "explicit"
    RECURRENCE = "recurrence"
    GENFUNC = "genfunc"


def ultraspherical_c(n: int, x: float, beta, q, method: Method = Method.RECURRENCE,
                     ctx: QContext | None = None):
    """Continuous q-ultraspherical polynomial C_n(x; beta | q), x = cos(theta).

    EXPLICIT sums

        sum_{k=0}^{n} (beta;q)_k (beta;q)_{n-k} / ((q;q)_k (q;q)_{n-k}) cos((n-2k) theta),

    RECURRENCE iterates

        (1 - q^{n+1}) C_{n+1} = 2x (1 - beta q^n) C_n - (1 - beta^2 q^{n-1}) C_{n-1}

    upward from C_0 = 1 and C_1 = 2x (1 - beta)/(1 - q), and GENFUNC reads
    coefficient n of the expansion of

        (beta r e^{i theta}, beta r e^{-i theta}; q)_inf
            / (r e^{i theta}, r e^{-i theta}; q)_inf .

    `x` may be an array for EXPLICIT and RECURRENCE; GENFUNC is scalar only.
    """
    if n < 0:
        raise DomainError("degree must be >= 0")
    if np.any(np.abs(x) > 1.0):
        raise DomainError("x = cos(theta) must lie in [-1, 1]")
    if method is Method.RECURRENCE:
        return ultraspherical_table(n, x, beta, q)[n]
    if method is Method.EXPLICIT:
        theta = np.arccos(x)
        ratios = _poch_over_qfact(beta, q, n)
        acc = 0.0
        for k in range(n + 1):
            acc = acc + ratios[k] * ratios[n - k] * np.cos((n - 2 * k) * theta)
        return acc
    if method is Method.GENFUNC:
        if np.ndim(x) != 0:
            raise DomainError("GENFUNC evaluates one point at a time")
        phase = unit_phase(math.acos(x))
        series = gf_expand([beta * phase, beta / phase], [phase, 1.0 / phase], q, n, ctx)
        return series.coefficient(n)
    raise DomainError(f"unsupported method {method!r}")


def ultraspherical_table(n: int, x, beta, q) -> list:
    """[C_0(x; beta|q), ..., C_n(x; beta|q)] by the upward three-term
    recurrence of ultraspherical_c; `x` may be an array."""
    if n < 0:
        raise DomainError("degree must be >= 0")
    table = [1.0 + 0.0 * x]
    if n == 0:
        return table
    table.append(2.0 * x * (1.0 - beta) / (1.0 - q))
    for m in range(1, n):
        table.append((2.0 * x * (1.0 - beta * q**m) * table[m]
                      - (1.0 - beta * beta * q ** (m - 1)) * table[m - 1])
                     / (1.0 - q ** (m + 1)))
    return table


def _poch_over_qfact(a, q, n):
    """Table of (a;q)_k / (q;q)_k for k = 0..n, built by the term ratio."""
    out = [1.0]
    for k in range(1, n + 1):
        out.append(out[-1] * (1.0 - a * q ** (k - 1)) / (1.0 - q**k))
    return out


def gasper_c(n: int, theta: float, alpha, beta, q, method: Method = Method.EXPLICIT,
             ctx: QContext | None = None):
    """Two-parameter circle polynomial C_n^{(alpha,beta)}(e^{i theta}; q).

    Defined by the generating function

        (alpha t e^{i theta}, beta t e^{-i theta}; q)_inf
            / (t e^{i theta}, t e^{-i theta}; q)_inf
        = sum_n C_n^{(alpha,beta)}(e^{i theta}; q) t^n,

    so alpha rides the positive-frequency factor.  EXPLICIT sums the
    corresponding convolution

        sum_{k=0}^{n} (alpha;q)_k (beta;q)_{n-k} / ((q;q)_k (q;q)_{n-k}) e^{i(2k-n) theta}

    (theta may be an array); GENFUNC reads the coefficient straight from
    gf_expand at a scalar theta.  At alpha = beta this equals
    ultraspherical_c(n, cos(theta), beta, q).
    """
    if n < 0:
        raise DomainError("degree must be >= 0")
    if method is Method.EXPLICIT:
        alpha_ratios = _poch_over_qfact(alpha, q, n)
        beta_ratios = _poch_over_qfact(beta, q, n)
        acc = 0.0
        for k in range(n + 1):
            acc = acc + (alpha_ratios[k] * beta_ratios[n - k]
                         * np.exp(1j * (2 * k - n) * np.asarray(theta)))
        return complex(acc) if np.ndim(theta) == 0 else acc
    if method is Method.GENFUNC:
        if np.ndim(theta) != 0:
            raise DomainError("GENFUNC evaluates one point at a time")
        phase = unit_phase(theta)
        series = gf_expand([alpha * phase, beta / phase], [phase, 1.0 / phase], q, n, ctx)
        return series.coefficient(n)
    raise DomainError(f"unsupported method {method!r} (EXPLICIT or GENFUNC)")


def unit_phase(theta) -> complex:
    """e^{i theta} for real scalar theta."""
    return complex(math.cos(theta), math.sin(theta))


def phi_poly(n: int, alpha, beta, x, y, q, ctx: QContext | None = None):
    """Homogeneous bivariate polynomial

        sum_{k=0}^{n} [n choose k]_q (alpha;q)_k (beta;q)_{n-k} x^k y^{n-k},

    defined for arbitrary complex alpha, beta.  At (x, y) = (e^{i theta},
    e^{-i theta}) it equals (q;q)_n gasper_c(n, theta, alpha, beta, q).
    """
    if n < 0:
        raise DomainError("degree must be >= 0")
    acc = 0.0
    binom = 1.0
    for k in range(n + 1):
        acc = acc + (binom * qpoch_finite(alpha, q, k) * qpoch_finite(beta, q, n - k)
                     * x**k * y ** (n - k))
        binom = binom * (1.0 - q ** (n - k)) / (1.0 - q ** (k + 1))
    return acc


def q_hermite(n: int, x: float, q, ctx: QContext | None = None):
    """Continuous q-Hermite polynomial H_n(x|q) = (q;q)_n C_n(x; 0 | q)."""
    return qpoch_finite(q, q, n) * ultraspherical_c(n, x, 0.0, q, Method.RECURRENCE, ctx)


def chebyshev_t(n: int, x: float):
    """Chebyshev polynomial of the first kind, T_n(cos theta) = cos(n theta)."""
    if n < 0:
        raise DomainError("degree must be >= 0")
    return np.cos(n * np.arccos(x))


def h_norm(n: int, beta, q, ctx: QContext | None = None):
    """Reciprocal of the diagonal orthogonality integral for C_n(.; beta | q):

        h_n(beta|q) = (q, beta^2; q)_inf (q;q)_n (1 - beta q^n)
                      / (2 pi (beta, beta q; q)_inf (beta^2; q)_n (1 - beta))
    """
    if beta == 1:
        raise PoleError("h_norm has a pole at beta = 1")
    c = context_for(q, ctx)
    num = (qpoch_multi([q, beta * beta], q, INFINITY, c)
           * qpoch_finite(q, q, n) * (1.0 - beta * q**n))
    den = (2.0 * math.pi * qpoch_multi([beta, beta * q], q, INFINITY, c)
           * qpoch_finite(beta * beta, q, n) * (1.0 - beta))
    value = num / den
    if isinstance(beta, complex) or isinstance(q, complex):
        return value
    return value.real


def connection_coeffs(n: int, beta, gamma, q, ctx: QContext | None = None):
    """Coefficients c_k, k = 0..floor(n/2), with

        C_n(x; gamma | q) = sum_k c_k C_{n-2k}(x; beta | q),

        c_k = beta^k (gamma/beta; q)_k (gamma; q)_{n-k} (1 - beta q^{n-2k})
              / ((q;q)_k (beta q; q)_{n-k} (1 - beta)).

    The front factor is evaluated as prod_{j<k} (beta - gamma q^j), which is
    the same rational function of beta but stays finite at beta = 0.
    """
    if n < 0:
        raise DomainError("degree must be >= 0")
    if beta == 1:
        raise PoleError("connection_coeffs has a pole at beta = 1")
    coeffs = []
    front = 1.0
    for k in range(n // 2 + 1):
        value = (front * qpoch_finite(gamma, q, n - k) * (1.0 - beta * q ** (n - 2 * k))
                 / (qpoch_finite(q, q, k) * qpoch_finite(beta * q, q, n - k) * (1.0 - beta)))
        coeffs.append(value)
        front = front * (beta - gamma * q**k)
    return coeffs
