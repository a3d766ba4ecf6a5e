"""Polynomial families on [-1, 1] and on the unit circle.

ultraspherical_table evaluates the continuous q-ultraspherical polynomials
C_n(x; beta | q) and gasper_c their two-parameter circle extension
C_n^{(alpha,beta)}(e^{i theta}; q), both by the q-difference recurrence of
their generating functions that gf_expand runs too; phi_poly the bivariate
homogeneous polynomials, whose explicit sum on the circle, (q;q)_n gasper_c,
is the independent route; q_hermite and chebyshev_t special cases.
h_norm is 2 / N_n(beta, beta), N_n the circle norm of thm-1.3, and
connection_coeffs expands one parameter value of C_n in another, as row n
of tables that serve every lower degree too.  phi_poly and the connection
tables read their finite products (a;q)_k from one qpoch_finite_table per
parameter, and a caller that needs C_0, ..., C_n at the same points reads
them from one ultraspherical_table.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PoleError
from .pochhammer import (_POLE_SNAP, _check_finite, _q_products, qpoch_finite,
                         qpoch_finite_table, qpoch_ratio)
from .series import _qdifference_coeffs


def ultraspherical_c(n: int, x: float, beta, q):
    """Continuous q-ultraspherical polynomial C_n(x; beta | q), x = cos(theta),
    read from ultraspherical_table; `x` may be an array.  A NaN or infinite
    beta or q is a DomainError.
    """
    if not np.all(np.abs(x) <= 1.0):  # NaN too
        raise DomainError("x = cos(theta) must lie in [-1, 1]")
    _check_finite("ultraspherical_c", beta, q)
    return ultraspherical_table(n, x, beta, q)[n]


def ultraspherical_table(n: int, x, beta, q) -> list:
    """[C_0(x; beta|q), ..., C_n(x; beta|q)], `x` a scalar or an array, from
    C_0 = 1 (shaped like x) by the q-difference recurrence of the generating
    function (beta t e^{i theta}, beta t e^{-i theta}; q)_inf / (t e^{i theta},
    t e^{-i theta}; q)_inf, x = cos(theta), which gasper_c and gf_expand run
    too: (1 - q^n) C_n = 2x (1 - beta q^{n-1}) C_{n-1} - (1 - beta^2 q^{n-2}) C_{n-2}."""
    table = _qdifference_coeffs([-2.0 * beta * x, beta * beta], [-2.0 * x, 1.0], q, n)
    table[0] = 1.0 + 0.0 * x
    return table


def _denominator(q, k: int):
    """1 - q^k for a scalar q; DomainError where q^k = 1 makes it 0."""
    denominator = 1.0 - q**k
    if denominator == 0:
        raise DomainError(f"q**{k} = 1 makes the denominator 1 - q**{k} zero")
    return denominator


def gasper_c(n: int, theta: float, alpha, beta, q):
    """Two-parameter circle polynomial C_n^{(alpha,beta)}(e^{i theta}; q).

    Defined by the generating function

        (alpha t e^{i theta}, beta t e^{-i theta}; q)_inf
            / (t e^{i theta}, t e^{-i theta}; q)_inf
        = sum_n C_n^{(alpha,beta)}(e^{i theta}; q) t^n,

    so alpha rides the positive-frequency factor, and evaluated by that
    ratio's q-difference recurrence (series._qdifference_coeffs, which
    gf_expand runs too), here

        (1 - q^n) C_n = (2 cos theta - (alpha e^{i theta} + beta e^{-i theta}) q^{n-1}) C_{n-1}
                        - (1 - alpha beta q^{n-2}) C_{n-2}

    from C_0 = 1 (theta may be an array).  At alpha = beta it is
    ultraspherical_table's recurrence in complex arithmetic; phi_poly on the
    circle over (q;q)_n is the explicit sum.  A NaN or infinite alpha, beta,
    q or theta is a DomainError.
    """
    _check_finite("gasper_c", alpha, beta, q, theta)
    phase = np.exp(1j * np.asarray(theta))
    value = _qdifference_coeffs([-(alpha * phase + beta * np.conj(phase)), alpha * beta],
                                [-2.0 * phase.real, 1.0], q, n)[n]
    return complex(value) if np.ndim(theta) == 0 else np.full_like(phase, value)


def phi_poly(n: int, alpha, beta, x, y, q):
    """Homogeneous bivariate polynomial

        sum_{k=0}^{n} [n choose k]_q (alpha;q)_k (beta;q)_{n-k} x^k y^{n-k},

    defined for arbitrary complex alpha, beta.  At (x, y) = (e^{i theta},
    e^{-i theta}) it equals (q;q)_n gasper_c(n, theta, alpha, beta, q).
    A NaN or infinite parameter, x or y is a DomainError, and so is a q
    whose (q;q)_n is not finite.
    """
    if n < 0:
        raise DomainError("degree must be >= 0")
    _check_finite("phi_poly", x, y)
    alpha_products = qpoch_finite_table(alpha, q, n)
    beta_products = qpoch_finite_table(beta, q, n)
    _q_products("phi_poly", q, n)
    acc = 0.0
    binom = 1.0
    for k in range(n + 1):
        if k:
            binom = binom * (1.0 - q ** (n - k + 1)) / _denominator(q, k)
        acc = acc + (binom * alpha_products[k] * beta_products[n - k]
                     * x**k * y ** (n - k))
    return acc


def q_hermite(n: int, x: float, q):
    """Continuous q-Hermite polynomial H_n(x|q) = (q;q)_n C_n(x; 0 | q)."""
    return qpoch_finite(q, q, n) * ultraspherical_c(n, x, 0.0, q)


def chebyshev_t(n: int, x: float):
    """Chebyshev polynomial of the first kind, T_n(cos theta) = cos(n theta)."""
    if n < 0:
        raise DomainError("degree must be >= 0")
    if not np.all(np.abs(x) <= 1.0):  # NaN too
        raise DomainError("x = cos(theta) must lie in [-1, 1]")
    return np.cos(n * np.arccos(x))


def _circle_prefactor(alpha, beta, q):
    """2 pi (alpha, beta; q)_inf / (q, alpha beta; q)_inf, shared by thm-1.3
    and thm-1.4; PoleError where (alpha beta; q)_inf vanishes (qpoch_ratio)."""
    return 2.0 * math.pi * qpoch_ratio([alpha, beta], [q, alpha * beta], q)


def _circle_norm(n: int, alpha, beta, q):
    """N_n(alpha, beta), thm-1.3's norm: _circle_prefactor times
    (1/(1 - alpha q^n) + 1/(1 - beta q^n)) (alpha beta;q)_n / (q;q)_n;
    PoleError where (alpha beta; q)_inf vanishes, and where 1 - w, w = alpha q^n
    or beta q^n, is within pochhammer._POLE_SNAP (1 + |w|) of zero."""
    alpha_qn, beta_qn = alpha * q**n, beta * q**n
    if any(abs(1.0 - w) <= _POLE_SNAP * (1.0 + abs(w)) for w in (alpha_qn, beta_qn)):
        raise PoleError(f"the circle norm needs 1 - alpha q^{n} != 0 and 1 - beta q^{n} != 0")
    bracket = 1.0 / (1.0 - alpha_qn) + 1.0 / (1.0 - beta_qn)
    return (_circle_prefactor(alpha, beta, q) * bracket
            * qpoch_finite(alpha * beta, q, n) / qpoch_finite(q, q, n))


def h_norm(n: int, beta, q):
    """h_n(beta|q) = 2 / N_n(beta, beta): C_n(cos t; beta|q) is C_n^{(beta,beta)}(e^{it}; q)
    and its orthogonality integral on [0, pi] is half of the circle's.
    PoleError where N_n(beta, beta) vanishes or has a pole (beta = 1)."""
    if n < 0:
        raise DomainError("degree must be >= 0")
    norm = _circle_norm(n, beta, beta, q)
    if norm == 0:
        raise PoleError("h_norm needs N_n(beta, beta) != 0")
    value = 2.0 / norm
    return value if isinstance(beta, complex) or isinstance(q, complex) else value.real


def connection_coeffs(n: int, beta, gamma, q):
    """Coefficients c_k, k = 0..floor(n/2), with

        C_n(x; gamma | q) = sum_k c_k C_{n-2k}(x; beta | q),

        c_k = beta^k (gamma/beta; q)_k (gamma; q)_{n-k} (1 - beta q^{n-2k})
              / ((q;q)_k (beta q; q)_{n-k} (1 - beta)).

    The front factor is evaluated as prod_{j<k} (beta - gamma q^j), which is
    the same rational function of beta but stays finite at beta = 0.  A
    vanishing denominator raises PoleError, and a q whose (q;q)_n is not
    finite DomainError.
    """
    if n < 0:
        raise DomainError("degree must be >= 0")
    return _connection_row(n, beta, gamma, q, _connection_tables(n, beta, gamma, q))


def _connection_tables(n: int, beta, gamma, q) -> tuple:
    """The tables of every row up to n: beta^k (gamma/beta;q)_k as prod_{j<k}
    (beta - gamma q^j) for k <= n/2, and (gamma;q)_k, (q;q)_k, (beta q;q)_k for k <= n."""
    products = (qpoch_finite_table(gamma, q, n), _q_products("connection_coeffs", q, n),
                qpoch_finite_table(beta * q, q, n))
    fronts = [1.0]  # after _q_products has refused a q whose powers overflow
    for k in range(n // 2):
        fronts.append(fronts[-1] * (beta - gamma * q**k))
    return (fronts, *products)


def _connection_row(n: int, beta, gamma, q, tables) -> list:
    """c_0, ..., c_{floor(n/2)} of C_n(x; gamma|q) in the C_{n-2k}(x; beta|q)
    (connection_coeffs), from _connection_tables at degree n or higher."""
    fronts, gamma_products, q_products, beta_q_products = tables
    coeffs = []
    for k in range(n // 2 + 1):
        denominator = q_products[k] * beta_q_products[n - k] * (1.0 - beta)
        if denominator == 0:
            raise PoleError(f"connection_coeffs needs (q;q)_{k} (beta;q)_{n - k + 1} != 0")
        coeffs.append(fronts[k] * gamma_products[n - k] * (1.0 - beta * q ** (n - 2 * k))
                      / denominator)
    return coeffs
