"""Identity checks: evaluate both sides of every integral, orthogonality and
summation identity and report the discrepancy.

Check catalog (the ids the CLI accepts):

  thm-1.1            orthogonality of C_n(x; beta|q) on [0, pi] against 1/h_n
  thm-1.2            mixed-parameter integral of C_m(.; gamma) C_n(.; beta)
  thm-1.3            orthogonality of the two-parameter circle functions on [0, 2 pi]
  thm-1.4            five-parameter q-beta integral against its series form
  prop-3.1           Al-Salam--Verma q-integral product evaluation
  prop-3.2           q-integral representation of the homogeneous polynomials
  rogers-connection  change-of-parameter expansion of C_n
  askey-ismail       integral of C_n against a Chebyshev polynomial
  gf-4.1             shifted generating function, coefficientwise
  prop-4.2           double-sum re-expansion of the generating function
  uniform-bound      |C_n^{(a,b)}(e^{i theta})| <= C_n^{(a,b)}(1)
  qbinomial          1phi0(a; -; q, z) = (az;q)_inf / (z;q)_inf
  rogers-6phi5       6W5 summation, series against product

Every check returns a VerificationReport.  Left-hand sides come from the
quadrature / ladder-sum / series engines, right-hand sides from closed forms,
and rel_err = |lhs - rhs| / (1 + max(|lhs|, |rhs|)).

Each runner hands a body to one scaffold, _check, which times it and
resolves the default tolerance.  The body returns (lhs, rhs, nodes_used);
when lhs and rhs are matching arrays (grid points, coefficients) the report
carries the entry with the largest rel_err.  Any QKernelError the body
raises, argument validation included, yields a failed report with infinite
errors instead of raising, so a suite always runs to completion.

For inequality checks (uniform-bound) lhs is the clamped worst violation and
rhs is zero, which keeps the pass <=> rel_err <= tol convention.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .context import QContext, context_for
from .errors import ConvergenceError, DomainError, PoleError, QKernelError
from .integrate import (jackson_q_integral, periodic_quadrature,
                        weight_omega_ab, weight_omega_beta)
from .pochhammer import INFINITY, qbinom, qpoch_finite, qpoch_infinite, qpoch_multi
from .polynomials import (chebyshev_t, connection_coeffs, gasper_c, h_norm,
                          phi_poly, ultraspherical_c, ultraspherical_table)
from .series import HypergeometricSpec, gf_expand, phi_series, rogers_6w5_rhs, w_series

# Baseline tolerance profile: quadrature-backed checks settle near the
# trapezoid noise floor, pure series/product checks near double precision.
# The mixed-parameter and five-parameter integrals get one extra decade.
_QUAD_TOL = 1e-9
_SERIES_TOL = 1e-11

DEFAULT_TOLERANCES = {
    "thm-1.1": _QUAD_TOL,
    "thm-1.2": 1e-8,
    "thm-1.3": _QUAD_TOL,
    "thm-1.4": 1e-8,
    "prop-3.1": _QUAD_TOL,
    "prop-3.2": _QUAD_TOL,
    "rogers-connection": 1e-10,
    "askey-ismail": 1e-8,
    "gf-4.1": _QUAD_TOL,
    "prop-4.2": _QUAD_TOL,
    "uniform-bound": 1e-12,
    "qbinomial": _SERIES_TOL,
    "rogers-6phi5": _SERIES_TOL,
}


def default_tolerance(check_id: str) -> float:
    """Default relative tolerance for a check; QKERNEL_TOL overrides all."""
    env = os.environ.get("QKERNEL_TOL")
    if env is not None and env != "":
        return float(env)
    return DEFAULT_TOLERANCES[check_id]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check."""

    check_id: str
    params: dict
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tol: float
    nodes_used: int
    passed: bool
    runtime_ms: float


def _check(check_id, params, tol, body) -> VerificationReport:
    """Run one check: `body()` returns (lhs, rhs, nodes_used).

    Matching lhs and rhs arrays report their entry with the largest rel_err.
    A QKernelError raised by `body` becomes a failed report.
    """
    started = time.perf_counter()
    tol = default_tolerance(check_id) if tol is None else tol
    try:
        lhs, rhs, nodes = body()
    except QKernelError:
        return _failed(check_id, params, tol, started)
    if np.ndim(lhs) != 0:
        worst = int(np.argmax(np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))))
        lhs, rhs = lhs[worst], rhs[worst]
    lhs = complex(lhs)
    rhs = complex(rhs)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / (1.0 + max(abs(lhs), abs(rhs)))
    return VerificationReport(
        check_id=check_id, params=dict(params), lhs=lhs, rhs=rhs,
        abs_err=abs_err, rel_err=rel_err, tol=tol, nodes_used=int(nodes),
        passed=rel_err <= tol, runtime_ms=(time.perf_counter() - started) * 1e3,
    )


def _failed(check_id, params, tol, started) -> VerificationReport:
    return VerificationReport(
        check_id=check_id, params=dict(params), lhs=0j, rhs=0j,
        abs_err=math.inf, rel_err=math.inf, tol=tol, nodes_used=0,
        passed=False, runtime_ms=(time.perf_counter() - started) * 1e3,
    )


def verify_thm_1_1(m: int, n: int, beta, q, ctx: QContext | None = None,
                   tol: float | None = None) -> VerificationReport:
    """Orthogonality on [0, pi]:

        int_0^pi C_m(cos t; beta|q) C_n(cos t; beta|q) omega_beta(cos t|q) dt
        = delta_{mn} / h_n(beta|q).

    The integrand is even and 2 pi periodic, so the left side is computed as
    half of the full-period trapezoid value.
    """
    def body():
        c = context_for(q, ctx)

        def integrand(theta):
            x = np.cos(theta)
            return (ultraspherical_c(m, x, beta, q) * ultraspherical_c(n, x, beta, q)
                    * weight_omega_beta(theta, beta, q, c))

        quad = periodic_quadrature(integrand, c)
        lhs = quad.value / 2.0
        rhs = 1.0 / h_norm(n, beta, q, c) if m == n else 0.0
        return lhs, rhs, quad.nodes_used

    return _check("thm-1.1", {"m": m, "n": n, "beta": beta, "q": q}, tol, body)


def verify_thm_1_2(m: int, n: int, beta, gamma, q, ctx: QContext | None = None,
                   tol: float | None = None) -> VerificationReport:
    """Mixed-parameter integral on [0, pi]:

        int_0^pi C_m(cos t; gamma|q) C_n(cos t; beta|q) omega_beta(cos t|q) dt

    equals, for m >= n with m = n (mod 2) and j = (m-n)/2,

        (1 - beta q^n) beta^j (gamma/beta;q)_j (gamma;q)_{(m+n)/2}
        / ((1 - beta) h_n(beta|q) (q;q)_j (q beta;q)_{(m+n)/2})

    and zero otherwise.  The m < n even-gap closed form carries the factor
    1/(q;q)_{-j}, which vanishes under the negative-index convention, so the
    right side is taken as zero there (the degree argument gives the same).
    """
    def body():
        if beta == 0:
            raise DomainError("thm-1.2 closed form needs beta != 0")
        c = context_for(q, ctx)

        def integrand(theta):
            x = np.cos(theta)
            return (ultraspherical_c(m, x, gamma, q) * ultraspherical_c(n, x, beta, q)
                    * weight_omega_beta(theta, beta, q, c))

        quad = periodic_quadrature(integrand, c)
        if (m - n) % 2 != 0 or m < n:
            rhs = 0.0
        else:
            j = (m - n) // 2
            half_sum = (m + n) // 2
            rhs = ((1.0 - beta * q**n) * beta**j * qpoch_finite(gamma / beta, q, j)
                   * qpoch_finite(gamma, q, half_sum)
                   / ((1.0 - beta) * h_norm(n, beta, q, c) * qpoch_finite(q, q, j)
                      * qpoch_finite(q * beta, q, half_sum)))
        return quad.value / 2.0, rhs, quad.nodes_used

    return _check("thm-1.2", {"m": m, "n": n, "beta": beta, "gamma": gamma, "q": q},
                  tol, body)


def verify_thm_1_3(m: int, n: int, alpha, beta, q, ctx: QContext | None = None,
                   tol: float | None = None) -> VerificationReport:
    """Orthogonality of the two-parameter circle functions:

        int_0^{2 pi} C_m^{(a,b)}(e^{it};q) C_n^{(a,b)}(e^{it};q) omega^{(a,b)}(cos t|q) dt
        = 2 pi (a, b; q)_inf / (q, ab; q)_inf
          (1/(1 - a q^n) + 1/(1 - b q^n)) (ab;q)_n / (q;q)_n  delta_{mn}.

    Both polynomial factors are taken at e^{i t} (not one conjugated); the
    full complex integral is compared, so an imaginary residue counts as
    error.
    """
    def body():
        c = context_for(q, ctx)

        def integrand(theta):
            return (gasper_c(m, theta, alpha, beta, q) * gasper_c(n, theta, alpha, beta, q)
                    * weight_omega_ab(theta, alpha, beta, q, c))

        quad = periodic_quadrature(integrand, c)
        rhs = _thm_1_3_diagonal(n, alpha, beta, q, c) if m == n else 0.0
        return quad.value, rhs, quad.nodes_used

    return _check("thm-1.3", {"m": m, "n": n, "alpha": alpha, "beta": beta, "q": q},
                  tol, body)


def _thm_1_3_diagonal(n, alpha, beta, q, ctx):
    prefactor = (2.0 * math.pi * qpoch_multi([alpha, beta], q, INFINITY, ctx)
                 / qpoch_multi([q, alpha * beta], q, INFINITY, ctx))
    bracket = 1.0 / (1.0 - alpha * q**n) + 1.0 / (1.0 - beta * q**n)
    return (prefactor * bracket
            * qpoch_finite(alpha * beta, q, n) / qpoch_finite(q, q, n))


def verify_thm_1_4(alpha, beta, s, t, q, ctx: QContext | None = None,
                   tol: float | None = None) -> VerificationReport:
    """Five-parameter q-beta integral:

        int_0^{2 pi} (a t e^{iu}, b t e^{-iu}, a s e^{iu}, b s e^{-iu},
                      e^{2iu}, e^{-2iu}; q)_inf
                   / (t e^{iu}, t e^{-iu}, s e^{iu}, s e^{-iu},
                      a e^{2iu}, b e^{-2iu}; q)_inf  du
        = 2 pi (a, b; q)_inf / (q, ab; q)_inf
          sum_n (1/(1 - a q^n) + 1/(1 - b q^n)) (ab;q)_n / (q;q)_n (st)^n.

    The series is truncated under an a priori geometric tail bound; the final
    bound is recorded in params["series_tail_bound"].
    """
    params = {"alpha": alpha, "beta": beta, "s": s, "t": t, "q": q}

    def body():
        if max(abs(alpha), abs(beta), abs(s), abs(t)) >= 1.0:
            raise DomainError("thm-1.4 needs all of |alpha|, |beta|, |s|, |t| < 1")
        c = context_for(q, ctx)

        def integrand(theta):
            plus = np.exp(1j * theta)
            minus = np.exp(-1j * theta)
            plus2 = plus * plus
            minus2 = minus * minus
            num = (qpoch_infinite(alpha * t * plus, c) * qpoch_infinite(beta * t * minus, c)
                   * qpoch_infinite(alpha * s * plus, c) * qpoch_infinite(beta * s * minus, c)
                   * qpoch_infinite(plus2, c) * qpoch_infinite(minus2, c))
            den = (qpoch_infinite(t * plus, c) * qpoch_infinite(t * minus, c)
                   * qpoch_infinite(s * plus, c) * qpoch_infinite(s * minus, c)
                   * qpoch_infinite(alpha * plus2, c) * qpoch_infinite(beta * minus2, c))
            return num / den

        quad = periodic_quadrature(integrand, c)
        series_sum, tail_bound = _beta_integral_series(alpha, beta, s * t, q, c)
        rhs = (2.0 * math.pi * qpoch_multi([alpha, beta], q, INFINITY, c)
               / qpoch_multi([q, alpha * beta], q, INFINITY, c)) * series_sum
        params["series_tail_bound"] = tail_bound
        return quad.value, rhs, quad.nodes_used

    return _check("thm-1.4", params, tol, body)


def _beta_integral_series(alpha, beta, w, q, ctx):
    """sum_n (1/(1-alpha q^n) + 1/(1-beta q^n)) (alpha beta;q)_n/(q;q)_n w^n
    with a certified tail: the bracket is bounded by B = 1/(1-|alpha|) +
    1/(1-|beta|), the Pochhammer ratio by P = (-|ab|;|q|)_inf/(|q|;|q|)_inf,
    so the tail after N terms is at most B P |w|^{N+1}/(1-|w|)."""
    abs_w = abs(w)
    if abs_w >= 1.0:
        raise ConvergenceError("series argument |s t| must be below 1")
    mag = context_for(abs(q), ctx)
    bracket_bound = 1.0 / (1.0 - abs(alpha)) + 1.0 / (1.0 - abs(beta))
    ratio_bound = abs(qpoch_infinite(-abs(alpha * beta), mag) / qpoch_infinite(abs(q), mag))
    total = 0.0 + 0j
    poch_ratio = 1.0 + 0j
    wn = 1.0 + 0j
    qn = 1.0 + 0j
    for n in range(ctx.max_series_terms):
        total += (1.0 / (1.0 - alpha * qn) + 1.0 / (1.0 - beta * qn)) * poch_ratio * wn
        poch_ratio *= (1.0 - alpha * beta * qn) / (1.0 - q * qn)
        qn *= q
        wn *= w
        tail = bracket_bound * ratio_bound * abs_w ** (n + 1) / (1.0 - abs_w) if abs_w > 0 else 0.0
        if tail <= ctx.eps_series * (1.0 + abs(total)):
            return total, tail
    raise ConvergenceError("q-beta series did not meet its tail bound")


def verify_prop_3_1(a, b, c, x, y, q, ctx: QContext | None = None,
                    tol: float | None = None) -> VerificationReport:
    """Al-Salam--Verma evaluation of a Jackson q-integral:

        int_x^y (qz/x, qz/y, abcz; q)_inf / (az/y, bz/x, cz; q)_inf d_q z
        = (1-q) y (q, x/y, qy/x, ab, acx, bcy; q)_inf
          / (ax/y, by/x, a, b, cx, cy; q)_inf.
    """
    def body():
        if x == 0 or y == 0:
            raise DomainError("prop-3.1 needs nonzero endpoints")
        if max(abs(a), abs(b), abs(c * x), abs(c * y), abs(a * x / y), abs(b * y / x)) >= 1.0:
            raise DomainError("prop-3.1 parameter moduli out of range")
        cx = context_for(q, ctx)

        def integrand(z):
            return (qpoch_infinite(q * z / x, cx) * qpoch_infinite(q * z / y, cx)
                    * qpoch_infinite(a * b * c * z, cx)
                    / (qpoch_infinite(a * z / y, cx) * qpoch_infinite(b * z / x, cx)
                       * qpoch_infinite(c * z, cx)))

        lhs = jackson_q_integral(integrand, x, y, cx)
        rhs = ((1.0 - q) * y
               * qpoch_multi([q, x / y, q * y / x, a * b, a * c * x, b * c * y], q, INFINITY, cx)
               / qpoch_multi([a * x / y, b * y / x, a, b, c * x, c * y], q, INFINITY, cx))
        return complex(lhs), rhs, lhs.rungs

    return _check("prop-3.1", {"a": a, "b": b, "c": c, "x": x, "y": y, "q": q}, tol, body)


def verify_prop_3_2(n: int, a, b, x, y, q, ctx: QContext | None = None,
                    tol: float | None = None) -> VerificationReport:
    """Jackson q-integral representation of the homogeneous polynomials:

        Phi_n^{(a,b)}(x, y|q) = (ab;q)_n (a, b, by/x, ax/y; q)_inf
                                / ((1-q) y (q, ab, x/y, qy/x; q)_inf)
                                int_x^y (qz/x, qz/y; q)_inf z^n
                                        / (bz/x, az/y; q)_inf d_q z.
    """
    def body():
        if x == 0 or y == 0 or x == y:
            raise DomainError("prop-3.2 needs distinct nonzero endpoints")
        cx = context_for(q, ctx)

        def integrand(z):
            return (qpoch_infinite(q * z / x, cx) * qpoch_infinite(q * z / y, cx) * z**n
                    / (qpoch_infinite(b * z / x, cx) * qpoch_infinite(a * z / y, cx)))

        integral = jackson_q_integral(integrand, x, y, cx)
        prefactor = (qpoch_finite(a * b, q, n)
                     * qpoch_multi([a, b, b * y / x, a * x / y], q, INFINITY, cx)
                     / ((1.0 - q) * y
                        * qpoch_multi([q, a * b, x / y, q * y / x], q, INFINITY, cx)))
        lhs = phi_poly(n, a, b, x, y, q, cx)
        rhs = prefactor * complex(integral)
        return lhs, rhs, integral.rungs

    return _check("prop-3.2", {"n": n, "a": a, "b": b, "x": x, "y": y, "q": q}, tol, body)


def verify_rogers_connection(n: int, beta, gamma, q, theta_grid: int | None = None,
                             ctx: QContext | None = None,
                             tol: float | None = None) -> VerificationReport:
    """Pointwise reconstruction C_n(x; gamma) = sum_k c_k C_{n-2k}(x; beta)
    with the connection coefficients, on a theta grid; the report carries the
    worst grid point."""
    if theta_grid is None:
        theta_grid = 16
    if np.ndim(theta_grid) == 0:
        grid = (np.arange(int(theta_grid)) + 0.5) * math.pi / int(theta_grid)
    else:
        grid = np.asarray(theta_grid, dtype=float)

    def body():
        if len(grid) == 0:
            raise DomainError("rogers-connection needs at least one grid point")
        c = context_for(q, ctx)
        x = np.cos(grid)
        coeffs = connection_coeffs(n, beta, gamma, q, c)
        lhs_values = ultraspherical_c(n, x, gamma, q) + 0j
        rhs_values = np.zeros_like(lhs_values)
        for k, ck in enumerate(coeffs):
            rhs_values = rhs_values + ck * ultraspherical_c(n - 2 * k, x, beta, q)
        return lhs_values, rhs_values, len(grid)

    return _check("rogers-connection",
                  {"n": n, "beta": beta, "gamma": gamma, "q": q, "grid_size": len(grid)},
                  tol, body)


def verify_askey_ismail_chebyshev(n: int, k: int, beta, q, ctx: QContext | None = None,
                                  tol: float | None = None) -> VerificationReport:
    """Integral of C_n against a Chebyshev polynomial, k >= 1:

        int_0^pi C_n(cos t; beta|q) T_{n+2k}(cos t) omega_beta(cos t|q) dt
        = pi [n+k choose k]_q (1 - q^{n+2k})/(1 - q^{n+k})
          (beta, beta q^{n+k+1}; q)_inf / (q, beta^2 q^n; q)_inf
          beta^k (1/beta; q)_k.

    The trailing factor is evaluated as prod_{j<k} (beta - q^j), defined for
    every nonzero beta (and continuously at beta = 0).
    """
    def body():
        if k < 1:
            raise DomainError("askey-ismail needs k >= 1")
        c = context_for(q, ctx)

        def integrand(theta):
            x = np.cos(theta)
            return (ultraspherical_c(n, x, beta, q) * chebyshev_t(n + 2 * k, x)
                    * weight_omega_beta(theta, beta, q, c))

        quad = periodic_quadrature(integrand, c)
        front = 1.0
        for j in range(k):
            front *= (beta - q**j)
        rhs = (math.pi * qbinom(n + k, k, q)
               * (1.0 - q ** (n + 2 * k)) / (1.0 - q ** (n + k))
               * qpoch_multi([beta, beta * q ** (n + k + 1)], q, INFINITY, c)
               / qpoch_multi([q, beta * beta * q**n], q, INFINITY, c)
               * front)
        return quad.value / 2.0, rhs, quad.nodes_used

    return _check("askey-ismail", {"n": n, "k": k, "beta": beta, "q": q}, tol, body)


def verify_gf_4_1(beta, q, theta: float, degree: int = 16, ctx: QContext | None = None,
                  tol: float | None = None) -> VerificationReport:
    """Shifted generating function, coefficientwise in t up to `degree`:

        sum_n (1 - beta q^n) C_n(cos u; beta|q) t^n
        = (beta t q e^{iu}, beta t q e^{-iu}; q)_inf
          / (t e^{iu}, t e^{-iu}; q)_inf  (1 - beta)(1 - beta t^2).

    The report carries the worst coefficient.
    """
    def body():
        c = context_for(q, ctx)
        x = math.cos(theta)
        table = ultraspherical_table(degree, x, beta, q)
        lhs_coeffs = np.array([(1.0 - beta * q**n) * table[n] for n in range(degree + 1)],
                              dtype=complex)
        phase = complex(math.cos(theta), math.sin(theta))
        expansion = gf_expand([beta * q * phase, beta * q / phase],
                              [phase, 1.0 / phase], q, degree, c)
        g = np.asarray(expansion.coeffs)
        rhs_coeffs = np.empty(degree + 1, dtype=complex)
        for p in range(degree + 1):
            rhs_coeffs[p] = (1.0 - beta) * (g[p] - (beta * g[p - 2] if p >= 2 else 0.0))
        return lhs_coeffs, rhs_coeffs, degree + 1

    return _check("gf-4.1", {"beta": beta, "q": q, "theta": theta, "degree": degree},
                  tol, body)


def verify_prop_4_2(beta, gamma, q, theta: float, degree: int = 12, ctx: QContext | None = None,
                    tol: float | None = None) -> VerificationReport:
    """Double-sum re-expansion, coefficientwise in t up to `degree`:

        sum_n C_n(cos u; gamma|q) t^n
        = sum_{j,m} (1 - beta q^m) (gamma/beta;q)_j (gamma;q)_{j+m} beta^j
                    / ((q;q)_j (beta;q)_{m+j+1})
          C_m(cos u; beta|q) t^{m+2j}.
    """
    def body():
        if beta == 0:
            raise DomainError("prop-4.2 needs beta != 0")
        context_for(q, ctx)  # validates q
        x = math.cos(theta)
        gamma_table = ultraspherical_table(degree, x, gamma, q)
        beta_table = ultraspherical_table(degree, x, beta, q)
        lhs_coeffs = np.asarray(gamma_table, dtype=complex)
        rhs_coeffs = np.zeros(degree + 1, dtype=complex)
        for p in range(degree + 1):
            acc = 0.0
            front = 1.0
            for j in range(p // 2 + 1):
                m = p - 2 * j
                denominator = qpoch_finite(q, q, j) * qpoch_finite(beta, q, m + j + 1)
                if denominator == 0:
                    raise PoleError(f"prop-4.2 needs (beta;q)_{m + j + 1} != 0")
                acc = acc + ((1.0 - beta * q**m) * front * qpoch_finite(gamma, q, j + m)
                             / denominator * beta_table[m])
                front = front * (beta - gamma * q**j)
            rhs_coeffs[p] = acc
        return lhs_coeffs, rhs_coeffs, degree + 1

    return _check("prop-4.2",
                  {"beta": beta, "gamma": gamma, "q": q, "theta": theta, "degree": degree},
                  tol, body)


def verify_uniform_bound(n: int, alpha, beta, q, grid_size: int = 64,
                         ctx: QContext | None = None,
                         tol: float | None = None) -> VerificationReport:
    """|C_n^{(a,b)}(e^{i t}; q)| <= C_n^{(a,b)}(1; q) for real parameters in
    (-1, 1), checked on a uniform theta grid.  lhs is the clamped worst
    violation, rhs is zero."""
    def body():
        if grid_size < 1:
            raise DomainError("uniform-bound needs grid_size >= 1")
        grid = 2.0 * math.pi * np.arange(grid_size) / grid_size
        values = np.abs(gasper_c(n, grid, alpha, beta, q))
        bound = complex(gasper_c(n, 0.0, alpha, beta, q)).real
        violation = max(0.0, float(np.max(values)) - bound)
        return violation, 0.0, grid_size

    return _check("uniform-bound",
                  {"n": n, "alpha": alpha, "beta": beta, "q": q, "grid_size": grid_size},
                  tol, body)


def verify_qbinomial(a, z, q, ctx: QContext | None = None,
                     tol: float | None = None) -> VerificationReport:
    """q-binomial theorem: 1phi0(a; -; q, z) = (az;q)_inf / (z;q)_inf for |z| < 1."""
    def body():
        c = context_for(q, ctx)
        lhs = phi_series(HypergeometricSpec((a,), (), z), q, c)
        rhs = qpoch_infinite(a * z, c) / qpoch_infinite(z, c)
        return lhs, rhs, 0

    return _check("qbinomial", {"a": a, "z": z, "q": q}, tol, body)


def verify_rogers_6w5(a, b, c, d, q, ctx: QContext | None = None,
                      tol: float | None = None) -> VerificationReport:
    """Rogers summation: 6W5(a; b, c, d; q, aq/(bcd)) equals its product form."""
    def body():
        if b * c * d == 0:
            raise DomainError("rogers-6phi5 needs nonzero b, c, d")
        cx = context_for(q, ctx)
        z = a * q / (b * c * d)
        lhs = w_series(a, [b, c, d], q, z, cx)
        rhs = rogers_6w5_rhs(a, b, c, d, q, cx)
        return lhs, rhs, 0

    return _check("rogers-6phi5", {"a": a, "b": b, "c": c, "d": d, "q": q}, tol, body)


CHECK_RUNNERS = {
    "thm-1.1": verify_thm_1_1,
    "thm-1.2": verify_thm_1_2,
    "thm-1.3": verify_thm_1_3,
    "thm-1.4": verify_thm_1_4,
    "prop-3.1": verify_prop_3_1,
    "prop-3.2": verify_prop_3_2,
    "rogers-connection": verify_rogers_connection,
    "askey-ismail": verify_askey_ismail_chebyshev,
    "gf-4.1": verify_gf_4_1,
    "prop-4.2": verify_prop_4_2,
    "uniform-bound": verify_uniform_bound,
    "qbinomial": verify_qbinomial,
    "rogers-6phi5": verify_rogers_6w5,
}


def default_suite_config() -> dict:
    """Deterministic parameter grid covering every check id (76 reports)."""
    import cmath

    x32 = cmath.rect(0.8, 0.4)
    x31 = cmath.rect(0.6, 0.3)
    config = {
        "thm-1.1": (
            [{"m": m, "n": n, "beta": 0.6, "q": 0.3}
             for m, n in [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
                          (0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 5)]]
            + [{"m": m, "n": n, "beta": 0.0, "q": 0.5}
               for m, n in [(0, 0), (2, 2), (1, 3)]]
        ),
        "thm-1.2": [{"m": m, "n": n, "beta": 0.25, "gamma": 0.5, "q": 0.4}
                    for m, n in [(0, 0), (1, 1), (2, 2), (2, 0), (3, 1), (4, 2),
                                 (4, 0), (1, 0), (2, 1), (0, 2), (1, 3)]],
        "thm-1.3": (
            [{"m": m, "n": n, "alpha": 0.4, "beta": -0.3, "q": 0.35}
             for m, n in [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 2), (2, 5)]]
            + [{"m": 3, "n": 3, "alpha": 0.6, "beta": 0.6, "q": 0.3}]
        ),
        "thm-1.4": [
            {"alpha": 0.5, "beta": 0.2, "s": 0.3, "t": 0.25, "q": 0.3},
            {"alpha": 0.5, "beta": 0.2, "s": 0.0, "t": 0.25, "q": 0.3},
            {"alpha": 0.4, "beta": 0.4, "s": 0.2, "t": 0.2, "q": 0.3},
            {"alpha": 0.3, "beta": -0.2, "s": 0.25, "t": 0.2, "q": 0.4},
        ],
        "prop-3.1": [
            {"a": 0.3, "b": 0.2, "c": 0.4, "x": 0.5, "y": 0.7, "q": 0.35},
            {"a": 0.2, "b": 0.1, "c": 0.0, "x": 0.5, "y": 0.7, "q": 0.35},
            {"a": 0.25, "b": 0.15, "c": 0.3, "x": x31, "y": x31.conjugate(), "q": 0.3},
            {"a": 0.1, "b": 0.3, "c": 0.2, "x": 0.4, "y": 0.8, "q": 0.45},
        ],
        "prop-3.2": [{"n": n, "a": 0.3, "b": 0.2, "x": x32, "y": x32.conjugate(), "q": 0.3}
                     for n in (0, 1, 2, 3, 5, 8)],
        "rogers-connection": (
            [{"n": n, "beta": 0.4, "gamma": 0.7, "q": 0.3} for n in (1, 2, 3, 4, 6)]
            + [{"n": 4, "beta": 0.4, "gamma": 0.4, "q": 0.3}]
        ),
        "askey-ismail": [{"n": n, "k": k, "beta": 0.5, "q": 0.3}
                         for n, k in [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 3)]],
        "gf-4.1": [
            {"beta": 0.5, "q": 0.3, "theta": 0.9, "degree": 16},
            {"beta": 0.3, "q": 0.4, "theta": 1.1, "degree": 16},
            {"beta": 0.0, "q": 0.3, "theta": 0.7, "degree": 12},
        ],
        "prop-4.2": [
            {"beta": 0.3, "gamma": 0.6, "q": 0.4, "theta": 1.1, "degree": 12},
            {"beta": 0.5, "gamma": 0.5, "q": 0.3, "theta": 0.9, "degree": 10},
        ],
        "uniform-bound": [
            {"n": 0, "alpha": 0.5, "beta": 0.5, "q": 0.3},
            {"n": 10, "alpha": 0.7, "beta": -0.5, "q": 0.6},
            {"n": 15, "alpha": 0.2, "beta": 0.9, "q": -0.4},
            {"n": 7, "alpha": -0.6, "beta": 0.3, "q": 0.5},
        ],
        "qbinomial": [
            {"a": 0.4, "z": 0.5, "q": 0.3},
            {"a": -0.3, "z": 0.6, "q": 0.5},
            {"a": cmath.rect(0.8, 0.5), "z": 0.4, "q": 0.35},
            {"a": 0.2, "z": cmath.rect(0.7, -0.3), "q": 0.6},
        ],
        "rogers-6phi5": [
            {"a": 0.1, "b": 0.7, "c": 0.6, "d": 0.8, "q": 0.4},
            {"a": 0.05, "b": 0.6, "c": 0.5, "d": 0.9, "q": 0.3},
            {"a": 0.5, "b": 0.4**-2, "c": 0.3, "d": 0.15, "q": 0.4},
            {"a": 0.3, "b": 0.35**-1, "c": 0.4, "d": 0.5, "q": 0.35},
        ],
    }
    return config


def run_suite(config: dict | None = None, ctx: QContext | None = None):
    """Run every configured check and return the reports.

    `config` maps a check id to a list of keyword-argument dicts for its
    runner (default_suite_config() when omitted; an entry may carry "tol").
    Failures are recorded in the reports, never raised.  Reports come back
    sorted by check id, then parameters, so runs are reproducible.
    """
    if config is None:
        config = default_suite_config()
    reports = []
    for check_id in sorted(config):
        runner = CHECK_RUNNERS.get(check_id)
        if runner is None:
            raise DomainError(f"unknown check id {check_id!r}")
        for entry in config[check_id]:
            reports.append(runner(ctx=ctx, **entry))
    reports.sort(key=_report_sort_key)
    return reports


def _report_sort_key(report: VerificationReport):
    return (report.check_id,
            tuple(sorted((name, complex(value).real, complex(value).imag)
                         for name, value in report.params.items())))
