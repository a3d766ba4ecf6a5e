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
  prop-4.2           double-sum re-expansion: the connection formula summed over the degree
  uniform-bound      |C_n^{(a,b)}(e^{i theta})| <= C_n^{(a,b)}(1)
  qbinomial          1phi0(a; -; q, z) = (az;q)_inf / (z;q)_inf
  rogers-6phi5       6W5 summation, series against product

Every check returns a VerificationReport.  Left-hand sides come from the
quadrature / ladder-sum / series engines (thm-1.1, thm-1.2 and askey-ismail
through one half-period rule, _half_period), right-hand sides from closed
forms: thm-1.1 and thm-1.3 from the one circle norm N_n (polynomials.
_circle_norm), thm-1.2 from one connection coefficient times N_n / 2,
rogers-connection and prop-4.2 from rows of the connection coefficients
summed by one body (_connection_sums), thm-1.4's from two phi_series sums,
askey-ismail's from the product the paper states, the others as each
runner's docstring says.  Every quotient of infinite products among them,
N_n's 2 pi (a, b; q)_inf / (q, ab; q)_inf, the prop-3.1, prop-3.2,
askey-ismail and qbinomial closed forms and the thm-1.4 integrand, is one
pochhammer.qpoch_ratio, which is also the one pole rule: a scalar quotient
whose denominator product is 0 (or underflows to 0) raises PoleError, and
the report fails.  rel_err = |lhs - rhs| / (1 + max(|lhs|, |rhs|)).

Each runner is written as a function of the check's own arguments that
returns (lhs, rhs, nodes_used), under one decorator, @_check(check_id,
default_tol).  The decorator registers it in CHECK_RUNNERS, adds the keyword
`tol: float = default_tol` to its signature, times the call and builds the
report.  A check's default tolerance is thus its runner's `tol` default,
inspect.signature(runner).parameters["tol"].default; a `tol` argument
(`check --tol`, a `suite --config` entry's "tol") overrides it for that
call.  A report's params are the call's arguments in signature order,
defaults filled in and tol left out, so they re-run the check as a
`suite --config` entry.  When lhs and
rhs are matching arrays (grid points, coefficients) the report carries the
entry with the largest rel_err.  Any QKernelError the runner raises,
argument validation included, yields a failed report with infinite errors
instead of raising, so a suite always runs to completion.  Only a tol that
is not finite and positive, which no report could meaningfully pass, raises
DomainError before the check runs.  A base with
|q| >= 1 is refused by the first engine a runner calls; the runners that
evaluate a polynomial first (which divides by 1 - q^k) or call no engine
check it up front.

For inequality checks (uniform-bound) lhs is the clamped worst violation and
rhs is zero, which keeps the pass <=> rel_err <= tol convention.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QKernelError
from .integrate import (jackson_q_integral, periodic_quadrature,
                        weight_omega_ab, weight_omega_beta)
# qpoch_infinite is not called here; bench/tests/test_spans.py reads it from
# this module to check that the tracer puts it back.
from .pochhammer import (_check_finite, check_base, qbinom, qpoch_finite,  # noqa: F401
                         qpoch_infinite, qpoch_ladder, qpoch_ratio)
from .polynomials import (_circle_norm, _circle_prefactor, _connection_row,
                          _connection_tables, chebyshev_t, connection_coeffs,
                          gasper_c, phi_poly, ultraspherical_c, ultraspherical_table)
from .series import gf_expand, phi_series, rogers_6w5_rhs, w_series

# Baseline tolerance profile: quadrature-backed checks settle near the
# trapezoid noise floor, pure series/product checks near double precision.
# The mixed-parameter and five-parameter integrals get one extra decade.
_QUAD_TOL = 1e-9
_SERIES_TOL = 1e-11

# Check id -> runner, filled by @_check in the order the runners are defined
# below.
CHECK_RUNNERS: dict = {}


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


def _check(check_id: str, default_tol: float):
    """Make `body`, a function of the check's arguments returning (lhs, rhs,
    nodes_used), the runner of check `check_id`, whose keyword `tol` defaults
    to `default_tol` (see the module docstring).  The body's signature is
    read once, here; a call only merges its keywords into the argument
    defaults."""
    def register(body):
        signature = inspect.signature(body, eval_str=True)
        arguments = {name: p.default for name, p in signature.parameters.items()}
        required = {name for name, p in signature.parameters.items() if p.default is p.empty}
        tol_parameter = inspect.Parameter("tol", inspect.Parameter.POSITIONAL_OR_KEYWORD,
                                          default=default_tol, annotation=float)
        published = signature.replace(
            parameters=[*signature.parameters.values(), tol_parameter],
            return_annotation=VerificationReport)

        @functools.wraps(body)
        def runner(*args, **kwargs) -> VerificationReport:
            started = time.perf_counter()
            if args:
                kwargs = published.bind(*args, **kwargs).arguments
            tol = float(kwargs.pop("tol", default_tol))  # TypeError for tol=None
            check_tol(tol)
            params = {**arguments, **kwargs}
            if len(params) != len(arguments) or not kwargs.keys() >= required:
                published.bind(**kwargs)  # raises the TypeError naming the argument
            try:
                lhs, rhs, nodes = body(**params)
            except QKernelError:
                return _failed(check_id, params, tol, started)
            if np.ndim(lhs) != 0:
                worst = int(np.argmax(np.abs(lhs - rhs)
                                      / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))))
                lhs, rhs = lhs[worst], rhs[worst]
            lhs = complex(lhs)
            rhs = complex(rhs)
            abs_err = abs(lhs - rhs)
            rel_err = abs_err / (1.0 + max(abs(lhs), abs(rhs)))
            return VerificationReport(
                check_id=check_id, params=params, lhs=lhs, rhs=rhs,
                abs_err=abs_err, rel_err=rel_err, tol=tol, nodes_used=int(nodes),
                passed=rel_err <= tol, runtime_ms=(time.perf_counter() - started) * 1e3,
            )

        runner.__signature__ = published
        CHECK_RUNNERS[check_id] = runner
        return runner

    return register


def check_tol(tol: float) -> None:
    """DomainError unless tol is finite and positive: a NaN or negative tol
    fails every report, and an infinite one passes a failed report too
    (rel_err = inf)."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")


# Called inside the runner's `except` as a module global, so a wrapper sees the
# exception behind each failed report (bench/tests/test_workloads.py has one).
def _failed(check_id, params, tol, started) -> VerificationReport:
    return VerificationReport(
        check_id=check_id, params=params, lhs=0j, rhs=0j,
        abs_err=math.inf, rel_err=math.inf, tol=tol, nodes_used=0,
        passed=False, runtime_ms=(time.perf_counter() - started) * 1e3,
    )


@_check("thm-1.1", _QUAD_TOL)
def verify_thm_1_1(m: int, n: int, beta, q):
    """Orthogonality on [0, pi]:

        int_0^pi C_m(cos t; beta|q) C_n(cos t; beta|q) omega_beta(cos t|q) dt
        = delta_{mn} / h_n(beta|q),

    1/h_n taken as N_n(beta, beta) / 2.  C_m and C_n come from one
    recurrence table per node set.
    """
    if min(m, n) < 0:
        raise DomainError("degree must be >= 0")

    def product(x):
        table = ultraspherical_table(max(m, n), x, beta, q)
        return table[m] * table[n]

    lhs, nodes = _half_period(product, beta, q)
    rhs = _circle_norm(n, beta, beta, q) / 2.0 if m == n else 0.0
    return lhs, rhs, nodes


@_check("thm-1.2", 1e-8)
def verify_thm_1_2(m: int, n: int, beta, gamma, q):
    """Mixed-parameter integral on [0, pi]:

        int_0^pi C_m(cos t; gamma|q) C_n(cos t; beta|q) omega_beta(cos t|q) dt
        = c_j / h_n(beta|q),  j = (m - n)/2,

    for m >= n with m = n (mod 2), and zero otherwise: c_j is the
    coefficient of C_n(x; beta|q) in the connection formula of degree m
    (connection_coeffs), and thm-1.1 leaves only that term.  Written out,
    c_j / h_n is the paper's

        (1 - beta q^n) beta^j (gamma/beta;q)_j (gamma;q)_{(m+n)/2}
        / ((1 - beta) h_n(beta|q) (q;q)_j (q beta;q)_{(m+n)/2}),

    whose beta^j (gamma/beta;q)_j connection_coeffs forms as
    prod_{i<j} (beta - gamma q^i), so beta = 0 is accepted.
    """
    def product(x):
        return ultraspherical_c(m, x, gamma, q) * ultraspherical_c(n, x, beta, q)

    lhs, nodes = _half_period(product, beta, q)
    j = (m - n) // 2
    rhs = (connection_coeffs(m, beta, gamma, q)[j] * _circle_norm(n, beta, beta, q) / 2.0
           if m >= n and m - n == 2 * j else 0.0)
    return lhs, rhs, nodes


def _half_period(product, beta, q):
    """(int_0^pi product(cos t) omega_beta(cos t|q) dt, nodes_used): the
    integrand is even and 2 pi periodic, so the integral is half of the
    full-period trapezoid value."""
    check_base(q)

    def integrand(theta):
        return product(np.cos(theta)) * weight_omega_beta(theta, beta, q)

    quad = periodic_quadrature(integrand)
    return quad.value / 2.0, quad.nodes_used


@_check("thm-1.3", _QUAD_TOL)
def verify_thm_1_3(m: int, n: int, alpha, beta, q):
    """Orthogonality of the two-parameter circle functions:

        int_0^{2 pi} C_m^{(a,b)}(e^{it};q) C_n^{(a,b)}(e^{it};q) omega^{(a,b)}(cos t|q) dt
        = 2 pi (a, b; q)_inf / (q, ab; q)_inf
          (1/(1 - a q^n) + 1/(1 - b q^n)) (ab;q)_n / (q;q)_n  delta_{mn}.

    Both polynomial factors are taken at e^{i t} (not one conjugated); the
    full complex integral is compared, so an imaginary residue counts as
    error.  At m = n the polynomial is evaluated once per node set.
    """
    check_base(q)

    def integrand(theta):
        c_m = gasper_c(m, theta, alpha, beta, q)
        c_n = c_m if m == n else gasper_c(n, theta, alpha, beta, q)
        return c_m * c_n * weight_omega_ab(theta, alpha, beta, q)

    quad = periodic_quadrature(integrand)
    rhs = _circle_norm(n, alpha, beta, q) if m == n else 0.0
    return quad.value, rhs, quad.nodes_used


@_check("thm-1.4", 1e-8)
def verify_thm_1_4(alpha, beta, s, t, q):
    """Five-parameter q-beta integral:

        int_0^{2 pi} (a t e^{iu}, b t e^{-iu}, a s e^{iu}, b s e^{-iu},
                      e^{2iu}, e^{-2iu}; q)_inf
                   / (t e^{iu}, t e^{-iu}, s e^{iu}, s e^{-iu},
                      a e^{2iu}, b e^{-2iu}; q)_inf  du
        = 2 pi (a, b; q)_inf / (q, ab; q)_inf
          sum_n (1/(1 - a q^n) + 1/(1 - b q^n)) (ab;q)_n / (q;q)_n (st)^n.

    The right side is the (st)-generating function of the thm-1.3 norms.
    Since 1/(1 - a q^n) = (a;q)_n / ((1 - a) (aq;q)_n), its series is

        2phi1(ab, a; aq; q, st) / (1 - a) + 2phi1(ab, b; bq; q, st) / (1 - b),

    two phi_series sums.
    """
    if max(abs(alpha), abs(beta), abs(s), abs(t)) >= 1.0:
        raise DomainError("thm-1.4 needs all of |alpha|, |beta|, |s|, |t| < 1")

    def integrand(theta):
        plus = np.exp(1j * theta)
        minus = plus.conjugate()
        plus2 = plus * plus
        minus2 = minus * minus
        return qpoch_ratio([alpha * t * plus, beta * t * minus, alpha * s * plus,
                            beta * s * minus, plus2, minus2],
                           [t * plus, t * minus, s * plus, s * minus,
                            alpha * plus2, beta * minus2], q)

    quad = periodic_quadrature(integrand)
    w = s * t
    series = (phi_series([alpha * beta, alpha], w, q, [alpha * q]) / (1.0 - alpha)
              + phi_series([alpha * beta, beta], w, q, [beta * q]) / (1.0 - beta))
    return quad.value, _circle_prefactor(alpha, beta, q) * series, quad.nodes_used


@_check("prop-3.1", _QUAD_TOL)
def verify_prop_3_1(a, b, c, x, y, q):
    """Al-Salam--Verma evaluation of a Jackson q-integral:

        int_x^y (qz/x, qz/y, abcz; q)_inf / (az/y, bz/x, cz; q)_inf d_q z
        = (1-q) y (q, x/y, qy/x, ab, acx, bcy; q)_inf
          / (ax/y, by/x, a, b, cx, cy; q)_inf.
    """
    if x == 0 or y == 0:
        raise DomainError("prop-3.1 needs nonzero endpoints")
    if max(abs(a), abs(b), abs(c * x), abs(c * y), abs(a * x / y), abs(b * y / x)) >= 1.0:
        raise DomainError("prop-3.1 parameter moduli out of range")

    def integrand(z):
        return _ladder_ratio([q / x, q / y, a * b * c], [a / y, b / x, c], z, q)

    ladder = jackson_q_integral(integrand, x, y, q)
    rhs = (1.0 - q) * y * qpoch_ratio([q, x / y, q * y / x, a * b, a * c * x, b * c * y],
                                      [a * x / y, b * y / x, a, b, c * x, c * y], q)
    return ladder.value, rhs, ladder.nodes_used


def _ladder_ratio(upper, lower, z, q):
    """(u_1 z, u_2 z, ...; q)_inf / (l_1 z, l_2 z, ...; q)_inf on a block z of
    consecutive Jackson rungs z[0] q^i, from one qpoch_ladder table."""
    table = qpoch_ladder(z[0] * np.array(upper + lower, dtype=complex), q, len(z))
    return np.prod(table[:, :len(upper)], axis=1) / np.prod(table[:, len(upper):], axis=1)


@_check("prop-3.2", _QUAD_TOL)
def verify_prop_3_2(n: int, a, b, x, y, q):
    """Jackson q-integral representation of the homogeneous polynomials:

        Phi_n^{(a,b)}(x, y|q) = (ab;q)_n (a, b, by/x, ax/y; q)_inf
                                / ((1-q) y (q, ab, x/y, qy/x; q)_inf)
                                int_x^y (qz/x, qz/y; q)_inf z^n
                                        / (bz/x, az/y; q)_inf d_q z.

    The closed-form factor is (ab;q)_n / ((1-q) y) times the qpoch_ratio
    of the two infinite products, so a vanishing denominator
    (q, ab, x/y, qy/x; q)_inf raises PoleError.
    """
    if x == 0 or y == 0 or x == y:
        raise DomainError("prop-3.2 needs distinct nonzero endpoints")

    def integrand(z):
        return _ladder_ratio([q / x, q / y], [b / x, a / y], z, q) * z**n

    ladder = jackson_q_integral(integrand, x, y, q)
    prefactor = (qpoch_ratio([a, b, b * y / x, a * x / y], [q, a * b, x / y, q * y / x], q)
                 * qpoch_finite(a * b, q, n) / ((1.0 - q) * y))
    lhs = phi_poly(n, a, b, x, y, q)
    rhs = prefactor * ladder.value
    return lhs, rhs, ladder.nodes_used


@_check("rogers-connection", 1e-10)
def verify_rogers_connection(n: int, beta, gamma, q, theta_grid: int = 16):
    """Pointwise reconstruction C_n(x; gamma) = sum_k c_k C_{n-2k}(x; beta)
    with the connection coefficients, on the theta_grid midpoints
    (j + 1/2) pi / theta_grid; the report carries the worst grid point."""
    if theta_grid < 1:
        raise DomainError("rogers-connection needs at least one grid point")
    check_base(q)
    x = np.cos((np.arange(theta_grid) + 0.5) * math.pi / theta_grid)
    [lhs], [rhs] = _connection_sums([n], x, beta, gamma, q)
    return lhs, rhs, theta_grid


def _connection_sums(degrees, x, beta, gamma, q):
    """C_p(x; gamma|q) and sum_j c_j C_{p-2j}(x; beta|q), c_j row p of the
    connection coefficients, for each degree p in `degrees`: two lists.
    Each parameter's C_k come from one recurrence table and every row from
    one _connection_tables set, both at the top degree (an empty `degrees`
    is refused there)."""
    top = max(degrees, default=-1)
    tables = _connection_tables(top, beta, gamma, q)  # refuses a non-finite parameter first
    gamma_table = ultraspherical_table(top, x, gamma, q)
    beta_table = ultraspherical_table(top, x, beta, q)
    sums = []
    for p in degrees:
        acc = 0.0
        for j, cj in enumerate(_connection_row(p, beta, gamma, q, tables)):
            acc = acc + cj * beta_table[p - 2 * j]
        sums.append(acc)
    return [gamma_table[p] for p in degrees], sums


@_check("askey-ismail", 1e-8)
def verify_askey_ismail_chebyshev(n: int, k: int, beta, q):
    """Integral of C_n against a Chebyshev polynomial, k >= 1:

        int_0^pi C_n(cos t; beta|q) T_{n+2k}(cos t) omega_beta(cos t|q) dt
        = pi [n+k choose k]_q (1 - q^{n+2k})/(1 - q^{n+k})
          (beta, beta q^{n+k+1}; q)_inf / (q, beta^2 q^n; q)_inf
          beta^k (1/beta; q)_k.

    The trailing factor is evaluated as prod_{j<k} (beta - q^j), defined for
    every nonzero beta (and continuously at beta = 0).
    """
    if k < 1:
        raise DomainError("askey-ismail needs k >= 1")

    def product(x):
        return ultraspherical_c(n, x, beta, q) * chebyshev_t(n + 2 * k, x)

    lhs, nodes = _half_period(product, beta, q)
    front = 1.0
    for j in range(k):
        front *= (beta - q**j)
    rhs = (math.pi * qbinom(n + k, k, q)
           * (1.0 - q ** (n + 2 * k)) / (1.0 - q ** (n + k))
           * qpoch_ratio([beta, beta * q ** (n + k + 1)], [q, beta * beta * q**n], q)
           * front)
    return lhs, rhs, nodes


@_check("gf-4.1", _QUAD_TOL)
def verify_gf_4_1(beta, q, theta: float, degree: int = 16):
    """Shifted generating function, coefficientwise in t up to `degree`:

        sum_n (1 - beta q^n) C_n(cos u; beta|q) t^n
        = (beta t q e^{iu}, beta t q e^{-iu}; q)_inf
          / (t e^{iu}, t e^{-iu}; q)_inf  (1 - beta)(1 - beta t^2).

    The report carries the worst coefficient.  Both sides run one
    q-difference recurrence (ultraspherical_table's and gf_expand's) on two
    different generating functions.
    """
    _check_finite("gf-4.1", theta)
    check_base(q)
    x = math.cos(theta)
    table = ultraspherical_table(degree, x, beta, q)
    lhs_coeffs = np.array([(1.0 - beta * q**n) * table[n] for n in range(degree + 1)],
                          dtype=complex)
    phase = complex(math.cos(theta), math.sin(theta))
    g = gf_expand([beta * q * phase, beta * q / phase], [phase, 1.0 / phase], q, degree).coeffs
    rhs_coeffs = np.empty(degree + 1, dtype=complex)
    for p in range(degree + 1):
        rhs_coeffs[p] = (1.0 - beta) * (g[p] - (beta * g[p - 2] if p >= 2 else 0.0))
    return lhs_coeffs, rhs_coeffs, degree + 1


@_check("prop-4.2", _QUAD_TOL)
def verify_prop_4_2(beta, gamma, q, theta: float, degree: int = 12):
    """Double-sum re-expansion, coefficientwise in t up to `degree`:

        sum_n C_n(cos u; gamma|q) t^n
        = sum_{j,m} (1 - beta q^m) (gamma/beta;q)_j (gamma;q)_{j+m} beta^j
                    / ((q;q)_j (beta;q)_{m+j+1})
          C_m(cos u; beta|q) t^{m+2j}.

    As (beta;q)_{m+j+1} = (1 - beta) (beta q;q)_{m+j}, the t^p coefficient is
    row p of the connection formula, whose beta^j (gamma/beta;q)_j is formed
    as prod_{i<j} (beta - gamma q^i), so beta = 0 is accepted; one set of
    tables serves every row."""
    _check_finite("prop-4.2", theta)
    check_base(q)
    lhs, rhs = _connection_sums(range(degree + 1), math.cos(theta), beta, gamma, q)
    return np.asarray(lhs, dtype=complex), np.asarray(rhs, dtype=complex), degree + 1


@_check("uniform-bound", 1e-12)
def verify_uniform_bound(n: int, alpha, beta, q, grid_size: int = 64):
    """|C_n^{(a,b)}(e^{i t}; q)| <= C_n^{(a,b)}(1; q) for real parameters in
    (-1, 1), checked on a uniform theta grid.  lhs is the clamped worst
    violation, rhs is zero.  The polynomials divide by 1 - q^k, k <= n, so
    any q (|q| >= 1 included) is accepted unless gasper_c finds some such
    q^k equal to 1 or past the largest double."""
    if grid_size < 1:
        raise DomainError("uniform-bound needs grid_size >= 1")
    grid = 2.0 * math.pi * np.arange(grid_size) / grid_size
    circle = gasper_c(n, grid, alpha, beta, q)  # grid point 0 is theta = 0
    # np.maximum keeps a NaN excess (max(0.0, nan) would be 0.0)
    violation = np.maximum(0.0, np.max(np.abs(circle)) - circle[0].real)
    return violation, 0.0, grid_size


@_check("qbinomial", _SERIES_TOL)
def verify_qbinomial(a, z, q):
    """q-binomial theorem: 1phi0(a; -; q, z) = (az;q)_inf / (z;q)_inf for |z| < 1.

    The right side is qpoch_ratio([a z], [z], q): a denominator (z;q)_inf
    that is zero, or underflows to zero, raises PoleError.
    """
    return phi_series([a], z, q), qpoch_ratio([a * z], [z], q), 0


@_check("rogers-6phi5", _SERIES_TOL)
def verify_rogers_6w5(a, b, c, d, q):
    """Rogers summation: 6W5(a; b, c, d; q, aq/(bcd)) equals its product form."""
    if b * c * d == 0:
        raise DomainError("rogers-6phi5 needs nonzero b, c, d")
    z = a * q / (b * c * d)
    lhs = w_series(a, [b, c, d], q, z)
    rhs = rogers_6w5_rhs(a, b, c, d, q)
    return lhs, rhs, 0


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


def run_suite(config: dict | None = None):
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
            reports.append(runner(**entry))
    reports.sort(key=_report_sort_key)
    return reports


def _report_sort_key(report: VerificationReport):
    return (report.check_id,
            tuple(sorted((name, complex(value).real, complex(value).imag)
                         for name, value in report.params.items())))
