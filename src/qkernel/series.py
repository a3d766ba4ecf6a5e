"""Generating-function expansion and basic hypergeometric summation.

gf_expand writes a ratio of infinite products (c t; q)_inf as a power series
in t, TruncatedPowerSeries, by _qdifference_coeffs, the q-difference
recurrence that polynomials.gasper_c and ultraspherical_table run too.  It
truncates no product, so the product budget EPS_PRODUCT / MAX_PRODUCT_TERMS
does not apply to it.

phi_series sums the one-variable basic hypergeometric series

    sum_{n>=0} (a_1, ..., a_{r+1}; q)_n / (q, b_1, ..., b_r; q)_n  z^n

from its parameter lists, with a running term recurrence and a certified
geometric tail bound, within the series budget EPS_SERIES / MAX_SERIES_TERMS.
It is the package's one summed hypergeometric series: w_series wraps it with
the very-well-poised parameter substitution (rogers_6w5_rhs is the matching
closed product form), and thm-1.4's q-beta series is two 2phi1 calls.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, PoleError
from .pochhammer import _check_finite, check_base, qpoch_product

# Budget of every summed series (phi_series and the Jackson ladder):
# relative tail bound and term cap.
EPS_SERIES = 1e-14
MAX_SERIES_TERMS = 100_000

# A term factor within this relative distance of zero marks a terminating
# series (an upper parameter of the form q^{-m} up to roundoff).
_TERMINATION_SNAP = 1e-13


@dataclass(frozen=True)
class TruncatedPowerSeries:
    """Coefficients c_0 .. c_D of a formal power series in t, nothing beyond."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise DomainError("a truncated power series needs at least the t^0 coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))


def _qdifference_coeffs(c, d, q, degree: int) -> list:
    """[f_0, ..., f_degree] of F(t) = prod_i (a_i t; q)_inf / prod_j (b_j t; q)_inf
    from C_k = c[k-1] and D_k = d[k-1], scalars or same-shape arrays, the
    coefficients of C(t) = prod_i (1 - a_i t) and D(t) = prod_j (1 - b_j t).
    D(t) F(t) = C(t) F(qt) gives f_0 = 1 and, K the larger degree,

        (1 - q^n) f_n = sum_{k=1}^{K} (C_k q^{n-k} - D_k) f_{n-k}.

    A negative degree is a DomainError, and so is a q^k (a running product
    of q), 1 <= k <= degree, that equals 1 or is not finite."""
    if degree < 0:
        raise DomainError("degree must be >= 0")
    steps = list(itertools.zip_longest(c, d, fillvalue=0.0))
    q_powers = [1.0]
    for _ in range(degree):
        q_powers.append(q_powers[-1] * q)
    if not cmath.isfinite(q_powers[-1]) or 1.0 in q_powers[1:]:
        k, power = next((k, p) for k, p in enumerate(q_powers[1:], 1)
                        if p == 1.0 or not cmath.isfinite(p))
        raise DomainError(f"q**{k} = 1 makes the denominator 1 - q**{k} zero" if power == 1.0
                          else f"q**{k} = {power} is not finite")
    f = [1.0]
    for n in range(1, degree + 1):
        acc = 0.0
        for k, (c_k, d_k) in enumerate(steps[:n], 1):
            acc = acc + (c_k * q_powers[n - k] - d_k) * f[n - k]
        f.append(acc / (1.0 - q_powers[n]))
    return f


def gf_expand(numerators, denominators, q, degree_cap: int = 24) -> TruncatedPowerSeries:
    """Expand prod_c (c t; q)_inf over `numerators` divided by the same
    product over `denominators` as a power series in t up to t^degree_cap,
    by _qdifference_coeffs: K steps a coefficient for K factors on the
    larger side.  No product is truncated, so the product budget does not
    apply.  A NaN or infinite numerator or denominator is a DomainError.
    """
    check_base(q)
    _check_finite("gf_expand", *numerators, *denominators)
    c, d = [1.0], [1.0]  # C(t) = prod_c (1 - c t) and D(t), factor by factor
    for poly, roots in ((c, numerators), (d, denominators)):
        for r in roots:
            poly[:] = [a - r * b for a, b in zip([*poly, 0.0], [0.0, *poly])]
    return TruncatedPowerSeries(tuple(_qdifference_coeffs(c[1:], d[1:], q, degree_cap)))


def phi_series(upper: list, z, q, lower: list = ()) -> complex:
    """Value of the basic hypergeometric series with upper parameters
    a_1..a_{r+1}, lower parameters b_1..b_r and argument z.

    A NaN or infinite parameter or argument is a DomainError.  Terms
    follow the running recurrence term_{n+1} = term_n * ratio(n), and a
    sum that stops being finite is a ConvergenceError at once.
    Summation stops at a terminating zero factor (upper parameter q^{-m}),
    or once the remaining tail is certifiably below EPS_SERIES relative:
    past index n every term ratio is bounded by

        rho = |z| prod_i (1 + |a_i| |q|^n) / ((1 - |q|^{n+1}) prod_j (1 - |b_j| |q|^n))

    which decreases with n, so the tail after term_n is at most
    |term_n| rho / (1 - rho) once rho < 1.
    """
    upper = [complex(a) for a in upper]
    lower = [complex(b) for b in lower]
    if len(upper) != len(lower) + 1:
        raise DomainError(f"need r+1 upper and r lower parameters, got "
                          f"{len(upper)} upper and {len(lower)} lower")
    check_base(q)
    q = complex(q)
    z = complex(z)
    if not all(map(cmath.isfinite, [z, *upper, *lower])):
        raise DomainError("phi_series needs finite parameters and argument")
    if z == 0:
        return 1.0 + 0j
    abs_q = abs(q)
    total = 1.0 + 0j
    term = 1.0 + 0j
    qn = 1.0 + 0j
    for _ in range(MAX_SERIES_TERMS):
        num = 1.0 + 0j
        for a in upper:
            w = a * qn
            factor = 1.0 - w
            if abs(factor) <= _TERMINATION_SNAP * (1.0 + abs(w)):
                return total
            num *= factor
        den = 1.0 - q * qn
        for b in lower:
            w = b * qn
            factor = 1.0 - w
            if abs(factor) <= _TERMINATION_SNAP * (1.0 + abs(w)):
                raise DomainError("phi_series reached a vanishing lower-parameter factor")
            den *= factor
        term = term * (num / den) * z
        total += term
        if not cmath.isfinite(total):
            raise ConvergenceError("phi_series reached a non-finite term before its tail bound")
        qn *= q
        abs_qn = abs(qn)
        lower_ok = True
        rho = abs(z) / (1.0 - abs_q * abs_qn)
        for a in upper:
            rho *= 1.0 + abs(a) * abs_qn
        for b in lower:
            g = 1.0 - abs(b) * abs_qn
            if g <= 0.0:
                lower_ok = False
                break
            rho /= g
        if lower_ok and rho < 1.0:
            if abs(term) * rho / (1.0 - rho) <= EPS_SERIES * (1.0 + abs(total)):
                return total
    raise ConvergenceError("phi_series did not meet its tail bound within MAX_SERIES_TERMS")


def w_series(a1, b: list, q, z) -> complex:
    """Very-well-poised series (r+1)_W_r(a1; b_1, ..., b_{r-2}; q, z).

    Uses the defining substitution into phi_series: extra upper parameters
    q sqrt(a1), -q sqrt(a1) and lower parameters sqrt(a1), -sqrt(a1),
    q a1 / b_i, with the principal square root.
    """
    b = [complex(v) for v in b]
    if any(v == 0 for v in b):
        raise DomainError("very-well-poised parameters must be nonzero")
    root = cmath.sqrt(complex(a1))
    upper = [complex(a1), q * root, -q * root, *b]
    lower = [root, -root, *(q * complex(a1) / v for v in b)]
    return phi_series(upper, z, q, lower)


def rogers_6w5_rhs(a, b, c, d, q) -> complex:
    """Product side of the Rogers summation for 6_W_5(a; b, c, d; q, aq/(bcd)):

        (aq, aq/bc, aq/cd, aq/bd; q)_inf / (aq/b, aq/c, aq/d, aq/bcd; q)_inf
    """
    if b * c * d == 0:
        raise DomainError("6W5 closed form needs nonzero b, c, d")
    aq = a * q
    num = qpoch_product([aq, aq / (b * c), aq / (c * d), aq / (b * d)], q)
    den = qpoch_product([aq / b, aq / c, aq / d, aq / (b * c * d)], q)
    if den == 0:
        raise PoleError("vanishing denominator product in the 6W5 closed form")
    return complex(num / den)
