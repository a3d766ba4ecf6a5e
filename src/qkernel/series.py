"""Generating-function expansion and basic hypergeometric summation.

TruncatedPowerSeries is the generating-function oracle: gf_expand writes a
ratio of infinite products (c t; q)_inf as a power series in t from Euler's
closed-form coefficients of (c t; q)_inf and 1/(c t; q)_inf, and single
coefficients are read off.  It truncates no product, so eps_product and
max_product_terms do not apply to it.

phi_series sums the one-variable basic hypergeometric series

    sum_{n>=0} (a_1, ..., a_{r+1}; q)_n / (q, b_1, ..., b_r; q)_n  z^n

with a running term recurrence and a certified geometric tail bound;
w_series wraps it with the very-well-poised parameter substitution, and
rogers_6w5_rhs is the matching closed product form.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .context import QContext, context_for
from .errors import ConvergenceError, DomainError, PoleError
from .pochhammer import INFINITY, qpoch_multi

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

    @property
    def degree_cap(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, j: int) -> complex:
        """Coefficient of t^j (raises IndexError beyond the cap)."""
        if j < 0:
            raise IndexError("negative power")
        return self.coeffs[j]


def gf_expand(numerators, denominators, q, degree_cap: int = 24,
              ctx: QContext | None = None) -> TruncatedPowerSeries:
    """Expand prod_c (c t; q)_inf over `numerators` divided by the same
    product over `denominators` as a power series in t.

    Euler's closed forms (Gasper & Rahman (1.3.15)-(1.3.16))

        (c t; q)_inf = sum_k (-c)^k q^{k(k-1)/2} t^k / (q;q)_k,
        1 / (c t; q)_inf = sum_k c^k t^k / (q;q)_k

    give each factor up to t^degree_cap by its term ratio; the factors are
    multiplied by Cauchy products truncated to the cap.  No product is
    truncated, so eps_product and max_product_terms do not apply.  The
    default cap of 24 covers every identity check here with margin.
    """
    if degree_cap < 0:
        raise DomainError("degree_cap must be >= 0")
    q = context_for(q, ctx).q
    k = np.arange(degree_cap)
    qk = q**k
    qfact = 1.0 - q * qk
    coeffs = np.zeros(degree_cap + 1, dtype=complex)
    coeffs[0] = 1.0
    for ratios in ([-complex(c) * qk / qfact for c in numerators]
                   + [complex(c) / qfact for c in denominators]):
        euler = np.concatenate(([1.0], np.cumprod(ratios)))
        coeffs = np.convolve(coeffs, euler)[: degree_cap + 1]
    return TruncatedPowerSeries(tuple(coeffs))


@dataclass(frozen=True)
class HypergeometricSpec:
    """Upper parameters a_1..a_{r+1}, lower parameters b_1..b_r, argument z."""

    upper: tuple[complex, ...]
    lower: tuple[complex, ...]
    argument: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", tuple(complex(v) for v in self.upper))
        object.__setattr__(self, "lower", tuple(complex(v) for v in self.lower))
        object.__setattr__(self, "argument", complex(self.argument))
        if len(self.upper) != len(self.lower) + 1:
            raise DomainError(
                f"need r+1 upper and r lower parameters, got "
                f"{len(self.upper)} upper and {len(self.lower)} lower"
            )


def phi_series(spec: HypergeometricSpec, q, ctx: QContext | None = None) -> complex:
    """Value of the basic hypergeometric series described by `spec`.

    Terms follow the running recurrence term_{n+1} = term_n * ratio(n).
    Summation stops at a terminating zero factor (upper parameter q^{-m}),
    or once the remaining tail is certifiably below eps_series relative:
    past index n every term ratio is bounded by

        rho = |z| prod_i (1 + |a_i| |q|^n) / ((1 - |q|^{n+1}) prod_j (1 - |b_j| |q|^n))

    which decreases with n, so the tail after term_n is at most
    |term_n| rho / (1 - rho) once rho < 1.
    """
    c = context_for(q, ctx)
    q = complex(q)
    z = spec.argument
    if z == 0:
        return 1.0 + 0j
    abs_q = abs(q)
    total = 1.0 + 0j
    term = 1.0 + 0j
    qn = 1.0 + 0j
    for _ in range(c.max_series_terms):
        num = 1.0 + 0j
        for a in spec.upper:
            w = a * qn
            factor = 1.0 - w
            if abs(factor) <= _TERMINATION_SNAP * (1.0 + abs(w)):
                return total
            num *= factor
        den = 1.0 - q * qn
        for b in spec.lower:
            w = b * qn
            factor = 1.0 - w
            if abs(factor) <= _TERMINATION_SNAP * (1.0 + abs(w)):
                raise DomainError("phi_series reached a vanishing lower-parameter factor")
            den *= factor
        term = term * (num / den) * z
        total += term
        qn *= q
        abs_qn = abs(qn)
        lower_ok = True
        rho = abs(z) / (1.0 - abs_q * abs_qn)
        for a in spec.upper:
            rho *= 1.0 + abs(a) * abs_qn
        for b in spec.lower:
            g = 1.0 - abs(b) * abs_qn
            if g <= 0.0:
                lower_ok = False
                break
            rho /= g
        if lower_ok and rho < 1.0:
            if abs(term) * rho / (1.0 - rho) <= c.eps_series * (1.0 + abs(total)):
                return total
    raise ConvergenceError("phi_series did not meet its tail bound within max_series_terms")


def w_series(a1, rest, q, z, ctx: QContext | None = None) -> complex:
    """Very-well-poised series (r+1)_W_r(a1; rest; q, z).

    Uses the defining substitution into phi_series: extra upper parameters
    q sqrt(a1), -q sqrt(a1) and lower parameters sqrt(a1), -sqrt(a1),
    q a1 / a_i, with the principal square root.
    """
    rest = tuple(complex(b) for b in rest)
    if any(b == 0 for b in rest):
        raise DomainError("very-well-poised parameters must be nonzero")
    root = cmath.sqrt(complex(a1))
    upper = (complex(a1), q * root, -q * root, *rest)
    lower = (root, -root, *(q * complex(a1) / b for b in rest))
    return phi_series(HypergeometricSpec(upper, lower, z), q, ctx)


def rogers_6w5_rhs(a, b, c, d, q, ctx: QContext | None = None) -> complex:
    """Product side of the Rogers summation for 6_W_5(a; b, c, d; q, aq/(bcd)):

        (aq, aq/bc, aq/cd, aq/bd; q)_inf / (aq/b, aq/c, aq/d, aq/bcd; q)_inf
    """
    if b * c * d == 0:
        raise DomainError("6W5 closed form needs nonzero b, c, d")
    cx = context_for(q, ctx)
    aq = a * q
    num = qpoch_multi([aq, aq / (b * c), aq / (c * d), aq / (b * d)], q, INFINITY, cx)
    den = qpoch_multi([aq / b, aq / c, aq / d, aq / (b * c * d)], q, INFINITY, cx)
    if den == 0:
        raise PoleError("vanishing denominator product in the 6W5 closed form")
    return complex(num / den)
