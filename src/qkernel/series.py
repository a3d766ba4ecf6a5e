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
Its first 64 terms run in Python's complex arithmetic, without numpy.  A
series that runs longer, as near |q| = 1 (Gasper & Rahman, *Basic
Hypergeometric Series*, section 1.3: hundreds or thousands of terms), sums
its later blocks in numpy's own complex arithmetic, by the loop's stop
rule; the two values agree to roundoff, within the same error bound.  It
is the package's one summed hypergeometric series: w_series wraps it with
the very-well-poised parameter substitution (rogers_6w5_rhs is the
matching closed product form), and thm-1.4's q-beta series is two 2phi1
calls.

phi_series and the Jackson ladder of integrate.jackson_q_integral run one
block driver, _sum_blocks.  It holds the block schedule (blocks that
double, or for the ladder one block up to the step its stop rule is
expected at, then doubling), picks each block's summer by the block's
size alone, and raises the engines' ConvergenceErrors: for a sum that is
no longer finite, and at the term cap.  It carries one record, _Sum,
from block to block.  Each engine keeps its own summers and stop rule; a
summer ends its block at its stop or at the first step whose sum is not
finite, whichever comes first.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import NamedTuple

from .errors import ConvergenceError, DomainError
from .pochhammer import _check_finite, _power_column, check_base, qpoch_ratio

# Budget of every summed series (phi_series and the Jackson ladder):
# relative tail bound and term cap.
EPS_SERIES = 1e-14
MAX_SERIES_TERMS = 100_000

# A term factor within this relative distance of zero marks a terminating
# series (an upper parameter of the form q^{-m} up to roundoff).
_TERMINATION_SNAP = 1e-13

# _sum_blocks sends every block of _LONG_BLOCK steps or more, after the
# first block, to the engine's numpy summer.  phi_series sums blocks of
# _LONG_BLOCK, 2 _LONG_BLOCK, ... terms, and the Jackson ladder a probe of
# 8 rungs, then one block up to its reach, a long one from about
# |q| = 0.63 on.  phi_series' term loop costs 0.9, 1.6 and 4.2 us a term
# at r = 0, 1 and 5, a numpy block of 128 terms 63, 75 and 107 us: as much
# as 72, 49 and 25 terms of the loop, and 64 terms of a 1phi0 take 58 us
# in the loop, 62 in numpy (q = 0.999, best of 40 rounds on a shared
# 2-vCPU x86-64 host).  So a block of _LONG_BLOCK terms costs about the
# same either way, and a longer one less in numpy unless the series stops
# early in it; the driver does not guess where the stop lies.
_LONG_BLOCK = 64


class _Coeffs(NamedTuple):
    coeffs: tuple[complex, ...]


# On a NamedTuple rather than a frozen dataclass, whose import loads inspect
class TruncatedPowerSeries(_Coeffs):
    """Coefficients c_0 .. c_D of a formal power series in t, nothing beyond."""

    __slots__ = ()

    def __new__(cls, coeffs):
        if len(coeffs) == 0:
            raise DomainError("a truncated power series needs at least the t^0 coefficient")
        return super().__new__(cls, tuple(complex(c) for c in coeffs))


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

    A NaN or infinite parameter or argument, or one whose modulus is past
    the largest double, is a DomainError.  Terms follow the running
    recurrence term_{n+1} = term_n * ratio(n), and a sum that stops being
    finite, or whose modulus overflows, is a ConvergenceError at once.
    Summation stops at a terminating zero factor (upper parameter q^{-m}),
    or once the remaining tail is certifiably below EPS_SERIES relative:
    past index n every term ratio is bounded by

        rho = |z| prod_i (1 + |a_i| |q|^n) / ((1 - |q|^{n+1}) prod_j (1 - |b_j| |q|^n))

    which decreases with n, so the tail after term_n is at most
    |term_n| rho / (1 - rho) once rho < 1.

    The terms come in blocks of 64, 128, 256, ... from the block driver
    _sum_blocks, which the Jackson ladder runs too.  The first block runs
    in a Python loop, _term_loop, without numpy, and so does every series
    that stops within it.  Every later block is summed in numpy by
    _long_terms, by the loop's stop rule and with its events, in numpy's
    complex arithmetic, whose roundings differ from Python's but obey the
    same bounds.
    """
    upper = [complex(a) for a in upper]
    lower = [complex(b) for b in lower]
    if len(upper) != len(lower) + 1:
        raise DomainError(f"need r+1 upper and r lower parameters, got "
                          f"{len(upper)} upper and {len(lower)} lower")
    check_base(q)
    q = complex(q)
    z = complex(z)
    _check_finite("phi_series", z, *upper, *lower)
    if z == 0:
        return 1.0 + 0j
    return _sum_blocks("phi_series", _LONG_BLOCK, _term_loop, _long_terms,
                       (_series_of(upper, lower, z, q),), _FIRST_TERM).total


class _Sum(NamedTuple):
    """A series summed for n steps, terms of phi_series after term_0 or
    rungs of the Jackson ladder: the sum, q^n, the tail bound past it (inf
    while none holds), the bound rho on the next steps' ratio (|q| on the
    ladder; inf while a lower factor bound of phi_series is not positive),
    what the engine carries besides (term_n of phi_series, sum |q^k f| of
    the ladder), and whether the sum has stopped."""

    n: int
    total: complex
    qn: complex
    tail: float
    rho: float
    carry: complex | float
    stopped: bool


# phi_series at term_0 = 1
_FIRST_TERM = _Sum(0, 1.0 + 0j, 1.0 + 0j, math.inf, math.inf, 1.0 + 0j, False)


def _sum_blocks(name: str, first_block: int, loop, array, args: tuple, state: _Sum,
                reach: int = 0) -> _Sum:
    """The stopped record of a series summed on from `state` in blocks of
    first_block steps, then max(2 block, reach - n) steps each, block the
    last block's size and n the steps summed: with reach 0 (phi_series)
    the blocks double, and a larger reach, the step its stop rule is
    expected to hold at, takes the steps up to it in one block.  Each block
    by loop(*args, count, state) or by array(*args, count, state), which take
    the same steps by the same stop rule, one at a time or with array
    operations, and end the block at the stop or at the first step whose
    sum is not finite, whichever comes first.  Every block of _LONG_BLOCK
    steps or more after the first goes to `array`, the others to `loop`.
    ConvergenceError, naming `name`, for a sum that is not finite or whose
    modulus overflows, and if MAX_SERIES_TERMS steps pass without a stop."""
    block = first_block
    while state.n < MAX_SERIES_TERMS:
        count = min(block, MAX_SERIES_TERMS - state.n)
        state = (array if count >= _LONG_BLOCK and state.n > 0 else loop)(*args, count, state)
        # abs() raises OverflowError where finite parts have an infinite modulus
        if not math.hypot(state.total.real, state.total.imag) < math.inf:
            raise ConvergenceError(f"{name} reached a non-finite sum before its tail bound")
        if state.stopped:
            return state
        block = max(2 * block, reach - state.n)
    raise ConvergenceError(f"{name} did not meet its tail bound within MAX_SERIES_TERMS")


class _Series(NamedTuple):
    """phi_series' parameters, argument and base, with their moduli."""

    upper: list
    lower: list
    z: complex
    q: complex
    abs_upper: list
    abs_lower: list
    abs_z: float
    abs_q: float
    reach: float  # the largest |a_i| and |b_j|


def _series_of(upper: list, lower: list, z: complex, q: complex) -> _Series:
    """The _Series of phi_series' checked parameters, argument and base."""
    abs_upper, abs_lower = [abs(a) for a in upper], [abs(b) for b in lower]
    return _Series(upper, lower, z, q, abs_upper, abs_lower, abs(z), abs(q),
                   max(abs_upper + abs_lower))


def _after_term(n: int, term: complex, total: complex, qn: complex, rho: float) -> _Sum:
    """The record of phi_series after term_n, not stopped, with the tail
    bound |term_n| rho / (1 - rho), or inf while rho >= 1."""
    tail = abs(term) * rho / (1.0 - rho) if rho < 1.0 else math.inf
    return _Sum(n, total, qn, tail, rho, term, False)


def _term_loop(series: _Series, count: int, state: _Sum) -> _Sum:
    """`count` terms of phi_series from `state`, one at a time: the stopped
    record where the series stops, at a terminating factor (tail 0) or at
    the tail bound, the record of the first term whose sum is not finite
    (for _sum_blocks to raise), or else the record after the last term."""
    upper, lower, z, q, abs_upper, abs_lower, abs_z, abs_q, reach = series
    n, total, qn, _, rho, term, _ = state
    abs_qn = abs(qn)
    for n in range(n + 1, n + count + 1):  # term_n from term_(n-1)
        # |a q^n| < 1/4 keeps |1 - a q^n| above 3/4, far from the snap
        snappable = reach * abs_qn >= 0.25
        num = 1.0 + 0j
        for a in upper:
            w = a * qn
            factor = 1.0 - w
            if snappable and abs(factor) <= _TERMINATION_SNAP * (1.0 + abs(w)):
                return _Sum(n - 1, total, qn, 0.0, rho, term, True)
            num *= factor
        den = 1.0 - q * qn
        for b in lower:
            w = b * qn
            factor = 1.0 - w
            if snappable and abs(factor) <= _TERMINATION_SNAP * (1.0 + abs(w)):
                raise DomainError("phi_series reached a vanishing lower-parameter factor")
            den *= factor
        term = term * (num / den) * z
        total += term
        if not math.hypot(total.real, total.imag) < math.inf:  # not abs(): it can overflow
            return _Sum(n, total, qn, math.inf, rho, term, True)
        qn *= q
        abs_qn = abs(qn)
        rho = abs_z / (1.0 - abs_q * abs_qn)
        for abs_a in abs_upper:
            rho *= 1.0 + abs_a * abs_qn
        for abs_b in abs_lower:
            g = 1.0 - abs_b * abs_qn
            if g <= 0.0:
                rho = math.inf
                break
            rho /= g
        if rho < 1.0:
            tail = abs(term) * rho / (1.0 - rho)
            if tail <= EPS_SERIES * (1.0 + abs(total)):
                return _Sum(n, total, qn, tail, rho, term, True)
    return _after_term(n, term, total, qn, rho)


def _long_terms(series: _Series, count: int, state: _Sum) -> _Sum:
    """_term_loop in numpy's own complex arithmetic: the same stop rule
    and events, so that it stops where the loop stops, with a value within
    roundoff of the loop's.

    q^n is pochhammer._power_column, and the terms are
    np.multiply.accumulate over the chain term_n, ratio_n, z, ratio_{n+1},
    z, ...; the factors 1 - c q^n of all
    parameters and q are one 2-D array, num and den their np.prod, and
    every modulus is np.abs.  The first event of the block decides, in the
    loop's order within a term: a terminating upper factor, a vanishing
    lower factor (DomainError), a sum that is not finite (whose modulus
    np.abs gives as inf or nan), the tail bound.
    """
    import numpy as np

    upper, lower, z, q, abs_upper, abs_lower, abs_z, abs_q, reach = series
    powers = _power_column(state.qn, q, count)  # q^n, ..., q^(n + count)
    k = len(upper)
    # A sum that is not finite is an event below, for _sum_blocks to raise.
    with np.errstate(all="ignore"):
        # q's row gives 1 - q q^n, the first factor of den
        w = np.array([*upper, q, *lower])[:, None] * powers[:-1]
        factors = 1.0 - w
        chain = np.empty(2 * count + 1, dtype=complex)
        chain[0] = state.carry
        chain[1::2] = np.prod(factors[:k], axis=0) / np.prod(factors[k:], axis=0)
        chain[2::2] = z
        terms = np.multiply.accumulate(chain)[2::2]  # term_(n+1), ..., term_(n+count)
        sums, sizes = _running_sums(state.total, terms)
        abs_qn = np.abs(powers[1:])
        rho = abs_z / (1.0 - abs_q * abs_qn)
        for abs_a in abs_upper:
            rho = rho * (1.0 + abs_a * abs_qn)
        for abs_b in abs_lower:
            rho = rho / (1.0 - abs_b * abs_qn)
        if lower:  # the loop's rho is inf where some 1 - |b| |q|^(n+1) <= 0
            rho[1.0 - max(abs_lower) * abs_qn <= 0.0] = math.inf
        tails = np.abs(terms) * rho / (1.0 - rho)
        stops = ((rho < 1.0) & (tails <= EPS_SERIES * (1.0 + sizes[1:]))) | ~(sizes[1:] < math.inf)
        # as in the loop, |a q^n| < 1/4 at the block's first term keeps
        # every factor of the block far from the snap
        snappable = reach * abs(state.qn) >= 0.25
        if snappable:
            snap = np.abs(factors) <= _TERMINATION_SNAP * (1.0 + np.abs(w))
            upper_snap, lower_snap = snap[:k].any(axis=0), snap[k + 1:].any(axis=0)
            stops |= upper_snap | lower_snap
    events = np.flatnonzero(stops)
    n = state.n
    if not events.size:
        return _after_term(n + count, complex(terms[-1]), complex(sums[-1]),
                           complex(powers[-1]), float(rho[-1]))
    i = int(events[0])
    if snappable and upper_snap[i]:  # term_(n+i+1) is 0: the sum ends at term_(n+i)
        term, rho_i = (complex(terms[i - 1]), float(rho[i - 1])) if i else (state.carry, state.rho)
        return _Sum(n + i, complex(sums[i]), complex(powers[i]), 0.0, rho_i, term, True)
    if snappable and lower_snap[i]:
        raise DomainError("phi_series reached a vanishing lower-parameter factor")
    return _Sum(n + i + 1, complex(sums[i + 1]), complex(powers[i + 1]), float(tails[i]),
                float(rho[i]), complex(terms[i]), True)


def _running_sums(total: complex, terms):
    """Running sums of the complex array `terms` seeded with the carried
    sum `total`, and their moduli: entry k is total plus the first k terms,
    added in order."""
    import numpy as np

    sums = np.add.accumulate(np.concatenate(([total], terms)))
    return sums, np.abs(sums)


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
    return complex(qpoch_ratio([aq, aq / (b * c), aq / (c * d), aq / (b * d)],
                               [aq / b, aq / c, aq / d, aq / (b * c * d)], q))
