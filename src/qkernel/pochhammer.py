"""q-Pochhammer products and q-binomial coefficients.

The finite symbol is (a;q)_n = prod_{k=0}^{n-1} (1 - a q^k) with (a;q)_0 = 1,
extended to negative index by the convention (a;q)_{-n} = 1/(a q^{-n}; q)_n.
qpoch_finite_table returns (a;q)_0, ..., (a;q)_n as the prefixes of the same
factor loop, so a caller that needs every index up to n pays n factors, not
O(n^2), and reads the same values bit for bit.
The infinite symbol (a;q)_inf converges for |q| < 1.  Its factor form is
truncated after N factors, where N is the smallest integer with

    |a| |q|^N / (1 - |q|)  <  EPS_PRODUCT,

which certifies a relative truncation error of at most twice that bound once
the bound is below 1/2 (Gasper & Rahman, *Basic Hypergeometric Series*,
section 1.3).  Near |q| = 1 that is many factors (N = 350 at q = 0.9 and
|a| = 1, 3895 at 0.99), so the product keeps only the first K factors, K
the first index with |a q^K| < 1/8, and sums the rest as the log series
(same section)

    log (b;q)_inf = -sum_{n >= 1} b^n / (n (1 - q^n)),   b = a q^K,

cut after M terms, the first M with

    |b|^(M+1) / ((1 - |q|) (1 - |b|))  <  EPS_PRODUCT,

which bounds the dropped terms (|1 - q^n| >= 1 - |q| and 1/n <= 1), so the
relative error of the tail is about that bound.  At |a| = 1 this is
K + M = 20 + 17 rows at q = 0.9, 207 + 18 at 0.99 and 2079 + 19 at 0.999,
where N = 41426 would pass the MAX_PRODUCT_TERMS cap.  The series form is
taken only where it saves at least _SERIES_SAVING rows; below about
|q| = 0.78 every product keeps the factor form.  _split makes this choice,
from q and the largest |a| alone, for qpoch_infinite and for qpoch_ladder,
which tabulates (v q^i; q)_inf down a Jackson ladder.  A scalar product
runs one Python loop, without numpy, in the factor form (M = 0) and in a
series form of at most _SCALAR_SERIES_ROWS rows K + M (q = 0.9 and 0.99
at |a| = 1); arrays and longer splits run numpy blocks.  qpoch_product
multiplies several infinite symbols and, for real q, shares a conjugate
pair of arguments between one product and its conjugate.  qpoch_ratio
divides one qpoch_product by another; every closed form, weight and
integrand that is a quotient of infinite products is formed by it, and a
scalar quotient is a pole exactly where its denominator is 0.
"""

from __future__ import annotations

import cmath
import math

from .errors import ConvergenceError, DomainError, PoleError


# Truncation budget of qpoch_infinite: relative tail bound, and the cap on
# its factors plus series terms.
EPS_PRODUCT = 1e-15
MAX_PRODUCT_TERMS = 10_000

# Negative-index denominators this close to zero (relative) are poles.
_POLE_SNAP = 1e-12

# Elements per factor block of qpoch_infinite; keeps the temporaries of one
# block near the size of the arrays a factor-by-factor loop allocates.
_BLOCK_ELEMENTS = 2**13

# qpoch_infinite sums a log series after K factors, K the first index with
# max |a q^K| below _SERIES_RADIUS, where that saves _SERIES_SAVING rows.
_SERIES_RADIUS = 1.0 / 8.0
_SERIES_SAVING = 128

# A scalar whose series form has at most this many rows K + M is summed in
# Python complex arithmetic; numpy's set-up costs more than such a loop.
_SCALAR_SERIES_ROWS = 256

# Arguments qpoch_infinite and qpoch_product treat as one complex number; the
# rest, numpy scalars too, take the array paths, which alone import numpy.
_SCALARS = (int, float, complex)


def check_base(q) -> None:
    """DomainError unless the base q lies strictly inside the unit disk
    (a NaN base is refused too, and so is a complex one whose modulus is
    past the largest double)."""
    try:
        modulus = abs(q)
    except OverflowError:
        modulus = math.inf
    if not modulus < 1.0:
        raise DomainError(f"base q must satisfy |q| < 1, got |q| = {modulus}")


def _check_finite(name: str, *values) -> None:
    """DomainError unless every value, a scalar or an array, is finite and,
    if complex, has a finite modulus (finite parts can lie past the largest
    double).  Callers check once per call, before their factor loops."""
    for value in values:
        scalar = isinstance(value, _SCALARS)
        if not scalar:
            import numpy as np
        try:  # abs(nan) < inf is False
            finite = abs(value) < math.inf if scalar else (np.abs(value) < math.inf).all()
        except OverflowError:  # abs() of a complex modulus past the largest double
            finite = False
        if not finite:
            raise DomainError(f"{name} needs finite arguments")


def qpoch_finite(a, q, n: int):
    """Finite q-Pochhammer symbol (a;q)_n for any integer n.

    For n < 0 the value is 1/(a q^n; q)_{-n}; a vanishing factor in that
    denominator raises PoleError, and q = 0 raises DomainError.  `a` may be
    an array.  A NaN or infinite a or q is a DomainError, and so is a
    complex one whose modulus is past the largest double.
    """
    _check_finite("qpoch_finite", a, q)
    if n >= 0:
        return _ascending_products(a, q, n)[-1]
    if q == 0:
        raise DomainError("(a;q)_n with n < 0 requires q != 0")
    return 1.0 / _ascending_products(a * q**n, q, -n, check_poles=True)[-1]


def qpoch_finite_table(a, q, n: int) -> list:
    """[(a;q)_0, ..., (a;q)_n] for n >= 0, the prefixes of one factor loop,
    so entry k equals qpoch_finite(a, q, k) bit for bit; DomainError for
    n < 0 and for a non-finite a or q (_check_finite).  `a` may be an array."""
    if n < 0:
        raise DomainError(f"qpoch_finite_table needs n >= 0, got {n}")
    _check_finite("qpoch_finite_table", a, q)
    return _ascending_products(a, q, n)


def _ascending_products(a, q, n, check_poles=False) -> list:
    """[1, (1 - a), (1 - a)(1 - a q), ...]: the n + 1 prefixes of the
    sequential product of the factors 1 - a q^k, k < n."""
    acc = 1.0
    qk = 1.0
    products = [acc]
    for _ in range(n):
        w = a * qk
        factor = 1.0 - w
        if check_poles:
            small = abs(factor) <= _POLE_SNAP * (1.0 + abs(w))  # a bool, or a numpy array
            if small if isinstance(small, bool) else small.any():
                raise PoleError("negative-index q-Pochhammer symbol hit a vanishing factor")
        acc = acc * factor
        qk = qk * q
        products.append(acc)
    return products


def qpoch_infinite(a, q):
    """Infinite q-Pochhammer symbol (a;q)_inf, for |q| < 1.

    `a` may be an array; the form (module docstring) and its truncation are
    chosen from q and the largest |a| alone, never from the number of
    points, so the certified tail bound holds elementwise.  A NaN or
    infinite argument is a DomainError.  A scalar in the factor form, or
    in the series form with at most _SCALAR_SERIES_ROWS rows K + M, is the
    sequential product ((1 - a)(1 - q a))(1 - q^2 a)... of its K head
    factors in Python complex numbers, q^k = q^(k-1) q as qpoch_finite
    forms it, times the exponential of its log series (_scalar_product).
    An array, or a scalar with a longer split, takes the same factors in
    blocks of rows k and columns a, at most _BLOCK_ELEMENTS entries each,
    each block reduced over its rows after the running product is
    multiplied into its first row; in the factor form this is numpy's
    sequential product np.multiply(acc, 1 - a q^k) bit for bit.
    The series forms are accurate, not bit for bit with the factor loop or
    with each other.
    """
    check_base(q)
    scalar = isinstance(a, _SCALARS)
    if scalar:
        points = complex(a)
        try:
            modulus = abs(points)
        except OverflowError:  # finite parts, modulus past the largest double
            modulus = math.inf  # refused by _split as on the array path
        n_factors, n_terms = _split(modulus, abs(q))
        if not n_terms or n_factors + n_terms <= _SCALAR_SERIES_ROWS:
            # Python's complex arithmetic, no numpy set-up
            return _scalar_product(points, complex(q), n_factors, n_terms)
    import numpy as np
    points = np.asarray(a, dtype=complex)
    if not scalar:
        n_factors, n_terms = _split(float(np.abs(points).max(initial=0.0)), abs(q))
    powers = _power_column(1.0, q, max(n_factors, n_terms))
    head = powers[:n_factors, None]
    row = points.reshape(1, -1)
    acc = np.ones(row.shape[1], dtype=complex)
    rows = max(1, _BLOCK_ELEMENTS // max(1, row.shape[1]))
    for start in range(0, n_factors, rows):
        block = head[start:start + rows] * row
        np.subtract(1.0, block, out=block)
        np.multiply(acc, block[0], out=block[0])
        acc = np.multiply.reduce(block, axis=0)
    if n_terms:
        acc = acc * _log_series(np, powers[n_factors] * row, powers, n_terms)
    return complex(acc[0]) if points.ndim == 0 else acc.reshape(points.shape)


def _scalar_product(a: complex, q: complex, n_factors: int, n_terms: int) -> complex:
    """(a;q)_inf in the split (K, M) = (n_factors, n_terms), in Python
    complex arithmetic: the K head factors as _ascending_products forms
    them, times exp(-sum_{n=1}^{M} b^n / (n (1 - q^n))) with b = a q^K,
    b^n and q^n running products, summed from the smallest term (the
    factor form is M = 0)."""
    head = 1.0
    qk = 1.0
    for _ in range(n_factors):
        head = head * (1.0 - a * qk)
        qk = qk * q
    b = a * qk
    terms = []
    bn = qn = 1.0
    for n in range(1, n_terms + 1):
        bn = bn * b
        qn = qn * q
        terms.append(bn / (n * (1.0 - qn)))
    exponent = 0j
    for term in reversed(terms):  # smallest first
        exponent -= term
    return complex(head * cmath.exp(exponent))


def _split(a_max: float, abs_q: float) -> tuple:
    """(K, M): the factors and the log-series terms of (a;q)_inf for the
    largest modulus a_max; (N, 0) is the factor form.  ConvergenceError if
    K + M passes MAX_PRODUCT_TERMS."""
    n_factors = _truncation_length(a_max, abs_q, EPS_PRODUCT * (1.0 - abs_q))
    split = (n_factors, 0)
    if n_factors >= _SERIES_SAVING:
        n_head = _truncation_length(a_max, abs_q, _SERIES_RADIUS)
        b_max = a_max * abs_q**n_head
        # b_max^(M+1) / ((1 - |q|) (1 - b_max)) < EPS_PRODUCT
        n_terms = _truncation_length(b_max, b_max, EPS_PRODUCT * (1.0 - abs_q) * (1.0 - b_max))
        if n_factors - n_head - n_terms >= _SERIES_SAVING:
            split = (n_head, n_terms)
    if sum(split) > MAX_PRODUCT_TERMS:
        raise ConvergenceError(
            f"(a;q)_inf needs {sum(split)} factors and series terms for the tail bound, "
            f"cap is {MAX_PRODUCT_TERMS}"
        )
    return split


def _power_column(start, q, count: int):
    """The complex array start, start q, ..., start q^count, each entry the
    previous one times q (np.multiply.accumulate)."""
    import numpy as np
    steps = np.full(count + 1, q, dtype=complex)
    steps[0] = start
    return np.multiply.accumulate(steps)


def _log_series(np, b, powers, n_terms: int):
    """(b;q)_inf for each entry of the row b (shape (1, points)), all
    |b| < _SERIES_RADIUS, as exp(-sum_{n=1}^{M} b^n / (n (1 - q^n))) with
    M = n_terms and q^n = powers[n]: one (M x points) cumulative product of
    b against the coefficients, real for real q.  `np` is the numpy module
    its callers have imported already."""
    terms = np.multiply.accumulate(np.repeat(b, n_terms, axis=0))
    coeffs = 1.0 / (np.arange(-1.0, -1.0 - n_terms, -1.0) * (1.0 - powers[1:n_terms + 1]))
    return np.exp(coeffs @ terms)


def qpoch_ladder(values, q, count: int):
    """Table of (v q^i; q)_inf = prod_{j >= i} (1 - v q^j), rows i < count,
    columns v in `values`: suffix products of the count - 1 + K factors
    1 - v q^j, closed by the log series of (v q^{count-1+K}; q)_inf, with
    (K, M) qpoch_infinite's split for the largest |v| (same tail bound, base
    check and cap on K + M).  Nothing is divided, so a zero factor at j
    gives exact zeros on rows i <= j and correct rows below.  DomainError
    for count < 0; count = 0 gives an empty table.
    """
    import numpy as np
    if count < 0:
        raise DomainError(f"qpoch_ladder needs count >= 0, got {count}")
    check_base(q)
    values = np.asarray(values, dtype=complex)
    n_factors, n_terms = _split(float(np.abs(values).max(initial=0.0)), abs(q))
    steps = max(count - 1, 0) + n_factors
    powers = _power_column(1.0, q, max(steps, n_terms))
    # a row of ones closes the suffix products in the factor form (M = 0)
    factors = np.ones((steps + 1,) + values.shape, dtype=complex)
    np.subtract(1.0, np.multiply.outer(powers[:steps], values), out=factors[:-1])
    if n_terms:
        # |v q^steps| <= max|v| |q|^K < 1/8, inside the log series' radius
        tail = _log_series(np, powers[steps] * values.reshape(1, -1), powers, n_terms)
        factors[-1] = tail.reshape(values.shape)
    return np.cumprod(factors[::-1], axis=0)[::-1][:count]


def _truncation_length(scale: float, abs_q: float, target: float) -> int:
    """Smallest K >= 0 with scale * abs_q**K < target; DomainError for a
    NaN or infinite scale (the modulus of a product's argument)."""
    if not math.isfinite(scale):
        raise DomainError(f"(a;q)_inf needs a finite argument, got |a| = {scale}")
    if scale < target:
        return 0
    if abs_q == 0.0:
        return 1
    n = max(0, math.ceil(math.log(target / scale) / math.log(abs_q)))
    while scale * abs_q**n >= target:
        n += 1
    return n


def qpoch_product(values, q):
    """(a_1, ..., a_k; q)_inf: the qpoch_infinite products of `values`
    (scalars or same-shape arrays) multiplied left to right.  For real q,
    (conj a; q)_inf = conj (a; q)_inf up to the sign of a zero imaginary
    part, so an argument whose conjugate equals an earlier one (signed
    zeros compare equal; a scalar never equals an array) reuses that
    product's conjugate.
    """
    values = list(values)
    if not values:
        raise DomainError("qpoch_product needs at least one argument")
    share = complex(q).imag == 0
    products = []
    for i, a in enumerate(values):
        j = _conjugate_index(values, i) if share and i else None
        products.append(qpoch_infinite(a, q) if j is None else products[j].conjugate())
    out = products[0]
    for product in products[1:]:
        out = out * product
    return out


def qpoch_ratio(numerators, denominators, q):
    """(a_1, ..., a_j; q)_inf / (b_1, ..., b_k; q)_inf for the lists
    `numerators` a and `denominators` b (scalars or same-shape arrays): the
    denominators' qpoch_product, then the numerators', then one division, so
    each side shares its conjugate pairs.  A scalar quotient whose
    denominator is 0, or underflows to 0, raises PoleError naming the
    denominators; an array quotient divides as numpy does (inf or nan there).
    """
    den = qpoch_product(denominators, q)
    num = qpoch_product(numerators, q)
    try:
        return num / den
    except ZeroDivisionError:  # Python's complex division by zero
        args = ", ".join(map(str, denominators))
        raise PoleError(f"the denominator ({args}; q)_inf is 0") from None


def _conjugate_index(values, i: int):
    """The first j < i with values[j] == conj values[i], or None.  A scalar
    is compared as a Python complex with the earlier scalars, an array with
    the earlier arrays of its shape: a differing first entry or equal bytes
    settle most pairs before the elementwise test, which costs about a
    tenth of a short product."""
    if isinstance(values[i], _SCALARS):
        conjugate = complex(values[i]).conjugate()
        for j in range(i):
            if isinstance(values[j], _SCALARS) and conjugate == values[j]:
                return j
        return None
    import numpy as np
    x = np.conj(values[i])
    for j in range(i):
        y = values[j]
        if (isinstance(y, np.ndarray) and x.shape == y.shape
                and not (x.size and x.item(0) != y.item(0))
                and (x.tobytes() == y.tobytes() or bool((x == y).all()))):
            return j
    return None


def qbinom(n: int, k: int, q):
    """Gaussian binomial coefficient [n choose k]_q = (q;q)_n / ((q;q)_k (q;q)_{n-k}).

    Zero outside 0 <= k <= n.  DomainError where a q^j = 1 makes the
    denominator zero, and where (q;q)_n is not finite (_q_products).
    """
    if n < 0:
        raise DomainError("qbinom needs n >= 0")
    if k < 0 or k > n:
        return 0.0
    products = _q_products("qbinom", q, n)
    denominator = products[k] * products[n - k]
    if denominator == 0:
        raise DomainError(f"a q**j = 1 makes the denominator (q;q)_{k} (q;q)_{n - k} zero")
    return products[n] / denominator


def _q_products(name: str, q, n: int) -> list:
    """[(q;q)_0, ..., (q;q)_n]; DomainError naming the first k at which a
    power q^k or the product (q;q)_k is not finite (a large |q| overflows).
    Once one entry is not finite, every later one is not either."""
    products = qpoch_finite_table(q, q, n)
    if not cmath.isfinite(products[-1]):
        k = next(k for k, p in enumerate(products) if not cmath.isfinite(p))
        raise DomainError(f"{name} needs finite powers of q, but (q;q)_{k} = {products[k]}")
    return products
