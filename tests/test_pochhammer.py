"""q-Pochhammer primitives: examples and product-law invariants."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qkernel import (ConvergenceError, DomainError, PoleError,
                     gf_expand, jackson_q_integral, phi_series, pochhammer, qbinom,
                     qpoch_finite, qpoch_infinite, qpoch_ladder, qpoch_product, qpoch_ratio)
from qkernel.pochhammer import EPS_PRODUCT, _split, _truncation_length, qpoch_finite_table

# Property tests draw the same examples on every run.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
PARAMETER = st.complex_numbers(max_magnitude=3.0)
BASE = st.one_of(st.floats(-0.99, 0.99), st.complex_numbers(max_magnitude=0.99))


def sequential_product(a, q):
    """(a;q)_inf as one factor per step, on the truncation of qpoch_infinite's
    factor form."""
    n = _truncation_length(float(np.max(np.abs(a))), abs(q), EPS_PRODUCT * (1 - abs(q)))
    scalar = np.ndim(a) == 0
    acc = 1.0 + 0j if scalar else np.ones(np.shape(a), dtype=complex)
    qk = 1.0
    for _ in range(n):
        # an array takes np.multiply(acc, factor) explicitly: from 256 KiB up
        # numpy evaluates acc * factor in place in the temporary factor, with
        # the operands of its complex multiply swapped
        acc = acc * (1.0 - a * qk) if scalar else np.multiply(acc, 1.0 - a * qk)
        qk = qk * q
    return complex(acc) if scalar else acc


def bits(value):
    """The 64-bit patterns of the real and imaginary parts."""
    return np.atleast_1d(np.asarray(value, dtype=complex)).view(np.int64)


# Every engine that needs |q| < 1, called with a valid argument for base q.
ENGINES = {
    "qpoch_infinite": lambda q: qpoch_infinite(0.5, q),
    "qpoch_ladder": lambda q: qpoch_ladder([0.5], q, 4),
    "phi_series": lambda q: phi_series([0.4], 0.5, q),
    "gf_expand": lambda q: gf_expand([0.5], [0.2], q, 4),
    "jackson_q_integral": lambda q: jackson_q_integral(lambda z: z, 0.0, 0.5, q),
}


class TestBase:
    # the last base has finite parts but a modulus past the largest double
    @pytest.mark.parametrize("q", [1.0, -1.0, 1.2, 1j, 0.8 + 0.7j, math.nan,
                                   complex(1.5e308, 1.5e308)])
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_engine_rejects_base_off_the_disk(self, engine, q):
        with pytest.raises(DomainError, match=r"\|q\| < 1"):
            ENGINES[engine](q)


class TestFinite:
    def test_empty_product(self):
        assert qpoch_finite(0.7, 0.3, 0) == 1

    def test_two_factor_product(self):
        # (1 - 0.5)(1 - 0.5*0.3) = 0.5 * 0.85
        assert qpoch_finite(0.5, 0.3, 2) == pytest.approx(0.425, rel=1e-15)

    def test_negative_index_pole(self):
        # (q;q)_{-1} = 1/(q q^{-1}; q)_1 = 1/(1 - 1)
        with pytest.raises(PoleError):
            qpoch_finite(0.3, 0.3, -1)

    def test_negative_index_value(self):
        # (a;q)_{-2} = 1/(a q^{-2}; q)_2, checked by direct product
        a, q = 0.2, 0.4
        direct = 1.0 / ((1 - a * q**-2) * (1 - a * q**-1))
        assert qpoch_finite(a, q, -2) == pytest.approx(direct, rel=1e-14)

    def test_negative_index_needs_nonzero_q(self):
        with pytest.raises(DomainError):
            qpoch_finite(0.5, 0.0, -1)

    # refused once per call, before the factor loop, for every index sign;
    # the last four have finite parts whose modulus is past the largest
    # double, where the products were nan+nanj
    @pytest.mark.parametrize("a,q,n", [
        (math.nan, 0.3, 3), (math.inf, 0.3, 2), (complex(0.5, math.nan), 0.3, 0),
        (np.array([0.2, math.nan]), 0.3, 2), (0.5, math.nan, 2), (0.5, -math.inf, 1),
        (math.nan, 0.3, -2),
        (complex(1.5e308, 1.5e308), 0.9, 3), (np.array([0.5, complex(1.5e308, -1.5e308)]), 0.9, 3),
        (0.5, complex(1.5e308, 1.5e308), 2), (complex(-1.5e308, 1.5e308), 0.9, -2),
    ])
    def test_non_finite_argument_is_refused(self, a, q, n):
        with pytest.raises(DomainError, match="qpoch_finite needs finite arguments"):
            qpoch_finite(a, q, n)

    def test_negative_index_inverse_law(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = complex(*rng.uniform(-0.7, 0.7, 2))
            q = rng.uniform(0.1, 0.8)
            n = int(rng.integers(1, 6))
            product = qpoch_finite(a, q, -n) * qpoch_finite(a * q**-n, q, n)
            assert product == pytest.approx(1.0, rel=1e-11)


class TestFiniteTable:
    @PROPERTY
    @given(a=PARAMETER, q=BASE, n=st.integers(0, 80))
    @example(a=0.7 - 0.2j, q=0.99, n=80)
    @example(a=1.0 + 0j, q=-0.5, n=5)
    def test_entries_are_qpoch_finite_bit_for_bit(self, a, q, n):
        table = qpoch_finite_table(a, q, n)
        assert len(table) == n + 1
        # the retired per-index factor loop, one call per k
        for k in range(n + 1):
            acc, qk = 1.0, 1.0
            for _ in range(k):
                acc = acc * (1.0 - a * qk)
                qk = qk * q
            assert repr(table[k]) == repr(qpoch_finite(a, q, k)) == repr(acc)

    def test_array_argument(self):
        a = np.array([0.3, -0.5 + 0.2j, 0.9j])
        table = qpoch_finite_table(a, 0.45, 12)
        for k, entry in enumerate(table):
            np.testing.assert_array_equal(bits(entry), bits(qpoch_finite(a, 0.45, k)))

    def test_vanishing_factor_gives_exact_zeros(self):
        # 1 - 2 q = 0 at q = 1/2, so every entry from k = 2 on is zero
        assert qpoch_finite_table(2.0, 0.5, 4) == [1.0, -1.0, 0.0, 0.0, 0.0]

    def test_degree_zero(self):
        assert qpoch_finite_table(0.7, 0.3, 0) == [1.0]

    def test_negative_degree_is_refused(self):
        with pytest.raises(DomainError):
            qpoch_finite_table(0.7, 0.3, -1)

    @pytest.mark.parametrize("a,q", [(math.inf, 0.3), (math.nan, 0.3), (0.7, math.nan),
                                     (np.array([0.3, -math.inf]), 0.45),
                                     (complex(1.5e308, 1.5e308), 0.45),
                                     (np.array([0.3, complex(1.5e308, 1.5e308)]), 0.45)])
    def test_non_finite_argument_is_refused(self, a, q):
        # the table was [1, -inf, inf] at a = inf, and nan+nanj entries for a
        # modulus past the largest double
        with pytest.raises(DomainError, match="qpoch_finite_table needs finite arguments"):
            qpoch_finite_table(a, q, 2)


class TestInfinite:
    def test_zero_argument(self):
        assert qpoch_infinite(0.0, 0.5) == 1

    def test_unit_argument_kills_first_factor(self):
        assert qpoch_infinite(1.0, 0.5) == 0

    def test_against_long_brute_force_product(self):
        brute = 1.0
        for k in range(200):
            brute *= 1 - 0.5 * 0.5**k
        assert qpoch_infinite(0.5, 0.5) == pytest.approx(brute, rel=EPS_PRODUCT * 10)

    def test_brute_force_cloud(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            a = complex(*rng.uniform(-0.9, 0.9, 2))
            q = rng.uniform(-0.8, 0.8)
            brute = 1.0 + 0j
            for k in range(400):
                brute *= 1 - a * q**k
            got = qpoch_infinite(a, q)
            assert abs(got - brute) <= 20 * EPS_PRODUCT * (1 + abs(brute))

    def test_splitting_law(self):
        # (a;q)_inf = (a;q)_n (a q^n; q)_inf
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = complex(*rng.uniform(-0.8, 0.8, 2))
            q = rng.uniform(0.05, 0.85) * rng.choice([-1, 1])
            n = int(rng.integers(0, 51))
            whole = qpoch_infinite(a, q)
            split = qpoch_finite(a, q, n) * qpoch_infinite(a * q**n, q)
            assert whole == pytest.approx(split, rel=1e-10, abs=1e-12)

    def test_array_argument_matches_scalars(self):
        # q = 0.9, 0.99 and 0.95 e^{0.2i} sum the log series, the scalars in
        # Python arithmetic and the arrays in numpy
        values = np.array([0.2 + 0.1j, -0.5, 0.9j])
        for q in (0.4, 0.9, 0.99, cmath.rect(0.95, 0.2)):
            batch = qpoch_infinite(values, q)
            for got, a in zip(batch, values):
                assert got == pytest.approx(qpoch_infinite(complex(a), q), rel=1e-14)

    @pytest.mark.parametrize("q,split", [
        (0.3, (29, 0)), (0.6, (70, 0)),                         # factors only
        (0.9, (20, 17)), (0.99, (207, 18)), (0.999, (2079, 19)),  # K factors, M terms
    ])
    def test_split_at_unit_modulus(self, q, split):
        # the factor form takes N = 350, 3895 and 41426 factors at 0.9, 0.99
        # and 0.999; the series form stops the factors at |q^K| < 1/8
        assert _split(1.0, q) == split
        assert _truncation_length(1.0, q, EPS_PRODUCT * (1 - q)) == {
            0.3: 29, 0.6: 70, 0.9: 350, 0.99: 3895, 0.999: 41426}[q]

    # finite parts whose modulus is past the largest double: the scalar path
    # let abs()'s bare OverflowError out, where the array path refused |a| = inf
    @pytest.mark.parametrize("call", [
        lambda: qpoch_infinite(complex(1.5e308, 1.5e308), 0.9),
        lambda: qpoch_infinite(np.array([complex(1.5e308, 1.5e308)]), 0.9),
        lambda: qpoch_product([0.3, complex(1.5e308, -1.5e308)], 0.9),
    ])
    def test_modulus_past_the_largest_double_is_refused(self, call):
        with pytest.raises(DomainError, match=r"finite argument, got \|a\| = inf"):
            call()

    def test_cap_hit_raises(self, monkeypatch):
        monkeypatch.setattr("qkernel.pochhammer.MAX_PRODUCT_TERMS", 16)
        with pytest.raises(ConvergenceError, match="cap is 16"):
            qpoch_infinite(0.5, 0.999)
        # the ladder's rungs add factors, but only the tail length is capped
        with pytest.raises(ConvergenceError, match="cap is 16"):
            qpoch_ladder([0.5], 0.999, 1)
        assert qpoch_ladder([0.5], 0.1, 64).shape == (64, 1)

    def test_blocked_product_is_the_sequential_product_bit_for_bit(self):
        # the factor blocks keep the order ((1 - a)(1 - q a))(1 - q^2 a)...
        # and the powers q^k = q^{k-1} q of a factor-by-factor loop; a draw
        # whose split sums the log series is skipped (test_oracle checks it)
        rng = np.random.default_rng(29)
        compared = 0
        for case in range(240):
            q = float(rng.choice([0.3, -0.6, rng.uniform(-0.99, 0.99)]))
            kind = case % 4
            if kind == 0:
                a = float(rng.uniform(-3, 3))
            elif kind == 1:
                a = complex(*rng.uniform(-3, 3, 2))
            elif kind == 2:
                a = rng.uniform(-2, 2, int(rng.integers(1, 600)))
            else:
                shape = (int(rng.integers(1, 6)), int(rng.integers(1, 200)))
                a = rng.uniform(-2, 2, shape) + 1j * rng.uniform(-2, 2, shape)
            if _split(float(np.max(np.abs(a))), abs(q))[1]:
                continue
            got, want = qpoch_infinite(a, q), sequential_product(a, q)
            assert type(got) is type(want)
            assert np.array_equal(bits(got), bits(want)), (q, np.shape(a))
            compared += 1
        assert compared >= 200

    @PROPERTY
    @given(a=st.one_of(st.floats(-3.0, 3.0), PARAMETER), q=st.floats(-0.78, 0.78))
    def test_scalar_is_the_python_factor_loop_bit_for_bit(self, a, q):
        # a scalar in the factor form never reaches numpy; complex q is
        # checked against mp.qp (test_oracle), as it rounds differently
        assume(not _split(abs(a), abs(q))[1])
        got = qpoch_infinite(a, q)
        assert type(got) is complex
        assert np.array_equal(bits(got), bits(sequential_product(complex(a), q)))

    @pytest.mark.parametrize("argument", [math.nan, math.inf, -math.inf, complex(0.5, math.nan)])
    def test_non_finite_argument_is_refused(self, argument):
        for a in (argument, np.array([0.5, argument])):
            for q in (0.5, 0.95):  # the factor and the series form
                with pytest.raises(DomainError, match="finite argument"):
                    qpoch_infinite(a, q)
            with pytest.raises(DomainError, match="finite argument"):
                qpoch_ladder(np.atleast_1d(a), 0.5, 3)

    @pytest.mark.parametrize("q", [0.3, 0.95])  # the factor and the series form
    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_array_gives_an_empty_result(self, q, shape):
        # the largest |a| of no points is 0, which takes no factor
        got = qpoch_infinite(np.zeros(shape), q)
        assert got.shape == shape and got.dtype == complex

    @pytest.mark.parametrize("size", [4096, 4097, 16383, 16384, 20000])
    def test_wide_arrays_are_the_sequential_product_bit_for_bit(self, size):
        # from 4097 points a block holds one row; from 16384 points (256 KiB)
        # numpy would swap the operands of acc * (1 - a q^k) (see
        # sequential_product)
        rng = np.random.default_rng(size)
        real = rng.uniform(-2, 2, size)
        for a in (real, real + 1j * rng.uniform(-2, 2, size)):
            for q in (0.3, -0.6):
                got, want = qpoch_infinite(a, q), sequential_product(a, q)
                assert np.array_equal(bits(got), bits(want)), (q, a.dtype)


class TestLadder:
    VALUES = np.array([0.5, -0.9, 0.7 - 0.4j, 1.8j, 0.0, 0.95 + 0.2j])

    @pytest.mark.parametrize("q", [0.3, -0.6, 0.9, 0.5 + 0.3j])
    def test_first_row_is_the_infinite_product(self, q):
        # the same factors multiplied from the other end: a few ulps apart
        # (at most 7 measured)
        row = qpoch_ladder(self.VALUES, q, 1)
        assert row.shape == (1, len(self.VALUES))
        for got, a in zip(row[0], self.VALUES):
            want = qpoch_infinite(complex(a), q)
            assert abs(got - want) <= 2.0**-48 * abs(want)

    def test_negligible_arguments_take_no_factor(self):
        # below the tail bound qpoch_infinite is exactly 1, and so is each row
        table = qpoch_ladder([1e-20, 0.0], 0.5, 3)
        assert table.shape == (3, 2)
        assert np.all(table == 1) and qpoch_infinite(1e-20, 0.5) == 1

    @pytest.mark.parametrize("q", [0.3, -0.6, 0.95, 0.5 + 0.3j])
    def test_rows_follow_the_ladder(self, q):
        # row i is (v q^i; q)_inf; 8.1e-15 measured at q=0.95
        table = qpoch_ladder(self.VALUES, q, 64)
        for i in (0, 1, 7, 63):
            want = qpoch_infinite(self.VALUES * q**i, q)
            assert np.all(np.abs(table[i] - want) <= 1e-13 * np.abs(want))

    def test_negative_count_is_refused(self):
        with pytest.raises(DomainError):
            qpoch_ladder([0.5], 0.3, -1)
        assert qpoch_ladder([0.5, 0.2], 0.3, 0).shape == (0, 2)

    @pytest.mark.parametrize("q", [0.3, 0.95])
    def test_no_values_give_empty_rows(self, q):
        table = qpoch_ladder([], q, 4)
        assert table.shape == (4, 0) and table.dtype == complex


@pytest.fixture
def product_calls(monkeypatch):
    """The arguments of every qpoch_infinite call made through the module."""
    calls = []
    qpoch_infinite = pochhammer.qpoch_infinite

    def counted(a, q):
        calls.append(a)
        return qpoch_infinite(a, q)

    monkeypatch.setattr(pochhammer, "qpoch_infinite", counted)
    return calls


def unshared_product(values, q):
    """(a_1, ..., a_k; q)_inf as one qpoch_infinite per argument, left to right."""
    out = qpoch_infinite(values[0], q)
    for a in values[1:]:
        out = out * qpoch_infinite(a, q)
    return out


class TestMulti:
    """qpoch_product, the infinite symbol of several arguments."""

    PLUS = np.exp(1j * np.linspace(0.0, 2 * np.pi, 64, endpoint=False))
    # (values, qpoch_infinite calls for a real base)
    CASES = [
        ([0.5, -0.3, 0.5, 0.5], 2),                         # repeated real values
        ([0.4 + 0.3j, 0.2, 0.4 - 0.3j, 0.4 + 0.3j], 2),     # scalar conjugate pair
        ([PLUS, PLUS.conjugate(), 0.5 * PLUS, 0.5 * PLUS.conjugate(), PLUS**2], 3),
        ([0.3 * PLUS, 0.7 * PLUS.conjugate(), 0.3 * PLUS**2], 3),  # nothing shared
    ]

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            qpoch_product([], 0.3)

    def test_singleton_infinite(self):
        assert qpoch_product([0.5], 0.3) == qpoch_infinite(0.5, 0.3)

    @pytest.mark.parametrize("q", [0.3, -0.6, 0.9])
    @pytest.mark.parametrize("values,calls", CASES)
    def test_real_base_shares_conjugates_bit_for_bit(self, product_calls, values, calls, q):
        got = qpoch_product(values, q)
        assert len(product_calls) == calls
        assert np.array_equal(bits(got), bits(unshared_product(values, q)))

    @pytest.mark.parametrize("values", [values for values, _ in CASES])
    def test_complex_base_shares_nothing(self, product_calls, values):
        q = 0.5 + 0.3j
        got = qpoch_product(values, q)
        assert len(product_calls) == len(values)
        assert np.array_equal(bits(got), bits(unshared_product(values, q)))


class TestRatio:
    """qpoch_ratio, the quotient of two qpoch_product sides."""

    PLUS = np.exp(1j * np.linspace(0.0, 2 * np.pi, 16, endpoint=False))
    CASES = [  # numerators, denominators
        ([0.5], [0.2]),
        ([0.4 + 0.3j, 0.4 - 0.3j, -0.6], [0.2j, 0.7, -0.2j]),
        ([PLUS, PLUS.conjugate()], [0.4 * PLUS, 0.3 * PLUS.conjugate()]),
        ([0.5 * PLUS, 0.5 * PLUS.conjugate(), PLUS**2], [0.2 * PLUS, 0.2 * PLUS.conjugate()]),
    ]

    @pytest.mark.parametrize("q", [0.3, -0.6, 0.9, 0.5 + 0.3j])
    @pytest.mark.parametrize("numerators,denominators", CASES)
    def test_is_the_quotient_of_the_products_bit_for_bit(self, numerators, denominators, q):
        got = qpoch_ratio(numerators, denominators, q)
        want = qpoch_product(numerators, q) / qpoch_product(denominators, q)
        assert type(got) is type(want)
        assert np.array_equal(bits(got), bits(want))

    def test_vanishing_scalar_denominator_is_a_pole(self):
        # (1; q)_inf = 0: its first factor is 1 - 1
        with pytest.raises(PoleError, match=r"the denominator \(1\.0; q\)_inf is 0"):
            qpoch_ratio([0.5], [1.0], 0.3)
        with pytest.raises(PoleError, match=r"\(0\.2, \(1\+0j\); q\)_inf"):
            qpoch_ratio([0.5, 0.4j], [0.2, 1 + 0j], 0.5 + 0.3j)
        # (0.9999; 0.999)_inf is below the smallest double
        assert qpoch_infinite(0.9999, 0.999) == 0
        with pytest.raises(PoleError, match=r"\(0\.9999; q\)_inf is 0"):
            qpoch_ratio([0.5], [0.9999], 0.999)

    def test_array_divides_as_numpy_does(self):
        # the denominator (a; q)_inf is exactly zero at a = 1, entry 1
        a = np.array([0.5, 1.0, -0.3 + 0.2j])
        with np.errstate(divide="ignore", invalid="ignore"):
            got = qpoch_ratio([0.5 * a], [a], 0.3)
        assert not np.isfinite(got[1])
        assert np.isfinite(got[[0, 2]]).all()


class TestAdditionLaw:
    def test_index_addition(self):
        # (a;q)_{m+n} = (a;q)_m (a q^m; q)_n
        rng = np.random.default_rng(3)
        for _ in range(40):
            a = complex(*rng.uniform(-0.85, 0.85, 2))
            q = complex(*rng.uniform(-0.6, 0.6, 2))
            m = int(rng.integers(0, 12))
            n = int(rng.integers(0, 12))
            lhs = qpoch_finite(a, q, m + n)
            rhs = qpoch_finite(a, q, m) * qpoch_finite(a * q**m, q, n)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestQBinom:
    def test_empty_selection(self):
        assert qbinom(5, 0, 0.3) == 1

    def test_one_of_two(self):
        q = 0.37
        assert qbinom(2, 1, q) == pytest.approx(1 + q, rel=1e-15)

    def test_symmetry(self):
        assert qbinom(4, 1, 0.2) == pytest.approx(qbinom(4, 3, 0.2), rel=1e-14)

    def test_out_of_range_is_zero(self):
        assert qbinom(4, -1, 0.2) == 0
        assert qbinom(4, 5, 0.2) == 0

    def test_root_of_unity_base_is_refused(self):
        for n, k, q in [(4, 2, 1.0), (4, 2, -1.0), (5, 4, 1j)]:
            with pytest.raises(DomainError, match="denominator"):
                qbinom(n, k, q)
        # a zero only in the numerator (q;q)_n is a value: [4 2]_i = 0
        assert qbinom(4, 2, 1j) == 0

    @pytest.mark.parametrize("q,k", [(1e200, 2), (1e60, 3), (-1e200j, 2)])
    def test_huge_base_is_refused(self, q, k):
        # (q;q)_k overflows at the k named, at 1e60 while q^k is still
        # finite; the quotient was nan
        with pytest.raises(DomainError, match=rf"finite powers of q, but \(q;q\)_{k} ="):
            qbinom(8, 4, q)

    def test_pascal_recurrence(self):
        # [n k] = [n-1 k-1] + q^k [n-1 k]
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = complex(*rng.uniform(-0.6, 0.6, 2))
            for n in range(1, 31):
                for k in range(0, n + 1, max(1, n // 4)):
                    lhs = qbinom(n, k, q)
                    rhs = qbinom(n - 1, k - 1, q) + q**k * qbinom(n - 1, k, q)
                    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)
