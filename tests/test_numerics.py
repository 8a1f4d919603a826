"""Tests for scalar backends, tolerance policy, and the banded matrix."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdoa_susy.numerics import (
    Backend,
    BandMatrix,
    BackendMismatchError,
    DimensionMismatchError,
    ExactScalar,
    ExactnessError,
    NumericsError,
    TolerancePolicy,
    _rooted,
    _signed_max_abs,
    approx_equal_matrix,
    coerce_scalar,
    fits_double,
    parse_rational,
)
from oracles import anticommutator, commutator

EXACT = Backend.EXACT
FLOAT = Backend.FLOAT


# -- oracles: dense copies read through the public ``entries()`` --------------


def to_dense(m):
    """m as a list of rows, with the zero of its backend where it has no entry."""
    zero = ExactScalar(0) if m.backend is EXACT else 0j
    dense = [[zero] * m.dim for _ in range(m.dim)]
    for r, c, v in m.entries():
        dense[r][c] = v
    return dense


def dense_matmul(a, b):
    """Reference O(dim^3) product over dense copies, for cross-checking."""
    assert (a.dim, a.backend) == (b.dim, b.backend)
    da, db = to_dense(a), to_dense(b)
    zero = ExactScalar(0) if a.backend is EXACT else 0j
    out = [[zero] * a.dim for _ in range(a.dim)]
    for r in range(a.dim):
        for c in range(a.dim):
            total = zero
            for k in range(a.dim):
                total = total + da[r][k] * db[k][c]
            out[r][c] = total
    return out


def _rational(s):
    """The Fraction an exact scalar holds; the scalar must be rational."""
    assert s.rad == 1 and not s.im, s
    return s.re


class TestParseRational:
    def test_integer(self):
        assert parse_rational("3") == Fraction(3)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational("+2") == Fraction(2)

    def test_fraction(self):
        assert parse_rational("-7/2") == Fraction(-7, 2)
        assert parse_rational("6/4") == Fraction(3, 2)

    def test_zero_denominator(self):
        with pytest.raises(NumericsError, match="zero denominator"):
            parse_rational("5/0")

    def test_rejects_floats_and_junk(self):
        for bad in ("1.5", "abc", "1/2/3", "", "1e3", "--2"):
            with pytest.raises(NumericsError):
                parse_rational(bad)


class TestTolerancePolicy:
    def test_bound(self):
        policy = TolerancePolicy(1e-12, 1e-10)
        assert policy.bound(100.0) == 1e-12 + 1e-8

    def test_negative_rejected(self):
        with pytest.raises(NumericsError):
            TolerancePolicy(-1.0, 0.0)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(NumericsError, match="finite"):
            TolerancePolicy(value, 0)
        with pytest.raises(NumericsError, match="finite"):
            TolerancePolicy(0, value)

    @pytest.mark.parametrize("value", [10**400, -(10**400), Fraction(10**400, 3)])
    def test_beyond_double_range_rejected(self, value):
        # math.isfinite raises OverflowError on these; the policy must not.
        assert not fits_double(value)
        with pytest.raises(NumericsError, match="finite"):
            TolerancePolicy(value, 0)
        with pytest.raises(NumericsError, match="finite"):
            TolerancePolicy(0, value)

    def test_fits_double(self):
        assert fits_double(0) and fits_double(10**300) and fits_double(Fraction(1, 3))
        assert not fits_double(float("nan")) and not fits_double(float("inf"))


class TestExactScalar:
    def test_perfect_square_folds(self):
        assert ExactScalar(1, 0, 4) == ExactScalar(2)
        assert ExactScalar(1, 0, Fraction(9, 4)) == ExactScalar(Fraction(3, 2))

    def test_square_part_extracted(self):
        assert ExactScalar(1, 0, 8) == ExactScalar(2, 0, 2)
        assert ExactScalar(1, 0, Fraction(8, 9)) == ExactScalar(Fraction(2, 3), 0, 2)

    def test_radicand_denominator_moves_into_the_rational_part(self):
        # sqrt(a/b) = sqrt(a*b)/b: four ints, the radicand a square-free integer
        assert ExactScalar.__slots__ == ("_p", "_q", "_d", "_r")
        for value, parts in ((ExactScalar(1, 0, Fraction(1, 3)), (Fraction(1, 3), 0, 3)),
                             (ExactScalar(1, 0, Fraction(2, 3)), (Fraction(1, 3), 0, 6)),
                             (ExactScalar(2, 4, Fraction(3, 8)), (Fraction(1, 2), 1, 6))):
            assert (value.re, value.im, value.rad) == parts
            assert all(type(part) is Fraction for part in (value.re, value.im, value.rad))
            assert value == ExactScalar(*parts) and hash(value) == hash(ExactScalar(*parts))

    def test_radicand_split_complete_above_old_trial_cap(self):
        big = 10**6 + 3  # prime
        assert ExactScalar(1, 0, 2 * big**2) == ExactScalar(big, 0, 2)
        assert ExactScalar(1, 0, Fraction(1, 3 * big**2)) == ExactScalar(
            Fraction(1, big), 0, Fraction(1, 3)
        )
        # a product of two primes above the cube root is already square-free
        assert ExactScalar(1, 0, big * 1000033).rad == big * 1000033
        # perfect squares fold at any size
        assert ExactScalar(1, 0, (10**12 + 39) ** 2) == ExactScalar(10**12 + 39)

    def test_radicand_above_limit_raises(self):
        with pytest.raises(ExactnessError, match="exceeds"):
            ExactScalar(1, 0, 10**18 + 1)
        with pytest.raises(ExactnessError, match="exceeds"):
            ExactScalar(1, 0, Fraction(1, 2 * 10**18 + 1))

    def test_radicand_split_matches_brute_force(self):
        for n in range(1, 3000):
            s = max(k for k in range(1, math.isqrt(n) + 1) if n % (k * k) == 0)
            assert ExactScalar(1, 0, n) == ExactScalar(s, 0, n // (s * s))

    def test_zero_normalizes(self):
        assert ExactScalar(0, 0, 7) == ExactScalar(0)
        assert ExactScalar(3, 0, 0) == ExactScalar(0)
        assert not ExactScalar(0)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ExactnessError):
            ExactScalar(1, 0, -2)

    def test_mul_same_radical_folds(self):
        s = ExactScalar(1, 0, Fraction(3, 2))
        assert _rational(s * s) == Fraction(3, 2)

    def test_mul_mixed_radicals(self):
        # sqrt(2) * sqrt(8) = 4
        assert ExactScalar(1, 0, 2) * ExactScalar(1, 0, 8) == ExactScalar(4)
        # sqrt(2) * sqrt(6) = 2 sqrt(3)
        assert ExactScalar(1, 0, 2) * ExactScalar(1, 0, 6) == ExactScalar(2, 0, 3)

    def test_gaussian_product(self):
        i = ExactScalar(0, 1)
        assert i * i == ExactScalar(-1)
        assert (ExactScalar(1, 2) * ExactScalar(3, -1)) == ExactScalar(5, 5)

    def test_add_same_radical(self):
        s = ExactScalar(1, 0, 2)
        assert s + s == ExactScalar(2, 0, 2)
        assert s - s == ExactScalar(0)

    def test_add_incompatible_radicals_raises(self):
        with pytest.raises(ExactnessError, match="incompatible"):
            ExactScalar(1, 0, 2) + ExactScalar(1, 0, 3)

    def test_add_zero_is_always_compatible(self):
        s = ExactScalar(1, 0, 2)
        assert s + ExactScalar(0) == s
        assert ExactScalar(0) + s == s

    def test_conjugate_and_neg(self):
        s = ExactScalar(1, 2, 3)
        assert s.conjugate() == ExactScalar(1, -2, 3)
        assert -s == ExactScalar(-1, -2, 3)

    def test_magnitude_and_complex(self):
        s = ExactScalar(3, 4)
        assert s.magnitude() == 5.0
        assert s.to_complex() == complex(3, 4)
        root = ExactScalar(1, 0, 2)
        assert abs(root.to_complex() - complex(math.sqrt(2), 0)) == 0.0

    def test_scalar_rational_mul(self):
        s = ExactScalar(1, 0, 2)
        assert s * Fraction(3, 2) == ExactScalar(Fraction(3, 2), 0, 2)
        assert 2 * s == ExactScalar(2, 0, 2)

    def test_equality_reads_every_part(self):
        # (1 + 2i)/5 * sqrt(2/3), and one value per stored part p, q, d, rn, rd
        # that differs from it in that part only
        base = ExactScalar(Fraction(1, 5), Fraction(2, 5), Fraction(2, 3))
        others = [
            ExactScalar(Fraction(2, 5), Fraction(2, 5), Fraction(2, 3)),
            ExactScalar(Fraction(1, 5), Fraction(3, 5), Fraction(2, 3)),
            ExactScalar(Fraction(1, 7), Fraction(2, 7), Fraction(2, 3)),
            ExactScalar(Fraction(1, 5), Fraction(2, 5), Fraction(5, 3)),
            ExactScalar(Fraction(1, 5), Fraction(2, 5), Fraction(2, 7)),
        ]
        assert base == ExactScalar(Fraction(1, 5), Fraction(2, 5), Fraction(2, 3))
        assert all(base != other and other != base for other in others)

    def test_immutability(self):
        s = ExactScalar(1)
        with pytest.raises(AttributeError):
            s.re = Fraction(2)


def test_exact_closure_thousand_random_rationals():
    # (p/q + r/s) - r/s recovers p/q exactly
    rng = random.Random(20260819)
    for _ in range(1000):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        y = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        a, b = ExactScalar(x), ExactScalar(y)
        assert ((a + b) - b) == a


@given(st.fractions(), st.fractions(), st.fractions())
def test_exact_scalar_arithmetic_matches_fractions(x, y, z):
    a, b, c = ExactScalar(x), ExactScalar(y), ExactScalar(z)
    assert _rational(a * b + c) == x * y + z
    assert _rational((a - b) * c) == (x - y) * z


@settings(max_examples=100, deadline=None)
@given(value=st.one_of(st.integers(-10**30, 10**30), st.booleans(),
                       st.fractions(max_denominator=10**12)))
def test_coerced_rational_equals_the_constructed_one(value):
    coerced = coerce_scalar(value, EXACT)
    built = ExactScalar(value)
    assert (coerced.re, coerced.im, coerced.rad) == (built.re, built.im, built.rad)
    assert all(type(part) is Fraction for part in (coerced.re, coerced.im, coerced.rad))
    assert coerced == built and hash(coerced) == hash(built)


class TestGaussianIntegers:
    # the exact backend takes a complex with integral parts as a Gaussian
    # integer, so structure constants such as 2i are plain data on both backends
    @pytest.mark.parametrize("value, parts", [
        (2j, (0, 2)), (-2j, (0, -2)), (-1j, (0, -1)), (0j, (0, 0)), (complex(3, -4), (3, -4)),
        (complex(-0.0, 0.0), (0, 0)), (complex(2.0**70, 1), (2**70, 1)),
    ])
    def test_integral_parts_are_exact(self, value, parts):
        coerced = coerce_scalar(value, EXACT)
        assert coerced == ExactScalar(*parts) and hash(coerced) == hash(ExactScalar(*parts))
        assert (coerced.re, coerced.im, coerced.rad) == (*parts, 1)

    @pytest.mark.parametrize("value", [
        0.5j, complex(1.5, 0), complex(math.nan, 0), complex(0, math.inf),
        complex(-math.inf, 1), 2.0, 0.0, math.nan,
    ])
    def test_other_floats_are_refused(self, value):
        with pytest.raises(BackendMismatchError, match="cannot represent"):
            coerce_scalar(value, EXACT)

    def test_scaling_by_an_imaginary_unit_matches_the_constructed_scalar(self):
        a = BandMatrix.diagonal([Fraction(1, 3), 2], EXACT)
        assert a.scaled(-2j) == a.scaled(-ExactScalar(0, 2))
        assert a.scaled(1j).scaled(-1j) == a


class TestRootedRadicand:
    # _rooted puts its radicand in lowest terms itself: parts with a common
    # factor give the canonical scalar of the reduced radicand
    @pytest.mark.parametrize("rn, rd", [
        (2, 6), (12, 36), (8, 4), (6, 4), (4, 4), (10**18, 10**18), (2 * 10**18, 4 * 10**18),
        (18, 8), (45, 20),
    ])
    def test_common_factors_reduce(self, rn, rd):
        for p, q, d in ((1, 0, 1), (3, -2, 5), (0, 7, 2)):
            got = _rooted(p, q, d, rn, rd)
            expected = ExactScalar(Fraction(p, d), Fraction(q, d), Fraction(rn, rd))
            assert got == expected and hash(got) == hash(expected)

    def test_one_sixth_root_of_twelve_is_the_root_of_a_third(self):
        assert _rooted(1, 0, 1, 2, 6) == ExactScalar(1, 0, Fraction(1, 3))
        assert (_rooted(1, 0, 1, 2, 6).re, _rooted(1, 0, 1, 2, 6).rad) == (Fraction(1, 3), 3)

    def test_zero_parts_or_radicand_give_zero(self):
        assert _rooted(0, 0, 3, 2, 6) == ExactScalar(0)
        assert _rooted(5, 1, 3, 0, 6) == ExactScalar(0)


def _random_band1(rng, dim, backend):
    entries = {}
    for n in range(1, dim):
        entries[(n - 1, n)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        entries[(n, n - 1)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        entries[(n, n)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    entries[(0, 0)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return BandMatrix.from_entries(dim, entries, backend)


def bands(m):
    """The largest ``row - col`` and ``col - row`` over the nonzero entries of
    m, 0 for an empty matrix."""
    offsets = [c - r for r, c, _ in m.entries()]
    return max([0, *(-d for d in offsets)]), max([0, *offsets])


class TestBandMatrix:
    def test_constructors(self):
        diag = BandMatrix.diagonal([Fraction(1), Fraction(2)], EXACT)
        assert repr(diag) == "BandMatrix(dim=2, backend=exact, offsets=[0])"
        assert list(diag.entries()) == [(0, 0, ExactScalar(1)), (1, 1, ExactScalar(2))]
        zero = BandMatrix.zeros(4, FLOAT)
        assert repr(zero) == "BandMatrix(dim=4, backend=float, offsets=[])"
        assert list(zero.entries()) == [] and zero.max_abs() == 0.0

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(DimensionMismatchError):
            BandMatrix.from_entries(2, {(0, 2): 1.0}, FLOAT)

    def test_band_bookkeeping(self):
        m = BandMatrix.from_entries(4, {(0, 1): 1.0, (3, 1): 2.0}, FLOAT)
        assert bands(m) == (2, 1)
        assert repr(m) == "BandMatrix(dim=4, backend=float, offsets=[-2, 1])"

    def test_zero_entries_pruned(self):
        m = BandMatrix.from_entries(3, {(0, 1): 0.0, (1, 1): 2.0}, FLOAT)
        assert len(list(m.entries())) == 1
        assert repr(m) == "BandMatrix(dim=3, backend=float, offsets=[0])"

    def test_add_sub_scaled(self):
        a = BandMatrix.diagonal([1, 2], FLOAT)
        b = BandMatrix.diagonal([3, 4], FLOAT)
        assert a + b == BandMatrix.diagonal([4, 6], FLOAT)
        assert b - a == BandMatrix.diagonal([2, 2], FLOAT)
        assert a.scaled(2j) == BandMatrix.diagonal([2j, 4j], FLOAT)

    def test_mismatch_errors(self):
        a = BandMatrix.diagonal([1, 1], FLOAT)
        b = BandMatrix.diagonal([1, 1, 1], FLOAT)
        c = BandMatrix.diagonal([1, 1], EXACT)
        with pytest.raises(DimensionMismatchError):
            _ = a + b
        with pytest.raises(BackendMismatchError):
            _ = a @ c

    def test_band1_product_band_bound_and_dense_agreement(self):
        rng = random.Random(7)
        for dim in (2, 3, 8, 16, 32):
            a = _random_band1(rng, dim, FLOAT)
            b = _random_band1(rng, dim, FLOAT)
            prod = a @ b
            assert max(bands(prod)) <= 2
            dense, got = dense_matmul(a, b), to_dense(prod)
            for r in range(dim):
                for c in range(dim):
                    assert abs(got[r][c] - dense[r][c]) < 1e-12

    def test_adjoint_reverses_products(self):
        rng = random.Random(11)
        for dim in (4, 16, 32):
            a = _random_band1(rng, dim, FLOAT)
            b = _random_band1(rng, dim, FLOAT)
            lhs = (a @ b).adjoint()
            rhs = b.adjoint() @ a.adjoint()
            cmp = approx_equal_matrix(lhs, rhs)
            assert cmp.residual < 1e-12

    def test_adjoint_involution_exact(self):
        rng = random.Random(13)
        m = _random_band1(rng, 8, FLOAT)
        assert m.adjoint().adjoint() == m

    def test_exact_matmul_association_order(self):
        # radical ladder entries: (AB)C == A(BC) structurally
        f = [Fraction(0), Fraction(3, 2), Fraction(2), Fraction(7, 2), Fraction(4)]
        dim = 5
        a = BandMatrix.from_entries(
            dim, {(n - 1, n): ExactScalar(1, 0, f[n]) for n in range(1, dim)}, EXACT
        )
        adag = a.adjoint()
        assert (a @ adag) @ a == a @ (adag @ a)

    def test_commutator_anticommutator(self):
        a = BandMatrix.from_entries(2, {(0, 1): 1.0}, FLOAT)
        b = BandMatrix.from_entries(2, {(1, 0): 1.0}, FLOAT)
        assert commutator(a, b) == BandMatrix.diagonal([1, -1], FLOAT)
        assert anticommutator(a, b) == BandMatrix.diagonal([1, 1], FLOAT)


class TestApproxEqualMatrix:
    def test_identical(self):
        eye = BandMatrix.diagonal([1] * 4, FLOAT)
        cmp = approx_equal_matrix(eye, eye)
        assert cmp.passed and cmp.residual == 0.0 and cmp.exact_zero

    def test_below_tolerance(self):
        a = BandMatrix.diagonal([1.0, 2.0], FLOAT)
        b = BandMatrix.diagonal([1.0 + 1e-15, 2.0], FLOAT)
        cmp = approx_equal_matrix(a, b)
        assert cmp.passed and not cmp.exact_zero

    def test_clear_difference(self):
        a = BandMatrix.diagonal([1, 2], FLOAT)
        b = BandMatrix.diagonal([1, 3], FLOAT)
        cmp = approx_equal_matrix(a, b)
        assert not cmp.passed
        assert cmp.residual == 1.0
        assert cmp.scale == 3.0
        assert cmp.worst == (1, 1)

    def test_column_restriction(self):
        a = BandMatrix.diagonal([1, 2, 5], FLOAT)
        b = BandMatrix.diagonal([1, 2, 9], FLOAT)
        assert not approx_equal_matrix(a, b).passed
        assert approx_equal_matrix(a, b, cols=range(2)).passed

    def test_exact_zero_policy_requires_structural_equality(self):
        a = BandMatrix.diagonal([Fraction(1)], EXACT)
        b = BandMatrix.diagonal([Fraction(1) + Fraction(1, 10**30)], EXACT)
        cmp = approx_equal_matrix(a, b, TolerancePolicy(0.0, 0.0))
        assert not cmp.passed  # float magnitude would be ~1e-30, exactness is not

    def test_incompatible_radical_difference_reported(self):
        a = BandMatrix.diagonal([ExactScalar(1, 0, 2)], EXACT)
        b = BandMatrix.diagonal([ExactScalar(1, 0, 3)], EXACT)
        cmp = approx_equal_matrix(a, b, TolerancePolicy(0.0, 0.0))
        assert not cmp.passed and cmp.residual > 0.1


@settings(max_examples=200)
@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_band1_exact_products_match_dense(dim, seed):
    rng = random.Random(seed)
    entries = {}
    for n in range(1, dim):
        entries[(n - 1, n)] = ExactScalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        entries[(n, n - 1)] = ExactScalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    a = BandMatrix.from_entries(dim, entries, EXACT)
    assert to_dense(a @ a) == dense_matmul(a, a)


# -- differential tests: arithmetic against the canonicalizing constructor ----
#
# Each reference builds its result from the plain formula through the public
# constructor, which factors the radicand again; the arithmetic under test
# builds canonical parts directly and must agree structurally.


def _ref_mul(a, b):
    re = a.re * b.re - a.im * b.im
    im = a.re * b.im + a.im * b.re
    return ExactScalar(re, im, a.rad * b.rad)


def _ref_neg(a):
    return ExactScalar(-a.re, -a.im, a.rad)


def _ref_add(a, b):
    if not a:
        return ExactScalar(b.re, b.im, b.rad)
    if not b:
        return ExactScalar(a.re, a.im, a.rad)
    if a.rad != b.rad:
        raise ExactnessError("incompatible radicals")
    return ExactScalar(a.re + b.re, a.im + b.im, a.rad)


def _ref_magnitude(a):
    return math.sqrt(float((a.re * a.re + a.im * a.im) * a.rad))


def _parts(x):
    assert all(type(part) is Fraction for part in (x.re, x.im, x.rad))
    return (x.re, x.im, x.rad)


def _assert_same(result, reference):
    """Equal parts, and equal under ``==`` and ``hash``: ``re``/``im``/``rad``
    reduce through Fraction, so only ``==`` sees an unreduced internal form."""
    assert _parts(result) == _parts(reference)
    assert result == reference
    assert hash(result) == hash(reference)


_small = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_coefficients = st.one_of(st.just(Fraction(0)), _small, st.fractions(max_denominator=10**9))
_radicands = st.one_of(
    st.just(Fraction(1)),
    st.sampled_from([2, 3, 5, 6, 10, 15, 30, Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)]),
    st.fractions(min_value=0, max_value=300, max_denominator=60),
)
_scalars = st.builds(ExactScalar, _coefficients, st.one_of(st.just(0), _coefficients), _radicands)


@settings(max_examples=250)
@given(_scalars, _scalars)
def test_mul_matches_reference(a, b):
    _assert_same(a * b, _ref_mul(a, b))
    _assert_same(b * a, _ref_mul(a, b))


@settings(max_examples=200)
@given(_scalars, st.one_of(st.integers(-50, 50), _small))
def test_rational_mul_matches_reference(a, k):
    expected = ExactScalar(a.re * k, a.im * k, a.rad)
    _assert_same(a * k, expected)
    _assert_same(k * a, expected)


@settings(max_examples=250)
@given(_scalars, _scalars, st.booleans())
def test_add_sub_match_reference(a, b, same_radicand):
    if same_radicand:
        b = ExactScalar(b.re, b.im, a.rad)
    for result, reference in ((lambda: a + b, lambda: _ref_add(a, b)),
                              (lambda: a - b, lambda: _ref_add(a, _ref_neg(b)))):
        try:
            expected = reference()
        except ExactnessError:
            with pytest.raises(ExactnessError):
                result()
        else:
            _assert_same(result(), expected)


@settings(max_examples=300)
@given(_scalars)
def test_neg_conjugate_magnitude_match_reference(a):
    _assert_same(-a, _ref_neg(a))
    _assert_same(a.conjugate(), ExactScalar(a.re, -a.im, a.rad))
    assert float.hex(a.magnitude()) == float.hex(_ref_magnitude(a))
    _assert_same(a - a, ExactScalar(0))


@settings(max_examples=300)
@given(_scalars)
def test_parts_rebuild_the_same_scalar(a):
    _assert_same(a, ExactScalar(a.re, a.im, a.rad))


@settings(max_examples=300)
@given(_scalars)
def test_to_complex_rounds_like_the_fraction_parts(a):
    root = math.sqrt(float(a.rad))
    got, expected = a.to_complex(), complex(float(a.re) * root, float(a.im) * root)
    assert float.hex(got.real) == float.hex(expected.real)
    assert float.hex(got.imag) == float.hex(expected.imag)


def test_magnitude_matches_the_one_division_formula_below_the_double_square():
    # wherever (re^2 + im^2) * rad divides into a double, the magnitude is the
    # correctly rounded sqrt of that one division, bit for bit
    rng = random.Random(20261018)
    radicands = (1, 2, 3, 30, Fraction(1, 2), Fraction(5, 6), Fraction(7, 60))

    def part():
        top = 2 ** rng.randrange(0, 520)
        return Fraction(rng.randrange(-top, top + 1), rng.randrange(1, 2 ** rng.randrange(1, 40)))

    checked = 0
    while checked < 20000:
        a = ExactScalar(part(), part() if rng.random() < 0.5 else 0, rng.choice(radicands))
        try:
            expected = _ref_magnitude(a)
        except OverflowError:
            continue
        assert float.hex(a.magnitude()) == float.hex(expected), a
        checked += 1


def test_magnitude_whose_square_passes_the_double_range():
    assert ExactScalar(2**600).magnitude() == float(2**600)
    assert ExactScalar(0, -(2**600)).magnitude() == float(2**600)
    assert ExactScalar(2**1100).magnitude() == math.inf
    assert math.isclose(ExactScalar(2**600, 0, 2).magnitude(), 2.0**600 * math.sqrt(2))


def test_comparison_beyond_the_double_range_fails_without_raising():
    # incompatible radicals take the complex-float fallback, whose parts overflow
    a = BandMatrix.diagonal([ExactScalar(2**1100, 0, 2)], EXACT)
    b = BandMatrix.diagonal([ExactScalar(1, 0, 3)], EXACT)
    cmp = approx_equal_matrix(a, b)
    assert cmp.residual == math.inf and cmp.scale == math.inf and not cmp.passed


# -- differential tests: diagonal storage against the dict-of-entries kernel --
#
# The references below are the dict-of-entries kernels BandMatrix used before
# it stored diagonals.  They read matrices only through ``entries()``.
# Exact entries share one radicand per example, so no sum mixes radicals and
# the order of a sum cannot decide whether it raises.


def _dict_of(m):
    return {(r, c): v for r, c, v in m.entries()}


def _dict_matmul(a, b):
    rows_of_b = {}
    for (r, c), v in _dict_of(b).items():
        rows_of_b.setdefault(r, []).append((c, v))
    acc = {}
    for (r, k), va in _dict_of(a).items():
        for c, vb in rows_of_b.get(k, ()):
            prod = va * vb
            acc[(r, c)] = acc[(r, c)] + prod if (r, c) in acc else prod
    return acc


def _dict_add(a, b):
    merged = _dict_of(a)
    for key, v in _dict_of(b).items():
        merged[key] = merged[key] + v if key in merged else v
    return merged


def _paired(a, b):
    zero = ExactScalar(0) if a.backend is EXACT else 0j
    ea, eb = _dict_of(a), _dict_of(b)
    return {key: (ea.get(key, zero), eb.get(key, zero)) for key in set(ea) | set(eb)}


def _magnitude(v):
    return v.magnitude() if isinstance(v, ExactScalar) else abs(v)


def _dict_max_abs(m, cols=None):
    worst = 0.0
    for (r, c), v in _dict_of(m).items():
        if cols is None or c in cols:
            worst = max(worst, _magnitude(v))
    return worst


def _dict_compare(a, b, policy, cols):
    """(passed, residual, scale, bound, exact_zero, keys attaining the residual)."""
    ea, eb = _dict_of(a), _dict_of(b)
    zero = ExactScalar(0) if a.backend is EXACT else 0j
    scale = max(_dict_max_abs(a, cols), _dict_max_abs(b, cols))
    diffs, exact_zero = {}, True
    for key in set(ea) | set(eb):
        if cols is not None and key[1] not in cols:
            continue
        va, vb = ea.get(key, zero), eb.get(key, zero)
        if va == vb:
            continue
        exact_zero = False
        if a.backend is EXACT:
            try:
                diffs[key] = (va - vb).magnitude()
            except ExactnessError:
                diffs[key] = abs(va.to_complex() - vb.to_complex())
        else:
            diffs[key] = abs(va - vb)
    residual = max(diffs.values(), default=0.0)
    bound = policy.bound(scale)
    if a.backend is EXACT and policy.absolute == 0.0 and policy.relative == 0.0:
        passed = exact_zero
    else:
        passed = residual <= bound
    at_max = {key for key, d in diffs.items() if d == residual and d > 0.0}
    return passed, residual, scale, bound, exact_zero, at_max


def _bits(v):
    """Bit pattern of a scalar; +0.0 stands for either signed zero."""
    if isinstance(v, ExactScalar):
        return (v.re, v.im, v.rad)
    v = complex(v)
    return (float.hex(v.real + 0.0), float.hex(v.imag + 0.0))


def _same_entries(m, expected):
    """m holds exactly the nonzero entries of the dict ``expected``, bit for bit."""
    kept = {key: v for key, v in expected.items() if v}
    got = _dict_of(m)
    return got.keys() == kept.keys() and all(_bits(got[k]) == _bits(kept[k]) for k in kept)


@st.composite
def band_pairs(draw):
    """Two random band matrices of one dim and backend: offsets -3..3, with
    zeros inside kept diagonals."""
    dim = draw(st.integers(1, 12))
    backend = draw(st.sampled_from([FLOAT, EXACT]))
    rad = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(5, 3)]))
    small = st.integers(-4, 4)
    zero = ExactScalar(0) if backend is EXACT else 0j

    def value():
        if backend is EXACT:
            return ExactScalar(Fraction(draw(small), draw(st.integers(1, 3))), draw(small), rad)
        if draw(st.booleans()):
            return complex(draw(small), draw(small))
        finite = st.floats(-8, 8, allow_nan=False, allow_infinity=False)
        return complex(draw(finite), draw(finite))

    def matrix():
        entries = {}
        offsets = draw(st.sets(st.integers(-3, 3), max_size=4))
        for d in offsets:
            for r in range(max(-d, 0), min(dim, dim - d)):
                if draw(st.integers(0, 3)):
                    entries[(r, r + d)] = value() if draw(st.integers(0, 4)) else zero
        return BandMatrix(dim, backend, entries)

    return matrix(), matrix()


def _terms(a, b):
    """Number of nonzero products a[r,k] * b[k,c] behind each entry (r, c)."""
    rows_of_b = {}
    for r, c, _ in b.entries():
        rows_of_b.setdefault(r, []).append(c)
    count = {}
    for r, k, _ in a.entries():
        for c in rows_of_b.get(k, ()):
            count[(r, c)] = count.get((r, c), 0) + 1
    return count


@settings(max_examples=300, deadline=None)
@given(band_pairs())
def test_matmul_matches_dense_and_dict_kernels(pair):
    a, b = pair
    prod = a @ b
    dense = dense_matmul(a, b)
    for got, expected in zip(to_dense(prod), dense):
        assert list(map(_bits, got)) == list(map(_bits, expected))
    reference = _dict_matmul(a, b)
    if a.backend is EXACT or max(_terms(a, b).values(), default=0) <= 2:
        assert _same_entries(prod, reference)
    else:
        assert _dict_of(prod).keys() <= reference.keys()
    (a_lower, a_upper), (b_lower, b_upper), (lower, upper) = map(bands, (a, b, prod))
    assert lower <= a_lower + b_lower
    assert upper <= a_upper + b_upper


@settings(max_examples=300, deadline=None)
@given(band_pairs(), st.integers(-4, 4))
def test_entrywise_operations_match_dict_kernel(pair, k):
    a, b = pair
    assert _same_entries(a + b, _dict_add(a, b))
    assert _same_entries(a - b, {key: v - w for key, (v, w) in _paired(a, b).items()})
    factor = ExactScalar(k) if a.backend is EXACT else complex(k, 1)
    assert _same_entries(a.scaled(factor), {key: v * factor for key, v in _dict_of(a).items()})
    assert _same_entries(
        a.adjoint(), {(c, r): v.conjugate() for (r, c), v in _dict_of(a).items()}
    )
    for m in (a, b, a + b, a @ b):
        # every kept diagonal, in ascending order, holds a nonzero entry
        offsets = sorted({c - r for r, c in _dict_of(m)})
        assert repr(m) == f"BandMatrix(dim={m.dim}, backend={m.backend.value}, offsets={offsets})"
    rebuilt = BandMatrix(a.dim, a.backend, _dict_of(a))
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert (a == b) == (_dict_of(a) == _dict_of(b))
    assert list((a - a).entries()) == [] and a - a == BandMatrix.zeros(a.dim, a.backend)


@settings(max_examples=300, deadline=None)
@given(band_pairs(), st.integers(0, 13), st.booleans())
def test_max_abs_and_comparison_match_dict_kernel(pair, stop, whole):
    a, b = pair
    cols = None if whole else range(stop)
    assert float.hex(a.max_abs(cols)) == float.hex(_dict_max_abs(a, cols))
    for policy in (TolerancePolicy(), TolerancePolicy(0.0, 0.0), TolerancePolicy(0.5, 0.1)):
        for x, y in ((a, b), (a, a), (a, a + b.scaled(0))):
            cmp = approx_equal_matrix(x, y, policy, cols)
            passed, residual, scale, bound, exact_zero, at_max = _dict_compare(x, y, policy, cols)
            assert (cmp.passed, cmp.exact_zero) == (passed, exact_zero)
            assert float.hex(cmp.residual) == float.hex(residual)
            assert float.hex(cmp.scale) == float.hex(scale)
            assert float.hex(cmp.bound) == float.hex(bound)
            if len(at_max) == 1:
                assert {cmp.worst} == at_max
            elif not at_max:
                assert cmp.worst is None
            else:
                assert cmp.worst in at_max


# Float entries of the signed-sum examples: NaN, infinities in either part,
# and zeros of both signs.
_SPECIAL = [complex("nan"), complex(float("inf"), 1.0), complex(2.0, float("-inf")),
            complex(-0.0, -0.0), complex(-0.0, 3.0), 0j]


@st.composite
def signed_terms(draw):
    """One to three band matrices of one dim and backend with signs ±1, and
    the columns compared: all, or a guard band's.  Offsets -3..3, so some
    diagonals lie in one term only; the second term may repeat a diagonal of
    the first with the sign that cancels it in t0 ± t1."""
    dim = draw(st.integers(1, 10))
    backend = draw(st.sampled_from([FLOAT, EXACT]))
    rad = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(5, 3)]))
    small = st.integers(-4, 4)
    finite = st.floats(-8, 8, allow_nan=False, allow_infinity=False)

    def value():
        if backend is EXACT:
            if not draw(st.integers(0, 4)):
                return ExactScalar(0)
            return ExactScalar(Fraction(draw(small), draw(st.integers(1, 3))), draw(small), rad)
        if not draw(st.integers(0, 3)):
            return draw(st.sampled_from(_SPECIAL))
        return complex(draw(finite), draw(finite))

    def entries():
        found = {}
        for d in draw(st.sets(st.integers(-3, 3), max_size=4)):
            for r in range(max(-d, 0), min(dim, dim - d)):
                if draw(st.integers(0, 3)):
                    found[(r, r + d)] = value()
        return found

    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=3))
    found = [entries() for _ in signs]
    offsets = sorted({c - r for r, c in found[0]})
    if len(signs) > 1 and offsets and draw(st.booleans()):
        d = draw(st.sampled_from(offsets))
        flip = signs[0] == signs[1]  # t0 + t1 cancels on -t0, t0 - t1 on t0
        found[1] = {key: v for key, v in found[1].items() if key[1] - key[0] != d}
        found[1].update({key: -v if flip else v
                         for key, v in found[0].items() if key[1] - key[0] == d})
    terms = [(sign, BandMatrix(dim, backend, e)) for sign, e in zip(signs, found)]
    guard = draw(st.integers(0, min(3, dim - 1)))
    return terms, draw(st.sampled_from([None, range(dim - guard)]))


def _dense_signed_max_abs(terms, cols):
    """Largest magnitude of (s0 t0 + s1 t1) + s2 t2 on dense copies, each term
    negated first where its sign is -1; NaN if any magnitude is NaN."""
    dense = [[[v if sign == 1 else -v for v in row] for row in to_dense(m)] for sign, m in terms]
    dim = terms[0][1].dim
    mags = []
    for r in range(dim):
        for c in range(dim) if cols is None else cols:
            total = dense[0][r][c]
            for other in dense[1:]:
                total = total + other[r][c]
            mags.append(_magnitude(total))
    if any(m != m for m in mags):
        return math.nan
    return max(mags, default=0.0)


@settings(max_examples=400, deadline=None)
@given(signed_terms())
def test_signed_max_abs_matches_dense_sum(example):
    # the one-pass kernel behind every Jacobi and antisymmetry residual, and
    # so behind the oracle the verify tests compare those suites with
    terms, cols = example
    residual = _signed_max_abs(terms, cols)
    assert float.hex(residual) == float.hex(_dense_signed_max_abs(terms, cols))


class TestDiagonalStorage:
    def test_interior_zeros_are_not_entries(self):
        m = BandMatrix.from_entries(4, {(0, 1): 1.0, (1, 2): 0.0, (2, 3): 2.0}, FLOAT)
        assert repr(m) == "BandMatrix(dim=4, backend=float, offsets=[1])"
        assert {(r, c) for r, c, _ in m.entries()} == {(0, 1), (2, 3)}
        assert m == BandMatrix.from_entries(4, {(0, 1): 1.0, (2, 3): 2.0}, FLOAT)

    def test_cancelled_diagonals_are_dropped(self):
        a = BandMatrix.from_entries(3, {(0, 2): 1.0, (1, 1): 1.0}, FLOAT)
        b = BandMatrix.from_entries(3, {(0, 2): 1.0}, FLOAT)
        diff = a - b
        assert len(list(diff.entries())) == 1
        assert repr(diff) == "BandMatrix(dim=3, backend=float, offsets=[0])"

    def test_ties_go_to_the_lowest_offset_then_column(self):
        a = BandMatrix.zeros(3, FLOAT)
        b = BandMatrix.from_entries(3, {(0, 1): 1.0, (1, 0): 1.0, (2, 1): 1.0}, FLOAT)
        assert approx_equal_matrix(a, b).worst == (1, 0)
        c = BandMatrix.from_entries(3, {(0, 1): 1.0, (1, 2): 1.0}, FLOAT)
        assert approx_equal_matrix(a, c).worst == (0, 1)

    def test_products_sum_in_ascending_inner_index_like_dense(self):
        # (1e16 + 1) + 1 rounds to 1e16; (1 + 1) + 1e16 does not.
        a = BandMatrix.from_entries(3, {(1, 0): 1e16, (1, 1): 1.0, (1, 2): 1.0}, FLOAT)
        b = BandMatrix.from_entries(3, {(0, 1): 1.0, (1, 1): 1.0, (2, 1): 1.0}, FLOAT)
        assert to_dense(a @ b)[1][1] == dense_matmul(a, b)[1][1] == 1e16

    def test_columns_must_be_contiguous(self):
        m = BandMatrix.diagonal([1] * 4, FLOAT)
        with pytest.raises(NumericsError, match="contiguous"):
            m.max_abs(range(0, 4, 2))


# Rationals a level diagonal holds: zero, signs, thirds and sevenths, values
# near the top of the double range (2^1024 - 2^970 is the first int that
# rounds past it), a tiny one that rounds to 0.0, and huge parts with a
# moderate ratio.  _BEYOND_DOUBLE is past the double range.
_LEVELS = [0, Fraction(0), 1, -1, 7, Fraction(-3, 7), Fraction(22, 7), 10**300, -(10**300),
           2**1024 - 2**970 - 1, Fraction(1, 10**400), Fraction(10**400, 3**700), True]
_BEYOND_DOUBLE = [10**320, -(10**320), 2**1024 - 2**970, Fraction(10**700, 3**700)]


class TestDiagonalFromIntegerParts:
    # BandMatrix.diagonal writes ints and Fractions from their integer parts;
    # coerce_scalar is the oracle, float parts by float.hex and exact values
    # structurally
    @staticmethod
    def _assert_matches_coerce(values, backend):
        stored = BandMatrix.diagonal(values, backend)
        dense = to_dense(stored)
        for i, value in enumerate(values):
            got, expected = dense[i][i], coerce_scalar(value, backend)
            assert type(got) is type(expected)
            assert _bits(got) == _bits(expected) and got == expected
        assert stored == BandMatrix(len(values), backend, {
            (i, i): coerce_scalar(value, backend) for i, value in enumerate(values)
        })

    @pytest.mark.parametrize("backend", [FLOAT, EXACT])
    def test_levels_match_coerce_scalar(self, backend):
        values = _LEVELS + (_BEYOND_DOUBLE if backend is EXACT else [])
        self._assert_matches_coerce(values, backend)
        # other scalars go through coerce_scalar itself
        other = 2.5 if backend is FLOAT else ExactScalar(1, 0, 2)
        self._assert_matches_coerce([Fraction(0), other, 3], backend)

    @pytest.mark.parametrize("value", _BEYOND_DOUBLE)
    def test_beyond_the_double_range_raises_overflow(self, value):
        # gdoa_realization turns this OverflowError into a message naming the level
        with pytest.raises(OverflowError):
            coerce_scalar(value, FLOAT)
        with pytest.raises(OverflowError):
            BandMatrix.diagonal([Fraction(1, 3), value, 2], FLOAT)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.one_of(st.integers(-10**320, 10**320),
                                     st.fractions(max_denominator=10**12)),
                           min_size=1, max_size=12),
           backend=st.sampled_from([FLOAT, EXACT]))
    def test_random_rationals_match_coerce_scalar(self, values, backend):
        try:
            [coerce_scalar(value, backend) for value in values]
        except OverflowError:
            with pytest.raises(OverflowError):
                BandMatrix.diagonal(values, backend)
            return
        self._assert_matches_coerce(values, backend)


class TestNonFiniteEntries:
    NAN = complex(float("nan"), 0.0)
    INF = complex(float("inf"), 0.0)

    def test_max_abs_propagates_nan_wherever_it_sits(self):
        for key in ((0, 0), (1, 1), (2, 1)):
            m = BandMatrix.from_entries(3, {(0, 0): 5.0, (1, 1): 1.0, key: self.NAN}, FLOAT)
            assert math.isnan(m.max_abs())
        m = BandMatrix.from_entries(3, {(0, 0): 5.0, (2, 2): self.NAN}, FLOAT)
        assert m.max_abs(range(2)) == 5.0  # the NaN column is outside the range

    def test_nan_difference_fails(self):
        a = BandMatrix.diagonal([1.0, 2.0, 3.0], FLOAT)
        b = BandMatrix.from_entries(3, {(0, 0): 1.0, (1, 1): self.NAN, (2, 2): 3.0}, FLOAT)
        for x, y in ((a, b), (b, a), (b, b)):
            cmp = approx_equal_matrix(x, y, TolerancePolicy(1e300, 1e300))
            assert not cmp.passed and not cmp.exact_zero
            assert math.isnan(cmp.scale)
        assert approx_equal_matrix(a, b).worst == (1, 1)
        assert math.isnan(approx_equal_matrix(a, b).residual)

    def test_infinite_entries_fail(self):
        a = BandMatrix.from_entries(2, {(0, 0): self.INF}, FLOAT)
        b = BandMatrix.from_entries(2, {(0, 0): 1.0}, FLOAT)
        for x, y in ((a, a), (a, b), (b, a)):
            cmp = approx_equal_matrix(x, y, TolerancePolicy(1.0, 1.0))
            assert not cmp.passed and not cmp.exact_zero
            assert math.isinf(cmp.scale)
