"""Scalar backends, tolerance policy, and a banded matrix container.

Two scalar backends coexist:

* ``Backend.EXACT``: Gaussian rationals carrying a radical factor, stored on
  four ints as ``(p + q*i)/d * sqrt(r)`` with ``d > 0``, ``gcd(p, q, d) == 1``
  and ``r >= 1`` square-free, so equality is structural and products of
  matching radicals collapse back to rationals.  Sums of incompatible
  radicals raise :class:`ExactnessError`; the identities verified exactly in
  this package never produce such sums.  Values are canonical by
  construction: :func:`_rooted` reduces a radicand ``rn/rd`` of integer
  parts, factors it once (each part up to 10**18; a larger non-square raises
  :class:`ExactnessError`) and writes ``sqrt(rn/rd)`` as ``sqrt(rn*rd)/rd``;
  the public constructor reads its arguments' parts through ``Fraction`` and
  calls it; realizations and ladders call it on a level's parts directly.
  ``+``, ``-``, ``*``, negation and ``conjugate`` run on the ints, combine
  already square-free radicands by one gcd without factoring and divide out
  ``gcd(p, q, d)`` once; :func:`coerce_scalar` and :meth:`BandMatrix.diagonal`
  wrap a rational, or a Gaussian integer given as a ``complex``, directly.
  No ``Fraction`` is built on these paths; ``re``/``im``/``rad`` read the
  parts back as Fractions.
* ``Backend.FLOAT``: complex double precision (python ``complex``).

Tolerances (:class:`TolerancePolicy`) must be finite and nonnegative.

Matrices are stored by diagonal offset (DIA): ``{col - row: list of
entries}``, with tight bands.  Products, sums and comparisons work one
diagonal slice at a time (``map`` over ``operator`` functions), and a product
is a convolution over offset pairs, so bands grow additively by construction.
A NaN or infinite entry makes ``max_abs`` and the comparison scale
non-finite, and such a comparison fails: non-finite entries never pass.
All operations return new objects; nothing here mutates in place, so values
can be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
import re as _re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
from typing import Iterator, Mapping, Sequence, Union


class Backend(Enum):
    """Scalar arithmetic used by a matrix."""

    EXACT = "exact"
    FLOAT = "float"


class NumericsError(ValueError):
    """Base class for scalar/matrix arithmetic errors."""


class DimensionMismatchError(NumericsError):
    """Operands have incompatible dimensions."""


class BackendMismatchError(NumericsError):
    """Operands live on different scalar backends."""


class ExactnessError(NumericsError):
    """An exact operation would leave the representable scalar domain."""


_RADICAND_LIMIT = 10**18


def _square_split(n: int) -> tuple[int, int]:
    """Split n > 0 as s*s*r with r square-free.

    Trial division runs while p**3 <= n.  The cofactor left then has no prime
    factor below p and is below p**3, so it is 1, a prime, a product of two
    distinct primes, or the square of a prime: square-free unless it is a
    perfect square.  Up to ``_RADICAND_LIMIT`` that takes at most 10**6 trial
    divisors; a larger non-square raises :class:`ExactnessError`.
    """
    root = math.isqrt(n)
    if root * root == n:
        return root, 1
    if n > _RADICAND_LIMIT:
        # the bit count, not the digits: a radicand may be too long to print
        raise ExactnessError(
            f"radicand of {n.bit_length()} bits exceeds {_RADICAND_LIMIT}; cannot factor it"
        )
    s, r, p = 1, 1, 2
    while p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                r *= p
        p += 1 if p == 2 else 2
    root = math.isqrt(n)
    if root * root == n:
        return s * root, r
    return s, r * n


class ExactScalar:
    """A Gaussian rational times the square root of a nonnegative rational,
    stored on four ints as ``(p + q*i)/d * sqrt(r)`` in the canonical form the
    module docstring states; zero is ``(0, 0, 1, 1)``.  The constructor
    canonicalizes its arguments (``ExactScalar(1, 0, Fraction(1, 3))`` reads
    back as re 1/3, rad 3); arithmetic on canonical operands builds canonical
    results directly (see :func:`_canonical`).  ``re``, ``im``, ``rad`` are Fractions.
    """

    __slots__ = ("_p", "_q", "_d", "_r")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0, rad: RationalLike = 1):
        re, im, rad = Fraction(re), Fraction(im), Fraction(rad)
        if rad < 0:
            raise ExactnessError("radicand must be nonnegative")
        b, e = re.denominator, im.denominator
        value = _rooted(re.numerator * e, im.numerator * b, b * e, rad.numerator, rad.denominator)
        for name in ExactScalar.__slots__:
            object.__setattr__(self, name, getattr(value, name))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExactScalar is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._q, self._d)

    @property
    def rad(self) -> Fraction:
        return Fraction(self._r)

    def __bool__(self) -> bool:
        return self._p != 0 or self._q != 0

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if not (self._p or self._q):
            return other
        return _sum(self, other, other._p, other._q)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return _sum(self, other, -other._p, -other._q)

    def __neg__(self) -> "ExactScalar":
        return _canonical(-self._p, -self._q, self._d, self._r)

    def __mul__(self, other: object) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            a_p, a_q, b_p, b_q = self._p, self._q, other._p, other._q
            if not (a_p or a_q) or not (b_p or b_q):
                return EXACT_ZERO
            if not a_q:
                p, q = a_p * b_p, a_p * b_q
            elif not b_q:
                p, q = a_p * b_p, a_q * b_p
            else:
                p, q = a_p * b_p - a_q * b_q, a_p * b_q + a_q * b_p
            # Both radicands are square-free, so sqrt(a) * sqrt(b) =
            # g * sqrt((a/g) * (b/g)) with g = gcd(a, b), and (a/g) * (b/g)
            # is square-free again.
            a, b = self._r, other._r
            g = math.gcd(a, b)
            return _canonical(p * g, q * g, self._d * other._d, (a // g) * (b // g))
        if isinstance(other, (int, Fraction)):
            if not other:
                return EXACT_ZERO
            n = other.numerator
            return _canonical(self._p * n, self._q * n, self._d * other.denominator, self._r)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "ExactScalar":
        return _canonical(self._p, -self._q, self._d, self._r)

    def magnitude(self) -> float:
        # sqrt of the rational (re^2 + im^2) * rad under one int/int true
        # division, which rounds exactly as float(Fraction) does.
        p, q, d = self._p, self._q, self._d
        square, denominator = (p * p + q * q) * self._r, d * d
        try:
            return math.sqrt(square / denominator)
        except OverflowError:  # |x|^2 is beyond the double range, |x| may not be
            try:
                return float(math.isqrt(square // denominator))
            except OverflowError:
                return math.inf

    def to_complex(self) -> complex:
        # p/d rounds exactly as float(self.re) does
        root = math.sqrt(self._r)
        d = self._d
        return complex(self._p / d * root, self._q / d * root)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return (self._p == other._p and self._q == other._q and self._d == other._d
                and self._r == other._r)

    def __hash__(self) -> int:
        return hash((self._p, self._q, self._d, self._r))

    def __repr__(self) -> str:
        if self._r == 1:
            return f"ExactScalar({self.re}, {self.im})"
        return f"ExactScalar({self.re}, {self.im}, rad={self.rad})"


# The slot descriptors' setters bypass the immutability guard in __setattr__.
_new_scalar = object.__new__
_set_p, _set_q, _set_d, _set_r = (vars(ExactScalar)[n].__set__ for n in ExactScalar.__slots__)


def _canonical(p: int, q: int, d: int, r: int) -> ExactScalar:
    """Build from parts that are canonical up to a common factor of p, q and
    d: ``d > 0``, ``r >= 1`` square-free, and (p, q) nonzero or the zero
    parts.  Divides out gcd(p, q, d); nothing is factored."""
    g = math.gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    scalar = _new_scalar(ExactScalar)
    _set_p(scalar, p)
    _set_q(scalar, q)
    _set_d(scalar, d)
    _set_r(scalar, r)
    return scalar


def _rooted(p: int, q: int, d: int, rn: int, rd: int) -> ExactScalar:
    """``(p + q*i)/d * sqrt(rn/rd)`` from integer parts with ``d > 0``,
    ``rn >= 0`` and ``rd > 0``: rn and rd in lowest terms are each split once
    by :func:`_square_split` (a radicand of 1 is not), and the square-free
    rests give ``sqrt(rn/rd) = sqrt(rn*rd)/rd``; zero parts or radicand give 0."""
    if not (p or q) or not rn:
        return _canonical(0, 0, 1, 1)
    if rn == rd:
        return _canonical(p, q, d, 1)
    g = math.gcd(rn, rd)
    sn, rn = _square_split(rn // g)
    sd, rd = _square_split(rd // g)
    return _canonical(p * sn, q * sn, d * sd * rd, rn * rd)


def _sum(a: ExactScalar, b: ExactScalar, b_p: int, b_q: int) -> ExactScalar:
    """``a + (b_p + b_q*i)/d * sqrt(rad)`` with d and rad those of b: b itself
    or -b, so a difference needs no negated intermediate."""
    if not (b_p or b_q):
        return a
    a_p, a_q, a_d, b_d = a._p, a._q, a._d, b._d
    if not (a_p or a_q):
        return _canonical(b_p, b_q, b_d, b._r)
    if a._r != b._r:
        raise ExactnessError(f"cannot add incompatible radicals sqrt({a.rad}) and sqrt({b.rad})")
    if a_d == b_d:
        p, q, d = a_p + b_p, a_q + b_q, a_d
    else:
        p, q, d = a_p * b_d + b_p * a_d, a_q * b_d + b_q * a_d, a_d * b_d
    if not (p or q):
        return EXACT_ZERO
    return _canonical(p, q, d, a._r)


RationalLike = Union[int, Fraction]
Scalar = Union[complex, ExactScalar]

EXACT_ZERO = ExactScalar(0)


def coerce_scalar(value: object, backend: Backend) -> Scalar:
    """Convert a python number / Fraction / ExactScalar to a backend scalar."""
    if backend is Backend.EXACT:
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, (int, Fraction)):
            # a rational is canonical as (num, 0, den, 1), zero included
            return _canonical(value.numerator, 0, value.denominator, 1)
        # a Gaussian integer such as 2j, the one kind of float taken exactly
        if isinstance(value, complex) and value.real.is_integer() and value.imag.is_integer():
            return _canonical(int(value.real), int(value.imag), 1, 1)
        raise BackendMismatchError(f"cannot represent {value!r} exactly")
    if isinstance(value, ExactScalar):
        return value.to_complex()
    if isinstance(value, (int, float, complex)):
        return complex(value)
    if isinstance(value, Fraction):
        return complex(float(value))
    raise BackendMismatchError(f"cannot coerce {value!r} to a float scalar")


def _zero(backend: Backend) -> Scalar:
    return EXACT_ZERO if backend is Backend.EXACT else 0j


_add, _sub, _mul, _neg = operator.add, operator.sub, operator.mul, operator.neg
_conjugate = operator.methodcaller("conjugate")
_MAGNITUDE = {Backend.EXACT: ExactScalar.magnitude, Backend.FLOAT: abs}


def _top(values: list[float]) -> float:
    """Largest of nonnegative magnitudes, or the first NaN among them (``max``
    alone skips a NaN that is not first, since ``x > nan`` is false)."""
    total = sum(values)
    if total != total:
        return next(v for v in values if v != v)
    return max(values)


def _col_span(d: int, length: int, cols: range | None) -> tuple[int, int]:
    """Index bounds of the entries of diagonal d whose source column lies in cols."""
    if cols is None:
        return 0, length
    if cols.step != 1:
        raise NumericsError(f"columns must be a contiguous range, got {cols!r}")
    first_col = max(d, 0)
    lo = max(cols.start - first_col, 0)
    return lo, max(lo, min(cols.stop - first_col, length))


def _exact_gap(x: ExactScalar, y: ExactScalar) -> float:
    """|x - y| for exact scalars; complex floats where the radicals differ."""
    if x == y:
        return 0.0
    try:
        return (x - y).magnitude()
    except ExactnessError:
        try:
            return abs(x.to_complex() - y.to_complex())
        except OverflowError:  # a part beyond the double range
            return math.inf


def fits_double(value: int | float | Fraction) -> bool:
    """True if ``value`` converts to a finite double."""
    try:
        return math.isfinite(value)
    except OverflowError:  # an int or rational beyond the double range
        return False


@dataclass(frozen=True)
class TolerancePolicy:
    """Scale-aware comparison bound: |x - y| <= absolute + relative * scale."""

    absolute: float = 1e-12
    relative: float = 1e-10

    def __post_init__(self) -> None:
        for value in (self.absolute, self.relative):
            if not fits_double(value) or value < 0:
                raise NumericsError("tolerances must be finite and nonnegative")

    def bound(self, scale: float) -> float:
        return self.absolute + self.relative * scale


DEFAULT_POLICY = TolerancePolicy()
EXACT_POLICY = TolerancePolicy(0.0, 0.0)


class BandMatrix:
    """Square matrix stored by diagonals, with tight bands.

    ``_diags[d]`` is the diagonal ``col - row = d`` as a list of ``dim - |d|``
    scalars; entry ``(r, c)`` sits at index ``min(r, c)``.  Offsets are kept
    in ascending order, and every kept diagonal holds a nonzero entry; zeros
    inside one are skipped by ``entries``, equality and the hash.  Lists are
    never mutated once a matrix holds them, so results share them.  Columns
    index source basis states; entry (r, c) is the amplitude of basis state r
    in the image of basis state c.
    """

    __slots__ = ("dim", "backend", "_diags")

    def __init__(self, dim: int, backend: Backend, entries: Mapping[tuple[int, int], Scalar]):
        zero = _zero(backend)
        diags: dict[int, list[Scalar]] = {}
        for (r, c), v in entries.items():
            if not (0 <= r < dim and 0 <= c < dim):
                raise DimensionMismatchError(f"entry ({r}, {c}) outside a {dim}x{dim} matrix")
            d = c - r
            if d not in diags:
                diags[d] = [zero] * (dim - abs(d))
            diags[d][min(r, c)] = v
        self._set(dim, backend, diags)

    def _set(self, dim: int, backend: Backend, diags: dict[int, list[Scalar]]) -> None:
        if dim < 1:
            raise DimensionMismatchError("dimension must be >= 1")
        self.dim = dim
        self.backend = backend
        self._diags = {d: diags[d] for d in sorted(diags) if any(diags[d])}

    @classmethod
    def _build(cls, dim: int, backend: Backend, diags: dict[int, list[Scalar]]) -> "BandMatrix":
        """The constructor of results: takes ownership of the diagonal lists
        and drops the all-zero ones."""
        matrix = object.__new__(cls)
        matrix._set(dim, backend, diags)
        return matrix

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, backend: Backend) -> "BandMatrix":
        return cls._build(dim, backend, {})

    @classmethod
    def diagonal(cls, values: Sequence[object], backend: Backend) -> "BandMatrix":
        """The diagonal matrix of ``values``, each through :func:`coerce_scalar`."""
        return cls._build(len(values), backend, {0: [coerce_scalar(v, backend) for v in values]})

    @classmethod
    def from_entries(
        cls, dim: int, entries: Mapping[tuple[int, int], object], backend: Backend
    ) -> "BandMatrix":
        return cls(dim, backend, {k: coerce_scalar(v, backend) for k, v in entries.items()})

    # -- inspection --------------------------------------------------------

    def entries(self) -> Iterator[tuple[int, int, Scalar]]:
        for d, values in self._diags.items():
            r0, c0 = max(-d, 0), max(d, 0)
            for i, v in enumerate(values):
                if v:
                    yield r0 + i, c0 + i, v

    def max_abs(self, cols: range | None = None) -> float:
        """Largest entry magnitude, optionally restricted to a contiguous
        range of source columns; NaN if any entry there is NaN."""
        return _signed_max_abs([(1, self)], cols)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "BandMatrix") -> None:
        if not isinstance(other, BandMatrix):
            raise NumericsError(f"expected BandMatrix, got {type(other).__name__}")
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimensions differ: {self.dim} vs {other.dim}")
        if self.backend is not other.backend:
            raise BackendMismatchError(
                f"backends differ: {self.backend.value} vs {other.backend.value}"
            )

    def _merge(self, other: "BandMatrix", op) -> "BandMatrix":
        """Entrywise ``self op other`` for op in (add, sub), one diagonal at a time."""
        self._check_compatible(other)
        diags = dict(self._diags)
        for d, vb in other._diags.items():
            va = diags.get(d)
            if va is not None:
                diags[d] = list(map(op, va, vb))
            else:
                diags[d] = vb if op is _add else list(map(_neg, vb))
        return BandMatrix._build(self.dim, self.backend, diags)

    def __add__(self, other: "BandMatrix") -> "BandMatrix":
        return self._merge(other, _add)

    def __sub__(self, other: "BandMatrix") -> "BandMatrix":
        return self._merge(other, _sub)

    def scaled(self, factor: object) -> "BandMatrix":
        s = coerce_scalar(factor, self.backend)
        if not s:
            return BandMatrix.zeros(self.dim, self.backend)
        diags = {d: list(map(_mul, values, repeat(s))) for d, values in self._diags.items()}
        return BandMatrix._build(self.dim, self.backend, diags)

    def __matmul__(self, other: "BandMatrix") -> "BandMatrix":
        """Convolution over offset pairs: diagonal da of self times diagonal db
        of other lands on diagonal da + db, one slice product per pair."""
        self._check_compatible(other)
        dim = self.dim
        acc: dict[int, list[Scalar]] = {}
        for da, va in self._diags.items():
            for db, vb in other._diags.items():
                dc = da + db
                # rows r with (r, r+da) and (r+da, r+dc) inside the matrix
                lo, hi = max(0, -da, -dc), min(dim, dim - da, dim - dc)
                if lo >= hi:
                    continue
                ia, ib, ic = lo + min(da, 0), lo + da + min(db, 0), lo + min(dc, 0)
                n = hi - lo
                prod = list(map(_mul, va[ia:ia + n], vb[ib:ib + n]))
                target = acc.get(dc)
                if target is None:
                    if n == dim - abs(dc):
                        acc[dc] = prod
                        continue
                    target = acc[dc] = [_zero(self.backend)] * (dim - abs(dc))
                target[ic:ic + n] = map(_add, target[ic:ic + n], prod)
        return BandMatrix._build(dim, self.backend, acc)

    def adjoint(self) -> "BandMatrix":
        diags = {-d: list(map(_conjugate, values)) for d, values in self._diags.items()}
        return BandMatrix._build(self.dim, self.backend, diags)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BandMatrix):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.backend is other.backend
            and self._diags == other._diags
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.backend, frozenset(((r, c), v) for r, c, v in self.entries())))

    def __repr__(self) -> str:
        return (
            f"BandMatrix(dim={self.dim}, backend={self.backend.value}, "
            f"offsets={list(self._diags)})"
        )


def _bracket(ab: BandMatrix, ba: BandMatrix, sign: int) -> BandMatrix:
    """ab - sign * ba from the two products: [a, b] for sign 1, {a, b} for -1."""
    return ab - ba if sign == 1 else ab + ba


def _signed_max_abs(terms: Sequence[tuple[int, BandMatrix]], cols: range | None = None) -> float:
    """The largest entry magnitude of ``(s0 t0 + s1 t1) + s2 t2 ...`` for terms
    ``(s, t)``, signs ±1, on the source columns ``cols`` (all if None), NaN if
    any entry there is NaN, in one pass over each diagonal, with no negated or
    summed matrix built.  A diagonal starts from the first term that holds
    it, unsigned, and adds or subtracts the others left to right by their
    sign relative to it.  IEEE rounding is symmetric in sign, so only
    the sign of a zero may differ from the signed sum, and no magnitude reads it.
    """
    first = terms[0][1]
    for _, matrix in terms[1:]:
        first._check_compatible(matrix)
    magnitude = _MAGNITUDE[first.backend]
    mags: list[float] = []
    for d in sorted(set().union(*(matrix._diags for _, matrix in terms))):
        lo, hi = _col_span(d, first.dim - abs(d), cols)
        (lead, total), *rest = [(s, m._diags[d][lo:hi]) for s, m in terms if d in m._diags]
        for sign, values in rest:
            total = map(_add if sign == lead else _sub, total, values)
        mags += map(magnitude, total)
    return _top(mags) if mags else 0.0


@dataclass(frozen=True)
class MatrixComparison:
    """Outcome of an entrywise comparison of two matrices."""

    passed: bool
    residual: float
    scale: float
    bound: float
    exact_zero: bool
    worst: tuple[int, int] | None


def approx_equal_matrix(
    a: BandMatrix,
    b: BandMatrix,
    policy: TolerancePolicy = DEFAULT_POLICY,
    cols: range | None = None,
) -> MatrixComparison:
    """Compare two matrices entrywise over a contiguous range of source columns.

    The scale is the largest entry magnitude encountered on either side.  On
    the exact backend a structurally equal pair reports ``exact_zero`` and a
    residual of exactly 0.0; differences of incompatible radicals fall back to
    complex-float magnitudes for the reported residual.  ``worst`` is the
    first entry attaining the residual, sweeping diagonals by ascending offset
    ``col - row`` and each diagonal by ascending column.  A NaN difference is
    the residual, and a non-finite scale fails the comparison and clears
    ``exact_zero``: non-finite entries never pass.
    """
    a._check_compatible(b)
    scale = _top([a.max_abs(cols), b.max_abs(cols)])
    exact = a.backend is Backend.EXACT
    zero = _zero(a.backend)
    residual = 0.0
    worst: tuple[int, int] | None = None
    exact_zero = True
    for d in sorted(a._diags.keys() | b._diags.keys()):
        lo, hi = _col_span(d, a.dim - abs(d), cols)
        if lo >= hi:
            continue
        va, vb = a._diags.get(d), b._diags.get(d)
        sa = va[lo:hi] if va is not None else [zero] * (hi - lo)
        sb = vb[lo:hi] if vb is not None else [zero] * (hi - lo)
        if sa == sb:
            continue
        exact_zero = False
        if exact:
            diffs = list(map(_exact_gap, sa, sb))
        else:
            diffs = list(map(abs, map(_sub, sa, sb)))
        peak = _top(diffs)
        if not peak <= residual:  # larger, or NaN
            i = lo + diffs.index(peak)
            residual, worst = peak, (i + max(-d, 0), i + max(d, 0))
            if peak != peak:
                break
    finite = math.isfinite(scale)
    exact_zero = exact_zero and finite
    bound = policy.bound(scale)
    if exact and policy.absolute == 0.0 and policy.relative == 0.0:
        passed = exact_zero
    else:
        passed = finite and residual <= bound
    return MatrixComparison(passed, residual, scale, bound, exact_zero, worst)


_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' (q != 0) into a Fraction; anything else is an error."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise NumericsError(f"not a rational literal: {text!r}")
    num, _, den = text.strip().partition("/")
    try:
        numerator, denominator = int(num), int(den or 1)
    except ValueError as exc:  # beyond the interpreter's digit limit
        raise NumericsError(f"rational literal of {len(text)} characters is too long") from exc
    if denominator == 0:
        raise NumericsError(f"zero denominator in rational literal: {text!r}")
    return Fraction(numerator, denominator)
