"""Scalar backends, tolerance policy, and a banded matrix container.

Two scalar backends coexist:

* ``Backend.EXACT``: Gaussian rationals carrying a radical factor,
  ``(re + im*i) * sqrt(rad)`` with ``re, im, rad`` rational and ``rad >= 0``.
  The radicand is kept square-free, so equality is structural and products of
  matching radicals collapse back to rationals.  Sums of incompatible radicals
  raise :class:`ExactnessError`; the identities verified exactly in this
  package never produce such sums.  Values are canonical by construction:
  the public constructor factors its radicand once (numerator and denominator
  each up to 10**18; a larger non-square raises :class:`ExactnessError`), and
  ``+``, ``-``, ``*``, negation and ``conjugate`` combine already square-free
  parts by gcd without factoring.
* ``Backend.FLOAT``: complex double precision (python ``complex``).

Tolerances (:class:`TolerancePolicy`) must be finite and nonnegative.

Matrices are stored as dicts of nonzero entries with tight band bookkeeping.
All operations return new objects; nothing here mutates in place, so values
can be shared freely across threads.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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
        raise ExactnessError(f"radicand {n} exceeds {_RADICAND_LIMIT}; cannot factor it")
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


_F0 = Fraction(0)
_F1 = Fraction(1)


class ExactScalar:
    """A Gaussian rational times the square root of a nonnegative rational.

    Canonical form: zero is stored as (0, 0, 1); a perfect-square radicand is
    folded into the coefficients; otherwise the radicand is square-free in
    numerator and denominator, so semantically equal values compare equal.
    The constructor canonicalizes its arguments; arithmetic on canonical
    operands builds canonical results directly (see :func:`_canonical`).
    """

    __slots__ = ("re", "im", "rad")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0, rad: RationalLike = 1):
        re = Fraction(re)
        im = Fraction(im)
        rad = Fraction(rad)
        if rad < 0:
            raise ExactnessError("radicand must be nonnegative")
        if rad == 0 or (re == 0 and im == 0):
            re, im, rad = Fraction(0), Fraction(0), Fraction(1)
        elif rad != 1:
            sn, rn = _square_split(rad.numerator)
            sd, rd = _square_split(rad.denominator)
            factor = Fraction(sn, sd)
            re *= factor
            im *= factor
            rad = Fraction(rn, rd)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "rad", rad)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExactScalar is immutable")

    @classmethod
    def sqrt_of(cls, value: RationalLike) -> "ExactScalar":
        """Exact square root of a nonnegative rational."""
        return cls(1, 0, Fraction(value))

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_rational(self) -> bool:
        return self.rad == 1 and not self.im

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ExactnessError(f"{self!r} is not rational")
        return self.re

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.rad != other.rad:
            raise ExactnessError(
                f"cannot add incompatible radicals sqrt({self.rad}) and sqrt({other.rad})"
            )
        re = self.re + other.re
        im = self.im + other.im
        if not re and not im:
            return EXACT_ZERO
        return _canonical(re, im, self.rad)

    def __neg__(self) -> "ExactScalar":
        return _canonical(-self.re, -self.im, self.rad)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            if self.is_zero or other.is_zero:
                return EXACT_ZERO
            a_re, a_im, b_re, b_im = self.re, self.im, other.re, other.im
            if not a_im:
                re, im = a_re * b_re, (a_re * b_im if b_im else _F0)
            elif not b_im:
                re, im = a_re * b_re, a_im * b_re
            else:
                re = a_re * b_re - a_im * b_im
                im = a_re * b_im + a_im * b_re
            a_rad, b_rad = self.rad, other.rad
            if b_rad == 1:
                return _canonical(re, im, a_rad)
            if a_rad == 1:
                return _canonical(re, im, b_rad)
            if a_rad == b_rad:
                factor, rad = a_rad, _F1
            else:
                # Numerators and denominators are square-free, so
                # sqrt(a) * sqrt(b) = g * sqrt((a/g) * (b/g)) with g = gcd(a, b);
                # Fraction() cancels what a numerator shares with a denominator.
                na, da = a_rad.numerator, a_rad.denominator
                nb, db = b_rad.numerator, b_rad.denominator
                gn, gd = math.gcd(na, nb), math.gcd(da, db)
                rad = Fraction((na // gn) * (nb // gn), (da // gd) * (db // gd))
                factor = Fraction(gn, gd)
                if factor == 1:
                    return _canonical(re, im, rad)
            return _canonical(re * factor, im * factor if im else _F0, rad)
        if isinstance(other, (int, Fraction)):
            if not other:
                return EXACT_ZERO
            return _canonical(self.re * other, self.im * other, self.rad)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "ExactScalar":
        return _canonical(self.re, -self.im, self.rad)

    def magnitude(self) -> float:
        # sqrt(float((re^2 + im^2) * rad)) on integer parts: one int/int true
        # division rounds exactly as float(Fraction) does.
        a, b = self.re.numerator, self.re.denominator
        rn, rd = self.rad.numerator, self.rad.denominator
        if self.im:
            c, d = self.im.numerator, self.im.denominator
            return math.sqrt((a * a * d * d + c * c * b * b) * rn / (b * b * d * d * rd))
        return math.sqrt(a * a * rn / (b * b * rd))

    def to_complex(self) -> complex:
        root = math.sqrt(float(self.rad))
        return complex(float(self.re) * root, float(self.im) * root)

    def __complex__(self) -> complex:
        return self.to_complex()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im and self.rad == other.rad

    def __hash__(self) -> int:
        return hash((self.re, self.im, self.rad))

    def __repr__(self) -> str:
        if self.rad == 1:
            return f"ExactScalar({self.re}, {self.im})"
        return f"ExactScalar({self.re}, {self.im}, rad={self.rad})"


# The slot descriptors' setters bypass the immutability guard in __setattr__.
_new_scalar = object.__new__
_set_re = ExactScalar.re.__set__  # type: ignore[attr-defined]
_set_im = ExactScalar.im.__set__  # type: ignore[attr-defined]
_set_rad = ExactScalar.rad.__set__  # type: ignore[attr-defined]


def _canonical(re: Fraction, im: Fraction, rad: Fraction) -> ExactScalar:
    """Wrap parts that are already canonical: a nonzero value (or the zero
    triple), ``rad`` a reduced Fraction with square-free numerator and
    denominator.  Nothing is converted, checked or factored."""
    scalar = _new_scalar(ExactScalar)
    _set_re(scalar, re)
    _set_im(scalar, im)
    _set_rad(scalar, rad)
    return scalar


RationalLike = Union[int, Fraction]
Scalar = Union[complex, ExactScalar]

EXACT_ZERO = ExactScalar(0)
EXACT_ONE = ExactScalar(1)
EXACT_I = ExactScalar(0, 1)


def coerce_scalar(value: object, backend: Backend) -> Scalar:
    """Convert a python number / Fraction / ExactScalar to a backend scalar."""
    if backend is Backend.EXACT:
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactScalar(value)
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


def _is_zero(value: Scalar) -> bool:
    return value.is_zero if isinstance(value, ExactScalar) else value == 0


def _conj(value: Scalar) -> Scalar:
    return value.conjugate()


def _mag(value: Scalar) -> float:
    return value.magnitude() if isinstance(value, ExactScalar) else abs(value)


def _to_complex(value: Scalar) -> complex:
    return value.to_complex() if isinstance(value, ExactScalar) else value


@dataclass(frozen=True)
class TolerancePolicy:
    """Scale-aware comparison bound: |x - y| <= absolute + relative * scale."""

    absolute: float = 1e-12
    relative: float = 1e-10

    def __post_init__(self) -> None:
        for value in (self.absolute, self.relative):
            if not math.isfinite(value) or value < 0:
                raise NumericsError("tolerances must be finite and nonnegative")

    def bound(self, scale: float) -> float:
        return self.absolute + self.relative * scale


DEFAULT_POLICY = TolerancePolicy()
EXACT_POLICY = TolerancePolicy(0.0, 0.0)


class BandMatrix:
    """Square matrix stored as a dict of nonzero entries with tight bands.

    ``lower_bw``/``upper_bw`` are the largest ``row - col`` / ``col - row``
    over stored entries (0 for an empty matrix).  Columns index source basis
    states; entry (r, c) is the amplitude of basis state r in the image of
    basis state c.
    """

    __slots__ = ("dim", "backend", "lower_bw", "upper_bw", "_entries")

    def __init__(self, dim: int, backend: Backend, entries: Mapping[tuple[int, int], Scalar]):
        if dim < 1:
            raise DimensionMismatchError("dimension must be >= 1")
        kept: dict[tuple[int, int], Scalar] = {}
        lower = upper = 0
        for (r, c), v in entries.items():
            if not (0 <= r < dim and 0 <= c < dim):
                raise DimensionMismatchError(f"entry ({r}, {c}) outside a {dim}x{dim} matrix")
            if _is_zero(v):
                continue
            kept[(r, c)] = v
            lower = max(lower, r - c)
            upper = max(upper, c - r)
        self.dim = dim
        self.backend = backend
        self.lower_bw = lower
        self.upper_bw = upper
        self._entries = kept

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, backend: Backend) -> "BandMatrix":
        return cls(dim, backend, {})

    @classmethod
    def identity(cls, dim: int, backend: Backend) -> "BandMatrix":
        one = EXACT_ONE if backend is Backend.EXACT else 1 + 0j
        return cls(dim, backend, {(i, i): one for i in range(dim)})

    @classmethod
    def diagonal(cls, values: Sequence[object], backend: Backend) -> "BandMatrix":
        entries = {(i, i): coerce_scalar(v, backend) for i, v in enumerate(values)}
        return cls(len(values), backend, entries)

    @classmethod
    def from_entries(
        cls, dim: int, entries: Mapping[tuple[int, int], object], backend: Backend
    ) -> "BandMatrix":
        return cls(dim, backend, {k: coerce_scalar(v, backend) for k, v in entries.items()})

    # -- inspection --------------------------------------------------------

    def entry(self, row: int, col: int) -> Scalar:
        return self._entries.get((row, col), _zero(self.backend))

    def entries(self) -> Iterator[tuple[int, int, Scalar]]:
        for (r, c), v in self._entries.items():
            yield r, c, v

    @property
    def nnz(self) -> int:
        return len(self._entries)

    @property
    def is_diagonal(self) -> bool:
        return self.lower_bw == 0 and self.upper_bw == 0

    def diagonal_values(self) -> list[Scalar]:
        return [self.entry(i, i) for i in range(self.dim)]

    def to_dense(self) -> list[list[Scalar]]:
        dense = [[_zero(self.backend)] * self.dim for _ in range(self.dim)]
        for (r, c), v in self._entries.items():
            dense[r][c] = v
        return dense

    def max_abs(self, cols: range | None = None) -> float:
        """Largest entry magnitude, optionally restricted to source columns."""
        worst = 0.0
        for (r, c), v in self._entries.items():
            if cols is not None and c not in cols:
                continue
            worst = max(worst, _mag(v))
        return worst

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

    def __add__(self, other: "BandMatrix") -> "BandMatrix":
        self._check_compatible(other)
        merged = dict(self._entries)
        for key, v in other._entries.items():
            merged[key] = merged[key] + v if key in merged else v
        return BandMatrix(self.dim, self.backend, merged)

    def __sub__(self, other: "BandMatrix") -> "BandMatrix":
        return self + (-other)

    def __neg__(self) -> "BandMatrix":
        return BandMatrix(self.dim, self.backend, {k: -v for k, v in self._entries.items()})

    def scaled(self, factor: object) -> "BandMatrix":
        s = coerce_scalar(factor, self.backend)
        if _is_zero(s):
            return BandMatrix.zeros(self.dim, self.backend)
        return BandMatrix(self.dim, self.backend, {k: v * s for k, v in self._entries.items()})

    def __matmul__(self, other: "BandMatrix") -> "BandMatrix":
        self._check_compatible(other)
        rows_of_other: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, c), v in other._entries.items():
            rows_of_other.setdefault(r, []).append((c, v))
        acc: dict[tuple[int, int], Scalar] = {}
        for (r, k), va in self._entries.items():
            for c, vb in rows_of_other.get(k, ()):
                key = (r, c)
                prod = va * vb
                acc[key] = acc[key] + prod if key in acc else prod
        result = BandMatrix(self.dim, self.backend, acc)
        # Band growth is additive; anything wider means the kernel is broken.
        if (
            result.lower_bw > self.lower_bw + other.lower_bw
            or result.upper_bw > self.upper_bw + other.upper_bw
        ):
            raise NumericsError(f"matmul widened the bands beyond additive growth: {result!r}")
        return result

    def adjoint(self) -> "BandMatrix":
        return BandMatrix(
            self.dim, self.backend, {(c, r): _conj(v) for (r, c), v in self._entries.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BandMatrix):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.backend is other.backend
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.backend, frozenset(self._entries.items())))

    def __repr__(self) -> str:
        return (
            f"BandMatrix(dim={self.dim}, backend={self.backend.value}, "
            f"bands=({self.lower_bw}, {self.upper_bw}), nnz={self.nnz})"
        )


def commutator(a: BandMatrix, b: BandMatrix) -> BandMatrix:
    """[a, b] = ab - ba."""
    return a @ b - b @ a


def anticommutator(a: BandMatrix, b: BandMatrix) -> BandMatrix:
    """{a, b} = ab + ba."""
    return a @ b + b @ a


def dense_matmul(a: BandMatrix, b: BandMatrix) -> list[list[Scalar]]:
    """Reference O(dim^3) product over dense copies, for cross-checking."""
    a._check_compatible(b)
    da, db = a.to_dense(), b.to_dense()
    dim = a.dim
    zero = _zero(a.backend)
    out = [[zero] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(dim):
            total = zero
            for k in range(dim):
                total = total + da[r][k] * db[k][c]
            out[r][c] = total
    return out


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
    """Compare two matrices entrywise over the given source columns.

    The scale is the largest entry magnitude encountered on either side.  On
    the exact backend a structurally equal pair reports ``exact_zero`` and a
    residual of exactly 0.0; differences of incompatible radicals fall back to
    complex-float magnitudes for the reported residual.
    """
    a._check_compatible(b)
    scale = max(a.max_abs(cols), b.max_abs(cols))
    residual = 0.0
    worst: tuple[int, int] | None = None
    exact_zero = True
    keys = set(a._entries) | set(b._entries)
    for key in keys:
        if cols is not None and key[1] not in cols:
            continue
        va, vb = a.entry(*key), b.entry(*key)
        if a.backend is Backend.EXACT:
            if va == vb:
                continue
            exact_zero = False
            try:
                diff = _mag(va - vb)  # type: ignore[operator]
            except ExactnessError:
                diff = abs(_to_complex(va) - _to_complex(vb))
        else:
            diff = abs(va - vb)  # type: ignore[arg-type]
            if diff == 0.0:
                continue
            exact_zero = False
        if diff > residual:
            residual = diff
            worst = key
    bound = policy.bound(scale)
    if a.backend is Backend.EXACT and policy.absolute == 0.0 and policy.relative == 0.0:
        passed = exact_zero
    else:
        passed = residual <= bound
    return MatrixComparison(passed, residual, scale, bound, exact_zero, worst)


_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' (q != 0) into a Fraction; anything else is an error."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise NumericsError(f"not a rational literal: {text!r}")
    body = text.strip()
    if "/" in body:
        num, den = body.split("/")
        if int(den) == 0:
            raise NumericsError(f"zero denominator in rational literal: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(body))
