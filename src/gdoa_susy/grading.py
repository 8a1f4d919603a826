"""Degree vectors, graded brackets, and the graded Jacobi defect.

Operators carry degrees in (Z_2)^k.  The bracket of homogeneous operators is

    [[X, Y]] = X Y - (-1)^(deg X . deg Y) Y X

a commutator when the mod-2 dot product is even and an anticommutator when it
is odd.  The sign-weighted cyclic Jacobi sum

    (-1)^(x.z) [[X, [[Y, Z]]]] + (-1)^(y.x) [[Y, [[Z, X]]]]
                               + (-1)^(z.y) [[Z, [[X, Y]]]]

vanishes identically for associative matrices whatever the degree assignment,
so its numerical defect measures rounding and truncation only; detecting a
wrong generator requires checking bracket closure against the structure
constants as well (see the verification suites).
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import BandMatrix, _bracket, _signed_max_abs, _top


class GradingError(ValueError):
    """Degree or guard-band bookkeeping failure (length mismatch, missing degree)."""


@dataclass(frozen=True, slots=True)
class DegreeVector:
    """An element of (Z_2)^k."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits:
            raise GradingError("degree vector must have at least one component")
        if any(bit not in (0, 1) for bit in self.bits):
            raise GradingError(f"degree components must be 0 or 1, got {self.bits}")

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __repr__(self) -> str:
        return f"({', '.join(str(b) for b in self.bits)})"


def degree(*bits: int) -> DegreeVector:
    """Convenience constructor: degree(1, 0) == DegreeVector((1, 0))."""
    return DegreeVector(tuple(bits))


def degree_add(a: DegreeVector, b: DegreeVector) -> DegreeVector:
    """Componentwise sum mod 2 (the degree of a product)."""
    if len(a) != len(b):
        raise GradingError(f"degree lengths differ: {len(a)} vs {len(b)}")
    return DegreeVector(tuple((x + y) % 2 for x, y in zip(a.bits, b.bits)))


def graded_sign(a: DegreeVector, b: DegreeVector) -> int:
    """(-1)^(a.b), a.b the dot product mod 2: +1 for commuting pairs, -1 for
    anticommuting pairs."""
    if len(a) != len(b):
        raise GradingError(f"degree lengths differ: {len(a)} vs {len(b)}")
    return -1 if sum(x * y for x, y in zip(a.bits, b.bits)) % 2 else 1


@dataclass(frozen=True)
class GradedOperator:
    """A matrix with an optional homogeneous degree and a display label."""

    matrix: BandMatrix
    degree: DegreeVector | None
    label: str

    def require_degree(self) -> DegreeVector:
        if self.degree is None:
            raise GradingError(f"operator {self.label!r} has no degree assigned")
        return self.degree


def graded_bracket(x: GradedOperator, y: GradedOperator) -> GradedOperator:
    """[[X, Y]] = XY - (-1)^(x.y) YX, of degree x + y."""
    dx, dy = x.require_degree(), y.require_degree()  # raises before any product
    matrix = _bracket(x.matrix @ y.matrix, y.matrix @ x.matrix, graded_sign(dx, dy))
    return GradedOperator(matrix, degree_add(dx, dy), f"[[{x.label},{y.label}]]")


def check_antisymmetry(x: GradedOperator, y: GradedOperator) -> float:
    """Max |entry| of [[X,Y]] + (-1)^(x.y) [[Y,X]]; exactly 0.0 in floats.

    The two brackets reuse the identical products XY and YX, so the residual
    cancels bitwise on every column; no guard band applies.
    """
    sign = graded_sign(x.require_degree(), y.require_degree())
    return _signed_max_abs([(1, graded_bracket(x, y).matrix), (sign, graded_bracket(y, x).matrix)])


JACOBI_GUARD_BAND = 3  # nested brackets of band-1 generators reach band 3


def guard_columns(dim: int, guard_band: int) -> range:
    """Source columns [0, dim-1-guard_band] left to compare by the guard band."""
    if not 0 <= guard_band < dim:
        raise GradingError(f"guard band {guard_band} invalid for dim {dim}")
    return range(dim - guard_band)


def jacobi_defect(
    x: GradedOperator, y: GradedOperator, z: GradedOperator, guard_band: int = JACOBI_GUARD_BAND
) -> tuple[float, float]:
    """(residual, scale) of the sign-weighted cyclic Jacobi sum.

    The top guard_band columns (default :data:`JACOBI_GUARD_BAND`) are
    excluded; the sum is taken left to right in one pass.  The scale is the
    largest entry of the three cyclic terms on the compared columns, NaN if
    any entry there is NaN.
    """
    dx, dy, dz = x.require_degree(), y.require_degree(), z.require_degree()
    terms = [
        (graded_sign(dx, dz), graded_bracket(x, graded_bracket(y, z)).matrix),
        (graded_sign(dy, dx), graded_bracket(y, graded_bracket(z, x)).matrix),
        (graded_sign(dz, dy), graded_bracket(z, graded_bracket(x, y)).matrix),
    ]
    cols = guard_columns(x.matrix.dim, guard_band)
    return _signed_max_abs(terms, cols), _top([matrix.max_abs(cols) for _, matrix in terms])
