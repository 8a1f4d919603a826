"""Truncated Fock-space representations of deformed boson algebras.

A deformed oscillator is specified by a structure function F with F(0) = 0 and
F(n) > 0, the defining products being a+ a = F(N) and a a+ = F(N + 1).  On the
truncated space spanned by |0>, ..., |D-1> the ladder matrices are

    a[n-1, n] = sqrt(F(n))      1 <= n <= D-1
    a+[n+1, n] = sqrt(F(n+1))   0 <= n <= D-2

with the raising action out of the top state |D-1> cut off.  Consequently
a+ a = diag(F(0), ..., F(D-1)) holds on every column, while a a+ matches
diag(F(1), ..., F(D)) only away from the top column, whose computed value is 0
against a true value of F(D).  Relation checks therefore compare on a guard
band of columns [0, D-1-g].

The projectors P0, P1 onto even and odd levels are exact diagonals in either
backend; the parity (Klein) operator is T = (-1)^N = P0 - P1.

Each spec keeps one level record, read by ladders, realizations and spectra:
F and f, exact (f as floats if it has sqrt), each evaluated once per spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .exprlang import (
    Expr,
    eval_levels,
    has_sqrt,
    parse_expr,
    printable,
    validate_structure_function,
)
from .numerics import Backend, BandMatrix, ExactScalar, fits_double


class ValidationError(ValueError):
    """A spec or structure function fails its domain constraints."""


@dataclass(frozen=True)
class OscillatorSpec:
    """A deformed oscillator: structure function F, weight function f.

    ``kappa`` is set only for the reflection-deformed oscillator family,
    whose structure function is F(n) = n for even n and n + kappa for odd n
    (positive-definite for kappa > -1).  The weight f rescales the
    parity-restricted charges; it defaults to the constant 1.

    ``params`` is a read-only copy of the mapping passed in.  The spec also
    owns its level record: the longest F(0..D) that :func:`structure_values`
    has validated for it, which a smaller dim reads a prefix of, and the
    longest f(1..D) asked for, exact, or floats for a weight with sqrt.  The
    record is neither a constructor argument nor part of equality, and
    ``dataclasses.replace`` starts a new spec without one.
    """

    structure: Expr
    params: Mapping[str, Fraction]
    weight: Expr
    kappa: Fraction | None
    structure_src: str
    weight_src: str
    _levels: tuple[Fraction, ...] = field(default=(), init=False, repr=False, compare=False)
    _weights: dict[int, Fraction | float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @classmethod
    def calogero_vasiliev(cls, kappa: Fraction | int | str) -> "OscillatorSpec":
        """Reflection-deformed oscillator with [a, a+] = 1 + kappa * T."""
        from .numerics import parse_rational

        value = parse_rational(kappa) if isinstance(kappa, str) else Fraction(kappa)
        return cls(
            structure=parse_expr("bracket(n)"),
            params={"kappa": value},
            weight=parse_expr("1"),
            kappa=value,
            structure_src="bracket(n)",
            weight_src="1",
        )

    @classmethod
    def gdoa(
        cls,
        structure: str | Expr,
        params: Mapping[str, Fraction] | None = None,
        weight: str | Expr = "1",
    ) -> "OscillatorSpec":
        """General deformed oscillator with arbitrary F and weight f."""
        structure_expr = parse_expr(structure) if isinstance(structure, str) else structure
        weight_expr = parse_expr(weight) if isinstance(weight, str) else weight
        return cls(
            structure=structure_expr,
            params=params or {},
            weight=weight_expr,
            kappa=None,
            structure_src=structure if isinstance(structure, str) else "<expr>",
            weight_src=weight if isinstance(weight, str) else "<expr>",
        )

    @property
    def is_calogero_vasiliev(self) -> bool:
        return self.kappa is not None

    @property
    def weight_is_exact(self) -> bool:
        return not has_sqrt(self.weight)

    def describe(self) -> str:
        if self.is_calogero_vasiliev:
            return f"calogero_vasiliev(kappa={self.kappa})"
        pieces = [f"F={self.structure_src}", f"f={self.weight_src}"]
        for name in sorted(self.params):
            pieces.append(f"{name}={self.params[name]}")
        return f"gdoa({', '.join(pieces)})"


def structure_values(spec: OscillatorSpec, dim: int) -> tuple[Fraction, ...]:
    """Exact F(0..dim); raises ValidationError if F(0) != 0 or any F(n) <= 0.

    F is evaluated and validated once per spec for the largest dim asked so
    far; the values are kept in the spec's level record.
    """
    if 1 <= dim < len(spec._levels):
        return spec._levels[: dim + 1]
    if has_sqrt(spec.structure):
        raise ValidationError("structure function must be exactly evaluable (no sqrt)")
    report = validate_structure_function(spec.structure, spec.params, dim)
    if not report.ok:
        details = "; ".join(
            f"F({v.n}) = {printable(v.value)} violates {v.constraint}"
            for v in report.violations[:4]
        )
        raise ValidationError(f"invalid structure function: {details}")
    object.__setattr__(spec, "_levels", report.values)
    return report.values


def weight_values(
    spec: OscillatorSpec, dim: int, backend: Backend = Backend.EXACT
) -> dict[int, Fraction | float]:
    """f(1..dim); f(0) is never needed because it only multiplies F(0) = 0."""
    return dict(enumerate(eval_levels(spec.weight, 1, dim + 1, spec.params, backend), 1))


def _weight_levels(spec: OscillatorSpec, dim: int) -> Mapping[int, Fraction | float]:
    """f(1..dim) or more, for the realizations and spectra, from the spec's level
    record: evaluated once per spec for the largest dim asked so far, exact, or
    as floats for a weight with sqrt."""
    if len(spec._weights) < dim:
        backend = Backend.EXACT if spec.weight_is_exact else Backend.FLOAT
        object.__setattr__(spec, "_weights", weight_values(spec, dim, backend))
    return spec._weights


@dataclass(frozen=True)
class FockRep:
    """Matrices of one deformed oscillator on the truncated Fock space."""

    a: BandMatrix
    a_dag: BandMatrix
    even_projector: BandMatrix
    odd_projector: BandMatrix


def _sqrt_entry(value: Fraction | float, backend: Backend):
    """sqrt(F(n)) from F(n) as a rational (exact) or as its double (float)."""
    if backend is Backend.EXACT:
        return ExactScalar.sqrt_of(value)
    return complex(math.sqrt(value))


def _ladder_values(
    spec: OscillatorSpec, dim: int, backend: Backend
) -> tuple[tuple[Fraction, ...], list[float]]:
    """F(0..dim) for ladder amplitudes on dimension dim >= 2, and on the float
    backend F(0..dim-1) as doubles, each converted once from its integer
    parts (none on the exact backend); every F(1..dim-1) must fit a double."""
    if dim < 2:
        raise ValidationError("dim must be >= 2")
    values = structure_values(spec, dim)
    if backend is Backend.EXACT:
        return values, []
    try:
        return values, [value.numerator / value.denominator for value in values[:dim]]
    except OverflowError:
        n = next(n for n in range(1, dim) if not fits_double(values[n]))
        raise ValidationError(f"F({n}) is beyond the double range of the float backend") from None


def build_fock_rep(
    spec: OscillatorSpec, dim: int, backend: Backend = Backend.FLOAT
) -> FockRep:
    """Build the ladder and parity projector matrices on dimension dim."""
    values, doubles = _ladder_values(spec, dim, backend)
    levels = values if backend is Backend.EXACT else doubles
    roots = {n: _sqrt_entry(levels[n], backend) for n in range(1, dim)}
    a = BandMatrix(dim, backend, {(n - 1, n): roots[n] for n in range(1, dim)})
    a_dag = BandMatrix(dim, backend, {(n + 1, n): roots[n + 1] for n in range(dim - 1)})
    p_even = BandMatrix.diagonal([Fraction(1 - n % 2) for n in range(dim)], backend)
    p_odd = BandMatrix.diagonal([Fraction(n % 2) for n in range(dim)], backend)
    return FockRep(a, a_dag, p_even, p_odd)
