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

Each spec keeps one level record, read by ladders, realizations, spectra and
a float build's overflow message: F and f as int numerators and denominators
(f as doubles if it has sqrt), each evaluated once per spec.
``structure_values`` is F's Fraction view; f has no view of its own.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .exprlang import (
    Expr,
    _level_parts,
    _structure_violations,
    has_sqrt,
    parse_expr,
    printable,
)
from .numerics import Backend, BandMatrix, _rooted, coerce_scalar, fits_double


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
    owns its level record of int numerators and denominators: the longest
    F(0..D) validated for it, which a smaller dim reads a prefix of, and the
    longest f(0..D) asked for (doubles for a weight with sqrt).  The record
    is neither a constructor argument nor part of equality, and
    ``dataclasses.replace`` starts a new spec without one.
    """

    structure: Expr
    params: Mapping[str, Fraction]
    weight: Expr
    kappa: Fraction | None
    structure_src: str
    weight_src: str
    _levels: tuple = field(default=((), ()), init=False, repr=False, compare=False)
    _weights: tuple = field(default=((), ()), init=False, repr=False, compare=False)

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


def _structure_record(spec: OscillatorSpec, dim: int) -> tuple[list[int], list[int]]:
    """F(0..D), D >= dim, as exact int numerators and positive denominators,
    not reduced: the spec's level record.  F is evaluated and validated once
    per spec for the largest dim asked so far, by the sign of each numerator;
    raises ValidationError if F(0) != 0 or any F(n) <= 0."""
    if 1 <= dim < len(spec._levels[0]):
        return spec._levels
    if has_sqrt(spec.structure):
        raise ValidationError("structure function must be exactly evaluable (no sqrt)")
    numerators, denominators = _level_parts(spec.structure, 0, dim + 1, spec.params)
    violations = _structure_violations(numerators, denominators)
    if violations:
        details = "; ".join(
            f"F({v.n}) = {printable(v.value)} violates {v.constraint}" for v in violations[:4]
        )
        raise ValidationError(f"invalid structure function: {details}")
    object.__setattr__(spec, "_levels", (numerators, denominators))
    return spec._levels


def structure_values(spec: OscillatorSpec, dim: int) -> tuple[Fraction, ...]:
    """Exact F(0..dim), one Fraction per level of the spec's level record;
    raises ValidationError if F(0) != 0 or any F(n) <= 0."""
    numerators, denominators = _structure_record(spec, dim)
    return tuple(map(Fraction, numerators[: dim + 1], denominators[: dim + 1]))


def _weight_record(spec: OscillatorSpec, dim: int) -> tuple[list, list[int]]:
    """f(0..D), D >= dim, from the spec's level record, evaluated once per spec
    for the largest dim asked so far: exact int numerators and denominators, or
    doubles over 1 for a weight with sqrt; f(0), a factor of F(0) = 0 only, is 0."""
    if len(spec._weights[0]) <= dim:
        backend = Backend.EXACT if spec.weight_is_exact else Backend.FLOAT
        values, denominators = _level_parts(spec.weight, 1, dim + 1, spec.params, backend)
        object.__setattr__(spec, "_weights", ([0, *values], [1, *(denominators or [1] * dim)]))
    return spec._weights


@dataclass(frozen=True)
class FockRep:
    """Matrices of one deformed oscillator on the truncated Fock space."""

    a: BandMatrix
    a_dag: BandMatrix
    even_projector: BandMatrix
    odd_projector: BandMatrix


def _ladder_values(spec: OscillatorSpec, dim: int, backend: Backend) -> tuple[tuple, list]:
    """F's level record for ladder amplitudes on dimension dim >= 2, and on
    the float backend F(0..dim-1) as doubles, each the correctly rounded
    quotient of its integer parts (none on the exact backend); every
    F(1..dim-1) must fit a double."""
    if dim < 2:
        raise ValidationError("dim must be >= 2")
    record = _structure_record(spec, dim)
    if backend is Backend.EXACT:
        return record, []
    try:
        return record, list(map(operator.truediv, *(parts[:dim] for parts in record)))
    except OverflowError:
        n = next(n for n, parts in enumerate(zip(*record)) if not fits_double(Fraction(*parts)))
        raise ValidationError(f"F({n}) is beyond the double range of the float backend") from None


def build_fock_rep(
    spec: OscillatorSpec, dim: int, backend: Backend = Backend.FLOAT
) -> FockRep:
    """Build the ladder and parity projector matrices on dimension dim; a and a+
    share one list of sqrt(F(n)), n = 1..dim-1, from F(n)'s int parts or double."""
    (numerators, denominators), doubles = _ladder_values(spec, dim, backend)
    if backend is Backend.EXACT:
        roots = [_rooted(1, 0, 1, n, d) for n, d in zip(numerators[1:dim], denominators[1:dim])]
    else:
        roots = [complex(math.sqrt(level)) for level in doubles[1:]]
    a, a_dag = (BandMatrix(dim, backend, {offset: roots}) for offset in (1, -1))
    alternating = [coerce_scalar(1, backend), coerce_scalar(0, backend)] * (dim // 2 + 1)
    p_even, p_odd = (BandMatrix(dim, backend, {0: alternating[p:p + dim]}) for p in (0, 1))
    return FockRep(a, a_dag, p_even, p_odd)
