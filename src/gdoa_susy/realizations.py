"""Single-boson realizations of the color superalgebra, spectra, pairing.

Each deformed oscillator yields two inequivalent realizations labeled by a
parity mu in {0, 1}.  The parity-restricted supercharges act only on one
sector: for mu = 0 the lowering charge annihilates odd levels, for mu = 1 even
levels.  Two sign conventions are produced by the two construction families:

* ``cv``: the reflection-deformed oscillator presentation, with
  Q+ = a P_mu, Q = a+ P_(1-mu) and Z = (-1)^(mu+1) T H.
* ``gdoa``: the weighted family Q+ = f(N) a+ P_(1-mu), Q = f(N+1) a P_mu and
  Z = (-1)^mu T H.

Q+ and Q share one list of edges f(m) sqrt(F(m)), written by one writer of
every realization set, :func:`_realization`: builds, exact variants and the
record the suites compare with.  No realization builds a ladder.  Every build,
spectrum and reduction reads one level record of ints: F and f from the spec
(see :class:`~gdoa_susy.fock.OscillatorSpec`), evaluated once per spec, and
E_m per doublet level m from :func:`_energies`, with Z as E under the
convention's signs.  Scalars are written from integer parts; Fractions are
built only for spectrum rows, one per doublet.  The exact variant of a float
build is written from the spec's level record, as a fresh exact build is,
never from its float matrices, so the exact re-check rests on the defining
data alone; :func:`certifying_dim` gives the smallest dim at which it proves
the diagonal-exact identities on each parity class of n.  The
verification suites hold the instance Q+, Q, H and Z to the set the spec
gives, on every entry.

At f = 1 and the reflection-deformed structure function the two families
coincide under the swap Q <-> Q+, Z <-> -Z with identical H;
:func:`reduction_check` verifies that swap exactly against the CV
presentation as written, the ladder products a P_mu and a+ P_(1-mu).

Spectra come from closed-form level formulas (exact rationals), independent of
the matrix construction.  Level n takes E_n from the level m whose F sets it:
m = n when n % 2 == mu, else n + 1.  Levels sharing m form one doublet,
labelled ``p{m // 2}``: (2k+1, 2k+2) for mu = 0, whose m = 0 is the unpaired
ground state, and (2k, 2k+1) for mu = 1.  :func:`_by_level` lays E and Z out
on the levels by this rule; :func:`degeneracy_pairs` groups a table's rows by
it through :func:`_level`, and the CLI labels each level from those pairs.
Within a doublet the two central-charge eigenvalues are opposite, which is
what separates the paired states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import floordiv
from typing import Sequence

from .exprlang import BinOp, Pow, _rational_degree
from .fock import (
    OscillatorSpec,
    ValidationError,
    _ladder_values,
    _structure_record,
    _weight_record,
    build_fock_rep,
)
from .grading import GradedOperator, degree
from .numerics import Backend, BandMatrix, _rooted, _zero, approx_equal_matrix, fits_double

DEGREE_H = degree(0, 0)
DEGREE_Q10 = degree(1, 0)
DEGREE_Q01 = degree(0, 1)
DEGREE_Z = degree(1, 1)


@dataclass(frozen=True)
class RealizationSet:
    """Supercharges Q+/Q plus diagonal H and Z for one parity label mu."""

    spec: OscillatorSpec
    mu: int
    dim: int
    backend: Backend
    convention: str  # 'cv' or 'gdoa'
    Qdag: GradedOperator
    Q: GradedOperator
    H: GradedOperator
    Z: GradedOperator


def _require_mu(mu: int) -> None:
    if mu not in (0, 1):
        raise ValidationError(f"mu must be 0 or 1, got {mu!r}")


def _level(mu: int, n: int) -> int:
    """The level m whose F sets E_n: n on the charge-lowering sector, n + 1 off it."""
    return n if n % 2 == mu else n + 1


def _energies(spec: OscillatorSpec, mu: int, count: int, convention: str) -> tuple:
    """E_m of each doublet level m = mu, mu + 2, ..., <= count, by the
    construction's formula (m, plus kappa for odd m, for 'cv'; f(m)^2 F(m) from
    the level record for 'gdoa'): reduced int numerators and positive
    denominators, or doubles and None for a weight with sqrt."""
    structure = [parts[mu:count + 1:2] for parts in _structure_record(spec, count)]
    if convention == "cv":  # F is validated all the same; every m has the parity mu
        kn, kd = (spec.kappa.numerator, spec.kappa.denominator) if mu else (0, 1)
        levels = range(mu * kd + kn, (count + 1) * kd + kn, 2 * kd)
        return list(levels), [kd] * len(levels)
    weights, divisors = _weight_record(spec, count)
    if not spec.weight_is_exact:  # an inf or NaN energy overflows, as an exact one does
        energies = [w ** 2 * (n / d) for w, n, d in zip(weights[mu::2], *structure)]
        if not all(map(math.isfinite, energies)):
            raise OverflowError("an energy is beyond the double range")
        return energies, None
    tops = [w * w * n for w, n in zip(weights[mu::2], structure[0])]
    bottoms = [w * w * d for w, d in zip(divisors[mu::2], structure[1])]
    gcds = list(map(math.gcd, tops, bottoms))
    return list(map(floordiv, tops, gcds)), list(map(floordiv, bottoms, gcds))


def _by_level(values: list, negated: list, mu: int, count: int, convention: str) -> list:
    """E and Z on levels 0..count-1 from E_m and -E_m of each doublet level m:
    levels m - 1 (-1 for m = 0) and m share E_m and take (E_m, -E_m) as Z for
    'cv', (-E_m, E_m) for 'gdoa': Z_n = s (-1)^n E_n, s = -(-1)^mu or (-1)^mu."""
    charges = zip(values, negated) if convention == "cv" else zip(negated, values)
    return [list(islice(chain.from_iterable(pairs), 1 - mu, 1 - mu + count))
            for pairs in (zip(values, values), charges)]


def _diagonals(energies: tuple, mu: int, count: int, convention: str, backend: Backend) -> list:
    """H and Z, diagonal in E and Z level by level; a doublet level's two
    scalars are written once, from integer parts under a radicand of 1, or
    from the doubles of a weight with sqrt."""
    values, denominators = energies
    signed, denominators = (values, [-e for e in values]), denominators or repeat(1)
    if backend is Backend.EXACT:
        scalars = [list(map(_rooted, v, repeat(0), denominators, repeat(1), repeat(1)))
                   for v in signed]
    else:  # a double over 1 is itself
        scalars = [[complex(k / d) for k, d in zip(v, denominators)] for v in signed]
    return [BandMatrix(count, backend, {0: diagonal})
            for diagonal in _by_level(*scalars, mu, count, convention)]


def _charges(spec: OscillatorSpec, mu: int, dim: int, backend: Backend) -> tuple:
    """Raising and lowering charges of parity mu, sharing one list of edges: f(m)
    sqrt(F(m)) at index m - 1, so at (m, m-1) and (m-1, m), for m = mu (mod 2),
    from the level record's int parts (exact) or F(m)'s one double (float)."""
    _require_mu(mu)
    (numerators, denominators), doubles = _ladder_values(spec, dim, backend)
    if backend is Backend.EXACT and not spec.weight_is_exact:
        raise ValidationError("weight function contains sqrt; use the float backend")
    weights, divisors = _weight_record(spec, dim)
    levels, edges = range(2 - mu, dim, 2), [_zero(backend)] * (dim - 1)
    if backend is Backend.EXACT:
        values = [_rooted(weights[m], 0, divisors[m], numerators[m], denominators[m])
                  for m in levels]
    else:
        values = [complex(weights[m] / divisors[m] * math.sqrt(doubles[m])) for m in levels]
    edges[1 - mu::2] = values
    return BandMatrix(dim, backend, {-1: edges}), BandMatrix(dim, backend, {1: edges})


def _realization(spec: OscillatorSpec, mu: int, dim: int, backend: Backend,
                 convention: str) -> RealizationSet:
    """Every realization set, from its record: Q+ and Q by :func:`_charges` in
    the convention's order (cv lowers with Q+), then H and Z diagonal in the
    energies :func:`_energies` gives, under its signs."""
    raising, lowering = _charges(spec, mu, dim, backend)
    qdag, q = (lowering, raising) if convention == "cv" else (raising, lowering)
    h, z = _diagonals(_energies(spec, mu, dim, convention), mu, dim, convention, backend)
    return RealizationSet(
        spec=spec, mu=mu, dim=dim, backend=backend, convention=convention,
        Qdag=GradedOperator(qdag, None, "Q+"), Q=GradedOperator(q, None, "Q"),
        H=GradedOperator(h, DEGREE_H, "H"), Z=GradedOperator(z, DEGREE_Z, "Z"),
    )


def cv_realization(
    kappa: Fraction | int | str | OscillatorSpec, mu: int, dim: int,
    backend: Backend = Backend.FLOAT,
) -> RealizationSet:
    """Reflection-deformed oscillator realization (unweighted charges).

    ``kappa`` may also be a calogero_vasiliev spec, whose level record the
    build then reads; any other spec raises :class:`ValidationError`."""
    spec = kappa if isinstance(kappa, OscillatorSpec) else OscillatorSpec.calogero_vasiliev(kappa)
    if not spec.is_calogero_vasiliev:
        raise ValidationError(f"cv_realization needs a calogero_vasiliev spec, "
                              f"not {spec.describe()}")
    return _realization(spec, mu, dim, backend, "cv")


def gdoa_realization(
    spec: OscillatorSpec, mu: int, dim: int, backend: Backend = Backend.FLOAT
) -> RealizationSet:
    """Weighted-charge realization for an arbitrary structure function."""
    try:
        return _realization(spec, mu, dim, backend, "gdoa")
    except OverflowError:
        # name the first level m = mu (mod 2) beyond the double range, from the
        # record the failed build filled (f(m) is a double for a weight with sqrt)
        weights, divisors = _weight_record(spec, dim)
        numerators, denominators = _structure_record(spec, dim)
        levels = ((m, weights[m] / Fraction(divisors[m]), Fraction(numerators[m], denominators[m]))
                  for m in range(2 - mu, dim + 1, 2))
        m, f = next((m, f) for m, f, F in levels
                    if not (fits_double(F) and fits_double(f) and fits_double(f * f * F)))
        if f != f:  # inf - inf in a sqrt weight: NaN is in no range
            raise ValidationError(f"f({m}) is NaN on the float backend") from None
        raise ValidationError(
            f"f({m}) or f({m})^2 F({m}) is beyond the double range of the float backend"
        ) from None


def exact_variant(r: RealizationSet, dim: int | None = None) -> RealizationSet | None:
    """The same realization on the exact backend at ``dim`` (default
    ``r.dim``), or None if f needs floats; on the exact backend, ``r`` itself.

    Written from ``r.spec``'s level record alone, as a fresh exact build of
    that dim is: it never reads ``r``'s matrices."""
    if r.backend is Backend.EXACT:
        return r
    if not r.spec.weight_is_exact:
        return None
    dim = r.dim if dim is None else dim
    if dim > r.dim:
        raise ValidationError(f"an exact variant of dim {dim} exceeds the build's dim {r.dim}")
    return _realization(r.spec, r.mu, dim, Backend.EXACT, r.convention)


def certifying_dim(spec: OscillatorSpec, dim: int) -> int:
    """The least dim d whose exact re-check of the diagonal-exact rows
    proves their rational identities on each parity class of n (not F(n) > 0
    or f(n) finite and nonzero above ``dim``), or ``dim`` if that is smaller
    or the spec lies outside the scope of :func:`~gdoa_susy.exprlang._rational_degree`.

    Proof.  For every dim, each charge entry sits at (m, m-1) or (m-1, m)
    with m = mu (mod 2), and H and Z are diagonal, so {Q+,Q} - H,
    [Q+,Q] - Z and [H,Z] are diagonal.  Below the top column a truncation's
    entry at column n is that of the infinite matrices: +-(f(m)^2 F(m) - E_m)
    with m = n or n + 1 by the parity of n, or H_nn Z_nn - Z_nn H_nn.  On
    each parity class of n, parity(n + c) is a constant, so f(m)^2 F(m) is a
    quotient of polynomials in n with degrees at most (N, M), the bound of
    its tree.  So is E_m: f(m)^2 F(m) again for 'gdoa', and linear in m for
    'cv', which N >= 1 covers.  Each entry is then such a quotient with a
    numerator of degree at most k = 2(N + M), which the product of two level
    functions in [H,Z] needs, and a numerator that vanishes at k + 1 points
    of a class vanishes on all of it.  The re-check at dim d compares columns
    0..d-2 exactly (guard band 1, the largest of the three rows).  Column 0
    does not count: level 0 reads f(0) = 0 from the record, not from f's
    expression.  Columns 1..d-2 hold k + 1 points of each class from
    d = 2(k + 1) + 2 on, which so proves the identity above d too."""
    degree = _rational_degree(BinOp("*", Pow(spec.weight, 2), spec.structure))
    if degree is None:
        return dim
    k = 2 * (max(degree[0], 1) + degree[1])
    first, guard = 1, 1  # the columns first..d-1-guard certify
    return min(dim, first + 2 * (k + 1) + guard)


@dataclass(frozen=True)
class HermitianSet:
    """Hermitian generators Q10 = Q+ + Q, Q01 = -i(Q+ - Q) with H and Z.

    Degrees: H = (0,0), Q10 = (1,0), Q01 = (0,1), Z = (1,1).
    """

    spec: OscillatorSpec
    mu: int
    dim: int
    backend: Backend
    Q10: GradedOperator
    Q01: GradedOperator
    H: GradedOperator
    Z: GradedOperator


def hermitian_charges(r: RealizationSet) -> HermitianSet:
    """Combine Q+/Q into the Hermitian degree-(1,0) and degree-(0,1) charges."""
    q10 = r.Qdag.matrix + r.Q.matrix
    q01 = (r.Qdag.matrix - r.Q.matrix).scaled(-1j)
    return HermitianSet(
        spec=r.spec, mu=r.mu, dim=r.dim, backend=r.backend,
        Q10=GradedOperator(q10, DEGREE_Q10, "Q10"), Q01=GradedOperator(q01, DEGREE_Q01, "Q01"),
        H=r.H, Z=r.Z,
    )


@dataclass(frozen=True)
class SpectrumRow:
    """One level: index n, energy E_n, central charge eigenvalue Z_n."""

    n: int
    energy: Fraction
    central: Fraction


@dataclass(frozen=True)
class SpectrumTable:
    """Exact closed-form spectrum of one realization on levels 0..n_max."""

    spec: OscillatorSpec
    mu: int
    n_max: int
    rows: tuple[SpectrumRow, ...]

    @property
    def verdict(self) -> str:
        """'unbroken' when a zero-energy level exists in the window."""
        return "unbroken" if any(row.energy.numerator == 0 for row in self.rows) else "broken"


def spectrum_H(spec: OscillatorSpec, mu: int, n_max: int) -> SpectrumTable:
    """Closed-form spectrum table (energy column is the primary payload)."""
    _require_mu(mu)
    if n_max < 0:
        raise ValidationError("n_max must be nonnegative")
    if not spec.weight_is_exact:
        raise ValidationError("spectrum tables require an exactly evaluable weight (no sqrt)")
    convention, count = "cv" if spec.is_calogero_vasiliev else "gdoa", n_max + 1
    energies = list(map(Fraction, *_energies(spec, mu, count, convention)))
    columns = _by_level(energies, [-e for e in energies], mu, count, convention)
    rows = tuple(map(SpectrumRow, range(count), *columns))
    return SpectrumTable(spec, mu, n_max, rows)


@dataclass(frozen=True)
class DegeneratePair:
    """A structural doublet (low, high) and its central-charge eigenvalues."""

    low: int
    high: int
    energy: Fraction
    z_low: Fraction
    z_high: Fraction

    @property
    def z_splits(self) -> bool:
        """True when opposite nonzero Z eigenvalues tell the two levels apart
        (compared by numerator and positive denominator, with no negation)."""
        low, high = self.z_low, self.z_high
        return (low.numerator != 0 and low.numerator == -high.numerator
                and low.denominator == high.denominator)


@dataclass(frozen=True)
class UnpairedLevel:
    """A level without a partner in the window: the ground state or a truncation edge."""

    n: int
    energy: Fraction
    reason: str  # 'ground' or 'truncated'


@dataclass(frozen=True)
class AccidentalGroup:
    """Levels sharing an energy beyond the structural doublet pattern."""

    energy: Fraction
    levels: tuple[int, ...]


@dataclass(frozen=True)
class DegeneracyReport:
    """Structural pairing of a spectrum table plus accidental collisions."""

    mu: int
    n_max: int
    pairs: tuple[DegeneratePair, ...]
    unpaired: tuple[UnpairedLevel, ...]
    accidental: tuple[AccidentalGroup, ...]

    @property
    def z_resolves(self) -> bool:
        """True when every pair is split by opposite nonzero Z eigenvalues."""
        return all(p.z_splits for p in self.pairs)


def degeneracy_pairs(table: SpectrumTable) -> DegeneracyReport:
    """Group the table's rows, which must be levels 0..n_max in order, by
    :func:`_level` into doublets and unpaired levels, and flag energies that
    more than one group shares; energies compare as (numerator, denominator)."""
    _require_mu(table.mu)
    if [row.n for row in table.rows] != list(range(table.n_max + 1)):
        raise ValidationError(f"spectrum rows must be levels 0..{table.n_max} in order")
    groups: dict[int, list[SpectrumRow]] = {}
    for row in table.rows:
        groups.setdefault(_level(table.mu, row.n), []).append(row)
    pairs: list[DegeneratePair] = []
    unpaired: list[UnpairedLevel] = []
    by_energy: dict[tuple[int, int], list[list[SpectrumRow]]] = {}
    for m, group in groups.items():
        row = group[0]
        key = (row.energy.numerator, row.energy.denominator)
        if len(group) == 2:
            mate = group[1]
            if (mate.energy.numerator, mate.energy.denominator) != key:
                raise ValidationError(f"levels {row.n} and {mate.n} should be degenerate: "
                                      f"{row.energy} != {mate.energy}")
            pairs.append(DegeneratePair(row.n, mate.n, row.energy, row.central, mate.central))
        else:
            unpaired.append(UnpairedLevel(row.n, row.energy, "ground" if m == 0 else "truncated"))
        by_energy.setdefault(key, []).append(group)
    accidental = sorted(
        (AccidentalGroup(shared[0][0].energy, tuple(r.n for group in shared for r in group))
         for shared in by_energy.values() if len(shared) > 1),
        key=lambda group: group.energy,
    )
    return DegeneracyReport(table.mu, table.n_max, tuple(pairs), tuple(unpaired), tuple(accidental))


@dataclass(frozen=True)
class ReductionEntry:
    """One operator comparison between the two construction families."""

    mu: int
    operator: str
    residual: float
    exact: bool


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of specializing the weighted family to the reflection oscillator."""

    kappa: Fraction
    dim: int
    entries: tuple[ReductionEntry, ...]

    @property
    def ok(self) -> bool:
        return all(entry.exact for entry in self.entries)


def reduction_check(
    spec: OscillatorSpec, dim: int = 64, backend: Backend = Backend.FLOAT,
    mus: Sequence[int] = (0, 1),
) -> ReductionReport:
    """Verify that the weighted family at f = 1, F = deformed integers equals the
    reflection-oscillator realization under the swap Q <-> Q+, Z <-> -Z, for
    each parity in ``mus``.

    ``spec`` must be a calogero_vasiliev spec.  The weighted family and the
    one ladder of the call are built from it, so they read one level record
    (F is evaluated and validated once)."""
    if not spec.is_calogero_vasiliev:
        raise ValidationError(
            f"reduction_check needs a calogero_vasiliev spec, not {spec.describe()}"
        )
    if not mus:
        raise ValidationError("reduction_check needs at least one parity label mu")
    rep = build_fock_rep(spec, dim, backend)
    projectors = (rep.even_projector, rep.odd_projector)
    entries: list[ReductionEntry] = []
    for mu in mus:
        gd = gdoa_realization(spec, mu, dim, backend)
        # the CV presentation as written: Q+ = a P_mu, Q = a+ P_(1-mu), closed-form H, Z
        reference = _energies(spec, mu, dim, "cv")
        h, z = _diagonals(reference, mu, dim, "cv", backend)
        comparisons = [
            ("Q+ <-> Q", rep.a @ projectors[mu], gd.Q.matrix),
            ("Q <-> Q+", rep.a_dag @ projectors[1 - mu], gd.Qdag.matrix),
            ("H", h, gd.H.matrix),
            ("Z <-> -Z", z, gd.Z.matrix.scaled(-1)),
        ]
        for name, lhs, rhs in comparisons:
            cmp = approx_equal_matrix(lhs, rhs)
            entries.append(ReductionEntry(mu, name, cmp.residual, lhs == rhs))
        # the two records as ints (f = 1 is exact); Z is E under opposite signs
        if reference != _energies(spec, mu, dim, "gdoa"):
            entries += [ReductionEntry(mu, f"{name} diagonal", float("inf"), False)
                        for name in ("H", "Z")]
    return ReductionReport(spec.kappa, dim, tuple(entries))
