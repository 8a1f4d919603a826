"""Single-boson realizations of the color superalgebra, spectra, pairing.

Each deformed oscillator yields two inequivalent realizations labeled by a
parity mu in {0, 1}.  The parity-restricted supercharges act only on one
sector: for mu = 0 the lowering charge annihilates odd levels, for mu = 1 even
levels.  Two sign conventions are produced by the two construction families:

* ``cv``: the reflection-deformed oscillator presentation, with
  Q+ = a P_mu, Q = a+ P_(1-mu) and Z = (-1)^(mu+1) T H.
* ``gdoa``: the weighted family Q+ = f(N) a+ P_(1-mu), Q = f(N+1) a P_mu and
  Z = (-1)^mu T H.

Both are written entry by entry, f(m) sqrt(F(m)) per edge, by one writer: no
realization builds a ladder.  Every build, spectrum and reduction reads F and
f (floats for a weight with sqrt) from its spec's one level record (see
:class:`~gdoa_susy.fock.OscillatorSpec`), evaluated once per spec, and takes
E and Z from one function, :func:`_energies_and_charges`.  The exact variant
of a float build is no second build: it writes only the exact charges, from
the same record, and takes H and Z from the exact energies and central
charges the float build recorded (``h_diag``, ``z_diag``).  It never reads
the float matrices, so the exact re-check still rests on the defining data
alone.  Each level's scalar is written from integer parts: an exact edge
through its radicand's split, a float one from F(m)'s one double, a diagonal
entry from its rational.

At f = 1 and the reflection-deformed structure function the two families
coincide under the swap Q <-> Q+, Z <-> -Z with identical H;
:func:`reduction_check` verifies that swap exactly against the CV
presentation as written, the ladder products a P_mu and a+ P_(1-mu).

Spectra come from closed-form level formulas (exact rationals), independent of
the matrix construction.  One rule, :func:`_level`, maps level n to the level m
whose F sets E_n: m = n when n % 2 == mu, else n + 1.  Levels sharing m form
one doublet, labelled ``p{m // 2}``: (2k+1, 2k+2) for mu = 0, whose m = 0 is the
unpaired ground state, and (2k, 2k+1) for mu = 1.  The energies, the
doublets of :func:`degeneracy_pairs` and the CLI's pair labels all read it.
Within a doublet the two central-charge eigenvalues are opposite, which is
what separates the paired states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, islice
from typing import Sequence

from .fock import (
    OscillatorSpec,
    ValidationError,
    _ladder_values,
    _weight_levels,
    build_fock_rep,
    structure_values,
)
from .grading import GradedOperator, degree
from .numerics import (
    Backend,
    BandMatrix,
    ExactScalar,
    _rooted,
    approx_equal_matrix,
)

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
    h_diag: tuple[Fraction, ...] | None
    z_diag: tuple[Fraction, ...] | None

    @cached_property
    def exact(self) -> "RealizationSet | None":
        """:func:`exact_variant` of this realization, built on first use."""
        return exact_variant(self)


def _require_mu(mu: int) -> None:
    if mu not in (0, 1):
        raise ValidationError(f"mu must be 0 or 1, got {mu!r}")


def _level(mu: int, n: int) -> int:
    """The level m whose F sets E_n: n on the charge-lowering sector, n + 1 off it."""
    return n if n % 2 == mu else n + 1


def _cv_energy(kappa: Fraction, m: int) -> Fraction:
    """Closed-form F(m) of the reflection oscillator: m, plus kappa for odd m,
    one Fraction from integer parts."""
    if m % 2:
        return Fraction(m * kappa.denominator + kappa.numerator, kappa.denominator)
    return Fraction(m)


def _gdoa_energy(values: tuple[Fraction, ...], weights: dict, m: int) -> Fraction | float:
    """Energy f(m)^2 F(m) of the weighted family (f(0) is undefined, F(0) = 0):
    one Fraction from integer parts for an exact f, a double for a float one."""
    v = values[m]
    if not v.numerator:
        return Fraction(0)
    w = weights[m]
    if type(w) is float:
        return w ** 2 * v
    return Fraction(w.numerator ** 2 * v.numerator, w.denominator ** 2 * v.denominator)


def _energies_and_charges(spec: OscillatorSpec, mu: int, count: int,
                          convention: str) -> tuple[tuple, tuple]:
    """E_0..E_(count-1) and Z_n = s (-1)^n E_n (s = -(-1)^mu for 'cv', (-1)^mu for
    'gdoa'), from the spec's level record.  Each doublet level m is evaluated
    once, by the convention's formula (``_cv_energy`` or ``_gdoa_energy``), and
    negated once: its levels m - 1 and m share E_m, and take E_m and -E_m as Z."""
    values = structure_values(spec, count)  # also validates F for 'cv'
    energy = (partial(_cv_energy, spec.kappa) if convention == "cv"
              else partial(_gdoa_energy, values, _weight_levels(spec, count)))
    energies = [energy(m) for m in range(mu, count + 1, 2)]
    negated = [-e for e in energies]
    charges = zip(energies, negated) if convention == "cv" else zip(negated, energies)
    first = 1 - mu  # the pairs cover levels m - 1, m of each m: skip n = -1 for mu = 0
    return (tuple(islice(chain.from_iterable(zip(energies, energies)), first, first + count)),
            tuple(islice(chain.from_iterable(charges), first, first + count)))


def _charges(spec: OscillatorSpec, mu: int, dim: int, backend: Backend) -> tuple:
    """Raising and lowering charges of parity mu, f(m) sqrt(F(m)) at (m, m-1) and
    (m-1, m) for m = mu (mod 2), with F and f read from the spec's level record.
    Each edge is written from integer parts: exact through its radicand's
    split, float from F(m)'s one double."""
    _require_mu(mu)
    values, doubles = _ladder_values(spec, dim, backend)
    if backend is Backend.EXACT and not spec.weight_is_exact:
        raise ValidationError("weight function contains sqrt; use the float backend")
    weights = _weight_levels(spec, dim)
    levels = range(2 - mu, dim, 2)
    if backend is Backend.EXACT:
        edges = {m: _rooted(weights[m].numerator, 0, weights[m].denominator,
                            values[m].numerator, values[m].denominator) for m in levels}
    else:
        edges = {m: complex(float(weights[m]) * math.sqrt(doubles[m])) for m in levels}
    raising = BandMatrix(dim, backend, {(m, m - 1): edge for m, edge in edges.items()})
    lowering = BandMatrix(dim, backend, {(m - 1, m): edge for m, edge in edges.items()})
    return raising, lowering


def _realization(spec: OscillatorSpec, mu: int, dim: int, backend: Backend, convention: str,
                 raising: BandMatrix, lowering: BandMatrix, energies: tuple,
                 central: tuple) -> RealizationSet:
    """One build's record: Q+ and Q in the convention's order (cv lowers with
    Q+), and H and Z diagonal in the energies and central charges."""
    qdag, q = (lowering, raising) if convention == "cv" else (raising, lowering)
    exact = spec.weight_is_exact
    return RealizationSet(
        spec=spec, mu=mu, dim=dim, backend=backend, convention=convention,
        Qdag=GradedOperator(qdag, None, "Q+"), Q=GradedOperator(q, None, "Q"),
        H=GradedOperator(BandMatrix.diagonal(energies, backend), DEGREE_H, "H"),
        Z=GradedOperator(BandMatrix.diagonal(central, backend), DEGREE_Z, "Z"),
        h_diag=energies if exact else None,
        z_diag=central if exact else None,
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
    return _realization(spec, mu, dim, backend, "cv", *_charges(spec, mu, dim, backend),
                        *_energies_and_charges(spec, mu, dim, "cv"))


def gdoa_realization(
    spec: OscillatorSpec, mu: int, dim: int, backend: Backend = Backend.FLOAT
) -> RealizationSet:
    """Weighted-charge realization for an arbitrary structure function."""
    try:
        return _realization(spec, mu, dim, backend, "gdoa", *_charges(spec, mu, dim, backend),
                            *_energies_and_charges(spec, mu, dim, "gdoa"))
    except OverflowError:
        # redo the conversions level by level to name the first that overflows
        values, weights = structure_values(spec, dim), _weight_levels(spec, dim)
        for m in range(1, dim + 1):
            try:
                float(weights[m]), float(weights[m] ** 2 * values[m])
            except OverflowError:
                break
        raise ValidationError(
            f"f({m}) or f({m})^2 F({m}) is beyond the double range of the float backend"
        ) from None


def exact_variant(r: RealizationSet) -> RealizationSet | None:
    """The same realization on the exact backend, or None if f needs floats.

    Only its charges are built, exact, from ``r.spec``'s level record; H and
    Z are the exact energies and central charges ``r`` recorded.  It never
    reads ``r``'s float matrices, so it is derived from the defining data."""
    if r.backend is Backend.EXACT:
        return r
    if not r.spec.weight_is_exact:
        return None
    return _realization(r.spec, r.mu, r.dim, Backend.EXACT, r.convention,
                        *_charges(r.spec, r.mu, r.dim, Backend.EXACT), r.h_diag, r.z_diag)


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
    minus_i = ExactScalar(0, -1) if r.backend is Backend.EXACT else -1j
    q10 = r.Qdag.matrix + r.Q.matrix
    q01 = (r.Qdag.matrix - r.Q.matrix).scaled(minus_i)
    return HermitianSet(
        spec=r.spec,
        mu=r.mu,
        dim=r.dim,
        backend=r.backend,
        Q10=GradedOperator(q10, DEGREE_Q10, "Q10"),
        Q01=GradedOperator(q01, DEGREE_Q01, "Q01"),
        H=r.H,
        Z=r.Z,
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
        return "unbroken" if any(row.energy == 0 for row in self.rows) else "broken"


def spectrum_H(spec: OscillatorSpec, mu: int, n_max: int) -> SpectrumTable:
    """Closed-form spectrum table (energy column is the primary payload)."""
    _require_mu(mu)
    if n_max < 0:
        raise ValidationError("n_max must be nonnegative")
    if not spec.weight_is_exact:
        raise ValidationError("spectrum tables require an exactly evaluable weight (no sqrt)")
    convention = "cv" if spec.is_calogero_vasiliev else "gdoa"
    rows = tuple(map(SpectrumRow, range(n_max + 1),
                     *_energies_and_charges(spec, mu, n_max + 1, convention)))
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
    """Group the table's levels by :func:`_level` into doublets and unpaired
    levels, and flag energies that more than one group shares."""
    _require_mu(table.mu)
    groups: dict[int, list[SpectrumRow]] = {}
    for row in table.rows:
        groups.setdefault(_level(table.mu, row.n), []).append(row)
    pairs: list[DegeneratePair] = []
    unpaired: list[UnpairedLevel] = []
    by_energy: dict[tuple[int, int], list[list[SpectrumRow]]] = {}
    for m, group in groups.items():
        row = group[0]
        if len(group) == 2:
            mate = group[1]
            if mate.energy != row.energy:
                raise ValidationError(f"levels {row.n} and {mate.n} should be degenerate: "
                                      f"{row.energy} != {mate.energy}")
            pairs.append(DegeneratePair(row.n, mate.n, row.energy, row.central, mate.central))
        else:
            unpaired.append(UnpairedLevel(row.n, row.energy, "ground" if m == 0 else "truncated"))
        by_energy.setdefault((row.energy.numerator, row.energy.denominator), []).append(group)
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
        h_diag, z_diag = _energies_and_charges(spec, mu, dim, "cv")
        comparisons = [
            ("Q+ <-> Q", rep.a @ projectors[mu], gd.Q.matrix),
            ("Q <-> Q+", rep.a_dag @ projectors[1 - mu], gd.Qdag.matrix),
            ("H", BandMatrix.diagonal(h_diag, backend), gd.H.matrix),
            ("Z <-> -Z", BandMatrix.diagonal(z_diag, backend), gd.Z.matrix.scaled(-1)),
        ]
        for name, lhs, rhs in comparisons:
            cmp = approx_equal_matrix(lhs, rhs)
            entries.append(ReductionEntry(mu, name, cmp.residual, lhs == rhs))
        if h_diag != gd.h_diag:
            entries.append(ReductionEntry(mu, "H diagonal", float("inf"), False))
        if z_diag != tuple(-z for z in gd.z_diag):  # f = 1 is exact: both are set
            entries.append(ReductionEntry(mu, "Z diagonal", float("inf"), False))
    return ReductionReport(spec.kappa, dim, tuple(entries))
