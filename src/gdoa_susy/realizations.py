"""Single-boson realizations of the color superalgebra, spectra, pairing.

Each deformed oscillator yields two inequivalent realizations labeled by a
parity mu in {0, 1}.  The parity-restricted supercharges act only on one
sector: for mu = 0 the lowering charge annihilates odd levels, for mu = 1 even
levels.  Two sign conventions are produced by the two construction families:

* ``cv``: the reflection-deformed oscillator presentation, with
  Q+ = a P_mu, Q = a+ P_(1-mu) and Z = (-1)^(mu+1) T H.
* ``gdoa``: the weighted family Q+ = f(N) a+ P_(1-mu), Q = f(N+1) a P_mu and
  Z = (-1)^mu T H, written entry by entry from F and f: it builds no ladder
  matrices.

Every build and spectrum reads F, and a sqrt-free f, from its spec's level
record (see :class:`~gdoa_susy.fock.OscillatorSpec`), and an exact variant is
built from the same spec, so each is evaluated (F validated) once per spec.

At f = 1 and the reflection-deformed structure function the two families
coincide under the swap Q <-> Q+, Z <-> -Z with identical H;
:func:`reduction_check` verifies that swap exactly.

Spectra come from closed-form level formulas (exact rationals), independent of
the matrix construction: levels pair as (2k+1, 2k+2) for mu = 0 with a unique
unpaired ground state at zero energy, and as (2k, 2k+1) for mu = 1.  Within a
pair the two central-charge eigenvalues are opposite, which is what separates
the paired states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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


def _cv_energy(kappa: Fraction, mu: int, n: int) -> Fraction:
    """Closed-form level n of the reflection oscillator family."""
    if mu == 0:
        # E = 0, 2, 2, 4, 4, ...: the k-th pair (2k+1, 2k+2) sits at 2k+2
        return Fraction(n if n % 2 == 0 else n + 1)
    # E = 1+kappa, 1+kappa, 3+kappa, ...: pair (2k, 2k+1) at 2k+1+kappa
    return Fraction(n + 1 if n % 2 == 0 else n) + kappa


def _gdoa_energy(values: tuple[Fraction, ...], weights: dict, mu: int, n: int) -> Fraction | float:
    """Level n of the weighted family: f(m)^2 F(m)."""
    # m = n on the charge-lowering sector, m = n + 1 off it
    m = n if (n % 2 == mu) else n + 1
    if values[m] == 0:
        return Fraction(0)
    return weights[m] ** 2 * values[m]


def _central_charges(energies: Sequence[Fraction | float], mu: int, convention: str) -> list:
    """Z_n = s (-1)^n E_n with s = -(-1)^mu for 'cv' and (-1)^mu for 'gdoa'."""
    sign = (-1 if mu == 0 else 1) * (1 if convention == "cv" else -1)
    return [sign * (-1 if n % 2 else 1) * energy for n, energy in enumerate(energies)]


def cv_realization(
    kappa: Fraction | int | str, mu: int, dim: int, backend: Backend = Backend.FLOAT
) -> RealizationSet:
    """Reflection-deformed oscillator realization (unweighted charges)."""
    return _cv_build(OscillatorSpec.calogero_vasiliev(kappa), mu, dim, backend)


def _cv_build(spec: OscillatorSpec, mu: int, dim: int, backend: Backend) -> RealizationSet:
    """:func:`cv_realization` of a calogero_vasiliev spec, reading its level record."""
    _require_mu(mu)
    rep = build_fock_rep(spec, dim, backend)
    if mu == 0:
        qdag_matrix = rep.a @ rep.even_projector
        q_matrix = rep.a_dag @ rep.odd_projector
    else:
        qdag_matrix = rep.a @ rep.odd_projector
        q_matrix = rep.a_dag @ rep.even_projector
    h_diag = tuple(_cv_energy(spec.kappa, mu, n) for n in range(dim))
    z_diag = tuple(_central_charges(h_diag, mu, "cv"))
    return RealizationSet(
        spec=spec,
        mu=mu,
        dim=dim,
        backend=backend,
        convention="cv",
        Qdag=GradedOperator(qdag_matrix, None, "Q+"),
        Q=GradedOperator(q_matrix, None, "Q"),
        H=GradedOperator(BandMatrix.diagonal(h_diag, backend), DEGREE_H, "H"),
        Z=GradedOperator(BandMatrix.diagonal(z_diag, backend), DEGREE_Z, "Z"),
        h_diag=h_diag,
        z_diag=z_diag,
    )


def gdoa_realization(
    spec: OscillatorSpec, mu: int, dim: int, backend: Backend = Backend.FLOAT
) -> RealizationSet:
    """Weighted-charge realization for an arbitrary structure function."""
    _require_mu(mu)
    values = _ladder_values(spec, dim, backend)
    exact_weight = spec.weight_is_exact
    if backend is Backend.EXACT and not exact_weight:
        raise ValidationError("weight function contains sqrt; use the float backend")
    weights = _weight_levels(spec, dim)

    def edge(m: int):
        # amplitude f(m) * sqrt(F(m)) of the transition across edge m
        if backend is Backend.EXACT:
            return ExactScalar(weights[m], 0, values[m])
        return complex(float(weights[m]) * math.sqrt(float(values[m])))

    # Q+ raises into the sector kept by P_(1-mu); Q lowers out of it.
    raising_targets = range(2 - mu, dim, 2)  # m: entry (m, m-1)
    try:
        qdag_matrix = BandMatrix(dim, backend, {(m, m - 1): edge(m) for m in raising_targets})
        q_matrix = BandMatrix(dim, backend, {(m - 1, m): edge(m) for m in raising_targets})
        energies = [_gdoa_energy(values, weights, mu, n) for n in range(dim)]
        charges = _central_charges(energies, mu, "gdoa")
        h_matrix = BandMatrix.diagonal(energies, backend)
        z_matrix = BandMatrix.diagonal(charges, backend)
    except OverflowError:
        # redo the conversions level by level to name the first that overflows
        for m in range(1, dim + 1):
            try:
                float(weights[m]), float(weights[m] ** 2 * values[m])
            except OverflowError:
                break
        raise ValidationError(
            f"f({m}) or f({m})^2 F({m}) is beyond the double range of the float backend"
        ) from None
    return RealizationSet(
        spec=spec,
        mu=mu,
        dim=dim,
        backend=backend,
        convention="gdoa",
        Qdag=GradedOperator(qdag_matrix, None, "Q+"),
        Q=GradedOperator(q_matrix, None, "Q"),
        H=GradedOperator(h_matrix, DEGREE_H, "H"),
        Z=GradedOperator(z_matrix, DEGREE_Z, "Z"),
        h_diag=tuple(energies) if exact_weight else None,
        z_diag=tuple(charges) if exact_weight else None,
    )


def exact_variant(r: RealizationSet) -> RealizationSet | None:
    """The same realization on the exact backend, or None if f needs floats.

    It is built from ``r.spec``, so it reads the level record the float build
    left there."""
    if r.backend is Backend.EXACT:
        return r
    if r.convention == "cv":
        if r.spec.kappa is None:
            raise ValidationError("a 'cv' realization must carry kappa")
        return _cv_build(r.spec, r.mu, r.dim, Backend.EXACT)
    if not r.spec.weight_is_exact:
        return None
    return gdoa_realization(r.spec, r.mu, r.dim, Backend.EXACT)


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


def _closed_form_values(spec: OscillatorSpec, mu: int, n_max: int) -> list[SpectrumRow]:
    _require_mu(mu)
    if n_max < 0:
        raise ValidationError("n_max must be nonnegative")
    if not spec.weight_is_exact:
        raise ValidationError("spectrum tables require an exactly evaluable weight (no sqrt)")
    values = structure_values(spec, n_max + 1)
    if spec.is_calogero_vasiliev:
        energies = [_cv_energy(spec.kappa, mu, n) for n in range(n_max + 1)]
        convention = "cv"
    else:
        weights = _weight_levels(spec, n_max + 1)
        energies = [_gdoa_energy(values, weights, mu, n) for n in range(n_max + 1)]
        convention = "gdoa"
    charges = _central_charges(energies, mu, convention)
    return [SpectrumRow(n, e, z) for n, (e, z) in enumerate(zip(energies, charges))]


def spectrum_H(spec: OscillatorSpec, mu: int, n_max: int) -> SpectrumTable:
    """Closed-form spectrum table (energy column is the primary payload)."""
    return SpectrumTable(spec, mu, n_max, tuple(_closed_form_values(spec, mu, n_max)))


def pair_partner(mu: int, n: int) -> int | None:
    """Structural degeneracy partner of level n, or None for the mu=0 ground state."""
    _require_mu(mu)
    if mu == 0:
        if n == 0:
            return None
        return n + 1 if n % 2 else n - 1
    return n + 1 if n % 2 == 0 else n - 1


def pair_index(mu: int, n: int) -> int | None:
    """Index k of the pair containing level n ((2k+1, 2k+2) for mu=0, (2k, 2k+1) for mu=1)."""
    _require_mu(mu)
    if mu == 0:
        return None if n == 0 else (n + 1) // 2
    return n // 2


@dataclass(frozen=True)
class DegeneratePair:
    """A structural doublet (low, high) and its central-charge eigenvalues."""

    low: int
    high: int
    energy: Fraction
    z_low: Fraction
    z_high: Fraction

    @property
    def z_opposite(self) -> bool:
        return self.z_low == -self.z_high

    @property
    def z_nonzero(self) -> bool:
        return self.z_low != 0


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
        return all(p.z_opposite and p.z_nonzero for p in self.pairs)


def degeneracy_pairs(table: SpectrumTable) -> DegeneracyReport:
    """Group the table into structural doublets and flag accidental collisions."""
    rows = {row.n: row for row in table.rows}
    pairs: list[DegeneratePair] = []
    unpaired: list[UnpairedLevel] = []
    expected_groups: list[tuple[int, ...]] = []
    for n, row in rows.items():
        partner = pair_partner(table.mu, n)
        if partner is None:
            unpaired.append(UnpairedLevel(n, row.energy, "ground"))
            expected_groups.append((n,))
        elif partner not in rows:
            unpaired.append(UnpairedLevel(n, row.energy, "truncated"))
            expected_groups.append((n,))
        elif partner > n:
            mate = rows[partner]
            if mate.energy != row.energy:
                raise ValidationError(
                    f"levels {n} and {partner} should be degenerate: "
                    f"{row.energy} != {mate.energy}"
                )
            pairs.append(DegeneratePair(n, partner, row.energy, row.central, mate.central))
            expected_groups.append((n, partner))
    by_energy: dict[Fraction, list[int]] = {}
    for n, row in rows.items():
        by_energy.setdefault(row.energy, []).append(n)
    expected = {group for group in expected_groups}
    accidental = tuple(
        AccidentalGroup(energy, tuple(levels))
        for energy, levels in sorted(by_energy.items())
        if tuple(levels) not in expected
    )
    return DegeneracyReport(table.mu, table.n_max, tuple(pairs), tuple(unpaired), accidental)


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
    spec: OscillatorSpec, dim: int = 64, backend: Backend = Backend.FLOAT
) -> ReductionReport:
    """Verify that the weighted family at f = 1, F = deformed integers equals the
    reflection-oscillator realization under the swap Q <-> Q+, Z <-> -Z.

    ``spec`` must be a calogero_vasiliev spec; both families are built from
    it, so they read one level record (F is evaluated and validated once)."""
    if not spec.is_calogero_vasiliev:
        raise ValidationError(
            f"reduction_check needs a calogero_vasiliev spec, not {spec.describe()}"
        )
    entries: list[ReductionEntry] = []
    for mu in (0, 1):
        cv = _cv_build(spec, mu, dim, backend)
        gd = gdoa_realization(spec, mu, dim, backend)
        comparisons = [
            ("Q+ <-> Q", cv.Qdag.matrix, gd.Q.matrix),
            ("Q <-> Q+", cv.Q.matrix, gd.Qdag.matrix),
            ("H", cv.H.matrix, gd.H.matrix),
            ("Z <-> -Z", cv.Z.matrix, gd.Z.matrix.scaled(-1)),
        ]
        for name, lhs, rhs in comparisons:
            cmp = approx_equal_matrix(lhs, rhs)
            entries.append(ReductionEntry(mu, name, cmp.residual, lhs == rhs))
        if cv.h_diag != gd.h_diag:
            entries.append(ReductionEntry(mu, "H diagonal", float("inf"), False))
        if cv.z_diag != tuple(-z for z in gd.z_diag):  # f = 1 is exact: both are set
            entries.append(ReductionEntry(mu, "Z diagonal", float("inf"), False))
    return ReductionReport(spec.kappa, dim, tuple(entries))
