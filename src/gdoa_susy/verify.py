"""Relation verification suites and machine-readable reports.

Every check compares two matrix expressions over the generators on a guard
band of source columns and is classified by how strong a statement the
truncated representation supports:

* ``structural-exact``: the relation holds entry-by-entry with residual
  exactly 0.0 even in floats (e.g. the supercharge squares, whose products
  vanish through hard zero projector factors).
* ``diagonal-exact``: the relation closes on diagonal rational matrices and is
  re-verified in exact arithmetic when the weight function allows it; the
  reported residual is then exactly 0.0.
* ``float-tolerance``: the relation is checked in complex doubles against
  |residual| <= absolute + relative * scale, with the scale taken from the
  largest entry encountered on either side.

The Jacobi suite contains three layers: graded antisymmetry of all 16 ordered
generator pairs (an identity, required to cancel bitwise), the 64 graded
Jacobi defects on guard band 3, and closure of each bracket onto the structure
constants (2H, +-2iZ, or 0).  The closure layer is what detects a wrong
generator: the Jacobi sum itself vanishes for any four matrices whatever the
degree assignment, so it can only measure rounding, never algebra.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from itertools import product
from typing import Sequence

from .fock import OscillatorSpec, guard_band_equal
from .grading import (
    GradedOperator,
    antisymmetry_residual,
    graded_bracket,
    graded_sign,
    jacobi_sum,
)
from .numerics import (
    Backend,
    BandMatrix,
    DEFAULT_POLICY,
    EXACT_POLICY,
    ExactScalar,
    TolerancePolicy,
    anticommutator,
    commutator,
)
from .realizations import HermitianSet, RealizationSet, hermitian_charges


class Exactness(Enum):
    """Strength class of a verified relation."""

    STRUCTURAL_EXACT = "structural-exact"
    DIAGONAL_EXACT = "diagonal-exact"
    FLOAT_TOLERANCE = "float-tolerance"


@dataclass(frozen=True)
class RelationCheck:
    """One verified relation: name, formula, guard band, class, residual."""

    name: str
    relation: str
    guard_band: int
    exactness: Exactness
    residual: float
    scale: float
    bound: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "paper_ref": self.relation,
            "guard_band": self.guard_band,
            "exactness": self.exactness.value,
            "residual": self.residual,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    """All checks of one suite (or one merged run) on one realization."""

    spec: str
    mu: int
    dim: int
    backend: str
    checks: tuple[RelationCheck, ...]
    passed: bool
    elapsed_ms: float

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "mu": self.mu,
            "dim": self.dim,
            "backend": self.backend,
            "checks": [check.to_dict() for check in self.checks],
            "pass": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }


def merge_reports(reports: Sequence[VerificationReport], prefixes: Sequence[str]) -> VerificationReport:
    """Concatenate suite reports over the same realization into one report."""
    if not reports:
        raise ValueError("nothing to merge")
    first = reports[0]
    checks = [
        replace(check, name=f"{prefix}/{check.name}")
        for report, prefix in zip(reports, prefixes)
        for check in report.checks
    ]
    return VerificationReport(
        spec=first.spec,
        mu=first.mu,
        dim=first.dim,
        backend=first.backend,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
        elapsed_ms=sum(r.elapsed_ms for r in reports),
    )


def _structural_check(
    name: str, relation: str, lhs: BandMatrix, rhs: BandMatrix, guard_band: int
) -> RelationCheck:
    cmp = guard_band_equal(lhs, rhs, guard_band, EXACT_POLICY).comparison
    return RelationCheck(
        name,
        relation,
        guard_band,
        Exactness.STRUCTURAL_EXACT,
        cmp.residual,
        cmp.scale,
        0.0,
        cmp.exact_zero,
    )


def _float_check(
    name: str,
    relation: str,
    lhs: BandMatrix,
    rhs: BandMatrix,
    guard_band: int,
    policy: TolerancePolicy,
) -> RelationCheck:
    cmp = guard_band_equal(lhs, rhs, guard_band, policy).comparison
    return RelationCheck(
        name,
        relation,
        guard_band,
        Exactness.FLOAT_TOLERANCE,
        cmp.residual,
        cmp.scale,
        cmp.bound,
        cmp.passed,
    )


def _diagonal_check(
    name: str,
    relation: str,
    guard_band: int,
    policy: TolerancePolicy,
    float_pair: tuple[BandMatrix, BandMatrix],
    exact_pair: tuple[BandMatrix, BandMatrix] | None,
) -> RelationCheck:
    """Exact re-verification when available, float tolerance otherwise.

    With an exact pair the relation must cancel identically (residual exactly
    0.0) AND the instance matrices must still satisfy it within policy; the
    instance comparison is what catches a perturbed operator, since the exact
    pair is derived from the defining data rather than the instance entries.
    """
    lhs, rhs = float_pair
    instance = guard_band_equal(lhs, rhs, guard_band, policy).comparison
    if exact_pair is not None:
        cmp = guard_band_equal(*exact_pair, guard_band, EXACT_POLICY).comparison
        passed = cmp.exact_zero and instance.passed
        residual = cmp.residual if instance.passed else instance.residual
        return RelationCheck(
            name,
            relation,
            guard_band,
            Exactness.DIAGONAL_EXACT,
            residual,
            cmp.scale,
            0.0 if instance.passed else instance.bound,
            passed,
        )
    return RelationCheck(
        name,
        relation,
        guard_band,
        Exactness.FLOAT_TOLERANCE,
        instance.residual,
        instance.scale,
        instance.bound,
        instance.passed,
    )


def _report(
    r_spec: OscillatorSpec,
    mu: int,
    dim: int,
    backend: Backend,
    checks: Sequence[RelationCheck],
    started: float,
) -> VerificationReport:
    return VerificationReport(
        spec=r_spec.describe(),
        mu=mu,
        dim=dim,
        backend=backend.value,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def run_standard_susy_suite(
    r: RealizationSet,
    policy: TolerancePolicy = DEFAULT_POLICY,
    use_exact: bool = True,
) -> VerificationReport:
    """Nilpotent supercharges with {Q+, Q} = H and a conserved H."""
    started = time.perf_counter()
    qd, q, h = r.Qdag.matrix, r.Q.matrix, r.H.matrix
    zero = BandMatrix.zeros(r.dim, r.backend)
    ex = r.exact if use_exact else None
    exact_anti = None
    if ex is not None:
        exact_anti = (
            anticommutator(ex.Qdag.matrix, ex.Q.matrix),
            ex.H.matrix,
        )
    checks = [
        _structural_check("qdag-squared-zero", "(Q+)^2 = 0", qd @ qd, zero, 0),
        _structural_check("q-squared-zero", "Q^2 = 0", q @ q, zero, 0),
        _diagonal_check(
            "anticommutator-gives-h",
            "{Q+,Q} = H",
            1,
            policy,
            (anticommutator(qd, q), h),
            exact_anti,
        ),
        _float_check("h-commutes-qdag", "[H,Q+] = 0", commutator(h, qd), zero, 1, policy),
        _float_check("h-commutes-q", "[H,Q] = 0", commutator(h, q), zero, 1, policy),
    ]
    return _report(r.spec, r.mu, r.dim, r.backend, checks, started)


def run_qform_suite(
    r: RealizationSet,
    policy: TolerancePolicy = DEFAULT_POLICY,
    use_exact: bool = True,
) -> VerificationReport:
    """The non-Hermitian presentation of the graded algebra (eight relations)."""
    started = time.perf_counter()
    qd, q, h, z = r.Qdag.matrix, r.Q.matrix, r.H.matrix, r.Z.matrix
    zero = BandMatrix.zeros(r.dim, r.backend)
    ex = r.exact if use_exact else None
    exact_anti = exact_comm = exact_hz = None
    if ex is not None:
        exact_anti = (anticommutator(ex.Qdag.matrix, ex.Q.matrix), ex.H.matrix)
        exact_comm = (commutator(ex.Qdag.matrix, ex.Q.matrix), ex.Z.matrix)
        exact_hz = (
            commutator(ex.H.matrix, ex.Z.matrix),
            BandMatrix.zeros(ex.dim, ex.backend),
        )
    checks = [
        _diagonal_check(
            "anticommutator-gives-h",
            "{Q+,Q} = H",
            1,
            policy,
            (anticommutator(qd, q), h),
            exact_anti,
        ),
        _structural_check(
            "squares-cancel", "(Q+)^2 + Q^2 = 0", qd @ qd + q @ q, zero, 0
        ),
        _diagonal_check(
            "commutator-gives-z",
            "[Q+,Q] = Z",
            1,
            policy,
            (commutator(qd, q), z),
            exact_comm,
        ),
        _float_check("h-commutes-qdag", "[H,Q+] = 0", commutator(h, qd), zero, 1, policy),
        _float_check("h-commutes-q", "[H,Q] = 0", commutator(h, q), zero, 1, policy),
        _diagonal_check(
            "h-commutes-z", "[H,Z] = 0", 0, policy, (commutator(h, z), zero), exact_hz
        ),
        _float_check(
            "z-anticommutes-qdag", "{Z,Q+} = 0", anticommutator(z, qd), zero, 1, policy
        ),
        _float_check(
            "z-anticommutes-q", "{Z,Q} = 0", anticommutator(z, q), zero, 1, policy
        ),
    ]
    return _report(r.spec, r.mu, r.dim, r.backend, checks, started)


def _two_i(backend: Backend):
    return ExactScalar(0, 2) if backend is Backend.EXACT else 2j


def run_hermitian_suite(
    h: HermitianSet,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> VerificationReport:
    """Hermiticity plus the defining relations of the Hermitian generators."""
    started = time.perf_counter()
    q10, q01 = h.Q10.matrix, h.Q01.matrix
    ham, z = h.H.matrix, h.Z.matrix
    zero = BandMatrix.zeros(h.dim, h.backend)
    exact_hz = None
    if h.h_diag is not None and h.z_diag is not None:
        exact_h = BandMatrix.diagonal(h.h_diag, Backend.EXACT)
        exact_z = BandMatrix.diagonal(h.z_diag, Backend.EXACT)
        exact_hz = (commutator(exact_h, exact_z), BandMatrix.zeros(h.dim, Backend.EXACT))
    checks = [
        _float_check("hermitian-q10", "Q10+ = Q10", q10.adjoint(), q10, 0, policy),
        _float_check("hermitian-q01", "Q01+ = Q01", q01.adjoint(), q01, 0, policy),
        _float_check("hermitian-h", "H+ = H", ham.adjoint(), ham, 0, policy),
        _float_check("hermitian-z", "Z+ = Z", z.adjoint(), z, 0, policy),
        _float_check(
            "q10-squared-gives-2h",
            "{Q10,Q10} = 2H",
            anticommutator(q10, q10),
            ham.scaled(2),
            1,
            policy,
        ),
        _float_check(
            "q01-squared-gives-2h",
            "{Q01,Q01} = 2H",
            anticommutator(q01, q01),
            ham.scaled(2),
            1,
            policy,
        ),
        _float_check(
            "q10-q01-commutator-gives-2iz",
            "[Q10,Q01] = 2iZ",
            commutator(q10, q01),
            z.scaled(_two_i(h.backend)),
            1,
            policy,
        ),
        _float_check("h-commutes-q10", "[H,Q10] = 0", commutator(ham, q10), zero, 1, policy),
        _float_check("h-commutes-q01", "[H,Q01] = 0", commutator(ham, q01), zero, 1, policy),
        _diagonal_check(
            "h-commutes-z", "[H,Z] = 0", 0, policy, (commutator(ham, z), zero), exact_hz
        ),
        _float_check(
            "z-anticommutes-q10", "{Z,Q10} = 0", anticommutator(z, q10), zero, 1, policy
        ),
        _float_check(
            "z-anticommutes-q01", "{Z,Q01} = 0", anticommutator(z, q01), zero, 1, policy
        ),
    ]
    return _report(h.spec, h.mu, h.dim, h.backend, checks, started)


def _closure_expectation(
    x: GradedOperator, y: GradedOperator, h: HermitianSet
) -> BandMatrix:
    """Structure-constant value of [[X, Y]] in the verified algebra."""
    labels = (x.label, y.label)
    dim, backend = h.dim, h.backend
    if "H" in labels or labels == ("Z", "Z"):
        return BandMatrix.zeros(dim, backend)
    if labels == ("Q10", "Q10") or labels == ("Q01", "Q01"):
        return h.H.matrix.scaled(2)
    if labels == ("Q10", "Q01"):
        return h.Z.matrix.scaled(_two_i(backend))
    if labels == ("Q01", "Q10"):
        return h.Z.matrix.scaled(-_two_i(backend))
    # remaining pairs mix Z with a supercharge: they anticommute to zero
    return BandMatrix.zeros(dim, backend)


def run_jacobi_suite(
    h: HermitianSet,
    policy: TolerancePolicy = DEFAULT_POLICY,
    guard_band: int = 3,
) -> VerificationReport:
    """Antisymmetry, all 64 graded Jacobi defects, and bracket closure.

    The 16 brackets [[Y,Z]] and 64 nested brackets [[X,[[Y,Z]]]] are each
    computed once, keyed by generator slot rather than label (a faulty set may
    repeat a label), and every check reads from them.
    """
    started = time.perf_counter()
    generators = (h.H, h.Q10, h.Q01, h.Z)
    degrees = [g.require_degree() for g in generators]
    slots = range(len(generators))
    inner = {
        (j, k): graded_bracket(generators[j], generators[k])
        for j, k in product(slots, repeat=2)
    }
    nested = {
        (i, j, k): graded_bracket(generators[i], inner[j, k]).matrix
        for i, j, k in product(slots, repeat=3)
    }
    checks: list[RelationCheck] = []
    for i, j in product(slots, repeat=2):
        x, y = generators[i], generators[j]
        sign = graded_sign(degrees[i], degrees[j])
        residual = antisymmetry_residual(sign, inner[i, j].matrix, inner[j, i].matrix)
        checks.append(
            RelationCheck(
                name=f"antisymmetry[{x.label},{y.label}]",
                relation="[[X,Y]] + (-1)^(x.y) [[Y,X]] = 0",
                guard_band=0,
                exactness=Exactness.STRUCTURAL_EXACT,
                residual=residual,
                scale=max(x.matrix.max_abs(), y.matrix.max_abs()),
                bound=0.0,
                passed=residual == 0.0,
            )
        )
    for i, j, k in product(slots, repeat=3):
        residual, scale = jacobi_sum(
            [
                (graded_sign(degrees[i], degrees[k]), nested[i, j, k]),
                (graded_sign(degrees[j], degrees[i]), nested[j, k, i]),
                (graded_sign(degrees[k], degrees[j]), nested[k, i, j]),
            ],
            guard_band,
        )
        bound = policy.bound(scale)
        x, y, z = generators[i], generators[j], generators[k]
        checks.append(
            RelationCheck(
                name=f"jacobi[{x.label},{y.label},{z.label}]",
                relation="graded Jacobi cyclic sum = 0",
                guard_band=guard_band,
                exactness=Exactness.FLOAT_TOLERANCE,
                residual=residual,
                scale=scale,
                bound=bound,
                passed=residual <= bound,
            )
        )
    for i, j in product(slots, repeat=2):
        x, y = generators[i], generators[j]
        checks.append(
            _float_check(
                f"closure[{x.label},{y.label}]",
                "[[X,Y]] = structure constants",
                inner[i, j].matrix,
                _closure_expectation(x, y, h),
                1,
                policy,
            )
        )
    return _report(h.spec, h.mu, h.dim, h.backend, checks, started)


SUITE_PREFIXES = ("standard", "qform", "hermitian", "jacobi")


def run_all_suites(
    r: RealizationSet,
    policy: TolerancePolicy = DEFAULT_POLICY,
    use_exact: bool = True,
) -> VerificationReport:
    """Standard, q-form, Hermitian, and Jacobi suites merged into one report."""
    h = hermitian_charges(r)
    reports = (
        run_standard_susy_suite(r, policy, use_exact),
        run_qform_suite(r, policy, use_exact),
        run_hermitian_suite(h, policy),
        run_jacobi_suite(h, policy),
    )
    return merge_reports(reports, SUITE_PREFIXES)
