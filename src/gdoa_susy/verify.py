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

The standard, q-form and Hermitian suites are tables of :class:`Relation`
rows, each mapping an operator set to the two matrices it equates, and one
function builds every check.  Each suite takes the realization, and one runner
reads its tables from one operator set: the realization's generators plus its
Hermitian charges.  A diagonal-exact row re-checks the same formula on the set
of ``r.exact`` (on the exact backend, the instance set), so every suite that
lists [H,Z] = 0 re-checks it on the same exact H and Z.
:func:`run_all_suites` evaluates each distinct row of the three tables once.

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
from itertools import chain, product
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple, Sequence

from .fock import guard_band_equal
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
    _top,
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


Pair = tuple[BandMatrix, BandMatrix]
_STRUCTURAL = Exactness.STRUCTURAL_EXACT
_DIAGONAL = Exactness.DIAGONAL_EXACT
_FLOAT = Exactness.FLOAT_TOLERANCE


class Relation(NamedTuple):
    """One row of a relation table; ``pair`` maps an operator set to the two
    matrices the relation equates."""

    name: str
    formula: str
    guard_band: int
    exactness: Exactness
    pair: Callable[[SimpleNamespace], Pair]


def _check(
    name: str, formula: str, guard_band: int, exactness: Exactness,
    pair: Pair, policy: TolerancePolicy, exact_pair: Pair | None = None,
) -> RelationCheck:
    """Compare ``pair`` on its guard band and classify the outcome.

    A structural-exact relation must cancel identically.  A diagonal-exact
    relation with an exact pair must cancel identically there AND the instance
    matrices must still satisfy it within policy; the instance comparison is
    what catches a perturbed operator, since the exact pair is derived from
    the defining data rather than the instance entries.  Without an exact pair
    it is a float-tolerance check.
    """
    structural = exactness is _STRUCTURAL
    cmp = guard_band_equal(*pair, guard_band, EXACT_POLICY if structural else policy)
    if structural:
        residual, scale, bound, passed = cmp.residual, cmp.scale, 0.0, cmp.exact_zero
    elif exact_pair is None:
        exactness = _FLOAT
        residual, scale, bound, passed = cmp.residual, cmp.scale, cmp.bound, cmp.passed
    else:
        proof = guard_band_equal(*exact_pair, guard_band, EXACT_POLICY)
        residual, bound = (proof.residual, 0.0) if cmp.passed else (cmp.residual, cmp.bound)
        scale, passed = proof.scale, proof.exact_zero and cmp.passed
    return RelationCheck(name, formula, guard_band, exactness, residual, scale, bound, passed)


def _two_i(backend: Backend):
    return ExactScalar(0, 2) if backend is Backend.EXACT else 2j


# Operator sets name their matrices qd (Q+), q (Q), q10, q01, h and z, plus a
# zero of their backend.  Rows shared by two suites are one object.
_ANTICOMMUTATOR_GIVES_H = Relation("anticommutator-gives-h", "{Q+,Q} = H", 1, _DIAGONAL,
                                   lambda o: (anticommutator(o.qd, o.q), o.h))
_H_COMMUTES_QDAG = Relation("h-commutes-qdag", "[H,Q+] = 0", 1, _FLOAT,
                            lambda o: (commutator(o.h, o.qd), o.zero))
_H_COMMUTES_Q = Relation("h-commutes-q", "[H,Q] = 0", 1, _FLOAT,
                         lambda o: (commutator(o.h, o.q), o.zero))
_H_COMMUTES_Z = Relation("h-commutes-z", "[H,Z] = 0", 0, _DIAGONAL,
                         lambda o: (commutator(o.h, o.z), o.zero))

STANDARD_RELATIONS = (
    Relation("qdag-squared-zero", "(Q+)^2 = 0", 0, _STRUCTURAL, lambda o: (o.qd @ o.qd, o.zero)),
    Relation("q-squared-zero", "Q^2 = 0", 0, _STRUCTURAL, lambda o: (o.q @ o.q, o.zero)),
    _ANTICOMMUTATOR_GIVES_H,
    _H_COMMUTES_QDAG,
    _H_COMMUTES_Q,
)

QFORM_RELATIONS = (
    _ANTICOMMUTATOR_GIVES_H,
    Relation("squares-cancel", "(Q+)^2 + Q^2 = 0", 0, _STRUCTURAL,
             lambda o: (o.qd @ o.qd + o.q @ o.q, o.zero)),
    Relation("commutator-gives-z", "[Q+,Q] = Z", 1, _DIAGONAL,
             lambda o: (commutator(o.qd, o.q), o.z)),
    _H_COMMUTES_QDAG,
    _H_COMMUTES_Q,
    _H_COMMUTES_Z,
    Relation("z-anticommutes-qdag", "{Z,Q+} = 0", 1, _FLOAT,
             lambda o: (anticommutator(o.z, o.qd), o.zero)),
    Relation("z-anticommutes-q", "{Z,Q} = 0", 1, _FLOAT,
             lambda o: (anticommutator(o.z, o.q), o.zero)),
)

# Fixed (anti)commutators, not graded brackets: a bracket follows the degree an
# operator declares, so a mis-degreed Z would pass {Z,Q10} = 0 through it.
HERMITIAN_RELATIONS = (
    Relation("hermitian-q10", "Q10+ = Q10", 0, _FLOAT, lambda o: (o.q10.adjoint(), o.q10)),
    Relation("hermitian-q01", "Q01+ = Q01", 0, _FLOAT, lambda o: (o.q01.adjoint(), o.q01)),
    Relation("hermitian-h", "H+ = H", 0, _FLOAT, lambda o: (o.h.adjoint(), o.h)),
    Relation("hermitian-z", "Z+ = Z", 0, _FLOAT, lambda o: (o.z.adjoint(), o.z)),
    Relation("q10-squared-gives-2h", "{Q10,Q10} = 2H", 1, _FLOAT,
             lambda o: (anticommutator(o.q10, o.q10), o.h.scaled(2))),
    Relation("q01-squared-gives-2h", "{Q01,Q01} = 2H", 1, _FLOAT,
             lambda o: (anticommutator(o.q01, o.q01), o.h.scaled(2))),
    Relation("q10-q01-commutator-gives-2iz", "[Q10,Q01] = 2iZ", 1, _FLOAT,
             lambda o: (commutator(o.q10, o.q01), o.z.scaled(_two_i(o.z.backend)))),
    Relation("h-commutes-q10", "[H,Q10] = 0", 1, _FLOAT,
             lambda o: (commutator(o.h, o.q10), o.zero)),
    Relation("h-commutes-q01", "[H,Q01] = 0", 1, _FLOAT,
             lambda o: (commutator(o.h, o.q01), o.zero)),
    _H_COMMUTES_Z,
    Relation("z-anticommutes-q10", "{Z,Q10} = 0", 1, _FLOAT,
             lambda o: (anticommutator(o.z, o.q10), o.zero)),
    Relation("z-anticommutes-q01", "{Z,Q01} = 0", 1, _FLOAT,
             lambda o: (anticommutator(o.z, o.q01), o.zero)),
)


def _evaluate(
    rows: Iterable[Relation],
    ops: SimpleNamespace,
    exact_ops: SimpleNamespace | None,
    policy: TolerancePolicy,
) -> dict[Relation, RelationCheck]:
    """Check every row on ``ops``; a diagonal-exact row is evaluated by the
    same pair function on ``exact_ops`` too, so its exact re-check can never
    test a different formula from its float check.  Where the exact operators
    are the float ones (the exact backend), one pair serves both."""
    checks = {}
    for row in rows:
        pair = row.pair(ops)
        exact_pair = None
        if exact_ops is not None and row.exactness is _DIAGONAL:
            exact_pair = pair if exact_ops is ops else row.pair(exact_ops)
        checks[row] = _check(
            row.name, row.formula, row.guard_band, row.exactness, pair, policy, exact_pair
        )
    return checks


def _report(
    s: RealizationSet | HermitianSet, checks: Sequence[RelationCheck], started: float
) -> VerificationReport:
    return VerificationReport(
        spec=s.spec.describe(),
        mu=s.mu,
        dim=s.dim,
        backend=s.backend.value,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def _run_tables(
    r: RealizationSet,
    tables: Sequence[Sequence[Relation]],
    policy: TolerancePolicy,
    use_exact: bool,
    h: HermitianSet | None = None,
) -> list[VerificationReport]:
    """One report per table, all read from one operator set: the generators of
    ``r`` plus the Hermitian charges ``h``.  Diagonal-exact rows are re-checked
    on the set of ``r.exact`` (built on first use), which on the exact backend
    is the instance set.  A row listed by several tables is evaluated once."""
    def operators(s: RealizationSet, **more: BandMatrix) -> SimpleNamespace:
        return SimpleNamespace(
            zero=BandMatrix.zeros(s.dim, s.backend),
            qd=s.Qdag.matrix, q=s.Q.matrix, h=s.H.matrix, z=s.Z.matrix, **more,
        )

    started = time.perf_counter()
    ops = operators(r) if h is None else operators(r, q10=h.Q10.matrix, q01=h.Q01.matrix)
    ex = r.exact if use_exact else None
    exact_ops = None if ex is None else ops if ex is r else operators(ex)
    checks = _evaluate(dict.fromkeys(chain(*tables)), ops, exact_ops, policy)
    reports = []
    for table in tables:
        reports.append(_report(r, [checks[row] for row in table], started))
        started = time.perf_counter()
    return reports


def run_standard_susy_suite(
    r: RealizationSet,
    policy: TolerancePolicy = DEFAULT_POLICY,
    use_exact: bool = True,
) -> VerificationReport:
    """Nilpotent supercharges with {Q+, Q} = H and a conserved H."""
    return _run_tables(r, (STANDARD_RELATIONS,), policy, use_exact)[0]


def run_qform_suite(
    r: RealizationSet,
    policy: TolerancePolicy = DEFAULT_POLICY,
    use_exact: bool = True,
) -> VerificationReport:
    """The non-Hermitian presentation of the graded algebra (eight relations)."""
    return _run_tables(r, (QFORM_RELATIONS,), policy, use_exact)[0]


def run_hermitian_suite(
    r: RealizationSet,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> VerificationReport:
    """Hermiticity plus the defining relations of the Hermitian charges of ``r``.

    The exact re-check of [H,Z] = 0 reads the H and Z of ``r.exact``, as the
    q-form suite's does.
    """
    return _run_tables(r, (HERMITIAN_RELATIONS,), policy, True, hermitian_charges(r))[0]


# Nested brackets of band-1 generators reach band 3.
JACOBI_GUARD_BAND = 3


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
        checks.append(RelationCheck(
            f"antisymmetry[{x.label},{y.label}]", "[[X,Y]] + (-1)^(x.y) [[Y,X]] = 0", 0,
            _STRUCTURAL, residual, _top([x.matrix.max_abs(), y.matrix.max_abs()]), 0.0,
            residual == 0.0,
        ))
    for i, j, k in product(slots, repeat=3):
        residual, scale = jacobi_sum(
            [
                (graded_sign(degrees[i], degrees[k]), nested[i, j, k]),
                (graded_sign(degrees[j], degrees[i]), nested[j, k, i]),
                (graded_sign(degrees[k], degrees[j]), nested[k, i, j]),
            ],
            JACOBI_GUARD_BAND,
        )
        bound = policy.bound(scale)
        x, y, z = generators[i], generators[j], generators[k]
        checks.append(RelationCheck(
            f"jacobi[{x.label},{y.label},{z.label}]", "graded Jacobi cyclic sum = 0",
            JACOBI_GUARD_BAND, _FLOAT, residual, scale, bound, residual <= bound,
        ))
    for i, j in product(slots, repeat=2):
        x, y = generators[i], generators[j]
        checks.append(_check(
            f"closure[{x.label},{y.label}]", "[[X,Y]] = structure constants", 1, _FLOAT,
            (inner[i, j].matrix, _closure_expectation(x, y, h)), policy,
        ))
    return _report(h, checks, started)


SUITE_PREFIXES = ("standard", "qform", "hermitian", "jacobi")


def run_all_suites(
    r: RealizationSet,
    policy: TolerancePolicy = DEFAULT_POLICY,
    use_exact: bool = True,
) -> VerificationReport:
    """Standard, q-form, Hermitian, and Jacobi suites merged into one report.

    The Hermitian charges are built once, for the tables and the Jacobi
    suite.  Each distinct row is evaluated once; a shared row's check serves
    both suites that list it.
    """
    h = hermitian_charges(r)
    tables = (STANDARD_RELATIONS, QFORM_RELATIONS, HERMITIAN_RELATIONS)
    reports = _run_tables(r, tables, policy, use_exact, h)
    reports.append(run_jacobi_suite(h, policy))
    return merge_reports(reports, SUITE_PREFIXES)
