"""Relation verification suites and machine-readable reports.

Every check compares two matrix expressions over the generators on a guard
band of source columns and is classified by how strong a statement the
truncated representation supports:

* ``structural-exact``: the relation holds entry-by-entry with residual
  exactly 0.0 even in floats (e.g. the supercharge squares, whose products
  vanish through hard zero projector factors).
* ``diagonal-exact``: the relation closes on diagonal rational matrices and is
  re-verified in exact arithmetic when the weight function allows it; the
  reported residual is then exactly 0.0.  A float build re-checks it at
  ``realizations.certifying_dim(spec, D)``: where F and f are rational in n on
  each parity class, that truncation holds more levels than the degree of
  each entry, so a pass proves the relation's rational identity on each
  parity class of n, not only on D levels (not F(n) > 0 or f(n) finite and
  nonzero above D); elsewhere (``sqrt``, or ``parity`` of other than n plus
  an integer) the dim is D.  The instance matrices are still compared at D.
* ``float-tolerance``: the relation is checked in complex doubles against
  |residual| <= absolute + relative * scale, with the scale taken from the
  largest entry encountered on either side.

The standard, q-form and Hermitian suites are tables of :class:`Relation`
rows, each mapping an operator set to the two matrices it equates; one
function computes every verdict, and each check is named ``prefix +
row.name`` when it is built.  One runner reads ``(prefix, rows)`` suites from
one operator set: the realization's generators plus its Hermitian charges.  A
diagonal-exact row re-checks the same formula on the set of
``exact_variant(r, certifying_dim(r.spec, r.dim))``, written from the spec
alone (on the exact backend, the instance set), on the guard columns of that
set's own dim, so both suites that list [H,Z] = 0 re-check it on the same
exact H and Z.  The diagonal-exact rows also hold each of Q+, Q, H and Z
they read, on every entry of the full dim, to the set the one writer of sets,
``realizations._realization``, gives from the build's spec, past any guard
band or tolerance; so a level above the certifying dim is held to the spec
too.  The Hermitian rows read Q10 and Q01, derived from the charges: no
record, and one tolerance scale per matrix.
:func:`run_all_suites` returns one report, timed over the whole call, whose
names carry the prefixes ``standard/``, ``qform/``, ``hermitian/`` and
``jacobi/``.  It evaluates each distinct table row once, and computes each
product of two generator matrices and each bracket once: the tables and the
Jacobi suite share one operator set, the ledger of its products and brackets,
keyed by slots (a bracket by its sign too) and alive for one call, which builds
each nonzero structure constant once too.  Seven closures, [[Q10,Q10]],
[[Q01,Q01]], [[Q10,Q01]], [H,Q10], [H,Q01], {Z,Q10} and {Z,Q01}, repeat a
Hermitian row's comparison, of the same pair on the same columns.  The Jacobi
suite reads its graded signs from one table, computes each generator's scale
once, and builds 40 of its 64 nested brackets, reading 24 from them by sign.

The Jacobi suite contains three layers: graded antisymmetry of all 16 ordered
generator pairs (an identity, required to cancel bitwise), the 64 graded
Jacobi defects on guard band 3, and closure of each bracket onto the structure
constants (2H, +-2iZ, or 0).  The closure layer is what detects a wrong
generator: the Jacobi sum itself vanishes for any four matrices whatever the
degree assignment, so it can only measure rounding, never algebra.  The
structure constants are one table keyed by operator slot, which closure and
the Hermitian rows for 2H and 2iZ read; a label names checks, never a verdict.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from itertools import product
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

from .grading import (
    JACOBI_GUARD_BAND,
    GradedOperator,
    degree_add,
    graded_bracket,
    graded_sign,
    guard_columns,
)
from .numerics import (
    BandMatrix,
    DEFAULT_POLICY,
    EXACT_POLICY,
    TolerancePolicy,
    _bracket,
    _signed_max_abs,
    _top,
    approx_equal_matrix,
)
from .realizations import (HermitianSet, RealizationSet, _realization, certifying_dim,
                           exact_variant, hermitian_charges)


class Exactness(Enum):
    """Strength class of a verified relation."""

    STRUCTURAL_EXACT = "structural-exact"
    DIAGONAL_EXACT = "diagonal-exact"
    FLOAT_TOLERANCE = "float-tolerance"


def json_residual(residual: float) -> float | str:
    """``residual`` as JSON holds it: JSON has no NaN or infinity, so a
    non-finite residual is the string the CSV prints for it, ``"nan"`` or
    ``"inf"``."""
    return residual if math.isfinite(residual) else repr(residual)


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
            "residual": json_residual(self.residual),
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    """All checks of one suite run on one realization."""

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


Pair = tuple[BandMatrix, BandMatrix]
# exactness, residual, scale, bound, passed: a RelationCheck after its guard band
Verdict = tuple[Exactness, float, float, float, bool]
_STRUCTURAL = Exactness.STRUCTURAL_EXACT
_DIAGONAL = Exactness.DIAGONAL_EXACT
_FLOAT = Exactness.FLOAT_TOLERANCE


class Relation(NamedTuple):
    """One row of a relation table; ``pair`` maps an operator set to the two
    matrices the relation equates, and ``record`` names the slots among qd,
    q, h and z whose instance matrix must also equal the build's record."""

    name: str
    formula: str
    guard_band: int
    exactness: Exactness
    pair: Callable[["_Operators"], Pair]
    record: tuple[str, ...] = ()


def _check(
    guard_band: int, exactness: Exactness, pair: Pair, policy: TolerancePolicy,
    exact_pair: Pair | None = None,
) -> Verdict:
    """Compare ``pair`` on its guard band and classify the outcome.

    A structural-exact relation must cancel identically.  A diagonal-exact
    relation with an exact pair must cancel identically on the guard columns
    of the exact pair's own dim, which may be below the instance's, AND the
    instance matrices must still satisfy it within policy; the instance
    comparison is what catches a perturbed operator, since the exact pair is
    written from the defining data by the one writer of every set, never from
    the instance entries, which :func:`_off_record` holds to that set too.
    The scale is the exact pair's.  An exact pair that is ``pair`` is compared
    once: no policy moves a residual, scale or ``exact_zero``.  Without one it
    is a float-tolerance check.
    """
    cols = guard_columns(pair[0].dim, guard_band)
    if exactness is _STRUCTURAL:
        cmp = approx_equal_matrix(*pair, EXACT_POLICY, cols)
        return exactness, cmp.residual, cmp.scale, 0.0, cmp.exact_zero
    cmp = approx_equal_matrix(*pair, policy, cols)
    if exact_pair is None:
        return _FLOAT, cmp.residual, cmp.scale, cmp.bound, cmp.passed
    proof = cmp if exact_pair is pair else approx_equal_matrix(
        *exact_pair, EXACT_POLICY, guard_columns(exact_pair[0].dim, guard_band))
    residual, bound = (proof.residual, 0.0) if cmp.passed else (cmp.residual, cmp.bound)
    return exactness, residual, proof.scale, bound, proof.exact_zero and cmp.passed


# Operator-set slots and the generator each reads from a realization set (the
# first four) or a Hermitian set: qd is Q+.
_SLOTS = (("qd", "Qdag"), ("q", "Q"), ("h", "H"), ("z", "Z"), ("q10", "Q10"), ("q01", "Q01"))

# Structure constants by slot: (a, b): (c, factor) is [[a, b]] = factor times
# slot c; every other pair of H, Q10, Q01 and Z brackets to 0.
_STRUCTURE_CONSTANTS = {("q10", "q10"): ("h", 2), ("q01", "q01"): ("h", 2),
                        ("q10", "q01"): ("z", 2j), ("q01", "q10"): ("z", -2j)}


class _Operators(SimpleNamespace):
    """The generator matrices of ``sets`` in their slots, plus a zero of their
    backend.

    The set is also the ledger of its products and brackets, keyed by slot and
    never by content, since a faulty set may hold one matrix in two slots:
    :meth:`product` keeps each product of two slots in ``ledger``, and
    :meth:`bracket` each bracket of two slots in ``brackets``, keyed by its
    sign too.  Each nonzero structure constant is built once too, kept in
    ``constants`` by its slot and factor.
    """

    def __init__(self, *sets: RealizationSet | HermitianSet):
        super().__init__(**{
            slot: getattr(s, name).matrix for s in sets for slot, name in _SLOTS if hasattr(s, name)
        })
        self.zero = BandMatrix.zeros(sets[0].dim, sets[0].backend)
        self.ledger: dict[tuple[str, str], BandMatrix] = {}
        self.brackets: dict[tuple[str, str, int], BandMatrix] = {}
        self.constants: dict[tuple[str, complex], BandMatrix] = {}

    def product(self, a: str, b: str) -> BandMatrix:
        """Slot ``a`` times slot ``b``, computed on first use."""
        ab = self.ledger.get((a, b))
        if ab is None:
            ab = self.ledger[a, b] = getattr(self, a) @ getattr(self, b)
        return ab

    def bracket(self, a: str, b: str, sign: int) -> BandMatrix:
        """``ab - sign ba``: [a, b] for sign 1, {a, b} for -1, built on first use."""
        key = (a, b, sign)
        if key not in self.brackets:
            self.brackets[key] = _bracket(self.product(a, b), self.product(b, a), sign)
        return self.brackets[key]

    def constant(self, a: str, b: str) -> BandMatrix:
        """The value of [[a, b]] by the structure constants: 2H, +-2iZ or 0."""
        term = _STRUCTURE_CONSTANTS.get((a, b))
        if term is None:
            return self.zero
        value = self.constants.get(term)
        if value is None:
            slot, factor = term
            value = self.constants[term] = getattr(self, slot).scaled(factor)
        return value


# Rows read their products and brackets from an operator set.  Rows shared by
# two suites are one object.
_ANTICOMMUTATOR_GIVES_H = Relation("anticommutator-gives-h", "{Q+,Q} = H", 1, _DIAGONAL,
                                   lambda o: (o.bracket("qd", "q", -1), o.h), ("qd", "q", "h"))
_H_COMMUTES_QDAG = Relation("h-commutes-qdag", "[H,Q+] = 0", 1, _FLOAT,
                            lambda o: (o.bracket("h", "qd", 1), o.zero))
_H_COMMUTES_Q = Relation("h-commutes-q", "[H,Q] = 0", 1, _FLOAT,
                         lambda o: (o.bracket("h", "q", 1), o.zero))
_H_COMMUTES_Z = Relation("h-commutes-z", "[H,Z] = 0", 0, _DIAGONAL,
                         lambda o: (o.bracket("h", "z", 1), o.zero), ("h", "z"))

STANDARD_RELATIONS = (
    Relation("qdag-squared-zero", "(Q+)^2 = 0", 0, _STRUCTURAL,
             lambda o: (o.product("qd", "qd"), o.zero)),
    Relation("q-squared-zero", "Q^2 = 0", 0, _STRUCTURAL,
             lambda o: (o.product("q", "q"), o.zero)),
    _ANTICOMMUTATOR_GIVES_H,
    _H_COMMUTES_QDAG,
    _H_COMMUTES_Q,
)

QFORM_RELATIONS = (
    _ANTICOMMUTATOR_GIVES_H,
    Relation("squares-cancel", "(Q+)^2 + Q^2 = 0", 0, _STRUCTURAL,
             lambda o: (o.product("qd", "qd") + o.product("q", "q"), o.zero)),
    Relation("commutator-gives-z", "[Q+,Q] = Z", 1, _DIAGONAL,
             lambda o: (o.bracket("qd", "q", 1), o.z), ("qd", "q", "z")),
    _H_COMMUTES_QDAG,
    _H_COMMUTES_Q,
    _H_COMMUTES_Z,
    Relation("z-anticommutes-qdag", "{Z,Q+} = 0", 1, _FLOAT,
             lambda o: (o.bracket("z", "qd", -1), o.zero)),
    Relation("z-anticommutes-q", "{Z,Q} = 0", 1, _FLOAT,
             lambda o: (o.bracket("z", "q", -1), o.zero)),
)

# Each bracket's sign is fixed by its formula, never read from the degrees: a
# mis-degreed Z would pass {Z,Q10} = 0 through a bracket that followed its degree.
HERMITIAN_RELATIONS = (
    Relation("hermitian-q10", "Q10+ = Q10", 0, _FLOAT, lambda o: (o.q10.adjoint(), o.q10)),
    Relation("hermitian-q01", "Q01+ = Q01", 0, _FLOAT, lambda o: (o.q01.adjoint(), o.q01)),
    Relation("hermitian-h", "H+ = H", 0, _FLOAT, lambda o: (o.h.adjoint(), o.h)),
    Relation("hermitian-z", "Z+ = Z", 0, _FLOAT, lambda o: (o.z.adjoint(), o.z)),
    Relation("q10-squared-gives-2h", "{Q10,Q10} = 2H", 1, _FLOAT,
             lambda o: (o.bracket("q10", "q10", -1), o.constant("q10", "q10"))),
    Relation("q01-squared-gives-2h", "{Q01,Q01} = 2H", 1, _FLOAT,
             lambda o: (o.bracket("q01", "q01", -1), o.constant("q01", "q01"))),
    Relation("q10-q01-commutator-gives-2iz", "[Q10,Q01] = 2iZ", 1, _FLOAT,
             lambda o: (o.bracket("q10", "q01", 1), o.constant("q10", "q01"))),
    Relation("h-commutes-q10", "[H,Q10] = 0", 1, _FLOAT,
             lambda o: (o.bracket("h", "q10", 1), o.zero)),
    Relation("h-commutes-q01", "[H,Q01] = 0", 1, _FLOAT,
             lambda o: (o.bracket("h", "q01", 1), o.zero)),
    _H_COMMUTES_Z,
    Relation("z-anticommutes-q10", "{Z,Q10} = 0", 1, _FLOAT,
             lambda o: (o.bracket("z", "q10", -1), o.zero)),
    Relation("z-anticommutes-q01", "{Z,Q01} = 0", 1, _FLOAT,
             lambda o: (o.bracket("z", "q01", -1), o.zero)),
)


# The tables of run_all_suites, each with the prefix of its check names.
_TABLE_SUITES = (
    ("standard/", STANDARD_RELATIONS),
    ("qform/", QFORM_RELATIONS),
    ("hermitian/", HERMITIAN_RELATIONS),
)


def _off_record(r: RealizationSet, ops: _Operators) -> dict[str, float]:
    """The residual, on every entry, of each of Q+, Q, H and Z in ``ops`` that
    differs from its matrix in the set :func:`_realization` writes from the
    spec of ``r``.  Every build is that writer's output, so none differ."""
    record = _realization(r.spec, r.mu, r.dim, r.backend, r.convention)
    pairs = {slot: (getattr(ops, slot), getattr(record, name).matrix) for slot, name in _SLOTS[:4]}
    return {slot: approx_equal_matrix(*pair, EXACT_POLICY).residual
            for slot, pair in pairs.items() if pair[0] != pair[1]}


def _evaluate(
    row: Relation, ops: _Operators, exact_ops: _Operators | None, policy: TolerancePolicy,
    off_record: dict[str, float],
) -> Verdict:
    """The verdict of ``row`` on ``ops``; a diagonal-exact row is evaluated by
    the same pair function on ``exact_ops`` too, so its exact re-check can
    never test a different formula from its float check.  Where the exact
    operators are the float ones (the exact backend), one pair serves both.
    A row that passes while a slot of its ``record`` is in ``off_record``
    fails, with that slot's residual against the record and a bound of 0."""
    pair = row.pair(ops)
    exact_pair = None
    if exact_ops is not None and row.exactness is _DIAGONAL:
        exact_pair = pair if exact_ops is ops else row.pair(exact_ops)
    verdict = _check(row.guard_band, row.exactness, pair, policy, exact_pair)
    misses = [off_record[slot] for slot in row.record if slot in off_record]
    if misses and verdict[4]:
        return verdict[0], _top(misses), verdict[2], 0.0, False
    return verdict


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
    suites: Sequence[tuple[str, Sequence[Relation]]],
    policy: TolerancePolicy,
    use_exact: bool,
    ops: _Operators,
) -> list[RelationCheck]:
    """The checks of every ``(prefix, rows)`` suite, named ``prefix +
    row.name`` and read from ``ops``, the operator set of ``r``.
    Diagonal-exact rows are re-checked on the set of ``exact_variant(r, d)``
    at the certifying dim d (see :func:`certifying_dim`), built once per call,
    which on the exact backend is ``ops`` itself; that set and its products
    are dropped on return.  A row listed by several suites is evaluated once.
    Diagonal-exact rows compare what they read with the record of ``r`` too
    (see :func:`_off_record`)."""
    ex = exact_variant(r, certifying_dim(r.spec, r.dim)) if use_exact else None
    exact_ops = None if ex is None else ops if ex is r else _Operators(ex)
    off_record = _off_record(r, ops)
    verdicts: dict[Relation, Verdict] = {}
    checks = []
    for prefix, rows in suites:
        for row in rows:
            if row not in verdicts:
                verdicts[row] = _evaluate(row, ops, exact_ops, policy, off_record)
            checks.append(RelationCheck(
                prefix + row.name, row.formula, row.guard_band, *verdicts[row]
            ))
    return checks


def run_standard_susy_suite(
    r: RealizationSet,
    policy: TolerancePolicy = DEFAULT_POLICY,
    use_exact: bool = True,
) -> VerificationReport:
    """Nilpotent supercharges with {Q+, Q} = H and a conserved H."""
    started = time.perf_counter()
    checks = _run_tables(r, (("", STANDARD_RELATIONS),), policy, use_exact, _Operators(r))
    return _report(r, checks, started)


def run_qform_suite(
    r: RealizationSet,
    policy: TolerancePolicy = DEFAULT_POLICY,
    use_exact: bool = True,
) -> VerificationReport:
    """The non-Hermitian presentation of the graded algebra (eight relations)."""
    started = time.perf_counter()
    checks = _run_tables(r, (("", QFORM_RELATIONS),), policy, use_exact, _Operators(r))
    return _report(r, checks, started)


def run_hermitian_suite(
    r: RealizationSet,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> VerificationReport:
    """Hermiticity plus the defining relations of the Hermitian charges of ``r``.

    The exact re-check of [H,Z] = 0 reads the H and Z of
    ``exact_variant(r)``, as the q-form suite's does.
    """
    started = time.perf_counter()
    ops = _Operators(r, hermitian_charges(r))
    return _report(r, _run_tables(r, (("", HERMITIAN_RELATIONS),), policy, True, ops), started)


def run_jacobi_suite(
    h: HermitianSet,
    policy: TolerancePolicy = DEFAULT_POLICY,
    prefix: str = "",
) -> VerificationReport:
    """Antisymmetry, all 64 graded Jacobi defects, and bracket closure, each
    check named with ``prefix``.

    The 16 brackets [[Y,Z]], and the 40 nested brackets [[X,[[Y,Z]]]] with Y
    at or before Z in slot order, are each computed once, keyed by generator
    slot rather than label (a faulty set may repeat a label), as closure's
    structure constants are.  The other 24 nested brackets are read from
    those by sign; every check reads from them.

    A bare :class:`HermitianSet` carries no level record, so unlike
    :func:`run_all_suites` this suite never compares a generator with one: a
    wrong H or Z on the columns its guard bands leave out goes unseen here.
    """
    started = time.perf_counter()
    return _report(h, _run_jacobi(h, policy, _Operators(h), prefix), started)


_JACOBI_SLOTS = ("h", "q10", "q01", "z")  # of the generators H, Q10, Q01, Z


def _run_jacobi(
    h: HermitianSet, policy: TolerancePolicy, ops: _Operators, prefix: str
) -> list[RelationCheck]:
    """The Jacobi checks of ``h``, named with ``prefix``, whose generators
    ``ops`` holds in :data:`_JACOBI_SLOTS`.  Every graded sign is read from
    ``sign``, one table of the four degrees.  Each inner bracket is
    ``ops.bracket`` of two slots and their sign; ``ops`` drops its products
    and brackets before the nested ones are built.  ``inner[k, j]`` is
    ``-s inner[j, k]`` with ``s = sign[j][k]``, from the same two products
    (IEEE ``a - b`` is ``-(b - a)``, ``a + b`` is ``b + a``), and as rounding
    is symmetric in sign, ``nested[i, k, j]`` is ``-s nested[i, j, k]``: bit
    for bit up to the sign of a zero, which no residual or scale reads.  So
    only ``j <= k`` is built, with its guard-column scale taken once."""
    generators = (h.H, h.Q10, h.Q01, h.Z)
    degrees = [g.require_degree() for g in generators]
    sign = [[graded_sign(a, b) for b in degrees] for a in degrees]
    scales = [g.matrix.max_abs() for g in generators]
    slots = range(len(generators))
    cols = guard_columns(h.dim, JACOBI_GUARD_BAND)
    inner = {
        (j, k): GradedOperator(
            ops.bracket(_JACOBI_SLOTS[j], _JACOBI_SLOTS[k], sign[j][k]),
            degree_add(degrees[j], degrees[k]), f"[[{generators[j].label},{generators[k].label}]]",
        )
        for j, k in product(slots, repeat=2)
    }
    ops.ledger.clear()
    ops.brackets.clear()
    nested = {
        (i, j, k): graded_bracket(generators[i], inner[j, k]).matrix
        for i, j, k in product(slots, repeat=3) if j <= k
    }
    peaks = {key: matrix.max_abs(cols) for key, matrix in nested.items()}
    checks: list[RelationCheck] = []
    for i, j in product(slots, repeat=2):
        x, y = generators[i], generators[j]
        residual = _signed_max_abs([(1, inner[i, j].matrix), (sign[i][j], inner[j, i].matrix)])
        checks.append(RelationCheck(
            f"{prefix}antisymmetry[{x.label},{y.label}]", "[[X,Y]] + (-1)^(x.y) [[Y,X]] = 0", 0,
            _STRUCTURAL, residual, _top([scales[i], scales[j]]), 0.0,
            residual == 0.0,
        ))
    for i, j, k in product(slots, repeat=3):
        terms = []  # (sign, key of nested) of (-1)^(a.c) [[X_a, [[X_b, X_c]]]]
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            s = sign[a][c]
            if b > c:
                s, b, c = -s * sign[b][c], c, b
            terms.append((s, (a, b, c)))
        residual = _signed_max_abs([(s, nested[key]) for s, key in terms], cols)
        scale = _top([peaks[key] for _, key in terms])
        bound = policy.bound(scale)
        x, y, z = generators[i], generators[j], generators[k]
        checks.append(RelationCheck(
            f"{prefix}jacobi[{x.label},{y.label},{z.label}]", "graded Jacobi cyclic sum = 0",
            JACOBI_GUARD_BAND, _FLOAT, residual, scale, bound, residual <= bound,
        ))
    for i, j in product(slots, repeat=2):
        x, y = generators[i], generators[j]
        pair = (inner[i, j].matrix, ops.constant(_JACOBI_SLOTS[i], _JACOBI_SLOTS[j]))
        checks.append(RelationCheck(
            f"{prefix}closure[{x.label},{y.label}]", "[[X,Y]] = structure constants", 1,
            *_check(1, _FLOAT, pair, policy),
        ))
    return checks


def run_all_suites(
    r: RealizationSet,
    policy: TolerancePolicy = DEFAULT_POLICY,
    use_exact: bool = True,
) -> VerificationReport:
    """Standard, q-form, Hermitian, and Jacobi suites in one report, timed
    over the whole call.

    The Hermitian charges are built once, for the tables and the Jacobi
    suite.  Each distinct row is evaluated once; a shared row's verdict serves
    both suites that list it.  The tables and the Jacobi suite's inner
    brackets share one operator set, so each generator product, and each
    bracket of two generators with one sign, is computed once per call.
    """
    started = time.perf_counter()
    h = hermitian_charges(r)
    ops = _Operators(r, h)
    checks = _run_tables(r, _TABLE_SUITES, policy, use_exact, ops)
    checks += _run_jacobi(h, policy, ops, "jacobi/")
    return _report(r, checks, started)
