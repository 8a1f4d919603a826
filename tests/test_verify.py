"""Tests for the relation-verification suites and their reports."""

import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from gdoa_susy import realizations, verify
from gdoa_susy.fock import OscillatorSpec
from gdoa_susy.grading import (
    GradedOperator,
    GradingError,
    check_antisymmetry,
    degree,
    graded_bracket,
    guard_columns,
    jacobi_defect,
)
from gdoa_susy.numerics import (
    Backend,
    BandMatrix,
    DEFAULT_POLICY,
    ExactScalar,
    TolerancePolicy,
    approx_equal_matrix,
)
from gdoa_susy.realizations import (
    DEGREE_H,
    DEGREE_Q01,
    DEGREE_Q10,
    DEGREE_Z,
    cv_realization,
    gdoa_realization,
    hermitian_charges,
)
from gdoa_susy.verify import (
    Exactness,
    run_all_suites,
    run_hermitian_suite,
    run_jacobi_suite,
    run_qform_suite,
    run_standard_susy_suite,
)
from oracles import anticommutator, commutator


def by_name(report):
    return {check.name: check for check in report.checks}


class TestExactnessClasses:
    def test_standard_suite_classes(self):
        r = cv_realization(Fraction(1, 2), 0, 16)
        report = run_standard_susy_suite(r)
        checks = by_name(report)
        assert report.passed and len(report.checks) == 5
        assert checks["qdag-squared-zero"].exactness is Exactness.STRUCTURAL_EXACT
        assert checks["q-squared-zero"].exactness is Exactness.STRUCTURAL_EXACT
        assert checks["anticommutator-gives-h"].exactness is Exactness.DIAGONAL_EXACT
        assert checks["h-commutes-qdag"].exactness is Exactness.FLOAT_TOLERANCE
        assert checks["h-commutes-q"].exactness is Exactness.FLOAT_TOLERANCE
        assert checks["qdag-squared-zero"].residual == 0.0
        assert checks["anticommutator-gives-h"].residual == 0.0

    def test_qform_diagonal_checks_exact(self):
        r = cv_realization(Fraction(1, 2), 0, 32)
        report = run_qform_suite(r)
        checks = by_name(report)
        assert report.passed and len(report.checks) == 8
        for name in ("anticommutator-gives-h", "commutator-gives-z", "h-commutes-z"):
            assert checks[name].exactness is Exactness.DIAGONAL_EXACT
            assert checks[name].residual == 0.0
        assert checks["squares-cancel"].residual == 0.0

    def test_use_exact_false_downgrades(self):
        r = cv_realization(Fraction(1, 2), 0, 16)
        report = run_standard_susy_suite(r, use_exact=False)
        checks = by_name(report)
        assert checks["anticommutator-gives-h"].exactness is Exactness.FLOAT_TOLERANCE
        assert report.passed

    def test_sqrt_weight_downgrades(self):
        spec = OscillatorSpec.gdoa("n", weight="sqrt(n + 1)")
        r = gdoa_realization(spec, 0, 16)
        report = run_qform_suite(r)
        checks = by_name(report)
        assert checks["anticommutator-gives-h"].exactness is Exactness.FLOAT_TOLERANCE
        assert report.passed


class TestSuitesOverSpecs:
    @pytest.mark.parametrize("mu", [0, 1])
    @pytest.mark.parametrize("kappa", [0, Fraction(1, 2), Fraction(5, 2)])
    def test_deformed_all_pass(self, kappa, mu):
        r = cv_realization(kappa, mu, 24)
        report = run_all_suites(r)
        assert report.passed
        assert len(report.checks) == 5 + 8 + 12 + 96

    @pytest.mark.parametrize("mu", [0, 1])
    def test_square_structure_all_pass(self, mu):
        r = gdoa_realization(OscillatorSpec.gdoa("n^2"), mu, 32)
        assert run_all_suites(r).passed

    def test_weighted_bracket_structure(self):
        spec = OscillatorSpec.gdoa("bracket(n)", {"kappa": Fraction(1, 2)}, "n")
        r = gdoa_realization(spec, 1, 24)
        assert run_all_suites(r).passed

    def test_hermiticity_residuals_zero(self):
        r = cv_realization(0, 0, 16)
        report = run_hermitian_suite(r)
        checks = by_name(report)
        for name in ("hermitian-q10", "hermitian-q01", "hermitian-h", "hermitian-z"):
            assert checks[name].residual == 0.0
        assert report.passed and len(report.checks) == 12

    def test_minimal_dimension(self):
        r = cv_realization(Fraction(1, 2), 1, 2)
        assert run_standard_susy_suite(r).passed
        assert run_qform_suite(r).passed
        assert run_hermitian_suite(r).passed
        with pytest.raises(GradingError):
            run_jacobi_suite(hermitian_charges(r))

    def test_qform_and_hermitian_agree_on_random_specs(self):
        rng = random.Random(20260819)
        families = [
            lambda c: OscillatorSpec.gdoa(f"n*(n + {c})"),
            lambda c: OscillatorSpec.gdoa(f"n^2 + {c}*n"),
            lambda c: OscillatorSpec.gdoa("n", weight=f"n + {c}"),
            lambda c: OscillatorSpec.gdoa("bracket(n)", {"kappa": Fraction(c, 3)}, "1"),
        ]
        for _ in range(20):
            spec = rng.choice(families)(rng.randint(0, 3))
            mu = rng.randint(0, 1)
            r = gdoa_realization(spec, mu, 8)
            qform = run_qform_suite(r)
            hermitian = run_hermitian_suite(r)
            assert qform.passed == hermitian.passed


class TestFaultDetection:
    # the closure checks that H substituted for Z breaks, on either backend
    SWAPPED_Z_FAILURES = {
        "closure[Q10,Q01]",
        "closure[Q10,Z]",
        "closure[Q01,Q10]",
        "closure[Q01,Z]",
        "closure[Z,Q10]",
        "closure[Z,Q01]",
    }

    def _corrupt_h(self, r, key=(0, 0), value=complex(1.0)):
        bumped = r.H.matrix + BandMatrix(r.dim, r.backend, {key: value})
        return replace(r, H=GradedOperator(bumped, DEGREE_H, "H"))

    @pytest.mark.parametrize("use_exact", [True, False])
    def test_nan_in_h_fails(self, use_exact):
        # A NaN difference used to be skipped (nan > residual is false) and
        # max(0.0, nan) is 0.0, so this realization passed all 121 checks.
        r = self._corrupt_h(cv_realization(Fraction(1, 2), 0, 8), (3, 3), complex("nan"))
        report = run_all_suites(r, use_exact=use_exact)
        assert len(report.checks) == 121 and not report.passed
        checks = by_name(report)
        for name in ("standard/anticommutator-gives-h", "hermitian/hermitian-h",
                     "jacobi/closure[Q10,Q10]"):
            assert not checks[name].passed

    def test_corrupted_h_fails_diagonal_path(self):
        r = self._corrupt_h(cv_realization(Fraction(1, 2), 0, 16))
        report = run_standard_susy_suite(r, use_exact=True)
        check = by_name(report)["anticommutator-gives-h"]
        assert not check.passed and not report.passed
        assert abs(check.residual - 1.0) < 1e-12

    def test_corrupted_h_fails_float_path(self):
        r = self._corrupt_h(cv_realization(Fraction(1, 2), 0, 16))
        report = run_standard_susy_suite(r, use_exact=False)
        check = by_name(report)["anticommutator-gives-h"]
        assert not check.passed
        assert abs(check.residual - 1.0) < 1e-12

    def test_corrupted_h_fails_exact_backend(self):
        r = cv_realization(Fraction(1, 2), 0, 16, Backend.EXACT)
        r = self._corrupt_h(r, value=ExactScalar(1))
        report = run_all_suites(r)
        check = by_name(report)["standard/anticommutator-gives-h"]
        assert not check.passed and not report.passed
        assert check.residual == 1.0
        cmp = approx_equal_matrix(anticommutator(r.Qdag.matrix, r.Q.matrix), r.H.matrix,
                                  DEFAULT_POLICY, guard_columns(r.dim, 1))
        assert cmp.residual == 1.0 and not cmp.exact_zero

    def _swapped_central_element_failures(self, backend):
        r = cv_realization(Fraction(1, 2), 1, 16, backend)
        h = hermitian_charges(r)
        faulty = replace(h, Z=GradedOperator(h.H.matrix, DEGREE_Z, "Z"))
        report = run_jacobi_suite(faulty)
        assert not report.passed
        return {c.name for c in report.checks if not c.passed}

    def test_swapped_central_element_fails_closure_only(self):
        # Substituting H for Z leaves antisymmetry and every Jacobi defect at
        # rounding level -- those are associative-algebra identities -- but six
        # of the sixteen closure checks break.
        assert self._swapped_central_element_failures(Backend.FLOAT) == self.SWAPPED_Z_FAILURES

    def test_swapped_central_element_fails_closure_only_exact(self):
        assert self._swapped_central_element_failures(Backend.EXACT) == self.SWAPPED_Z_FAILURES


class TestJacobiSuite:
    def test_check_census(self):
        r = cv_realization(0, 0, 16)
        report = run_jacobi_suite(hermitian_charges(r))
        assert report.passed
        names = [c.name for c in report.checks]
        assert len(names) == 96
        assert sum(n.startswith("antisymmetry[") for n in names) == 16
        assert sum(n.startswith("jacobi[") for n in names) == 64
        assert sum(n.startswith("closure[") for n in names) == 16

    def test_antisymmetry_residuals_exactly_zero(self):
        r = gdoa_realization(OscillatorSpec.gdoa("n^2"), 0, 24)
        report = run_jacobi_suite(hermitian_charges(r))
        for check in report.checks:
            if check.name.startswith("antisymmetry["):
                assert check.residual == 0.0

    def test_antisymmetry_scale_is_nan_in_either_order(self):
        h = hermitian_charges(cv_realization(Fraction(1, 2), 0, 8))
        nan = BandMatrix(h.dim, h.backend, {(2, 2): complex("nan")})
        faulty = replace(h, Z=GradedOperator(h.Z.matrix + nan, DEGREE_Z, "Z"))
        checks = by_name(run_jacobi_suite(faulty))
        for name in ("antisymmetry[H,Z]", "antisymmetry[Z,H]", "antisymmetry[Z,Z]"):
            assert math.isnan(checks[name].scale), name
        assert checks["antisymmetry[H,Q10]"].scale == max(
            h.H.matrix.max_abs(), h.Q10.matrix.max_abs()
        )

    def test_guard_bands(self):
        r = cv_realization(Fraction(5, 2), 1, 16)
        report = run_jacobi_suite(hermitian_charges(r))
        for check in report.checks:
            if check.name.startswith("jacobi["):
                assert check.guard_band == 3
            elif check.name.startswith("closure["):
                assert check.guard_band == 1
            else:
                assert check.guard_band == 0

    def test_antisymmetry_catches_a_wrong_graded_sign(self, monkeypatch):
        # The brackets keep their true signs; only the antisymmetry layer reads
        # the flipped one, for the ordered degree pair (1,0).(0,1).
        original = verify.graded_sign

        def flipped(a, b):
            sign = original(a, b)
            return -sign if (a, b) == (DEGREE_Q10, DEGREE_Q01) else sign

        monkeypatch.setattr(verify, "graded_sign", flipped)
        report = run_jacobi_suite(hermitian_charges(cv_realization(Fraction(1, 2), 0, 12)))
        assert len(report.checks) == 96
        assert [c.name for c in report.checks if not c.passed] == ["antisymmetry[Q10,Q01]"]


# Ordered census of one report: (name, guard band, exactness) of every check.
SUITE_CENSUS = [
    ("standard/qdag-squared-zero", 0, "structural-exact"),
    ("standard/q-squared-zero", 0, "structural-exact"),
    ("standard/anticommutator-gives-h", 1, "diagonal-exact"),
    ("standard/h-commutes-qdag", 1, "float-tolerance"),
    ("standard/h-commutes-q", 1, "float-tolerance"),
    ("qform/anticommutator-gives-h", 1, "diagonal-exact"),
    ("qform/squares-cancel", 0, "structural-exact"),
    ("qform/commutator-gives-z", 1, "diagonal-exact"),
    ("qform/h-commutes-qdag", 1, "float-tolerance"),
    ("qform/h-commutes-q", 1, "float-tolerance"),
    ("qform/h-commutes-z", 0, "diagonal-exact"),
    ("qform/z-anticommutes-qdag", 1, "float-tolerance"),
    ("qform/z-anticommutes-q", 1, "float-tolerance"),
    ("hermitian/hermitian-q10", 0, "float-tolerance"),
    ("hermitian/hermitian-q01", 0, "float-tolerance"),
    ("hermitian/hermitian-h", 0, "float-tolerance"),
    ("hermitian/hermitian-z", 0, "float-tolerance"),
    ("hermitian/q10-squared-gives-2h", 1, "float-tolerance"),
    ("hermitian/q01-squared-gives-2h", 1, "float-tolerance"),
    ("hermitian/q10-q01-commutator-gives-2iz", 1, "float-tolerance"),
    ("hermitian/h-commutes-q10", 1, "float-tolerance"),
    ("hermitian/h-commutes-q01", 1, "float-tolerance"),
    ("hermitian/h-commutes-z", 0, "diagonal-exact"),
    ("hermitian/z-anticommutes-q10", 1, "float-tolerance"),
    ("hermitian/z-anticommutes-q01", 1, "float-tolerance"),
]
_LABELS = ("H", "Q10", "Q01", "Z")
SUITE_CENSUS += [
    (f"jacobi/antisymmetry[{x},{y}]", 0, "structural-exact")
    for x, y in product(_LABELS, repeat=2)
]
SUITE_CENSUS += [
    (f"jacobi/jacobi[{x},{y},{z}]", 3, "float-tolerance")
    for x, y, z in product(_LABELS, repeat=3)
]
SUITE_CENSUS += [
    (f"jacobi/closure[{x},{y}]", 1, "float-tolerance")
    for x, y in product(_LABELS, repeat=2)
]


def _family(name, mu, dim, backend=Backend.FLOAT):
    if name == "cv":
        return cv_realization(Fraction(1, 2), mu, dim, backend)
    return gdoa_realization(OscillatorSpec.gdoa("n^2", weight="n"), mu, dim, backend)


class TestSharedBrackets:
    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_ordered_census(self, family):
        report = run_all_suites(_family(family, 1, 8))
        census = [(c.name, c.guard_band, c.exactness.value) for c in report.checks]
        assert len(SUITE_CENSUS) == 121
        assert census == SUITE_CENSUS

    @pytest.mark.parametrize("backend", [Backend.FLOAT, Backend.EXACT])
    @pytest.mark.parametrize("mu", [0, 1])
    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_suite_equals_reference_functions(self, family, mu, backend):
        # Nested brackets of the true generators vanish off the guard band, so
        # Z + Q10, whose brackets with every generator are nonzero, runs too.
        h = hermitian_charges(_family(family, mu, 10, backend))
        shifted = GradedOperator(h.Z.matrix + h.Q10.matrix, DEGREE_Z, "Z")
        for generators in (h, replace(h, Z=shifted)):
            operators = {op.label: op for op in (h.H, h.Q10, h.Q01, generators.Z)}
            compared = 0
            for check in run_jacobi_suite(generators).checks:
                kind, inside = check.name.rstrip("]").split("[")
                ops = [operators[label] for label in inside.split(",")]
                if kind == "antisymmetry":
                    assert check.residual == check_antisymmetry(*ops)
                    compared += 1
                elif kind == "jacobi":
                    assert (check.residual, check.scale) == jacobi_defect(*ops)
                    compared += 1
            assert compared == 16 + 64

    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_exact_variant_built_once_per_report(self, family, monkeypatch):
        calls = []
        original = realizations.exact_variant

        def counting(r):
            calls.append(r.backend)
            return original(r)

        monkeypatch.setattr(realizations, "exact_variant", counting)
        assert run_all_suites(_family(family, 0, 8)).passed
        assert calls == [Backend.FLOAT]


class TestSharedRows:
    # run_all_suites evaluates a row shared by two suites once, and its report
    # equals the public suites run one by one.
    SHARED = ("anticommutator-gives-h", "h-commutes-qdag", "h-commutes-q", "h-commutes-z")

    @staticmethod
    def _count_evaluations(monkeypatch):
        """Table rows evaluated, by row name, and verdicts computed."""
        rows, verdicts = Counter(), []
        evaluate, check = verify._evaluate, verify._check

        def counting_evaluate(row, *args):
            rows[row.name] += 1
            return evaluate(row, *args)

        def counting_check(*args):
            verdicts.append(args)
            return check(*args)

        monkeypatch.setattr(verify, "_evaluate", counting_evaluate)
        monkeypatch.setattr(verify, "_check", counting_check)
        return rows, verdicts

    @staticmethod
    def _separately(r):
        reports = {"standard/": run_standard_susy_suite(r), "qform/": run_qform_suite(r),
                   "hermitian/": run_hermitian_suite(r),
                   "jacobi/": run_jacobi_suite(hermitian_charges(r))}
        return tuple(replace(check, name=prefix + check.name)
                     for prefix, report in reports.items() for check in report.checks)

    @pytest.mark.parametrize("backend", [Backend.FLOAT, Backend.EXACT])
    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_each_shared_row_evaluated_once(self, family, backend, monkeypatch):
        r = _family(family, 0, 8, backend)
        expected = self._separately(r)
        rows, verdicts = self._count_evaluations(monkeypatch)
        assert run_all_suites(r).checks == expected
        assert {name: rows[name] for name in self.SHARED} == dict.fromkeys(self.SHARED, 1)
        # 5 standard + 8 q-form + 12 Hermitian rows, 4 of them shared, each once
        assert len(rows) == 25 - 4 and set(rows.values()) == {1}
        # one verdict per distinct row and per closure check (16)
        assert len(verdicts) == 41 - 4

    @staticmethod
    def _record_matmuls(monkeypatch):
        calls = []
        original = BandMatrix.__matmul__

        def recording(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(BandMatrix, "__matmul__", recording)
        return calls

    # cv(1/2), mu 0, dim 256 (16 exact): 26 table products, 4 more on the
    # exact variant's set (float only), 2 inner Jacobi products the tables do
    # not make (HH, ZZ) and 80 nested ones, two for each of the 40 nested
    # brackets with j <= k (the other 24 are read from them by sign).
    # 160 / 156 while all 64 nested brackets were built; 198 / 192 while every
    # row and bracket made its own products; 212 / 210 before shared rows ran
    # once.  A second call makes them all again: no product outlives its call.
    @pytest.mark.parametrize("backend, count", [(Backend.FLOAT, 112), (Backend.EXACT, 108)])
    def test_reference_cell_matmul_count(self, backend, count, monkeypatch):
        r = cv_realization(Fraction(1, 2), 0, 256 if backend is Backend.FLOAT else 16, backend)
        calls = self._record_matmuls(monkeypatch)
        first = run_all_suites(r)
        assert first.passed and len(calls) == count
        del calls[:]
        assert run_all_suites(r).checks == first.checks
        assert len(calls) == count

    @pytest.mark.parametrize("backend", [Backend.FLOAT, Backend.EXACT])
    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_each_generator_product_made_once(self, family, backend, monkeypatch):
        r = _family(family, 1, 8, backend)
        built = []

        def capture(s):
            built.append(hermitian_charges(s))
            return built[-1]

        monkeypatch.setattr(verify, "hermitian_charges", capture)
        calls = self._record_matmuls(monkeypatch)
        run_all_suites(r)
        (h,) = built
        generators = {id(op.matrix) for s in (r, r.exact) for op in (s.Qdag, s.Q, s.H, s.Z)}
        generators |= {id(h.Q10.matrix), id(h.Q01.matrix)}
        pairs = Counter((id(a), id(b)) for a, b in calls
                        if id(a) in generators and id(b) in generators)
        assert max(pairs.values()) == 1
        # 26 table products and 2 inner Jacobi ones, plus 4 on a separate exact set
        assert len(pairs) == (28 if backend is Backend.EXACT else 32)


def _plain_pairs(s, h=None):
    """Every table row's two sides, each product made by plain ``@``."""
    qd, q, hh, z = s.Qdag.matrix, s.Q.matrix, s.H.matrix, s.Z.matrix
    zero = BandMatrix.zeros(s.dim, s.backend)
    pairs = {
        "qdag-squared-zero": (qd @ qd, zero),
        "q-squared-zero": (q @ q, zero),
        "anticommutator-gives-h": (anticommutator(qd, q), hh),
        "h-commutes-qdag": (commutator(hh, qd), zero),
        "h-commutes-q": (commutator(hh, q), zero),
        "squares-cancel": (qd @ qd + q @ q, zero),
        "commutator-gives-z": (commutator(qd, q), z),
        "h-commutes-z": (commutator(hh, z), zero),
        "z-anticommutes-qdag": (anticommutator(z, qd), zero),
        "z-anticommutes-q": (anticommutator(z, q), zero),
    }
    if h is not None:
        q10, q01 = h.Q10.matrix, h.Q01.matrix
        two_i = ExactScalar(0, 2) if s.backend is Backend.EXACT else 2j
        pairs.update({
            "hermitian-q10": (q10.adjoint(), q10),
            "hermitian-q01": (q01.adjoint(), q01),
            "hermitian-h": (hh.adjoint(), hh),
            "hermitian-z": (z.adjoint(), z),
            "q10-squared-gives-2h": (anticommutator(q10, q10), hh.scaled(2)),
            "q01-squared-gives-2h": (anticommutator(q01, q01), hh.scaled(2)),
            "q10-q01-commutator-gives-2iz": (commutator(q10, q01), z.scaled(two_i)),
            "h-commutes-q10": (commutator(hh, q10), zero),
            "h-commutes-q01": (commutator(hh, q01), zero),
            "z-anticommutes-q10": (anticommutator(z, q10), zero),
            "z-anticommutes-q01": (anticommutator(z, q01), zero),
        })
    return pairs


def _oracle_checks(r, policy=verify.DEFAULT_POLICY):
    """The 121 checks of ``run_all_suites(r)``, rebuilt with no product ledger:
    every bracket from ``commutator``/``anticommutator``/``graded_bracket``."""
    h = hermitian_charges(r)
    pairs = _plain_pairs(r, h)
    exact = _plain_pairs(r.exact) if r.exact is not None else None
    checks = []
    tables = {"standard/": verify.STANDARD_RELATIONS, "qform/": verify.QFORM_RELATIONS,
              "hermitian/": verify.HERMITIAN_RELATIONS}
    for prefix, table in tables.items():
        for row in table:
            exact_pair = None
            if exact is not None and row.exactness is Exactness.DIAGONAL_EXACT:
                exact_pair = exact[row.name]
            verdict = verify._check(row.guard_band, row.exactness, pairs[row.name], policy,
                                    exact_pair)
            checks.append(verify.RelationCheck(prefix + row.name, row.formula, row.guard_band,
                                               *verdict))
    checks += [replace(check, name=f"jacobi/{check.name}")
               for check in _oracle_jacobi_checks(h, policy)]
    return checks


def _oracle_jacobi_checks(h, policy=verify.DEFAULT_POLICY):
    """The 96 checks of ``run_jacobi_suite(h)``, each rebuilt on its own by
    ``check_antisymmetry``, ``jacobi_defect`` (all 64 nested brackets, none
    read from another by sign) and ``graded_bracket``.  Closure compares with
    the structure constants stated here by generator position, never label:
    {Q10,Q10} = {Q01,Q01} = 2H, [Q10,Q01] = 2iZ = -[Q01,Q10], and 0 otherwise."""
    generators = (h.H, h.Q10, h.Q01, h.Z)
    two_i = ExactScalar(0, 2) if h.backend is Backend.EXACT else 2j
    constants = {(1, 1): h.H.matrix.scaled(2), (2, 2): h.H.matrix.scaled(2),
                 (1, 2): h.Z.matrix.scaled(two_i), (2, 1): h.Z.matrix.scaled(-two_i)}
    zero = BandMatrix.zeros(h.dim, h.backend)
    checks = []
    for x, y in product(generators, repeat=2):
        residual = check_antisymmetry(x, y)
        scale = verify._top([x.matrix.max_abs(), y.matrix.max_abs()])
        checks.append(verify.RelationCheck(
            f"antisymmetry[{x.label},{y.label}]", "[[X,Y]] + (-1)^(x.y) [[Y,X]] = 0",
            0, Exactness.STRUCTURAL_EXACT, residual, scale, 0.0, residual == 0.0))
    for x, y, z in product(generators, repeat=3):
        residual, scale = jacobi_defect(x, y, z)
        bound = policy.bound(scale)
        checks.append(verify.RelationCheck(
            f"jacobi[{x.label},{y.label},{z.label}]", "graded Jacobi cyclic sum = 0",
            3, Exactness.FLOAT_TOLERANCE, residual, scale, bound, residual <= bound))
    for (i, x), (j, y) in product(enumerate(generators), repeat=2):
        pair = (graded_bracket(x, y).matrix, constants.get((i, j), zero))
        checks.append(verify.RelationCheck(
            f"closure[{x.label},{y.label}]", "[[X,Y]] = structure constants", 1,
            *verify._check(1, Exactness.FLOAT_TOLERANCE, pair, policy)))
    return checks


def _fields(check):
    """A check's fields, floats by ``float.hex`` so that NaN and -0.0 compare."""
    return tuple(v.hex() if isinstance(v, float) else v for v in vars(check).values())


def _corrupted(r, fault):
    if fault == "h-bumped":
        one = ExactScalar(1) if r.backend is Backend.EXACT else 1.0
        return replace(r, H=replace(r.H, matrix=r.H.matrix + BandMatrix(r.dim, r.backend,
                                                                          {(0, 0): one})))
    if fault == "z-aliases-h":
        return replace(r, Z=replace(r.Z, matrix=r.H.matrix))
    if fault == "q-is-qdag":
        return replace(r, Q=replace(r.Q, matrix=r.Qdag.matrix))
    return r


class TestLedgerFreeOracle:
    # run_all_suites reads each generator product from one ledger; every check
    # must equal the one rebuilt with plain products, bit for bit, on honest
    # and on corrupted sets (one of which holds one matrix in two slots).
    @pytest.mark.parametrize("fault", ["none", "h-bumped", "z-aliases-h", "q-is-qdag"])
    @pytest.mark.parametrize("backend", [Backend.FLOAT, Backend.EXACT])
    @pytest.mark.parametrize("dim", [8, 16])
    @pytest.mark.parametrize("mu", [0, 1])
    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_report_equals_plain_products(self, family, mu, dim, backend, fault):
        r = _corrupted(_family(family, mu, dim, backend), fault)
        report = run_all_suites(r)
        expected = _oracle_checks(r)
        assert [c.name for c in report.checks] == [c.name for c in expected]
        assert [_fields(c) for c in report.checks] == [_fields(c) for c in expected]
        assert report.passed is (fault == "none")


def _hermitian_fault(h, fault):
    if fault == "z-is-h":
        return replace(h, Z=replace(h.Z, matrix=h.H.matrix))
    if fault == "q01-is-q10":
        return replace(h, Q01=replace(h.Q01, matrix=h.Q10.matrix))
    if fault == "z-degree-10":
        return replace(h, Z=replace(h.Z, degree=degree(1, 0)))
    if fault == "h-bumped":
        one = ExactScalar(1) if h.backend is Backend.EXACT else 1.0
        return replace(h, H=replace(h.H, matrix=h.H.matrix + BandMatrix(h.dim, h.backend,
                                                                          {(0, 0): one})))
    return h


class TestJacobiSignReuse:
    # run_jacobi_suite builds the nested brackets [[X,[[Y,Z]]]] with Y <= Z in
    # slot order and reads the other 24 from them by sign.  Every nested
    # bracket is exactly zero on honest generators, so only a faulty set can
    # show a wrong sign; the oracle builds all 64 through jacobi_defect.  A
    # sign of +1 for every reused term is wrong only where the inner bracket
    # is a commutator; of the four faults, only a bumped H at mu 1 makes such
    # a nested bracket nonzero on the compared columns.
    @pytest.mark.parametrize("fault", ["z-is-h", "q01-is-q10", "z-degree-10", "h-bumped"])
    @pytest.mark.parametrize("backend", [Backend.FLOAT, Backend.EXACT])
    @pytest.mark.parametrize("dim", [8, 16])
    @pytest.mark.parametrize("mu", [0, 1])
    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_faulty_set_equals_unshared_oracle(self, family, mu, dim, backend, fault):
        h = _hermitian_fault(hermitian_charges(_family(family, mu, dim, backend)), fault)
        report = run_jacobi_suite(h)
        expected = _oracle_jacobi_checks(h)
        assert [_fields(c) for c in report.checks] == [_fields(c) for c in expected]
        assert not report.passed


def _relabelled(h, labels):
    return replace(h, **{slot: replace(getattr(h, slot), label=label)
                         for slot, label in zip(_LABELS, labels)})


def _renamed(name, labels):
    """``name`` with each generator label in its brackets replaced by ``labels``."""
    head, _, inside = name.partition("[")
    rename = dict(zip(_LABELS, labels))
    return f"{head}[{','.join(rename[label] for label in inside[:-1].split(','))}]"


class TestClosureBySlot:
    # closure reads the structure constants by generator slot, so a label
    # names a check and never decides its verdict
    @pytest.mark.parametrize("family, mu, dim, backend", [
        ("cv", 0, 16, Backend.FLOAT), ("cv", 0, 16, Backend.EXACT),
        ("gdoa", 1, 1024, Backend.FLOAT),
    ])
    def test_zero_q10_labelled_h_fails_its_closures(self, family, mu, dim, backend):
        # read by its label as H, this set passed all 96 checks
        h = hermitian_charges(_family(family, mu, dim, backend))
        zero = GradedOperator(BandMatrix.zeros(dim, backend), DEGREE_Q10, "H")
        report = run_jacobi_suite(replace(h, Q10=zero))
        assert len(report.checks) == 96
        assert [c.name for c in report.checks if not c.passed] == [
            "closure[H,H]", "closure[H,Q01]", "closure[Q01,H]"
        ]

    @pytest.mark.parametrize("labels", [
        ("A", "B", "C", "D"), ("H", "A", "B", "Z"), ("Z", "Q01", "Q10", "H"), ("H",) * 4,
    ], ids=["fresh", "charges", "reversed", "all-h"])
    @pytest.mark.parametrize("fault", ["none", "z-is-h", "h-bumped"])
    @pytest.mark.parametrize("backend", [Backend.FLOAT, Backend.EXACT])
    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_relabelling_changes_only_the_names(self, family, backend, fault, labels):
        h = _hermitian_fault(hermitian_charges(_family(family, 1, 12, backend)), fault)
        report = run_jacobi_suite(h)
        relabelled = run_jacobi_suite(_relabelled(h, labels))
        assert [c.name for c in relabelled.checks] == [
            _renamed(c.name, labels) for c in report.checks
        ]
        assert [_fields(replace(c, name="")) for c in relabelled.checks] == [
            _fields(replace(c, name="")) for c in report.checks
        ]
        assert relabelled.passed is report.passed is (fault == "none")


_ANTI_H = {"standard/anticommutator-gives-h", "qform/anticommutator-gives-h"}


class TestExactRecheck:
    # The instance operators are untouched, so only the exact half of a
    # diagonal-exact check can fail: exactly the rows whose formula reads the
    # doubled exact operator.
    @pytest.mark.parametrize(
        "field, failing",
        [
            ("H", _ANTI_H),
            ("Z", {"qform/commutator-gives-z"}),
            ("Qdag", _ANTI_H | {"qform/commutator-gives-z"}),
            ("Q", _ANTI_H | {"qform/commutator-gives-z"}),
        ],
    )
    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_doubled_exact_operator_fails_its_rows(self, family, field, failing, monkeypatch):
        original = realizations.exact_variant

        def doubled(r):
            exact = original(r)
            op = getattr(exact, field)
            return replace(exact, **{field: replace(op, matrix=op.matrix.scaled(2))})

        monkeypatch.setattr(realizations, "exact_variant", doubled)
        report = run_all_suites(_family(family, 0, 8))
        assert {c.name for c in report.checks if not c.passed} == failing

    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_non_diagonal_exact_h_fails_only_rows_reading_it(self, family, monkeypatch):
        # Both suites that list [H,Z] = 0 re-check it on the exact H of r.exact.
        original = realizations.exact_variant

        def shifted(r):
            exact = original(r)
            return replace(exact, H=replace(exact.H, matrix=exact.H.matrix + exact.Qdag.matrix))

        monkeypatch.setattr(realizations, "exact_variant", shifted)
        report = run_all_suites(_family(family, 0, 8))
        assert {c.name for c in report.checks if not c.passed} == _ANTI_H | {
            "qform/h-commutes-z", "hermitian/h-commutes-z"
        }

    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_standalone_hermitian_suite_rechecks_on_exact_variant(self, family, monkeypatch):
        original = realizations.exact_variant

        def shifted(r):
            exact = original(r)
            return replace(exact, H=replace(exact.H, matrix=exact.H.matrix + exact.Qdag.matrix))

        monkeypatch.setattr(realizations, "exact_variant", shifted)
        report = run_hermitian_suite(_family(family, 0, 8))
        assert [c.name for c in report.checks if not c.passed] == ["h-commutes-z"]

    @pytest.mark.parametrize("backend", [Backend.FLOAT, Backend.EXACT])
    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_no_exact_recheck_without_use_exact(self, family, backend):
        report = run_all_suites(_family(family, 0, 8, backend), use_exact=False)
        assert report.passed
        assert all(c.exactness is not Exactness.DIAGONAL_EXACT for c in report.checks)
        check = by_name(report)["hermitian/h-commutes-z"]
        assert check.exactness is Exactness.FLOAT_TOLERANCE and check.bound > 0.0


class TestResidualScaling:
    def test_residuals_grow_at_most_linearly(self):
        # Doubling the dimension may double the scale of the worst entries;
        # allow a factor of eight of headroom plus an absolute floor.
        previous = None
        for dim in (8, 16, 32, 64, 128):
            r = cv_realization(Fraction(5, 2), 1, dim)
            report = run_all_suites(r)
            assert report.passed
            current = {
                c.name: c.residual
                for c in report.checks
                if c.exactness is Exactness.FLOAT_TOLERANCE
            }
            if previous is not None:
                for name, residual in current.items():
                    assert residual <= 8 * previous[name] + 1e-13, (name, dim)
            previous = current


class TestReports:
    def test_merge_prefixes(self):
        r = cv_realization(0, 1, 8)
        merged = run_all_suites(r)
        prefixes = {check.name.split("/", 1)[0] for check in merged.checks}
        assert prefixes == {"standard", "qform", "hermitian", "jacobi"}

    @pytest.mark.parametrize("backend", [Backend.FLOAT, Backend.EXACT])
    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_jacobi_prefix_names_each_check(self, family, backend):
        h = hermitian_charges(_family(family, 1, 8, backend))
        bare = run_jacobi_suite(h)
        prefixed = run_jacobi_suite(h, prefix="jacobi/")
        assert prefixed.checks == tuple(replace(c, name="jacobi/" + c.name) for c in bare.checks)
        assert replace(prefixed, checks=(), elapsed_ms=0.0) == replace(
            bare, checks=(), elapsed_ms=0.0)

    def test_report_dict_schema(self):
        r = cv_realization(Fraction(1, 2), 0, 8)
        payload = run_standard_susy_suite(r).to_dict()
        assert list(payload.keys()) == [
            "spec",
            "mu",
            "dim",
            "backend",
            "checks",
            "pass",
            "elapsed_ms",
        ]
        assert payload["spec"] == "calogero_vasiliev(kappa=1/2)"
        assert payload["mu"] == 0 and payload["dim"] == 8
        assert payload["backend"] == "float"
        assert payload["pass"] is True
        for check in payload["checks"]:
            assert list(check.keys()) == [
                "name",
                "paper_ref",
                "guard_band",
                "exactness",
                "residual",
                "pass",
            ]
            assert isinstance(check["paper_ref"], str) and check["paper_ref"]
            assert check["paper_ref"].isascii()

    def test_relation_formulas(self):
        r = cv_realization(0, 0, 8)
        checks = by_name(run_qform_suite(r))
        assert checks["anticommutator-gives-h"].relation == "{Q+,Q} = H"
        assert checks["commutator-gives-z"].relation == "[Q+,Q] = Z"
        assert checks["squares-cancel"].relation == "(Q+)^2 + Q^2 = 0"

    def test_strict_policy_fails_honest_rounding(self):
        # Rounding in sqrt(F) makes some relations inexact at the last bit, so
        # an absolute tolerance of zero width must produce failures.
        r = cv_realization(Fraction(1, 2), 0, 64)
        report = run_all_suites(r, TolerancePolicy(0.0, 0.0), use_exact=False)
        assert not report.passed
        failing = [c for c in report.checks if not c.passed]
        assert failing
        assert all(c.exactness is Exactness.FLOAT_TOLERANCE for c in failing)
