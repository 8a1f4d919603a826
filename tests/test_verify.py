"""Tests for the relation-verification suites and their reports."""

import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdoa_susy import grading, verify
from gdoa_susy.fock import OscillatorSpec, ValidationError
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
    exact_variant,
    gdoa_realization,
    hermitian_charges,
    spectrum_H,
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


def _polynomial(coefficients):
    """c0*n^0 + c1*n^1 + ... over the nonzero coefficients."""
    return " + ".join(f"{c}*n^{k}" for k, c in enumerate(coefficients) if c)


# nonnegative integer coefficients, not all zero: positive at every n >= 1
_POSITIVE = st.lists(st.integers(0, 9), min_size=1, max_size=3).filter(any)


@st.composite
def drawn_specs(draw):
    """(F, params, f): F = n P(n), sometimes over (n + c), or bracket(n) with a
    drawn kappa > -1; f a positive polynomial or its reciprocal, sometimes
    under sqrt.  Degrees stay at 3 or below in F and 2 in f, so an exact
    radicand at dim 256 stays far below the factoring limit of 10**18."""
    params = {}
    structure = draw(st.sampled_from(["poly", "ratio", "bracket"]))
    if structure == "bracket":
        params["kappa"] = draw(st.fractions(Fraction(-3, 4), 4, max_denominator=6))
        structure = "bracket(n)"
    else:
        over = f"/(n + {draw(st.integers(1, 9))})" if structure == "ratio" else ""
        structure = f"n*({_polynomial(draw(_POSITIVE))}){over}"
    weight = _polynomial(draw(_POSITIVE))
    if draw(st.booleans()):
        weight = f"1/({weight})"
    if draw(st.integers(0, 3)) == 0:
        weight = f"sqrt({weight})"
    return structure, params, weight


class TestDrawnSpecs:
    """The paper's construction holds for any structure function with F(0) = 0
    and F(n) > 0, and any positive weight: every check of an honest report
    passes on drawn (F, f), as on the listed specs."""

    # 60 drawn examples, each one float report at dim <= 256 and, for a
    # weight without sqrt, one exact report at dim <= 64
    @settings(max_examples=60, deadline=None)
    @given(drawn_specs(), st.sampled_from([0, 1]), st.integers(4, 64), st.integers(4, 256))
    def test_honest_reports_pass_and_match_the_spectrum(self, sources, mu, exact_dim,
                                                        float_dim):
        structure, params, weight = sources
        spec = OscillatorSpec.gdoa(structure, params, weight)
        r = gdoa_realization(spec, mu, float_dim)
        report = run_all_suites(r)
        assert report.passed, [c.name for c in report.checks if not c.passed]
        if not spec.weight_is_exact:
            with pytest.raises(ValidationError, match="use the float backend"):
                gdoa_realization(spec, mu, exact_dim, Backend.EXACT)
            return
        exact = gdoa_realization(spec, mu, exact_dim, Backend.EXACT)
        exact_report = run_all_suites(exact)
        assert [(c.name, c.passed) for c in exact_report.checks] == [
            (c.name, c.passed) for c in report.checks]
        # the instance H and Z are the closed-form spectrum, level by level
        for s in (r, exact):
            rows = spectrum_H(spec, mu, s.dim - 1).rows
            assert s.H.matrix == BandMatrix.diagonal([row.energy for row in rows], s.backend)
            assert s.Z.matrix == BandMatrix.diagonal([row.central for row in rows], s.backend)


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
        # The sign is flipped for the ordered degree pair (1,0).(0,1), and it
        # signs both the antisymmetry layer and the inner bracket [[Q10,Q01]],
        # built as {Q10,Q01} = -2i((Q+)^2 - Q^2) = 0.  That zero fails closure
        # against 2iZ and leaves [[Q01,Q10]] = -2iZ unmatched in both
        # antisymmetry checks of the pair.  Every nested bracket it enters is 0
        # with the true inner bracket 2iZ too, so no Jacobi check moves.  A
        # wrong sign in the antisymmetry layer alone is a mutant in
        # tests/mutants.py.
        original = verify.graded_sign

        def flipped(a, b):
            sign = original(a, b)
            return -sign if (a, b) == (DEGREE_Q10, DEGREE_Q01) else sign

        monkeypatch.setattr(verify, "graded_sign", flipped)
        report = run_jacobi_suite(hermitian_charges(cv_realization(Fraction(1, 2), 0, 12)))
        assert len(report.checks) == 96
        assert [c.name for c in report.checks if not c.passed] == [
            "antisymmetry[Q10,Q01]", "antisymmetry[Q01,Q10]", "closure[Q10,Q01]"
        ]


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
    """cv(1/2), or gdoa(n^2) with f = n ("gdoa") or f = sqrt(n) ("sqrt")."""
    if name == "cv":
        return cv_realization(Fraction(1, 2), mu, dim, backend)
    weight = "sqrt(n)" if name == "sqrt" else "n"
    return gdoa_realization(OscillatorSpec.gdoa("n^2", weight=weight), mu, dim, backend)


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
        for generators in (h, _z_shifted(h)):
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
        original = verify.exact_variant

        def counting(r):
            calls.append(r.backend)
            return original(r)

        monkeypatch.setattr(verify, "exact_variant", counting)
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

    # cv(1/2), mu 0, dim 64: 14 table brackets, 3 more on the exact variant's
    # set (float only), 16 inner Jacobi brackets less the 8 the Hermitian
    # table built with the same slots and sign, and 40 nested ones (73 / 70
    # with the 8 built twice).  Each bracket is built from its own products.
    @pytest.mark.parametrize("backend, count", [(Backend.FLOAT, 65), (Backend.EXACT, 62)])
    def test_reference_cell_bracket_count(self, backend, count, monkeypatch):
        calls = []
        original = verify._bracket

        def recording(ab, ba, sign):
            calls.append((ab, ba, sign))
            return original(ab, ba, sign)

        monkeypatch.setattr(verify, "_bracket", recording)
        monkeypatch.setattr(grading, "_bracket", recording)
        assert run_all_suites(cv_realization(Fraction(1, 2), 0, 64, backend)).passed
        assert len(calls) == count
        # the recorded matrices stay alive, so no two of them share an id
        assert len({(id(ab), id(ba), sign) for ab, ba, sign in calls}) == count

    # cv(1/2), mu 0, dim 64, exact: 16 graded signs in the table of the Jacobi
    # suite and 40 in its nested brackets (336 when each use called
    # graded_sign); 21 distinct table rows and 16 closures compare one pair
    # each, as a diagonal-exact row's exact pair is its instance pair (40 while
    # it was compared twice); one operator set (two while the record had one).
    def test_reference_cell_sign_comparison_and_set_counts(self, monkeypatch):
        signs, comparisons, sets = [], [], []

        def recording(calls, original):
            def record(*args):
                calls.append(args)
                return original(*args)
            return record

        for module in (verify, grading):
            monkeypatch.setattr(module, "graded_sign", recording(signs, grading.graded_sign))
        monkeypatch.setattr(verify, "approx_equal_matrix",
                            recording(comparisons, verify.approx_equal_matrix))
        monkeypatch.setattr(verify, "_Operators", recording(sets, verify._Operators))
        assert run_all_suites(cv_realization(Fraction(1, 2), 0, 64, Backend.EXACT)).passed
        assert (len(signs), len(comparisons), len(sets)) == (56, 37, 1)

    @pytest.mark.parametrize("backend", [Backend.FLOAT, Backend.EXACT])
    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_each_generator_product_made_once(self, family, backend, monkeypatch):
        r = _family(family, 1, 8, backend)
        charges, variants = [], []

        def capture(build, built):
            def captured(s):
                built.append(build(s))
                return built[-1]
            return captured

        # the sets verify builds: on the exact backend the variant is r itself
        monkeypatch.setattr(verify, "hermitian_charges", capture(hermitian_charges, charges))
        monkeypatch.setattr(verify, "exact_variant", capture(exact_variant, variants))
        calls = self._record_matmuls(monkeypatch)
        run_all_suites(r)
        (h,), (ex,) = charges, variants
        generators = {id(op.matrix) for s in (r, ex) for op in (s.Qdag, s.Q, s.H, s.Z)}
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


# The rows that also hold the instance generators they read to the record:
# Q+ and Q to a fresh build of the spec, H and Z to the closed forms
_RECORD_READS = {"anticommutator-gives-h": ("Qdag", "Q", "H"),
                 "commutator-gives-z": ("Qdag", "Q", "Z"), "h-commutes-z": ("H", "Z")}


def _record_residuals(r):
    """The residual of each of ``r``'s Q+ and Q against a fresh build of
    ``r.spec``, and of its H and Z against the closed-form spectrum of
    ``r.spec`` on every level, as diagonal matrices."""
    build = cv_realization if r.convention == "cv" else gdoa_realization
    fresh = build(r.spec, r.mu, r.dim, r.backend)
    rows = spectrum_H(r.spec, r.mu, r.dim - 1).rows
    closed = {"Qdag": fresh.Qdag.matrix, "Q": fresh.Q.matrix,
              "H": BandMatrix.diagonal([row.energy for row in rows], r.backend),
              "Z": BandMatrix.diagonal([row.central for row in rows], r.backend)}
    return {name: approx_equal_matrix(getattr(r, name).matrix, matrix,
                                      TolerancePolicy(0.0, 0.0)).residual
            for name, matrix in closed.items()}


def _oracle_checks(r, policy=verify.DEFAULT_POLICY):
    """The 121 checks of ``run_all_suites(r)``, rebuilt with no product ledger:
    every bracket from ``commutator``/``anticommutator``/``graded_bracket``.
    A table row that passes while a generator it holds to the record is off
    it fails, with that residual against it and a bound of 0."""
    h = hermitian_charges(r)
    pairs = _plain_pairs(r, h)
    off = {name: residual for name, residual in _record_residuals(r).items() if residual != 0.0}
    ex = exact_variant(r)
    exact = _plain_pairs(ex) if ex is not None else None
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
            misses = [off[name] for name in _RECORD_READS.get(row.name, ()) if name in off]
            if misses and verdict[4]:
                verdict = (verdict[0], verify._top(misses), verdict[2], 0.0, False)
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
    if fault == "edge-bumped":
        return _edge_bumped(r, ("Qdag", "Q"))[0]
    return r


class TestLedgerFreeOracle:
    # run_all_suites reads each generator product from one ledger; every check
    # must equal the one rebuilt with plain products, bit for bit, on honest
    # and on corrupted sets (one of which holds one matrix in two slots).
    @pytest.mark.parametrize("fault", ["none", "h-bumped", "z-aliases-h", "q-is-qdag",
                                       "edge-bumped"])
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


_EPS = Fraction(1, 10**4)  # each corruption's size, relative to the entry it corrupts


def _scaled(field, keys, imaginary=False):
    """The Hermitian set with the ``keys`` entries of ``field`` multiplied by
    1 + _EPS, or by 1 + i _EPS."""
    def corrupt(h):
        op = getattr(h, field)
        re, im = (1, _EPS) if imaginary else (1 + _EPS, 0)
        factor = ExactScalar(re, im) if h.backend is Backend.EXACT else complex(re, im)
        entries = {(i, j): v for i, j, v in op.matrix.entries()}
        entries.update({key: entries[key] * factor for key in keys})
        return replace(h, **{field: replace(op, matrix=BandMatrix(h.dim, h.backend, entries))})
    return corrupt


def _degree_10(field):
    return lambda h: replace(h, **{field: replace(getattr(h, field), degree=degree(1, 0))})


_H_READS = ("standard/anticommutator-gives-h", "standard/h-commutes-qdag", "standard/h-commutes-q",
            "qform/anticommutator-gives-h", "qform/h-commutes-qdag", "qform/h-commutes-q",
            "qform/h-commutes-z", "hermitian/q10-squared-gives-2h",
            "hermitian/q01-squared-gives-2h", "hermitian/h-commutes-q10",
            "hermitian/h-commutes-q01", "hermitian/h-commutes-z", "jacobi/closure[H,Q10]",
            "jacobi/closure[H,Q01]", "jacobi/closure[Q10,H]", "jacobi/closure[Q10,Q10]",
            "jacobi/closure[Q01,H]", "jacobi/closure[Q01,Q01]")
_Z_READS = ("qform/commutator-gives-z", "qform/h-commutes-z", "qform/z-anticommutes-qdag",
            "qform/z-anticommutes-q", "hermitian/q10-q01-commutator-gives-2iz",
            "hermitian/h-commutes-z", "hermitian/z-anticommutes-q10",
            "hermitian/z-anticommutes-q01", "jacobi/closure[Q10,Q01]", "jacobi/closure[Q10,Z]",
            "jacobi/closure[Q01,Q10]", "jacobi/closure[Q01,Z]", "jacobi/closure[Z,Q10]",
            "jacobi/closure[Z,Q01]")
_Q10_PAIR = ("hermitian/q10-squared-gives-2h", "hermitian/q10-q01-commutator-gives-2iz",
             "jacobi/closure[Q10,Q10]", "jacobi/closure[Q10,Q01]", "jacobi/closure[Q01,Q10]")
_Q01_PAIR = ("hermitian/q01-squared-gives-2h", "hermitian/q10-q01-commutator-gives-2iz",
             "jacobi/closure[Q10,Q01]", "jacobi/closure[Q01,Q10]", "jacobi/closure[Q01,Q01]")

# Corruptions of the Hermitian set at mu 0, dim 16, each with the exact set of
# checks of run_all_suites that it fails, on both families and backends.
# Levels 3 and 4 form one doublet, which Q10 and Q01 join at (4, 3) and (3, 4).
# A one-sided entry, or an imaginary part on H(3,3) or Z(3,3), breaks
# hermiticity; a scaled pair breaks {Q,Q} = 2H; a scaled H(3,3) splits the
# doublet (and leaves the level record); a scaled Z(3,3) breaks the
# Z(3,3) = -Z(4,4) that {Z,Q10} = 0 needs.
_CORRUPTIONS = {
    "q10-entry": (_scaled("Q10", [(4, 3)]), ("hermitian/hermitian-q10",) + _Q10_PAIR),
    "q01-entry": (_scaled("Q01", [(4, 3)]), ("hermitian/hermitian-q01",) + _Q01_PAIR),
    "q10-pair": (_scaled("Q10", [(4, 3), (3, 4)]), _Q10_PAIR),
    "q01-pair": (_scaled("Q01", [(4, 3), (3, 4)]), _Q01_PAIR),
    "h-imaginary": (_scaled("H", [(3, 3)], True), _H_READS + ("hermitian/hermitian-h",)),
    "z-imaginary": (_scaled("Z", [(3, 3)], True), _Z_READS + ("hermitian/hermitian-z",)),
    "h-scaled": (_scaled("H", [(3, 3)]), _H_READS),
    "z-scaled": (_scaled("Z", [(3, 3)]), _Z_READS),
    # [[H,H]], [[Z,Z]] and [[H,Z]] of diagonal matrices vanish for any entries:
    # only a degree that makes them anticommutators fails their closure
    "h-degree-10": (_degree_10("H"), ("jacobi/closure[H,H]", "jacobi/closure[H,Q10]",
                                      "jacobi/closure[H,Z]", "jacobi/closure[Q10,H]",
                                      "jacobi/closure[Z,H]")),
    "z-degree-10": (_degree_10("Z"), ("jacobi/closure[Q01,Z]", "jacobi/closure[Z,Q01]",
                                      "jacobi/closure[Z,Z]")),
}

# Every check that reads a bracket shared by the Hermitian table and the
# Jacobi suite, with a corruption that fails it.
_SHARED_BRACKET_CENSUS = {
    "hermitian/hermitian-q10": "q10-entry",
    "hermitian/hermitian-q01": "q01-entry",
    "hermitian/hermitian-h": "h-imaginary",
    "hermitian/hermitian-z": "z-imaginary",
    "hermitian/q10-squared-gives-2h": "q10-pair",
    "hermitian/q01-squared-gives-2h": "q01-pair",
    "hermitian/q10-q01-commutator-gives-2iz": "q10-pair",
    "hermitian/h-commutes-q10": "h-scaled",
    "hermitian/h-commutes-q01": "h-scaled",
    "hermitian/h-commutes-z": "h-scaled",
    "hermitian/z-anticommutes-q10": "z-scaled",
    "hermitian/z-anticommutes-q01": "z-scaled",
    "jacobi/closure[H,H]": "h-degree-10",
    "jacobi/closure[H,Q10]": "h-scaled",
    "jacobi/closure[H,Q01]": "h-scaled",
    "jacobi/closure[H,Z]": "h-degree-10",
    "jacobi/closure[Q10,H]": "h-scaled",
    "jacobi/closure[Q10,Q10]": "q10-pair",
    "jacobi/closure[Q10,Q01]": "q10-pair",
    "jacobi/closure[Q10,Z]": "z-scaled",
    "jacobi/closure[Q01,H]": "h-scaled",
    "jacobi/closure[Q01,Q10]": "q01-pair",
    "jacobi/closure[Q01,Q01]": "q01-pair",
    "jacobi/closure[Q01,Z]": "z-scaled",
    "jacobi/closure[Z,H]": "h-degree-10",
    "jacobi/closure[Z,Q10]": "z-scaled",
    "jacobi/closure[Z,Q01]": "z-scaled",
    "jacobi/closure[Z,Z]": "z-degree-10",
}


class TestSharedBracketCensus:
    # No check that reads a shared bracket passes whatever its inputs: each
    # fails under a corruption of the Hermitian set run_all_suites builds.
    def test_census_covers_every_shared_bracket_check(self):
        names = [name for name, _, _ in SUITE_CENSUS
                 if name.startswith(("hermitian/", "jacobi/closure["))]
        assert list(_SHARED_BRACKET_CENSUS) == names and len(names) == 12 + 16

    @pytest.mark.parametrize("backend", [Backend.FLOAT, Backend.EXACT])
    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    @pytest.mark.parametrize("name", list(_SHARED_BRACKET_CENSUS))
    def test_corruption_fails_the_check(self, name, family, backend, monkeypatch):
        corrupt, failing = _CORRUPTIONS[_SHARED_BRACKET_CENSUS[name]]
        monkeypatch.setattr(verify, "hermitian_charges", lambda r: corrupt(hermitian_charges(r)))
        report = run_all_suites(_family(family, 0, 16, backend))
        assert name in failing
        assert [c.name for c in report.checks if not c.passed] == [
            c for c, _, _ in SUITE_CENSUS if c in failing
        ]


def _shifted(field):
    """The realization set with an entry added to ``field`` one level below its
    entry joining levels 3 and 4, of _EPS times that entry."""
    def corrupt(r):
        op = getattr(r, field)
        entries = {(i, j): v for i, j, v in op.matrix.entries()}
        i, j = (4, 3) if (4, 3) in entries else (3, 4)
        factor = ExactScalar(_EPS) if r.backend is Backend.EXACT else float(_EPS)
        entries[i - 1, j - 1] = entries[i, j] * factor
        return replace(r, **{field: replace(op, matrix=BandMatrix(r.dim, r.backend, entries))})
    return corrupt


def _h_off_diagonal(r):
    """The realization set with H(3,4) = H(4,3) = _EPS H(3,3)."""
    entries = {(i, j): v for i, j, v in r.H.matrix.entries()}
    factor = ExactScalar(_EPS) if r.backend is Backend.EXACT else float(_EPS)
    entries[3, 4] = entries[4, 3] = entries[3, 3] * factor
    return replace(r, H=replace(r.H, matrix=BandMatrix(r.dim, r.backend, entries)))


_CHARGE_READS = ("standard/anticommutator-gives-h", "qform/anticommutator-gives-h",
                 "qform/commutator-gives-z")
_SHIFTED_CHARGE = _CHARGE_READS + (
    "qform/squares-cancel", "hermitian/hermitian-q10", "hermitian/hermitian-q01",
    "hermitian/q10-squared-gives-2h", "hermitian/q01-squared-gives-2h",
    "hermitian/h-commutes-q10", "hermitian/h-commutes-q01", "hermitian/z-anticommutes-q10",
    "hermitian/z-anticommutes-q01", "jacobi/closure[H,Q10]", "jacobi/closure[H,Q01]",
    "jacobi/closure[Q10,H]", "jacobi/closure[Q10,Q10]", "jacobi/closure[Q10,Z]",
    "jacobi/closure[Q01,H]", "jacobi/closure[Q01,Q01]", "jacobi/closure[Q01,Z]",
    "jacobi/closure[Z,Q10]", "jacobi/closure[Z,Q01]")

# Corruptions of the realization set at mu 0, dim 16, each with the exact set
# of checks of run_all_suites that it fails, on both families and backends.
# An entry one level below the doublet edge (3, 4) makes a charge square to a
# nonzero matrix and moves it off its sector; an edge bumped by a relative
# 1e-12 with its adjoint entry is seen only by the record; a scaled H(3,3) or
# Z(3,3) is "h-scaled" or "z-scaled" of the Hermitian census; an off-diagonal
# H stops commuting with Z, whose doublet entries are opposite.
_SET_CORRUPTIONS = {
    "qdag-shifted": (_shifted("Qdag"), _SHIFTED_CHARGE + (
        "standard/qdag-squared-zero", "standard/h-commutes-qdag", "qform/h-commutes-qdag",
        "qform/z-anticommutes-qdag")),
    "q-shifted": (_shifted("Q"), _SHIFTED_CHARGE + (
        "standard/q-squared-zero", "standard/h-commutes-q", "qform/h-commutes-q",
        "qform/z-anticommutes-q")),
    "edge-bumped": (lambda r: _edge_bumped(r, ("Qdag", "Q"))[0], _CHARGE_READS),
    "h-scaled": (_scaled("H", [(3, 3)]), _H_READS),
    "z-scaled": (_scaled("Z", [(3, 3)]), _Z_READS),
    "h-off-diagonal": (_h_off_diagonal, (
        "standard/anticommutator-gives-h", "standard/h-commutes-qdag", "standard/h-commutes-q",
        "qform/anticommutator-gives-h", "qform/h-commutes-qdag", "qform/h-commutes-q",
        "qform/h-commutes-z", "hermitian/q10-squared-gives-2h", "hermitian/q01-squared-gives-2h",
        "hermitian/h-commutes-q01", "hermitian/h-commutes-z", "jacobi/closure[H,Q01]",
        "jacobi/closure[H,Z]", "jacobi/closure[Q10,Q10]", "jacobi/closure[Q01,H]",
        "jacobi/closure[Q01,Q01]", "jacobi/closure[Z,H]")),
}

# Every check of the standard and q-form tables, with a corruption that fails it.
_TABLE_CENSUS = {
    "standard/qdag-squared-zero": "qdag-shifted",
    "standard/q-squared-zero": "q-shifted",
    "standard/anticommutator-gives-h": "edge-bumped",
    "standard/h-commutes-qdag": "h-scaled",
    "standard/h-commutes-q": "h-scaled",
    "qform/anticommutator-gives-h": "edge-bumped",
    "qform/squares-cancel": "qdag-shifted",
    "qform/commutator-gives-z": "edge-bumped",
    "qform/h-commutes-qdag": "h-scaled",
    "qform/h-commutes-q": "h-scaled",
    "qform/h-commutes-z": "h-off-diagonal",
    "qform/z-anticommutes-qdag": "z-scaled",
    "qform/z-anticommutes-q": "z-scaled",
}


class TestTableCensus:
    # No check of the standard or q-form table passes whatever its inputs:
    # each fails under a corruption of the realization set.
    def test_census_covers_every_table_check(self):
        names = [name for name, _, _ in SUITE_CENSUS if name.startswith(("standard/", "qform/"))]
        assert list(_TABLE_CENSUS) == names and len(names) == 5 + 8

    @pytest.mark.parametrize("backend", [Backend.FLOAT, Backend.EXACT])
    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    @pytest.mark.parametrize("name", list(_TABLE_CENSUS))
    def test_corruption_fails_the_check(self, name, family, backend):
        corrupt, failing = _SET_CORRUPTIONS[_TABLE_CENSUS[name]]
        report = run_all_suites(corrupt(_family(family, 0, 16, backend)))
        assert name in failing
        assert [c.name for c in report.checks if not c.passed] == [
            c for c, _, _ in SUITE_CENSUS if c in failing
        ]


# The 16 antisymmetry and 64 Jacobi checks are identities: they vanish for
# any matrices under any degrees, so no corruption of an entry fails them (the
# pins of the two censuses above name none); only a non-finite entry or a
# fault in the bracket code does.
_IDENTITIES = [name for name, _, _ in SUITE_CENSUS
               if name.startswith(("jacobi/antisymmetry[", "jacobi/jacobi["))]


def _reading(label):
    """The identities whose name reads the generator ``label``."""
    return {name for name in _IDENTITIES if label in name.rstrip("]").split("[")[1].split(",")}


def _nan_in(field):
    """The Hermitian set with NaN in ``field`` at its entry in column 3 of
    the doublet of levels 3 and 4: (3, 3) of H or Z, (4, 3) of Q10 or Q01."""
    def corrupt(h):
        op = getattr(h, field)
        entries = {(i, j): v for i, j, v in op.matrix.entries()}
        entries[(3, 3) if field in ("H", "Z") else (4, 3)] = complex("nan")
        return replace(h, **{field: replace(op, matrix=BandMatrix(h.dim, h.backend, entries))})
    return corrupt


def _z_shifted(h):
    """The Hermitian set with Z + Q10 for Z, still of degree (1,1): unlike
    the true generators', its nested brackets among Q10, Q01 and Z do not
    vanish on the guard band, so a wrong sign or order among them shows."""
    return replace(h, Z=GradedOperator(h.Z.matrix + h.Q10.matrix, DEGREE_Z, "Z"))


def _sign_flipped(monkeypatch):
    # verify.graded_sign flipped for the ordered degree pair (1,0).(0,1)
    original = verify.graded_sign
    monkeypatch.setattr(verify, "graded_sign", lambda a, b: -original(a, b) if (
        a, b) == (DEGREE_Q10, DEGREE_Q01) else original(a, b))


def _bracket_reversed(monkeypatch):
    # verify.graded_bracket building [[Y,X]] for [[X,Y]]: the reordered nested bracket
    original = verify.graded_bracket
    monkeypatch.setattr(verify, "graded_bracket", lambda x, y: original(y, x))


_SWAPPED_PAIR = {"jacobi/antisymmetry[Q10,Q01]", "jacobi/antisymmetry[Q01,Q10]"}
_Q10_Q01_Z = {f"jacobi/jacobi[{x},{y},{z}]" for x, y, z in permutations(("Q10", "Q01", "Z"))}

# Faults, each with the exact set of identities of run_all_suites it fails at
# mu 0, dim 16: a corruption of the Hermitian set and a patch of verify, or
# None.  A NaN fails every identity reading its generator (float only: the
# exact backend holds no NaN).  On the true generators every nested bracket
# vanishes on the guard band, so a flipped sign fails only the antisymmetry
# of its pair and a reversed nested bracket fails nothing; on Z + Q10 both
# fail the Jacobi checks of Q10, Q01 and Z, which that set alone passes.
_IDENTITY_FAULTS = {
    "nan-h": (_nan_in("H"), None, _reading("H")),
    "nan-q10": (_nan_in("Q10"), None, _reading("Q10")),
    "nan-q01": (_nan_in("Q01"), None, _reading("Q01")),
    "nan-z": (_nan_in("Z"), None, _reading("Z")),
    "sign-flipped": (None, _sign_flipped, _SWAPPED_PAIR),
    "bracket-reversed": (None, _bracket_reversed, set()),
    "z-shifted": (_z_shifted, None, set()),
    "z-shifted-sign-flipped": (_z_shifted, _sign_flipped, _SWAPPED_PAIR | _Q10_Q01_Z),
    "z-shifted-bracket-reversed": (_z_shifted, _bracket_reversed, _Q10_Q01_Z),
}
_IDENTITY_CELLS = [
    (fault, family, backend, 16) for fault in _IDENTITY_FAULTS for family in ("cv", "gdoa")
    for backend in (Backend.FLOAT, Backend.EXACT)
    if backend is Backend.FLOAT or not fault.startswith("nan")
] + [("z-shifted-bracket-reversed", "cv", Backend.FLOAT, 1024)]


class TestIdentityCensus:
    def test_no_entry_corruption_fails_an_identity(self):
        assert len(_IDENTITIES) == 16 + 64
        for _, failing in (*_CORRUPTIONS.values(), *_SET_CORRUPTIONS.values()):
            assert not set(failing) & set(_IDENTITIES)

    def test_every_identity_fails_under_a_pinned_fault(self):
        assert set().union(*(failing for *_, failing in _IDENTITY_FAULTS.values())) == set(
            _IDENTITIES)

    @pytest.mark.parametrize("fault, family, backend, dim", _IDENTITY_CELLS)
    def test_fault_fails_exactly_its_identities(self, fault, family, backend, dim, monkeypatch):
        corrupt, patch, failing = _IDENTITY_FAULTS[fault]
        if corrupt is not None:
            monkeypatch.setattr(verify, "hermitian_charges",
                                lambda r: corrupt(hermitian_charges(r)))
        if patch is not None:
            patch(monkeypatch)
        report = run_all_suites(_family(family, 0, dim, backend))
        assert [c.name for c in report.checks if c.name in _IDENTITIES and not c.passed] == [
            name for name in _IDENTITIES if name in failing
        ]


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
        original = verify.exact_variant

        def doubled(r):
            exact = original(r)
            op = getattr(exact, field)
            return replace(exact, **{field: replace(op, matrix=op.matrix.scaled(2))})

        monkeypatch.setattr(verify, "exact_variant", doubled)
        report = run_all_suites(_family(family, 0, 8))
        assert {c.name for c in report.checks if not c.passed} == failing

    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_non_diagonal_exact_h_fails_only_rows_reading_it(self, family, monkeypatch):
        # Both suites that list [H,Z] = 0 re-check it on the exact H of exact_variant(r).
        original = verify.exact_variant

        def shifted(r):
            exact = original(r)
            return replace(exact, H=replace(exact.H, matrix=exact.H.matrix + exact.Qdag.matrix))

        monkeypatch.setattr(verify, "exact_variant", shifted)
        report = run_all_suites(_family(family, 0, 8))
        assert {c.name for c in report.checks if not c.passed} == _ANTI_H | {
            "qform/h-commutes-z", "hermitian/h-commutes-z"
        }

    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_standalone_hermitian_suite_rechecks_on_exact_variant(self, family, monkeypatch):
        original = verify.exact_variant

        def shifted(r):
            exact = original(r)
            return replace(exact, H=replace(exact.H, matrix=exact.H.matrix + exact.Qdag.matrix))

        monkeypatch.setattr(verify, "exact_variant", shifted)
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


_OFF_RECORD = {
    "H": {"standard/anticommutator-gives-h", "qform/anticommutator-gives-h",
          "qform/h-commutes-z", "hermitian/h-commutes-z"},
    "Z": {"qform/commutator-gives-z", "qform/h-commutes-z", "hermitian/h-commutes-z"},
    "Qdag": _ANTI_H | {"qform/commutator-gives-z"},
    "Q": _ANTI_H | {"qform/commutator-gives-z"},
}


class TestTopLevelRecord:
    # For mu = 0 at even D the top level D-1 is unpaired: Q+ and Q have no
    # entry in its row or column, and every relation that reads H(D-1, D-1)
    # or Z(D-1, D-1) leaves that column out by its guard band.  Only the
    # comparison of H and Z with the build's record sees a bump there: it
    # fails exactly the rows that read the bumped operator, with or without
    # the exact re-check, and for a sqrt weight, which has none.
    @pytest.mark.parametrize("use_exact", [True, False])
    @pytest.mark.parametrize("field", ["H", "Z"])
    @pytest.mark.parametrize("family, backend, dim", [
        (family, backend, dim) for family in ("cv", "gdoa")
        for backend in (Backend.FLOAT, Backend.EXACT) for dim in (8, 16, 1024)
    ] + [("sqrt", Backend.FLOAT, 16), ("sqrt", Backend.FLOAT, 1024)])
    def test_top_level_bump_fails_the_rows_reading_it(self, family, backend, dim, field,
                                                       use_exact):
        r = _family(family, 0, dim, backend)
        top = dim - 1
        bump = BandMatrix.from_entries(dim, {(top, top): 1000}, backend)
        op = getattr(r, field)
        report = run_all_suites(replace(r, **{field: replace(op, matrix=op.matrix + bump)}),
                                use_exact=use_exact)
        assert len(report.checks) == 121
        failed = [c for c in report.checks if not c.passed]
        assert {c.name for c in failed} == _OFF_RECORD[field]
        assert all((c.residual, c.bound) == (1000.0, 0.0) for c in failed)


_BUMP = Fraction(1, 10**12)  # an edge's bump, relative to the edge


def _edge_bumped(r, fields, last=False, value=None):
    """``r`` with the first (or last) edge f(m) sqrt(F(m)) of its raising
    charge, at (m, m-1), and the lowering charge's entry (m-1, m), each
    multiplied by 1 + _BUMP or set to ``value``, in those of Qdag and Q that
    ``fields`` names; with the edge and its new value."""
    raising = "Q" if r.convention == "cv" else "Qdag"
    m = sorted(key for *key, _ in getattr(r, raising).matrix.entries())[-1 if last else 0][0]
    changed = {}
    for field in fields:
        op = getattr(r, field)
        entries = {(i, j): v for i, j, v in op.matrix.entries()}
        key = (m, m - 1) if field == raising else (m - 1, m)
        edge = entries[key]
        if value is None:
            value = edge * (ExactScalar(1 + _BUMP) if r.backend is Backend.EXACT
                            else 1 + float(_BUMP))
        entries[key] = value
        changed[field] = replace(op, matrix=BandMatrix(r.dim, r.backend, entries))
    return replace(r, **changed), edge, value


def _magnitude(x):
    return x.magnitude() if isinstance(x, ExactScalar) else abs(x)


class TestChargeRecord:
    # The rows {Q+,Q} = H and [Q+,Q] = Z also hold the instance Q+ and Q to
    # the charges the record gives, on every entry.  An edge bumped by a
    # relative 1e-12, with its adjoint entry, so that Q+ stays the adjoint of
    # Q, is far inside every float tolerance, and the exact re-check reads
    # the record: on the float backend only the record comparison sees it,
    # and fails those two rows, with the bump as residual and a bound of 0.
    # On the exact backend with the re-check, the exact proof of those rows
    # fails first, with the change of the edge's square.
    @pytest.mark.parametrize("use_exact", [True, False])
    @pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
    @pytest.mark.parametrize("mu", [0, 1])
    @pytest.mark.parametrize("family, backend, dim", [
        (family, Backend.FLOAT, dim) for family in ("cv", "gdoa", "sqrt") for dim in (8, 64, 1024)
    ] + [(family, Backend.EXACT, dim) for family in ("cv", "gdoa") for dim in (8, 16)])
    def test_bumped_edge_fails_the_rows_reading_the_charges(self, family, backend, dim, mu,
                                                            last, use_exact):
        r, edge, value = _edge_bumped(_family(family, mu, dim, backend), ("Qdag", "Q"), last)
        report = run_all_suites(r, use_exact=use_exact)
        assert len(report.checks) == 121
        failed = [c for c in report.checks if not c.passed]
        assert {c.name for c in failed} == _OFF_RECORD["Qdag"] | _OFF_RECORD["Q"]
        proof_first = backend is Backend.EXACT and use_exact
        residual = _magnitude(value * value - edge * edge if proof_first else value - edge)
        assert all((c.residual, c.bound) == (residual, 0.0) for c in failed)

    @pytest.mark.parametrize("field", ["Qdag", "Q"])
    @pytest.mark.parametrize("family, backend", [
        ("cv", Backend.FLOAT), ("cv", Backend.EXACT), ("gdoa", Backend.EXACT),
        ("sqrt", Backend.FLOAT),
    ])
    def test_one_bumped_charge_fails_the_rows_reading_it(self, family, backend, field):
        # the bumped charge is no longer the adjoint of the other, but by far
        # less than the tolerance of the Hermitian rows
        r, edge, value = _edge_bumped(_family(family, 0, 64, backend), (field,), last=True)
        report = run_all_suites(r, use_exact=False)
        failed = [c for c in report.checks if not c.passed]
        assert {c.name for c in failed} == _OFF_RECORD[field]
        assert all((c.residual, c.bound) == (_magnitude(value - edge), 0.0) for c in failed)

    def test_edge_of_four_raised_to_nine_fails(self):
        # gdoa(n^2, f=n), mu 0: the first edge f(2) sqrt(F(2)) is 4.  Raised to
        # 9 at dim 1024, it is hidden from every relation by a tolerance scaled
        # by the largest entry, about 1e12; only the record comparison sees it
        r, edge, value = _edge_bumped(_family("gdoa", 0, 1024), ("Qdag", "Q"), value=9 + 0j)
        assert edge == 4
        failed = [c for c in run_all_suites(r).checks if not c.passed]
        assert {c.name for c in failed} == _OFF_RECORD["Qdag"]
        assert all((c.residual, c.bound) == (5.0, 0.0) for c in failed)


class TestStructureConstants:
    # each nonzero structure constant of an operator set is built once: 2H,
    # 2iZ and -2iZ, plus the -i of Q01 in hermitian_charges; the twelve zero
    # pairs read the set's zero
    @pytest.mark.parametrize("backend", [Backend.FLOAT, Backend.EXACT])
    def test_scaled_at_most_four_times(self, backend, monkeypatch):
        r = cv_realization(Fraction(1, 2), 0, 1024 if backend is Backend.FLOAT else 16, backend)
        expected = run_all_suites(r).checks
        factors = []
        scaled = BandMatrix.scaled

        def counting(matrix, factor):
            factors.append(factor)
            return scaled(matrix, factor)

        monkeypatch.setattr(BandMatrix, "scaled", counting)
        assert run_all_suites(r).checks == expected
        assert sorted(factors, key=str) == sorted([-1j, 2, 2j, -2j], key=str)


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
