"""Tests for degree vectors, graded brackets, antisymmetry, and the Jacobi defect."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from gdoa_susy.grading import (
    DegreeVector,
    GradedOperator,
    GradingError,
    check_antisymmetry,
    degree,
    degree_add,
    graded_bracket,
    graded_sign,
    jacobi_defect,
)
from gdoa_susy.numerics import (
    Backend,
    BackendMismatchError,
    BandMatrix,
    DimensionMismatchError,
    _signed_max_abs,
)
from gdoa_susy.realizations import cv_realization
from oracles import commutator

ALL_DEGREES = [degree(0, 0), degree(1, 0), degree(0, 1), degree(1, 1)]


class TestDegreeVectors:
    def test_validation(self):
        with pytest.raises(GradingError):
            DegreeVector(())
        with pytest.raises(GradingError):
            DegreeVector((0, 2))
        with pytest.raises(GradingError):
            DegreeVector((-1,))

    def test_add_is_xor(self):
        assert degree_add(degree(1, 0), degree(0, 1)) == degree(1, 1)
        assert degree_add(degree(1, 1), degree(1, 1)) == degree(0, 0)

    def test_sign_is_minus_one_to_the_dot_product(self):
        for length in (1, 2, 3):
            degrees = [DegreeVector(bits) for bits in product((0, 1), repeat=length)]
            for a, b in product(degrees, repeat=2):
                dot = sum(x * y for x, y in zip(a, b))
                assert graded_sign(a, b) == (-1) ** dot, (a, b)

    def test_sign_examples(self):
        # Mixed charges commute; each charge with itself anticommutes; the
        # central element anticommutes with both charges.
        assert graded_sign(degree(1, 0), degree(0, 1)) == 1
        assert graded_sign(degree(1, 0), degree(1, 0)) == -1
        assert graded_sign(degree(1, 1), degree(1, 0)) == -1
        assert graded_sign(degree(1, 1), degree(1, 1)) == 1

    def test_length_mismatch(self):
        with pytest.raises(GradingError, match="lengths differ"):
            degree_add(degree(1), degree(1, 0))
        with pytest.raises(GradingError, match="lengths differ"):
            graded_sign(degree(1), degree(1, 0))
        with pytest.raises(GradingError, match="lengths differ"):
            graded_sign(degree(1, 0, 1), degree(1, 0))

    def test_iteration(self):
        assert tuple(degree(1, 0)) == (1, 0)
        assert len(degree(1, 0, 1)) == 3


def _random_matrix(dim, rng):
    entries = {}
    for row in range(dim):
        for col in range(dim):
            if rng.random() < 0.6:
                entries[(row, col)] = complex(
                    rng.uniform(-2, 2), rng.uniform(-2, 2)
                )
    return BandMatrix.from_entries(dim, entries, Backend.FLOAT)


class TestGradedBracket:
    def test_self_bracket_of_odd_operator_is_twice_square(self):
        rng = random.Random(7)
        m = _random_matrix(5, rng)
        x = GradedOperator(m, degree(1, 0), "X")
        result = graded_bracket(x, x)
        assert result.degree == degree(0, 0)
        expected = (m @ m).scaled(complex(2.0))
        assert (result.matrix - expected).max_abs() == 0.0

    def test_even_even_is_commutator(self):
        rng = random.Random(8)
        m1, m2 = _random_matrix(4, rng), _random_matrix(4, rng)
        x = GradedOperator(m1, degree(0, 0), "X")
        y = GradedOperator(m2, degree(0, 0), "Y")
        bracket = graded_bracket(x, y).matrix
        assert (bracket - commutator(m1, m2)).max_abs() == 0.0

    def test_label_composition(self):
        rng = random.Random(9)
        x = GradedOperator(_random_matrix(3, rng), degree(1, 0), "A")
        y = GradedOperator(_random_matrix(3, rng), degree(0, 1), "B")
        assert graded_bracket(x, y).label == "[[A,B]]"

    def test_ungraded_operand_rejected(self):
        rng = random.Random(10)
        x = GradedOperator(_random_matrix(3, rng), None, "X")
        y = GradedOperator(_random_matrix(3, rng), degree(0, 0), "Y")
        with pytest.raises(GradingError, match="'X' has no degree"):
            graded_bracket(x, y)

    def test_charge_bracket_closes_on_central_element(self):
        # For the undeformed case the two hermitian charges close on twice
        # the central element (times the imaginary unit), within tolerance.
        r = cv_realization(0, 0, 8)
        from gdoa_susy.realizations import hermitian_charges

        h = hermitian_charges(r)
        bracket = graded_bracket(h.Q10, h.Q01).matrix
        expected = r.Z.matrix.scaled(complex(0.0, 2.0))
        cols = range(8 - 2)
        diff = bracket - expected
        assert diff.max_abs(cols) <= 1e-10 * max(1.0, expected.max_abs(cols))


class TestAntisymmetry:
    def test_random_matrices_all_degree_pairs(self):
        rng = random.Random(11)
        for da, db in product(ALL_DEGREES, repeat=2):
            x = GradedOperator(_random_matrix(6, rng), da, "X")
            y = GradedOperator(_random_matrix(6, rng), db, "Y")
            assert check_antisymmetry(x, y) == 0.0

    def test_realization_generators(self):
        r = cv_realization(Fraction(1, 2), 1, 12)
        from gdoa_susy.realizations import hermitian_charges

        h = hermitian_charges(r)
        generators = [h.H, h.Q10, h.Q01, h.Z]
        for x, y in product(generators, repeat=2):
            assert check_antisymmetry(x, y) == 0.0


class TestJacobiDefect:
    def test_identity_triple_is_zero(self):
        ident = BandMatrix.diagonal([1] * 6, Backend.FLOAT)
        ops = [GradedOperator(ident, d, f"I{i}") for i, d in enumerate(ALL_DEGREES[:3])]
        residual, scale = jacobi_defect(*ops)
        assert residual == 0.0

    def test_diagonal_triple_is_zero(self):
        diag = [complex(float(k + 1)) for k in range(6)]
        mats = [
            BandMatrix.diagonal(diag, Backend.FLOAT),
            BandMatrix.diagonal(list(reversed(diag)), Backend.FLOAT),
            BandMatrix.diagonal([1] * 6, Backend.FLOAT).scaled(complex(3.0)),
        ]
        ops = [
            GradedOperator(m, d, f"D{i}")
            for i, (m, d) in enumerate(zip(mats, ALL_DEGREES[1:]))
        ]
        residual, _ = jacobi_defect(*ops)
        assert residual == 0.0

    def test_charge_triple_small_defect(self):
        r = cv_realization(Fraction(1, 2), 0, 16)
        from gdoa_susy.realizations import hermitian_charges

        h = hermitian_charges(r)
        residual, scale = jacobi_defect(h.Q10, h.Q01, h.Z)
        assert residual <= 1e-9 * max(1.0, scale)

    def test_guard_band_bounds(self):
        ident = BandMatrix.diagonal([1] * 4, Backend.FLOAT)
        ops = [GradedOperator(ident, d, "I") for d in ALL_DEGREES[:3]]
        with pytest.raises(GradingError):
            jacobi_defect(*ops, guard_band=4)
        with pytest.raises(GradingError):
            jacobi_defect(*ops, guard_band=-1)

    def test_defect_vanishes_even_for_wrong_degrees(self):
        # The sign-weighted cyclic sum is an identity of associative matrix
        # algebra for ANY degree assignment, so a tiny defect does not certify
        # the degrees; closure against the structure constants does that.
        rng = random.Random(12)
        mats = [_random_matrix(6, rng) for _ in range(3)]
        residuals = []
        for degs in product(ALL_DEGREES, repeat=3):
            ops = [
                GradedOperator(m, d, f"M{i}")
                for i, (m, d) in enumerate(zip(mats, degs))
            ]
            residual, scale = jacobi_defect(*ops, guard_band=0)
            residuals.append(residual <= 1e-12 * max(1.0, scale))
        assert len(residuals) == 64 and all(residuals)

    def test_scale_is_nan_whatever_the_term_order(self):
        # builtin max skips a NaN that is not its first argument, so the scale
        # read 0.0 while a term was NaN.  With X = diag(nan, 1, 1, 1), Y the
        # shift and Z the identity, all of degree (0,0), [[X,[[Y,Z]]]] is 0
        # and the other two cyclic terms hold a NaN at column 1; each cyclic
        # order puts the zero term in another place.
        def op(values, offset=0):
            entries = {(n, n + offset): v for n, v in enumerate(values)}
            return GradedOperator(BandMatrix.from_entries(4, entries, Backend.FLOAT),
                                  degree(0, 0), "M")

        x, y, z = op([complex("nan"), 1, 1, 1]), op([1, 1, 1], 1), op([1] * 4)
        for triple in ((x, y, z), (y, z, x), (z, x, y)):
            residual, scale = jacobi_defect(*triple, guard_band=0)
            assert math.isnan(residual) and math.isnan(scale)
        # a NaN on the top column only is outside guard band 1
        top = op([1, 1, 1, complex("nan")])
        assert jacobi_defect(top, y, z, guard_band=1) == (0.0, 0.0)
        assert math.isnan(jacobi_defect(top, y, z, guard_band=0)[1])

    def test_mismatched_terms_raise_typed_errors(self):
        # the one-pass kernel reads the terms' diagonals directly; it must
        # still refuse terms of another dim or backend
        ident = BandMatrix.diagonal([1] * 4, Backend.FLOAT)
        smaller = BandMatrix.diagonal([1] * 3, Backend.FLOAT)
        exact = BandMatrix.diagonal([1] * 4, Backend.EXACT)
        for position in range(3):
            for other, error in ((smaller, DimensionMismatchError), (exact, BackendMismatchError)):
                ops = [GradedOperator(ident, degree(1, 0), "I")] * 3
                ops[position] = GradedOperator(other, degree(1, 0), "M")
                with pytest.raises(error):
                    jacobi_defect(*ops, guard_band=0)
        for sign in (1, -1):
            with pytest.raises(DimensionMismatchError):
                _signed_max_abs([(1, ident), (sign, smaller)])
            with pytest.raises(BackendMismatchError):
                _signed_max_abs([(1, exact), (sign, ident)])

    def test_sweep_realization_triples(self):
        r = cv_realization(0, 1, 8)
        from gdoa_susy.realizations import hermitian_charges

        h = hermitian_charges(r)
        generators = [h.H, h.Q10, h.Q01, h.Z]
        for x, y, z in product(generators, repeat=3):
            residual, scale = jacobi_defect(x, y, z)
            assert residual <= 1e-10 * max(1.0, scale)
