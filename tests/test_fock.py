"""Tests for the truncated Fock-space representation builder."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdoa_susy import exprlang, fock
from gdoa_susy.exprlang import ExprError, parse_expr
from gdoa_susy.fock import (
    OscillatorSpec,
    ValidationError,
    build_fock_rep,
    structure_values,
)
from gdoa_susy.grading import guard_columns
from gdoa_susy.numerics import (
    BandMatrix,
    Backend,
    DEFAULT_POLICY,
    EXACT_POLICY,
    ExactScalar,
    _rooted,
    approx_equal_matrix,
)
from gdoa_susy.realizations import spectrum_H
from oracles import anticommutator, commutator

EXACT = Backend.EXACT
FLOAT = Backend.FLOAT


def entry(m, row, col):
    """Entry (row, col) of m, read through ``entries()``; 0 where m has none."""
    return {(r, c): v for r, c, v in m.entries()}.get((row, col), 0)


def number_operator(dim, backend):
    """N = diag(0, ..., dim-1)."""
    return BandMatrix.diagonal([Fraction(n) for n in range(dim)], backend)


def parity_operator(rep):
    """T = (-1)^N = P0 - P1."""
    return rep.even_projector - rep.odd_projector


def kappa_oracle(n, kappa):
    """Even levels count themselves; odd levels add the deformation."""
    return Fraction(n) if n % 2 == 0 else Fraction(n) + Fraction(kappa)


class TestSpecs:
    def test_cv_describe(self):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))
        assert spec.describe() == "calogero_vasiliev(kappa=1/2)"
        assert spec.is_calogero_vasiliev
        assert spec.weight_is_exact

    def test_gdoa_describe(self):
        spec = OscillatorSpec.gdoa("n^2", weight="1")
        assert spec.describe() == "gdoa(F=n^2, f=1)"
        assert not spec.is_calogero_vasiliev

    def test_cv_accepts_string_kappa(self):
        spec = OscillatorSpec.calogero_vasiliev("5/2")
        assert spec.kappa == Fraction(5, 2)

    def test_gdoa_missing_param(self):
        spec = OscillatorSpec.gdoa("kappa*n", params={})
        with pytest.raises(Exception, match="kappa"):
            structure_values(spec, 4)

    def test_sqrt_weight_flagged_inexact(self):
        spec = OscillatorSpec.gdoa("n", weight="sqrt(n)")
        assert not spec.weight_is_exact

    def test_params_are_read_only(self):
        params = {"c": Fraction(3, 2), "kappa": Fraction(1, 2)}
        spec = OscillatorSpec.gdoa("n*(n+c)", params, "n")
        params["c"] = Fraction(7)  # the spec holds its own copy
        assert spec.params["c"] == Fraction(3, 2)
        with pytest.raises(TypeError):
            spec.params["c"] = Fraction(5)
        with pytest.raises(TypeError):
            del spec.params["kappa"]
        with pytest.raises(TypeError):
            OscillatorSpec.calogero_vasiliev(1).params["kappa"] = Fraction(2)
        assert spec.describe() == "gdoa(F=n*(n+c), f=n, c=3/2, kappa=1/2)"

    def test_equality_ignores_the_level_record(self):
        params = {"c": Fraction(3, 2)}
        spec, twin = (OscillatorSpec.gdoa("n*(n+c)", params) for _ in range(2))
        structure_values(spec, 8)
        assert spec == twin
        assert spec != OscillatorSpec.gdoa("n*(n+c)", {"c": Fraction(5, 2)})
        assert OscillatorSpec.calogero_vasiliev("1/2") == OscillatorSpec.calogero_vasiliev(
            Fraction(1, 2)
        )


class TestStructureValues:
    def test_cv_values_kappa_half(self):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))
        values = structure_values(spec, 4)
        assert values == (0, Fraction(3, 2), 2, Fraction(7, 2), 4)

    def test_cv_values_match_bracket(self):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(5, 2))
        values = structure_values(spec, 12)
        assert values == tuple(kappa_oracle(n, Fraction(5, 2)) for n in range(13))
        # the spec's F is the bracket sugar, written out
        assert spec.structure == parse_expr("n + (kappa/2)*(1 - parity(n))")

    def test_gdoa_square(self):
        spec = OscillatorSpec.gdoa("n^2")
        assert structure_values(spec, 4) == (0, 1, 4, 9, 16)

    def test_invalid_structure_message(self):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(-2))
        with pytest.raises(ValidationError, match=r"F\(1\) = -1 violates F\(n\) > 0"):
            structure_values(spec, 4)

    def test_nonzero_origin_rejected(self):
        spec = OscillatorSpec.gdoa("n + 1")
        with pytest.raises(ValidationError, match=r"F\(0\)"):
            structure_values(spec, 4)

    def test_level_record_evaluates_once_per_spec(self, monkeypatch):
        calls = []
        original = fock._level_parts

        def counting(expr, start, stop, env, backend=Backend.EXACT):
            if start == 0:  # F is evaluated from level 0, f from level 1
                calls.append(stop - 1)
            return original(expr, start, stop, env, backend)

        monkeypatch.setattr(fock, "_level_parts", counting)
        spec = OscillatorSpec.gdoa("n^3 + 2*n")
        values = structure_values(spec, 16)
        assert structure_values(spec, 5) == values[:6]
        assert structure_values(spec, 16) == values
        assert calls == [16]
        assert structure_values(spec, 20)[:17] == values
        assert calls == [16, 20]
        # a copy is a new spec: it evaluates its own F
        changed = replace(spec, params={"c": Fraction(1)})
        assert structure_values(changed, 4) == values[:5]
        assert calls == [16, 20, 4]

    def test_invalid_spec_fails_on_every_call(self):
        spec = OscillatorSpec.gdoa("n - 3")
        for dim in (4, 2):
            with pytest.raises(ValidationError, match=r"F\(0\) = -3 violates F\(0\) = 0"):
                structure_values(spec, dim)
        linear = OscillatorSpec.gdoa("n")
        structure_values(linear, 4)
        with pytest.raises(ExprError, match="dim must be >= 1"):
            structure_values(linear, 0)

    def test_violations_are_named_from_the_one_walk(self, monkeypatch):
        # the levels that break F(n) > 0 are named from the int parts of the
        # record's own walk of F: F is walked once, not again to name them
        spec = OscillatorSpec.gdoa("n*(n-3)")
        walks = []
        walk = exprlang._walk

        def counting(expr, start, stop, *args):
            if expr is spec.structure:
                walks.append((start, stop))
            return walk(expr, start, stop, *args)

        monkeypatch.setattr(exprlang, "_walk", counting)
        with pytest.raises(ValidationError) as error:
            structure_values(spec, 1024)
        assert str(error.value) == (
            "invalid structure function: F(1) = -2 violates F(n) > 0; "
            "F(2) = -2 violates F(n) > 0; F(3) = 0 violates F(n) > 0"
        )
        assert walks == [(0, 1025)]

    def test_weight_is_never_read_at_the_origin(self):
        # f = 1/n is undefined at 0, where it would only multiply F(0) = 0:
        # E_m = f(m)^2 F(m) = 1/m on levels m = 1..4, and E_0 = 0
        spec = OscillatorSpec.gdoa("n", weight="1/n")
        energies = [[row.energy for row in spectrum_H(spec, mu, 3).rows] for mu in (0, 1)]
        assert energies == [[0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)],
                            [1, 1, Fraction(1, 3), Fraction(1, 3)]]


class TestRepresentation:
    def test_dim_too_small(self):
        spec = OscillatorSpec.calogero_vasiliev(0)
        with pytest.raises(ValidationError, match="dim"):
            build_fock_rep(spec, 1, FLOAT)

    def test_annihilator_entries(self):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))
        rep = build_fock_rep(spec, 4, FLOAT)
        assert entry(rep.a, 0, 1) == complex(math.sqrt(1.5))
        assert entry(rep.a, 2, 3) == complex(math.sqrt(3.5))
        assert entry(rep.a, 1, 0) == 0
        assert entry(rep.a_dag, 1, 0) == complex(math.sqrt(1.5))

    def test_exact_entries(self):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))
        rep = build_fock_rep(spec, 4, EXACT)
        assert entry(rep.a, 0, 1) == ExactScalar(1, 0, Fraction(3, 2))
        assert entry(rep.a_dag, 3, 2) == ExactScalar(1, 0, Fraction(7, 2))

    def test_diagonals(self):
        spec = OscillatorSpec.calogero_vasiliev(0)
        rep = build_fock_rep(spec, 6, FLOAT)
        assert parity_operator(rep) == BandMatrix.diagonal([(-1) ** n for n in range(6)], FLOAT)
        assert rep.even_projector == BandMatrix.diagonal([1, 0, 1, 0, 1, 0], FLOAT)
        assert rep.odd_projector == BandMatrix.diagonal([0, 1, 0, 1, 0, 1], FLOAT)

    def test_projector_algebra_exact(self):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))
        rep = build_fock_rep(spec, 8, EXACT)
        identity = BandMatrix.diagonal([1] * 8, EXACT)
        parity = parity_operator(rep)
        assert parity @ parity == identity
        assert rep.even_projector + rep.odd_projector == identity
        assert list((rep.even_projector @ rep.odd_projector).entries()) == []

    def test_parity_conjugates_ladder(self):
        # T a T = -a holds structurally: compare entries, no guard band needed.
        spec = OscillatorSpec.calogero_vasiliev(Fraction(5, 2))
        rep = build_fock_rep(spec, 8, EXACT)
        parity = parity_operator(rep)
        lhs = parity @ rep.a @ parity
        assert lhs == rep.a.scaled(-1)

    def test_projector_shifts_through_ladder(self):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))
        rep = build_fock_rep(spec, 8, EXACT)
        assert rep.even_projector @ rep.a == rep.a @ rep.odd_projector


class TestOneRootList:
    # build_fock_rep writes a and a+ as one list of sqrt(F(n)), n = 1..dim-1,
    # on the diagonals +1 and -1.  The reference writes the same (row, col)
    # edges one at a time through BandMatrix.from_entries, from the same level
    # record, with the same scalar arithmetic.
    @pytest.mark.parametrize("dim", [2, 3, 8, 9, 64])
    @pytest.mark.parametrize("backend", [FLOAT, EXACT])
    @pytest.mark.parametrize("spec", [
        OscillatorSpec.calogero_vasiliev(Fraction(1, 2)),
        OscillatorSpec.calogero_vasiliev(Fraction(-3, 7)),
        OscillatorSpec.calogero_vasiliev(Fraction(5, 2)),
        OscillatorSpec.gdoa("12*n/7"),
    ], ids=["cv(1/2)", "cv(-3/7)", "cv(5/2)", "gdoa(12n/7)"])
    def test_equals_the_entry_by_entry_writer(self, spec, backend, dim):
        rep = build_fock_rep(spec, dim, backend)
        numerators, denominators = fock._structure_record(spec, dim)
        if backend is EXACT:
            roots = {n: _rooted(1, 0, 1, numerators[n], denominators[n]) for n in range(1, dim)}
        else:
            roots = {n: complex(math.sqrt(numerators[n] / denominators[n]))
                     for n in range(1, dim)}
        a = BandMatrix.from_entries(dim, {(n - 1, n): roots[n] for n in range(1, dim)}, backend)
        a_dag = BandMatrix.from_entries(dim, {(n, n - 1): roots[n] for n in range(1, dim)}, backend)
        for got, expected in ((rep.a, a), (rep.a_dag, a_dag)):
            assert (got.dim, got.backend) == (dim, backend)
            assert list(got.entries()) == list(expected.entries())
            assert got._masks == expected._masks
        # one list, which BandMatrix never mutates, holds the roots of both
        assert rep.a._diags[1] is rep.a_dag._diags[-1]


class TestTruncationBoundary:
    def setup_method(self):
        self.spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))

    def test_number_product_exact_all_columns(self):
        # a_dag a = diag(F(0..D-1)) holds on every column, even the last.
        rep = build_fock_rep(self.spec, 8, EXACT)
        values = structure_values(self.spec, 8)
        expected = BandMatrix.diagonal([ExactScalar(v) for v in values[:8]], EXACT)
        report = approx_equal_matrix(
            rep.a_dag @ rep.a, expected, EXACT_POLICY, guard_columns(8, 0)
        )
        assert report.passed and report.residual == 0.0

    def test_reversed_product_fails_at_edge(self):
        # a a_dag misses F(D) in its last column: the un-banded check must fail
        # with residual exactly F(D), and a one-column guard band must fix it.
        dim = 8
        rep = build_fock_rep(self.spec, dim, FLOAT)
        values = structure_values(self.spec, dim)
        expected = BandMatrix.diagonal(
            [complex(float(values[n + 1])) for n in range(dim)], FLOAT
        )
        product = rep.a @ rep.a_dag
        bare = approx_equal_matrix(product, expected, DEFAULT_POLICY, guard_columns(dim, 0))
        assert not bare.passed
        assert bare.residual == float(values[dim])
        assert bare.worst == (dim - 1, dim - 1)
        banded = approx_equal_matrix(product, expected, DEFAULT_POLICY, guard_columns(dim, 1))
        assert banded.passed

    def test_guard_band_bounds(self):
        rep = build_fock_rep(self.spec, 4, FLOAT)
        with pytest.raises(ValueError, match=r"^guard band 4 needs dim >= 5, got 4$"):
            approx_equal_matrix(rep.a, rep.a, DEFAULT_POLICY, guard_columns(4, 4))
        with pytest.raises(ValueError, match=r"^guard band -1 is negative$"):
            approx_equal_matrix(rep.a, rep.a, DEFAULT_POLICY, guard_columns(4, -1))

    def test_number_commutator_exact_backend(self):
        # [N, a_dag] = a_dag on all columns in exact arithmetic. (In floats the
        # two sides round (n+1)*s and n*s independently, so exactness would be
        # a coincidence; the float check uses the default tolerance instead.)
        rep = build_fock_rep(self.spec, 8, EXACT)
        report = approx_equal_matrix(
            commutator(number_operator(8, EXACT), rep.a_dag), rep.a_dag, EXACT_POLICY,
            guard_columns(8, 0),
        )
        assert report.passed and report.residual == 0.0

    def test_number_commutator_float_tolerance(self):
        rep = build_fock_rep(self.spec, 8, FLOAT)
        report = approx_equal_matrix(
            commutator(number_operator(8, FLOAT), rep.a_dag), rep.a_dag, DEFAULT_POLICY,
            guard_columns(8, 0),
        )
        assert report.passed

    def test_ladder_commutator_diagonal(self):
        # [a, a_dag] = diag(F(n+1) - F(n)) away from the truncation column.
        dim = 8
        rep = build_fock_rep(self.spec, dim, EXACT)
        values = structure_values(self.spec, dim)
        expected = BandMatrix.diagonal(
            [ExactScalar(values[n + 1] - values[n]) for n in range(dim)], EXACT
        )
        report = approx_equal_matrix(
            commutator(rep.a, rep.a_dag), expected, EXACT_POLICY, guard_columns(dim, 1)
        )
        assert report.passed and report.residual == 0.0


class TestCalogeroVasilievIdentities:
    def test_number_product_is_n_plus_kappa_odd(self):
        # For the deformed oscillator, a_dag a = N + kappa * P_odd exactly.
        kappa = Fraction(5, 2)
        spec = OscillatorSpec.calogero_vasiliev(kappa)
        rep = build_fock_rep(spec, 10, EXACT)
        expected = number_operator(10, EXACT) + rep.odd_projector.scaled(ExactScalar(kappa))
        assert rep.a_dag @ rep.a == expected

    def test_reversed_product_is_n_plus_one_plus_kappa_even(self):
        kappa = Fraction(1, 2)
        spec = OscillatorSpec.calogero_vasiliev(kappa)
        dim = 10
        rep = build_fock_rep(spec, dim, EXACT)
        identity = BandMatrix.diagonal([1] * dim, EXACT)
        expected = (
            number_operator(dim, EXACT)
            + identity
            + rep.even_projector.scaled(ExactScalar(kappa))
        )
        report = approx_equal_matrix(rep.a @ rep.a_dag, expected, EXACT_POLICY, guard_columns(dim, 1))
        assert report.passed and report.residual == 0.0

    def test_number_recovered_from_anticommutator(self):
        # N = (1/2){a_dag, a} - (kappa + 1)/2 away from the edge.
        kappa = Fraction(1, 2)
        spec = OscillatorSpec.calogero_vasiliev(kappa)
        dim = 10
        rep = build_fock_rep(spec, dim, EXACT)
        half = ExactScalar(Fraction(1, 2))
        shift = ExactScalar(Fraction(kappa + 1, 2))
        candidate = anticommutator(rep.a_dag, rep.a).scaled(half) - (
            BandMatrix.diagonal([1] * dim, EXACT).scaled(shift)
        )
        report = approx_equal_matrix(
            candidate, number_operator(dim, EXACT), EXACT_POLICY, guard_columns(dim, 1)
        )
        assert report.passed and report.residual == 0.0


class TestWeightedSpecs:
    def test_inverse_weight_never_hits_origin(self):
        # f = 1/n is legal: the weight is only ever evaluated at n >= 1.
        spec = OscillatorSpec.gdoa("n", weight="1/n")
        rep = build_fock_rep(spec, 6, FLOAT)
        assert entry(rep.a, 0, 1) == complex(1.0)

    def test_gram_identity(self):
        spec = OscillatorSpec.gdoa("n^2")
        rep = build_fock_rep(spec, 6, FLOAT)
        gram = rep.a_dag.adjoint() @ rep.a_dag
        expected = BandMatrix.diagonal(
            [complex(float(n * n)) for n in range(1, 7)], FLOAT
        )
        report = approx_equal_matrix(gram, expected, DEFAULT_POLICY, guard_columns(6, 1))
        assert report.passed


@settings(max_examples=60, deadline=None)
@given(
    kappa=st.fractions(min_value=Fraction(-3, 4), max_value=4, max_denominator=8),
    dim=st.integers(min_value=2, max_value=24),
)
def test_band_structure_properties(kappa, dim):
    spec = OscillatorSpec.calogero_vasiliev(kappa)
    rep = build_fock_rep(spec, dim, EXACT)
    assert {c - r for r, c, _ in rep.a.entries()} == {1}
    assert {c - r for r, c, _ in rep.a_dag.entries()} == {-1}
    assert rep.a.adjoint() == rep.a_dag
    product = rep.a_dag @ rep.a
    values = structure_values(spec, dim)
    assert product == BandMatrix.diagonal(values[:dim], EXACT)
