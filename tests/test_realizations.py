"""Tests for charge realizations, spectra, degeneracy pairing, and reduction."""

from dataclasses import replace
import math
from fractions import Fraction

import pytest

from gdoa_susy import exprlang, fock, realizations
from gdoa_susy.exprlang import eval_expr
from gdoa_susy.fock import OscillatorSpec, ValidationError
from gdoa_susy.numerics import (
    Backend,
    BandMatrix,
    DEFAULT_POLICY,
    ExactScalar,
    approx_equal_matrix,
)
from gdoa_susy.realizations import (
    SpectrumRow,
    cv_realization,
    degeneracy_pairs,
    exact_variant,
    gdoa_realization,
    hermitian_charges,
    reduction_check,
    spectrum_H,
)
from oracles import anticommutator

EXACT = Backend.EXACT
FLOAT = Backend.FLOAT


def entry(m, row, col):
    """Entry (row, col) of m, read through ``entries()``; 0 where m has none."""
    return {(r, c): v for r, c, v in m.entries()}.get((row, col), 0)


def cv_energy_oracle(n, kappa, mu):
    """Half-integer closed form, written differently from the library's."""
    half = Fraction(1, 2)
    sign = Fraction((-1) ** n)
    if mu == 0:
        return Fraction(n) + half - sign * half
    return Fraction(n) + Fraction(kappa) + half + sign * half


class TestDeformedRealizations:
    def test_energy_oracle_sweep(self):
        for kappa in (Fraction(0), Fraction(1, 2), Fraction(5, 2)):
            for mu in (0, 1):
                r = cv_realization(kappa, mu, 12)
                oracle = [cv_energy_oracle(n, kappa, mu) for n in range(12)]
                assert exact_variant(r).H.matrix == BandMatrix.diagonal(oracle, EXACT)

    def test_central_charge_alternates(self):
        r0 = cv_realization(Fraction(1, 2), 0, 8)
        assert exact_variant(r0).Z.matrix == BandMatrix.diagonal([0, 2, -2, 4, -4, 6, -6, 8],
                                                                 EXACT)
        r1 = cv_realization(Fraction(1, 2), 1, 6)
        three_halves = Fraction(3, 2)
        assert exact_variant(r1).Z.matrix == BandMatrix.diagonal([
            three_halves,
            -three_halves,
            three_halves + 2,
            -(three_halves + 2),
            three_halves + 4,
            -(three_halves + 4),
        ], EXACT)

    def test_central_is_signed_parity_weighted_energy(self):
        # Z = (-1)^(mu+1) T H as an exact matrix identity.
        for mu, sign in ((0, -1), (1, 1)):
            r = cv_realization(Fraction(5, 2), mu, 10, EXACT)
            parity = BandMatrix.diagonal([(-1) ** n for n in range(10)], EXACT)
            expected = (parity @ r.H.matrix).scaled(sign)
            assert r.Z.matrix == expected

    def test_invalid_kappa(self):
        with pytest.raises(ValidationError, match=r"F\(n\) > 0"):
            cv_realization(Fraction(-2), 0, 8)

    def test_invalid_mu(self):
        with pytest.raises(ValidationError, match="mu"):
            cv_realization(0, 2, 8)

    def test_charge_anticommutator_gives_energy(self):
        r = cv_realization(Fraction(1, 2), 0, 16)
        product = anticommutator(r.Qdag.matrix, r.Q.matrix)
        cmp = approx_equal_matrix(product, r.H.matrix, DEFAULT_POLICY, range(15))
        assert cmp.passed

    def test_charge_supports(self):
        # mu = 0: Q raises odd levels into even ones, Q+ lowers even into odd.
        r = cv_realization(0, 0, 6)
        q_support = {(row, col) for row, col, _ in r.Q.matrix.entries()}
        qdag_support = {(row, col) for row, col, _ in r.Qdag.matrix.entries()}
        assert q_support == {(2, 1), (4, 3)}
        assert qdag_support == {(1, 2), (3, 4)}

    @pytest.mark.parametrize("kappa", [0, Fraction(1, 2), Fraction(5, 2), Fraction(-3, 7)])
    @pytest.mark.parametrize("dim, backend", [(8, FLOAT), (24, FLOAT), (64, FLOAT),
                                              (8, EXACT), (24, EXACT)])
    def test_charges_equal_the_ladder_presentation(self, kappa, dim, backend):
        # the written entries are the CV presentation Q+ = a P_mu, Q = a+ P_(1-mu)
        rep = fock.build_fock_rep(OscillatorSpec.calogero_vasiliev(kappa), dim, backend)
        projectors = (rep.even_projector, rep.odd_projector)
        for mu in (0, 1):
            r = cv_realization(kappa, mu, dim, backend)
            assert r.Qdag.matrix == rep.a @ projectors[mu]
            assert r.Q.matrix == rep.a_dag @ projectors[1 - mu]

    def test_takes_only_a_calogero_vasiliev_spec(self):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))
        r = cv_realization(spec, 1, 8)
        assert r.spec is spec and r == cv_realization(Fraction(1, 2), 1, 8)
        gdoa_spec = OscillatorSpec.gdoa("bracket(n)", {"kappa": Fraction(1, 2)})
        with pytest.raises(ValidationError, match="needs a calogero_vasiliev spec"):
            cv_realization(gdoa_spec, 1, 8)


class TestWeightedRealizations:
    def test_linear_structure(self):
        spec = OscillatorSpec.gdoa("n")
        r = gdoa_realization(spec, 0, 4)
        assert exact_variant(r).H.matrix == BandMatrix.diagonal([0, 2, 2, 4], EXACT)
        assert exact_variant(r).Z.matrix == BandMatrix.diagonal([0, -2, 2, -4], EXACT)

    def test_square_structure(self):
        spec = OscillatorSpec.gdoa("n^2")
        r = gdoa_realization(spec, 1, 4)
        assert exact_variant(r).H.matrix == BandMatrix.diagonal([1, 1, 9, 9], EXACT)
        assert exact_variant(r).Z.matrix == BandMatrix.diagonal([-1, 1, -9, 9], EXACT)

    def test_weighted_charge_entries(self):
        spec = OscillatorSpec.gdoa("n", weight="n")
        r = gdoa_realization(spec, 1, 4, EXACT)
        # Raising targets odd levels: edge amplitudes f(m) sqrt(F(m)).
        assert entry(r.Qdag.matrix, 1, 0) == ExactScalar(1, 0, 1)
        assert entry(r.Qdag.matrix, 3, 2) == ExactScalar(3, 0, 3)
        assert entry(r.Q.matrix, 0, 1) == ExactScalar(1, 0, 1)

    def test_float_anticommutator(self):
        spec = OscillatorSpec.gdoa("n^2", weight="1/n")
        r = gdoa_realization(spec, 0, 12)
        product = anticommutator(r.Qdag.matrix, r.Q.matrix)
        cmp = approx_equal_matrix(product, r.H.matrix, DEFAULT_POLICY, range(11))
        assert cmp.passed

    def test_sqrt_weight_blocks_exact_backend(self):
        spec = OscillatorSpec.gdoa("n", weight="sqrt(n)")
        with pytest.raises(ValidationError, match="float backend"):
            gdoa_realization(spec, 0, 8, EXACT)
        r = gdoa_realization(spec, 0, 8, FLOAT)
        assert exact_variant(r) is None and r.energies[1] is None

    def test_weight_zero_levels_recorded(self):
        # f(1) = 0 leaves the mu = 1 doublet (0, 1) at zero energy.
        spec = OscillatorSpec.gdoa("n", weight="n - 1")
        r = gdoa_realization(spec, 1, 6)
        assert exact_variant(r).H.matrix == BandMatrix.diagonal([0, 0, 12, 12, 80, 80], EXACT)

    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_builds_no_ladder(self, family, monkeypatch):
        def forbidden(*args):
            raise AssertionError(f"a {family} build built a FockRep")

        monkeypatch.setattr(realizations, "build_fock_rep", forbidden)
        if family == "cv":
            r = cv_realization(Fraction(1, 2), 1, 8)
        else:
            r = gdoa_realization(OscillatorSpec.gdoa("n^2", weight="n"), 1, 8)
        exact = exact_variant(r)
        assert exact is not None and exact.energies is r.energies

    def test_exact_weights_evaluated_once_per_spec(self, monkeypatch):
        calls = []
        original = fock._level_parts

        def counting(expr, start, stop, env, backend=EXACT):
            if start == 1:  # f is evaluated from level 1, F from level 0
                calls.append((stop - 1, backend))
            return original(expr, start, stop, env, backend)

        monkeypatch.setattr(fock, "_level_parts", counting)
        spec = OscillatorSpec.gdoa("n^2", weight="n")
        r = gdoa_realization(spec, 0, 8)
        exact = exact_variant(r)
        assert exact is not None and exact.energies is r.energies
        gdoa_realization(spec, 1, 6)
        assert calls == [(8, EXACT)]
        # a sqrt weight is kept as floats, evaluated once per spec too: the
        # charges and energies of both builds read one evaluation
        sqrt_spec = OscillatorSpec.gdoa("n", weight="sqrt(n)")
        gdoa_realization(sqrt_spec, 0, 8)
        gdoa_realization(sqrt_spec, 1, 8)
        assert calls[1:] == [(8, FLOAT)]

    @pytest.mark.parametrize("mu, level", [(0, 6), (1, 7)])
    def test_overflow_message_reads_the_record(self, mu, level, monkeypatch):
        # f(m)^2 F(m) = m^402 leaves the double range at m = 6; the message
        # names the first level m = mu (mod 2) past it from the level record
        # the failed build filled, so f is walked once
        spec = OscillatorSpec.gdoa("n^2", weight="n^200")
        walks = []
        walk = exprlang._walk

        def counting(expr, start, stop, *args):
            if expr is spec.weight:
                walks.append((start, stop))
            return walk(expr, start, stop, *args)

        monkeypatch.setattr(exprlang, "_walk", counting)
        message = rf"^f\({level}\) or f\({level}\)\^2 F\({level}\) is beyond the double range"
        with pytest.raises(ValidationError, match=message):
            gdoa_realization(spec, mu, 16)
        assert walks == [(1, 17)]

    def test_float_levels_beyond_the_double_range(self):
        # F(4) = 2^1200 is past the largest double; the exact backend holds it
        spec = OscillatorSpec.gdoa("n^600")
        with pytest.raises(ValidationError, match=r"F\(4\) is beyond the double range"):
            gdoa_realization(spec, 0, 8)
        assert entry(gdoa_realization(spec, 0, 8, EXACT).H.matrix, 3, 3) == ExactScalar(4**600)

    @pytest.mark.parametrize("family", ["cv", "gdoa"])
    def test_exact_variant_shares_the_spec(self, family):
        if family == "cv":
            r = cv_realization(Fraction(1, 2), 1, 6)
        else:
            r = gdoa_realization(OscillatorSpec.gdoa("n^2", weight="n"), 1, 6)
        assert exact_variant(r).spec is r.spec

    def test_exact_variant(self):
        r = gdoa_realization(OscillatorSpec.gdoa("n^2"), 0, 6)
        exact = exact_variant(r)
        assert exact is not None and exact.backend is EXACT
        assert exact_variant(exact) is exact
        sqrt_spec = OscillatorSpec.gdoa("n", weight="sqrt(n)")
        assert exact_variant(gdoa_realization(sqrt_spec, 0, 6)) is None


def _gdoa(structure, weight="1"):
    return OscillatorSpec.gdoa(structure, weight=weight)


# Which error a build raises first, and its message.  The charges are written
# before the energies, so a dim below 2 is named before F's record is read,
# and the exact backend refuses a sqrt weight before any level overflows.
_NAN_WEIGHT = "sqrt(n) + 10^200*10^200 - 10^200*10^200"
_BUILD_ERRORS = {
    "cv-dim-0": (lambda: cv_realization(Fraction(1, 2), 0, 0), "dim must be >= 2"),
    "gdoa-dim-0": (lambda: gdoa_realization(_gdoa("n^2", "n"), 0, 0), "dim must be >= 2"),
    "cv-dim-1": (lambda: cv_realization(Fraction(1, 2), 0, 1), "dim must be >= 2"),
    "gdoa-dim-1": (lambda: gdoa_realization(_gdoa("n^2", "n"), 0, 1), "dim must be >= 2"),
    "mu-2": (lambda: gdoa_realization(_gdoa("n^2", "n"), 2, 8), "mu must be 0 or 1, got 2"),
    "mu-minus-1": (lambda: cv_realization(Fraction(1, 2), -1, 8), "mu must be 0 or 1, got -1"),
    "exact-sqrt-weight": (lambda: gdoa_realization(_gdoa("n^2", "sqrt(n)"), 0, 8, EXACT),
                          "weight function contains sqrt; use the float backend"),
    "exact-large-sqrt-weight": (
        lambda: gdoa_realization(_gdoa("n^2", "sqrt(n)*10^200"), 0, 8, EXACT),
        "weight function contains sqrt; use the float backend"),
    "float-overflow-mu-0": (lambda: gdoa_realization(_gdoa("n^2", "n^200"), 0, 16),
                            "f(6) or f(6)^2 F(6) is beyond the double range of the float backend"),
    "float-overflow-sqrt-weight": (
        lambda: gdoa_realization(_gdoa("n^2", "sqrt(n)*10^200"), 0, 16),
        "f(2) or f(2)^2 F(2) is beyond the double range of the float backend"),
    # f and the charges fit a double; E_6 = 6 * 10^306 * 36 does not, and
    # its double product is inf, which the build refuses
    "float-energy-overflow-sqrt-weight": (
        lambda: gdoa_realization(_gdoa("n^2", "sqrt(n)*10^153"), 0, 8),
        "f(6) or f(6)^2 F(6) is beyond the double range of the float backend"),
    # inf - inf is NaN at every level of a sqrt weight: NaN is in no range
    "float-nan-weight-mu-0": (
        lambda: gdoa_realization(_gdoa("n^2", _NAN_WEIGHT), 0, 8),
        "f(2) is NaN on the float backend"),
    "float-nan-weight-mu-1": (
        lambda: gdoa_realization(_gdoa("n^2", _NAN_WEIGHT), 1, 8),
        "f(1) is NaN on the float backend"),
    "invalid-structure-dim-0": (lambda: gdoa_realization(_gdoa("n - 3", "n"), 0, 0),
                                "dim must be >= 2"),
    "invalid-structure-dim-8": (lambda: gdoa_realization(_gdoa("n - 3", "n"), 0, 8),
                        "invalid structure function: F(0) = -3 violates F(0) = 0; "
                        "F(1) = -2 violates F(n) > 0; F(2) = -1 violates F(n) > 0; "
                        "F(3) = 0 violates F(n) > 0"),
    "float-structure-overflow": (lambda: gdoa_realization(_gdoa("n^400"), 0, 8),
                                 "F(6) is beyond the double range of the float backend"),
}


class TestBuildErrors:
    @pytest.mark.parametrize("case", list(_BUILD_ERRORS))
    def test_first_error_and_its_message(self, case):
        build, message = _BUILD_ERRORS[case]
        with pytest.raises(ValidationError) as raised:
            build()
        assert type(raised.value) is ValidationError
        assert str(raised.value) == message


# (family, kappa or (F, f)): f = n - 3 has a zero edge at m = 3, f = 0 only
# zero edges, and F = n^600 holds F(4) = 2^1200, past the double range
_VARIANT_GRID = [("cv", kappa) for kappa in ("1/2", "0", "5/2", "-3/7")] + [
    ("gdoa", pair) for pair in
    (("n^2", "n"), ("12*n/7", "1/(n+2)"), ("n^2", "n-3"), ("n^2", "0"), ("n^600", "1"))
]


class TestExactVariantFromTheRecord:
    # exact_variant builds only the exact charges and takes H and Z from the
    # float build's exact record: it must equal a fresh exact build, on a
    # spec of its own, entry for entry.
    @staticmethod
    def _build(family, arg, mu, dim, backend):
        if family == "cv":
            return cv_realization(OscillatorSpec.calogero_vasiliev(arg), mu, dim, backend)
        return gdoa_realization(OscillatorSpec.gdoa(arg[0], weight=arg[1]), mu, dim, backend)

    @staticmethod
    def _assert_same(variant, fresh):
        assert (variant.spec, variant.mu, variant.dim, variant.backend, variant.convention) == (
            fresh.spec, fresh.mu, fresh.dim, EXACT, fresh.convention)
        for field in ("Qdag", "Q", "H", "Z"):
            got, expected = getattr(variant, field), getattr(fresh, field)
            assert (got.degree, got.label) == (expected.degree, expected.label)
            assert list(got.matrix.entries()) == list(expected.matrix.entries())
            assert all(type(v) is ExactScalar for _, _, v in got.matrix.entries())
            assert got.matrix == expected.matrix
        assert variant.energies == fresh.energies

    @pytest.mark.parametrize("dim", [8, 24, 64])
    @pytest.mark.parametrize("mu", [0, 1])
    @pytest.mark.parametrize("family, arg", _VARIANT_GRID)
    def test_equals_a_fresh_exact_build(self, family, arg, mu, dim):
        fresh = self._build(family, arg, mu, dim, EXACT)
        # both builds write their charges through one writer; its edges must
        # be f(m) sqrt(F(m)) as the public constructor writes it
        values = fock.structure_values(fresh.spec, dim)
        weight, params = fresh.spec.weight, fresh.spec.params
        edges = {(m, m - 1): ExactScalar(eval_expr(weight, m, params), 0, values[m])
                 for m in range(2 - mu, dim, 2)}
        raising = fresh.Q if family == "cv" else fresh.Qdag
        assert raising.matrix == BandMatrix(dim, EXACT, edges)
        try:
            r = self._build(family, arg, mu, dim, FLOAT)
        except ValidationError:  # F(4) = 2^1200 has no float build
            assert arg == ("n^600", "1")
        else:
            variant = exact_variant(r)
            assert variant.spec is r.spec
            self._assert_same(variant, fresh)
        # the float matrices are never read: a record without them gives the same
        bare = replace(fresh, backend=FLOAT, Qdag=None, Q=None, H=None, Z=None)
        self._assert_same(exact_variant(bare), fresh)

    def test_zero_weight_writes_the_canonical_zero(self):
        # f(3) = 0 beside F(3) = 6: the edge is the zero of coerce_scalar(0),
        # not 0 * sqrt(6); equality compares the zero kept inside the diagonal
        r = gdoa_realization(OscillatorSpec.gdoa("2*n", weight="n-3"), 1, 8)
        edges = {(m, m - 1): ExactScalar(m - 3, 0, 2 * m) for m in (1, 5, 7)}
        expected = BandMatrix.from_entries(8, {**edges, (3, 2): 0}, EXACT)
        assert exact_variant(r).Qdag.matrix == expected


class TestHermitianCharges:
    def test_explicit_small_case(self):
        import math

        r = cv_realization(0, 0, 4)
        h = hermitian_charges(r)
        s = math.sqrt(2.0)
        assert entry(r.Qdag.matrix, 1, 2) == complex(s)
        assert entry(r.Q.matrix, 2, 1) == complex(s)
        assert entry(h.Q10.matrix, 1, 2) == complex(s)
        assert entry(h.Q10.matrix, 2, 1) == complex(s)
        assert entry(h.Q01.matrix, 1, 2) == complex(0.0, -s)
        assert entry(h.Q01.matrix, 2, 1) == complex(0.0, s)

    def test_charge_recovery_bitwise(self):
        # Q+ = (Q10 + i Q01)/2 with no rounding at all.
        r = cv_realization(Fraction(1, 2), 1, 10)
        h = hermitian_charges(r)
        recovered = (h.Q10.matrix + h.Q01.matrix.scaled(1j)).scaled(0.5)
        assert recovered == r.Qdag.matrix

    def test_hermiticity_exact_residual(self):
        r = cv_realization(Fraction(5, 2), 0, 12)
        h = hermitian_charges(r)
        for op in (h.Q10, h.Q01, h.H, h.Z):
            assert (op.matrix.adjoint() - op.matrix).max_abs() == 0.0

    def test_degrees(self):
        r = cv_realization(0, 0, 4)
        h = hermitian_charges(r)
        assert tuple(h.Q10.require_degree()) == (1, 0)
        assert tuple(h.Q01.require_degree()) == (0, 1)
        assert tuple(h.H.require_degree()) == (0, 0)
        assert tuple(h.Z.require_degree()) == (1, 1)

    def test_exact_backend_combination(self):
        # For mu = 1 the first raising edge crosses level 1, whose structure
        # value carries the deformation: the amplitude is sqrt(3/2).
        r = cv_realization(Fraction(1, 2), 1, 8, EXACT)
        h = hermitian_charges(r)
        assert entry(h.Q01.matrix, 0, 1) == ExactScalar(0, -1, Fraction(3, 2))
        assert entry(h.Q01.matrix, 1, 0) == ExactScalar(0, 1, Fraction(3, 2))


class TestSpectra:
    def test_cv_mu0(self):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))
        table = spectrum_H(spec, 0, 6)
        assert [row.energy for row in table.rows] == [0, 2, 2, 4, 4, 6, 6]
        assert [row.central for row in table.rows] == [0, 2, -2, 4, -4, 6, -6]
        assert table.verdict == "unbroken"

    def test_cv_mu1_broken(self):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))
        table = spectrum_H(spec, 1, 5)
        expected = [Fraction(3, 2), Fraction(3, 2), Fraction(7, 2), Fraction(7, 2)]
        expected += [Fraction(11, 2), Fraction(11, 2)]
        assert [row.energy for row in table.rows] == expected
        assert table.verdict == "broken"

    def test_spectrum_matches_realization_diagonal(self):
        spec = OscillatorSpec.gdoa("n^2", weight="n")
        for mu in (0, 1):
            table = spectrum_H(spec, mu, 9)
            r = gdoa_realization(spec, mu, 10)
            energies, charges = ([getattr(row, column) for row in table.rows]
                                 for column in ("energy", "central"))
            assert BandMatrix.diagonal(energies, EXACT) == exact_variant(r).H.matrix
            assert BandMatrix.diagonal(charges, EXACT) == exact_variant(r).Z.matrix

    def test_cv_table_matches_realization(self):
        for kappa in (0, Fraction(5, 2)):
            spec = OscillatorSpec.calogero_vasiliev(kappa)
            for mu in (0, 1):
                table = spectrum_H(spec, mu, 11)
                r = cv_realization(kappa, mu, 12)
                energies, charges = ([getattr(row, column) for row in table.rows]
                                     for column in ("energy", "central"))
                assert BandMatrix.diagonal(energies, EXACT) == exact_variant(r).H.matrix
                assert BandMatrix.diagonal(charges, EXACT) == exact_variant(r).Z.matrix

    def test_sqrt_weight_rejected(self):
        spec = OscillatorSpec.gdoa("n", weight="sqrt(n)")
        with pytest.raises(ValidationError, match="sqrt"):
            spectrum_H(spec, 0, 5)

    def test_negative_window(self):
        spec = OscillatorSpec.calogero_vasiliev(0)
        with pytest.raises(ValidationError, match="n_max"):
            spectrum_H(spec, 0, -1)

    def test_weight_zero_makes_unbroken_spectrum(self):
        # f(1) = 0 forces a zero-energy doublet at the bottom of the mu = 1
        # ladder, so the verdict flips to unbroken.
        spec = OscillatorSpec.gdoa("n", weight="n - 1")
        table = spectrum_H(spec, 1, 5)
        assert table.rows[0].energy == 0 and table.rows[1].energy == 0
        assert table.verdict == "unbroken"


# Specs of the level-record differential test, each with its F and f level
# by level in Fraction arithmetic (f as a double for sqrt(n); f(0) only
# multiplies F(0) = 0 and is taken as 0) and the conventions it takes: a
# reflection oscillator goes through either formula, a weighted one through
# f^2 F only.  f = n - 3 has a zero weight at level 3, F = n^2/(n+1) leaves
# the column path (division by a column), and F = n^600 holds F(4) = 2^1200,
# past the double range.
_RECORD_SPECS = {
    "cv(1/2)": (lambda: OscillatorSpec.calogero_vasiliev("1/2"),
                lambda n: n + Fraction(1, 2) * (n % 2), lambda n: Fraction(1)),
    "cv(-3/7)": (lambda: OscillatorSpec.calogero_vasiliev("-3/7"),
                 lambda n: n + Fraction(-3, 7) * (n % 2), lambda n: Fraction(1)),
    "gdoa(n^2, n)": (lambda: OscillatorSpec.gdoa("n^2", weight="n"),
                     lambda n: Fraction(n**2), lambda n: Fraction(n)),
    "gdoa(n^3+2n, n+1)": (lambda: OscillatorSpec.gdoa("n^3 + 2*n", weight="n + 1"),
                          lambda n: Fraction(n**3 + 2 * n), lambda n: Fraction(n + 1)),
    "gdoa(n^2, 1/(n+1))": (lambda: OscillatorSpec.gdoa("n^2", weight="1/(n+1)"),
                           lambda n: Fraction(n**2), lambda n: Fraction(1, n + 1)),
    "gdoa(n^2, n-3)": (lambda: OscillatorSpec.gdoa("n^2", weight="n - 3"),
                       lambda n: Fraction(n**2), lambda n: Fraction(n - 3)),
    "gdoa(n^2, sqrt(n))": (lambda: OscillatorSpec.gdoa("n^2", weight="sqrt(n)"),
                           lambda n: Fraction(n**2), lambda n: math.sqrt(n)),
    "gdoa(n^2/(n+1), 1)": (lambda: OscillatorSpec.gdoa("n^2/(n+1)"),
                           lambda n: Fraction(n**2, n + 1), lambda n: Fraction(1)),
    "gdoa(n^600, 1)": (lambda: OscillatorSpec.gdoa("n^600"),
                       lambda n: Fraction(n**600), lambda n: Fraction(1)),
}
_RECORD_GRID = [(name, convention) for name in _RECORD_SPECS
                for convention in (("cv", "gdoa") if name.startswith("cv") else ("gdoa",))]


def _diagonal_bits(matrix):
    """A diagonal matrix's stored diagonal, doubles by float.hex."""
    values = matrix._diags.get(0, [])
    if matrix.backend is EXACT:
        return values
    return [(v.real.hex(), v.imag.hex()) for v in values]


class TestLevelRecord:
    # the integer columns of the level record (F, f and E per doublet level
    # m), the spectrum rows built from them and the H and Z diagonals
    # written from them, against a per-level oracle: E_n = f(m)^2 F(m), or
    # the closed form F(m) for 'cv', with m = _level(mu, n), and Z_n =
    # s (-1)^n E_n, s = -(-1)^mu for 'cv' and (-1)^mu for 'gdoa'
    @pytest.mark.parametrize("count", [1, 2, 3, 1024, 4095])
    @pytest.mark.parametrize("mu", [0, 1])
    @pytest.mark.parametrize("name, convention", _RECORD_GRID)
    def test_matches_the_per_level_oracle(self, name, convention, mu, count):
        make, structure, weight = _RECORD_SPECS[name]
        spec = make()
        exact = spec.weight_is_exact
        top = count + 1
        numerators, denominators = fock._structure_record(spec, count)
        assert list(map(Fraction, numerators[:top], denominators[:top])) == [
            structure(n) for n in range(top)]
        assert min(denominators) > 0
        weights, divisors = fock._weight_record(spec, count)
        if exact:
            got = list(map(Fraction, weights[1:top], divisors[1:top]))
        else:  # doubles over 1
            got = weights[1:top]
            assert set(divisors) == {1} and {type(w) for w in got} == {float}
        assert got == [weight(n) for n in range(1, top)]

        def energy(m):
            if convention == "cv":
                return structure(m)
            return (weight(m) if m else 0 * weight(1)) ** 2 * structure(m)

        levels = range(mu, top, 2)
        values, parts = realizations._energies(spec, mu, count, convention)
        if exact:
            assert list(map(Fraction, values, parts)) == [energy(m) for m in levels]
            assert all(d > 0 and math.gcd(n, d) == 1 for n, d in zip(values, parts))
        else:
            assert parts is None
            assert [e.hex() for e in values] == [energy(m).hex() for m in levels]

        sign = -(-1) ** mu if convention == "cv" else (-1) ** mu
        energies = [energy(realizations._level(mu, n)) for n in range(count)]
        charges = [e if sign * (-1) ** n > 0 else -e for n, e in enumerate(energies)]
        if exact and convention == ("cv" if spec.is_calogero_vasiliev else "gdoa"):
            rows = spectrum_H(spec, mu, count - 1).rows  # the Fraction view, in its convention
            views = [[row.energy for row in rows], [row.central for row in rows]]
            assert views == [energies, charges]
            assert all(type(v) is Fraction for v in views[0] + views[1])
        for backend in (EXACT, FLOAT) if exact else (FLOAT,):
            try:
                expected = [BandMatrix.diagonal(v, backend) for v in (energies, charges)]
            except OverflowError:  # a rational beyond the double range
                with pytest.raises(OverflowError):
                    realizations._diagonals((values, parts), mu, count, convention, backend)
                assert name == "gdoa(n^600, 1)" and backend is FLOAT
                continue
            got = realizations._diagonals((values, parts), mu, count, convention, backend)
            assert [_diagonal_bits(m) for m in got] == [_diagonal_bits(m) for m in expected]
            assert list(got) == expected


class TestBuildIsItsRecord:
    # the verification suites hold the instance Q+, Q, H and Z to the set
    # _realization writes from the build's record, on every entry: every build
    # must be that set, with H and Z the diagonals _diagonals writes
    @pytest.mark.parametrize("dim", [8, 64, 1024])
    @pytest.mark.parametrize("mu", [0, 1])
    @pytest.mark.parametrize("name, backend", [
        (name, backend) for name in ("cv(1/2)", "cv(-3/7)", "gdoa(n^2, n)", "gdoa(n^2, sqrt(n))")
        for backend in (FLOAT, EXACT) if backend is FLOAT or "sqrt" not in name
    ])
    def test_every_generator_equals_the_record(self, name, backend, mu, dim):
        spec = _RECORD_SPECS[name][0]()
        build = cv_realization if spec.is_calogero_vasiliev else gdoa_realization
        r = build(spec, mu, dim, backend)
        record = realizations._realization(spec, mu, dim, backend, r.convention, r.energies)
        assert [op.matrix for op in (r.Qdag, r.Q, r.H, r.Z)] == [
            op.matrix for op in (record.Qdag, record.Q, record.H, record.Z)]
        h, z = realizations._diagonals(r.energies, r.mu, r.dim, r.convention, r.backend)
        assert r.H.matrix == h and r.Z.matrix == z


class TestFractionCounts:
    # the record is ints: a reduction builds no Fraction per level, and a
    # spectrum one per doublet level plus its negation
    @staticmethod
    def _count(monkeypatch, run):
        built = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        run()
        monkeypatch.undo()
        return len(built)

    def test_reduction_builds_no_fraction_per_level(self, monkeypatch):
        counts = [self._count(monkeypatch, lambda: reduction_check(
            OscillatorSpec.calogero_vasiliev(Fraction(3, 5)), dim)) for dim in (64, 1024)]
        assert counts[0] == counts[1]

    def test_spectrum_builds_one_fraction_per_doublet_and_its_negation(self, monkeypatch):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))
        count = self._count(monkeypatch, lambda: spectrum_H(spec, 0, 4094))
        assert 2048 <= count <= 4096 + 8


class TestFractionComparisons:
    # doublet mates are compared by (numerator, denominator), and the verdict
    # reads numerators: a cv mu = 1 table at n_max 4094 calls Fraction.__eq__
    # nowhere (2,047 + 4,095 times when both compared Fractions)
    def test_pairing_and_verdict_compare_no_fraction(self, monkeypatch):
        table = spectrum_H(OscillatorSpec.calogero_vasiliev(Fraction(1, 2)), 1, 4094)
        calls = []
        original = Fraction.__eq__

        def counting(a, b):
            calls.append(b)
            return original(a, b)

        monkeypatch.setattr(Fraction, "__eq__", counting)
        report = degeneracy_pairs(table)
        verdict = table.verdict
        monkeypatch.undo()
        assert len(calls) == 0
        assert (verdict, len(report.pairs), report.z_resolves) == ("broken", 2047, True)
        assert [(u.n, u.reason) for u in report.unpaired] == [(4094, "truncated")]


class TestPairing:
    @pytest.mark.parametrize("n_max, pairs, unpaired", [
        (5, [(1, 2), (3, 4)], [(0, "ground"), (5, "truncated")]),
        (8, [(1, 2), (3, 4), (5, 6), (7, 8)], [(0, "ground")]),
        (9, [(1, 2), (3, 4), (5, 6), (7, 8)], [(0, "ground"), (9, "truncated")]),
    ], ids=["nmax5", "nmax8", "nmax9"])
    def test_degeneracy_mu0(self, n_max, pairs, unpaired):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))
        report = degeneracy_pairs(spectrum_H(spec, 0, n_max))
        assert [(p.low, p.high) for p in report.pairs] == pairs
        assert [(u.n, u.reason) for u in report.unpaired] == unpaired
        assert report.accidental == ()
        assert report.z_resolves

    @pytest.mark.parametrize("n_max, pairs, unpaired", [
        (5, [(0, 1), (2, 3), (4, 5)], []),
        (8, [(0, 1), (2, 3), (4, 5), (6, 7)], [(8, "truncated")]),
        (9, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)], []),
    ], ids=["nmax5", "nmax8", "nmax9"])
    def test_degeneracy_mu1(self, n_max, pairs, unpaired):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))
        report = degeneracy_pairs(spectrum_H(spec, 1, n_max))
        assert [(p.low, p.high) for p in report.pairs] == pairs
        assert [(u.n, u.reason) for u in report.unpaired] == unpaired
        assert report.accidental == ()
        assert report.z_resolves

    @staticmethod
    def _cv_half_rows(mu, n_max):
        table = spectrum_H(OscillatorSpec.calogero_vasiliev(Fraction(1, 2)), mu, n_max)
        return table, list(table.rows)

    @pytest.mark.parametrize("mu", [0, 1])
    def test_flipped_central_charge_is_not_resolved(self, mu):
        # Z_n of one partner flipped: both levels of the doublet carry one Z
        table, rows = self._cv_half_rows(mu, 6)
        assert degeneracy_pairs(table).z_resolves
        rows[3] = SpectrumRow(3, rows[3].energy, -rows[3].central)
        report = degeneracy_pairs(replace(table, rows=tuple(rows)))
        assert not report.z_resolves
        unsplit = [(p.low, p.high) for p in report.pairs if not p.z_splits]
        assert unsplit == [(3, 4) if mu == 0 else (2, 3)]

    def test_equal_energies_of_two_pairs_make_one_accidental_group(self):
        # doublet (3, 4) moved onto the energy of doublet (1, 2)
        table, rows = self._cv_half_rows(0, 6)
        for n in (3, 4):
            rows[n] = SpectrumRow(n, rows[1].energy, rows[n - 2].central)
        report = degeneracy_pairs(replace(table, rows=tuple(rows)))
        assert report.z_resolves
        assert [(g.energy, g.levels) for g in report.accidental] == [(2, (1, 2, 3, 4))]

    def test_accidental_groups_keep_fraction_energies_in_order(self, monkeypatch):
        # doublets (0, 1) and (2, 3) moved onto the energies of (8, 9) and
        # (6, 7): the groups are met from the highest energy down, and are
        # grouped by integer parts, with no Fraction hashed
        table, rows = self._cv_half_rows(1, 9)
        for n, mate in ((0, 8), (1, 9), (2, 6), (3, 7)):
            rows[n] = SpectrumRow(n, rows[mate].energy, rows[n].central)

        def unhashable(value):
            raise AssertionError("degeneracy_pairs hashed a Fraction")

        monkeypatch.setattr(Fraction, "__hash__", unhashable)
        report = degeneracy_pairs(replace(table, rows=tuple(rows)))
        monkeypatch.undo()
        assert [(g.energy, g.levels) for g in report.accidental] == [
            (Fraction(15, 2), (2, 3, 6, 7)), (Fraction(19, 2), (0, 1, 8, 9))]
        assert all(type(g.energy) is Fraction for g in report.accidental)

    def test_zero_energy_pair_not_resolved(self):
        spec = OscillatorSpec.gdoa("n", weight="n - 1")
        report = degeneracy_pairs(spectrum_H(spec, 1, 5))
        bottom = report.pairs[0]
        assert bottom.energy == 0 and bottom.z_low == bottom.z_high == 0 and not bottom.z_splits
        assert not report.z_resolves

    def test_accidental_group(self):
        # f(2) = 0 collapses levels 0, 1, 2 onto energy zero for mu = 0: the
        # structural pair (1, 2) collides with the unpaired ground state.
        spec = OscillatorSpec.gdoa("n^2", weight="n - 2")
        report = degeneracy_pairs(spectrum_H(spec, 0, 4))
        assert len(report.accidental) == 1
        assert report.accidental[0].levels == (0, 1, 2)
        assert report.accidental[0].energy == 0

    @pytest.mark.parametrize("z_low, z_high, splits", [
        (Fraction(1, 2), Fraction(-1, 2), True),
        (Fraction(-5, 7), Fraction(5, 7), True),
        (Fraction(1, 2), Fraction(-1, 3), False),  # opposite numerators only
        (Fraction(2, 3), Fraction(2, 3), False),
        (Fraction(0), Fraction(0), False),
        (3, -3, True),
    ])
    def test_z_splits_compares_whole_values(self, z_low, z_high, splits):
        pair = realizations.DegeneratePair(1, 2, Fraction(1), z_low, z_high)
        assert pair.z_splits is splits

    def test_pairing_rejects_a_parity_other_than_0_or_1(self):
        table, _ = self._cv_half_rows(1, 3)
        with pytest.raises(ValidationError, match="mu must be 0 or 1"):
            degeneracy_pairs(replace(table, mu=2))

    @pytest.mark.parametrize("levels", [
        (0, 1, 1, 2), (0, 0), (0, 2, 1, 3), (1, 2, 3), (0, 1, 2), (0, 1, 2, 3, 4),
    ], ids=["repeated", "two-ground", "swapped", "no-ground", "short", "long"])
    @pytest.mark.parametrize("mu", [0, 1])
    def test_rows_must_be_the_levels_in_order(self, levels, mu):
        # rows 0, 1, 1, 2 at mu = 1 once read as no pairs, two truncated
        # levels and z_resolves True; two ground rows as a "pair (0, 0)"
        table, rows = self._cv_half_rows(mu, 3)
        moved = replace(table, rows=tuple(replace(rows[min(n, 3)], n=n) for n in levels))
        with pytest.raises(ValidationError, match=r"levels 0\.\.3 in order"):
            degeneracy_pairs(moved)

    def test_broken_degeneracy_raises(self):
        # A spectrum whose structural partners disagree is a construction bug.
        from gdoa_susy.realizations import SpectrumTable

        spec = OscillatorSpec.calogero_vasiliev(0)
        rows = (
            SpectrumRow(0, Fraction(1), Fraction(1)),
            SpectrumRow(1, Fraction(2), Fraction(-2)),
        )
        table = SpectrumTable(spec, 1, 1, rows)
        with pytest.raises(ValidationError, match="degenerate"):
            degeneracy_pairs(table)


BENCHMARK_SPECS = {
    "cv(1/2)": lambda: OscillatorSpec.calogero_vasiliev(Fraction(1, 2)),
    "cv(-3/7)": lambda: OscillatorSpec.calogero_vasiliev(Fraction(-3, 7)),
    "gdoa(n^3+2n, f=n+1)": lambda: OscillatorSpec.gdoa("n^3 + 2*n", weight="n+1"),
}


class TestBenchmarkSize:
    """Level records, spectra and doublets at the spectrum benchmark's n_max
    4094, each value against a per-level oracle (eval_expr at one level, or a
    closed form) and each an exact Fraction."""

    N_MAX = 4094

    @staticmethod
    def _oracle(spec, levels):
        """F(m) and f(m) at each level m, one eval_expr call each."""
        return ({m: eval_expr(spec.structure, m, spec.params) for m in levels},
                {m: eval_expr(spec.weight, m, spec.params) for m in levels if m})

    @pytest.mark.parametrize("name", list(BENCHMARK_SPECS))
    def test_level_records_match_the_per_level_walk(self, name):
        spec, dim = BENCHMARK_SPECS[name](), self.N_MAX + 1
        structure, weight = self._oracle(spec, range(dim + 1))
        values = fock.structure_values(spec, dim)
        assert values == tuple(structure.values())
        assert all(type(value) is Fraction for value in values)
        record = fock._weight_record(spec, dim)
        weights = list(map(Fraction, *(parts[1:dim + 1] for parts in record)))
        assert weights == list(weight.values()) and all(type(value) is Fraction
                                                        for value in weights)
        if spec.is_calogero_vasiliev:
            assert values == tuple(m + spec.kappa * (m % 2) for m in range(dim + 1))

    @pytest.mark.parametrize("mu", [0, 1])
    @pytest.mark.parametrize("name", list(BENCHMARK_SPECS))
    def test_spectrum_and_doublets_match_the_closed_form(self, name, mu):
        spec, n_max = BENCHMARK_SPECS[name](), self.N_MAX
        structure, weight = self._oracle(spec, range(n_max + 2))
        cv = spec.is_calogero_vasiliev
        sign = -(-1) ** mu if cv else (-1) ** mu  # Z_n = sign (-1)^n E_n
        energies, charges = [], []
        for n in range(n_max + 1):
            m = n if n % 2 == mu else n + 1
            if cv:
                energy = cv_energy_oracle(n, spec.kappa, mu)
            else:  # f(0) is undefined; E_0 = F(0) = 0
                energy = weight[m] ** 2 * structure[m] if m else structure[0]
            energies.append(energy)
            charges.append(sign * (-1) ** n * energy)
        table = spectrum_H(spec, mu, n_max)
        assert [row.n for row in table.rows] == list(range(n_max + 1))
        assert [row.energy for row in table.rows] == energies
        assert [row.central for row in table.rows] == charges
        assert all(type(row.energy) is Fraction and type(row.central) is Fraction
                   for row in table.rows)

        report = degeneracy_pairs(table)
        lows = range(1 - mu, n_max, 2)  # (2k+1, 2k+2) for mu = 0, (2k, 2k+1) for mu = 1
        assert [(p.low, p.high) for p in report.pairs] == [(low, low + 1) for low in lows]
        assert [(p.energy, p.z_low, p.z_high) for p in report.pairs] == [
            (energies[low], charges[low], charges[low + 1]) for low in lows
        ]
        assert all(type(value) is Fraction
                   for p in report.pairs for value in (p.energy, p.z_low, p.z_high))
        assert report.z_resolves and report.accidental == ()
        unpaired = [(0, "ground")] if mu == 0 else [(n_max, "truncated")]
        assert [(u.n, u.reason) for u in report.unpaired] == unpaired


class TestReduction:
    @pytest.mark.parametrize("kappa", [0, Fraction(1, 2), Fraction(5, 2)])
    def test_float_reduction_exact(self, kappa):
        report = reduction_check(OscillatorSpec.calogero_vasiliev(kappa), dim=16)
        assert report.ok
        assert all(entry.residual == 0.0 for entry in report.entries)
        assert {entry.operator for entry in report.entries} == {
            "Q+ <-> Q",
            "Q <-> Q+",
            "H",
            "Z <-> -Z",
        }
        assert {entry.mu for entry in report.entries} == {0, 1}

    def test_requires_calogero_vasiliev_spec(self):
        spec = OscillatorSpec.gdoa("bracket(n)", {"kappa": Fraction(1, 2)})
        with pytest.raises(ValidationError, match="calogero_vasiliev"):
            reduction_check(spec, dim=8)

    def test_no_parity_label_is_rejected(self):
        # a reduction over no mu would pass with no entries
        with pytest.raises(ValidationError, match="at least one parity label"):
            reduction_check(OscillatorSpec.calogero_vasiliev(Fraction(1, 2)), dim=8, mus=())

    def test_exact_backend_reduction(self):
        spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))
        report = reduction_check(spec, dim=8, backend=EXACT)
        assert report.ok

    # reduce compares two constructions: a fault in either one fails the
    # entries that read it, on the parity whose levels it touches
    @staticmethod
    def _failing(backend):
        report = reduction_check(OscillatorSpec.calogero_vasiliev(Fraction(1, 2)), 12, backend)
        return {(entry.mu, entry.operator) for entry in report.entries if not entry.exact}

    @pytest.mark.parametrize("backend", [FLOAT, EXACT])
    @pytest.mark.parametrize("level", [3, 4])
    def test_perturbed_ladder_amplitude_fails_the_charges(self, level, backend, monkeypatch):
        original = fock._sqrt_entry
        record = fock._structure_record(OscillatorSpec.calogero_vasiliev(Fraction(1, 2)), 12)
        numerator, denominator = (parts[level] for parts in record)
        # F(level) as _sqrt_entry reads it: int parts (exact) or a double (float)
        target = (numerator, denominator) if backend is EXACT else numerator / denominator

        def perturbed(value, backend):
            root = original(value, backend)
            return root * 2 if value == target else root

        monkeypatch.setattr(fock, "_sqrt_entry", perturbed)
        mu = level % 2
        assert self._failing(backend) == {(mu, "Q+ <-> Q"), (mu, "Q <-> Q+")}

    @pytest.mark.parametrize("backend", [FLOAT, EXACT])
    @pytest.mark.parametrize("level", [3, 4])
    def test_shifted_closed_form_energy_fails_h_and_z(self, level, backend, monkeypatch):
        original = realizations._energies

        def shifted(spec, mu, count, convention):
            # E_level + 1 in the closed form, at the doublet entry of m = level
            numerators, denominators = original(spec, mu, count, convention)
            if convention == "cv" and level % 2 == mu:
                numerators[(level - mu) // 2] += denominators[(level - mu) // 2]
            return numerators, denominators

        monkeypatch.setattr(realizations, "_energies", shifted)
        mu = level % 2
        assert self._failing(backend) == {
            (mu, "H"), (mu, "H diagonal"), (mu, "Z <-> -Z"), (mu, "Z diagonal")
        }
