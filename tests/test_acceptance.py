"""Acceptance gate: every criterion runs at its pinned tolerance.

Each test covers one numbered criterion and prints a single PASS line when its
assertions hold.  Tolerances are pinned here, not inherited from defaults:

* exact statements assert residual == 0.0 (no epsilon),
* float statements assert residual <= ABS_TOL + REL_TOL * scale.
"""

import time
from dataclasses import replace
from fractions import Fraction

from gdoa_susy.fock import (
    OscillatorSpec,
    build_fock_rep,
    guard_band_equal,
    structure_values,
)
from gdoa_susy.grading import GradedOperator
from gdoa_susy.numerics import Backend, BandMatrix, DEFAULT_POLICY
from gdoa_susy.realizations import (
    DEGREE_Z,
    cv_realization,
    degeneracy_pairs,
    gdoa_realization,
    hermitian_charges,
    reduction_check,
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

ABS_TOL = 1e-12
REL_TOL = 1e-10
JACOBI_REL = 1e-9

KAPPAS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 2))
DIM = 64


def cv_oracle(kappa):
    """Doublet-indexed closed forms, independent of the library's level forms."""
    energy = {0: {}, 1: {}}
    central = {0: {}, 1: {}}
    energy[0][0] = Fraction(0)
    central[0][0] = Fraction(0)
    for k in range(0, DIM):
        e0 = Fraction(2 * k + 2)
        for n in (2 * k + 1, 2 * k + 2):
            energy[0][n] = e0
        central[0][2 * k + 1] = e0
        central[0][2 * k + 2] = -e0
        e1 = Fraction(2 * k + 1) + kappa
        for n in (2 * k, 2 * k + 1):
            energy[1][n] = e1
        central[1][2 * k] = e1
        central[1][2 * k + 1] = -e1
    return energy, central


def test_c1_deformed_energy_spectra():
    for kappa in KAPPAS:
        energy_oracle, _ = cv_oracle(kappa)
        for mu in (0, 1):
            started = time.perf_counter()
            r = cv_realization(kappa, mu, DIM)
            assert r.h_diag is not None
            for n in range(DIM - 1):
                assert r.h_diag[n] == energy_oracle[mu][n], (kappa, mu, n)
            table = spectrum_H(OscillatorSpec.calogero_vasiliev(kappa), mu, DIM - 2)
            assert tuple(row.energy for row in table.rows) == r.h_diag[: DIM - 1]
            elapsed = time.perf_counter() - started
            assert elapsed < 1.0, (kappa, mu, elapsed)
    print("ACCEPTANCE C1 deformed-oscillator energy spectra (4 kappa x 2 mu): PASS")


def test_c2_central_charge_eigenvalues():
    for kappa in KAPPAS:
        _, central_oracle = cv_oracle(kappa)
        for mu in (0, 1):
            r = cv_realization(kappa, mu, DIM)
            assert r.z_diag is not None
            for n in range(DIM - 1):
                assert r.z_diag[n] == central_oracle[mu][n], (kappa, mu, n)
            table = spectrum_H(OscillatorSpec.calogero_vasiliev(kappa), mu, DIM - 2)
            assert tuple(row.central for row in table.rows) == r.z_diag[: DIM - 1]
    print("ACCEPTANCE C2 central-charge eigenvalues (exact, signed pairs): PASS")


def test_c3_degeneracy_resolution():
    n_max = DIM - 2
    for kappa in KAPPAS:
        spec = OscillatorSpec.calogero_vasiliev(kappa)
        for mu in (0, 1):
            report = degeneracy_pairs(spectrum_H(spec, mu, n_max))
            assert report.pairs, (kappa, mu)
            for pair in report.pairs:
                assert pair.z_opposite and pair.z_nonzero, (kappa, mu, pair)
            unpaired = [(u.n, u.reason) for u in report.unpaired]
            if mu == 0:
                assert unpaired == [(0, "ground")], (kappa, unpaired)
            else:
                assert unpaired == [(n_max, "truncated")], (kappa, unpaired)
            assert report.accidental == (), (kappa, mu)
            assert report.z_resolves
    print("ACCEPTANCE C3 doublet degeneracy split by the central charge: PASS")


GDOA_SPECS = (
    OscillatorSpec.gdoa("n^2"),
    OscillatorSpec.gdoa("n"),
    OscillatorSpec.gdoa("bracket(n)", {"kappa": Fraction(1, 2)}, "n"),
)


def _realizations_for_c4():
    for kappa in KAPPAS:
        for mu in (0, 1):
            yield cv_realization(kappa, mu, DIM)
    for spec in GDOA_SPECS:
        for mu in (0, 1):
            yield gdoa_realization(spec, mu, DIM)


def test_c4_relation_suites():
    started = time.perf_counter()
    for r in _realizations_for_c4():
        for report in (
            run_standard_susy_suite(r),
            run_qform_suite(r),
            run_hermitian_suite(r),
        ):
            assert report.passed, (report.spec, r.mu, [c.name for c in report.checks if not c.passed])
            for check in report.checks:
                if check.exactness in (Exactness.STRUCTURAL_EXACT, Exactness.DIAGONAL_EXACT):
                    assert check.residual == 0.0, (report.spec, r.mu, check.name)
                else:
                    assert check.residual <= ABS_TOL + REL_TOL * check.scale, (
                        report.spec,
                        r.mu,
                        check.name,
                    )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, elapsed
    print(
        "ACCEPTANCE C4 defining relations (standard + q-form + hermitian, "
        "7 specs x 2 mu at dim 64): PASS"
    )


def test_c5_graded_jacobi():
    cases = (
        cv_realization(Fraction(0), 0, 32),
        cv_realization(Fraction(5, 2), 1, 32),
        gdoa_realization(OscillatorSpec.gdoa("n^2"), 0, 32),
        gdoa_realization(
            OscillatorSpec.gdoa("bracket(n)", {"kappa": Fraction(1, 2)}, "n"), 1, 32
        ),
    )
    for r in cases:
        h = hermitian_charges(r)
        report = run_jacobi_suite(h)
        assert report.passed and len(report.checks) == 96, report.spec
        for check in report.checks:
            if check.name.startswith("jacobi["):
                assert check.guard_band == 3
                assert check.residual <= ABS_TOL + JACOBI_REL * check.scale, check.name
        faulty = replace(h, Z=GradedOperator(h.H.matrix, DEGREE_Z, "Z"))
        fault_report = run_jacobi_suite(faulty)
        assert not fault_report.passed, report.spec
        assert any(not check.passed for check in fault_report.checks)
    print("ACCEPTANCE C5 graded Jacobi suite (96 checks x 4 cases + fault trip): PASS")


def test_c6_reduction_to_reflection_oscillator():
    for kappa in (Fraction(0), Fraction(1, 2), Fraction(5, 2)):
        report = reduction_check(OscillatorSpec.calogero_vasiliev(kappa), dim=DIM)
        assert report.ok, kappa
        for entry in report.entries:
            assert entry.exact and entry.residual == 0.0, (kappa, entry)
    print("ACCEPTANCE C6 weighted family reduces to the reflection oscillator: PASS")


def test_c7_truncation_honesty():
    dim = 16
    spec = OscillatorSpec.calogero_vasiliev(Fraction(1, 2))
    rep = build_fock_rep(spec, dim, Backend.FLOAT)
    values = structure_values(spec, dim)
    expected = BandMatrix.diagonal(
        [complex(float(values[n + 1])) for n in range(dim)], Backend.FLOAT
    )
    product = rep.a @ rep.a_dag
    bare = guard_band_equal(product, expected, 0, DEFAULT_POLICY)
    assert not bare.passed
    assert bare.residual == float(values[dim]) == 16.0
    assert bare.worst == (dim - 1, dim - 1)
    banded = guard_band_equal(product, expected, 1, DEFAULT_POLICY)
    assert banded.passed
    for mu in (0, 1):
        assert run_all_suites(cv_realization(Fraction(1, 2), mu, dim)).passed
    print("ACCEPTANCE C7 truncation edge detected bare, masked by guard band: PASS")


def test_c8_nonlinear_spectrum_signature():
    table = spectrum_H(OscillatorSpec.gdoa("n^2"), 0, 20)
    distinct = sorted({row.energy for row in table.rows})
    assert distinct[:4] == [0, 4, 16, 36]
    gaps = [b - a for a, b in zip(distinct, distinct[1:])]
    assert all(b > a for a, b in zip(gaps, gaps[1:])), gaps
    assert len(set(gaps)) > 1
    for kappa in KAPPAS:
        spec = OscillatorSpec.calogero_vasiliev(kappa)
        for mu in (0, 1):
            linear = spectrum_H(spec, mu, 20)
            levels = sorted({row.energy for row in linear.rows})
            linear_gaps = {b - a for a, b in zip(levels, levels[1:])}
            assert linear_gaps == {2}, (kappa, mu, linear_gaps)
    print("ACCEPTANCE C8 nonlinear structure functions bend the spectrum: PASS")
