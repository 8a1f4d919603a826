"""Mutant catalog: small faults in ``src/`` that named tier-1 tests must catch.

Each mutant replaces one text, which must occur exactly once in its file, and
names the tier-1 tests that must fail on it.  For each mutant the runner
copies ``src/`` to a temporary directory, applies the replacement there, and
runs the named tests against that copy in one pytest subprocess; the working
tree is never edited.  First it runs every named test once on an unmutated
copy, so that a test which fails anyway is never counted as a kill.

Equivalent mutants, which no test can kill because they change no result,
are listed with a reason; the runner only checks that each still applies.

Run from anywhere, with pytest installed (stdlib only otherwise):

    python tests/mutants.py

Exit status: 0 if every mutant is killed, 1 if one survives or a text does
not occur exactly once, 2 if the named tests fail on the unmutated copy.
pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # under src/gdoa_susy/
    old: str
    new: str
    tests: tuple[str, ...] = ()  # tier-1 node ids that must fail; none for an equivalent
    reason: str = ""  # why an equivalent mutant changes no result


_TOP_LEVEL = "tests/test_verify.py::TestTopLevelRecord::test_top_level_bump_fails_the_rows_reading_it"
_ONE_CHARGE = ("tests/test_verify.py::TestChargeRecord::"
               "test_one_bumped_charge_fails_the_rows_reading_it")
_BUILD_ERROR = "tests/test_realizations.py::TestBuildErrors::test_first_error_and_its_message"
_IDENTITY = "tests/test_verify.py::TestIdentityCensus::test_fault_fails_exactly_its_identities"
_NO_FRACTION = ("tests/test_realizations.py::TestFractionComparisons::"
                "test_pairing_and_verdict_compare_no_fraction")

MUTANTS = (
    Mutant(
        "record comparison skipped for Z", "verify.py",
        "for slot, name in _SLOTS[:4]}", "for slot, name in _SLOTS[:3]}",
        (f"{_TOP_LEVEL}[cv-Backend.FLOAT-16-Z-True]",
         f"{_TOP_LEVEL}[sqrt-Backend.FLOAT-1024-Z-False]"),
    ),
    Mutant(
        "record comparison skipped for Q+", "verify.py",
        "for slot, name in _SLOTS[:4]}", "for slot, name in _SLOTS[1:4]}",
        (f"{_ONE_CHARGE}[cv-Backend.FLOAT-Qdag]", f"{_ONE_CHARGE}[sqrt-Backend.FLOAT-Qdag]"),
    ),
    Mutant(
        "record comparison skipped for Q", "verify.py",
        "for slot, name in _SLOTS[:4]}", 'for slot, name in _SLOTS[:4] if slot != "q"}',
        (f"{_ONE_CHARGE}[cv-Backend.FLOAT-Q]", f"{_ONE_CHARGE}[sqrt-Backend.FLOAT-Q]"),
    ),
    Mutant(
        "energies computed before the charges in a build", "realizations.py",
        "    raising, lowering = _charges(spec, mu, dim, backend)\n"
        "    if energies is None:\n"
        "        energies = _energies(spec, mu, dim, convention)\n",
        "    if energies is None:\n"
        "        energies = _energies(spec, mu, dim, convention)\n"
        "    raising, lowering = _charges(spec, mu, dim, backend)\n",
        (f"{_BUILD_ERROR}[cv-dim-0]", f"{_BUILD_ERROR}[exact-large-sqrt-weight]"),
    ),
    Mutant(
        "a sqrt weight's energies not checked for the double range", "realizations.py",
        "        if not all(map(math.isfinite, energies)):\n"
        '            raise OverflowError("an energy is beyond the double range")\n', "",
        (f"{_BUILD_ERROR}[float-energy-overflow-sqrt-weight]",
         "tests/test_cli.py::TestExitCodes::test_infinite_weight_is_beyond_the_double_range"),
    ),
    Mutant(
        "a NaN weight named as beyond the double range", "realizations.py",
        "        if f != f:", "        if False:",
        (f"{_BUILD_ERROR}[float-nan-weight-mu-0]",
         "tests/test_cli.py::TestExitCodes::test_nan_weight_is_named_as_nan[1-1]"),
    ),
    Mutant(
        "sign flip of the [Q01,Q10] structure constant", "verify.py",
        '("q01", "q10"): ("z", -2j)}', '("q01", "q10"): ("z", 2j)}',
        ("tests/test_verify.py::TestSuitesOverSpecs::test_square_structure_all_pass[0]",),
    ),
    Mutant(
        "closure keyed by label again", "verify.py",
        "ops.constant(_JACOBI_SLOTS[i], _JACOBI_SLOTS[j])",
        "ops.constant(x.label.lower(), y.label.lower())",
        ("tests/test_verify.py::TestClosureBySlot::"
         "test_zero_q10_labelled_h_fails_its_closures[cv-0-16-Backend.FLOAT]",),
    ),
    Mutant(
        "constants cache keyed by slot only, so 2iZ and -2iZ collide", "verify.py",
        "        value = self.constants.get(term)\n"
        "        if value is None:\n"
        "            slot, factor = term\n"
        "            value = self.constants[term] = getattr(self, slot).scaled(factor)\n",
        "        slot, factor = term\n"
        "        value = self.constants.get(slot)\n"
        "        if value is None:\n"
        "            value = self.constants[slot] = getattr(self, slot).scaled(factor)\n",
        ("tests/test_verify.py::TestSuitesOverSpecs::test_square_structure_all_pass[0]",),
    ),
    Mutant(
        "bracket cache keyed by slot pair only, so {Q+,Q} and [Q+,Q] collide", "verify.py",
        "key = (a, b, sign)", "key = (a, b)",
        ("tests/test_verify.py::TestSuitesOverSpecs::test_square_structure_all_pass[0]",),
    ),
    Mutant(
        "Jacobi inner brackets built with sign 1 whatever the degrees", "verify.py",
        "_JACOBI_SLOTS[k], sign[j][k])", "_JACOBI_SLOTS[k], 1)",
        ("tests/test_verify.py::TestJacobiSuite::test_check_census",),
    ),
    Mutant(
        "antisymmetry layer alone adds [[Y,X]] with the opposite sign", "verify.py",
        "(sign[i][j], inner[j, i].matrix)", "(-sign[i][j], inner[j, i].matrix)",
        ("tests/test_verify.py::TestJacobiSuite::test_antisymmetry_residuals_exactly_zero",),
    ),
    Mutant(
        "a swapped nested bracket read without its minus sign", "verify.py",
        "-s * sign[b][c]", "s * sign[b][c]",
        (f"{_IDENTITY}[z-shifted-cv-Backend.FLOAT-16]",
         "tests/test_verify.py::TestSharedBrackets::"
         "test_suite_equals_reference_functions[cv-0-Backend.FLOAT]"),
    ),
    Mutant(
        "nested brackets built in reverse order", "verify.py",
        "graded_bracket(generators[i], inner[j, k])", "graded_bracket(inner[j, k], generators[i])",
        (f"{_IDENTITY}[z-shifted-gdoa-Backend.EXACT-16]",
         "tests/test_verify.py::TestSharedBrackets::"
         "test_suite_equals_reference_functions[gdoa-1-Backend.EXACT]"),
    ),
    Mutant(
        "_check compares a diagonal-exact row once on every backend", "verify.py",
        "proof = cmp if exact_pair is pair else "
        "approx_equal_matrix(*exact_pair, EXACT_POLICY, cols)",
        "proof = cmp",
        ("tests/test_verify.py::TestSuitesOverSpecs::test_deformed_all_pass[kappa1-0]",),
    ),
    Mutant(
        "ledger keyed by the left slot only", "verify.py",
        "        ab = self.ledger.get((a, b))\n"
        "        if ab is None:\n"
        "            ab = self.ledger[a, b] = ",
        "        ab = self.ledger.get(a)\n"
        "        if ab is None:\n"
        "            ab = self.ledger[a] = ",
        ("tests/test_verify.py::TestSuitesOverSpecs::test_square_structure_all_pass[0]",),
    ),
    Mutant(
        "flipped graded_sign", "grading.py",
        "return -1 if sum(x * y for x, y in zip(a.bits, b.bits)) % 2 else 1",
        "return 1 if sum(x * y for x, y in zip(a.bits, b.bits)) % 2 else -1",
        ("tests/test_grading.py::TestDegreeVectors::test_sign_examples",),
    ),
    Mutant(
        "graded_sign without its length check", "grading.py",
        "    if len(a) != len(b):\n"
        '        raise GradingError(f"degree lengths differ: {len(a)} vs {len(b)}")\n'
        "    return -1 if sum(",
        "    return -1 if sum(",
        ("tests/test_grading.py::TestDegreeVectors::test_length_mismatch",),
    ),
    Mutant(
        "eval_expr drops the exact denominator", "exprlang.py",
        "Fraction(value, denominators[0])", "Fraction(value)",
        ("tests/test_exprlang.py::TestEvaluation::test_exact_backend_returns_fractions",),
    ),
    Mutant(
        "exact re-check skipped on a float build", "verify.py",
        "ex = exact_variant(r) if use_exact else None",
        'ex = exact_variant(r) if use_exact and r.backend.value == "exact" else None',
        ("tests/test_verify.py::TestExactRecheck::"
         "test_non_diagonal_exact_h_fails_only_rows_reading_it[cv]",
         "tests/test_verify.py::TestSharedBrackets::test_exact_variant_built_once_per_report[gdoa]"),
    ),
    Mutant(
        "math.lcm -> max in exprlang._column_arithmetic", "exprlang.py",
        "denominator = math.lcm(left.denominator, right.denominator)",
        "denominator = max(left.denominator, right.denominator)",
        ("tests/test_exprlang.py::TestLevelRange::test_exact_column_walk_matches_the_per_level_walk",),
    ),
    Mutant(
        "bisection keeps high = middle - 1", "exprlang.py",
        "            high = middle\n", "            high = middle - 1\n",
        ("tests/test_exprlang.py::TestLevelRange::"
         "test_first_failing_level_is_found_in_logarithmically_many_walks",),
    ),
    Mutant(
        "_by_level's convention swap inverted", "realizations.py",
        'zip(values, negated) if convention == "cv" else zip(negated, values)',
        'zip(values, negated) if convention != "cv" else zip(negated, values)',
        ("tests/test_realizations.py::TestDeformedRealizations::test_central_charge_alternates",),
    ),
    Mutant(
        "f(m)'s denominator dropped from the exact edges in _charges", "realizations.py",
        "_rooted(weights[m], 0, divisors[m], ", "_rooted(weights[m], 0, 1, ",
        ("tests/test_realizations.py::TestExactVariantFromTheRecord::"
         "test_equals_a_fresh_exact_build[gdoa-arg5-0-8]",),
    ),
    Mutant(
        "_rooted without the * rd in its denominator", "numerics.py",
        "d * sd * rd, rn * rd)", "d * sd, rn * rd)",
        ("tests/test_numerics.py::TestRootedRadicand::"
         "test_one_sixth_root_of_twelve_is_the_root_of_a_third",),
    ),
    Mutant(
        "_rooted without its gcd", "numerics.py",
        "    g = math.gcd(rn, rd)\n", "    g = 1\n",
        ("tests/test_numerics.py::TestRootedRadicand::test_common_factors_reduce[18-8]",),
    ),
    Mutant(
        "the Gaussian branch of coerce_scalar takes any imaginary part", "numerics.py",
        "value.real.is_integer() and value.imag.is_integer()", "value.real.is_integer()",
        ("tests/test_numerics.py::TestGaussianIntegers::test_other_floats_are_refused[0.5j]",),
    ),
    Mutant(
        "row-order check removed from degeneracy_pairs", "realizations.py",
        "if [row.n for row in table.rows] != list(range(table.n_max + 1)):", "if False:",
        ("tests/test_realizations.py::TestPairing::"
         "test_rows_must_be_the_levels_in_order[0-swapped]",),
    ),
    Mutant(
        "doublet mates compared as Fractions", "realizations.py",
        "if (mate.energy.numerator, mate.energy.denominator) != key:",
        "if mate.energy != row.energy:",
        (_NO_FRACTION,),
    ),
    Mutant(
        "the verdict compares Fractions", "realizations.py",
        "any(row.energy.numerator == 0 for row in self.rows)",
        "any(row.energy == 0 for row in self.rows)",
        (_NO_FRACTION,),
    ),
    Mutant(
        "_sqrt_entry reads F(n)'s parts in the wrong order", "fock.py",
        "_rooted(1, 0, 1, *level)", "_rooted(1, 0, 1, *reversed(level))",
        ("tests/test_fock.py::TestRepresentation::test_exact_entries",),
    ),
    Mutant(
        "hermitian_charges scales by +1j", "realizations.py",
        ".scaled(-1j)", ".scaled(1j)",
        ("tests/test_realizations.py::TestHermitianCharges::test_explicit_small_case",),
    ),
)

EQUIVALENT = (
    Mutant(
        "no shortcut for equal denominators in _sum", "numerics.py",
        "    if a_d == b_d:\n        p, q, d = a_p + b_p, a_q + b_q, a_d\n",
        "    if False:\n        p, q, d = a_p + b_p, a_q + b_q, a_d\n",
        reason="the general sum over a_d * b_d reduces by the same gcd to the same parts",
    ),
    Mutant(
        "no shortcut for a radicand of 1 in _rooted", "numerics.py",
        "    if rn == rd:\n        return _canonical(p, q, d, 1)\n",
        "    if False:\n        return _canonical(p, q, d, 1)\n",
        reason="rn == rd reduces to 1/1, which _square_split leaves as 1, giving the same parts",
    ),
    Mutant(
        "_square_split tries every integer as a divisor", "numerics.py",
        "        p += 1 if p == 2 else 2\n", "        p += 1\n",
        reason="an even p > 2 never divides n once every factor 2 is divided out",
    ),
    Mutant(
        "max_abs passes its one term with sign -1", "numerics.py",
        "return _signed_max_abs([(1, self)], cols)", "return _signed_max_abs([(-1, self)], cols)",
        reason="a diagonal starts from its first term unsigned, and magnitudes do not see a sign",
    ),
    Mutant(
        "antisymmetry reads the sign of the pair in the other order", "verify.py",
        "(sign[i][j], inner[j, i].matrix)", "(sign[j][i], inner[j, i].matrix)",
        reason="(-1)^(a.b) is symmetric in a and b, so the sign table is too",
    ),
    Mutant(
        "bracket cache never cleared", "verify.py",
        "    ops.brackets.clear()\n", "",
        reason="no bracket is read after the clear; keeping them only keeps memory alive",
    ),
)


def _copy_with(tmp: Path, mutant: Mutant | None) -> Path:
    """A copy of src/ under ``tmp``, with ``mutant`` applied if given."""
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        target = src / "gdoa_susy" / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
    return src


def _tests_pass(src: Path, tests: tuple[str, ...]) -> bool:
    """True if every test in ``tests`` passes against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), HYPOTHESIS_PROFILE="ci",
               PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    broken = [m.name for m in MUTANTS + EQUIVALENT
              if (ROOT / "src" / "gdoa_susy" / m.path).read_text().count(m.old) != 1]
    for name in broken:
        print(f"STALE   {name}: its text does not occur exactly once")
    if broken:
        return 1
    named = tuple(dict.fromkeys(test for m in MUTANTS for test in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        if not _tests_pass(_copy_with(Path(tmp), None), named):
            print("the named tests fail on the unmutated source")
            return 2
    survivors = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            killed = not _tests_pass(_copy_with(Path(tmp), mutant), mutant.tests)
        survivors += not killed
        print(f"{'KILLED ' if killed else 'SURVIVED'} {mutant.name}")
    for mutant in EQUIVALENT:
        print(f"EQUIV   {mutant.name}: {mutant.reason}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
