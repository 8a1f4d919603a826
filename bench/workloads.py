"""The benchmark's workloads: seeded inputs, ops, output checks, sentinel.

Every op goes through a public entry point of the package: ``cli.main``
with stdout captured (which runs ``spectrum_H`` and ``reduction_check``) or
``run_all_suites``; the spectrum output check runs ``degeneracy_pairs``.  A workload
hands out its ops in rounds of fixed composition; the seed picks parameter
values and the order inside a round, so every run measures the same mix of
op costs and only whole rounds are measured.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator

CHECKS_PER_REPORT = 121


class CheckError(Exception):
    """An op's output is wrong."""


class SentinelError(RuntimeError):
    """The verifier accepted a corrupted realization."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def import_package(src: str):
    """Import gdoa_susy afresh from ``src`` and return its namespace."""
    for name in [n for n in sys.modules if n == "gdoa_susy" or n.startswith("gdoa_susy.")]:
        del sys.modules[name]
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    pkg = importlib.import_module("gdoa_susy")
    found = os.path.realpath(os.path.dirname(pkg.__file__))
    if found != os.path.realpath(os.path.join(src, "gdoa_susy")):
        raise ImportError(f"gdoa_susy imported from {found}, not from {src}")
    importlib.import_module("gdoa_susy.cli")
    return pkg


def run_cli(pkg, argv: list[str]) -> str:
    """``gdoa-susy <argv>`` in process; its stdout, or CheckError on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        raise CheckError(f"exit code {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def _write_config(directory: str, name: str, config: dict) -> str:
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    return path


def _random_kappa(rng: random.Random) -> Fraction:
    """A rational in (-1, 3]; F(n) = n + kappa stays positive on odd n."""
    q = rng.randint(1, 9)
    return Fraction(rng.randint(1 - q, 3 * q), q)


def _check_report_census(names: list[str], census: list[str] | None) -> None:
    _require(len(names) == CHECKS_PER_REPORT, f"{len(names)} checks, not {CHECKS_PER_REPORT}")
    if census is not None:
        _require(names == census, "check names differ from the census of the first op")


def fault_sentinel(pkg, backend) -> None:
    """Confirm the verifier rejects the two corruptions it must catch.

    H bumped at (0, 0) must fail {Q+,Q} = H; H substituted for Z in the
    Hermitian set must fail bracket closure.
    """
    degree, operator = pkg.degree, pkg.GradedOperator
    r = pkg.cv_realization(Fraction(1, 2), 0, 8, backend)
    bump = pkg.BandMatrix.from_entries(r.dim, {(0, 0): 1}, backend)
    bumped = replace(r, H=operator(r.H.matrix + bump, degree(0, 0), "H"))
    report = pkg.run_all_suites(bumped)
    failed = {c.name for c in report.checks if not c.passed}
    if report.passed or "standard/anticommutator-gives-h" not in failed:
        raise SentinelError("verifier accepted H bumped at (0, 0)")
    h = pkg.hermitian_charges(pkg.cv_realization(Fraction(1, 2), 1, 8, backend))
    swapped = replace(h, Z=operator(h.H.matrix, degree(1, 1), "Z"))
    report = pkg.run_jacobi_suite(swapped)
    if report.passed or not any(
        c.name.startswith("closure[") and not c.passed for c in report.checks
    ):
        raise SentinelError("verifier accepted H substituted for Z")


class Workload:
    """Base: seeded inputs, a warm-up, and an endless stream of op rounds."""

    name = ""

    def __init__(self, pkg, seed: int, tmp: str, smoke: bool):
        self.pkg = pkg
        self.rng = random.Random(seed)
        self.census: list[str] | None = None

    @property
    def backend(self):
        return self.pkg.Backend.FLOAT

    def warm_up(self) -> None:
        raise NotImplementedError

    def next_round(self) -> list[Op]:
        raise NotImplementedError

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            yield self.next_round()


class VerifyLarge(Workload):
    """``gdoa-susy verify --output json`` on the large grid cells, one mu per op."""

    name = "verify-large"

    def __init__(self, pkg, seed, tmp, smoke):
        super().__init__(pkg, seed, tmp, smoke)
        self.dim = 16 if smoke else 1024
        self.configs = {
            "cv(1/2)": _write_config(tmp, "verify-cv", {
                "algebra": {"type": "calogero_vasiliev", "kappa": "1/2"},
                "dim": self.dim, "backend": "exact-where-possible",
            }),
            "gdoa(n^2,f=n)": _write_config(tmp, "verify-gdoa", {
                "algebra": {"type": "gdoa", "F": "n^2"}, "f": "n",
                "dim": self.dim, "backend": "exact-where-possible",
            }),
        }

    def _run(self, path: str, mu: int, dim: int) -> str:
        argv = ["verify", "--config", path, "--mu", str(mu), "--dim", str(dim),
                "--output", "json"]
        return run_cli(self.pkg, argv)

    def _check(self, output: str, mu: int, dim: int) -> None:
        reports = json.loads(output)
        _require(isinstance(reports, list) and len(reports) == 1, "expected one report")
        report = reports[0]
        _require(report["mu"] == mu and report["dim"] == dim, "wrong mu or dim reported")
        names = [c["name"] for c in report["checks"]]
        _check_report_census(names, self.census)
        _require(all(c["pass"] for c in report["checks"]) and report["pass"], "a check failed")

    def warm_up(self) -> None:
        for path in self.configs.values():
            for mu in (0, 1):
                output = self._run(path, mu, 16)
                if self.census is None:
                    self.census = [c["name"] for c in json.loads(output)[0]["checks"]]
                self._check(output, mu, 16)

    def next_round(self) -> list[Op]:
        ops = [
            Op("verify", f"{label} mu={mu}",
               (lambda p=path, m=mu: self._run(p, m, self.dim)),
               (lambda out, m=mu: self._check(out, m, self.dim)))
            for label, path in self.configs.items()
            for mu in (0, 1)
        ]
        self.rng.shuffle(ops)
        return ops


class VerifyExact(Workload):
    """``run_all_suites`` on exact-backend realizations with seeded rationals."""

    name = "verify-exact"
    # (mu, dim, F, weight) of the ten ops of every round; F "cv" is the
    # reflection oscillator.  Every family meets two dims and both mus, every
    # weight two families.  The design is fixed so that every run measures the
    # same mix of op costs: with families and weights drawn per op, the ops
    # that set the median changed from seed to seed and moved it by 15 %.
    SLOTS = (
        (0, 16, "cv", "1"), (0, 24, "n^2", "n"), (0, 32, "n^3 + 2*n", "1/(n+1)"),
        (0, 40, "n*(n+c)", "n+1"), (0, 48, "bracket(n)", "1"),
        (1, 16, "bracket(n)", "n"), (1, 24, "n*(n+c)", "1"), (1, 32, "cv", "1"),
        (1, 40, "n^3 + 2*n", "n+1"), (1, 48, "n^2", "1/(n+1)"),
    )
    SMOKE_SLOTS = ((0, 6, "n*(n+c)", "n+1"), (1, 8, "cv", "1"))

    def __init__(self, pkg, seed, tmp, smoke):
        super().__init__(pkg, seed, tmp, smoke)
        self.slots = self.SMOKE_SLOTS if smoke else self.SLOTS

    @property
    def backend(self):
        return self.pkg.Backend.EXACT

    def _draw(self, mu: int, dim: int, family: str, weight: str) -> Op:
        """The slot's op with a seeded rational kappa (and c for n*(n+c))."""
        rng, pkg = self.rng, self.pkg
        kappa = _random_kappa(rng)
        c = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        if family == "cv":
            label = f"cv(kappa={kappa}) mu={mu} dim={dim}"

            def run():
                return pkg.run_all_suites(pkg.cv_realization(kappa, mu, dim, pkg.Backend.EXACT))
        else:
            params = {"kappa": kappa, "c": c}
            label = f"gdoa(F={family}, f={weight}, kappa={kappa}, c={c}) mu={mu} dim={dim}"

            def run():
                spec = pkg.OscillatorSpec.gdoa(family, params, weight)
                return pkg.run_all_suites(pkg.gdoa_realization(spec, mu, dim, pkg.Backend.EXACT))
        return Op("verify-exact", label, run, self._check)

    def _check(self, report) -> None:
        _check_report_census([c.name for c in report.checks], self.census)
        _require(report.passed, "report did not pass")

    def warm_up(self) -> None:
        report = self.pkg.run_all_suites(
            self.pkg.cv_realization(Fraction(1, 2), 0, 8, self.pkg.Backend.EXACT)
        )
        self.census = [c.name for c in report.checks]
        self._check(report)

    def next_round(self) -> list[Op]:
        ops = [self._draw(*slot) for slot in self.slots]
        self.rng.shuffle(ops)
        return ops


def closed_form_rows(family: str, mu: int, n_max: int) -> list[dict]:
    """Spectrum rows the CLI must print, from the paper's closed forms.

    ``cv``: reflection oscillator at kappa = 1/2.  ``gdoa``: F = n^3 + 2n with
    weight f = n + 1, E_n = f(m)^2 F(m) with m = n on the charge-lowering
    sector and m = n + 1 off it.  Doublets are (2k+1, 2k+2) for mu = 0 and
    (2k, 2k+1) for mu = 1; a level whose partner lies past n_max is unpaired.
    """
    rows = []
    for n in range(n_max + 1):
        if family == "cv":
            kappa = Fraction(1, 2)
            if mu == 0:
                energy = Fraction(0 if n == 0 else (n + 1 if n % 2 else n))
            else:
                energy = Fraction(n + 1 if n % 2 == 0 else n) + kappa
            sign = -1 if mu == 0 else 1
        else:
            m = n if n % 2 == mu else n + 1
            energy = Fraction((m + 1) ** 2 * (m ** 3 + 2 * m))
            sign = 1 if mu == 0 else -1
        central = sign * (-1 if n % 2 else 1) * energy
        if mu == 0:
            partner, index = (None, None) if n == 0 else (n + 1 if n % 2 else n - 1, (n + 1) // 2)
        else:
            partner, index = (n + 1 if n % 2 == 0 else n - 1), n // 2
        pair = None if partner is None or partner > n_max else f"p{index}"
        rows.append({"n": n, "E": str(energy), "Z": str(central), "pair": pair})
    return rows


class SpectrumReduce(Workload):
    """CLI spectrum tables, one per op, interleaved 1:1 with CLI reduction checks."""

    name = "spectrum-reduce"

    def __init__(self, pkg, seed, tmp, smoke):
        super().__init__(pkg, seed, tmp, smoke)
        self.spectrum_dim = 64 if smoke else 4096
        self.reduce_dim = 16 if smoke else 1024
        self.specs = {
            "cv": (pkg.OscillatorSpec.calogero_vasiliev(Fraction(1, 2)), _write_config(
                tmp, "spectrum-cv",
                {"algebra": {"type": "calogero_vasiliev", "kappa": "1/2"}},
            )),
            "gdoa": (pkg.OscillatorSpec.gdoa("n^3 + 2*n", None, "n+1"), _write_config(
                tmp, "spectrum-gdoa",
                {"algebra": {"type": "gdoa", "F": "n^3 + 2*n"}, "f": "n+1"},
            )),
        }
        self.expected = {}

    def _expected(self, family: str, dim: int) -> list[list[dict]]:
        key = (family, dim)
        if key not in self.expected:
            self.expected[key] = [closed_form_rows(family, mu, dim - 2) for mu in (0, 1)]
        return self.expected[key]

    def _spectrum_op(self, family: str, mu: int, dim: int) -> Op:
        path = self.specs[family][1]
        argv = ["spectrum", "--config", path, "--mu", str(mu), "--dim", str(dim),
                "--nmax", str(dim - 2), "--output", "json"]
        return Op("spectrum", f"{family} mu={mu} dim={dim}",
                  lambda: run_cli(self.pkg, argv),
                  lambda out: self._check_spectrum(out, family, mu, dim))

    def _check_spectrum(self, output: str, family: str, mu: int, dim: int) -> None:
        pkg, n_max = self.pkg, dim - 2
        tables = json.loads(output)
        _require(len(tables) == 1, "expected one table")
        table, rows = tables[0], self._expected(family, dim)[mu]
        _require(table["mu"] == mu and table["n_max"] == n_max, "wrong mu or n_max")
        _require(len(table["rows"]) == n_max + 1, "wrong number of rows")
        _require(table["rows"] == rows, "rows differ from the closed form")
        verdict = "unbroken" if any(r["E"] == "0" for r in rows) else "broken"
        _require(table["verdict"] == verdict, f"verdict {table['verdict']!r}")
        _require(mu == 1 or verdict == "unbroken", "mu=0 must be unbroken")
        parsed = pkg.SpectrumTable(self.specs[family][0], mu, n_max, tuple(
            pkg.SpectrumRow(r["n"], Fraction(r["E"]), Fraction(r["Z"])) for r in table["rows"]
        ))
        pairs = pkg.degeneracy_pairs(parsed)
        _require(pairs.z_resolves and not pairs.accidental, "doublets not resolved by Z")
        _require(len(pairs.pairs) == len({r["pair"] for r in rows} - {None}),
                 "doublet count differs from the closed form")

    def _reduce_op(self, dim: int) -> Op:
        kappa = _random_kappa(self.rng)
        argv = ["reduce", f"--kappa={kappa}", "--dim", str(dim), "--output", "json"]
        return Op("reduce", f"kappa={kappa} dim={dim}",
                  lambda: run_cli(self.pkg, argv),
                  lambda out: self._check_reduce(out, kappa, dim))

    def _check_reduce(self, output: str, kappa: Fraction, dim: int) -> None:
        report = json.loads(output)
        _require(report["kappa"] == str(kappa) and report["dim"] == dim, "wrong kappa or dim")
        _require(len(report["entries"]) == 8, f"{len(report['entries'])} entries, not 8")
        _require(report["pass"] and all(e["exact"] for e in report["entries"]), "not exact")

    def warm_up(self) -> None:
        for family in self.specs:
            for mu in (0, 1):
                op = self._spectrum_op(family, mu, 16)
                op.check(op.run())
        op = self._reduce_op(16)
        op.check(op.run())

    def next_round(self) -> list[Op]:
        spectra = [(family, mu) for family in self.specs for mu in (0, 1)]
        self.rng.shuffle(spectra)
        return [
            op
            for family, mu in spectra
            for op in (self._spectrum_op(family, mu, self.spectrum_dim),
                       self._reduce_op(self.reduce_dim))
        ]


WORKLOADS = {w.name: w for w in (VerifyLarge, VerifyExact, SpectrumReduce)}
