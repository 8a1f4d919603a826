"""Command line interface: verify, spectrum, reduce, jacobi.

Every command reads one :class:`Config`: a strict JSON file (unknown keys
are rejected) with the flags that were given for dimension, parity label,
tolerances and output format written over its keys, validated once.
``reduce --kappa K`` writes a calogero_vasiliev algebra over the file's (or
builds the whole configuration, without ``--config``); ``reduce`` reports the
parity labels ``mu`` selects and, exact by construction, reads no backend or
tolerance.  Each command renders
its result through one :func:`_emit` call in the requested format.

Exit codes: 0 all requested checks passed; 1 at least one relation failed;
2 configuration or validation error (including a dim above ``MAX_DIM`` and
values the requested backend or output cannot hold); 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

from .exprlang import ExprError
from .fock import OscillatorSpec, ValidationError, fits_double, structure_values
from .grading import GradingError
from .numerics import Backend, NumericsError, TolerancePolicy, parse_rational
from .realizations import (
    RealizationSet,
    ReductionReport,
    SpectrumTable,
    _cv_build,
    gdoa_realization,
    hermitian_charges,
    pair_partner,
    pair_index,
    reduction_check,
    spectrum_H,
)
from .verify import (
    VerificationReport,
    merge_reports,
    run_all_suites,
    run_jacobi_suite,
)


class ConfigError(ValueError):
    """The configuration file violates the schema or its domain constraints."""


_OUTPUTS = ("text", "json", "csv")
_BACKENDS = ("float", "exact-where-possible")
# Largest accepted dimension: far above every workload (4096), while one
# verify run there stays within tens of seconds per parity label.
MAX_DIM = 2**16


@dataclass(frozen=True)
class Config:
    """Validated run configuration."""

    spec: OscillatorSpec
    mus: tuple[int, ...]
    dim: int
    use_exact: bool
    policy: TolerancePolicy
    output: str


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _rational_field(value: object, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be a rational string or integer")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except NumericsError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where} must be a rational string or integer")


def _build_spec(algebra: object, weight_src: str) -> OscillatorSpec:
    if not isinstance(algebra, dict):
        raise ConfigError("'algebra' must be an object")
    kind = algebra.get("type")
    if kind == "calogero_vasiliev":
        _require_keys(algebra, {"type", "kappa"}, "'algebra'")
        if "kappa" not in algebra:
            raise ConfigError("'algebra' of type calogero_vasiliev requires 'kappa'")
        if weight_src.strip() != "1":
            raise ConfigError(
                "'f' must be \"1\" for calogero_vasiliev; use the gdoa type "
                "with F=\"bracket(n)\" for weighted charges"
            )
        kappa = _rational_field(algebra["kappa"], "'algebra.kappa'")
        return OscillatorSpec.calogero_vasiliev(kappa)
    if kind == "gdoa":
        _require_keys(algebra, {"type", "F", "params"}, "'algebra'")
        source = algebra.get("F")
        if not isinstance(source, str):
            raise ConfigError("'algebra.F' must be an expression string")
        params_raw = algebra.get("params", {})
        if not isinstance(params_raw, dict):
            raise ConfigError("'algebra.params' must be an object")
        params = {
            name: _rational_field(value, f"'algebra.params.{name}'")
            for name, value in params_raw.items()
        }
        try:
            return OscillatorSpec.gdoa(source, params, weight_src)
        except ExprError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError("'algebra.type' must be 'calogero_vasiliev' or 'gdoa'")


def _parse_config(raw: object, overrides: argparse.Namespace | None) -> Config:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    if overrides is not None:  # each flag that was given is written over its key
        raw = dict(raw)
        if getattr(overrides, "kappa", None) is not None:  # only ``reduce`` has --kappa
            raw["algebra"] = {"type": "calogero_vasiliev", "kappa": overrides.kappa}
        if overrides.mu is not None:
            raw["mu"] = overrides.mu if overrides.mu == "both" else int(overrides.mu)
        for key in ("dim", "output"):
            if getattr(overrides, key) is not None:
                raw[key] = getattr(overrides, key)
        for flag, key in (("tolerance_abs", "absolute"), ("tolerance_rel", "relative")):
            tolerance = raw.get("tolerance", {})
            if getattr(overrides, flag) is not None and isinstance(tolerance, dict):
                raw["tolerance"] = {**tolerance, key: getattr(overrides, flag)}
    _require_keys(
        raw,
        {"algebra", "f", "mu", "dim", "backend", "tolerance", "output"},
        "configuration",
    )
    if "algebra" not in raw:
        raise ConfigError("configuration requires 'algebra'")

    weight_src = raw.get("f", "1")
    if not isinstance(weight_src, str):
        raise ConfigError("'f' must be an expression string")

    mu_value = raw.get("mu", "both")
    dim = raw.get("dim", 64)
    backend = raw.get("backend", "exact-where-possible")
    tolerance = raw.get("tolerance", {})
    output = raw.get("output", "text")

    if mu_value == "both":
        mus: tuple[int, ...] = (0, 1)
    elif isinstance(mu_value, bool):
        raise ConfigError("'mu' must be 0, 1, or \"both\"")
    elif isinstance(mu_value, int) and mu_value in (0, 1):
        mus = (mu_value,)
    else:
        raise ConfigError("'mu' must be 0, 1, or \"both\"")

    if isinstance(dim, bool) or not isinstance(dim, int) or not 2 <= dim <= MAX_DIM or dim % 2:
        raise ConfigError(f"'dim' must be an even integer in [2, {MAX_DIM}]")

    if backend not in _BACKENDS:
        raise ConfigError(f"'backend' must be one of {_BACKENDS}")

    if not isinstance(tolerance, dict):
        raise ConfigError("'tolerance' must be an object")
    _require_keys(tolerance, {"absolute", "relative"}, "'tolerance'")
    absolute = tolerance.get("absolute", 1e-12)
    relative = tolerance.get("relative", 1e-10)
    for name, value in (("absolute", absolute), ("relative", relative)):
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not fits_double(value)
            or value < 0
        ):
            raise ConfigError(f"'tolerance.{name}' must be a finite nonnegative number")

    if output not in _OUTPUTS:
        raise ConfigError(f"'output' must be one of {_OUTPUTS}")

    spec = _build_spec(raw["algebra"], weight_src)
    try:
        structure_values(spec, dim)  # rejects F(0) != 0 and F(n) <= 0 up front
    except (ValidationError, ExprError) as exc:
        raise ConfigError(str(exc)) from exc

    return Config(
        spec=spec,
        mus=mus,
        dim=dim,
        use_exact=(backend == "exact-where-possible"),
        policy=TolerancePolicy(float(absolute), float(relative)),
        output=output,
    )


def load_config(path: str, overrides: argparse.Namespace | None = None) -> Config:
    """Read, validate, and normalize a configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8 text: {exc}") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers beyond the digit limit
        raise ConfigError(f"not valid JSON: {exc}") from exc
    return _parse_config(raw, overrides)


def build_realization(config: Config, mu: int) -> RealizationSet:
    """Materialize the configured realization on the float backend."""
    if config.spec.kappa is not None:  # only calogero_vasiliev specs carry kappa
        return _cv_build(config.spec, mu, config.dim, Backend.FLOAT)
    return gdoa_realization(config.spec, mu, config.dim, Backend.FLOAT)


# -- output helpers ---------------------------------------------------------


def _emit(output: str, renderers: dict[str, Callable[[], str]]) -> None:
    """Write the rendering of ``output`` (its renderer is the only one called)."""
    text = renderers[output]()
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _verify_text(reports: Sequence[VerificationReport]) -> str:
    lines: list[str] = []
    for report in reports:
        lines.append(
            f"spec: {report.spec}  mu={report.mu}  dim={report.dim}  backend={report.backend}"
        )
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(
                f"  {status} {check.name}  [{check.exactness.value} g={check.guard_band}]"
                f"  residual={check.residual:.3e}"
            )
        overall = "PASS" if report.passed else "FAIL"
        lines.append(
            f"  => {overall} ({len(report.checks)} checks, {report.elapsed_ms:.1f} ms)"
        )
    return "\n".join(lines)


def _verify_csv(reports: Sequence[VerificationReport]) -> str:
    lines = ["mu,name,paper_ref,guard_band,exactness,residual,pass"]
    for report in reports:
        for check in report.checks:
            relation = check.relation.replace('"', "'")
            lines.append(
                f'{report.mu},{check.name},"{relation}",{check.guard_band},'
                f"{check.exactness.value},{check.residual!r},{str(check.passed).lower()}"
            )
    return "\n".join(lines)


def _emit_reports(reports: Sequence[VerificationReport], output: str) -> int:
    _emit(output, {
        "text": lambda: _verify_text(reports),
        "json": lambda: json.dumps([r.to_dict() for r in reports], indent=2),
        "csv": lambda: _verify_csv(reports),
    })
    return 0 if all(r.passed for r in reports) else 1


def _spectrum_rows(table: SpectrumTable) -> list[dict]:
    rows = []
    present = {row.n for row in table.rows}
    for row in table.rows:
        partner = pair_partner(table.mu, row.n)
        if partner is None or partner not in present:
            pair = None
        else:
            pair = f"p{pair_index(table.mu, row.n)}"
        try:
            energy, central = str(row.energy), str(row.central)
        except ValueError:  # beyond the interpreter's int-to-str digit limit
            raise ConfigError(f"E({row.n}) has too many digits to print") from None
        rows.append({"n": row.n, "E": energy, "Z": central, "pair": pair})
    return rows


def _spectrum_text(table: SpectrumTable) -> str:
    lines = [
        f"spec: {table.spec.describe()}  mu={table.mu}  n_max={table.n_max}"
        f"  verdict: {table.verdict}",
        "  n     E           Z           pair",
    ]
    for row in _spectrum_rows(table):
        pair = row["pair"] or "-"
        lines.append(f"  {row['n']:<5d} {row['E']:<11s} {row['Z']:<11s} {pair}")
    return "\n".join(lines)


def _spectrum_csv(table: SpectrumTable) -> str:
    lines = ["n,E,Z,pair,verdict"]
    for row in _spectrum_rows(table):
        pair = row["pair"] or "-"
        lines.append(f"{row['n']},{row['E']},{row['Z']},{pair},{table.verdict}")
    return "\n".join(lines)


def _reduce_text(report: ReductionReport) -> str:
    lines = [f"reduction check: kappa={report.kappa}  dim={report.dim}"]
    for entry in report.entries:
        status = "PASS" if entry.exact else "FAIL"
        lines.append(
            f"  {status} mu={entry.mu} {entry.operator}  residual={entry.residual:.3e}"
            f"  exact={entry.exact}"
        )
    lines.append(f"  => {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines)


def _reduce_csv(report: ReductionReport) -> str:
    lines = ["mu,operator,residual,exact"]
    for entry in report.entries:
        lines.append(
            f"{entry.mu},{entry.operator},{entry.residual!r},{str(entry.exact).lower()}"
        )
    return "\n".join(lines)


# -- commands ---------------------------------------------------------------


def cmd_verify(config: Config) -> int:
    reports = []
    for mu in config.mus:
        r = build_realization(config, mu)
        reports.append(run_all_suites(r, config.policy, config.use_exact))
    return _emit_reports(reports, config.output)


def cmd_spectrum(config: Config, n_max: int | None) -> int:
    if n_max is None:
        n_max = config.dim - 2
    if n_max < 0 or n_max > config.dim - 2:
        raise ConfigError(f"n_max must lie in [0, dim-2] = [0, {config.dim - 2}]")
    tables = [spectrum_H(config.spec, mu, n_max) for mu in config.mus]
    _emit(config.output, {
        "text": lambda: "\n\n".join(_spectrum_text(t) for t in tables),
        "json": lambda: json.dumps([
            {"spec": t.spec.describe(), "mu": t.mu, "dim": config.dim, "n_max": t.n_max,
             "verdict": t.verdict, "rows": _spectrum_rows(t)}
            for t in tables
        ], indent=2),
        "csv": lambda: "\n\n".join(_spectrum_csv(t) for t in tables),
    })
    return 0


def cmd_reduce(config: Config) -> int:
    report = reduction_check(config.spec, config.dim)
    report = replace(report, entries=tuple(e for e in report.entries if e.mu in config.mus))
    _emit(config.output, {
        "text": lambda: _reduce_text(report),
        # asdict keeps the field order: kappa, dim, entries; then pass
        "json": lambda: json.dumps(
            {**asdict(report), "kappa": str(report.kappa), "pass": report.ok}, indent=2
        ),
        "csv": lambda: _reduce_csv(report),
    })
    return 0 if report.ok else 1


def cmd_jacobi(config: Config) -> int:
    reports = []
    for mu in config.mus:
        r = build_realization(config, mu)
        h = hermitian_charges(r)
        reports.append(merge_reports([run_jacobi_suite(h, config.policy)], ("jacobi",)))
    return _emit_reports(reports, config.output)


# -- entry point ------------------------------------------------------------


def _add_common_flags(parser: argparse.ArgumentParser, config_required: bool = True) -> None:
    parser.add_argument("--config", required=config_required, help="path to a JSON configuration")
    parser.add_argument("--dim", type=int, default=None, help="override the dimension")
    parser.add_argument(
        "--mu", choices=("0", "1", "both"), default=None, help="override the parity label"
    )
    parser.add_argument(
        "--tolerance-abs", type=float, default=None, help="override the absolute tolerance"
    )
    parser.add_argument(
        "--tolerance-rel", type=float, default=None, help="override the relative tolerance"
    )
    parser.add_argument(
        "--output", choices=_OUTPUTS, default=None, help="override the output format"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdoa-susy",
        description="Verify color-superalgebra realizations of deformed oscillators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run all relation suites")
    _add_common_flags(verify)

    spectrum = sub.add_parser("spectrum", help="print the closed-form spectrum table")
    _add_common_flags(spectrum)
    spectrum.add_argument("--nmax", type=int, default=None, help="highest level to print")

    reduce_p = sub.add_parser(
        "reduce", help="check the weighted family against the reflection oscillator",
        description="Check the weighted family at f = 1 against the reflection oscillator "
        "for the parity labels that mu selects.  The check is exact by construction "
        "(bitwise float matrices plus exact rational diagonals), so backend and "
        "tolerance are validated but not read.",
    )
    _add_common_flags(reduce_p, config_required=False)
    reduce_p.add_argument("--kappa", default=None, help="deformation parameter (rational)")

    jacobi = sub.add_parser("jacobi", help="run only the graded Jacobi suite")
    _add_common_flags(jacobi)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            config = load_config(args.config, args)
        elif args.kappa is not None:  # argparse requires --config of every other command
            config = _parse_config({}, args)
        else:
            raise ConfigError("reduce requires --kappa or --config")
        commands = {"verify": cmd_verify, "reduce": cmd_reduce, "jacobi": cmd_jacobi,
                    "spectrum": lambda config: cmd_spectrum(config, args.nmax)}
        return commands[args.command](config)
    except (ConfigError, ValidationError, ExprError, NumericsError, GradingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
