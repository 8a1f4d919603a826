"""Smoke test of the benchmark at tiny dims: python3 -m pytest bench/test_smoke.py"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

EXACT_COUNTS = (
    "numerics.matmul.calls",
    "numerics.matmul.madds",
    "numerics.band_init.calls",
    "realizations.exact_variant.calls",
    "numerics.exact_scalar.constructs",
)
# Every per-layer metric the benchmark documents, with its unit.
NAMED_LAYER_METRICS = {
    **{f"numerics.{m}": "count" for m in (
        "matmul.calls", "matmul.madds", "band_init.calls", "compare.calls",
        "compare.entries", "exact_scalar.constructs")},
    "numerics.matmul.distinct_ratio": "ratio",
    **{f"{layer}.ms": "ms" for layer in (
        "numerics.matmul", "numerics.band_init", "numerics.compare",
        "grading.graded_bracket", "grading.jacobi_defect", "grading.check_antisymmetry",
        "verify.standard", "verify.qform", "verify.hermitian", "verify.jacobi",
        "realizations.build", "realizations.exact_variant", "realizations.hermitian_charges",
        "realizations.spectrum_H", "realizations.degeneracy_pairs",
        "realizations.reduction_check", "fock.build_fock_rep", "fock.structure_values",
        "exprlang.parse_expr", "exprlang.eval_expr", "exprlang.validate_structure_function",
        "cli.load_config")},
    **{f"{layer}.calls": "count" for layer in (
        "grading.graded_bracket", "grading.jacobi_defect", "grading.check_antisymmetry",
        "realizations.exact_variant", "fock.build_fock_rep", "fock.structure_values",
        "exprlang.eval_expr")},
    "verify.checks": "count",
    "cli.cmd.self_ms": "ms",
}


def _smoke(name: str, trace: bool, seed: int = 7) -> dict:
    return run.measure(name, seed, 0.0, trace, smoke=True)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_metrics_emitted_with_units_and_counts_repeat(name):
    untraced = _smoke(name, False)
    line = run.result_line(untraced, [m["name"] for m in SPEC["end_to_end"]])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0

    traced = _smoke(name, True)
    line = run.result_line(traced, [m["name"] for m in SPEC["per_layer"]])
    assert line["correct"]
    for metric in SPEC["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    for metric, unit in NAMED_LAYER_METRICS.items():
        assert traced["metrics"][metric]["unit"] == unit, metric
    if name.startswith("verify"):
        assert traced["metrics"]["verify.checks"]["value"] == workloads.CHECKS_PER_REPORT
    assert tracing.leftover_wrappers() == []

    again = _smoke(name, True)
    for metric in EXACT_COUNTS:
        assert again["metrics"][metric] == traced["metrics"][metric], metric


def _all_attributes() -> dict:
    found = {}
    for module in tracing.package_modules():
        for attr, value in vars(module).items():
            found[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for member, obj in vars(value).items():
                    found[(module.__name__, attr, member)] = obj
    return found


def test_tracer_restores_every_original():
    pkg = workloads.import_package(run.SRC)
    before = _all_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hasattr(pkg.cli.run_all_suites, tracing.MARKER)
        assert hasattr(pkg.verify.graded_bracket, tracing.MARKER)
        assert hasattr(vars(pkg.BandMatrix)["__matmul__"], tracing.MARKER)
    finally:
        tracer.restore()
    after = _all_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracing.leftover_wrappers() == []


def test_counts_match_the_profiled_reference_cell():
    # cProfile of one run_all_suites call on cv(1/2), mu=0, dim 256 with the
    # realization built beforehand counts 918 matmuls and 1929 BandMatrix inits.
    pkg = workloads.import_package(run.SRC)
    r = pkg.cv_realization(Fraction(1, 2), 0, 256)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        assert pkg.run_all_suites(r).passed
    finally:
        tracer.finish()
        tracer.restore()
    totals = tracer.layer_totals()
    assert totals["numerics.matmul"]["calls"] == 918
    assert totals["numerics.band_init"]["calls"] == 1929
    assert tracer.checks == workloads.CHECKS_PER_REPORT


def test_sentinel_fires_when_the_verifier_accepts_everything():
    pkg = workloads.import_package(run.SRC)
    workloads.fault_sentinel(pkg, pkg.Backend.FLOAT)
    passing = SimpleNamespace(passed=True, checks=())
    names = {n: getattr(pkg, n) for n in dir(pkg) if not n.startswith("__")}
    for suite in ("run_all_suites", "run_jacobi_suite"):
        lenient = SimpleNamespace(**{**names, suite: lambda _: passing})
        with pytest.raises(workloads.SentinelError):
            workloads.fault_sentinel(lenient, pkg.Backend.FLOAT)


def test_output_checks_reject_wrong_output(tmp_path):
    pkg = workloads.import_package(run.SRC)
    large = workloads.VerifyLarge(pkg, 1, str(tmp_path), smoke=True)
    large.warm_up()
    good = large._run(large.configs["cv(1/2)"], 0, 16)
    large._check(good, 0, 16)
    report = json.loads(good)
    report[0]["checks"][5]["pass"] = False
    with pytest.raises(workloads.CheckError):
        large._check(json.dumps(report), 0, 16)
    with pytest.raises(workloads.CheckError):
        large._check(good, 1, 16)

    spectra = workloads.SpectrumReduce(pkg, 1, str(tmp_path), smoke=True)
    op = spectra._spectrum_op("gdoa", 1, 16)
    tables = json.loads(op.run())
    op.check(json.dumps(tables))
    tables[0]["rows"][3]["pair"] = tables[0]["rows"][5]["pair"]
    with pytest.raises(workloads.CheckError):
        op.check(json.dumps(tables))
