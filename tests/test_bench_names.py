"""Every package name the benchmark resolves exists.

``bench/tracing.py`` wraps the functions and methods its ``SPANNED`` table
names, the traced smoke run checks the wrappers on two re-exports, and the
workloads call a few more names.  A rename in ``src/`` that drops one of them
would break the traced benchmark while every other test passes.
"""

import importlib
import types
from pathlib import Path

import pytest

import gdoa_susy as pkg

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    """``bench/tracing.py`` as a module, executed from its source: nothing is
    written under ``bench/``, not even a bytecode cache."""
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    return module


SPANNED = _load_tracing().SPANNED


@pytest.mark.parametrize("module_name, path, layer", SPANNED,
                         ids=[f"{module}.{path}" for module, path, _ in SPANNED])
def test_spanned_entry_resolves(module_name, path, layer):
    module = importlib.import_module(f"{pkg.__name__}.{module_name}")
    if "." in path:  # a method, wrapped where its class defines it
        cls_name, attr = path.split(".")
        assert callable(vars(getattr(module, cls_name))[attr])
    else:
        assert callable(getattr(module, path))


@pytest.mark.parametrize("path", [
    "verify.graded_bracket", "cli.run_all_suites", "cli.main",
    "run_all_suites", "run_jacobi_suite", "hermitian_charges", "cv_realization",
    "gdoa_realization", "degeneracy_pairs", "degree", "GradedOperator",
    "BandMatrix.from_entries", "OscillatorSpec.gdoa", "OscillatorSpec.calogero_vasiliev",
    "SpectrumTable", "SpectrumRow", "Backend.EXACT", "Backend.FLOAT",
])
def test_name_the_bench_reads_resolves(path):
    target = pkg
    for attr in path.split("."):
        target = getattr(target, attr)
    assert target is not None


def test_members_read_from_class_namespaces():
    # the tracer counts ExactScalar.__init__ calls; the spectrum check reads z_resolves
    assert callable(vars(pkg.numerics.ExactScalar)["__init__"])
    assert isinstance(vars(pkg.DegeneracyReport)["z_resolves"], property)
