"""Span tracing of gdoa_susy layers from outside the package.

A :class:`Tracer` wraps public functions and methods of the imported
``gdoa_susy`` modules.  A function is replaced on its defining module and on
every package module that imported it by name (``verify`` and ``cli`` do);
a method is replaced on its class.  :meth:`Tracer.restore` puts every
original object back.

Each wrapped call records one span: layer name, start, end, parent span and
op id.  Spans stay in memory (compact arrays) until the run ends.  Work the
wrappers themselves do (counting multiply-adds, hashing operands) happens
outside the span's interval and is subtracted from the parent's self time,
so a layer's self time is its span's duration minus what its child spans
and their bookkeeping cover.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "gdoa_susy"
MARKER = "__bench_wrapped__"

# (defining module, attribute path, layer name).  Several functions may feed
# one layer name (the two realization builders, the four CLI commands).
SPANNED = (
    ("numerics", "BandMatrix.__matmul__", "numerics.matmul"),
    ("numerics", "BandMatrix.__init__", "numerics.band_init"),
    ("numerics", "approx_equal_matrix", "numerics.compare"),
    ("grading", "graded_bracket", "grading.graded_bracket"),
    ("grading", "jacobi_defect", "grading.jacobi_defect"),
    ("grading", "check_antisymmetry", "grading.check_antisymmetry"),
    ("verify", "run_all_suites", "verify.run_all_suites"),
    ("verify", "run_standard_susy_suite", "verify.standard"),
    ("verify", "run_qform_suite", "verify.qform"),
    ("verify", "run_hermitian_suite", "verify.hermitian"),
    ("verify", "run_jacobi_suite", "verify.jacobi"),
    ("realizations", "cv_realization", "realizations.build"),
    ("realizations", "gdoa_realization", "realizations.build"),
    ("realizations", "exact_variant", "realizations.exact_variant"),
    ("realizations", "hermitian_charges", "realizations.hermitian_charges"),
    ("realizations", "spectrum_H", "realizations.spectrum_H"),
    ("realizations", "degeneracy_pairs", "realizations.degeneracy_pairs"),
    ("realizations", "reduction_check", "realizations.reduction_check"),
    ("fock", "build_fock_rep", "fock.build_fock_rep"),
    ("fock", "structure_values", "fock.structure_values"),
    ("exprlang", "parse_expr", "exprlang.parse_expr"),
    ("exprlang", "eval_expr", "exprlang.eval_expr"),
    ("exprlang", "validate_structure_function", "exprlang.validate_structure_function"),
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "cmd_verify", "cli.cmd"),
    ("cli", "cmd_spectrum", "cli.cmd"),
    ("cli", "cmd_reduce", "cli.cmd"),
    ("cli", "cmd_jacobi", "cli.cmd"),
)

# Spans the benchmark itself opens around each op and each output check.
OP_SPAN = "bench.op"
CHECK_SPAN = "bench.check"


def package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def leftover_wrappers() -> list[str]:
    """Names of package attributes that still hold a benchmark wrapper."""
    found = []
    for module in package_modules():
        for name, value in vars(module).items():
            if hasattr(value, MARKER):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, MARKER):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


def _content_key(matrix) -> int:
    """Hash of a matrix's content through its public interface."""
    return hash((matrix.dim, matrix.backend.value, frozenset(
        ((r, c), v) for r, c, v in matrix.entries()
    )))


def _madds(a, b) -> int:
    """Scalar multiply-adds of the sparse product a @ b."""
    row_nnz = Counter(r for r, _, _ in b.entries())
    return sum(row_nnz.get(k, 0) for _, k, _ in a.entries())


def _compared_entries(args, kwargs) -> int:
    a, b = args[0], args[1]
    cols = args[3] if len(args) > 3 else kwargs.get("cols")
    keys = {(r, c) for r, c, _ in a.entries()} | {(r, c) for r, c, _ in b.entries()}
    return sum(1 for _, c in keys if cols is None or c in cols)


class Tracer:
    """Installs span wrappers, keeps spans in memory, aggregates self time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hidden = array("d")  # child wrappers' bookkeeping inside the span
        self.stack: list[int] = []
        self.op_id = -1
        self.madds = 0
        self.compare_entries = 0
        self.checks = 0
        self.exact_constructs = [0]
        self.distinct_pairs = 0
        self._op_pairs: set[tuple[int, int]] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        idx = len(self.name_of)
        self.name_of.append(self._index(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_of.append(self.op_id)
        self.end.append(0.0)
        self.hidden.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> float:
        ended = perf_counter()
        self.end[idx] = ended
        self.stack.pop()
        return ended

    def begin_op(self, op_id: int) -> None:
        self.finish()
        self.op_id = op_id

    def finish(self) -> None:
        """Count the last op's distinct matmul operand pairs."""
        self.distinct_pairs += len(self._op_pairs)
        self._op_pairs = set()

    def _wrap(self, fn, name: str, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            if before is not None:
                before(args, kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = tracer.close(idx)
            if after is not None:
                after(result)
            parent = tracer.parent[idx]
            if parent >= 0:
                tracer.hidden[parent] += (tracer.start[idx] - entered) + (perf_counter() - ended)
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARKER, fn)
        return wrapper

    def _before_matmul(self, args, kwargs) -> None:
        a, b = args[0], args[1]
        self.madds += _madds(a, b)
        self._op_pairs.add((_content_key(a), _content_key(b)))

    def _before_compare(self, args, kwargs) -> None:
        self.compare_entries += _compared_entries(args, kwargs)

    def _after_suites(self, report) -> None:
        self.checks += len(report.checks)

    # -- install / restore -------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function where the package can reach it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {m.__name__.rpartition(".")[2]: m for m in package_modules()}
        before = {
            "numerics.matmul": self._before_matmul,
            "numerics.compare": self._before_compare,
        }
        after = {"verify.run_all_suites": self._after_suites}
        for module_name, path, layer in SPANNED:
            module = modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, attr, self._wrap(vars(cls)[attr], layer, before.get(layer)))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, layer, before.get(layer), after.get(layer))
            for holder in package_modules():
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, attr, wrapper)
        scalar = modules["numerics"].ExactScalar
        original_init = vars(scalar)["__init__"]
        cell = self.exact_constructs

        def counting_init(obj, *args, **kwargs):
            cell[0] += 1
            original_init(obj, *args, **kwargs)

        setattr(counting_init, MARKER, original_init)
        self._replace(scalar, "__init__", counting_init)

    def restore(self) -> None:
        """Put back every original object, newest replacement first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def layer_totals(self, scale: list[float] | None = None) -> dict[str, dict[str, float]]:
        """{layer: {calls, total_ms, self_ms}} over the spans of ops.

        ``scale[op]`` multiplies the times of op ``op``'s spans.
        """
        count = len(self.name_of)
        child_time = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        totals: dict[str, dict[str, float]] = {}
        for i in range(count):
            op = self.op_of[i]
            if op < 0:
                continue
            factor = 1000.0 * (scale[op] if scale is not None else 1.0)
            duration = self.end[i] - self.start[i]
            entry = totals.setdefault(
                self.names[self.name_of[i]], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
            )
            entry["calls"] += 1
            entry["total_ms"] += duration * factor
            entry["self_ms"] += (duration - child_time[i] - self.hidden[i]) * factor
        return totals

    def write_spans(self, path: str) -> None:
        """Write all spans as columns; times are seconds from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        payload = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "name": list(self.name_of),
            "start_s": [round(t - origin, 7) for t in self.start],
            "end_s": [round(t - origin, 7) for t in self.end],
            "parent": list(self.parent),
            "op": list(self.op_of),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
