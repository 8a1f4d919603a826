"""gdoa-susy benchmark: one closed-loop client, one process, one thread.

Run one workload (the last stdout line is the JSON result):

    python3 bench/run.py --workload verify-large --seed 1 --seconds 30 --trace 0

Run every workload, untraced then traced, and print every metric:

    python3 bench/run.py --workload all --seed 1 --seconds 30

Compare two sets of recorded runs (``--record FILE`` appends each run):

    python3 bench/run.py --compare parent.jsonl change.jsonl

See bench/README.md for the workloads, metrics and the traced mode.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5

# Nominal time of one speed pass, and how often the probe runs one.
REFERENCE_PASS_MS = 0.2
PROBE_INTERVAL_S = 0.05


def speed_pass() -> float:
    """Time (ms) of a short fixed pure-Python pass that mimics the op mix:
    a sparse complex product over dicts and a few Fraction sums.

    The collector is off during the pass: run inside an op, the pass's
    allocations could otherwise start a collection of the op's whole heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _timed_pass()
    finally:
        if collecting:
            gc.enable()


def _timed_pass() -> float:
    started = time.perf_counter()
    a = {(i, i + 1): complex(i, 1.5) for i in range(60)}
    a.update({(i + 1, i): complex(0.5, i) for i in range(60)})
    rows: dict[int, list] = {}
    for (r, c), v in a.items():
        rows.setdefault(r, []).append((c, v))
    acc: dict = {}
    for (r, k), va in a.items():
        for c, vb in rows.get(k, ()):
            key = (r, c)
            acc[key] = acc[key] + va * vb if key in acc else va * vb
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(1, i)
    return (time.perf_counter() - started) * 1000.0


def timed(fn):
    """Run fn under the speed probe: (result, error, wall ms, reference ms).

    The host's speed drifts by up to 2x over periods of seconds (shared,
    unpinned cores), and CPU time drifts with it.  So a speed pass runs right
    before and after fn and, from a SIGALRM handler in this thread, every
    PROBE_INTERVAL_S while fn runs.  Wall ms is fn's wall-clock time without
    the passes inside it; reference ms scales it by REFERENCE_PASS_MS over the
    mean pass time: fn's latency at one fixed reference speed.
    """
    inside: list[float] = []
    before = speed_pass()
    previous = signal.signal(signal.SIGALRM, lambda *_: inside.append(speed_pass()))
    started = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        result, error = fn(), None
    except Exception as exc:  # a crashing op is a failed op
        result, error = None, exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = (time.perf_counter() - started) * 1000.0
        signal.signal(signal.SIGALRM, previous)
    passes = [before, *inside, speed_pass()]
    wall = elapsed - sum(inside)
    return result, error, wall, wall * REFERENCE_PASS_MS * len(passes) / sum(passes)


# Layers reported per op as `<layer>.calls` and `<layer>.ms` (self time).
LAYER_CALLS = (
    "numerics.matmul", "numerics.band_init", "numerics.compare",
    "grading.graded_bracket", "grading.jacobi_defect", "grading.check_antisymmetry",
    "realizations.build", "realizations.exact_variant", "realizations.hermitian_charges",
    "realizations.spectrum_H", "realizations.degeneracy_pairs",
    "realizations.reduction_check", "fock.build_fock_rep", "fock.structure_values",
    "exprlang.parse_expr", "exprlang.eval_expr", "exprlang.validate_structure_function",
    "cli.load_config",
)
LAYER_MS = LAYER_CALLS + (
    "verify.standard", "verify.qform", "verify.hermitian", "verify.jacobi",
)


def layer_metrics(totals: dict, tracer: tracing.Tracer, ops: int, traced_p50: float) -> dict:
    """Every per-layer metric, averaged per op; self time in ms."""
    blank = {"calls": 0, "self_ms": 0.0}
    metrics = {}
    for layer in LAYER_CALLS:
        metrics[f"{layer}.calls"] = (totals.get(layer, blank)["calls"] / ops, "count")
    for layer in LAYER_MS:
        metrics[f"{layer}.ms"] = (totals.get(layer, blank)["self_ms"] / ops, "ms")
    metrics["cli.cmd.self_ms"] = (totals.get("cli.cmd", blank)["self_ms"] / ops, "ms")
    matmuls = totals.get("numerics.matmul", blank)["calls"]
    metrics["numerics.matmul.madds"] = (tracer.madds / ops, "count")
    metrics["numerics.matmul.distinct_ratio"] = (
        tracer.distinct_pairs / matmuls if matmuls else 0.0, "ratio"
    )
    metrics["numerics.compare.entries"] = (tracer.compare_entries / ops, "count")
    metrics["numerics.exact_scalar.constructs"] = (tracer.exact_constructs[0] / ops, "count")
    metrics["verify.checks"] = (tracer.checks / ops, "count")
    metrics["trace.op_ms.p50"] = (traced_p50, "ms")
    return metrics


def src_line_count() -> int:
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": "not pinned",
        "src_lines": src_line_count(),
    }


def tail_percentile(latencies: list[float]) -> tuple[str, float] | None:
    """p90 with at least 100 ops, else the highest percentile with ten ops above it."""
    n = len(latencies)
    if n < 20:
        return None
    pct = 90 if n >= 100 else int(100 * (1 - 10 / n))
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return f"op_ms.p{pct}", cuts[pct - 1]


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, sentinel-check and run one workload; return the full record."""
    os.makedirs(OUT, exist_ok=True)
    setup_raw: list[float] = []
    setup_scaled: list[float] = []
    tmp = None
    for _ in range(SETUP_REPS):
        if tmp is not None:
            shutil.rmtree(tmp)
        tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)

        def set_up():
            pkg = workloads.import_package(SRC)
            workload = workloads.WORKLOADS[name](pkg, seed, tmp, smoke)
            workloads.fault_sentinel(pkg, workload.backend)
            workload.warm_up()
            return workload

        workload, error, wall, reference = timed(set_up)
        if error is not None:
            shutil.rmtree(tmp)
            raise error
        setup_raw.append(wall / 1000.0)
        setup_scaled.append(reference / 1000.0)

    tracer = tracing.Tracer() if trace else None
    raw: list[float] = []
    scaled: list[float] = []
    labels: list[str] = []
    failures: list[str] = []
    try:
        if tracer is not None:
            tracer.install()
        loop_start = time.perf_counter()
        last_round = 0.0
        for ops in workload.rounds():
            elapsed = time.perf_counter() - loop_start
            if raw and (smoke or elapsed + last_round > seconds):
                break
            round_start = time.perf_counter()
            for op in ops:
                gc.collect()
                if tracer is not None:
                    tracer.begin_op(len(raw))
                    span = tracer.open(tracing.OP_SPAN)
                output, error, wall, reference = timed(op.run)
                if tracer is not None:
                    tracer.close(span)
                raw.append(wall)
                scaled.append(reference)
                labels.append(f"{op.kind} {op.label}")
                if error is None:
                    if tracer is not None:
                        span = tracer.open(tracing.CHECK_SPAN)
                    try:
                        op.check(output)
                    except Exception as exc:
                        error = exc
                    if tracer is not None:
                        tracer.close(span)
                if error is not None:
                    failures.append(f"{op.kind} {op.label}: {type(error).__name__}: {error}")
            last_round = time.perf_counter() - round_start
    finally:
        if tracer is not None:
            tracer.finish()
            tracer.restore()
        shutil.rmtree(tmp, ignore_errors=True)
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        raise RuntimeError(f"wrappers left behind: {leftovers}")

    attempted, failed = len(raw), len(failures)
    p50 = statistics.median(scaled)
    if tracer is not None:
        layers = tracer.layer_totals([x / r for x, r in zip(scaled, raw)])
        metrics = layer_metrics(layers, tracer, attempted, p50)
        tracer.write_spans(os.path.join(OUT, f"spans-{name}.json"))
    else:
        metrics = {
            "op_ms.p50": (p50, "ms"),
            "ops_per_s": (attempted / (sum(scaled) / 1000.0), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (statistics.median(setup_scaled), "s"),
        }
        layers = None
    return {
        "workload": name,
        "trace": int(trace),
        "smoke": smoke,
        "env": environment(seed),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures[:10],
        "setup_s": {"raw": setup_raw, "scaled": setup_scaled},
        "op_ms": {
            "n": attempted,
            "p50": p50,
            "tail": tail_percentile(scaled),
            "raw_p50": statistics.median(raw),
            "raw_tail": tail_percentile(raw),
            "raw": raw,
            "scaled": scaled,
            "labels": labels,
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "layers": layers,
    }


def result_line(record: dict, metric_names: list[str]) -> dict:
    """The result line: the metrics BENCHMARK.json lists for this mode."""
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record["metrics"][name] for name in metric_names},
    }


def print_summary(record: dict) -> None:
    env = record["env"]
    print(f"workload {record['workload']}  seed {env['seed']}  trace {record['trace']}  "
          f"ops {record['attempted']}  failed {record['failed']}  "
          f"fail_ratio {record['fail_ratio']}")
    for failure in record["failures"]:
        print(f"  FAIL {failure}")
    op_ms = record["op_ms"]
    print(f"  {op_ms['n']} ops; wall-clock op_ms.p50 = {op_ms['raw_p50']:.3f} ms, "
          f"at reference speed {op_ms['p50']:.3f} ms")
    for key, kind in (("raw_tail", "wall-clock"), ("tail", "at reference speed")):
        if op_ms[key]:
            print(f"  {kind} {op_ms[key][0]} = {op_ms[key][1]:.3f} ms")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if record["layers"]:
        print("  layer totals over the run (calls, total ms, self ms):")
        for layer, entry in sorted(record["layers"].items()):
            print(f"    {layer:<40} {entry['calls']:>9} {entry['total_ms']:>12.2f} "
                  f"{entry['self_ms']:>12.2f}")
    print("env " + json.dumps(env))


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    code = 0
    for name in workloads.WORKLOADS:
        p50 = {}
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            if args.smoke:
                argv.append("--smoke")
            if args.record:
                argv += ["--record", args.record]
            done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {done.returncode}\n{done.stderr}")
                code = 1
                continue
            result = json.loads(lines[-1])
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
            p50[trace] = result["metrics"]["trace.op_ms.p50" if trace else "op_ms.p50"]["value"]
            code |= 0 if result["correct"] else 1
        if len(p50) == 2:
            print(f"  tracing overhead on op_ms.p50 = {p50[1] - p50[0]:.3f} ms")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny dims, one round")
    parser.add_argument("--record", help="append the full run record to this JSON-lines file")
    parser.add_argument("--compare", nargs="+", metavar="RECORDS",
                        help="one record file: spreads; two: parent vs change")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gdoa_susy", "__init__.py")):
        print(f"error: no gdoa_susy package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.compare:
        return compare.main(args.compare, spec)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.workload == "all":
        return run_all(args)

    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (workloads.SentinelError, workloads.CheckError) as exc:
        print(f"set-up failed: {exc}; no numbers reported", file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print_summary(record)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps(result_line(record, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
