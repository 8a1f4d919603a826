"""Spread and parent-vs-change comparison over recorded benchmark runs.

With one record file, report for each workload x metric the median, the
quartiles and the spread (interquartile distance as a share of the median)
against the metric's bound.  With two files (parent first), also report the
change's win fraction over pairs and a verdict:

* better: the change wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  distance;
* unresolved: the parent's spread is wider than the bound and not every run
  of the change beats every run of the parent;
* worse: the change's median is worse than the parent's by more than the bound;
* within bound: otherwise.

Per-layer metrics have no bound; they are reported better, worse or "no
claim" by the same pair rule.  Pairs match runs of equal seed, else runs in
recorded order.
"""

from __future__ import annotations

import json
import statistics


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _series(records: list[dict]) -> dict[tuple[str, str], list[tuple[int, float]]]:
    out: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for record in records:
        for metric, entry in record["metrics"].items():
            key = (record["workload"], metric)
            out.setdefault(key, []).append((record["env"]["seed"], entry["value"]))
    return out


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else float("inf")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread}


def _pairs(base: list[tuple[int, float]], change: list[tuple[int, float]]):
    base_by_seed, change_by_seed = dict(base), dict(change)
    common = sorted(set(base_by_seed) & set(change_by_seed))
    if len(common) >= min(len(base), len(change)):
        return [(base_by_seed[s], change_by_seed[s]) for s in common]
    return list(zip([v for _, v in base], [v for _, v in change]))


def verdict(base: list[tuple[int, float]], change: list[tuple[int, float]],
            lower_is_better: bool, bound: float | None) -> dict:
    sign = -1.0 if lower_is_better else 1.0
    b = summary([v for _, v in base])
    c = summary([v for _, v in change])
    pairs = _pairs(base, change)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    gap = abs(c["median"] - b["median"])
    iqr = b["q3"] - b["q1"]
    worse_share = sign * (b["median"] - c["median"]) / b["median"] if b["median"] else 0.0
    all_better = all(sign * (y - x) > 0 for _, x in base for _, y in change)
    if win_fraction >= 0.9 and gap > iqr:
        result = "better"
    elif bound is None:
        lost = len(pairs) and losses / len(pairs) >= 0.9 and gap > iqr
        result = "worse" if lost else "no claim"
    elif b["spread"] > bound and not all_better:
        result = "unresolved"
    elif worse_share > bound:
        result = "worse"
    else:
        result = "within bound"
    return {"parent": b, "change": c, "pairs": len(pairs), "win_fraction": win_fraction,
            "worse_share": worse_share, "verdict": result}


def _metric_specs(spec: dict) -> dict[str, dict]:
    specs = {m["name"]: m for m in spec["end_to_end"]}
    specs.update({m["name"]: {**m, "bound": None} for m in spec["per_layer"]})
    return specs


def main(paths: list[str], spec: dict) -> int:
    specs = _metric_specs(spec)
    sets = [_series(load(path)) for path in paths[:2]]
    if len(sets) == 1:
        steady = True
        print(f"{'workload':<16} {'metric':<34} {'n':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}")
        for (workload, metric), values in sorted(sets[0].items()):
            s = summary([v for _, v in values])
            bound = specs.get(metric, {}).get("bound")
            flag = ""
            if bound is not None and metric != "setup_s":
                flag = "steady" if s["spread"] <= bound / 3 else (
                    "ok" if s["spread"] <= bound else "TOO WIDE")
                steady &= s["spread"] <= bound
            print(f"{workload:<16} {metric:<34} {s['n']:>3} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
        return 0 if steady else 1
    base, change = sets
    worse = False
    print(f"{'workload':<16} {'metric':<34} {'parent':>12} {'change':>12} "
          f"{'wins':>5} {'verdict'}")
    for key in sorted(set(base) & set(change)):
        workload, metric = key
        meta = specs.get(metric, {"better": "lower", "bound": None})
        v = verdict(base[key], change[key], meta["better"] == "lower", meta["bound"])
        worse |= v["verdict"] == "worse" and meta["bound"] is not None
        print(f"{workload:<16} {metric:<34} {v['parent']['median']:>12.6g} "
              f"{v['change']['median']:>12.6g} {v['win_fraction']:>5.2f} {v['verdict']}"
              f"  (parent q1..q3 {v['parent']['q1']:.6g}..{v['parent']['q3']:.6g}, "
              f"change q1..q3 {v['change']['q1']:.6g}..{v['change']['q3']:.6g})")
    return 1 if worse else 0
