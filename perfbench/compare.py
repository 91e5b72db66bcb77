#!/usr/bin/env python3
"""Compare two sets of benchmark runs, per workload and per metric.

Usage:

    python3 perfbench/compare.py OLD NEW

OLD and NEW are each a file or a directory of files holding the standard
output of ``run.py`` runs (any number of runs per file).  Runs are read
from their ``detail`` lines and grouped by workload and by ``--trace``.

For every metric it prints each side's median and quartiles, the change
of the medians, and one verdict:

- ``better``: the new side wins at least nine tenths of the pairs (runs
  with the same seed; without common seeds, every new run must beat every
  old run) and the medians differ by more than the old runs' quartile
  spread;
- ``worse``: the new median is worse than the old one by more than the
  bound (end-to-end metrics take theirs from BENCHMARK.json; the other
  latencies of the detail line, p99s included, take the bound of
  ``op_p50_us``, and its rates that of ``ops_per_s``);
- ``unresolved``: neither, and the old runs spread wider than the bound;
- ``unchanged``: neither, and the old runs spread within the bound.

Per-layer metrics have no bound and no direction, so they get medians
only.  The exit code is 1 if an input digest or a deterministic counter
differs between any two runs of one workload, trace mode and seed, or if
any run had a failed operation; otherwise 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> list[dict]:
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = []
    for fname in files:
        with open(fname) as f:
            for line in f:
                if line.startswith("detail "):
                    runs.append(json.loads(line[len("detail "):]))
    if not runs:
        sys.exit(f"compare: no benchmark runs found in {path}")
    return runs


def bounds() -> dict[str, tuple[str, float]]:
    """metric -> (better, bound), for every metric that has a bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    for op in ("op", "query", "insert", "delete", "contains"):
        for q in ("p50", "p99"):
            for unit in ("us", "ms"):
                out.setdefault(f"{op}_{q}_{unit}", out["op_p50_us"])
    out["queries_per_s"] = out["ops_per_s"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old: dict[int, float], new: dict[int, float], better: str,
            bound: float) -> str:
    """old/new map seed -> value (median over that seed's runs)."""
    sign = 1 if better == "higher" else -1
    o1, mo, o3 = quartiles(list(old.values()))
    _, mn, _ = quartiles(list(new.values()))
    gain = sign * (mn - mo)
    if -gain > bound * abs(mo):
        return "worse"
    seeds = old.keys() & new.keys()
    if seeds:
        wins = sum(1 for s in seeds if sign * (new[s] - old[s]) > 0)
        won = wins >= 0.9 * len(seeds)
    else:
        won = sign * (min(new.values(), key=lambda v: sign * v)
                      - max(old.values(), key=lambda v: sign * v)) > 0
    if won and gain > o3 - o1:
        return "better"
    if o3 - o1 > bound * abs(mo):
        return "unresolved"
    return "unchanged"


def by_seed(runs: list[dict], metric: str) -> dict[int, float]:
    values: dict[int, list[float]] = {}
    for r in runs:
        m = r["metrics"].get(metric)
        if m is not None:
            values.setdefault(r["seed"], []).append(m["value"])
    return {s: statistics.median(v) for s, v in values.items()}


def drift(old_runs: list[dict], new_runs: list[dict]) -> list[str]:
    """Digest or counter differences between runs of one workload, trace, seed."""
    first: dict[tuple, dict] = {}
    out = []
    for side, runs in (("old", old_runs), ("new", new_runs)):
        for r in runs:
            key = (r["workload"], r["trace"], r["seed"])
            ref = first.setdefault(key, r)
            for field in ("digest", "counters"):
                if r[field] != ref[field]:
                    out.append(f"{key[0]} trace={key[1]} seed={key[2]}: {field} "
                               f"differs ({side} run)")
            if r["failed"]:
                out.append(f"{key[0]} trace={key[1]} seed={key[2]}: "
                           f"{r['failed']} failed operations ({side} run)")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_runs, new_runs = load_runs(argv[0]), load_runs(argv[1])
    limits = bounds()
    groups = sorted({(r["workload"], r["trace"]) for r in old_runs + new_runs})
    for workload, trace in groups:
        old = [r for r in old_runs if (r["workload"], r["trace"]) == (workload, trace)]
        new = [r for r in new_runs if (r["workload"], r["trace"]) == (workload, trace)]
        print(f"\n{workload} (trace={trace}): {len(old)} old runs, {len(new)} new runs")
        if not old or not new:
            print("  one side has no runs; nothing to compare")
            continue
        names = sorted({n for r in old + new for n in r["metrics"]})
        print(f"  {'metric':<32} {'old median [q1, q3]':<36} "
              f"{'new median [q1, q3]':<36} {'change':>7}  verdict")
        for name in names:
            o, n = by_seed(old, name), by_seed(new, name)
            if not o or not n:
                continue
            oq, nq = quartiles(list(o.values())), quartiles(list(n.values()))
            change = (nq[1] - oq[1]) / oq[1] if oq[1] else float("nan")
            if name in limits:
                better, bound = limits[name]
                v = f"{verdict(o, n, better, bound)} (bound {bound:.0%}, {better} is better)"
            else:
                v = "-"
            old_s = f"{oq[1]:.6g} [{oq[0]:.6g}, {oq[2]:.6g}]"
            new_s = f"{nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]"
            print(f"  {name:<32} {old_s:<36} {new_s:<36} {change:>+7.1%}  {v}")
    problems = drift(old_runs, new_runs)
    for p in problems:
        print("PROBLEM " + p)
    if problems:
        return 1
    print("\nno digest or counter drift, no failed operations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
