"""In-process A/B of the library at a base revision against the working tree.

Usage, from anywhere inside a checkout:

    python tools/ab.py --base HEAD --workload churn --seed 1009

The base's ``src/`` is taken with ``git archive`` into a temporary
directory and imported as the package ``threadkd_base``; the working
tree's ``src/`` is imported as ``threadkd_head``.  Both sides get the
same seeded inputs, made by ``perfbench/run.py``'s generators, and each
builds its own index with ``from_points``.

The operations run in slices of ``SLICE`` calls, 2000 on churn and 500
else: window queries cycling the workload's windows, or on ``churn`` the
seeded operation stream, which each side applies to its own index from
its start.  A pass builds a fresh
pair of indexes and runs four slices in the order base, head, head, base,
so a drift in the machine's speed weighs on both sides alike, and both
sides have run the same calls when it ends.  Every result is compared
between the sides, outside the timed calls; a difference stops the run.

The pair is built base first on one pass and head first on the next: in
A/A runs the index built second ran up to 7% faster, whichever side built
it.  So each pass gives the head's median call time over the base's, the
figure ``op_p50_us`` gates, and each pair of passes, one per build order,
gives their geometric mean.  The report gives the median of those
``--passes`` ratios, a distribution-free 95% interval of that median
(order statistics), the quartiles, and the ratios under 1, the passes the
head won, with the last line one JSON object.  On ``churn`` the same
figures follow for two of perfbench's per-kind ones, taken from each
pass's slices in the same way: the p99 of the inserts and the p50 of the
``contains`` calls, under ``by_kind`` in the JSON.  An A/A run,
``--base HEAD`` on a clean tree, reads how far apart two copies of the
same code time on this machine.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from time import perf_counter_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
# calls per slice: 2000 of churn's cheap updates, 500 window queries else
SLICE = {"churn": 2000}
# churn's per-kind figures beside op p50: name, operation, percentile
BY_KIND = (("insert p99", "insert", 99), ("contains p50", "contains", 50))


def load_package(name: str, src: str):
    """Import the ``threadkd`` package under ``src`` as ``name``; its
    relative imports resolve inside the copy."""
    init = os.path.join(src, "threadkd", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    importlib.import_module(f"{name}.query")
    return pkg


def archive_src(rev: str, into: str) -> str:
    """``src/`` at ``rev``, written under ``into``; returns its path."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev,
                          "src"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(into, filter="data")
    return os.path.join(into, "src")


def load_inputs():
    """perfbench/run.py as a module, for its seeded input generators."""
    sys.path.insert(0, PERFBENCH)
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


class Side:
    """One library copy with its own index and, on churn, its own stream."""

    def __init__(self, pkg, run, wl, points, seed):
        self.query = pkg.query.window_query
        self.idx = pkg.KdPointIndex.from_points(wl.k, run.B, points)
        if wl.windows is None:
            self.stream = run.OpStream(points, wl.k, seed)
        self.pos = 0

    def queries(self, windows, n):
        """The next ``n`` windows' results and call times."""
        out, ns = [], []
        query, idx, m = self.query, self.idx, len(windows)
        for a in range(self.pos, self.pos + n):
            w = windows[a % m]
            t0 = perf_counter_ns()
            got = query(idx, w)[0]
            ns.append(perf_counter_ns() - t0)
            out.append(got)
        self.pos += n
        return out, ns

    def ops(self, run, n):
        """The next ``n`` stream operations' results and call times, and
        the call times of each kind, by the kind's method name."""
        idx = self.idx
        fns = {run.INSERT: idx.insert, run.DELETE: idx.delete,
               run.CONTAINS: idx.contains}
        out, ns = [], []
        kinds = {fn.__name__: [] for fn in fns.values()}
        for _ in range(n):
            kind, p = self.stream.next()
            fn = fns[kind]
            t0 = perf_counter_ns()
            got = fn(p)
            t = perf_counter_ns() - t0
            ns.append(t)
            kinds[fn.__name__].append(t)
            out.append(got)
        return out, ns, kinds


def percentile(xs: list[int], q: int) -> float:
    """The q-th percentile of ``xs``, q in 1..99; the median for 50."""
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def passes(run, wl, inp, seed, pkgs, count, size) -> dict[str, list[float]]:
    """``count`` ABBA passes of ``size``-call slices, each on a fresh
    pair of indexes; the head's median call time over the base's in each,
    under "op p50", and on churn each ``BY_KIND`` figure's ratio too.

    The pair is built base first on even passes and head first on odd
    ones: in A/A runs the index built second ran up to 7% faster,
    whichever side built it, so only a pass and the next one together
    weigh the sides alike."""
    def slice_of(side):
        if wl.windows is None:
            return side.ops(run, size)
        return (*side.queries(inp.windows, size), None)

    def kind_ratio(kind, q, head, base):
        # the kind's percentile over both slices of each side
        return (percentile([t for k in head for t in k[kind]], q)
                / percentile([t for k in base for t in k[kind]], q))

    ratios: dict[str, list[float]] = {"op p50": []}
    for p in range(count):
        base = head = built = None
        gc.collect()
        built = {pkg: Side(pkg, run, wl, inp.points, seed)
                 for pkg in (pkgs if p % 2 == 0 else pkgs[::-1])}
        base, head = built[pkgs[0]], built[pkgs[1]]
        gc.collect()
        a1, ta1, ka1 = slice_of(base)
        b1, tb1, kb1 = slice_of(head)
        b2, tb2, kb2 = slice_of(head)
        a2, ta2, ka2 = slice_of(base)
        if a1 != b1 or a2 != b2:
            sys.exit(f"ab: results differ on {wl.name} in pass {p + 1}")
        ratios["op p50"].append(statistics.median(tb1 + tb2)
                                / statistics.median(ta1 + ta2))
        if ka1 is not None:
            for name, kind, q in BY_KIND:
                ratios.setdefault(name, []).append(
                    kind_ratio(kind, q, (kb1, kb2), (ka1, ka2)))
    return ratios


def median_interval(xs: list[float]) -> tuple[float, float]:
    """A distribution-free 95% interval of the median of ``xs``: the order
    statistics at n/2 -+ 1.96 sqrt(n)/2."""
    s = sorted(xs)
    n = len(s)
    half = 1.96 * math.sqrt(n) / 2
    lo = max(0, math.floor(n / 2 - half))
    hi = min(n - 1, math.ceil(n / 2 + half) - 1)
    return s[lo], s[hi]


def summary(ratios: list[float]) -> dict:
    """The report of one figure's per-pass ratios: one per pass pair, one
    build order each, their geometric mean; the median, its 95% interval,
    the quartiles and the pairs the head won."""
    ratios = [math.sqrt(a * b) for a, b in zip(ratios[::2], ratios[1::2])]
    lo, hi = median_interval(ratios)
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    return {"ratio_median": round(med, 4),
            "interval_95": [round(lo, 4), round(hi, 4)],
            "quartiles": [round(q1, 4), round(q3, 4)],
            "head_won": sum(r < 1 for r in ratios), "passes": len(ratios)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare")
    ap.add_argument("--workload", required=True,
                    choices=["lead-narrow", "square", "churn"])
    ap.add_argument("--seed", type=int, default=1009)
    ap.add_argument("--passes", type=int, default=20,
                    help="pass pairs, one per build order")
    args = ap.parse_args(argv)

    run = load_inputs()
    wl = run.WORKLOADS[args.workload]
    inp = run.Inputs(wl, args.seed)
    size = SLICE.get(wl.name, 500)
    with tempfile.TemporaryDirectory() as tmp:
        base_pkg = load_package("threadkd_base", archive_src(args.base, tmp))
        head_pkg = load_package("threadkd_head", os.path.join(ROOT, "src"))
        ratios = passes(run, wl, inp, args.seed, (base_pkg, head_pkg),
                        2 * args.passes, size)
    report = {name: summary(rs) for name, rs in ratios.items()}
    for name, r in report.items():
        (lo, hi), (q1, q3) = r["interval_95"], r["quartiles"]
        print(f"{args.workload} seed {args.seed}: head/base {name} "
              f"{r['ratio_median']:.3f} (95% interval {lo:.3f}-{hi:.3f}, "
              f"quartiles {q1:.3f}-{q3:.3f}); head won {r['head_won']} of "
              f"{r['passes']} passes")
    by_kind = {name.replace(" ", "_"): report.pop(name)
               for name, _, _ in BY_KIND if name in report}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "base": args.base, "slice": size, **report["op p50"],
                      **({"by_kind": by_kind} if by_kind else {})}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
