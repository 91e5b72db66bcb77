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
head won, with the last line one JSON object.  An A/A run, ``--base
HEAD`` on a clean tree, reads how far apart two copies of the same code
time on this machine.
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
        """The next ``n`` stream operations' results and call times."""
        idx = self.idx
        fns = {run.INSERT: idx.insert, run.DELETE: idx.delete,
               run.CONTAINS: idx.contains}
        out, ns = [], []
        for _ in range(n):
            kind, p = self.stream.next()
            fn = fns[kind]
            t0 = perf_counter_ns()
            got = fn(p)
            ns.append(perf_counter_ns() - t0)
            out.append(got)
        return out, ns


def passes(run, wl, inp, seed, pkgs, count, size) -> list[float]:
    """``count`` ABBA passes of ``size``-call slices, each on a fresh
    pair of indexes; the head's median call time over the base's in each.

    The pair is built base first on even passes and head first on odd
    ones: in A/A runs the index built second ran up to 7% faster,
    whichever side built it, so only a pass and the next one together
    weigh the sides alike."""
    def slice_of(side):
        if wl.windows is None:
            return side.ops(run, size)
        return side.queries(inp.windows, size)

    ratios = []
    for p in range(count):
        base = head = built = None
        gc.collect()
        built = {pkg: Side(pkg, run, wl, inp.points, seed)
                 for pkg in (pkgs if p % 2 == 0 else pkgs[::-1])}
        base, head = built[pkgs[0]], built[pkgs[1]]
        gc.collect()
        a1, ta1 = slice_of(base)
        b1, tb1 = slice_of(head)
        b2, tb2 = slice_of(head)
        a2, ta2 = slice_of(base)
        if a1 != b1 or a2 != b2:
            sys.exit(f"ab: results differ on {wl.name} in pass {p + 1}")
        ratios.append(statistics.median(tb1 + tb2)
                      / statistics.median(ta1 + ta2))
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
    # one figure per pass pair, one build order each: their geometric mean
    ratios = [math.sqrt(a * b) for a, b in zip(ratios[::2], ratios[1::2])]
    lo, hi = median_interval(ratios)
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    won = sum(r < 1 for r in ratios)
    print(f"{args.workload} seed {args.seed}: head/base op p50 "
          f"{med:.3f} (95% interval {lo:.3f}-{hi:.3f}, quartiles "
          f"{q1:.3f}-{q3:.3f}); head won {won} of {len(ratios)} passes")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "base": args.base, "passes": len(ratios),
                      "slice": size, "ratio_median": round(med, 4),
                      "interval_95": [round(lo, 4), round(hi, 4)],
                      "quartiles": [round(q1, 4), round(q3, 4)],
                      "head_won": won}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
