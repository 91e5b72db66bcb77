#!/usr/bin/env python3
"""Seeded end-to-end benchmark for the threadkd index.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload square --seed 1 --seconds 9 --trace 0

One process, one client thread, closed loop: each call starts when the
previous one has returned.  The library is loaded from ``src/`` of the
checkout and driven only through ``KdPointIndex.from_points``, ``insert``,
``delete``, ``contains`` and ``window_query``.  Inputs are generated here
from ``--seed`` (not by ``threadkd.workload``) and their SHA-256 digest is
printed, so a change to the library cannot silently change the data.

Every result is checked: windows against a numpy mask over an array built
once per run, point operations against a Python set oracle, and, at the
end of ``churn``, ``points()`` against the sorted oracle and ``validate()``
against ``[]``.  A wrong or raising call counts as failed and makes the
exit code 1.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that wraps library functions (see ``spans.py``) and prints the
per-layer metrics.  Output: one line per metric, a ``detail`` JSON line
with every figure, deterministic counters and the input digest (read by
``compare.py``), and as the last line the result JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import statistics
import sys
import tracemalloc
import traceback
from time import perf_counter_ns
from typing import Callable, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

B = 4096                 # coordinate universe [0, B) on every axis
WINDOWS = 1000           # distinct windows per query workload, cycled while timing
SETUP_BUILDS = 3         # from_points repeats per run; setup_s is their median
MEM_OPS = 20_000         # churn operations applied before the memory snapshot
TRACE_OPS = 10_000       # churn operations per pass of the traced run
WRITE_SAMPLE = 4_000     # point operations traced on the query workloads
QUERY_SAMPLE = 200       # cubes traced on churn, after its operation stream
SLICE_NS = 500_000_000   # timed slice; op_p50_us averages the slices' medians

INSERT, DELETE, CONTAINS = "insert", "delete", "contains"


def load_library():
    """Import threadkd from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import numpy
        import threadkd
        import threadkd.query
    except ImportError as e:
        sys.exit(f"perfbench: cannot import the library from {SRC}: {e}")
    pkg = os.path.dirname(os.path.abspath(threadkd.__file__))
    if pkg != os.path.join(SRC, "threadkd"):
        sys.exit(f"perfbench: threadkd resolved to {pkg}, not to {SRC}")
    return numpy, threadkd, pkg


np, tk, PKG_DIR = load_library()

from spans import GcClock, Tracer  # noqa: E402  (after the path check above)


# -- inputs ---------------------------------------------------------------

def gen_points(rng: random.Random, n: int, k: int) -> list[tuple]:
    """n distinct uniform points in [0, B)^k."""
    seen: set = set()
    out = []
    bits = B.bit_length() - 1
    mask = B - 1
    while len(out) < n:
        v = rng.getrandbits(bits * k)
        p = tuple((v >> (bits * j)) & mask for j in range(k))
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def lead_narrow_windows(rng: random.Random, m: int, k: int) -> list:
    """Span 8 on coordinate 0 and B/2 on coordinate 1: about 100 hits at n=1e5."""
    out = []
    for _ in range(m):
        lo0 = rng.randrange(B - 8 + 1)
        lo1 = rng.randrange(B - B // 2 + 1)
        out.append([(lo0, lo0 + 7), (lo1, lo1 + B // 2 - 1)])
    return out


def cube_windows(rng: random.Random, m: int, k: int) -> list:
    """Cubes at random positions: two of side B/64, then one of side B/16.

    Not half of each: the two sizes differ about sixfold in latency, so
    with an even split the median would fall in the gap between the two
    modes and jump between them from run to run.  With two to one it lies
    inside the small-cube mode and the p99 inside the large-cube mode.
    """
    out = []
    for i in range(m):
        side = B // 16 if i % 3 == 2 else B // 64
        w = []
        for _ in range(k):
            lo = rng.randrange(B - side + 1)
            w.append((lo, lo + side - 1))
        out.append(w)
    return out


class OpStream:
    """Seeded churn stream: 40% insert of a fresh point, 40% delete of a
    stored one, 20% contains (half stored, half fresh).

    It tracks the live set itself, so the operations it yields depend only
    on the seed and the initial points, never on the index under test.
    """

    def __init__(self, points: list[tuple], k: int, seed: int):
        self.rng = random.Random(f"churn-ops:{seed}")
        self.k = k
        self.live = list(points)
        self.pos = {p: i for i, p in enumerate(self.live)}

    def _fresh(self) -> tuple:
        rng, k = self.rng, self.k
        while True:
            p = tuple(rng.randrange(B) for _ in range(k))
            if p not in self.pos:
                return p

    def _stored(self) -> tuple:
        return self.live[self.rng.randrange(len(self.live))]

    def next(self) -> tuple[str, tuple]:
        r = self.rng.random()
        if r < 0.4:
            p = self._fresh()
            self.pos[p] = len(self.live)
            self.live.append(p)
            return INSERT, p
        if r < 0.8:
            p = self._stored()
            i = self.pos.pop(p)
            last = self.live.pop()
            if last != p:
                self.live[i] = last
                self.pos[last] = i
            return DELETE, p
        return CONTAINS, (self._stored() if self.rng.random() < 0.5
                          else self._fresh())


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, separators=(",", ":")).encode())
    return "sha256:" + h.hexdigest()


class Workload(NamedTuple):
    name: str
    k: int
    n: int
    windows: Optional[Callable]     # window generator; None for churn


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("lead-narrow", 2, 100_000, lead_narrow_windows),
    Workload("square", 3, 100_000, cube_windows),
    Workload("churn", 3, 50_000, None),
)}


# -- checks and measurement helpers ----------------------------------------

class Checker:
    """Counts attempted and failed operations; reports the first few."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str, *args) -> None:
        """Count one result; on failure report `what % args` (first five only)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print("perfbench: FAILED " + what % args, file=sys.stderr)


def call(fn, *args):
    """fn(*args), or the exception it raised (reported, and compared as wrong)."""
    try:
        return fn(*args)
    except Exception as e:  # a raising call is a failed operation, not a crash
        return raised(e)


def raised(e: Exception) -> Exception:
    traceback.print_exception(e, limit=3, file=sys.stderr)
    return e


class PointArray:
    """Points as a lexicographically sorted int64 array, for numpy-mask windows."""

    def __init__(self, points, k):
        arr = np.array(points, dtype=np.int64).reshape(-1, k)
        arr = arr[np.lexsort(arr.T[::-1])]
        self.arr = arr
        self.cols = [np.ascontiguousarray(arr[:, j]) for j in range(k)]

    def query(self, window) -> list[tuple]:
        (lo, hi), *rest = window
        c = self.cols[0]
        m = (c >= lo) & (c <= hi)
        for j, (lo, hi) in enumerate(rest, 1):
            c = self.cols[j]
            m &= (c >= lo) & (c <= hi)
        return list(map(tuple, self.arr[m].tolist()))


class Phases:
    """Wall time of each phase of a run, for the detail line."""

    def __init__(self):
        self.t = perf_counter_ns()
        self.seconds: dict[str, float] = {}

    def mark(self, name: str) -> None:
        now = perf_counter_ns()
        self.seconds[name] = round((now - self.t) / 1e9, 3)
        self.t = now


def p50(samples) -> float:
    return statistics.median(samples)


def p99(samples) -> float:
    s = sorted(samples)
    return s[max(0, math.ceil(0.99 * len(s)) - 1)]


COUNTER_FIELDS = ("tree_nodes_visited", "trie_nodes_visited", "threads_followed",
                  "cross_links_followed", "trie_lookups", "rotations")


def add_stats(acc: dict, st) -> None:
    for f in COUNTER_FIELDS:
        acc[f] = acc.get(f, 0) + getattr(st, f)


# -- timed loops ------------------------------------------------------------

class Recorder:
    """Operation latencies (ns): in call order, by kind, and cut into slices
    of SLICE_NS of wall time.  A slice never spans two rounds."""

    def __init__(self):
        self.all: list[int] = []
        self.by_kind: dict[str, list[int]] = {}
        self.cuts: list[int] = []
        self._next = None

    def add(self, kind: str, t0: int, t1: int) -> None:
        self.all.append(t1 - t0)
        self.by_kind.setdefault(kind, []).append(t1 - t0)
        if self._next is None:
            self._next = t0 + SLICE_NS
        elif t1 >= self._next:
            self.cuts.append(len(self.all))
            self._next = t1 + SLICE_NS

    def new_round(self) -> None:
        if self.all and (not self.cuts or self.cuts[-1] != len(self.all)):
            self.cuts.append(len(self.all))
        self._next = None

    def slices(self) -> list[list[int]]:
        bounds = [0] + self.cuts + [len(self.all)]
        return [self.all[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]

    def total_ns(self) -> int:
        return sum(self.all)


class QueryLoop:
    """Closed loop of window queries cycling `windows`, each result checked.

    The cycle position carries over from one `run` to the next.  The
    VisitStats counters cover the first pass over the windows only, so
    they are the same on every run with the same seed.
    """

    def __init__(self, query, windows, expected, checker):
        self.query = query
        self.windows = windows
        self.expected = expected
        self.checker = checker
        self.i = 0
        self.counters = {"queries": 0, "hits": 0, "candidates": 0}
        self.rec = Recorder()

    def run(self, idx, seconds: Optional[float] = None) -> Recorder:
        """Queries on `idx` until `seconds` have passed (None: for one
        pass), and never before the first pass is complete."""
        query, windows, expected, checker = (self.query, self.windows,
                                             self.expected, self.checker)
        m = len(windows)
        stop = self.i + m if seconds is None else m
        deadline = 0 if seconds is None else perf_counter_ns() + int(seconds * 1e9)
        rec = self.rec
        rec.new_round()
        while True:
            i = self.i
            w = windows[i % m]
            t0 = perf_counter_ns()
            try:
                got = query(idx, w)
            except Exception as e:  # counted as a failed query below
                got = raised(e)
            t1 = perf_counter_ns()
            rec.add("query", t0, t1)
            ok = isinstance(got, tuple) and got[0] == expected[i % m]
            checker.record(ok, "window %s", w)
            if ok and i < m:
                hits, st = got
                c = self.counters
                c["queries"] += 1
                c["hits"] += len(hits)
                c["candidates"] += sum(st.per_level_candidates)
                add_stats(c, st)
            self.i = i + 1
            if self.i >= stop and t1 >= deadline:
                return rec


def op_pass(idx, stream, oracle, checker, seconds=None, count=None,
            stats=None, rec=None) -> Recorder:
    """Closed loop over the churn stream, each result checked; latencies go
    to `rec` (a new Recorder if None), which is returned.

    With `stats`, insert and delete receive that VisitStats to add to.
    """
    fns = {INSERT: idx.insert, DELETE: idx.delete, CONTAINS: idx.contains}
    rec = Recorder() if rec is None else rec
    rec.new_round()
    deadline = None if seconds is None else perf_counter_ns() + int(seconds * 1e9)
    done = 0
    while True:
        kind, p = stream.next()
        expect = (p not in oracle) if kind == INSERT else (p in oracle)
        fn = fns[kind]
        t0 = perf_counter_ns()
        try:
            got = fn(p) if stats is None or kind == CONTAINS else fn(p, stats)
        except Exception as e:  # counted as a failed operation below
            got = raised(e)
        t1 = perf_counter_ns()
        rec.add(kind, t0, t1)
        checker.record(got is expect, "%s%s returned %r", kind, p, got)
        if kind == INSERT:
            oracle.add(p)
        elif kind == DELETE:
            oracle.discard(p)
        done += 1
        if (count is not None and done >= count) or \
                (deadline is not None and t1 >= deadline):
            return rec


def final_checks(idx, oracle, checker) -> None:
    checker.record(list(idx.points()) == sorted(oracle),
                   "points() differs from the oracle")
    violations = call(idx.validate)
    checker.record(violations == [], "validate() returned %r", violations)


def memory_pass(build, after=None):
    """Build (and run `after`) under tracemalloc; bytes per package file.

    Never timed: tracemalloc slows allocation several-fold.  Only memory
    allocated from the library's own files counts.  The collector is off
    while tracing, which saves time; one collection before the snapshot
    still frees any cyclic garbage.
    """
    idx = None
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        idx = build()
        if after is not None:
            after(idx)
        gc.collect()
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        gc.enable()
    by_file: dict[str, int] = {}
    for st in snap.statistics("filename"):
        fname = st.traceback[0].filename
        if os.path.dirname(os.path.abspath(fname)) == PKG_DIR:
            by_file[os.path.basename(fname)] = st.size
    return idx, by_file


# -- the two kinds of run ---------------------------------------------------

class Inputs:
    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.points = gen_points(random.Random(f"{wl.name}:{seed}:points"),
                                 wl.n, wl.k)
        self.seed = seed
        if wl.windows is not None:
            self.windows = wl.windows(random.Random(f"{wl.name}:{seed}:windows"),
                                      WINDOWS, wl.k)
            self.digest = digest([wl.name, wl.k, wl.n, B], self.points,
                                 self.windows)
        else:
            self.windows = None
            s = self.stream()
            ops = [s.next() for _ in range(MEM_OPS)]
            self.digest = digest([wl.name, wl.k, wl.n, B], self.points, ops)

    def build(self):
        return tk.KdPointIndex.from_points(self.wl.k, B, self.points)

    def stream(self) -> OpStream:
        return OpStream(self.points, self.wl.k, self.seed)

    def churn_memory(self, checker):
        def after(idx):
            op_pass(idx, self.stream(), set(self.points), checker, count=MEM_OPS)
        return after


def expected_results(points, k, windows):
    """numpy-mask answers for each window, with the time of each mask query."""
    arr = PointArray(points, k)
    expected, lat = [], []
    for w in windows:
        t0 = perf_counter_ns()
        expected.append(arr.query(w))
        lat.append(perf_counter_ns() - t0)
    return expected, lat


def end_to_end(inp: Inputs, seconds: int, checker: Checker, ph: Phases):
    """Untraced run: SETUP_BUILDS rounds of a timed build from empty followed
    by `seconds`/SETUP_BUILDS of timed operations on the new index.

    Spreading the builds and the timed operations over the whole run, and
    averaging per-slice medians, makes the figures follow the share of a
    run that the machine was slow instead of jumping with it.
    """
    wl = inp.wl
    part_s = seconds / SETUP_BUILDS
    setup_ns = []
    if wl.windows is not None:
        expected, _ = expected_results(inp.points, wl.k, inp.windows)
        loop = QueryLoop(tk.window_query, inp.windows, expected, checker)
        rec = loop.rec
        ph.mark("expected")
    else:
        rec = Recorder()
    idx = None
    for _ in range(SETUP_BUILDS):
        idx = None          # free the previous index before the next build
        gc.collect()
        t0 = perf_counter_ns()
        idx = inp.build()
        setup_ns.append(perf_counter_ns() - t0)
        gc.collect()        # start each round with the collector settled
        if wl.windows is not None:
            loop.run(idx, part_s)
        else:
            oracle = set(inp.points)
            op_pass(idx, inp.stream(), oracle, checker, seconds=part_s, rec=rec)
            final_checks(idx, oracle, checker)
    idx = None
    ph.mark("rounds")

    detail: dict = {}
    for kind, v in rec.by_kind.items():
        scale, unit = (1e6, "ms") if kind == "query" else (1e3, "us")
        detail[f"{kind}_p50_{unit}"] = (p50(v) / scale, unit)
        detail[f"{kind}_p99_{unit}"] = (p99(v) / scale, unit)
    rate = len(rec.all) * 1e9 / rec.total_ns()
    if wl.windows is not None:
        detail["queries_per_s"] = (rate, "1/s")
    slices = rec.slices()
    metrics = {
        "setup_s": (p50(setup_ns) / 1e9, "s"),
        "op_p50_us": (sum(p50(v) * len(v) for v in slices) / len(rec.all) / 1e3,
                      "us"),
        "ops_per_s": (rate, "1/s"),
    }
    detail.update(metrics)
    # Reported, not gated: see "Why no p99 is gated" in README.md.
    detail["op_p99_us"] = (p99(rec.all) / 1e3, "us")
    extra = {"samples": {kind: len(v) for kind, v in rec.by_kind.items()},
             "slices": len(slices), "setup_ns": setup_ns,
             "counters": loop.counters if wl.windows is not None else {},
             "phase_s": ph.seconds}
    return metrics, detail, extra


def tracer_for() -> Tracer:
    T = tk.ThreadedAvlTree
    R = tk.ThreadedTrie
    I = tk.KdPointIndex
    return Tracer([
        (tk.query, "window_query", "query.window_query"),
        (tk.query, "level_candidates", "query.level_candidates"),
        (T, "in_succ", "tree.in_succ"),
        (T, "insert_after", "tree.insert_after"),
        (T, "delete_node", "tree.delete_node"),
        (R, "succ_geq", "trie.succ_geq"),
        (R, "find", "trie.find"),
        (R, "insert", "trie.insert"),
        (R, "delete", "trie.delete"),
        (I, "insert", "index.insert"),
        (I, "delete", "index.delete"),
        (I, "contains", "index.contains"),
    ])


def traced_queries(tracer, idx, windows, expected, checker):
    """One traced pass over `windows`: query-side layer metrics."""
    with tracer.installed():
        loop = QueryLoop(tk.query.window_query, windows, expected, checker)
        loop.run(idx)
    c = loop.counters
    q = c["queries"]
    wall = tracer.total_ns("query.window_query")
    m = {
        "query.self_ms_per_query": ((tracer.self_ns("query.window_query")
                                     + tracer.self_ns("query.level_candidates"))
                                    / q / 1e6, "ms"),
        "query.candidates_per_hit": (c["candidates"] / max(1, c["hits"]), "count/hit"),
        "query.cross_links_per_query": (c["cross_links_followed"] / q, "count/query"),
        "query.tree_nodes_per_query": (c["tree_nodes_visited"] / q, "count/query"),
        "tree.in_succ.calls_per_query": (tracer.calls("tree.in_succ") / q, "count/query"),
        "tree.in_succ.self_share": (tracer.self_ns("tree.in_succ") / wall, "ratio"),
        "tree.threads_per_query": (c["threads_followed"] / q, "count/query"),
        "trie.succ_geq.calls_per_query": (tracer.calls("trie.succ_geq") / q, "count/query"),
        "trie.succ_geq.self_share": (tracer.self_ns("trie.succ_geq") / wall, "ratio"),
        "trie.nodes_per_lookup": (c["trie_nodes_visited"] / max(1, c["trie_lookups"]),
                                  "count/lookup"),
    }
    return m, c, wall


def traced_ops(tracer, idx, stream, oracle, checker, count):
    """A traced run of `count` churn operations: write-side layer metrics."""
    st = tk.VisitStats()
    with tracer.installed():
        rec = op_pass(idx, stream, oracle, checker, count=count, stats=st)
    n = {kind: len(rec.by_kind.get(kind, ())) for kind in (INSERT, DELETE, CONTAINS)}

    def per_call(name, total=True):
        calls = tracer.calls(name)
        ns = tracer.total_ns(name) if total else tracer.self_ns(name)
        return (ns / calls / 1e3 if calls else 0.0, "us")

    m = {
        "tree.insert_after.us_per_call": per_call("tree.insert_after"),
        "tree.delete_node.us_per_call": per_call("tree.delete_node"),
        "tree.rotations_per_op": (st.rotations / max(1, n[INSERT] + n[DELETE]),
                                  "count/op"),
        "trie.find.us_per_call": per_call("trie.find"),
        "trie.insert.us_per_call": per_call("trie.insert"),
        "trie.delete.us_per_call": per_call("trie.delete"),
        "index.insert.self_us": per_call("index.insert", total=False),
        "index.delete.self_us": per_call("index.delete", total=False),
        "index.contains.self_us": per_call("index.contains", total=False),
    }
    counters = {"ops": n}
    add_stats(counters, st)
    return m, counters, rec.total_ns()


def baselines(points, k, windows, expected, numpy_lat, threaded_lat, checker):
    """Naive kd-tree and numpy mask on the same windows as the index."""
    t0 = perf_counter_ns()
    naive = tk.NaiveKdTree.from_points(k, points)
    naive_setup = perf_counter_ns() - t0
    naive_lat = []
    for w, want in zip(windows, expected):
        t0 = perf_counter_ns()
        got = call(naive.query, w)
        naive_lat.append(perf_counter_ns() - t0)
        checker.record(got == want, "naive window %s", w)
    threaded = p50(threaded_lat) / 1e6
    naive_q = p50(naive_lat) / 1e6
    numpy_q = p50(numpy_lat) / 1e6
    return {
        "baseline.threaded.query_p50_ms": (threaded, "ms"),
        "baseline.naive.query_p50_ms": (naive_q, "ms"),
        "baseline.numpy.query_p50_ms": (numpy_q, "ms"),
        "baseline.naive.setup_s": (naive_setup / 1e9, "s"),
        "baseline.threaded_over_naive": (threaded / naive_q, "ratio"),
        "baseline.threaded_over_numpy": (threaded / numpy_q, "ratio"),
    }


def count_tries() -> int:
    return sum(1 for o in gc.get_objects() if isinstance(o, tk.ThreadedTrie))


def per_layer(inp: Inputs, checker: Checker, ph: Phases):
    """Traced run: every layer metric, each on this workload's own data.

    The query workloads add a traced sample of churn operations on their
    index, and churn adds a traced sample of cubes on its index after its
    stream, so every layer is reported on every workload; the end-to-end
    figures never include these samples.  Every pass here has a fixed
    length, so `--seconds` does not apply.
    """
    wl = inp.wl
    tracer = tracer_for()
    clock = GcClock()
    metrics: dict = {}
    counters: dict = {}
    with clock.running():
        gc.collect()
        g0, s0 = clock.read()
        t0 = perf_counter_ns()
        idx = inp.build()
        setup_ns = perf_counter_ns() - t0
        g1, s1 = clock.read()

        if wl.windows is not None:
            windows = inp.windows
            expected, numpy_lat = expected_results(inp.points, wl.k, windows)
            gc.collect()
            c0, n0 = clock.read()
            plain_lat = QueryLoop(tk.window_query, windows, expected,
                                  checker).run(idx).all
            c1, n1 = clock.read()
            plain_ns = sum(plain_lat)
            m, counters["query"], traced_ns = traced_queries(
                tracer, idx, windows, expected, checker)
            metrics.update(m)
            metrics.update(baselines(inp.points, wl.k, windows, expected,
                                     numpy_lat, plain_lat, checker))
            m, counters["write"], _ = traced_ops(
                tracer, idx, inp.stream(), set(inp.points), checker, WRITE_SAMPLE)
            metrics.update(m)
        else:
            oracle = set(inp.points)
            stream = inp.stream()
            gc.collect()
            c0, n0 = clock.read()
            plain_ns = op_pass(idx, stream, oracle, checker,
                               count=TRACE_OPS).total_ns()
            c1, n1 = clock.read()
            m, counters["write"], traced_ns = traced_ops(
                tracer, idx, stream, oracle, checker, TRACE_OPS)
            metrics.update(m)
            final_checks(idx, oracle, checker)
            points = stream.live    # the live set in stream order, not sorted,
                                    # so the naive kd-tree is not built from
                                    # sorted input
            windows = cube_windows(random.Random(f"{wl.name}:{inp.seed}:windows"),
                                   QUERY_SAMPLE, wl.k)
            expected, numpy_lat = expected_results(points, wl.k, windows)
            threaded_lat = QueryLoop(tk.window_query, windows, expected,
                                     checker).run(idx).all
            m, counters["query"], _ = traced_queries(tracer, idx, windows,
                                                     expected, checker)
            metrics.update(m)
            metrics.update(baselines(points, wl.k, windows, expected,
                                     numpy_lat, threaded_lat, checker))

    metrics["gc.setup_share"] = ((g1 - g0) / setup_ns, "ratio")
    metrics["gc.timed_share"] = ((c1 - c0) / plain_ns, "ratio")
    metrics["gc.gen2_collections"] = ((s1 - s0) + (n1 - n0), "count")
    metrics["trace.overhead_frac"] = (traced_ns / plain_ns - 1, "ratio")
    ph.mark("traced")

    idx = None
    after = inp.churn_memory(checker) if wl.windows is None else None
    idx, by_file = memory_pass(inp.build, after)
    live = len(idx)
    metrics["trie.count"] = (count_tries(), "count")
    idx = None
    metrics["bytes_per_pt"] = (sum(by_file.values()) / live, "B")
    for layer in ("tree", "trie", "index"):
        metrics[f"mem.{layer}_bytes_per_pt"] = (by_file.get(f"{layer}.py", 0) / live, "B")
    ph.mark("memory")
    extra = {"counters": counters, "bytes_by_file": by_file, "live_points": live,
             "setup_ns": [setup_ns], "phase_s": ph.seconds}
    return metrics, extra


# -- output -----------------------------------------------------------------

def emit(args, inp: Inputs, metrics: dict, detail: dict, extra: dict,
         checker: Checker) -> int:
    for name, (value, unit) in sorted(detail.items()):
        print(f"{name:<34} {value:>16.6f} {unit}")
    print(f"{'failed_frac':<34} {checker.failed / max(1, checker.attempted):>16.6f} "
          f"ratio ({checker.failed} of {checker.attempted})")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "digest": inp.digest,
        "python": sys.version.split()[0], "cpus": os.cpu_count(),
        "attempted": checker.attempted, "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in detail.items()},
        **extra,
    }
    print("detail " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if checker.failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    ph = Phases()
    inp = Inputs(WORKLOADS[args.workload], args.seed)
    ph.mark("inputs")
    wl = inp.wl
    print(f"# threadkd perfbench: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# inputs: k={wl.k} n={wl.n} B={B} digest={inp.digest}")
    checker = Checker()
    if args.trace:
        metrics, extra = per_layer(inp, checker, ph)
        detail = metrics
    else:
        metrics, detail, extra = end_to_end(inp, args.seconds, checker, ph)
    return emit(args, inp, metrics, detail, extra, checker)


if __name__ == "__main__":
    sys.exit(main())
