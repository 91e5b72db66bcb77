"""Benchmark and verification command line.

Subcommands:
  generate   write a points CSV (and optionally a companion queries CSV)
  verify     build the index from a points file, run every query against
             the index and the brute-force filter, check invariants
  bench      timed comparison of the threaded index, the naive kd-tree,
             and brute force over a generated workload

Exit codes: 0 success, 1 result mismatch or invariant violation,
2 usage or parse problems.

File formats: points CSV starts with `# k=<k> bound=<B>` followed by
one `x1,...,xk` row per point; queries CSV holds `lo1,hi1,...,lok,hik`
rows.  Blank lines and further `#` comments are ignored.  Non-integer
or out-of-range point data is affinely rescaled per dimension onto
[0, bound); the applied mapping is emitted in the report header.
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import time
from typing import Optional, Sequence, TextIO

import numpy as np

from .baseline import NaiveKdTree, brute_force_query
from .index import KdPointIndex
from .query import window_query
from .stats import VisitStats
from .workload import GenerationError, make_points, mixed_bench_windows, random_windows


class CliParseError(Exception):
    """Bad input file or parameter; maps to exit code 2."""


# -- file I/O ----------------------------------------------------------


def write_points(path: str, k: int, bound: int, pts) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(f"# k={k} bound={bound}\n")
        for p in pts:
            f.write(",".join(str(c) for c in p) + "\n")


def write_windows(path: str, windows) -> None:
    with open(path, "w", encoding="ascii") as f:
        for w in windows:
            f.write(",".join(f"{lo},{hi}" for lo, hi in w) + "\n")


def _data_rows(path: str):
    try:
        fh = open(path, "r", encoding="ascii")
    except OSError as e:
        raise CliParseError(f"{path}: {e}") from None
    with fh:
        for no, line in enumerate(fh, 1):
            s = line.strip()
            if not s or (s.startswith("#") and no > 1):
                continue
            yield no, s


def load_points(path: str) -> tuple[int, int, list[tuple], list[str]]:
    """Returns (k, bound, points, mapping notes).

    Values that are not all integers in range get rescaled per dimension
    onto [0, bound-1]; identity data passes through untouched.
    """
    rows = _data_rows(path)
    try:
        no, header = next(rows)
    except StopIteration:
        raise CliParseError(f"{path}: empty file, expected `# k=.. bound=..`")
    pairs = [part.split("=", 1) for part in header.lstrip("#").split()
             if "=" in part]
    names = [name for name, _ in pairs]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise CliParseError(f"{path}:1: header repeats {', '.join(repeated)}")
    fields = dict(pairs)
    if header[:1] != "#" or "k" not in fields or "bound" not in fields:
        raise CliParseError(f"{path}:1: header must look like `# k=2 bound=4096`")
    try:
        k, bound = int(fields["k"]), int(fields["bound"])
    except ValueError:
        raise CliParseError(f"{path}:1: non-integer k or bound") from None
    if k < 1 or bound < 1:
        raise CliParseError(f"{path}:1: k and bound must be positive")

    raw: list[list[float]] = []
    for no, s in rows:
        parts = s.split(",")
        if len(parts) != k:
            raise CliParseError(f"{path}:{no}: expected {k} fields, got {len(parts)}")
        try:
            row = [float(x) for x in parts]
        except ValueError:
            raise CliParseError(f"{path}:{no}: non-numeric value") from None
        if not all(map(math.isfinite, row)):
            raise CliParseError(f"{path}:{no}: non-finite value")
        raw.append(row)

    exact = all(v.is_integer() and 0 <= v < bound for row in raw for v in row)
    notes: list[str] = []
    if exact:
        pts = [tuple(int(v) for v in row) for row in raw]
        notes.append("quantization: identity")
    else:
        los = [min(row[j] for row in raw) for j in range(k)]
        his = [max(row[j] for row in raw) for j in range(k)]
        spans = [hi - lo or 1.0 for lo, hi in zip(los, his)]
        pts = [tuple(round((row[j] - los[j]) * (bound - 1) / spans[j])
                     for j in range(k)) for row in raw]
        for j in range(k):
            notes.append(f"quantization dim {j}: x -> round((x - {los[j]:g}) "
                         f"* {bound - 1} / {spans[j]:g})")
    distinct = list(dict.fromkeys(pts))
    if len(distinct) != len(pts):
        notes.append(f"dropped {len(pts) - len(distinct)} duplicate points")
    return k, bound, distinct, notes


def load_windows(path: str, k: int, bound: int) -> list[list[tuple[int, int]]]:
    out = []
    for no, s in _data_rows(path):
        parts = s.split(",")
        if len(parts) != 2 * k:
            raise CliParseError(f"{path}:{no}: expected {2 * k} fields, "
                                f"got {len(parts)}")
        try:
            vals = [int(x) for x in parts]
        except ValueError:
            raise CliParseError(f"{path}:{no}: non-integer bound") from None
        w = []
        for j in range(k):
            lo, hi = vals[2 * j], vals[2 * j + 1]
            if lo > hi:
                raise CliParseError(f"{path}:{no}: range {j} has lo > hi")
            if lo < 0 or hi >= bound:
                raise CliParseError(f"{path}:{no}: range {j} outside "
                                    f"[0, {bound})")
            w.append((lo, hi))
        out.append(w)
    return out


# -- subcommands -------------------------------------------------------


def _check_shape(k: int, radix: int, width: int,
                 bound: Optional[int] = None) -> int:
    """Reject a bad --k, --radix or --width; returns the universe bound,
    radix ** width unless a points file gives it (verify, where --width 0
    derives the width from the bound)."""
    if k < 1:
        raise CliParseError("--k must be >= 1")
    if radix < 2:
        raise CliParseError("--radix must be >= 2")
    if bound is None:
        if width < 1:
            raise CliParseError("--width must be >= 1")
        return radix ** width
    if width < 0:
        raise CliParseError("--width must be >= 0")
    if width and radix ** width < bound:
        raise CliParseError(f"--radix {radix} --width {width} cannot cover "
                            f"bound {bound}")
    return bound


def cmd_generate(args) -> int:
    bound = _check_shape(args.k, args.radix, args.width)
    if args.n < 0:
        raise CliParseError("--n must be >= 0")
    pts = make_points(args.n, args.k, bound, args.dist, args.seed)
    write_points(args.out, args.k, bound, pts)
    print(f"wrote {len(pts)} points (k={args.k}, bound={bound}, "
          f"dist={args.dist}) to {args.out}")
    if args.queries:
        windows = random_windows(100, args.k, bound, args.seed + 1)
        write_windows(args.queries, windows)
        print(f"wrote {len(windows)} query windows to {args.queries}")
    return 0


def cmd_verify(args) -> int:
    k, bound, pts, notes = load_points(args.points)
    _check_shape(k, args.radix, args.width, bound)
    windows = load_windows(args.queries, k, bound)
    idx = KdPointIndex.from_points(k, bound, pts, radix=args.radix,
                                   width=args.width or None)

    out: TextIO = open(args.out, "w", encoding="ascii") if args.out else sys.stdout
    try:
        out.write(f"# verify points={args.points} queries={args.queries} "
                  f"k={k} bound={bound} radix={args.radix} width={idx.width}\n")
        for note in notes:
            out.write(f"# {note}\n")
        out.write("query_id,index_count,brute_count,match\n")
        mismatches = 0
        for i, w in enumerate(windows):
            got, _ = window_query(idx, w)
            want = brute_force_query(pts, w)
            ok = got == want
            mismatches += 0 if ok else 1
            out.write(f"{i},{len(got)},{len(want)},{int(ok)}\n")
        violations = idx.validate()
        for v in violations:
            out.write(f"# violation: {v}\n")
        out.write(f"# mismatches={mismatches} violations={len(violations)}\n")
    finally:
        if args.out:
            out.close()
    status = 0 if (mismatches == 0 and not violations) else 1
    print(f"verify: {len(pts)} points, {len(windows)} queries, "
          f"{mismatches} mismatches, {len(violations)} violations -> "
          f"{'OK' if status == 0 else 'FAIL'}")
    return status


INSERT_WINDOW = 1000    # bench: points inserted singly after the bulk load

_COLUMNS = ("engine,phase,n,k,dist,seed,label,result_count,touches,"
            "tree_nodes,trie_nodes,threads_followed,cross_links,"
            "trie_lookups,candidates_total,wall_us")


def _row(out, engine, phase, n, args, label="", result="", touches="",
         st: Optional[VisitStats] = None, wall="") -> None:
    c = ["", "", "", "", "", ""]
    if st is not None:
        c = [st.tree_nodes_visited, st.trie_nodes_visited,
             st.threads_followed, st.cross_links_followed,
             st.trie_lookups, st.candidates_total()]
    out.write(",".join(str(x) for x in
                       [engine, phase, n, args.k, args.dist, args.seed,
                        label, result, touches, *c, wall]) + "\n")


def _summary_rows(out, phase, n, args, touches: list[int]) -> None:
    """Mean, p50 and p99 of per-operation touches; nothing when empty."""
    if not touches:
        return
    for label, val in (("mean", statistics.fmean(touches)),
                       ("p50", statistics.median(touches)),
                       ("p99", sorted(touches)[int(0.99 * (len(touches) - 1))])):
        _row(out, "threaded", phase, n, args, label=label,
             touches=round(val, 2))


def cmd_bench(args) -> int:
    try:
        sizes = [int(x) for x in args.n.split(",") if x]
    except ValueError:
        raise CliParseError("--n must be a comma-separated integer list") from None
    if not sizes:
        raise CliParseError("--n lists no sizes")
    if min(sizes) < 0:
        raise CliParseError("--n sizes must be >= 0")
    bound = _check_shape(args.k, args.radix, args.width)
    if args.queries:
        windows = load_windows(args.queries, args.k, bound)
    else:
        windows = mixed_bench_windows(60, args.k, bound, args.seed + 999)
    out: TextIO = open(args.out, "w", encoding="ascii") if args.out else sys.stdout
    mismatches = 0
    try:
        out.write(f"# bench k={args.k} dist={args.dist} seed={args.seed} "
                  f"radix={args.radix} width={args.width} bound={bound}\n")
        out.write("# quantization: identity (generated integer workload)\n")
        out.write(_COLUMNS + "\n")
        for n in sizes:
            pts = make_points(n, args.k, bound, args.dist, args.seed)
            # built once, so the brute column times the filter alone
            arr = np.asarray(pts, dtype=np.int64)

            # the last w points are inserted singly for the insert summary
            w = min(INSERT_WINDOW, n)
            t0 = time.perf_counter_ns()
            idx = KdPointIndex.from_points(args.k, bound, pts[:n - w],
                                           radix=args.radix, width=args.width)
            _row(out, "threaded", "build", n, args,
                 wall=(time.perf_counter_ns() - t0) // 1000)
            touch: list[int] = []
            for p in pts[n - w:]:
                s = VisitStats()
                idx.insert(p, stats=s)
                touch.append(s.total_touches())
            naive = NaiveKdTree(args.k)
            t0 = time.perf_counter_ns()
            for p in pts:
                naive.insert(p)
            _row(out, "naive", "build", n, args,
                 wall=(time.perf_counter_ns() - t0) // 1000)

            _summary_rows(out, "insert", n, args, touch)

            for i, w in enumerate(windows):
                st = VisitStats()
                t0 = time.perf_counter_ns()
                got, _ = window_query(idx, w, stats=st)
                us = (time.perf_counter_ns() - t0) // 1000
                _row(out, "threaded", "query", n, args, label=f"q{i}",
                     result=len(got), st=st, wall=us)
                nst = VisitStats()
                t0 = time.perf_counter_ns()
                ngot = naive.query(w, nst)
                us = (time.perf_counter_ns() - t0) // 1000
                _row(out, "naive", "query", n, args, label=f"q{i}",
                     result=len(ngot), st=nst, wall=us)
                t0 = time.perf_counter_ns()
                want = brute_force_query(arr, w)
                us = (time.perf_counter_ns() - t0) // 1000
                _row(out, "brute", "query", n, args, label=f"q{i}",
                     result=len(want), wall=us)
                if got != want or ngot != want:
                    mismatches += 1

            rng = random.Random(args.seed + 7)
            sample = rng.sample(pts, min(500, len(pts))) if pts else []
            dtouch: list[int] = []
            for p in sample:
                s = VisitStats()
                idx.delete(p, stats=s)
                dtouch.append(s.total_touches())
            _summary_rows(out, "delete", n, args, dtouch)
            if mismatches:
                out.write(f"# engine mismatches: {mismatches}\n")
    finally:
        if args.out:
            out.close()
    if mismatches:
        print(f"bench: {mismatches} engine mismatches", file=sys.stderr)
        return 1
    return 0


# -- wiring ------------------------------------------------------------


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=2, help="dimensions")
    p.add_argument("--dist", choices=("uniform", "clustered"),
                   default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radix", type=int, default=16)
    p.add_argument("--width", type=int, default=3,
                   help="digits per trie key; universe bound = radix**width")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="threadkd",
        description="threaded multi-level range index: workload generator, "
                    "verifier, benchmark")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="write a points CSV")
    _common(g)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out", required=True, help="points CSV path")
    g.add_argument("--queries", help="also write 100 query windows here")

    v = sub.add_parser("verify", help="check index vs brute force on files")
    v.add_argument("--points", required=True)
    v.add_argument("--queries", required=True)
    v.add_argument("--radix", type=int, default=16)
    v.add_argument("--width", type=int, default=0,
                   help="0 = derive from the file's bound")
    v.add_argument("--out", help="report CSV path (default stdout)")

    b = sub.add_parser("bench", help="compare engines over generated data")
    _common(b)
    b.add_argument("--n", required=True,
                   help="comma-separated sizes, e.g. 1000,10000")
    b.add_argument("--queries", help="query windows CSV (default: generated)")
    b.add_argument("--out", help="report CSV path (default stdout)")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "generate":
            return cmd_generate(args)
        if args.cmd == "verify":
            return cmd_verify(args)
        return cmd_bench(args)
    except (CliParseError, GenerationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
