"""Benchmark and verification command line.

Subcommands:
  generate   write a points CSV (and optionally a companion queries CSV)
  verify     build the index from a points file, run every query against
             the index and the brute-force filter, check invariants
  bench      timed comparison of the threaded index, the naive kd-tree,
             and brute force over a generated workload

Exit codes: 0 success, 1 result mismatch or invariant violation,
2 usage or parse problems, including a file that cannot be opened.

File formats: points CSV starts with `# k=<k> bound=<B>`, its first
non-blank line, followed by one `x1,...,xk` row per point; queries CSV
holds `lo1,hi1,...,lok,hik` rows.  Blank lines are ignored, and so are
`#` comments after a file's first non-blank line.  Non-integer
or out-of-range point data is affinely rescaled per dimension onto
[0, bound); the applied mapping is emitted in the report header.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import random
import statistics
import sys
import time
from typing import Optional, Sequence

from .baseline import NaiveKdTree, brute_force_query, points_array
from .index import KdPointIndex
from .query import WindowError, check_window, window_query
from .stats import VisitStats
from .workload import GenerationError, make_points, mixed_bench_windows, random_windows


class CliParseError(Exception):
    """Bad input file or parameter; maps to exit code 2."""


# -- file I/O ----------------------------------------------------------


def _output(path: str):
    """``path`` opened for writing; a path that cannot be opened is a
    usage error."""
    try:
        return open(path, "w", encoding="ascii")
    except OSError as e:
        raise CliParseError(f"{path}: {e}") from None


def _outputs(paths: Sequence[str]) -> list:
    """Each of ``paths`` opened for writing, or none of them: when one
    cannot be opened, the files opened before it are closed and removed,
    so a command that fails there leaves no output behind."""
    files: list = []
    try:
        for path in paths:
            files.append(_output(path))
    except CliParseError:
        for f in files:
            f.close()
            os.remove(f.name)
        raise
    return files


def write_points(f, k: int, bound: int, pts) -> None:
    f.write(f"# k={k} bound={bound}\n")
    for p in pts:
        f.write(",".join(str(c) for c in p) + "\n")


def write_windows(f, windows) -> None:
    for w in windows:
        f.write(",".join(f"{lo},{hi}" for lo, hi in w) + "\n")


def _data_rows(path: str):
    """(line number, stripped line) for each line of ``path`` but blank
    ones and the ``#`` comments after the first non-blank line, which a
    points file's header is."""
    try:
        fh = open(path, "r", encoding="ascii")
    except OSError as e:
        raise CliParseError(f"{path}: {e}") from None
    with fh:
        first = True
        for no, line in enumerate(fh, 1):
            s = line.strip()
            if not s or (s.startswith("#") and not first):
                continue
            first = False
            yield no, s


def _number(field: str):
    """A points file's field: the int it spells, kept exact, when its
    float is finite, and otherwise its float; ValueError for a field
    that is no number."""
    x = float(field)
    if math.isfinite(x):
        with contextlib.suppress(ValueError):
            return int(field)
    return x


def _round_half_even(num: int, den: int) -> int:
    """``num / den`` rounded to the nearest int, ties to even, as
    ``round`` rounds a ``Fraction``; ``den`` > 0."""
    q, r = divmod(num, den)
    return q + (2 * r > den or (2 * r == den and q & 1))


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
        raise CliParseError(f"{path}:{no}: header repeats {', '.join(repeated)}")
    fields = dict(pairs)
    if header[:1] != "#" or "k" not in fields or "bound" not in fields:
        raise CliParseError(f"{path}:{no}: header must look like `# k=2 bound=4096`")
    try:
        k, bound = int(fields["k"]), int(fields["bound"])
    except ValueError:
        raise CliParseError(f"{path}:{no}: non-integer k or bound") from None
    if k < 1 or bound < 1:
        raise CliParseError(f"{path}:{no}: k and bound must be positive")

    raw: list[list] = []
    for no, s in rows:
        parts = s.split(",")
        if len(parts) != k:
            raise CliParseError(f"{path}:{no}: expected {k} fields, got {len(parts)}")
        try:
            row = [_number(x) for x in parts]
        except ValueError:
            raise CliParseError(f"{path}:{no}: non-numeric value") from None
        if not all(map(math.isfinite, row)):
            raise CliParseError(f"{path}:{no}: non-finite value")
        raw.append(row)

    exact = all((type(v) is int or v.is_integer()) and 0 <= v < bound
                for row in raw for v in row)
    notes: list[str] = []
    if exact:
        pts = [tuple(int(v) for v in row) for row in raw]
        notes.append("quantization: identity")
    else:
        # exact: a column's values are ints and floats, so each is an
        # integer over one power-of-two denominator, and the minimum maps
        # to 0 and the maximum to bound - 1 at any bound, with no float
        # overflow or rounding
        cols = []
        for j in range(k):
            ratios = [v.as_integer_ratio() for v in (row[j] for row in raw)]
            den = max(d for _, d in ratios)
            nums = [n * (den // d) for n, d in ratios]
            lo = min(nums)
            span = max(nums) - lo or den
            cols.append([_round_half_even((n - lo) * (bound - 1), span)
                         for n in nums])
            notes.append(f"quantization dim {j}: x -> round((x - "
                         f"{lo / den:g}) * {bound - 1} / {span / den:g})")
        pts = list(zip(*cols))
    distinct = list(dict.fromkeys(pts))
    if len(distinct) != len(pts):
        notes.append(f"dropped {len(pts) - len(distinct)} duplicate points")
    return k, bound, distinct, notes


def load_windows(path: str, index: KdPointIndex) -> list[list[tuple[int, int]]]:
    """The windows in ``path``, each checked by ``check_window`` against
    ``index``'s k and bound."""
    out = []
    for no, s in _data_rows(path):
        parts = s.split(",")
        if len(parts) != 2 * index.k:
            raise CliParseError(f"{path}:{no}: expected {2 * index.k} fields, "
                                f"got {len(parts)}")
        try:
            vals = [int(x) for x in parts]
        except ValueError:
            raise CliParseError(f"{path}:{no}: non-integer bound") from None
        try:
            out.append(check_window(index, zip(vals[::2], vals[1::2])))
        except WindowError as e:
            raise CliParseError(f"{path}:{no}: {e}") from None
    return out


def _report(path: Optional[str]):
    """The report stream, for a ``with``: the file at ``path``, or stdout,
    which stays open."""
    if path:
        return _output(path)
    return contextlib.nullcontext(sys.stdout)


# -- subcommands -------------------------------------------------------


def _index(k: int, bound: int, pts, radix: int,
           width: Optional[int]) -> KdPointIndex:
    """``KdPointIndex.from_points``; the index's own checks on k, bound,
    radix and width make a bad shape a usage error."""
    try:
        return KdPointIndex.from_points(k, bound, pts, radix=radix, width=width)
    except ValueError as e:
        raise CliParseError(str(e)) from None


def _universe(args) -> KdPointIndex:
    """An empty index over [0, radix ** width), the universe of generated
    data.  radix ** width is taken only once an index has accepted --k,
    --radix and --width: a negative width would give a float bound."""
    shape = _index(args.k, 1, (), args.radix, args.width)
    return _index(args.k, shape.radix ** shape.width, (), args.radix,
                  args.width)


def cmd_generate(args) -> int:
    bound = _universe(args).bound
    if args.n < 0:
        raise CliParseError("--n must be >= 0")
    pts = make_points(args.n, args.k, bound, args.dist, args.seed)
    paths = [args.out]
    if args.queries:
        windows = random_windows(100, args.k, bound, args.seed + 1)
        paths.append(args.queries)
    # both opened before either is written, so a path that cannot be
    # opened leaves neither file
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(f) for f in _outputs(paths)]
        write_points(files[0], args.k, bound, pts)
        if args.queries:
            write_windows(files[1], windows)
    print(f"wrote {len(pts)} points (k={args.k}, bound={bound}, "
          f"dist={args.dist}) to {args.out}")
    if args.queries:
        print(f"wrote {len(windows)} query windows to {args.queries}")
    return 0


def cmd_verify(args) -> int:
    k, bound, pts, notes = load_points(args.points)
    idx = _index(k, bound, pts, args.radix, args.width or None)
    windows = load_windows(args.queries, idx)
    arr = points_array(pts)

    with _report(args.out) as out:
        out.write(f"# verify points={args.points} queries={args.queries} "
                  f"k={k} bound={bound} radix={args.radix} width={idx.width}\n")
        for note in notes:
            out.write(f"# {note}\n")
        out.write("query_id,index_count,brute_count,match\n")
        mismatches = 0
        for i, w in enumerate(windows):
            got, _ = window_query(idx, w)
            want = brute_force_query(arr, w)
            ok = got == want
            mismatches += 0 if ok else 1
            out.write(f"{i},{len(got)},{len(want)},{int(ok)}\n")
        violations = idx.validate()
        for v in violations:
            out.write(f"# violation: {v}\n")
        out.write(f"# mismatches={mismatches} violations={len(violations)}\n")
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


def _timed(fn, *fargs):
    """``fn(*fargs)`` and its wall time in whole microseconds."""
    t0 = time.perf_counter_ns()
    result = fn(*fargs)
    return result, (time.perf_counter_ns() - t0) // 1000


def _touch_rows(out, phase, n, args, op, pts) -> None:
    """Runs ``op`` (the index's insert or delete) on each point, then
    writes the mean, p50 and p99 of its touches; nothing when empty."""
    touches = []
    for p in pts:
        s = VisitStats()
        op(p, stats=s)
        touches.append(s.total_touches())
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
    shape = _universe(args)
    bound = shape.bound
    if args.queries:
        windows = load_windows(args.queries, shape)
    else:
        windows = mixed_bench_windows(60, args.k, bound, args.seed + 999)
    # every size is drawn before the report opens, so a size the universe
    # cannot hold leaves no partial report
    drawn = [make_points(n, args.k, bound, args.dist, args.seed) for n in sizes]
    mismatches = 0
    with _report(args.out) as out:
        out.write(f"# bench k={args.k} dist={args.dist} seed={args.seed} "
                  f"radix={args.radix} width={args.width} bound={bound}\n")
        out.write("# quantization: identity (generated integer workload)\n")
        out.write(_COLUMNS + "\n")
        for n, pts in zip(sizes, drawn):
            # built once, so the brute column times the filter alone
            arr = points_array(pts)

            # the last w points are inserted singly for the insert summary
            w = min(INSERT_WINDOW, n)
            idx, us = _timed(KdPointIndex.from_points, args.k, bound,
                             pts[:n - w], args.radix, args.width)
            _row(out, "threaded", "build", n, args, wall=us)
            naive, us = _timed(NaiveKdTree.from_points, args.k, pts)
            _row(out, "naive", "build", n, args, wall=us)
            _touch_rows(out, "insert", n, args, idx.insert, pts[n - w:])

            for i, w in enumerate(windows):
                st, nst = VisitStats(), VisitStats()
                (got, _), us = _timed(window_query, idx, w, st)
                _row(out, "threaded", "query", n, args, label=f"q{i}",
                     result=len(got), st=st, wall=us)
                ngot, us = _timed(naive.query, w, nst)
                _row(out, "naive", "query", n, args, label=f"q{i}",
                     result=len(ngot), st=nst, wall=us)
                want, us = _timed(brute_force_query, arr, w)
                _row(out, "brute", "query", n, args, label=f"q{i}",
                     result=len(want), wall=us)
                if got != want or ngot != want:
                    mismatches += 1

            sample = random.Random(args.seed + 7).sample(pts, min(500, n))
            _touch_rows(out, "delete", n, args, idx.delete, sample)
        if mismatches:
            out.write(f"# engine mismatches: {mismatches}\n")
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
