"""Orthogonal window reporting over a KdPointIndex, with visit counters.

A query window is a sequence of k inclusive (lo, hi) coordinate pairs.
The walk starts from level 0's first node and descends: every level-i
candidate's cross link leads to a group one level down, where the group
walk either starts at the group minimum (when it already clears lo),
jumps via the group trie's successor lookup, or stops cold when the
minimum exceeds hi.  Candidates on the last level are the answer, in
lexicographic order.

Counting rules, chosen so the documented bounds hold exactly: every
node whose range test runs counts one tree visit (candidates plus the
probe that ends a walk); reading a group minimum through its cross link
is part of the link follow, not a visit; trie costs are tracked
separately per lookup.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .index import KdPointIndex, as_coordinate
from .stats import VisitStats
from .tree import DUMMY


class WindowError(ValueError):
    """Window is malformed: wrong arity, lo > hi, or out-of-range bound."""


def check_window(index: KdPointIndex,
                 window: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    try:
        w = [(lo, hi) for lo, hi in window]
    except (TypeError, ValueError):
        raise WindowError(f"window {window!r} is not a sequence of (lo, hi) "
                          f"pairs") from None
    if len(w) != index.k:
        raise WindowError(f"window has {len(w)} ranges, expected {index.k}")
    try:
        w = [(as_coordinate(lo), as_coordinate(hi)) for lo, hi in w]
    except ValueError as e:
        raise WindowError(f"window bound: {e}") from None
    for j, (lo, hi) in enumerate(w):
        if lo > hi:
            raise WindowError(f"range {j}: lo {lo} > hi {hi}")
        if not (0 <= lo and hi < index.bound):
            raise WindowError(f"range {j}: [{lo}, {hi}] outside universe "
                              f"[0, {index.bound})")
    return w


def level_candidates(index: KdPointIndex, level: int, group_first: int,
                     lo: int, hi: int,
                     stats: Optional[VisitStats] = None) -> list[int]:
    """Handles in group_first's group whose level coordinate is in [lo, hi].

    Walks inorder threads from the chosen start node; ends on the first
    node past hi or on the next group's first node (the first one after
    the start that carries a trie), which costs one probe visit, or at
    the end of the level.  A group whose minimum exceeds hi is rejected
    on that probe alone, without opening the trie.
    """
    tree = index.trees[level]
    key = tree.key
    tries = tree.trie
    out: list[int] = []
    m = key[group_first][level]
    if m > hi:
        if stats is not None:
            stats.tree_nodes_visited += 1
        return out
    if m >= lo:
        start = group_first
    else:
        e = tries[group_first].succ_geq(lo, stats)
        if e is None:
            return out
        start = e.value
    h = start
    while h != DUMMY:
        if stats is not None:
            stats.tree_nodes_visited += 1
        if key[h][level] > hi or (tries[h] is not None and h != start):
            break
        out.append(h)
        h = tree.in_succ(h, stats)
    return out


def _walk(index: KdPointIndex, w: list[tuple[int, int]], level: int,
          group_first: int, st: VisitStats, results: list[tuple]) -> None:
    """Append to ``results`` every point inside ``w`` below the level group
    that starts at ``group_first``."""
    lo, hi = w[level]
    cands = level_candidates(index, level, group_first, lo, hi, st)
    st.per_level_candidates[level] += len(cands)
    tree = index.trees[level]
    if level == index.k - 1:
        key = tree.key
        for h in cands:
            results.append(key[h])
    else:
        cross = tree.cross
        for h in cands:
            st.cross_links_followed += 1
            _walk(index, w, level + 1, cross[h], st, results)


def window_query(index: KdPointIndex, window: Sequence[Sequence[int]],
                 stats: Optional[VisitStats] = None
                 ) -> tuple[list[tuple], VisitStats]:
    """All stored points inside the window, plus the traversal counters."""
    w = check_window(index, window)
    st = stats if stats is not None else VisitStats()
    st.per_level_candidates = [0] * index.k
    results: list[tuple] = []
    if index.size:
        _walk(index, w, 0, index.trees[0].first(), st, results)
    return results, st
