"""Orthogonal window reporting over a KdPointIndex, with visit counters.

A query window is a sequence of k inclusive (lo, hi) coordinate pairs.
The walk runs one level at a time.  Level 0's one group hangs under the
header's cross link; on every level, each chosen group is walked in
turn, and the cross links of its members inside the level's range pick
the groups one level down.  A group walk either starts at the group
minimum (when it already clears lo), jumps to the successor of lo, or
stops cold when the minimum exceeds hi.  The successor comes from the
group trie or, in a group of at most ``T`` members that keeps a count
instead, from a walk over at most ``T`` threads.  The members on the
last level are the answer.

The walk makes no call per member.  It takes each inorder step itself
from the tree's ``link`` and ``thread`` columns, as ``in_succ`` would:
the right slot, then left slots down while the right slot is a child
link.  It keeps what the caller uses: a member's cross link on an inner
level, its key on the last one, so no level builds a second list.

They come out in lexicographic order: a level's groups are walked in
the order of the members above that chose them, each group's members in
inorder, and a group holds exactly the keys that extend its parent's, so
every level's list stays sorted by prefix.

Counting rules, chosen so the documented bounds hold exactly: every
node whose range test runs counts one tree visit (candidates plus the
probe that ends a group walk); reading a group minimum through its
cross link is part of the link follow, not a visit; successor lookups
are tracked separately as trie work, one lookup each, whether a trie or
a small group's walk answers it; every slot an inorder step follows
counts one thread, as ``in_succ`` counts it.  Each level sums its counts
in locals and adds them to the stats once.  A query counts exactly what
walking the groups one recursive call at a time would.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .index import HEAD, KdPointIndex, _small_succ
from .stats import VisitStats
from .tree import DUMMY
from .trie import as_coordinate


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

    The walk starts at the group minimum when it clears lo, and otherwise
    at the successor of lo: the group trie's, or for a group that keeps
    a count instead, the first member at lo or above within at most T
    threads.  It walks inorder threads from there and ends on the first
    node past hi or on the next group's first node (the first one after
    the start that carries a marker, count or trie), which costs one
    probe visit, or at the end of the level.  A group whose minimum
    exceeds hi is rejected on that probe alone, without a lookup.
    DUMMY, which an empty index's header link and an empty tree's
    ``first()`` give, heads no group: the answer is empty.
    """
    if group_first == DUMMY:
        return []
    # range(n)[h] is h itself: the walk reports the handles
    handles = range(len(index.trees[level].key))
    return _level_members(index, level, [group_first], lo, hi, handles,
                          stats)


def _level_members(index: KdPointIndex, level: int, groups: list[int],
                   lo: int, hi: int, column: Sequence,
                   stats: Optional[VisitStats]) -> list:
    """``level_candidates`` over every group in ``groups``, given by their
    first nodes: ``column[h]`` for each member ``h`` in [lo, hi], group
    after group.  Inorder steps are taken inline, from the tree's link
    and thread columns; the counts are summed in locals and added to
    ``stats`` once.
    """
    tree = index.trees[level]
    key, tries = tree.key, tree.trie
    left, right = tree.link
    lthread, rthread = tree.thread
    out: list = []
    append = out.append
    probes = lookups = descents = 0
    for first in groups:
        m = key[first][level]
        if m > hi:
            probes += 1
            continue
        if m >= lo:
            start = first
        else:
            marker = tries[first]
            if type(marker) is int:
                lookups += 1
                start = _small_succ(tree, level, first, lo, stats)[1]
            else:
                # None past the group maximum; no handle is DUMMY, 0
                start = marker.succ_geq(lo, stats) or DUMMY
        h = start
        while h:    # DUMMY, 0, ends the level
            if key[h][level] > hi or (tries[h] is not None and h != start):
                probes += 1
                break
            append(column[h])
            q = right[h]
            if not rthread[h]:
                while not lthread[q]:
                    q = left[q]
                    descents += 1
            h = q
    if stats is not None:
        members = len(out)
        stats.tree_nodes_visited += members + probes
        stats.threads_followed += members + descents
        stats.trie_lookups += lookups
    return out


def window_query(index: KdPointIndex, window: Sequence[Sequence[int]],
                 stats: Optional[VisitStats] = None
                 ) -> tuple[list[tuple], VisitStats]:
    """All stored points inside the window, plus the traversal counters.

    The counters are added to ``stats`` when one is given, so a stats
    object reused across queries sums them; ``per_level_candidates`` is
    padded to k entries first.
    """
    w = check_window(index, window)
    st = stats if stats is not None else VisitStats()
    cands = st.per_level_candidates
    cands.extend([0] * (index.k - len(cands)))
    if not len(index):
        return [], st
    groups = [index.above[0].cross[HEAD]]
    last = index.k - 1
    for level, (lo, hi) in enumerate(w):
        tree = index.trees[level]
        # the last level's members are the answer; each inner member's
        # cross link is the first node of a group one level down
        column = tree.key if level == last else tree.cross
        got = _level_members(index, level, groups, lo, hi, column, st)
        cands[level] += len(got)
        if level == last:
            return got, st
        st.cross_links_followed += len(got)
        groups = got
