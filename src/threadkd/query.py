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
last level are the answer.  A leaf in range, a point alone under its
prefix on an inner level, has its point for a cross link: each level
below tests the point's own coordinate and passes the point on, in the
place its group would take, so it reaches the answer in order.

The walk makes no call per member and none per group.  It takes each
inorder step itself, as ``in_succ`` does, by one read of the tree's
``succ`` column.  It resolves each successor in its own frame too: a
trie's with ``succ_geq``'s descent over the trie's slots, on lo's
digits taken once per level, settling a member met on the way by its
``coord`` cell as the trie reads its keys, and a count group's with
``_small_succ``'s walk.  It reads a node's level coordinate from the
tree's ``coord`` column, not from the node's key tuple.  It keeps what
the caller uses: a member's cross link on an inner level, its key on
the last one, so no level builds a second list.

They come out in lexicographic order: a level's groups are walked in
the order of the members above that chose them, each group's members in
inorder, and a group holds exactly the keys that extend its parent's, so
every level's list stays sorted by prefix.

Counting rules, chosen so the documented bounds hold exactly: every
node whose range test runs counts one tree visit (candidates plus the
probe that ends a group walk); reading a group minimum through its
cross link is part of the link follow, not a visit; successor lookups
are tracked separately as trie work, one lookup each, whether a trie or
a small group's walk answers it; every inorder step counts one thread,
as ``in_succ`` counts it; the trie nodes a lookup reads count as
``succ_geq`` and ``_small_succ`` count them.  A point passed down from
a leaf counts one tree visit on each level below, its range test, as a
candidate when it passes and as the probe that ends a walk when it does
not; it takes no thread, lookup or trie node.  So ``per_level_candidates``
and ``cross_links_followed`` count a point under a leaf exactly as they
counted the one-member groups the leaf replaced, and no counter rises
but ``tree_nodes_visited``, by one where such a group's minimum was below
lo (a lookup and a trie node before).  Each level sums its counts in
locals and adds them to the stats once.  A query counts exactly what
walking the groups one recursive call at a time would.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .index import HEAD, KdPointIndex
from .stats import VisitStats
from .tree import DUMMY
from .trie import _shape, as_coordinate


class WindowError(ValueError):
    """Window is malformed: wrong arity, lo > hi, or out-of-range bound."""


def _check_range(index: KdPointIndex, j: int, lo, hi) -> tuple[int, int]:
    """Range ``j`` of a window as ints, under the coordinate rule;
    WindowError unless 0 <= lo <= hi < bound."""
    try:
        lo, hi = as_coordinate(lo), as_coordinate(hi)
    except ValueError as e:
        raise WindowError(f"window bound: {e}") from None
    if lo > hi:
        raise WindowError(f"range {j}: lo {lo} > hi {hi}")
    if not (0 <= lo and hi < index.bound):
        raise WindowError(f"range {j}: [{lo}, {hi}] outside universe "
                          f"[0, {index.bound})")
    return lo, hi


def check_window(index: KdPointIndex,
                 window: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    try:
        w = [(lo, hi) for lo, hi in window]
    except (TypeError, ValueError):
        raise WindowError(f"window {window!r} is not a sequence of (lo, hi) "
                          f"pairs") from None
    if len(w) != index.k:
        raise WindowError(f"window has {len(w)} ranges, expected {index.k}")
    bound = index.bound
    for lo, hi in w:
        # plain in-range ints are checked here; any other window takes
        # _check_range on every range, in order
        if not (type(lo) is int and type(hi) is int and 0 <= lo <= hi < bound):
            return [_check_range(index, j, lo, hi)
                    for j, (lo, hi) in enumerate(w)]
    return w


def level_candidates(index: KdPointIndex, level: int,
                     group_first: Union[int, tuple], lo: int, hi: int,
                     stats: Optional[VisitStats] = None
                     ) -> list[Union[int, tuple]]:
    """Handles in group_first's group whose level coordinate is in [lo, hi].

    The range follows the window rule for one range, ``check_window``'s:
    WindowError unless 0 <= lo <= hi < bound.  The walk starts at the
    group minimum when it clears lo, and otherwise at the successor of
    lo: the group trie's, or for a group that keeps a count instead, the
    first member at lo or above within at most T threads.  It walks
    inorder threads from there and ends on the first node past hi or on
    the next group's first node (the first one after the start that
    carries a marker, count or trie), which costs one probe visit, or at
    the end of the level.  A group whose minimum exceeds hi is rejected
    on that probe alone, without a lookup.  DUMMY, which an empty
    index's header link and an empty tree's ``first()`` give, heads no
    group: the answer is empty.  On level 2 or below ``group_first`` may
    be a leaf's cross cell one level up, its point, which answers itself
    when its level coordinate is in range.
    """
    lo, hi = _check_range(index, level, lo, hi)
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
    first nodes or, from level 2 on, by a point passed down from a leaf:
    ``column[h]`` for each member ``h`` in [lo, hi], and each such point
    in range itself, group after group, with 0 <= lo <= hi < bound.

    No call is made per group or per member.  A trie group's successor
    of lo is ``succ_geq``'s descent over the trie's slots, on lo's
    digits taken once, which answers with the member's handle; a count
    group's is ``_small_succ``'s walk over at most the count.  Inorder
    steps are taken inline, one read of the tree's ``succ`` column each,
    and a node's level coordinate is read from its ``coord`` cell.  The
    counts are summed in locals, as ``succ_geq``, ``_small_succ`` and
    ``in_succ`` count them, and added to ``stats`` once.
    """
    tree = index.trees[level]
    coord, tries, succ = tree.coord, tree.trie, tree.succ
    r = index.radix
    # lo's digits, most significant first; a loop, not a comprehension,
    # which costs a call of its own on CPython 3.11
    digits = []
    for p in _shape(r, index.width)[1]:
        digits.append(lo // p % r)
    out: list = []
    append = out.append
    # threads: the count walks' steps; each member's own step is counted
    # with the members, but for the points passed on
    probes = lookups = nodes = threads = passed = 0
    # from level 2 on a group may be a point, a leaf's above
    leafy = level > 1
    for first in groups:
        if leafy and type(first) is tuple:
            # one visit: the point's own range test, then on or out
            if lo <= first[level] <= hi:
                append(first)
                passed += 1
            else:
                probes += 1
            continue
        m = coord[first]
        if m > hi:
            probes += 1
            continue
        if m >= lo:
            start = first
        else:
            lookups += 1
            marker = tries[first]
            if type(marker) is int:
                # _small_succ's walk, over at most the count
                start = first
                nodes += 1
                while coord[start] < lo:
                    marker -= 1
                    if marker == 0:
                        start = DUMMY
                        break
                    start = succ[start]
                    threads += 1
                    nodes += 1
            else:
                # succ_geq's descent: down lo's digits to the first
                # thread or entry, then down smallest valid slots
                slots = marker.slots
                ref = 0
                for d in digits:
                    nodes += 1
                    i = d - ref
                    ref = slots[i]
                    if ref == slots[i + 1]:
                        break
                    if ref >= 0:
                        # a member, whose key is its coord cell
                        if coord[ref] < lo:
                            ref = slots[i + 1]
                        break
                if ref is None:
                    # past the group maximum
                    continue
                while ref < 0:
                    nodes += 1
                    ref = slots[-ref]
                start = ref
        h = start
        while h:    # DUMMY, 0, ends the level
            if coord[h] > hi or (tries[h] is not None and h != start):
                probes += 1
                break
            append(column[h])
            h = succ[h]
    if stats is not None:
        members = len(out)
        stats.tree_nodes_visited += members + probes
        stats.threads_followed += members - passed + threads
        stats.trie_lookups += lookups
        stats.trie_nodes_visited += nodes
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
