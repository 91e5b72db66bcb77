"""Multi-level index over k-dimensional integer points.

Level i (0-based) is a threaded balanced tree whose keys are the
distinct (i+1)-coordinate prefixes of the stored points, ordered
lexicographically; the last level holds the points themselves.  Nodes
sharing an i-prefix sit contiguously in level i's inorder sequence and
form a group.  Each level-i node (i < k-1) carries a cross link to its
group's first node one level down: the member with the smallest next
coordinate.  Level 0 is one group under a header, level -1: a one-node
tree holding the empty prefix at handle ``HEAD``, whose cross link is
DUMMY while the index is empty.  It is the list head of Knuth's
threaded trees (TAOCP vol. 1, 2.3.1) one level up, so every level
reaches its groups alike.

The index keeps three payload columns in each level's tree, one cell per
handle: ``cross`` holds the cross link, ``trie`` the group marker below,
and ``coord`` the node's level coordinate, ``key[h][i]`` on level i.
That is the same int object as in the key tuple, so the column costs one
list cell per node, and the lookups and the query walk read a node's
coordinate without touching its tuple.

Every group-first node carries a marker in its ``trie`` column; no other
node does.  A group of more than ``T`` members keeps a successor-threaded
trie mapping the members' level coordinate to their tree handles, a
``ValueTrie``, whose lookups answer with the handle itself.  A
smaller group keeps its member count, a positive int, and its successor
lookup walks at most ``T`` inorder threads from the first member instead
(adaptive node sizing, as in Leis, Kemper and Neumann, "The Adaptive
Radix Tree", ICDE 2013).  The tries take the same paper's lazy
expansion: a member alone under a digit prefix sits in its parent's
slot, so a trie has a node only for a prefix that two members share,
about 0.4 nodes per member in level-1 groups of about 24.  A group that
grows past ``T`` gets its trie built from its members, and one that
falls back to ``T`` trades it for its count, so the marker depends only
on the group's size.

The tries and walks replace key search entirely: membership looks up k
groups, insertion derives each level's position hint from group
successors and neighbouring groups' cross links, so the per-level
structural work does not grow with the number of stored points.
Deletion walks bottom-up, pruning prefix nodes whose group emptied and
re-aiming cross links and markers when a group minimum goes away.
"""

from __future__ import annotations

import contextlib
import gc
from itertools import chain, compress
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .stats import VisitStats
from .tree import DUMMY, ThreadedAvlTree
from .trie import ThreadedTrie, ValueTrie, _trie_shape, as_coordinate


HEAD = 1    # the header's one node, the empty prefix

# Largest group kept without a trie.  Swept over 8, 12, 16, 20 and 24 on
# the benchmark workloads, every value's index in one process and their
# slices interleaved (BENCH_29.json, seeds 5 and 1009): `churn`'s op p50
# falls as T grows, to 0.92, 0.80-0.81, 0.76-0.77 and 0.75-0.76 of T = 8's,
# as its level-1 groups of about 12 members give up their tries; `square`'s
# query p50 reads 0.96-0.98 of T = 8's up to 20 and 1.02 at 24, where most
# of its level-1 groups of about 24 lose their tries too; `lead-narrow`'s
# reads 0.99-1.06 at 16.  16 takes most of churn's gain and is the value
# that process pairs on all three workloads confirmed.
T = 16


def _small_succ(tree: ThreadedAvlTree, first: int, c: int,
                stats: Optional[VisitStats] = None
                ) -> tuple[Optional[int], int]:
    """Successor lookup in the group from ``first`` that keeps a member
    count instead of a trie.

    Returns the group's last member whose level coordinate is below
    ``c`` (None when ``first``'s is not) and its first member at ``c``
    or above (DUMMY when none is).  Walks at most the count, so at most
    ``T`` members, each step one read of the tree's ``succ`` column in
    this frame, as ``query._level_members`` takes it.  Counted as the
    ``succ_geq`` it stands in for: one ``trie_lookups``, and one
    ``trie_nodes_visited`` per member read; each step counts one
    ``threads_followed``, as ``in_succ`` counts it.
    """
    coord, succ = tree.coord, tree.succ
    n = tree.trie[first]
    prev, h = None, first
    steps = 0
    while coord[h] < c:
        n -= 1
        if n == 0:
            prev, h = h, DUMMY
            break
        prev, h = h, succ[h]
        steps += 1
    if stats is not None:
        stats.trie_lookups += 1
        stats.trie_nodes_visited += steps + 1
        stats.threads_followed += steps
    return prev, h


def _lex_order(rows: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The order of the rows of ``rows`` (n by k, coordinates in
    [0, bound)) sorted lexicographically, equal rows in their input
    order, and the first coordinate ``j`` where each row in that order
    differs from the one before it (-1 for the first row, k for a repeat).

    With ``b = (bound - 1).bit_length()`` bits per coordinate, a universe
    that fits ``b * k`` bits beside the ``s`` bits of a row index packs
    each row into one int64, coordinate 0 highest and the row index
    lowest.  The packed keys are distinct, so one plain sort orders them
    stably; its low bits are the order, and the top set bit of a
    neighbour pair's XOR names ``j``, with no float in the way.  Rows
    that do not fit, ``object`` ones past 2**63 among them (``b`` is 64
    or more there), take ``lexsort`` and a comparison of neighbours
    instead.  The temporaries end with the call.
    """
    n, k = rows.shape
    b, s = (bound - 1).bit_length(), (n - 1).bit_length()
    if b * k + s > 63:
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        differs = rows[1:] != rows[:-1]
        j = np.where(differs.any(1), differs.argmax(1), k)
    else:
        key = np.arange(n, dtype=np.int64)
        for c in range(k):
            key |= rows[:, c] << (b * (k - 1 - c) + s)
        key.sort()
        order = key & ((1 << s) - 1)
        x = (key[1:] ^ key[:-1]) >> s
        j = k - sum((x >> (b * c)) != 0 for c in range(k))
    return order, np.concatenate(([-1], j))


class KdPointIndex:
    """Dynamic set of distinct k-tuples with windowed retrieval support.

    Coordinates are ints in [0, bound), or int-like values such as
    ``numpy.int64`` (stored as plain ints); bools are rejected, and so
    are ``k``, ``bound``, ``radix`` and ``width`` under the same rule.
    bound must fit the trie shape, bound <= radix ** width.  Single
    writer, concurrent readers only while no mutation runs.

    ``trees`` holds the k levels; ``above[i]`` is the tree one level up
    from level i, the header for level 0.
    """

    def __init__(self, k: int, bound: int, radix: int = 16,
                 width: Optional[int] = None):
        self._shape(k, bound, radix, width)
        self._hang([ThreadedAvlTree() for _ in range(self.k)])

    def _shape(self, k: int, bound: int, radix: int,
               width: Optional[int]) -> None:
        # the checked arguments of __init__, with width derived when None
        k, bound = as_coordinate(k, "k"), as_coordinate(bound, "bound")
        if k < 1:
            raise ValueError("k must be >= 1")
        if bound < 1:
            raise ValueError("bound must be >= 1")
        derive = width is None
        radix, width = _trie_shape(radix, 1 if derive else width)
        while derive and radix ** width < bound:
            width += 1
        if radix ** width < bound:
            raise ValueError(f"radix**width = {radix ** width} cannot cover "
                             f"bound {bound}")
        self.k = k
        self.bound = bound
        self.radix = radix
        self.width = width

    def _hang(self, trees: list) -> None:
        """Take ``trees`` as the k levels, under a new header linked to
        level 0's first node (DUMMY when level 0 is empty)."""
        head = ThreadedAvlTree.from_sorted([()])
        head.cross[HEAD] = trees[0].first()
        self.trees = trees
        self.above = [head, *trees[:-1]]

    @classmethod
    def from_points(cls, k: int, bound: int, points: Iterable[Sequence[int]],
                    radix: int = 16, width: Optional[int] = None) -> "KdPointIndex":
        """Index holding ``points``; duplicates are dropped.

        Bulk load, a column at a time.  The points are checked over the
        whole input: each has k coordinates, each coordinate is a plain
        int, and the numpy array made of them lies in [0, bound); when a
        check fails they are checked one by one, so the first bad point
        raises its own message.  The array is ``int64`` when
        ``bound <= 2**63`` and ``object`` above.  It is sorted as one
        packed int64 key per point, the point's coordinates above its
        index, when those fit 63 bits, and by ``lexsort`` when they do
        not (``_lex_order``); either way equal points keep their input
        order, and a row equal to the one before it is dropped, so the
        first of equal rows stays, as a set would keep it.  The first
        coordinate ``j`` where each point differs from the previous one
        (-1 for the first point; the top set bit of the packed keys' XOR)
        gives every level: level i's keys are the (i+1)-prefixes of the
        points with ``j <= i``, and its groups start at those with
        ``j < i``.  The stored points are tuples of the index's own,
        equal to the caller's but not the same objects: they are made in
        sorted order from the sorted rows, over one int per distinct
        coordinate value, so a walk in key order reads points that lie in
        that order in memory.  The last level holds them, each inner level
        slices them, and each level's ``coord`` column is cut from the
        same column lists and becomes the tries' keys, so the whole load
        shares one int per value.  Each level's tree is linked as
        ``ThreadedAvlTree.from_sorted`` links it and takes its payload
        columns, each made once with its final contents.  Its group
        markers are written as one column: a group of ``T`` or fewer members gets its count,
        and ``ValueTrie.level_tries`` builds the longer ones' tries
        together.  Level i's g-th group (from 1) hangs under handle g one
        level up: level i-1's g-th key or, for level 0's one group, the
        header's ``HEAD``.  No level is made before its points are
        sorted, so a non-empty load makes no empty tree.  The trees come out
        perfectly balanced, so the counters of later updates that depend
        on a tree's shape (``threads_followed``, ``rotations`` and
        ``tree_nodes_visited``) can differ from an index built by
        ``insert``; points, markers, cross links, query results and every
        query counter are the same, since a query's successor steps read
        the ``succ`` column, one thread each.

        The garbage collector is paused for the whole call, process-wide:
        the build makes many container objects and no reference cycle, so
        collections would find nothing to free.  A ``finally`` restores
        the caller's setting, also when a point is rejected.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            idx = cls.__new__(cls)
            idx._shape(k, bound, radix, width)
            idx._bulk_load(list(points))
        finally:
            if enabled:
                gc.enable()
        return idx

    def _bulk_load(self, points: list) -> None:
        # the body of from_points, on an index with its shape and no levels
        k, bound = self.k, self.bound
        dtype = np.int64 if bound <= 2 ** 63 else object
        pts = rows = None
        with contextlib.suppress(TypeError, OverflowError):
            # every point at once: plain int coordinates, k of them, in range
            pts = list(map(tuple, points))
            if (set(map(len, pts)) <= {k}
                    and set(map(type, chain.from_iterable(pts))) <= {int}):
                rows = np.fromiter(chain.from_iterable(pts), dtype, len(pts) * k)
                if len(rows) and not (0 <= rows.min() and rows.max() < bound):
                    rows = None
        if rows is None:
            # point by point, so the first bad point raises its message
            pts = [self._check_point(p) for p in points]
            rows = np.fromiter(chain.from_iterable(pts), dtype, len(pts) * k)
        if not pts:
            self._hang([ThreadedAvlTree() for _ in range(k)])
            return
        # rows: the points' coordinates, a point per row in input order;
        # order lists the distinct points' rows in sorted order, and rows
        # then holds those rows in that order
        rows = rows.reshape(len(pts), k)
        order, j = _lex_order(rows, bound)
        keep = j < k
        rows, j = rows[order[keep]], j[keep]
        # the stored points, made in sorted order over one int object per
        # distinct value; the temporaries go before the levels are built
        values, inverse = np.unique(rows, return_inverse=True)
        columns = values.astype(object)[inverse.reshape(rows.shape).T].tolist()
        pts = list(zip(*columns))
        del order, keep, values, inverse
        handles = list(range(len(pts) + 2))
        trees = []
        firsts = np.ones(1, np.int64)
        for i in range(k):
            mask = j <= i
            if i == k - 1:
                level, cut = pts, columns[i]
            else:
                opens = mask.tolist()
                level = list(map(itemgetter(slice(0, i + 1)),
                                 compress(pts, opens)))
                cut = compress(columns[i], opens)
            # the coord column: coordinate i's column list cut to the
            # level's keys, with the dummy's cell in front; the column list
            # and the cut go before the tree is built
            coord = [None, *cut]
            columns[i] = cut = opens = None
            if i < k - 1:
                # the cross links: the first handles of level i + 1's
                # groups, in order
                below = np.flatnonzero(j[j <= i + 1] <= i) + 1
                cross = [None, *map(handles.__getitem__, below.tolist())]
            else:
                cross, below = [None] * len(coord), None
            # each group's size, from the first handles
            sizes = np.diff(firsts, append=len(coord))
            markers = np.full(len(coord), None, object)
            markers[firsts] = sizes
            markers = markers.tolist()
            trees.append(ThreadedAvlTree._from_sorted(
                level, handles, (cross, markers, coord)))
            # the tries go into the marker column once the tree's build
            # temporaries are gone
            long = sizes > T
            if long.any():
                # the keys and values are sliced from these lists, so the
                # tries share the points' coordinate ints and the handles;
                # the numpy column has a cell for the dummy too
                tries = ValueTrie.level_tries(
                    self.radix, self.width, np.insert(rows[mask, i], 0, 0),
                    coord, handles, firsts[long], (firsts + sizes)[long])
                for h, trie in zip(firsts[long].tolist(), tries):
                    markers[h] = trie
            firsts = below
        self._hang(trees)

    def __len__(self) -> int:
        return self.trees[-1].size

    def points(self) -> Iterator[tuple]:
        """Stored points in lexicographic order.  Like ``dict`` iteration,
        the iterator raises RuntimeError on its next step after an insert
        or delete changed the index."""
        return self.trees[self.k - 1].keys()

    def _check_point(self, point: Sequence[int]) -> tuple:
        try:
            p = tuple(point)
        except TypeError:
            raise ValueError(f"point {point!r} is not a sequence of "
                             f"coordinates") from None
        if len(p) != self.k:
            raise ValueError(f"point has {len(p)} coordinates, expected {self.k}")
        for c in p:
            if type(c) is not int or not 0 <= c < self.bound:
                # bools, non-integers, int-likes such as numpy.int64, and
                # the coordinate out of range
                return tuple(as_coordinate(c, bound=self.bound) for c in p)
        return p

    # -- group navigation ------------------------------------------------
    #
    # path[i] is the handle of p[:i] one level up from level i (path[0] is
    # HEAD), so the level-i group that p[:i+1] belongs to starts at
    # above[i].cross[path[i]].  The group does not exist while that link
    # is unset: None on a node just made, DUMMY in an empty index's header.
    # The first node's marker, trees[i].trie[first], is the group's member
    # count (an int) or its trie.

    def _group_last(self, i: int, path: list[int],
                    stats: Optional[VisitStats]) -> int:
        """Last level-i node before the group after p[:i]'s, or DUMMY
        when level i is empty."""
        above, tree = self.above[i], self.trees[i]
        s = above.in_succ(path[i], stats)
        if s == DUMMY:
            return tree.last(stats)
        return tree.in_pred(above.cross[s], stats)

    def _set_group_first(self, i: int, path: list[int],
                         old: int, new: int) -> None:
        """Make ``new`` its group's first node: it takes the group marker
        from ``old`` (none from DUMMY, for a new group) and the cross link
        above."""
        tries = self.trees[i].trie
        tries[new], tries[old] = tries[old], None
        self.above[i].cross[path[i]] = new

    def _group_trie(self, i: int, first: int, n: int,
                    stats: Optional[VisitStats]) -> ValueTrie:
        """A trie over the ``n`` members of the level-i group from ``first``.

        Its columns are made at their final length, so the trie holds no
        spare list capacity."""
        tree = self.trees[i]
        coord = tree.coord
        coords, handles = [coord[first]] * n, [first] * n
        h = first
        for a in range(1, n):
            h = handles[a] = tree.in_succ(h, stats)
            coords[a] = coord[h]
        return ValueTrie.from_columns(self.radix, self.width, coords, handles)

    def _prefix_path(self, p: tuple, stats: Optional[VisitStats] = None
                     ) -> tuple[list[int], Optional[int], Optional[int]]:
        """HEAD and the handles of p's stored prefixes, shortest first, up
        to the first level that misses (k + 1 of them when p is stored),
        and that level's lookup: its group's last member below p[i] when
        a count walk found one, else None, and its first member at p[i]
        or above, DUMMY or None when there is none (both None when the
        level has no group or p is stored).

        Each level it reads takes one successor lookup of p[i], one
        ``trie_lookups``: the group trie's ``succ_geq`` or the count
        walk, ``_small_succ``.  The level holds p[i] when that
        successor's coordinate is p[i]."""
        path = [HEAD]
        for i, tree in enumerate(self.trees):
            g = self.above[i].cross[path[i]]
            if g == DUMMY:
                break
            c = p[i]
            marker = tree.trie[g]
            if type(marker) is int:
                prev, h = _small_succ(tree, g, c, stats)
            else:
                prev, h = None, marker.succ_geq(c, stats)
            if not h or tree.coord[h] != c:
                return path, prev, h
            path.append(h)
        return path, None, None

    # -- lookups ---------------------------------------------------------

    def contains(self, point: Sequence[int]) -> bool:
        p = self._check_point(point)
        return len(self._prefix_path(p)[0]) > self.k

    def __contains__(self, point) -> bool:
        return self.contains(point)

    # -- insertion -------------------------------------------------------

    def insert(self, point: Sequence[int],
               stats: Optional[VisitStats] = None) -> bool:
        """Add a point; returns False (and changes nothing) if present.

        The first level that misses takes its position from the prefix
        path's lookup there; every level below it opens a group."""
        p = self._check_point(point)
        path, prev, s = self._prefix_path(p, stats)
        if len(path) > self.k:
            return False
        for i in range(len(path) - 1, self.k):
            tree = self.trees[i]
            tries = tree.trie
            g = self.above[i].cross[path[i]] or DUMMY
            marker = 0 if g == DUMMY else tries[g]
            if prev is not None:
                # after the group's last member below p[i]
                pos = prev
            elif s:
                # before the group's first member at p[i] or above
                pos = tree.in_pred(s, stats)
            else:
                # at the end of the group or, opening one, after the
                # groups before it
                pos = self._group_last(i, path, stats)
            h = tree.insert_after(pos, p[:i + 1], stats)
            tree.coord[h] = p[i]
            if g == DUMMY or p[i] < tree.coord[g]:
                self._set_group_first(i, path, g, h)
                g = h
            if type(marker) is not int:
                marker.insert(p[i], h, stats)
            elif marker < T:
                tries[g] = marker + 1
            else:
                tries[g] = self._group_trie(i, g, marker + 1, stats)
            path.append(h)
            prev = s = None
        return True

    # -- deletion --------------------------------------------------------

    def delete(self, point: Sequence[int],
               stats: Optional[VisitStats] = None) -> bool:
        """Remove a point; returns False if it was not stored."""
        p = self._check_point(point)
        path = self._prefix_path(p, stats)[0]
        if len(path) <= self.k:
            return False
        for i in range(self.k - 1, -1, -1):
            tree = self.trees[i]
            h = path[i + 1]
            g = self.above[i].cross[path[i]]
            marker = tree.trie[g]
            n = marker if type(marker) is int else marker.size
            if n > 1:
                if n > T + 1:
                    marker.delete(p[i], stats)
                else:
                    # a count, or a trie whose group falls to T, gives
                    # way to the smaller count
                    tree.trie[g] = n - 1
                if g == h:
                    # the group minimum leaves: the next member takes over
                    self._set_group_first(i, path, h, tree.in_succ(h, stats))
                tree.delete_node(h, stats)
                break
            # sole member: the whole group goes, so its link above is
            # unset and the prefix one level up must go too (the header
            # stays, with DUMMY for the emptied index)
            self.above[i].cross[path[i]] = DUMMY
            tree.delete_node(h, stats)
        return True

    # -- verification ----------------------------------------------------

    def validate(self) -> list[str]:
        """Check every cross-level invariant; returns violation strings."""
        out: list[str] = []
        k = self.k
        for i, tree in enumerate(self.trees):
            for v in tree.validate():
                out.append(f"level {i}: {v}")
        if out:
            return out

        # order[i + 1]: level i's handles in inorder; order[0]: the header's
        order = [list(t.inorder()) for t in (self.above[0], *self.trees)]
        points = [self.trees[-1].key[h] for h in order[k]]
        for i, tree in enumerate(self.trees):
            got = [tree.key[h] for h in order[i + 1]]
            expect = sorted({p[:i + 1] for p in points})
            if got != expect:
                out.append(f"level {i}: keys differ from the prefix set "
                           f"({len(got)} vs {len(expect)})")
        for i in range(k - 1):
            if not self.trees[i].size <= self.trees[i + 1].size:
                out.append(f"level {i}: larger than level {i + 1}")
        for i, tree in enumerate(self.trees):
            for c in [c for h in order[i + 1] for c in tree.key[h]]:
                if not 0 <= c < self.bound:
                    out.append(f"level {i}: coordinate {c} out of range")
            # the walks read a node's level coordinate from its coord cell
            for h in order[i + 1]:
                if tree.coord[h] != tree.key[h][i]:
                    out.append(f"level {i}: node {tree.key[h]} has coord "
                               f"{tree.coord[h]!r}, not its key's "
                               f"coordinate {tree.key[h][i]}")
        if out:
            return out

        # per level: group layout, markers, and the cross links into it
        for i, tree in enumerate(self.trees):
            keys = tree.key
            groups: dict[tuple, list[int]] = {}
            for h in order[i + 1]:
                groups.setdefault(keys[h][:i], []).append(h)
            firsts = {members[0] for members in groups.values()}
            for prefix, members in groups.items():
                marker = tree.trie[members[0]]
                where = f"level {i}: group {prefix} of {len(members)}"
                if type(marker) is int:
                    if marker != len(members) or marker > T:
                        out.append(f"{where} counts {marker} (T = {T})")
                    continue
                if not isinstance(marker, ThreadedTrie):
                    out.append(f"{where}: first node carries {marker!r}, "
                               f"not a count or a trie")
                    continue
                faults = marker.validate()
                out += [f"{where} trie: {v}" for v in faults]
                if marker.size <= T:
                    out.append(f"{where} keeps a trie (T = {T})")
                if faults:
                    # items() walks only a sound trie
                    continue
                want = [(keys[h][i], h) for h in members]
                got = list(marker.items())
                if got != want:
                    out.append(f"{where} trie maps {got} instead of {want}")
            for h in order[i + 1]:
                if h not in firsts and tree.trie[h] is not None:
                    out.append(f"level {i}: non-first node {keys[h]} "
                               f"carries a marker")
            # every node one level up, the header included, links to its
            # group's first member here; the empty index's header to DUMMY
            above = self.above[i]
            for h in order[i]:
                key, cl = above.key[h], above.cross[h]
                first = groups.get(key, [DUMMY])[0]
                if cl != first:
                    out.append(f"level {i - 1}: cross link of {key} is {cl}, "
                               f"not its group minimum {first}")
        last = self.trees[k - 1]
        for h in order[k]:
            if last.cross[h] is not None:
                out.append(f"last level: node {last.key[h]} has a cross link")
        return out
