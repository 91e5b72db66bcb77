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

A point alone under its (i+1)-prefix on a level i with 1 <= i <= k-2
lives there as a *leaf*: the node's key is the point itself, its cross
cell holds that same tuple in place of a handle, and the levels below
hold nothing for it.  This is the lazy expansion of the group tries (see
below) one structure up, across levels, as PATRICIA's path compression
(Morrison, JACM 1968) is for bits.  A leaf's point orders correctly
among level i's prefixes, since distinct prefixes on one level differ
within their first i + 1 coordinates.  Level 0 never holds a leaf, so
every level-0 node keeps a group below, and an index with k <= 2 has
none.  The layout depends only on the point set: an insert under a
leaf's prefix expands the leaf down to the level where the two points
part, and a delete that leaves a group on level 2 or below with one
member holding one point folds that group back into its parent, on up
while the parent's own group is left with it alone.  ``len()`` reads the
index's count of points, ``size``.

The index keeps three payload columns in each level's tree, one cell per
handle: ``cross`` holds the cross link, ``trie`` the group marker below,
and ``coord`` the node's level coordinate, ``key[h][i]`` on level i.
That is the same int object as in the key tuple, so the column costs one
list cell per node, and the lookups and the query walk read a node's
coordinate without touching its tuple.

Every group-first node carries a marker in its ``trie`` column; no other
node does.  A group of more than ``T`` members keeps a successor-threaded
trie mapping the members' level coordinate to their tree handles, a
``ThreadedTrie``, whose slots hold the handles themselves and whose
lookups answer with them; it reads a handle's key from the level's
``coord`` column, so the coordinate is stored once.  A
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

The tries and walks replace key search on every path but those beside
a leaf: membership looks up at most k groups, insertion derives its
position hint from group successors and neighbouring groups' cross
links, so the per-level structural work does not grow with the number
of stored points.  The one search by key, a root-to-leaf descent of one
level's tree (``ThreadedAvlTree.last_below``), O(log m), places a node
whose neighbours one level up may be leaves, which link to no group:
each level an expansion opens, and an insert past the end of a group
whose next node one level up is a leaf.
Deletion walks bottom-up, pruning prefix nodes whose group emptied and
re-aiming cross links and markers when a group minimum goes away.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
from collections import Counter
from itertools import chain, compress
from operator import getitem
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .stats import VisitStats
from .tree import DUMMY, ThreadedAvlTree
from .trie import ThreadedTrie, _trie_shape, as_coordinate


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


def _leaf_points(tree: ThreadedAvlTree) -> Iterator[tuple]:
    # the points of an inner level's leaves, in key order
    key, cross = tree.key, tree.cross
    return (key[h] for h in tree.inorder() if type(cross[h]) is tuple)


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

    def _hang(self, trees: list, size: int = 0) -> None:
        """Take ``trees`` as the k levels, holding ``size`` points, under a
        new header linked to level 0's first node (DUMMY when level 0 is
        empty)."""
        head = ThreadedAvlTree.from_sorted([()])
        head.cross[HEAD] = trees[0].first()
        self.trees = trees
        self.above = [head, *trees[:-1]]
        self.size = size

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
        gives every level, with no loop per point: a point's nodes end
        on the first level from 1 on where neither its own ``j`` nor the
        next point's reaches, or on the last, and level i's keys are the
        (i+1)-prefixes of the points with ``j <= i`` whose nodes do not
        end above it, the point itself for a leaf, one that ends on an
        inner level.  Level i's groups start at those with ``j < i``.
        The stored points are tuples of the index's own,
        equal to the caller's but not the same objects: they are made in
        sorted order from the sorted rows, over one int per distinct
        coordinate value, so a walk in key order reads points that lie in
        that order in memory.  The last level and the leaves hold them,
        each inner level slices them, and each level's ``coord`` column
        is cut from the same column lists and is the tries' key map, so
        the whole load shares one int per value.  Each level's tree is
        linked as ``ThreadedAvlTree.from_sorted`` links it and takes its
        payload columns, each made once with its final contents.  Its
        group markers are written as one column: a group of ``T`` or
        fewer members gets its count, and ``ThreadedTrie.level_tries``
        builds the longer ones' tries together.  Level i's g-th group
        hangs under level i-1's g-th key that is not a leaf or, for level
        0's one group, under the header's ``HEAD``; a leaf's cross cell
        is its point, so a level from 2 on stays empty when every key
        one level up is a leaf.  The trees come out perfectly balanced,
        so the counters of later updates that depend on a tree's shape
        (``threads_followed``, ``rotations`` and ``tree_nodes_visited``)
        can differ from an index built by ``insert``; points, markers,
        cross links, query results and every query counter are the same,
        since a query's successor steps read the ``succ`` column, one
        thread each.

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
        # ends: the level each point's nodes end on, the first from level
        # 1 on where no other point shares its prefix (the next point parts
        # from it at its own j), or the last
        ends = np.maximum(j, np.append(j[1:], -1))
        ends = np.minimum(np.maximum(ends, 1), k - 1)
        trees = []
        firsts = np.ones(1, np.int64)
        # mask: the points that have a node on level i, those that open its
        # prefix there and do not end above it
        mask = j <= 0
        for i in range(k):
            opens = mask.tolist()
            full = bool(mask.all())
            level = pts if full else compress(pts, opens)
            cut = columns[i] if full else compress(columns[i], opens)
            if i < k - 1:
                # a leaf's key is its point, any other inner key the
                # (i+1)-prefix
                leaf = ends[mask] == i
                cuts = np.array([slice(0, i + 1), slice(None)], object)
                level = list(map(getitem, level,
                                 cuts[leaf.astype(np.intp)].tolist()))
            elif not full:
                level = list(level)
            # the coord column: coordinate i's column list cut to the
            # level's keys, with the dummy's cell in front; the column list
            # and the cut go before the tree is built
            coord = [None, *cut]
            columns[i] = cut = opens = None
            if i < k - 1:
                # the cross links: a leaf's point, and the other nodes' the
                # first handles of level i + 1's groups, in order
                nxt = (j <= i + 1) & (ends >= i + 1)
                below = np.flatnonzero(j[nxt] <= i) + 1
                cross = np.fromiter(level, object, len(level))
                cross[~leaf] = np.fromiter(
                    map(handles.__getitem__, below.tolist()), object,
                    len(below))
                cross = [None, *cross.tolist()]
            else:
                cross, below, nxt = [None] * len(coord), None, None
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
                # the tries hold the handles and read their keys from
                # the coord column; the numpy column has a cell for the
                # dummy too
                tries = ThreadedTrie.level_tries(
                    self.radix, self.width, np.insert(rows[mask, i], 0, 0),
                    coord, handles, firsts[long], (firsts + sizes)[long])
                for h, trie in zip(firsts[long].tolist(), tries):
                    markers[h] = trie
            firsts, mask = below, nxt
        self._hang(trees, len(pts))

    def __len__(self) -> int:
        return self.size

    def points(self) -> Iterator[tuple]:
        """Stored points in lexicographic order: the last level's keys,
        merged with the leaves' on the inner levels.  Like ``dict``
        iteration, the iterator raises RuntimeError on its next step after
        an insert or delete changed the index."""
        trees = self.trees
        was = sum(t.mutations for t in trees)
        leaves = map(_leaf_points, trees[1:-1])
        for p in heapq.merge(*leaves, trees[-1].keys()):
            yield p
            if sum(t.mutations for t in trees) != was:
                raise RuntimeError("index changed during iteration")

    def describe(self) -> dict:
        """The index's shape, level by level: its nodes, leaves and
        groups, how many groups have each size, how many keep a trie and
        how many live nodes those tries hold, roots included, and the
        tree's height beside its AVL bound.  Groups are read from their
        markers; ``validate`` checks that the markers count the groups'
        members."""
        levels = []
        for i, tree in enumerate(self.trees):
            sizes: Counter = Counter()
            leaves = tries = trie_nodes = 0
            for h in tree.inorder():
                leaves += type(tree.cross[h]) is tuple
                marker = tree.trie[h]
                if type(marker) is int:
                    sizes[marker] += 1
                elif marker is not None:
                    tries += 1
                    trie_nodes += marker.nodes()
                    sizes[marker.size] += 1
            levels.append({
                "level": i, "nodes": tree.size, "leaves": leaves,
                "groups": sum(sizes.values()),
                "group_sizes": dict(sorted(sizes.items())), "tries": tries,
                "trie_nodes": trie_nodes,
                "height": tree.height(),
                "height_bound": round(tree.height_bound(), 2)})
        return {"k": self.k, "points": len(self), "levels": levels}


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
        when level i is empty.  That group hangs under the next node one
        level up, unless that node is a leaf, which has none: then the
        position is the last node below the leaf's point, found by key
        (``last_below``) as for an expansion, since no level-i key lies
        between p[:i]'s group and that point."""
        above, tree = self.above[i], self.trees[i]
        s = above.in_succ(path[i], stats)
        if s == DUMMY:
            return tree.last(stats)
        g = above.cross[s]
        if type(g) is tuple:
            return tree.last_below(g, stats)
        return tree.in_pred(g, stats)

    def _set_group_first(self, i: int, path: list[int],
                         old: int, new: int) -> None:
        """Make ``new`` its group's first node: it takes the group marker
        from ``old`` (none from DUMMY, for a new group) and the cross link
        above."""
        tries = self.trees[i].trie
        tries[new], tries[old] = tries[old], None
        self.above[i].cross[path[i]] = new

    def _group_trie(self, i: int, first: int, n: int,
                    stats: Optional[VisitStats]) -> ThreadedTrie:
        """A trie over the ``n`` members of the level-i group from ``first``,
        reading their keys from the level's ``coord`` column.

        The walk lists the handles, and steps by the tree's ``succ``
        column in this frame, each step one ``threads_followed``, as
        ``in_succ`` counts it."""
        tree = self.trees[i]
        succ = tree.succ
        handles = [first] * n
        h = first
        for a in range(1, n):
            h = handles[a] = succ[h]
        if stats is not None:
            stats.threads_followed += n - 1
        return ThreadedTrie.from_columns(self.radix, self.width, handles,
                                         tree.coord)

    def _prefix_path(self, p: tuple, stats: Optional[VisitStats] = None
                     ) -> tuple[list[int], Optional[int], object]:
        """HEAD and the handles of p's stored prefixes, shortest first, up
        to the first level that misses or the first leaf (k + 1 of them
        when the last level holds p), and that level's lookup: its
        group's last member below p[i] when a count walk found one, else
        None, and its first member at p[i] or above, DUMMY or None when
        there is none (both None when the level has no group or the last
        level holds p).  A path that ends at a leaf, the leaf's handle
        last, comes with None and the leaf's point, which is p when p is
        stored there.

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
            q = tree.cross[h]
            if type(q) is tuple:
                return path, None, q
        return path, None, None

    # -- lookups ---------------------------------------------------------

    def contains(self, point: Sequence[int]) -> bool:
        p = self._check_point(point)
        path, _, s = self._prefix_path(p)
        return len(path) > self.k or s == p

    def __contains__(self, point) -> bool:
        return self.contains(point)

    # -- insertion -------------------------------------------------------

    def insert(self, point: Sequence[int],
               stats: Optional[VisitStats] = None) -> bool:
        """Add a point; returns False (and changes nothing) if present.

        The first level that misses takes its position from the prefix
        path's lookup there.  The point's last node is on level 1 or below:
        a level-0 node opens a group one level down for it.  Inner levels
        from 1 on hold it as a leaf, and a path that ends at another
        point's leaf expands that leaf (``_expand``)."""
        p = self._check_point(point)
        path, prev, s = self._prefix_path(p, stats)
        if len(path) > self.k or s == p:
            return False
        if type(s) is tuple:
            self._expand(len(path) - 2, path[-1], s, p, stats)
            self.size += 1
            return True
        k = self.k
        for i in range(len(path) - 1, k):
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
            h = tree.insert_after(pos, p if i else p[:1], stats)
            tree.coord[h] = p[i]
            if 0 < i < k - 1:
                tree.cross[h] = p
            if g == DUMMY or p[i] < tree.coord[g]:
                self._set_group_first(i, path, g, h)
                g = h
            if type(marker) is not int:
                marker.insert(p[i], h, stats)
            elif marker < T:
                tries[g] = marker + 1
            else:
                tries[g] = self._group_trie(i, g, marker + 1, stats)
            if i:
                break
            path.append(h)
            prev = s = None
        self.size += 1
        return True

    def _expand(self, i: int, h: int, q: tuple, p: tuple,
                stats: Optional[VisitStats]) -> None:
        """Store ``p`` under the leaf ``h`` on level i, which holds ``q``
        and shares p's (i+1)-prefix: h's key becomes that prefix, each
        level below it down to the one where p and q part opens a group
        for their shared prefix, and that level takes both as a group of
        two.  Each new group's position is the one search by key,
        ``last_below``, since the nodes before it on its level may hang
        under leaves one level up, which link to no group there."""
        k = self.k
        d = i + 1
        while p[d] == q[d]:
            d += 1
        a, b = (p, q) if p < q else (q, p)
        self.trees[i].key[h] = q[:i + 1]
        for j in range(i + 1, d + 1):
            tree = self.trees[j]
            key = q[:j + 1] if j < d else a
            g = tree.insert_after(tree.last_below(key, stats), key, stats)
            tree.coord[g] = key[j]
            self.trees[j - 1].cross[h] = g
            tree.trie[g] = 1 if j < d else 2
            h = g
        # level d holds a and b: on the last level or as leaves
        h = tree.insert_after(g, b, stats)
        tree.coord[h] = b[d]
        if d < k - 1:
            tree.cross[g], tree.cross[h] = a, b

    # -- deletion --------------------------------------------------------

    def delete(self, point: Sequence[int],
               stats: Optional[VisitStats] = None) -> bool:
        """Remove a point; returns False if it was not stored.

        The point's last node goes, from the last level or a leaf.  A
        group on level 2 or below left with one member that holds one
        point folds into its parent (``_fold``)."""
        p = self._check_point(point)
        path, _, s = self._prefix_path(p, stats)
        if len(path) <= self.k and s != p:
            return False
        self.size -= 1
        for i in range(len(path) - 2, -1, -1):
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
                    g = tree.in_succ(h, stats)
                    self._set_group_first(i, path, h, g)
                tree.delete_node(h, stats)
                if n == 2 and i > 1:
                    self._fold(i, path, g, stats)
                break
            # sole member: the whole group goes, so its link above is
            # unset and the prefix one level up must go too (the header
            # stays, with DUMMY for the emptied index)
            self.above[i].cross[path[i]] = DUMMY
            tree.delete_node(h, stats)
        return True

    def _fold(self, i: int, path: list[int], r: int,
              stats: Optional[VisitStats]) -> None:
        """The level-i group under ``path[i]`` has fallen to one member,
        ``r``.  When r holds one point, a last-level node or a leaf, the
        group folds into its parent, which becomes a leaf holding that
        point, and r goes.  The parent's own group folds on the same way
        while it is left with the parent alone and sits on level 2 or
        below."""
        tree = self.trees[i]
        q = tree.key[r]
        if i < self.k - 1 and type(tree.cross[r]) is not tuple:
            return
        while True:
            up = self.trees[i - 1]
            h = path[i]
            up.key[h] = up.cross[h] = q
            tree.delete_node(r, stats)
            i -= 1
            tree, r = up, h
            if i < 2 or tree.trie[self.above[i].cross[path[i]]] != 1:
                return

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
        # leaves[i]: level i's leaves, the nodes of an inner level from 1
        # on whose key is a point
        leaves = [[h for h in order[i + 1] if len(tree.key[h]) == k]
                  if 0 < i < k - 1 else []
                  for i, tree in enumerate(self.trees)]
        points = [self.trees[-1].key[h] for h in order[k]]
        points += [t.key[h] for t, hs in zip(self.trees, leaves) for h in hs]
        if len(points) != self.size:
            out.append(f"size {self.size} but {len(points)} points stored")
        # held[prefix]: the stored points with that prefix; under[i]: the
        # prefixes of level i's leaves, which no lower level holds
        held = Counter(p[:i + 1] for p in points for i in range(k))
        under: list[set] = []
        for i, tree in enumerate(self.trees):
            keys = tree.key
            for h in leaves[i]:
                p = keys[h]
                if held[p[:i + 1]] > 1:
                    out.append(f"level {i}: leaf {p} shares its prefix with "
                               f"{held[p[:i + 1]] - 1} other point(s)")
                if tree.cross[h] != p:
                    out.append(f"level {i}: leaf {p} has cross cell "
                               f"{tree.cross[h]!r}, not its point")
            lone = set(leaves[i])
            for h in order[i + 1]:
                key = keys[h]
                if any(key[:j + 1] in under[j] for j in range(1, i)):
                    out.append(f"level {i}: node {key} lies under a leaf")
                elif 0 < i < k - 1 and h not in lone and held[key] < 2:
                    out.append(f"level {i}: node {key} holds "
                               f"{held[key]} point(s) and is not a leaf")
            under.append({keys[h][:i + 1] for h in leaves[i]})
            got = [keys[h][:i + 1] if h in lone else keys[h]
                   for h in order[i + 1]]
            expect = sorted({p[:i + 1] for p in points
                             if not any(p[:j + 1] in under[j]
                                        for j in range(1, i))})
            if got != expect:
                out.append(f"level {i}: keys differ from the prefix set "
                           f"({len(got)} vs {len(expect)})")
        for i in range(k - 1):
            inner = self.trees[i].size - len(leaves[i])
            if not inner <= self.trees[i + 1].size:
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
                if marker.key_of is not tree.coord:
                    # the query walk settles a member by its coord cell
                    out.append(f"{where} trie reads its keys from another "
                               f"map than the level's coord column")
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
            # every node one level up but a leaf, the header included,
            # links to its group's first member here; the empty index's
            # header to DUMMY
            above = self.above[i]
            lone = set(leaves[i - 1]) if i else ()
            for h in order[i]:
                if h in lone:
                    continue
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
