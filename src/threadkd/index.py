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

Every group-first node carries a marker in its ``trie`` column; no other
node does.  A group of more than ``T`` members keeps a successor-threaded
trie mapping the members' level coordinate to their tree handles.  A
smaller group keeps its member count, a positive int, and its successor
lookup walks at most ``T`` inorder threads from the first member instead
(adaptive node sizing, as in Leis, Kemper and Neumann, "The Adaptive
Radix Tree", ICDE 2013).  A group that grows past ``T`` gets its trie
built from its members, and one that falls back to ``T`` trades it for
its count, so the marker depends only on the group's size.

The tries and walks replace key search entirely: membership looks up k
groups, insertion derives each level's position hint from group
successors and neighbouring groups' cross links, so the per-level
structural work does not grow with the number of stored points.
Deletion walks bottom-up, pruning prefix nodes whose group emptied and
re-aiming cross links and markers when a group minimum goes away.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Optional, Sequence

from .stats import VisitStats
from .tree import DUMMY, ThreadedAvlTree
from .trie import ThreadedTrie


HEAD = 1    # the header's one node, the empty prefix

# Largest group kept without a trie.  Swept over 1, 2, 4, 8 and 16 on the
# benchmark workloads: 1 to 8 build and query `square` alike, `churn`'s
# build time and memory fall as T grows (its level-1 groups have about 12
# members), and 16 reaches `lead-narrow`'s smallest groups and lengthens
# `square`'s query walks.
T = 8


def as_coordinate(c, what: str = "coordinate") -> int:
    """``c`` as a plain int; ValueError for bools and non-integers.

    Int-like values such as ``numpy.int64`` pass through ``__index__``.
    """
    if isinstance(c, bool):
        raise ValueError(f"{what} {c!r} is a bool, not an integer")
    try:
        return operator.index(c)
    except TypeError:
        raise ValueError(f"{what} {c!r} is not an integer") from None


def _small_succ(tree: ThreadedAvlTree, i: int, first: int, c: int,
                stats: Optional[VisitStats] = None
                ) -> tuple[Optional[int], int]:
    """Successor lookup in the level-i group from ``first`` that keeps a
    member count instead of a trie.

    Returns the group's last member whose level coordinate is below
    ``c`` (None when ``first``'s is not) and its first member at ``c``
    or above (DUMMY when none is).  Walks at most the count, so at most
    ``T`` inorder threads; counted as trie work, one ``trie_nodes_visited``
    per member read, as ``ThreadedTrie.find`` counts.  A caller that
    stands in for ``succ_geq`` counts the ``trie_lookups`` itself.
    """
    key = tree.key
    n = tree.trie[first]
    prev, h = None, first
    while True:
        if stats is not None:
            stats.trie_nodes_visited += 1
        if key[h][i] >= c:
            return prev, h
        n -= 1
        if n == 0:
            return h, DUMMY
        prev, h = h, tree.in_succ(h, stats)


def group_succ(tree: ThreadedAvlTree, i: int, first: int, c: int,
               stats: Optional[VisitStats] = None) -> int:
    """First member at ``c`` or above of the level-i group from ``first``,
    or DUMMY: the group trie's successor, or for a group that keeps a
    count, the small-group walk's."""
    marker = tree.trie[first]
    if type(marker) is int:
        if stats is not None:
            stats.trie_lookups += 1
        return _small_succ(tree, i, first, c, stats)[1]
    e = marker.succ_geq(c, stats)
    return DUMMY if e is None else e.value


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
        k, bound, radix = (as_coordinate(v, name) for v, name in
                           ((k, "k"), (bound, "bound"), (radix, "radix")))
        if width is not None:
            width = as_coordinate(width, "width")
        if k < 1:
            raise ValueError("k must be >= 1")
        if bound < 1:
            raise ValueError("bound must be >= 1")
        if radix < 2:
            raise ValueError("radix must be >= 2")
        if width is not None and width < 1:
            raise ValueError("width must be >= 1")
        if width is None:
            width = 1
            while radix ** width < bound:
                width += 1
        if radix ** width < bound:
            raise ValueError(f"radix**width = {radix ** width} cannot cover "
                             f"bound {bound}")
        self.k = k
        self.bound = bound
        self.radix = radix
        self.width = width
        self.trees = [ThreadedAvlTree() for _ in range(k)]
        head = ThreadedAvlTree.from_sorted([()])
        head.cross[HEAD] = DUMMY
        self.above = [head, *self.trees[:-1]]
        self.size = 0

    @classmethod
    def from_points(cls, k: int, bound: int, points: Iterable[Sequence[int]],
                    radix: int = 16, width: Optional[int] = None) -> "KdPointIndex":
        """Index holding ``points``; duplicates are dropped.

        Bulk load: the checked points are sorted once, one pass derives
        every level's distinct prefixes and group starts, and each level's
        tree and group markers are then built directly from sorted runs:
        a run of ``T`` or fewer members gets its count, a longer one a trie.
        Level i's g-th group (from 1) hangs under handle g one level up:
        level i-1's g-th key or, for level 0's one group, the header's
        ``HEAD``.  The trees come out perfectly balanced, so the
        shape-dependent counters (``threads_followed``; for later updates also
        ``rotations`` and ``tree_nodes_visited``) can differ from an index
        built by ``insert``; points, markers, cross links, query results and
        the other query counters are the same.
        """
        idx = cls(k, bound, radix, width)
        pts = sorted({idx._check_point(p) for p in points})
        if not pts:
            return idx
        # keys[i]: level i's distinct prefixes in order; starts[i]: the key
        # index of each level-i group's first member, one group per level
        # i-1 key.  p opens a group on every level below the first
        # coordinate where it differs from the previous point.
        keys: list[list[tuple]] = [[] for _ in range(k)]
        starts: list[list[int]] = [[0]] + [[] for _ in range(k - 1)]
        prev = (-1,) * k
        for p in pts:
            j = 0
            while p[j] == prev[j]:
                j += 1
            keys[j].append(p[:j + 1])
            for i in range(j + 1, k):
                starts[i].append(len(keys[i]))
                keys[i].append(p[:i + 1])
            prev = p
        handles = list(range(len(pts) + 2))
        idx.trees = [ThreadedAvlTree.from_sorted(level, handles)
                     for level in keys]
        idx.above[1:] = idx.trees[:-1]
        for i, tree in enumerate(idx.trees):
            above = idx.above[i].cross
            coords = [key[i] for key in keys[i]]
            ends = starts[i][1:] + [len(coords)]
            for g, (s, e) in enumerate(zip(starts[i], ends), 1):
                first = handles[s + 1]
                if e - s > T:
                    tree.trie[first] = ThreadedTrie.from_sorted(
                        idx.radix, idx.width,
                        list(zip(coords[s:e], handles[s + 1:e + 1])))
                else:
                    tree.trie[first] = e - s
                above[g] = first
        idx.size = len(pts)
        return idx

    def __len__(self) -> int:
        return self.size

    def points(self) -> Iterator[tuple]:
        """Stored points in lexicographic order."""
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
            if type(c) is not int:
                # bools, non-integers and int-likes such as numpy.int64
                return self._check_point(map(as_coordinate, p))
            if not 0 <= c < self.bound:
                raise ValueError(f"coordinate {c} outside [0, {self.bound})")
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
                    stats: Optional[VisitStats]) -> ThreadedTrie:
        """A trie over the ``n`` members of the level-i group from ``first``."""
        tree = self.trees[i]
        key = tree.key
        h = first
        items = [(key[h][i], h)]
        for _ in range(n - 1):
            h = tree.in_succ(h, stats)
            items.append((key[h][i], h))
        return ThreadedTrie.from_sorted(self.radix, self.width, items)

    def _prefix_path(self, p: tuple,
                     stats: Optional[VisitStats] = None) -> list[int]:
        """HEAD and the handles of p's stored prefixes, shortest first, up
        to the first level that misses; k + 1 of them when p is stored."""
        path = [HEAD]
        for i, tree in enumerate(self.trees):
            g = self.above[i].cross[path[i]]
            if g == DUMMY:
                break
            marker = tree.trie[g]
            if type(marker) is int:
                h = _small_succ(tree, i, g, p[i], stats)[1]
                if h == DUMMY or tree.key[h][i] != p[i]:
                    break
            else:
                e = marker.find(p[i], stats)
                if e is None:
                    break
                h = e.value
            path.append(h)
        return path

    # -- lookups ---------------------------------------------------------

    def contains(self, point: Sequence[int]) -> bool:
        p = self._check_point(point)
        return len(self._prefix_path(p)) > self.k

    def __contains__(self, point) -> bool:
        return self.contains(point)

    # -- insertion -------------------------------------------------------

    def insert(self, point: Sequence[int],
               stats: Optional[VisitStats] = None) -> bool:
        """Add a point; returns False (and changes nothing) if present."""
        p = self._check_point(point)
        path = self._prefix_path(p, stats)
        if len(path) > self.k:
            return False
        for i in range(len(path) - 1, self.k):
            tree = self.trees[i]
            tries = tree.trie
            g = self.above[i].cross[path[i]] or DUMMY
            marker = 0 if g == DUMMY else tries[g]
            if g == DUMMY:
                # opens a group, after the groups before it
                pos = self._group_last(i, path, stats)
            elif type(marker) is int:
                # joins a small group after its last member below p[i],
                # or before its first member
                if stats is not None:
                    stats.trie_lookups += 1
                prev = _small_succ(tree, i, g, p[i], stats)[0]
                pos = tree.in_pred(g, stats) if prev is None else prev
            else:
                # joins the group, before its trie successor or, past the
                # group maximum, at the group's end
                e = marker.succ_geq(p[i], stats)
                if e is None:
                    pos = self._group_last(i, path, stats)
                else:
                    pos = tree.in_pred(e.value, stats)
            h = tree.insert_after(pos, p[:i + 1], stats)
            if g == DUMMY or p[i] < tree.key[g][i]:
                self._set_group_first(i, path, g, h)
                g = h
            if type(marker) is not int:
                marker.insert(p[i], h, stats)
            elif marker < T:
                tries[g] = marker + 1
            else:
                tries[g] = self._group_trie(i, g, marker + 1, stats)
            path.append(h)
        self.size += 1
        return True

    # -- deletion --------------------------------------------------------

    def delete(self, point: Sequence[int],
               stats: Optional[VisitStats] = None) -> bool:
        """Remove a point; returns False if it was not stored."""
        p = self._check_point(point)
        path = self._prefix_path(p, stats)
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
        self.size -= 1
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

        level_keys = [list(t.keys()) for t in self.trees]
        points = level_keys[k - 1]
        if len(points) != self.size:
            out.append(f"size {self.size} but {len(points)} points stored")
        for i in range(k):
            expect = sorted({p[:i + 1] for p in points})
            if level_keys[i] != expect:
                out.append(f"level {i}: keys differ from the prefix set "
                           f"({len(level_keys[i])} vs {len(expect)})")
        for i in range(k - 1):
            if not self.trees[i].size <= self.trees[i + 1].size:
                out.append(f"level {i}: larger than level {i + 1}")
        for i in range(k):
            for key in level_keys[i]:
                for c in key:
                    if not 0 <= c < self.bound:
                        out.append(f"level {i}: coordinate {c} out of range")
        if out:
            return out

        # per level: group layout, markers, and the cross links into it
        for i in range(k):
            tree = self.trees[i]
            keys = tree.key
            groups: dict[tuple, list[int]] = {}
            for h in tree.inorder():
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
                for v in marker.validate():
                    out.append(f"{where} trie: {v}")
                if marker.size <= T:
                    out.append(f"{where} keeps a trie (T = {T})")
                want = [(keys[h][i], h) for h in members]
                got = list(marker.items())
                if got != want:
                    out.append(f"{where} trie maps {got} instead of {want}")
            for h in tree.inorder():
                if h not in firsts and tree.trie[h] is not None:
                    out.append(f"level {i}: non-first node {keys[h]} "
                               f"carries a marker")
            # every node one level up, the header included, links to its
            # group's first member here; the empty index's header to DUMMY
            above = self.above[i]
            for h in above.inorder():
                key, cl = above.key[h], above.cross[h]
                first = groups.get(key, [DUMMY])[0]
                if cl != first:
                    out.append(f"level {i - 1}: cross link of {key} is {cl}, "
                               f"not its group minimum {first}")
        last = self.trees[k - 1]
        for h in last.inorder():
            if last.cross[h] is not None:
                out.append(f"last level: node {last.key[h]} has a cross link")
        return out
