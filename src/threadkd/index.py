"""Multi-level index over k-dimensional integer points.

Level i (0-based) is a threaded balanced tree whose keys are the
distinct (i+1)-coordinate prefixes of the stored points, ordered
lexicographically; the last level holds the points themselves.  Nodes
sharing an i-prefix sit contiguously in level i's inorder sequence and
form a group.  Each level-i node (i < k-1) carries a cross link to its
group's first node one level down: the member with the smallest next
coordinate.  Every group-first node (and the inorder-first node of
level 0) carries a successor-threaded trie mapping the group members'
level coordinate to their tree handles.

The tries replace key search entirely: membership walks k tries,
insertion derives each level's position hint from trie successors and
neighbouring groups' cross links, so the per-level structural work does
not grow with the number of stored points.  Deletion walks bottom-up,
pruning prefix nodes whose group emptied and re-aiming cross links and
tries when a group minimum goes away.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Optional, Sequence

from .stats import VisitStats
from .tree import DUMMY, ThreadedAvlTree
from .trie import ThreadedTrie


def as_coordinate(c) -> int:
    """``c`` as a plain int; ValueError for bools and non-integers.

    Int-like values such as ``numpy.int64`` pass through ``__index__``.
    """
    if isinstance(c, bool):
        raise ValueError(f"coordinate {c!r} is a bool, not an integer")
    try:
        return operator.index(c)
    except TypeError:
        raise ValueError(f"coordinate {c!r} is not an integer") from None


class KdPointIndex:
    """Dynamic set of distinct k-tuples with windowed retrieval support.

    Coordinates are ints in [0, bound), or int-like values such as
    ``numpy.int64`` (stored as plain ints); bools are rejected.  bound
    must fit the trie shape, bound <= radix ** width.  Single writer,
    concurrent readers only while no mutation runs.
    """

    def __init__(self, k: int, bound: int, radix: int = 16,
                 width: Optional[int] = None):
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
        self.size = 0

    @classmethod
    def from_points(cls, k: int, bound: int, points: Iterable[Sequence[int]],
                    radix: int = 16, width: Optional[int] = None) -> "KdPointIndex":
        """Index holding ``points``; duplicates are dropped.

        Bulk load: the checked points are sorted once, one pass derives
        every level's distinct prefixes and group starts, and each level's
        tree and group tries are then built directly from sorted runs.
        The trees come out perfectly balanced, so the shape-dependent
        counters (``threads_followed``; for later updates also
        ``rotations`` and ``tree_nodes_visited``) can differ from an index
        built by ``insert``; points, tries, cross links, query results and
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
        for i, tree in enumerate(idx.trees):
            above = idx.trees[i - 1].cross if i else None
            coords = [key[i] for key in keys[i]]
            ends = starts[i][1:] + [len(coords)]
            for g, (s, e) in enumerate(zip(starts[i], ends), 1):
                first = handles[s + 1]
                tree.trie[first] = ThreadedTrie.from_sorted(
                    idx.radix, idx.width,
                    list(zip(coords[s:e], handles[s + 1:e + 1])))
                if above is not None:
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
    # path[j] is the handle of p[:j+1] on level j, so path[i-1] names the
    # level-i group that p[:i+1] belongs to.  Level 0 is one group whose
    # first node is the tree's first node.

    def _group_first(self, i: int, path: list[int],
                     stats: Optional[VisitStats]) -> int:
        """First node of the level-i group under path[:i]."""
        if i == 0:
            return self.trees[0].first(stats)
        return self.trees[i - 1].cross[path[i - 1]]

    def _group_last(self, i: int, path: list[int],
                    stats: Optional[VisitStats]) -> int:
        """Last level-i node before the group after path[:i]'s, or DUMMY
        when level i is empty."""
        tree = self.trees[i]
        if i == 0:
            return tree.last(stats) if tree.size else DUMMY
        above = self.trees[i - 1]
        s = above.in_succ(path[i - 1], stats)
        if s == DUMMY:
            return tree.last(stats)
        return tree.in_pred(above.cross[s], stats)

    def _set_group_first(self, i: int, path: list[int], trie: ThreadedTrie,
                         old: int, new: int) -> None:
        """Make ``new`` its group's first node: it takes the group trie
        from ``old`` (DUMMY for a new group) and the cross link above."""
        tries = self.trees[i].trie
        tries[old] = None
        tries[new] = trie
        if i > 0:
            self.trees[i - 1].cross[path[i - 1]] = new

    def _prefix_path(self, p: tuple,
                     stats: Optional[VisitStats] = None) -> list[int]:
        """Handles of p's stored prefixes, shortest first, up to the
        first level that misses; all k of them when p is stored."""
        path: list[int] = []
        if self.size == 0:
            return path
        for i in range(self.k):
            # a lookup counts trie work only, not the step to a group
            g = self._group_first(i, path, None)
            e = self.trees[i].trie[g].find(p[i], stats)
            if e is None:
                break
            path.append(e.value)
        return path

    # -- lookups ---------------------------------------------------------

    def contains(self, point: Sequence[int]) -> bool:
        p = self._check_point(point)
        return len(self._prefix_path(p)) == self.k

    def __contains__(self, point) -> bool:
        return self.contains(point)

    # -- insertion -------------------------------------------------------

    def insert(self, point: Sequence[int],
               stats: Optional[VisitStats] = None) -> bool:
        """Add a point; returns False (and changes nothing) if present."""
        p = self._check_point(point)
        path = self._prefix_path(p, stats)
        jstar = len(path)
        if jstar == self.k:
            return False
        for i in range(jstar, self.k):
            tree = self.trees[i]
            if i == jstar and self.size:
                # joins an existing group, before its trie successor or,
                # past the group maximum, at the group's end
                g = self._group_first(i, path, stats)
                trie = tree.trie[g]
                e = trie.succ_geq(p[i], stats)
                if e is not None:
                    pos = tree.in_pred(e.value, stats)
                else:
                    pos = self._group_last(i, path, stats)
            else:
                # opens a group under the node just made one level up
                g = DUMMY
                trie = ThreadedTrie(self.radix, self.width)
                pos = self._group_last(i, path, stats)
            h = tree.insert_after(pos, p[:i + 1], stats)
            if g == DUMMY or p[i] < tree.key[g][i]:
                self._set_group_first(i, path, trie, g, h)
            trie.insert(p[i], h, stats)
            path.append(h)
        self.size += 1
        return True

    # -- deletion --------------------------------------------------------

    def delete(self, point: Sequence[int],
               stats: Optional[VisitStats] = None) -> bool:
        """Remove a point; returns False if it was not stored."""
        p = self._check_point(point)
        path = self._prefix_path(p, stats)
        if len(path) < self.k:
            return False
        for i in range(self.k - 1, -1, -1):
            tree = self.trees[i]
            h = path[i]
            g = self._group_first(i, path, stats)
            trie = tree.trie[g]
            if trie.size > 1:
                trie.delete(p[i], stats)
                if g == h:
                    # the group minimum leaves: the next member takes over
                    self._set_group_first(i, path, trie, h,
                                          tree.in_succ(h, stats))
                tree.delete_node(h, stats)
                break
            # sole member: the whole group goes, so the prefix one level
            # up must go too
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

        # per level: group layout, tries, cross links
        for i in range(k):
            tree = self.trees[i]
            keys = tree.key
            groups: dict[tuple, list[int]] = {}
            for h in tree.inorder():
                groups.setdefault(keys[h][:i], []).append(h)
            firsts = {members[0] for members in groups.values()}
            for prefix, members in groups.items():
                trie = tree.trie[members[0]]
                if trie is None:
                    out.append(f"level {i}: group {prefix} first node lacks a trie")
                    continue
                for v in trie.validate():
                    out.append(f"level {i}: group {prefix} trie: {v}")
                want = [(keys[h][i], h) for h in members]
                got = list(trie.items())
                if got != want:
                    out.append(f"level {i}: group {prefix} trie maps "
                               f"{got} instead of {want}")
            for h in tree.inorder():
                key = keys[h]
                if h not in firsts and tree.trie[h] is not None:
                    out.append(f"level {i}: non-first node {key} carries a trie")
                cl = tree.cross[h]
                if i < k - 1:
                    below = self.trees[i + 1]
                    if cl is None:
                        out.append(f"level {i}: node {key} lacks a cross link")
                        continue
                    target_key = below.key[cl]
                    if target_key[:i + 1] != key:
                        out.append(f"level {i}: cross link of {key} targets "
                                   f"{target_key}")
                        continue
                    pred = below.in_pred(cl)
                    if pred != DUMMY and below.key[pred][:i + 1] == key:
                        out.append(f"level {i}: cross link of {key} misses the "
                                   f"group minimum {target_key}")
                elif cl is not None:
                    out.append(f"last level: node {key} has a cross link")
        return out
