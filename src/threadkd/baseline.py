"""Reference engines: vectorized brute force and a plain kd-tree.

The brute-force filter is ground truth for every equivalence check.
The kd-tree is the classic insert-built, unbalanced variant that
alternates the discriminating coordinate by depth; it exists to compare
node-visit counts against, so its query reports how many nodes it
touched.  Both are deliberately independent of the threaded index:
they share no code with it beyond the point tuples.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .stats import VisitStats


def points_array(points: Sequence[Sequence[int]]) -> np.ndarray:
    """``points`` as an array: ``int64`` when every coordinate fits, and
    ``object``, whose cells are Python ints, when one does not.  Points
    in [0, bound) fit whenever ``bound <= 2**63``, the split
    ``KdPointIndex.from_points`` makes."""
    try:
        return np.asarray(points, dtype=np.int64)
    except OverflowError:
        return np.asarray(points, dtype=object)


def brute_force_query(points: Sequence[Sequence[int]],
                      window: Sequence[Sequence[int]]) -> list[tuple]:
    """Componentwise inclusive filter; returns sorted tuples.  ``points``
    is a sequence of points or an array from ``points_array``."""
    if len(points) == 0:
        return []
    arr = points_array(points)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    mask = np.ones(len(arr), dtype=bool)
    for j, (lo, hi) in enumerate(window):
        col = arr[:, j]
        mask &= (col >= lo) & (col <= hi)
    hits = arr[mask]
    return sorted(tuple(int(c) for c in row) for row in hits)


class _KdNode:
    __slots__ = ("point", "left", "right")

    def __init__(self, point: tuple):
        self.point = point
        self.left: Optional[_KdNode] = None
        self.right: Optional[_KdNode] = None


class NaiveKdTree:
    """Insert-built kd-tree, no balancing; ties on the axis go right."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.root: Optional[_KdNode] = None
        self.size = 0

    @classmethod
    def from_points(cls, k: int, points) -> "NaiveKdTree":
        t = cls(k)
        for p in points:
            t.insert(p)
        return t

    def insert(self, point) -> bool:
        p = tuple(point)
        if len(p) != self.k:
            raise ValueError(f"point arity {len(p)}, expected {self.k}")
        if self.root is None:
            self.root = _KdNode(p)
            self.size = 1
            return True
        node = self.root
        depth = 0
        while True:
            if node.point == p:
                return False
            axis = depth % self.k
            if p[axis] < node.point[axis]:
                if node.left is None:
                    node.left = _KdNode(p)
                    self.size += 1
                    return True
                node = node.left
            else:
                if node.right is None:
                    node.right = _KdNode(p)
                    self.size += 1
                    return True
                node = node.right
            depth += 1

    def query(self, window: Sequence[Sequence[int]],
              stats: Optional[VisitStats] = None) -> list[tuple]:
        """Points inside the window, sorted; counts every node touched.

        Iterative with an explicit stack: clustered inputs produce long
        one-sided chains that would blow the recursion limit.
        """
        w = [(lo, hi) for lo, hi in window]
        if len(w) != self.k:
            raise ValueError(f"window arity {len(w)}, expected {self.k}")
        out: list[tuple] = []
        if self.root is None:
            return out
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if stats is not None:
                stats.tree_nodes_visited += 1
            p = node.point
            if all(lo <= c <= hi for c, (lo, hi) in zip(p, w)):
                out.append(p)
            axis = depth % self.k
            lo, hi = w[axis]
            v = p[axis]
            # left holds coords < v, right holds coords >= v
            if node.left is not None and lo < v:
                stack.append((node.left, depth + 1))
            if node.right is not None and hi >= v:
                stack.append((node.right, depth + 1))
        return sorted(out)
