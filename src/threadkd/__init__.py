"""Multi-level threaded balanced-tree index for integer point sets."""

from .baseline import NaiveKdTree, brute_force_query
from .index import KdPointIndex
from .query import WindowError, level_candidates, window_query
from .stats import VisitStats
from .tree import DUMMY, InvalidTargetError, OrderingError, ThreadedAvlTree
from .trie import ThreadedTrie

__all__ = [
    "DUMMY",
    "InvalidTargetError",
    "KdPointIndex",
    "NaiveKdTree",
    "OrderingError",
    "ThreadedAvlTree",
    "ThreadedTrie",
    "VisitStats",
    "WindowError",
    "brute_force_query",
    "level_candidates",
    "window_query",
]
