"""Stateful fuzzing of KdPointIndex updates against a set oracle.

The universe is tiny (coordinates in [0, 6), k up to 3), so random
operation sequences keep opening groups, giving them new minimums and
deleting their minimums on every level.  After each operation the index
must agree with the oracle and pass validate(); a failure shrinks to a
minimal operation sequence.  Each run starts from a bulk-loaded point
set, so every update also runs on a tree that ``from_points`` built.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from threadkd.index import KdPointIndex
from threadkd.query import window_query

BOUND = 6
coord = st.integers(0, BOUND - 1)
triple = st.tuples(coord, coord, coord)


class IndexMachine(RuleBasedStateMachine):
    """Random insert/delete/contains/window sequences after a bulk load;
    k and the initial points are drawn once."""

    @initialize(k=st.sampled_from([1, 2, 3]), pts=st.lists(triple, max_size=40))
    def start(self, k, pts):
        self.k = k
        pts = [p[:k] for p in pts]
        self.idx = KdPointIndex.from_points(k, BOUND, pts, radix=2)
        self.oracle: set[tuple] = set(pts)

    @rule(p=triple)
    def insert(self, p):
        p = p[:self.k]
        assert self.idx.insert(p) == (p not in self.oracle)
        self.oracle.add(p)

    @rule(p=triple)
    def delete(self, p):
        p = p[:self.k]
        assert self.idx.delete(p) == (p in self.oracle)
        self.oracle.discard(p)

    @precondition(lambda self: self.oracle)
    @rule(i=st.integers(0, 255))
    def delete_stored(self, i):
        stored = sorted(self.oracle)
        p = stored[i % len(stored)]
        assert self.idx.delete(p)
        self.oracle.remove(p)

    @rule(p=triple)
    def contains(self, p):
        p = p[:self.k]
        assert self.idx.contains(p) == (p in self.oracle)

    @rule(a=triple, b=triple)
    def window(self, a, b):
        w = [tuple(sorted(r)) for r in zip(a, b)][:self.k]
        got, _ = window_query(self.idx, w)
        want = sorted(p for p in self.oracle
                      if all(lo <= c <= hi for c, (lo, hi) in zip(p, w)))
        assert got == want

    @invariant()
    def consistent(self):
        assert self.idx.validate() == []
        assert len(self.idx) == len(self.oracle)
        assert list(self.idx.points()) == sorted(self.oracle)


IndexMachine.TestCase.settings = settings(max_examples=150,
                                          stateful_step_count=60,
                                          deadline=None)
test_index_machine = IndexMachine.TestCase
