"""Stateful fuzzing of KdPointIndex updates against a set oracle.

The universe is tiny (coordinates in [0, 6), k up to 3), so random
operation sequences keep opening groups, giving them new minimums and
deleting their minimums on every level.  After each operation the index
must agree with the oracle and pass validate(); a failure shrinks to a
minimal operation sequence.  Each run starts from a bulk-loaded point
set, so every update also runs on a tree that ``from_points`` built.

No group in that universe grows past ``T``, so a second machine,
``GroupTrieMachine``, keeps groups crossing ``T`` both ways: its updates
build, split, fold and drop the group tries, and after each one the
index must equal a bulk load of the same points.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from test_index import SHAPE_FREE, snapshot
from threadkd.index import T, KdPointIndex
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


# -- group tries ----------------------------------------------------------

TRIE_BOUND = 3 * T              # room for a span and a few prefixes
SPAN = 2 * T + 2                # the values a group's members take
any_coord = st.integers(0, TRIE_BOUND - 1)
offset = st.integers(0, SPAN - 1)


class GroupTrieMachine(RuleBasedStateMachine):
    """Random updates that carry groups across ``T`` both ways, so the
    group tries are built, split, folded, rethreaded and dropped.

    A group's members take their last coordinate from the ``SPAN`` values
    from ``low``.  With k = 1 there is one such group, level 0's; with
    k = 2 there is one per prefix, a few first coordinates drawn at the
    start, and three updates in four go to one of them.  Each group starts
    with T - 1 to T + 3 members, and each update moves it one member
    toward the other side of ``T`` or away from it, as drawn, so a
    group's size is a random walk; the simplest draws flip it between
    T and T + 1.  The other updates toggle a point with any first
    coordinate.  After every update a bulk load of the oracle's points
    must give the same index: the same points, cross links and markers
    (a count, or a trie with the same items), and the same shape-free
    counters on a drawn window."""

    @initialize(k=st.sampled_from([1, 2]), radix=st.sampled_from([2, 3]),
                low=st.integers(0, TRIE_BOUND - SPAN),
                groups=st.lists(
                    st.tuples(any_coord, st.sets(offset, min_size=T - 1,
                                               max_size=T + 3)),
                    min_size=1, max_size=3, unique_by=lambda g: g[0]))
    def start(self, k, radix, low, groups):
        self.k, self.radix, self.low = k, radix, low
        groups = groups[:1] if k == 1 else groups
        self.prefixes = [x for x, _ in groups]
        pts = [self.point(x, low + j) for x, js in groups for j in js]
        self.idx = KdPointIndex.from_points(k, TRIE_BOUND, pts, radix=radix)
        self.oracle: set[tuple] = set(pts)

    def point(self, x, y):
        return (x, y)[2 - self.k:]

    # One rule makes the update and the comparison: hypothesis turns rules
    # off at random per example (swarm testing), and with a rule of its
    # own the comparison alone ran in about a third of the examples.
    @rule(away=st.booleans(), pick=st.integers(0, 3), x=any_coord, j=offset,
          a=st.tuples(any_coord, any_coord), b=st.tuples(any_coord, any_coord))
    def update_then_bulk_load(self, away, pick, x, j, a, b):
        if pick < 3 or self.k == 1:
            x = self.prefixes[pick % len(self.prefixes)]
            ys = range(self.low, self.low + SPAN)
            held = [y for y in ys if self.point(x, y) in self.oracle]
            # toward T + 1 from below and T from above, or away; an
            # empty or a full group can only grow or shrink
            add = not held or (len(held) < SPAN
                               and away != (len(held) <= T))
            pool = [y for y in ys if y not in held] if add else held
            p = self.point(x, pool[j % len(pool)])
        else:
            p = self.point(x, self.low + j)
            add = p not in self.oracle
        if add:
            assert self.idx.insert(p)
            self.oracle.add(p)
        else:
            assert self.idx.delete(p)
            self.oracle.remove(p)
        bulk = KdPointIndex.from_points(self.k, TRIE_BOUND, self.oracle,
                                        radix=self.radix)
        assert snapshot(self.idx) == snapshot(bulk)
        w = [tuple(sorted(r)) for r in zip(a, b)][:self.k]
        got, s_idx = window_query(self.idx, w)
        want, s_bulk = window_query(bulk, w)
        assert got == want
        for f in SHAPE_FREE:
            assert getattr(s_idx, f) == getattr(s_bulk, f), f

    @invariant()
    def consistent(self):
        assert self.idx.validate() == []
        assert len(self.idx) == len(self.oracle)
        assert list(self.idx.points()) == sorted(self.oracle)


GroupTrieMachine.TestCase.settings = settings(max_examples=100,
                                              stateful_step_count=50,
                                              deadline=None)
test_group_trie_machine = GroupTrieMachine.TestCase
