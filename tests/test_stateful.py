"""Stateful fuzzing of KdPointIndex updates against a set oracle.

The universe is tiny (coordinates in [0, 6), k up to 3), so random
operation sequences keep opening groups, giving them new minimums and
deleting their minimums on every level.  After each operation the index
must agree with the oracle and pass validate(); a failure shrinks to a
minimal operation sequence.  Each run starts from a bulk-loaded point
set, so every update also runs on a tree that ``from_points`` built.

At k = 3 the machine counts the updates that expand a leaf (an insert
under the prefix of a point alone on level 1) and that fold a group back
into a leaf (a delete that leaves one point under a level-1 prefix), and
``test_index_machine_rules_reach_expansion_and_fold`` runs the same
rules from a seeded generator and checks that most runs make both.

No group in that universe grows past ``T``, so a second machine,
``GroupTrieMachine``, keeps groups crossing ``T`` both ways: its updates
build, split, fold and drop the group tries, and after each one the
index must equal a bulk load of the same points.  Neither puts a group
with a trie on level 2 or below next to a leaf one level up, so
``test_updates_beside_leaves_match_a_bulk_load`` runs seeded updates at
k = 3 and 4 that do, and counts the inserts that land past such a
group's end.
"""

import random
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from test_index import SHAPE_FREE, insert_built, snapshot
from threadkd.index import T, KdPointIndex
from threadkd.query import window_query
from threadkd.tree import ThreadedAvlTree

BOUND = 6
coord = st.integers(0, BOUND - 1)
triple = st.tuples(coord, coord, coord)


# per k = 3 example: whether it expanded a leaf, and whether it folded one
REACH: Counter = Counter()


class IndexMachine(RuleBasedStateMachine):
    """Random insert/delete/contains/window sequences after a bulk load;
    k and the initial points are drawn once."""

    @initialize(k=st.sampled_from([1, 2, 3]), pts=st.lists(triple, max_size=40))
    def start(self, k, pts):
        self.k = k
        pts = [p[:k] for p in pts]
        self.idx = KdPointIndex.from_points(k, BOUND, pts, radix=2)
        self.oracle: set[tuple] = set(pts)
        self.reached: set[str] = set()

    def leaves(self):
        # level 1's leaves; an index with k < 3 has none
        return sum(type(c) is tuple for c in self.idx.trees[1].cross) \
            if self.k == 3 else 0

    def update(self, op, p):
        """``op`` on the index and the oracle, with its answer checked; at
        k = 3 an insert that turns a leaf into a prefix is an expansion,
        and a delete of a last-level point that makes a leaf a fold."""
        before = self.leaves()
        assert getattr(self.idx, op)(p) == ((p not in self.oracle)
                                            == (op == "insert"))
        getattr(self.oracle, "add" if op == "insert" else "discard")(p)
        after = self.leaves()
        if after < before and op == "insert":
            self.reached.add("expanded")
        if after > before and op == "delete":
            self.reached.add("folded")

    @rule(p=triple)
    def insert(self, p):
        self.update("insert", p[:self.k])

    @precondition(lambda self: self.oracle)
    @rule(i=st.integers(0, 255), c=coord)
    def pair_or_part(self, i, c):
        # a stored point alone under its (k-1)-prefix gets a second point
        # there, and one of two under it goes: at k = 3 an expansion and a
        # fold, where the other rules make them by chance
        stored = sorted(self.oracle)
        p = stored[i % len(stored)]
        twins = [q for q in stored if q[:-1] == p[:-1]]
        if len(twins) == 1:
            q = p[:-1] + ((p[-1] + 1 + c % (BOUND - 1)) % BOUND,)
            self.update("insert", q)
        else:
            self.update("delete", p)

    @rule(p=triple)
    def delete(self, p):
        self.update("delete", p[:self.k])

    @precondition(lambda self: self.oracle)
    @rule(i=st.integers(0, 255))
    def delete_stored(self, i):
        stored = sorted(self.oracle)
        self.update("delete", stored[i % len(stored)])

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


    def teardown(self):
        if self.k == 3:
            REACH["examples"] += 1
            REACH.update(self.reached)
            if len(self.reached) == 2:
                REACH["both"] += 1


IndexMachine.TestCase.settings = settings(max_examples=150,
                                          stateful_step_count=60,
                                          deadline=None)
test_index_machine = IndexMachine.TestCase


def test_index_machine_rules_reach_expansion_and_fold():
    # IndexMachine's rules at k = 3, drawn from a seeded generator instead
    # of by hypothesis, so the reach is the same on every run: 20 runs of
    # 60 steps, each checked as the machine checks them
    rng = random.Random(3)
    REACH.clear()
    for _ in range(20):
        m = IndexMachine()
        m.start(3, [tuple(rng.randrange(BOUND) for _ in range(3))
                    for _ in range(rng.randrange(41))])
        for _ in range(60):
            r = rng.randrange(4)
            p = tuple(rng.randrange(BOUND) for _ in range(3))
            if r == 0 or not m.oracle:
                m.insert(p)
            elif r == 1:
                m.delete(p)
            elif r == 2:
                m.delete_stored(rng.randrange(256))
            else:
                m.pair_or_part(rng.randrange(256), rng.randrange(BOUND))
            m.consistent()
        m.teardown()
    assert REACH["examples"] == 20
    assert REACH["both"] == 20, dict(REACH)


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


# -- trie groups beside leaves ---------------------------------------------

DENSE_BOUND = 32


def dense_point(rng, k, dense):
    """A point under one of the ``dense`` prefixes, a lone point beside
    one (the prefix's last coordinate moved up by one or two), or any
    point."""
    r = rng.random()
    pre = rng.choice(dense)
    if r < 0.8:
        if r >= 0.5:
            last = min(DENSE_BOUND - 1, pre[-1] + rng.randrange(1, 3))
            pre = pre[:-1] + (last,)
    else:
        pre = ()
    return pre + tuple(rng.randrange(DENSE_BOUND) for _ in range(k - len(pre)))


@pytest.mark.parametrize("k", [3, 4])
def test_updates_beside_leaves_match_a_bulk_load(monkeypatch, k):
    """Seeded updates at k = 3 and 4 on prefixes of length 2 to k - 1 that
    keep more than ``T`` members, so their groups on level 2 or below
    keep tries, among lone points that are leaves beside them.  An insert
    past such a group's last member whose next node one level up is a
    leaf finds its position by key; the run counts those inserts, and at
    least 5 of its 20 seeds make some (8 at k = 3, 6 at k = 4).  After
    each update both indexes, one bulk-loaded and one built by inserts,
    must validate, and at the end each must equal a bulk load of the
    oracle's points."""
    searches = Counter()
    group_last = KdPointIndex._group_last
    last_below = ThreadedAvlTree.last_below

    def counted_group_last(self, *args):
        before = searches["last_below"]
        h = group_last(self, *args)
        searches["fallback"] += searches["last_below"] > before
        return h

    def counted_last_below(tree, *args):
        searches["last_below"] += 1
        return last_below(tree, *args)

    monkeypatch.setattr(KdPointIndex, "_group_last", counted_group_last)
    monkeypatch.setattr(ThreadedAvlTree, "last_below", counted_last_below)
    seeds_reached = 0
    for seed in range(20):
        rng = random.Random(f"beside-leaves:{k}:{seed}")
        dense = [tuple(rng.randrange(DENSE_BOUND)
                       for _ in range(rng.randrange(2, k)))
                 for _ in range(rng.randrange(1, 4))]
        pts = {pre + (c,) + tuple(rng.randrange(DENSE_BOUND)
                                  for _ in range(k - len(pre) - 1))
               for pre in dense
               # a quarter of the updates under a prefix land past its
               # group's last member
               for c in rng.sample(range(DENSE_BOUND * 3 // 4),
                                   T + 1 + rng.randrange(4))}
        pts |= {dense_point(rng, k, dense)
                for _ in range(rng.randrange(5, 20))}
        indexes = (KdPointIndex.from_points(k, DENSE_BOUND, pts),
                   insert_built(k, DENSE_BOUND,
                                rng.sample(sorted(pts), len(pts))))
        before = searches["fallback"]
        for _ in range(120):
            if pts and rng.random() < 0.3:
                p = rng.choice(sorted(pts))
            else:
                p = dense_point(rng, k, dense)
            op = "delete" if p in pts else "insert"
            for idx in indexes:
                assert getattr(idx, op)(p)
                assert idx.validate() == []
            getattr(pts, "discard" if op == "delete" else "add")(p)
        seeds_reached += searches["fallback"] > before
        bulk = snapshot(KdPointIndex.from_points(k, DENSE_BOUND, pts))
        for idx in indexes:
            assert list(idx.points()) == sorted(pts) and len(idx) == len(pts)
            assert snapshot(idx) == bulk
    assert seeds_reached >= 5, (seeds_reached, dict(searches))
