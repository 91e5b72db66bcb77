import gc
import os
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import threadkd
from threadkd.baseline import brute_force_query
from threadkd.index import HEAD, T, KdPointIndex, _lex_order
from threadkd.query import window_query
from threadkd.stats import VisitStats
from threadkd.tree import DUMMY, ThreadedAvlTree
from threadkd.trie import ThreadedTrie, ValueTrie

FIVE = [(2, 2), (2, 6), (6, 2), (6, 6), (8, 10)]


def snapshot(idx):
    """Handle-free structural dump: keys, cross targets, group markers
    (a count, or a trie's contents)."""
    out = []
    for i, tree in enumerate(idx.trees):
        level = []
        for h in tree.inorder():
            n = tree.node(h)
            cl = None
            if n.cross_link is not None:
                cl = idx.trees[i + 1].node(n.cross_link).key
            marker = n.trie
            if isinstance(marker, ThreadedTrie):
                marker = [(c, tree.node(hh).key) for c, hh in marker.items()]
            level.append((n.key, cl, marker))
        out.append(level)
    return out


def assert_marker(tree, first, coords):
    """``first``'s marker stands for a group with level coordinates
    ``coords``: their count when there are at most T, else a trie over
    them."""
    m = tree.trie[first]
    if len(coords) > T:
        assert isinstance(m, ThreadedTrie) and list(m.keys()) == coords
    else:
        assert type(m) is int and m == len(coords)


def test_empty_index():
    idx = KdPointIndex(2, 16)
    assert len(idx) == 0
    assert list(idx.points()) == []
    assert not idx.contains((3, 3))
    assert idx.validate() == []


def test_singleton_layout():
    idx = KdPointIndex(2, 16, radix=4, width=2)
    assert idx.insert((2, 2))
    assert [t.size for t in idx.trees] == [1, 1]
    t0, t1 = idx.trees
    h0 = t0.first()
    assert t0.node(h0).key == (2,)
    assert t1.node(t0.node(h0).cross_link).key == (2, 2)
    assert_marker(t0, h0, [2])
    assert_marker(t1, t1.first(), [2])
    assert idx.validate() == []


def test_five_point_layout():
    idx = KdPointIndex.from_points(2, 16, FIVE, radix=4, width=2)
    t0, t1 = idx.trees
    assert list(t0.keys()) == [(2,), (6,), (8,)]
    assert list(t1.keys()) == sorted(FIVE)
    targets = [t1.node(t0.node(h).cross_link).key for h in t0.inorder()]
    assert targets == [(2, 2), (6, 2), (8, 10)]
    assert_marker(t0, t0.first(), [2, 6, 8])
    for h, coords in zip(t0.inorder(), ([2, 6], [2, 6], [10])):
        assert_marker(t1, t0.cross[h], coords)
    assert idx.validate() == []


def test_min_rule_on_insert():
    idx = KdPointIndex(2, 16)
    idx.insert((2, 6))
    idx.insert((2, 2))
    t0, t1 = idx.trees
    h = t0.first()
    assert t1.node(t0.node(h).cross_link).key == (2, 2)
    assert idx.validate() == []


def test_reinsert_is_noop():
    idx = KdPointIndex.from_points(2, 16, FIVE)
    before = snapshot(idx)
    assert not idx.insert((6, 6))
    assert snapshot(idx) == before
    assert len(idx) == 5
    assert idx.validate() == []


def test_contains():
    idx = KdPointIndex.from_points(2, 16, FIVE)
    assert idx.contains((6, 6))
    assert (6, 6) in idx
    assert not idx.contains((6, 7))
    assert not idx.contains((3, 2))


def test_delete_prunes_prefix():
    idx = KdPointIndex.from_points(2, 16, FIVE)
    assert idx.delete((8, 10))
    t0 = idx.trees[0]
    assert list(t0.keys()) == [(2,), (6,)]
    assert_marker(t0, t0.first(), [2, 6])
    assert idx.validate() == []


def test_delete_group_min_retargets():
    idx = KdPointIndex.from_points(2, 16, FIVE)
    assert idx.delete((2, 2))
    t0, t1 = idx.trees
    assert t1.node(t0.node(t0.first()).cross_link).key == (2, 6)
    assert idx.validate() == []


def test_delete_only_point():
    idx = KdPointIndex.from_points(2, 16, [(3, 3)])
    assert idx.delete((3, 3))
    assert len(idx) == 0
    assert all(t.size == 0 for t in idx.trees)
    assert idx.validate() == []


def test_delete_absent():
    idx = KdPointIndex.from_points(2, 16, FIVE)
    before = snapshot(idx)
    assert not idx.delete((3, 3))
    assert snapshot(idx) == before
    assert len(idx) == 5


def test_insert_then_delete_restores_structure():
    idx = KdPointIndex.from_points(2, 16, FIVE)
    before = snapshot(idx)
    for p in [(0, 0), (2, 4), (6, 1), (8, 9), (15, 15)]:
        assert idx.insert(p)
        assert idx.delete(p)
        assert snapshot(idx) == before, p
        assert idx.validate() == []


def test_domain_errors():
    idx = KdPointIndex(2, 16)
    with pytest.raises(ValueError):
        idx.insert((1, 2, 3))
    with pytest.raises(ValueError):
        idx.insert((-1, 2))
    with pytest.raises(ValueError):
        idx.insert((16, 2))
    with pytest.raises(ValueError):
        idx.insert((1.5, 2))
    with pytest.raises(ValueError):
        KdPointIndex(2, 300, radix=16, width=1)
    with pytest.raises(ValueError):
        KdPointIndex(0, 16)


@pytest.mark.parametrize("make", [
    lambda: KdPointIndex(2, 100, radix=1),
    lambda: KdPointIndex(2, 100, width=0),
    lambda: ThreadedTrie(1, 2),
    lambda: ValueTrie.level_tries(1, 2, np.array([], np.int64), [], [],
                                  [], []),
], ids=["index radix", "index width", "trie", "level tries"])
def test_bad_trie_shape_has_one_message(make):
    with pytest.raises(ValueError, match="radix must be >= 2 and width >= 1"):
        make()


def test_empty_universe_rejected():
    with pytest.raises(ValueError, match="bound must be >= 1"):
        KdPointIndex(2, 0)


@pytest.mark.parametrize("kwargs", [dict(radix=1), dict(radix=0),
                                    dict(radix=-3), dict(width=0),
                                    dict(width=-1)])
def test_degenerate_trie_shape_rejected(kwargs):
    # radix 0 or 1 never covers the bound, and width 0 holds no key
    with pytest.raises(ValueError):
        KdPointIndex(2, 100, **kwargs)
    with pytest.raises(ValueError):
        KdPointIndex(1, 1, **kwargs)


def test_shape_arguments_follow_the_coordinate_rule():
    # k, bound, radix and width are checked like coordinates: no bools,
    # no floats, int-likes stored as plain ints
    for args in [(True, 16), (2, True), (2, 16.5), (2.0, 16), (2, 16, True),
                 (2, 16, 4.0), (2, 16, 4, True), (2, 16, 4, 2.0)]:
        with pytest.raises(ValueError):
            KdPointIndex(*args)
    idx = KdPointIndex(*(np.int64(v) for v in (2, 16, 4, 2)))
    assert [type(v) for v in (idx.k, idx.bound, idx.radix, idx.width)] == [int] * 4
    assert idx.insert((3, 15)) and idx.validate() == []


@pytest.mark.parametrize("bad", [5, None, 2.5])
def test_non_iterable_point_rejected(bad):
    idx = KdPointIndex.from_points(2, 16, FIVE)
    for call in (idx.insert, idx.delete, idx.contains, idx.__contains__,
                 lambda p: KdPointIndex.from_points(2, 16, FIVE + [p])):
        with pytest.raises(ValueError):
            call(bad)
    assert list(idx.points()) == FIVE
    assert idx.validate() == []


def test_bool_coordinates_rejected():
    idx = KdPointIndex(2, 16)
    for p in [(True, 1), (1, False)]:
        with pytest.raises(ValueError):
            idx.insert(p)
        with pytest.raises(ValueError):
            idx.contains(p)
        with pytest.raises(ValueError):
            idx.delete(p)
    assert list(idx.points()) == []
    assert idx.validate() == []


def test_numpy_coordinates_stored_as_ints():
    arr = np.array(FIVE, dtype=np.int64)
    idx = KdPointIndex.from_points(2, 16, arr)
    pts = list(idx.points())
    assert pts == sorted(FIVE)
    assert all(type(c) is int for p in pts for c in p)
    assert idx.contains(arr[0]) and idx.delete(arr[0])
    assert not idx.contains(FIVE[0])
    assert idx.validate() == []


def test_validate_catches_bad_cross_link():
    idx = KdPointIndex.from_points(2, 16, FIVE)
    t0, t1 = idx.trees
    h = t0.first()
    # aim the first cross link at a non-minimum member of its group
    wrong = [hh for hh in t1.inorder() if t1.node(hh).key == (2, 6)][0]
    t0.node(h).cross_link = wrong
    assert any("minimum" in v for v in idx.validate())


def test_validate_catches_bad_header_link():
    idx = KdPointIndex.from_points(2, 16, FIVE)
    t0 = idx.trees[0]
    head = idx.above[0].cross
    assert head[HEAD] == t0.first()
    # aim the header at level 0's second node, then at nothing
    for wrong in (t0.in_succ(t0.first()), DUMMY):
        head[HEAD] = wrong
        assert any(v.startswith("level -1: cross link") and "minimum" in v
                   for v in idx.validate())
    # an empty index's header must link to DUMMY
    empty = KdPointIndex(2, 16)
    assert empty.validate() == []
    empty.above[0].cross[HEAD] = 1
    assert any(v.startswith("level -1") for v in empty.validate())


def test_validate_catches_missing_trie():
    # a group-first node must carry a marker: its count or its trie
    for marker in (None, True, 1.0, "1"):
        idx = KdPointIndex.from_points(2, 16, FIVE)
        t1 = idx.trees[1]
        t1.trie[t1.first()] = marker
        assert any("not a count or a trie" in v for v in idx.validate())
    # and only a group-first node carries one
    idx = KdPointIndex.from_points(2, 16, FIVE)
    t1 = idx.trees[1]
    t1.trie[t1.in_succ(t1.first())] = 1
    assert any("non-first node" in v for v in idx.validate())


def test_validate_catches_stale_trie_entry():
    # a trie above T whose entry no longer matches its group
    big = [(0, y) for y in range(T + 1)]
    idx = KdPointIndex.from_points(2, 2 * T, big)
    t1 = idx.trees[1]
    trie = t1.trie[t1.first()]
    assert isinstance(trie, ThreadedTrie)
    trie.delete(T)
    trie.insert(2 * T - 1, t1.first())
    assert any("trie maps" in v for v in idx.validate())
    # a count that is not the group size, or one above T
    idx = KdPointIndex.from_points(2, 16, FIVE)
    t1 = idx.trees[1]
    t1.trie[t1.first()] += 1
    assert any("counts" in v for v in idx.validate())
    idx = KdPointIndex.from_points(2, 2 * T, big)
    t1 = idx.trees[1]
    t1.trie[t1.first()] = T + 1
    assert any(f"counts {T + 1}" in v for v in idx.validate())
    # a trie, however exact, on a group of T or fewer members
    idx = KdPointIndex.from_points(2, 16, FIVE)
    t1 = idx.trees[1]
    t1.trie[t1.first()] = ThreadedTrie.from_sorted(
        16, 1, [(2, t1.first()), (6, t1.in_succ(t1.first()))])
    assert any("keeps a trie" in v for v in idx.validate())


def test_one_dimensional_index():
    idx = KdPointIndex(1, 256)
    for v in [9, 3, 200, 3, 77]:
        idx.insert((v,))
    assert list(idx.points()) == [(3,), (9,), (77,), (200,)]
    assert idx.delete((9,))
    assert not idx.delete((9,))
    assert idx.validate() == []


# -- groups without a trie ----------------------------------------------

def test_group_trie_built_above_t_and_dropped_at_t():
    """One level-1 group grows from 1 to T + 1 members, steps back to T and
    up again by its minimum, and shrinks back to 1, between neighbouring
    groups; it keeps a trie exactly while it has more than T members."""
    idx = KdPointIndex.from_points(2, 64, [(4, 30), (6, 1)], radix=4)
    oracle = {(4, 30), (6, 1)}
    ys = [31, 1, 62, 30] + list(range(2, 2 * T, 2))    # new minima and maxima
    grow = [(5, y) for y in ys[:T + 1]]
    shrink = (grow[1::2] + grow[::2][::-1])[:T]     # the minimum goes first
    ops = ([("insert", p) for p in grow]
           + [("delete", grow[1]), ("insert", grow[1])]
           + [("delete", p) for p in shrink])
    windows = [[(0, 63), (0, 63)], [(5, 5), (2, 40)], [(4, 6), (31, 63)],
               [(5, 5), (3, 3)], [(0, 5), (29, 31)]]
    probes = grow + [(5, 0), (5, 63), (5, 29), (4, 31), (6, 0)]
    for step, (op, p) in enumerate(ops):
        assert getattr(idx, op)(p)
        if op == "insert":
            oracle.add(p)
        else:
            oracle.discard(p)
        t0, t1 = idx.trees
        x5 = next(h for h in t0.inorder() if t0.key[h] == (5,))
        assert_marker(t1, t0.cross[x5], sorted(q[1] for q in oracle if q[0] == 5))
        assert idx.validate() == [], step
        assert [idx.contains(q) for q in probes] == [q in oracle for q in probes]
        for w in windows:
            assert window_query(idx, w)[0] == brute_force_query(list(oracle), w)
    assert sorted(idx.points()) == sorted(oracle) and len(oracle) == 3


def test_updates_look_each_level_up_once(monkeypatch):
    """An insert reads the groups of the levels down to the first that
    misses p and makes one successor lookup in each, whether the group
    keeps a count or a trie; the missing level's position comes from
    that lookup, so no level is looked up twice.  A delete reads every
    level once."""
    # level 0 keeps a trie over T + 2 values; x = 0's level-1 group keeps
    # a count of T - 1 members, x = 1's a trie over 2T
    bound = 8 * T
    ys = {0: range(0, 2 * (T - 1), 2), 1: range(0, 4 * T, 2)}
    pts = [(x, y) for x in range(T + 2) for y in ys[x % 2]]
    idx = KdPointIndex.from_points(2, bound, pts)
    t0, t1 = idx.trees
    level0 = idx.trees[0].trie[idx.above[0].cross[HEAD]]
    assert isinstance(level0, ValueTrie)
    calls = {"succ_geq": 0, "find": 0, "_small_succ": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("succ_geq", "find"):
        monkeypatch.setattr(ThreadedTrie, name,
                            counted(name, getattr(ThreadedTrie, name)))
    monkeypatch.setattr(threadkd.index, "_small_succ",
                        counted("_small_succ", threadkd.index._small_succ))

    def lookup_nodes(trie, c):
        st_ = VisitStats()
        trie.succ_geq(c, st_)
        return st_.trie_nodes_visited

    def group(x):
        return t1.trie[t0.cross[next(h for h in t0.inorder()
                                     if t0.key[h] == (x,))]]

    # a count group misses: its walk reads the members below 5 and the
    # first above, once
    nodes0 = lookup_nodes(level0, 0)
    assert type(group(0)) is int and group(0) < T
    calls.update(dict.fromkeys(calls, 0))
    st_ = VisitStats()
    assert idx.insert((0, 5), st_)
    assert st_.trie_lookups == 2
    assert st_.trie_nodes_visited == nodes0 + len(range(0, 5, 2)) + 1
    assert calls == {"succ_geq": 1, "find": 0, "_small_succ": 1}
    # a trie group misses: one succ_geq on each level, then the insert
    # into the trie, counted as it counts on a copy
    trie = group(1)
    assert isinstance(trie, ValueTrie)
    nodes = lookup_nodes(level0, 1) + lookup_nodes(trie, 5)
    copy = ValueTrie.from_columns(idx.radix, idx.width,
                                  list(trie.keys()), [0] * trie.size)
    ins = VisitStats()
    copy.insert(5, 0, ins)
    calls.update(dict.fromkeys(calls, 0))
    st_ = VisitStats()
    assert idx.insert((1, 5), st_)
    assert st_.trie_lookups == 2
    assert st_.trie_nodes_visited == nodes + ins.trie_nodes_visited
    assert calls == {"succ_geq": 2, "find": 0, "_small_succ": 0}
    # a delete finds every level once
    for p in [(0, 5), (1, 5), (0, 2), (1, 2)]:
        st_ = VisitStats()
        assert idx.delete(p, st_)
        assert st_.trie_lookups == 2
    assert idx.validate() == []
    assert sorted(idx.points()) == sorted(set(pts) - {(0, 2), (1, 2)})


@pytest.mark.parametrize("k,bound", [(1, 64), (2, 64), (3, 16)])
def test_fuzz_against_set_oracle(k, bound):
    rng = random.Random(1000 + k)
    idx = KdPointIndex(k, bound, radix=4)
    oracle = set()
    for step in range(1200):
        p = tuple(rng.randrange(bound) for _ in range(k))
        if oracle and rng.random() < 0.4:
            p = rng.choice(sorted(oracle)) if rng.random() < 0.8 else p
            assert idx.delete(p) == (p in oracle)
            oracle.discard(p)
        else:
            assert idx.insert(p) == (p not in oracle)
            oracle.add(p)
        if step % 50 == 0:
            assert idx.validate() == [], f"step {step}"
            assert list(idx.points()) == sorted(oracle)
    assert idx.validate() == []
    assert list(idx.points()) == sorted(oracle)


@given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31),
                          st.integers(0, 31)), max_size=60))
@settings(max_examples=50, deadline=None)
def test_built_index_always_valid(pts):
    idx = KdPointIndex.from_points(3, 32, pts, radix=2, width=5)
    assert list(idx.points()) == sorted(set(pts))
    assert idx.validate() == []


# -- bulk load ---------------------------------------------------------

# counters that do not depend on tree shape; threads_followed does
SHAPE_FREE = ("tree_nodes_visited", "trie_nodes_visited",
              "cross_links_followed", "trie_lookups", "per_level_candidates")


@given(st.integers(1, 3), st.sampled_from([2, 3, 4]), st.integers(1, 3),
       st.data())
@settings(max_examples=150, deadline=None)
def test_bulk_load_matches_inserts(k, radix, width, data):
    bound = radix ** width
    coord = st.integers(0, bound - 1)
    pts = data.draw(st.lists(st.tuples(*[coord] * k), max_size=60))
    pts = data.draw(st.permutations(pts + pts[::2]))     # with duplicates
    bulk = KdPointIndex.from_points(k, bound, pts, radix=radix, width=width)
    built = KdPointIndex(k, bound, radix=radix, width=width)
    for p in pts:
        built.insert(p)
    assert list(bulk.points()) == list(built.points())
    assert snapshot(bulk) == snapshot(built)
    assert bulk.validate() == []
    for _ in range(8):
        w = [tuple(sorted(r)) for r in
             data.draw(st.lists(st.tuples(coord, coord),
                                min_size=k, max_size=k))]
        got, s_bulk = window_query(bulk, w)
        want, s_built = window_query(built, w)
        assert got == want
        for f in SHAPE_FREE:
            assert getattr(s_bulk, f) == getattr(s_built, f), f


@pytest.mark.parametrize("k,bound", [(1, 300), (2, 64), (3, 16)])
def test_bulk_load_and_inserts_count_queries_alike(k, bound):
    # a query's successor steps read the succ column, one thread each, so
    # threads_followed too is the same on a perfectly balanced bulk-loaded
    # tree and on the tree inserts shaped
    rng = random.Random(f"alike:{k}")
    pts = [tuple(rng.randrange(bound) for _ in range(k)) for _ in range(900)]
    bulk = KdPointIndex.from_points(k, bound, pts)
    built = KdPointIndex(k, bound)
    for p in pts:
        built.insert(p)
    assert snapshot(bulk) == snapshot(built)
    for _ in range(300):
        w = [tuple(sorted((rng.randrange(bound), rng.randrange(bound))))
             for _ in range(k)]
        assert window_query(bulk, w) == window_query(built, w)


GRID = [(x, y) for x in range(16) for y in range(16)]


@pytest.mark.parametrize("bad", [(True, 1), (1, 2.0), (16, 0), (3, -1),
                                 (1, 2, 3), (7,)])
def test_from_points_rejects_a_late_bad_point(bad):
    with pytest.raises(ValueError):
        KdPointIndex.from_points(2, 16, GRID[::-1] + [bad] + GRID[:9])


def test_from_points_accepts_a_generator():
    idx = KdPointIndex.from_points(2, 16, (p for p in reversed(GRID)))
    assert list(idx.points()) == GRID
    assert idx.validate() == []


def test_from_points_drops_duplicates():
    pts = FIVE[::-1] + FIVE + [list(p) for p in FIVE]
    idx = KdPointIndex.from_points(2, 16, pts)
    assert len(idx) == 5
    assert list(idx.points()) == sorted(FIVE)
    assert idx.validate() == []


def insert_built(k, bound, pts):
    idx = KdPointIndex(k, bound)
    for p in pts:
        idx.insert(p)
    return idx


def one_int_per_value(idx):
    """Whether equal coordinate values are one int object across ``idx``:
    every level's keys and every group trie's keys."""
    ints = {}
    for tree in idx.trees:
        for h in tree.inorder():
            coords = list(tree.key[h])
            if isinstance(tree.trie[h], ThreadedTrie):
                coords += tree.trie[h].keys()
            if any(ints.setdefault(c, c) is not c for c in coords):
                return False
    return True


def test_from_points_past_int64_matches_inserts():
    # coordinates past 2**63 sort as an object array, on the same path
    bound = 2 ** 70
    rng = random.Random(70)
    big = [bound - 1 - rng.randrange(2 ** 66) for _ in range(6)]
    coords = big + [0, 5, 2 ** 63 - 1, 2 ** 63, 2 ** 64 + 1]
    pts = [(rng.choice(coords), rng.choice(coords)) for _ in range(300)]
    bulk = KdPointIndex.from_points(2, bound, pts)
    built = insert_built(2, bound, pts)
    assert list(bulk.points()) == list(built.points()) == sorted(set(pts))
    assert snapshot(bulk) == snapshot(built)
    assert bulk.validate() == []
    for _ in range(20):
        w = [tuple(sorted((rng.choice(coords), rng.choice(coords))))
             for _ in range(2)]
        assert window_query(bulk, w)[0] == window_query(built, w)[0]


def test_from_points_past_int64_lays_out_its_own_points():
    # an object array of Python ints takes the same layout: np.unique
    # sorts the ints themselves, and groups past T build tries from the
    # object column
    bound = 3 * 2 ** 64
    # T + 7 values or fewer, so level 0's group has more than T members
    rng = random.Random(64)
    coords = sorted({2 ** 64 + rng.randrange(2 ** 64) for _ in range(T + 4)})
    coords += [1, 2 ** 63 - 1, 2 ** 63]
    pts = [tuple(rng.choice(coords) for _ in range(3)) for _ in range(900)]
    pts += [tuple(list(p)) for p in pts[:100]]
    idx = KdPointIndex.from_points(3, bound, pts)
    stored = list(idx.points())
    assert stored == sorted(set(pts))
    assert idx.validate() == []
    assert any(isinstance(m, ThreadedTrie) for t in idx.trees for m in t.trie)
    callers = set(map(id, pts))
    assert not any(id(p) in callers for p in stored)
    assert one_int_per_value(idx)


def test_from_points_one_dimension():
    rng = random.Random(1)
    pts = [(rng.randrange(300),) for _ in range(200)]
    bulk = KdPointIndex.from_points(1, 300, pts)
    assert list(bulk.points()) == sorted(set(pts))
    assert snapshot(bulk) == snapshot(insert_built(1, 300, pts))
    assert bulk.validate() == []


@pytest.mark.parametrize("form", ["tuples", "lists", "array"])
def test_from_points_shuffled_with_duplicates(form):
    rng = random.Random(3)
    pts = [tuple(rng.randrange(12) for _ in range(3)) for _ in range(400)]
    pts += pts[::3]
    rng.shuffle(pts)
    given_pts = {"tuples": pts, "lists": [list(p) for p in pts],
                 "array": np.array(pts, dtype=np.int64)}[form]
    bulk = KdPointIndex.from_points(3, 12, given_pts)
    assert list(bulk.points()) == sorted(set(pts))
    assert snapshot(bulk) == snapshot(insert_built(3, 12, pts))
    assert bulk.validate() == []
    assert all(type(c) is int for t in bulk.trees for key in t.key[1:]
               for c in key)


def test_from_points_stores_its_own_tuples():
    # the last level holds tuples of the index's own, equal to the
    # caller's, over one int per coordinate value, and the inner levels'
    # prefixes share its coordinate ints
    rng = random.Random(4)
    pts = [(rng.randrange(1000, 1064), rng.randrange(4096))
           for _ in range(2000)]
    pts += [tuple(list(p)) for p in pts[:500]]
    first = {}
    for p in pts:
        first.setdefault(p, p)
    idx = KdPointIndex.from_points(2, 4096, pts)
    t0, t1 = idx.trees
    stored = [t1.key[h] for h in t1.inorder()]
    assert stored == sorted(first)
    callers = set(map(id, pts))
    assert not any(id(p) in callers for p in stored)
    assert one_int_per_value(idx)
    for h in t0.inorder():
        assert t0.key[h][0] is t1.key[t0.cross[h]][0]


def packed_fits(k, bound, n):
    # the packed sort key's condition in _lex_order
    return (bound - 1).bit_length() * k + (n - 1).bit_length() <= 63


def edge_coords(bound):
    """Coordinates in [0, bound) that differ from another only in their
    lowest bit, or only in their top bit, with 0 and bound - 1."""
    b = (bound - 1).bit_length()
    top = 1 << (b - 1)
    low = [0, 1, 6, 7, bound - 2, bound - 1]
    high = [v for c in (0, 5, bound - 1 - top) for v in (c, c | top)]
    return sorted({c for c in low + high if 0 <= c < bound})


def edge_points(rng, k, bound, n):
    """n points on ``edge_coords`` with about a quarter repeated, some as
    equal tuples that are not the first one, shuffled."""
    coords = edge_coords(bound)
    pts = [tuple(rng.choice(coords) for _ in range(k))
           for _ in range(n - n // 4)]
    pts += [tuple(list(p)) for p in rng.sample(pts, n // 4)]
    rng.shuffle(pts)
    return pts


@pytest.mark.parametrize("k,packed,unpacked", [
    (3, 2 ** 16, 2 ** 20), (3, 40_000, 1_000_003), (2, 2 ** 26, 2 ** 30),
    (1, 2 ** 50, 3 * 2 ** 60)])
def test_from_points_packed_and_lexsort_build_alike(k, packed, unpacked):
    # the same points under a bound whose packed key fits 63 bits and one
    # whose key does not: both match inserts, and both store tuples of
    # their own over one int per coordinate value
    rng = random.Random(k * packed)
    pts = edge_points(rng, k, packed, 600)
    assert packed_fits(k, packed, len(pts))
    assert not packed_fits(k, unpacked, len(pts))
    first = {}
    for p in pts:
        first.setdefault(p, p)
    for bound in (packed, unpacked):
        bulk = KdPointIndex.from_points(k, bound, pts)
        assert snapshot(bulk) == snapshot(insert_built(k, bound, pts))
        assert bulk.validate() == []
        stored = list(bulk.points())
        assert stored == sorted(first)
        callers = set(map(id, pts))
        assert not any(id(p) in callers for p in stored)
        assert one_int_per_value(bulk)


@pytest.mark.parametrize("k,bound,n", [
    # b * k + s at 63 and at 64, with the row index's s bits
    (3, 2 ** 20, 8), (3, 2 ** 20, 9), (2, 2 ** 31, 2), (2, 2 ** 31, 3),
    (1, 2 ** 63, 1), (1, 2 ** 63, 2), (3, 2 ** 20 - 3, 8),
    (1, 1, 5), (2, 2, 40), (3, 1000, 300), (4, 2 ** 15 + 1, 500)])
def test_lex_order_is_a_stable_sort(k, bound, n):
    rng = random.Random(n * k + bound)
    pts = edge_points(rng, k, bound, n) if bound > 1 else [
        tuple(rng.randrange(bound) for _ in range(k)) for _ in range(n)]
    order, j = _lex_order(np.array(pts, np.int64).reshape(n, k), bound)
    want = sorted(range(n), key=pts.__getitem__)
    assert order.tolist() == want
    first_diff = [-1] + [
        next((c for c in range(k) if pts[a][c] != pts[b][c]), k)
        for a, b in zip(want, want[1:])]
    assert j.tolist() == first_diff


def test_points_raises_when_the_index_changes():
    idx = KdPointIndex.from_points(2, 16, [(x, y) for x in range(8)
                                           for y in range(8)])
    it = idx.points()
    p = next(it)
    assert not idx.insert(p)             # no change: iteration goes on
    assert next(it) == (0, 1)
    idx.delete(p)
    idx.insert((9, 9))
    with pytest.raises(RuntimeError):
        next(it)


def test_bulk_load_keeps_objects_per_trie_not_per_point():
    # the group tries are flat columns: a handful of collector-tracked
    # objects per trie, however many keys and trie nodes it holds
    # about 2.5T points per level-1 group, so nearly every group keeps a trie
    rng = random.Random(20)
    pts = [(rng.randrange(1024), rng.randrange(1024))
           for _ in range(2_500 * T)]
    gc.collect()
    before = len(gc.get_objects())
    idx = KdPointIndex.from_points(2, 1024, pts)
    gc.collect()
    grown = len(gc.get_objects()) - before
    tries = sum(isinstance(m, ThreadedTrie) for t in idx.trees for m in t.trie)
    assert tries > 1000
    assert grown <= 8 * tries + 100, (grown, tries)


def test_bulk_load_makes_no_tree_it_throws_away(monkeypatch):
    # a non-empty load makes each level from its points, none through
    # ThreadedAvlTree.__init__; the empty index still has k empty levels
    made = []
    init = ThreadedAvlTree.__init__

    def counted(tree):
        made.append(tree)
        init(tree)

    monkeypatch.setattr(ThreadedAvlTree, "__init__", counted)
    assert len(KdPointIndex.from_points(2, 16, FIVE)) == 5
    assert made == []
    for make in (lambda: KdPointIndex.from_points(3, 16, []),
                 lambda: KdPointIndex(3, 16)):
        idx = make()
        assert len(made) == 3 and made == idx.trees
        assert [t.size for t in idx.trees] == [0, 0, 0]
        assert idx.above[0].cross[HEAD] == DUMMY
        assert idx.validate() == []
        made.clear()


def test_group_trie_columns_have_no_spare_capacity():
    # a trie built when a group passes T holds its key and value columns
    # at their exact size, as a bulk-loaded group's slices are
    idx = KdPointIndex(2, 64, radix=4)
    for y in range(T + 1):
        idx.insert((5, 3 * y))
    t0, t1 = idx.trees
    trie = t1.trie[t0.cross[t0.first()]]
    assert isinstance(trie, ThreadedTrie) and len(trie.key) == T + 1
    exact = sys.getsizeof([0] * len(trie.key))
    assert sys.getsizeof(trie.key) == exact
    assert sys.getsizeof(trie.value) == exact


def test_bulk_loaded_trie_columns_have_no_spare_capacity():
    # groups of T + 1 to 40 members, each with a trie
    pts = [(x, y) for x in range(32) for y in range(T + 1 + x)]
    idx = KdPointIndex.from_points(2, 64, pts)
    tries = [m for m in idx.trees[1].trie if isinstance(m, ThreadedTrie)]
    assert len(tries) == 32
    for trie in tries:
        exact = sys.getsizeof([0] * len(trie.key))
        assert sys.getsizeof(trie.key) == exact
        assert sys.getsizeof(trie.value) == exact


def level_one_size(idx):
    idx.trees[1].size += 1


def renamed_level_zero_key(idx):
    # (8,) becomes (9,): still in order, but no point starts with 9
    t0 = idx.trees[0]
    t0.key[t0.last()] = (9,)


def extra_level_zero_keys(idx):
    t0 = idx.trees[0]
    for x in (10, 11, 12):
        t0.insert_after(t0.last(), (x,))


def coordinate_past_bound(idx):
    # the last point (8, 10) becomes (8, 16): still in order
    t1 = idx.trees[1]
    t1.key[t1.last()] = (8, 16)


def last_level_cross_link(idx):
    t1 = idx.trees[1]
    t1.cross[t1.first()] = 1


@pytest.mark.parametrize("corrupt,message", [
    (level_one_size, "level 1: size 6 but structure holds 5 nodes"),
    (renamed_level_zero_key, "level 0: keys differ from the prefix set"),
    (extra_level_zero_keys, "level 0: larger than level 1"),
    (coordinate_past_bound, "level 1: coordinate 16 out of range"),
    (last_level_cross_link, "last level: node (2, 2) has a cross link"),
])
def test_validate_reports_each_corruption(corrupt, message):
    idx = KdPointIndex.from_points(2, 16, FIVE)
    assert idx.validate() == []
    corrupt(idx)
    assert any(message in v for v in idx.validate()), idx.validate()


def test_validate_reports_a_wrong_coord_cell():
    idx = KdPointIndex.from_points(2, 16, FIVE)
    t1 = idx.trees[1]
    t1.coord[t1.last()] = 9
    assert ("level 1: node (8, 10) has coord 9, not its key's coordinate 10"
            in idx.validate()), idx.validate()


def test_coord_cells_share_the_keys_ints():
    # coordinates past 256, so that equal ints are distinct objects unless
    # shared; a group of 30 keeps a trie, whose keys are the same ints
    rng = random.Random(31)
    pts = [(1000 + rng.randrange(40), 1000 + rng.randrange(3000))
           for _ in range(300)] + [(2000, 1000 + y) for y in range(30)]
    idx = KdPointIndex.from_points(2, 4096, pts)
    # more deletes than inserts, so that freed cells stay free
    for p in rng.sample(sorted(set(pts)), 60):
        idx.delete(p)
    for _ in range(30):
        idx.insert((1000 + rng.randrange(41), 1000 + rng.randrange(3000)))
    assert idx.validate() == []
    tries = 0
    for i, tree in enumerate(idx.trees):
        live = set(tree.inorder())
        for h in range(1, len(tree.key)):
            if h in live:
                assert tree.coord[h] is tree.key[h][i]
            else:
                assert tree.coord[h] is None
        for marker in tree.trie:
            if isinstance(marker, ValueTrie):
                tries += 1
                assert all(c is tree.coord[h] for c, h in marker.items())
    assert tries > 0 and idx.trees[1].free


def test_validate_reports_a_group_trie_violation():
    # radix 2T, so the group trie is one node, its root
    idx = KdPointIndex.from_points(2, 2 * T, [(0, y) for y in range(T + 1)],
                                   radix=2 * T)
    t1 = idx.trees[1]
    trie = t1.trie[t1.first()]
    # the root's up cell, with the trailing threads that repeat it
    trie.slots[T + 1:] = [5] * (trie.radix - T)
    assert any(v.startswith(f"level 1: group (0,) of {T + 1} trie: ")
               and v.endswith("node 0: up is 5, expected None")
               for v in idx.validate()), idx.validate()


def test_validate_reports_a_broken_group_trie_without_raising():
    # slot 0 of the group trie's one node, which held y = 0's entry,
    # holds nothing: the trie's own report stands and items() is not
    # walked over the hole
    idx = KdPointIndex.from_points(2, 2 * T, [(0, y) for y in range(T + 1)],
                                   radix=2 * T)
    t1 = idx.trees[1]
    t1.trie[t1.first()].slots[0] = None
    out = idx.validate()
    assert f"level 1: group (0,) of {T + 1} trie: bottom slot 0: not an entry" \
        in out, out


@pytest.mark.parametrize("log_m", [6, 10, 14, 18])
def test_worst_case_insert_follows_log_m_threads(log_m):
    # k = 1 over m even keys: the bulk-loaded tree is perfectly balanced,
    # and the key just below the root's goes right after the root's
    # inorder predecessor, the last node of its left subtree, so finding
    # the position walks down the tree's height in threads
    m = 1 << log_m
    idx = KdPointIndex.from_points(1, 2 * m, [(2 * x,) for x in range(m)])
    tree = idx.trees[0]
    s = VisitStats()
    assert idx.insert((tree.key[tree.root][0] - 1,), s)
    assert s.threads_followed == log_m and s.rotations == 0
    assert len(idx) == m + 1


@pytest.fixture
def collector():
    # restores the collector's setting whatever a test leaves it at
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


# 4,096 points: enough allocation for several automatic collections
CUBE = [(x, y, x * y % 64) for x in range(64) for y in range(64)]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("pts", [CUBE, CUBE[:2000] + [(3, 64, 0)] + CUBE],
                         ids=["good", "bad point"])
def test_from_points_leaves_the_collector_as_it_found_it(collector, enabled,
                                                         pts):
    (gc.enable if enabled else gc.disable)()
    seen = []

    def watch(phase, info):
        seen.append(phase)

    gc.callbacks.append(watch)
    try:
        if pts is CUBE:
            assert len(KdPointIndex.from_points(3, 64, pts)) == 4096
        else:
            with pytest.raises(ValueError, match=r"64 outside \[0, 64\)"):
                KdPointIndex.from_points(3, 64, pts)
    finally:
        gc.callbacks.remove(watch)
    assert gc.isenabled() is enabled
    assert seen == []       # no automatic collection ran inside the build


def test_from_points_pauses_the_collector_for_construction_too(collector):
    # at threshold 1 a collection starts on nearly every allocation while
    # the collector runs, so any part of the call outside the pause shows
    package = os.path.dirname(threadkd.__file__) + os.sep
    inside = []

    def watch(phase, info):
        if phase == "start":
            f = sys._getframe(1)
            while f and not f.f_code.co_filename.startswith(package):
                f = f.f_back
            if f:
                inside.append(f.f_code.co_name)

    gc.enable()
    threshold = gc.get_threshold()
    gc.callbacks.append(watch)
    gc.set_threshold(1)
    try:
        assert len(KdPointIndex.from_points(2, 16, FIVE)) == 5
        with pytest.raises(ValueError, match=r"16 outside \[0, 16\)"):
            KdPointIndex.from_points(2, 16, FIVE + [(3, 16)])
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(watch)
    assert inside == []


@pytest.mark.parametrize("bad", [(True, 1), (1, 2.0), (16, 0), (3, -1),
                                 (1, 2, 3), (7,), (np.int64(1), 2**64),
                                 5, "ab"])
def test_from_points_names_the_first_bad_point(bad):
    # the whole-input check falls back to the point-by-point one, so the
    # message is the one that point gets on its own
    idx = KdPointIndex(2, 16)
    with pytest.raises(ValueError) as alone:
        idx._check_point(bad)
    with pytest.raises(ValueError) as bulk:
        KdPointIndex.from_points(2, 16, GRID[::-1] + [bad, (1, 17)] + GRID)
    assert str(bulk.value) == str(alone.value)
