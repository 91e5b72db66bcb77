import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadkd.baseline import brute_force_query
from threadkd.index import HEAD, T, KdPointIndex
from threadkd.query import window_query
from threadkd.tree import DUMMY
from threadkd.trie import ThreadedTrie

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
    idx = KdPointIndex.from_points(2, 16, big)
    t1 = idx.trees[1]
    trie = t1.trie[t1.first()]
    assert isinstance(trie, ThreadedTrie)
    trie.delete(T)
    trie.insert(15, t1.first())
    assert any("trie maps" in v for v in idx.validate())
    # a count that is not the group size, or one above T
    idx = KdPointIndex.from_points(2, 16, FIVE)
    t1 = idx.trees[1]
    t1.trie[t1.first()] += 1
    assert any("counts" in v for v in idx.validate())
    idx = KdPointIndex.from_points(2, 16, big)
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
