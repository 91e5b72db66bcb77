import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadkd.baseline import brute_force_query
from threadkd.index import HEAD, T, KdPointIndex
from threadkd.query import (WindowError, check_window, level_candidates,
                            window_query)
from threadkd.stats import VisitStats
from threadkd.tree import DUMMY, ThreadedAvlTree
from threadkd.trie import ThreadedTrie, ValueTrie

FIVE = [(2, 2), (2, 6), (6, 2), (6, 6), (8, 10)]


def five_index():
    return KdPointIndex.from_points(2, 16, FIVE, radix=4, width=2)


def assert_accounting(st_, k):
    t = st_.per_level_candidates
    inner = sum(t[:k - 1])
    assert st_.cross_links_followed == inner
    assert st_.trie_lookups <= 1 + inner
    walks = 1 + inner
    assert st_.tree_nodes_visited <= sum(t) + walks


def test_two_band_window():
    idx = five_index()
    res, st_ = window_query(idx, [(1, 8), (5, 7)])
    assert res == [(2, 6), (6, 6)]
    # all three first coordinates qualify before the second range thins them
    assert st_.per_level_candidates == [3, 2]
    assert_accounting(st_, 2)


def test_disjoint_band_window():
    idx = five_index()
    res, st_ = window_query(idx, [(5, 8), (12, 14)])
    assert res == []
    assert st_.per_level_candidates == [2, 0]
    assert_accounting(st_, 2)


def test_full_universe_window():
    idx = five_index()
    res, _ = window_query(idx, [(0, 15), (0, 15)])
    assert res == sorted(FIVE)


def test_reused_stats_accumulate_candidates():
    # like every other counter, per_level_candidates sums over the queries
    idx = five_index()
    once = window_query(idx, [(0, 15), (0, 15)])[1]
    st_ = VisitStats()
    for _ in range(2):
        window_query(idx, [(0, 15), (0, 15)], st_)
    assert once.per_level_candidates == [3, 5]
    assert st_.per_level_candidates == [6, 10]
    assert st_.tree_nodes_visited == 2 * once.tree_nodes_visited
    assert st_.cross_links_followed == 2 * once.cross_links_followed


def test_level_candidates_of_dummy_are_empty():
    # an empty index's header link and an empty tree's first() are DUMMY
    idx = KdPointIndex(2, 16, radix=4, width=2)
    for _ in range(2):
        st_ = VisitStats()
        assert idx.above[0].cross[HEAD] == DUMMY
        assert idx.trees[0].first() == DUMMY
        assert level_candidates(idx, 0, idx.above[0].cross[HEAD], 0, 15,
                                st_) == []
        assert level_candidates(idx, 1, idx.trees[1].first(), 0, 15) == []
        assert st_.tree_nodes_visited == st_.trie_lookups == 0
        # the same after a point comes and goes
        idx.insert((3, 5))
        assert level_candidates(idx, 0, idx.above[0].cross[HEAD], 0, 15)
        idx.delete((3, 5))


def test_empty_index_window():
    idx = KdPointIndex(2, 16)
    res, st_ = window_query(idx, [(0, 15), (0, 15)])
    assert res == []
    assert st_.tree_nodes_visited == 0


def test_malformed_windows():
    idx = five_index()
    with pytest.raises(WindowError):
        window_query(idx, [(8, 1), (5, 7)])
    with pytest.raises(WindowError):
        window_query(idx, [(1, 8)])
    with pytest.raises(WindowError):
        window_query(idx, [(1, 8), (5, 16)])
    with pytest.raises(WindowError):
        window_query(idx, [(-1, 8), (5, 7)])
    assert check_window(idx, [(0, 15), (3, 3)]) == [(0, 15), (3, 3)]


def test_non_integer_window_bounds():
    idx = five_index()
    for w in ([(2.5, 3.5), (0, 15)], [(0, 15), (0, "7")],
              [(True, 8), (5, 7)], [(1, 8), (5, None)]):
        with pytest.raises(WindowError):
            window_query(idx, w)
    w = [tuple(np.array([1, 8])), (np.int64(5), np.int64(7))]
    assert window_query(idx, w)[0] == [(2, 6), (6, 6)]


def test_ranges_that_are_not_pairs():
    idx = five_index()
    for w in ([(1, 2, 3), (0, 1)], [5, 6], None, [(1,), (0, 1)], 7,
              [(0, 15), None]):
        with pytest.raises(WindowError):
            window_query(idx, w)


def test_no_first_level_candidates_prunes_everything():
    idx = five_index()
    res, st_ = window_query(idx, [(9, 15), (0, 15)])
    assert res == []
    assert st_.per_level_candidates == [0, 0]
    assert st_.cross_links_followed == 0
    assert st_.trie_lookups <= 1
    assert st_.tree_nodes_visited <= 1


def test_group_min_above_hi_skips_trie():
    idx = five_index()
    t0, t1 = idx.trees
    g = [h for h in t0.inorder() if t0.node(h).key == (8,)][0]
    st_ = VisitStats()
    # group of (8, 10): minimum second coordinate is 10, above hi=7
    got = level_candidates(idx, 1, t0.node(g).cross_link, 5, 7, st_)
    assert got == []
    assert st_.trie_lookups == 0
    assert st_.tree_nodes_visited == 1


def test_level_candidates_first_level():
    idx = five_index()
    t0 = idx.trees[0]
    st_ = VisitStats()
    got = level_candidates(idx, 0, t0.first(), 1, 8, st_)
    assert [t0.node(h).key for h in got] == [(2,), (6,), (8,)]


def test_level_candidates_checks_its_range():
    # check_window's rule for one range: the walk's trie descent reads
    # lo's digits, which name a trie slot only for lo in [0, bound)
    idx = KdPointIndex.from_points(2, 4096, [(5, 3 * y) for y in range(40)])
    t0, t1 = idx.trees
    g = t0.cross[t0.first()]
    assert isinstance(t1.trie[g], ValueTrie)
    for lo, hi in ((4101, 5000), (4096, 4096), (100, 4096), (-1, 10),
                   (20, 10), (1.5, 3), (True, 3), (0, "7")):
        with pytest.raises(WindowError):
            level_candidates(idx, 1, g, lo, hi)
        with pytest.raises(WindowError):
            level_candidates(idx, 1, DUMMY, lo, hi)
    got = level_candidates(idx, 1, g, np.int64(4), 4095)
    assert [t1.key[h] for h in got] == [(5, 3 * y) for y in range(2, 40)]


def test_single_dimension_query():
    idx = KdPointIndex.from_points(1, 256, [(9,), (3,), (200,), (77,)])
    res, st_ = window_query(idx, [(4, 100)])
    assert res == [(9,), (77,)]
    assert st_.per_level_candidates == [2]
    assert_accounting(st_, 1)


@pytest.mark.parametrize("s", [1, 8, 64, 512])
def test_query_cost_is_not_bounded_by_hits(s):
    # the paper's theta(t) claim fails: s level-0 candidates for no hit,
    # because every x qualifies before coordinate 1 rejects each group
    idx = KdPointIndex.from_points(2, 512, [(x, 0) for x in range(s)])
    res, st_ = window_query(idx, [(0, s - 1), (1, 1)])
    assert res == []
    assert st_.per_level_candidates == [s, 0]


def test_point_window():
    idx = five_index()
    res, _ = window_query(idx, [(6, 6), (6, 6)])
    assert res == [(6, 6)]
    res, _ = window_query(idx, [(6, 6), (7, 7)])
    assert res == []


@pytest.mark.parametrize("k,bound,radix", [(1, 512, 8), (2, 64, 4),
                                           (3, 32, 2), (4, 16, 16)])
def test_matches_brute_force_and_accounting(k, bound, radix):
    rng = random.Random(77 * k + bound)
    pts = list({tuple(rng.randrange(bound) for _ in range(k))
                for _ in range(600)})
    idx = KdPointIndex.from_points(k, bound, pts, radix=radix)
    for _ in range(300):
        w = []
        for _ in range(k):
            a, b = rng.randrange(bound), rng.randrange(bound)
            w.append((min(a, b), max(a, b)))
        res, st_ = window_query(idx, w)
        assert res == brute_force_query(pts, w)
        assert st_.per_level_candidates[k - 1] == len(res)
        assert_accounting(st_, k)


def test_queries_leave_structure_untouched():
    idx = five_index()
    before = [list(t.keys()) for t in idx.trees]
    for _ in range(20):
        window_query(idx, [(0, 15), (0, 15)])
    assert [list(t.keys()) for t in idx.trees] == before
    assert idx.validate() == []


@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                min_size=1, max_size=50),
       st.tuples(st.integers(0, 63), st.integers(0, 63)),
       st.tuples(st.integers(0, 63), st.integers(0, 63)),
       st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_growing_window_never_loses_points(pts, xr, yr, pad):
    idx = KdPointIndex.from_points(2, 64, pts, radix=4)
    lo_x, hi_x = min(xr), max(xr)
    lo_y, hi_y = min(yr), max(yr)
    small, _ = window_query(idx, [(lo_x, hi_x), (lo_y, hi_y)])
    big, _ = window_query(idx, [(max(0, lo_x - pad), min(63, hi_x + pad)),
                                (max(0, lo_y - pad), min(63, hi_y + pad))])
    assert set(small) <= set(big)


def recursive_query(idx, w, st_):
    """The window query one group at a time: ``level_candidates`` on a
    group, then a recursive call through each candidate's cross link."""
    cands = st_.per_level_candidates
    cands.extend([0] * (idx.k - len(cands)))
    out = []

    def walk(level, first):
        hs = level_candidates(idx, level, first, *w[level], st_)
        cands[level] += len(hs)
        for h in hs:
            node = idx.trees[level].node(h)
            if level == idx.k - 1:
                out.append(node.key)
            else:
                st_.cross_links_followed += 1
                walk(level + 1, node.cross_link)

    if len(idx):
        walk(0, idx.above[0].node(HEAD).cross_link)
    return out


def random_window(rng, k, bound):
    w = []
    for _ in range(k):
        a, b = rng.randrange(bound), rng.randrange(bound)
        w.append((min(a, b), max(a, b)))
    return w


def assert_same_as_recursive(idx, rng, windows=40):
    for _ in range(windows):
        w = random_window(rng, idx.k, idx.bound)
        ref = VisitStats()
        got, st_ = window_query(idx, w)
        assert got == recursive_query(idx, w, ref)
        assert dataclasses.asdict(st_) == dataclasses.asdict(ref)
    # a reused VisitStats sums the queries' counts on both sides
    ws = [random_window(rng, idx.k, idx.bound) for _ in range(5)]
    ref, st_ = VisitStats(), VisitStats()
    for w in ws:
        window_query(idx, w, st_)
        recursive_query(idx, w, ref)
    assert dataclasses.asdict(st_) == dataclasses.asdict(ref)


def group_markers(idx):
    """The kinds of group marker in the index: int for a count, else the
    trie's type."""
    return {type(t.trie[h]) for t in idx.trees for h in t.inorder()
            if t.trie[h] is not None}


def at_t(bound):
    """``bound``, a universe written for T = 8, scaled with T, so that its
    groups reach past T as they did at 8; the case ids keep naming the
    universe at 8."""
    return bound * T // 8


@pytest.mark.parametrize("k,bound", [
    pytest.param(k, at_t(bound), id=f"{k}-{bound}")
    for k, bound in ((1, 16), (2, 24), (3, 12), (4, 16))])
def test_level_walk_matches_recursive_walk(k, bound):
    rng = random.Random(4111 * k + bound)
    # k = 1 has one group, level 0's: 2 * bound draws start it above T,
    # and the updates, which delete as often as they try to insert, take
    # it below
    draws = 2 * bound if k == 1 else min(bound ** k // 2, 700)
    pts = {tuple(rng.randrange(bound) for _ in range(k))
           for _ in range(draws)}
    idx = KdPointIndex.from_points(k, bound, pts, radix=4)
    assert_same_as_recursive(idx, rng)
    # updates grow and shrink groups across T, so the walks compared on
    # the way meet groups that keep a count and groups that keep a trie
    live = sorted(pts)
    kinds = group_markers(idx)
    for step in range(600):
        if live and rng.random() < 0.5:
            idx.delete(live.pop(rng.randrange(len(live))))
        else:
            p = tuple(rng.randrange(bound) for _ in range(k))
            if idx.insert(p):
                live.append(p)
        if step % 60 == 0:
            kinds |= group_markers(idx)
            assert_same_as_recursive(idx, rng, windows=10)
    assert len(kinds) == 2


def test_level_candidates_without_stats():
    # level 0 and the level-1 groups under x < 60 keep tries; the group
    # under x = 63 keeps a count
    pts = [(x, y) for x in range(0, 60, 5) for y in range(0, 64, 3)]
    idx = KdPointIndex.from_points(2, 64, pts + [(63, 7), (63, 40)])
    t0 = idx.trees[0]
    groups = [(0, idx.above[0].node(HEAD).cross_link)]
    groups += [(1, t0.node(h).cross_link) for h in t0.inorder()]
    for level, first in groups:
        for lo, hi in ((5, 40), (0, 63), (41, 41), (62, 63)):
            assert (level_candidates(idx, level, first, lo, hi)
                    == level_candidates(idx, level, first, lo, hi,
                                        VisitStats()))


def test_emptied_index_window_counts_nothing():
    idx = KdPointIndex.from_points(3, 16, [(1, 2, 3), (4, 5, 6)])
    for p in [(1, 2, 3), (4, 5, 6)]:
        idx.delete(p)
    for empty in (idx, KdPointIndex(3, 16)):
        ref = VisitStats()
        got, st_ = window_query(empty, [(0, 15)] * 3)
        assert got == recursive_query(empty, [(0, 15)] * 3, ref) == []
        assert dataclasses.asdict(st_) == dataclasses.asdict(ref)
        assert st_.total_touches() == 0
        assert st_.per_level_candidates == [0, 0, 0]


def reference_members(idx, level, first, lo, hi, st_):
    """One group's members in [lo, hi], stepped with ``tree.in_succ`` and
    looked up with the trie's ``succ_geq``; a group that keeps a count is
    searched member by member, one trie node and at most ``T`` threads per
    read, as the index documents it."""
    tree = idx.trees[level]
    key, marker = tree.key, tree.trie[first]
    if key[first][level] > hi:
        st_.tree_nodes_visited += 1
        return []
    if key[first][level] >= lo:
        start = first
    elif type(marker) is int:
        st_.trie_lookups += 1
        start, left = first, marker
        while True:
            st_.trie_nodes_visited += 1
            if key[start][level] >= lo:
                break
            left -= 1
            if left == 0:
                start = DUMMY
                break
            start = tree.in_succ(start, st_)
    else:
        start = marker.succ_geq(lo, st_) or DUMMY
    out, h = [], start
    while h != DUMMY:
        st_.tree_nodes_visited += 1
        if key[h][level] > hi or (h != start and tree.trie[h] is not None):
            break
        out.append(h)
        h = tree.in_succ(h, st_)
    return out


def reference_query(idx, w, st_):
    cands = st_.per_level_candidates
    cands.extend([0] * (idx.k - len(cands)))
    if not len(idx):
        return []
    groups = [idx.above[0].cross[HEAD]]
    for level, (lo, hi) in enumerate(w):
        hs = [h for first in groups
              for h in reference_members(idx, level, first, lo, hi, st_)]
        cands[level] += len(hs)
        if level == idx.k - 1:
            return [idx.trees[level].key[h] for h in hs]
        st_.cross_links_followed += len(hs)
        groups = [idx.trees[level].cross[h] for h in hs]


def assert_same_as_reference(idx, rng, windows=30):
    for _ in range(windows):
        w = random_window(rng, idx.k, idx.bound)
        ref = VisitStats()
        got, st_ = window_query(idx, w)
        assert got == reference_query(idx, w, ref)
        assert dataclasses.asdict(st_) == dataclasses.asdict(ref)
    # every group of every level, alone, through level_candidates
    firsts = [[idx.above[0].cross[HEAD]]] if len(idx) else []
    for level in range(idx.k - 1):
        if firsts:
            above = idx.trees[level]
            firsts.append(sorted({above.cross[h] for h in above.inorder()}))
    for level, groups in enumerate(firsts):
        for first in groups:
            a, b = sorted(rng.randrange(idx.bound) for _ in range(2))
            ref, st_ = VisitStats(), VisitStats()
            assert (level_candidates(idx, level, first, a, b, st_)
                    == reference_members(idx, level, first, a, b, ref))
            assert dataclasses.asdict(st_) == dataclasses.asdict(ref)


# the radix-4 cases keep their plain k-bound ids; at T = 8 the bounds fill
# the trie capacity or fall below it, bound 24 at radix 16 far below its 256
@pytest.mark.parametrize("k,bound,radix", [
    pytest.param(k, at_t(bound), radix, id=f"{k}-{bound}" if radix == 4
                 else f"{k}-{bound}-radix{radix}")
    for radix in (4, 2, 16)
    for k, bound in ((1, 32), (2, 24), (3, 12), (4, 16))])
def test_level_walk_matches_in_succ_reference(k, bound, radix):
    rng = random.Random(7919 * k + bound)
    pts = {tuple(rng.randrange(bound) for _ in range(k))
           for _ in range(min(bound ** k // 2, 600))}
    idx = KdPointIndex.from_points(k, bound, pts, radix=radix)
    assert_same_as_reference(idx, rng)
    # updates move groups across T both ways, and finally empty the index
    live = sorted(pts)
    kinds = group_markers(idx)
    for step in range(400):
        if live and rng.random() < 0.5:
            idx.delete(live.pop(rng.randrange(len(live))))
        else:
            p = tuple(rng.randrange(bound) for _ in range(k))
            if idx.insert(p):
                live.append(p)
        if step % 50 == 0:
            kinds |= group_markers(idx)
            assert_same_as_reference(idx, rng, windows=8)
    assert len(kinds) == 2
    for p in live:
        idx.delete(p)
    assert len(idx) == 0
    assert_same_as_reference(idx, rng, windows=5)


def test_query_walk_calls_neither_in_succ_nor_succ_geq(monkeypatch):
    # every group, level 0's (2T members) and each level-1 group (4T),
    # has more than T members, so each keeps a trie
    bound = 8 * T
    pts = [(x, y) for x in range(0, bound, 4) for y in range(0, bound, 2)]
    idx = KdPointIndex.from_points(2, bound, pts)
    assert group_markers(idx) == {ValueTrie}
    calls = {"in_succ": 0, "succ_geq": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ThreadedAvlTree, "in_succ",
                        counted("in_succ", ThreadedAvlTree.in_succ))
    monkeypatch.setattr(ThreadedTrie, "succ_geq",
                        counted("succ_geq", ThreadedTrie.succ_geq))
    st_ = VisitStats()
    for w in ([(5, 40), (3, 50)], [(0, 63), (1, 62)], [(17, 17), (9, 9)]):
        got, _ = window_query(idx, w, st_)
        assert got == [p for p in pts if all(lo <= c <= hi for c, (lo, hi)
                                             in zip(p, w))]
    assert st_.trie_lookups > 0 and st_.threads_followed > 0
    assert calls == {"in_succ": 0, "succ_geq": 0}


def test_count_groups_answer_without_a_trie_until_member_t_plus_one(
        monkeypatch):
    # level 0 and every level-1 group have T members, so each keeps a
    # count, and its lookups walk the members, never a trie's succ_geq
    bound = 8 * T
    pts = [(x, y) for x in range(0, bound, 8) for y in range(0, bound, 8)]
    idx = KdPointIndex.from_points(2, bound, pts)
    assert group_markers(idx) == {int}
    t0, t1 = idx.trees
    g = t0.cross[next(h for h in t0.inorder() if t0.key[h] == (16,))]
    calls = {"succ_geq": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ThreadedTrie, "succ_geq",
                        counted("succ_geq", ThreadedTrie.succ_geq))
    st_ = VisitStats()
    for w in ([(5, 40), (3, 50)], [(0, 63), (1, 62)], [(17, 17), (9, 9)]):
        got, _ = window_query(idx, w, st_)
        assert got == [p for p in pts if all(lo <= c <= hi for c, (lo, hi)
                                             in zip(p, w))]
    assert st_.trie_lookups > 0 and st_.threads_followed > 0
    assert calls["succ_geq"] == 0
    # member T + 1 of (16, *)'s group: its lookups walk the count, and
    # the walk over the T + 1 members builds the group's trie
    st_ = VisitStats()
    assert idx.insert((16, 5), st_)
    assert isinstance(t1.trie[g], ValueTrie) and t1.trie[g].size == T + 1
    assert st_.threads_followed > 0
    assert calls["succ_geq"] == 0
    assert idx.validate() == []
