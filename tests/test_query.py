import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadkd.baseline import brute_force_query
from threadkd.index import KdPointIndex
from threadkd.query import (WindowError, check_window, level_candidates,
                            window_query)
from threadkd.stats import VisitStats

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
