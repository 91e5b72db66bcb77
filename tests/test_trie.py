import bisect
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadkd.stats import VisitStats
from threadkd.trie import ThreadedTrie


def oracle_succ(keys_sorted, q):
    i = bisect.bisect_left(keys_sorted, q)
    return keys_sorted[i] if i < len(keys_sorted) else None


def row(t, ref=0):
    """The row of ``radix + 1`` cells of the node ``ref`` names, the root
    for 0: its slots, then its up."""
    return t.slots[-ref:-ref + t.radix + 1]


def valid(t, ref=0):
    """Node ``ref``'s valid flags: a slot whose ref differs from the next
    cell's."""
    cells = row(t, ref)
    return [a != b for a, b in zip(cells, cells[1:])]


def entry(t, ref):
    """(key, value) of the value a cell holds; None for a node or
    nothing."""
    return None if ref is None or ref < 0 else (t.key_of[ref], ref)


def test_empty():
    t = ThreadedTrie(10, 2)
    assert len(t) == 0
    assert t.succ_geq(0) is None
    assert t.find(5) is None
    assert list(t.items()) == []
    assert t.validate() == []


def test_two_keys_structure():
    """With radix 10 and width 2, keys 8 and 42 share nothing, so each is
    alone under its first digit and sits in the root as an entry; every
    empty slot must jump straight to whatever comes next in key order."""
    t = ThreadedTrie(10, 2)
    assert t.insert(8, 1) == 1
    assert t.insert(42, 2) == 2
    root, v = row(t), valid(t)
    assert v[0] and entry(t, root[0]) == (8, 1)      # 8 as digits 0,8
    assert v[4] and entry(t, root[4]) == (42, 2)
    # gaps between the two entries jump to the higher one
    for d in (1, 2, 3):
        assert not v[d]
        assert root[d] == root[4]
    # nothing follows 42
    for d in range(5, 10):
        assert not v[d]
        assert root[d] is None
    assert len(t.slots) == 11  # the root is the only node
    assert t.validate() == []


def test_succ_crosses_branches():
    # a probe falling in the gap right after a key must reach the next
    # branch, not report the earlier key or nothing
    t = ThreadedTrie(10, 2)
    t.insert(8, 8)
    t.insert(42, 42)
    assert t.succ_geq(9) == 42
    assert t.succ_geq(8) == 8
    assert t.succ_geq(0) == 8
    assert t.succ_geq(42) == 42
    assert t.succ_geq(43) is None


def test_succ_returns_payload():
    t = ThreadedTrie(16, 3)
    t.insert(100, 7)
    t.insert(200, 9)
    assert t.succ_geq(150) == 9
    assert t.find(100) == 7


def test_key_bounds():
    t = ThreadedTrie(10, 2)
    with pytest.raises(ValueError):
        t.insert(100, 100)
    with pytest.raises(ValueError):
        t.insert(-1, -1)
    t.insert(99, 99)
    assert t.succ_geq(99) == 99
    assert t.succ_geq(100) is None
    assert t.succ_geq(-5) == 99


@pytest.mark.parametrize("radix,width", [(1, 3), (2, 0)])
def test_degenerate_shape_rejected(radix, width):
    with pytest.raises(ValueError, match="radix must be >= 2 and width >= 1"):
        ThreadedTrie(radix, width)


def test_duplicate_and_missing():
    t = ThreadedTrie(10, 2)
    t.insert(7, 7)
    with pytest.raises(ValueError):
        t.insert(7, 7)
    with pytest.raises(KeyError):
        t.delete(8)
    assert t.delete(7) == 7
    assert len(t) == 0
    assert t.validate() == []


def test_delete_prunes_and_repoints():
    t = ThreadedTrie(10, 2)
    t.insert(8, 8)
    t.insert(42, 42)
    assert t.delete(42) == 42
    root, v = row(t), valid(t)
    assert entry(t, root[0]) == (8, 8) and t.find(8) == 8
    for d in range(1, 10):
        assert not v[d]
        assert root[d] is None
    assert t.succ_geq(9) is None
    assert t.validate() == []


def test_delete_folds_a_two_key_node():
    """42 and 47 share their first digit, so they get a node in root slot
    4; deleting 47 leaves that node one key, and it folds back into the
    slot as the entry of 42 and goes on the free list."""
    t = ThreadedTrie(10, 2)
    t.insert(42, 1)
    e42 = row(t)[4]
    assert entry(t, e42) == (42, 1)
    t.insert(47, 2)
    node = row(t)[4]
    assert node < 0
    assert [valid(t, node)[d] for d in (2, 7)] == [1, 1]
    t.delete(47)
    root = row(t)
    assert valid(t)[4] and root[4] == e42
    assert all(root[d] == e42 for d in range(4))
    assert all(root[d] is None for d in range(5, 10))
    assert t.free_node == node
    assert t.validate() == []


def test_delete_folds_a_chain_into_the_highest_surviving_slot():
    # 420 and 421 share two digits: nodes for 4 and 42 fold together
    t = ThreadedTrie(10, 3)
    t.insert(420, 420)
    e420 = row(t)[4]
    assert entry(t, e420) == (420, 420)
    t.insert(421, 421)
    assert len(t.slots) == 3 * 11
    t.delete(421)
    assert row(t)[4] == e420
    assert [len(t.slots), t.validate()] == [3 * 11, []]
    # nodes 1 and 2, refs -11 and -22, chained through their up cells
    free = [t.free_node, t.slots[10 - t.free_node]]
    assert sorted(free) == [-22, -11] and t.slots[10 - free[1]] is None
    # with 400 beside them, the node for 4 keeps two keys and takes 420
    t.insert(400, 400)
    t.insert(421, 421)
    t.delete(421)
    four = row(t, row(t)[4])
    assert entry(t, four[0]) == (400, 400) and t.find(400) == 400
    assert four[1] == four[2] == e420
    assert four[3] is None and four[10] is None
    assert t.validate() == []


def test_split_retargets_threads_to_the_new_node():
    # 8 threads past its slot to 42's entry; when 47 arrives the entry
    # turns into a node, and every thread that aimed at it follows
    t = ThreadedTrie(10, 3)
    t.insert(8, 8)
    t.insert(420, 420)
    t.insert(470, 470)
    root = row(t)
    node = root[4]
    assert node < 0
    assert all(root[d] == node for d in (1, 2, 3))
    assert t.succ_geq(9) == 420
    assert t.succ_geq(421) == 470
    assert t.validate() == []


def test_reinsert_after_empty():
    t = ThreadedTrie(2, 12)
    for k in [5, 9, 2048]:
        t.insert(k, k)
    for k in [5, 9, 2048]:
        t.delete(k)
    assert len(t) == 0
    assert t.validate() == []
    t.insert(77, 77)
    assert t.succ_geq(0) == 77
    assert t.validate() == []


def test_min_entry():
    # succ_geq(0) answers with the smallest stored key's value
    t = ThreadedTrie(16, 4)
    for k in [5000, 300, 40000]:
        t.insert(k, k)
    assert t.succ_geq(0) == 300
    t.delete(300)
    assert t.succ_geq(0) == 5000


def test_items_sorted():
    t = ThreadedTrie(16, 4)
    ks = random.Random(3).sample(range(16 ** 4), 500)
    for k in ks:
        t.insert(k, 3 * k + 1)
    assert list(t.items()) == [(k, 3 * k + 1) for k in sorted(ks)]


@pytest.mark.parametrize("radix,width", [(10, 2), (16, 4), (2, 12)])
def test_fuzz_against_sorted_set(radix, width):
    rng = random.Random(radix * 1000 + width)
    t = ThreadedTrie(radix, width)
    cap = radix ** width
    keys = []
    for step in range(1500):
        r = rng.random()
        if keys and r < 0.35:
            k = rng.choice(keys)
            t.delete(k)
            keys.remove(k)
        elif r < 0.8:
            k = rng.randrange(cap)
            if t.find(k) is None:
                t.insert(k, k * 2)
                bisect.insort(keys, k)
        else:
            q = rng.randrange(cap)
            want = oracle_succ(keys, q)
            assert t.succ_geq(q) == (None if want is None else want * 2)
        if step % 151 == 0:
            assert t.validate() == [], f"step {step}"
    assert t.validate() == []
    assert [k for k, _ in t.items()] == keys


@pytest.mark.parametrize("radix,width", [(10, 2), (16, 4), (2, 12)])
def test_lookup_touch_bound(radix, width):
    """A successor lookup never touches more than two root-to-bottom paths."""
    rng = random.Random(99)
    t = ThreadedTrie(radix, width)
    cap = radix ** width
    for _ in range(400):
        k = rng.randrange(cap)
        if t.find(k) is None:
            t.insert(k, k)
    for _ in range(2000):
        s = VisitStats()
        t.succ_geq(rng.randrange(cap), stats=s)
        assert s.trie_nodes_visited <= 2 * width
        assert s.trie_lookups == 1


@given(st.sets(st.integers(0, 16 ** 3 - 1), max_size=60),
       st.integers(0, 16 ** 3 - 1))
@settings(max_examples=120, deadline=None)
def test_succ_matches_oracle(keys, probe):
    t = ThreadedTrie(16, 3)
    for k in keys:
        t.insert(k, k)
    assert t.succ_geq(probe) == oracle_succ(sorted(keys), probe)
    assert t.validate() == []


@given(st.lists(st.integers(0, 2 ** 12 - 1), unique=True, min_size=1,
                max_size=40),
       st.data())
@settings(max_examples=80, deadline=None)
def test_insert_delete_round_trip(keys, data):
    t = ThreadedTrie(2, 12)
    for k in keys:
        t.insert(k, k)
    order = data.draw(st.permutations(keys))
    for k in order:
        t.delete(k)
        assert t.validate() == []
    assert len(t) == 0


def test_items_raise_when_the_trie_changes():
    t = ThreadedTrie(16, 2)
    t.insert(0x11, 0x11)
    t.insert(0x31, 0x31)
    walk = t.items()
    assert next(walk) == (0x11, 0x11)
    t.delete(0x11)
    t.insert(0x0F, 0x0F)
    with pytest.raises(RuntimeError):
        next(walk)
    t.delete(0x0F)
    t.insert(0x11, 0x11)
    # failed updates change nothing, so a walk goes on
    walk = t.items()
    assert next(walk) == (0x11, 0x11)
    with pytest.raises(ValueError):
        t.insert(0x31, 0x31)
    with pytest.raises(KeyError):
        t.delete(0x20)
    assert list(walk) == [(0x31, 0x31)]


def same_slots(a, b):
    """Slot-for-slot equality of two tries: valid flags, threads, ups,
    entries (key and payload), with node refs matched by position."""
    pairs: dict[int, int] = {}

    def same_row(x, y):
        return (valid(a, x) == valid(b, y)
                and all(eq(p, q) for p, q in zip(row(a, x), row(b, y))))

    def eq(x, y):
        if x is None or y is None:
            return x is None and y is None
        if x < 0:
            if y >= 0:
                return False
            if x in pairs:
                return pairs[x] == y
            pairs[x] = y
            return same_row(x, y)
        return y >= 0 and entry(a, x) == entry(b, y)

    return a.size == b.size and same_row(0, 0)


@pytest.mark.parametrize("radix,width", [(2, 6), (4, 3), (16, 2)])
def test_from_sorted_matches_inserts(radix, width):
    rng = random.Random(31 * radix + width)
    cap = radix ** width
    for n in [0, 1, 2, 3, 5, 17, cap // 2, cap]:
        keys = sorted(rng.sample(range(cap), n))
        items = [(key, 3 * key + 1) for key in keys]
        bulk = ThreadedTrie.from_sorted(radix, width, items)
        built = ThreadedTrie(radix, width)
        for key, v in rng.sample(items, n):
            built.insert(key, v)
        assert bulk.validate() == []
        assert list(bulk.items()) == list(built.items()) == items
        assert same_slots(bulk, built)


@given(st.sampled_from([(2, 6), (4, 3), (16, 2)]), st.data())
@settings(max_examples=150, deadline=None)
def test_shape_depends_only_on_the_keys(shape, data):
    """After any sequence of updates the trie is, slot for slot, the one
    ``from_sorted`` builds from its items: a key toggles, inserted when
    absent and deleted when present."""
    radix, width = shape
    t = ThreadedTrie(radix, width)
    for k in data.draw(st.lists(st.integers(0, radix ** width - 1),
                                max_size=60)):
        if t.find(k) is None:
            t.insert(k, 3 * k + 1)
        else:
            t.delete(k)
        assert same_slots(t, ThreadedTrie.from_sorted(radix, width,
                                                      list(t.items())))
    assert t.validate() == []


def test_from_sorted_trie_takes_updates():
    t = ThreadedTrie.from_sorted(4, 3, [(key, key) for key in range(0, 64, 3)])
    for key in range(1, 64, 6):
        t.insert(key, key)
    for key in range(0, 64, 6):
        t.delete(key)
    assert t.validate() == []
    assert [k for k, _ in t.items()] == sorted([*range(3, 64, 6),
                                               *range(1, 64, 6)])


def test_from_sorted_rejects_out_of_range_keys():
    with pytest.raises(ValueError):
        ThreadedTrie.from_sorted(4, 2, [(3, 3), (16, 16)])
    with pytest.raises(ValueError):
        ThreadedTrie.from_sorted(4, 2, [(-1, 1), (3, 3)])


def test_none_is_not_a_storable_value():
    # None is the answer for no key, so no key may map to it
    t = ThreadedTrie(16, 2)
    t.insert(3, 1)
    with pytest.raises(ValueError, match="None"):
        t.insert(5, None)
    with pytest.raises(ValueError, match="None"):
        ThreadedTrie.from_sorted(16, 2, [(3, 1), (5, None)])
    assert t.find(5) is None and t.succ_geq(4) is None
    assert t.validate() == [] and list(t.items()) == [(3, 1)]


@pytest.mark.parametrize("bad", [None, True, False, -1, -2 ** 70, 1.5, "5"])
def test_bad_values_raise_value_error_and_are_not_stored(bad):
    # a stored value is a non-negative int: a cell tells it from a node,
    # a negative ref, by its sign
    t = ThreadedTrie(16, 2)
    t.insert(3, 1)
    s = VisitStats()
    with pytest.raises(ValueError):
        t.insert(5, bad, s)
    with pytest.raises(ValueError):
        ThreadedTrie.from_sorted(16, 2, [(3, 1), (5, bad)])
    assert s == VisitStats() and t.mutations == 1
    assert t.find(5) is None and t.succ_geq(4) is None
    assert t.validate() == [] and list(t.items()) == [(3, 1)]
    assert t.key_of == {1: 3}


def test_a_value_is_stored_once():
    # values are distinct: one already stored, under another key, is
    # rejected and nothing changes; with a given map, the value's key
    # must be the map's
    t = ThreadedTrie(16, 2)
    t.insert(3, 1)
    with pytest.raises(ValueError, match="value 1 has key 3 in the map"):
        t.insert(5, 1)
    with pytest.raises(ValueError, match="given twice"):
        ThreadedTrie.from_sorted(16, 2, [(3, 1), (5, 1)])
    assert t.validate() == [] and list(t.items()) == [(3, 1)]
    assert t.key_of == {1: 3} and t.mutations == 1
    keys = [None, 40, 50, 60]
    g = ThreadedTrie.from_columns(16, 2, [1, 3], keys)
    with pytest.raises(ValueError, match="has key 50 in the map, not 55"):
        g.insert(55, 2)
    assert g.insert(50, 2) == 2 and g.delete(40) == 1
    assert list(g.items()) == [(50, 2), (60, 3)] and g.validate() == []
    assert g.key_of is keys and keys == [None, 40, 50, 60]


@pytest.mark.parametrize("bad", [True, 1.5, None, "5"])
def test_bad_keys_raise_value_error_and_are_not_stored(bad):
    t = ThreadedTrie(16, 2)
    t.insert(3, 1)
    for call in (lambda: t.insert(bad, 2), lambda: t.find(bad),
                 lambda: t.delete(bad)):
        with pytest.raises(ValueError):
            call()
    with pytest.raises(ValueError):
        t.succ_geq(bad)
    assert t.validate() == [] and list(t.items()) == [(3, 1)]


@pytest.mark.parametrize("bad", [True, False])
def test_succ_geq_rejects_a_bool_probe(bad):
    # on a trie holding keys, where the descent could index with it
    t = ThreadedTrie(16, 2)
    for key in (0, 1, 3, 200):
        t.insert(key, key)
    s = VisitStats()
    with pytest.raises(ValueError, match="bool"):
        t.succ_geq(bad, s)
    assert (s.trie_lookups, s.trie_nodes_visited) == (0, 0)
    assert t.succ_geq(int(bad)) == int(bad)


def holding_three():
    t = ThreadedTrie(16, 2)
    t.insert(3, 1)
    return t


@pytest.mark.parametrize("bad", [1.5, 0.0, "5", None])
def test_empty_trie_rejects_a_non_integer_probe(bad):
    t = ThreadedTrie(16, 2)
    with pytest.raises(ValueError):
        t.succ_geq(bad)
    s = VisitStats()
    assert t.succ_geq(7, s) is None
    assert (s.trie_lookups, s.trie_nodes_visited) == (1, 0)


@pytest.mark.parametrize("bad", [256.0, 300.5, float("inf")])
def test_probe_past_capacity_must_be_an_integer(bad):
    t = holding_three()
    with pytest.raises(ValueError):
        t.succ_geq(bad)
    s = VisitStats()
    assert t.succ_geq(256, s) is None and t.succ_geq(np.int64(300), s) is None
    assert (s.trie_lookups, s.trie_nodes_visited) == (2, 0)


@pytest.mark.parametrize("bad", [-0.5, -3.0, float("-inf")])
def test_negative_probe_must_be_an_integer(bad):
    t = holding_three()
    with pytest.raises(ValueError):
        t.succ_geq(bad)
    s = VisitStats()
    assert t.succ_geq(-5, s) == 1 and t.succ_geq(np.int64(-1)) == 1
    assert s.trie_lookups == 1
    assert t.validate() == [] and list(t.items()) == [(3, 1)]


def test_fraction_probe_is_rejected_as_find_rejects_it():
    # Fraction's // and % give ints, so a descent alone would answer it
    t = holding_three()
    t.insert(5, 2)
    s = VisitStats()
    for lookup in (t.find, t.succ_geq):
        with pytest.raises(ValueError, match="not an integer"):
            lookup(Fraction(7, 2), s)
    assert (s.trie_lookups, s.trie_nodes_visited) == (0, 0)


class IndexOnly:
    """An int-like that has ``__index__`` and nothing else."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_index_only_probe_gets_the_plain_int_answer():
    t = holding_three()
    t.insert(5, 2)
    for probe in (-7, 0, 3, 4, 5, 6, 255, 256, 10 ** 30):
        got, want = VisitStats(), VisitStats()
        a, b = t.succ_geq(IndexOnly(probe), got), t.succ_geq(probe, want)
        assert a == b and got == want
    assert t.find(IndexOnly(5)) == 2


def test_int_like_keys_and_shape_are_stored_as_ints():
    t = ThreadedTrie(np.int64(16), np.int64(2))
    assert type(t.radix) is int and type(t.width) is int
    assert type(t.capacity) is int and t.capacity == 256
    t.insert(np.int64(5), np.int64(8))
    assert [(type(k), type(v)) for k, v in t.items()] == [(int, int)]
    assert t.validate() == []
    assert t.find(np.int64(5)) == 8
    assert t.succ_geq(np.int64(4)) == 8
    assert t.delete(np.int64(5)) == 8 and len(t) == 0
    built = ThreadedTrie.from_sorted(16, 2, [(np.int64(3), np.int64(1)),
                                             (7, 2)])
    assert [(type(k), type(v)) for k, v in built.items()] == [(int, int)] * 2
    assert built.validate() == []


@pytest.mark.parametrize("radix,width", [(16.0, 2), (16, 2.0), (True, 2),
                                         (16, True), ("16", 2)])
def test_shape_follows_the_coordinate_rule(radix, width):
    with pytest.raises(ValueError):
        ThreadedTrie(radix, width)
