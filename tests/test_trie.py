import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadkd.stats import VisitStats
from threadkd.trie import Entry, ThreadedTrie, TrieNode


def oracle_succ(keys_sorted, q):
    i = bisect.bisect_left(keys_sorted, q)
    return keys_sorted[i] if i < len(keys_sorted) else None


def test_empty():
    t = ThreadedTrie(10, 2)
    assert len(t) == 0
    assert t.succ_geq(0) is None
    assert t.find(5) is None
    assert t.min_entry() is None
    assert list(t.items()) == []
    assert t.validate() == []


def test_two_keys_structure():
    """With radix 10 and width 2, keys 8 and 42 share nothing; every empty
    slot must jump straight to whatever comes next in key order."""
    t = ThreadedTrie(10, 2)
    e08 = t.insert(8, "a")
    e42 = t.insert(42, "b")
    root = t.root
    low = root.slots[0]      # branch holding 8 (as digits 0,8)
    high = root.slots[4]     # branch holding 42
    assert isinstance(low, TrieNode) and isinstance(high, TrieNode)
    # gaps between the two branches jump to the higher branch node
    for d in (1, 2, 3):
        assert not root.valid[d]
        assert root.slots[d] is high
    # inside the high branch, slots before digit 2 jump to 42's entry
    for d in (0, 1):
        assert not high.valid[d]
        assert high.slots[d] is e42
    # inside the low branch, slots before digit 8 jump to 8's entry,
    # and slot 9 leaves the branch for the next one over
    for d in range(8):
        assert low.slots[d] is e08
    assert low.slots[9] is high
    assert low.up is high
    # nothing follows 42
    assert high.up is None
    for d in range(3, 10):
        assert not high.valid[d]
        assert high.slots[d] is None
    assert t.validate() == []


def test_succ_crosses_branches():
    # a probe falling in the gap right after a key must reach the next
    # branch, not report the earlier key or nothing
    t = ThreadedTrie(10, 2)
    t.insert(8, None)
    t.insert(42, None)
    assert t.succ_geq(9).key == 42
    assert t.succ_geq(8).key == 8
    assert t.succ_geq(0).key == 8
    assert t.succ_geq(42).key == 42
    assert t.succ_geq(43) is None


def test_succ_returns_payload():
    t = ThreadedTrie(16, 3)
    t.insert(100, "x")
    t.insert(200, "y")
    assert t.succ_geq(150).value == "y"
    assert t.find(100).value == "x"


def test_key_bounds():
    t = ThreadedTrie(10, 2)
    with pytest.raises(ValueError):
        t.insert(100, None)
    with pytest.raises(ValueError):
        t.insert(-1, None)
    t.insert(99, None)
    assert t.succ_geq(99).key == 99
    assert t.succ_geq(100) is None
    assert t.succ_geq(-5).key == 99


def test_duplicate_and_missing():
    t = ThreadedTrie(10, 2)
    t.insert(7, None)
    with pytest.raises(ValueError):
        t.insert(7, None)
    with pytest.raises(KeyError):
        t.delete(8)
    e = t.delete(7)
    assert e.key == 7
    assert len(t) == 0
    assert t.validate() == []


def test_delete_prunes_and_repoints():
    t = ThreadedTrie(10, 2)
    t.insert(8, None)
    t.insert(42, None)
    t.delete(42)
    low = t.root.slots[0]
    assert low.up is None
    assert low.slots[9] is None
    for d in range(1, 10):
        assert not t.root.valid[d]
        assert t.root.slots[d] is None
    assert t.succ_geq(9) is None
    assert t.validate() == []


def test_reinsert_after_empty():
    t = ThreadedTrie(2, 12)
    for k in [5, 9, 2048]:
        t.insert(k, k)
    for k in [5, 9, 2048]:
        t.delete(k)
    assert len(t) == 0
    assert t.validate() == []
    t.insert(77, None)
    assert t.succ_geq(0).key == 77
    assert t.validate() == []


def test_min_entry():
    t = ThreadedTrie(16, 4)
    for k in [5000, 300, 40000]:
        t.insert(k, None)
    assert t.min_entry().key == 300
    t.delete(300)
    assert t.min_entry().key == 5000


def test_items_sorted():
    t = ThreadedTrie(16, 4)
    ks = random.Random(3).sample(range(16 ** 4), 500)
    for k in ks:
        t.insert(k, -k)
    assert list(t.keys()) == sorted(ks)
    assert all(v == -k for k, v in t.items())


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
            got = t.succ_geq(q)
            want = oracle_succ(keys, q)
            assert (got.key if got else None) == want
            if got is not None:
                assert got.value == got.key * 2
        if step % 151 == 0:
            assert t.validate() == [], f"step {step}"
    assert t.validate() == []
    assert list(t.keys()) == keys


@pytest.mark.parametrize("radix,width", [(10, 2), (16, 4), (2, 12)])
def test_lookup_touch_bound(radix, width):
    """A successor lookup never touches more than two root-to-bottom paths."""
    rng = random.Random(99)
    t = ThreadedTrie(radix, width)
    cap = radix ** width
    for _ in range(400):
        k = rng.randrange(cap)
        if t.find(k) is None:
            t.insert(k, None)
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
        t.insert(k, None)
    got = t.succ_geq(probe)
    want = oracle_succ(sorted(keys), probe)
    assert (got.key if got else None) == want
    assert t.validate() == []


@given(st.lists(st.integers(0, 2 ** 12 - 1), unique=True, min_size=1,
                max_size=40),
       st.data())
@settings(max_examples=80, deadline=None)
def test_insert_delete_round_trip(keys, data):
    t = ThreadedTrie(2, 12)
    for k in keys:
        t.insert(k, None)
    order = data.draw(st.permutations(keys))
    for k in order:
        t.delete(k)
        assert t.validate() == []
    assert len(t) == 0


def same_slots(a, b):
    """Slot-for-slot equality of two tries: valid flags, threads, ups,
    entries (key and payload), with thread targets matched by position."""
    pairs: dict[int, object] = {}

    def eq(x, y):
        if isinstance(x, TrieNode):
            if not isinstance(y, TrieNode):
                return False
            if id(x) in pairs:
                return pairs[id(x)] is y
            pairs[id(x)] = y
            return (x.valid == y.valid and eq(x.up, y.up)
                    and all(eq(p, q) for p, q in zip(x.slots, y.slots)))
        if isinstance(x, Entry):
            return (isinstance(y, Entry) and x.key == y.key
                    and x.value == y.value)
        return x is None and y is None

    return a.size == b.size and eq(a.root, b.root)


@pytest.mark.parametrize("radix,width", [(2, 6), (4, 3), (16, 2)])
def test_from_sorted_matches_inserts(radix, width):
    rng = random.Random(31 * radix + width)
    cap = radix ** width
    for n in [0, 1, 2, 3, 5, 17, cap // 2, cap]:
        keys = sorted(rng.sample(range(cap), n))
        items = [(key, -key) for key in keys]
        bulk = ThreadedTrie.from_sorted(radix, width, items)
        built = ThreadedTrie(radix, width)
        for key, v in rng.sample(items, n):
            built.insert(key, v)
        assert bulk.validate() == []
        assert list(bulk.items()) == list(built.items()) == items
        assert same_slots(bulk, built)


def test_from_sorted_trie_takes_updates():
    t = ThreadedTrie.from_sorted(4, 3, [(key, None) for key in range(0, 64, 3)])
    for key in range(1, 64, 6):
        t.insert(key, None)
    for key in range(0, 64, 6):
        t.delete(key)
    assert t.validate() == []
    assert list(t.keys()) == sorted([*range(3, 64, 6), *range(1, 64, 6)])


def test_from_sorted_rejects_out_of_range_keys():
    with pytest.raises(ValueError):
        ThreadedTrie.from_sorted(4, 2, [(3, None), (16, None)])
    with pytest.raises(ValueError):
        ThreadedTrie.from_sorted(4, 2, [(-1, None), (3, None)])
