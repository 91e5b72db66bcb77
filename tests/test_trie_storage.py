"""The flat storage behind ``ThreadedTrie``: freed nodes are reused before
the slot column grows, ``validate()`` checks the free list against what
the root reaches, and a trie built from values and a key map is the one
built from pairs."""

import bisect
import random
from collections import Counter

import pytest

from threadkd.trie import ThreadedTrie


def nodes_needed(trie, keys):
    """Nodes a trie holding ``keys`` has: the root and one per prefix of
    1 to width - 1 digits that two keys or more share."""
    R, W = trie.radix, trie.width
    return 1 + sum(
        sum(c >= 2 for c in Counter(k // R ** (W - j) for k in keys).values())
        for j in range(1, W))


def node_count(trie):
    return len(trie.slots) // (trie.radix + 1)


def up_cell(trie, ref):
    """Where node ``ref``'s up is: the cell after its last slot, the row
    starting at -ref."""
    return trie.radix - ref


def live_nodes(trie):
    free, n = 0, trie.free_node
    while n is not None:
        free, n = free + 1, trie.slots[up_cell(trie, n)]
    return node_count(trie) - free


def check_succ(trie, keys, rng, probes=8):
    for _ in range(probes):
        q = rng.randrange(-2, trie.capacity + 2)
        i = bisect.bisect_left(keys, max(q, 0))
        want = keys[i] if i < len(keys) and q < trie.capacity else None
        # every value is 3 * key + 1
        assert trie.succ_geq(q) == (None if want is None else 3 * want + 1)


def test_churn_reuses_freed_cells():
    rng = random.Random(16003)
    t = ThreadedTrie(16, 3)
    keys: list[int] = []
    peak_nodes, peak_keys = 1, []
    for step in range(10_000):
        if keys and rng.random() < (0.55 if len(keys) > 48 else 0.3):
            k = keys.pop(rng.randrange(len(keys)))
            assert t.delete(k) == 3 * k + 1
        else:
            k = rng.randrange(t.capacity)
            while k in keys:
                k = rng.randrange(t.capacity)
            t.insert(k, 3 * k + 1)
            bisect.insort(keys, k)
        n = nodes_needed(t, keys)
        if n > peak_nodes:
            peak_nodes, peak_keys = n, list(keys)
        if step % 100 == 0:
            check_succ(t, keys, rng)
        if step % 1000 == 0:
            assert t.validate() == [], f"step {step}"
            assert live_nodes(t) == t.nodes() == n
        # a value takes no cell: the trie's own map holds the live ones
        assert len(t.key_of) == len(keys)
    assert node_count(t) <= peak_nodes

    # down to empty: every node but the root goes back on the free list
    for k in rng.sample(keys, len(keys)):
        t.delete(k)
    assert len(t) == 0 and t.validate() == []
    assert t.nodes() == 1 and t.key_of == {}
    columns = node_count(t)

    # refilled with the keys of the node peak, the column stays as it is
    for k in rng.sample(peak_keys, len(peak_keys)):
        t.insert(k, 3 * k + 1)
    assert node_count(t) == columns
    assert node_count(t) <= peak_nodes
    assert t.validate() == []
    assert list(t.items()) == [(k, 3 * k + 1) for k in peak_keys]
    check_succ(t, peak_keys, rng, probes=200)


def built():
    """A radix-4, width-3 trie that has freed the branches of keys 40
    (digits 2, 2, 0) and 57 (3, 2, 1): three nodes on the free list."""
    t = ThreadedTrie(4, 3)
    for k in (5, 6, 40, 57, 63):
        t.insert(k, k)
    t.delete(40)
    t.delete(57)
    assert t.validate() == [] and t.free_node is not None
    return t


def push_live_node(t):
    # a reachable node is put on the free list
    n = next(s for s in t.slots[:t.radix] if s is not None and s < 0)
    t.slots[up_cell(t, n)], t.free_node = t.free_node, n


def reach_freed_node(t):
    # a freed node is hung back into the root: written over a thread, it
    # no longer repeats the cell after it, so it reads as a valid slot
    d = next(d for d in range(t.radix) if t.slots[d] == t.slots[d + 1])
    t.slots[d] = t.free_node


def drop_free_head(t):
    # a freed node falls off its free list: it leaks
    t.free_node = t.slots[up_cell(t, t.free_node)]


def loop_free_list(t):
    t.slots[up_cell(t, t.free_node)] = t.free_node


def test_validate_catches_a_node_with_one_key():
    # key 8 behind a node of its own in root slot 0, as a trie without
    # lazy expansion would hold it; threads and free lists are intact
    t = ThreadedTrie(10, 2)
    t.insert(8, 8)
    e = t.slots[0]
    assert e == 8
    t.slots += [e] * 9 + [None, None]
    t.slots[0] = -11
    assert t.validate() == [
        "node 1 at depth 1 holds 1 key; only the root may hold fewer than two"]
    # every slot of node 1 threads to None: the entry's slot is gone
    t.slots[11:20] = [None] * 9
    assert "node 1 at depth 1 holds 0 keys" in t.validate()[0]


@pytest.mark.parametrize("corrupt,message", [
    (push_live_node, "is on the free list but reachable from the root"),
    (reach_freed_node, "is on the free list but reachable from the root"),
    (drop_free_head, "node cells neither reachable nor on the free list"),
    (loop_free_list, "free node list broken"),
])
def test_validate_catches_free_list_corruption(corrupt, message):
    t = built()
    corrupt(t)
    assert any(message in v for v in t.validate()), t.validate()


COLUMNS = ("size", "slots", "key_of", "free_node")


@pytest.mark.parametrize("radix,width", [(2, 12), (10, 4), (16, 3)])
def test_column_build_matches_pair_build(radix, width):
    # runs of many keys: 3 * radix consecutive ones, filling whole bottom
    # nodes; runs of one: the scattered keys, mostly alone in a slot
    # near the root
    rng = random.Random(radix * width)
    cap = radix ** width
    base = cap // 2
    keys = sorted({*range(base, base + 3 * radix), 0, cap - 1,
                   *(rng.randrange(cap) for _ in range(3))})
    for ks in (keys, keys[:1], []):
        values = [k * 7 + 1 for k in ks]
        key_of = dict(zip(values, ks))
        col = ThreadedTrie.from_columns(radix, width, list(values), key_of)
        pairs = ThreadedTrie.from_sorted(radix, width, list(zip(ks, values)))
        assert col.validate() == []
        for name in COLUMNS:
            assert getattr(col, name) == getattr(pairs, name), name
        # the given map is read, not copied; from_sorted's is its own
        assert col.key_of is key_of and not col.own_map and pairs.own_map
        for k, v in zip(ks, values):
            assert col.find(k) == v


def two_keys():
    """A radix-10, width-2 trie holding 11 and 12, with values 1 and 2:
    root slot 1 holds node 1, ref -11, whose slots 1 and 2 hold the
    values; root slots 2 to 9 thread to None.  Node 1's cells are 11 to
    21, its up cell last."""
    t = ThreadedTrie(10, 2)
    t.insert(11, 1)
    t.insert(12, 2)
    assert t.validate() == [] and t.slots[1] == -11
    return t


def one_key(t):
    # root slot 0 holds key 5's value 0 and every other cell None: a ref
    # the caller writes into slot 1 or 2 reads as a valid slot
    t.insert(5, 0)
    assert t.slots[1:] == [None] * t.radix
    return t


def extra_flag(t):
    # one cell more than whole rows hold
    t.slots.append(None)


def node_in_bottom_slot(t):
    t.slots[13] = -11


def bad_ref(t):
    # negative, so no value, and no row starts at cell 7
    one_key(t)
    t.slots[1] = -7


def entry_twice(t):
    # key 5's value in root slot 2 as well; written into slot 1, it
    # would make slot 0 read as a thread to it
    one_key(t)
    t.slots[2] = t.slots[0]


def value_without_key(t):
    # value 7, which the trie's map does not hold, in root slot 1
    one_key(t)
    t.slots[1] = 7


def map_holds_more(t):
    # the trie's own map holds a value that no slot holds
    t.key_of[9] = 50


def wrong_up(t):
    # node 1's trailing threads and its up lead to value 0, so they still
    # repeat one another and only the up is wrong
    t.slots[14:22] = [0] * 8


def wrong_thread(t):
    # root slot 5 threads to node 1 for None: the None before it no
    # longer repeats the cell after it, so slot 4 reads as a slot that
    # holds no node or entry
    t.slots[5] = -11


def node_twice(t):
    # root slot 3 holds node 1 as well as slot 1 does; slot 2, which
    # keeps the two apart, reads as a slot holding None
    t.slots[3] = -11


def misplaced_key(t):
    # the map gives the value in prefix 11's slot the key 21
    t.key_of[1] = 21


def size_plus_one(t):
    t.size += 1


@pytest.mark.parametrize("make,corrupt,message", [
    (two_keys, extra_flag, "columns disagree"),
    (two_keys, node_in_bottom_slot, "bottom slot 12: not an entry"),
    (lambda: ThreadedTrie(10, 3), bad_ref,
     "slot for prefix 1 at depth 0: not a node or an entry"),
    (lambda: ThreadedTrie(10, 2), entry_twice, "entry 0 reached twice"),
    (two_keys, wrong_up, "node 1: up is 0, expected None"),
    (two_keys, wrong_thread,
     "slot for prefix 4 at depth 0: not a node or an entry"),
    (two_keys, node_twice, "node 1 reached twice"),
    (two_keys, misplaced_key, "entry key 21 in the slot for prefix 11 at depth 1"),
    (two_keys, size_plus_one, "size 3 but 2 entries reachable"),
    (lambda: ThreadedTrie(10, 2), value_without_key,
     "entry key None in the slot for prefix 1 at depth 0"),
    (two_keys, map_holds_more,
     "the trie's map holds 3 values but 2 entries are reachable"),
])
def test_validate_reports_each_corruption(make, corrupt, message):
    t = make()
    corrupt(t)
    assert any(message in v for v in t.validate()), t.validate()


def freed_tries():
    """Tries of radix 2, 4, 10 and 16, each built by inserts and one
    delete that folds a node, so that each holds a freed node beside at
    least three live nodes."""
    for radix, width, keys, gone in [
            (2, 6, (3, 9, 10, 11, 40, 41, 63), 41),
            (4, 3, (5, 6, 7, 20, 40, 41, 57, 63), 41),
            (10, 3, (12, 13, 150, 155, 421, 428, 999), 428),
            (16, 2, (17, 18, 33, 34, 200, 201, 255), 201)]:
        t = ThreadedTrie(radix, width)
        for k in keys:
            t.insert(k, k)
        t.delete(gone)
        assert t.validate() == [] and t.free_node is not None
        yield t


@pytest.mark.parametrize("t", freed_tries(), ids=lambda t: f"radix{t.radix}")
def test_validate_reports_every_overwrite_of_a_live_cell(t):
    # each cell of each live row, up cell included, takes in turn None,
    # 0 (the root's ref, and a value no key maps to), another live node,
    # a live value and the ref of a node past the last; validate()
    # reports every one of them and raises on none
    s = t.radix + 1
    free, n = set(), t.free_node
    while n is not None:
        free.add(n)
        n = t.slots[up_cell(t, n)]
    live = [-n * s for n in range(node_count(t)) if -n * s not in free]
    assert len(live) >= 3 and t.nodes() == len(live)
    entry = min(ref for n in live for ref in t.slots[-n:-n + s]
                if ref is not None and ref >= 0)
    checked = 0
    for n in live:
        other = min(set(live) - {0, n})
        for i in range(-n, -n + s):
            old = t.slots[i]
            for ref in (None, 0, other, entry, -node_count(t) * s):
                if ref == old:
                    continue
                t.slots[i] = ref
                assert t.validate(), (n, i + n, ref)
                checked += 1
            t.slots[i] = old
    assert t.validate() == [] and checked >= 5 * len(live)
