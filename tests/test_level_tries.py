"""``ThreadedTrie.level_tries``, the bulk load's builder of every long group's
trie on a level, against ``ThreadedTrie.from_columns``, which builds one trie
node by node: the two give the same slots, holding the caller's own value
ints, read their keys from the caller's map, and give the same tries after
an insert and a delete."""

import random
import sys

import numpy as np
import pytest

from threadkd.index import T
from threadkd.trie import _BATCH, ThreadedTrie

COLUMNS = ("size", "slots", "key_of", "own_map", "free_node", "mutations",
           "capacity", "_pow")
# values[a] is OFFSET + a, a handle into the key map past a few cells
# that no value names
OFFSET = 3


def same_columns(got, want):
    for name in COLUMNS:
        assert getattr(got, name) == getattr(want, name), name


def groups_for(rng, radix, width):
    """Sorted groups of distinct keys in [0, radix**width): T + 1 random
    keys, random sizes from there up to 60, a run of keys that share every
    digit but the last, and the whole universe when it is small.  A
    universe of T keys or fewer caps every size at its own."""
    cap = radix ** width
    least = min(T + 1, cap)
    out = [sorted(rng.sample(range(cap), least))]
    for _ in range(6):
        out.append(sorted(rng.sample(range(cap), rng.randint(least, min(cap, 60)))))
    base = rng.randrange(cap // radix) * radix
    out.append(list(range(base, base + radix)))
    if cap <= 4096:
        out.append(list(range(cap)))
    return out


def build_both(radix, width, groups, dtype=np.int64):
    """The level builder's tries and ``from_columns``' over one key map,
    ``key_of``, and the value list, which the checks read too."""
    keys = [key for g in groups for key in g]
    key_of = [None] * OFFSET + keys
    values = list(range(OFFSET, OFFSET + len(keys)))
    ends = np.cumsum([len(g) for g in groups])
    starts = ends - [len(g) for g in groups]
    column = np.array(keys, dtype)
    got = ThreadedTrie.level_tries(radix, width, column, key_of, values,
                                   starts, ends)
    want = [ThreadedTrie.from_columns(radix, width, values[s:e], key_of)
            for s, e in zip(starts, ends)]
    return got, want, values


def check(got, want, values, rng):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is ThreadedTrie
        same_columns(g, w)
        assert g.validate() == []
        key_of = g.key_of
        assert key_of is w.key_of
        for ref in g.slots:
            if ref is not None and ref >= 0:
                assert ref is values[ref - OFFSET]
        # the same trie after an insert and a delete as its twin's
        # (a full-universe group only takes the delete); the new value's
        # key goes into the map first, as the index sets a coord cell
        keys = [k for k, _ in g.items()]
        free = g.size < g.capacity
        fresh = rng.randrange(g.capacity)
        while free and fresh in keys:
            fresh = rng.randrange(g.capacity)
        gone = rng.choice(keys)
        if free:
            key_of.append(fresh)
        for t in (g, w):
            if free:
                t.insert(fresh, len(key_of) - 1)
            t.delete(gone)
        same_columns(g, w)
        assert g.validate() == []


@pytest.mark.parametrize("radix,width", [
    (2, 4), (2, 9), (2, 14), (3, 3), (3, 6), (16, 2), (16, 3), (16, 4),
    (256, 1), (256, 2), (256, 3)])
def test_level_tries_equal_from_columns(radix, width):
    rng = random.Random(radix * 100 + width)
    check(*build_both(radix, width, groups_for(rng, radix, width)), rng)


def test_level_tries_past_int64_take_digits_from_objects():
    # keys past 2**63 come as an object column; digits are cast once taken
    rng = random.Random(63)
    bound = 2 ** 70
    high = sorted({bound - 1 - rng.randrange(2 ** 66) for _ in range(40)})
    mixed = [0, 5, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 + 1, bound - 1]
    near = [2 ** 64 + 16 * 7 + d for d in range(16)]
    for radix, width in ((2, 70), (16, 18), (256, 9)):
        check(*build_both(radix, width, [high, mixed, near], object), rng)


def test_level_tries_with_no_group():
    assert ThreadedTrie.level_tries(16, 3, np.array([1, 2], np.int64),
                                    [1, 2], [0, 1], [], []) == []


def test_level_tries_share_the_callers_keys_and_values():
    # the slots hold the caller's value ints themselves, and the trie
    # reads its keys from the caller's map, not from a copy
    keys = list(range(300, 340))
    values = [10 ** 9 + a for a in range(40)]
    key_of = dict(zip(values, keys))
    (trie,) = ThreadedTrie.level_tries(16, 3, np.array(keys), key_of,
                                       values, [3], [30])
    assert trie.key_of is key_of and not trie.own_map
    # a value's thread cells repeat the same int
    held = {id(ref) for ref in trie.slots if ref is not None and ref >= 0}
    assert held == set(map(id, values[3:30]))
    assert trie.find(310) is values[10]
    assert list(trie.items()) == list(zip(keys[3:30], values[3:30]))


def test_level_tries_set_every_field_as_from_columns():
    rng = random.Random(19)
    for radix, width in ((2, 9), (16, 3), (256, 2)):
        got, want, _ = build_both(radix, width, groups_for(rng, radix, width))
        for g, w in zip(got, want):
            for name in ThreadedTrie.__slots__:
                assert getattr(g, name) == getattr(w, name), name
            assert type(g.slots) is list
            # every trie of one shape shares its capacity and place values
            assert g.capacity is w.capacity and g._pow is w._pow


@pytest.mark.parametrize("radix,width", [(2, 12), (16, 3)])
def test_level_tries_across_batches_equal_from_columns(radix, width):
    # 700 groups span several batches of tries; each trie's slices of its
    # batch's lists are exact-size, as fresh lists are
    rng = random.Random(700 + radix)
    groups = [sorted(rng.sample(range(radix ** width), rng.randint(T + 1, 40)))
              for _ in range(700)]
    assert len(groups) > 2 * _BATCH
    got, want, values = build_both(radix, width, groups)
    assert len(got) == len(want) == 700
    for g, w in zip(got, want):
        for name in ThreadedTrie.__slots__:
            assert getattr(g, name) == getattr(w, name), name
        assert sys.getsizeof(g.slots) == sys.getsizeof([None] * len(g.slots))
    check(got[::97], want[::97], values, rng)
