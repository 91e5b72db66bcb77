"""Behavioural fingerprint of a standalone ``ThreadedTrie``.

A seeded trace of inserts (some duplicates), deletes (some of absent
keys, then every key down to empty), ``find``, ``succ_geq`` (some probes
out of range) and ``min_entry`` runs on tries of three shapes, first on
an empty trie and then on one built by ``from_sorted``.  The SHA-256
covers every result, every per-call ``VisitStats`` field and, at
checkpoints, every slot, valid flag and ``up`` of every node, with
thread targets named by their position in the trie.  The index
fingerprint reaches widths of at most 5; width 12 here exercises much
longer largest-valid chains.  A refactor that keeps the algorithm keeps
the digest; record a new one only with the reason for the change.
"""

import dataclasses
import hashlib
import random

from threadkd.stats import VisitStats
from threadkd.trie import Entry, ThreadedTrie, TrieNode

DIGEST = "98580cf9be4687f457184063b3b4d7665e4c46c8210bdee0f204d9c002b22312"

SHAPES = [(2, 12), (10, 2), (16, 5)]


def layout(trie):
    """Every node in preorder: valid flags, slots and ``up``, with nodes
    named by preorder number and entries by key."""
    order: dict[int, int] = {}
    nodes = []

    def number(node):
        order[id(node)] = len(nodes)
        nodes.append(node)
        for d in range(trie.radix):
            if node.valid[d] and isinstance(node.slots[d], TrieNode):
                number(node.slots[d])

    def name(ref):
        if isinstance(ref, TrieNode):
            return ("n", order[id(ref)])
        if isinstance(ref, Entry):
            return ("e", ref.key, ref.value)
        return ref

    number(trie.root)
    return [(bytes(n.valid), [name(s) for s in n.slots], name(n.up))
            for n in nodes]


def entry(e):
    return None if e is None else (e.key, e.value)


def trace(trie, rng, steps):
    """Yield one record per operation: grow, churn, then delete all."""
    cap = trie.capacity
    live = sorted(trie.keys())

    def key():
        # half the keys land next to a live one, so branches share prefixes
        if live and rng.random() < 0.5:
            return min(cap - 1, max(0, rng.choice(live) + rng.randint(-3, 3)))
        return rng.randrange(cap)

    def call(op, arg, fn):
        st = VisitStats()
        try:
            res = entry(fn(arg, st))
        except (KeyError, ValueError) as e:
            res = type(e).__name__
        return (op, arg, res, dataclasses.astuple(st))

    for step in range(steps):
        grow = 0.5 if step < steps // 2 else 0.25
        r = rng.random()
        if r < grow:
            k = key()
            yield call("insert", k, lambda a, st: trie.insert(a, -a, st))
            if k not in live:
                live.append(k)
                live.sort()
        elif r < grow + 0.2:
            k = rng.choice(live) if live and rng.random() < 0.8 else key()
            yield call("delete", k, trie.delete)
            if k in live:
                live.remove(k)
        elif r < grow + 0.3:
            yield call("find", key(), trie.find)
        elif r < grow + 0.32:
            yield call("min", None, lambda a, st: trie.min_entry(st))
        else:
            k = key() if rng.random() < 0.9 else rng.choice([-5, cap, cap + 9])
            yield call("succ_geq", k, trie.succ_geq)
        if step % 100 == 0:
            assert trie.validate() == []
            yield layout(trie)
    rng.shuffle(live)
    for k in live:
        yield call("delete", k, trie.delete)
    assert len(trie) == 0
    yield layout(trie)


def fingerprint() -> str:
    h = hashlib.sha256()
    for radix, width in SHAPES:
        rng = random.Random(f"trie-fingerprint:{radix}:{width}")
        cap = radix ** width
        seed_keys = sorted(rng.sample(range(cap), min(cap // 2, 300)))
        for trie in (ThreadedTrie(radix, width),
                     ThreadedTrie.from_sorted(radix, width,
                                              [(k, -k) for k in seed_keys])):
            h.update(repr(layout(trie)).encode())
            for rec in trace(trie, rng, 1500):
                h.update(repr(rec).encode())
            assert trie.validate() == []
    return h.hexdigest()


def test_trie_fingerprint():
    assert fingerprint() == DIGEST
