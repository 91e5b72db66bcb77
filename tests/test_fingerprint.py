"""Behavioural fingerprint of the index: one SHA-256 over a seeded trace.

A fixed, seeded trace of inserts, deletes (down to empty), membership
tests and window queries runs for k = 1, 2, 3 on an index built by
``insert`` and on one built by ``from_points``.  The digest covers every
result, every ``VisitStats`` field, each level's rotation count and, at
checkpoints, the full per-handle layout of every level: links, thread
flags, parent, balance and cross link.  A refactor that keeps the
algorithm keeps the digest; any change to handle numbering, tree shape
or a counter changes it.  When a change alters behaviour on purpose,
record the new digest together with the reason.
"""

import dataclasses
import hashlib
import random

from threadkd.index import KdPointIndex
from threadkd.query import window_query
from threadkd.stats import VisitStats
from threadkd.tree import DUMMY

# Re-recorded when groups of at most T = 8 members gave up their tries:
# such a group's lookups walk its members by inorder threads, counted as
# one trie node per member read (plus one trie lookup where the walk
# stands in for a successor lookup), and a group keeps a trie exactly
# while it has more than T members.  Only trie_nodes_visited and
# threads_followed changed; the trace with those two fields masked
# hashes the same before and after.  Over the whole trace, window records'
# trie_nodes_visited rose 2% (181,705 -> 184,692) and threads_followed
# 20% (460,652 -> 552,575).
#
# Re-recorded when group tries took lazy expansion: a member alone under
# a digit prefix sits in its parent's slot as an entry, so lookups and
# updates enter fewer trie nodes.  Only trie_nodes_visited changed; the
# trace with that field masked hashes 85ddd603... before and after.  Over
# the whole trace it fell on windows 184,692 -> 175,274, on inserts
# 57,578 -> 54,640 and on deletes 41,641 -> 40,124.
#
# Re-recorded when every tree node kept its inorder successor in a
# ``succ`` column: a successor step is one read, counted as one thread
# followed, in place of the slots a thread walk reads, and a delete now
# counts the slots of the two walks its relocation takes to the
# neighbours that threaded to the removed node.  Only threads_followed
# changed; the trace with that field masked hashes 40966a99... before and
# after.  Over the whole trace it fell on windows 552,575 -> 371,499 and
# on inserts 26,721 -> 19,436, and rose on deletes 14,492 -> 16,158.
#
# Re-recorded when T rose from 8 to 16 and every update took one
# successor lookup per level it reads: groups of 9 to 16 members keep a
# count, whose lookups walk their members, and an insert takes the
# missing level's position from the prefix path's lookup instead of
# repeating it, while every level the prefix path reads counts one trie
# lookup (succ_geq in place of find on a trie group).  Only
# trie_nodes_visited, trie_lookups and threads_followed changed; the
# trace with those three fields masked hashes ebbb832a... before and
# after.  Over the whole trace, trie_lookups rose on inserts 3,842 ->
# 11,033 and on deletes 0 -> 10,789 and is unchanged on windows (55,757);
# trie_nodes_visited fell on inserts 54,640 -> 50,553 and rose on
# deletes 40,124 -> 46,235 and on windows 175,274 -> 218,983;
# threads_followed rose on inserts 19,436 -> 31,008, on deletes
# 16,158 -> 31,940 and on windows 371,499 -> 459,904.
DIGEST = "2263e5844bfbfc7bb68731f893000d3b838ce7aba15e24efecc3d2b1646e81aa"

# (k, bound, radix): small universes, so groups open, shrink and vanish
CONFIGS = [(1, 300, 4), (2, 24, 2), (2, 64, 16), (3, 10, 3)]


def layout(idx):
    """Per-level arena dump: every live cell's key, links, thread flags,
    parent, balance and cross link; dead cells show only as dead."""
    out = []
    for tree in idx.trees:
        cells = []
        for h in range(len(tree.nodes)):
            n = tree.node(h)
            if h != DUMMY and n.key is None:
                cells.append(None)
                continue
            cells.append((n.key, n.left, n.right, n.lthread, n.rthread,
                          n.parent, n.balance, n.cross_link))
        out.append((tree.size, tree.rotations, cells))
    return out


def trace(idx, rng, bound, steps):
    """Yield one record per operation of a seeded mixed trace that grows
    the index, churns it and then deletes every point."""
    k = idx.k
    live = set(idx.points())

    def point():
        return tuple(rng.randrange(bound) for _ in range(k))

    def record(op, arg, result, st):
        return (op, arg, result, dataclasses.astuple(st),
                tuple(t.rotations for t in idx.trees))

    for step in range(steps):
        grow = 0.45 if step < steps // 2 else 0.25
        r = rng.random()
        st = VisitStats()
        if r < grow:
            p = point()
            yield record("insert", p, idx.insert(p, st), st)
            live.add(p)
        elif r < grow + 0.15:
            p = rng.choice(sorted(live)) if live and rng.random() < 0.8 else point()
            yield record("delete", p, idx.delete(p, st), st)
            live.discard(p)
        elif r < grow + 0.3:
            p = point()
            yield record("contains", p, idx.contains(p), st)
        else:
            w = [tuple(sorted((rng.randrange(bound), rng.randrange(bound))))
                 for _ in range(k)]
            yield record("window", w, window_query(idx, w, st)[0], st)
        if step % 50 == 0:
            assert idx.validate() == []
            yield layout(idx)
    rest = sorted(live)
    rng.shuffle(rest)
    for p in rest:
        st = VisitStats()
        yield record("delete", p, idx.delete(p, st), st)
    yield layout(idx)


def fingerprint() -> str:
    h = hashlib.sha256()
    for k, bound, radix in CONFIGS:
        rng = random.Random(f"fingerprint:{k}:{bound}:{radix}")
        seed_pts = [tuple(rng.randrange(bound) for _ in range(k))
                    for _ in range(300)]
        built = KdPointIndex(k, bound, radix=radix)
        bulk = KdPointIndex.from_points(k, bound, seed_pts, radix=radix)
        for idx in (built, bulk):
            h.update(repr(layout(idx)).encode())
            for rec in trace(idx, rng, bound, 2000):
                h.update(repr(rec).encode())
            assert len(idx) == 0
            assert idx.validate() == []
    return h.hexdigest()


def test_fingerprint():
    assert fingerprint() == DIGEST
