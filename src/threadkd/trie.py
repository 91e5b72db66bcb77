"""Fixed-depth radix trie with successor threads in every empty slot.

Keys are integers written as ``width`` digits in base ``radix``, most
significant first, short keys zero-padded.  Each node owns ``radix``
slots; a slot on the path to some stored key is valid and holds either
the next trie node or, at the bottom level, the entry itself.  Every
other slot holds a thread: a direct reference to the next valid node in
key order (the next valid ref inside the same node, or the node's ``up``
target when nothing follows locally).  ``up`` is the next valid node
after the node's whole subtree.

Threads make ``succ_geq`` a single root-to-bottom descent: the first
invalid slot on the search path jumps straight to the subtree holding
the answer, which is then resolved by following smallest valid slots
down to an entry.  No walk ever backs up, so a lookup touches at most
two root-to-bottom paths of nodes.

Inserts and deletes repair the threads with one routine, ``_rethread``:
the empty slots left of the changed slot, and the chain of largest-valid
slots under the first valid one, all end right before the change, so
each gets the new next reference.  A delete finds its *cut* in the same
descent: the deepest node on the path that keeps another key, or the
root.  Clearing the cut's slot drops the branch below it whole, and the
reference that now follows is already in the cut's next slot (or its
``up``), so nothing searches for it.  Cost is bounded by radix * width
slot writes.  ``from_sorted`` builds the same trie from sorted items,
each node once.

Storage is flat: each trie owns one column per field and there is no
object per node or entry.  Node ``n`` has the slots
``slots[n * radix:(n + 1) * radix]``, their valid flags at the same
positions of the bytearray ``valid``, and ``up[n]``; the root is node 0.
Entry ``e`` maps ``key[e]`` to ``value[e]``.  A slot or ``up`` holds a
node id (>= 0), entry ``e`` encoded as ``~e`` (-e - 1, so always < 0),
or None where nothing follows.  A delete puts the dropped branch's
nodes and entry on free lists, reused before a column grows: freed
nodes chain through ``up`` from ``free_node``, freed entries through
``key`` from ``free_entry``, each chain ending in None.

``TrieNode`` and ``Entry`` are read-only views for callers that look at
the structure: ``root``, a node view's ``slots`` and ``up``, and what
``ThreadedTrie``'s lookups and updates return.  Views are cached per id
while the cell is live, so a node or entry reached twice is the same
object.  ``ValueTrie``, the index's group trie, answers with the stored
value instead and makes no view at all.
"""

from __future__ import annotations

import functools
from typing import Any, Iterator, Optional, Sequence

from .stats import VisitStats


class Entry:
    """A stored key with its payload, as a bottom-level slot refers to it.

    A snapshot: it keeps both after the entry is deleted."""

    __slots__ = ("key", "value")

    def __init__(self, key: int, value: Any):
        self.key = key
        self.value = value

    def __repr__(self):
        return f"Entry({self.key}, {self.value!r})"


class TrieNode:
    """Read-only view of node ``n`` of ``trie``: ``slots`` and ``up`` as
    views (None where nothing follows), ``valid`` as a copy of the flags.
    It reads the columns on every access, so it describes the node only
    while the node is in the trie."""

    __slots__ = ("trie", "n")

    def __init__(self, trie: "ThreadedTrie", n: int):
        self.trie = trie
        self.n = n

    @property
    def slots(self) -> list:
        t, b = self.trie, self.n * self.trie.radix
        return [t._view(ref) for ref in t.slots[b:b + t.radix]]

    @property
    def valid(self) -> bytearray:
        b = self.n * self.trie.radix
        return self.trie.valid[b:b + self.trie.radix]

    @property
    def up(self):
        return self.trie._view(self.trie.up[self.n])

    def __repr__(self):
        return f"TrieNode({self.n})"


@functools.cache
def _powers(radix: int, width: int) -> tuple[int, ...]:
    """Place values of a key's digits, most significant first; one tuple
    per trie shape, shared by every trie of that shape."""
    return tuple(radix ** (width - 1 - i) for i in range(width))


class ThreadedTrie:
    """Successor-threaded radix trie mapping ints in [0, radix**width) to
    payloads.  Lookups and updates answer with an ``Entry``, or None."""

    __slots__ = ("radix", "width", "capacity", "size", "_pow", "slots",
                 "valid", "up", "key", "value", "free_node", "free_entry",
                 "_views")

    def __init__(self, radix: int, width: int):
        if radix < 2 or width < 1:
            raise ValueError("radix must be >= 2 and width >= 1")
        self.radix = radix
        self.width = width
        self.capacity = radix ** width
        self.size = 0
        self._pow = _powers(radix, width)
        # the root, empty: every slot threads to what follows, nothing
        self.slots: list = [None] * radix
        self.valid = bytearray(radix)
        self.up: list = [None]
        self.key: list = []
        self.value: list = []
        self.free_node: Optional[int] = None
        self.free_entry: Optional[int] = None
        self._views: Optional[dict] = None

    @classmethod
    def from_sorted(cls, radix: int, width: int,
                    items: Sequence[tuple[int, Any]]) -> "ThreadedTrie":
        """Trie holding ``items``, (key, value) pairs in strictly increasing
        key order; slot for slot what inserting them one by one builds.

        Each node is created once and its slots are filled run by run:
        the items sharing a digit at a node form one run, and runs are
        taken right to left, so every thread and ``up`` target already
        exists when it is written.  A run of one item gets its path of
        one-slot nodes from ``_branch``, as an insert does.  Item ``a``
        becomes entry ``a``.  Key order is not checked here;
        ``validate()`` reports a violation.
        """
        trie = cls(radix, width)
        if items:
            trie._check_key(items[0][0])
            trie._check_key(items[-1][0])
            trie.key, trie.value = map(list, zip(*items))
            trie._fill(0, items, 0, len(items), 0)
            trie.size = len(items)
        return trie

    def _fill(self, n: int, items: Sequence[tuple[int, Any]],
              lo: int, hi: int, depth: int) -> None:
        # node n's subtree holds items[lo:hi] and its up is set; each run of
        # one digit becomes a valid slot, the empty slots before a run
        # thread to its subtree and those after the last run to the up
        r = self.radix
        p = self._pow[depth]
        bottom = depth == self.width - 1
        slots, valid = self.slots, self.valid
        base = n * r
        nxt, end, b = self.up[n], r, hi
        while b > lo:
            d = items[b - 1][0] // p % r
            a = b - 1
            while a > lo and items[a - 1][0] // p % r == d:
                a -= 1
            if bottom or a == b - 1:
                # one item: the entry, or the single path of nodes down to it
                ref = self._branch(items[a][0], ~a, depth + 1, nxt, None)
            else:
                ref = self._new_node(nxt)
                self._fill(ref, items, a, b, depth + 1)
            slots[base + d + 1:base + end] = [nxt] * (end - d - 1)
            slots[base + d] = ref
            valid[base + d] = 1
            nxt, end, b = ref, d, a
        slots[base:base + end] = [nxt] * end

    def __len__(self) -> int:
        return self.size

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.capacity:
            raise ValueError(f"key {key} outside [0, {self.capacity})")

    # -- cells -----------------------------------------------------------

    def _new_node(self, up) -> int:
        """A node with no valid slot, every slot threaded to ``up``."""
        r = self.radix
        n = self.free_node
        if n is None:
            n = len(self.up)
            self.up.append(up)
            self.slots += [up] * r
            self.valid += bytes(r)
        else:
            self.free_node = self.up[n]
            self.up[n] = up
            b = n * r
            self.slots[b:b + r] = [up] * r
            self.valid[b:b + r] = bytes(r)
        return n

    def _new_entry(self, key: int, value: Any) -> int:
        """The slot reference, ~e, of a new entry e."""
        e = self.free_entry
        if e is None:
            e = len(self.key)
            self.key.append(key)
            self.value.append(value)
        else:
            self.free_entry = self.key[e]
            self.key[e] = key
            self.value[e] = value
        return ~e

    def _free_branch(self, ref: int) -> None:
        """Put a branch cut off by a delete, nodes of one valid slot each
        down to an entry, on the free lists."""
        r, slots, valid, up = self.radix, self.slots, self.valid, self.up
        views = self._views
        while True:
            if views:
                views.pop(ref, None)
            if ref < 0:
                break
            below = slots[valid.index(1, ref * r)]
            up[ref] = self.free_node
            self.free_node = ref
            ref = below
        e = ~ref
        self.key[e] = self.free_entry
        self.value[e] = None
        self.free_entry = e

    # -- views -----------------------------------------------------------

    def _view(self, ref):
        """The cached view of a slot reference; None for None."""
        if ref is None:
            return None
        views = self._views
        if views is None:
            views = self._views = {}
        v = views.get(ref)
        if v is None:
            if ref >= 0:
                v = TrieNode(self, ref)
            else:
                v = Entry(self.key[~ref], self.value[~ref])
            views[ref] = v
        return v

    def _result(self, ref):
        """What a lookup or update answers for the entry reference
        ``ref`` (or None): its view."""
        return self._view(ref)

    @property
    def root(self) -> TrieNode:
        return self._view(0)

    # -- lookups ---------------------------------------------------------

    def find(self, key: int, stats: Optional[VisitStats] = None):
        self._check_key(key)
        r, slots, valid = self.radix, self.slots, self.valid
        node = 0
        for p in self._pow:
            if stats is not None:
                stats.trie_nodes_visited += 1
            i = node * r + key // p % r
            if not valid[i]:
                return None
            node = slots[i]
        return self._result(node)

    def succ_geq(self, key: int, stats: Optional[VisitStats] = None):
        """Entry with the smallest stored key >= ``key``, or None.

        Descends the search path until the first invalid slot, whose
        thread lands on the subtree holding the answer; that subtree is
        resolved by smallest valid slots.  Keys past the capacity have
        no successor; negative keys clamp to zero.
        """
        if stats is not None:
            stats.trie_lookups += 1
        if self.size == 0 or key >= self.capacity:
            return None
        key = max(key, 0)
        r, slots, valid = self.radix, self.slots, self.valid
        node = 0
        for p in self._pow:
            if stats is not None:
                stats.trie_nodes_visited += 1
            i = node * r + key // p % r
            if not valid[i]:
                return self._result(self._resolve(slots[i], stats))
            node = slots[i]
        return self._result(node)

    def _resolve(self, ref, stats: Optional[VisitStats]):
        # follow smallest valid slots down to the entry the thread promises
        if ref is None:
            return None
        r, slots, valid = self.radix, self.slots, self.valid
        while ref >= 0:
            if stats is not None:
                stats.trie_nodes_visited += 1
            ref = slots[valid.index(1, ref * r)]
        return ref

    def min_entry(self, stats: Optional[VisitStats] = None):
        if self.size == 0:
            return None
        return self._result(self._resolve(0, stats))

    def items(self) -> Iterator[tuple[int, Any]]:
        """All (key, value) pairs in increasing key order."""
        r, last = self.radix, self.width - 1
        slots, valid, key, value = self.slots, self.valid, self.key, self.value

        def walk(n, depth):
            for i in range(n * r, n * r + r):
                if valid[i]:
                    ref = slots[i]
                    if depth == last:
                        yield key[~ref], value[~ref]
                    else:
                        yield from walk(ref, depth + 1)

        yield from walk(0, 0)

    def keys(self) -> Iterator[int]:
        for k, _ in self.items():
            yield k

    # -- updates ---------------------------------------------------------

    def insert(self, key: int, value: Any,
               stats: Optional[VisitStats] = None):
        """Store ``key`` -> ``value``; raises on duplicates."""
        self._check_key(key)
        r, slots, valid, pw = self.radix, self.slots, self.valid, self._pow
        node = 0
        for depth, p in enumerate(pw):
            d = key // p % r
            i = node * r + d
            if not valid[i]:
                break
            if stats is not None:
                stats.trie_nodes_visited += 1
            node = slots[i]
        else:
            raise ValueError(f"duplicate key {key}")
        nxt = slots[i]          # old thread target, may be None

        entry = self._new_entry(key, value)
        ref = self._branch(key, entry, depth + 1, nxt, stats)
        if stats is not None:
            stats.trie_nodes_visited += 1
        # slot d is still empty, so the repair writes the new branch into it
        self._rethread(node, d, ref, stats)
        valid[i] = 1
        self.size += 1
        return self._result(entry)

    def delete(self, key: int, stats: Optional[VisitStats] = None):
        """Remove ``key``; returns its entry.  Raises KeyError if absent."""
        self._check_key(key)
        r, slots, valid, up = self.radix, self.slots, self.valid, self.up
        last = r - 1
        node = 0
        for p in self._pow:
            d = key // p % r
            if stats is not None:
                stats.trie_nodes_visited += 1
            i = node * r + d
            if not valid[i]:
                raise KeyError(key)
            ref = slots[i]
            # the cut is the deepest node that keeps another key, or the
            # root; d's branch is alone in its node only if the threads on
            # both sides reach past it: slot 0 to the branch, slot d + 1 to up
            if (node == 0 or slots[i - d] != ref
                    or (d < last and slots[i + 1] != up[node])):
                cut, cut_d, cut_i = node, d, i
            node = ref
        nxt = slots[cut_i + 1] if cut_d < last else up[cut]
        dropped = slots[cut_i]
        valid[cut_i] = 0
        self._rethread(cut, cut_d, nxt, stats)
        self.size -= 1
        result = self._result(node)
        self._free_branch(dropped)
        return result

    def _branch(self, key: int, ref: int, top: int, nxt,
                stats: Optional[VisitStats]) -> int:
        """The nodes of one key from depth ``top`` down, built bottom up:
        each has one valid slot, on ``key``'s path, that holds the node
        below or, at the bottom, the entry ``ref``; the slots before it
        thread there too and the rest, like ``up``, to ``nxt``.  Returns
        the top node, or ``ref`` when ``top`` is past the bottom."""
        r, slots, valid, pw = self.radix, self.slots, self.valid, self._pow
        for j in range(self.width - 1, top - 1, -1):
            m = self._new_node(nxt)
            if stats is not None:
                stats.trie_nodes_visited += 1
            b, base = key // pw[j] % r, m * r
            valid[base + b] = 1
            slots[base:base + b + 1] = [ref] * (b + 1)
            ref = m
        return ref

    def _rethread(self, node: int, j: int, target,
                  stats: Optional[VisitStats]) -> None:
        """Thread ``node``'s empty slots from ``j`` leftward to ``target``.

        The first valid slot left of them holds the subtree that now ends
        right before ``target``, and so does its largest-valid chain:
        each node on it gets ``target`` as its ``up`` and trailing threads.
        """
        r, slots, valid, up = self.radix, self.slots, self.valid, self.up
        while True:
            b = node * r
            i = valid.rfind(1, b, b + j + 1)
            if i < 0:
                slots[b:b + j + 1] = [target] * (j + 1)
                return
            slots[i + 1:b + j + 1] = [target] * (b + j - i)
            node = slots[i]
            if node < 0:
                return
            if stats is not None:
                stats.trie_nodes_visited += 1
            up[node] = target
            j = r - 1

    # -- verification ----------------------------------------------------

    def validate(self) -> list[str]:
        """Check structure, key placement, every thread and the free
        lists; list violations."""
        out: list[str] = []
        R, W = self.radix, self.width
        slots, valid, up, key = self.slots, self.valid, self.up, self.key
        nodes, entries = len(up), len(key)
        if not len(slots) == len(valid) == nodes * R or len(self.value) != entries:
            return [f"columns disagree: {len(slots)} slots and {len(valid)} "
                    f"flags for {nodes} nodes, {entries} keys and "
                    f"{len(self.value)} values"]
        live_nodes, live_entries = {0}, set()

        def walk(n: int, depth: int, prefix: int) -> None:
            nvalid = 0
            for d in range(R):
                if not valid[n * R + d]:
                    continue
                nvalid += 1
                ref = slots[n * R + d]
                at = prefix * R + d
                if depth == W - 1:
                    if not (type(ref) is int and -entries <= ref < 0):
                        out.append(f"bottom slot {at}: not an entry")
                    elif ~ref in live_entries:
                        out.append(f"entry {~ref} reached twice")
                    else:
                        live_entries.add(~ref)
                        if key[~ref] != at:
                            out.append(f"entry key {key[~ref]} in slot for {at}")
                elif not (type(ref) is int and 0 < ref < nodes):
                    out.append(f"interior slot at depth {depth}: not a node")
                elif ref in live_nodes:
                    out.append(f"node {ref} reached twice")
                else:
                    live_nodes.add(ref)
                    walk(ref, depth + 1, at)
            if nvalid == 0 and n != 0:
                out.append(f"empty interior node at depth {depth}")

        walk(0, 0, 0)
        if len(live_entries) != self.size:
            out.append(f"size {self.size} but {len(live_entries)} entries reachable")

        # every cell is either reachable from the root or on its free list
        for what, head, link, live, total in (
                ("node", self.free_node, up, live_nodes, nodes),
                ("entry", self.free_entry, key, live_entries, entries)):
            free: set[int] = set()
            while head is not None:
                if not (type(head) is int and 0 <= head < total) or head in free:
                    out.append(f"free {what} list broken at {head!r}")
                    break
                if head in live:
                    out.append(f"{what} {head} is on the free list but "
                               f"reachable from the root")
                free.add(head)
                head = link[head]
            lost = total - len(live | free)
            if lost:
                out.append(f"{lost} {what} cells neither reachable nor on "
                           f"the free list")
        if out:
            return out

        def check_threads(n: int, up_expect) -> None:
            if up[n] != up_expect:
                out.append(f"node {n}: up is {up[n]!r}, expected {up_expect!r}")
            nxt = up_expect
            for d in range(R - 1, -1, -1):
                ref = slots[n * R + d]
                if valid[n * R + d]:
                    if ref >= 0:
                        check_threads(ref, nxt)
                    nxt = ref
                elif ref != nxt:
                    out.append(f"node {n}: slot {d} threads to {ref!r}, "
                               f"expected {nxt!r}")

        check_threads(0, None)
        return out


class ValueTrie(ThreadedTrie):
    """A ``ThreadedTrie`` whose lookups and updates answer with the stored
    value, or None, instead of an ``Entry``, so no call makes an object.
    The index's group tries, which map coordinates to tree handles (never
    None), are of this kind."""

    __slots__ = ()

    def _result(self, ref):
        return None if ref is None else self.value[~ref]
