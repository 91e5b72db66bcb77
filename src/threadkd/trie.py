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
"""

from __future__ import annotations

import functools
from typing import Any, Iterator, Optional, Sequence

from .stats import VisitStats


class Entry:
    """A stored key with its payload; sits in a bottom-level slot."""

    __slots__ = ("key", "value")

    def __init__(self, key: int, value: Any):
        self.key = key
        self.value = value

    def __repr__(self):
        return f"Entry({self.key}, {self.value!r})"


class TrieNode:
    __slots__ = ("slots", "valid", "up")

    def __init__(self, radix: int, up: Optional[object] = None):
        # an empty node threads every slot to what follows its subtree
        self.slots: list = [up] * radix
        self.valid = bytearray(radix)
        self.up = up


@functools.cache
def _powers(radix: int, width: int) -> tuple[int, ...]:
    """Place values of a key's digits, most significant first; one tuple
    per trie shape, shared by every trie of that shape."""
    return tuple(radix ** (width - 1 - i) for i in range(width))


class ThreadedTrie:
    """Successor-threaded radix trie mapping ints in [0, radix**width) to payloads."""

    __slots__ = ("radix", "width", "capacity", "root", "size", "_pow")

    def __init__(self, radix: int, width: int):
        if radix < 2 or width < 1:
            raise ValueError("radix must be >= 2 and width >= 1")
        self.radix = radix
        self.width = width
        self.capacity = radix ** width
        self.root = TrieNode(radix)
        self.size = 0
        self._pow = _powers(radix, width)

    @classmethod
    def from_sorted(cls, radix: int, width: int,
                    items: Sequence[tuple[int, Any]]) -> "ThreadedTrie":
        """Trie holding ``items``, (key, value) pairs in strictly increasing
        key order; slot for slot what inserting them one by one builds.

        Each node is created once and its slots are filled run by run:
        the items sharing a digit at a node form one run, and runs are
        taken right to left, so every thread and ``up`` target already
        exists when it is written.  Key order is not checked here;
        ``validate()`` reports a violation.
        """
        trie = cls(radix, width)
        if items:
            trie._check_key(items[0][0])
            trie._check_key(items[-1][0])
            trie._fill(trie.root, items, 0, len(items), 0)
            trie.size = len(items)
        return trie

    def _fill(self, node: TrieNode, items: Sequence[tuple[int, Any]],
              lo: int, hi: int, depth: int) -> None:
        # node's subtree holds items[lo:hi] and node.up is set; each run of
        # one digit becomes a valid slot, the empty slots before a run
        # thread to its subtree and those after the last run to node.up
        r = self.radix
        p = self._pow[depth]
        bottom = depth == self.width - 1
        slots, valid = node.slots, node.valid
        nxt, end, b = node.up, r, hi
        while b > lo:
            d = items[b - 1][0] // p % r
            a = b - 1
            while a > lo and items[a - 1][0] // p % r == d:
                a -= 1
            if bottom:
                ref = Entry(*items[a])
            else:
                ref = TrieNode(r, nxt)
                self._fill(ref, items, a, b, depth + 1)
            slots[d + 1:end] = [nxt] * (end - d - 1)
            slots[d] = ref
            valid[d] = 1
            nxt, end, b = ref, d, a
        slots[:end] = [nxt] * end

    def __len__(self) -> int:
        return self.size

    def _digits(self, key: int) -> list[int]:
        r = self.radix
        return [(key // p) % r for p in self._pow]

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.capacity:
            raise ValueError(f"key {key} outside [0, {self.capacity})")

    # -- lookups ---------------------------------------------------------

    def find(self, key: int,
             stats: Optional[VisitStats] = None) -> Optional[Entry]:
        self._check_key(key)
        node = self.root
        for d in self._digits(key):
            if stats is not None:
                stats.trie_nodes_visited += 1
            if not node.valid[d]:
                return None
            node = node.slots[d]
        return node

    def succ_geq(self, key: int,
                 stats: Optional[VisitStats] = None) -> Optional[Entry]:
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
        node = self.root
        for d in self._digits(max(key, 0)):
            if stats is not None:
                stats.trie_nodes_visited += 1
            if not node.valid[d]:
                return self._resolve(node.slots[d], stats)
            node = node.slots[d]
        return node

    def _resolve(self, ref, stats: Optional[VisitStats]) -> Optional[Entry]:
        # follow smallest valid slots down to the entry the thread promises
        while isinstance(ref, TrieNode):
            if stats is not None:
                stats.trie_nodes_visited += 1
            ref = ref.slots[ref.valid.index(1)]
        return ref

    def min_entry(self, stats: Optional[VisitStats] = None) -> Optional[Entry]:
        if self.size == 0:
            return None
        return self._resolve(self.root, stats)

    def items(self) -> Iterator[tuple[int, Any]]:
        """All (key, value) pairs in increasing key order."""

        def walk(node, depth):
            for d in range(self.radix):
                if node.valid[d]:
                    if depth == self.width - 1:
                        e = node.slots[d]
                        yield (e.key, e.value)
                    else:
                        yield from walk(node.slots[d], depth + 1)

        yield from walk(self.root, 0)

    def keys(self) -> Iterator[int]:
        for k, _ in self.items():
            yield k

    # -- updates ---------------------------------------------------------

    def insert(self, key: int, value: Any,
               stats: Optional[VisitStats] = None) -> Entry:
        """Store ``key`` -> ``value``; raises on duplicates."""
        self._check_key(key)
        digits = self._digits(key)
        node = self.root
        for depth, d in enumerate(digits):
            if not node.valid[d]:
                break
            if stats is not None:
                stats.trie_nodes_visited += 1
            node = node.slots[d]
        else:
            raise ValueError(f"duplicate key {key}")
        nxt = node.slots[d]          # old thread target, may be None

        entry = Entry(key, value)
        ref: object = entry
        for i in range(self.width - 1, depth, -1):
            m = TrieNode(self.radix, nxt)
            if stats is not None:
                stats.trie_nodes_visited += 1
            b = digits[i]
            m.valid[b] = 1
            m.slots[:b + 1] = [ref] * (b + 1)
            ref = m

        if stats is not None:
            stats.trie_nodes_visited += 1
        # slot d is still empty, so the repair writes the new branch into it
        self._rethread(node, d, ref, stats)
        node.valid[d] = 1
        self.size += 1
        return entry

    def delete(self, key: int, stats: Optional[VisitStats] = None) -> Entry:
        """Remove ``key``; returns its entry.  Raises KeyError if absent."""
        self._check_key(key)
        last = self.radix - 1
        node = cut = self.root
        for d in self._digits(key):
            if stats is not None:
                stats.trie_nodes_visited += 1
            if not node.valid[d]:
                raise KeyError(key)
            ref = node.slots[d]
            # the cut is the deepest node that keeps another key, or the
            # root; d's branch is alone in its node only if the threads on
            # both sides reach past it: slot 0 to the branch, slot d + 1 to up
            if (node is self.root or node.slots[0] is not ref
                    or (d < last and node.slots[d + 1] is not node.up)):
                cut, cut_d = node, d
            node = ref
        nxt = cut.slots[cut_d + 1] if cut_d < last else cut.up
        cut.valid[cut_d] = 0
        self._rethread(cut, cut_d, nxt, stats)
        self.size -= 1
        return node

    def _rethread(self, node: TrieNode, j: int, target,
                  stats: Optional[VisitStats]) -> None:
        """Thread ``node``'s empty slots from ``j`` leftward to ``target``.

        The first valid slot left of them holds the subtree that now ends
        right before ``target``, and so does its largest-valid chain:
        each node on it gets ``target`` as its ``up`` and trailing threads.
        """
        while True:
            i = node.valid.rfind(1, 0, j + 1)
            node.slots[i + 1:j + 1] = [target] * (j - i)
            if i < 0:
                return
            node = node.slots[i]
            if not isinstance(node, TrieNode):
                return
            if stats is not None:
                stats.trie_nodes_visited += 1
            node.up = target
            j = self.radix - 1

    # -- verification ----------------------------------------------------

    def validate(self) -> list[str]:
        """Check structure, key placement, and every thread; list violations."""
        out: list[str] = []
        R, W = self.radix, self.width
        entries: list[Entry] = []

        def walk(node: TrieNode, depth: int, prefix: int) -> None:
            nvalid = 0
            for d in range(R):
                if node.valid[d]:
                    nvalid += 1
                    ref = node.slots[d]
                    if depth == W - 1:
                        if not isinstance(ref, Entry):
                            out.append(f"bottom slot {prefix * R + d}: not an entry")
                        else:
                            if ref.key != prefix * R + d:
                                out.append(f"entry key {ref.key} in slot for "
                                           f"{prefix * R + d}")
                            entries.append(ref)
                    else:
                        if not isinstance(ref, TrieNode):
                            out.append(f"interior slot at depth {depth}: not a node")
                        else:
                            walk(ref, depth + 1, prefix * R + d)
            if nvalid == 0 and node is not self.root:
                out.append(f"empty interior node at depth {depth}")

        walk(self.root, 0, 0)
        if len(entries) != self.size:
            out.append(f"size {self.size} but {len(entries)} entries reachable")

        def check_threads(node: TrieNode, up_expect) -> None:
            if node.up is not up_expect:
                out.append(f"up points at {node.up!r}, expected {up_expect!r}")
            nxt = up_expect
            for d in range(R - 1, -1, -1):
                if node.valid[d]:
                    ref = node.slots[d]
                    if isinstance(ref, TrieNode):
                        check_threads(ref, nxt)
                    nxt = ref
                else:
                    if node.slots[d] is not nxt:
                        out.append(f"slot {d} threads to {node.slots[d]!r}, "
                                   f"expected {nxt!r}")
        check_threads(self.root, None)
        return out
