"""Radix trie with successor threads in every empty slot, expanded lazily.

Keys are integers written as ``width`` digits in base ``radix``, most
significant first, short keys zero-padded.  Each node owns ``radix``
slots and stands for one digit prefix; the root stands for the empty
one.  A non-root node exists only for a prefix that at least two stored
keys share.  A slot whose subtree holds one key holds that key's entry
directly, at any depth (lazy expansion, as in Leis, Kemper and Neumann,
"The Adaptive Radix Tree", ICDE 2013); a slot whose subtree holds more
holds the next node.  Either way the slot is valid.  Every other slot
holds a thread: a direct reference to the next valid node or entry in
key order (the next valid ref inside the same node, or the node's
``up`` target when nothing follows locally).  ``up`` is the next valid
ref after the node's whole subtree, so it is the thread one slot past
the last.  The shape depends only on the stored keys, never on the
order they came in.

Threads make ``succ_geq`` a single root-to-entry descent: the first
invalid slot on the search path jumps straight to the subtree holding
the answer, which is then resolved by following smallest valid slots
down to an entry.  An entry met on the way is the only key under its
prefix, so one compare settles it: the entry is the answer if its key
is at least the probe, and otherwise the ref after its slot is.  No
walk ever backs up, so a lookup touches at most two root-to-bottom
paths of nodes.  ``find`` stops at the first entry with the same
compare.

Inserts and deletes repair the threads with one routine, ``_rethread``:
the empty slots left of the changed slot, and the chain of largest-valid
slots under the first valid one, all end right before the change, so
each gets the new next reference.  An insert into an empty slot writes
its entry there.  One that meets another key's entry *splits* it: the
nodes for the digits the two keys still share, and one node holding
both, replace the entry in its slot.  A delete clears the entry's slot,
unless that leaves a non-root node with one key: then the node *folds*,
together with each one-slot node above it, and the highest slot that
survives takes the remaining entry.  Cost is bounded by radix * width
slot writes.  ``from_columns`` builds the same trie from sorted key and
value columns, each node once, ``from_sorted`` from sorted pairs, and
``level_tries`` many tries at once, a depth at a time on numpy arrays.

Storage is flat: each trie owns one column per field and there is no
object per node or entry.  Node ``n`` is the row of ``radix + 1`` cells
from ``n * (radix + 1)`` in ``slots``: its slots, then its ``up`` in
cell ``radix``, so the ref after any slot is the next cell.  No flag
is stored: a slot is valid exactly when its ref differs from the next
cell's, as a thread repeats the ref after it and no ref is in two
slots.  The root is node 0, and entry ``e`` maps
``key[e]`` to ``value[e]``.  A cell holds a node id (>= 0), entry ``e``
encoded as ``~e`` (-e - 1, so always < 0), or None where nothing
follows.  Every trie takes its ``~e`` from one shared list, so an entry
reference is not an int object of its own.  A delete puts the cells it
drops on free lists, reused before a column grows: freed nodes chain
through their up cell from ``free_node``, freed entries through ``key``
from ``free_entry``, each chain ending in None.

Lookups and updates answer with the stored value, or None for no
answer, so no call makes an object and None is never a stored value.
Callers that look at the structure read the columns.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from .stats import VisitStats


def as_coordinate(c, what: str = "coordinate",
                  bound: Optional[int] = None) -> int:
    """``c`` as a plain int; ValueError for bools and non-integers and,
    when ``bound`` is given, for a value outside [0, bound).

    Int-like values such as ``numpy.int64`` pass through ``__index__``.
    """
    if type(c) is not int:
        if isinstance(c, bool):
            raise ValueError(f"{what} {c!r} is a bool, not an integer")
        try:
            c = operator.index(c)
        except TypeError:
            raise ValueError(f"{what} {c!r} is not an integer") from None
    if bound is not None and not 0 <= c < bound:
        raise ValueError(f"{what} {c} outside [0, {bound})")
    return c


def _trie_shape(radix, width) -> tuple[int, int]:
    """``radix`` and ``width`` as plain ints under ``as_coordinate``;
    ValueError unless radix >= 2 and width >= 1."""
    radix = as_coordinate(radix, "radix")
    width = as_coordinate(width, "width")
    if radix < 2 or width < 1:
        raise ValueError("radix must be >= 2 and width >= 1")
    return radix, width


@functools.cache
def _shape(radix: int, width: int) -> tuple[int, tuple[int, ...]]:
    """The capacity, radix**width, and the place values of a key's digits,
    most significant first; one pair per trie shape, shared by every trie
    of that shape, so no trie holds an int of its own for them."""
    return radix ** width, tuple(radix ** (width - 1 - i) for i in range(width))


# _REFS[e] == ~e, the slot reference of entry e.  Every trie takes its
# references from here, so each is one int object however many slots and
# tries hold it (the interpreter shares only the ints from -5 to 256).
_REFS: list[int] = []


def _entry_refs(n: int) -> list[int]:
    """``_REFS``, grown to hold the references of entries 0 to n - 1."""
    if len(_REFS) < n:
        _REFS.extend(range(~len(_REFS), ~n, -1))
    return _REFS


# Tries whose slot lists ``level_tries`` makes with one fancy
# index and one ``tolist`` each, before each trie slices its own.  On
# lead-narrow's build (4,097 tries), 16 to 1,024 build alike and 7 to 15%
# faster than one trie at a time; a whole level at once is slower again
# and raises the build's peak by 3.4 MB.
_BATCH = 256


def _level_codes(r: int, powers: tuple, column: np.ndarray,
                 starts: np.ndarray, sizes: np.ndarray) -> tuple:
    """The numpy half of ``ThreadedTrie.level_tries``: for the groups of
    ``sizes[g]`` keys from ``column[starts[g]]``, the object table and,
    trie after trie in node order, every node's row of ``r + 1`` codes,
    ``up`` last, with ``first_node[g]``, the row of group g's root.

    A group's node at depth d >= 1 is a maximal run of neighbour pairs
    that share at least d leading digits, and a key sits alone in a slot
    of the node at depth max(lcp on its left, lcp on its right, 0), as a
    suffix tree is built from a suffix array and its LCP array (Kasai et
    al., CPM 2001).  Nodes are numbered as ``_fill`` numbers them, in
    right-to-left preorder, which is the order (group, -end, depth).  The
    rows are filled a depth at a time: one pass over the columns from the
    right, ``up`` standing as the last column, points every empty slot of
    every node's row at the next valid one, and a child's ``up`` is its
    parent's filled cell at the child's digit + 1.  A code is entry e's
    ``e``, node n's ``m + n`` or None's ``m + most_nodes``, where m is the
    largest group, and the table maps it to ``_REFS``' own int, n or None.
    Its temporaries end with the call, before the lists are made.
    """
    w = len(powers)
    # the groups' keys side by side: group g holds positions
    # first[g]:first[g + 1] of this selection
    total = int(sizes.sum())
    first = np.concatenate(([0], np.cumsum(sizes)))
    pick = np.arange(total) + np.repeat(starts - first[:-1], sizes)
    col = column[pick]
    # digits, lcps, group numbers, codes and column numbers take the
    # smallest dtype that holds them, which keeps the build's peak down
    digits = np.empty((total, w), np.min_scalar_type(r))
    for d, p in enumerate(powers):
        # object ints, past 2**63, are cast once they are digits; an
        # int64 key has digit 0 at a place value past 2**63
        digits[:, d] = (col // p % r if col.dtype == object or p < 2 ** 63
                        else 0)
    del pick, col
    # lcp[a]: the digits key a - 1 and key a share; -1 across a group
    # boundary and at both ends
    lcp = np.full(total + 1, -1, np.min_scalar_type(~w))
    lcp[1:-1] = 0
    same = np.ones(total - 1, bool)
    for d in range(w):
        same &= digits[1:, d] == digits[:-1, d]
        lcp[1:-1] += same
    lcp[first] = -1
    depth_of = np.maximum(np.maximum(lcp[:-1], lcp[1:]), 0)
    group_of = np.repeat(
        np.arange(len(sizes), dtype=np.min_scalar_type(len(sizes))), sizes)

    # the nodes, depth by depth: the roots are the groups, deeper ones
    # the runs of pairs sharing that many digits
    node_lo, node_hi = [first[:-1]], [first[1:]]
    for d in range(1, w):
        edge = np.diff((lcp >= d).view(np.int8))
        node_lo.append(np.flatnonzero(edge == 1))
        node_hi.append(np.flatnonzero(edge == -1) + 1)
    counts = [len(lo) for lo in node_lo]
    lo_all, hi_all = np.concatenate(node_lo), np.concatenate(node_hi)
    depth_all = np.repeat(np.arange(w), counts)
    group_all = group_of[lo_all]
    order = np.lexsort((depth_all, -hi_all, group_all))
    per_group = np.bincount(group_all, minlength=len(sizes))
    first_node = np.concatenate(([0], np.cumsum(per_group)))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    del order
    local = rank - first_node[group_all]

    m, most_nodes = int(sizes.max()), int(per_group.max())
    table = np.empty(m + most_nodes + 1, object)
    table[:m] = _entry_refs(m)[:m]
    table[m:-1] = range(most_nodes)
    table[-1] = None
    none = m + most_nodes
    entry_code = (np.arange(total) - first[group_of]).astype(
        np.min_scalar_type(m))
    code = np.min_scalar_type(none)
    slot_codes = np.empty((len(rank), r + 1), code)
    up = np.full(counts[0], none, code)
    at = 0
    for d, n_d in enumerate(counts):
        lo = node_lo[d]
        # left unset: each empty cell is overwritten below, from the
        # right; column-major, so each column of the fill is contiguous
        row = np.empty((n_d, r + 1), code, order="F")
        valid = np.zeros((n_d, r), bool, order="F")
        row[:, r] = up
        # the entries at this depth, each in its node's row
        keys_here = np.flatnonzero(depth_of == d)
        where = np.searchsorted(lo, keys_here, "right") - 1
        row[where, digits[keys_here, d]] = entry_code[keys_here]
        valid[where, digits[keys_here, d]] = True
        # the nodes one deeper, each in its parent's row
        if d + 1 < w:
            child_lo = node_lo[d + 1]
            parent = np.searchsorted(lo, child_lo, "right") - 1
            child_digit = digits[child_lo, d]
            nxt = at + n_d
            row[parent, child_digit] = m + local[nxt:nxt + len(child_lo)]
            valid[parent, child_digit] = True
        # every slot takes the next valid column's code, up included,
        # a column at a time from the right
        for c in range(r - 1, -1, -1):
            row[:, c] = np.where(valid[:, c], row[:, c], row[:, c + 1])
        slot_codes[rank[at:at + n_d]] = row
        if d + 1 < w:
            up = row[parent, child_digit + 1]
        at += n_d
    return table, slot_codes, first_node


class ThreadedTrie:
    """Successor-threaded radix trie mapping ints in [0, radix**width) to
    payloads other than None.  Lookups and updates answer with the stored
    value, or None.

    ``radix``, ``width`` and the keys follow ``as_coordinate``: int-likes
    are stored as plain ints, bools and non-integers raise ValueError."""

    __slots__ = ("radix", "width", "capacity", "size", "_pow", "slots",
                 "key", "value", "free_node", "free_entry", "mutations")

    def __init__(self, radix: int, width: int):
        radix, width = _trie_shape(radix, width)
        # the root, empty: every slot threads to what follows, nothing
        self._columns(radix, width, [None] * (radix + 1), [], [])

    def _columns(self, radix: int, width: int, slots: list, key: list,
                 value: list) -> None:
        """Set every field: the shape, the given columns, one entry per
        key, no free cell and the counter zeroed."""
        self.radix = radix
        self.width = width
        self.capacity, self._pow = _shape(radix, width)
        self.size = len(key)
        self.slots = slots
        self.key = key
        self.value = value
        self.free_node: Optional[int] = None
        self.free_entry: Optional[int] = None
        # bumped by every insert and delete, so items() can tell that the
        # trie changed under it
        self.mutations = 0

    @classmethod
    def from_sorted(cls, radix: int, width: int,
                    items: Sequence[tuple[int, Any]]) -> "ThreadedTrie":
        """Trie holding ``items``, (key, value) pairs in strictly increasing
        key order; slot for slot what inserting them one by one builds.
        ValueError for a None value.  See ``from_columns``."""
        if not items:
            return cls(radix, width)
        keys, values = map(list, zip(*items))
        keys = [as_coordinate(k, "key") for k in keys]
        if any(v is None for v in values):
            raise ValueError("None is not a storable value")
        return cls.from_columns(radix, width, keys, values)

    @classmethod
    def from_columns(cls, radix: int, width: int, keys: list[int],
                     values: list) -> "ThreadedTrie":
        """Trie mapping ``keys[a]`` to ``values[a]``, keys in strictly
        increasing order; the two lists, of equal length, become its
        ``key`` and ``value`` columns as they are, not copied.

        Each node is created once and its slots are filled run by run:
        the keys sharing a digit at a node form one run, and runs are
        taken right to left, so every thread and ``up`` target already
        exists when it is written.  Key ``a`` becomes entry ``a``, and a
        run of one key puts it in the run's slot.  The first and last
        keys are checked against the capacity; key order and the other
        keys' type are not checked here, ``validate()`` reports a
        violation.  Values are never None, not checked here.
        """
        trie = cls(radix, width)
        if keys:
            as_coordinate(keys[0], "key", trie.capacity)
            as_coordinate(keys[-1], "key", trie.capacity)
            trie._columns(trie.radix, trie.width, trie.slots, keys, values)
            trie._fill(0, keys, _entry_refs(len(keys)), 0, len(keys), 0)
        return trie

    @classmethod
    def level_tries(cls, radix: int, width: int, column: np.ndarray,
                    keys: list, values: list, starts: Sequence[int],
                    ends: Sequence[int]) -> list:
        """One trie per group ``keys[s:e]`` for ``s, e`` in ``starts``,
        ``ends``, column for column the trie ``from_columns(radix, width,
        keys[s:e], values[s:e])`` builds, from ``width`` numpy passes.

        ``column`` is ``keys`` as a numpy array, ``int64`` or ``object``
        (ints past 2**63); each group holds distinct keys in increasing
        order, all in [0, radix**width), and no value is None, which is
        not checked here.
        ``_level_codes`` computes every cell as a code; one object table
        turns its rows, ``up`` cells included, into a slot list, so an
        entry reference is ``_REFS``' own int and no cell makes an object.
        The lists are made for ``_BATCH`` tries at a time, and each trie
        takes exact-size slices of its batch's, so at most one batch's
        lists are held beside the tries' own.
        """
        r, w = _trie_shape(radix, width)
        starts = np.asarray(starts, np.int64)
        sizes = np.asarray(ends, np.int64) - starts
        if not len(sizes):
            return []
        table, slot_codes, first_node = _level_codes(
            r, _shape(r, w)[1], column, starts, sizes)
        ends = (starts + sizes).tolist()
        starts, first_node = starts.tolist(), first_node.tolist()
        out = []
        for g0 in range(0, len(starts), _BATCH):
            g1 = min(g0 + _BATCH, len(starts))
            lo, hi = first_node[g0], first_node[g1]
            slots = table[slot_codes[lo:hi]].ravel().tolist()
            for g in range(g0, g1):
                a = (first_node[g] - lo) * (r + 1)
                b = (first_node[g + 1] - lo) * (r + 1)
                s, e = starts[g], ends[g]
                trie = cls.__new__(cls)
                trie._columns(r, w, slots[a:b], keys[s:e], values[s:e])
                out.append(trie)
        return out

    def _fill(self, n: int, keys: Sequence[int], refs: Sequence[int],
              lo: int, hi: int, depth: int,
              stats: Optional[VisitStats] = None) -> None:
        # node n's subtree holds keys[lo:hi], whose entry references are
        # refs[lo:hi], and its up is set; each run of one digit becomes a
        # valid slot, the empty slots before a run thread to its subtree
        # and those after the last run to the up
        r = self.radix
        p = self._pow[depth]
        slots = self.slots
        base = n * (r + 1)
        nxt, end, b = slots[base + r], r, hi
        while b > lo:
            d = keys[b - 1] // p % r
            a = b - 1
            while a > lo and keys[a - 1] // p % r == d:
                a -= 1
            if a == b - 1:
                ref = refs[a]
            else:
                ref = self._new_node(nxt)
                if stats is not None:
                    stats.trie_nodes_visited += 1
                self._fill(ref, keys, refs, a, b, depth + 1, stats)
            slots[base + d + 1:base + end] = [nxt] * (end - d - 1)
            slots[base + d] = ref
            nxt, end, b = ref, d, a
        slots[base:base + end] = [nxt] * end

    def __len__(self) -> int:
        return self.size

    # -- cells -----------------------------------------------------------

    def _new_node(self, up) -> int:
        """A node with no valid slot, every slot threaded to ``up``."""
        s = self.radix + 1
        n = self.free_node
        if n is None:
            n = len(self.slots) // s
            self.slots += [up] * s
        else:
            b = n * s
            self.free_node = self.slots[b + s - 1]
            self.slots[b:b + s] = [up] * s
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
        return _REFS[e] if e < len(_REFS) else _entry_refs(e + 1)[e]

    def _free(self, ref: int) -> None:
        """Put the node or entry ``ref`` on its free list."""
        if ref >= 0:
            self.slots[ref * (self.radix + 1) + self.radix] = self.free_node
            self.free_node = ref
        else:
            e = ~ref
            self.key[e] = self.free_entry
            self.value[e] = None
            self.free_entry = e

    # -- lookups ---------------------------------------------------------

    def find(self, key: int, stats: Optional[VisitStats] = None):
        if type(key) is not int or not 0 <= key < self.capacity:
            key = as_coordinate(key, "key", self.capacity)
        r, slots = self.radix, self.slots
        node = 0
        for p in self._pow:
            if stats is not None:
                stats.trie_nodes_visited += 1
            i = node * (r + 1) + key // p % r
            node = slots[i]
            if node == slots[i + 1]:
                # a thread: no key has this prefix
                return None
            if node < 0:
                # the only key under this prefix
                return self.value[~node] if self.key[~node] == key else None

    def succ_geq(self, key: int, stats: Optional[VisitStats] = None):
        """Value of the smallest stored key >= ``key``, or None.

        Descends the search path until the first invalid slot, whose
        thread lands on the subtree holding the answer, or the first
        entry, which answers itself if its key is large enough and
        otherwise leaves the answer to the ref after its slot.  What
        the descent lands on is resolved by smallest valid slots, in the
        same frame.  Keys past the capacity have no successor; negative
        keys clamp to zero.  A probe that ``as_coordinate`` rejects raises
        ValueError before it is answered, and writes no counter.
        """
        if type(key) is not int:
            key = as_coordinate(key, "key")
        visited = 0
        if self.size == 0 or key >= self.capacity:
            ref = None
        else:
            if key < 0:
                key = 0
            r, slots = self.radix, self.slots
            s = r + 1
            ref = 0
            for p in self._pow:
                visited += 1
                i = ref * s + key // p % r
                ref = slots[i]
                if ref == slots[i + 1]:
                    # a thread, to the subtree holding the answer
                    break
                if ref < 0:
                    # the only key under this prefix
                    if self.key[~ref] < key:
                        ref = slots[i + 1]
                    break
            # the bottom level holds only entries, so the loop broke;
            # a node's slot 0 holds its smallest valid ref or threads to it
            if ref is not None:
                while ref >= 0:
                    visited += 1
                    ref = slots[ref * s]
        if stats is not None:
            stats.trie_lookups += 1
            stats.trie_nodes_visited += visited
        return None if ref is None else self.value[~ref]

    def items(self) -> Iterator[tuple[int, Any]]:
        """All (key, value) pairs in increasing key order.

        Raises RuntimeError on the next step after an insert or delete,
        as iterating a dict does after a change.
        """
        r = self.radix
        slots, key, value = self.slots, self.key, self.value

        def walk(n):
            for i in range(n * (r + 1), n * (r + 1) + r):
                ref = slots[i]
                if ref != slots[i + 1]:
                    if ref < 0:
                        yield key[~ref], value[~ref]
                    else:
                        yield from walk(ref)

        stamp = self.mutations
        for item in walk(0):
            yield item
            if self.mutations != stamp:
                raise RuntimeError("trie changed during iteration")

    # -- updates ---------------------------------------------------------

    def insert(self, key: int, value: Any,
               stats: Optional[VisitStats] = None):
        """Store ``key`` -> ``value`` and return ``value``; ValueError on
        a duplicate key or a None value."""
        if type(key) is not int or not 0 <= key < self.capacity:
            key = as_coordinate(key, "key", self.capacity)
        if value is None:
            raise ValueError("None is not a storable value")
        r, slots, key_of = self.radix, self.slots, self.key
        node = 0
        for depth, p in enumerate(self._pow):
            d = key // p % r
            i = node * (r + 1) + d
            if stats is not None:
                stats.trie_nodes_visited += 1
            other = slots[i]
            if other == slots[i + 1]:
                # the thread's slot takes the entry
                ref = self._new_entry(key, value)
            elif other >= 0:
                node = other
                continue
            else:
                # split: the two keys' nodes replace the other's entry
                g = key_of[~other]
                if g == key:
                    raise ValueError(f"duplicate key {key}")
                entry = self._new_entry(key, value)
                keys, refs = (((g, key), (other, entry)) if g < key
                              else ((key, g), (entry, other)))
                ref = self._new_node(slots[i + 1])
                if stats is not None:
                    stats.trie_nodes_visited += 1
                self._fill(ref, keys, refs, 0, 2, depth + 1, stats)
            # the slot takes the new ref, and so do the threads before it,
            # which led where the slot did
            self._rethread(node, d, other, ref, stats)
            break
        self.size += 1
        self.mutations += 1
        return value

    def delete(self, key: int, stats: Optional[VisitStats] = None):
        """Remove ``key``; returns its value.  Raises KeyError if absent."""
        if type(key) is not int or not 0 <= key < self.capacity:
            key = as_coordinate(key, "key", self.capacity)
        r, slots = self.radix, self.slots
        node = 0
        for p in self._pow:
            d = key // p % r
            if stats is not None:
                stats.trie_nodes_visited += 1
            b = node * (r + 1)
            i = b + d
            ref = slots[i]
            if ref == slots[i + 1]:
                raise KeyError(key)
            if ref < 0:
                break
            # the fold would stop here: the deepest node above the entry
            # that is the root or keeps another slot; a slot is alone in
            # its node only if the threads on both sides reach past it:
            # slot 0 to it, the cell after it to up
            if node == 0 or slots[b] != ref or slots[i + 1] != slots[b + r]:
                cut, cut_d, cut_i = node, d, i
            node = ref
        if self.key[~ref] != key:
            raise KeyError(key)
        value = self.value[~ref]
        other = None
        if node:
            # two valid slots: the row is three runs, theirs and the up's,
            # so the run of the last valid slot, the one before the up's,
            # starts right after slot 0's; the other's is the first after
            # slot d if slot 0 reaches d, and slot 0's otherwise
            u = slots.index(slots[b + r], b)
            a = slots.index(slots[u - 1], b)
            if a > b and slots[a - 1] == slots[b]:
                other = slots[i + 1] if slots[b] == ref else slots[b]
        if other is not None and other < 0:
            # fold: the node and the one-slot nodes above it go, and the
            # cut's slot takes the other entry
            dropped = slots[cut_i]
            self._rethread(cut, cut_d, dropped, other, stats)
            while dropped != node:
                below = slots[dropped * (r + 1)]
                self._free(dropped)
                dropped = below
            self._free(node)
        else:
            # slot d becomes a thread to the ref after it
            self._rethread(node, d, ref, slots[i + 1], stats)
        self._free(ref)
        self.size -= 1
        self.mutations += 1
        return value

    def _rethread(self, node: int, j: int, old, target,
                  stats: Optional[VisitStats]) -> None:
        """Write ``target`` over the run of ``node``'s cells holding
        ``old`` that ends at cell ``j``: a slot, with the threads before
        it that led where it did.

        The valid slot left of the run holds the subtree that ended right
        before ``old`` and now ends right before ``target``, and so does
        its largest-valid chain: each node on it holds ``old`` in its
        trailing threads and its up cell, the run ending at ``j = radix``.
        """
        r, slots = self.radix, self.slots
        while True:
            # the cells holding one ref are contiguous in a row, so the
            # run starts at its first
            b = node * (r + 1)
            a = slots.index(old, b, b + j + 1)
            slots[a:b + j + 1] = [target] * (b + j + 1 - a)
            if a == b:
                return
            node = slots[a - 1]
            if node < 0:
                return
            if stats is not None:
                stats.trie_nodes_visited += 1
            j = r

    # -- verification ----------------------------------------------------

    def validate(self) -> list[str]:
        """Check structure, key placement, every up and the free lists;
        list violations.  A thread that does not repeat the cell after
        it reads as a valid slot, reported as no node or entry or as a
        ref reached twice."""
        out: list[str] = []
        R, W, pw = self.radix, self.width, self._pow
        S = R + 1
        slots, key = self.slots, self.key
        nodes, entries = len(slots) // S, len(key)
        if len(slots) != nodes * S or len(self.value) != entries:
            return [f"columns disagree: {len(slots)} slots in rows of {S}, "
                    f"{entries} keys and {len(self.value)} values"]
        up = slots[R::S]
        live_nodes, live_entries = {0}, set()

        def walk(n: int, depth: int, prefix: int) -> int:
            # the number of keys under node n, whose digits so far are prefix
            held = 0
            for d in range(R):
                ref = slots[n * S + d]
                if ref == slots[n * S + d + 1]:
                    continue
                at = prefix * R + d
                if type(ref) is int and -entries <= ref < 0:
                    if ~ref in live_entries:
                        out.append(f"entry {~ref} reached twice")
                        continue
                    live_entries.add(~ref)
                    k = key[~ref]
                    held += 1
                    if not (type(k) is int and k // pw[depth] == at):
                        out.append(f"entry key {k!r} in the slot for prefix "
                                   f"{at} at depth {depth}")
                elif depth == W - 1:
                    out.append(f"bottom slot {at}: not an entry")
                elif not (type(ref) is int and 0 < ref < nodes):
                    out.append(f"slot for prefix {at} at depth {depth}: "
                               f"not a node or an entry")
                elif ref in live_nodes:
                    out.append(f"node {ref} reached twice")
                else:
                    live_nodes.add(ref)
                    held += walk(ref, depth + 1, at)
            if held < 2 and n != 0:
                out.append(f"node {n} at depth {depth} holds {held} "
                           f"key{'' if held == 1 else 's'}; only the root "
                           f"may hold fewer than two")
            return held

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
            # a child's up is the cell after its slot
            if up[n] != up_expect:
                out.append(f"node {n}: up is {up[n]!r}, expected {up_expect!r}")
            for i in range(n * S, n * S + R):
                if slots[i] != slots[i + 1] and slots[i] >= 0:
                    check_threads(slots[i], slots[i + 1])

        check_threads(0, None)
        return out
