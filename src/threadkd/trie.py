"""Radix trie with successor threads in every empty slot, expanded lazily.

Keys are integers written as ``width`` digits in base ``radix``, most
significant first, short keys zero-padded.  Each node owns ``radix``
slots and stands for one digit prefix; the root stands for the empty
one.  A non-root node exists only for a prefix that at least two stored
keys share.  A slot whose subtree holds one key holds that key's value
directly, at any depth (lazy expansion, as in Leis, Kemper and Neumann,
"The Adaptive Radix Tree", ICDE 2013); a slot whose subtree holds more
holds the next node.  Either way the slot is valid.  Every other slot
holds a thread: a direct reference to the next valid node or value in
key order (the next valid ref inside the same node, or the node's
``up`` target when nothing follows locally).  ``up`` is the next valid
ref after the node's whole subtree, so it is the thread one slot past
the last.  The shape depends only on the stored keys, never on the
order they came in.

Threads make ``succ_geq`` a single root-to-value descent: the first
invalid slot on the search path jumps straight to the subtree holding
the answer, which is then resolved by following smallest valid slots
down to a value.  A value met on the way is the only key under its
prefix, so one compare settles it: the value is the answer if its key
is at least the probe, and otherwise the ref after its slot is.  No
walk ever backs up, so a lookup touches at most two root-to-bottom
paths of nodes.  ``find`` stops at the first value with the same
compare.

Inserts and deletes repair the threads with one routine, ``_rethread``:
the empty slots left of the changed slot, and the chain of largest-valid
slots under the first valid one, all end right before the change, so
each gets the new next reference.  An insert into an empty slot writes
its value there.  One that meets another key's value *splits* it: the
nodes for the digits the two keys still share, and one node holding
both, replace the value in its slot.  A delete clears the value's slot,
unless that leaves a non-root node with one key: then the node *folds*,
together with each one-slot node above it, and the highest slot that
survives takes the remaining value.  Cost is bounded by radix * width
slot writes.  ``from_columns`` builds the same trie from values in key
order, each node once, ``from_sorted`` from sorted pairs, and
``level_tries`` many tries at once, a depth at a time on numpy arrays.

Storage is flat: a trie owns one column, ``slots``, and there is no
object per node or entry.  Node ``n`` is the row of ``radix + 1`` cells
from ``n * (radix + 1)``: its slots, then its ``up`` in cell ``radix``,
so the ref after any slot is the next cell.  A cell holds one of three
things, told apart by sign, as the Adaptive Radix Tree's combined
pointer/value slots are by a tag: a stored value, which is a
non-negative int; node ``n`` as the negative ref ``-n * (radix + 1)``,
minus its first cell, so a descent reads cell ``d - ref``; or None
where nothing follows.  The root is node 0 and is in no cell.  No flag
is stored: a slot is valid exactly when its ref differs from the next
cell's, as a thread repeats the ref after it and no ref is in two
slots.  A stored value's key is read through ``key_of``, a value-to-key
map the trie is given: in the index, a group trie's values are its
members' tree handles and its map is the level's ``coord`` column, so
a key is stored once, in the tree.  A trie given no map keeps a dict of
its own, which its inserts and deletes keep.  A delete puts the nodes it
drops on a free list, reused before the column grows: freed nodes chain
through their up cell from ``free_node``, the chain ending in None.

Values are distinct non-negative ints.  Lookups and updates answer with
the stored value, or None for no answer, so no call makes an object.
Callers that look at the structure read the column.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterator, Optional, Sequence

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


def _as_value(v) -> int:
    """``v`` as a storable value, a plain non-negative int under the
    coordinate rule; ValueError for None, a bool, a non-integer or a
    negative int."""
    v = as_coordinate(v, "value")
    if v < 0:
        raise ValueError(f"value {v} is negative; values are ints >= 0")
    return v


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


# Tries whose slot lists ``level_tries`` makes with one fancy
# index and one ``tolist`` each, before each trie slices its own.  On
# lead-narrow's build (4,097 tries), 16 to 1,024 build alike and 7 to 15%
# faster than one trie at a time; a whole level at once is slower again
# and raises the build's peak by 3.4 MB.
_BATCH = 256


def _level_codes(r: int, powers: tuple, column: np.ndarray, values: list,
                 starts: np.ndarray, sizes: np.ndarray) -> tuple:
    """The numpy half of ``ThreadedTrie.level_tries``: for the groups of
    ``sizes[g]`` keys from ``column[starts[g]]``, the object table and,
    trie after trie in node order, every node's row of ``r + 1`` codes,
    ``up`` last, with ``first_node[g]``, the row of group g's root, each
    row's group's ``starts[g]`` and m, the largest group.

    A group's node at depth d >= 1 is a maximal run of neighbour pairs
    that share at least d leading digits, and a key sits alone in a slot
    of the node at depth max(lcp on its left, lcp on its right, 0), as a
    suffix tree is built from a suffix array and its LCP array (Kasai et
    al., CPM 2001).  Nodes are numbered as ``_fill`` numbers them, in
    right-to-left preorder, which is the order (group, -end, depth).  The
    rows are filled a depth at a time: one pass over the columns from the
    right, ``up`` standing as the last column, points every empty slot of
    every node's row at the next valid one, and a child's ``up`` is its
    parent's filled cell at the child's digit + 1.  A code is the e-th
    value of its group's ``e``, node n's ``m + n`` or None's
    ``m + most_nodes``, in the smallest dtype that holds them.  The
    table, indexed by a code rebased as ``level_tries`` rebases it, the
    value's column position a or the code + v - m, where v is
    ``len(column)``, maps it to ``values[a]`` itself, n's ref
    ``-n * (r + 1)`` or None.  Its temporaries end with the call, before
    the lists are made.
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
    v = len(column)
    table = np.empty(v + most_nodes + 1, object)
    table[:v] = values[:v]
    table[v:-1] = range(0, -most_nodes * (r + 1), -(r + 1))
    table[-1] = None
    none = m + most_nodes
    code = np.min_scalar_type(none)
    value_code = (np.arange(total) - first[group_of]).astype(code)
    # each row's group's first column position, which a value code adds
    row_start = np.repeat(starts, per_group)
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
        # the values at this depth, each in its node's row
        keys_here = np.flatnonzero(depth_of == d)
        where = np.searchsorted(lo, keys_here, "right") - 1
        row[where, digits[keys_here, d]] = value_code[keys_here]
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
    return table, slot_codes, first_node, row_start, m


class ThreadedTrie:
    """Successor-threaded radix trie mapping ints in [0, radix**width) to
    distinct non-negative ints.  Lookups and updates answer with the
    stored value, or None.

    ``key_of`` maps each stored value to its key; a trie given none keeps
    a dict of its own.  ``radix``, ``width``, the keys and the values
    follow ``as_coordinate``: int-likes are stored as plain ints, bools
    and non-integers raise ValueError, and so do None and a negative
    value."""

    __slots__ = ("radix", "width", "capacity", "size", "_pow", "slots",
                 "key_of", "own_map", "free_node", "mutations")

    def __init__(self, radix: int, width: int, key_of=None):
        radix, width = _trie_shape(radix, width)
        # the root, empty: every slot threads to what follows, nothing
        self._columns(radix, width, [None] * (radix + 1), key_of, 0)

    def _columns(self, radix: int, width: int, slots: list, key_of,
                 size: int) -> None:
        """Set every field: the shape, the slot column, the map (a dict of
        the trie's own for None), the size, no free node and the counter
        zeroed."""
        self.radix = radix
        self.width = width
        self.capacity, self._pow = _shape(radix, width)
        self.size = size
        self.slots = slots
        self.own_map = key_of is None
        self.key_of = {} if key_of is None else key_of
        self.free_node: Optional[int] = None
        # bumped by every insert and delete, so items() can tell that the
        # trie changed under it
        self.mutations = 0

    @classmethod
    def from_sorted(cls, radix: int, width: int,
                    items: Sequence[tuple[int, int]]) -> "ThreadedTrie":
        """Trie holding ``items``, (key, value) pairs in strictly increasing
        key order, with a map of its own; slot for slot what inserting
        them one by one builds.  ValueError for a value that is not a
        non-negative int, or one given twice.  See ``from_columns``."""
        own = {}
        for key, value in items:
            own[_as_value(value)] = as_coordinate(key, "key")
        if len(own) < len(items):
            raise ValueError("a value is given twice")
        trie = cls.from_columns(radix, width, list(own), own)
        trie.own_map = True
        return trie

    @classmethod
    def from_columns(cls, radix: int, width: int, values: list,
                     key_of) -> "ThreadedTrie":
        """Trie holding ``values``, whose keys ``key_of[v]`` strictly
        increase, and reading its keys through ``key_of``, which it
        keeps as it is, not copied, and never writes.

        Each node is created once and its slots are filled run by run:
        the keys sharing a digit at a node form one run, and runs are
        taken right to left, so every thread and ``up`` target already
        exists when it is written.  A run of one key puts its value in
        the run's slot.  The first and last keys are checked against the
        capacity; key order, the other keys' type and the values are not
        checked here, ``validate()`` reports a violation.
        """
        trie = cls(radix, width, key_of)
        if values:
            as_coordinate(key_of[values[0]], "key", trie.capacity)
            as_coordinate(key_of[values[-1]], "key", trie.capacity)
            trie.size = len(values)
            trie._fill(0, values, 0, len(values), 0)
        return trie

    @classmethod
    def level_tries(cls, radix: int, width: int, column: np.ndarray,
                    key_of, values: list, starts: Sequence[int],
                    ends: Sequence[int]) -> list:
        """One trie per group ``values[s:e]`` for ``s, e`` in ``starts``,
        ``ends``, column for column the trie ``from_columns(radix, width,
        values[s:e], key_of)`` builds, from ``width`` numpy passes.

        ``column[a]`` is ``key_of[values[a]]`` as a numpy array, ``int64``
        or ``object`` (ints past 2**63), for every position a group takes;
        each group holds distinct keys in increasing order, all in
        [0, radix**width), and distinct non-negative values, which is not
        checked here.  ``_level_codes`` computes every cell as a small
        code; rebased a batch at a time, one object table turns its rows,
        ``up`` cells included, into a slot list, so a cell holds the
        caller's own value int and no cell makes an object.  The lists are
        made for ``_BATCH`` tries at a time, and each trie takes
        exact-size slices of its batch's, so at most one batch's lists are
        held beside the tries' own.
        """
        r, w = _trie_shape(radix, width)
        starts = np.asarray(starts, np.int64)
        sizes = np.asarray(ends, np.int64) - starts
        if not len(sizes):
            return []
        table, slot_codes, first_node, row_start, m = _level_codes(
            r, _shape(r, w)[1], column, values, starts, sizes)
        v = len(column)
        sizes, first_node = sizes.tolist(), first_node.tolist()
        out = []
        for g0 in range(0, len(sizes), _BATCH):
            g1 = min(g0 + _BATCH, len(sizes))
            lo, hi = first_node[g0], first_node[g1]
            # a value's code, its place in its group, becomes its column
            # position, and a node's or None's moves past the values
            codes = slot_codes[lo:hi].astype(np.intp)
            codes += np.where(codes < m, row_start[lo:hi, None], v - m)
            slots = table[codes].ravel().tolist()
            for g in range(g0, g1):
                a = (first_node[g] - lo) * (r + 1)
                b = (first_node[g + 1] - lo) * (r + 1)
                trie = cls.__new__(cls)
                trie._columns(r, w, slots[a:b], key_of, sizes[g])
                out.append(trie)
        return out

    def _fill(self, n: int, values: Sequence[int], lo: int, hi: int,
              depth: int, stats: Optional[VisitStats] = None) -> None:
        # the subtree of node ref n holds values[lo:hi] and its up is set;
        # each run of one digit becomes a valid slot, the empty slots
        # before a run thread to its subtree and those after the last
        # run to the up
        r = self.radix
        p = self._pow[depth]
        slots, key_of = self.slots, self.key_of
        base = -n
        nxt, end, b = slots[base + r], r, hi
        while b > lo:
            d = key_of[values[b - 1]] // p % r
            a = b - 1
            while a > lo and key_of[values[a - 1]] // p % r == d:
                a -= 1
            if a == b - 1:
                ref = values[a]
            else:
                ref = self._new_node(nxt)
                if stats is not None:
                    stats.trie_nodes_visited += 1
                self._fill(ref, values, a, b, depth + 1, stats)
            slots[base + d + 1:base + end] = [nxt] * (end - d - 1)
            slots[base + d] = ref
            nxt, end, b = ref, d, a
        slots[base:base + end] = [nxt] * end

    def __len__(self) -> int:
        return self.size

    def nodes(self) -> int:
        """Live nodes, the root included: the rows of ``slots`` less those
        on the free list."""
        n, free = len(self.slots) // (self.radix + 1), self.free_node
        while free is not None:
            n, free = n - 1, self.slots[self.radix - free]
        return n

    # -- cells -----------------------------------------------------------

    def _new_node(self, up) -> int:
        """The ref of a node with no valid slot, every slot threaded to
        ``up``."""
        s = self.radix + 1
        ref = self.free_node
        if ref is None:
            ref = -len(self.slots)
            self.slots += [up] * s
        else:
            b = -ref
            self.free_node = self.slots[b + s - 1]
            self.slots[b:b + s] = [up] * s
        return ref

    def _free(self, ref: int) -> None:
        """Put the node ``ref`` on the free list."""
        self.slots[self.radix - ref] = self.free_node
        self.free_node = ref

    # -- lookups ---------------------------------------------------------

    def find(self, key: int, stats: Optional[VisitStats] = None):
        if type(key) is not int or not 0 <= key < self.capacity:
            key = as_coordinate(key, "key", self.capacity)
        r, slots = self.radix, self.slots
        node = 0
        for p in self._pow:
            if stats is not None:
                stats.trie_nodes_visited += 1
            i = key // p % r - node
            node = slots[i]
            if node == slots[i + 1]:
                # a thread: no key has this prefix
                return None
            if node >= 0:
                # the only key under this prefix
                return node if self.key_of[node] == key else None

    def succ_geq(self, key: int, stats: Optional[VisitStats] = None):
        """Value of the smallest stored key >= ``key``, or None.

        Descends the search path until the first invalid slot, whose
        thread lands on the subtree holding the answer, or the first
        value, which answers itself if its key is large enough and
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
            ref = 0
            for p in self._pow:
                visited += 1
                i = key // p % r - ref
                ref = slots[i]
                if ref == slots[i + 1]:
                    # a thread, to the subtree holding the answer
                    break
                if ref >= 0:
                    # the only key under this prefix
                    if self.key_of[ref] < key:
                        ref = slots[i + 1]
                    break
            # the bottom level holds only values, so the loop broke;
            # a node's slot 0 holds its smallest valid ref or threads to it
            if ref is not None:
                while ref < 0:
                    visited += 1
                    ref = slots[-ref]
        if stats is not None:
            stats.trie_lookups += 1
            stats.trie_nodes_visited += visited
        return ref

    def items(self) -> Iterator[tuple[int, int]]:
        """All (key, value) pairs in increasing key order.

        Raises RuntimeError on the next step after an insert or delete,
        as iterating a dict does after a change.
        """
        r = self.radix
        slots, key_of = self.slots, self.key_of

        def walk(b):
            for i in range(b, b + r):
                ref = slots[i]
                if ref != slots[i + 1]:
                    if ref >= 0:
                        yield key_of[ref], ref
                    else:
                        yield from walk(-ref)

        stamp = self.mutations
        for item in walk(0):
            yield item
            if self.mutations != stamp:
                raise RuntimeError("trie changed during iteration")

    # -- updates ---------------------------------------------------------

    def insert(self, key: int, value: int,
               stats: Optional[VisitStats] = None) -> int:
        """Store ``key`` -> ``value`` and return ``value``; ValueError on
        a duplicate key, a value that is not a non-negative int, or one
        the map gives another key: with a map of the trie's own, a value
        stored already, and with a given map, one whose key is not set."""
        if type(key) is not int or not 0 <= key < self.capacity:
            key = as_coordinate(key, "key", self.capacity)
        if type(value) is not int or value < 0:
            value = _as_value(value)
        r, slots, key_of = self.radix, self.slots, self.key_of
        node = 0
        for depth, p in enumerate(self._pow):
            d = key // p % r
            i = d - node
            if stats is not None:
                stats.trie_nodes_visited += 1
            other = slots[i]
            # a thread or a value ends the descent; the bottom level
            # holds no node
            if other == slots[i + 1] or other >= 0:
                break
            node = other
        split = other != slots[i + 1]
        if split and key_of[other] == key:
            raise ValueError(f"duplicate key {key}")
        if self.own_map:
            key_of.setdefault(value, key)
        if key_of[value] != key:
            raise ValueError(f"value {value} has key {key_of[value]!r} in "
                             f"the map, not {key}")
        # the thread's slot takes the value, or on a split the two keys'
        # nodes replace the other's value
        ref = value
        if split:
            pair = (other, value) if key_of[other] < key else (value, other)
            ref = self._new_node(slots[i + 1])
            if stats is not None:
                stats.trie_nodes_visited += 1
            self._fill(ref, pair, 0, 2, depth + 1, stats)
        # the slot takes the new ref, and so do the threads before it,
        # which led where the slot did
        self._rethread(node, d, other, ref, stats)
        self.size += 1
        self.mutations += 1
        return value

    def delete(self, key: int, stats: Optional[VisitStats] = None) -> int:
        """Remove ``key``; returns its value.  Raises KeyError if absent."""
        if type(key) is not int or not 0 <= key < self.capacity:
            key = as_coordinate(key, "key", self.capacity)
        r, slots = self.radix, self.slots
        node = 0
        for p in self._pow:
            d = key // p % r
            if stats is not None:
                stats.trie_nodes_visited += 1
            b = -node
            i = b + d
            ref = slots[i]
            if ref == slots[i + 1]:
                raise KeyError(key)
            if ref >= 0:
                break
            # the fold would stop here: the deepest node above the value
            # that is the root or keeps another slot; a slot is alone in
            # its node only if the threads on both sides reach past it:
            # slot 0 to it, the cell after it to up
            if node == 0 or slots[b] != ref or slots[i + 1] != slots[b + r]:
                cut, cut_d, cut_i = node, d, i
            node = ref
        if self.key_of[ref] != key:
            raise KeyError(key)
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
        if other is not None and other >= 0:
            # fold: the node and the one-slot nodes above it go, and the
            # cut's slot takes the other value
            dropped = slots[cut_i]
            self._rethread(cut, cut_d, dropped, other, stats)
            while dropped != node:
                below = slots[-dropped]
                self._free(dropped)
                dropped = below
            self._free(node)
        else:
            # slot d becomes a thread to the ref after it
            self._rethread(node, d, ref, slots[i + 1], stats)
        if self.own_map:
            del self.key_of[ref]
        self.size -= 1
        self.mutations += 1
        return ref

    def _rethread(self, node: int, j: int, old, target,
                  stats: Optional[VisitStats]) -> None:
        """Write ``target`` over the run of node ref ``node``'s cells
        holding ``old`` that ends at cell ``j``: a slot, with the threads
        before it that led where it did.

        The valid slot left of the run holds the subtree that ended right
        before ``old`` and now ends right before ``target``, and so does
        its largest-valid chain: each node on it holds ``old`` in its
        trailing threads and its up cell, the run ending at ``j = radix``.
        """
        r, slots = self.radix, self.slots
        while True:
            # the cells holding one ref are contiguous in a row, so the
            # run starts at its first
            b = -node
            a = slots.index(old, b, b + j + 1)
            slots[a:b + j + 1] = [target] * (b + j + 1 - a)
            if a == b:
                return
            node = slots[a - 1]
            if node >= 0:
                return
            if stats is not None:
                stats.trie_nodes_visited += 1
            j = r

    # -- verification ----------------------------------------------------

    def validate(self) -> list[str]:
        """Check structure, key placement, every up, the free list and a
        map of the trie's own; list violations.  An entry is a slot
        holding a value, named by that value.  A thread that does not
        repeat the cell after it reads as a valid slot, reported as no
        node or value or as a ref reached twice."""
        out: list[str] = []
        R, W, pw = self.radix, self.width, self._pow
        S = R + 1
        slots, key_of = self.slots, self.key_of
        nodes = len(slots) // S
        if len(slots) != nodes * S:
            return [f"columns disagree: {len(slots)} slots in rows of {S}"]

        def node_of(ref) -> Optional[int]:
            # the node a ref names, the root 0 included, or None
            ok = type(ref) is int and -len(slots) < ref <= 0 and not ref % S
            return -ref // S if ok else None

        live_nodes, live_values = {0}, set()

        def walk(n: int, depth: int, prefix: int) -> int:
            # the number of keys under node n, whose digits so far are prefix
            held = 0
            for d in range(R):
                ref = slots[n * S + d]
                if ref == slots[n * S + d + 1]:
                    continue
                at = prefix * R + d
                if type(ref) is int and ref >= 0:
                    if ref in live_values:
                        out.append(f"entry {ref} reached twice")
                        continue
                    live_values.add(ref)
                    held += 1
                    try:
                        k = key_of[ref]
                    except LookupError:
                        k = None    # the map gives the value no key
                    if not (type(k) is int and k // pw[depth] == at):
                        out.append(f"entry key {k!r} in the slot for prefix "
                                   f"{at} at depth {depth}")
                elif depth == W - 1:
                    out.append(f"bottom slot {at}: not an entry")
                elif (child := node_of(ref)) is None:
                    out.append(f"slot for prefix {at} at depth {depth}: "
                               f"not a node or an entry")
                elif child in live_nodes:
                    out.append(f"node {child} reached twice")
                else:
                    live_nodes.add(child)
                    held += walk(child, depth + 1, at)
            if held < 2 and n != 0:
                out.append(f"node {n} at depth {depth} holds {held} "
                           f"key{'' if held == 1 else 's'}; only the root "
                           f"may hold fewer than two")
            return held

        walk(0, 0, 0)
        if len(live_values) != self.size:
            out.append(f"size {self.size} but {len(live_values)} entries "
                       f"reachable")
        if self.own_map and len(key_of) != len(live_values):
            out.append(f"the trie's map holds {len(key_of)} values but "
                       f"{len(live_values)} entries are reachable")

        # every node is either reachable from the root or on the free list
        free: set[int] = set()
        head = self.free_node
        while head is not None:
            n = node_of(head)
            if n is None or n in free:
                out.append(f"free node list broken at {head!r}")
                break
            if n in live_nodes:
                out.append(f"node {n} is on the free list but reachable "
                           f"from the root")
            free.add(n)
            head = slots[n * S + R]
        lost = nodes - len(live_nodes | free)
        if lost:
            out.append(f"{lost} node cells neither reachable nor on the "
                       f"free list")
        if out:
            return out

        def check_threads(n: int, up_expect) -> None:
            # a child's up is the cell after its slot
            if slots[n * S + R] != up_expect:
                out.append(f"node {n}: up is {slots[n * S + R]!r}, "
                           f"expected {up_expect!r}")
            for i in range(n * S, n * S + R):
                if slots[i] != slots[i + 1] and slots[i] < 0:
                    check_threads(-slots[i] // S, slots[i + 1])

        check_threads(0, None)
        return out
