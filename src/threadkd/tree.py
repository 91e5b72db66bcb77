"""Height-balanced binary search tree with inorder threads.

Nodes live in an arena and are addressed by integer handles; handle 0 is
a permanent dummy node that bounds the inorder sequence on both sides.
Empty child slots hold threads.  A left thread targets the node's
inorder predecessor, so pred steps need no parent search and the first
node threads to the dummy.  The ``succ`` column holds each node's
inorder successor outright (DUMMY after the last node; ``succ[DUMMY]``
is the first node), so a successor step is one read.  The tree keeps it
itself: an insert reads the position's cell and writes two, a delete
writes the predecessor's.  A right thread is a flag alone, as in a tree
threaded on one side (Knuth, TAOCP vol. 1, 2.3.1): the side-generic
copies in ``_detach`` and in a delete's relocation may leave a stale
handle in a right-thread cell, and no routine reads one.

Storage is flat: one list (or bytearray) per field, indexed by handle,
and no object per node.  ``link[d]`` and ``thread[d]`` are the child
slot and its thread flag on side ``d`` (0 = left, 1 = right), so every
structural routine is written once for a side ``d`` and its mirror
``1 - d``: ``_step`` takes one inorder step toward either side, for
``in_pred`` and for a delete's relocation; ``in_succ`` reads ``succ``
instead.  Counting rule: each slot a ``_step`` reads counts one thread
followed, and so does each ``succ`` read.  ``balance`` is height(right)
- height(left), so a subtree growing on side ``d`` moves it by
``2*d - 1`` and one shrinking there by ``1 - 2*d``; ``_retrace`` walks
either change up from the node that took it, after an insert or a
delete alike.  A node's child ``c`` is on side 0 exactly when
``link[0]`` holds ``c``: a left thread never targets the node's own
child, only an ancestor or the dummy.  ``cross``, ``trie`` and
``coord`` are payload columns owned by the multi-level index; the tree
keeps one cell of each per handle, empty (None) on a new or freed cell,
and never reads them.  Callers that look at a node read its cells in
the columns.

Insertion takes a position hint (the would-be predecessor) instead of
searching by key; callers locate positions through external structures,
and ``last_below``, one root-to-leaf descent by key, serves the one
caller that has none, a new group under a leaf one level up.
Deletion relocates the inorder successor into the removed node's place
instead of copying keys, so surviving handles stay valid for any outside
references held to them.  ``from_sorted`` builds a perfectly balanced
tree from sorted keys, linking one depth at a time on numpy arrays.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .stats import VisitStats

DUMMY = 0


class OrderingError(ValueError):
    """Key does not fall strictly between the hinted position and its successor."""


class InvalidTargetError(ValueError):
    """Operation aimed at the dummy node or a dead handle."""


def _balanced_arrays(n: int) -> tuple[np.ndarray, ...]:
    """The ``link``, ``thread``, ``parent`` and ``balance`` columns of the
    perfectly balanced tree over n keys, as numpy arrays of handles
    (``from_sorted`` gives the layout); the loop's temporaries end with
    the call."""
    # columns indexed by handle; row 0 is the dummy's: its left slot
    # links to the root, its right slot to itself
    link = np.zeros((2, n + 1), np.int64)
    thread = np.zeros((2, n + 1), np.uint8)
    parent = np.zeros(n + 1, np.int64)
    balance = np.zeros(n + 1, np.int64)
    link[0, DUMMY] = (n >> 1) + 1
    lo = np.zeros(1, np.int64)
    hi = np.full(1, n, np.int64)
    up = np.zeros(1, np.int64)
    while lo.size:
        mid = (lo + hi) >> 1
        h = mid + 1
        parent[h] = up
        # side d's subtree is keys[a:b]; an empty one leaves a thread
        # to the inorder neighbour, handle mid or mid + 2
        below = []
        for d, (a, b) in enumerate(((lo, mid), (h, hi))):
            has = a < b
            link[d, h] = np.where(has, ((a + b) >> 1) + 1, mid + 2 * d)
            thread[d, h] = ~has
            below.append((a[has], b[has], h[has]))
        # frexp's exponent of a size is its bit length
        balance[h] = np.frexp(hi - h)[1] - np.frexp(mid - lo)[1]
        lo, hi, up = map(np.concatenate, zip(*below))
    link[1, n] = DUMMY
    return link, thread, parent, balance


class ThreadedAvlTree:
    """AVL tree over tuple keys with threads replacing empty child slots.

    Single writer, multiple readers: mutating calls need exclusive access,
    reads are safe whenever no mutation is in flight.
    """

    def __init__(self):
        # Dummy arrangement: left slot is the root link (thread to self when
        # empty), right slot is a child link to itself, so that an insert
        # at the front hangs below the first node and pred of the dummy
        # resolves to the last real node.
        self._columns([None], ([DUMMY], [DUMMY]),
                      (bytearray(b"\x01"), bytearray(1)), [DUMMY], [0],
                      [DUMMY], 0)

    def _columns(self, key: list, link: tuple, thread: tuple, parent: list,
                 balance: list, succ: list, size: int,
                 payload: Optional[tuple] = None) -> None:
        """Set every field: the given columns, one cell per handle, the
        payload columns ``(cross, trie, coord)`` or, for None, empty
        ones, no free cell and zeroed counters."""
        self.key: list[Optional[tuple]] = key
        self.link: tuple[list[int], list[int]] = link
        self.thread: tuple[bytearray, bytearray] = thread
        self.parent: list[int] = parent
        self.balance: list[int] = balance
        self.succ: list[int] = succ
        if payload is None:
            payload = [None] * len(key), [None] * len(key), [None] * len(key)
        # a handle, or on an inner level of the index a leaf's point
        self.cross: list[Union[int, tuple, None]] = payload[0]
        self.trie: list = payload[1]
        self.coord: list[Optional[int]] = payload[2]
        self.free: list[int] = []
        self.size = size
        # bumped by every insert and delete, so an inorder walk can tell
        # that the tree changed under it
        self.mutations = 0

    @classmethod
    def from_sorted(cls, keys: Sequence[tuple],
                    handles: Optional[Sequence[int]] = None) -> "ThreadedAvlTree":
        """Perfectly balanced tree over strictly increasing ``keys``, in O(n).

        ``keys[j]`` gets handle ``j + 1``.  The subtree over keys[lo:hi]
        has its root at the midpoint, handle ``(lo + hi) // 2 + 1``; an
        empty left slot threads to handle ``j``, an empty right slot to
        ``j + 2`` (DUMMY after the last key).  The links are set one depth
        at a time, on numpy arrays of every (lo, hi) range at that depth,
        with no call per node.  A range of s keys is bit_length(s) high,
        so a node's balance is the difference of its two sides' bit
        lengths.  Key order is not checked here; ``validate()`` reports a
        violation.

        Every link is taken from ``handles``, where ``handles[j] == j`` for
        each j up to ``len(keys) + 1``, so each handle is one int object;
        callers that build several trees pass one list to all of them.
        An object array of those ints turns the link and parent arrays
        into the columns, one fancy index each; ``succ`` is ``handles``
        shifted by one.
        """
        return cls._from_sorted(keys, handles, None)

    @classmethod
    def _from_sorted(cls, keys: Sequence[tuple],
                     handles: Optional[Sequence[int]],
                     payload: Optional[tuple]) -> "ThreadedAvlTree":
        """``from_sorted``, with the payload columns given as for
        ``_columns``: a bulk load passes the ones it has made, so no empty
        column is made only to be replaced."""
        n = len(keys)
        if n == 0:
            return cls()
        if handles is None:
            handles = list(range(n + 2))
        link, thread, parent, balance = _balanced_arrays(n)
        # each array becomes its column and is dropped once the column is
        # made, so the build holds one array beside the finished columns
        table = np.array(handles[:n + 1], object)
        link = tuple(table[side].tolist() for side in link)
        parent = table[parent].tolist()
        del table
        balance = balance.tolist()
        thread = tuple(map(bytearray, thread))
        # handle j + 1 holds keys[j], so handle h's successor is h + 1
        succ = handles[1:n + 2]
        succ[n] = DUMMY
        tree = cls.__new__(cls)
        tree._columns([None, *keys], link, thread, parent, balance, succ, n,
                      payload)
        return tree

    # -- handle helpers -------------------------------------------------

    def _alive(self, h: int) -> bool:
        if not 0 <= h < len(self.key):
            return False
        return h == DUMMY or self.key[h] is not None

    def _alloc(self, key: tuple) -> int:
        """A cell holding ``key`` with both slots threads, balance 0 and
        no payload; the caller sets its links and parent."""
        if self.free:
            h = self.free.pop()
            self.key[h] = key
            self.thread[0][h] = self.thread[1][h] = 1
            self.balance[h] = 0
            return h
        self.key.append(key)
        for col in (*self.link, self.parent, self.succ):
            col.append(DUMMY)
        for flags in self.thread:
            flags.append(1)
        self.balance.append(0)
        self.cross.append(None)
        self.trie.append(None)
        self.coord.append(None)
        return len(self.key) - 1

    def _release(self, h: int) -> None:
        self.key[h] = None
        self.cross[h] = None
        self.trie[h] = None
        self.coord[h] = None
        self.free.append(h)

    def _replace_child(self, p: int, old: int, new: int) -> None:
        left = self.link[0]
        if left[p] == old:
            left[p] = new
        else:
            self.link[1][p] = new

    @property
    def root(self) -> int:
        """Handle of the root node, or DUMMY when empty."""
        return DUMMY if self.thread[0][DUMMY] else self.link[0][DUMMY]

    # -- ordered navigation ---------------------------------------------

    def _step(self, h: int, d: int, stats: Optional[VisitStats] = None) -> int:
        """Inorder neighbour of ``h`` on side ``d`` by the threads: the
        successor for d = 1, the predecessor for d = 0, DUMMY past either
        end.  One slot on side ``d``, then, below a child link, the far
        side's links down to a thread; each slot read counts as one thread
        followed.  A right thread's target may be stale, so d = 1 is
        taken only below a right child, as a delete's relocation does."""
        q = self.link[d][h]
        n = 1
        if not self.thread[d][h]:
            far, far_thread = self.link[1 - d], self.thread[1 - d]
            while not far_thread[q]:
                q = far[q]
                n += 1
        if stats is not None:
            stats.threads_followed += n
        return q

    def in_succ(self, h: int, stats: Optional[VisitStats] = None) -> int:
        """Inorder successor handle; DUMMY after the last node.  One read
        of the ``succ`` column, counted as one thread followed."""
        if stats is not None:
            stats.threads_followed += 1
        return self.succ[h]

    def in_pred(self, h: int, stats: Optional[VisitStats] = None) -> int:
        """Inorder predecessor handle; DUMMY before the first node."""
        return self._step(h, 0, stats)

    def first(self, stats: Optional[VisitStats] = None) -> int:
        """Handle of the inorder-minimum node, or DUMMY when empty."""
        return self.in_succ(DUMMY, stats)

    def last(self, stats: Optional[VisitStats] = None) -> int:
        return self.in_pred(DUMMY, stats)

    def last_below(self, key: tuple,
                   stats: Optional[VisitStats] = None) -> int:
        """Handle of the last node whose key is below ``key``, DUMMY when
        none is: the one search by key, a root-to-leaf descent, counted
        one tree visit per node it compares."""
        link, thread, keys = self.link, self.thread, self.key
        h, pos, n = self.root, DUMMY, 0
        while h != DUMMY:
            n += 1
            d = 1 if keys[h] < key else 0
            if d:
                pos = h
            if thread[d][h]:
                break
            h = link[d][h]
        if stats is not None:
            stats.tree_nodes_visited += n
        return pos

    def inorder(self) -> Iterator[int]:
        """Yield live handles in increasing key order via threads.

        Raises RuntimeError on the next step after an insert or delete,
        as iterating a dict does after a change.
        """
        stamp = self.mutations
        h = self.in_succ(DUMMY)
        while h != DUMMY:
            yield h
            if self.mutations != stamp:
                raise RuntimeError("tree changed during iteration")
            h = self.in_succ(h)

    def keys(self) -> Iterator[tuple]:
        key = self.key
        for h in self.inorder():
            yield key[h]

    # -- insertion -------------------------------------------------------

    def insert_after(self, pos: int, key: tuple,
                     stats: Optional[VisitStats] = None) -> int:
        """Insert ``key`` directly after the node at ``pos`` (DUMMY = new first).

        ``key`` must order strictly between the position's key and its
        current successor's key; raises OrderingError otherwise.  Returns
        the new node's handle.
        """
        if not self._alive(pos):
            raise InvalidTargetError(f"position handle {pos} is not a live node")
        keys = self.key
        succ = self.in_succ(pos, stats)
        if pos != DUMMY and not keys[pos] < key:
            raise OrderingError(f"key {key!r} not greater than position key "
                                f"{keys[pos]!r}")
        if succ != DUMMY and not key < keys[succ]:
            raise OrderingError(f"key {key!r} not less than successor key "
                                f"{keys[succ]!r}")

        h = self._alloc(key)
        self.mutations += 1
        if stats is not None:
            stats.tree_nodes_visited += 2
        link = self.link
        link[0][h] = pos
        # the new node hangs in pos's free right slot (d = 1) or, when pos
        # has a right subtree (or is the dummy), in succ's free left slot
        # (d = 0); succ is the dummy itself when the tree is empty
        d = 1 if self.thread[1][pos] else 0
        p = pos if d else succ
        self.parent[h] = p
        link[d][p] = h
        self.thread[d][p] = 0
        self.succ[h] = succ
        self.succ[pos] = h
        self.size += 1
        self._retrace(p, d, True, stats)
        return h

    # -- deletion --------------------------------------------------------

    def delete_node(self, h: int, stats: Optional[VisitStats] = None) -> None:
        """Remove the node at handle ``h``, restoring threads and balance."""
        if h == DUMMY or not self._alive(h):
            raise InvalidTargetError(f"handle {h} is not a deletable node")
        if stats is not None:
            stats.tree_nodes_visited += 1
        link, thread, parent = self.link, self.thread, self.parent
        if thread[0][h] or thread[1][h]:
            # h's predecessor is in its left slot: the thread's target, or
            # the only child, a leaf
            self.succ[link[0][h]] = self.succ[h]
            p, side = self._detach(h)
        else:
            # two children: the inorder successor s leaves its own place
            # and takes h's, so every other handle stays where it is
            s = self.in_succ(h, stats)
            p, side = self._detach(s)
            if p == h:
                # s was h's right child: the shrunk side is now s's own
                p = s
            for d in (0, 1):
                near, flags = link[d], thread[d]
                c = near[s] = near[h]
                flags[s] = flags[h]
                if not flags[h]:
                    parent[c] = s
                    # h's neighbour on side d, below c, led to h: the
                    # successor's left thread, or the predecessor's succ
                    # cell, whose right thread is a flag alone
                    q = self._step(h, d, stats)
                    (link[0] if d else self.succ)[q] = s
            self.balance[s] = self.balance[h]
            parent[s] = parent[h]
            self._replace_child(parent[h], h, s)
        self.size -= 1
        self.mutations += 1
        self._release(h)
        self._retrace(p, side, False, stats)

    def _detach(self, h: int) -> tuple[int, int]:
        """Unlink a node with at most one child; returns (parent, shrunk side)."""
        link, thread = self.link, self.thread
        p = self.parent[h]
        side = 0 if link[0][p] == h else 1
        if thread[0][h] and thread[1][h]:
            # p's slot becomes the thread h held on that side
            link[side][p] = link[side][h]
            thread[side][p] = 1
            return p, side
        d = 1 if thread[0][h] else 0      # the side of h's only child
        sub = link[d][h]
        link[side][p] = sub
        self.parent[sub] = p
        # an AVL node's only child is a leaf, and its far-side thread
        # targeted h; retarget it to h's neighbour on that side
        link[1 - d][sub] = link[1 - d][h]
        return p, side

    def _retrace(self, x: int, side: int, grew: bool,
                 stats: Optional[VisitStats]) -> None:
        """Walk up from ``x``, whose subtree on ``side`` grew (or shrank)
        by one level.  The change moves a balance by ``s``, toward
        ``side`` on growth and away from it on shrinkage.  Growth stops
        once a balance lands on 0, shrinkage once it lands on +-1; a
        balance already at ``s`` is fixed by a rotation, after which growth
        always stops and shrinkage stops if the height was kept."""
        left, parent, balance = self.link[0], self.parent, self.balance
        while x != DUMMY:
            if stats is not None:
                stats.tree_nodes_visited += 1
            s = 2 * side - 1 if grew else 1 - 2 * side
            b = balance[x]
            if b == s:
                x, kept = self._fix_heavy(x, side if grew else 1 - side, stats)
                if grew or kept:
                    return
            else:
                balance[x] = b = b + s
                if (b == 0) == grew:
                    return
            p = parent[x]
            side = 0 if left[p] == x else 1
            x = p

    # -- rotations -------------------------------------------------------

    def _fix_heavy(self, x: int, d: int, stats: Optional[VisitStats]):
        """Resolve a two-level imbalance of x toward side ``d``.  Returns
        (subtree root, height kept)."""
        balance = self.balance
        s = 2 * d - 1
        z = self.link[d][x]
        zb = balance[z]
        if stats is not None:
            stats.rotations += 1
        if zb != -s:
            self._rotate(x, d)
            if zb == 0:
                balance[x] = s
                balance[z] = -s
                return z, True
            balance[x] = 0
            balance[z] = 0
            return z, False
        w = self.link[1 - d][z]
        wb = balance[w]
        self._rotate(z, 1 - d)
        self._rotate(x, d)
        balance[x] = -s if wb == s else 0
        balance[z] = s if wb == -s else 0
        balance[w] = 0
        return w, False

    def _rotate(self, x: int, d: int) -> int:
        """Lift x's child on side ``d`` into x's place; returns it."""
        e = 1 - d
        near, inner = self.link[d], self.link[e]
        parent = self.parent
        z = near[x]
        if self.thread[e][z]:
            # z had no inner child: x's slot keeps z, now as a thread
            self.thread[d][x] = 1
        else:
            b = inner[z]
            near[x] = b
            parent[b] = x
        inner[z] = x
        self.thread[e][z] = 0
        p = parent[x]
        parent[z] = p
        self._replace_child(p, x, z)
        parent[x] = z
        return z

    # -- verification ----------------------------------------------------

    def height(self) -> int:
        """The nodes on a longest root-to-leaf path: down the side each
        node's balance leans to, the left on a tie."""
        h, n = self.root, 0
        while h != DUMMY:
            n += 1
            d = 1 if self.balance[h] > 0 else 0
            if self.thread[d][h]:
                break
            h = self.link[d][h]
        return n

    def height_bound(self) -> float:
        """The AVL bound on ``height()``: 1.45 log2(n + 2) for n nodes."""
        return 1.45 * math.log2(self.size + 2)

    def validate(self) -> list[str]:
        """Check every structural invariant; returns a list of violations."""
        out: list[str] = []
        key, parent, balance = self.key, self.parent, self.balance
        left, right = self.link
        lthread, rthread = self.thread
        succ = self.succ

        def succ_faults(order: list[int]) -> list[str]:
            # the succ column holds each node's successor in ``order``, the
            # first node in the dummy's cell and DUMMY in the last node's
            chain = [DUMMY, *order, DUMMY]
            return [f"node {h}: succ cell -> {succ[h]}, expected {n}"
                    for h, n in zip(chain, chain[1:]) if succ[h] != n]

        if key[DUMMY] is not None:
            out.append("dummy: key is not empty")
        if rthread[DUMMY] or right[DUMMY] != DUMMY:
            out.append("dummy: right slot must be a child link to itself")
        if self.size == 0:
            if not lthread[DUMMY] or left[DUMMY] != DUMMY:
                out.append("dummy: empty tree must thread its root slot to itself")
            return out + succ_faults([])
        if lthread[DUMMY]:
            out.append("dummy: nonempty tree lacks a root child link")
            return out

        # structural walk over child links
        seen: set[int] = set()
        order: list[int] = []
        broken = False

        def walk(h: int, up: int, lo: Optional[tuple], hi: Optional[tuple]) -> int:
            nonlocal broken
            if h in seen or h == DUMMY or not self._alive(h):
                out.append(f"node {h}: repeated or dead handle in structure")
                broken = True
                return 0
            seen.add(h)
            k = key[h]
            if parent[h] != up:
                out.append(f"node {h}: parent is {parent[h]}, expected {up}")
            if lo is not None and not lo < k:
                out.append(f"node {h}: key {k!r} not above subtree bound {lo!r}")
            if hi is not None and not k < hi:
                out.append(f"node {h}: key {k!r} not below subtree bound {hi!r}")
            hl = walk(left[h], h, lo, k) if not lthread[h] else 0
            order.append(h)
            hr = walk(right[h], h, k, hi) if not rthread[h] else 0
            if balance[h] != hr - hl:
                out.append(f"node {h}: balance {balance[h]} but child heights "
                           f"{hl}/{hr}")
            if abs(hr - hl) > 1:
                out.append(f"node {h}: subtree heights differ by {abs(hr - hl)}")
            return 1 + max(hl, hr)

        total_height = walk(self.root, DUMMY, None, None)
        if broken:
            return out
        if len(order) != self.size:
            out.append(f"size {self.size} but structure holds {len(order)} nodes")

        # a left thread targets the inorder predecessor, DUMMY before the
        # first node; the succ column stands for the successor
        for h, expect in zip(order, [DUMMY, *order]):
            if lthread[h] and left[h] != expect:
                out.append(f"node {h}: left thread -> {left[h]}, "
                           f"expected {expect}")
        out += succ_faults(order)

        bound = self.height_bound()
        if total_height > bound:
            out.append(f"height {total_height} exceeds balance bound {bound:.2f}")
        return out
