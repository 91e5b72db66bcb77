"""Height-balanced binary search tree with two-way inorder threads.

Nodes live in an arena and are addressed by integer handles; handle 0 is
a permanent dummy node that bounds the inorder sequence on both sides.
Empty child slots hold threads: the left slot of a node threads to its
inorder predecessor, the right slot to its successor, so succ/pred steps
need no parent search and the first/last nodes thread to the dummy.

Storage is flat: one list (or bytearray) per field, indexed by handle,
and no object per node.  ``link[d]`` and ``thread[d]`` are the child
slot and its thread flag on side ``d`` (0 = left, 1 = right), so every
structural routine is written once for a side ``d`` and its mirror
``1 - d``; ``balance`` is height(right) - height(left), so a subtree
growing on side ``d`` moves it by ``2*d - 1``.  A node's child ``c`` is
on side 0 exactly when ``link[0]`` holds ``c``: a thread never targets
the node's own child, only an ancestor or the dummy.  ``cross`` and
``trie`` are payload columns owned by the multi-level index; the tree
itself never reads them.  ``node(h)`` is a read/write view of one cell.

Insertion takes a position hint (the would-be predecessor) instead of
searching by key; callers locate positions through external structures.
Deletion relocates the inorder successor into the removed node's place
instead of copying keys, so surviving handles stay valid for any outside
references held to them.  ``from_sorted`` builds a perfectly balanced
tree from sorted keys in one pass.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from .stats import VisitStats

DUMMY = 0


class OrderingError(ValueError):
    """Key does not fall strictly between the hinted position and its successor."""


class InvalidTargetError(ValueError):
    """Operation aimed at the dummy node or a dead handle."""


def _cell(column: str, side: Optional[int] = None, cast=None) -> property:
    """View property over ``tree.<column>[h]``, or ``[side][h]`` for the
    per-side columns."""

    def col(view):
        c = getattr(view.tree, column)
        return c if side is None else c[side]

    def get(view):
        v = col(view)[view.h]
        return v if cast is None else cast(v)

    def put(view, value) -> None:
        col(view)[view.h] = value

    return property(get, put)


class TreeNode:
    """Read/write view of the arena cell at handle ``h`` of ``tree``.

    ``left``/``right`` hold a handle; the matching ``lthread``/``rthread``
    flag says whether it is a thread (True) or a child link (False).
    Writing an attribute writes the tree's column.
    """

    __slots__ = ("tree", "h")

    def __init__(self, tree: "ThreadedAvlTree", h: int):
        self.tree = tree
        self.h = h

    key = _cell("key")
    left = _cell("link", 0)
    right = _cell("link", 1)
    lthread = _cell("thread", 0, bool)
    rthread = _cell("thread", 1, bool)
    parent = _cell("parent")
    balance = _cell("balance")
    cross_link = _cell("cross")
    trie = _cell("trie")


def _link_balanced(t: "ThreadedAvlTree", handles: Sequence[int], lo: int,
                   hi: int, up: int) -> tuple[int, int]:
    """Link the cells of keys[lo:hi] (handles lo+1 .. hi) as a perfectly
    balanced subtree under ``up``; returns its root and height."""
    mid = (lo + hi) >> 1
    h = handles[mid + 1]
    t.parent[h] = up
    left, right = t.link
    hl = hr = 0
    if lo < mid:
        left[h], hl = _link_balanced(t, handles, lo, mid, h)
        t.thread[0][h] = 0
    else:
        left[h] = handles[mid]
    if mid + 1 < hi:
        right[h], hr = _link_balanced(t, handles, mid + 1, hi, h)
        t.thread[1][h] = 0
    else:
        right[h] = handles[mid + 2]
    t.balance[h] = hr - hl
    return h, max(hl, hr) + 1


class ThreadedAvlTree:
    """AVL tree over tuple keys with threads replacing empty child slots.

    Single writer, multiple readers: mutating calls need exclusive access,
    reads are safe whenever no mutation is in flight.
    """

    def __init__(self):
        self.key: list[Optional[tuple]] = []
        self.link: tuple[list[int], list[int]] = ([], [])
        self.thread = (bytearray(), bytearray())
        self.parent: list[int] = []
        self.balance: list[int] = []
        self.cross: list[Optional[int]] = []
        self.trie: list = []
        self.free: list[int] = []
        self.size = 0
        self.rotations = 0
        # Dummy arrangement: left slot is the root link (thread to self when
        # empty), right slot is a child link to itself so that succ/pred of
        # the dummy resolve to the first/last real node.
        self._grow([None])
        self.thread[1][DUMMY] = 0

    @classmethod
    def from_sorted(cls, keys: Sequence[tuple],
                    handles: Optional[Sequence[int]] = None) -> "ThreadedAvlTree":
        """Perfectly balanced tree over strictly increasing ``keys``, in O(n).

        ``keys[j]`` gets handle ``j + 1``.  Midpoint recursion links the
        children; an empty left slot threads to handle ``j``, an empty
        right slot to ``j + 2`` (DUMMY after the last key).  Key order is
        not checked here; ``validate()`` reports a violation.

        Every link is taken from ``handles``, where ``handles[j] == j`` for
        each j up to ``len(keys) + 1``, so each handle is one int object;
        callers that build several trees pass one list to all of them.
        """
        tree = cls()
        n = len(keys)
        if n == 0:
            return tree
        if handles is None:
            handles = list(range(n + 2))
        tree._grow(keys)
        tree.link[0][DUMMY], _ = _link_balanced(tree, handles, 0, n, DUMMY)
        tree.thread[0][DUMMY] = 0
        tree.link[1][n] = DUMMY
        tree.size = n
        return tree

    # -- handle helpers -------------------------------------------------

    @property
    def nodes(self) -> list[TreeNode]:
        """Views of every arena cell: the dummy, live and freed cells."""
        return [TreeNode(self, h) for h in range(len(self.key))]

    def node(self, h: int) -> TreeNode:
        return TreeNode(self, h)

    def _alive(self, h: int) -> bool:
        if not 0 <= h < len(self.key):
            return False
        return h == DUMMY or self.key[h] is not None

    def _grow(self, keys: Sequence[Optional[tuple]]) -> None:
        """Append one fresh cell per key: both slots threads to DUMMY,
        balance 0, no payload."""
        m = len(keys)
        self.key.extend(keys)
        for col in (*self.link, self.parent):
            col.extend([DUMMY] * m)
        for flags in self.thread:
            flags.extend(b"\x01" * m)
        self.balance.extend([0] * m)
        self.cross.extend([None] * m)
        self.trie.extend([None] * m)

    def _alloc(self, key: tuple) -> int:
        """A cell holding ``key`` with both slots threads, balance 0 and
        no payload; the caller sets its links and parent."""
        if self.free:
            h = self.free.pop()
            self.key[h] = key
            self.thread[0][h] = self.thread[1][h] = 1
            self.balance[h] = 0
            return h
        self._grow([key])
        return len(self.key) - 1

    def _release(self, h: int) -> None:
        self.key[h] = None
        self.cross[h] = None
        self.trie[h] = None
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

    def in_succ(self, h: int, stats: Optional[VisitStats] = None) -> int:
        """Inorder successor handle; DUMMY after the last node."""
        q = self.link[1][h]
        if stats is not None:
            stats.threads_followed += 1
        if self.thread[1][h]:
            return q
        left = self.link[0]
        lthread = self.thread[0]
        while not lthread[q]:
            q = left[q]
            if stats is not None:
                stats.threads_followed += 1
        return q

    def in_pred(self, h: int, stats: Optional[VisitStats] = None) -> int:
        """Inorder predecessor handle; DUMMY before the first node."""
        q = self.link[0][h]
        if stats is not None:
            stats.threads_followed += 1
        if self.thread[0][h]:
            return q
        right = self.link[1]
        rthread = self.thread[1]
        while not rthread[q]:
            q = right[q]
            if stats is not None:
                stats.threads_followed += 1
        return q

    def first(self, stats: Optional[VisitStats] = None) -> int:
        """Handle of the inorder-minimum node, or DUMMY when empty."""
        return self.in_succ(DUMMY, stats)

    def last(self, stats: Optional[VisitStats] = None) -> int:
        return self.in_pred(DUMMY, stats)

    def inorder(self) -> Iterator[int]:
        """Yield live handles in increasing key order via threads."""
        h = self.in_succ(DUMMY)
        while h != DUMMY:
            yield h
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
        if stats is not None:
            stats.tree_nodes_visited += 2
        left, right = self.link
        left[h] = pos
        right[h] = succ
        # the new node hangs in pos's free right slot or, when pos has a
        # right subtree (or is the dummy), in succ's free left slot; succ
        # is the dummy itself when the tree is empty
        if self.thread[1][pos]:
            self.parent[h] = pos
            right[pos] = h
            self.thread[1][pos] = 0
        else:
            self.parent[h] = succ
            left[succ] = h
            self.thread[0][succ] = 0
        self.size += 1
        self._rebalance_insert(h, stats)
        return h

    def _rebalance_insert(self, h: int, stats: Optional[VisitStats]) -> None:
        left, parent, balance = self.link[0], self.parent, self.balance
        child = h
        x = parent[child]
        while x != DUMMY:
            if stats is not None:
                stats.tree_nodes_visited += 1
            d = 0 if left[x] == child else 1
            s = 2 * d - 1
            b = balance[x]
            if b == s:
                self._fix_heavy(x, d, stats)
                return
            if b:
                balance[x] = 0
                return
            balance[x] = s
            child = x
            x = parent[x]

    # -- deletion --------------------------------------------------------

    def delete_node(self, h: int, stats: Optional[VisitStats] = None) -> None:
        """Remove the node at handle ``h``, restoring threads and balance."""
        if h == DUMMY or not self._alive(h):
            raise InvalidTargetError(f"handle {h} is not a deletable node")
        if stats is not None:
            stats.tree_nodes_visited += 1
        link, thread, parent = self.link, self.thread, self.parent
        if thread[0][h] or thread[1][h]:
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
                    # the subtree's extreme node on the far side threaded to h
                    far, far_flags = link[1 - d], thread[1 - d]
                    q = c
                    while not far_flags[q]:
                        q = far[q]
                    far[q] = s
            self.balance[s] = self.balance[h]
            parent[s] = parent[h]
            self._replace_child(parent[h], h, s)
        self.size -= 1
        self._release(h)
        self._rebalance_delete(p, side, stats)

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

    def _rebalance_delete(self, x: int, side: int,
                          stats: Optional[VisitStats]) -> None:
        """Walk up from ``x``, whose subtree on ``side`` lost one level."""
        left, parent, balance = self.link[0], self.parent, self.balance
        while x != DUMMY:
            if stats is not None:
                stats.tree_nodes_visited += 1
            s = 2 * side - 1
            b = balance[x]
            if b == 0:
                balance[x] = -s
                return
            if b == s:
                balance[x] = 0
                sub = x
            else:
                sub, done = self._fix_heavy(x, 1 - side, stats)
                if done:
                    return
            p = parent[sub]
            if p == DUMMY:
                return
            side = 0 if left[p] == sub else 1
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
        self.rotations += 1
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

    def validate(self) -> list[str]:
        """Check every structural invariant; returns a list of violations."""
        out: list[str] = []
        key, parent, balance = self.key, self.parent, self.balance
        left, right = self.link
        lthread, rthread = self.thread
        if key[DUMMY] is not None:
            out.append("dummy: key is not empty")
        if rthread[DUMMY] or right[DUMMY] != DUMMY:
            out.append("dummy: right slot must be a child link to itself")
        if self.size == 0:
            if not lthread[DUMMY] or left[DUMMY] != DUMMY:
                out.append("dummy: empty tree must thread its root slot to itself")
            return out
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

        # strict key ordering along the recursive inorder
        for a, b in zip(order, order[1:]):
            if not key[a] < key[b]:
                out.append(f"ordering: key {key[a]!r} !< {key[b]!r}")

        # thread walk must reproduce the recursive inorder node-for-node
        walk_handles = []
        h = self.in_succ(DUMMY)
        limit = self.size + 1
        while h != DUMMY and len(walk_handles) <= limit:
            walk_handles.append(h)
            h = self.in_succ(h)
        if walk_handles != order:
            out.append("threads: successor walk disagrees with recursive inorder")
        back = []
        h = self.in_pred(DUMMY)
        while h != DUMMY and len(back) <= limit:
            back.append(h)
            h = self.in_pred(h)
        if back != list(reversed(order)):
            out.append("threads: predecessor walk disagrees with recursive inorder")

        # each thread slot must target the inorder neighbour
        pos = {h: i for i, h in enumerate(order)}
        for h in order:
            if lthread[h]:
                expect = order[pos[h] - 1] if pos[h] > 0 else DUMMY
                if left[h] != expect:
                    out.append(f"node {h}: left thread -> {left[h]}, expected {expect}")
            if rthread[h]:
                expect = order[pos[h] + 1] if pos[h] + 1 < len(order) else DUMMY
                if right[h] != expect:
                    out.append(f"node {h}: right thread -> {right[h]}, expected {expect}")

        bound = 1.45 * math.log2(self.size + 2)
        if total_height > bound:
            out.append(f"height {total_height} exceeds balance bound {bound:.2f}")
        return out
