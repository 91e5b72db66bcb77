"""Height-balanced binary search tree with two-way inorder threads.

Nodes live in an arena and are addressed by integer handles; handle 0 is
a permanent dummy node that bounds the inorder sequence on both sides.
Empty child slots hold threads: the left slot of a node threads to its
inorder predecessor, the right slot to its successor, so succ/pred steps
need no parent search and the first/last nodes thread to the dummy.

Insertion takes a position hint (the would-be predecessor) instead of
searching by key; callers locate positions through external structures.
Deletion relocates the inorder successor into the removed node's place
instead of copying keys, so surviving handles stay valid for any outside
references held to them.  ``from_sorted`` builds a perfectly balanced
tree from sorted keys in one pass.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from .stats import VisitStats

DUMMY = 0


class OrderingError(ValueError):
    """Key does not fall strictly between the hinted position and its successor."""


class InvalidTargetError(ValueError):
    """Operation aimed at the dummy node or a dead handle."""


class TreeNode:
    """One arena cell: key, two tagged links, balance, and index payload.

    ``left``/``right`` hold a handle; the matching ``lthread``/``rthread``
    flag says whether it is a thread (True) or a child link (False).
    ``balance`` is height(right) - height(left).  ``cross_link`` and
    ``trie`` are payload slots owned by the multi-level index; the tree
    itself never reads them.
    """

    __slots__ = ("key", "left", "right", "lthread", "rthread", "parent",
                 "balance", "cross_link", "trie")

    def __init__(self, key: Optional[tuple]):
        self.key = key
        self.left = DUMMY
        self.right = DUMMY
        self.lthread = True
        self.rthread = True
        self.parent = DUMMY
        self.balance = 0
        self.cross_link: Optional[int] = None
        self.trie: Optional[Any] = None


def _link_balanced(nodes: list, handles: Sequence[int], lo: int, hi: int,
                   parent: int) -> tuple[int, int]:
    """Link the nodes of keys[lo:hi] (handles lo+1 .. hi) as a perfectly
    balanced subtree under ``parent``; returns its root and height."""
    mid = (lo + hi) >> 1
    h = handles[mid + 1]
    n = nodes[h]
    n.parent = parent
    hl = hr = 0
    if lo < mid:
        n.left, hl = _link_balanced(nodes, handles, lo, mid, h)
        n.lthread = False
    else:
        n.left = handles[mid]
    if mid + 1 < hi:
        n.right, hr = _link_balanced(nodes, handles, mid + 1, hi, h)
        n.rthread = False
    else:
        n.right = handles[mid + 2]
    n.balance = hr - hl
    return h, max(hl, hr) + 1


class ThreadedAvlTree:
    """AVL tree over tuple keys with threads replacing empty child slots.

    Single writer, multiple readers: mutating calls need exclusive access,
    reads are safe whenever no mutation is in flight.
    """

    def __init__(self):
        dummy = TreeNode(None)
        # Dummy arrangement: left slot is the root link (thread to self when
        # empty), right slot is a child link to itself so that succ/pred of
        # the dummy resolve to the first/last real node.
        dummy.rthread = False
        self.nodes: list[TreeNode] = [dummy]
        self.free: list[int] = []
        self.size = 0
        self.rotations = 0

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
        nodes = tree.nodes
        nodes.extend(map(TreeNode, keys))
        d = nodes[DUMMY]
        d.left, _ = _link_balanced(nodes, handles, 0, n, DUMMY)
        d.lthread = False
        nodes[n].right = DUMMY
        tree.size = n
        return tree

    # -- handle helpers -------------------------------------------------

    def node(self, h: int) -> TreeNode:
        return self.nodes[h]

    def _alive(self, h: int) -> bool:
        if not 0 <= h < len(self.nodes):
            return False
        return h == DUMMY or self.nodes[h].key is not None

    def _alloc(self, key: tuple) -> int:
        if self.free:
            h = self.free.pop()
            n = self.nodes[h]
            n.key = key
            n.left = n.right = DUMMY
            n.lthread = n.rthread = True
            n.parent = DUMMY
            n.balance = 0
            n.cross_link = None
            n.trie = None
            return h
        self.nodes.append(TreeNode(key))
        return len(self.nodes) - 1

    def _release(self, h: int) -> None:
        n = self.nodes[h]
        n.key = None
        n.cross_link = None
        n.trie = None
        self.free.append(h)

    @property
    def root(self) -> int:
        """Handle of the root node, or DUMMY when empty."""
        d = self.nodes[DUMMY]
        return DUMMY if d.lthread else d.left

    # -- ordered navigation ---------------------------------------------

    def in_succ(self, h: int, stats: Optional[VisitStats] = None) -> int:
        """Inorder successor handle; DUMMY after the last node."""
        nodes = self.nodes
        n = nodes[h]
        q = n.right
        if stats is not None:
            stats.threads_followed += 1
        if n.rthread:
            return q
        while not nodes[q].lthread:
            q = nodes[q].left
            if stats is not None:
                stats.threads_followed += 1
        return q

    def in_pred(self, h: int, stats: Optional[VisitStats] = None) -> int:
        """Inorder predecessor handle; DUMMY before the first node."""
        nodes = self.nodes
        n = nodes[h]
        q = n.left
        if stats is not None:
            stats.threads_followed += 1
        if n.lthread:
            return q
        while not nodes[q].rthread:
            q = nodes[q].right
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
        for h in self.inorder():
            yield self.nodes[h].key

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
        nodes = self.nodes
        succ = self.in_succ(pos, stats)
        if pos != DUMMY and not nodes[pos].key < key:
            raise OrderingError(f"key {key!r} not greater than position key "
                                f"{nodes[pos].key!r}")
        if succ != DUMMY and not key < nodes[succ].key:
            raise OrderingError(f"key {key!r} not less than successor key "
                                f"{nodes[succ].key!r}")

        h = self._alloc(key)
        z = nodes[h]
        if stats is not None:
            stats.tree_nodes_visited += 2
        if pos == DUMMY:
            if self.size == 0:
                d = nodes[DUMMY]
                z.left = DUMMY
                z.right = DUMMY
                d.left = h
                d.lthread = False
            else:
                # new first node: succ is the current leftmost, left slot free
                f = nodes[succ]
                z.left = DUMMY
                z.right = succ
                z.parent = succ
                f.left = h
                f.lthread = False
        else:
            p = nodes[pos]
            if p.rthread:
                z.left = pos
                z.right = p.right
                z.parent = pos
                p.right = h
                p.rthread = False
            else:
                # successor is leftmost of pos's right subtree; its left slot is free
                s = nodes[succ]
                z.left = pos
                z.right = succ
                z.parent = succ
                s.left = h
                s.lthread = False
        self.size += 1
        self._rebalance_insert(h, stats)
        return h

    def _rebalance_insert(self, h: int, stats: Optional[VisitStats]) -> None:
        nodes = self.nodes
        child = h
        x = nodes[child].parent
        while x != DUMMY:
            xn = nodes[x]
            if stats is not None:
                stats.tree_nodes_visited += 1
            if not xn.rthread and xn.right == child:
                if xn.balance > 0:
                    self._fix_right_heavy(x, stats)
                    return
                if xn.balance < 0:
                    xn.balance = 0
                    return
                xn.balance = 1
            else:
                if xn.balance < 0:
                    self._fix_left_heavy(x, stats)
                    return
                if xn.balance > 0:
                    xn.balance = 0
                    return
                xn.balance = -1
            child = x
            x = xn.parent

    # -- deletion --------------------------------------------------------

    def delete_node(self, h: int, stats: Optional[VisitStats] = None) -> None:
        """Remove the node at handle ``h``, restoring threads and balance."""
        if h == DUMMY or not self._alive(h):
            raise InvalidTargetError(f"handle {h} is not a deletable node")
        nodes = self.nodes
        n = nodes[h]
        if stats is not None:
            stats.tree_nodes_visited += 1
        if n.lthread or n.rthread:
            p, side = self._detach(h, stats)
            self.size -= 1
            self._release(h)
            self._rebalance_delete(p, side, stats)
            return

        # two children: relocate the inorder successor into h's position
        s = self.in_succ(h, stats)
        sn = nodes[s]
        if n.right == s:
            # successor is the direct right child (no left child of its own)
            p = n.parent
            sn.left = n.left
            sn.lthread = False
            nodes[n.left].parent = s
            sn.balance = n.balance
            sn.parent = p
            self._replace_child(p, h, s)
            # predecessor's right thread pointed at h
            q = n.left
            while not nodes[q].rthread:
                q = nodes[q].right
            nodes[q].right = s
            self.size -= 1
            self._release(h)
            self._rebalance_delete(s, "R", stats)
        else:
            ps, side_s = self._detach(s, stats)
            sn.left = n.left
            sn.lthread = False
            nodes[n.left].parent = s
            sn.right = n.right
            sn.rthread = False
            nodes[n.right].parent = s
            sn.balance = n.balance
            p = n.parent
            sn.parent = p
            self._replace_child(p, h, s)
            # threads that pointed at h now belong to s
            q = sn.left
            while not nodes[q].rthread:
                q = nodes[q].right
            nodes[q].right = s
            q = sn.right
            while not nodes[q].lthread:
                q = nodes[q].left
            nodes[q].left = s
            self.size -= 1
            self._release(h)
            self._rebalance_delete(ps, side_s, stats)

    def _replace_child(self, p: int, old: int, new: int) -> None:
        pn = self.nodes[p]
        if not pn.lthread and pn.left == old:
            pn.left = new
        else:
            pn.right = new

    def _detach(self, h: int, stats: Optional[VisitStats]) -> tuple[int, str]:
        """Unlink a node with at most one child; returns (parent, shrunk side)."""
        nodes = self.nodes
        n = nodes[h]
        p = n.parent
        pn = nodes[p]
        side = "L" if (not pn.lthread and pn.left == h) else "R"
        if n.lthread and n.rthread:
            if side == "L":
                pn.left = n.left          # thread to h's predecessor
                pn.lthread = True
            else:
                pn.right = n.right        # thread to h's successor
                pn.rthread = True
        elif not n.lthread:
            sub = n.left
            if side == "L":
                pn.left = sub
            else:
                pn.right = sub
            nodes[sub].parent = p
            # rightmost of the lifted subtree threaded to h; retarget to h's successor
            q = sub
            while not nodes[q].rthread:
                q = nodes[q].right
                if stats is not None:
                    stats.threads_followed += 1
            nodes[q].right = n.right
        else:
            sub = n.right
            if side == "L":
                pn.left = sub
            else:
                pn.right = sub
            nodes[sub].parent = p
            q = sub
            while not nodes[q].lthread:
                q = nodes[q].left
                if stats is not None:
                    stats.threads_followed += 1
            nodes[q].left = n.left
        return p, side

    def _rebalance_delete(self, x: int, side: str,
                          stats: Optional[VisitStats]) -> None:
        nodes = self.nodes
        while x != DUMMY:
            xn = nodes[x]
            if stats is not None:
                stats.tree_nodes_visited += 1
            if side == "L":
                if xn.balance == 0:
                    xn.balance = 1
                    return
                if xn.balance < 0:
                    xn.balance = 0
                    sub = x
                else:
                    sub, done = self._fix_right_heavy(x, stats)
                    if done:
                        return
            else:
                if xn.balance == 0:
                    xn.balance = -1
                    return
                if xn.balance > 0:
                    xn.balance = 0
                    sub = x
                else:
                    sub, done = self._fix_left_heavy(x, stats)
                    if done:
                        return
            p = nodes[sub].parent
            if p == DUMMY:
                return
            pn = nodes[p]
            side = "L" if (not pn.lthread and pn.left == sub) else "R"
            x = p

    # -- rotations -------------------------------------------------------

    def _fix_right_heavy(self, x: int, stats: Optional[VisitStats]):
        """Resolve a +2 imbalance at x.  Returns (subtree root, height kept)."""
        nodes = self.nodes
        z = nodes[x].right
        zb = nodes[z].balance
        if stats is not None:
            stats.rotations += 1
        if zb >= 0:
            self._rotate_left(x)
            if zb == 0:
                nodes[x].balance = 1
                nodes[z].balance = -1
                return z, True
            nodes[x].balance = 0
            nodes[z].balance = 0
            return z, False
        w = nodes[z].left
        wb = nodes[w].balance
        self._rotate_right(z)
        self._rotate_left(x)
        nodes[x].balance = -1 if wb > 0 else 0
        nodes[z].balance = 1 if wb < 0 else 0
        nodes[w].balance = 0
        return w, False

    def _fix_left_heavy(self, x: int, stats: Optional[VisitStats]):
        nodes = self.nodes
        z = nodes[x].left
        zb = nodes[z].balance
        if stats is not None:
            stats.rotations += 1
        if zb <= 0:
            self._rotate_right(x)
            if zb == 0:
                nodes[x].balance = -1
                nodes[z].balance = 1
                return z, True
            nodes[x].balance = 0
            nodes[z].balance = 0
            return z, False
        w = nodes[z].right
        wb = nodes[w].balance
        self._rotate_left(z)
        self._rotate_right(x)
        nodes[x].balance = 1 if wb < 0 else 0
        nodes[z].balance = -1 if wb > 0 else 0
        nodes[w].balance = 0
        return w, False

    def _rotate_left(self, x: int) -> int:
        nodes = self.nodes
        xn = nodes[x]
        z = xn.right
        zn = nodes[z]
        self.rotations += 1
        if zn.lthread:
            # z had no left child: x keeps z as its successor via a thread
            xn.right = z
            xn.rthread = True
        else:
            b = zn.left
            xn.right = b
            nodes[b].parent = x
        zn.left = x
        zn.lthread = False
        p = xn.parent
        zn.parent = p
        self._replace_child(p, x, z)
        xn.parent = z
        return z

    def _rotate_right(self, x: int) -> int:
        nodes = self.nodes
        xn = nodes[x]
        z = xn.left
        zn = nodes[z]
        self.rotations += 1
        if zn.rthread:
            xn.left = z
            xn.lthread = True
        else:
            b = zn.right
            xn.left = b
            nodes[b].parent = x
        zn.right = x
        zn.rthread = False
        p = xn.parent
        zn.parent = p
        self._replace_child(p, x, z)
        xn.parent = z
        return z

    # -- verification ----------------------------------------------------

    def validate(self) -> list[str]:
        """Check every structural invariant; returns a list of violations."""
        out: list[str] = []
        nodes = self.nodes
        d = nodes[DUMMY]
        if d.key is not None:
            out.append("dummy: key is not empty")
        if d.rthread or d.right != DUMMY:
            out.append("dummy: right slot must be a child link to itself")
        if self.size == 0:
            if not d.lthread or d.left != DUMMY:
                out.append("dummy: empty tree must thread its root slot to itself")
            return out
        if d.lthread:
            out.append("dummy: nonempty tree lacks a root child link")
            return out

        # structural walk over child links
        seen: set[int] = set()
        order: list[int] = []
        heights: dict[int, int] = {}
        broken = False

        def walk(h: int, parent: int, lo: Optional[tuple], hi: Optional[tuple]) -> int:
            nonlocal broken
            if h in seen or h == DUMMY or not self._alive(h):
                out.append(f"node {h}: repeated or dead handle in structure")
                broken = True
                return 0
            seen.add(h)
            n = nodes[h]
            if n.parent != parent:
                out.append(f"node {h}: parent is {n.parent}, expected {parent}")
            if lo is not None and not lo < n.key:
                out.append(f"node {h}: key {n.key!r} not above subtree bound {lo!r}")
            if hi is not None and not n.key < hi:
                out.append(f"node {h}: key {n.key!r} not below subtree bound {hi!r}")
            hl = walk(n.left, h, lo, n.key) if not n.lthread else 0
            order.append(h)
            hr = walk(n.right, h, n.key, hi) if not n.rthread else 0
            if n.balance != hr - hl:
                out.append(f"node {h}: balance {n.balance} but child heights "
                           f"{hl}/{hr}")
            if abs(hr - hl) > 1:
                out.append(f"node {h}: subtree heights differ by {abs(hr - hl)}")
            height = 1 + max(hl, hr)
            heights[h] = height
            return height

        total_height = walk(self.root, DUMMY, None, None)
        if broken:
            return out
        if len(order) != self.size:
            out.append(f"size {self.size} but structure holds {len(order)} nodes")

        # strict key ordering along the recursive inorder
        for a, b in zip(order, order[1:]):
            if not nodes[a].key < nodes[b].key:
                out.append(f"ordering: key {nodes[a].key!r} !< {nodes[b].key!r}")

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
            n = nodes[h]
            if n.lthread:
                expect = order[pos[h] - 1] if pos[h] > 0 else DUMMY
                if n.left != expect:
                    out.append(f"node {h}: left thread -> {n.left}, expected {expect}")
            if n.rthread:
                expect = order[pos[h] + 1] if pos[h] + 1 < len(order) else DUMMY
                if n.right != expect:
                    out.append(f"node {h}: right thread -> {n.right}, expected {expect}")

        import math
        bound = 1.45 * math.log2(self.size + 2)
        if total_height > bound:
            out.append(f"height {total_height} exceeds balance bound {bound:.2f}")
        return out
