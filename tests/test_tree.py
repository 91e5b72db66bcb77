import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadkd.stats import VisitStats
from threadkd.tree import (DUMMY, InvalidTargetError, OrderingError,
                           ThreadedAvlTree)


def build_sequential(values):
    """Insert single-dim keys in the given order using oracle-found hints."""
    t = ThreadedAvlTree()
    oracle = []
    handles = {}
    import bisect
    for v in values:
        i = bisect.bisect_left(oracle, v)
        pos = handles[oracle[i - 1]] if i > 0 else DUMMY
        handles[v] = t.insert_after(pos, (v,))
        oracle.insert(i, v)
    return t, handles, oracle


def height(t, h=None):
    if h is None:
        h = t.root
    if h == DUMMY:
        return 0
    hl = height(t, t.link[0][h]) if not t.thread[0][h] else 0
    hr = height(t, t.link[1][h]) if not t.thread[1][h] else 0
    return 1 + max(hl, hr)


def test_empty_tree():
    t = ThreadedAvlTree()
    assert t.size == 0
    assert t.root == DUMMY
    assert t.first() == DUMMY
    assert t.last() == DUMMY
    assert list(t.keys()) == []
    assert t.validate() == []


def test_single_insert_via_dummy():
    t = ThreadedAvlTree()
    h = t.insert_after(DUMMY, (5,))
    assert t.root == h
    assert t.first() == h and t.last() == h
    assert t.in_succ(h) == DUMMY and t.in_pred(h) == DUMMY
    assert t.validate() == []


def test_three_ascending_rotates_to_middle():
    # appending 2, 6, 8 forces one left rotation; 6 ends up on top
    t, st_ = ThreadedAvlTree(), VisitStats()
    a = t.insert_after(DUMMY, (2,), st_)
    b = t.insert_after(a, (6,), st_)
    t.insert_after(b, (8,), st_)
    assert t.key[t.root] == (6,)
    assert [k[0] for k in t.keys()] == [2, 6, 8]
    assert st_.rotations == 1
    assert t.validate() == []


def test_seven_ascending_is_perfect():
    t, handles, _ = build_sequential(range(1, 8))
    assert t.key[t.root] == (4,)
    assert height(t) == 3
    for v in range(1, 8):
        assert t.balance[handles[v]] == 0
    assert t.validate() == []


def test_insert_new_first():
    t, handles, _ = build_sequential([10, 20, 30])
    h = t.insert_after(DUMMY, (5,))
    assert t.first() == h
    assert [k[0] for k in t.keys()] == [5, 10, 20, 30]
    assert t.validate() == []


def test_insert_between_via_hint():
    t, handles, _ = build_sequential([10, 30])
    h = t.insert_after(handles[10], (20,))
    assert t.in_pred(h) == handles[10]
    assert t.in_succ(h) == handles[30]
    assert t.validate() == []


def test_insert_rejects_misordered_key():
    t, handles, _ = build_sequential([10, 20, 30])
    with pytest.raises(OrderingError):
        t.insert_after(handles[10], (30,))   # collides past successor
    with pytest.raises(OrderingError):
        t.insert_after(handles[20], (20,))   # equal to position
    with pytest.raises(OrderingError):
        t.insert_after(handles[30], (5,))
    with pytest.raises(OrderingError):
        t.insert_after(DUMMY, (15,))         # not below current first
    assert t.validate() == []


def test_insert_rejects_dead_handle():
    t, handles, _ = build_sequential([1, 2, 3])
    t.delete_node(handles[2])
    with pytest.raises(InvalidTargetError):
        t.insert_after(handles[2], (2,))


def test_delete_leaf():
    t, handles, _ = build_sequential([10, 20, 30])
    t.delete_node(handles[10])
    assert [k[0] for k in t.keys()] == [20, 30]
    assert t.validate() == []


def test_delete_single_child_node():
    t, handles, _ = build_sequential([10, 20, 30, 5])
    # 10 holds only the left child 5
    t.delete_node(handles[10])
    assert [k[0] for k in t.keys()] == [5, 20, 30]
    assert t.validate() == []


def test_delete_two_children_successor_is_right_child():
    t, handles, _ = build_sequential([20, 10, 30])
    t.delete_node(handles[20])
    assert [k[0] for k in t.keys()] == [10, 30]
    assert t.validate() == []


def test_delete_two_children_deep_successor():
    t, handles, _ = build_sequential([50, 20, 70, 10, 30, 60, 80, 55])
    t.delete_node(handles[50])   # successor 55 sits below 60
    assert [k[0] for k in t.keys()] == [10, 20, 30, 55, 60, 70, 80]
    assert t.validate() == []


def test_delete_keeps_other_handles_alive():
    """Removing a two-children node must not move any surviving node."""
    t, handles, _ = build_sequential(range(1, 21))
    victim = t.key[t.root][0]
    t.delete_node(handles[victim])
    for v in range(1, 21):
        if v == victim:
            continue
        assert t.key[handles[v]] == (v,)
    assert t.validate() == []


def test_delete_down_to_empty():
    t, handles, _ = build_sequential([3, 1, 4, 1.5, 9, 2, 6])
    for v in [3, 1, 4, 1.5, 9, 2, 6]:
        t.delete_node(handles[v])
        assert t.validate() == []
    assert t.size == 0
    assert t.root == DUMMY


def test_delete_rejects_dummy_and_dead():
    t, handles, _ = build_sequential([1, 2])
    with pytest.raises(InvalidTargetError):
        t.delete_node(DUMMY)
    t.delete_node(handles[1])
    with pytest.raises(InvalidTargetError):
        t.delete_node(handles[1])


def test_thread_navigation_round_trip():
    t, handles, oracle = build_sequential(random.Random(7).sample(range(10000), 1000))
    for h in t.inorder():
        s = t.in_succ(h)
        if s != DUMMY:
            assert t.in_pred(s) == h
    assert [k[0] for k in t.keys()] == oracle
    assert t.validate() == []


def test_validate_catches_corrupt_thread():
    t, handles, _ = build_sequential([10, 20, 30, 40, 50])
    h = handles[50]
    assert t.thread[0][h]
    t.link[0][h] = handles[20]   # should thread to 40
    assert any("thread" in v for v in t.validate())


def test_validate_catches_corrupt_balance():
    t, handles, _ = build_sequential([10, 20, 30, 40, 50])
    t.balance[t.root] += 1
    assert t.validate() != []


def test_validate_catches_order_violation():
    t, handles, _ = build_sequential([10, 20, 30])
    t.key[handles[10]] = (25,)
    assert any("bound" in v for v in t.validate())


def test_fuzz_against_sorted_list():
    import bisect
    rng = random.Random(20240817)
    t = ThreadedAvlTree()
    oracle = []
    handles = {}
    for step in range(4000):
        if oracle and rng.random() < 0.4:
            v = rng.choice(oracle)
            t.delete_node(handles.pop(v))
            oracle.remove(v)
        else:
            v = rng.randrange(10**6)
            if v in handles:
                continue
            i = bisect.bisect_left(oracle, v)
            pos = handles[oracle[i - 1]] if i > 0 else DUMMY
            handles[v] = t.insert_after(pos, (v,))
            oracle.insert(i, v)
        if step % 97 == 0:
            assert t.validate() == [], f"step {step}"
            assert [k[0] for k in t.keys()] == oracle
    assert t.validate() == []
    assert [k[0] for k in t.keys()] == oracle


@given(st.lists(st.integers(0, 10**6), unique=True, max_size=120))
@settings(max_examples=60, deadline=None)
def test_arbitrary_arrival_order_stays_valid(values):
    t, handles, oracle = build_sequential(values)
    assert [k[0] for k in t.keys()] == oracle
    assert t.validate() == []


@given(st.lists(st.integers(0, 500), unique=True, min_size=1, max_size=80),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_deleting_random_subset_stays_valid(values, rnd):
    t, handles, oracle = build_sequential(values)
    doomed = [v for v in values if rnd.random() < 0.5]
    for v in doomed:
        t.delete_node(handles[v])
    survivors = sorted(set(values) - set(doomed))
    assert [k[0] for k in t.keys()] == survivors
    assert t.validate() == []


def test_arena_reuses_freed_cells():
    t, handles, _ = build_sequential(range(100))
    cells_before = len(t.key)
    for v in range(50):
        t.delete_node(handles[v])
    for v in range(200, 250):
        t.insert_after(t.last(), (v,))
    assert len(t.key) == cells_before
    assert t.validate() == []


@pytest.mark.parametrize("n", range(65))
def test_from_sorted_is_balanced(n):
    keys = [(3 * v,) for v in range(n)]
    t = ThreadedAvlTree.from_sorted(keys)
    assert t.validate() == []
    assert list(t.keys()) == keys
    assert list(t.inorder()) == list(range(1, n + 1))
    assert height(t) <= math.ceil(math.log2(n + 1))


def midpoint_reference(n):
    """Columns of the tree over n sorted keys by midpoint recursion, one
    call per node: link, thread, parent and balance, indexed by handle."""
    link = ([DUMMY] * (n + 1), [DUMMY] * (n + 1))
    thread = ([1] * (n + 1), [1] * (n + 1))
    parent = [DUMMY] * (n + 1)
    balance = [0] * (n + 1)

    def build(lo, hi, up):
        """Link keys[lo:hi] under ``up``; returns its root and height."""
        mid = (lo + hi) // 2
        h = mid + 1
        parent[h] = up
        heights = [0, 0]
        for d, (a, b) in enumerate(((lo, mid), (h, hi))):
            if a < b:
                link[d][h], heights[d] = build(a, b, h)
                thread[d][h] = 0
            else:
                # a thread to the inorder neighbour
                link[d][h] = mid + 2 * d
        balance[h] = heights[1] - heights[0]
        return h, max(heights) + 1

    thread[1][DUMMY] = 0
    if n:
        link[0][DUMMY] = build(0, n, DUMMY)[0]
        thread[0][DUMMY] = 0
        link[1][n] = DUMMY
    return link, thread, parent, balance


def test_from_sorted_matches_midpoint_recursion():
    for n in range(301):
        handles = list(range(n + 2))
        t = ThreadedAvlTree.from_sorted([(v,) for v in range(n)], handles)
        link, thread, parent, balance = midpoint_reference(n)
        for d in (0, 1):
            assert t.link[d] == link[d], (n, d)
            assert list(t.thread[d]) == thread[d], (n, d)
        assert t.parent == parent, n
        assert t.balance == balance, n
        if n:
            assert t.link[0][DUMMY] == t.root == (n >> 1) + 1
            assert not t.thread[0][DUMMY]
            assert t.link[1][n] == DUMMY and t.thread[1][n]
        else:
            assert t.root == DUMMY and t.thread[0][DUMMY]
        # every link and parent is the caller's handle object
        for col in (*t.link, t.parent):
            assert all(h is handles[h] for h in col), n


TREE_FIELDS = ("key", "link", "thread", "parent", "balance", "cross", "trie",
               "free", "size", "mutations")


def test_from_sorted_columns_have_one_cell_per_handle():
    for n in range(65):
        t = ThreadedAvlTree.from_sorted([(v,) for v in range(n)])
        columns = (t.key, *t.link, *t.thread, t.parent, t.balance, t.cross,
                   t.trie)
        assert [len(c) for c in columns] == [n + 1] * 9, n
        assert t.cross == t.trie == [None] * (n + 1), n
        assert t.free == [] and t.size == n
        assert t.mutations == 0
        assert all(type(flags) is bytearray for flags in t.thread)
    empty, fresh = ThreadedAvlTree.from_sorted([]), ThreadedAvlTree()
    for name in TREE_FIELDS:
        assert getattr(empty, name) == getattr(fresh, name), name


def test_from_sorted_tree_takes_updates():
    t = ThreadedAvlTree.from_sorted([(v,) for v in range(0, 40, 2)])
    for v in range(1, 40, 4):
        # key (v - 1,) is keys[v // 2], at handle v // 2 + 1
        t.insert_after(v // 2 + 1, (v,))
    t.delete_node(t.root)
    t.delete_node(t.first())
    assert t.validate() == []
    assert t.size == 28


@pytest.mark.parametrize("change", ["insert", "delete"])
def test_inorder_raises_after_a_change(change):
    t, handles, _ = build_sequential(range(0, 20, 2))
    it = t.keys()
    assert next(it) == (0,)
    if change == "insert":
        t.insert_after(handles[4], (5,))
    else:
        t.delete_node(handles[8])
    with pytest.raises(RuntimeError):
        next(it)


def seven():
    """A perfect 7-node tree over (1,) .. (7,), root (4,), and its handles
    by value."""
    t, handles, _ = build_sequential(range(1, 8))
    return t, handles


def dummy_key(t, hs):
    t.key[DUMMY] = ()


def dummy_right_thread(t, hs):
    t.thread[1][DUMMY] = 1


def dummy_root_thread(t, hs):
    t.thread[0][DUMMY] = 1


def dead_child(t, hs):
    # node 2's left child link aims past the arena
    t.link[0][hs[2]] = len(t.key)


def wrong_parent(t, hs):
    t.parent[hs[1]] = hs[3]


def cut_right_subtree(t, hs):
    # the root's right slot becomes a thread: its left subtree is two
    # levels taller than what is left on the right
    t.thread[1][t.root] = 1


def size_plus_one(t, hs):
    t.size += 1


def wrong_left_thread(t, hs):
    # node 5's left thread should reach 4
    t.link[0][hs[5]] = hs[2]


def size_one(t, hs):
    # seven nodes of height 3 under a size that allows 1.45 * log2(3)
    t.size = 1


def key_below_bound(t, hs):
    # node 5 sits right of the root (4,), so its key must be above it
    t.key[hs[5]] = (3,)


def key_above_bound(t, hs):
    # node 3 sits left of the root (4,), so its key must be below it
    t.key[hs[3]] = (5,)


def stale_balance(t, hs):
    # node 2's two children are both leaves
    t.balance[hs[2]] = 1


@pytest.mark.parametrize("corrupt,message", [
    (dummy_key, "dummy: key is not empty"),
    (dummy_right_thread, "dummy: right slot must be a child link to itself"),
    (dummy_root_thread, "dummy: nonempty tree lacks a root child link"),
    (dead_child, "repeated or dead handle in structure"),
    (wrong_parent, "parent is"),
    (cut_right_subtree, "subtree heights differ by 2"),
    (size_plus_one, "size 8 but structure holds 7 nodes"),
    (wrong_left_thread, "left thread ->"),
    (size_one, "exceeds balance bound"),
    (key_below_bound, "not above subtree bound"),
    (key_above_bound, "not below subtree bound"),
    (stale_balance, "balance 1 but child heights 1/1"),
])
def test_validate_reports_each_corruption(corrupt, message):
    t, hs = seven()
    assert t.validate() == []
    corrupt(t, hs)
    assert any(message in v for v in t.validate()), t.validate()


def test_validate_reports_an_empty_tree_with_a_root_link():
    t = ThreadedAvlTree()
    t.thread[0][DUMMY] = 0
    assert t.validate() == [
        "dummy: empty tree must thread its root slot to itself"]


def stale_succ(t, hs):
    # node 3's successor is 4; its succ cell skips to 5, the threads stay
    t.succ[hs[3]] = hs[5]


def stale_first(t, hs):
    # the dummy's succ cell is the first node, (1,)
    t.succ[DUMMY] = hs[2]


def stale_last(t, hs):
    # past the last node, (7,), comes DUMMY
    t.succ[hs[7]] = hs[1]


@pytest.mark.parametrize("corrupt,node,got,expect", [
    (stale_succ, 3, 5, 4),
    (stale_first, 0, 2, 1),
    (stale_last, 7, 1, 0),
])
def test_validate_reports_a_wrong_succ_cell(corrupt, node, got, expect):
    t, hs = seven()
    corrupt(t, hs)
    assert t.validate() == [f"node {node}: succ cell -> {got}, "
                            f"expected {expect}"]


def test_validate_reports_a_wrong_succ_cell_in_an_empty_tree():
    t = ThreadedAvlTree()
    t.succ[DUMMY] = 1
    assert t.validate() == ["node 0: succ cell -> 1, expected 0"]


def test_delete_counts_its_succ_read_and_relocation_walks():
    # the root (4,) of the perfect 7-node tree has two children: one succ
    # read finds (5,), and the walks to the neighbours that threaded to
    # (4,) read two slots on the left, to (2,) and (3,), and one on the
    # right, to (6,), once (5,) has left it
    t, hs = seven()
    st = VisitStats()
    t.delete_node(hs[4], st)
    assert st.threads_followed == 4
    assert t.validate() == []
