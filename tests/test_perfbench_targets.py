"""The traced benchmark run, ``perfbench/run.py --trace 1``, against the
library: every function its tracer wraps is still defined where the
tracer looks it up, and a traced run answers and counts as an untraced
one does.  The suite never runs the traced benchmark itself, so without
this a removed or moved method would break it unseen.  ``run.py`` is
loaded as it runs, with ``perfbench/`` on ``sys.path``; nothing in
``perfbench/`` is changed."""

import dataclasses
import importlib.util
import pathlib
import random
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run():
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_every_traced_target_is_defined_on_its_owner(run):
    # Tracer.installed reads each target as owner.__dict__[attr]
    targets = run.tracer_for().targets
    assert targets
    for owner, attr, name in targets:
        assert attr in owner.__dict__, name


def ops_on(tk, idx, rng):
    """A seeded mix of window queries, inserts, deletes and contains on
    ``idx``; one record per call, its result and its counters."""
    out = []
    live = sorted(idx.points())
    for step in range(600):
        r = rng.random()
        st = tk.VisitStats()
        if r < 0.3:
            p = tuple(rng.randrange(64) for _ in range(3))
            out.append(("insert", p, idx.insert(p, st)))
        elif r < 0.6:
            p = rng.choice(live)
            out.append(("delete", p, idx.delete(p, st)))
        elif r < 0.8:
            p = (rng.choice(live) if rng.random() < 0.5
                 else tuple(rng.randrange(64) for _ in range(3)))
            out.append(("contains", p, idx.contains(p)))
        else:
            lo = [rng.randrange(64) for _ in range(3)]
            w = [(a, min(63, a + rng.randrange(4, 24))) for a in lo]
            # looked up on the module, where the tracer wraps it
            out.append(("query", w, tk.query.window_query(idx, w, st)[0]))
        out.append(dataclasses.astuple(st))
        if step % 50 == 0:
            live = sorted(idx.points())
    return out


def test_traced_run_answers_and_counts_as_untraced(run):
    # k = 3, 3,000 points in [0, 64)^3: level 0 and most level-1 groups
    # keep tries, the last level's groups counts, so updates reach both
    tk = run.tk
    rng = random.Random(17)
    points = {tuple(rng.randrange(64) for _ in range(3)) for _ in range(3000)}
    plain = tk.KdPointIndex.from_points(3, 64, points)
    traced = tk.KdPointIndex.from_points(3, 64, points)
    want = ops_on(tk, plain, random.Random(5))
    tracer = run.tracer_for()
    with tracer.installed():
        got = ops_on(tk, traced, random.Random(5))
    assert got == want
    for name in ("query.window_query", "index.insert", "index.delete",
                 "index.contains", "tree.insert_after", "tree.delete_node",
                 "trie.succ_geq", "trie.insert", "trie.delete"):
        assert tracer.calls(name) > 0, name
    assert plain.validate() == traced.validate() == []
    assert list(plain.points()) == list(traced.points())
