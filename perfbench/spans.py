"""In-process spans and garbage-collector timing for the traced benchmark run.

Spans come from the benchmark's side only: ``Tracer.installed`` replaces
chosen functions and methods of the library with timing wrappers for the
duration of a ``with`` block and puts the originals back afterwards.  The
library's source is never edited.

Spans are aggregated as they close rather than kept one by one: per name,
the number of calls, the summed duration and the summed self time.  Self
time is a span's duration minus the time covered by the spans it caused
(its direct children on the call stack), so the self times of all spans in
one request add up to that request's traced wall time.
"""

from __future__ import annotations

import functools
import gc
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    """Aggregated span timings for a set of wrapped callables."""

    def __init__(self, targets):
        # targets: iterable of (owner, attribute, span name)
        self.targets = list(targets)
        self.totals: dict[str, list[int]] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        self.totals = {name: [0, 0, 0] for _, _, name in self.targets}

    def _wrap(self, fn, name):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                agg = tracer.totals[name]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - child
                if stack:
                    stack[-1] += dt

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs; counts start from zero."""
        self.reset()
        saved = []
        try:
            for owner, attr, name in self.targets:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
            self._stack.clear()

    def calls(self, name: str) -> int:
        return self.totals[name][0]

    def total_ns(self, name: str) -> int:
        return self.totals[name][1]

    def self_ns(self, name: str) -> int:
        return self.totals[name][2]


class GcClock:
    """Time spent in garbage collection, from ``gc.callbacks``."""

    def __init__(self):
        self.ns = 0
        self.gen2 = 0
        self._t0 = 0

    def _callback(self, phase, info):
        if phase == "start":
            self._t0 = perf_counter_ns()
        else:
            self.ns += perf_counter_ns() - self._t0
            if info["generation"] == 2:
                self.gen2 += 1

    @contextmanager
    def running(self):
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)

    def read(self) -> tuple[int, int]:
        """(collection ns, gen-2 collections) so far."""
        return self.ns, self.gen2
