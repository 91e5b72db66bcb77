"""Deterministic dataset and query-window generation.

Everything here is a pure function of its parameters plus the seed, so
benchmark and verification runs can be reproduced from the command line
alone.  Points are distinct k-tuples in [0, bound)^k; windows are lists
of k inclusive (lo, hi) pairs inside the same universe.
"""

from __future__ import annotations

import random


class GenerationError(ValueError):
    """Requested workload cannot exist (e.g. more points than the universe)."""


def _capacity(k: int, bound: int) -> int:
    return bound ** k


def _decode(v: int, k: int, bound: int) -> tuple:
    out = []
    for _ in range(k):
        v, c = divmod(v, bound)
        out.append(c)
    return tuple(out)


def uniform_points(n: int, k: int, bound: int, seed: int) -> list[tuple]:
    """n distinct points drawn uniformly."""
    cap = _capacity(k, bound)
    if n > cap:
        raise GenerationError(f"cannot draw {n} distinct points from a "
                              f"universe of {cap}")
    rng = random.Random(seed)
    if cap <= 4 * n or cap <= 10 ** 6:
        # dense request: rejection would crawl, sample codes instead
        return [_decode(v, k, bound) for v in rng.sample(range(cap), n)]
    seen = set()
    out = []
    while len(out) < n:
        p = tuple(rng.randrange(bound) for _ in range(k))
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def clustered_points(n: int, k: int, bound: int, seed: int) -> list[tuple]:
    """n distinct points in tight Gaussian blobs around random centers.

    Each draw picks a center and adds rounded Gaussian noise, clamped to
    the universe.  If duplicates keep colliding the spread widens, so
    generation always terminates even for crowded universes.
    """
    cap = _capacity(k, bound)
    if n > cap:
        raise GenerationError(f"cannot draw {n} distinct points from a "
                              f"universe of {cap}")
    rng = random.Random(seed)
    clusters = max(1, min(32, n // 20 or 1))
    centers = [tuple(rng.randrange(bound) for _ in range(k))
               for _ in range(clusters)]
    sigma = max(1.0, bound / 64)
    seen = set()
    out = []
    misses = 0
    while len(out) < n:
        c = centers[rng.randrange(clusters)]
        p = tuple(min(bound - 1, max(0, round(rng.gauss(c[j], sigma))))
                  for j in range(k))
        if p in seen:
            misses += 1
            if misses >= 200:
                sigma = min(float(bound), sigma * 2)
                misses = 0
            continue
        seen.add(p)
        out.append(p)
    return out


def make_points(n: int, k: int, bound: int, dist: str, seed: int) -> list[tuple]:
    if dist == "uniform":
        return uniform_points(n, k, bound, seed)
    if dist == "clustered":
        return clustered_points(n, k, bound, seed)
    raise GenerationError(f"unknown distribution {dist!r}")


def random_windows(m: int, k: int, bound: int, seed: int
                   ) -> list[list[tuple[int, int]]]:
    """m windows; each range spans two uniform draws."""
    rng = random.Random(seed)
    out = []
    for _ in range(m):
        w = []
        for _ in range(k):
            a, b = rng.randrange(bound), rng.randrange(bound)
            w.append((min(a, b), max(a, b)))
        out.append(w)
    return out


def span_windows(m: int, k: int, bound: int, spans, seed: int
                 ) -> list[list[tuple[int, int]]]:
    """m windows with a fixed per-dimension extent."""
    rng = random.Random(seed)
    out = []
    for _ in range(m):
        w = []
        for j in range(k):
            s = max(1, min(int(spans[j]), bound))
            lo = rng.randrange(bound - s + 1)
            w.append((lo, lo + s - 1))
        out.append(w)
    return out


def mixed_bench_windows(m: int, k: int, bound: int, seed: int
                        ) -> list[list[tuple[int, int]]]:
    """Three selectivity bands (narrow, medium, wide), m windows total."""
    thirds = [m - 2 * (m // 3), m // 3, m // 3]
    out = []
    for i, frac in enumerate((64, 16, 4)):
        span = max(1, bound // frac)
        out.extend(span_windows(thirds[i], k, bound, [span] * k, seed + i))
    return out
