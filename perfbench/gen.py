"""Seeded graph generators owned by the benchmark.

The benchmark makes its own inputs so that no change to the program can
change them.  Every generator returns ``{(u, v): weight}`` with
``u < v``, integer vertices ``0..n-1`` and integer weights: sums of
integers are exact in floating point, so served cut values can be
compared with networkx for equality.  Every graph is connected (each
family starts from a Hamiltonian cycle of its parts).
"""

from __future__ import annotations

import random

Edges = dict  # {(u, v): weight}, u < v


def _add(edges: Edges, u: int, v: int, w: int) -> None:
    if u == v:
        return
    key = (u, v) if u < v else (v, u)
    edges[key] = edges.get(key, 0) + w


def planted(n: int, rng: random.Random) -> Edges:
    """Two dense communities (weight-4 edges, average degree ~6) joined
    by three weight-1 edges: the min cut is the planted bipartition."""
    half = n // 2
    edges: Edges = {}
    for lo, hi in ((0, half), (half, n)):
        size = hi - lo
        for i in range(size):
            _add(edges, lo + i, lo + (i + 1) % size, 4)
        for _ in range(2 * size):
            _add(edges, rng.randrange(lo, hi), rng.randrange(lo, hi), 4)
    for _ in range(3):
        _add(edges, rng.randrange(0, half), rng.randrange(half, n), 1)
    return edges


def expander(n: int, rng: random.Random, degree: int = 4) -> Edges:
    """A near-regular expander: a Hamiltonian cycle plus ``degree - 2``
    random perfect matchings, weights 1..3.  The min cut is a degree
    cut, not a community split."""
    edges: Edges = {}
    for i in range(n):
        _add(edges, i, (i + 1) % n, rng.randint(1, 3))
    for _ in range(degree - 2):
        order = list(range(n))
        rng.shuffle(order)
        for i in range(0, n - 1, 2):
            _add(edges, order[i], order[i + 1], rng.randint(1, 3))
    return edges


def clustered(n: int, rng: random.Random, clusters: int = 4) -> Edges:
    """``clusters`` dense groups (cycle plus each other pair with
    probability 0.3, weight 4) on a ring joined by two weight-1 edges
    between neighbouring groups."""
    bounds = [round(c * n / clusters) for c in range(clusters + 1)]
    groups = [list(range(bounds[c], bounds[c + 1])) for c in range(clusters)]
    edges: Edges = {}
    for members in groups:
        size = len(members)
        for i in range(size):
            _add(edges, members[i], members[(i + 1) % size], 4)
        for i in range(size):
            for j in range(i + 2, size):
                if rng.random() < 0.3:
                    _add(edges, members[i], members[j], 4)
    for c in range(clusters):
        a, b = groups[c], groups[(c + 1) % clusters]
        for _ in range(2):
            _add(edges, rng.choice(a), rng.choice(b), 1)
    return edges


FAMILIES = {"planted": planted, "expander": expander, "clustered": clustered}


def make(family: str, n: int, seed: int) -> Edges:
    return FAMILIES[family](n, random.Random(seed))
