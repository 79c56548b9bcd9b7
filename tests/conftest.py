"""Shared generators for randomized tests.

Everything is driven by explicit ``random.Random`` instances with pinned
seeds; no test depends on global RNG state.
"""

from __future__ import annotations

import random

from redcycle import Quiver, classify


def random_quiver(rng: random.Random, max_n: int = 8, max_weight: int = 9, min_n: int = 2) -> Quiver:
    """A random quiver on 1..max_n vertices with |b| <= max_weight."""
    n = rng.randint(min_n, max_n)
    labels = list(range(1, n + 1))
    arrows = []
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.randint(-max_weight, max_weight)
            if w > 0:
                arrows.append((labels[i], labels[j], w))
            elif w < 0:
                arrows.append((labels[j], labels[i], -w))
    return Quiver.from_arrows(labels, arrows)


def random_abundant_acyclic(rng: random.Random, max_n: int = 5, max_weight: int = 6) -> Quiver:
    """A random abundant acyclic quiver: orient every pair along a random
    vertex order with weight >= 2."""
    n = rng.randint(2, max_n)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    arrows = []
    for i in range(n):
        for j in range(i + 1, n):
            arrows.append((order[i], order[j], rng.randint(2, max_weight)))
    return Quiver.from_arrows(range(1, n + 1), arrows)


def random_fork(rng: random.Random, max_n: int = 5) -> Quiver:
    """A random fork, produced by mutating an abundant acyclic quiver at an
    interior vertex (every such mutation gives a fork or abundant acyclic).

    Raises AssertionError when 1,000 mutations give no fork, so a
    ``classify`` that never reports one fails the test instead of hanging it.
    """
    for _ in range(1000):
        q = random_abundant_acyclic(rng, max_n=max_n)
        if q.rank < 3:
            continue
        interior = [v for v in q.mutable_labels if v not in q.sources() + q.sinks()]
        candidates = interior or list(q.mutable_labels)
        f = q.mutate(rng.choice(candidates))
        if classify(f).is_fork:
            return f
    raise AssertionError("no fork in 1,000 attempts")


def random_sequence(rng: random.Random, q: Quiver, max_len: int, reduced: bool = False) -> tuple[int, ...]:
    seq: list[int] = []
    length = rng.randint(0, max_len)
    while len(seq) < length:
        v = rng.choice(q.mutable_labels)
        if reduced and seq and seq[-1] == v:
            continue
        seq.append(v)
    return tuple(seq)
