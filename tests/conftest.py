"""Shared generators for randomized tests.

Everything is driven by explicit ``random.Random`` instances with pinned
seeds; no test depends on global RNG state.
"""

from __future__ import annotations

import random

from redcycle import Quiver, classify
from redcycle.framing import Color, _color, _positions, _read, framed
from redcycle.quiver import _mutated_rows
from redcycle.search import WEIGHT_GUARDRAIL


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
    interior vertex (every such mutation gives a fork or abundant acyclic)."""
    while True:
        q = random_abundant_acyclic(rng, max_n=max_n)
        if q.rank < 3:
            continue
        interior = [v for v in q.mutable_labels if v not in q.sources() + q.sinks()]
        candidates = interior or list(q.mutable_labels)
        f = q.mutate(rng.choice(candidates))
        if classify(f).is_fork:
            return f


def mutate_matrix(b: list[list[int]], k: int) -> list[list[int]]:
    """Reference mutation of a plain exchange matrix at index ``k``.

    ``b'_ij = -b_ij`` if ``k`` is ``i`` or ``j``, else
    ``b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2``.  Python integers are
    unbounded, so there is no 64-bit guard, and no entry is ever cleared:
    this is the textbook rule, independent of ``Quiver.mutate``.
    """
    n = len(b)
    return [
        [
            -b[i][j] if k in (i, j)
            else b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
            for j in range(n)
        ]
        for i in range(n)
    ]


def random_sequence(rng: random.Random, q: Quiver, max_len: int, reduced: bool = False) -> tuple[int, ...]:
    seq: list[int] = []
    length = rng.randint(0, max_len)
    while len(seq) < length:
        v = rng.choice(q.mutable_labels)
        if reduced and seq and seq[-1] == v:
            continue
        seq.append(v)
    return tuple(seq)


def reference_search_reddening(
    q: Quiver,
    max_len: int,
    reduced_only: bool = False,
    green_only: bool = False,
    first_only: bool = False,
    prune_revisited: bool = False,
    weight_limit: int = WEIGHT_GUARDRAIL,
) -> tuple[tuple, int]:
    """Reference reddening search: the recursive depth-first walk that
    ``search_reddening`` replaced, unchanged apart from its annotations and
    its return value ``(sequences, overflow_branches)``.  Python's recursion
    limit bounds ``max_len`` here to somewhat under 1,000."""
    start = framed(q)
    mutable, at, cols = pos = _positions(start)
    rows0 = [list(row) for row in start.rows()]

    found = []
    overflow = 0
    stop = False

    def all_red(rows):
        return all(rows[i][c] <= 0 for i in at for c in cols)

    def dfs(rows, seq, path, depth):
        nonlocal overflow, stop
        if stop or depth == max_len:
            return
        last = seq[-1] if seq else None
        for i, v in zip(at, mutable):
            if reduced_only and v == last:
                continue
            if green_only and _color([rows[i][c] for c in cols], v) is not Color.GREEN:
                continue
            child = _mutated_rows(rows, i, cols)
            if any(abs(x) > weight_limit for row in child for x in row):
                overflow += 1
                continue
            key = None
            if prune_revisited:
                key = tuple(tuple(row) for row in child)
                if key in path:
                    continue
            child_seq = seq + (v,)
            if all_red(child):
                found.append((child_seq, _read(child, pos).reddening_permutation()))
                if first_only:
                    stop = True
                    return
            if prune_revisited:
                path.add(key)
            dfs(child, child_seq, path, depth + 1)
            if prune_revisited:
                path.discard(key)
            if stop:
                return

    path = set()
    if prune_revisited:
        path.add(tuple(tuple(row) for row in rows0))
    dfs(rows0, (), path, 0)
    found.sort(key=lambda item: item[0])
    return tuple(found), overflow
