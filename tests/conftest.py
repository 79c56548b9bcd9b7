"""Shared generators for randomized tests.

Everything is driven by explicit ``random.Random`` instances with pinned
seeds; no test depends on global RNG state.
"""

from __future__ import annotations

import random

from redcycle import Permutation, Quiver, classify
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
    """Reference reddening search: a recursive depth-first walk on plain
    lists, returning ``(sequences, overflow_branches)``.

    It shares no code with the library's walk.  The framed state is the
    matrix ``[[B, I], [-I, 0]]``, stepped with :func:`mutate_matrix`, after
    which the frozen-frozen block is cleared as the library does.  Colours
    and the permutation are read straight off the C block, the top-right
    ``n x n`` block.  Python's recursion limit bounds ``max_len`` here to
    somewhat under 1,000.
    """
    mutable = q.mutable_labels
    n = len(mutable)
    b = q.rows()
    rows0 = [list(b[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    rows0 += [[-int(i == j) for j in range(n)] + [0] * n for i in range(n)]

    def step(rows, k):
        child = mutate_matrix(rows, k)
        for row in child[n:]:
            row[n:] = [0] * n
        return child

    def green(rows, i):
        return all(x >= 0 for x in rows[i][n:])

    def permutation(rows):
        # Column j of C = -P_sigma holds its -1 in row sigma(j).
        return Permutation({
            mutable[j]: mutable[next(i for i in range(n) if rows[i][n + j])]
            for j in range(n)
        })

    found = []
    overflow = 0
    stop = False

    def dfs(rows, seq, path, depth):
        nonlocal overflow, stop
        if stop or depth == max_len:
            return
        last = seq[-1] if seq else None
        for i, v in enumerate(mutable):
            if reduced_only and v == last:
                continue
            if green_only and not green(rows, i):
                continue
            child = step(rows, i)
            if any(abs(x) > weight_limit for row in child for x in row):
                overflow += 1
                continue
            key = None
            if prune_revisited:
                key = tuple(tuple(row) for row in child)
                if key in path:
                    continue
            child_seq = seq + (v,)
            if all(x <= 0 for row in child[:n] for x in row[n:]):
                found.append((child_seq, permutation(child)))
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
