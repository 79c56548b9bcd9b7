"""Slow, obviously right references for the library's fast paths.

They work on plain lists with unbounded integers and share no code with
the library.  The brute-force ones try every ordering or relabeling of the
mutable vertices, so they are only fit for small ranks (n <= 6).
"""

from __future__ import annotations

import itertools

from redcycle import Permutation, Quiver
from redcycle.search import WEIGHT_GUARDRAIL


def brute_canonical_form(q: Quiver) -> bytes:
    """The row-major minimum of the exchange matrix over all n! orderings."""
    rows, n = q.rows(), q.rank
    flat = min([rows[i][j] for i in p for j in p] for p in itertools.permutations(range(n)))
    return f"{n}|".encode() + ",".join(map(str, flat)).encode()


def brute_isomorphism(q1: Quiver, q2: Quiver) -> Permutation | None:
    """The first relabeling ``sigma`` of ``q1``'s mutable labels, in
    lexicographic order of images, with ``q1.permuted(sigma) == q2``."""
    labs = q1.mutable_labels
    for image in itertools.permutations(labs):
        sigma = Permutation(dict(zip(labs, image)))
        if q1.permuted(sigma) == q2:
            return sigma
    return None


def encode(q: Quiver) -> bytes:
    """The labeled encoding of ``q`` written from scratch, one row of
    ``q.rows()`` after another, frozen rows included (the text
    ``Quiver.encode`` must produce, for one state or along a walk)."""
    head = ",".join(map(str, q.mutable_labels))
    frame = ";".join(f"{m}>{f}" for m, f in q.frozen_pairs)
    body = ";".join(",".join(map(str, row)) for row in q.rows())
    return f"{head}|{frame}|{body}".encode("ascii")


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
    which the frozen-frozen block is cleared: a framed quiver holds no
    arrows between frozen vertices (:func:`framed_walk` takes the same
    steps).  Colours and the permutation are read straight off the C block,
    the top-right ``n x n`` block; an all-red start reports the empty
    sequence.  Python's recursion limit bounds ``max_len`` here to somewhat
    under 1,000.
    """
    mutable = q.mutable_labels
    n = len(mutable)
    rows0 = _framed(q.rows())

    def green(rows, i):
        return all(x >= 0 for x in rows[i][n:])

    def permutation(rows):
        # Column j of C = -P_sigma holds its -1 in row sigma(j).
        return Permutation({
            mutable[j]: mutable[next(i for i in range(n) if rows[i][n + j])]
            for j in range(n)
        })

    # An all-red start makes the empty sequence reddening.
    found = [((), permutation(rows0))] if all(x <= 0 for row in rows0[:n] for x in row[n:]) else []
    overflow = 0
    stop = bool(found) and first_only

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
            child = _framed_step(rows, i)
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


def determinant(rows) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for swap in range(k + 1, n):
                if m[swap][k] != 0:
                    m[k], m[swap] = m[swap], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def first_over(rows, limit: int, frozen=frozenset()) -> tuple[int, int] | None:
    """The first pair ``(i, j)``, ``i < j``, in row-major order at which the
    square matrix ``rows`` holds an entry beyond ``limit``, or None.  Pairs
    of two indices in ``frozen`` are skipped: no arrows join frozen
    vertices."""
    for i, row in enumerate(rows):
        for j in range(i + 1, len(row)):
            if abs(row[j]) > limit and not (i in frozen and j in frozen):
                return i, j
    return None


def _framed(b) -> list[list[int]]:
    """The framed matrix ``[[B, I], [-I, 0]]`` of the square matrix ``b``."""
    n = len(b)
    rows = [list(b[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    return rows + [[-int(i == j) for j in range(n)] + [0] * n for i in range(n)]


def _framed_step(rows, k: int) -> list[list[int]]:
    """:func:`mutate_matrix` at ``k``, then the frozen-frozen block cleared:
    a framed quiver holds no arrows between frozen vertices."""
    n = len(rows) // 2
    child = mutate_matrix(rows, k)
    for row in child[n:]:
        row[n:] = [0] * n
    return child


def framed_walk(b, seq):
    """The framed walk of the square exchange matrix ``b`` along the indices
    ``seq``: yields the framed matrix and its C-matrix (the top-right
    ``n x n`` block), then both after each step.  The unframed walk of ``b``
    is the top-left ``n x n`` block of each matrix.
    """
    n = len(b)
    rows = _framed(b)
    yield rows, [row[n:] for row in rows[:n]]
    for k in seq:
        rows = _framed_step(rows, k)
        yield rows, [row[n:] for row in rows[:n]]


def brute_reddening_sequences(q: Quiver, max_len: int, reduced: bool) -> set[tuple[int, ...]]:
    """Every sequence of 1 to ``max_len`` mutable labels of ``q`` (with no
    label twice in a row when ``reduced``) whose :func:`framed_walk`, taken
    afresh for each sequence, ends with a C-matrix that has no positive
    entry: all red."""
    labels, rows = q.mutable_labels, q.rows()
    hits = set()

    def walk(idx):
        if idx:
            *_, (_, c) = framed_walk(rows, idx)
            if all(x <= 0 for row in c for x in row):
                hits.add(tuple(labels[i] for i in idx))
        if len(idx) == max_len:
            return
        for i in range(len(labels)):
            if not (reduced and idx and idx[-1] == i):
                walk(idx + (i,))

    walk(())
    return hits


def first_step_over(matrices, limit: int) -> int | None:
    """The index, in the sequence walked, of the first step whose matrix
    holds an entry beyond ``limit``: ``matrices`` starts with the state
    before the first step.  None when every entry stays within it."""
    for state, rows in enumerate(matrices):
        if first_over(rows, limit) is not None:
            return state - 1
    return None
