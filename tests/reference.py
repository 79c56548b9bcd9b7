"""Slow, obviously right references for the library's fast paths.

Most work on plain lists with unbounded integers and share no code with
the library.  The brute-force ones try every ordering or relabeling of the
mutable vertices, so they are only fit for small ranks (n <= 6).  The
structural predicates (:func:`classify` and its helpers) read labels
through ``Quiver.b``, and :func:`explore` is the plain breadth-first loop
with no shortcut; both are the library's earlier code, kept as the oracle
for its index-row predicates and for the shortcuts of its explore loop.
:func:`canonical_order` is the earlier recursive form of
``quiver._canonical_order``, the oracle for the order its loop returns.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

from redcycle import Permutation, Quiver, canonical_form
from redcycle.classify import ClassificationReport
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


def _source_order(q: Quiver, vs: Sequence[int]) -> list[int] | None:
    """The labels ``vs`` in a topological order of the subquiver they span,
    the smallest current source first (Kahn's algorithm on a min-heap);
    None when that subquiver has an oriented cycle."""
    indegree = {v: sum(q.b(u, v) > 0 for u in vs) for v in vs}
    heap = sorted(v for v in vs if not indegree[v])
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in vs:
            if q.b(u, v) > 0:
                indegree[v] -= 1
                if not indegree[v]:
                    heapq.heappush(heap, v)
    return order if len(order) == len(vs) else None


def _abundant(q: Quiver, vs: Sequence[int]) -> bool:
    """True when every pair of the labels ``vs`` is joined by >= 2 arrows."""
    return all(abs(q.b(u, v)) >= 2 for i, u in enumerate(vs) for v in vs[i + 1 :])


def is_acyclic(q: Quiver) -> bool:
    return _source_order(q, q.mutable_labels) is not None


def is_abundant(q: Quiver) -> bool:
    return _abundant(q, q.mutable_labels)


def source_sequence(q: Quiver) -> tuple[int, ...] | None:
    """The source sequence of ``q``, or None when ``q`` has an oriented
    cycle (where the library raises ``CyclicQuiverError``)."""
    order = _source_order(q, q.mutable_labels)
    return None if order is None else tuple(order)


def _fork_returns(q: Quiver, vs: Sequence[int]) -> frozenset[int]:
    """Points of return of the subquiver on ``vs``, which the caller found
    abundant and not acyclic."""
    returns = []
    for r in vs:
        rest = [v for v in vs if v != r]
        ins = [i for i in rest if q.b(i, r) > 0]
        outs = [j for j in rest if q.b(r, j) > 0]
        if _source_order(q, rest) is not None and all(
            q.b(j, i) > max(q.b(i, r), q.b(r, j)) for i in ins for j in outs
        ):
            returns.append(r)
    return frozenset(returns)


def _twin_pairs(q: Quiver) -> list[tuple[int, int]]:
    """Pairs (k, k') whose arrows to every third vertex agree in direction."""
    mut = q.mutable_labels
    out = []
    for i, k in enumerate(mut):
        for kp in mut[i + 1 :]:
            others = [j for j in mut if j not in (k, kp)]
            if all(
                (q.b(j, k) > 0) == (q.b(j, kp) > 0)
                and (q.b(j, k) < 0) == (q.b(j, kp) < 0)
                for j in others
            ):
                out.append((k, kp))
    return out


def classify(q: Quiver) -> ClassificationReport:
    """The classification report of an unframed quiver, every predicate
    asked by label through ``Quiver.b``."""
    mut = q.mutable_labels
    acyclic = _source_order(q, mut) is not None
    abundant = _abundant(q, mut)
    fork_returns = _fork_returns(q, mut) if abundant and not acyclic else frozenset()
    key_pairs = []
    prefork_pairs = []
    for k, kp in _twin_pairs(q) if q.rank >= 3 else []:
        del_k = [v for v in mut if v != k]
        del_kp = [v for v in mut if v != kp]
        if acyclic:
            if _abundant(q, del_k) and _abundant(q, del_kp):
                key_pairs.append(((k, kp), q.b(k, kp)))
        elif all(_abundant(q, d) and _source_order(q, d) is None for d in (del_k, del_kp)):
            common = _fork_returns(q, del_k) & _fork_returns(q, del_kp)
            prefork_pairs.extend(((k, kp), r) for r in sorted(common))
    return ClassificationReport(
        acyclic=acyclic,
        abundant=abundant,
        fork_returns=fork_returns,
        key_pairs=tuple(key_pairs),
        prefork_pairs=tuple(prefork_pairs),
    )


def explore(q: Quiver, node_budget: int, keep=None) -> tuple[dict[bytes, Quiver], bool]:
    """The breadth-first class walk of ``classify.explore`` with no
    shortcut: every vertex but the one a representative was reached by is
    mutated, and every neighbour gets its canonical form."""
    start = canonical_form(q)
    forms = {start: q}
    rejected = set()
    level = {start: (q, None)}
    while level and len(forms) < node_budget:
        next_level = {}
        for _, (rep, via) in sorted(level.items()):
            for v in rep.mutable_labels:
                if v == via:
                    continue
                neighbor = rep.mutate(v)
                form = canonical_form(neighbor)
                if form in forms or form in rejected:
                    continue
                if keep is not None and not keep(form, neighbor):
                    rejected.add(form)
                    continue
                forms[form] = neighbor
                next_level[form] = (neighbor, v)
                if len(forms) >= node_budget:
                    return forms, False
        level = next_level
    return forms, len(forms) < node_budget


def forkless_explore(q: Quiver, node_budget: int, discard_preforks: bool):
    """``(forms, key_forms, exhausted)`` of the forkless (or, with
    ``discard_preforks``, pre-forkless) part: :func:`explore` keeping the
    forms that :func:`classify` finds no fork (nor pre-fork)."""
    keys = set()

    def keep(form, rep):
        report = classify(rep)
        if report.key_pairs:
            keys.add(form)
        return not (report.fork_returns or (discard_preforks and report.prefork_pairs))

    forms, exhausted = explore(q, node_budget, keep)
    if classify(q).key_pairs:
        keys.add(canonical_form(q))
    return forms, {form: rep for form, rep in forms.items() if form in keys}, exhausted


def canonical_order(rows: Sequence[Sequence[int]], cells: list[list[int]]) -> list[int]:
    """The ordering of the indices in ``cells`` that keeps the cells in
    order and makes the rows least: read at those indices, right of the
    diagonal, row by row.

    The search places one index per row while the unplaced ones sit in
    ordered cells: members of a cell agree on their entries at every placed
    index, so the next row's entries at placed indices are fixed, the next
    index comes from the first cell, and its row's remaining entries are
    least when each cell is read in ascending order.  Only candidates whose
    tail (the cells' values, each cell sorted) is least go on; each cell is
    then split by the chosen index's row, ascending.  A branch is cut at the
    first row that exceeds the least rows found so far.  Of twins, indices
    with equal rows (so a zero entry between them), one candidate stands for
    all: swapping them is an automorphism (McKay and Piperno, *Practical
    graph isomorphism, II*, 2014).
    """
    n = sum(map(len, cells))
    best: list[list[int]] = []  # per row, the least tail
    order: list[int] = []  # an ordering whose rows have the tails ``best``
    placed: list[int] = []

    def place(d: int, cells: list[list[int]]) -> None:
        nonlocal order
        first, rest = cells[0], cells[1:]
        least: list[int] | None = None
        chosen: list[int] = []
        twins: set[tuple[int, ...]] = set()
        for v in first:
            row = rows[v]
            if row in twins:
                continue
            twins.add(row)
            tail = sorted([row[w] for w in first if w != v])
            for cell in rest:
                tail += sorted(map(row.__getitem__, cell))
            if least is None or tail < least:
                least, chosen = tail, [v]
            elif tail == least:
                chosen.append(v)
        assert least is not None
        if d < len(best):
            if least > best[d]:
                return
            if least < best[d]:
                del best[d:]
        if d == len(best):
            best.append(least)
        for v in chosen:
            row = rows[v]
            split = []
            for cell in ([w for w in first if w != v], *rest):
                if len(cell) == 1:
                    split.append(cell)
                    continue
                by_value: dict[int, list[int]] = {}
                for w in cell:
                    by_value.setdefault(row[w], []).append(w)
                split.extend(by_value[x] for x in sorted(by_value))
            placed.append(v)
            if len(split) < n - d - 1:
                place(d + 1, split)
            else:  # every cell a single index: the rest of the order is forced
                forced = placed + [w for w, in split]
                tails = [[rows[forced[i]][w] for w in forced[i + 1 :]] for i in range(d + 1, n)]
                if len(best) == d + 1 or tails < best[d + 1 :]:
                    best[d + 1 :] = tails
                    order = forced
            placed.pop()

    if n:
        place(0, cells)
    return order
