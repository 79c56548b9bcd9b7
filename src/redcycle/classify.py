"""Structural predicates, canonical forms and bounded class exploration.

A fork is an abundant non-acyclic quiver that becomes acyclic after
deleting one vertex (the point of return), with the weight-growth condition
``b(j, i) > max(b(i, r), b(r, j))`` on every directed path ``i -> r -> j``.
Keys and pre-forks are quivers with a twin vertex pair whose single-vertex
deletions are abundant acyclic, respectively forks with a common return.

The twin condition is implemented as sign agreement only (``j -> k`` iff
``j -> k'`` as directions, multiplicities free): the catalog key has twin
arrows of unequal weight, so requiring equal multiplicities would reject it.
The predicates read the mutable rows by index, which is label order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations
from operator import ne
from typing import Callable, Sequence

from .errors import AlreadyFramedError, ForkStartError, OutOfRangeError
from .quiver import Quiver, _as_int, _canonical_order

#: Default node budget for bounded explorations.
DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class ClassificationReport:
    """Every structural predicate of one quiver, evaluated exhaustively."""

    acyclic: bool
    abundant: bool
    fork_returns: frozenset[int]
    key_pairs: tuple[tuple[tuple[int, int], int], ...]
    prefork_pairs: tuple[tuple[tuple[int, int], int], ...]

    @property
    def is_fork(self) -> bool:
        return bool(self.fork_returns)

    @property
    def is_key(self) -> bool:
        return bool(self.key_pairs)

    @property
    def is_prefork(self) -> bool:
        return bool(self.prefork_pairs)


@dataclass(frozen=True)
class ClassEnumeration:
    """What one walk of :func:`explore` found within its node budget:
    ``forms`` and ``exhausted`` (see there), and ``key_forms``, the keys among
    ``forms`` in their order, which only :func:`forkless_explore` fills in."""

    forms: dict[bytes, Quiver]
    exhausted: bool
    key_forms: dict[bytes, Quiver] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.forms)


def _source_order(rows: Sequence[Sequence[int]], vs: Sequence[int]) -> list[int] | None:
    """The indices ``vs`` in a topological order of the subquiver they span,
    the smallest current source first (Kahn's algorithm on a min-heap);
    None when that subquiver has an oriented cycle."""
    indegree = {v: sum([rows[v][u] < 0 for u in vs]) for v in vs}
    heap = [v for v in vs if not indegree[v]]
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in vs:
            if rows[u][v] > 0:
                indegree[v] -= 1
                if not indegree[v]:
                    heapq.heappush(heap, v)
    return order if len(order) == len(vs) else None


def _abundant(rows: Sequence[Sequence[int]], vs: Sequence[int]) -> bool:
    """True when every pair of the indices ``vs`` is joined by >= 2 arrows."""
    return all(abs(rows[u][v]) >= 2 for i, u in enumerate(vs) for v in vs[i + 1 :])


def is_acyclic(q: Quiver) -> bool:
    """True when the mutable part has no oriented cycle."""
    return _source_order(q.mutable_rows(), range(q.rank)) is not None


def is_abundant(q: Quiver) -> bool:
    """True when every pair of mutable vertices is joined by >= 2 arrows."""
    return _abundant(q.mutable_rows(), range(q.rank))


def _fork_returns(rows: Sequence[Sequence[int]], vs: Sequence[int]) -> frozenset[int]:
    """Points of return, as indices, of the subquiver on ``vs``, which the
    caller found abundant and not acyclic; empty unless it is a fork.

    Acyclic quivers are never forks: a source would satisfy the path
    condition vacuously, and abundant acyclic quivers must stay on the
    forkless side for the closure properties to hold.
    """
    returns = []
    for r in vs:
        rest = [v for v in vs if v != r]
        row = rows[r]  # b(i, r) = -row[i]
        ins = [i for i in rest if row[i] < 0]
        outs = [j for j in rest if row[j] > 0]
        if all(rows[j][i] > max(-row[i], row[j]) for i in ins for j in outs) and (
            _source_order(rows, rest) is not None
        ):
            returns.append(r)
    return frozenset(returns)


def _twin_pairs(rows: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Pairs (k, k') whose arrows to every third vertex agree in direction:
    their sign rows are equal when no arrow joins them, and differ only at k
    and k' when one does."""
    sign = [[(x > 0) - (x < 0) for x in row] for row in rows]
    pairs = []
    for k, kp in combinations(range(len(rows)), 2):
        s, t = sign[k], sign[kp]
        if sum(map(ne, s, t)) == 2 if rows[k][kp] else s == t:
            pairs.append((k, kp))
    return pairs


def classify(q: Quiver) -> ClassificationReport:
    """Evaluate acyclicity, abundance, fork/key/pre-fork structure.

    All candidate return points and vertex pairs are tried exhaustively;
    target sizes (n <= 16) keep this immediate.  A vertex deletion is the
    list of the other indices into ``q``'s rows; it is acyclic when ``q``
    is, so it can be a fork only when ``q`` is not.
    """
    if q.is_framed:
        raise AlreadyFramedError("classify expects an unframed quiver")
    mut, rows, vs = q.mutable_labels, q.mutable_rows(), range(q.rank)
    acyclic = _source_order(rows, vs) is not None
    abundant = _abundant(rows, vs)
    returns = _fork_returns(rows, vs) if abundant and not acyclic else ()

    key_pairs = []
    prefork_pairs = []
    # Below rank 3 the twin conditions hold vacuously (single-vertex
    # deletions are trivially abundant acyclic), which would make every
    # 2-vertex quiver a key; the key/pre-fork notions start at rank 3.
    for k, kp in _twin_pairs(rows) if q.rank >= 3 else []:
        del_k = [v for v in vs if v != k]
        del_kp = [v for v in vs if v != kp]
        if acyclic:
            if _abundant(rows, del_k) and _abundant(rows, del_kp):
                key_pairs.append(((mut[k], mut[kp]), rows[k][kp]))
        elif all(_abundant(rows, d) and _source_order(rows, d) is None for d in (del_k, del_kp)):
            common = _fork_returns(rows, del_k) & _fork_returns(rows, del_kp)
            prefork_pairs.extend(((mut[k], mut[kp]), mut[r]) for r in sorted(common))

    report = ClassificationReport(
        acyclic=acyclic,
        abundant=abundant,
        fork_returns=frozenset([mut[r] for r in returns]),
        key_pairs=tuple(key_pairs),
        prefork_pairs=tuple(prefork_pairs),
    )
    assert not report.fork_returns or report.abundant
    assert not report.key_pairs or report.acyclic
    return report


def canonical_form(q: Quiver) -> bytes:
    """Lexicographically minimal row-major encoding of the exchange matrix
    over all vertex relabelings.

    Equal canonical forms exactly characterize isomorphic quivers.  The
    rows are read in the canonical order of one cell of all vertices
    (``quiver._canonical_order``); by skew-symmetry the rows above fix
    each row left of its diagonal.
    """
    if q.is_framed:
        raise AlreadyFramedError("canonical_form expects an unframed quiver")
    rows = q.rows()
    order = _canonical_order(rows, [list(range(q.rank))])
    flat = ",".join([str(rows[i][j]) for i in order for j in order])
    return f"{q.rank}|{flat}".encode("ascii")


def explore(
    q: Quiver,
    node_budget: int = DEFAULT_BUDGET,
    keep: Callable[[bytes, Quiver], bool] | None = None,
) -> ClassEnumeration:
    """Breadth-first walk of the mutation class of ``q`` up to isomorphism.

    ``forms`` maps each canonical form to the first labeled representative
    reached, the start first, and stops growing as soon as it holds
    ``node_budget`` forms; ``exhausted`` is True exactly when the frontier
    emptied first.  Each level is expanded in canonical-form order, so the
    walk is deterministic.

    A new form is kept only if ``keep(form, quiver)`` accepts it; the start
    is always kept.  Deduplication comes first, and a rejected form is never
    looked at again, which is sound because ``keep`` must be an isomorphism
    invariant (fork, pre-fork and key status are).

    Labels stay fixed, so a neighbour with a stored representative's rows is
    that quiver and needs no canonical form.  A vertex whose row repeats an
    earlier row, or the entry vertex's row, is skipped: such twins share no
    arrow, swapping them is an automorphism, and the form is already known.
    """
    node_budget = _as_int(node_budget)
    if node_budget < 1:
        raise OutOfRangeError(f"node budget must be >= 1, got {node_budget}")
    start = canonical_form(q)
    forms: dict[bytes, Quiver] = {start: q}
    stored = {q.mutable_rows()}
    rejected: set[bytes] = set()
    # Each entry carries the row of its entry vertex: mutating there gives
    # back the parent.
    level: dict[bytes, tuple[Quiver, tuple[int, ...] | None]] = {start: (q, None)}
    while level and len(forms) < node_budget:
        next_level: dict[bytes, tuple[Quiver, tuple[int, ...] | None]] = {}
        for _, (rep, via) in sorted(level.items()):
            rows = rep.mutable_rows()
            for i, v in enumerate(rep.mutable_labels):
                if rows[i] == via or rows[i] in rows[:i]:
                    continue
                neighbor = rep.mutate(v)
                if neighbor.mutable_rows() in stored:
                    continue
                form = canonical_form(neighbor)
                if form in forms or form in rejected:
                    continue
                if keep is not None and not keep(form, neighbor):
                    rejected.add(form)
                    continue
                forms[form] = neighbor
                stored.add(neighbor.mutable_rows())
                next_level[form] = (neighbor, neighbor.mutable_rows()[i])
                if len(forms) >= node_budget:
                    return ClassEnumeration(forms, False)
        level = next_level
    return ClassEnumeration(forms, len(forms) < node_budget)


def forkless_explore(
    q: Quiver, node_budget: int = DEFAULT_BUDGET, discard_preforks: bool = False
) -> ClassEnumeration:
    """Breadth-first search of the forkless part, deduplicating by canonical
    form and discarding forks as they appear (see :func:`explore`).

    With ``discard_preforks`` the walk also drops pre-forks, exploring the
    pre-forkless part instead; some quivers (the weighted box, for one)
    have an infinite forkless part but a finite pre-forkless one, so only
    the latter exploration can exhaust.  The start is classified once and
    each new form once.

    Raises ForkStartError when the starting quiver is itself a fork.
    """
    node_budget = _as_int(node_budget)
    start = classify(q)
    if start.is_fork:
        raise ForkStartError("starting quiver is a fork")
    key_forms: dict[bytes, Quiver] = {}

    def keep(form: bytes, rep: Quiver) -> bool:
        report = classify(rep)
        if report.is_key:  # a key is acyclic: never a fork nor a pre-fork, so kept
            key_forms[form] = rep
        return not (report.is_fork or (discard_preforks and report.is_prefork))

    walk = explore(q, node_budget, keep)
    if start.is_key:  # the start's form comes first
        key_forms = {next(iter(walk.forms)): q, **key_forms}
    return ClassEnumeration(walk.forms, walk.exhausted, key_forms)
