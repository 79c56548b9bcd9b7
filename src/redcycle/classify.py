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

Each structural test is one generator of its witnesses (points of return,
key pairs, pre-fork pairs), found one at a time: :func:`classify` collects
all of them, and :func:`forkless_explore` asks a neighbour only for the
first witness of the tests that decide whether to keep it, before the
neighbour gets a canonical form.  Three exact rules spare the generators
source orders and all but one scan of the pairs:

- One scan finds the first two thin pairs (|b| < 2), in row-major order.
  None is abundance.  A twin pair's two deletions are both abundant
  exactly when every other pair is, so the key and pre-fork candidates
  are every pair with no thin pair, the thin pair with one, none with two.
- An abundant quiver joins every pair, so it is a tournament, acyclic
  exactly when its out-degrees are pairwise distinct (Moon, *Topics on
  Tournaments*, 1968); deleting r lowers by one the out-degree of each
  vertex with an arrow into r.  So forks and points of return (Warkentin,
  *Exchange graphs via quiver mutation*, 2014) are read off out-degrees.
- A deletion that is a fork has a cycle, so the quiver has one too: the
  pre-fork test needs no acyclicity test of its own, and on an acyclic
  quiver, whose deletions have distinct out-degrees, it yields nothing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations
from operator import ne
from typing import Callable, Iterator, Sequence

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
    heads = {}
    indegree = dict.fromkeys(vs, 0)
    for u in vs:
        row = rows[u]
        heads[u] = [v for v in vs if row[v] > 0]
        for v in heads[u]:
            indegree[v] += 1
    heap = [v for v in vs if not indegree[v]]
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in heads[u]:
            indegree[v] -= 1
            if not indegree[v]:
                heapq.heappush(heap, v)
    return order if len(order) == len(vs) else None


def _thin_pairs(rows: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The first two index pairs, in row-major order, with |b| < 2: none
    exactly when the quiver is abundant (see the module docstring)."""
    thin = []
    for k, kp in combinations(range(len(rows)), 2):
        if -2 < rows[k][kp] < 2:
            thin.append((k, kp))
            if len(thin) == 2:
                break
    return thin


def is_acyclic(q: Quiver) -> bool:
    """True when the mutable part has no oriented cycle."""
    return _source_order(q.mutable_rows(), range(q.rank)) is not None


def is_abundant(q: Quiver) -> bool:
    """True when every pair of mutable vertices is joined by >= 2 arrows."""
    return not _thin_pairs(q.mutable_rows())


def _points_of_return(rows: Sequence[Sequence[int]], vs: Sequence[int]) -> Iterator[int]:
    """Points of return, as indices in ascending order, of the abundant
    subquiver on ``vs``, found one at a time; none unless it is a fork, so
    a caller that needs only the first stops there.  Out-degrees decide its
    acyclicity and that of each deletion (see the module docstring).

    Acyclic quivers are never forks: a source would satisfy the path
    condition vacuously, and abundant acyclic quivers must stay on the
    forkless side for the closure properties to hold.
    """
    out = {v: sum([rows[v][u] > 0 for u in vs]) for v in vs}
    if len(set(out.values())) == len(out):
        return
    for r in vs:
        row = rows[r]  # b(i, r) = -row[i], and row[r] = 0 leaves r out of ins and outs
        if len({out[v] - (row[v] < 0) for v in vs if v != r}) < len(out) - 1:
            continue
        ins = [i for i in vs if row[i] < 0]
        outs = [j for j in vs if row[j] > 0]
        if all(rows[j][i] > max(-row[i], row[j]) for i in ins for j in outs):
            yield r


def _twin_deletions(
    rows: Sequence[Sequence[int]], thin: Sequence[tuple[int, int]]
) -> Iterator[tuple[tuple[int, int], list[int], list[int]]]:
    """Each twin pair (k, k') whose two single-vertex deletions are both
    abundant, with the indices left by deleting k and those left by deleting
    k'.  ``thin``, the :func:`_thin_pairs` of ``rows``, decides the
    candidates (see the module docstring).  A twin pair's sign rows are
    equal when no arrow joins it, and differ only at k and k' when one
    does.  Below rank 3 there are none: there the twin conditions hold
    vacuously (single-vertex deletions are trivially abundant acyclic),
    which would make every 2-vertex quiver a key, so the key/pre-fork
    notions start at rank 3."""
    n = len(rows)
    if n < 3 or len(thin) == 2:
        return
    sign = [[(x > 0) - (x < 0) for x in row] for row in rows]
    for k, kp in thin or combinations(range(n), 2):
        s, t = sign[k], sign[kp]
        if sum(map(ne, s, t)) == 2 if rows[k][kp] else s == t:
            yield (k, kp), [v for v in range(n) if v != k], [v for v in range(n) if v != kp]


def _found(answers: Iterator[object]) -> bool:
    """Whether a generator of answers has a first one (a point of return may
    be index 0, which is falsy, so :func:`any` will not do)."""
    return next(answers, None) is not None


def _is_key(rows: Sequence[Sequence[int]], thin: Sequence[tuple[int, int]]) -> bool:
    """Whether the quiver is a key: acyclic, with a twin pair whose two
    deletions are abundant.  Acyclicity is tested only once there is such a
    pair (``thin`` as in :func:`_twin_deletions`)."""
    twins = _found(_twin_deletions(rows, thin))
    return twins and _source_order(rows, range(len(rows))) is not None


def _prefork_pairs(
    rows: Sequence[Sequence[int]], thin: Sequence[tuple[int, int]]
) -> Iterator[tuple[tuple[int, int], int]]:
    """``((k, k'), r)`` for each twin pair whose two single-vertex deletions
    are forks with the common point of return r, with no acyclicity test
    (see the module docstring; ``thin`` as in :func:`_twin_deletions`)."""
    for pair, del_k, del_kp in _twin_deletions(rows, thin):
        common = frozenset(_points_of_return(rows, del_k))
        if common:
            common &= frozenset(_points_of_return(rows, del_kp))
        for r in sorted(common):
            yield pair, r


def classify(q: Quiver) -> ClassificationReport:
    """Evaluate acyclicity, abundance, fork/key/pre-fork structure.

    All candidate return points are tried, and vertex pairs gated by thin
    pairs; target sizes (n <= 16) keep this immediate.  A vertex deletion
    is the list of the other indices into ``q``'s rows.
    :func:`forkless_explore` asks the same generators only for their first
    answer.  One source order decides acyclicity: the key pairs of an
    acyclic quiver are its twin deletions, and it has no pre-fork pair; a
    quiver with a cycle has no key pair.
    """
    if q.is_framed:
        raise AlreadyFramedError("classify expects an unframed quiver")
    mut, rows, vs = q.mutable_labels, q.mutable_rows(), range(q.rank)
    thin, acyclic = _thin_pairs(rows), _source_order(rows, vs) is not None
    returns = () if thin else _points_of_return(rows, vs)
    keys = _twin_deletions(rows, thin) if acyclic else ()
    preforks = () if acyclic else _prefork_pairs(rows, thin)
    report = ClassificationReport(
        acyclic=acyclic,
        abundant=not thin,
        fork_returns=frozenset([mut[r] for r in returns]),
        key_pairs=tuple([((mut[k], mut[kp]), rows[k][kp]) for (k, kp), _, _ in keys]),
        prefork_pairs=tuple([((mut[k], mut[kp]), mut[r]) for (k, kp), r in preforks]),
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
    each row left of its diagonal.  That order, a tuple of indices, is
    left in the private slot ``q._order``, from which :func:`explore`
    reads its back edges.
    """
    if q.is_framed:
        raise AlreadyFramedError("canonical_form expects an unframed quiver")
    rows = q.mutable_rows()
    order = q._order = tuple(_canonical_order(rows, [list(range(q.rank))]))
    flat = ",".join([str(rows[i][j]) for i in order for j in order])
    return f"{q.rank}|{flat}".encode("ascii")


def explore(
    q: Quiver,
    node_budget: int = DEFAULT_BUDGET,
    keep: Callable[[Quiver], bool] | None = None,
) -> ClassEnumeration:
    """Breadth-first walk of the mutation class of ``q`` up to isomorphism.

    ``forms`` maps each canonical form to the first labeled representative
    reached, the start first, and stops growing as soon as it holds
    ``node_budget`` forms; ``exhausted`` is True exactly when the frontier
    emptied first.  Each level is expanded in canonical-form order, so the
    walk is deterministic.

    A neighbour is kept only if ``keep(quiver)`` accepts it; the start is
    always kept.  ``keep`` is asked before the neighbour gets a canonical
    form, so a rejected neighbour never gets one.  Nothing remembers a
    rejected form: ``keep`` is asked of every neighbour on rows no stored
    state has, so a form met again on other rows, kept or not, is asked
    again.  This is sound because ``keep`` must be an isomorphism invariant
    (fork and pre-fork status are).

    Labels stay fixed, so a neighbour with a stored representative's rows is
    that quiver and is neither tested nor given a canonical form.

    Each edge of the class graph is formed once.  When ``rep.mutate(v)``,
    at index i, gets the form G, ``back[G]`` records p, the position of i
    in its ordering (``_order``, see :func:`canonical_form`), or in that of
    G's representative R when it has R's rows.  It and R read in their
    orderings give the same rows (McKay and Piperno, *Practical graph
    isomorphism, II*, 2014), so index ``R._order[p]`` is an isomorphic
    image of i, and mutating R there gives a quiver isomorphic to ``rep``,
    whose form is stored.  So when R is expanded, its indices at the
    positions in ``back[G]`` are skipped (the entry vertex, whose mutation
    gives back the parent, is one), and so is an index whose row repeats
    the row of one tried or skipped: such twins share no arrow, and
    swapping them is an automorphism.  This is exact: a skipped neighbour's
    entries are in range, and it could only have been found stored,
    rejected by ``keep`` or given a known form, none of which changes
    ``forms``, their order or ``exhausted``.
    """
    node_budget = _as_int(node_budget)
    if node_budget < 1:
        raise OutOfRangeError(f"node budget must be >= 1, got {node_budget}")
    start = canonical_form(q)
    forms: dict[bytes, Quiver] = {start: q}
    stored = {q.mutable_rows(): start}
    back: dict[bytes, set[int]] = {}
    level = [start]
    while level and len(forms) < node_budget:
        next_level = []
        for here in sorted(level):
            rep = forms[here]
            rows = rep.mutable_rows()
            tried = {rows[rep._order[p]] for p in back.get(here, ())}
            for i, v in enumerate(rep.mutable_labels):
                if rows[i] in tried:
                    continue
                tried.add(rows[i])
                neighbor = rep.mutate(v)
                if (known := stored.get(neighbor.mutable_rows())) is not None:
                    back.setdefault(known, set()).add(forms[known]._order.index(i))
                    continue
                if keep is not None and not keep(neighbor):
                    continue
                form = canonical_form(neighbor)
                back.setdefault(form, set()).add(neighbor._order.index(i))
                if form in forms:
                    continue
                forms[form] = neighbor
                stored[neighbor.mutable_rows()] = form
                next_level.append(form)
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
    the latter exploration can exhaust.

    The start is classified once, by :func:`classify`; each new neighbour
    is asked for the first witness of what decides whether to keep it (see
    the module docstring), and each kept form, after the walk, whether it is
    a key; ``key_forms`` follows the order of ``forms``.

    Raises ForkStartError when the starting quiver is itself a fork.
    """
    node_budget = _as_int(node_budget)
    start = classify(q)
    if start.is_fork:
        raise ForkStartError("starting quiver is a fork")

    def keep(rep: Quiver) -> bool:
        rows = rep.mutable_rows()
        thin = _thin_pairs(rows)
        if not thin and _found(_points_of_return(rows, range(rep.rank))):
            return False
        return not (discard_preforks and _found(_prefork_pairs(rows, thin)))

    walk = explore(q, node_budget, keep)
    key_forms = {
        form: rep for form, rep in walk.forms.items()
        if _is_key(rows := rep.mutable_rows(), _thin_pairs(rows))
    }
    return ClassEnumeration(walk.forms, walk.exhausted, key_forms)
