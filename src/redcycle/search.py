"""Bounded exhaustive search for reddening sequences and mutation classes.

The reddening search walks framed states depth-first in ascending vertex
order, so results are deterministic and come out in lexicographic order.
Each state is the n mutable rows over the 2n columns of the framed quiver;
the C-matrix is the right half of the rows (``row[n:]``), made a
``CMatrix`` only for a sequence found.  Only the entries a step grows can
pass the guardrail, and the mutation kernel checks each as it writes it:
its raise at the first one over is one cut.

The last level is decided without building it.  A leaf is never expanded, so
it only has to tell whether its step is cut and whether it is all red.  Row
k of the child at k is minus row k of its parent's C-matrix, so it is red
only if that row was green (held a positive entry): no row of C is zero, as
a step negates row k and adds multiples of it to other rows, which keeps C
invertible.  When row k is green, every other row ``r`` gains ``r[k]`` times
row k on C's columns where ``r[k] > 0`` and keeps them where ``r[k] < 0``,
so a C row with a positive entry keeps it (a green step reddens no other
row; Brüstle, Dupont and Pérotin, *On maximal green sequences*, 2014).  So a
leaf can be all red only when k is its parent's one green row.  A frame
whose children are leaves builds only that child, which goes the way every
child goes, and asks of every other child only whether the kernel would
raise (``quiver._overflows`` answers as the kernel does, without building a
row); a yes is one cut, as it is for a built child.  It asks none when
``m + m * m``, m being its state's largest |entry|, is within the
guardrail, since no grown entry ``r[j] + |r[k]| * c`` can pass that.
Order, finds and cuts are those of the full walk under every flag: the
other children are tried in the same order, after the same
``reduced_only`` and ``green_only`` tests, and none of them could be
recorded, whether its state is on the path or not.

Finished subtrees are reused.  A framed state is fixed by its C-matrix,
since ``B_t = C_t B_0 C_t^T`` (the tropical duality of Nakanishi and
Zelevinsky, *On tropical dualities in cluster algebras*, 2012), and what a
subtree finds and cuts depends only on its root state, on the remaining
length and, under ``reduced_only``, on the vertex just mutated.  So those
three make an exact key: a subtree met again under the same key finds the
same suffixes with the same permutations and makes the same cuts, and the
search splices in the suffixes of its first walk (a slice of the results,
which all share one prefix length) instead of walking it again.  Order,
permutations and the cut count are those of the full walk.  Only subtrees
of some depth are memoized, up to a fixed number of entries, which keeps the
lookups off the many shallow nodes and the memory small.  Nothing is
memoized under ``prune_revisited``, where a subtree depends on the path to
it; under ``first_only`` every stored subtree found nothing, since any find
ends the search.

First steps are reused across automorphisms, which fix the start: where
the memo rule applies one step down, the first step at ``v`` is copied from
the first walked vertex ``u`` whose row sorts alike that an automorphism
``sigma`` of ``q`` takes to ``v`` (McKay and Piperno, *Practical graph
isomorphism, II*, 2014), so one first step is walked per orbit.  Mutation
commutes with relabeling, so ``v``'s finds are ``u``'s under ``sigma``,
permutations conjugated, and so are its cuts, as the guardrail reads
absolute entries; every flag carries over, since a ``first_only`` search
past ``u`` found nothing there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import DEFAULT_BUDGET, ClassEnumeration, explore
from .errors import OutOfRangeError
from .framing import CMatrix, Color, _color, framed
from .permutation import Permutation
from .quiver import MutationSequence, Quiver, _as_int, _automorphism, _mutated_rows, _overflows

#: Abort a search branch once any arrow multiplicity passes this bound.
WEIGHT_GUARDRAIL = 2**40

# Memoize a subtree only when this many steps remain below its root, and
# store at most this many subtrees per search.
_MEMO_MIN_DEPTH = 4
_MEMO_CAP = 1024


@dataclass(frozen=True)
class SearchResult:
    """Reddening sequences found within a length bound, each with its
    associated permutation, sorted lexicographically, and the branches the
    weight guardrail cut (see :func:`search_reddening`)."""

    sequences: tuple[tuple[MutationSequence, Permutation], ...]
    overflow_branches: int

    @property
    def complete(self) -> bool:
        return self.overflow_branches == 0

    def __iter__(self):
        return iter(self.sequences)

    def __len__(self) -> int:
        return len(self.sequences)


def search_reddening(
    q: Quiver,
    max_len: int,
    reduced_only: bool = False,
    green_only: bool = False,
    first_only: bool = False,
    prune_revisited: bool = False,
    weight_limit: int = WEIGHT_GUARDRAIL,
) -> SearchResult:
    """Enumerate all reddening sequences of length <= ``max_len``.

    Flags:
      * ``reduced_only``  - never mutate the same vertex twice in a row;
      * ``green_only``    - only mutate green vertices (maximal green search);
      * ``first_only``    - stop at the first sequence found;
      * ``prune_revisited`` - cut any branch that returns to a framed state
        already on the current path.  This restricts the enumeration to
        simple paths in the framed exchange graph, which is what the
        rank-2 classification counts (a sequence that revisits a state
        contains a removable loop).  Off by default, since it changes which
        sequences are reported, not just how fast.

    ``weight_limit`` is a per-branch guardrail: a step that grows an
    |entry| past it cuts its branch, which is counted in
    ``overflow_branches``, and the result is ``complete`` only when no
    branch was cut.  A start over the guardrail has every one of its n
    children cut (with ``max_len`` >= 1): its C is the identity, so every
    vertex is green.
    """
    max_len = _as_int(max_len)
    weight_limit = _as_int(weight_limit)
    if max_len < 0:
        raise OutOfRangeError(f"max_len must be >= 0, got {max_len}")
    start = framed(q)
    mutable = start.mutable_labels
    n = len(mutable)
    cols = tuple(range(n, 2 * n))  # the frame's columns, where C sits
    rows0 = start.mutable_rows()
    if max_len and any(abs(x) > weight_limit for row in rows0 for x in row):
        return SearchResult(sequences=(), overflow_branches=n)

    def c_key(rows) -> tuple[int, ...]:
        """The flattened C-matrix, which fixes the framed state."""
        return tuple([x for row in rows for x in row[n:]])

    found: list[tuple[MutationSequence, Permutation]] = []
    if not mutable:  # only at rank 0 is the start all red: the empty sequence is reddening
        found.append(((), Permutation.identity()))
    overflow = 0
    # Subtree key -> (start, end, cuts): found[start:end] are its finds and
    # cuts its guardrail cuts.
    memo: dict[tuple, tuple[int, int, int]] = {}
    # One frame per state on the current path: its rows, its sequence, its
    # mark and the vertices not yet tried from it.  The mark is the state's
    # path key under prune_revisited (never looked up), else None or, for a
    # memoized subtree, (key, len(found), overflow) when it was entered.
    # Trying vertices in ascending order makes this a preorder walk, which
    # emits sequences in lexicographic order.
    key0 = c_key(rows0) if prune_revisited else None
    # alike[i] is i's row sorted; walked maps a sorted row to the indices
    # with it whose first steps were walked, not copied; roots[i] is
    # (len(found), overflow) when the first step at i was tried.
    alike: list[tuple[int, ...]] = []
    if max_len - 1 >= _MEMO_MIN_DEPTH:
        alike = [tuple(sorted(row)) for row in q.mutable_rows()]
    walked: dict[tuple[int, ...], list[int]] = {}
    roots: list[tuple[int, int]] = []
    stack = [(rows0, (), key0, enumerate(mutable))] if max_len else []
    path = {key0}
    while stack:
        rows, seq, mark, untried = stack[-1]
        # Where the children are leaves, only the one at the lone green row,
        # if there is one, is built; the others are only tested for a cut.
        # Such a frame pushes nothing, so it runs its loop once.
        leaf = len(seq) + 1 == max_len
        if leaf:
            greens = [i for i, row in enumerate(rows) if max(row[n:]) > 0]
            lone = greens[0] if len(greens) == 1 else -1
            m = 0  # the largest |entry|; a grown one is at most m + m * m
            for row in rows:
                for x in row:
                    if x > m:
                        m = x
                    elif -x > m:
                        m = -x
            bounded = m + m * m <= weight_limit
        for i, v in untried:
            if alike and not seq:
                roots.append((len(found), overflow))
                earlier, sigma = walked.setdefault(alike[i], []), None
                for u in earlier:
                    sigma = _automorphism(q, u, i)
                    if sigma is not None:
                        break
                if sigma is None:
                    earlier.append(i)
                else:
                    (start_at, cut_at), (end, cut_end) = roots[u], roots[u + 1]
                    inverse = sigma.inverse()
                    copies = [(sigma.map_sequence(s), sigma * p * inverse)
                              for s, p in found[start_at:end]]
                    found.extend(sorted(copies, key=lambda item: item[0]))
                    overflow += cut_end - cut_at
                    continue
            if reduced_only and seq and v == seq[-1]:
                continue
            if green_only and _color(rows[i][n:], v) is not Color.GREEN:
                continue
            if leaf and i != lone:
                if not bounded and _overflows(rows, i, weight_limit):
                    overflow += 1
                continue
            try:
                child = _mutated_rows(rows, i, weight_limit)
            except OverflowError:
                overflow += 1
                continue
            child_mark = None
            if prune_revisited:
                child_mark = c_key(child)
                if child_mark in path:
                    continue
            child_seq = seq + (v,)
            if all(row[c] <= 0 for row in child for c in cols):  # all red
                red = CMatrix(mutable, tuple([row[n:] for row in child]))
                found.append((child_seq, red.reddening_permutation()))
                if first_only:
                    return SearchResult(sequences=tuple(found), overflow_branches=overflow)
            depth = len(child_seq)
            if depth < max_len:
                if prune_revisited:
                    path.add(child_mark)
                elif max_len - depth >= _MEMO_MIN_DEPTH:
                    key = (c_key(child), i if reduced_only else 0, max_len - depth)
                    hit = memo.get(key)
                    if hit is not None:
                        start_at, end, cuts = hit
                        found.extend([(child_seq + s[depth:], p) for s, p in found[start_at:end]])
                        overflow += cuts
                        continue
                    child_mark = (key, len(found), overflow)
                stack.append((child, child_seq, child_mark, enumerate(mutable)))
                break
        else:
            stack.pop()
            if prune_revisited:
                path.discard(mark)
            elif mark is not None and len(memo) < _MEMO_CAP:
                key, start_at, overflow_at = mark
                memo[key] = (start_at, len(found), overflow - overflow_at)
    return SearchResult(sequences=tuple(found), overflow_branches=overflow)


def enumerate_class(q: Quiver, node_budget: int = DEFAULT_BUDGET) -> ClassEnumeration:
    """Breadth-first enumeration of the mutation class, deduplicated by
    canonical form, halting at the node budget (see :func:`explore`)."""
    return explore(q, node_budget)
