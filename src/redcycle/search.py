"""Bounded exhaustive search for reddening sequences and mutation classes.

The reddening search walks framed states depth-first in ascending vertex
order, so results are deterministic and come out in lexicographic order.
Branches whose arrow weights pass a guardrail are aborted and counted
rather than silently dropped; a search is *complete* within its length
bound exactly when no branch was aborted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import explore
from .errors import OutOfRangeError
from .framing import Color, _color, _positions, _read, framed
from .permutation import Permutation
from .quiver import MutationSequence, Quiver, _first_over, _mutated_rows

#: Abort a search branch once any arrow multiplicity passes this bound.
WEIGHT_GUARDRAIL = 2**40


@dataclass(frozen=True)
class SearchResult:
    """Reddening sequences found within a length bound.

    ``sequences`` pairs each sequence with its associated permutation,
    sorted lexicographically.  ``complete`` is False when some branch was
    aborted by the weight guardrail, in which case ``overflow_branches``
    counts them.
    """

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
    """
    if max_len < 0:
        raise OutOfRangeError(f"max_len must be >= 0, got {max_len}")
    start = framed(q)
    mutable, at, cols = pos = _positions(start)
    rows0 = [list(row) for row in start.rows()]
    # A child passes the guardrail when the entries its mutation grew do
    # (every other |entry| is its parent's), unless the start state itself
    # is over the limit: then no child can pass.
    start_over = any(abs(x) > weight_limit for row in rows0 for x in row)
    found: list[tuple[MutationSequence, Permutation]] = []
    overflow = 0
    # One frame per state on the current path: its rows, its sequence, its
    # key (None unless prune_revisited, and then never looked up) and the
    # vertices not yet tried from it.  Trying vertices in ascending order
    # makes this a preorder walk, which emits sequences in lexicographic order.
    key0 = tuple(map(tuple, rows0)) if prune_revisited else None
    stack = [(rows0, (), key0, iter(zip(at, mutable)))] if max_len else []
    path = {key0}
    while stack:
        rows, seq, key, untried = stack[-1]
        for i, v in untried:
            if reduced_only and seq and v == seq[-1]:
                continue
            if green_only and _color([rows[i][c] for c in cols], v) is not Color.GREEN:
                continue
            child = _mutated_rows(rows, i, cols)
            if start_over or _first_over(child, rows[i], weight_limit) is not None:
                overflow += 1
                continue
            child_key = tuple(map(tuple, child)) if prune_revisited else None
            if prune_revisited and child_key in path:
                continue
            child_seq = seq + (v,)
            if all(child[r][c] <= 0 for r in at for c in cols):
                found.append((child_seq, _read(child, pos).reddening_permutation()))
                if first_only:
                    return SearchResult(sequences=tuple(found), overflow_branches=overflow)
            if len(child_seq) < max_len:
                path.add(child_key)
                stack.append((child, child_seq, child_key, iter(zip(at, mutable))))
                break
        else:
            stack.pop()
            path.discard(key)
    return SearchResult(sequences=tuple(found), overflow_branches=overflow)


@dataclass(frozen=True)
class ClassEnumeration:
    """Mutation class up to isomorphism, within a node budget."""

    forms: dict[bytes, Quiver]
    exhausted: bool

    def __len__(self) -> int:
        return len(self.forms)


def enumerate_class(q: Quiver, node_budget: int | None = None) -> ClassEnumeration:
    """Breadth-first enumeration of the mutation class, deduplicated by
    canonical form, halting at the node budget (see :func:`explore`)."""
    forms, exhausted = explore(q, node_budget)
    return ClassEnumeration(forms=forms, exhausted=exhausted)
