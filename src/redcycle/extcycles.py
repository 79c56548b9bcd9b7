"""Triangular extensions and mutation cycles built from reddening sequences.

A triangular extension ``T ->A H`` is the disjoint union of two quivers plus
``a[t][h]`` arrows from each vertex of T to each vertex of H, so its exchange
matrix is block triangular.  Concatenating reddening sequences of the two
factors (relabeled by powers of their associated permutations until both
return to the identity) mutates the extension back to itself on the nose,
which is how every cycle here is produced.

All ``build_*`` constructors verify their own output: a construction whose
cycle fails to close is raised as an error, never returned silently.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import tee
from math import lcm
from typing import Sequence

from .classify import is_abundant
from .errors import (
    AlreadyFramedError,
    CycleConstructionError,
    LabelCollisionError,
    NegativeEntryError,
    NonIdentityPermutationError,
    NotReddeningError,
    ShapeError,
)
from .framing import c_matrix
from .permutation import Permutation
from .quiver import (
    MutationSequence,
    Quiver,
    _as_matrix,
    encodings,
    find_isomorphism,
    is_reduced,
)
from .reddening import conjugate_reddening, is_reddening, source_sequence

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ExtensionSpec:
    """Data of a triangular extension ``t ->a h``.

    Rows of ``a`` are indexed by the sorted mutable labels of ``t``, columns
    by those of ``h``; every entry counts arrows from the T-side vertex to
    the H-side vertex and must be non-negative.
    """

    t: Quiver
    h: Quiver
    a: Matrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_matrix(self.a))
        if self.t.is_framed or self.h.is_framed:
            raise AlreadyFramedError("extension factors must be unframed")
        shared = set(self.t.labels) & set(self.h.labels)
        if shared:
            raise LabelCollisionError(f"label sets overlap: {sorted(shared)}")
        shape = f"extension matrix must be {self.t.rank}x{self.h.rank}"
        if len(self.a) != self.t.rank:
            raise ShapeError(f"{shape}: {len(self.a)} row(s) given")
        for i, row in enumerate(self.a, 1):
            if len(row) != self.h.rank:
                raise ShapeError(f"{shape}: row {i} has length {len(row)}")
        if any(x < 0 for row in self.a for x in row):
            raise NegativeEntryError("extension matrix entries must be >= 0")


def triangular_extension(spec: ExtensionSpec) -> Quiver:
    """Disjoint union of the factors plus ``a[t][h]`` arrows ``t -> h``, built
    through :meth:`Quiver.from_arrows` for the 64-bit check of outside ``a``."""
    vertices = list(spec.t.mutable_labels) + list(spec.h.mutable_labels)
    arrows = list(spec.t.arrows()) + list(spec.h.arrows())
    for i, src in enumerate(spec.t.mutable_labels):
        for j, dst in enumerate(spec.h.mutable_labels):
            if spec.a[i][j]:
                arrows.append((src, dst, spec.a[i][j]))
    return Quiver.from_arrows(vertices, arrows)


def cross_block(q: Quiver, t_labels: Sequence[int], h_labels: Sequence[int]) -> Matrix:
    """The T-by-H block of the exchange matrix of ``q``."""
    return tuple([tuple([q.b(t, h) for h in h_labels]) for t in t_labels])


def predicted_cross_block(spec: ExtensionSpec, seq: Sequence[int]) -> Matrix:
    """The cross block after mutating the extension along a T-sequence.

    Equals ``C * a`` where C is the C-matrix of the sequence on the T factor
    alone; the actual mutated extension carries exactly this block, with each
    row's sign matching the red/green color of its T vertex.
    """
    c = c_matrix(spec.t, tuple(seq))
    rows_t = len(spec.a)
    cols_h = len(spec.a[0]) if spec.a else 0
    return tuple([
        tuple([
            sum(c.rows[i][k] * spec.a[k][j] for k in range(rows_t))
            for j in range(cols_h)
        ])
        for i in range(rows_t)
    ])


@dataclass(frozen=True)
class CycleReport:
    """Verdict record for a candidate mutation cycle.

    ``closes_equal`` asks for labeled equality at the endpoint (the defining
    property of a mutation cycle); ``closes_iso`` holds the relabeling when
    the endpoint is merely isomorphic.  ``simple`` additionally requires the
    sequence to be reduced and the trajectory to visit no quiver twice
    except at the endpoints.  Trajectory distinctness always means exact
    labeled equality, never isomorphism.
    """

    length: int
    is_reduced: bool
    closes_equal: bool
    closes_iso: Permutation | None
    simple: bool
    all_abundant: bool
    trajectory_hashes: tuple[str, ...]


def verify_cycle(q: Quiver, seq: Sequence[int]) -> CycleReport:
    """Walk ``seq`` from ``q``, one state at a time, and report every cycle property."""
    seq = tuple(seq)
    hashes, abundant = [], True
    states, copy = tee(q.walk(seq))
    for end, text in zip(states, encodings(copy)):
        hashes.append(hashlib.blake2b(text, digest_size=16).hexdigest())
        abundant = abundant and is_abundant(end)
    closes_equal = end == q
    closes_iso = Permutation.identity() if closes_equal else find_isomorphism(q, end)
    reduced = is_reduced(seq)
    distinct = len(set(hashes[:-1])) == len(seq) if seq else True
    return CycleReport(
        length=len(seq),
        is_reduced=reduced,
        closes_equal=closes_equal,
        closes_iso=closes_iso,
        simple=reduced and closes_equal and distinct,
        all_abundant=abundant,
        trajectory_hashes=tuple(hashes),
    )


def _require_reddening(q: Quiver, seq: Sequence[int], side: str) -> Permutation:
    sigma = is_reddening(q, tuple(seq))
    if sigma is None:
        raise NotReddeningError(f"{side} sequence {tuple(seq)} is not reddening")
    return sigma


def _build(t, m_t, rho, h, m_h, sigma, a) -> tuple[Quiver, MutationSequence]:
    k = lcm(rho.order, sigma.order)
    seq = tuple(m_t) + tuple(m_h)
    for i in range(1, k):
        seq += (rho**i).map_sequence(m_t) + (sigma**i).map_sequence(m_h)
    q = triangular_extension(ExtensionSpec(t, h, a))
    if q.mutate_seq(seq) != q:
        raise CycleConstructionError(
            f"constructed sequence of length {len(seq)} does not close the cycle"
        )
    return q, seq


def build_cycle_equal(
    t: Quiver,
    m_t: Sequence[int],
    h: Quiver,
    m_h: Sequence[int],
    a: Sequence[Sequence[int]],
) -> tuple[Quiver, MutationSequence]:
    """Cycle from two identity-permutation reddening sequences.

    The concatenation ``m_t . m_h`` fixes ``t ->a h`` exactly.  Sequences
    whose permutations are not the identity are rejected; use
    :func:`build_cycle_general` for those.
    """
    rho = _require_reddening(t, m_t, "T")
    sigma = _require_reddening(h, m_h, "H")
    for side, perm in (("T", rho), ("H", sigma)):
        if not perm.is_identity:
            raise NonIdentityPermutationError(
                f"{side} sequence has associated permutation {perm}, not the identity"
            )
    return _build(t, m_t, rho, h, m_h, sigma, a)


def build_cycle_general(
    t: Quiver,
    m_t: Sequence[int],
    h: Quiver,
    m_h: Sequence[int],
    a: Sequence[Sequence[int]],
) -> tuple[Quiver, MutationSequence]:
    """Cycle from arbitrary reddening sequences of the two factors.

    With associated permutations ``rho`` and ``sigma``, the sequence

        ``m_t . m_h . rho(m_t) . sigma(m_h) ... rho^(k-1)(m_t) . sigma^(k-1)(m_h)``

    closes the cycle, where k is the smallest exponent killing both
    permutations (their orders' lcm).
    """
    return _build(
        t, m_t, _require_reddening(t, m_t, "T"), h, m_h, _require_reddening(h, m_h, "H"), a
    )


def build_acyclic_cycle(
    t: Quiver,
    m: Sequence[int],
    h: Quiver,
    n: Sequence[int],
    a: Sequence[Sequence[int]],
) -> tuple[Quiver, MutationSequence]:
    """Cycle through an extension of two mutated acyclic quivers.

    For acyclic factors with source sequences ``s_t``, ``s_h`` and arbitrary
    conjugating sequences ``m``, ``n``, the quiver
    ``mutate_seq(t, m) ->a mutate_seq(h, n)`` is fixed by the reduction of
    ``m^-1 . s_t . m . n^-1 . s_h . n``: the one construction of the builders
    above, fed the conjugated source sequences, whose permutations are the
    identity (:func:`~redcycle.reddening.conjugate_reddening`).
    """
    s_t = source_sequence(t)
    s_h = source_sequence(h)
    m = tuple(m)
    n = tuple(n)
    one = Permutation.identity()
    return _build(
        t.mutate_seq(m), conjugate_reddening(s_t, one, m), one,
        h.mutate_seq(n), conjugate_reddening(s_h, one, n), one, a,
    )


def is_distinguishing(
    t: Quiver, seq: Sequence[int], a: Sequence[Sequence[int]]
) -> bool:
    """Whether all quivers along ``seq`` on ``t ->a I_k`` are pairwise distinct.

    ``I_k`` is the arrowless quiver on k fresh consecutive labels placed
    above every label of ``t``.
    """
    if len(a) != t.rank:  # any width will do, so only the row count is wanted
        raise ShapeError(f"extension matrix must have {t.rank} row(s): {len(a)} given")
    k = len(a[0]) if len(a) else 0
    base = max(t.labels, default=0)
    isolated = Quiver.from_arrows(range(base + 1, base + 1 + k), [])
    ext = triangular_extension(ExtensionSpec(t, isolated, a))  # which converts ``a``
    # Labels are fixed along one walk, so the mutable rows tell its states apart.
    return len({state.mutable_rows() for state in ext.walk(seq)}) == len(seq) + 1
