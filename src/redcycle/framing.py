"""Framed and coframed extensions, C-matrices, and red/green vertex colors.

Framing adds one frozen partner per mutable vertex with an arrow into it;
coframing orients those arrows the other way.  The C-matrix of a mutation
sequence records, for each mutable vertex, its signed arrow counts to the
frozen vertices of the mutated framed quiver.  Row sign-coherence of every
C-matrix is a theorem, so a violation is always raised as a hard error.

A framed state is the n mutable rows over the n + m columns of its
labels, mutable then frozen (:meth:`Quiver.mutable_rows`); the frozen rows
are implied, each minus a column of those rows.  From ``framed(q)`` on, the
i-th mutable label's partner is column n + i, so the C-matrix is the right
half of the rows, which the framed walks and the search slice alike.
Every color and reddening verdict in the package comes from here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    AlreadyFramedError,
    InternalContradictionError,
    SignCoherenceError,
    UnknownVertexError,
    ZeroRowError,
)
from .permutation import Permutation
from .quiver import Quiver


class Color(enum.Enum):
    GREEN = "green"
    RED = "red"


def _frozen_offset(max_label: int) -> int:
    """Smallest power of ten at least ``10 * max_label``; keeps frozen labels
    visually recognizable (partner of i is i + offset) and collision-free."""
    p = 10
    while p < 10 * max_label:
        p *= 10
    return p


def framed(q: Quiver) -> Quiver:
    """The framed extension: new frozen partner ``i'`` and an arrow ``i -> i'``."""
    return _extend(q, down=False)


def coframed(q: Quiver) -> Quiver:
    """The coframed extension: new frozen partner ``i'`` and an arrow ``i' -> i``."""
    return _extend(q, down=True)


def _extend(q: Quiver, down: bool) -> Quiver:
    if q.is_framed:
        raise AlreadyFramedError("quiver already carries frozen vertices")
    offset = _frozen_offset(max(q.mutable_labels, default=0))
    pairs = tuple([(v, v + offset) for v in q.mutable_labels])
    # Frozen partners sort like their vertices, so in the ascending layout
    # the frame is a signed identity block beside the mutable rows.
    e = -1 if down else 1
    n = q.rank
    rows = tuple([row + tuple([e * (i == j) for j in range(n)]) for i, row in enumerate(q.rows())])
    return Quiver._trusted(q.mutable_labels, pairs, rows)


def _color(row: Sequence[int], v: int) -> Color:
    """Green for a non-negative C-matrix row of vertex ``v``, red for a
    non-positive one; a mixed or zero row contradicts sign-coherence."""
    lo, hi = min(row), max(row)
    if lo < 0 < hi:
        raise SignCoherenceError(f"row of vertex {v} mixes signs: {tuple(row)}")
    if lo == hi == 0:
        raise ZeroRowError(f"row of vertex {v} is zero")
    return Color.GREEN if hi > 0 else Color.RED


@dataclass(frozen=True)
class CMatrix:
    """Square integer matrix of mutable-to-frozen arrow counts.

    Rows and columns are indexed by ``labels`` (the mutable labels of the
    base quiver, ascending); column ``j`` refers to the frozen partner of
    label ``j``.
    """

    labels: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def row_color(self, i: int) -> Color:
        """Green for a non-negative row, red for a non-positive one."""
        try:
            k = self.labels.index(i)
        except ValueError:
            raise UnknownVertexError(f"unknown vertex {i}") from None
        return _color(self.rows[k], i)

    def reddening_permutation(self) -> Permutation | None:
        """The associated permutation if every row is red, else None.

        An all-red C-matrix is forced to be minus a permutation matrix,
        ``sigma(i) = j`` where column ``i`` has its ``-1`` in row ``j``, so
        any other all-red shape signals a bug rather than a valid state.
        """
        if any(x > 0 for row in self.rows for x in row):
            return None
        n = len(self.labels)
        mapping: dict[int, int] = {}
        for col in range(n):
            hits = [r for r in range(n) if self.rows[r][col] != 0]
            if len(hits) != 1 or self.rows[hits[0]][col] != -1:
                break
            mapping[self.labels[col]] = self.labels[hits[0]]
        if len(set(mapping.values())) < n:  # a bad column, or two -1s in one row
            raise InternalContradictionError(
                f"all-red C-matrix is not minus a permutation matrix: {self.rows}"
            )
        return Permutation(mapping)


def _framed_walk(q: Quiver, seq: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The mutable rows of each state of ``framed(q).walk(seq)``, whose right
    half is the C-matrix, since the i-th mutable label's partner sits in
    column n + i.  A step shares the rows it leaves alone with the state
    before it.  An entry of ``seq`` that is not a mutable label of ``q``
    raises before the walk starts, after ``framed`` has checked ``q``."""
    start = framed(q)
    known = set(q.mutable_labels)
    for v in seq:
        if v not in known:
            raise UnknownVertexError(f"unknown vertex {v}")
    for state in start.walk(seq):
        yield state.mutable_rows()


def c_matrix(q: Quiver, seq: Iterable[int]) -> CMatrix:
    """Frame ``q``, mutate along ``seq``, and return the resulting C-matrix.

    Sign-coherence and the no-zero-row property are asserted at every
    intermediate step, not just at the end: a row is checked when it is new,
    a row a step leaves alone (the same object) having passed already.  An
    entry of ``seq`` that is not a mutable label of ``q`` raises
    ``UnknownVertexError`` before the walk starts, the labels of the frame
    included: they are internal to the walk.
    """
    n, labels = q.rank, q.mutable_labels
    last: Sequence = (None,) * n
    for rows in _framed_walk(q, tuple(seq)):
        for v, row, old in zip(labels, rows, last):
            if row is not old:
                _color(row[n:], v)  # raises on a mixed-sign or zero row
        last = rows
    return CMatrix(labels, tuple([row[n:] for row in last]))

