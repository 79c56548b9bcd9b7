"""Framed and coframed extensions, C-matrices, and red/green vertex colors.

Framing adds one frozen partner per mutable vertex with an arrow into it;
coframing orients those arrows the other way.  The C-matrix of a mutation
sequence records, for each mutable vertex, its signed arrow counts to the
frozen vertices of the mutated framed quiver.  Row sign-coherence of every
C-matrix is a theorem, so a violation is always raised as a hard error.

This module is the only reader of framed states: every C-matrix, vertex
color and reddening verdict (``CMatrix.reddening_permutation``) in the
package comes from here, the search's raw-matrix walk included.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    AlreadyFramedError,
    InternalContradictionError,
    NotFramedError,
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
    offset = _frozen_offset(max(q.mutable_labels))
    pairs = tuple((v, v + offset) for v in q.mutable_labels)
    # Frozen partners sort like their vertices, so in the ascending layout
    # the frame is a signed identity block beside the mutable rows.
    e = -1 if down else 1
    n = q.rank
    rows = tuple(row + tuple(e * (i == j) for j in range(n)) for i, row in enumerate(q.rows()))
    rows += tuple(tuple(-e * (i == j) for j in range(n)) + (0,) * n for i in range(n))
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

    @property
    def is_identity(self) -> bool:
        n = len(self.labels)
        return all(self.rows[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))

    def row_color(self, i: int) -> Color:
        """Green for a non-negative row, red for a non-positive one."""
        try:
            k = self.labels.index(i)
        except ValueError:
            raise UnknownVertexError(f"unknown vertex {i}") from None
        return _color(self.rows[k], i)

    def all_red(self) -> bool:
        return all(x <= 0 for row in self.rows for x in row)

    def as_neg_permutation(self) -> Permutation | None:
        """If the matrix equals minus a permutation matrix, the permutation.

        The convention matches the associated permutation of a reddening
        sequence: ``sigma(i) = j`` where column ``i`` has its ``-1`` in
        row ``j``.
        """
        n = len(self.labels)
        mapping: dict[int, int] = {}
        for col in range(n):
            hits = [r for r in range(n) if self.rows[r][col] != 0]
            if len(hits) != 1 or self.rows[hits[0]][col] != -1:
                return None
            mapping[self.labels[col]] = self.labels[hits[0]]
        return Permutation(mapping)

    def reddening_permutation(self) -> Permutation | None:
        """The associated permutation if every row is red, else None.

        An all-red C-matrix is forced to be minus a permutation matrix, so
        any other all-red shape signals a bug rather than a valid state.
        """
        if not self.all_red():
            return None
        sigma = self.as_neg_permutation()
        if sigma is None:
            raise InternalContradictionError(
                f"all-red C-matrix is not minus a permutation matrix: {self.rows}"
            )
        return sigma

    def determinant(self) -> int:
        """Exact integer determinant (Bareiss fraction-free elimination)."""
        n = len(self.labels)
        m = [list(r) for r in self.rows]
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


_Positions = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _positions(framed_state: Quiver) -> _Positions:
    """The mutable labels in ascending order, the row of each and the column
    of its frozen partner.  Mutation never moves a label, so the positions
    read off a walk's first state serve every state of the walk."""
    partner = dict(framed_state.frozen_pairs)
    mutable = framed_state.mutable_labels
    if any(v not in partner for v in mutable):
        raise NotFramedError("some mutable vertex has no frozen partner")
    index = {v: i for i, v in enumerate(framed_state.labels)}
    return mutable, tuple(index[v] for v in mutable), tuple(index[partner[v]] for v in mutable)


def _read(rows: Sequence[Sequence[int]], pos: _Positions) -> CMatrix:
    """The C-matrix of exchange-matrix ``rows`` at the positions ``pos``."""
    labels, at, cols = pos
    return CMatrix(labels, tuple(tuple(rows[i][c] for c in cols) for i in at))


def read_c_matrix(framed_state: Quiver) -> CMatrix:
    """Read the mutable-by-frozen block out of a framed (and mutated) quiver."""
    return _read(framed_state.rows(), _positions(framed_state))


def _coherent(c: CMatrix) -> CMatrix:
    for v, row in zip(c.labels, c.rows):
        _color(row, v)  # raises on a mixed-sign or zero row
    return c


def c_matrix(q: Quiver, seq: Iterable[int]) -> CMatrix:
    """Frame ``q``, mutate along ``seq``, and return the resulting C-matrix.

    Sign-coherence and the no-zero-row property are asserted at every
    intermediate step, not just at the end.
    """
    state = framed(q)
    pos = _positions(state)
    c = _coherent(_read(state.rows(), pos))
    for v in seq:
        state = state.mutate(v)
        c = _coherent(_read(state.rows(), pos))
    return c


def vertex_color(framed_state: Quiver, v: int) -> Color:
    """Green if all arrows from ``v`` point into the frame, red if all out of it."""
    return read_c_matrix(framed_state).row_color(v)
