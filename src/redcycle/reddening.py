"""Reddening and maximal green sequences.

A mutation sequence is reddening when it turns every mutable vertex of the
framed quiver red; it then determines a unique relabeling of the base quiver
(its associated permutation), which is read directly off the C-matrix as
``C = -P_sigma``.  A maximal green sequence is a reddening sequence that
only ever mutates green vertices.
"""

from __future__ import annotations

from typing import Iterable

from .classify import _source_order
from .errors import CyclicQuiverError
from .framing import CMatrix, Color, _color, _framed_walk, c_matrix
from .permutation import Permutation
from .quiver import MutationSequence, Quiver, inverse_sequence, reduce_sequence


def is_reddening(q: Quiver, seq: Iterable[int]) -> Permutation | None:
    """The associated permutation if ``seq`` is a reddening sequence, else None.

    Every downstream construction consumes the permutation, so it is
    returned instead of a bare boolean; ``None`` encodes "not reddening".
    """
    return c_matrix(q, seq).reddening_permutation()


def is_maximal_green(q: Quiver, seq: Iterable[int]) -> Permutation | None:
    """The associated permutation if ``seq`` is a maximal green sequence.

    Returns ``None`` at the first step that would mutate a red vertex,
    without taking it, or if the final state is not all red.  As in
    :func:`c_matrix`, an unknown label anywhere in ``seq`` raises first.
    """
    seq, n = tuple(seq), q.rank
    walk = _framed_walk(q, seq)
    for v, rows in zip(seq, walk):  # the state before step v
        if _color(rows[q.mutable_labels.index(v)][n:], v) is not Color.GREEN:
            return None
    return CMatrix(q.mutable_labels, tuple([row[n:] for row in next(walk)])).reddening_permutation()


def conjugate_reddening(
    seq: Iterable[int], sigma: Permutation, m: Iterable[int]
) -> MutationSequence:
    """Conjugate a reddening sequence by a mutation sequence ``m``.

    If ``seq`` is reddening for ``q`` with associated permutation ``sigma``,
    the reduction of ``m^-1 . seq . sigma(m)`` is reddening for
    ``q.mutate_seq(m)``.
    """
    m = tuple(m)
    return reduce_sequence(inverse_sequence(m) + tuple(seq) + sigma.map_sequence(m))


def source_sequence(q: Quiver) -> MutationSequence:
    """The reddening source sequence of an acyclic quiver.

    A full topological order of the mutable vertices, smallest label first
    among the current sources.  Mutating along it fixes the quiver and is a
    reddening sequence with identity permutation.
    """
    order = _source_order(q.mutable_rows(), range(q.rank))
    if order is None:
        raise CyclicQuiverError("quiver has an oriented cycle")
    return tuple([q.mutable_labels[i] for i in order])
