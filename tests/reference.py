"""Brute-force references for the library's fast paths.

Each one tries every ordering or relabeling of the mutable vertices, so it
is obviously right and only fit for small ranks (n <= 6).
"""

from __future__ import annotations

import itertools

from redcycle import Permutation, Quiver


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
