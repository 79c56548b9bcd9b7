"""Labeled quivers and the mutation operation.

A quiver is a finite directed multigraph with no loops or oriented 2-cycles,
stored as a skew-symmetric integer exchange matrix indexed by vertex labels.
Labels are opaque positive integers and are never renumbered implicitly; a
quiver may additionally carry frozen vertices, each paired with the mutable
vertex it was split off from.

All values are immutable; every operation returns a fresh quiver.  Arrow
multiplicities are kept exact and checked against the signed 64-bit range,
since mutation can grow entries exponentially.

Input is validated where it enters the library: ``Quiver(...)``,
:meth:`Quiver.from_arrows` and the loaders in ``formats`` check labels,
shape, skew-symmetry, the 64-bit range and the absence of frozen-frozen
arrows.  Every quiver the library derives from a checked one (mutation,
restriction, the opposite, relabelings, framings) goes through the private
trusted constructor, which checks nothing: the invariant is that every
``Quiver`` value satisfies those checks and stores its rows in the ascending
layout (mutable labels then frozen labels, each ascending).  The only check
a derivation cannot skip is the 64-bit range after a mutation, and that
costs only the entries the mutation grew (:func:`_first_over`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    FrozenVertexError,
    IntegerOverflowError,
    UnknownVertexError,
)
from .permutation import Permutation

#: Hard bound on arrow multiplicities (signed 64-bit integers).
INT_LIMIT = 2**63 - 1

MutationSequence = tuple[int, ...]


def reduce_sequence(seq: Iterable[int]) -> MutationSequence:
    """Cancel adjacent duplicate entries until none remain (stack algorithm).

    Mutation is an involution, so ``mutate_seq(q, s)`` and
    ``mutate_seq(q, reduce_sequence(s))`` always agree.
    """
    stack: list[int] = []
    for v in seq:
        if stack and stack[-1] == v:
            stack.pop()
        else:
            stack.append(v)
    return tuple(stack)


def inverse_sequence(seq: Iterable[int]) -> MutationSequence:
    """The reversed sequence; undoes the original when applied after it."""
    return tuple(reversed(tuple(seq)))


def is_reduced(seq: Sequence[int]) -> bool:
    return all(a != b for a, b in zip(seq, seq[1:]))


def _mutated_rows(
    rows: Sequence[Sequence[int]], k: int, frozen: Sequence[int] = ()
) -> list[list[int]]:
    """Matrix-form mutation at index k; the caller owns validation.

    Paths frozen -> k -> frozen would create arrows between the frozen
    indices ``frozen``; they never feed back into anything, so every entry
    between two of them is cleared.
    """
    n = len(rows)
    new = [list(row) for row in rows]
    rowk = rows[k]
    pos_in = [(i, rows[i][k]) for i in range(n) if rows[i][k] > 0]
    pos_out = [(j, rowk[j]) for j in range(n) if rowk[j] > 0]
    for i, a in pos_in:
        ri = new[i]
        for j, c in pos_out:
            d = a * c
            ri[j] += d
            new[j][i] -= d
    for i in range(n):
        new[i][k] = -rows[i][k]
    new[k] = [-x for x in rowk]
    for a in frozen:
        row = new[a]
        for c in frozen:
            row[c] = 0
    return new


def _first_over(
    rows: Sequence[Sequence[int]], rowk: Sequence[int], limit: int
) -> tuple[int, int] | None:
    """The first pair ``(i, j)``, ``i < j`` in row-major order, at which
    ``rows`` (a mutation at k) holds an entry beyond ``limit``, or None.

    ``rowk`` is row k before the mutation.  Mutation at k only negates row
    and column k, which keeps every |entry|, and writes new magnitudes only
    in the block in(k) x out(k), read off the signs of ``rowk``.  So when
    every entry was within ``limit`` before, this block is all there is to
    check; the frozen-frozen cells in it were cleared to zero.
    """
    outs = [j for j, x in enumerate(rowk) if x > 0]
    bad = []
    for i, x in enumerate(rowk):
        if x < 0:
            row = rows[i]
            for j in outs:
                if abs(row[j]) > limit:
                    bad.append((min(i, j), max(i, j)))
    return min(bad, default=None)


class Quiver:
    """An immutable labeled quiver with an optional frozen frame.

    The exchange matrix entry ``b(i, j)`` counts arrows ``i -> j`` minus
    arrows ``j -> i``.  No arrows between two frozen vertices are ever
    stored: they cannot influence the mutable part or the C-matrix, so they
    are discarded after each mutation.
    """

    __slots__ = ("_mutable", "_frozen_pairs", "_labels", "_index", "_rows")

    def __init__(
        self,
        mutable_labels: Iterable[int],
        rows: Sequence[Sequence[int]],
        labels: Sequence[int] | None = None,
        frozen_pairs: Iterable[tuple[int, int]] = (),
    ):
        """Build a quiver from an exchange matrix.

        ``rows`` is indexed by ``labels`` (all labels, mutable then frozen in
        ascending order if omitted).  The rows are stored in that ascending
        layout whatever order ``labels`` lists, so equal quivers compare,
        hash and encode equal.  Prefer :meth:`from_arrows` for literal
        quivers.
        """
        self._mutable = tuple(sorted(mutable_labels))
        self._frozen_pairs = tuple(sorted(frozen_pairs))
        frozen = tuple(sorted(f for _, f in self._frozen_pairs))
        self._labels = self._mutable + frozen
        self._index = {v: i for i, v in enumerate(self._labels)}
        self._rows = tuple(tuple(int(x) for x in row) for row in rows)
        self._validate(frozen, self._labels if labels is None else tuple(labels))

    def _validate(self, frozen: tuple[int, ...], labels: tuple[int, ...]) -> None:
        """Check the caller's labels and matrix, then store the rows in the
        ascending layout."""
        n = len(labels)
        if set(self._mutable) & set(frozen):
            raise ValueError("frozen labels must be disjoint from mutable labels")
        if len(self._index) != n or len(self._labels) != n:
            raise ValueError("duplicate vertex labels")
        if any(not isinstance(v, int) or v < 1 for v in labels):
            raise ValueError("labels must be positive integers")
        if set(self._labels) != set(labels):
            raise ValueError("labels do not match the mutable/frozen split")
        mut_of = [m for m, _ in self._frozen_pairs]
        if len(set(mut_of)) != len(mut_of) or any(m not in self._index for m in mut_of):
            raise ValueError("invalid frozen pairing")
        if len(self._rows) != n or any(len(r) != n for r in self._rows):
            raise ValueError("exchange matrix shape does not match labels")
        if labels != self._labels:
            at = {v: i for i, v in enumerate(labels)}
            idx = [at[v] for v in self._labels]
            self._rows = tuple(tuple(self._rows[a][b] for b in idx) for a in idx)
            labels = self._labels
        rows = self._rows
        fro_idx = [self._index[f] for f in frozen]
        for i in range(n):
            if rows[i][i] != 0:
                raise ValueError("nonzero diagonal entry")
            for j in range(i + 1, n):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("matrix is not skew-symmetric")
                if abs(rows[i][j]) > INT_LIMIT:
                    raise IntegerOverflowError(
                        f"arrow multiplicity exceeds 64-bit range at ({labels[i]}, {labels[j]})"
                    )
        for a in fro_idx:
            for b in fro_idx:
                if rows[a][b] != 0:
                    raise ValueError("arrows between frozen vertices are not stored")

    @classmethod
    def _trusted(
        cls,
        mutable: tuple[int, ...],
        frozen_pairs: tuple[tuple[int, int], ...],
        rows: tuple[tuple[int, ...], ...],
    ) -> "Quiver":
        """A quiver from parts derived from checked ones; checks nothing.

        ``mutable`` and ``frozen_pairs`` are sorted, and ``rows`` is a tuple
        of tuples in the ascending layout that already passes every check of
        :meth:`_validate`.
        """
        q = object.__new__(cls)
        q._mutable = mutable
        q._frozen_pairs = frozen_pairs
        q._labels = mutable + tuple(sorted(f for _, f in frozen_pairs))
        q._index = {v: i for i, v in enumerate(q._labels)}
        q._rows = rows
        return q

    def _with_rows(self, rows: tuple[tuple[int, ...], ...]) -> "Quiver":
        """This quiver's vertices with the trusted exchange matrix ``rows``."""
        q = object.__new__(Quiver)
        q._mutable = self._mutable
        q._frozen_pairs = self._frozen_pairs
        q._labels = self._labels
        q._index = self._index
        q._rows = rows
        return q

    def _relaid(
        self,
        new_labels: Sequence[int],
        mutable: Iterable[int],
        frozen_pairs: Iterable[tuple[int, int]],
    ) -> "Quiver":
        """This matrix under ``new_labels`` (one label per current position),
        laid out anew in ascending order; the caller has checked the labels."""
        mutable = tuple(sorted(mutable))
        pairs = tuple(sorted(frozen_pairs))
        at = {v: i for i, v in enumerate(new_labels)}
        idx = [at[v] for v in mutable + tuple(sorted(f for _, f in pairs))]
        rows = tuple(tuple(self._rows[a][b] for b in idx) for a in idx)
        return Quiver._trusted(mutable, pairs, rows)

    # -- construction -------------------------------------------------

    @classmethod
    def from_arrows(
        cls,
        vertices: Iterable[int],
        arrows: Iterable[tuple[int, ...]],
        frozen_pairs: Iterable[tuple[int, int]] = (),
    ) -> "Quiver":
        """Build a quiver from explicit arrows ``(src, dst)`` or ``(src, dst, mult)``.

        Arrows repeated in the same direction accumulate; listing a pair in
        both directions is rejected rather than silently cancelled.
        """
        pairs = tuple(sorted(frozen_pairs))
        frozen = tuple(sorted(f for _, f in pairs))
        mutable = tuple(sorted(set(vertices) - set(frozen)))
        labels = mutable + frozen
        index = {v: i for i, v in enumerate(labels)}
        n = len(labels)
        rows = [[0] * n for _ in range(n)]
        for arrow in arrows:
            if len(arrow) == 2:
                src, dst, mult = arrow[0], arrow[1], 1
            else:
                src, dst, mult = arrow  # type: ignore[misc]
            if src not in index or dst not in index:
                raise UnknownVertexError(f"arrow endpoint {src if src not in index else dst} is not a vertex")
            if src == dst:
                raise ValueError(f"loop at vertex {src}: quivers have no loops")
            if mult < 1:
                raise ValueError(f"arrow multiplicity must be >= 1, got {mult}")
            i, j = index[src], index[dst]
            if rows[j][i] > 0:
                raise ValueError(f"arrow pair ({src}, {dst}) listed in both directions")
            rows[i][j] += mult
            rows[j][i] -= mult
        return cls(mutable, rows, labels, pairs)

    # -- basic accessors ----------------------------------------------

    @property
    def mutable_labels(self) -> tuple[int, ...]:
        return self._mutable

    @property
    def frozen_labels(self) -> tuple[int, ...]:
        return self._labels[len(self._mutable):]

    @property
    def frozen_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs ``(mutable, frozen)`` linking each frozen vertex to its origin."""
        return self._frozen_pairs

    @property
    def labels(self) -> tuple[int, ...]:
        return self._labels

    @property
    def rank(self) -> int:
        """Number of mutable vertices."""
        return len(self._mutable)

    @property
    def is_framed(self) -> bool:
        return bool(self._frozen_pairs)

    def b(self, i: int, j: int) -> int:
        """Signed arrow count from ``i`` to ``j``."""
        try:
            return self._rows[self._index[i]][self._index[j]]
        except KeyError as exc:
            raise UnknownVertexError(f"unknown vertex {exc.args[0]}") from None

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The exchange matrix in ``labels`` order."""
        return self._rows

    def arrows(self) -> Iterator[tuple[int, int, int]]:
        """Yield arrows ``(src, dst, mult)`` sorted by source then target."""
        n = len(self._labels)
        out = []
        for i in range(n):
            for j in range(i + 1, n):
                x = self._rows[i][j]
                if x > 0:
                    out.append((self._labels[i], self._labels[j], x))
                elif x < 0:
                    out.append((self._labels[j], self._labels[i], -x))
        return iter(sorted(out))

    def encode(self) -> bytes:
        """Exact labeled encoding: equal bytes if and only if equal quivers."""
        head = ",".join(map(str, self._mutable))
        frame = ";".join(f"{m}>{f}" for m, f in self._frozen_pairs)
        body = ";".join(",".join(map(str, row)) for row in self._rows)
        return f"{head}|{frame}|{body}".encode("ascii")

    # -- mutation ------------------------------------------------------

    def _check_mutable(self, v: int) -> int:
        if v not in self._index:
            raise UnknownVertexError(f"unknown vertex {v}")
        if v not in self._mutable:
            raise FrozenVertexError(f"cannot mutate at frozen vertex {v}")
        return self._index[v]

    def mutate(self, v: int) -> "Quiver":
        """Mutate at the mutable vertex ``v``.

        Matrix form of the composite/flip/cancel rule: for each directed
        path ``u -> v -> w`` the entry ``b(u, w)`` grows by
        ``b(u, v) * b(v, w)``, then row and column ``v`` change sign.
        """
        k = self._check_mutable(v)
        new = _mutated_rows(self._rows, k, range(len(self._mutable), len(self._labels)))
        bad = _first_over(new, self._rows[k], INT_LIMIT)
        if bad is not None:
            i, j = bad
            raise IntegerOverflowError(
                f"arrow multiplicity exceeds 64-bit range at ({self._labels[i]}, {self._labels[j]})"
            )
        return self._with_rows(tuple(map(tuple, new)))

    def mutate_seq(self, seq: Iterable[int]) -> "Quiver":
        """Left-to-right fold of :meth:`mutate`."""
        q = self
        for v in seq:
            q = q.mutate(v)
        return q

    def trajectory(self, seq: Sequence[int]) -> tuple["Quiver", ...]:
        """All intermediate quivers along ``seq``; has ``len(seq) + 1`` entries.

        A step that leaves the 64-bit range raises ``IntegerOverflowError``
        naming its index in ``seq``.
        """
        out = [self]
        for step, v in enumerate(seq):
            try:
                out.append(out[-1].mutate(v))
            except IntegerOverflowError as exc:
                raise IntegerOverflowError(f"{exc}, at sequence index {step}") from None
        return tuple(out)

    # -- structural operations ----------------------------------------

    def restrict(self, keep: Iterable[int]) -> "Quiver":
        """Induced full subquiver on ``keep``; commutes with mutation at kept vertices."""
        kept = set(keep)
        missing = kept - set(self._labels)
        if missing:
            raise UnknownVertexError(f"unknown vertices {sorted(missing)}")
        for m, f in self._frozen_pairs:
            if f in kept and m not in kept:
                raise ValueError(f"frozen vertex {f} kept without its mutable partner {m}")
        pairs = tuple((m, f) for m, f in self._frozen_pairs if m in kept and f in kept)
        mutable = tuple(v for v in self._mutable if v in kept)
        idx = [i for i, v in enumerate(self._labels) if v in kept]
        rows = tuple(tuple(self._rows[a][b] for b in idx) for a in idx)
        return Quiver._trusted(mutable, pairs, rows)

    def opposite(self) -> "Quiver":
        """The quiver with all arrows reversed."""
        return self._with_rows(tuple(tuple(-x for x in row) for row in self._rows))

    def permuted(self, sigma: Permutation) -> "Quiver":
        """Relabel arrows along a permutation of the mutable labels.

        Frozen vertices stay fixed, and so does the frozen pairing record:
        permuting a coframed quiver must compare equal to the all-red state
        reached by the matching reddening sequence, whose pairing is the
        original one.
        """
        if any(v not in self._index or v not in self._mutable for v in sigma.support):
            raise UnknownVertexError("permutation moves labels outside the mutable vertices")
        return self._relaid([sigma(v) for v in self._labels], self._mutable, self._frozen_pairs)

    def relabeled(self, mapping: Mapping[int, int]) -> "Quiver":
        """Rename vertices along an injective mapping (identity where omitted)."""
        full = {v: mapping.get(v, v) for v in self._labels}
        if len(set(full.values())) != len(full):
            raise ValueError("relabeling is not injective")
        if any(not isinstance(v, int) or v < 1 for v in full.values()):
            raise ValueError("labels must be positive integers")
        return self._relaid(
            [full[v] for v in self._labels],
            [full[v] for v in self._mutable],
            [(full[m], full[f]) for m, f in self._frozen_pairs],
        )

    # -- degree helpers -------------------------------------------------

    def sources(self) -> tuple[int, ...]:
        """Mutable vertices with no incoming arrows from mutable vertices."""
        mut = [self._index[v] for v in self._mutable]
        return tuple(
            self._labels[i]
            for i in mut
            if all(self._rows[j][i] <= 0 for j in mut)
        )

    def sinks(self) -> tuple[int, ...]:
        """Mutable vertices with no outgoing arrows to mutable vertices."""
        mut = [self._index[v] for v in self._mutable]
        return tuple(
            self._labels[i]
            for i in mut
            if all(self._rows[i][j] <= 0 for j in mut)
        )

    # -- equality -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Quiver):
            return NotImplemented
        return (
            self._labels == other._labels
            and self._mutable == other._mutable
            and self._frozen_pairs == other._frozen_pairs
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self._labels, self._frozen_pairs, self._rows))

    def __repr__(self) -> str:
        arrows = ", ".join(
            f"{s}->{d}" + (f"x{m}" if m > 1 else "") for s, d, m in self.arrows()
        )
        frame = f", framed({len(self._frozen_pairs)})" if self._frozen_pairs else ""
        return f"Quiver({list(self._mutable)}{frame}: {arrows or 'no arrows'})"


def find_isomorphism(q1: Quiver, q2: Quiver) -> Permutation | None:
    """Search for a relabeling with ``q1.permuted(sigma) == q2``.

    Backtracking over label bijections, pruned by a per-vertex invariant
    (the multiset of signed entries of its row).  Candidates are tried in
    ascending label order, so the result is deterministic.  Frozen labels
    are held fixed, and since the result is a genuine permutation the two
    quivers must share their label sets to be comparable at all.
    """
    if set(q1.mutable_labels) != set(q2.mutable_labels):
        return None
    if q1.frozen_pairs != q2.frozen_pairs:
        return None
    mut = list(q1.mutable_labels)
    fro = list(q1.frozen_labels)

    def invariant(q: Quiver, v: int) -> tuple:
        frozen_row = tuple(q.b(v, f) for f in fro)
        mutable_row = tuple(sorted(q.b(v, w) for w in mut if w != v))
        return (frozen_row, mutable_row)

    inv1 = {v: invariant(q1, v) for v in mut}
    inv2 = {v: invariant(q2, v) for v in mut}

    assigned: dict[int, int] = {}
    used: set[int] = set()

    def extend(pos: int) -> bool:
        if pos == len(mut):
            return True
        v = mut[pos]
        for w in mut:
            if w in used or inv1[v] != inv2[w]:
                continue
            if any(q1.b(v, u) != q2.b(w, assigned[u]) for u in assigned):
                continue
            assigned[v] = w
            used.add(w)
            if extend(pos + 1):
                return True
            del assigned[v]
            used.remove(w)
        return False

    if not extend(0):
        return None
    sigma = Permutation(assigned)
    # Round-trip check: every hit must map q1 onto q2 exactly.
    if q1.permuted(sigma) != q2:
        raise AssertionError("isomorphism search returned an invalid mapping")
    return sigma
