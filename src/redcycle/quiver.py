"""Labeled quivers and the mutation operation.

A quiver is a finite directed multigraph with no loops or oriented 2-cycles,
given by a skew-symmetric integer exchange matrix indexed by vertex labels.
Labels are opaque positive integers and are never renumbered implicitly; a
quiver may additionally carry frozen vertices, each paired with the mutable
vertex it was split off from.

All values are immutable; every operation returns a fresh quiver.  Arrow
multiplicities are kept exact and checked against the signed 64-bit range,
since mutation can grow entries exponentially.

A quiver stores only the rows of its n mutable vertices, over all n + m
columns in the ascending layout (mutable labels then frozen labels, each
ascending): the transpose of the extended exchange matrix of Fomin and
Zelevinsky (*Cluster algebras IV: coefficients*, 2007).  The frozen rows
are implied: no arrows join two frozen vertices, so frozen row f is minus
column f of the mutable rows, and :meth:`Quiver.rows` builds the square
matrix on demand.  Mutation acts on the mutable rows by one rectangular
rule (:func:`_mutated_rows`).  :meth:`Quiver.walk` applies a sequence
step by step, and numbers the step at which an overflow happens.  A walk's
:func:`encodings` (``encode`` is the one-state case) rewrite only changed rows.
Tuples are built from lists: CPython's ``tuple(generator)`` resizes a 10-slot
tuple, so the free lists of the other sizes fill with memory nothing reuses.

Input is validated where it enters the library: ``Quiver(...)``,
:meth:`Quiver.from_arrows` and the loaders in ``formats`` check labels,
shape, skew-symmetry, the 64-bit range and the absence of frozen-frozen
arrows.  Every quiver the library derives from a checked one (mutation,
restriction, the opposite, relabelings, framings) goes through the private
trusted constructor, which checks nothing: the invariant is that every
``Quiver`` value satisfies those checks.  The only check a derivation
cannot skip is the 64-bit range after a mutation, and the kernel makes it
on the entries it grows, as it writes them.
"""

from __future__ import annotations

import operator
from collections import deque
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


def _as_int(x: object) -> int:
    """``operator.index(x)``, refusing ``bool``: a JSON ``true`` is not 1."""
    if isinstance(x, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(x)


def _as_matrix(rows: Iterable[Iterable[object]]) -> tuple[tuple[int, ...], ...]:
    """Every entry through :func:`_as_int`, row by row, as tuples."""
    return tuple([tuple([_as_int(x) for x in row]) for row in rows])


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
    rows: Sequence[Sequence[int]], k: int, limit: int
) -> list[Sequence[int]]:
    """Mutation at index k of the mutable rows ``rows`` over all columns.

    Entry (i, j) grows by ``|b_ik| * b_kj`` where ``b_ik`` and ``b_kj`` have
    the same sign (Fomin and Zelevinsky's rule), and row and column k change
    sign.  When ``rows`` are within ``[-limit, limit]``, only the grown
    entries can leave it, so only they are checked, as they are written:
    the first one beyond it raises ``OverflowError(i, j)``.  Rows, then
    columns, are scanned in ascending order, and (j, i) grows with (i, j),
    so that entry has ``i < j`` and is the first out-of-range pair of the
    square matrix in row-major order.  Rows that do not touch k are shared
    with ``rows``; changed ones are new tuples.
    """
    rowk = rows[k]
    pos = [j for j, c in enumerate(rowk) if c > 0]
    neg = [j for j, c in enumerate(rowk) if c < 0]
    new = list(rows)
    for i, row in enumerate(rows):
        a = row[k]
        if not a:
            continue
        r = list(row)
        r[k] = -a
        for j in pos if a > 0 else neg:
            x = r[j] + abs(a) * rowk[j]
            if abs(x) > limit:
                raise OverflowError(i, j)
            r[j] = x
        new[i] = tuple(r)
    new[k] = tuple([-x for x in rowk])
    return new


class Quiver:
    """An immutable labeled quiver with an optional frozen frame.

    The exchange matrix entry ``b(i, j)`` counts arrows ``i -> j`` minus
    arrows ``j -> i``.  No arrows join two frozen vertices: they cannot
    influence the mutable part or the C-matrix, so the mutable rows fix the
    quiver and are all it stores.
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
        ascending order if omitted).  Its mutable rows are stored in that
        ascending layout whatever order ``labels`` lists, so equal quivers
        compare, hash and encode equal.  Prefer :meth:`from_arrows` for
        literal quivers.
        """
        self._mutable = tuple(sorted(mutable_labels))
        self._frozen_pairs = tuple(sorted(frozen_pairs))
        frozen = tuple(sorted(f for _, f in self._frozen_pairs))
        self._labels = self._mutable + frozen
        self._index = {v: i for i, v in enumerate(self._labels)}
        self._rows = _as_matrix(rows)
        self._validate(frozen, self._labels if labels is None else tuple(labels))

    def _validate(self, frozen: tuple[int, ...], labels: tuple[int, ...]) -> None:
        """Check the caller's labels and matrix, then store its mutable rows
        in the ascending layout."""
        n = len(labels)
        if set(self._mutable) & set(frozen):
            raise ValueError("frozen labels must be disjoint from mutable labels")
        if len(self._index) != n or len(self._labels) != n:
            raise ValueError("duplicate vertex labels")
        mut_of = [m for m, _ in self._frozen_pairs]
        # A bool is an int that equals 0 or 1, so only the type tells it apart.
        if any(type(v) is not int or v < 1 for v in labels + tuple(mut_of)):
            raise ValueError("labels must be positive integers")
        if set(self._labels) != set(labels):
            raise ValueError("labels do not match the mutable/frozen split")
        if len(set(mut_of)) != len(mut_of) or any(m not in self._index for m in mut_of):
            raise ValueError("invalid frozen pairing")
        if len(self._rows) != n or any(len(r) != n for r in self._rows):
            raise ValueError("exchange matrix shape does not match labels")
        if labels != self._labels:
            at = {v: i for i, v in enumerate(labels)}
            idx = [at[v] for v in self._labels]
            self._rows = tuple([tuple([self._rows[a][b] for b in idx]) for a in idx])
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
        self._rows = rows[: len(self._mutable)]

    @classmethod
    def _trusted(
        cls,
        mutable: tuple[int, ...],
        frozen_pairs: tuple[tuple[int, int], ...],
        rows: tuple[tuple[int, ...], ...],
    ) -> "Quiver":
        """A quiver from parts derived from checked ones; checks nothing.

        ``mutable`` and ``frozen_pairs`` are sorted, and ``rows`` holds the
        mutable rows, tuples in the ascending layout, of a matrix that
        already passes every check of :meth:`_validate`.
        """
        q = object.__new__(cls)
        q._mutable = mutable
        q._frozen_pairs = frozen_pairs
        q._labels = mutable + tuple(sorted(f for _, f in frozen_pairs))
        q._index = {v: i for i, v in enumerate(q._labels)}
        q._rows = rows
        return q

    def _with_rows(self, rows: tuple[tuple[int, ...], ...]) -> "Quiver":
        """This quiver's vertices with the trusted mutable rows ``rows``."""
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
        rows = tuple([tuple([self._rows[a][b] for b in idx]) for a in idx[: len(mutable)]])
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
        arrows = tuple(arrows)
        if any(len(arrow) not in (2, 3) for arrow in arrows):
            raise ValueError("arrows must be [src, dst] or [src, dst, mult]")
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
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
            for v in (src, dst):
                if type(v) is not int or v not in index:
                    raise UnknownVertexError(f"arrow endpoint {v} is not a vertex")
            if src == dst:
                raise ValueError(f"loop at vertex {src}: quivers have no loops")
            if isinstance(mult, bool) or mult < 1:
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
            a, c = self._index[i], self._index[j]
        except KeyError as exc:
            raise UnknownVertexError(f"unknown vertex {exc.args[0]}") from None
        n = len(self._rows)
        if a < n:
            return self._rows[a][c]
        return -self._rows[c][a] if c < n else 0

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The exchange matrix in ``labels`` order; frozen row f is minus
        column f of the mutable rows."""
        rows, m = self._rows, len(self._frozen_pairs)
        n = len(rows)
        return rows + tuple([tuple([-row[f] for row in rows]) + (0,) * m for f in range(n, n + m)])

    def mutable_rows(self) -> tuple[tuple[int, ...], ...]:
        """The mutable rows of :meth:`rows`, which fix the quiver: the
        transposed extended exchange matrix."""
        return self._rows

    def arrows(self) -> Iterator[tuple[int, int, int]]:
        """Yield arrows ``(src, dst, mult)`` sorted by source then target."""
        out = []
        for i in range(len(self._rows)):
            for j in range(i + 1, len(self._labels)):
                x = self._rows[i][j]
                if x > 0:
                    out.append((self._labels[i], self._labels[j], x))
                elif x < 0:
                    out.append((self._labels[j], self._labels[i], -x))
        return iter(sorted(out))

    def encode(self) -> bytes:
        """Exact labeled encoding: equal bytes if and only if equal quivers."""
        return next(encodings((self,)))

    # -- mutation ------------------------------------------------------

    def _check_mutable(self, v: int) -> int:
        i = self._index.get(v)
        if i is None:
            raise UnknownVertexError(f"unknown vertex {v}")
        if i >= len(self._rows):
            raise FrozenVertexError(f"cannot mutate at frozen vertex {v}")
        return i

    def mutate(self, v: int) -> "Quiver":
        """Mutate at the mutable vertex ``v``.

        Matrix form of the composite/flip/cancel rule: for each directed
        path ``u -> v -> w`` the entry ``b(u, w)`` grows by
        ``b(u, v) * b(v, w)``, then row and column ``v`` change sign.
        """
        k = self._check_mutable(v)
        try:
            new = _mutated_rows(self._rows, k, INT_LIMIT)
        except OverflowError as exc:
            i, j = exc.args
            raise IntegerOverflowError(
                f"arrow multiplicity exceeds 64-bit range at ({self._labels[i]}, {self._labels[j]})"
            ) from None
        return self._with_rows(tuple(new))

    def walk(self, seq: Iterable[int]) -> Iterator["Quiver"]:
        """Yield this quiver, then the quiver after each step of ``seq``.

        A step that leaves the 64-bit range raises ``IntegerOverflowError``
        naming its index in ``seq``, in the message and as ``step``.
        """
        q = self
        yield q
        for step, v in enumerate(seq):
            try:
                q = q.mutate(v)
            except IntegerOverflowError as exc:
                err = IntegerOverflowError(f"{exc}, at sequence index {step}")
                err.step = step
                raise err from None
            yield q

    def mutate_seq(self, seq: Iterable[int]) -> "Quiver":
        """The last state of :meth:`walk`."""
        return deque(self.walk(seq), maxlen=1)[0]

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
        pairs = tuple([(m, f) for m, f in self._frozen_pairs if m in kept and f in kept])
        mutable = tuple([v for v in self._mutable if v in kept])
        idx = [i for i, v in enumerate(self._labels) if v in kept]
        rows = tuple([tuple([self._rows[a][b] for b in idx]) for a in idx[: len(mutable)]])
        return Quiver._trusted(mutable, pairs, rows)

    def opposite(self) -> "Quiver":
        """The quiver with all arrows reversed."""
        return self._with_rows(tuple([tuple([-x for x in row]) for row in self._rows]))

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
        if any(type(v) is not int or v < 1 for v in full.values()):
            raise ValueError("labels must be positive integers")
        return self._relaid(
            [full[v] for v in self._labels],
            [full[v] for v in self._mutable],
            [(full[m], full[f]) for m, f in self._frozen_pairs],
        )

    # -- degree helpers -------------------------------------------------

    def sources(self) -> tuple[int, ...]:
        """Mutable vertices with no incoming arrows from mutable vertices."""
        n = len(self._rows)
        return tuple([v for v, row in zip(self._mutable, self._rows) if min(row[:n]) >= 0])

    def sinks(self) -> tuple[int, ...]:
        """Mutable vertices with no outgoing arrows to mutable vertices."""
        return self.opposite().sources()

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


def encodings(states: Iterable[Quiver]) -> Iterator[bytes]:
    """Yield :meth:`Quiver.encode` of each of ``states``.  A mutable row's
    text is reused when the row is the previous state's row at its index,
    the same object, as a step of :meth:`Quiver.walk` leaves every row it
    does not change; all other rows, frozen ones included, are written anew."""
    last: tuple = ()
    texts: Sequence = ()
    for q in states:
        rows = q._rows
        if len(rows) != len(last):
            last = texts = (None,) * len(rows)
        texts = [t if r is o else ",".join(map(str, r)) for r, o, t in zip(rows, last, texts)]
        frozen = [",".join(map(str, row)) for row in q.rows()[len(rows):]]
        head = ",".join(map(str, q._mutable))
        frame = ";".join(f"{m}>{f}" for m, f in q._frozen_pairs)
        yield f"{head}|{frame}|{';'.join(texts + frozen)}".encode("ascii")
        last = rows


def _canonical_order(rows: Sequence[Sequence[int]], cells: list[list[int]]) -> list[int]:
    """The ordering of the indices in ``cells`` that keeps the cells in
    order and makes the rows least: read at those indices, right of the
    diagonal, row by row.

    The search places one index per row while the unplaced ones sit in
    ordered cells: members of a cell agree on their entries at every placed
    index, so the next row's entries at placed indices are fixed, the next
    index comes from the first cell, and its row's remaining entries are
    least when each cell is read in ascending order.  Only candidates whose
    tail (the cells' values, each cell sorted) is least go on; each cell is
    then split by the chosen index's row, ascending.  A branch is cut at the
    first row that exceeds the least rows found so far.  Of twins, indices
    with equal rows (so a zero entry between them), one candidate stands for
    all: swapping them is an automorphism (McKay and Piperno, *Practical
    graph isomorphism, II*, 2014).

    The search is one loop over a stack with one frame per placed index:
    the cells it is chosen from and an iterator over the least candidates
    not yet tried there (None until the frame is opened).  So only the rank
    bounds its depth.
    """
    n = sum(map(len, cells))
    best: list[list[int]] = []  # per row, the least tail
    order: list[int] = []  # an ordering whose rows have the tails ``best``
    placed: list[int] = []  # the index each frame is trying
    stack: list[tuple[list[list[int]], Iterator[int] | None]] = [(cells, None)] if n else []
    while stack:
        d = len(stack) - 1
        cells, candidates = stack[-1]
        if candidates is None:
            first, rest = cells[0], cells[1:]
            least: list[int] | None = None
            chosen: list[int] = []
            twins: set[tuple[int, ...]] = set()
            for v in first:
                row = rows[v]
                if row in twins:
                    continue
                twins.add(row)
                tail = sorted([row[w] for w in first if w != v])
                for cell in rest:
                    tail += sorted(map(row.__getitem__, cell))
                if least is None or tail < least:
                    least, chosen = tail, [v]
                elif tail == least:
                    chosen.append(v)
            assert least is not None
            if d == len(best) or least < best[d]:
                best[d:] = [least]
            candidates = iter(chosen if least == best[d] else ())  # none: cut above best
            stack[-1] = (cells, candidates)
        v = next(candidates, None)
        if v is None:
            stack.pop()
            continue
        placed[d:] = [v]
        row = rows[v]
        split = []
        for cell in ([w for w in cells[0] if w != v], *cells[1:]):
            if len(cell) == 1:
                split.append(cell)
                continue
            by_value: dict[int, list[int]] = {}
            for w in cell:
                by_value.setdefault(row[w], []).append(w)
            split.extend(by_value[x] for x in sorted(by_value))
        if len(split) < n - d - 1:
            stack.append((split, None))
        else:  # every cell a single index: the rest of the order is forced
            forced = placed + [w for w, in split]
            tails = [[rows[forced[i]][w] for w in forced[i + 1 :]] for i in range(d + 1, n)]
            if len(best) == d + 1 or tails < best[d + 1 :]:
                best[d + 1 :] = tails
                order = forced
    return order


def find_isomorphism(q1: Quiver, q2: Quiver) -> Permutation | None:
    """A relabeling ``sigma`` of the mutable labels with
    ``q1.permuted(sigma) == q2``, or None when there is none.

    Frozen labels stay fixed, so the quivers must share their labels and
    frozen pairs.  Each quiver's mutable indices are put in canonical order
    (:func:`_canonical_order`), in cells by their row on the frozen columns,
    ascending.  Isomorphic quivers have equal rows in those orders, so
    matching the orders position by position finds an isomorphism when
    there is one.  Equal quivers give the identity.
    """
    if q1.mutable_labels != q2.mutable_labels or q1.frozen_pairs != q2.frozen_pairs:
        return None
    n = q1.rank
    orders = []
    for q in (q1, q2):
        rows = q._rows
        cells: dict[tuple[int, ...], list[int]] = {}
        for i in range(n):
            cells.setdefault(rows[i][n:], []).append(i)
        orders.append(_canonical_order(rows, [cells[key] for key in sorted(cells)]))
    labels = q1.labels
    sigma = Permutation({labels[a]: labels[b] for a, b in zip(*orders)})
    return sigma if q1.permuted(sigma) == q2 else None
