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

Input is validated where it enters the library, by :meth:`Quiver._validate`
alone: labels and the frozen pairing, then the arrows, from one of two
readers it calls, then the 64-bit range and frozen-frozen arrows.  The
reader of :meth:`Quiver.from_arrows` checks arrow endpoints, loops,
multiplicities (each converted once) and pairs listed in both directions,
after ``from_arrows`` has checked each arrow's shape; that of ``Quiver(...)``
a matrix's shape, zero diagonal and skew-symmetry, after its entries have
converted to integers, and finds the arrows as indices without naming them
by label.  Quivers derived from checked ones (mutation,
restriction, the opposite, relabelings, framings) go through the private
trusted constructor, which checks nothing: the mutation kernel checks the
64-bit range of the entries it grows.  ``extcycles.triangular_extension``
mixes in an outside matrix, so it rebuilds through ``from_arrows`` instead.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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


def _overflow(labels: Sequence[int], i: int, j: int) -> IntegerOverflowError:
    pair = f"({labels[i]}, {labels[j]})"
    return IntegerOverflowError(f"arrow multiplicity exceeds 64-bit range at {pair}")


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
    entries can leave it, each on one side: with ``b_ik > 0`` they rise
    from at least ``-limit``, with ``b_ik < 0`` they fall from at most
    ``limit``.  So each is checked on its side alone, as it is written, and
    the first one beyond raises ``OverflowError(i, j)``.  Rows, then
    columns, are scanned in ascending order, and (j, i) grows with (i, j),
    so that entry has ``i < j`` and is the first out-of-range pair of the
    square matrix in row-major order.  Rows that do not touch k are shared
    with ``rows``; changed ones are new tuples.
    """
    rowk = rows[k]
    pos, neg, flipped = [], [], []
    for j, c in enumerate(rowk):
        flipped.append(-c)
        if c > 0:
            pos.append(j)
        elif c < 0:
            neg.append(j)
    low = -limit
    new = list(rows)
    for i, row in enumerate(rows):
        a = row[k]
        if not a:
            continue
        r = list(row)
        r[k] = -a
        if a > 0:
            for j in pos:
                x = r[j] + a * rowk[j]
                if x > limit:
                    raise OverflowError(i, j)
                r[j] = x
        else:
            for j in neg:
                x = r[j] - a * rowk[j]
                if x < low:
                    raise OverflowError(i, j)
                r[j] = x
        new[i] = tuple(r)
    new[k] = tuple(flipped)
    return new


def _overflows(rows: Sequence[Sequence[int]], k: int, limit: int) -> bool:
    """Whether :func:`_mutated_rows` at k raises, ``rows`` being within
    ``[-limit, limit]``, without building a row.  A row ``r`` with
    ``a = r[k] > 0`` grows up to at most ``max(r) + a * max(rowk)``, one
    with ``a < 0`` down to at least ``min(r) + |a| * min(rowk)``; only a row
    past its bound has its grown entries checked one by one.
    """
    rowk = rows[k]
    hi, lo = max(rowk), min(rowk)
    for row in rows:
        a = row[k]
        if a > 0:
            if max(row) + a * hi > limit:
                for x, c in zip(row, rowk):
                    if c > 0 and x + a * c > limit:
                        return True
        elif a < 0 and min(row) - a * lo < -limit:
            for x, c in zip(row, rowk):
                if c < 0 and x - a * c < -limit:
                    return True
    return False


class Quiver:
    """An immutable labeled quiver with an optional frozen frame.

    The exchange matrix entry ``b(i, j)`` counts arrows ``i -> j`` minus
    arrows ``j -> i``.  No arrows join two frozen vertices: they cannot
    influence the mutable part or the C-matrix, so the mutable rows fix the
    quiver and are all it stores, but for the ordering that
    ``classify.canonical_form`` leaves in the private slot ``_order``.
    """

    __slots__ = ("_mutable", "_frozen_pairs", "_labels", "_index", "_rows", "_order")

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
        compare, hash and encode equal; prefer :meth:`from_arrows` for literals.
        """
        self._lay_out(tuple(sorted(mutable_labels)), tuple(sorted(map(tuple, frozen_pairs))))
        labels = self._labels if labels is None else tuple(labels)
        matrix = _as_matrix(rows)
        self._validate(labels, lambda: self._matrix_weights(matrix, labels))

    def _lay_out(self, mutable: tuple[int, ...], frozen_pairs: tuple[tuple[int, int], ...]) -> None:
        """Store the sorted ``mutable`` and ``frozen_pairs``, and the labels
        in the ascending layout (mutable, then frozen) with their index."""
        self._mutable = mutable
        self._frozen_pairs = frozen_pairs
        self._labels = mutable + tuple(sorted(f for _, f in frozen_pairs))
        self._index = {v: i for i, v in enumerate(self._labels)}

    def _matrix_weights(
        self, rows: Sequence[Sequence[int]], labels: tuple[int, ...]
    ) -> dict[tuple[int, int], int]:
        """The arrows of ``rows`` indexed by ``labels`` as (i, j) -> arrows
        i -> j over indices of the ascending layout, found in row-major order
        of that layout.  Run by :meth:`_validate` after its label checks, it
        checks the shape, the diagonal and skew-symmetry; every entry is
        already an integer, so nothing else an arrow may get wrong can occur."""
        n = len(labels)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("exchange matrix shape does not match labels")
        at = {v: i for i, v in enumerate(labels)}
        idx = [at[v] for v in self._labels]
        weights: dict[tuple[int, int], int] = {}
        for i, a in enumerate(idx):
            row = rows[a]
            if row[a]:
                raise ValueError("nonzero diagonal entry")
            for j in range(i + 1, n):
                b = idx[j]
                x = row[b]
                if x != -rows[b][a]:
                    raise ValueError("matrix is not skew-symmetric")
                if x > 0:
                    weights[i, j] = x
                elif x:
                    weights[j, i] = -x
        return weights

    def _arrow_weights(self, arrows: Iterable[tuple[int, ...]]) -> dict[tuple[int, int], int]:
        """The arrows ``(src, dst, mult)``, which accumulate, as (i, j) ->
        arrows i -> j over layout indices.  Run by :meth:`_validate` after its
        label checks, it checks endpoints, loops, multiplicities (each
        converted once) and pairs listed in both directions."""
        index = self._index
        weights: dict[tuple[int, int], int] = {}
        for src, dst, mult in arrows:
            for v in (src, dst):
                if type(v) is not int or v not in index:
                    raise UnknownVertexError(f"arrow endpoint {v} is not a vertex")
            if src == dst:
                raise ValueError(f"loop at vertex {src}: quivers have no loops")
            # A bool multiplicity is refused as a count, not as a conversion.
            if isinstance(mult, bool) or (mult := _as_int(mult)) < 1:
                raise ValueError(f"arrow multiplicity must be >= 1, got {mult}")
            i, j = index[src], index[dst]
            if (j, i) in weights:
                raise ValueError(f"arrow pair ({src}, {dst}) listed in both directions")
            weights[i, j] = weights.get((i, j), 0) + mult
        return weights

    def _validate(
        self, labels: tuple[int, ...], weigh: Callable[[], dict[tuple[int, int], int]]
    ) -> None:
        """Check the caller's ``labels`` against the layout, then get the
        arrows from ``weigh()`` (:meth:`_arrow_weights` or
        :meth:`_matrix_weights`) and check their range and that none joins two
        frozen vertices; store the mutable rows."""
        n = len(labels)
        if set(self._mutable) & set(self.frozen_labels):
            raise ValueError("frozen labels must be disjoint from mutable labels")
        if len(self._index) != n or len(self._labels) != n:
            raise ValueError("duplicate vertex labels")
        mut_of = tuple([m for m, _ in self._frozen_pairs])
        # Only the type tells True or 2.0 from the int it equals.
        if any(type(v) is not int or v < 1 for v in labels + self._labels + mut_of):
            raise ValueError("labels must be positive integers")
        if set(self._labels) != set(labels):
            raise ValueError("labels do not match the mutable/frozen split")
        if len(set(mut_of)) != len(mut_of) or any(m not in self._index for m in mut_of):
            raise ValueError("invalid frozen pairing")
        weights = weigh()
        over = [(min(k), max(k)) for k, x in weights.items() if x > INT_LIMIT]
        if over:
            raise _overflow(self._labels, *min(over))
        m = len(self._mutable)
        if any(i >= m and j >= m for i, j in weights):
            raise ValueError("arrows between frozen vertices are not stored")
        rows = [[0] * n for _ in range(m)]
        for (i, j), x in weights.items():
            if i < m:
                rows[i][j] = x
            if j < m:
                rows[j][i] = -x
        self._rows = tuple([tuple(r) for r in rows])

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
        q._lay_out(mutable, frozen_pairs)
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
        laid out anew in ascending order on the vertices ``mutable`` and
        ``frozen_pairs``, which may drop some; the caller has checked them."""
        q = Quiver._trusted(tuple(sorted(mutable)), tuple(sorted(frozen_pairs)), ())
        at = {v: i for i, v in enumerate(new_labels)}
        idx = [at[v] for v in q._labels]
        q._rows = tuple([tuple([self._rows[a][b] for b in idx]) for a in idx[:q.rank]])
        return q

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
        arrows = tuple([a if len(a) == 3 else (*a, 1) for a in arrows])
        if any(len(arrow) != 3 for arrow in arrows):
            raise ValueError("arrows must be [src, dst] or [src, dst, mult]")
        vertices, pairs = tuple(vertices), tuple(sorted(map(tuple, frozen_pairs)))
        q = object.__new__(cls)
        q._lay_out(tuple(sorted(set(vertices) - {f for _, f in pairs})), pairs)
        # ``vertices`` may leave out frozen labels: the pairs name them.
        labels = vertices + tuple(set(q.frozen_labels) - set(vertices))
        q._validate(labels, lambda: q._arrow_weights(arrows))
        return q

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
            raise _overflow(self._labels, *exc.args) from None
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
        pairs = [(m, f) for m, f in self._frozen_pairs if m in kept and f in kept]
        return self._relaid(self._labels, [v for v in self._mutable if v in kept], pairs)

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
    graph isomorphism, II*, 2014).  Twins are found once per call, as the
    first index with an equal row, so a frame compares small integers; when
    no two rows are equal, no frame looks for twins.

    The search is one loop over a stack with one frame per placed index:
    the cells it is chosen from and an iterator over the least candidates
    not yet tried there (None until the frame is opened).  So only the rank
    bounds its depth.  While every frame opened has had one candidate, the
    first forced order is the only one, and it is returned as found.

    When one cell holds every index of a square matrix (``canonical_form``'s
    call) and no two rows are equal, the roots are read from sorted rows: a
    root's tail is its sorted row less one zero, its diagonal, and dropping
    a zero from each of two sorted lists of one length keeps their order.
    One root whose row has distinct entries leaves only single cells: the
    order is that root, then the rest by its row, ascending, with no stack.
    Twins keep the search: sorting an arrowless quiver's rows costs more
    than trying one twin of many saves.
    """
    n = sum(map(len, cells))
    twin: list[int] | None = None  # the first index with an equal row, if two are equal
    if len(set(rows)) < len(rows):
        firsts: dict[Sequence[int], int] = {}
        twin = [firsts.setdefault(row, i) for i, row in enumerate(rows)]
    best: list[list[int]] = []  # per row, the least tail
    order: list[int] = []  # an ordering whose rows have the tails ``best``
    placed: list[int] = []  # the index each frame is trying
    stack: list[tuple[list[list[int]], Iterator[int] | None]] = [(cells, None)] if n else []
    alone = True  # every frame opened so far had one candidate
    if n and twin is None and len(cells) == 1 and len(rows) == n == len(rows[0]):
        ranked = list(map(sorted, rows))
        root = min(ranked)
        v = ranked.index(root)
        alone = ranked.count(root) == 1
        if alone and len(set(rows[v])) == n:
            return [v, *sorted([w for w in range(n) if w != v], key=rows[v].__getitem__)]
        stack = [(cells, iter([w for w in range(n) if ranked[w] == root]))]
        root.remove(0)  # the diagonal: what is left is the roots' tail
        best = [root]
    while stack:
        d = len(stack) - 1
        cells, candidates = stack[-1]
        if candidates is None:
            first, rest = cells[0], cells[1:]
            least: list[int] | None = None
            chosen: list[int] = []
            seen: set[int] = set()
            for v in first:
                if twin is not None:
                    if twin[v] in seen:
                        continue
                    seen.add(twin[v])
                row = rows[v]
                tail = sorted([row[w] for w in first if w != v])
                for cell in rest:
                    if len(cell) == 1:
                        tail.append(row[cell[0]])
                    else:
                        tail += sorted(map(row.__getitem__, cell))
                if least is None or tail < least:
                    least, chosen = tail, [v]
                elif tail == least:
                    chosen.append(v)
            assert least is not None
            alone = alone and len(chosen) == 1
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
            if alone:
                return forced
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
    return _matched(q1, q2)


def _automorphism(q: Quiver, u: int, v: int) -> Permutation | None:
    """An automorphism of ``q`` taking mutable index ``u`` to ``v``, or None.
    Twins (equal rows) are swapped; otherwise ``u`` and ``v`` lead the cells
    of :func:`find_isomorphism`'s orders, which match when one exists."""
    if q._rows[u] == q._rows[v]:
        return Permutation.from_cycles((q.labels[u], q.labels[v]))
    return _matched(q, q, (u, v))


def _matched(q1: Quiver, q2: Quiver, leads: tuple = (None, None)) -> Permutation | None:
    """Match the canonical orders of ``q1`` and ``q2``, each with its lead
    index (if not None) alone in the first cell, and check the match."""
    n = q1.rank
    orders = []
    for q, lead in zip((q1, q2), leads):
        rows = q._rows
        cells: dict[tuple[int, ...], list[int]] = {}
        for i in range(n):
            if i != lead:
                cells.setdefault(rows[i][n:], []).append(i)
        first = [] if lead is None else [[lead]]
        orders.append(_canonical_order(rows, first + [cells[key] for key in sorted(cells)]))
    labels = q1.labels
    sigma = Permutation({labels[a]: labels[b] for a, b in zip(*orders)})
    return sigma if q1.permuted(sigma) == q2 else None
