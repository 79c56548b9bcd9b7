"""Validation at the boundary.

Quivers derived inside the library skip ``Quiver._validate``; these tests
hold every derived quiver equal to a rebuild through the public constructor,
every mutation equal to the textbook rule, every overflow equal to a
full-matrix scan, and ``_validate`` to the public entry points alone.
"""

from __future__ import annotations

import json
import random

import pytest

from redcycle import Permutation, Quiver, c_matrix, catalog_item, coframed, framed, verify_cycle
from redcycle.catalog import grid_quiver, grid_reddening
from redcycle.errors import IntegerOverflowError
from redcycle.formats import load_quiver
from redcycle.quiver import INT_LIMIT
from redcycle.reddening import is_maximal_green, source_sequence

from conftest import mutate_matrix, random_quiver


def _full_scan(labels, rows) -> str | None:
    """The overflow message of the first (i < j) pair out of range, row-major."""
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(rows[i][j]) > INT_LIMIT:
                return f"arrow multiplicity exceeds 64-bit range at ({labels[i]}, {labels[j]})"
    return None


def _reference_mutate(q: Quiver, v: int) -> tuple[Quiver | None, str | None]:
    """The textbook rule with the frozen scrub, rebuilt through ``Quiver(...)``,
    or the message a full-matrix scan gives when the result overflows."""
    k = q.labels.index(v)
    rows = mutate_matrix([list(r) for r in q.rows()], k)
    fro = [q.labels.index(f) for f in q.frozen_labels]
    for a in fro:
        for c in fro:
            rows[a][c] = 0
    message = _full_scan(q.labels, rows)
    if message is not None:
        return None, message
    return Quiver(q.mutable_labels, rows, q.labels, q.frozen_pairs), None


def _assert_same(got: Quiver, want: Quiver) -> None:
    assert got == want
    assert hash(got) == hash(want)
    assert got.encode() == want.encode()
    assert list(got.arrows()) == list(want.arrows())
    assert all(got.b(u, w) == want.b(u, w) for u in want.labels for w in want.labels)


def _check_derivations(rng: random.Random, q: Quiver) -> None:
    mutable = list(q.mutable_labels)
    images = mutable[:]
    rng.shuffle(images)
    sigma = Permutation(dict(zip(mutable, images)))
    _assert_same(
        q.permuted(sigma),
        Quiver(q.mutable_labels, q.rows(), [sigma(v) for v in q.labels], q.frozen_pairs),
    )
    with pytest.raises(ValueError, match="labels must be positive integers"):
        q.relabeled({q.labels[0]: 0})
    fresh = rng.sample(range(1, 200), len(q.labels))
    full = dict(zip(q.labels, fresh))
    _assert_same(
        q.relabeled(full),
        Quiver(
            [full[v] for v in q.mutable_labels], q.rows(), fresh,
            [(full[m], full[f]) for m, f in q.frozen_pairs],
        ),
    )
    keep = set(rng.sample(q.labels, rng.randint(0, len(q.labels))))
    idx = [i for i, v in enumerate(q.labels) if v in keep]
    orphan = next((p for p in q.frozen_pairs if p[1] in keep and p[0] not in keep), None)
    if orphan is not None:
        # The rebuild rejects this too, but as "duplicate vertex labels".
        with pytest.raises(ValueError, match=f"frozen vertex {orphan[1]} kept without its mutable partner {orphan[0]}"):
            q.restrict(keep)
    else:
        _assert_same(q.restrict(keep), Quiver(
            [v for v in q.mutable_labels if v in keep],
            [[q.rows()[a][b] for b in idx] for a in idx],
            [q.labels[i] for i in idx],
            [(m, f) for m, f in q.frozen_pairs if m in keep and f in keep],
        ))
    _assert_same(
        q.opposite(),
        Quiver(q.mutable_labels, [[-x for x in r] for r in q.rows()], q.labels, q.frozen_pairs),
    )


def _walk(rng: random.Random, q: Quiver, steps: int) -> bool:
    """Mutate ``q`` at random vertices, step by step against the reference.
    At the first overflow, which must carry the reference's message, stop
    and return True."""
    seq = [rng.choice(q.mutable_labels) for _ in range(steps)]
    state = q
    for step, v in enumerate(seq):
        _check_derivations(rng, state)
        want, message = _reference_mutate(state, v)
        if message is not None:
            with pytest.raises(IntegerOverflowError) as info:
                state.mutate(v)
            assert str(info.value) == message
            with pytest.raises(IntegerOverflowError) as info:
                q.trajectory(seq)
            assert str(info.value) == f"{message}, at sequence index {step}"
            return True
        state = state.mutate(v)
        _assert_same(state, want)
    assert q.trajectory(seq)[-1] == state
    return False


def _frame(rng: random.Random, q: Quiver) -> Quiver:
    return rng.choice([lambda x: x, framed, coframed])(q)


def test_trusted_derivations_match_validated_rebuilds():
    rng = random.Random(6101)
    for _ in range(300):
        q = random_quiver(rng, max_n=6, max_weight=3, min_n=1)
        # Scatter the labels so relayouts have something to reorder.
        q = q.relabeled({v: v * 7 % 53 + 1 for v in q.labels})
        _walk(rng, _frame(rng, q), rng.randint(0, 8))


def test_framings_match_arrow_built_frames():
    rng = random.Random(6102)
    for _ in range(100):
        q = random_quiver(rng, max_n=6, min_n=1)
        for extend, down in ((framed, False), (coframed, True)):
            got = extend(q)
            offset = got.frozen_pairs[0][1] - got.frozen_pairs[0][0]
            frame = [(v + offset, v) if down else (v, v + offset) for v in q.labels]
            _assert_same(got, Quiver.from_arrows(
                q.labels + tuple(v + offset for v in q.labels),
                list(q.arrows()) + frame,
                frozen_pairs=[(v, v + offset) for v in q.labels],
            ))


def test_overflow_matches_full_matrix_scan():
    # Weights of 2**31 to 2**32 make products straddle INT_LIMIT, so steps
    # overflow in one cell, in several, or not at all.
    rng = random.Random(6103)
    overflowed = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        arrows = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.8:
                    w = rng.randint(2**31, 2**32)
                    arrows.append((i, j, w) if rng.random() < 0.5 else (j, i, w))
        q = Quiver.from_arrows(range(1, n + 1), arrows)
        overflowed += _walk(rng, _frame(rng, q), rng.randint(1, 8))
    assert overflowed >= 100
    # Mutation at 5 overflows at (2, 4) and (1, 3), and at (3, 4), found in
    # that order row by row of in(5); the message names the first in
    # row-major order.
    big = 2**62
    q = Quiver.from_arrows(range(1, 6), [(5, 1), (2, 5), (3, 5, big), (5, 4, big), (2, 4, big), (3, 1, big)])
    assert _reference_mutate(q, 5)[1] == "arrow multiplicity exceeds 64-bit range at (1, 3)"
    with pytest.raises(IntegerOverflowError, match=r"at \(1, 3\)$"):
        q.mutate(5)


def test_validation_happens_only_at_the_boundary(monkeypatch, tmp_path):
    calls = []
    original = Quiver._validate

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(Quiver, "_validate", counting)
    q = grid_quiver(3, 3)
    red = grid_reddening(3, 3)
    source = source_sequence(Quiver.from_arrows([1, 2, 3], [(1, 2), (2, 3)]))
    acyclic = Quiver.from_arrows([1, 2, 3], [(1, 2), (2, 3)])
    calls.clear()
    q.mutate_seq(red)
    q.trajectory(red)
    c_matrix(q, red)
    is_maximal_green(q, red)
    is_maximal_green(acyclic, source)
    verify_cycle(q, red)  # isomorphic, not equal: find_isomorphism permutes
    verify_cycle(acyclic, source)
    assert calls == []

    Quiver([1, 2], [[0, 1], [-1, 0]])
    assert len(calls) == 1
    Quiver.from_arrows([1, 2], [(1, 2)])
    assert len(calls) == 2
    arrows_doc = tmp_path / "arrows.json"
    arrows_doc.write_text(json.dumps({"vertices": [1, 2], "arrows": [[1, 2, 3]]}))
    matrix_doc = tmp_path / "matrix.json"
    matrix_doc.write_text(json.dumps({"labels": [1, 2], "b_matrix": [[0, 3], [-3, 0]]}))
    assert load_quiver(str(arrows_doc)) == load_quiver(str(matrix_doc))
    assert len(calls) == 4


def test_three_torus_splice_overflow_message_is_unchanged():
    item = catalog_item("three_torus_extension")
    with pytest.raises(IntegerOverflowError) as info:
        verify_cycle(item.quivers["Q"], item.sequences["stated_cycle"])
    assert str(info.value) == "arrow multiplicity exceeds 64-bit range at (2, 8), at sequence index 49"
