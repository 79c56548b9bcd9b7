"""Framed extensions, C-matrices, and vertex colors."""

import importlib
import random

import pytest

from redcycle import (
    CMatrix,
    Color,
    Permutation,
    Quiver,
    c_matrix,
    coframed,
    framed,
    grid_quiver,
    grid_reddening,
    is_maximal_green,
    is_reddening,
)
from redcycle.errors import (
    AlreadyFramedError,
    InternalContradictionError,
    SignCoherenceError,
    UnknownVertexError,
)

from conftest import random_quiver, random_sequence
from reference import determinant, framed_walk


def path3():
    return Quiver.from_arrows([1, 2, 3], [(1, 2), (2, 3), (1, 3)])


def test_framed_three_cycle_matches_figure():
    # frozen partner of i is i + (smallest power of ten >= 10 * max label)
    tri = Quiver.from_arrows([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    fq = framed(tri)
    assert fq.frozen_pairs == ((1, 101), (2, 102), (3, 103))
    expected = Quiver.from_arrows(
        [1, 2, 3, 101, 102, 103],
        [(1, 2), (2, 3), (3, 1), (1, 101), (2, 102), (3, 103)],
        frozen_pairs=[(1, 101), (2, 102), (3, 103)],
    )
    assert fq == expected


def test_framed_offset_clears_large_labels():
    q = Quiver.from_arrows([1, 99], [(1, 99, 2)])
    fq = framed(q)
    assert fq.frozen_pairs == ((1, 1001), (99, 1099))


def test_frame_requires_unframed():
    fq = framed(path3())
    with pytest.raises(AlreadyFramedError):
        framed(fq)
    with pytest.raises(AlreadyFramedError):
        coframed(fq)


def test_initial_c_matrix_is_identity():
    c = c_matrix(path3(), ())
    assert c.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1)) and c.row_color(1) is Color.GREEN
    with pytest.raises(UnknownVertexError, match="unknown vertex 9"):
        c.row_color(9)


def test_restrict_framed_to_mutable_recovers_base():
    q = path3()
    assert framed(q).restrict(q.mutable_labels) == q


def test_coframed_is_opposite_frame():
    q = path3()
    fq, cq = framed(q), coframed(q)
    assert cq.restrict(q.mutable_labels) == q
    for m, f in fq.frozen_pairs:
        assert fq.b(m, f) == 1
        assert cq.b(m, f) == -1
    assert tuple(row[3:] for row in cq.mutable_rows()) == ((-1, 0, 0), (0, -1, 0), (0, 0, -1))


def test_source_sequence_figure_c_matrices():
    q = path3()
    expected = [
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
        ((-1, 0, 0), (0, -1, 0), (0, 0, -1)),
    ]
    for prefix_len, rows in enumerate(expected):
        assert c_matrix(q, (1, 2, 3)[:prefix_len]).rows == rows


def test_rightmost_source_seq_state_equals_coframed():
    q = path3()
    assert framed(q).mutate_seq((1, 2, 3)) == coframed(q)


def test_c_matrix_involution():
    q = path3()
    assert c_matrix(q, (2, 2)).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_c_matrix_of_key_reddening_is_minus_identity():
    K = Quiver.from_arrows([1, 2, 3], [(1, 2, 35), (2, 3, 4), (3, 1, 9)])
    c = c_matrix(K, (3, 2, 1, 2, 3, 2, 3))
    assert c.rows == ((-1, 0, 0), (0, -1, 0), (0, 0, -1))


def test_c_matrix_requires_unframed_base():
    with pytest.raises(AlreadyFramedError):
        c_matrix(framed(path3()), ())


def test_vertex_color_examples():
    q = path3()
    assert all(c_matrix(q, ()).row_color(v) is Color.GREEN for v in q.mutable_labels)
    after = c_matrix(q, (1,))
    assert after.row_color(1) is Color.RED
    assert after.row_color(2) is Color.GREEN
    assert after.row_color(3) is Color.GREEN
    allred = c_matrix(q, (1, 2, 3))
    assert all(allred.row_color(v) is Color.RED for v in q.mutable_labels)


def test_sign_coherence_along_random_trajectories():
    # c_matrix asserts coherence and nonzero rows at every step internally.
    # Trajectories that leave the 64-bit range abort; they must stay rare.
    from redcycle.errors import IntegerOverflowError

    rng = random.Random(71)
    completed = 0
    for _ in range(200):
        q = random_quiver(rng, max_n=6, max_weight=3)
        seq = random_sequence(rng, q, 12)
        try:
            c = c_matrix(q, seq)
        except IntegerOverflowError:
            continue
        completed += 1
        for v in c.labels:
            c.row_color(v)
    assert completed > 150


def test_equal_c_matrices_give_equal_framed_quivers():
    rng = random.Random(73)
    for _ in range(100):
        q = random_quiver(rng, max_n=5, max_weight=3)
        seq = random_sequence(rng, q, 5)
        v = rng.choice(q.mutable_labels)
        padded = seq + (v, v)
        assert c_matrix(q, seq).rows == c_matrix(q, padded).rows
        assert framed(q).mutate_seq(seq) == framed(q).mutate_seq(padded)


def test_c_matrix_fixes_the_exchange_matrix_along_framed_walks():
    # B_t = C_t B_0 C_t^T, the tropical duality of Nakanishi-Zelevinsky, in
    # this convention: C's rows are the right half of the mutable rows.  The
    # reddening search keys reused subtrees on C alone, which rests on this.
    # The transposed product C_t^T B_0 C_t fails on some walks, so the test
    # tells the two conventions apart.
    def product(x, b, y):
        n = len(b)
        return [
            [sum(x[i][k] * b[k][m] * y[m][j] for k in range(n) for m in range(n)) for j in range(n)]
            for i in range(n)
        ]

    rng = random.Random(83)
    transposed_fails = 0
    for _ in range(200):
        q = random_quiver(rng, min_n=2, max_n=5, max_weight=2)
        b0, n = q.rows(), q.rank
        seq = random_sequence(rng, q, 8)
        idx = [q.mutable_labels.index(v) for v in seq]
        for state, (rows, c) in zip(framed(q).walk(seq), framed_walk(b0, idx)):
            ct = [list(col) for col in zip(*c)]
            assert [row[:n] for row in rows[:n]] == product(c, b0, ct)
            assert [list(row[n:]) for row in state.mutable_rows()] == c
        transposed_fails += [row[:n] for row in rows[:n]] != product(ct, b0, c)
    assert transposed_fails > 0


def test_c_matrices_are_unimodular():
    rng = random.Random(79)
    for _ in range(100):
        q = random_quiver(rng, max_n=5, max_weight=3)
        seq = random_sequence(rng, q, 8)
        assert determinant(c_matrix(q, seq).rows) in (1, -1)


def test_determinant_matches_fraction_elimination():
    from fractions import Fraction

    def frac_det(rows):
        n = len(rows)
        m = [[Fraction(x) for x in row] for row in rows]
        det = Fraction(1)
        for k in range(n):
            pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            if pivot != k:
                m[k], m[pivot] = m[pivot], m[k]
                det = -det
            det *= m[k][k]
            for i in range(k + 1, n):
                f = m[i][k] / m[k][k]
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
        return int(det)

    rng = random.Random(181)
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        assert determinant(rows) == frac_det(rows)


def test_row_color_rejects_zero_and_mixed_rows():
    from redcycle.errors import SignCoherenceError, ZeroRowError

    with pytest.raises(ZeroRowError):
        CMatrix((1, 2), ((0, 0), (0, 1))).row_color(1)
    with pytest.raises(SignCoherenceError):
        CMatrix((1, 2), ((1, -1), (0, 1))).row_color(1)


def test_reddening_permutation_is_the_one_verdict():
    assert CMatrix((1, 2), ((-1, 0), (0, 1))).reddening_permutation() is None
    assert CMatrix((1, 2), ((0, -1), (-1, 0))).reddening_permutation() == Permutation.from_cycles((1, 2))
    with pytest.raises(InternalContradictionError):
        CMatrix((1, 2), ((-1, 0), (-1, -1))).reddening_permutation()


def test_reddening_permutation_rejects_non_permutation_shapes():
    # All red, but an entry is -2, a column holds two -1s, or two columns
    # hold their one -1 in the same row: none is minus a permutation
    # matrix, so the verdict is a contradiction.
    shapes = (((-1, 0), (0, -2)), ((-1, 0), (-1, -1)), ((-1, -1), (0, -1)), ((-1, -1), (0, 0)))
    for rows in shapes:
        with pytest.raises(InternalContradictionError, match="not minus a permutation"):
            CMatrix((1, 2), rows).reddening_permutation()


def test_frame_labels_are_unknown_vertices_of_the_walk():
    # 101 is the frozen partner of vertex 1 inside the framed walk, not a
    # vertex of the caller's quiver.
    q = Quiver.from_arrows([1, 2], [(1, 2)])
    for verdict in (c_matrix, is_reddening, is_maximal_green):
        with pytest.raises(UnknownVertexError, match="^unknown vertex 101$"):
            verdict(q, (1, 101))


def _random_labeled_quiver(rng, n):
    """A random quiver of rank ``n`` whose labels often sit on both sides of
    a power of ten (9 and 10, 99 and 100), where the frame offset changes."""
    pool = rng.choice([range(1, 20), (8, 9, 10, 11, 3, 5, 7, 1), (98, 99, 100, 101, 2, 4, 6, 50)])
    labels = sorted(rng.sample(list(pool), n))
    arrows = []
    for i, u in enumerate(labels):
        for v in labels[i + 1:]:
            w = rng.randint(-3, 3)
            if w:
                arrows.append((u, v, w) if w > 0 else (v, u, -w))
    return Quiver.from_arrows(labels, arrows)


def test_frame_pairs_the_i_th_label_with_the_i_th_frozen_label():
    # c_matrix slices C as row[n:], which is right only if the frame pairs
    # the i-th mutable label with the i-th frozen label and walks keep it.
    rng = random.Random(1415)
    for _ in range(100):
        q = _random_labeled_quiver(rng, rng.randint(0, 8))
        seq = tuple(rng.choice(q.mutable_labels) for _ in range(rng.randint(0, 6) if q.rank else 0))
        for start in (framed(q), coframed(q)):
            for state in (start, start.mutate_seq(seq)):
                assert state.mutable_labels == q.mutable_labels
                assert state.frozen_pairs == tuple(zip(q.mutable_labels, state.frozen_labels))
                assert state.labels == q.mutable_labels + state.frozen_labels


def test_frame_block_is_the_right_half_of_the_mutable_rows():
    # The per-step C reader takes C as row[n:] of each framed state's
    # mutable rows; reading each entry by looking up the vertex's frozen
    # partner must agree on every state of a framed or coframed walk.
    rng = random.Random(1414)
    for _ in range(150):
        q = _random_labeled_quiver(rng, rng.randint(0, 8))
        seq = tuple(rng.choice(q.mutable_labels) for _ in range(rng.randint(0, 8) if q.rank else 0))
        n, labels = q.rank, q.mutable_labels
        for start in (framed(q), coframed(q)):
            partner = dict(start.frozen_pairs)
            for state in start.walk(seq):
                by_partner = tuple(tuple(state.b(i, partner[j]) for j in labels) for i in labels)
                assert by_partner == tuple(row[n:] for row in state.mutable_rows())
        end = framed(q).mutate_seq(seq)
        partner = dict(end.frozen_pairs)
        assert c_matrix(q, seq).rows == tuple(tuple(end.b(i, partner[j]) for j in labels) for i in labels)


def test_framed_base_is_refused_before_its_labels_are_checked():
    for verdict in (c_matrix, is_reddening, is_maximal_green):
        with pytest.raises(AlreadyFramedError):
            verdict(framed(path3()), (1, 999))


def test_c_matrix_checks_each_row_a_step_changes_once(monkeypatch):
    # The start's rows are checked, then after each step only the rows it
    # changed: row k and the rows with an arrow to or from k, which
    # reference.framed_walk reads off the state before the step.
    framing = importlib.import_module("redcycle.framing")
    q, red = grid_quiver(3, 3), grid_reddening(3, 3)
    n = q.rank
    calls = []
    color = framing._color
    monkeypatch.setattr(framing, "_color", lambda row, v: calls.append(v) or color(row, v))
    expected = c_matrix(q, red)
    idx = [q.mutable_labels.index(v) for v in red]
    states = [rows for rows, _ in framed_walk(q.rows(), idx)]
    changed = sum(1 + sum(1 for i in range(n) if i != k and rows[i][k])
                  for k, rows in zip(idx, states))
    assert len(calls) == n + changed < n * (len(red) + 1)
    assert expected.rows == tuple([tuple(row[n:]) for row in states[-1][:n]])


def test_c_matrix_raises_at_the_first_mixed_row(monkeypatch):
    # A kernel that breaks sign-coherence of row 2 at the third step: the
    # walk raises there, naming that row, as a check of every row would.
    quiver_module = importlib.import_module("redcycle.quiver")
    kernel = quiver_module._mutated_rows
    q = grid_quiver(2, 2)
    seq = (1, 2, 3, 4)
    n = q.rank
    steps = []

    def breaking(rows, k, limit):
        new = kernel(rows, k, limit)
        steps.append(k)
        if len(steps) == 3:
            bad = list(new[1])
            bad[n], bad[n + 1] = 1, -1
            new[1] = tuple(bad)
        return new

    monkeypatch.setattr(quiver_module, "_mutated_rows", breaking)
    with pytest.raises(SignCoherenceError, match=r"^row of vertex 2 mixes signs: \(1, -1, "):
        c_matrix(q, seq)
    assert len(steps) == 3
