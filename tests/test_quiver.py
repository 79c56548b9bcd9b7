"""Core quiver representation and mutation."""

import random

import pytest

from redcycle import (
    Permutation,
    Quiver,
    coframed,
    find_isomorphism,
    framed,
    inverse_sequence,
    reduce_sequence,
)
from redcycle.errors import (
    FrozenVertexError,
    IntegerOverflowError,
    UnknownVertexError,
)
from redcycle.quiver import INT_LIMIT, _mutated_rows

from conftest import random_quiver, random_sequence
from reference import brute_isomorphism, mutate_matrix


def kprime():
    return Quiver.from_arrows([1, 2, 3], [(1, 2, 1), (2, 3, 4), (1, 3, 5)])


def test_mutation_hand_checked_example():
    expected = Quiver.from_arrows([1, 2, 3], [(2, 1, 1), (3, 2, 4), (1, 3, 9)])
    assert kprime().mutate(2) == expected


def test_mutation_sequence_reaches_K():
    K = Quiver.from_arrows([1, 2, 3], [(1, 2, 35), (2, 3, 4), (3, 1, 9)])
    assert kprime().mutate_seq((2, 3)) == K


def _naive_mutate(q: Quiver, v: int) -> Quiver:
    """Independent oracle: literal arrow surgery (compose, flip, cancel)."""
    arrows: dict[tuple[int, int], int] = {}
    for s, d, m in q.arrows():
        arrows[(s, d)] = arrows.get((s, d), 0) + m
    composed = dict(arrows)
    for (s1, d1), m1 in arrows.items():
        if d1 != v:
            continue
        for (s2, d2), m2 in arrows.items():
            if s2 != v:
                continue
            composed[(s1, d2)] = composed.get((s1, d2), 0) + m1 * m2
    flipped: dict[tuple[int, int], int] = {}
    for (s, d), m in composed.items():
        key = (d, s) if v in (s, d) else (s, d)
        flipped[key] = flipped.get(key, 0) + m
    frozen = set(q.frozen_labels)
    cancelled = []
    for (s, d), m in flipped.items():
        if s in frozen and d in frozen:
            continue
        if s < d or (d, s) not in flipped:
            back = flipped.get((d, s), 0)
            if m > back:
                cancelled.append((s, d, m - back))
            elif back > m:
                cancelled.append((d, s, back - m))
    return Quiver.from_arrows(q.labels, cancelled, frozen_pairs=q.frozen_pairs)


def test_matrix_mutation_matches_arrow_surgery():
    rng = random.Random(7)
    for _ in range(300):
        q = random_quiver(rng, max_n=6, max_weight=4)
        v = rng.choice(q.mutable_labels)
        assert q.mutate(v) == _naive_mutate(q, v)


def test_framed_mutation_matches_arrow_surgery():
    from redcycle import framed

    rng = random.Random(9)
    for _ in range(150):
        fq = framed(random_quiver(rng, max_n=5, max_weight=3))
        seq = random_sequence(rng, fq, 4)
        state, naive = fq, fq
        for v in seq:
            state = state.mutate(v)
            naive = _naive_mutate(naive, v)
            assert state == naive


def test_mutation_is_involution():
    rng = random.Random(11)
    for _ in range(200):
        q = random_quiver(rng)
        v = rng.choice(q.mutable_labels)
        assert q.mutate(v).mutate(v) == q


def test_mutation_at_sink_only_reverses_incident_arrows():
    q = Quiver.from_arrows([1, 2, 3], [(1, 3, 2), (2, 3, 5), (1, 2, 1)])
    m = q.mutate(3)
    assert m.b(3, 1) == 2 and m.b(3, 2) == 5 and m.b(1, 2) == 1


def test_mutate_seq_empty_is_identity():
    q = kprime()
    assert q.mutate_seq(()) == q


def test_mutate_seq_telescopes():
    rng = random.Random(23)
    for _ in range(50):
        q = random_quiver(rng, max_n=6)
        seq = random_sequence(rng, q, 6)
        assert q.mutate_seq(seq + inverse_sequence(seq)) == q


def test_trajectory_length():
    q = kprime()
    assert len(tuple(q.walk((2, 3, 2)))) == 4


def test_mutate_rejects_unknown_and_frozen():
    q = kprime()
    with pytest.raises(UnknownVertexError):
        q.mutate(9)
    from redcycle import framed

    fq = framed(q)
    with pytest.raises(FrozenVertexError):
        fq.mutate(fq.frozen_labels[0])


def test_reduce_examples():
    assert reduce_sequence((1, 2, 2, 1, 3)) == (3,)
    assert reduce_sequence((1, 2, 1)) == (1, 2, 1)
    assert reduce_sequence((3, 2, 1, 2, 3, 1, 2, 1, 2, 1, 1, 3)) == (3, 2, 1, 2, 3, 1, 2, 1, 2, 3)


def test_reduce_idempotent_and_preserves_mutation():
    rng = random.Random(37)
    for _ in range(100):
        # weights kept small: eight worst-case mutations from |b|=9 can
        # genuinely leave the 64-bit range, which is its own test below
        q = random_quiver(rng, max_n=5, max_weight=3)
        seq = random_sequence(rng, q, 8)
        red = reduce_sequence(seq)
        assert reduce_sequence(red) == red
        assert q.mutate_seq(seq) == q.mutate_seq(red)


def test_restrict_full_is_identity():
    q = kprime()
    assert q.restrict(q.labels) == q


def test_restrict_commutes_with_mutation():
    rng = random.Random(41)
    for _ in range(200):
        q = random_quiver(rng, max_n=6)
        keep = [v for v in q.mutable_labels if rng.random() < 0.7]
        if not keep:
            continue
        v = rng.choice(keep)
        assert q.mutate(v).restrict(keep) == q.restrict(keep).mutate(v)


def test_restrict_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        kprime().restrict([1, 2, 99])


def _isomorphic_triangle_pair():
    q1 = Quiver.from_arrows([1, 2, 3], [(1, 2, 4), (2, 3, 4), (3, 1, 4)])
    q2 = Quiver.from_arrows([1, 2, 3], [(3, 2, 4), (2, 1, 4), (1, 3, 4)])
    return q1, q2


def test_equals_distinguishes_isomorphic_labelings():
    q1, q2 = _isomorphic_triangle_pair()
    assert q1 != q2
    assert q1 == q1


def test_relabeling_an_asymmetric_vertex_breaks_equality():
    q = kprime()  # weights 1, 4, 5: no nontrivial automorphism
    assert q != q.permuted(Permutation.from_cycles((1, 2)))


def test_find_isomorphism_on_triangle_pair():
    q1, q2 = _isomorphic_triangle_pair()
    sigma = find_isomorphism(q1, q2)
    assert sigma is not None
    assert q1.permuted(sigma) == q2
    # exchanging 1 and 2 is also a valid isomorphism for this pair
    assert q1.permuted(Permutation.from_cycles((1, 2))) == q2


def test_find_isomorphism_identity_on_equal_quivers():
    q = kprime()
    assert find_isomorphism(q, q) == Permutation.identity()


def test_find_isomorphism_absent_for_different_multiplicity():
    single = Quiver.from_arrows([1, 2], [(1, 2, 1)])
    double = Quiver.from_arrows([1, 2], [(1, 2, 2)])
    assert find_isomorphism(single, double) is None


def test_find_isomorphism_roundtrip_on_random_relabelings():
    rng = random.Random(53)
    for _ in range(100):
        q = random_quiver(rng, max_n=6)
        labels = list(q.mutable_labels)
        shuffled = labels[:]
        rng.shuffle(shuffled)
        sigma = Permutation(dict(zip(labels, shuffled)))
        relabeled = q.permuted(sigma)
        found = find_isomorphism(q, relabeled)
        assert found is not None
        assert q.permuted(found) == relabeled


def test_find_isomorphism_matches_brute_force():
    def check(q1, q2):
        sigma = find_isomorphism(q1, q2)
        assert (sigma is None) == (brute_isomorphism(q1, q2) is None)
        assert sigma is None or q1.permuted(sigma) == q2
        return sigma is not None

    def relabeled(q):
        labels = list(q.mutable_labels)
        shuffled = labels[:]
        rng.shuffle(shuffled)
        return q.permuted(Permutation(dict(zip(labels, shuffled))))

    rng = random.Random(173)
    for _ in range(300):
        q1 = random_quiver(rng, max_n=4, max_weight=2)
        if rng.random() < 0.5:
            q2 = relabeled(q1)
        else:
            q2 = random_quiver(rng, max_n=4, max_weight=2)
        if set(q1.mutable_labels) != set(q2.mutable_labels):
            continue
        check(q1, q2)
    # Framed and coframed walk states: frozen labels stay fixed, so an
    # isomorphism must also match the rows on the frozen columns.
    for frame in (framed, coframed):
        hits = []
        for _ in range(100):
            start = frame(random_quiver(rng, max_n=5, max_weight=2))
            state = start.mutate_seq(random_sequence(rng, start, 6))
            hits.append(check(state, relabeled(state)))
            hits.append(check(state, start.mutate_seq(random_sequence(rng, start, 6))))
        assert 0 < sum(hits) < len(hits)


def test_permuted_identity_and_inverse():
    q = kprime()
    sigma = Permutation.from_cycles((1, 2, 3))
    assert q.permuted(Permutation.identity()) == q
    assert q.permuted(sigma).permuted(sigma.inverse()) == q


def test_permuted_rejects_foreign_labels():
    with pytest.raises(UnknownVertexError):
        kprime().permuted(Permutation.from_cycles((1, 9)))


def test_opposite_involution_and_small_case():
    q = Quiver.from_arrows([1, 2], [(1, 2)])
    assert q.opposite() == Quiver.from_arrows([1, 2], [(2, 1)])
    rng = random.Random(61)
    for _ in range(50):
        r = random_quiver(rng, max_n=5)
        assert r.opposite().opposite() == r


def test_from_arrows_rejects_two_directions():
    with pytest.raises(ValueError):
        Quiver.from_arrows([1, 2], [(1, 2, 1), (2, 1, 1)])


@pytest.mark.parametrize("arrows", [
    [(1, 2, 1, 1)], [(1,)], [(1, 1), (1, 2, 1, 1)], [(3, 1), (1,)],
])
def test_from_arrows_checks_every_arrow_shape_first(arrows):
    # A loop or an unknown endpoint listed before a malformed arrow is not
    # the error reported.
    with pytest.raises(ValueError, match=r"^arrows must be \[src, dst\] or \[src, dst, mult\]$"):
        Quiver.from_arrows([1, 2], arrows)


def test_from_arrows_rejects_loops():
    for arrow in ((1, 1), (2, 2, 3)):
        with pytest.raises(ValueError, match=f"loop at vertex {arrow[0]}"):
            Quiver.from_arrows([1, 2], [arrow])


def _zeros(n):
    return [[0] * n for _ in range(n)]


@pytest.mark.parametrize("args, message", [
    (([1, 2], _zeros(2), None, [(1, 2)]), "frozen labels must be disjoint from mutable labels"),
    (([1, 1], _zeros(2)), "duplicate vertex labels"),
    (([0, 1], _zeros(2)), "labels must be positive integers"),
    (([1, 2], _zeros(2), [1, 3]), "labels do not match the mutable/frozen split"),
    (([1, 2], _zeros(3), None, [(5, 3)]), "invalid frozen pairing"),
    (([1, 2], [[0, 0]]), "exchange matrix shape does not match labels"),
    (([1, 2], [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], None, [(1, 3), (2, 4)]),
     "arrows between frozen vertices are not stored"),
])
def test_constructor_rejects_malformed_input(args, message):
    with pytest.raises(ValueError) as info:
        Quiver(*args)
    assert str(info.value) == message


def test_skew_symmetry_enforced():
    with pytest.raises(ValueError):
        Quiver([1, 2], [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        Quiver([1, 2], [[1, 0], [0, -1]])


def test_int_limit_enforced():
    with pytest.raises(IntegerOverflowError):
        Quiver([1, 2], [[0, 2**63], [-(2**63), 0]])


def test_mutation_can_overflow_and_raises():
    # Repeated mutation of a heavy rank-2 quiver grows without bound.
    q = Quiver.from_arrows([1, 2, 3], [(1, 2, 2**21), (2, 3, 2**21), (3, 1, 2**21)])
    with pytest.raises(IntegerOverflowError):
        for _ in range(8):
            q = q.mutate(1).mutate(2)


def test_sources_and_sinks():
    q = Quiver.from_arrows([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert q.sources() == (1,)
    assert q.sinks() == (3,)


def test_permutation_basics():
    sigma = Permutation.from_cycles((1, 3), (4, 6, 7))
    assert sigma(1) == 3 and sigma(3) == 1 and sigma(4) == 6 and sigma(7) == 4
    assert sigma(99) == 99
    assert sigma.order == 6
    assert (sigma * sigma.inverse()).is_identity
    assert sigma.map_sequence((1, 4, 5)) == (3, 6, 5)
    assert sigma**0 == Permutation.identity()
    assert sigma**3 == Permutation.from_cycles((1, 3))


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation({1: 2, 3: 2})
    with pytest.raises(ValueError):
        Permutation.from_cycles((1, 2), (2, 3))


def test_kernel_leaves_no_frozen_frozen_entries():
    # The path 11 -> 1 -> 12 through the mutated vertex makes the square
    # textbook rule create the arrow 11 -> 12 between two frozen vertices.
    # The kernel moves the mutable rows only, so that arrow never arises.
    q = Quiver.from_arrows([1, 2, 11, 12], [(1, 2), (11, 1), (1, 12)], frozen_pairs=[(1, 11), (2, 12)])
    raw = mutate_matrix([list(r) for r in q.rows()], 0)
    assert raw[2][3] != 0
    kernel = _mutated_rows(q.mutable_rows(), 0, INT_LIMIT)
    assert [list(r) for r in kernel] == raw[:2]
    mutated = q.mutate(1)
    assert mutated.mutable_rows() == tuple(kernel)
    assert mutated.rows()[2][3] == mutated.rows()[3][2] == 0
    assert [list(r[:2]) for r in mutated.rows()] == [r[:2] for r in raw]
