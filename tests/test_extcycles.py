"""Triangular extensions, cycle constructions, and verification."""

import random
import re

import pytest

from redcycle import (
    ExtensionSpec,
    Permutation,
    Quiver,
    build_acyclic_cycle,
    build_cycle_equal,
    build_cycle_general,
    c_matrix,
    cross_block,
    dreaded_torus,
    framed,
    is_distinguishing,
    is_reddening,
    catalog_item,
    predicted_cross_block,
    source_sequence,
    triangular_extension,
    verify_cycle,
)
from redcycle.errors import (
    AlreadyFramedError,
    CyclicQuiverError,
    IntegerOverflowError,
    LabelCollisionError,
    NegativeEntryError,
    NonIdentityPermutationError,
    NotReddeningError,
    RedcycleError,
)

from conftest import random_abundant_acyclic, random_sequence


def test_extension_matches_figure_one():
    item = catalog_item("fig1_extension")
    ext = triangular_extension(ExtensionSpec(item.quivers["t"], item.quivers["h"], item.matrices["a"]))
    assert ext == item.quivers["extension"]
    assert ext.b(5, 1) == 7 and ext.b(5, 4) == 2 and ext.b(6, 2) == 5 and ext.b(6, 3) == 5


def test_extension_zero_matrix_is_disjoint_union():
    t = Quiver.from_arrows([1, 2], [(1, 2, 3)])
    h = Quiver.from_arrows([5, 6], [(6, 5, 2)])
    ext = triangular_extension(ExtensionSpec(t, h, ((0, 0), (0, 0))))
    assert ext.b(1, 2) == 3 and ext.b(6, 5) == 2
    assert all(ext.b(a, b) == 0 for a in (1, 2) for b in (5, 6))


def test_extension_key_triangular_figure():
    K = catalog_item("key_K_and_Kprime").quivers["K"]
    single = Quiver.from_arrows([4], [])
    ext = triangular_extension(ExtensionSpec(single, K, ((2, 4, 3),)))
    expected = Quiver.from_arrows(
        [1, 2, 3, 4],
        [(1, 2, 35), (2, 3, 4), (3, 1, 9), (4, 1, 2), (4, 2, 4), (4, 3, 3)],
    )
    assert ext == expected


def test_extension_spec_validation():
    t = Quiver.from_arrows([1, 2], [(1, 2)])
    with pytest.raises(LabelCollisionError):
        ExtensionSpec(t, Quiver.from_arrows([2, 3], [(2, 3)]), ((0, 0), (0, 0)))
    with pytest.raises(NegativeEntryError):
        ExtensionSpec(t, Quiver.from_arrows([5, 6], [(5, 6)]), ((0, -1), (0, 0)))
    with pytest.raises(ValueError):
        ExtensionSpec(t, Quiver.from_arrows([5, 6], [(5, 6)]), ((0, 0),))


def test_extension_spec_errors_are_library_errors():
    t, h = Quiver.from_arrows([1, 2], [(1, 2)]), Quiver.from_arrows([5, 6], [(5, 6)])
    with pytest.raises(AlreadyFramedError):
        ExtensionSpec(framed(t), h, ((0, 0), (0, 0)))
    with pytest.raises(AlreadyFramedError):
        ExtensionSpec(t, framed(h), ((0, 0), (0, 0)))
    # A wrong shape is a ValueError and a RedcycleError, and its message
    # names what is wrong rather than the shape that was wanted twice.
    for a, message in [
        ((), "extension matrix must be 2x2: 0 row(s) given"),
        (((1, 2), (1,)), "extension matrix must be 2x2: row 2 has length 1"),
        (((1,), (1, 2)), "extension matrix must be 2x2: row 1 has length 1"),
    ]:
        with pytest.raises(RedcycleError, match=rf"^{re.escape(message)}$") as info:
            ExtensionSpec(t, h, a)
        assert isinstance(info.value, ValueError)


def test_extension_matrix_entries_must_be_integers():
    t, h = Quiver.from_arrows([1], []), Quiver.from_arrows([5], [])
    with pytest.raises(TypeError):
        ExtensionSpec(t, h, ((1.9,),))


def test_predicted_cross_block_empty_sequence_is_a():
    item = catalog_item("fig1_extension")
    spec = ExtensionSpec(item.quivers["t"], item.quivers["h"], item.matrices["a"])
    assert predicted_cross_block(spec, ()) == item.matrices["a"]


def test_predicted_cross_block_single_vertex_source_mutation():
    K = catalog_item("key_K_and_Kprime").quivers["K"]
    single = Quiver.from_arrows([4], [])
    spec = ExtensionSpec(single, K, ((2, 4, 3),))
    predicted = predicted_cross_block(spec, (4,))
    assert predicted == ((-2, -4, -3),)
    actual = triangular_extension(spec).mutate((4,)[0])
    assert cross_block(actual, (4,), (1, 2, 3)) == predicted


def test_cross_block_law_random():
    rng = random.Random(137)
    for _ in range(150):
        t = random_abundant_acyclic(rng, max_n=3, max_weight=3)
        h_labels = [v + 10 for v in range(1, rng.randint(2, 4))]
        h = Quiver.from_arrows(h_labels, [(h_labels[0], h_labels[-1], 1)] if len(h_labels) > 1 else [])
        a = tuple(
            tuple(rng.randint(0, 3) for _ in h_labels) for _ in t.mutable_labels
        )
        spec = ExtensionSpec(t, h, a)
        seq = random_sequence(rng, t, 8)
        predicted = predicted_cross_block(spec, seq)
        mutated = triangular_extension(spec).mutate_seq(seq)
        assert cross_block(mutated, t.mutable_labels, h.mutable_labels) == predicted
        # row signs track the vertex colors in the mutated framed factor
        c = c_matrix(t, seq)
        for i, v in enumerate(t.mutable_labels):
            row = predicted[i]
            color = c.row_color(v)
            if color.value == "green":
                assert all(x >= 0 for x in row)
            else:
                assert all(x <= 0 for x in row)


def test_build_cycle_equal_fig1():
    item = catalog_item("fig1_extension")
    q, seq = build_cycle_equal(
        item.quivers["t"], item.sequences["m_t"],
        item.quivers["h"], item.sequences["m_h"], item.matrices["a"],
    )
    assert q == item.quivers["extension"]
    assert seq == item.sequences["cycle"]
    report = verify_cycle(q, seq)
    assert report.closes_equal and report.simple and report.length == 10


def test_build_cycle_equal_rejects_nonidentity_permutations():
    item = catalog_item("two_torus_extension")
    with pytest.raises(NonIdentityPermutationError):
        build_cycle_equal(
            item.quivers["t"], item.sequences["m_t"],
            item.quivers["h"], item.sequences["m_h"], item.matrices["a"],
        )


def test_build_cycle_equal_rejects_non_reddening():
    t = Quiver.from_arrows([1, 2], [(1, 2)])
    h = Quiver.from_arrows([5, 6], [(5, 6)])
    with pytest.raises(NotReddeningError):
        build_cycle_equal(t, (1,), h, (5, 6), ((1, 0), (0, 0)))


def test_build_cycle_equal_abundant_acyclic_rss():
    rng = random.Random(139)
    for _ in range(30):
        t = random_abundant_acyclic(rng, max_n=3)
        h = random_abundant_acyclic(rng, max_n=3).relabeled(
            {v: v + 10 for v in range(1, 6)}
        )
        a = tuple(tuple(rng.randint(0, 4) for _ in h.mutable_labels) for _ in t.mutable_labels)
        q, seq = build_cycle_equal(t, source_sequence(t), h, source_sequence(h), a)
        assert len(seq) == t.rank + h.rank
        assert verify_cycle(q, seq).closes_equal


def test_build_cycle_general_two_tori_reproduces_stated_cycle():
    item = catalog_item("two_torus_extension")
    q, seq = build_cycle_general(
        item.quivers["t"], item.sequences["m_t"],
        item.quivers["h"], item.sequences["m_h"], item.matrices["a"],
    )
    assert q == item.quivers["Q"]
    assert seq == item.sequences["cycle"]
    assert verify_cycle(q, seq).closes_equal


def test_concatenated_reddening_property():
    # m_t . m_h is itself a reddening sequence of the extension, with the
    # product permutation (the factors act on disjoint labels).
    item = catalog_item("two_torus_extension")
    q = item.quivers["Q"]
    rho = is_reddening(item.quivers["t"], item.sequences["m_t"])
    sigma = is_reddening(item.quivers["h"], item.sequences["m_h"])
    combined = is_reddening(q, item.sequences["m_t"] + item.sequences["m_h"])
    assert combined == rho * sigma


def test_iso_closure_of_general_cycles():
    item = catalog_item("two_torus_extension")
    q = item.quivers["Q"]
    one_round = item.sequences["m_t"] + item.sequences["m_h"]
    from redcycle import find_isomorphism

    assert find_isomorphism(q, q.mutate_seq(one_round)) is not None


def test_built_cycles_concatenation_invariants():
    # For each built extension, one round m_t . m_h (i) reddens the extension
    # with the product permutation and (ii) lands on an isomorphic quiver.
    from redcycle import find_isomorphism

    two = catalog_item("two_torus_extension")
    ext = catalog_item("half_finite_ext_15")
    base = catalog_item("half_finite_12")
    cases = [
        (two.quivers["t"], two.sequences["m_t"],
         two.quivers["h"], two.sequences["m_h"], two.matrices["a"]),
        (base.quivers["Q"], ext.sequences["S"],
         ext.quivers["triangle"], ext.sequences["M2"], ext.matrices["a"]),
    ]
    for t, m_t, h, m_h, a in cases:
        q, _ = build_cycle_general(t, m_t, h, m_h, a)
        rho = is_reddening(t, m_t)
        sigma = is_reddening(h, m_h)
        one_round = tuple(m_t) + tuple(m_h)
        assert is_reddening(q, one_round) == rho * sigma
        assert find_isomorphism(q, q.mutate_seq(one_round)) is not None


def test_build_acyclic_cycle_key_triangular_example():
    # T = the single vertex 4, H = the acyclic key K', conjugated by (2,3).
    Kp = catalog_item("key_K_and_Kprime").quivers["Kprime"]
    single = Quiver.from_arrows([4], [])
    q, seq = build_acyclic_cycle(single, (), Kp, (2, 3), ((2, 4, 3),))
    expected = Quiver.from_arrows(
        [1, 2, 3, 4],
        [(1, 2, 35), (2, 3, 4), (3, 1, 9), (4, 1, 2), (4, 2, 4), (4, 3, 3)],
    )
    assert q == expected
    assert seq == (4, 3, 2, 1, 2, 3, 2, 3)
    report = verify_cycle(q, seq)
    assert report.closes_equal and report.simple


def test_transposed_cycle_ordering_does_not_close():
    # A tempting reordering of the cycle above (swapping the conjugator
    # with the source-sequence prefix) fails; regression-pinned because the
    # two orderings are easy to confuse.
    q = Quiver.from_arrows(
        [1, 2, 3, 4],
        [(1, 2, 35), (2, 3, 4), (3, 1, 9), (4, 1, 2), (4, 2, 4), (4, 3, 3)],
    )
    assert not verify_cycle(q, (4, 3, 2, 3, 2, 1, 2, 3)).closes_equal


def test_build_acyclic_cycle_empty_conjugators():
    t = Quiver.from_arrows([1, 2], [(1, 2, 2)])
    h = Quiver.from_arrows([5, 6], [(5, 6, 3)])
    q, seq = build_acyclic_cycle(t, (), h, (), ((1, 0), (2, 1)))
    assert seq == source_sequence(t) + source_sequence(h)
    assert verify_cycle(q, seq).closes_equal


def test_build_acyclic_cycle_rejects_cyclic_factor():
    K = catalog_item("key_K_and_Kprime").quivers["K"]
    single = Quiver.from_arrows([4], [])
    with pytest.raises(CyclicQuiverError):
        build_acyclic_cycle(single, (), K, (), ((1, 1, 1),))


def test_generalized_cycles_on_abundant_acyclic_factors_are_simple():
    rng = random.Random(149)
    built = 0
    for _ in range(40):
        t = random_abundant_acyclic(rng, max_n=3)
        h = random_abundant_acyclic(rng, max_n=3).relabeled(
            {v: v + 10 for v in range(1, 6)}
        )
        m = random_sequence(rng, t, 3, reduced=True)
        n = random_sequence(rng, h, 3, reduced=True)
        a = tuple(
            tuple(rng.randint(0, 3) for _ in h.mutable_labels) for _ in t.mutable_labels
        )
        if all(x == 0 for row in a for x in row):
            continue
        q, seq = build_acyclic_cycle(t, m, h, n, a)
        if not seq or not verify_cycle(q, seq).is_reduced:
            continue
        built += 1
        assert verify_cycle(q, seq).simple
    assert built > 20


def test_is_distinguishing_trivial_cases():
    t = Quiver.from_arrows([1, 2], [(1, 2, 2)])
    assert is_distinguishing(t, (), ((1,), (2,)))
    assert not is_distinguishing(t, (1, 1), ((1,), (2,)))


def test_nonzero_matrices_distinguish_abundant_acyclic_conjugates():
    t = Quiver.from_arrows([1, 2, 3], [(1, 2, 2), (2, 3, 2), (1, 3, 2)])
    rss = source_sequence(t)
    rng = random.Random(151)
    from redcycle import conjugate_reddening, is_reduced

    from redcycle.errors import IntegerOverflowError

    hits = 0
    for _ in range(30):
        m = random_sequence(rng, t, 4, reduced=True)
        seq = conjugate_reddening(rss, Permutation.identity(), m)
        if not is_reduced(seq):
            continue
        column = tuple((rng.randint(0, 2),) for _ in t.mutable_labels)
        if all(x == (0,) for x in column):
            continue
        try:
            assert is_distinguishing(t, seq, column)
            hits += 1
        except IntegerOverflowError:
            continue
    assert hits > 10


def test_distinguishing_preconditions_imply_simplicity():
    # With identity-permutation reddening sequences on both factors, a
    # matrix that distinguishes both trajectories and has a strictly
    # positive row forces the built cycle to be simple.
    rng = random.Random(163)
    checked = 0
    for _ in range(30):
        t = random_abundant_acyclic(rng, max_n=3)
        h = random_abundant_acyclic(rng, max_n=3).relabeled(
            {v: v + 10 for v in range(1, 6)}
        )
        m_t, m_h = source_sequence(t), source_sequence(h)
        a = tuple(
            tuple(rng.randint(0, 3) for _ in h.mutable_labels)
            for _ in t.mutable_labels
        )
        a_t = tuple(tuple(row[j] for row in a) for j in range(len(a[0])))
        if not any(all(x > 0 for x in row) for row in a):
            continue
        if not is_distinguishing(t, m_t, a) or not is_distinguishing(h, m_h, a_t):
            continue
        q, seq = build_cycle_equal(t, m_t, h, m_h, a)
        assert verify_cycle(q, seq).simple
        checked += 1
    assert checked > 10


def test_cycle_rotations_and_reversal_also_close():
    # A mutation cycle stays a cycle after rotating the start point along
    # its own trajectory, and the reversed sequence closes it backwards.
    item = catalog_item("two_torus_extension")
    q = item.quivers["Q"]
    seq = item.sequences["cycle"]
    traj = tuple(q.walk(seq))
    for j in (1, 5, 12, 23):
        rotated = seq[j:] + seq[:j]
        assert verify_cycle(traj[j], rotated).closes_equal
    from redcycle import inverse_sequence

    assert verify_cycle(q, inverse_sequence(seq)).closes_equal


def test_verify_cycle_double_mutation_report():
    q = dreaded_torus(1)
    report = verify_cycle(q, (1, 1))
    assert report.closes_equal
    assert not report.is_reduced
    assert not report.simple
    assert report.length == 2
    assert report.closes_iso == Permutation.identity()


def test_verify_cycle_trajectory_hashes_detect_repeats():
    q = dreaded_torus(1)
    report = verify_cycle(q, (1, 1))
    assert report.trajectory_hashes[0] == report.trajectory_hashes[2]
    assert report.trajectory_hashes[0] != report.trajectory_hashes[1]


def test_verify_cycle_all_abundant_flag():
    aa = Quiver.from_arrows([1, 2, 3], [(1, 2, 2), (2, 3, 2), (1, 3, 2)])
    report = verify_cycle(aa, source_sequence(aa))
    assert report.all_abundant
    item = catalog_item("fig1_extension")
    assert not verify_cycle(item.quivers["extension"], item.sequences["cycle"]).all_abundant


def test_verify_cycle_names_the_overflow_step():
    # The recorded three-torus splice first leaves the 64-bit range at
    # sequence index 49; two leading no-op steps move that to index 51.
    item = catalog_item("three_torus_extension")
    q, seq = item.quivers["Q"], item.sequences["stated_cycle"]
    for walk, step in ((seq[:50], 49), (seq, 49), ((1, 1) + seq, 51)):
        with pytest.raises(IntegerOverflowError) as info:
            verify_cycle(q, walk)
        assert str(info.value).endswith(f", at sequence index {step}")
        assert info.value.step == step
