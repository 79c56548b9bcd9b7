"""Reddening and maximal green sequence verification."""

import random

import pytest

from redcycle import (
    Color,
    Permutation,
    Quiver,
    c_matrix,
    classify,
    conjugate_reddening,
    coframed,
    dreaded_torus,
    framed,
    grid_quiver,
    grid_reddening,
    is_maximal_green,
    is_reddening,
    catalog_item,
    source_sequence,
)
from redcycle.errors import CyclicQuiverError, IntegerOverflowError

from conftest import random_abundant_acyclic, random_quiver, random_sequence


def test_key_reddening_permutations():
    item = catalog_item("key_K_and_Kprime")
    K = item.quivers["K"]
    assert is_reddening(K, item.sequences["M"]) == Permutation.identity()
    assert is_reddening(K, item.sequences["Mprime"]) == Permutation.from_cycles((1, 2))


def test_grid_reddening_permutation():
    sigma = is_reddening(grid_quiver(3, 3), grid_reddening(3, 3))
    assert sigma == Permutation.from_cycles((1, 3), (4, 6), (7, 9))


def test_non_reddening_returns_none():
    a2 = Quiver.from_arrows([1, 2], [(1, 2)])
    assert is_reddening(a2, (1,)) is None
    assert is_reddening(a2, ()) is None


def test_reddening_verdict_matches_labeled_relabeling():
    # For every reddening hit, the mutated quiver equals the permuted one,
    # and the framed states satisfy the defining relation on the nose.
    cases = [
        (catalog_item("key_K_and_Kprime").quivers["K"], (3, 2, 1, 2, 3, 1, 2, 1, 2, 3)),
        (grid_quiver(3, 3), grid_reddening(3, 3)),
        (dreaded_torus(1), (1, 3, 4, 2, 1, 3)),
    ]
    for q, seq in cases:
        sigma = is_reddening(q, seq)
        assert sigma is not None
        assert q.mutate_seq(seq) == q.permuted(sigma)
        assert framed(q).mutate_seq(seq) == coframed(q).permuted(sigma)


def test_maximal_green_dreaded_torus():
    sigma = is_maximal_green(dreaded_torus(1), (1, 3, 4, 2, 1, 3))
    assert sigma == Permutation.from_cycles((1, 4), (2, 3))


def test_maximal_green_a2_both_sequences():
    a2 = Quiver.from_arrows([1, 2], [(1, 2)])
    assert is_maximal_green(a2, (1, 2)) == Permutation.identity()
    assert is_maximal_green(a2, (2, 1, 2)) == Permutation.from_cycles((1, 2))
    # mutating a red vertex disqualifies the sequence
    assert is_maximal_green(a2, (1, 1, 2)) is None


def test_rss_is_maximal_green():
    rng = random.Random(83)
    for _ in range(50):
        q = random_abundant_acyclic(rng, max_n=5)
        rss = source_sequence(q)
        assert is_maximal_green(q, rss) == Permutation.identity()


def _random_green_walk(rng, q, max_steps=12):
    """Greedily mutate random green vertices; an all-red endpoint makes the
    walked sequence a maximal green sequence by construction."""
    seq = []
    for _ in range(max_steps):
        c = c_matrix(q, seq)
        green = [v for v in q.mutable_labels if c.row_color(v) is Color.GREEN]
        if not green:
            return tuple(seq)
        seq.append(rng.choice(green))
    c = c_matrix(q, seq)
    return tuple(seq) if all(c.row_color(v) is Color.RED for v in q.mutable_labels) else None


def test_every_maximal_green_sequence_is_reddening():
    rng = random.Random(89)
    cases = 0
    for _ in range(100):
        q = random_quiver(rng, max_n=4, max_weight=2)
        try:
            seq = _random_green_walk(rng, q)
        except IntegerOverflowError:
            continue
        if seq is None:
            continue
        cases += 1
        mgs = is_maximal_green(q, seq)
        assert mgs is not None
        assert is_reddening(q, seq) == mgs
    assert cases > 30


def test_conjugation_example():
    assert conjugate_reddening((1, 2, 3), Permutation.identity(), (2,)) == (2, 1, 2, 3, 2)


def test_conjugation_empty_m_is_identity():
    sigma = Permutation.from_cycles((1, 2))
    assert conjugate_reddening((2, 1, 2), sigma, ()) == (2, 1, 2)


def test_conjugation_of_torus_mgs_verifies():
    q = dreaded_torus(1)
    sigma = Permutation.from_cycles((1, 4), (2, 3))
    conj = conjugate_reddening((1, 3, 4, 2, 1, 3), sigma, (1,))
    assert is_reddening(q.mutate(1), conj) is not None


def test_conjugation_property_random():
    rng = random.Random(97)
    for _ in range(150):
        q = random_abundant_acyclic(rng, max_n=4, max_weight=4)
        rss = source_sequence(q)
        sigma = is_reddening(q, rss)
        assert sigma == Permutation.identity()
        m = random_sequence(rng, q, 5)
        conj = conjugate_reddening(rss, sigma, m)
        assert is_reddening(q.mutate_seq(m), conj) is not None


def test_source_sequence_examples():
    assert source_sequence(Quiver.from_arrows([1, 2], [(1, 2)])) == (1, 2)
    q = Quiver.from_arrows([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert source_sequence(q) == (1, 2, 3)
    K = catalog_item("key_K_and_Kprime").quivers["K"]
    with pytest.raises(CyclicQuiverError):
        source_sequence(K)


def test_source_sequence_fixes_quiver():
    rng = random.Random(101)
    for _ in range(100):
        q = random_abundant_acyclic(rng, max_n=5)
        rss = source_sequence(q)
        assert q.mutate_seq(rss) == q
        assert is_reddening(q, rss) == Permutation.identity()


def test_reduced_reddening_sequences_avoid_forks_on_catalog_nonforks():
    cases = [
        (catalog_item("key_K_and_Kprime").quivers["Kprime"], (1, 2, 3)),
        (grid_quiver(3, 3), grid_reddening(3, 3)),
        (catalog_item("Rprime").quivers["Q"], catalog_item("Rprime").sequences["S"]),
        (catalog_item("Rdoubleprime").quivers["Q"], catalog_item("Rdoubleprime").sequences["S"]),
        (dreaded_torus(1), (1, 3, 4, 2, 1, 3)),
        (catalog_item("T5").quivers["Q"], catalog_item("T5").sequences["S"]),
    ]
    for q, seq in cases:
        assert not classify(q).is_fork
        for state in q.walk(seq):
            assert not classify(state).is_fork
