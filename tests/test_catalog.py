"""Catalog generators and the self-verifying registry."""

from dataclasses import replace

import pytest

from redcycle import (
    Permutation,
    Quiver,
    box_quiver,
    catalog_names,
    chebyshev_u,
    dreaded_torus,
    find_isomorphism,
    fordy_marsh,
    grid_quiver,
    grid_reddening,
    is_maximal_green,
    is_reddening,
    catalog_item,
    punctured_sphere,
    punctured_sphere_names,
    verify_cycle,
)
from redcycle.catalog import _evaluate, verify_item
from redcycle.errors import IntegerOverflowError, UnknownNameError


def test_every_registry_item_verifies():
    for name in catalog_names():
        for check, ok, detail in verify_item(name):
            assert ok, f"{name}: {check} {detail}"


def test_unknown_name_raises():
    with pytest.raises(UnknownNameError):
        catalog_item("nope")


def test_chebyshev_values():
    assert all(chebyshev_u(0, a) == 1 for a in (2, 3, 7))
    assert chebyshev_u(1, 2) == 2
    assert chebyshev_u(2, 2) == 3
    assert chebyshev_u(3, 2) == 4
    assert chebyshev_u(-1, 5) == 0
    with pytest.raises(ValueError):
        chebyshev_u(-2, 2)


def test_fordy_marsh_smallest_instance():
    q, cycle, sigma = fordy_marsh(2, 2, 2, 1)
    assert q.b(3, 4) == 2 and q.b(4, 1) == 6 and q.b(2, 4) == 2
    assert cycle == (2, 4, 1, 3)
    assert sigma == Permutation.from_cycles((1, 2), (3, 4))
    report = verify_cycle(q, cycle)
    assert report.closes_equal and report.simple and report.length == 4


def test_fordy_marsh_cycle_length_formula():
    for k in range(1, 6):
        _, cycle, _ = fordy_marsh(2, 3, 2, k)
        assert len(cycle) == 2 * k + 2


def test_fordy_marsh_half_cycle_relabels():
    # After L,4 the quiver is a relabeled copy of itself: by (1,2)(3,4) for
    # odd k (each of 1,2 mutated unevenly), by (3,4) alone for even k.
    for k, expected in ((1, ((1, 2), (3, 4))), (3, ((1, 2), (3, 4))), (2, ((3, 4),)), (4, ((3, 4),))):
        q, cycle, _ = fordy_marsh(3, 2, 3, k)
        half = cycle[: k + 1]
        assert q.mutate_seq(half) == q.permuted(Permutation.from_cycles(*expected))


def test_fordy_marsh_validates_bounds():
    with pytest.raises(ValueError):
        fordy_marsh(1, 2, 2, 1)
    with pytest.raises(ValueError):
        fordy_marsh(2, 2, 2, 0)


def test_grid_quiver_r33_matches_figure():
    q = grid_quiver(3, 3)
    expected = Quiver.from_arrows(
        range(1, 10),
        [
            (2, 1), (3, 2), (5, 4), (6, 5), (8, 7), (9, 8),
            (4, 1), (5, 2), (6, 3), (7, 4), (8, 5), (9, 6),
            (1, 5), (2, 6), (4, 8), (5, 9),
        ],
    )
    assert q == expected


def test_grid_reddening_sequences():
    assert grid_reddening(3, 3) == (7, 4, 1, 8, 7, 5, 4, 2, 1, 9, 8, 7, 6, 5, 4, 3, 2, 1)
    assert grid_reddening(1, 1) == (1,)
    for k, ell in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="grid dimensions must be >= 1"):
            grid_quiver(k, ell)
        with pytest.raises(ValueError, match="grid dimensions must be >= 1"):
            grid_reddening(k, ell)
    seq22 = grid_reddening(2, 2)
    assert len(seq22) == 6
    assert is_reddening(grid_quiver(2, 2), seq22) is not None


def test_grid_reddening_length_formula():
    for k in range(1, 5):
        for ell in range(1, 5):
            seq = grid_reddening(k, ell)
            assert len(seq) == (ell + 1) * ell // 2 * k
            assert is_reddening(grid_quiver(k, ell), seq) is not None


def test_punctured_sphere_vertex_count():
    for k in (4, 5, 6):
        q, _, _ = punctured_sphere(k)
        assert q.rank == 3 * (k - 2)


def test_punctured_sphere_t5_sequence_verbatim():
    names = punctured_sphere_names(5)
    q, seq, sigma = punctured_sphere(5)
    order = ["w1", "sbar", "tbar", "u1", "v1", "u2", "v2", "w1", "s", "t",
             "v1", "v2", "tbar", "u2", "u1", "sbar", "u2", "tbar", "v2", "v1"]
    assert seq == tuple(names[n] for n in order)
    assert sigma == Permutation.from_cycles(
        (names["u1"], names["v1"], names["sbar"], names["s"]),
        (names["t"], names["tbar"]),
        (names["u2"], names["v2"]),
    )
    assert is_maximal_green(q, seq) == sigma


def test_punctured_sphere_small_and_larger_cases():
    for k in (4, 6):
        q, seq, sigma = punctured_sphere(k)
        assert is_maximal_green(q, seq) == sigma
    with pytest.raises(ValueError, match="need k >= 4"):
        punctured_sphere_names(3)


def test_dreaded_torus_family():
    assert dreaded_torus(1).b(3, 4) == 2
    assert dreaded_torus(3).b(3, 4) == 6
    for a in (1, 2, 3, 4):
        assert is_maximal_green(dreaded_torus(a), (1, 3, 4, 2, 1, 3)) is not None
    with pytest.raises(ValueError):
        dreaded_torus(0)


def test_half_finite_recurrence():
    item = catalog_item("half_finite_12")
    q = item.quivers["Q"]
    assert q.mutate_seq(item.sequences["S_circ"]) == q.opposite()
    assert q.mutate_seq(item.sequences["S_bullet"]) == q.opposite()


def test_half_finite_block_mutations_commute():
    # No arrows join two odd or two even vertices, so mutations within one
    # block commute and any rearrangement still reddens.
    item = catalog_item("half_finite_12")
    q = item.quivers["Q"]
    rearranged = (4, 2, 8, 6, 12, 10) + (3, 1, 7, 5, 11, 9) + (2, 4, 6, 8, 10, 12) + (1, 3, 5, 7, 9, 11)
    assert is_reddening(q, rearranged) is not None
    for block in (item.sequences["S_circ"], item.sequences["S_bullet"]):
        for u in block:
            for v in block:
                assert u == v or q.b(u, v) == 0


def test_half_finite_restriction_recovers_base():
    ext = catalog_item("half_finite_ext_15").quivers["P"]
    base = catalog_item("half_finite_12").quivers["Q"]
    assert ext.restrict(range(1, 13)) == base
    assert ext.rank == 15 and base.rank == 12


def test_banff_vertex_counts_and_source():
    item = catalog_item("banff_Q")
    q = item.quivers["Q"]
    assert q.rank == 6
    after = q.mutate_seq(item.sequences["M"])
    assert 4 in after.sources()


def test_banff_extension_has_fourteen_vertices_no_six():
    ext = catalog_item("banff_extension_14").quivers["extension"]
    assert ext.rank == 14
    assert 6 not in ext.mutable_labels
    # six cross arrows, two of weight three
    a = catalog_item("banff_extension_14").matrices["A"]
    assert sum(1 for row in a for x in row if x) == 6
    assert sorted(x for row in a for x in row if x) == [1, 1, 1, 1, 3, 3]


def test_positroid_subquiver_relations():
    r33 = grid_quiver(3, 3)
    rp = catalog_item("Rprime")
    image = rp.quivers["Q"].mutate_seq(rp.sequences["to_subquiver"])
    assert find_isomorphism(image, r33.restrict(range(1, 9))) is not None
    rpp = catalog_item("Rdoubleprime")
    keep = [v for v in range(1, 10) if v != 6]
    assert r33.mutate_seq(rpp.sequences["grid_mutation"]).restrict(keep) == rpp.quivers["Q"]


def test_infinite_reduced_key_sequences():
    item = catalog_item("infinite_reduced_key")
    q = item.quivers["Q"]
    for key in ("short", "N"):
        assert is_reddening(q, item.sequences[key]) == Permutation.identity()


def test_box_quiver_weights():
    q = box_quiver(3, 5)
    assert q.b(1, 2) == 3 and q.b(2, 3) == 5 and q.b(3, 4) == 3 and q.b(4, 1) == 5


def test_chebyshev_overflow_raises():
    from redcycle.errors import IntegerOverflowError

    with pytest.raises(IntegerOverflowError):
        chebyshev_u(100, 10)


def test_relabeled_requires_injective_mapping():
    q = grid_quiver(2, 2)
    with pytest.raises(ValueError):
        q.relabeled({1: 2})


def test_three_torus_check_pins_the_overflow_step():
    # The recorded splice must overflow exactly where the exact-integer
    # walk of criterion 7e leaves 64 bits; a splice that overflows at
    # another step is a different walk and fails the check.
    name = "recorded 60-term splice diverges (known discrepancy)"
    item = catalog_item("three_torus_extension")
    assert dict((c, ok) for c, ok, _ in _evaluate(item))[name]
    shifted = (1, 1) + item.sequences["stated_cycle"]
    q = item.quivers["Q"]
    verify_cycle(q, shifted[:51])
    with pytest.raises(IntegerOverflowError):
        verify_cycle(q, shifted[:52])
    moved = replace(item, sequences={**item.sequences, "stated_cycle": shifted})
    assert not dict((c, ok) for c, ok, _ in _evaluate(moved))[name]
    # A splice that closes without leaving 64 bits fails the check too.
    closing = replace(item, sequences={**item.sequences, "stated_cycle": item.sequences["cycle"]})
    assert not dict((c, ok) for c, ok, _ in _evaluate(closing))[name]
