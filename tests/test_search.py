"""Bounded reddening search and mutation-class enumeration."""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from redcycle import (
    Permutation,
    Quiver,
    box_quiver,
    dreaded_torus,
    enumerate_class,
    is_maximal_green,
    is_reddening,
    search_reddening,
)

from redcycle.cli import main

from conftest import random_quiver, reference_search_reddening


def rank2(a: int) -> Quiver:
    if a == 0:
        return Quiver.from_arrows([1, 2], [])
    return Quiver.from_arrows([1, 2], [(1, 2, a)])


def seqs(result):
    return {s for s, _ in result}


def test_rank2_no_arrows_length5():
    result = search_reddening(rank2(0), max_len=5, reduced_only=True)
    assert seqs(result) == {(1, 2), (2, 1)}
    assert result.complete


def test_rank2_no_arrows_length6_loops_back():
    # The alternating length-6 walks are adjacent-reduced reddening
    # sequences, but they revisit the initial framed state; simple-path
    # pruning recovers the two essentially different ones.
    plain = search_reddening(rank2(0), max_len=6, reduced_only=True)
    assert seqs(plain) == {(1, 2), (2, 1), (1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1)}
    pruned = search_reddening(rank2(0), max_len=6, reduced_only=True, prune_revisited=True)
    assert seqs(pruned) == {(1, 2), (2, 1)}


def test_rank2_single_arrow():
    result = search_reddening(rank2(1), max_len=6, reduced_only=True)
    assert seqs(result) == {(1, 2), (2, 1, 2)}
    perms = dict(result.sequences)
    assert perms[(1, 2)] == Permutation.identity()
    assert perms[(2, 1, 2)] == Permutation.from_cycles((1, 2))


def test_rank2_multiple_arrows():
    for a in (2, 3, 4):
        result = search_reddening(rank2(a), max_len=6, reduced_only=True)
        assert seqs(result) == {(1, 2)}, a
        assert result.complete


def test_search_results_pass_is_reddening():
    rng = random.Random(131)
    for _ in range(20):
        q = random_quiver(rng, max_n=3, max_weight=2)
        for seq, sigma in search_reddening(q, max_len=4, reduced_only=True):
            assert is_reddening(q, seq) == sigma


def test_green_only_results_are_maximal_green():
    q = dreaded_torus(1)
    result = search_reddening(q, max_len=6, reduced_only=True, green_only=True)
    assert (1, 3, 4, 2, 1, 3) in seqs(result)
    for seq, sigma in result:
        assert is_maximal_green(q, seq) == sigma


def test_first_only_stops_early():
    result = search_reddening(rank2(1), max_len=6, reduced_only=True, first_only=True)
    assert len(result) == 1


def test_search_is_deterministic():
    q = dreaded_torus(1)
    a = search_reddening(q, max_len=6, reduced_only=True)
    b = search_reddening(q, max_len=6, reduced_only=True)
    assert a.sequences == b.sequences
    assert [s for s, _ in a.sequences] == sorted(s for s, _ in a.sequences)


def test_dreaded_torus_many_permutations():
    result = search_reddening(dreaded_torus(1), max_len=8, reduced_only=True)
    perms = {sigma for _, sigma in result}
    assert len(perms) >= 3


def test_box_quiver_has_no_short_reddening_sequences():
    # Weights in this class outgrow the default guardrail within 8 steps,
    # so the default search is visibly incomplete; lifting the limit makes
    # it exhaustive (bigint arithmetic stays cheap at this depth) and the
    # result is still empty.
    guarded = search_reddening(box_quiver(2, 2), max_len=8, reduced_only=True)
    assert len(guarded) == 0
    assert guarded.overflow_branches > 0 and not guarded.complete
    full = search_reddening(
        box_quiver(2, 2), max_len=8, reduced_only=True, weight_limit=10**100
    )
    assert len(full) == 0
    assert full.complete


def test_weight_guardrail_counts_aborted_branches():
    heavy = Quiver.from_arrows([1, 2, 3], [(1, 2, 64), (2, 3, 64), (3, 1, 64)])
    result = search_reddening(heavy, max_len=10, reduced_only=True, weight_limit=2**20)
    assert result.overflow_branches > 0
    assert not result.complete


def test_search_matches_brute_force_enumeration():
    from redcycle import c_matrix

    def brute(q, max_len, reduced):
        hits = set()

        def walk(seq):
            if seq and c_matrix(q, seq).all_red():
                hits.add(seq)
            if len(seq) == max_len:
                return
            for v in q.mutable_labels:
                if reduced and seq and seq[-1] == v:
                    continue
                walk(seq + (v,))

        walk(())
        return hits

    rng = random.Random(179)
    for _ in range(25):
        q = random_quiver(rng, max_n=3, max_weight=2)
        max_len = rng.randint(1, 4)
        reduced = rng.random() < 0.5
        mine = {
            s for s, _ in search_reddening(
                q, max_len=max_len, reduced_only=reduced, weight_limit=10**50
            )
        }
        assert mine == brute(q, max_len, reduced)


def test_search_matches_recursive_reference():
    # Every flag combination, every length bound up to 6, at the default
    # guardrail and at one low enough that branches are cut.
    rng = random.Random(211)
    flags = ("reduced_only", "green_only", "first_only", "prune_revisited")
    found = cut = 0
    for rank in (1, 2, 3, 4):
        q = random_quiver(rng, min_n=rank, max_n=rank, max_weight=2)
        for values in itertools.product((False, True), repeat=len(flags)):
            for max_len in range(7):
                for limit in ({}, {"weight_limit": 2**6}):
                    kwargs = dict(zip(flags, values), **limit)
                    result = search_reddening(q, max_len, **kwargs)
                    expected = reference_search_reddening(q, max_len, **kwargs)
                    assert (result.sequences, result.overflow_branches) == expected, (
                        q, max_len, kwargs)
                    found += len(result)
                    cut += result.overflow_branches
    assert found > 0 and cut > 0


def test_guardrail_cuts_every_child_of_a_start_state_over_the_limit():
    # Mutation never shrinks the triple arrow, so every child of the start
    # state is over the limit, though no child grows an entry past it.
    q = Quiver.from_arrows([1, 2, 3], [(1, 2, 3), (2, 3)])
    for reduced in (False, True):
        for green in (False, True):
            kwargs = dict(reduced_only=reduced, green_only=green, weight_limit=2)
            result = search_reddening(q, 4, **kwargs)
            assert (result.sequences, result.overflow_branches) == reference_search_reddening(q, 4, **kwargs)
            assert result.sequences == () and result.overflow_branches == 3


def test_deep_search_is_not_bounded_by_recursion(tmp_path, capsys):
    # One vertex: every odd-length sequence is reddening.  A2: the first
    # dive repeats vertex 1 to the length bound before it tries vertex 2.
    point = Quiver.from_arrows([1], [])
    result = search_reddening(point, 3000)
    assert len(result) == 1500 and result.complete
    assert result.sequences[-1][0] == (1,) * 2999
    a2 = Quiver.from_arrows([1, 2], [(1, 2)])
    assert len(search_reddening(a2, 3000, first_only=True)) == 1
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"vertices": [1], "arrows": []}))
    assert main(["reddening-search", "--in", str(path), "--max-len", "3000", "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["count"] == 1500
    assert "Traceback" not in captured.err


def test_cli_exits_141_without_traceback_when_the_pipe_closes(tmp_path):
    # The reader takes 100 bytes of a megabytes-long report and closes the
    # pipe, as ``| head -c 100`` does.
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"vertices": [1], "arrows": []}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "redcycle", "reddening-search", "--in", str(path), "--max-len", "3000", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_enumerate_class_a2():
    result = enumerate_class(Quiver.from_arrows([1, 2], [(1, 2)]))
    assert len(result.forms) == 1
    assert result.exhausted


def test_enumerate_class_dreaded_torus_is_alone():
    result = enumerate_class(dreaded_torus(1))
    assert len(result.forms) == 1
    assert result.exhausted


def test_enumerate_class_triangle_regression():
    # Frozen from the exhaustive search itself: the unit 3-cycle's class
    # holds the cycle plus the three path orientations up to isomorphism.
    tri = Quiver.from_arrows([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    result = enumerate_class(tri)
    assert result.exhausted
    assert len(result.forms) == 4


def test_enumerate_class_budget():
    tri = Quiver.from_arrows([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    result = enumerate_class(tri, node_budget=2)
    assert not result.exhausted
    assert len(result.forms) == 2


def test_enumerate_class_rejects_budget_below_one():
    tri = Quiver.from_arrows([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    for budget in (0, -5):
        with pytest.raises(ValueError):
            enumerate_class(tri, node_budget=budget)
    result = enumerate_class(tri, node_budget=1)
    assert len(result.forms) == 1 and not result.exhausted


def test_search_rejects_negative_max_len():
    q = Quiver.from_arrows([1, 2], [(1, 2)])
    with pytest.raises(ValueError):
        search_reddening(q, max_len=-1)
    result = search_reddening(q, max_len=0)
    assert len(result) == 0 and result.complete
