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
    grid_quiver,
    is_maximal_green,
    is_reddening,
    search_reddening,
)

import redcycle.search as search_module
from redcycle.cli import main

from conftest import random_quiver
from reference import brute_reddening_sequences, reference_search_reddening


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
        assert mine == brute_reddening_sequences(q, max_len, reduced)


def test_search_matches_recursive_reference():
    # Every flag combination, every length bound up to 6, at the default
    # guardrail and at one low enough that branches are cut.  Subtrees are
    # memoized only with 4 or more steps below them, so the bounds 7 and 8
    # reuse many; rank2(3)'s weights grow, so the low guardrail cuts inside
    # memoized subtrees.
    rng = random.Random(211)
    flags = ("reduced_only", "green_only", "first_only", "prune_revisited")
    cases = [
        (random_quiver(rng, min_n=rank, max_n=rank, max_weight=2), range(7))
        for rank in (1, 2, 3, 4)
    ]
    cases += [(rank2(1), (7, 8)), (rank2(3), (7, 8)), (cases[2][0], (7, 8))]
    found = cut = 0
    for q, lengths in cases:
        for values in itertools.product((False, True), repeat=len(flags)):
            for max_len in lengths:
                for limit in ({}, {"weight_limit": 2**6}):
                    kwargs = dict(zip(flags, values), **limit)
                    result = search_reddening(q, max_len, **kwargs)
                    expected = reference_search_reddening(q, max_len, **kwargs)
                    assert (result.sequences, result.overflow_branches) == expected, (
                        q, max_len, kwargs)
                    found += len(result)
                    cut += result.overflow_branches
    assert found > 0 and cut > 0


def _counted_search(monkeypatch, q, max_len, cap=None, **kwargs):
    """``search_reddening`` with its kernel calls counted, and its memo
    capped at ``cap`` entries when given (0 memoizes nothing)."""
    calls = 0
    kernel = search_module._mutated_rows

    def counting(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    with monkeypatch.context() as patch:
        patch.setattr(search_module, "_mutated_rows", counting)
        if cap is not None:
            patch.setattr(search_module, "_MEMO_CAP", cap)
        result = search_reddening(q, max_len, **kwargs)
    return (result.sequences, result.overflow_branches), calls


def test_memo_skips_kernel_calls_with_the_same_result(monkeypatch):
    # The plain tree walk (no memo entries) makes one kernel call per node.
    box = box_quiver(2, 2)
    plain, nodes = _counted_search(monkeypatch, box, 8, cap=0, reduced_only=True)
    memoized, calls = _counted_search(monkeypatch, box, 8, reduced_only=True)
    assert memoized == plain
    assert plain[1] > 0  # the guardrail cuts, inside memoized subtrees too
    assert calls < nodes


def test_memo_cap_stops_insertion_and_keeps_the_result(monkeypatch):
    # A cap of 16 fills early: lookups go on and insertion stops, so the
    # walk makes more kernel calls than with the full memo and fewer than
    # with none (the plain tree walk), and the result is the same.
    q = grid_quiver(2, 2)
    for kwargs, max_len in (({"reduced_only": True}, 8), ({"green_only": True}, 8), ({}, 7)):
        plain, nodes = _counted_search(monkeypatch, q, max_len, cap=0, **kwargs)
        capped, some = _counted_search(monkeypatch, q, max_len, cap=16, **kwargs)
        full, fewest = _counted_search(monkeypatch, q, max_len, **kwargs)
        assert plain == capped == full, kwargs
        assert fewest < some < nodes, kwargs
        if kwargs == {"green_only": True}:
            assert full[0] and full == reference_search_reddening(q, max_len, **kwargs)


def test_guardrail_cuts_every_child_of_a_start_state_over_the_limit():
    # Mutation never shrinks the triple arrow, so every child of the start
    # state is over the limit, though no child grows an entry past it.
    # At length bound 0 there is no child to cut.
    q = Quiver.from_arrows([1, 2, 3], [(1, 2, 3), (2, 3)])
    names = ("reduced_only", "green_only", "first_only", "prune_revisited")
    for max_len in (0, 4):
        for flags in itertools.product((False, True), repeat=4):
            kwargs = dict(zip(names, flags), weight_limit=2)
            result = search_reddening(q, max_len, **kwargs)
            reference = reference_search_reddening(q, max_len, **kwargs)
            assert (result.sequences, result.overflow_branches) == reference
            assert result.sequences == () and result.overflow_branches == (3 if max_len else 0)


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


def _assert_closed_pipe_exits_141(argv, nbytes):
    """Run the CLI on ``argv``, read ``nbytes`` of its output and close the
    pipe, as ``| head -c nbytes`` does: the process must exit 141 with no
    traceback."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "redcycle", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert len(proc.stdout.read(nbytes)) == nbytes
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_cli_exits_141_without_traceback_when_the_pipe_closes(tmp_path):
    # The reader takes 100 bytes of a megabytes-long report.
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"vertices": [1], "arrows": []}))
    _assert_closed_pipe_exits_141(
        ["reddening-search", "--in", str(path), "--max-len", "3000", "--json"], 100
    )


def test_cli_text_output_exits_141_when_the_pipe_closes(tmp_path):
    # The DOT text of a complete quiver on 300 vertices is about 0.7 MB.  It
    # used to go out in one write, which a closed pipe cut short without an
    # error, so the command exited 0.
    n = 300
    arrows = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"vertices": list(range(1, n + 1)), "arrows": arrows}))
    _assert_closed_pipe_exits_141(["export-dot", "--in", str(path)], 10)


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


def test_enumerate_class_a7_exhausts_at_150_forms():
    # Published size of the A7 class up to isomorphism.  Its quivers tie on
    # many rows, so a canonical form that tries every tied ordering makes
    # this walk take seconds instead of a fraction of one.
    a7 = Quiver.from_arrows(range(1, 8), [(v, v + 1) for v in range(1, 7)])
    result = enumerate_class(a7, node_budget=1000)
    assert result.exhausted
    assert len(result.forms) == 150


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


def test_empty_sequence_is_reported_when_the_start_is_all_red(tmp_path, capsys):
    # Only the rank-0 start is all red, so only there is the empty sequence
    # reddening, at every length bound and under every flag.
    empty = Quiver.from_arrows([], [])
    flags = ("reduced_only", "green_only", "first_only", "prune_revisited")
    for values in itertools.product((False, True), repeat=len(flags)):
        for max_len in (0, 1, 3):
            kwargs = dict(zip(flags, values))
            result = search_reddening(empty, max_len, **kwargs)
            assert result.sequences == (((), Permutation.identity()),) and result.complete
            assert (result.sequences, 0) == reference_search_reddening(empty, max_len, **kwargs)
    assert len(search_reddening(Quiver.from_arrows([1], []), 0)) == 0
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [], "arrows": []}))
    for command in ("reddening-search", "mgs-search"):
        argv = [command, "--in", str(path), "--max-len", "3"]
        assert main(argv + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1 and doc["sequences"] == [{"sequence": [], "permutation": "id"}]
        assert main(argv) == 0
        assert capsys.readouterr().out == "found 1 sequence(s); complete=True\n    ->  id\n"
