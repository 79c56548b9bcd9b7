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
    framed,
    grid_quiver,
    is_maximal_green,
    is_reddening,
    search_reddening,
)

import redcycle.quiver as quiver_module
import redcycle.search as search_module
from redcycle.cli import main
from redcycle.quiver import _automorphism, _mutated_rows, _overflows

from conftest import random_quiver
from reference import (
    brute_automorphisms,
    brute_reddening_sequences,
    framed_walk,
    reference_search_reddening,
)


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


def _raises(rows, k, limit) -> bool:
    """Whether the mutation kernel raises at index k under ``limit``."""
    try:
        _mutated_rows(rows, k, limit)
    except OverflowError:
        return True
    return False


def test_overflow_test_answers_as_the_kernel():
    # Seeded states of rank 1 to 6, framed and not, walked a few steps so
    # that entries of both signs grow.  At each, one vertex k and limits at
    # a grown entry's size and one either side of it, kept to those the
    # state is within, as the kernel and the search assume.
    rng = random.Random(389)
    answers = {True: 0, False: 0}
    past_bound = 0  # False answers where some row's bound was passed
    for state_no in range(2400):
        q = random_quiver(rng, min_n=1, max_n=6, max_weight=3)
        if state_no % 2:
            q = framed(q)
        walk = [rng.choice(q.mutable_labels) for _ in range(rng.randint(0, 5))]
        rows = q.mutate_seq(walk).mutable_rows()
        k = rng.randrange(q.rank)
        rowk = rows[k]
        grown = [row[j] + abs(row[k]) * c for row in rows for j, c in enumerate(rowk)
                 if row[k] * c > 0]
        top = max(abs(x) for row in rows for x in row)
        sizes = {abs(max(grown, key=abs)), abs(rng.choice(grown))} if grown else {top}
        for limit in {size + d for size in sizes for d in (-1, 0, 1)}:
            if limit < top:
                continue
            answer = _overflows(rows, k, limit)
            assert answer == _raises(rows, k, limit), (rows, k, limit)
            answers[answer] += 1
            past_bound += not answer and any(
                max(row) + row[k] * max(rowk) > limit if row[k] > 0
                else min(row) + abs(row[k]) * min(rowk) < -limit
                for row in rows if row[k])
    assert answers[True] >= 1000 and answers[False] >= 1000, answers
    assert past_bound >= 100, past_bound


def test_no_step_overflows_within_the_frame_wide_bound():
    # The premise on which a leaf frame skips its overflow tests: with m the
    # largest |entry| of a state, no step grows an entry past m + m * m.
    # Seeded framed states of rank 1 to 6 with weights up to 3, walked up
    # to 8 steps, under limits around that bound (those the state is within).
    rng = random.Random(3200)
    within = past = 0  # states under a limit within the bound; past it, with a cut
    for _ in range(1500):
        rows = framed(random_quiver(rng, min_n=1, max_n=6, max_weight=3)).mutable_rows()
        for _ in range(rng.randint(0, 8)):
            rows = _mutated_rows(rows, rng.randrange(len(rows)), 10**10_000)
        m = max(abs(x) for row in rows for x in row)
        for limit in range(max(m, m + m * m - 2), m + m * m + 2):
            if m + m * m <= limit:
                for k in range(len(rows)):
                    assert not _overflows(rows, k, limit), (rows, k, limit)
                    _mutated_rows(rows, k, limit)
                within += 1
            else:
                past += any(_raises(rows, k, limit) for k in range(len(rows)))
    assert within >= 2500 and past >= 50, (within, past)
    # The bound is tight: on the acyclic triangle with every weight m, the
    # step at the middle vertex grows b_13 to m + m * m, so a search of one
    # step (a leaf frame at its root) cuts that child under a limit one less.
    for m in range(1, 6):
        q = Quiver.from_arrows([1, 2, 3], [(1, 2, m), (2, 3, m), (1, 3, m)])
        for limit, cuts in ((m + m * m - 1, 1), (m + m * m, 0)):
            result = search_reddening(q, 1, weight_limit=limit)
            assert result.overflow_branches == cuts, (m, limit)
            assert (result.sequences, cuts) == reference_search_reddening(q, 1, weight_limit=limit)


def _leaf_cuts(monkeypatch):
    """Patch the search's overflow test to count the cuts it finds; returns
    the running count as a one-element list."""
    cuts = [0]

    def counting(rows, k, limit):
        answer = _overflows(rows, k, limit)
        cuts[0] += answer
        return answer

    monkeypatch.setattr(search_module, "_overflows", counting)
    return cuts


def test_last_level_matches_recursive_reference(monkeypatch):
    # Cases whose cuts and finds fall at the last level, under every flag
    # combination and at two guardrails: rank2(3), whose weights pass 2**6
    # near length 7; the torus, whose maximal green sequence of length 6
    # is found at the last level; and a quiver whose first find with the
    # guardrail at 16 is the sibling after a cut, both at the last level.
    after_cut = Quiver.from_arrows([1, 2, 3], [(1, 2, 3), (1, 3, 3), (3, 2)])
    cases = [
        (rank2(3), (7, 8), 2**6),
        (dreaded_torus(1), (6,), 2**6),
        (after_cut, (6,), 16),
    ]
    cuts = _leaf_cuts(monkeypatch)
    flags = ("reduced_only", "green_only", "first_only", "prune_revisited")
    last_finds = 0
    for q, lengths, low in cases:
        for values in itertools.product((False, True), repeat=len(flags)):
            for max_len in lengths:
                for limit in ({}, {"weight_limit": low}):
                    kwargs = dict(zip(flags, values), **limit)
                    result = search_reddening(q, max_len, **kwargs)
                    expected = reference_search_reddening(q, max_len, **kwargs)
                    assert (result.sequences, result.overflow_branches) == expected, (
                        q, max_len, kwargs)
                    last_finds += sum(len(s) == max_len for s, _ in result)
    assert last_finds > 0 and cuts[0] > 0
    green = search_reddening(dreaded_torus(1), 6, green_only=True, reduced_only=True)
    assert (1, 3, 4, 2, 1, 3) in seqs(green)
    # The first find follows its cut sibling (1, 1, 1, 2, 3, 1).
    first = search_reddening(after_cut, 6, first_only=True, weight_limit=16)
    assert [s for s, _ in first] == [(1, 1, 1, 2, 3, 2)] and first.overflow_branches > 0
    parent = framed(after_cut).mutate_seq((1, 1, 1, 2, 3)).mutable_rows()
    assert _raises(parent, 0, 16) and not _raises(parent, 1, 16)


def test_kernel_builds_only_the_lone_green_leaf(monkeypatch):
    # Each kernel call's depth is read off its rows, the start's or a
    # result of an earlier call; a call one step above the length bound
    # builds a leaf, and must be at its frame's one green row.
    q, max_len = box_quiver(2, 2), 10
    n = q.rank
    kernel, frame = search_module._mutated_rows, search_module.framed
    # id(rows) -> (depth, rows); holding the rows keeps their ids from reuse.
    depth: dict[int, tuple[int, object]] = {}
    leaves = inner = 0

    def framing(q):
        start = frame(q)
        depth[id(start.mutable_rows())] = (0, start.mutable_rows())
        return start

    def counting(rows, k, limit):
        nonlocal leaves, inner
        d = depth[id(rows)][0]
        if d + 1 == max_len:
            greens = [i for i, row in enumerate(rows) if any(x > 0 for x in row[n:])]
            assert greens == [k], (rows, k)
            leaves += 1
        else:
            inner += 1
        child = kernel(rows, k, limit)
        depth[id(child)] = (d + 1, child)
        return child

    cuts = _leaf_cuts(monkeypatch)
    monkeypatch.setattr(search_module, "framed", framing)
    monkeypatch.setattr(search_module, "_mutated_rows", counting)
    result = search_reddening(q, max_len, reduced_only=True)
    monkeypatch.undo()
    assert result == search_reddening(q, max_len, reduced_only=True)
    assert leaves > 0 and inner > 0 and cuts[0] > 0
    assert leaves + inner < 12_000  # 24,418 when every leaf was built


def test_a_step_to_all_red_starts_from_one_green_row():
    # Along seeded walks, and along reddening sequences the search finds,
    # every step of reference.framed_walk that leaves every C row red
    # mutated the one row of its parent that held a positive entry.
    rng = random.Random(401)
    to_red = steps = 0
    for _ in range(300):
        q = random_quiver(rng, min_n=1, max_n=4, max_weight=2)
        labels = q.mutable_labels
        walks = [[rng.randrange(q.rank) for _ in range(rng.randint(1, 8))] for _ in range(3)]
        walks += [[labels.index(v) for v in s]
                  for s, _ in search_reddening(q, 4, reduced_only=True).sequences[:3]]
        for walk in walks:
            states = [c for _, c in framed_walk(q.rows(), walk)]
            for k, before, after in zip(walk, states, states[1:]):
                steps += 1
                if all(x <= 0 for row in after for x in row):
                    greens = [i for i, row in enumerate(before) if any(x > 0 for x in row)]
                    assert greens == [k], (q, walk)
                    to_red += 1
    assert to_red >= 200 and steps > to_red


def test_a_green_step_reddens_no_other_row():
    # Along seeded walks of reference.framed_walk, a step at a green C row k
    # adds to every other row a non-negative multiple of row k, so no other
    # green row turns red: a state with g green rows needs g more green steps.
    rng = random.Random(403)
    green_steps = green_rows = 0
    for _ in range(300):
        q = random_quiver(rng, min_n=2, max_n=5, max_weight=3)
        walk = [rng.randrange(q.rank) for _ in range(rng.randint(1, 10))]
        states = [c for _, c in framed_walk(q.rows(), walk)]
        for k, before, after in zip(walk, states, states[1:]):
            if not any(x > 0 for x in before[k]):
                continue
            green_steps += 1
            j = next(j for j, x in enumerate(before[k]) if x)
            for i, (old, new) in enumerate(zip(before, after)):
                if i == k:
                    continue
                m = (new[j] - old[j]) // before[k][j]
                assert m >= 0 and new == [x + m * y for x, y in zip(old, before[k])], (q, walk)
                if any(x > 0 for x in old):
                    assert all(x >= 0 for x in new) and any(new), (q, walk)
                    green_rows += 1
    assert green_steps >= 300 and green_rows >= 300, (green_steps, green_rows)


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
    # rank2(3) has no automorphism, so only the memo can skip calls.
    q = rank2(3)
    plain, nodes = _counted_search(monkeypatch, q, 8, cap=0, weight_limit=2**6)
    memoized, calls = _counted_search(monkeypatch, q, 8, weight_limit=2**6)
    assert memoized == plain
    assert plain[1] > 0  # the guardrail cuts, inside memoized subtrees too
    assert calls < nodes


def _cycle(n: int, weight: int = 1) -> Quiver:
    """The oriented n-cycle with every arrow of weight ``weight``."""
    return Quiver.from_arrows(range(1, n + 1), [(v, v % n + 1, weight) for v in range(1, n + 1)])


def test_first_step_orbits_match_recursive_reference():
    # Symmetric quivers, whose first steps the search copies by relabeling
    # wherever an automorphism takes an earlier vertex to a later one: the
    # box and grid(2,2), the equal-weight cycles (rotations), the arrowless
    # quiver and a star (all twins or all leaves twins), and a quiver whose
    # vertices 2 and 3 are twins.  Every flag combination, at both
    # guardrails; the orbit rule applies from length 5 on.
    cases = [
        box_quiver(2, 2), box_quiver(1, 1), grid_quiver(2, 2), _cycle(3, 2), _cycle(4),
        Quiver.from_arrows([1, 2, 3], []),
        Quiver.from_arrows([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)]),
        Quiver.from_arrows([1, 2, 3, 4], [(1, 2, 2), (1, 3, 2), (2, 4), (3, 4)]),
    ]
    flags = ("reduced_only", "green_only", "first_only", "prune_revisited")
    found = cut = 0
    for q in cases:
        for values in itertools.product((False, True), repeat=len(flags)):
            for max_len in (5, 6):
                for limit in ({}, {"weight_limit": 2**6}):
                    kwargs = dict(zip(flags, values), **limit)
                    result = search_reddening(q, max_len, **kwargs)
                    expected = reference_search_reddening(q, max_len, **kwargs)
                    assert (result.sequences, result.overflow_branches) == expected, (
                        q, max_len, kwargs)
                    found += len(result)
                    cut += result.overflow_branches
    assert found > 0 and cut > 0


def _symmetric_quiver(rng: random.Random, n: int) -> Quiver:
    """A random quiver on 1..n that a random permutation of its vertices
    fixes: each orbit of ordered pairs shares one weight, 0 where an orbit
    holds a pair and its reverse."""
    pi = list(range(n))
    rng.shuffle(pi)
    b = [[0] * n for _ in range(n)]
    done = set()
    for pair in itertools.permutations(range(n), 2):
        if pair in done:
            continue
        orbit = []
        while pair not in orbit:
            orbit.append(pair)
            pair = (pi[pair[0]], pi[pair[1]])
        w = 0 if any((j, i) in orbit for i, j in orbit) else rng.randint(-2, 2)
        for i, j in orbit:
            b[i][j], b[j][i] = w, -w
            done.update([(i, j), (j, i)])
    return Quiver(range(1, n + 1), b)


def test_automorphism_helper_matches_brute_force():
    # Every answer of the helper is checked against the whole group: a
    # returned sigma is an automorphism taking u to v, and None means none
    # does, so the pairs it links make up the orbit partition.
    rng = random.Random(307)
    cases = [_symmetric_quiver(rng, rng.randint(1, 5)) for _ in range(60)]
    cases += [random_quiver(rng, max_n=5, max_weight=1) for _ in range(40)]
    moved = 0
    for q in cases:
        group = brute_automorphisms(q)
        labels = q.mutable_labels
        linked = {(u, u) for u in range(q.rank)}
        for u, v in itertools.permutations(range(q.rank), 2):
            sigma = _automorphism(q, u, v)
            if sigma is None:
                assert all(g(labels[u]) != labels[v] for g in group), (q, u, v)
            else:
                assert sigma in group and sigma(labels[u]) == labels[v], (q, u, v, sigma)
                linked.add((u, v))
                moved += 1
        orbits = {frozenset(g(x) for g in group) for x in labels}
        assert orbits == {frozenset(labels[v] for w, v in linked if w == u) for u in range(q.rank)}
    assert moved > 100


def _start_calls(monkeypatch, q, max_len, **kwargs):
    """``search_reddening`` with the kernel calls it makes from the start
    state counted: those given the start's rows, the same object."""
    calls = 0
    kernel, frame = search_module._mutated_rows, search_module.framed
    start = []

    def framing(q):
        framed_q = frame(q)
        start.append(framed_q.mutable_rows())
        return framed_q

    def counting(rows, *args):
        nonlocal calls
        calls += rows is start[0]
        return kernel(rows, *args)

    with monkeypatch.context() as patch:
        patch.setattr(search_module, "framed", framing)
        patch.setattr(search_module, "_mutated_rows", counting)
        result = search_reddening(q, max_len, **kwargs)
    return (result.sequences, result.overflow_branches), calls


def test_first_steps_are_walked_once_per_orbit(monkeypatch):
    # The rotation (1 2 3 4) takes vertex 1 to every other vertex of the
    # box, so one first step is walked; grid(2,2)'s only non-trivial
    # automorphism is (2 3), so three are.
    for q, walked in ((box_quiver(2, 2), 1), (grid_quiver(2, 2), 3)):
        result, calls = _start_calls(monkeypatch, q, 6, reduced_only=True)
        assert calls == walked
        assert result == reference_search_reddening(q, 6, reduced_only=True)
    # Below the memo rule's depth every first step is walked.
    assert _start_calls(monkeypatch, box_quiver(2, 2), 4)[1] == 4


def _orbits(q: Quiver) -> int:
    """The number of orbits of the automorphism group on the vertices."""
    group = brute_automorphisms(q)
    return len({frozenset(g(v) for g in group) for v in q.mutable_labels})


def test_first_steps_are_walked_once_per_orbit_past_the_first_alike_vertex(monkeypatch):
    # Vertices 4 and 5 are twins, and 3's row sorts like theirs but no
    # automorphism takes 3 to 5: 5 is copied from 4, not compared with 3
    # alone.  Then seeded rank-5 quivers, half of them fixed by a random
    # permutation, each walking one first step per orbit.
    q = Quiver.from_arrows(range(1, 6), [(2, 1), (3, 1), (4, 2), (5, 2)])
    flags = ("reduced_only", "green_only", "first_only", "prune_revisited")
    for values in itertools.product((False, True), repeat=len(flags)):
        kwargs = dict(zip(flags, values))
        result, calls = _start_calls(monkeypatch, q, 5, **kwargs)
        assert result == reference_search_reddening(q, 5, **kwargs), kwargs
        assert kwargs["first_only"] or calls == _orbits(q) == 4, kwargs
    rng = random.Random(347)
    sample = [_symmetric_quiver(rng, 5) if i % 2 else random_quiver(rng, 5, 1, min_n=5)
              for i in range(24)]
    moved = 0
    for p in sample:
        result, calls = _start_calls(monkeypatch, p, 5, reduced_only=True)
        assert result == reference_search_reddening(p, 5, reduced_only=True), p
        assert calls == _orbits(p), p
        moved += calls < 5
    assert moved >= 6


def test_orbit_step_orders_nothing_without_symmetry(monkeypatch):
    # The orbit step orders vertices only for an earlier vertex whose row
    # sorts alike and is no twin: never below the memo rule's depth, never
    # when all sorted rows differ, and never for twins.
    orders = 0
    canonical = quiver_module._canonical_order

    def counting(*args):
        nonlocal orders
        orders += 1
        return canonical(*args)

    rng = random.Random(331)
    distinct = []
    while len(distinct) < 10:
        q = random_quiver(rng, min_n=4, max_n=4, max_weight=2)
        if len({tuple(sorted(row)) for row in q.mutable_rows()}) == 4:
            distinct.append(q)
    monkeypatch.setattr(quiver_module, "_canonical_order", counting)
    assert len(search_reddening(_cycle(300), 1)) == 0
    for q in distinct:
        search_reddening(q, 5, reduced_only=True)
    assert len(search_reddening(Quiver.from_arrows(range(1, 6), []), 5)) == 120
    assert orders == 0
    search_reddening(box_quiver(2, 2), 5)
    assert orders > 0


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
