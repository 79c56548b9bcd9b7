"""Property suite for the walk along a sequence.

``Quiver.walk`` is the one loop that applies a mutation sequence step by
step: ``mutate_seq``, ``verify_cycle``, ``c_matrix``, ``is_reddening`` and
``is_maximal_green`` all go through it.  Each property holds them to the
unbounded-integer framed walk of ``reference.framed_walk``, on unframed
quivers of rank 1 to 5 and sequences of up to 10 steps.  Some quivers carry
weights of 2**31 to 2**32, so that their walks leave the 64-bit range, and
then every raise must name the step at which the reference first leaves it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redcycle import Permutation, Quiver, c_matrix, is_maximal_green, is_reddening, verify_cycle
from redcycle.errors import IntegerOverflowError
from redcycle.quiver import INT_LIMIT

from reference import first_step_over, framed_walk

SUITE = settings(derandomize=True, database=None, max_examples=150, deadline=None)

#: Products of two of these straddle the 64-bit limit.
BIG = st.one_of(st.integers(2**31, 2**32), st.integers(-(2**32), -(2**31)))


@st.composite
def walks(draw):
    """An unframed quiver of rank 1 to 5 with scattered labels, weights of
    at most 3 (mixed with big ones in half of the quivers), a sequence of up
    to 10 of its labels, and the reference's framed walk along it."""
    n = draw(st.integers(1, 5))
    weights = st.one_of(st.integers(-3, 3), BIG) if draw(st.booleans()) else st.integers(-3, 3)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(weights)
            rows[j][i] = -rows[i][j]
    q = Quiver(range(1, n + 1), rows).relabeled({v: 3 * v + 1 for v in range(1, n + 1)})
    idx = draw(st.lists(st.integers(0, n - 1), max_size=10))
    return q, tuple(q.mutable_labels[i] for i in idx), list(framed_walk(q.rows(), idx))


def _verdict(labels, c) -> Permutation | None:
    """The permutation of an all-red C-matrix, ``C = -P_sigma`` (column j
    holds its -1 in row sigma(j)); None when some row is green."""
    if any(x > 0 for row in c for x in row):
        return None
    return Permutation({labels[j]: labels[[row[j] for row in c].index(-1)] for j in range(len(c))})


def _raises_at(step: int, fn, *args) -> None:
    with pytest.raises(IntegerOverflowError) as info:
        fn(*args)
    assert info.value.step == step
    assert str(info.value).endswith(f", at sequence index {step}")


@SUITE
@given(walks())
def test_framed_verdicts_follow_the_reference_or_raise_at_its_step(case):
    q, seq, states = case
    step = first_step_over([square for square, _ in states], INT_LIMIT)
    if step is None:
        c = states[-1][1]
        assert c_matrix(q, seq).rows == tuple(map(tuple, c))
        assert is_reddening(q, seq) == _verdict(q.mutable_labels, c)
    else:
        _raises_at(step, c_matrix, q, seq)
        _raises_at(step, is_reddening, q, seq)


@SUITE
@given(walks())
def test_maximal_green_stops_at_the_first_red_step_and_raises_only_after_green_ones(case):
    q, seq, states = case
    step = first_step_over([square for square, _ in states], INT_LIMIT)
    for i, (_, c) in enumerate(states):
        if i == len(seq):
            assert is_maximal_green(q, seq) == _verdict(q.mutable_labels, c)
            return
        if any(x < 0 for x in c[q.mutable_labels.index(seq[i])]):
            assert is_maximal_green(q, seq) is None
            return
        if i == step:
            _raises_at(step, is_maximal_green, q, seq)
            return


@SUITE
@given(walks())
def test_walk_follows_the_unframed_reference_and_raises_at_its_step(case):
    q, seq, states = case
    n = q.rank
    unframed = [[row[:n] for row in square[:n]] for square, _ in states]
    step = first_step_over(unframed, INT_LIMIT)
    walked = []
    if step is None:
        walked = [[list(row) for row in state.rows()] for state in q.walk(seq)]
        assert walked == unframed
        assert [list(row) for row in q.mutate_seq(seq).rows()] == unframed[-1]
        report = verify_cycle(q, seq)
        assert len(report.trajectory_hashes) == len(seq) + 1
        assert report.closes_equal == (unframed[-1] == unframed[0])
    else:
        with pytest.raises(IntegerOverflowError):
            for state in q.walk(seq):
                walked.append([list(row) for row in state.rows()])
        assert walked == unframed[: step + 1]
        _raises_at(step, lambda s: tuple(q.walk(s)), seq)
        _raises_at(step, q.mutate_seq, seq)
        _raises_at(step, verify_cycle, q, seq)


def test_the_suite_draws_overflowing_and_clean_walks():
    # Both branches of every property above must be reached.
    seen = {"framed": set(), "unframed": set()}

    @SUITE
    @given(walks())
    def record(case):
        q, _, states = case
        squares = [square for square, _ in states]
        n = q.rank
        seen["framed"].add(first_step_over(squares, INT_LIMIT) is None)
        seen["unframed"].add(first_step_over([[r[:n] for r in s[:n]] for s in squares], INT_LIMIT) is None)

    record()
    assert seen == {"framed": {True, False}, "unframed": {True, False}}
