"""Property suite for the rectangular mutation kernel.

The kernel mutates only the n mutable rows of a state, over all its
columns, and checks the entries it grows against a limit as it writes
them.  Each property holds it to the textbook rule on the whole square
matrix (``reference.mutate_matrix``) along random walks from unframed,
framed and coframed states of rank 1 to 6.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redcycle import Quiver, coframed, framed
from redcycle.errors import IntegerOverflowError
from redcycle.quiver import INT_LIMIT, _mutated_rows, _overflows

from reference import first_over, mutate_matrix

#: Larger than any entry a walk here can reach, so the kernel never raises.
UNBOUNDED = 10**10_000

SUITE = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def walks(draw, weights=st.integers(-3, 3)):
    """A quiver of rank 1 to 6, framed, coframed or neither, with scattered
    labels, and a walk of up to 8 mutable indices."""
    n = draw(st.integers(1, 6))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(weights)
            rows[j][i] = -rows[i][j]
    q = Quiver(range(1, n + 1), rows).relabeled({v: 3 * v + 1 for v in range(1, n + 1)})
    q = draw(st.sampled_from([lambda x: x, framed, coframed]))(q)
    return q, draw(st.lists(st.integers(0, n - 1), max_size=8))


def _frozen_block(q: Quiver) -> set[int]:
    return set(range(q.rank, len(q.labels)))


@SUITE
@given(walks())
def test_kernel_rows_are_the_mutable_rows_of_the_textbook_rule(case):
    q, walk = case
    rows, square = q.mutable_rows(), [list(r) for r in q.rows()]
    for k in walk:
        rows = _mutated_rows(rows, k, UNBOUNDED)
        square = mutate_matrix(square, k)
        assert [list(r) for r in rows] == square[: q.rank]


@SUITE
@given(walks(), st.integers(0, 60))
def test_kernel_raises_exactly_when_an_entry_grows_over_the_limit(case, slack):
    q, walk = case
    limit = max((abs(x) for r in q.rows() for x in r), default=0) + slack
    rows, square, frozen = q.mutable_rows(), [list(r) for r in q.rows()], _frozen_block(q)
    for k in walk:
        square = mutate_matrix(square, k)
        over = first_over(square, limit, frozen)
        if over is None:
            rows = _mutated_rows(rows, k, limit)
            continue
        with pytest.raises(OverflowError) as info:
            _mutated_rows(rows, k, limit)
        assert info.value.args == over
        return


@SUITE
@given(walks(st.one_of(st.just(0), st.integers(2**31, 2**32), st.integers(-(2**32), -(2**31)))))
def test_mutate_names_the_first_overflowing_pair_in_row_major_order(case):
    # Weights of 2**31 to 2**32 make products straddle the 64-bit limit, so
    # steps overflow in one cell, in several, or not at all.
    q, walk = case
    state, frozen = q, _frozen_block(q)
    for k in walk:
        square = mutate_matrix([list(r) for r in state.rows()], k)
        over = first_over(square, INT_LIMIT, frozen)
        v = state.labels[k]
        if over is None:
            state = state.mutate(v)
            continue
        i, j = over
        with pytest.raises(IntegerOverflowError) as info:
            state.mutate(v)
        at = f"({state.labels[i]}, {state.labels[j]})"
        assert str(info.value) == f"arrow multiplicity exceeds 64-bit range at {at}"
        return


def test_kernel_checks_each_side_of_the_range_at_its_edge():
    # Seeded states of rank 2 to 6, framed and not, in which one pair holds
    # exactly the limit, so the matrix holds +limit and -limit at once.  A
    # step may grow an entry past either edge, grow one onto it, or leave
    # the edge entries as they are; the kernel and the overflow test must
    # answer as the textbook rule does on each.
    rng = random.Random(432)
    raised = {1: 0, -1: 0}
    kept_at_edge = 0  # steps that raise nothing from a state with entries at the edge
    for state_no in range(600):
        n = rng.randint(2, 6)
        limit = rng.randint(3, 12)
        b = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            b[i][j] = rng.randint(-3, 3)
            b[j][i] = -b[i][j]
        i, j = rng.sample(range(n), 2)
        b[i][j], b[j][i] = limit, -limit
        q = Quiver(range(1, n + 1), b)
        q = framed(q) if state_no % 2 else q
        rows, square, frozen = q.mutable_rows(), [list(r) for r in q.rows()], _frozen_block(q)
        for k in range(n):
            child = mutate_matrix(square, k)
            over = first_over(child, limit, frozen)
            assert _overflows(rows, k, limit) == (over is not None), (rows, k, limit)
            if over is None:
                assert [list(r) for r in _mutated_rows(rows, k, limit)] == child[:n]
                kept_at_edge += 1
                continue
            with pytest.raises(OverflowError) as info:
                _mutated_rows(rows, k, limit)
            assert info.value.args == over, (rows, k, limit)
            raised[1 if child[over[0]][over[1]] > 0 else -1] += 1
    assert min(raised.values()) >= 300 and kept_at_edge >= 1000, (raised, kept_at_edge)
