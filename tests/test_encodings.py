"""Property suite for the encodings of a walk's states.

``quiver.encodings`` writes the text of each state of a walk from the text
of the state before it, rewriting only the rows a step changed, and
``verify_cycle`` hashes that text.  ``is_distinguishing`` tells states apart
by their mutable rows.  Each property holds them to ``reference.encode``,
which writes every state's text from scratch, on unframed, framed and
coframed quivers of rank 0 to 6 and sequences of up to 10 steps.  Some
quivers carry weights of 2**31 to 2**32, so that their walks leave the
64-bit range; then the states before the overflow must still encode right.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redcycle import Quiver, coframed, framed, is_distinguishing, verify_cycle
from redcycle.errors import IntegerOverflowError
from redcycle.extcycles import ExtensionSpec, triangular_extension
from redcycle.quiver import encodings

from reference import encode

SUITE = settings(derandomize=True, database=None, max_examples=100, deadline=None)

#: Products of two of these straddle the 64-bit limit.
BIG = st.one_of(st.integers(2**31, 2**32), st.integers(-(2**32), -(2**31)))


@st.composite
def quivers(draw, max_n=6):
    """An unframed quiver of rank 0 to ``max_n`` with scattered labels and
    weights of at most 3, mixed with big ones in a third of the quivers."""
    n = draw(st.integers(0, max_n))
    small = st.integers(-3, 3)
    weights = st.one_of(small, BIG) if draw(st.integers(0, 2)) == 0 else small
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(weights)
            rows[j][i] = -rows[i][j]
    return Quiver(range(1, n + 1), rows).relabeled({v: 3 * v + 1 for v in range(1, n + 1)})


def sequences(draw, q):
    if not q.rank:
        return ()
    return tuple(draw(st.lists(st.sampled_from(q.mutable_labels), max_size=10)))


@st.composite
def walks(draw):
    """A quiver, unframed, framed or coframed, and a sequence of up to 10
    of its mutable labels."""
    q = draw(quivers())
    q = draw(st.sampled_from([q, framed(q), coframed(q)]))
    return q, sequences(draw, q)


def _states(q: Quiver, seq) -> tuple[list[Quiver], bool]:
    """The states of the walk up to its first overflow, and whether it
    overflowed."""
    states: list[Quiver] = []
    try:
        states.extend(q.walk(seq))
    except IntegerOverflowError:
        return states, True
    return states, False


@SUITE
@given(walks())
def test_encodings_of_a_walk_equal_the_reference_text_of_each_state(case):
    q, seq = case
    states, overflowed = _states(q, seq)
    expected = [encode(state) for state in states]
    texts: list[bytes] = []
    if overflowed:
        with pytest.raises(IntegerOverflowError):
            texts.extend(encodings(q.walk(seq)))
    else:
        texts.extend(encodings(q.walk(seq)))
    assert texts == expected
    assert [state.encode() for state in states] == expected
    # Out of walk order, no state's rows are the previous state's.
    assert list(encodings(states[::-1] + states)) == expected[::-1] + expected


@SUITE
@given(walks())
def test_trajectory_hashes_are_the_reference_text_hashed(case):
    q, seq = case
    states, overflowed = _states(q, seq)
    if overflowed:
        with pytest.raises(IntegerOverflowError):
            verify_cycle(q, seq)
        return
    expected = tuple(hashlib.blake2b(encode(s), digest_size=16).hexdigest() for s in states)
    assert verify_cycle(q, seq).trajectory_hashes == expected


@st.composite
def extensions(draw):
    """An unframed quiver of rank 0 to 5, a non-negative matrix ``a`` with
    one row per vertex and 1 or 2 columns, and a sequence on the quiver."""
    t = draw(quivers(max_n=5))
    k = draw(st.integers(1, 2))
    a = [[draw(st.integers(0, 2)) for _ in range(k)] for _ in range(t.rank)]
    return t, a, sequences(draw, t)


def _distinguishing_by_text(t: Quiver, seq, a) -> bool:
    """``is_distinguishing`` by the reference text of every state: states
    are distinct when their encodings are."""
    base = max(t.labels, default=0)
    k = len(a[0]) if a else 0
    isolated = Quiver.from_arrows(range(base + 1, base + 1 + k), [])
    ext = triangular_extension(ExtensionSpec(t, isolated, a))
    return len({encode(state) for state in ext.walk(seq)}) == len(seq) + 1


@SUITE
@given(extensions())
def test_is_distinguishing_agrees_with_the_encoding_set(case):
    t, a, seq = case
    try:
        expected = _distinguishing_by_text(t, seq, a)
    except IntegerOverflowError:
        with pytest.raises(IntegerOverflowError):
            is_distinguishing(t, seq, a)
        return
    assert is_distinguishing(t, seq, a) is expected


def test_the_suite_draws_every_branch():
    # Overflowing and clean walks of every frame kind, and both verdicts of
    # is_distinguishing, must be reached.
    seen: dict[str, set] = {"walk": set(), "distinguishing": set()}

    @SUITE
    @given(walks())
    def record_walk(case):
        q, seq = case
        kind = "coframed" if q.is_framed and q.b(*q.frozen_pairs[0]) < 0 else q.is_framed
        seen["walk"].add((kind, _states(q, seq)[1]))

    @SUITE
    @given(extensions())
    def record_distinguishing(case):
        t, a, seq = case
        try:
            seen["distinguishing"].add(_distinguishing_by_text(t, seq, a))
        except IntegerOverflowError:
            seen["distinguishing"].add("overflow")

    record_walk()
    record_distinguishing()
    assert seen["walk"] == {(k, o) for k in (False, True, "coframed") for o in (False, True)}
    assert seen["distinguishing"] == {True, False, "overflow"}
