"""Structural predicates, canonical forms, forkless exploration."""

import importlib
import itertools
import random

import pytest

from redcycle import (
    Permutation,
    Quiver,
    box_quiver,
    canonical_form,
    classify,
    enumerate_class,
    find_isomorphism,
    forkless_explore,
    framed,
    is_abundant,
    is_acyclic,
    catalog_item,
)
from redcycle.classify import ClassificationReport
from redcycle.errors import (
    AlreadyFramedError,
    CyclicQuiverError,
    ForkStartError,
    IntegerOverflowError,
)
from redcycle.quiver import _canonical_order
from redcycle.reddening import source_sequence

import reference
from conftest import random_abundant_acyclic, random_fork, random_quiver
from reference import brute_canonical_form


def test_quiver_types_trio():
    item = catalog_item("quiver_types")
    fork = classify(item.quivers["fork"])
    assert fork.fork_returns == frozenset({1})
    assert fork.abundant and not fork.acyclic

    key = classify(item.quivers["key"])
    assert key.key_pairs == (((1, 3), 0),)
    assert key.acyclic and not key.is_fork

    prefork = classify(item.quivers["prefork"])
    assert ((1, 3), 2) in prefork.prefork_pairs
    assert not prefork.is_fork and not prefork.is_key


def test_kprime_is_a_key_with_pair_1_2():
    kp = catalog_item("key_K_and_Kprime").quivers["Kprime"]
    report = classify(kp)
    assert any(pair == (1, 2) for pair, _ in report.key_pairs)
    assert report.key_pairs[0][1] == 1  # one arrow between the twin vertices


def test_abundant_acyclic_is_not_a_fork():
    rng = random.Random(103)
    for _ in range(50):
        q = random_abundant_acyclic(rng)
        report = classify(q)
        assert report.abundant and report.acyclic and not report.is_fork


def test_fork_closure_under_non_return_mutation():
    rng = random.Random(107)
    for _ in range(150):
        f = random_fork(rng)
        returns = classify(f).fork_returns
        for v in f.mutable_labels:
            if v in returns:
                continue
            assert classify(f.mutate(v)).is_fork


def test_abundant_acyclic_mutations_stay_fork_or_abundant_acyclic():
    rng = random.Random(109)
    for _ in range(150):
        q = random_abundant_acyclic(rng)
        for v in q.mutable_labels:
            report = classify(q.mutate(v))
            assert report.is_fork or (report.abundant and report.acyclic)


# Definition-level oracle: every predicate on a subset is asked of the
# restricted quiver, acyclicity peels whole layers of sources, and the
# source sequence rescans the remaining vertices at every step.

def _oracle_is_acyclic(q):
    remaining = set(q.mutable_labels)
    while remaining:
        sources = [v for v in remaining if all(q.b(u, v) <= 0 for u in remaining)]
        if not sources:
            return False
        remaining.difference_update(sources)
    return True


def _oracle_is_abundant(q):
    mut = q.mutable_labels
    return all(abs(q.b(u, v)) >= 2 for i, u in enumerate(mut) for v in mut[i + 1 :])


def _oracle_fork_returns(q):
    if not _oracle_is_abundant(q) or _oracle_is_acyclic(q) or q.rank < 3:
        return frozenset()
    mut = q.mutable_labels
    returns = []
    for r in mut:
        rest = [v for v in mut if v != r]
        if not _oracle_is_acyclic(q.restrict(rest)):
            continue
        if all(
            q.b(j, i) > max(q.b(i, r), q.b(r, j))
            for i in rest if q.b(i, r) > 0
            for j in rest if q.b(r, j) > 0
        ):
            returns.append(r)
    return frozenset(returns)


def _oracle_classify(q):
    mut = q.mutable_labels
    acyclic = _oracle_is_acyclic(q)
    key_pairs, prefork_pairs = [], []
    for i, k in enumerate(mut if q.rank >= 3 else ()):
        for kp in mut[i + 1 :]:
            if any((q.b(j, k) > 0) != (q.b(j, kp) > 0) or (q.b(j, k) < 0) != (q.b(j, kp) < 0)
                   for j in mut if j not in (k, kp)):
                continue
            del_k = q.restrict([v for v in mut if v != k])
            del_kp = q.restrict([v for v in mut if v != kp])
            if acyclic and _oracle_is_abundant(del_k) and _oracle_is_abundant(del_kp):
                key_pairs.append(((k, kp), q.b(k, kp)))
            common = _oracle_fork_returns(del_k) & _oracle_fork_returns(del_kp)
            prefork_pairs.extend(((k, kp), r) for r in sorted(common))
    return ClassificationReport(
        acyclic=acyclic,
        abundant=_oracle_is_abundant(q),
        fork_returns=_oracle_fork_returns(q),
        key_pairs=tuple(key_pairs),
        prefork_pairs=tuple(prefork_pairs),
    )


def _oracle_source_sequence(q):
    remaining = set(q.mutable_labels)
    order = []
    while remaining:
        sources = [v for v in sorted(remaining)
                   if all(q.b(u, v) <= 0 for u in remaining if u != v)]
        if not sources:
            return None
        order.append(sources[0])
        remaining.remove(sources[0])
    return tuple(order)


def test_classify_and_source_sequence_match_the_restricting_oracle():
    rng = random.Random(131)
    mix = []
    for _ in range(60):
        mix.append(random_quiver(rng, max_n=7, max_weight=4))
        mix.append(random_abundant_acyclic(rng, max_n=7))
        mix.append(random_fork(rng, max_n=6))
    mix += [q.mutate(v) for q in mix[:90] for v in q.mutable_labels]
    # Relabel to non-contiguous labels in a random order, so that "smallest
    # label first" and the stored row order disagree.
    mix += [
        q.relabeled(dict(zip(q.mutable_labels, rng.sample(range(1, 60), q.rank))))
        for q in mix[::3]
    ]
    hits = {"fork_returns": 0, "key_pairs": 0, "prefork_pairs": 0}
    for q in mix:
        report, expected = classify(q), _oracle_classify(q)
        for field in ("acyclic", "abundant", *hits):
            assert getattr(report, field) == getattr(expected, field), (q, field)
        for field in hits:
            hits[field] += bool(getattr(report, field))
        order = _oracle_source_sequence(q)
        if order is None:
            with pytest.raises(CyclicQuiverError):
                source_sequence(q)
        else:
            assert source_sequence(q) == order, q
    assert all(hits.values()), hits


def _with_twin(q: Quiver, k: int, w: int) -> Quiver:
    """``q`` with a new vertex whose arrows to the others copy those of
    mutable vertex ``k``, and ``w`` arrows from ``k`` to it."""
    rows = q.rows()
    src = list(range(q.rank)) + [q.mutable_labels.index(k)]
    b = [[rows[i][j] for j in src] for i in src]
    b[src[-1]][-1], b[-1][src[-1]] = w, -w
    return Quiver(range(1, q.rank + 2), b)


def _classify_mix(rng: random.Random) -> list[Quiver]:
    """Random quivers of rank 3-6 at four weight caps, then forks, keys and
    pre-forks, plus a copy of every third one on scattered labels."""
    mix = [random_quiver(rng, 6, w, min_n=3) for w in (1, 2, 3, 5) for _ in range(750)]
    for _ in range(150):
        fork = random_fork(rng, max_n=5)
        acyclic = random_abundant_acyclic(rng, max_n=5)
        mix.append(fork)
        mix.append(acyclic.mutate(rng.choice(acyclic.mutable_labels)))
        # A twin of a fork vertex other than a return makes a pre-fork; a
        # twin in an abundant acyclic quiver makes a key.
        k = rng.choice([v for v in fork.mutable_labels if v not in classify(fork).fork_returns])
        mix.append(_with_twin(fork, k, rng.randint(-2, 2)))
        mix.append(_with_twin(acyclic, rng.choice(acyclic.mutable_labels), rng.randint(0, 3)))
    return mix + [
        q.relabeled(dict(zip(q.mutable_labels, rng.sample(range(1, 60), q.rank))))
        for q in mix[::3]
    ]


def test_index_row_classify_matches_the_label_based_reference():
    rng = random.Random(1601)
    hits = {"is_fork": 0, "is_key": 0, "is_prefork": 0}
    mix = _classify_mix(rng)
    assert len(mix) >= 3000
    for q in mix:
        report = classify(q)
        assert report == reference.classify(q), q
        for field in hits:
            hits[field] += getattr(report, field)
        for p in (q, framed(q)):
            assert is_acyclic(p) == reference.is_acyclic(p), p
            assert is_abundant(p) == reference.is_abundant(p), p
            order = reference.source_sequence(p)
            if order is None:
                with pytest.raises(CyclicQuiverError):
                    source_sequence(p)
            else:
                assert source_sequence(p) == order, p
    # Each branch of the report is reached, so the reference checks each.
    assert all(count >= 100 for count in hits.values()), hits


_DYNKIN_EDGES = {
    "A4": [(1, 2), (2, 3), (3, 4)],
    "A5": [(1, 2), (2, 3), (3, 4), (4, 5)],
    "A6": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
    "D4": [(1, 2), (2, 3), (2, 4)],
    "D5": [(1, 2), (2, 3), (3, 4), (3, 5)],
    "D6": [(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)],
    "E6": [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)],
}


def _orientations(edges) -> list[Quiver]:
    """Every orientation of a tree given by its edges."""
    return [
        Quiver.from_arrows(
            range(1, len(edges) + 2),
            [(b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips)],
        )
        for flips in itertools.product((False, True), repeat=len(edges))
    ]


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and text of the library error
    it raises: a walk that leaves the 64-bit range must raise the same error
    at the same step as the reference."""
    try:
        return fn(*args)
    except IntegerOverflowError as exc:
        return type(exc), str(exc)


# Each walk as lists of items, so that the order of the forms is compared.

def _walk(q, budget):
    result = enumerate_class(q, budget)
    return list(result.forms.items()), result.exhausted


def _reference_walk(q, budget):
    forms, exhausted = reference.explore(q, budget)
    return list(forms.items()), exhausted


def _forkless(q, budget, discard):
    report = forkless_explore(q, budget, discard)
    return list(report.forms.items()), list(report.key_forms.items()), report.exhausted


def _reference_forkless(q, budget, discard):
    forms, key_forms, exhausted = reference.forkless_explore(q, budget, discard)
    return list(forms.items()), list(key_forms.items()), exhausted


def test_explore_shortcuts_keep_every_form_and_order():
    # Every orientation of the Dynkin trees (the D types have twin leaves),
    # seeded rank-3/4 quivers of weight <= 3, K' (whose walk leaves the
    # 64-bit range) and A6 cut by its budget.
    rng = random.Random(1607)
    dynkin = [q for edges in _DYNKIN_EDGES.values() for q in _orientations(edges)]
    seeded = [(random_quiver(rng, 4, 3, min_n=3), rng.choice((20, 60))) for _ in range(40)]
    kprime = catalog_item("key_K_and_Kprime").quivers["Kprime"]
    a6 = _orientations(_DYNKIN_EDGES["A6"])[5]
    assert _walk(a6, 20)[1] is False
    assert _outcome(_walk, kprime, 200)[0] is IntegerOverflowError
    for q, budget in [(q, 1000) for q in dynkin] + seeded + [(kprime, 200), (a6, 20)]:
        assert _outcome(_walk, q, budget) == _outcome(_reference_walk, q, budget), q
    # The forkless walks: one orientation of each Dynkin tree, whose class
    # holds no abundant pair, the seeded quivers, whose classes hold forks,
    # keys and pre-forks, and a key whose forkless part leaves the 64-bit
    # range (its pre-forkless part exhausts).
    seen = {"cut": 0, "keys": 0, "overflow": 0}
    firsts = [(_orientations(edges)[0], 1000) for edges in _DYNKIN_EDGES.values()]
    key = (catalog_item("infinite_reduced_key").quivers["Q"], 10**5)
    for (q, budget), discard in itertools.product(firsts + seeded + [key], (False, True)):
        if classify(q).is_fork:
            continue
        got = _outcome(_forkless, q, budget, discard)
        assert got == _outcome(_reference_forkless, q, budget, discard), q
        if got[0] is IntegerOverflowError:
            seen["overflow"] += 1
        else:
            seen["cut"] += not got[2]
            seen["keys"] += bool(got[1])
    assert all(seen.values()), seen


def test_explore_computes_one_canonical_form_per_stored_state(monkeypatch):
    # D6 with both short leaves pointing at their branch vertex: they are
    # twins, and commuting mutations reach stored labeled quivers again.
    q = Quiver.from_arrows(range(1, 7), [(1, 2), (2, 3), (3, 4), (5, 4), (6, 4)])
    calls = {"library": [], "reference": []}
    for module, name in ((importlib.import_module("redcycle.classify"), "library"),
                         (reference, "reference")):
        real = module.canonical_form

        def counting(p, real=real, name=name):
            calls[name].append(p.mutable_rows())
            return real(p)

        monkeypatch.setattr(module, "canonical_form", counting)
    forms = enumerate_class(q, 1000).forms
    want, _ = reference.explore(q, 1000)
    assert list(forms.items()) == list(want.items())
    assert len(calls["library"]) < len(calls["reference"]), calls
    stored = [rep.mutable_rows() for rep in forms.values()]
    assert all(calls["library"].count(rows) == 1 for rows in stored)
    assert any(calls["reference"].count(rows) > 1 for rows in stored)
    # Mutating at leaf 6 after its twin 5 gives an isomorphic quiver.
    assert q.mutate(6).mutable_rows() in calls["reference"]
    assert q.mutate(6).mutable_rows() not in calls["library"]


def test_predicates_small_cases():
    assert is_acyclic(Quiver.from_arrows([1, 2, 3], [(1, 2), (2, 3)]))
    assert not is_acyclic(Quiver.from_arrows([1, 2, 3], [(1, 2), (2, 3), (3, 1)]))
    assert is_abundant(Quiver.from_arrows([1, 2], [(1, 2, 2)]))
    assert not is_abundant(Quiver.from_arrows([1, 2], [(1, 2, 1)]))


def test_classify_rejects_framed():
    with pytest.raises(AlreadyFramedError):
        classify(framed(Quiver.from_arrows([1, 2], [(1, 2)])))


def test_canonical_form_constant_on_orbits():
    rng = random.Random(113)
    for _ in range(100):
        q = random_quiver(rng, max_n=5)
        labels = list(q.mutable_labels)
        shuffled = labels[:]
        rng.shuffle(shuffled)
        sigma = Permutation(dict(zip(labels, shuffled)))
        assert canonical_form(q) == canonical_form(q.permuted(sigma))


def test_canonical_form_agrees_with_isomorphism_search():
    rng = random.Random(127)
    for _ in range(150):
        q1 = random_quiver(rng, max_n=4, max_weight=2)
        q2 = random_quiver(rng, max_n=4, max_weight=2)
        same = canonical_form(q1) == canonical_form(q2)
        if set(q1.mutable_labels) == set(q2.mutable_labels):
            assert same == (find_isomorphism(q1, q2) is not None)


def test_canonical_form_matches_brute_force_minimum():
    rng = random.Random(167)
    for _ in range(300):
        q = random_quiver(rng, max_n=5, max_weight=2)
        assert canonical_form(q) == brute_canonical_form(q)


def test_canonical_form_separates_multiplicities():
    single = Quiver.from_arrows([1, 2], [(1, 2, 1)])
    double = Quiver.from_arrows([1, 2], [(1, 2, 2)])
    assert canonical_form(single) != canonical_form(double)


def test_canonical_form_of_isomorphic_but_unequal_pair():
    q1 = Quiver.from_arrows([1, 2, 3], [(1, 2, 4), (2, 3, 4), (3, 1, 4)])
    q2 = Quiver.from_arrows([1, 2, 3], [(3, 2, 4), (2, 1, 4), (1, 3, 4)])
    assert q1 != q2
    assert canonical_form(q1) == canonical_form(q2)


def _with_copies(b: list[list[int]], copies: list[int]) -> list[list[int]]:
    """``b`` with vertex ``i`` repeated ``copies[i]`` times; the copies of a
    vertex are twins: equal rows, no arrow between them."""
    src = [i for i, c in enumerate(copies) for _ in range(c)]
    return [[b[i][j] for j in src] for i in src]


def _tie_heavy_matrices(rng: random.Random):
    """Exchange matrices of rank <= 6 whose orderings tie on many rows."""

    def random_matrix(n: int, w: int) -> list[list[int]]:
        return [list(row) for row in random_quiver(rng, n, w, min_n=n).rows()]

    for n in range(7):
        yield [[0] * n for _ in range(n)]  # arrowless
    for _ in range(25):  # stars: one centre, leaves of few distinct weights
        n = rng.randint(2, 6)
        b = [[0] * n for _ in range(n)]
        for leaf in range(1, n):
            b[0][leaf] = rng.choice((-2, -1, 1, 1, 2))
            b[leaf][0] = -b[0][leaf]
        yield b
    for _ in range(25):  # disjoint unions of equal pieces
        k = rng.randint(1, 3)
        m = rng.randint(2, 6 // k)
        piece = random_matrix(k, 2)
        yield [
            [piece[i % k][j % k] if i // k == j // k else 0 for j in range(k * m)]
            for i in range(k * m)
        ]
    for n in range(3, 7):  # oriented cycles, equal and then random weights
        for weights in ([rng.randint(1, 3)] * n, [rng.randint(1, 3) for _ in range(n)]):
            b = [[0] * n for _ in range(n)]
            for i, w in enumerate(weights):
                b[i][(i + 1) % n] = w
                b[(i + 1) % n][i] = -w
            yield b
    for _ in range(40):  # twin classes
        k = rng.randint(1, 4)
        copies = [1] * k
        for _ in range(rng.randint(1, 6 - k)):
            copies[rng.randrange(k)] += 1
        yield _with_copies(random_matrix(k, 2), copies)
    for _ in range(40):  # near-twins: a pair with equal rows but an arrow
        k = rng.randint(1, 5)
        b = _with_copies(random_matrix(k, 2), [2] + [1] * (k - 1))
        w = rng.choice((-2, -1, 1, 2))
        b[0][1], b[1][0] = w, -w
        yield b
    for _ in range(150):  # multiplicity one, as in the classes of type A and D
        yield random_matrix(rng.randint(4, 6), 1)
    for _ in range(60):
        yield random_matrix(rng.randint(1, 6), 3)


def test_canonical_form_matches_brute_force_on_tie_heavy_families():
    rng = random.Random(211)
    for b in _tie_heavy_matrices(rng):
        q = Quiver(range(1, len(b) + 1), b)
        form = canonical_form(q)
        assert form == brute_canonical_form(q), b
        labels = rng.sample(range(1, 40), q.rank)
        relabeled = q.relabeled(dict(zip(q.mutable_labels, labels)))
        assert canonical_form(relabeled) == form, b


def test_canonical_form_of_arrowless_quiver_at_rank_10():
    # All 10 vertices are twins of each other: one ordering stands for 10!.
    q = Quiver.from_arrows(range(1, 11), [])
    assert canonical_form(q) == b"10|" + b",".join([b"0"] * 100)


def _frozen_row_cells(q: Quiver) -> list[list[int]]:
    """``find_isomorphism``'s cells: mutable indices by frozen row, ascending."""
    n, rows = q.rank, q.mutable_rows()
    cells: dict[tuple[int, ...], list[int]] = {}
    for i in range(n):
        cells.setdefault(rows[i][n:], []).append(i)
    return [cells[key] for key in sorted(cells)]


def _partly_framed(rng: random.Random, q: Quiver) -> Quiver:
    """``q`` with up to rank frozen vertices, each joined to the mutable
    ones by 0 or 1 arrows either way, so that frozen rows tie often."""
    n = q.rank
    m = rng.randint(1, n)
    b = [list(row) + [0] * m for row in q.rows()] + [[0] * (n + m) for _ in range(m)]
    for i in range(n):
        for f in range(n, n + m):
            b[i][f] = rng.choice((-1, 0, 0, 1))
            b[f][i] = -b[i][f]
    mutable, frozen = q.mutable_labels, tuple(range(n + 1, n + m + 1))
    return Quiver(mutable, b, mutable + frozen, zip(mutable, frozen))


def test_canonical_order_matches_the_recursive_reference():
    # The same order, not just the same form: find_isomorphism's sigma is
    # read off the order, index by index.
    rng = random.Random(223)
    cases = []
    for _ in range(600):
        n = rng.randint(0, 9)
        q = random_quiver(rng, max_n=n, max_weight=rng.choice((1, 2, 3)), min_n=n)
        cases.append((q.rows(), [list(range(n))]))
        if n:
            framed_q = _partly_framed(rng, q)
            cases.append((framed_q.mutable_rows(), _frozen_row_cells(framed_q)))
            walked = framed(q).mutate_seq(rng.choices(q.mutable_labels, k=rng.randint(0, 4)))
            cases.append((walked.mutable_rows(), _frozen_row_cells(walked)))
    for b in _tie_heavy_matrices(random.Random(211)):
        cases.append((b, [list(range(len(b)))]))
    for k, size in ((2, 3), (3, 3), (2, 4)):  # disjoint oriented cycles
        b = [[0] * (k * size) for _ in range(k * size)]
        for i in range(k * size):
            j = size * (i // size) + (i + 1) % size
            b[i][j], b[j][i] = 1, -1
        cases.append((b, [list(range(k * size))]))
    for rows, cells in cases:
        rows = [tuple(row) for row in rows]
        assert _canonical_order(rows, cells) == reference.canonical_order(rows, cells), rows


def test_canonical_form_and_isomorphism_of_a_rank_1100_path():
    # A recursive ordering overflows the interpreter's stack near rank 1,000.
    path = Quiver.from_arrows(range(1, 1101), [(v, v + 1) for v in range(1, 1100)])
    # Read from vertex 1100 down: 1 left of the diagonal, -1 right of it.
    rows = [["0"] * 1100 for _ in range(1100)]
    for i in range(1099):
        rows[i][i + 1], rows[i + 1][i] = "-1", "1"
    assert canonical_form(path) == b"1100|" + ",".join(map(",".join, rows)).encode()
    labels = list(path.mutable_labels)
    shuffled = labels[:]
    random.Random(229).shuffle(shuffled)
    copy = path.permuted(Permutation(dict(zip(labels, shuffled))))
    sigma = find_isomorphism(path, copy)
    assert sigma is not None and path.permuted(sigma) == copy


def test_forkless_explore_a2():
    report = forkless_explore(Quiver.from_arrows([1, 2], [(1, 2)]))
    assert report.exhausted
    assert len(report.forms) == 1
    assert not report.key_forms


def test_forkless_explore_rejects_fork_start():
    with pytest.raises(ForkStartError):
        forkless_explore(catalog_item("quiver_types").quivers["fork"])


def test_forkless_explore_infinite_reduced_key_census():
    # The forkless part of a key's class is infinite (non-fork twins keep
    # growing), so the census walks the pre-forkless part, which exhausts.
    q = catalog_item("infinite_reduced_key").quivers["Q"]
    report = forkless_explore(q, discard_preforks=True)
    assert report.exhausted
    assert len(report.key_forms) == 3
    assert all(classify(rep).is_key for rep in report.key_forms.values())


def test_forkless_explore_box_quiver():
    # The plain forkless part of the box quiver is infinite (non-fork
    # neighbors keep growing), so only a budgeted walk halts; discarding
    # pre-forks as well leaves a finite part with no keys.
    budgeted = forkless_explore(box_quiver(2, 2), node_budget=40)
    assert not budgeted.exhausted
    preforkless = forkless_explore(box_quiver(2, 2), discard_preforks=True)
    assert preforkless.exhausted
    assert len(preforkless.forms) == 2
    assert not preforkless.key_forms


def test_forkless_explore_budget_halts():
    q = catalog_item("infinite_reduced_key").quivers["Q"]
    report = forkless_explore(q, node_budget=2)
    assert not report.exhausted
    assert len(report.forms) == 2


def test_forkless_explore_classifies_each_form_once(monkeypatch):
    module = importlib.import_module("redcycle.classify")
    real = module.classify
    seen: list[bytes] = []

    def counting(q):
        seen.append(canonical_form(q))
        return real(q)

    monkeypatch.setattr(module, "classify", counting)
    for q, discard in (
        (catalog_item("infinite_reduced_key").quivers["Q"], True),
        (catalog_item("infinite_reduced_key").quivers["Q"], False),
        (box_quiver(2, 2), False),
    ):
        seen.clear()
        report = forkless_explore(q, node_budget=30, discard_preforks=discard)
        assert len(seen) == len(set(seen))
        assert set(report.forms) <= set(seen)


def test_forkless_explore_rejects_budget_below_one():
    q = Quiver.from_arrows([1, 2], [(1, 2)])
    for budget in (0, -5):
        with pytest.raises(ValueError):
            forkless_explore(q, node_budget=budget)
    report = forkless_explore(q, node_budget=1)
    assert len(report.forms) == 1 and not report.exhausted
