"""Structural predicates, canonical forms, forkless exploration."""

import copy
import importlib
import itertools
import pickle
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
from redcycle.classify import ClassEnumeration, ClassificationReport, _twin_deletions, explore
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


def _twin_rich_matrices(rng: random.Random):
    """Exchange matrices with many twin pairs, joined by an arrow or not:
    vertices repeated up to rank 16, some copies then joined by an arrow."""
    for _ in range(60):
        k = rng.randint(1, 4)
        copies = [rng.randint(2, 4)] + [rng.randint(1, 4) for _ in range(k - 1)]
        b = _with_copies([list(row) for row in random_quiver(rng, k, 3, min_n=k).rows()], copies)
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(b) - 1)
            w = rng.choice((-2, -1, 1, 2))
            b[i][i + 1], b[i + 1][i] = w, -w
        yield b


def test_twin_pairs_match_the_whole_sign_row_count():
    rng = random.Random(1613)
    matrices = [q.mutable_rows() for q in _classify_mix(random.Random(1611))[:1500]]
    matrices += [q.mutable_rows() for edges in _DYNKIN_EDGES.values() for q in _orientations(edges)]
    for name, quiver in (("infinite_reduced_key", "Q"), ("key_K_and_Kprime", "Kprime")):
        matrices.append(catalog_item(name).quivers[quiver].mutable_rows())
    matrices += list(_tie_heavy_matrices(rng)) + list(_twin_rich_matrices(rng))
    found = {"joined": 0, "apart": 0}
    for b in matrices:
        rows = [tuple(row) for row in b]
        pairs = [pair for pair, _, _ in _twin_deletions(rows, [])]
        assert pairs == (reference.twin_pairs(rows) if len(rows) >= 3 else []), rows
        for k, kp in pairs:
            found["joined" if rows[k][kp] else "apart"] += 1
    assert all(count >= 100 for count in found.values()), found


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


def _back_edge_skips(monkeypatch, walk, q, budget, keep=None) -> int:
    """Run ``walk()`` with ``Quiver.mutate`` recording each (rows, vertex)
    it is asked, then replay ``reference.explore``'s walk of ``q`` (``keep``
    as there, on the quiver alone) and count the vertices the library left
    unmutated that are neither the entry vertex, nor a twin of it or of an
    earlier vertex.  Each such neighbour's form must be stored before its
    representative is expanded: the back-edge rule of ``explore``."""
    mutated, real = set(), Quiver.mutate

    def recording(self, v):
        mutated.add((self.mutable_rows(), v))
        return real(self, v)

    with monkeypatch.context() as patch:
        patch.setattr(Quiver, "mutate", recording)
        walked = walk()
    start = canonical_form(q)
    forms, rejected, skipped = {start: q}, set(), 0
    level = {start: (q, None)}
    while level and len(forms) < budget:
        next_level = {}
        for _, (rep, via) in sorted(level.items()):
            known, rows, labels = set(forms), rep.mutable_rows(), rep.mutable_labels
            entry = None if via is None else rows[labels.index(via)]
            for i, v in enumerate(labels):
                neighbor = rep.mutate(v)
                form = canonical_form(neighbor)
                if (rows, v) not in mutated and rows[i] != entry and rows[i] not in rows[:i]:
                    assert form in known, (q, rep, v)
                    skipped += 1
                if form in forms or form in rejected:
                    continue
                if keep is not None and not keep(neighbor):
                    rejected.add(form)
                    continue
                forms[form] = neighbor
                next_level[form] = (neighbor, v)
                if len(forms) >= budget:
                    assert list(forms) == list(walked.forms)
                    return skipped
        level = next_level
    assert list(forms) == list(walked.forms)
    return skipped


def test_explore_skips_only_neighbours_whose_form_is_stored(monkeypatch):
    # The walks of test_explore_shortcuts_keep_every_form_and_order that
    # stay in the 64-bit range: every Dynkin orientation, the seeded
    # quivers, and the forkless walks of one orientation of each Dynkin
    # tree and of the seeded quivers, both modes.
    rng = random.Random(1607)
    seeded = [(random_quiver(rng, 4, 3, min_n=3), rng.choice((20, 60))) for _ in range(40)]
    skips = {}
    for kind, edges in _DYNKIN_EDGES.items():
        for q in _orientations(edges):
            skips.setdefault(kind, []).append(
                _back_edge_skips(monkeypatch, lambda: enumerate_class(q, 1000), q, 1000))
    for q, budget in seeded:
        skips.setdefault("seeded", []).append(
            _back_edge_skips(monkeypatch, lambda: enumerate_class(q, budget), q, budget))
    firsts = [(_orientations(edges)[0], 1000) for edges in _DYNKIN_EDGES.values()]
    for (q, budget), discard in itertools.product(firsts + seeded, (False, True)):
        if classify(q).is_fork:
            continue

        def keep(p):
            report = classify(p)
            return not (report.is_fork or (discard and report.is_prefork))

        skips.setdefault(("forkless", discard), []).append(_back_edge_skips(
            monkeypatch, lambda: forkless_explore(q, budget, discard), q, budget, keep))
    assert min(skips["E6"]) > 0 and min(skips["D6"]) > 0, skips
    assert all(map(sum, skips.values())), skips


def test_canonical_form_leaves_an_invisible_ordering():
    rng = random.Random(3107)
    for _ in range(60):
        q = random_quiver(rng, 6, 4)
        before = (copy.copy(q), hash(q), repr(q), q.encode())
        form = canonical_form(q)
        assert (q, hash(q), repr(q), q.encode()) == before
        assert copy.copy(q) == copy.deepcopy(q) == pickle.loads(pickle.dumps(q)) == before[0]
        order, rows = q._order, q.mutable_rows()
        assert type(order) is tuple and sorted(order) == list(range(q.rank))
        flat = ",".join([str(rows[i][j]) for i in order for j in order])
        assert f"{q.rank}|{flat}".encode("ascii") == form
        sigma = Permutation(dict(zip(q.mutable_labels, reversed(q.mutable_labels))))
        derived = (q.mutate(q.mutable_labels[0]), q.permuted(sigma), q.relabeled({1: 99}))
        assert not any(hasattr(p, "_order") for p in derived)


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
    for b in _twin_rich_matrices(random.Random(227)):
        cases.append((b, [list(range(len(b)))]))
    for q in [q for edges in _DYNKIN_EDGES.values() for q in _orientations(edges)]:
        cases.append((q.rows(), [list(range(q.rank))]))
    for n in (10, 40):  # arrowless: every index a twin of every other
        cases.append(([[0] * n for _ in range(n)], [list(range(n))]))
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


def test_every_class_walk_returns_one_record():
    q = catalog_item("infinite_reduced_key").quivers["Q"]
    walks = [explore(q, 30), enumerate_class(q, 30), forkless_explore(q, 30, True)]
    assert all(type(walk) is ClassEnumeration for walk in walks)
    assert walks[0] == walks[1] and len(walks[0]) == len(walks[0].forms) == 30
    assert not walks[0].key_forms and walks[2].key_forms
    assert list(walks[2].key_forms) == [f for f in walks[2].forms if f in walks[2].key_forms]


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


def test_forkless_explore_canonicalizes_only_kept_neighbours(monkeypatch):
    # The walk's predicate runs before canonical_form, so no neighbour it
    # rejects gets a canonical form, and classify runs once per call, on
    # the start.
    module = importlib.import_module("redcycle.classify")
    canonical, classified, rejected = [], [], []
    real_canonical, real_classify, real_explore = (
        module.canonical_form, module.classify, module.explore)

    def counting_canonical(q):
        canonical.append(q.mutable_rows())
        return real_canonical(q)

    def counting_classify(q):
        classified.append(q.mutable_rows())
        return real_classify(q)

    def recording_explore(q, budget, keep):
        def recorded(rep):
            kept = keep(rep)
            if not kept:
                rejected.append(rep.mutable_rows())
            return kept
        return real_explore(q, budget, recorded)

    monkeypatch.setattr(module, "canonical_form", counting_canonical)
    monkeypatch.setattr(module, "classify", counting_classify)
    monkeypatch.setattr(module, "explore", recording_explore)
    key = catalog_item("infinite_reduced_key").quivers["Q"]
    for q, discard in ((key, True), (key, False), (box_quiver(2, 2), False)):
        canonical.clear(), classified.clear(), rejected.clear()
        report = forkless_explore(q, node_budget=30, discard_preforks=discard)
        assert classified == [q.mutable_rows()]
        assert rejected and not set(rejected) & set(canonical), q
        assert {rep.mutable_rows() for rep in report.forms.values()} <= set(canonical)


def _walk_keep(monkeypatch, discard: bool):
    """The predicate ``forkless_explore`` hands to :func:`explore`, caught
    by a patched ``explore`` on a walk from the one-vertex quiver."""
    module = importlib.import_module("redcycle.classify")
    real, caught = module.explore, []

    def catching(q, budget, keep):
        caught.append(keep)
        return real(q, budget, keep)

    with monkeypatch.context() as patch:
        patch.setattr(module, "explore", catching)
        forkless_explore(Quiver.from_arrows([1], []), 1, discard)
    return caught[0]


def _weight_three_mix(rng: random.Random) -> list[Quiver]:
    """Quivers of rank 2-6 with |b| <= 3, a third of them arbitrary.  The
    rest are abundant: double arrows from vertex 1 to the vertices before a
    cut of a random order of the others and into it from those after the
    cut, the order's pairs joined by 2 or 3 arrows along it and by 3 across
    the cut (a fork when the cut leaves both sides non-empty); half of them
    get a vertex that copies the directions of another (a twin), which
    often makes a key or a pre-fork.  Each is relabeled at random, so a
    point of return may sit at any index."""
    mix = []
    for i in range(330):
        n = rng.randint(2, 6)
        if i % 3 == 0:
            mix.append(random_quiver(rng, n, 3, min_n=n))
            continue
        twin = i % 3 == 2 and n > 2
        order = rng.sample(range(2, n + 1 - twin), n - 1 - twin)
        cut = rng.randint(0, len(order))
        arrows = [(1, u, 2) if x < cut else (u, 1, 2) for x, u in enumerate(order)]
        arrows += [(u, v, 3 if x < cut <= y else rng.randint(2, 3))
                   for (x, u), (y, v) in itertools.combinations(enumerate(order), 2)]
        if twin:
            k = rng.randint(1, n - 1)
            arrows += [(n if t == k else t, n if h == k else h, rng.randint(2, 3))
                       for t, h, _ in arrows if k in (t, h)]
            w = rng.randint(-3, 3)
            arrows += [(k, n, w)] if w > 0 else [(n, k, -w)] if w else []
        q = Quiver.from_arrows(range(1, n + 1), arrows)
        mix.append(q.relabeled(dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))))
    return mix


def test_walk_predicates_answer_as_classify_and_the_reference(monkeypatch):
    # The forkless walk asks its generators only for a first witness; its
    # fork, key and pre-fork answers, and its keep decision with and
    # without discard_preforks, must be classify's and the reference's.
    rng = random.Random(2309)
    types = catalog_item("quiver_types").quivers
    cases = _weight_three_mix(rng) + [types["fork"], types["key"], types["prefork"]]
    keeps = {discard: _walk_keep(monkeypatch, discard) for discard in (False, True)}
    seen = {"fork": 0, "key": 0, "prefork": 0, "first return at 0": 0, "past 0": 0}
    module = importlib.import_module("redcycle.classify")
    for q in cases:
        rows, vs = q.mutable_rows(), range(q.rank)
        thin = module._thin_pairs(rows)
        walk = (not thin and module._found(module._points_of_return(rows, vs)),
                module._found(module._key_pairs(rows, thin)),
                module._found(module._prefork_pairs(rows, thin)))
        for report in (classify(q), reference.classify(q)):
            assert walk == (bool(report.fork_returns), bool(report.key_pairs),
                            bool(report.prefork_pairs)), q
        for discard, keep in keeps.items():
            assert keep(q) is not (walk[0] or (discard and walk[2])), (q, discard)
        seen["fork"] += walk[0]
        seen["key"] += walk[1]
        seen["prefork"] += walk[2]
        first = None if thin else next(module._points_of_return(rows, vs), None)
        seen["first return at 0"] += first == 0
        seen["past 0"] += bool(first)
    assert all(count >= 10 for count in seen.values()), seen
    # The catalog fork's only point of return is vertex 1, index 0: a first
    # witness that is falsy still counts.
    fork = types["fork"]
    assert fork.mutable_labels[0] == 1
    assert classify(fork).fork_returns == reference.classify(fork).fork_returns == {1}
    assert list(module._points_of_return(fork.mutable_rows(), range(fork.rank))) == [0]
    assert not keeps[False](fork)


def test_forkless_explore_rejects_budget_below_one():
    q = Quiver.from_arrows([1, 2], [(1, 2)])
    for budget in (0, -5):
        with pytest.raises(ValueError):
            forkless_explore(q, node_budget=budget)
    report = forkless_explore(q, node_budget=1)
    assert len(report.forms) == 1 and not report.exhausted


def test_classify_and_the_walk_scan_each_quiver_for_thin_pairs_once(monkeypatch):
    # One thin-pair scan answers abundance and the twin candidates: it
    # returns the first two thin pairs (|b| < 2) in row-major order, and
    # classify and the walk's keep, with and without discard_preforks, each
    # scan a quiver once.
    module = importlib.import_module("redcycle.classify")
    rng = random.Random(3001)
    types = catalog_item("quiver_types").quivers
    quivers = [random_quiver(rng, 6, w) for w in (1, 2, 3) for _ in range(200)]
    quivers += _weight_three_mix(rng) + _thin_pair_quivers(rng)
    quivers += [types["fork"], types["key"], types["prefork"]]
    real, sizes = module._thin_pairs, {0: 0, 1: 0, 2: 0}
    for q in quivers:
        rows = q.mutable_rows()
        pairs = itertools.combinations(range(q.rank), 2)
        thin = [(k, kp) for k, kp in pairs if abs(rows[k][kp]) < 2]
        assert real(rows) == thin[:2], rows
        sizes[len(thin[:2])] += 1
    assert all(count >= 100 for count in sizes.values()), sizes
    keeps = [_walk_keep(monkeypatch, discard) for discard in (False, True)]
    calls = []
    monkeypatch.setattr(module, "_thin_pairs", lambda rows: calls.append(rows) or real(rows))
    for q in quivers:
        for decide in (classify, *keeps):
            calls.clear()
            decide(q)
            assert calls == [q.mutable_rows()], (decide, q)
    fork = types["fork"]
    assert classify(fork).is_fork and classify(fork) == reference.classify(fork)


def test_dropping_one_zero_keeps_the_order_of_sorted_lists():
    # The root rule of _canonical_order: a root's tail is its sorted row less
    # its diagonal zero, so sorted rows order the roots as their tails do.
    for length in range(1, 6):
        lists = [
            list(c) for c in itertools.combinations_with_replacement(range(-2, 3), length) if 0 in c
        ]
        for a in lists:
            a0 = a[:]
            a0.remove(0)
            for b in lists:
                b0 = b[:]
                b0.remove(0)
                assert (a < b, a == b, a > b) == (a0 < b0, a0 == b0, a0 > b0), (a, b)


def _root_case(rows) -> str:
    """Which path of _canonical_order a twin-free matrix takes at the root."""
    ranked = sorted(sorted(row) for row in rows)
    if len(rows) > 1 and ranked[0] == ranked[1]:
        return "tied"
    return "forced" if len(set(min(rows, key=sorted))) == len(rows) else "repeated"


def _twin_free_matrices(rng: random.Random, per_case: int) -> dict[str, list]:
    """Seeded twin-free exchange matrices of rank 1-7 with weights up to
    10**15, ``per_case`` of each root case: a unique least sorted row with
    distinct entries (the order is forced), a unique one with a repeated
    entry, and least rows tied.  Entries come from one to three weights and
    zero, so that rows tie and repeat, or from 21 weights, mostly distinct,
    and no zero; no rank holds more than a fifth of a case."""
    cases: dict[str, list] = {"forced": [], "repeated": [], "tied": []}
    per_rank: dict[tuple[str, int], int] = {}
    while min(map(len, cases.values())) < per_case:
        n = rng.randint(1, 7)
        scale = rng.choice((3, 10**6, 10**15))
        weights = [rng.randint(1, scale) for _ in range(rng.choice((1, 2, 3, 21)))]
        signs = (-1, 1) if len(weights) > 3 else (-1, 0, 1)
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                b[i][j] = rng.choice(weights) * rng.choice(signs)
                b[j][i] = -b[i][j]
        rows = tuple(map(tuple, b))
        if len(set(rows)) < n:
            continue
        case = _root_case(rows)
        if len(cases[case]) < per_case and per_rank.get((case, n), 0) < per_case // 5:
            cases[case].append(rows)
            per_rank[case, n] = per_rank.get((case, n), 0) + 1
    return cases


def test_root_rule_orders_match_the_recursive_reference():
    cases = _twin_free_matrices(random.Random(2601), 700)
    for rows in itertools.chain(*cases.values()):
        cells = [list(range(len(rows)))]
        assert _canonical_order(rows, cells) == reference.canonical_order(rows, cells), rows
    for rows in itertools.chain(*cases.values()):
        if len(rows) <= 6:
            q = Quiver(range(1, len(rows) + 1), rows)
            assert canonical_form(q) == brute_canonical_form(q), rows


def test_root_rule_orders_match_the_reference_along_growing_walks():
    # Rank-3/4 walks to entries near 10**6, as the budgeted classes reach.
    rng = random.Random(2603)
    states = reached = 0
    for _ in range(80):
        q = random_quiver(rng, max_n=4, max_weight=3, min_n=3)
        last = None
        for _ in range(40):
            rows = q.mutable_rows()
            cells = [list(range(q.rank))]
            assert _canonical_order(rows, cells) == reference.canonical_order(rows, cells), rows
            states += 1
            if max(map(max, rows)) > 10**6:
                reached += 1
                break
            last = rng.choice([v for v in q.mutable_labels if v != last])
            q = q.mutate(last)
    assert states >= 1000 and reached >= 70


def _tournaments(rng: random.Random, count: int) -> list:
    """Seeded tournaments of rank 1-8: each pair oriented along a shuffled
    order of the vertices with 2 to 10**6 arrows, then flipped against it
    with probability 0, 0.15 or 0.5, so that acyclic and cyclic ones both
    occur.  Every third one has at most 10**3 arrows a pair and no flip,
    and is then mutated at one vertex, which often makes a fork."""
    found = []
    for i in range(count):
        n = rng.randint(1, 8)
        order = rng.sample(range(n), n)
        mutated = i % 3 == 2
        flip = 0 if mutated else rng.choice((0, 0.15, 0.5))
        top = 10**3 if mutated else 10 ** rng.randint(1, 6)
        b = [[0] * n for _ in range(n)]
        for x, u in enumerate(order):
            for v in order[x + 1 :]:
                w = rng.randint(2, top) * (-1 if rng.random() < flip else 1)
                b[u][v], b[v][u] = w, -w
        if mutated:
            b = Quiver(range(1, n + 1), b).mutate(rng.randint(1, n)).mutable_rows()
        found.append(b)
    return found


def test_out_degrees_decide_the_acyclicity_of_tournaments():
    # A tournament is acyclic exactly when its out-degrees are pairwise
    # distinct, and deleting r lowers the out-degree of each vertex with an
    # arrow into r: _points_of_return reads forks off this rule.
    module = importlib.import_module("redcycle.classify")
    seen = {"acyclic": 0, "cyclic": 0, "fork": 0}
    for b in _tournaments(random.Random(2701), 2100):
        n = len(b)
        out = [sum(x > 0 for x in row) for row in b]
        for r in [None, *range(n)]:
            vs = [v for v in range(n) if v != r]
            degrees = [out[v] - (r is not None and b[v][r] > 0) for v in vs]
            acyclic = module._source_order(b, vs) is not None
            assert (len(set(degrees)) == len(vs)) is acyclic, (b, r)
            seen["acyclic" if acyclic else "cyclic"] += 1
        q, labels = Quiver(range(1, n + 1), b), list(range(1, n + 1))
        assert reference._abundant(q, labels)
        want = []
        if reference._source_order(q, labels) is None:
            want = sorted(r - 1 for r in reference._fork_returns(q, labels))
        assert list(module._points_of_return(b, range(n))) == want, b
        seen["fork"] += bool(want)
    assert all(count >= 300 for count in seen.values()), seen


def _thin_pair_quivers(rng: random.Random) -> list[Quiver]:
    """Seeded quivers of rank 3-7 with a twin pair: an abundant quiver (2 to
    5 arrows a pair) and a vertex that copies the directions of one of its
    vertices, joined to it by -3 to 3 arrows; then none, one or two pairs
    are made thin (|b| < 2)."""
    mix = []
    for i in range(600):
        n = rng.randint(2, 6)
        b = [[0] * n for _ in range(n)]
        for u, v in itertools.combinations(range(n), 2):
            b[u][v] = rng.choice((-1, 1)) * rng.randint(2, 5)
            b[v][u] = -b[u][v]
        q = _with_twin(Quiver(range(1, n + 1), b), rng.randint(1, n), rng.randint(-3, 3))
        rows = [list(row) for row in q.mutable_rows()]
        for u, v in rng.sample(list(itertools.combinations(range(n + 1), 2)), i % 3):
            rows[u][v] = rng.randint(-1, 1)
            rows[v][u] = -rows[u][v]
        mix.append(Quiver(range(1, n + 2), rows))
    return mix


def test_twin_deletions_are_the_twin_pairs_with_two_abundant_deletions():
    # Both deletions of a twin pair are abundant exactly when every other
    # pair is, so the thin pairs gate the candidates: every pair with none,
    # that pair with one, no pair with two or more.
    module = importlib.import_module("redcycle.classify")
    quivers = {"thin pairs": 0, "yielded": 0, "twins": 0}
    seen = {thin: dict.fromkeys(quivers, 0) for thin in ("0", "1", "2+")}
    for q in _weight_three_mix(random.Random(2703)) + _thin_pair_quivers(random.Random(2705)):
        rows, mut, n = q.mutable_rows(), q.mutable_labels, q.rank
        twins = reference._twin_pairs(q) if n >= 3 else []
        want = [
            (mut.index(k), mut.index(kp)) for k, kp in twins
            if all(reference._abundant(q, [v for v in mut if v != d]) for d in (k, kp))
        ]
        got = list(module._twin_deletions(rows, module._thin_pairs(rows)))
        assert [pair for pair, _, _ in got] == want, q
        for (k, kp), del_k, del_kp in got:
            assert del_k == [v for v in range(n) if v != k], q
            assert del_kp == [v for v in range(n) if v != kp], q
        thin = sum(-2 < rows[u][v] < 2 for u, v in itertools.combinations(range(n), 2))
        counts = seen[str(thin) if thin < 2 else "2+"]
        counts["thin pairs"] += 1
        counts["yielded"] += len(got)
        counts["twins"] += len(twins)
    assert not seen["2+"].pop("yielded"), seen
    assert all(count >= 100 for counts in seen.values() for count in counts.values()), seen


def _pool_like_starts(rng: random.Random, count: int) -> list:
    """Rank-3/4 starts drawn as the benchmark's forkless pool draws them:
    half abundant acyclic (2 or 3 arrows a pair along a shuffled order),
    half random with |b| <= 3 and at most one arrow between vertices 1 and
    2; each with a budget of 20, 40 or 60."""
    starts = []
    for i in range(count):
        rank = rng.randint(3, 4)
        labels = list(range(1, rank + 1))
        if i % 2:
            order = rng.sample(labels, rank)
            arrows = [(u, v, rng.randint(2, 3)) for x, u in enumerate(order) for v in order[x + 1 :]]
        else:
            arrows = []
            for u, v in itertools.combinations(labels, 2):
                w = rng.randint(-1, 1) if (u, v) == (1, 2) else rng.randint(-3, 3)
                arrows += [(u, v, w)] if w > 0 else [(v, u, -w)] if w else []
        starts.append((Quiver.from_arrows(labels, arrows), rng.choice((20, 40, 60))))
    return starts


def test_forkless_walks_match_the_reference_on_pool_like_starts():
    key = catalog_item("infinite_reduced_key").quivers["Q"]
    cases = _pool_like_starts(random.Random(2707), 48)
    cases += [(q, budget) for q in (box_quiver(2, 2), key) for budget in (1, 20, 40, 60)]
    seen = {"cut": 0, "exhausted": 0, "keys": 0}
    for (q, budget), discard in itertools.product(cases, (False, True)):
        got = _outcome(_forkless, q, budget, discard)
        assert got == _outcome(_reference_forkless, q, budget, discard), (q, budget, discard)
        if got[0] is not IntegerOverflowError:
            seen["exhausted" if got[2] else "cut"] += 1
            seen["keys"] += bool(got[1])
    assert all(count >= 10 for count in seen.values()), seen


def test_forkless_walks_decide_neighbours_with_no_source_order(monkeypatch):
    # Out-degrees and thin pairs decide each neighbour; classify still runs
    # once, on the start, and as many forms get a canonical form as when
    # source orders decided them.
    module = importlib.import_module("redcycle.classify")
    names = ("_source_order", "classify", "canonical_form")
    real = {name: getattr(module, name) for name in names + ("explore",)}
    calls = dict.fromkeys(names + ("deciding",), 0)

    def counting(name):
        def call(*args):
            calls[name] += 1
            return real[name](*args)
        return call

    def deciding_explore(q, budget, keep):
        def decided(rep):
            before = calls["_source_order"]
            kept = keep(rep)
            calls["deciding"] += calls["_source_order"] - before
            return kept
        return real["explore"](q, budget, decided)

    for name in names:
        monkeypatch.setattr(module, name, counting(name))
    monkeypatch.setattr(module, "explore", deciding_explore)
    key = catalog_item("infinite_reduced_key").quivers["Q"]
    canonical = {("box", False): 43, ("box", True): 5, ("key", False): 40, ("key", True): 6}
    for (name, discard), forms in canonical.items():
        calls.update(dict.fromkeys(calls, 0))
        forkless_explore(box_quiver(2, 2) if name == "box" else key, 40, discard)
        assert calls["_source_order"] >= 1 and calls["deciding"] == 0, (name, discard, calls)
        assert calls["classify"] == 1 and calls["canonical_form"] == forms, (name, discard, calls)
