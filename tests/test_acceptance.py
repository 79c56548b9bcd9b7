"""Acceptance suite.

One test per criterion (split into lettered parts where a criterion bundles
several independent claims).  Each check prints a PASS/FAIL line; run with
``pytest -s tests/test_acceptance.py`` to see them all.

All assertions are exact integer comparisons; nothing is approximate.

Two checks (5b and 7e) compare recorded upstream values with the program and
prove them refuted: 5b shows the recorded permutation is the inverse of the
computed one and fails the defining relations, and 7e shows by an
exact-integer reference walk that the recorded spliced sequence never closes.
The neighbouring checks (5c, 7f) verify the corrected values.
"""

import random
from itertools import permutations, product

from redcycle import (
    Permutation,
    Quiver,
    box_quiver,
    build_cycle_general,
    c_matrix,
    canonical_form,
    classify,
    coframed,
    conjugate_reddening,
    cross_block,
    dreaded_torus,
    find_isomorphism,
    fordy_marsh,
    forkless_explore,
    framed,
    grid_quiver,
    grid_reddening,
    is_maximal_green,
    is_reddening,
    catalog_item,
    predicted_cross_block,
    punctured_sphere,
    punctured_sphere_names,
    search_reddening,
    triangular_extension,
    verify_cycle,
)
from redcycle.errors import IntegerOverflowError
from redcycle.extcycles import ExtensionSpec
from redcycle.framing import Color
from redcycle.quiver import INT_LIMIT

from conftest import random_fork, random_quiver, random_sequence
from reference import mutate_matrix


def _criterion(cid: str, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {cid}: {description}"


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_figure_one_cycle():
    item = catalog_item("fig1_extension")
    q = item.quivers["extension"]
    report = verify_cycle(q, item.sequences["cycle"])
    _criterion(
        "1",
        "mu_{5,6,1,2,1,3,2,4,2,1} fixes the extension exactly, simple, length 10",
        report.closes_equal and report.simple and report.length == 10,
    )


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_key_example():
    item = catalog_item("key_K_and_Kprime")
    K, Kp = item.quivers["K"], item.quivers["Kprime"]
    ok = Kp.mutate_seq((2, 3)) == K
    ok &= is_reddening(K, item.sequences["M"]) == Permutation.identity()
    ok &= is_reddening(K, item.sequences["Mprime"]) == Permutation.from_cycles((1, 2))
    _criterion("2", "mu_{2,3}(K') = K; M and M' redden with id and (1,2)", ok)


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_dreaded_torus():
    sigma = is_maximal_green(dreaded_torus(1), (1, 3, 4, 2, 1, 3))
    ok = sigma == Permutation.from_cycles((1, 4), (2, 3))
    for a in (2, 3, 4):
        ok &= is_maximal_green(dreaded_torus(a), (1, 3, 4, 2, 1, 3)) is not None
    _criterion("3", "(1,3,4,2,1,3) maximal green, sigma=(1,4)(2,3), dominated a=2,3,4 pass", ok)


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_grid_reddening():
    ok = True
    for k in range(1, 5):
        for ell in range(1, 5):
            seq = grid_reddening(k, ell)
            ok &= len(seq) == (ell + 1) * ell // 2 * k
            ok &= is_reddening(grid_quiver(k, ell), seq) is not None
    ok &= grid_reddening(3, 3) == (7, 4, 1, 8, 7, 5, 4, 2, 1, 9, 8, 7, 6, 5, 4, 3, 2, 1)
    ok &= is_reddening(grid_quiver(3, 3), grid_reddening(3, 3)) == Permutation.from_cycles(
        (1, 3), (4, 6), (7, 9)
    )
    _criterion("4", "grids 1<=k,l<=4 redden at length binom(l+1,2)k; (3,3) verbatim with sigma", ok)


# -- 5 ----------------------------------------------------------------------

def test_criterion_05a_r_prime_permutation():
    item = catalog_item("Rprime")
    sigma = is_reddening(item.quivers["Q"], item.sequences["S"])
    _criterion("5a", "S' on R' yields (1,3)(4,6)(7,8) exactly",
               sigma == Permutation.from_cycles((1, 3), (4, 6), (7, 8)))


def _defining_relations(q: Quiver, seq, sigma: Permutation) -> tuple[bool, bool]:
    """sigma(coframed(Q)) == mu_S(framed(Q)) and mu_S(Q) == sigma(Q)."""
    return (
        coframed(q).permuted(sigma) == framed(q).mutate_seq(seq),
        q.mutate_seq(seq) == q.permuted(sigma),
    )


def _t5_stated_permutation() -> Permutation:
    names = punctured_sphere_names(5)
    return Permutation.from_cycles(
        (names["u1"], names["v1"], names["sbar"], names["s"]),
        (names["t"], names["tbar"]),
        (names["u2"], names["v2"]),
    )


def test_criterion_05b_r_double_prime_stated_permutation():
    # The recorded (2,5)(3,8)(4,9,7) is the computed permutation with its
    # 3-cycle reversed, and it fails the defining relations that the computed
    # value and T5's recorded 4-cycle (which fixes the orientation) satisfy.
    item = catalog_item("Rdoubleprime")
    q, seq = item.quivers["Q"], item.sequences["S"]
    sigma = is_reddening(q, seq)
    stated = Permutation.from_cycles((2, 5), (3, 8), (4, 9, 7))
    ok = stated != sigma and stated == sigma.inverse()
    ok &= stated.support == sigma.support
    ok &= sorted(map(len, stated.cycles())) == sorted(map(len, sigma.cycles())) == [2, 2, 3]
    ok &= _defining_relations(q, seq, sigma) == (True, True)
    ok &= _defining_relations(q, seq, stated) == (False, False)
    # mu_S(Q) == sigma(Q) again, on plain matrices with the reference mutation.
    index = {v: i for i, v in enumerate(q.labels)}
    end = [list(row) for row in q.rows()]
    for v in seq:
        end = mutate_matrix(end, index[v])

    def relabels(p: Permutation) -> bool:
        return all(end[index[p(u)]][index[p(w)]] == q.b(u, w) for u in q.labels for w in q.labels)

    ok &= relabels(sigma) and not relabels(stated)
    q5, seq5, _ = punctured_sphere(5)
    t5 = _t5_stated_permutation()
    ok &= _defining_relations(q5, seq5, t5) == (True, True)
    ok &= _defining_relations(q5, seq5, t5.inverse()) == (False, False)
    _criterion("5b", "S'' on R'': recorded (2,5)(3,8)(4,9,7) is the inverse of the computed "
               "permutation and fails both defining relations; T5 anchors the orientation", ok)


def test_criterion_05c_r_double_prime_definitional_permutation():
    item = catalog_item("Rdoubleprime")
    q = item.quivers["Q"]
    seq = item.sequences["S"]
    sigma = is_reddening(q, seq)
    ok = sigma == Permutation.from_cycles((2, 5), (3, 8), (4, 7, 9))
    ok &= _defining_relations(q, seq, sigma) == (True, True)
    _criterion("5c", "S'' on R'' yields (2,5)(3,8)(4,7,9), pinned by the defining relation", ok)


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_punctured_spheres():
    q5, seq5, sigma5 = punctured_sphere(5)
    expected = _t5_stated_permutation()
    ok = sigma5 == expected and is_maximal_green(q5, seq5) == expected
    for k in (4, 6):
        qk, seqk, _ = punctured_sphere(k)
        ok &= is_maximal_green(qk, seqk) is not None
    _criterion("6", "T5 maximal green with stated sigma; T4 and T6 sequences pass", ok)


# -- 7 ----------------------------------------------------------------------

def test_criterion_07a_half_finite_cycle_lengths():
    base = catalog_item("half_finite_12")
    ext = catalog_item("half_finite_ext_15")
    tri = ext.quivers["triangle"]
    ok = True
    for key, length in (("M1", 58), ("M2", 56), ("M3", 174)):
        q, seq = build_cycle_general(
            base.quivers["Q"], ext.sequences["S"], tri, ext.sequences[key], ext.matrices["a"]
        )
        report = verify_cycle(q, seq)
        ok &= q == ext.quivers["P"]
        ok &= report.simple and report.length == length
    _criterion("7a", "half-finite + triangle cycles: simple, lengths 58, 56, 174", ok)


def test_criterion_07b_t5_grid_cycle_152():
    t5 = catalog_item("T5")
    r33 = catalog_item("R33")
    h = t5.quivers["Q"].relabeled({v: v + 9 for v in range(1, 10)})
    m_h = tuple(v + 9 for v in t5.sequences["S"])
    names = {k: v + 9 for k, v in punctured_sphere_names(5).items()}
    cross = {
        1: ("t", "u1", "w1"), 2: ("v1",), 3: ("sbar", "w1"), 4: ("tbar",),
        5: ("v1", "tbar"), 6: ("s",), 7: ("v2", "w1"), 8: ("w1",), 9: (),
    }
    a = tuple(
        tuple(sum(1 for n in cross[row] if names[n] == col) for col in h.mutable_labels)
        for row in range(1, 10)
    )
    q, seq = build_cycle_general(r33.quivers["Q"], r33.sequences["S"], h, m_h, a)
    assert q.restrict(range(1, 10)) == r33.quivers["Q"]
    assert q.restrict(range(10, 19)) == h
    assert sum(x for row in a for x in row) == 13
    report = verify_cycle(q, seq)
    _criterion("7b", "R33 + T5 extension: simple cycle of length 152",
               report.simple and report.length == 152)


def test_criterion_07c_banff_cycle_336():
    item = catalog_item("banff_extension_14")
    q, seq = build_cycle_general(
        item.quivers["t"], item.sequences["m_t"],
        item.quivers["h"], item.sequences["m_h"], item.matrices["A"],
    )
    report = verify_cycle(q, seq)
    _criterion("7c", "R'' + Banff extension: simple cycle of length 336",
               q == item.quivers["extension"] and report.simple and report.length == 336)


def test_criterion_07d_two_torus_cycle_closes():
    item = catalog_item("two_torus_extension")
    report = verify_cycle(item.quivers["Q"], item.sequences["cycle"])
    _criterion("7d", "24-term two-torus cycle closes with equality",
               report.closes_equal and report.length == 24)


def _overflows(q: Quiver, seq) -> bool:
    try:
        verify_cycle(q, seq)
    except IntegerOverflowError:
        return True
    return False


def test_criterion_07e_three_torus_stated_sequence():
    # The recorded splice, with S the 24-term two-torus cycle, cannot close:
    # S is not reddening on the two-torus, and an exact-integer walk leaves
    # the 64-bit range at the very step where verify_cycle raises.
    item = catalog_item("three_torus_extension")
    q, t, seq = item.quivers["Q"], item.quivers["t"], item.sequences["stated_cycle"]
    s24 = catalog_item("two_torus_extension").sequences["cycle"]
    ok = seq == s24 + (9, 11, 12, 10, 9, 11) + s24 + (12, 10, 9, 11, 12, 10)

    # S is not reddening on T: on the framed exchange matrix [[B, I], [-I, 0]]
    # the reference walk leaves exactly the row of vertex 6 green.
    ok &= is_reddening(t, s24) is None
    n = t.rank
    index = {v: i for i, v in enumerate(t.labels)}
    b = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(t.rows())]
    b += [[-int(i == j) for j in range(n)] + [0] * n for i in range(n)]
    for v in s24:
        b = mutate_matrix(b, index[v])
    ok &= [v for v in t.labels if any(x > 0 for x in b[index[v]][n:])] == [6]

    # The reference walk of the 60-term splice does not return to Q.
    index = {v: i for i, v in enumerate(q.labels)}
    walk = [[list(row) for row in q.rows()]]
    for v in seq:
        walk.append(mutate_matrix(walk[-1], index[v]))
    ok &= walk[-1] != walk[0]

    # The library follows the reference exactly until the mutation at
    # seq[step] first writes an entry beyond INT_LIMIT, and raises there.
    step = next(i for i, w in enumerate(walk[1:]) if any(abs(x) > INT_LIMIT for r in w for x in r))
    ok &= step == 49
    ok &= [[list(row) for row in s.rows()] for s in q.walk(seq[:step])] == walk[: step + 1]
    ok &= not _overflows(q, seq[:step]) and _overflows(q, seq[: step + 1]) and _overflows(q, seq)
    _criterion("7e", "three-torus splice (S,9,11,12,10,9,11,S,12,10,9,11,12,10) does not close: "
               "S is not reddening, and the exact walk leaves 64 bits at step 49, where "
               "verify_cycle raises", ok)


def test_criterion_07f_three_torus_corrected_cycle():
    item = catalog_item("three_torus_extension")
    q, seq = build_cycle_general(
        item.quivers["t"], item.sequences["m_t"],
        item.quivers["h"], item.sequences["m_h"], item.matrices["a"],
    )
    report = verify_cycle(q, seq)
    _criterion("7f", "three-torus cycle from the 12-term factor sequence closes (length 36)",
               q == item.quivers["Q"] and report.closes_equal and report.length == 36)


# -- 8 ----------------------------------------------------------------------

def test_criterion_08_banff_conjugated_reddening():
    item = catalog_item("banff_Q")
    n = item.sequences["N"]
    ok = len(n) == 34
    ok &= is_reddening(item.quivers["Q"], n) == Permutation.identity()
    _criterion("8", "Banff: N = reduce(M S M^-1) reddening with identity, |N| = 34", ok)


# -- 9 ----------------------------------------------------------------------

def _has_oriented_4_cycle(q: Quiver) -> bool:
    for order in permutations(q.mutable_labels):
        if all(q.b(order[i], order[(i + 1) % 4]) > 0 for i in range(4)):
            return True
    return False


def test_criterion_09_fordy_marsh_family():
    ok = True
    for a, b, c in product((2, 3), repeat=3):
        for k in range(1, 6):
            q, cycle, _ = fordy_marsh(a, b, c, k)
            report = verify_cycle(q, cycle)
            ok &= report.closes_equal and report.simple
            ok &= report.length == 2 * k + 2
            ok &= report.all_abundant
            ok &= all(_has_oriented_4_cycle(state) for state in q.walk(cycle))
    _criterion("9", "Fordy-Marsh (a,b,c) in {2,3}^3, k<=5: equality, simple, 2k+2, abundant, 4-cycles", ok)


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_rank_two_classification():
    # Oracle: exhaustive simple-path search over framed states (revisiting a
    # state means the sequence contains a removable loop, which the rank-2
    # classification quotients away).
    def search(a):
        q = Quiver.from_arrows([1, 2], [(1, 2, a)] if a else [])
        result = search_reddening(q, max_len=6, reduced_only=True, prune_revisited=True)
        assert result.complete
        return {s for s, _ in result}

    ok = search(0) == {(1, 2), (2, 1)}
    ok &= search(1) == {(1, 2), (2, 1, 2)}
    for a in (2, 3, 4):
        ok &= search(a) == {(1, 2)}
    _criterion("10", "rank-2 reduced reddening sequences to length 6 match the classification", ok)


# -- 11 ---------------------------------------------------------------------

def test_criterion_11_key_census():
    # The forkless part of a key's class is infinite (twin-pair quivers grow
    # without becoming forks), so the census walks the pre-forkless part,
    # which exhausts and contains every key.
    key = catalog_item("quiver_types").quivers["key"]
    report = forkless_explore(key, discard_preforks=True)
    ok = report.exhausted and len(report.key_forms) == 3
    signatures = set()
    for rep in report.key_forms.values():
        ok &= classify(rep).is_key
        ok &= len(rep.sources()) >= 1 and len(rep.sinks()) >= 1
        signatures.add((rep.sources(), rep.sinks()))
    ok &= len(signatures) == 3
    _criterion("11", "key census exhausts with exactly 3 keys, distinct sources and sinks", ok)


# -- 12 ---------------------------------------------------------------------

def test_criterion_12a_mutation_involution():
    rng = random.Random(1201)
    for _ in range(1000):
        q = random_quiver(rng, max_n=8, max_weight=9)
        v = rng.choice(q.mutable_labels)
        assert q.mutate(v).mutate(v) == q
    _criterion("12a", "mutation involution, 1000 random cases", True)


def test_criterion_12b_restriction_commutes():
    rng = random.Random(1202)
    for _ in range(1000):
        q = random_quiver(rng, max_n=8, max_weight=9)
        keep = [v for v in q.mutable_labels if rng.random() < 0.7]
        if not keep:
            continue
        v = rng.choice(keep)
        assert q.mutate(v).restrict(keep) == q.restrict(keep).mutate(v)
    _criterion("12b", "restriction/mutation commutation, 1000 random cases", True)


def test_criterion_12c_sign_coherence():
    rng = random.Random(1203)
    completed = 0
    for _ in range(1000):
        q = random_quiver(rng, max_n=6, max_weight=3)
        seq = random_sequence(rng, q, 10)
        try:
            c = c_matrix(q, seq)  # asserts coherence at every step
        except IntegerOverflowError:
            continue
        completed += 1
        for v in c.labels:
            c.row_color(v)
    assert completed >= 900
    _criterion("12c", f"sign-coherence along framed trajectories ({completed}/1000 in 64-bit range)", True)


def test_criterion_12d_cross_block_law():
    rng = random.Random(1204)
    for _ in range(1000):
        t = random_quiver(rng, max_n=4, max_weight=2)
        h_n = rng.randint(1, 4)
        h = random_quiver(rng, max_n=h_n, max_weight=2, min_n=1)
        h = h.relabeled({v: v + 20 for v in h.mutable_labels})
        a = tuple(
            tuple(rng.randint(0, 3) for _ in h.mutable_labels)
            for _ in t.mutable_labels
        )
        spec = ExtensionSpec(t, h, a)
        seq = random_sequence(rng, t, 8)
        try:
            predicted = predicted_cross_block(spec, seq)
            mutated = triangular_extension(spec).mutate_seq(seq)
        except IntegerOverflowError:
            continue
        assert cross_block(mutated, t.mutable_labels, h.mutable_labels) == predicted
        c = c_matrix(t, seq)
        for i, v in enumerate(t.mutable_labels):
            row = predicted[i]
            if c.row_color(v) is Color.GREEN:
                assert all(x >= 0 for x in row)
            else:
                assert all(x <= 0 for x in row)
    _criterion("12d", "cross block equals C*A with sign-coherent rows, 1000 random cases", True)


def _reddening_bases():
    item = catalog_item("key_K_and_Kprime")
    bases = [
        (item.quivers["Kprime"], (1, 2, 3)),
        (item.quivers["K"], (3, 2, 1, 2, 3, 2, 3)),
        (dreaded_torus(1), (1, 3, 4, 2, 1, 3)),
        (grid_quiver(2, 2), grid_reddening(2, 2)),
        (Quiver.from_arrows([1, 2], [(1, 2, 2)]), (1, 2)),
    ]
    return [(q, seq, is_reddening(q, seq)) for q, seq in bases]


def test_criterion_12e_all_red_states_are_neg_permutations():
    rng = random.Random(1205)
    bases = _reddening_bases()
    for _ in range(1000):
        q, seq, sigma = rng.choice(bases)
        m = random_sequence(rng, q, 4)
        conj = conjugate_reddening(seq, sigma, m)
        base = q.mutate_seq(m)
        try:
            tau = is_reddening(base, conj)  # raises if all-red but not -P
        except IntegerOverflowError:
            continue
        assert tau is not None
        assert base.mutate_seq(conj) == base.permuted(tau)
        assert framed(base).mutate_seq(conj) == coframed(base).permuted(tau)
    _criterion("12e", "every all-red C-matrix is minus a permutation matrix, 1000 cases", True)


def test_criterion_12f_conjugation_stays_reddening():
    rng = random.Random(1206)
    bases = _reddening_bases()
    for _ in range(1000):
        q, seq, sigma = rng.choice(bases)
        m = random_sequence(rng, q, 5)
        try:
            assert is_reddening(q.mutate_seq(m), conjugate_reddening(seq, sigma, m)) is not None
        except IntegerOverflowError:
            continue
    _criterion("12f", "conjugated reddening sequences stay reddening, 1000 cases", True)


def test_criterion_12g_fork_closure():
    rng = random.Random(1207)
    for _ in range(1000):
        f = random_fork(rng, max_n=5)
        returns = classify(f).fork_returns
        others = [v for v in f.mutable_labels if v not in returns]
        v = rng.choice(others)
        assert classify(f.mutate(v)).is_fork
    _criterion("12g", "mutating a fork away from its return yields a fork, 1000 cases", True)


def test_criterion_12h_canonical_form_agrees_with_isomorphism():
    rng = random.Random(1208)
    for _ in range(1000):
        q1 = random_quiver(rng, max_n=5, max_weight=2)
        if rng.random() < 0.5:
            labels = list(q1.mutable_labels)
            shuffled = labels[:]
            rng.shuffle(shuffled)
            q2 = q1.permuted(Permutation(dict(zip(labels, shuffled))))
        else:
            q2 = random_quiver(rng, max_n=5, max_weight=2)
        same = canonical_form(q1) == canonical_form(q2)
        if set(q1.mutable_labels) == set(q2.mutable_labels):
            assert same == (find_isomorphism(q1, q2) is not None)
        elif same:
            raise AssertionError("equal canonical forms across different label sets of equal size must be isomorphic")
    _criterion("12h", "canonical form agrees with isomorphism search, 1000 cases", True)


# -- 13 ---------------------------------------------------------------------

def test_criterion_13_box_quiver_negative_control():
    result = search_reddening(
        box_quiver(2, 2), max_len=10, reduced_only=True, weight_limit=10**100
    )
    _criterion("13", "box quiver admits no reddening sequence up to length 10 (search complete)",
               len(result) == 0 and result.complete)
