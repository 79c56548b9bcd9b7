"""Generators for every named quiver, sequence, and parametric family.

Each registry item is one record: a worked example as machine-encoded data
(quivers, sequences, their stated permutations, extension matrices) and the
claims its self-check makes, in check order.  A claim ``(kind, *args)``
names the data it reads by key; kind ``k`` is evaluated by this module's
``_claim_k(item, *args)``, which yields ``(check, ok, detail)`` triples.
Claims that repeat have shared kinds: ``("reddening", check, q, s)`` and
``("green", check, q, s)`` (sequence ``s`` is reddening, or maximal green,
for quiver ``q`` with the permutation stated under ``s``) and
``("length", check, s, n)``; each one-off fact has a kind of its own.
Every expected value is stated once and recomputed from the quiver data;
nothing shipped here is trusted by the test suite.  Claims hold no function
objects: evaluators reach the library through this module's names when they
run, so a wrapper installed on those names sees every call.

Registry names are stable public identifiers, also used by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .classify import classify
from .errors import IntegerOverflowError, UnknownNameError
from .extcycles import (
    ExtensionSpec,
    build_cycle_equal,
    build_cycle_general,
    triangular_extension,
    verify_cycle,
)
from .permutation import Permutation
from .quiver import (
    INT_LIMIT,
    MutationSequence,
    Quiver,
    find_isomorphism,
    inverse_sequence,
    reduce_sequence,
)
from .reddening import is_maximal_green, is_reddening
from .search import search_reddening


# ---------------------------------------------------------------------------
# Parametric families
# ---------------------------------------------------------------------------

def chebyshev_u(k: int, a: int) -> int:
    """Monic Chebyshev value u_k(a): u_{-1} = 0, u_0 = 1,
    u_k = a*u_{k-1} - u_{k-2}.  Positive for a >= 2, k >= 0."""
    if k < -1:
        raise ValueError(f"k must be >= -1, got {k}")
    prev, cur = 0, 1  # u_{-1}, u_0
    if k == -1:
        return 0
    for _ in range(k):
        prev, cur = cur, a * cur - prev
        if abs(cur) > INT_LIMIT:
            raise IntegerOverflowError(f"u_k({a}) exceeds 64-bit range")
    if a >= 2 and k >= 0:
        assert cur > 0
    return cur


def fordy_marsh(a: int, b: int, c: int, k: int) -> tuple[Quiver, MutationSequence, Permutation]:
    """The 4-vertex family lying on a mutation cycle of length 2k+2.

    Weights are Chebyshev combinations of (a, b, c); the cycle is
    ``L, 4, sigma(L^-1), 3`` where L alternates 2,1,2,... with |L| = k and
    sigma = (1,2)(3,4).  Every quiver on the cycle contains an oriented
    4-cycle, so none of them is a triangular extension.
    """
    if min(a, b, c) < 2 or k < 1:
        raise ValueError("need a, b, c >= 2 and k >= 1")
    alpha = chebyshev_u(k, a) - chebyshev_u(k - 2, a)
    beta = chebyshev_u(k - 1, a) * b + chebyshev_u(k, a) * c
    gamma = chebyshev_u(k - 2, a) * b + chebyshev_u(k - 1, a) * c
    q = Quiver.from_arrows(
        [1, 2, 3, 4],
        [(1, 2, a), (1, 3, c), (2, 3, b), (3, 4, alpha), (4, 1, beta), (2, 4, gamma)],
    )
    sigma = Permutation.from_cycles((1, 2), (3, 4))
    ell = tuple([2 if i % 2 == 0 else 1 for i in range(k)])
    cycle = ell + (4,) + sigma.map_sequence(inverse_sequence(ell)) + (3,)
    return q, cycle, sigma


def grid_quiver(k: int, ell: int) -> Quiver:
    """Triangulated grid on k rows and ell columns, row-major labels.

    Rows run right-to-left, columns bottom-to-top, and each cell carries the
    down-right diagonal, so every unit square splits into two oriented
    triangles.
    """
    if k < 1 or ell < 1:
        raise ValueError("grid dimensions must be >= 1")

    def lab(i: int, j: int) -> int:
        return (i - 1) * ell + j

    arrows = []
    for i in range(1, k + 1):
        for j in range(1, ell):
            arrows.append((lab(i, j + 1), lab(i, j)))
    for i in range(1, k):
        for j in range(1, ell + 1):
            arrows.append((lab(i + 1, j), lab(i, j)))
    for i in range(1, k):
        for j in range(1, ell):
            arrows.append((lab(i, j), lab(i + 1, j + 1)))
    return Quiver.from_arrows(range(1, k * ell + 1), arrows)


def grid_reddening(k: int, ell: int) -> MutationSequence:
    """Reddening sequence of the grid: in round i, mutate the leftmost i
    vertices of each row, bottom row first, each row right to left.

    The length comes to binom(ell+1, 2) * k.
    """
    if k < 1 or ell < 1:
        raise ValueError("grid dimensions must be >= 1")
    seq = []
    for i in range(1, ell + 1):
        for row in range(k, 0, -1):
            for col in range(i, 0, -1):
                seq.append((row - 1) * ell + col)
    return tuple(seq)


def punctured_sphere(k: int) -> tuple[Quiver, MutationSequence, Permutation]:
    """The sphere-triangulation quiver T_k on 3(k-2) vertices with its
    maximal green sequence and associated permutation.

    Labels: v_i = i, u_i = (k-3)+i, w_i = 2(k-3)+i, then s, t, s-bar, t-bar.
    Use :func:`punctured_sphere_names` for the name-to-label map.
    """
    names = punctured_sphere_names(k)
    n = k - 3
    v = [names[f"v{i}"] for i in range(1, n + 1)]
    u = [names[f"u{i}"] for i in range(1, n + 1)]
    w = [names[f"w{i}"] for i in range(1, k - 3)]
    s, t = names["s"], names["t"]
    sbar, tbar = names["sbar"], names["tbar"]

    arrows = [(s, v[0])]
    arrows += [(v[i], v[i + 1]) for i in range(n - 1)]
    arrows += [(v[n - 1], t), (t, u[n - 1])]
    arrows += [(u[i + 1], u[i]) for i in range(n - 1)]
    arrows += [(u[0], s)]
    arrows += [(v[0], sbar), (sbar, u[0]), (u[n - 1], tbar), (tbar, v[n - 1])]
    for i in range(k - 4):
        arrows += [(v[i + 1], w[i]), (w[i], v[i])]
        arrows += [(u[i], w[i]), (w[i], u[i + 1])]
    q = Quiver.from_arrows(sorted(names.values()), arrows)

    m_ind_prime = tuple(w) + (sbar, tbar)
    m_cycles = tuple([x for pair in zip(u, v) for x in pair])
    m_ind = tuple(w) + (s, t)
    m_x = (
        tuple(v)
        + (tbar,)
        + tuple(reversed(u))
        + (sbar,)
        + tuple(u[1:])
        + (tbar,)
        + tuple(reversed(v))
    )
    seq = m_ind_prime + m_cycles + m_ind + m_x

    cycles = [(u[0], v[0], sbar, s), (t, tbar)]
    cycles += [(v[i], u[i]) for i in range(1, n)]
    sigma = Permutation.from_cycles(*cycles)
    return q, seq, sigma


def punctured_sphere_names(k: int) -> dict[str, int]:
    """Name-to-integer-label map for :func:`punctured_sphere`."""
    if k < 4:
        raise ValueError("need k >= 4")
    n = k - 3
    names: dict[str, int] = {}
    for i in range(1, n + 1):
        names[f"v{i}"] = i
        names[f"u{i}"] = n + i
    for i in range(1, k - 3):
        names[f"w{i}"] = 2 * n + i
    base = 2 * n + (k - 4)
    names.update({"s": base + 1, "t": base + 2, "sbar": base + 3, "tbar": base + 4})
    return names


def dreaded_torus(a: int = 1) -> Quiver:
    """The dominated dreaded torus; a = 1 is the once-punctured-torus quiver.

    Every member has the maximal green sequence 1,3,4,2,1,3.
    """
    if a < 1:
        raise ValueError("need a >= 1")
    return Quiver.from_arrows(
        [1, 2, 3, 4],
        [(3, 4, 2 * a), (1, 3, a), (2, 3, 1), (4, 1, 1), (1, 2, a), (4, 2, a)],
    )


def box_quiver(a: int = 2, b: int = 2) -> Quiver:
    """The 4-cycle with alternating weights a, b; for a, b >= 2 its
    pre-forkless part is finite and it admits no reddening sequence."""
    return Quiver.from_arrows(
        [1, 2, 3, 4], [(1, 2, a), (2, 3, b), (3, 4, a), (4, 1, b)]
    )


# ---------------------------------------------------------------------------
# Transcriptions shared by several items
# ---------------------------------------------------------------------------

_HALF_FINITE_15_ARROWS = [
    (4, 7, 2), (10, 7, 1), (10, 1, 1), (4, 1, 3),
    (2, 5, 3), (8, 5, 2), (2, 11, 1), (8, 11, 1),
    (6, 9, 2), (12, 3, 1), (12, 9, 1), (6, 3, 3),
    (1, 2, 1), (3, 2, 1), (7, 8, 1), (9, 8, 1),
    (5, 4, 1), (5, 6, 1), (11, 10, 1), (11, 12, 1),
    (1, 13, 1), (2, 14, 1), (3, 15, 1),
    (13, 14, 1), (14, 15, 1), (15, 13, 1),
]


def _half_finite_15() -> Quiver:
    return Quiver.from_arrows(range(1, 16), _HALF_FINITE_15_ARROWS)


_S_BULLET = (1, 3, 5, 7, 9, 11)
_S_CIRC = (2, 4, 6, 8, 10, 12)
_S_HALF_FINITE = _S_CIRC + _S_BULLET + _S_CIRC + _S_BULLET

def _torus_at(offset: int) -> Quiver:
    return dreaded_torus(1).relabeled({v: v + offset for v in (1, 2, 3, 4)})


_TORUS_MGS = (1, 3, 4, 2, 1, 3)

_TWO_TORUS_CYCLE = (
    1, 3, 4, 2, 1, 3, 5, 7, 8, 6, 5, 7,
    4, 2, 1, 3, 4, 2, 8, 6, 5, 7, 8, 6,
)


def _two_torus() -> Quiver:
    arrows = list(_torus_at(0).arrows()) + list(_torus_at(4).arrows())
    arrows += [(2, 5, 1), (3, 7, 1), (4, 8, 1)]
    return Quiver.from_arrows(range(1, 9), arrows)


def _cross(arrows, rows, cols) -> tuple[tuple[int, ...], ...]:
    """The extension matrix on ``rows`` x ``cols`` of the cross arrows
    ``(row, col, multiplicity)``; every other entry is 0."""
    weight = {(row, col): m for row, col, m in arrows}
    return tuple([tuple([weight.get((row, col), 0) for col in cols]) for row in rows])


def _r_double_prime() -> Quiver:
    arrows = [(1, 2), (3, 1), (4, 8), (4, 1), (5, 4), (5, 9), (2, 5), (2, 3)]
    arrows += [(7, 4), (8, 5), (8, 7), (9, 2), (9, 8)]
    return Quiver.from_arrows([1, 2, 3, 4, 5, 7, 8, 9], arrows)


_S_DOUBLE_PRIME = (7, 4, 1, 8, 7, 5, 4, 1, 9, 8, 7, 2, 5, 4, 3, 1, 7, 8, 5, 3, 1, 7)


def _banff_q() -> Quiver:
    arrows = [(1, 2, 2), (2, 3), (2, 4), (3, 1), (3, 4), (4, 1), (4, 5), (5, 3), (6, 5)]
    return Quiver.from_arrows(range(1, 7), arrows)


_BANFF_M = (2, 5, 4, 1, 4, 2, 1, 6, 5, 4, 5, 3)
_BANFF_S = (4, 1, 3, 2, 3, 6, 1, 5, 3, 1)
_BANFF_N = reduce_sequence(_BANFF_M + _BANFF_S + inverse_sequence(_BANFF_M))


_BANFF_EXT_A = _cross(
    [(2, 12, 1), (3, 11, 3), (3, 15, 1), (5, 12, 1), (8, 11, 3), (8, 15, 1)],
    (1, 2, 3, 4, 5, 7, 8, 9),
    range(10, 16),
)


# ---------------------------------------------------------------------------
# Registry: each item's data and the claims its self-check makes about it
# (shared by the CLI and the acceptance suite)
# ---------------------------------------------------------------------------

Check = tuple[str, bool, str]


@dataclass(frozen=True)
class CatalogItem:
    """Machine-encoded data of one named worked example, and the claims its
    self-check makes about that data, in check order."""

    name: str
    quivers: dict[str, Quiver] = field(default_factory=dict)
    sequences: dict[str, MutationSequence] = field(default_factory=dict)
    permutations: dict[str, Permutation] = field(default_factory=dict)
    matrices: dict[str, tuple[tuple[int, ...], ...]] = field(default_factory=dict)
    claims: tuple[tuple, ...] = ()


def _check(name: str, ok: bool) -> Check:
    return (name, bool(ok), "")


def _claim_reddening(item: CatalogItem, check: str, q: str, s: str) -> Iterator[Check]:
    sigma = is_reddening(item.quivers[q], item.sequences[s])
    yield _check(check, sigma == item.permutations[s])


def _claim_green(item: CatalogItem, check: str, q: str, s: str) -> Iterator[Check]:
    sigma = is_maximal_green(item.quivers[q], item.sequences[s])
    yield _check(check, sigma == item.permutations[s])


def _claim_length(item: CatalogItem, check: str, s: str, n: int) -> Iterator[Check]:
    yield _check(check, len(item.sequences[s]) == n)


def _item_fig1_extension(name: str) -> CatalogItem:
    t = Quiver.from_arrows([5, 6], [(5, 6)])
    h = Quiver.from_arrows([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
    a = ((7, 0, 0, 2), (0, 5, 5, 0))
    return CatalogItem(
        name,
        quivers={"t": t, "h": h, "extension": triangular_extension(ExtensionSpec(t, h, a))},
        sequences={
            "m_t": (5, 6),
            "m_h": (1, 2, 1, 3, 2, 4, 2, 1),
            "cycle": (5, 6, 1, 2, 1, 3, 2, 4, 2, 1),
        },
        matrices={"a": a},
        claims=(("fig1_cycle",),),
    )


def _claim_fig1_cycle(item: CatalogItem) -> Iterator[Check]:
    q, s = item.quivers, item.sequences
    report = verify_cycle(q["extension"], s["cycle"])
    yield _check("cycle closes with equality", report.closes_equal)
    yield _check("cycle is simple", report.simple)
    yield _check("cycle length 10", report.length == 10)
    built = build_cycle_equal(q["t"], s["m_t"], q["h"], s["m_h"], item.matrices["a"])
    yield _check("rebuilt from factors", built == (q["extension"], s["cycle"]))


def _item_key(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={
            "K": Quiver.from_arrows([1, 2, 3], [(1, 2, 35), (2, 3, 4), (3, 1, 9)]),
            "Kprime": Quiver.from_arrows([1, 2, 3], [(1, 2, 1), (2, 3, 4), (1, 3, 5)]),
        },
        sequences={
            "to_K": (2, 3),
            "M": (3, 2, 1, 2, 3, 2, 3),
            "Mprime": (3, 2, 1, 2, 3, 1, 2, 1, 2, 3),
        },
        permutations={"M": Permutation.identity(), "Mprime": Permutation.from_cycles((1, 2))},
        claims=(
            ("key_from_kprime",),
            ("reddening", "M reddening, identity", "K", "M"),
            ("reddening", "M' reddening, (1,2)", "K", "Mprime"),
        ),
    )


def _claim_key_from_kprime(item: CatalogItem) -> Iterator[Check]:
    image = item.quivers["Kprime"].mutate_seq(item.sequences["to_K"])
    yield _check("K = mu_{2,3}(K')", image == item.quivers["K"])


def _item_half_finite_12(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={"Q": _half_finite_15().restrict(range(1, 13))},
        sequences={"S_bullet": _S_BULLET, "S_circ": _S_CIRC, "S": _S_HALF_FINITE},
        permutations={"S": Permutation.from_cycles((1, 3), (4, 6), (7, 9), (10, 12))},
        claims=(
            ("recurrences",),
            ("reddening", "S reddening with stated permutation", "Q", "S"),
        ),
    )


def _claim_recurrences(item: CatalogItem) -> Iterator[Check]:
    q = item.quivers["Q"]
    for key in ("S_circ", "S_bullet"):
        yield _check(f"{key} recurrence", q.mutate_seq(item.sequences[key]) == q.opposite())


def _item_half_finite_ext_15(name: str) -> CatalogItem:
    p = _half_finite_15()
    return CatalogItem(
        name,
        quivers={"P": p, "triangle": p.restrict([13, 14, 15])},
        sequences={
            "S": _S_HALF_FINITE,
            "M1": (14, 15, 14, 13, 14),
            "M2": (13, 14, 15, 13),
            "M3": (13, 15, 13, 14, 13),
        },
        permutations={
            "M1": Permutation.identity(),
            "M2": Permutation.from_cycles((13, 15)),
            "M3": Permutation.from_cycles((13, 15, 14)),
        },
        matrices={"a": _cross([(1, 13, 1), (2, 14, 1), (3, 15, 1)], range(1, 13), (13, 14, 15))},
        claims=(
            ("restriction_to_12",),
            ("reddening", "M1 reddening with stated permutation", "triangle", "M1"),
            ("reddening", "M2 reddening with stated permutation", "triangle", "M2"),
            ("reddening", "M3 reddening with stated permutation", "triangle", "M3"),
            ("half_finite_cycles",),
        ),
    )


def _claim_restriction_to_12(item: CatalogItem) -> Iterator[Check]:
    base = catalog_item("half_finite_12").quivers["Q"]
    yield _check("restriction to 1..12", item.quivers["P"].restrict(range(1, 13)) == base)


def _claim_half_finite_cycles(item: CatalogItem) -> Iterator[Check]:
    q, s = item.quivers, item.sequences
    base = catalog_item("half_finite_12").quivers["Q"]
    for key, length in (("M1", 58), ("M2", 56), ("M3", 174)):
        built_q, seq = build_cycle_general(base, s["S"], q["triangle"], s[key], item.matrices["a"])
        report = verify_cycle(built_q, seq)
        yield _check(
            f"{key} cycle simple of length {length}",
            built_q == q["P"] and report.simple and report.length == length,
        )


def _item_dreaded_torus(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={"Q": dreaded_torus(1)},
        sequences={"mgs": _TORUS_MGS},
        permutations={"mgs": Permutation.from_cycles((1, 4), (2, 3))},
        claims=(
            ("green", "maximal green with stated permutation", "Q", "mgs"),
            ("dominated_tori",),
        ),
    )


def _claim_dominated_tori(item: CatalogItem) -> Iterator[Check]:
    for a in (2, 3, 4):
        sigma = is_maximal_green(dreaded_torus(a), item.sequences["mgs"])
        yield _check(f"dominated a={a} has the same MGS", sigma is not None)


def _item_two_torus(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={"Q": _two_torus(), "t": _torus_at(0), "h": _torus_at(4)},
        sequences={
            "m_t": _TORUS_MGS,
            "m_h": tuple([v + 4 for v in _TORUS_MGS]),
            "cycle": _TWO_TORUS_CYCLE,
        },
        matrices={"a": _cross([(2, 5, 1), (3, 7, 1), (4, 8, 1)], (1, 2, 3, 4), (5, 6, 7, 8))},
        claims=(("two_torus_cycle",),),
    )


def _claim_two_torus_cycle(item: CatalogItem) -> Iterator[Check]:
    q, s = item.quivers, item.sequences
    built_q, seq = build_cycle_general(q["t"], s["m_t"], q["h"], s["m_h"], item.matrices["a"])
    yield _check("built quiver matches figure", built_q == q["Q"])
    yield _check("built cycle matches stated 24-term sequence", seq == s["cycle"])
    yield _check("closes with equality", q["Q"].mutate_seq(seq) == q["Q"])


def _item_three_torus(name: str) -> CatalogItem:
    # The extension's T factor is the 8-vertex two-torus quiver.  Its
    # 12-term reddening sequence is the concatenated torus sequences; the
    # 24-term mutation cycle is NOT a reddening sequence of it (the framed
    # endpoint keeps a green vertex), so the cycle through the 12-vertex
    # quiver interleaves the 12-term sequence, not the 24-term one.  The
    # variant splicing the 24-term cycle is recorded separately and
    # verified to diverge.
    m_t = _TORUS_MGS + tuple([v + 4 for v in _TORUS_MGS])
    pi = Permutation.from_cycles((1, 4), (2, 3), (5, 8), (6, 7))
    m_h = tuple([v + 8 for v in _TORUS_MGS])
    h_back = Permutation.from_cycles((9, 12), (10, 11)).map_sequence(m_h)
    t, h = _two_torus(), _torus_at(8)
    arrows = list(t.arrows()) + list(h.arrows()) + [(6, 11, 1), (6, 9, 1), (8, 11, 1)]
    return CatalogItem(
        name,
        quivers={"Q": Quiver.from_arrows(range(1, 13), arrows), "t": t, "h": h},
        sequences={
            "m_t": m_t,
            "m_h": m_h,
            "cycle": m_t + m_h + pi.map_sequence(m_t) + h_back,
            "stated_cycle": _TWO_TORUS_CYCLE + m_h + _TWO_TORUS_CYCLE + h_back,
        },
        matrices={"a": _cross([(6, 9, 1), (6, 11, 1), (8, 11, 1)], range(1, 9), (9, 10, 11, 12))},
        claims=(("three_torus_cycles",),),
    )


def _claim_three_torus_cycles(item: CatalogItem) -> Iterator[Check]:
    q, s = item.quivers, item.sequences
    built_q, seq = build_cycle_general(q["t"], s["m_t"], q["h"], s["m_h"], item.matrices["a"])
    yield _check(
        "constructed 36-term cycle closes with equality",
        built_q == q["Q"] and q["Q"].mutate_seq(seq) == q["Q"] and seq == s["cycle"],
    )
    # The exact-integer walk of the splice first leaves the 64-bit range
    # at sequence index 49 (acceptance criterion 7e); overflowing anywhere
    # else, or not at all, would be a different walk.
    try:
        q["Q"].mutate_seq(s["stated_cycle"])
        overflow_at = None
    except IntegerOverflowError as exc:
        overflow_at = exc.step
    yield _check("recorded 60-term splice diverges (known discrepancy)", overflow_at == 49)


def _item_t5(name: str) -> CatalogItem:
    q, seq, sigma = punctured_sphere(5)
    return CatalogItem(
        name,
        quivers={"Q": q},
        sequences={"S": seq},
        permutations={"S": sigma},
        claims=(
            ("green", "maximal green with stated permutation", "Q", "S"),
            ("sphere_rank",),
        ),
    )


def _claim_sphere_rank(item: CatalogItem) -> Iterator[Check]:
    yield _check("3(k-2) vertices", item.quivers["Q"].rank == 9)


def _item_r33(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={"Q": grid_quiver(3, 3)},
        sequences={"S": grid_reddening(3, 3)},
        permutations={"S": Permutation.from_cycles((1, 3), (4, 6), (7, 9))},
        claims=(
            ("reddening", "S reddening with stated permutation", "Q", "S"),
            ("length", "length binom(4,2)*3", "S", 18),
        ),
    )


def _item_r_prime(name: str) -> CatalogItem:
    arrows = [(2, 6), (3, 2), (4, 8), (1, 2), (1, 4), (1, 5), (6, 1), (6, 3)]
    arrows += [(7, 4), (8, 1), (8, 7), (5, 6), (5, 8)]
    return CatalogItem(
        name,
        quivers={"Q": Quiver.from_arrows(range(1, 9), arrows)},
        sequences={
            "S": (5, 1, 7, 4, 1, 8, 7, 5, 4, 2, 1, 6, 5, 4, 3, 2, 1, 3, 5),
            "to_subquiver": (5, 1),
        },
        permutations={"S": Permutation.from_cycles((1, 3), (4, 6), (7, 8))},
        claims=(
            ("reddening", "S reddening with stated permutation", "Q", "S"),
            ("r33_minus_9",),
        ),
    )


def _claim_r33_minus_9(item: CatalogItem) -> Iterator[Check]:
    r33 = catalog_item("R33").quivers["Q"]
    keep = [v for v in r33.mutable_labels if v != 9]
    mutated = item.quivers["Q"].mutate_seq(item.sequences["to_subquiver"])
    iso = find_isomorphism(mutated, r33.restrict(keep))
    yield _check("mu_{5,1}(R') is R33 minus 9", iso is not None)


def _item_r_double_prime(name: str) -> CatalogItem:
    # The subquiver relation cannot mutate R'' at vertex 6 (R'' has no such
    # vertex); since 6 is the deleted vertex, restriction does not commute
    # with the mutation and the relation must be read on the grid side:
    # R'' equals mu_{2,6}(R33) restricted away from 6.
    # The 3-cycle runs (4,7,9): the defining relation sigma(coframed) =
    # mutated framed quiver pins this orientation, and the labeled quiver
    # equality mu_S(Q) == sigma(Q) holds for it alone.
    return CatalogItem(
        name,
        quivers={"Q": _r_double_prime()},
        sequences={"S": _S_DOUBLE_PRIME, "grid_mutation": (2, 6)},
        permutations={"S": Permutation.from_cycles((2, 5), (3, 8), (4, 7, 9))},
        claims=(
            ("reddening", "S reddening with stated permutation", "Q", "S"),
            ("r33_minus_6",),
        ),
    )


def _claim_r33_minus_6(item: CatalogItem) -> Iterator[Check]:
    r33 = catalog_item("R33").quivers["Q"]
    keep = [v for v in r33.mutable_labels if v != 6]
    image = r33.mutate_seq(item.sequences["grid_mutation"]).restrict(keep)
    yield _check("R'' equals mu_{2,6}(R33) minus 6", image == item.quivers["Q"])


def _item_banff_q(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={"Q": _banff_q()},
        sequences={"M": _BANFF_M, "S": _BANFF_S, "N": _BANFF_N},
        permutations={"N": Permutation.identity()},
        claims=(
            ("banff_source",),
            ("length", "|N| = 34", "N", 34),
            ("reddening", "N reddening with identity", "Q", "N"),
        ),
    )


def _claim_banff_source(item: CatalogItem) -> Iterator[Check]:
    after_m = item.quivers["Q"].mutate_seq(item.sequences["M"])
    yield _check("vertex 4 is a source after M", 4 in after_m.sources())


def _item_banff_extension(name: str) -> CatalogItem:
    t = _r_double_prime()
    h = _banff_q().relabeled({i: i + 9 for i in range(1, 7)})
    return CatalogItem(
        name,
        quivers={
            "t": t,
            "h": h,
            "extension": triangular_extension(ExtensionSpec(t, h, _BANFF_EXT_A)),
        },
        sequences={"m_t": _S_DOUBLE_PRIME, "m_h": tuple([v + 9 for v in _BANFF_N])},
        matrices={"A": _BANFF_EXT_A},
        claims=(("banff_cycle",),),
    )


def _claim_banff_cycle(item: CatalogItem) -> Iterator[Check]:
    q, s = item.quivers, item.sequences
    ext = q["extension"]
    yield _check("14 vertices, no label 6", ext.rank == 14 and 6 not in ext.mutable_labels)
    built_q, seq = build_cycle_general(q["t"], s["m_t"], q["h"], s["m_h"], item.matrices["A"])
    report = verify_cycle(built_q, seq)
    yield _check(
        "simple cycle of length 336",
        built_q == ext and report.simple and report.length == 336,
    )


def _item_quiver_types(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={
            "fork": Quiver.from_arrows([1, 2, 3], [(2, 1, 3), (3, 2, 8), (1, 3, 2)]),
            "key": Quiver.from_arrows(
                [1, 2, 3, 4], [(2, 1, 2), (2, 3, 4), (1, 4, 2), (2, 4, 3), (3, 4, 4)]
            ),
            "prefork": Quiver.from_arrows(
                [1, 2, 3, 4], [(2, 1, 2), (2, 3, 4), (1, 4, 8), (4, 2, 3), (3, 4, 5)]
            ),
        },
        claims=(("quiver_types",),),
    )


def _claim_quiver_types(item: CatalogItem) -> Iterator[Check]:
    fork = classify(item.quivers["fork"])
    yield _check("fork with return 1", fork.fork_returns == frozenset({1}))
    key = classify(item.quivers["key"])
    yield _check("key with pair (1,3) of weight 0", key.key_pairs == (((1, 3), 0),))
    prefork = classify(item.quivers["prefork"])
    yield _check(
        "pre-fork with pair (1,3) and return 2",
        ((1, 3), 2) in prefork.prefork_pairs and not prefork.is_key,
    )


def _item_box_quiver(name: str) -> CatalogItem:
    return CatalogItem(name, quivers={"Q": box_quiver(2, 2)}, claims=(("no_short_reddening",),))


def _claim_no_short_reddening(item: CatalogItem) -> Iterator[Check]:
    result = search_reddening(item.quivers["Q"], max_len=6, reduced_only=True)
    yield _check("no reddening sequence up to length 6", len(result) == 0 and result.complete)


def _item_infinite_reduced_key(name: str) -> CatalogItem:
    arrows = [(2, 1, 2), (2, 3, 2), (4, 1, 2), (2, 4, 2), (4, 3, 2)]
    return CatalogItem(
        name,
        quivers={"Q": Quiver.from_arrows([1, 2, 3, 4], arrows)},
        sequences={"short": (2, 4, 3, 1), "N": (4, 1, 3, 1, 3, 4, 2, 4, 3, 1)},
        permutations={"short": Permutation.identity(), "N": Permutation.identity()},
        claims=(
            ("key_pair",),
            ("reddening", "short reddening with identity", "Q", "short"),
            ("reddening", "N reddening with identity", "Q", "N"),
        ),
    )


def _claim_key_pair(item: CatalogItem) -> Iterator[Check]:
    report = classify(item.quivers["Q"])
    yield _check("key with pair (1,3)", any(p == (1, 3) for p, _ in report.key_pairs))


#: Name -> builder, in catalog order.
_REGISTRY: dict[str, Callable[[str], CatalogItem]] = {
    "fig1_extension": _item_fig1_extension,
    "key_K_and_Kprime": _item_key,
    "half_finite_12": _item_half_finite_12,
    "half_finite_ext_15": _item_half_finite_ext_15,
    "dreaded_torus": _item_dreaded_torus,
    "two_torus_extension": _item_two_torus,
    "three_torus_extension": _item_three_torus,
    "T5": _item_t5,
    "R33": _item_r33,
    "Rprime": _item_r_prime,
    "Rdoubleprime": _item_r_double_prime,
    "banff_Q": _item_banff_q,
    "banff_extension_14": _item_banff_extension,
    "quiver_types": _item_quiver_types,
    "box_quiver": _item_box_quiver,
    "infinite_reduced_key": _item_infinite_reduced_key,
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def catalog_item(name: str) -> CatalogItem:
    """Build a registry item by its stable name."""
    try:
        build = _REGISTRY[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown catalog item {name!r}; known: {', '.join(_REGISTRY)}"
        ) from None
    return build(name)


def _evaluate(item: CatalogItem) -> Iterator[Check]:
    """The checks of every claim of ``item``, in order.  The evaluator of a
    kind is looked up when the claim runs, like every library call."""
    for kind, *args in item.claims:
        yield from globals()["_claim_" + kind](item, *args)


def verify_item(name: str) -> list[Check]:
    """Recompute every expectation shipped with a registry item."""
    return list(_evaluate(catalog_item(name)))
