"""Generators for every named quiver, sequence, and parametric family.

Each registry bundle carries one worked example as machine-encoded data
(quivers, sequences, their stated permutations, extension matrices).  Its
self-check states every other expected value (cycle lengths, vertex
counts, classification flags) once, and recomputes each from the quiver
data; nothing shipped here is trusted by the test suite.

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
    ell = tuple(2 if i % 2 == 0 else 1 for i in range(k))
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
    m_cycles = tuple(x for pair in zip(u, v) for x in pair)
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
# Fixed transcriptions
# ---------------------------------------------------------------------------

def _key_K() -> Quiver:
    return Quiver.from_arrows([1, 2, 3], [(1, 2, 35), (2, 3, 4), (3, 1, 9)])


def _key_Kprime() -> Quiver:
    return Quiver.from_arrows([1, 2, 3], [(1, 2, 1), (2, 3, 4), (1, 3, 5)])


def _four_cycle() -> Quiver:
    return Quiver.from_arrows([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])


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


def _half_finite_12() -> Quiver:
    return _half_finite_15().restrict(range(1, 13))


_S_BULLET = (1, 3, 5, 7, 9, 11)
_S_CIRC = (2, 4, 6, 8, 10, 12)
_S_HALF_FINITE = _S_CIRC + _S_BULLET + _S_CIRC + _S_BULLET

_TORUS_ARROWS = [(3, 4, 2), (1, 3, 1), (2, 3, 1), (4, 1, 1), (1, 2, 1), (4, 2, 1)]


def _torus_at(offset: int) -> Quiver:
    return Quiver.from_arrows(
        [v + offset for v in (1, 2, 3, 4)],
        [(s + offset, d + offset, m) for s, d, m in _TORUS_ARROWS],
    )


_TORUS_MGS = (1, 3, 4, 2, 1, 3)

_TWO_TORUS_CYCLE = (
    1, 3, 4, 2, 1, 3, 5, 7, 8, 6, 5, 7,
    4, 2, 1, 3, 4, 2, 8, 6, 5, 7, 8, 6,
)


def _two_torus() -> Quiver:
    arrows = list(_torus_at(0).arrows()) + list(_torus_at(4).arrows())
    arrows += [(2, 5, 1), (3, 7, 1), (4, 8, 1)]
    return Quiver.from_arrows(range(1, 9), arrows)


def _three_torus() -> Quiver:
    arrows = list(_two_torus().arrows()) + list(_torus_at(8).arrows())
    arrows += [(6, 11, 1), (6, 9, 1), (8, 11, 1)]
    return Quiver.from_arrows(range(1, 13), arrows)


def _r_prime() -> Quiver:
    return Quiver.from_arrows(
        range(1, 9),
        [
            (2, 6), (3, 2), (4, 8), (1, 2), (1, 4), (1, 5), (6, 1), (6, 3),
            (7, 4), (8, 1), (8, 7), (5, 6), (5, 8),
        ],
    )


_S_PRIME = (5, 1, 7, 4, 1, 8, 7, 5, 4, 2, 1, 6, 5, 4, 3, 2, 1, 3, 5)


def _r_double_prime() -> Quiver:
    return Quiver.from_arrows(
        [1, 2, 3, 4, 5, 7, 8, 9],
        [
            (1, 2), (3, 1), (4, 8), (4, 1), (5, 4), (5, 9), (2, 5), (2, 3),
            (7, 4), (8, 5), (8, 7), (9, 2), (9, 8),
        ],
    )


_S_DOUBLE_PRIME = (7, 4, 1, 8, 7, 5, 4, 1, 9, 8, 7, 2, 5, 4, 3, 1, 7, 8, 5, 3, 1, 7)


def _banff_q() -> Quiver:
    return Quiver.from_arrows(
        range(1, 7),
        [
            (1, 2, 2), (2, 3), (2, 4), (3, 1), (3, 4), (4, 1), (4, 5),
            (5, 3), (6, 5),
        ],
    )


_BANFF_M = (2, 5, 4, 1, 4, 2, 1, 6, 5, 4, 5, 3)
_BANFF_S = (4, 1, 3, 2, 3, 6, 1, 5, 3, 1)


def _banff_n() -> MutationSequence:
    return reduce_sequence(_BANFF_M + _BANFF_S + inverse_sequence(_BANFF_M))


_BANFF_EXT_A = (
    (0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 3, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (0, 3, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0),
)


def _fork_example() -> Quiver:
    return Quiver.from_arrows([1, 2, 3], [(2, 1, 3), (3, 2, 8), (1, 3, 2)])


def _key_example() -> Quiver:
    return Quiver.from_arrows(
        [1, 2, 3, 4], [(2, 1, 2), (2, 3, 4), (1, 4, 2), (2, 4, 3), (3, 4, 4)]
    )


def _prefork_example() -> Quiver:
    return Quiver.from_arrows(
        [1, 2, 3, 4], [(2, 1, 2), (2, 3, 4), (1, 4, 8), (4, 2, 3), (3, 4, 5)]
    )


def _infinite_reduced_key() -> Quiver:
    return Quiver.from_arrows(
        [1, 2, 3, 4], [(2, 1, 2), (2, 3, 2), (4, 1, 2), (2, 4, 2), (4, 3, 2)]
    )


# ---------------------------------------------------------------------------
# Registry: each item's data, followed by the self-check that states and
# recomputes its expected values (shared by the CLI and the acceptance suite)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogItem:
    """Machine-encoded data of one named worked example."""

    name: str
    quivers: dict[str, Quiver] = field(default_factory=dict)
    sequences: dict[str, MutationSequence] = field(default_factory=dict)
    permutations: dict[str, Permutation] = field(default_factory=dict)
    matrices: dict[str, tuple[tuple[int, ...], ...]] = field(default_factory=dict)


Check = tuple[str, bool, str]


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


def _item_fig1_extension(name: str) -> CatalogItem:
    t = Quiver.from_arrows([5, 6], [(5, 6)])
    h = _four_cycle()
    a = ((7, 0, 0, 2), (0, 5, 5, 0))
    return CatalogItem(
        name,
        quivers={
            "t": t,
            "h": h,
            "extension": triangular_extension(ExtensionSpec(t, h, a)),
        },
        sequences={
            "m_t": (5, 6),
            "m_h": (1, 2, 1, 3, 2, 4, 2, 1),
            "cycle": (5, 6, 1, 2, 1, 3, 2, 4, 2, 1),
        },
        matrices={"a": a},
    )


def _verify_fig1_extension(item: CatalogItem) -> Iterator[Check]:
    q = item.quivers["extension"]
    report = verify_cycle(q, item.sequences["cycle"])
    yield _check("cycle closes with equality", report.closes_equal)
    yield _check("cycle is simple", report.simple)
    yield _check("cycle length 10", report.length == 10)
    built_q, built_seq = build_cycle_equal(
        item.quivers["t"], item.sequences["m_t"],
        item.quivers["h"], item.sequences["m_h"], item.matrices["a"],
    )
    yield _check("rebuilt from factors", built_q == q and built_seq == item.sequences["cycle"])


def _item_key(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={"K": _key_K(), "Kprime": _key_Kprime()},
        sequences={
            "to_K": (2, 3),
            "M": (3, 2, 1, 2, 3, 2, 3),
            "Mprime": (3, 2, 1, 2, 3, 1, 2, 1, 2, 3),
        },
        permutations={
            "M": Permutation.identity(),
            "Mprime": Permutation.from_cycles((1, 2)),
        },
    )


def _verify_key(item: CatalogItem) -> Iterator[Check]:
    K, Kp = item.quivers["K"], item.quivers["Kprime"]
    yield _check("K = mu_{2,3}(K')", Kp.mutate_seq(item.sequences["to_K"]) == K)
    yield _check("M reddening, identity", is_reddening(K, item.sequences["M"]) == item.permutations["M"])
    yield _check("M' reddening, (1,2)", is_reddening(K, item.sequences["Mprime"]) == item.permutations["Mprime"])


def _item_half_finite_12(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={"Q": _half_finite_12()},
        sequences={"S_bullet": _S_BULLET, "S_circ": _S_CIRC, "S": _S_HALF_FINITE},
        permutations={
            "S": Permutation.from_cycles((1, 3), (4, 6), (7, 9), (10, 12))
        },
    )


def _verify_half_finite_12(item: CatalogItem) -> Iterator[Check]:
    q = item.quivers["Q"]
    yield _check("S_circ recurrence", q.mutate_seq(item.sequences["S_circ"]) == q.opposite())
    yield _check("S_bullet recurrence", q.mutate_seq(item.sequences["S_bullet"]) == q.opposite())
    yield _check("S reddening with stated permutation", is_reddening(q, item.sequences["S"]) == item.permutations["S"])


def _item_half_finite_ext_15(name: str) -> CatalogItem:
    p = _half_finite_15()
    a = tuple(
        tuple(1 if (row, col) in ((1, 13), (2, 14), (3, 15)) else 0 for col in (13, 14, 15))
        for row in range(1, 13)
    )
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
        matrices={"a": a},
    )


def _verify_half_finite_ext_15(item: CatalogItem) -> Iterator[Check]:
    p = item.quivers["P"]
    base = catalog_item("half_finite_12")
    yield _check("restriction to 1..12", p.restrict(range(1, 13)) == base.quivers["Q"])
    tri = item.quivers["triangle"]
    for key in ("M1", "M2", "M3"):
        sigma = is_reddening(tri, item.sequences[key])
        yield _check(f"{key} reddening with stated permutation", sigma == item.permutations[key])
    for key, length in (("M1", 58), ("M2", 56), ("M3", 174)):
        built_q, seq = build_cycle_general(
            base.quivers["Q"], item.sequences["S"], tri, item.sequences[key], item.matrices["a"]
        )
        report = verify_cycle(built_q, seq)
        yield _check(
            f"{key} cycle simple of length {length}",
            built_q == p and report.simple and report.length == length,
        )


def _item_dreaded_torus(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={"Q": dreaded_torus(1)},
        sequences={"mgs": _TORUS_MGS},
        permutations={"mgs": Permutation.from_cycles((1, 4), (2, 3))},
    )


def _verify_dreaded_torus(item: CatalogItem) -> Iterator[Check]:
    q = item.quivers["Q"]
    sigma = is_maximal_green(q, item.sequences["mgs"])
    yield _check("maximal green with stated permutation", sigma == item.permutations["mgs"])
    for a in (2, 3, 4):
        yield _check(
            f"dominated a={a} has the same MGS",
            is_maximal_green(dreaded_torus(a), item.sequences["mgs"]) is not None,
        )


def _item_two_torus(name: str) -> CatalogItem:
    a = tuple(
        tuple(1 if (row, col) in ((2, 5), (3, 7), (4, 8)) else 0 for col in (5, 6, 7, 8))
        for row in (1, 2, 3, 4)
    )
    return CatalogItem(
        name,
        quivers={"Q": _two_torus(), "t": _torus_at(0), "h": _torus_at(4)},
        sequences={
            "m_t": _TORUS_MGS,
            "m_h": tuple(v + 4 for v in _TORUS_MGS),
            "cycle": _TWO_TORUS_CYCLE,
        },
        matrices={"a": a},
    )


def _verify_two_torus(item: CatalogItem) -> Iterator[Check]:
    q = item.quivers["Q"]
    built_q, seq = build_cycle_general(
        item.quivers["t"], item.sequences["m_t"],
        item.quivers["h"], item.sequences["m_h"], item.matrices["a"],
    )
    yield _check("built quiver matches figure", built_q == q)
    yield _check("built cycle matches stated 24-term sequence", seq == item.sequences["cycle"])
    yield _check("closes with equality", verify_cycle(q, seq).closes_equal)


def _item_three_torus(name: str) -> CatalogItem:
    # The extension's T factor is the 8-vertex two-torus quiver.  Its
    # 12-term reddening sequence is the concatenated torus sequences; the
    # 24-term mutation cycle is NOT a reddening sequence of it (the framed
    # endpoint keeps a green vertex), so the cycle through the 12-vertex
    # quiver interleaves the 12-term sequence, not the 24-term one.  The
    # variant splicing the 24-term cycle is recorded separately and
    # verified to diverge.
    m_t = _TORUS_MGS + tuple(v + 4 for v in _TORUS_MGS)
    pi = Permutation.from_cycles((1, 4), (2, 3), (5, 8), (6, 7))
    m_h = tuple(v + 8 for v in _TORUS_MGS)
    sigma_h = Permutation.from_cycles((9, 12), (10, 11))
    cycle = m_t + m_h + pi.map_sequence(m_t) + sigma_h.map_sequence(m_h)
    stated = _TWO_TORUS_CYCLE + m_h + _TWO_TORUS_CYCLE + sigma_h.map_sequence(m_h)
    a = tuple(
        tuple(
            1 if (row, col) in ((6, 9), (6, 11), (8, 11)) else 0
            for col in (9, 10, 11, 12)
        )
        for row in range(1, 9)
    )
    return CatalogItem(
        name,
        quivers={"Q": _three_torus(), "t": _two_torus(), "h": _torus_at(8)},
        sequences={
            "m_t": m_t,
            "m_h": m_h,
            "cycle": cycle,
            "stated_cycle": stated,
        },
        matrices={"a": a},
    )


def _verify_three_torus(item: CatalogItem) -> Iterator[Check]:
    q = item.quivers["Q"]
    built_q, seq = build_cycle_general(
        item.quivers["t"], item.sequences["m_t"],
        item.quivers["h"], item.sequences["m_h"], item.matrices["a"],
    )
    report = verify_cycle(q, seq)
    yield _check(
        "constructed 36-term cycle closes with equality",
        built_q == q and report.closes_equal and seq == item.sequences["cycle"],
    )
    # The exact-integer walk of the splice first leaves the 64-bit range
    # at sequence index 49 (acceptance criterion 7e); overflowing anywhere
    # else, or not at all, would be a different walk.
    state, overflow_at = q, None
    for step, v in enumerate(item.sequences["stated_cycle"]):
        try:
            state = state.mutate(v)
        except IntegerOverflowError:
            overflow_at = step
            break
    yield _check("recorded 60-term splice diverges (known discrepancy)", overflow_at == 49)


def _item_t5(name: str) -> CatalogItem:
    q, seq, sigma = punctured_sphere(5)
    return CatalogItem(
        name,
        quivers={"Q": q},
        sequences={"S": seq},
        permutations={"S": sigma},
    )


def _verify_t5(item: CatalogItem) -> Iterator[Check]:
    q = item.quivers["Q"]
    sigma = is_maximal_green(q, item.sequences["S"])
    yield _check("maximal green with stated permutation", sigma == item.permutations["S"])
    yield _check("3(k-2) vertices", q.rank == 9)


def _item_r33(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={"Q": grid_quiver(3, 3)},
        sequences={"S": grid_reddening(3, 3)},
        permutations={"S": Permutation.from_cycles((1, 3), (4, 6), (7, 9))},
    )


def _verify_r33(item: CatalogItem) -> Iterator[Check]:
    q = item.quivers["Q"]
    sigma = is_reddening(q, item.sequences["S"])
    yield _check("S reddening with stated permutation", sigma == item.permutations["S"])
    yield _check("length binom(4,2)*3", len(item.sequences["S"]) == 18)


def _item_r_prime(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={"Q": _r_prime()},
        sequences={"S": _S_PRIME, "to_subquiver": (5, 1)},
        permutations={"S": Permutation.from_cycles((1, 3), (4, 6), (7, 8))},
    )


def _verify_r_prime(item: CatalogItem) -> Iterator[Check]:
    q = item.quivers["Q"]
    sigma = is_reddening(q, item.sequences["S"])
    yield _check("S reddening with stated permutation", sigma == item.permutations["S"])
    r33 = catalog_item("R33").quivers["Q"]
    keep = [v for v in r33.mutable_labels if v != 9]
    mutated = q.mutate_seq(item.sequences["to_subquiver"])
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
    )


def _verify_r_double_prime(item: CatalogItem) -> Iterator[Check]:
    q = item.quivers["Q"]
    sigma = is_reddening(q, item.sequences["S"])
    yield _check("S reddening with stated permutation", sigma == item.permutations["S"])
    r33 = catalog_item("R33").quivers["Q"]
    keep = [v for v in r33.mutable_labels if v != 6]
    image = r33.mutate_seq(item.sequences["grid_mutation"]).restrict(keep)
    yield _check("R'' equals mu_{2,6}(R33) minus 6", image == q)


def _item_banff_q(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={"Q": _banff_q()},
        sequences={"M": _BANFF_M, "S": _BANFF_S, "N": _banff_n()},
        permutations={"N": Permutation.identity()},
    )


def _verify_banff_q(item: CatalogItem) -> Iterator[Check]:
    q = item.quivers["Q"]
    after_m = q.mutate_seq(item.sequences["M"])
    yield _check("vertex 4 is a source after M", 4 in after_m.sources())
    n = item.sequences["N"]
    yield _check("|N| = 34", len(n) == 34)
    yield _check("N reddening with identity", is_reddening(q, n) == item.permutations["N"])


def _item_banff_extension(name: str) -> CatalogItem:
    t = _r_double_prime()
    h = _banff_q().relabeled({i: i + 9 for i in range(1, 7)})
    n9 = tuple(v + 9 for v in _banff_n())
    return CatalogItem(
        name,
        quivers={
            "t": t,
            "h": h,
            "extension": triangular_extension(ExtensionSpec(t, h, _BANFF_EXT_A)),
        },
        sequences={"m_t": _S_DOUBLE_PRIME, "m_h": n9},
        matrices={"A": _BANFF_EXT_A},
    )


def _verify_banff_extension(item: CatalogItem) -> Iterator[Check]:
    ext = item.quivers["extension"]
    yield _check("14 vertices, no label 6", ext.rank == 14 and 6 not in ext.mutable_labels)
    built_q, seq = build_cycle_general(
        item.quivers["t"], item.sequences["m_t"],
        item.quivers["h"], item.sequences["m_h"], item.matrices["A"],
    )
    report = verify_cycle(built_q, seq)
    yield _check(
        "simple cycle of length 336",
        built_q == ext and report.simple and report.length == 336,
    )


def _item_quiver_types(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={
            "fork": _fork_example(),
            "key": _key_example(),
            "prefork": _prefork_example(),
        },
    )


def _verify_quiver_types(item: CatalogItem) -> Iterator[Check]:
    fork = classify(item.quivers["fork"])
    yield _check("fork with return 1", fork.fork_returns == frozenset({1}))
    key = classify(item.quivers["key"])
    yield _check(
        "key with pair (1,3) of weight 0",
        key.key_pairs == (((1, 3), 0),),
    )
    prefork = classify(item.quivers["prefork"])
    yield _check(
        "pre-fork with pair (1,3) and return 2",
        ((1, 3), 2) in prefork.prefork_pairs and not prefork.is_key,
    )


def _item_box_quiver(name: str) -> CatalogItem:
    return CatalogItem(name, quivers={"Q": box_quiver(2, 2)})


def _verify_box_quiver(item: CatalogItem) -> Iterator[Check]:
    result = search_reddening(item.quivers["Q"], max_len=6, reduced_only=True)
    yield _check(
        "no reddening sequence up to length 6",
        len(result) == 0 and result.complete,
    )


def _item_infinite_reduced_key(name: str) -> CatalogItem:
    return CatalogItem(
        name,
        quivers={"Q": _infinite_reduced_key()},
        sequences={"short": (2, 4, 3, 1), "N": (4, 1, 3, 1, 3, 4, 2, 4, 3, 1)},
        permutations={
            "short": Permutation.identity(),
            "N": Permutation.identity(),
        },
    )


def _verify_infinite_reduced_key(item: CatalogItem) -> Iterator[Check]:
    q = item.quivers["Q"]
    report = classify(q)
    yield _check("key with pair (1,3)", any(p == (1, 3) for p, _ in report.key_pairs))
    for key in ("short", "N"):
        sigma = is_reddening(q, item.sequences[key])
        yield _check(f"{key} reddening with identity", sigma == item.permutations[key])


_Entry = tuple[Callable[[str], CatalogItem], Callable[[CatalogItem], Iterator[Check]]]

#: Name -> (builder, self-check), in catalog order.
_REGISTRY: dict[str, _Entry] = {
    "fig1_extension": (_item_fig1_extension, _verify_fig1_extension),
    "key_K_and_Kprime": (_item_key, _verify_key),
    "half_finite_12": (_item_half_finite_12, _verify_half_finite_12),
    "half_finite_ext_15": (_item_half_finite_ext_15, _verify_half_finite_ext_15),
    "dreaded_torus": (_item_dreaded_torus, _verify_dreaded_torus),
    "two_torus_extension": (_item_two_torus, _verify_two_torus),
    "three_torus_extension": (_item_three_torus, _verify_three_torus),
    "T5": (_item_t5, _verify_t5),
    "R33": (_item_r33, _verify_r33),
    "Rprime": (_item_r_prime, _verify_r_prime),
    "Rdoubleprime": (_item_r_double_prime, _verify_r_double_prime),
    "banff_Q": (_item_banff_q, _verify_banff_q),
    "banff_extension_14": (_item_banff_extension, _verify_banff_extension),
    "quiver_types": (_item_quiver_types, _verify_quiver_types),
    "box_quiver": (_item_box_quiver, _verify_box_quiver),
    "infinite_reduced_key": (_item_infinite_reduced_key, _verify_infinite_reduced_key),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _entry(name: str) -> _Entry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown catalog item {name!r}; known: {', '.join(_REGISTRY)}"
        ) from None


def catalog_item(name: str) -> CatalogItem:
    """Fetch a registry bundle by its stable name."""
    build, _ = _entry(name)
    return build(name)


def verify_item(name: str) -> list[Check]:
    """Recompute every expectation shipped with a registry bundle."""
    build, verify = _entry(name)
    return list(verify(build(name)))
