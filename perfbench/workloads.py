"""Seeded job mixes of the three benchmark workloads, and why each exists.

* ``verify`` checks given sequences: catalog self-checks, conjugated
  reddening sequences (each must keep its base permutation), random reduced
  sequences (mostly negative verdicts), the Banff, three-torus and figure-1
  cycles rotated to a seeded start, and acyclic cycle builds.  Quiver.mutate
  and c_matrix do the work.  canonical_form never runs, and the search DFS
  does about 3% of the traced job time (the box-quiver catalog self-check
  searches to length 6), so kernel and constructor changes show here and
  search or canonical-form changes barely do.
* ``search`` runs bounded searches: grid(2,2) to length 8, the torus maximal
  green search to length 9, the box quiver to length 10 (finds nothing) and
  seeded rank-3/4 quivers split among full enumeration, green-only and
  first-only.  The DFS kernel and the DFS body do the work; Quiver.mutate
  and canonical_form do not run.  Full enumerations sit beside existence
  queries, so a change that helps one and costs the other shows on p50
  against p90.
* ``explore`` enumerates mutation classes: seeded orientations of A4-A6,
  D4-D6 and E6 (checked against the published class sizes), budgeted
  classes of seeded rank-3/4 quivers, and forkless exploration with and
  without discarding pre-forks.  canonical_form and classify do the work,
  and Quiver.mutate runs on one-step neighbours of many small quivers with
  growing entries instead of long trajectories of large quivers.

A job is one closed-loop request: the worker times ``run()`` alone, then
checks the output outside the timed region.  Each job kind draws its
instances from a fixed pool: instance ``i`` of a kind is a pure function of
``(kind, i)``, so the digest of its output is recorded once in
``digests.json`` and compared on every later run, whatever seed picked it.

Every library call goes through a module attribute looked up at call time
(``rc.x`` or ``_mod("catalog").x``), never through a name bound at import,
so the traced run sees each call.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from typing import Callable

import redcycle as rc

#: Published sizes of the finite mutation classes up to isomorphism.
CLASS_SIZES = {"A4": 6, "A5": 19, "A6": 49, "D4": 6, "D5": 26, "D6": 80, "E6": 67}

_DYNKIN_EDGES = {
    "A4": [(1, 2), (2, 3), (3, 4)],
    "A5": [(1, 2), (2, 3), (3, 4), (4, 5)],
    "A6": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
    "D4": [(1, 2), (2, 3), (2, 4)],
    "D5": [(1, 2), (2, 3), (3, 4), (3, 5)],
    "D6": [(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)],
    "E6": [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)],
}

#: Catalog quivers with a reddening sequence and its permutation.
_REDDENING_BASES = (
    ("R33", "S"),
    ("T5", "S"),
    ("half_finite_12", "S"),
    ("Rprime", "S"),
    ("banff_Q", "N"),
)


def _mod(name: str):
    """A redcycle submodule; ``redcycle.classify`` is shadowed by the function."""
    return sys.modules[f"redcycle.{name}"]


@dataclass
class Job:
    kind: str
    index: int
    run: Callable[[], object]
    #: Canonical text of an output; its digest is recorded.
    render: Callable[[object], str]
    #: Independent check of an output: None when it holds, else the reason.
    check: Callable[[object], str | None]
    #: Result items an output returns (canonical forms, sequences, verdicts).
    items: Callable[[object], int] = lambda out: 1


# -- input generators --------------------------------------------------------

def _random_quiver(
    rng: random.Random, rank: int, max_weight: int, weak_pair: bool = False
) -> "rc.Quiver":
    """Random weights in [-max_weight, max_weight]; with ``weak_pair`` the
    vertices 1 and 2 are joined by at most one arrow."""
    labels = range(1, rank + 1)
    arrows = []
    for i in labels:
        for j in labels:
            if j > i:
                bound = 1 if weak_pair and (i, j) == (1, 2) else max_weight
                w = rng.randint(-bound, bound)
                if w:
                    arrows.append((i, j, w) if w > 0 else (j, i, -w))
    return rc.Quiver.from_arrows(labels, arrows)


def _acyclic_quiver(
    rng: random.Random, labels: list[int], min_weight: int, max_weight: int
) -> "rc.Quiver":
    """Arrows only forward along a shuffled order of the labels."""
    order = labels[:]
    rng.shuffle(order)
    arrows = []
    for a, i in enumerate(order):
        for j in order[a + 1 :]:
            w = rng.randint(min_weight, max_weight)
            if w:
                arrows.append((i, j, w))
    return rc.Quiver.from_arrows(labels, arrows)


def _reduced_seq(rng: random.Random, labels, length: int) -> tuple[int, ...]:
    labels = list(labels)
    seq: list[int] = []
    while len(seq) < length:
        v = rng.choice(labels)
        if not seq or v != seq[-1]:
            seq.append(v)
    return tuple(seq)


def _perm(p) -> str:
    return "-" if p is None else repr(p)


# -- verify: checks given sequences -------------------------------------------

class VerifyContext:
    """Catalog data shared by the verify jobs."""

    def __init__(self):
        cat = _mod("catalog")
        self.names = cat.catalog_names()
        self.bases = []
        for name, key in _REDDENING_BASES:
            item = cat.catalog_item(name)
            self.bases.append((name, item.quivers["Q"], item.sequences[key], item.permutations[key]))
        fig1 = cat.catalog_item("fig1_extension")
        torus3 = cat.catalog_item("three_torus_extension")
        banff = cat.catalog_item("banff_extension_14")
        # The 336-term Banff cycle: the T sequence relabeled by the powers of
        # its permutation, each followed by the H sequence (identity).
        rho = cat.catalog_item("Rdoubleprime").permutations["S"]
        banff_cycle: tuple[int, ...] = ()
        for i in range(rho.order):
            banff_cycle += (rho**i).map_sequence(banff.sequences["m_t"]) + banff.sequences["m_h"]
        self.cycles = [
            ("fig1", fig1.quivers["extension"], fig1.sequences["cycle"]),
            ("three_torus", torus3.quivers["Q"], torus3.sequences["cycle"]),
            ("banff", banff.quivers["extension"], banff_cycle),
        ]


def _catalog_job(ctx: VerifyContext, i: int) -> Job:
    name = ctx.names[i % len(ctx.names)]
    return Job(
        "catalog", i,
        run=lambda: _mod("catalog").verify_item(name),
        render=lambda out: name + "\n" + "\n".join(f"{c}:{ok}" for c, ok, _ in out),
        check=lambda out: None if out and all(ok for _, ok, _ in out) else "self-check failed",
    )


def _conjugate_job(ctx: VerifyContext, i: int) -> Job:
    rng = random.Random(f"conjugate:{i}")
    name, q, seq, sigma = ctx.bases[i % len(_REDDENING_BASES)]
    m = _reduced_seq(rng, q.mutable_labels, rng.randint(1, 6))

    def run():
        conj = rc.conjugate_reddening(seq, sigma, m)
        return conj, rc.is_reddening(q.mutate_seq(m), conj)

    return Job(
        "conjugate", i, run,
        render=lambda out: f"{name} {m} {out[0]} {_perm(out[1])}",
        check=lambda out: None if out[1] == sigma else "conjugate lost the base permutation",
    )


def _random_seq_job(ctx: VerifyContext, i: int) -> Job:
    rng = random.Random(f"random_seq:{i}")
    name, q, _, _ = ctx.bases[i % len(_REDDENING_BASES)]
    seq = _reduced_seq(rng, q.mutable_labels, 2 * q.rank)

    def run():
        return rc.is_reddening(q, seq), rc.is_maximal_green(q, seq)

    def check(out):
        red, green = out
        if green is not None and red != green:
            return "maximal green sequence not reddening with the same permutation"
        return None

    return Job(
        "random_seq", i, run,
        render=lambda out: f"{name} {seq} {_perm(out[0])} {_perm(out[1])}",
        check=check,
    )


def _cycle_job(ctx: VerifyContext, i: int) -> Job:
    rng = random.Random(f"cycle:{i}")
    name, q, cycle = ctx.cycles[i % len(ctx.cycles)]
    start = rng.randrange(len(cycle))
    rotated = cycle[start:] + cycle[:start]

    def run():
        return rc.verify_cycle(q.mutate_seq(cycle[:start]), rotated)

    def render(r):
        hashes = hashlib.sha256("".join(r.trajectory_hashes).encode()).hexdigest()
        return (
            f"{name} {start} {r.length} {r.is_reduced} {r.closes_equal} "
            f"{_perm(r.closes_iso)} {r.simple} {r.all_abundant} {hashes}"
        )

    return Job(
        "cycle", i, run, render,
        check=lambda r: None if r.closes_equal and r.length == len(cycle) else "rotated cycle does not close",
    )


def _acyclic_build_job(ctx: VerifyContext, i: int) -> Job:
    rng = random.Random(f"acyclic_build:{i}")
    rt, rh = rng.randint(2, 3), rng.randint(2, 3)
    t = _acyclic_quiver(rng, list(range(1, rt + 1)), 0, 2)
    h = _acyclic_quiver(rng, list(range(rt + 1, rt + rh + 1)), 0, 2)
    m = _reduced_seq(rng, t.mutable_labels, rng.randint(0, 4))
    n = _reduced_seq(rng, h.mutable_labels, rng.randint(0, 4))
    a = [[rng.randint(0, 2) for _ in range(rh)] for _ in range(rt)]

    def check(out):
        q, seq = out
        return None if q.mutate_seq(seq) == q else "built cycle does not close"

    return Job(
        "acyclic_build", i,
        run=lambda: rc.build_acyclic_cycle(t, m, h, n, a),
        render=lambda out: f"{out[0].encode().decode()} {out[1]}",
        check=check,
    )


# -- search: bounded reddening and maximal green searches ---------------------

def _search_job(kind: str, i: int, q, max_len: int, flags: dict, expect: int | None) -> Job:
    verify = rc.is_maximal_green if flags.get("green_only") else rc.is_reddening

    def render(res):
        body = ";".join(f"{','.join(map(str, s))}={_perm(p)}" for s, p in res.sequences)
        return f"{kind} {i} {res.overflow_branches} {body}"

    def check(res):
        if expect is not None and len(res) != expect:
            return f"found {len(res)} sequences, expected {expect}"
        if flags.get("first_only") and len(res) > 1:
            return "first_only returned more than one sequence"
        for s, p in res.sequences:
            if len(s) > max_len or (flags.get("reduced_only") and not rc.is_reduced(s)):
                return f"sequence {s} breaks the search bounds"
            if verify(q, s) != p:
                return f"sequence {s} does not re-verify with {_perm(p)}"
        return None

    return Job(
        kind, i,
        run=lambda: rc.search_reddening(q, max_len, **flags),
        render=render, check=check, items=len,
    )


def _fixed_search_job(kind: str, i: int) -> Job:
    """A catalog search with its bound, flags and known number of sequences."""
    cat = _mod("catalog")
    q, max_len, flags, expect = {
        "grid22": (cat.grid_quiver(2, 2), 8, dict(reduced_only=True), 288),
        "torus_mgs": (cat.dreaded_torus(1), 9, dict(green_only=True), 21),
        "box": (cat.box_quiver(2, 2), 10, dict(reduced_only=True), 0),
    }[kind]
    return _search_job(kind, i, q, max_len, flags, expect)


_SEARCH_MODES = (
    dict(reduced_only=True),
    dict(reduced_only=True, green_only=True),
    dict(reduced_only=True, first_only=True),
)


def _seeded_search_job(ctx, i: int) -> Job:
    rng = random.Random(f"seeded_search:{i}")
    rank = rng.randint(3, 4)
    q = _random_quiver(rng, rank, 2)
    max_len = rng.randint(5, 8 if rank == 3 else 7)
    return _search_job("seeded_search", i, q, max_len, _SEARCH_MODES[i % 3], None)


# -- explore: class exploration ------------------------------------------------

def _check_explored(q, forms: dict, budget: int, exhausted: bool) -> str | None:
    if len(forms) > budget:
        return f"{len(forms)} forms exceed the budget {budget}"
    if exhausted != (len(forms) < budget):
        return "exhausted flag disagrees with the form count"
    if rc.canonical_form(q) not in forms:
        return "start form missing"
    return None


def _forms_text(forms: dict) -> str:
    return "\n".join(f"{form.decode()} {rep.encode().decode()}" for form, rep in forms.items())


def _finite_class_job(ctx, i: int) -> Job:
    rng = random.Random(f"finite_class:{i}")
    kind = sorted(CLASS_SIZES)[i % len(CLASS_SIZES)]
    edges = _DYNKIN_EDGES[kind]
    arrows = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]
    q = rc.Quiver.from_arrows(range(1, len(edges) + 2), arrows)

    budget = 10**6

    def check(res):
        if len(res.forms) != CLASS_SIZES[kind]:
            return f"{kind} class has {len(res.forms)} forms, published {CLASS_SIZES[kind]}"
        return _check_explored(q, res.forms, budget, res.exhausted)

    return Job(
        "finite_class", i,
        run=lambda: rc.enumerate_class(q, budget),
        render=lambda res: f"{kind} {res.exhausted}\n{_forms_text(res.forms)}",
        check=check, items=len,
    )


_BUDGETS = (100, 250, 500, 1000)


def _budgeted_class_job(ctx, i: int) -> Job:
    rng = random.Random(f"budgeted_class:{i}")
    q = _random_quiver(rng, rng.randint(3, 4), 3)
    budget = _BUDGETS[i % len(_BUDGETS)]
    return Job(
        "budgeted_class", i,
        run=lambda: rc.enumerate_class(q, budget),
        render=lambda res: f"{budget} {res.exhausted}\n{_forms_text(res.forms)}",
        check=lambda res: _check_explored(q, res.forms, budget, res.exhausted),
        items=len,
    )


def _forkless_job(ctx, i: int) -> Job:
    rng = random.Random(f"forkless:{i}")
    rank = rng.randint(3, 4)
    # Forks are abundant and not acyclic: abundant acyclic quivers and
    # quivers with a pair joined by at most one arrow are never forks.
    if i % 4 < 2:
        q = _acyclic_quiver(rng, list(range(1, rank + 1)), 2, 3)
    else:
        q = _random_quiver(rng, rank, 3, weak_pair=True)
    budget = _BUDGETS[rng.randrange(len(_BUDGETS))]
    discard = i % 2 == 1

    def render(res):
        keys = ",".join(k.decode() for k in res.key_forms)
        return f"{budget} {discard} {res.exhausted} {keys}\n{_forms_text(res.forms)}"

    def check(res):
        if not set(res.key_forms) <= set(res.forms):
            return "key forms outside the explored forms"
        return _check_explored(q, res.forms, budget, res.exhausted)

    return Job(
        "forkless", i,
        run=lambda: rc.forkless_explore(q, budget, discard_preforks=discard),
        render=render, check=check, items=lambda res: len(res.forms),
    )


# -- workload table ------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """A job kind: its maker, its pool size and how many jobs each round runs.

    Pool index ``i`` lies in stratum ``i % strata`` (a base quiver, a Dynkin
    type, a search mode, ...), and every round takes the same number of jobs
    from each stratum, so rounds differ in their instances, not their mix.
    """

    make: Callable[[object, int], Job]
    pool: int
    per_round: int
    strata: int = 1


def _fixed(kind: str) -> Kind:
    return Kind(lambda ctx, i: _fixed_search_job(kind, i), 1, 1)


def _no_context() -> None:
    return None


#: Per workload: the factory of the data its jobs share, and its job kinds.
#: A 30-second run deals the verify and search pools out several times over
#: and the explore pools a little over once, so runs with different seeds
#: measure nearly the same mix; with one pass over larger verify and search
#: pools, their median job time moved with the seed.  The fixed jobs are
#: about a tenth of the search and explore jobs, so their 90th percentile
#: falls on one fixed job (the torus search, the A6 class) and not into a
#: gap between two seeded ones.
WORKLOADS: dict[str, tuple[Callable[[], object], dict[str, Kind]]] = {
    "verify": (VerifyContext, {
        "catalog": Kind(_catalog_job, 16, 16, strata=16),
        "conjugate": Kind(_conjugate_job, 100, 25, strata=len(_REDDENING_BASES)),
        "random_seq": Kind(_random_seq_job, 100, 25, strata=len(_REDDENING_BASES)),
        "cycle": Kind(_cycle_job, 48, 12, strata=3),
        "acyclic_build": Kind(_acyclic_build_job, 48, 12),
    }),
    "search": (_no_context, {
        "grid22": _fixed("grid22"),
        "torus_mgs": _fixed("torus_mgs"),
        "box": _fixed("box"),
        "seeded_search": Kind(_seeded_search_job, 96, 24, strata=len(_SEARCH_MODES)),
    }),
    "explore": (_no_context, {
        "finite_class": Kind(_finite_class_job, 56, 7, strata=len(CLASS_SIZES)),
        "budgeted_class": Kind(_budgeted_class_job, 64, 8, strata=len(_BUDGETS)),
        "forkless": Kind(_forkless_job, 96, 12, strata=4),
    }),
}


class Workload:
    """The seeded stream of rounds of one workload.

    Each stratum's pool is dealt out in a seeded order, without replacement
    until it runs out, then shuffled and dealt again.  The seed decides the
    order and which instances the last, partial deal of a run includes.
    """

    def __init__(self, name: str, seed: int):
        make_context, self.kinds = WORKLOADS[name]
        self.ctx = make_context()
        self.rng = random.Random(f"{name}:{seed}")
        self._decks: dict[tuple[str, int], list[int]] = {}

    def _deal(self, kind: str, stratum: int) -> int:
        deck = self._decks.get((kind, stratum))
        if not deck:
            spec = self.kinds[kind]
            deck = list(range(stratum, spec.pool, spec.strata))
            self.rng.shuffle(deck)
            self._decks[(kind, stratum)] = deck
        return deck.pop()

    def next_round(self) -> list[Job]:
        picks = [
            (kind, self._deal(kind, j % spec.strata))
            for kind, spec in self.kinds.items()
            for j in range(spec.per_round)
        ]
        self.rng.shuffle(picks)
        return [self.kinds[kind].make(self.ctx, i) for kind, i in picks]

    def all_jobs(self) -> list[Job]:
        """Every pool instance once; used to record digests."""
        return [spec.make(self.ctx, i) for spec in self.kinds.values() for i in range(spec.pool)]
