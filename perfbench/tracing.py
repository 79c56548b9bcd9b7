"""Per-layer tracing of redcycle from outside the library.

``Tracer`` wraps the public functions of each module of ``src/redcycle`` and
times every call into them.  A call's self time is its duration minus the
time spent in the traced calls it made.  Wrapping replaces the function in
every redcycle namespace that holds it (``from .quiver import _mutated_rows``
binds a second name in ``search``), so no call can reach an unwrapped copy.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

#: (layer, module, attribute) of every traced function.  Several functions
#: may share one layer name; ``Quiver.mutate`` is a method.
TARGETS = (
    ("quiver.mutate", "quiver", "Quiver.mutate"),
    ("quiver.kernel", "quiver", "_mutated_rows"),
    ("quiver.find_isomorphism", "quiver", "find_isomorphism"),
    ("framing.c_matrix", "framing", "c_matrix"),
    ("framing.framed", "framing", "framed"),
    ("reddening.is_reddening", "reddening", "is_reddening"),
    ("reddening.is_maximal_green", "reddening", "is_maximal_green"),
    ("extcycles.verify_cycle", "extcycles", "verify_cycle"),
    ("extcycles.build", "extcycles", "build_cycle_equal"),
    ("extcycles.build", "extcycles", "build_cycle_general"),
    ("extcycles.build", "extcycles", "build_acyclic_cycle"),
    ("classify.canonical_form", "classify", "canonical_form"),
    ("classify.classify", "classify", "classify"),
    ("classify.forkless_explore", "classify", "forkless_explore"),
    ("search.search_reddening", "search", "search_reddening"),
    ("search.enumerate_class", "search", "enumerate_class"),
    ("catalog.verify_item", "catalog", "verify_item"),
)

#: Layers that report how many of their calls raised.
WITH_ERRORS = {
    "quiver.mutate", "framing.c_matrix", "classify.forkless_explore", "search.enumerate_class",
}

#: Layers each workload must reach; a traced run that records no call to one
#: of them has lost its wiring and fails.
EXPECTED = {
    "verify": (
        "quiver.mutate", "quiver.kernel", "quiver.find_isomorphism", "framing.c_matrix",
        "framing.framed", "reddening.is_reddening", "reddening.is_maximal_green",
        "extcycles.verify_cycle", "extcycles.build", "catalog.verify_item",
    ),
    "search": ("quiver.kernel", "framing.framed", "search.search_reddening"),
    "explore": (
        "quiver.mutate", "quiver.kernel", "classify.canonical_form", "classify.classify",
        "classify.forkless_explore", "search.enumerate_class",
    ),
}


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0


def _max_abs(rows) -> int:
    return max((abs(x) for row in rows for x in row), default=0)


class Tracer:
    """Trace a job with ``with tracer:``; read the totals with :meth:`metrics`.

    Only the calls made inside the ``with`` block are traced, so the output
    checks that run between jobs stay out of the counts.
    """

    def __init__(self):
        self.layers = {name: LayerStats() for name, _, _ in TARGETS}
        self._stack: list[list] = []  # [layer, time in traced callees]
        self._patches: list[tuple[object, str, object, object]] = []
        self.covered_s = 0.0  # time inside outermost traced calls
        self.max_abs_entry = 0
        self.positive = 0
        self.steps = 0
        self.new_forms = 0
        self._job_forms: set[bytes] = set()
        self.nodes = 0
        self.distinct_states = 0
        self.overflow_branches = 0
        self._search_rank = 0
        self._search_states: set[int] = set()

    # -- installation --------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(namespace, name, original, wrapper) for every binding to replace."""
        if self._patches:
            return self._patches
        namespaces = [m for n, m in sys.modules.items() if n == "redcycle" or n.startswith("redcycle.")]
        for layer, module, attr in TARGETS:
            owner = sys.modules[f"redcycle.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = namespaces
            original = getattr(owner, attr)
            wrapper = self._wrap(
                layer, original,
                getattr(self, f"_before_{attr}", None), getattr(self, f"_after_{attr}", None),
            )
            bound = [(ns, name) for ns in holders for name, value in vars(ns).items() if value is original]
            if not bound:
                raise RuntimeError(f"traced function {module}.{attr} is bound nowhere")
            self._patches += [(ns, name, original, wrapper) for ns, name in bound]
        return self._patches

    def __enter__(self):
        """Trace one job: wrap every target and start a new job."""
        self._job_forms = set()
        for ns, name, _, wrapper in self._plan():
            setattr(ns, name, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, name, original, _ in reversed(self._patches):
            setattr(ns, name, original)
        return False

    def _wrap(self, layer, fn, before, after):
        stats = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.covered_s += elapsed
            if after is not None:
                # Charge the bookkeeping to no layer.
                mark = clock()
                after(args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - mark
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    # -- per-layer observations ----------------------------------------------

    def _after_mutate(self, args, kwargs, q):
        self.max_abs_entry = max(self.max_abs_entry, _max_abs(q.rows()))

    def _after__mutated_rows(self, args, kwargs, rows):
        self.max_abs_entry = max(self.max_abs_entry, _max_abs(rows))
        if self._stack and self._stack[-1][0] == "search.search_reddening":
            self.nodes += 1
            # The mutable rows determine the framed state: the frozen rows
            # follow by skew-symmetry, frozen-frozen entries are dropped.
            self._search_states.add(hash(tuple(map(tuple, rows[: self._search_rank]))))

    def _after_is_reddening(self, args, kwargs, sigma):
        self.positive += sigma is not None

    _after_is_maximal_green = _after_is_reddening

    def _after_verify_cycle(self, args, kwargs, report):
        self.steps += report.length

    def _after_canonical_form(self, args, kwargs, form):
        if form not in self._job_forms:
            self._job_forms.add(form)
            self.new_forms += 1

    def _before_search_reddening(self, args, kwargs):
        q = args[0] if args else kwargs["q"]
        self._search_rank = q.rank
        self._search_states = set()

    def _after_search_reddening(self, args, kwargs, result):
        self.overflow_branches += result.overflow_branches
        self.distinct_states += len(self._search_states)

    # -- report ----------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for layer, st in self.layers.items():
            out[f"{layer}.calls"] = (st.calls, "count")
            out[f"{layer}.self_ms"] = (st.self_s * 1000, "ms")
            if layer in WITH_ERRORS:
                out[f"{layer}.errors"] = (st.errors, "count")
        layers = self.layers
        verdicts = layers["reddening.is_reddening"].calls + layers["reddening.is_maximal_green"].calls
        out["quiver.max_abs_entry"] = (float(self.max_abs_entry), "count")
        out["reddening.positive_ratio"] = (_ratio(self.positive, verdicts), "ratio")
        out["extcycles.verify_cycle.steps"] = (self.steps, "count")
        out["classify.dedup_ratio"] = (_ratio(self.new_forms, layers["classify.canonical_form"].calls), "ratio")
        out["search.nodes"] = (self.nodes, "count")
        out["search.distinct_states"] = (self.distinct_states, "count")
        out["search.distinct_ratio"] = (_ratio(self.distinct_states, self.nodes), "ratio")
        out["search.overflow_branches"] = (self.overflow_branches, "count")
        return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
