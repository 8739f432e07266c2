"""Outside-in tracing of compnum's layers, installed only for traced passes.

Every public function of ``graphs``, ``covers``, ``bounds`` and ``realizer``
is replaced by a wrapper that records a span, in its defining module and in
every module that imported it (``realizer.min_cover`` is covers' min_cover as
bound in realizer).  ``Graph.__init__`` and ``Graph.induced_subgraph`` are
wrapped on the class.  A wrapper installed at a call site records the site,
which is how calls made by the realizer are told apart from calls made by the
bounds.  Nothing under ``src/`` is edited; the modules are imported afresh
for every pass, so a traced pass leaves no wrapper behind.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graphs", "covers", "bounds", "realizer")

# Per-layer metrics in the order they are reported, each with the end-to-end
# metric and workload it should move (written down before measuring).
SURVEY_BOUND_WALL = "wall_s on survey-labeled5 and bound-random"
BOUND_WALL_TAIL = "wall_s and graph_tail_ms on bound-random; wall_s on survey-labeled5"
BOUNDS_WALL = "wall_s on bound-random and survey-labeled5; nothing on exact-start0"
EXACT_ALL = "wall_s, graph_tail_ms and exhausted_share on exact-start0; nothing on bound-random"
SURVEY_WALL = "wall_s on survey-labeled5"
METRICS = [
    ("graphs.Graph.init.calls", "count", SURVEY_BOUND_WALL),
    ("graphs.induced_subgraph.calls", "count", SURVEY_BOUND_WALL),
    ("graphs.induced_subgraph.self_s", "s", SURVEY_BOUND_WALL),
    ("graphs.parse_graph6.self_s", "s", SURVEY_BOUND_WALL),
    ("covers.maximal_cliques.calls", "count", BOUND_WALL_TAIL),
    ("covers.maximal_cliques.self_s", "s", BOUND_WALL_TAIL),
    ("covers.min_cover.calls", "count", BOUND_WALL_TAIL),
    ("covers.min_cover.self_s", "s", BOUND_WALL_TAIL),
    ("covers.min_set_cover.calls", "count", BOUND_WALL_TAIL),
    ("covers.min_set_cover.self_s", "s", BOUND_WALL_TAIL),
    ("covers.edge_clique_cover_number.calls", "count", BOUND_WALL_TAIL),
    ("bounds.general_bound.calls", "count", BOUNDS_WALL),
    ("bounds.general_bound.self_s", "s", BOUNDS_WALL),
    ("bounds.subset_terms", "count", BOUNDS_WALL),
    ("bounds.opsut_vertex_bound.total_s", "s", BOUNDS_WALL),
    ("realizer.find_realization.calls", "count", EXACT_ALL),
    ("realizer.find_realization.self_s", "s", EXACT_ALL),
    ("realizer.levels_infeasible", "count", EXACT_ALL),
    ("realizer.residual_min_cover.calls", "count", EXACT_ALL),
    ("realizer.residual_min_cover.found_share", "share", EXACT_ALL),
    ("realizer.prefix_cliques.calls", "count", EXACT_ALL),
    ("realizer.nodes", "count", EXACT_ALL),
    ("realizer.verify_realization.self_s", "s", EXACT_ALL),
    ("realizer.bound_phase_s", "s", EXACT_ALL),
    ("realizer.search_phase_s", "s", EXACT_ALL),
    ("cli.self_s", "s", SURVEY_WALL),
    ("trace.overhead_share", "share", "none: the cost of tracing itself"),
    ("exhausted_share", "share", "graph_tail_ms and wall_s on exact-start0"),
    ("workload.iso_repeat_share", "share", "none: a property of the inputs"),
]


class Tracer:
    """Spans kept in memory: per name the call count, inclusive and self time."""

    def __init__(self):
        self.stack: list[list] = []  # [name, time spent in child spans]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # counts and times keyed by call site

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def wrap(self, fn, name: str, site: str | None = None):
        tracer = self
        site_key = None if site is None else f"{site}->{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            tracer.stack.append(frame)
            start = perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                duration = perf_counter() - start
                tracer.stack.pop()
                tracer.calls[name] += 1
                tracer.total[name] += duration
                tracer.self_time[name] += duration - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                if site_key is not None:
                    tracer._site(site_key, result, error, duration)

        return wrapper

    def _site(self, key: str, result, error, duration: float) -> None:
        self.counts[key] += 1
        if key == "realizer->covers.min_cover" and result is not None:
            self.counts["residual_found"] += 1
        elif key == "realizer->realizer.find_realization" and result is None and error is None:
            self.counts["levels_infeasible"] += 1
        elif key == "realizer->bounds.general_bound":
            self.counts["bound_phase_s"] += duration
        elif key == "bounds->covers.restricted_edge_cover_number" and self.active("bounds.general_bound"):
            self.counts["subset_terms"] += 1

    def metrics(self) -> dict:
        c, s = self.calls, self.self_time
        residual = self.counts["realizer->covers.min_cover"]
        return {
            "graphs.Graph.init.calls": c["graphs.Graph.init"],
            "graphs.induced_subgraph.calls": c["graphs.induced_subgraph"],
            "graphs.induced_subgraph.self_s": s["graphs.induced_subgraph"],
            "graphs.parse_graph6.self_s": s["graphs.parse_graph6"],
            "covers.maximal_cliques.calls": c["covers.maximal_cliques"],
            "covers.maximal_cliques.self_s": s["covers.maximal_cliques"],
            "covers.min_cover.calls": c["covers.min_cover"],
            "covers.min_cover.self_s": s["covers.min_cover"],
            "covers.min_set_cover.calls": c["covers.min_set_cover"],
            "covers.min_set_cover.self_s": s["covers.min_set_cover"],
            "covers.edge_clique_cover_number.calls": c["covers.edge_clique_cover_number"],
            "bounds.general_bound.calls": c["bounds.general_bound"],
            "bounds.general_bound.self_s": s["bounds.general_bound"],
            "bounds.subset_terms": self.counts["subset_terms"],
            "bounds.opsut_vertex_bound.total_s": self.total["bounds.opsut_vertex_bound"],
            "realizer.find_realization.calls": c["realizer.find_realization"],
            "realizer.find_realization.self_s": s["realizer.find_realization"],
            "realizer.levels_infeasible": self.counts["levels_infeasible"],
            "realizer.residual_min_cover.calls": residual,
            "realizer.residual_min_cover.found_share": self.counts["residual_found"] / residual if residual else 0.0,
            # find_realization enumerates the host's cliques once; the rest are prefixes
            "realizer.prefix_cliques.calls": self.counts["realizer->covers.maximal_cliques"] - c["realizer.find_realization"],
            "realizer.verify_realization.self_s": s["realizer.verify_realization"],
            "realizer.bound_phase_s": float(self.counts["bound_phase_s"]),
            "realizer.search_phase_s": self.total["realizer.find_realization"],
            "cli.self_s": s["cli.main"],
        }


def install(tracer: Tracer, compnum) -> None:
    """Wrap every public function of the layers wherever it is bound."""
    modules = {name: getattr(compnum, name) for name in LAYERS + ("cli",)}
    span_names = {}
    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                span_names[obj] = f"{layer}.{attr}"
    for site, mod in list(modules.items()) + [("compnum", compnum)]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in span_names:
                setattr(mod, attr, tracer.wrap(obj, span_names[obj], site))
    graph = compnum.graphs.Graph
    graph.__init__ = tracer.wrap(graph.__init__, "graphs.Graph.init")
    graph.induced_subgraph = tracer.wrap(graph.induced_subgraph, "graphs.induced_subgraph")


def least_budget(find_realization, budget_error, g, k: int, cap: int) -> int | None:
    """Search nodes find_realization spends at level k: the least budget that
    does not raise.  None when even ``cap`` runs out."""

    def fits(b: int) -> bool:
        try:
            find_realization(g, k, budget=b)
        except budget_error:
            return False
        return True

    lo, hi = 0, 1  # a budget of 0 never fits: the root is a node
    while not fits(hi):
        if hi >= cap:
            return None
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi
