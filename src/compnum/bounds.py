"""Lower bounds for the competition number of a graph.

Three bounds are computed, all exact integer quantities:

* opsut_edge_bound:    (edge clique cover number) - n + 2
* opsut_vertex_bound:  min over vertices v of the vertex clique cover number
                       of the subgraph induced on the neighborhood of v
* general_bound:       max over m = 1..n of the m-th term, where the m-th
                       term is the minimum over all m-subsets U of

                           cover(U) - m + 1,

                       cover(U) being the minimum number of cliques of the
                       closed-neighborhood subgraph of U needed to cover all
                       edges incident to U.

cover(U) is computed as the fewest maximal cliques of the whole graph that
cover the edges incident to U, which is the same number: a clique covering an
edge at u in U lies inside N[u], hence inside N[U], so it is a clique of that
subgraph, and every clique of the subgraph is one of the graph (enlarging
cliques to maximal ones uncovers nothing).  One clique enumeration per graph
thus serves every subset.

The m = 1 term of the general bound is opsut_vertex_bound, and for n >= 2
the m = n-1 term equals opsut_edge_bound, so the general bound dominates
both.  The report reads both off its terms: the m = 1 scan runs first, so it
is never truncated, and the only n-subset is V, scanned in full even when
pruned, so the m = n term is theta_e - n + 1.  The tests check the m = 1 term
against vertex covers of every N(v), and the m = n-1 term against
opsut_edge_bound, which counts its own edge cover.

Every cover question goes to the graph's cover oracle, covers._Cliques,
looked up from the graph.  Its ``scan`` walks the m-subsets, so the scans at
every m share its table of proven cover bounds with each other and with the
realizer's levels; this module keeps only the arithmetic that turns a fewest
cover into a term.

Bounds are reported unclamped and can be negative (for complete graphs the
m-th term is 2 - m).  Callers compare against competition numbers with
max(0, bound).
"""

from __future__ import annotations

from dataclasses import dataclass

from .covers import _oracle, edge_clique_cover_number
from .graphs import Graph


@dataclass(frozen=True)
class BoundTerm:
    """One per-m term: its value and a subset that attains it."""

    m: int
    value: int
    subset: tuple[int, ...]


@dataclass(frozen=True)
class BoundReport:
    """Everything the general bound computes for one graph.

    ``terms[m-1]`` holds the m-th term.  For m in ``truncated_ms`` the subset
    scan was cut short once it provably could not raise the maximum; the
    recorded value is then only an upper bound on that term, but ``general``
    is still the exact maximum over all m.
    """

    n: int
    opsut_edge: int
    opsut_vertex: int
    terms: tuple[BoundTerm, ...]
    general: int
    truncated_ms: frozenset[int]

    def term(self, m: int) -> BoundTerm:
        if not 1 <= m <= self.n:
            raise ValueError(f"m must be in 1..{self.n}, got {m}")
        return self.terms[m - 1]


def _require_vertices(g: Graph) -> None:
    if g.n == 0:
        raise ValueError("bound is undefined for the empty graph")


def opsut_edge_bound(g: Graph) -> int:
    """Edge-cover lower bound: edge clique cover number - n + 2, unclamped."""
    _require_vertices(g)
    return edge_clique_cover_number(g) - g.n + 2


def opsut_vertex_bound(g: Graph) -> int:
    """Neighborhood-cover lower bound, 0 as soon as some vertex is isolated:
    the m = 1 term.  The cliques through v covering the edges at v are, less
    v, a clique cover of N(v), and a clique cover of N(v), each clique joined
    by v, covers the edges at v."""
    _require_vertices(g)
    return _oracle(g).scan(1)[0]


def general_bound_term(g: Graph, m: int) -> BoundTerm:
    """Exact m-th term with the lexicographically first minimizing subset."""
    _require_vertices(g)
    if not 1 <= m <= g.n:
        raise ValueError(f"m must be in 1..{g.n}, got {m}")
    cover, subset, _ = _oracle(g).scan(m)
    return BoundTerm(m, cover - m + 1, subset)


def general_bound(g: Graph, prune: bool = False) -> BoundReport:
    """Full report: both classical bounds plus every per-m term.

    With prune=True the scan for a given m stops once its running minimum
    drops to the best maximum seen so far (that m can no longer win); such m
    are listed in truncated_ms.  The reported ``general`` value is exact
    either way, and identical between pruned and unpruned runs.
    """
    _require_vertices(g)
    t = _oracle(g)
    terms: list[BoundTerm] = []
    truncated: set[int] = set()
    best: int | None = None
    for m in range(1, g.n + 1):
        # a cover of best + m - 1 cliques brings the m-th term down to best
        cover, subset, cut = t.scan(m, best + m - 1 if prune and best is not None else None)
        term = BoundTerm(m, cover - m + 1, subset)
        terms.append(term)
        if cut:
            truncated.add(m)
        else:
            best = term.value if best is None else max(best, term.value)
    return BoundReport(
        n=g.n,
        opsut_edge=terms[-1].value + 1,
        opsut_vertex=terms[0].value,
        terms=tuple(terms),
        general=best,
        truncated_ms=frozenset(truncated),
    )
