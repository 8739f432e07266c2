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
thus serves every subset, and opsut_vertex_bound counts its covers of N(v) on
the graph's own cliques too (covers._Cliques says why that is the same).

The m = 1 term of the general bound equals opsut_vertex_bound, and for
n >= 2 the m = n-1 term equals opsut_edge_bound, so the general bound
dominates both.  The report reads both off its terms.  The m = 1 scan runs
first, so it is never truncated, and the cliques through v covering the edges
at v are, less v, a clique cover of N(v), and conversely (0 for isolated v).
The only n-subset is V, scanned in full even when pruned, so the m = n term
is theta_e - n + 1.  The tests check both identities and both read-offs
against opsut_edge_bound and opsut_vertex_bound, which count their own covers.

Every cover question goes to the graph's cover oracle, covers._Cliques,
looked up from the graph, so the scans at every m share its table of proven
cover bounds with each other and with the realizer's levels.  The m-subsets
are walked depth first in lexicographic order, each prefix's incident-edge
mask one OR onto its parent's.  incident(U) contains the mask of every prefix
of U, and the cover number only grows with the mask, so a prefix the table
bounds above the cap rules out every subset through it.

Bounds are reported unclamped and can be negative (for complete graphs the
m-th term is 2 - m).  Callers compare against competition numbers with
max(0, bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

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
    """Neighborhood-cover lower bound, 0 as soon as some vertex is isolated."""
    _require_vertices(g)
    return min(map(_oracle(g).vertex_cover_number, g.rows))


def _scan(g: Graph, m: int, floor: int | None = None) -> tuple[BoundTerm, bool]:
    """The m-th term with its lexicographically first minimizing subset.

    A subset only matters if it beats the running minimum ``best``, that is
    if cover(U) - m + 1 < best, so once there is a minimum each cover is
    capped at best + m - 2, one below the fewest cliques found so far, and a
    subset whose cover provably exceeds the cap is skipped.  Before that the
    cap starts at the edge count: no mask needs more cliques than it has
    edges, so that cap refutes nothing and its capped cover is the uncapped
    one.  Only strictly smaller values replace the minimum, so the value and
    the subset are those of the literal scan.

    Each incident-edge mask is entered in the oracle's table at its packing
    bound on its first visit, and a subset whose mask the table bounds above
    the cap needs no search; one whose cover number the table holds needs
    none either.  The others ask the oracle's ``least``, which returns only
    the capped cover number and stops at the table's lower bound: the term,
    its subset and the truncation depend on sizes alone, never on a cover.

    The subsets are walked depth first in lexicographic order by one loop:
    ``head`` is the prefix being extended and ``masks[d]`` the incident
    edges of its first d vertices, each one OR onto the one before.
    Position d takes vertices up to n - m + d, so every prefix entered has
    an extension.  incident(U) contains the mask of each prefix of U and the
    cover number only grows with the mask, while the cap only falls, so a
    prefix whose mask the table bounds above the cap is not entered: every
    subset through it is skipped unsearched.  A d-vertex prefix's mask was
    a subset's mask at m = d, so the scans of smaller m have entered many of
    them in the table.

    With ``floor`` set, the scan stops as soon as the running minimum drops to
    it; the second value says whether it stopped early.
    """
    best = argmin = None
    cap = g.edge_count
    t = _oracle(g)
    incident, known = t.incident, t.known
    n, last = g.n, m - 1
    head: list[int] = []
    masks = [0]
    v = 0  # the next vertex to try at position len(head)
    while True:
        if len(head) == last:
            edges = masks[-1]
            for v in range(v, n):
                mask = edges | incident[v]
                entry = known.get(mask)
                if entry is None:
                    entry = known[mask] = (t.packing_bound(mask), inf)
                cover, upper = entry
                if cover > cap:
                    continue
                if cover != upper:
                    cover = t.least(mask, cap)
                    if cover is None:
                        continue
                best, argmin, cap = cover - m + 1, (*head, v), cover - 1
                if floor is not None and best <= floor:
                    return BoundTerm(m, best, argmin), True
            v = n  # every subset through this prefix is done
        if v > n - m + len(head):
            if not head:
                return BoundTerm(m, best, argmin), False
            v = head.pop() + 1
            masks.pop()
            continue
        mask = masks[-1] | incident[v]
        if known.get(mask, (0,))[0] <= cap:
            head.append(v)
            masks.append(mask)
        v += 1


def general_bound_term(g: Graph, m: int) -> BoundTerm:
    """Exact m-th term with the lexicographically first minimizing subset."""
    _require_vertices(g)
    if not 1 <= m <= g.n:
        raise ValueError(f"m must be in 1..{g.n}, got {m}")
    return _scan(g, m)[0]


def general_bound(g: Graph, prune: bool = False) -> BoundReport:
    """Full report: both classical bounds plus every per-m term.

    With prune=True the scan for a given m stops once its running minimum
    drops to the best maximum seen so far (that m can no longer win); such m
    are listed in truncated_ms.  The reported ``general`` value is exact
    either way, and identical between pruned and unpruned runs.
    """
    _require_vertices(g)
    terms: list[BoundTerm] = []
    truncated: set[int] = set()
    best: int | None = None
    for m in range(1, g.n + 1):
        term, cut = _scan(g, m, best if prune else None)
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
