"""Maximal clique enumeration and exact minimum set cover.

These two primitives carry all the clique cover numbers: restricting cover
candidates to inclusion-maximal cliques is harmless because any clique in an
optimal cover can be enlarged to a maximal one without uncovering anything,
and that holds for edge covers, vertex covers, and covers of an edge subset
alike.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable, Iterator, Sequence

from .graphs import Graph


class InfeasibleCoverError(ValueError):
    """Some universe element is not contained in any candidate set."""

    def __init__(self, element: Hashable):
        self.element = element
        super().__init__(f"element {element!r} is not covered by any candidate")


# -- maximal cliques ---------------------------------------------------------


def maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """All inclusion-maximal cliques, each exactly once.

    Pivoting branch enumeration.  The result is sorted by member lists, so
    the order is deterministic and isolated vertices show up as singletons.
    """
    found: list[frozenset[int]] = []

    def expand(clique: frozenset[int], cand: set[int], excl: set[int]) -> None:
        if not cand and not excl:
            found.append(clique)
            return
        pivot = max(cand | excl, key=lambda u: (len(g.adj[u] & cand), -u))
        for v in sorted(cand - g.adj[pivot]):
            expand(clique | {v}, cand & g.adj[v], excl & g.adj[v])
            cand.discard(v)
            excl.add(v)

    if g.n:
        expand(frozenset(), set(range(g.n)), set())
    return sorted(found, key=sorted)


# -- exact set cover ---------------------------------------------------------
#
# One bitmask kernel carries every cover search in the package.  Element i of
# the sorted universe is bit i (for a graph's cliques, see ``_Cliques``), a
# candidate is the mask of its elements, and ``holders[b]`` is the mask of the
# candidates holding bit b.  Every query is one branch and bound, ``_search``,
# in a fixed order: it branches on the lowest uncovered bit among those with
# the fewest holders, trying its holders in ascending order.  A cover is
# recorded as soon as the residual is empty, before any barrier check, so an
# equal-size later sibling replaces the recorded cover.  Witness bytes depend
# on that rule, and on a minimum query never stopping early, not even at the
# packing bound.  Its greedy start breaks ties on the lowest index.


class CoverInstance:
    """Finite universe plus candidate subsets; extras outside the universe are
    dropped from the candidates on construction."""

    def __init__(self, universe: Iterable[Hashable], candidates: Iterable[Iterable[Hashable]]):
        self.universe = frozenset(universe)
        self.candidates = tuple(frozenset(c) & self.universe for c in candidates)

    def __repr__(self) -> str:
        return f"CoverInstance(|universe|={len(self.universe)}, candidates={len(self.candidates)})"


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _holders(cands: Sequence[int], width: int) -> list[int]:
    holders = [0] * width
    for i, c in enumerate(cands):
        for b in _bits(c):
            holders[b] |= 1 << i
    return holders


def _packing_bound(uncovered: int, holders: Sequence[int]) -> int:
    # Count elements no single candidate can pair up: a lower bound on the
    # number of sets any cover must use.  The bits are walked inline, not
    # through _bits, because this is the kernel's innermost loop.
    used = count = 0
    while uncovered:
        low = uncovered & -uncovered
        h = holders[low.bit_length() - 1]
        if not h & used:
            count += 1
            used |= h
        uncovered ^= low
    return count


def _search(
    universe: int, cands: Sequence[int], holders: Sequence[int], barrier: int, goal: int
) -> tuple[int, ...] | None:
    """Search the covers of ``universe`` with fewer than ``barrier`` sets, each
    one met becoming the barrier, until one has at most ``goal`` sets.  The
    last cover met, as sorted candidate indices, or None."""
    found = None

    def search(uncovered: int, chosen: tuple[int, ...]) -> bool:
        nonlocal found, barrier
        if not uncovered:
            found, barrier = tuple(sorted(chosen)), len(chosen)
            return barrier <= goal
        if len(chosen) + _packing_bound(uncovered, holders) >= barrier:
            return False
        branch = min(_bits(uncovered), key=lambda b: holders[b].bit_count())
        for i in _bits(holders[branch]):
            if search(uncovered & ~cands[i], chosen + (i,)):
                return True
        return False

    search(universe, ())
    return found


def _min_cover(
    universe: int, cands: Sequence[int], holders: Sequence[int], cap: int | None = None
) -> tuple[int, tuple[int, ...]] | None:
    """Minimum cover of the bits of ``universe``: (size, sorted candidate
    indices), or None once every cover provably needs more than ``cap`` sets.
    Every bit of ``universe`` must have a holder."""
    if cap is not None and _packing_bound(universe, holders) > cap:
        return None
    # greedy never picks a candidate twice, so uncapped it stays below this
    barrier = len(cands) + 1 if cap is None else cap + 1
    uncovered, greedy, found = universe, [], None
    while uncovered and len(greedy) < barrier:
        best = max(range(len(cands)), key=lambda i: (cands[i] & uncovered).bit_count())
        greedy.append(best)
        uncovered &= ~cands[best]
    if not uncovered and len(greedy) < barrier:
        found, barrier = tuple(sorted(greedy)), len(greedy)
    better = _search(universe, cands, holders, barrier, -1)
    found = found if better is None else better
    return None if found is None else (len(found), found)


def _certified_cover(
    universe: int, cands: Sequence[int], holders: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """Minimum cover size with the lexicographically smallest optimal index
    set: each candidate in turn joins when the ones after it can finish a
    minimum cover."""
    size, _ = _min_cover(universe, cands, holders)
    uncovered, chosen = universe, []
    for i, c in enumerate(cands):
        # a set adding nothing new is never part of a minimum cover
        if not c & uncovered:
            continue
        rest, left, later = uncovered & ~c, size - len(chosen) - 1, -2 << i
        if _search(rest, cands, [h & later for h in holders], left + 1, left) is not None:
            uncovered = rest
            chosen.append(i)
    return size, tuple(chosen)


def _index(
    universe: Iterable[Hashable], candidates: Iterable[Iterable[Hashable]]
) -> tuple[int, list[int], list[int]]:
    """Translate a cover instance onto the kernel: (universe mask, candidate
    masks, holders), raising InfeasibleCoverError for an element no candidate
    holds."""
    elements = sorted(frozenset(universe))
    bit = {e: 1 << i for i, e in enumerate(elements)}
    cands = [sum(bit.get(e, 0) for e in frozenset(c)) for c in candidates]
    holders = _holders(cands, len(elements))
    for b, h in enumerate(holders):
        if not h:
            raise InfeasibleCoverError(elements[b])
    return (1 << len(elements)) - 1, cands, holders


def min_cover(
    universe: Iterable[Hashable],
    candidates: Sequence[frozenset],
    cap: int | None = None,
) -> tuple[int, tuple[int, ...]] | None:
    """Minimum-cardinality cover by branch and bound.

    Returns (size, chosen candidate indices); the choice is deterministic but
    not necessarily the lexicographically smallest optimum (min_set_cover
    provides that).  With ``cap`` set, returns None as soon as every cover
    provably needs more than ``cap`` sets.  Raises InfeasibleCoverError if
    some element is uncoverable.
    """
    return _min_cover(*_index(universe, candidates), cap)


def min_set_cover(inst: CoverInstance) -> tuple[int, tuple[int, ...]]:
    """Exact minimum set cover with a deterministic certificate.

    The returned index set is the lexicographically smallest among all
    optimal subfamilies.
    """
    return _certified_cover(*_index(inst.universe, inst.candidates))


# -- clique cover numbers ------------------------------------------------------


class _Cliques:
    """The maximal cliques of one graph, laid out for the kernel.

    Vertex v is bit v and edge i of ``g.edges()`` is bit i; no other code
    knows this.  ``cliques[j]`` has the masks ``vertex_masks[j]`` and
    ``edge_masks[j]``, ``bit`` maps an edge to its bit, and ``incident[v]``
    masks the edges at v.

    Induced subgraphs G[S] need no second enumeration.  Every trace C & S is
    a clique of G[S], and every clique of G[S] lies in some maximal C, hence
    in C & S.  So the maximal cliques of G[S] are the maximal nonempty
    traces, and S needs as many traces as cliques of G[S] to cover it.
    """

    def __init__(self, g: Graph):
        edges = g.edges()
        self.cliques = maximal_cliques(g)
        self.bit = {e: 1 << i for i, e in enumerate(edges)}
        self.vertex_masks = [sum(1 << v for v in c) for c in self.cliques]
        self.edge_masks = [sum(self.bit[e] for e in combinations(sorted(c), 2)) for c in self.cliques]
        self.vertex_holders = _holders(self.vertex_masks, g.n)
        self.edge_holders = _holders(self.edge_masks, len(edges))
        self.incident = [0] * g.n
        for i, (u, v) in enumerate(edges):
            self.incident[u] |= 1 << i
            self.incident[v] |= 1 << i

    def cover(self, edges: int, cap: int | None = None) -> tuple[int, tuple[int, ...]] | None:
        """Fewest cliques covering the edge mask, as _min_cover reports it."""
        return _min_cover(edges, self.edge_masks, self.edge_holders, cap)

    def fits(self, edges: int, cap: int) -> bool:
        """Whether at most ``cap`` cliques cover the edge mask, as ``cover(edges,
        cap) is not None`` answers, but with no greedy start and stopping at the
        first cover within the cap."""
        touching = 0
        for b in _bits(edges):
            touching |= self.edge_holders[b]
        # all the cliques touching the edges together cover them
        if touching.bit_count() <= cap:
            return True
        found = _search(edges, self.edge_masks, self.edge_holders, cap + 1, cap)
        return found is not None and len(found) <= cap

    def packing_bound(self, edges: int) -> int:
        return _packing_bound(edges, self.edge_holders)

    def vertex_cover_number(self, vertices: int) -> int:
        """Fewest cliques of G[S] covering S, for the vertex mask of S."""
        return _min_cover(vertices, self.vertex_masks, self.vertex_holders)[0]

    def within(self, vertices: int) -> list[tuple[tuple[int, ...], int]]:
        """The maximal cliques of G[S] for the vertex mask of S, as (members,
        edge mask), sorted by members as maximal_cliques(G[S]) sorts them."""
        leaving = 0
        for v, edges in enumerate(self.incident):
            if not vertices >> v & 1:
                leaving |= edges
        pairs = zip(self.vertex_masks, self.edge_masks)
        traces = {c & vertices: e & ~leaving for c, e in pairs if c & vertices}
        maximal = [t for t in traces if not any(t != s and t & s == t for s in traces)]
        return sorted((tuple(_bits(t)), traces[t]) for t in maximal)


def edge_clique_cover_number(g: Graph) -> int:
    """Minimum number of cliques covering every edge; 0 if there are none."""
    return _Cliques(g).cover((1 << g.edge_count) - 1)[0]


def edge_clique_cover(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Minimum edge clique cover, reported as (size, indices into
    maximal_cliques(g))."""
    t = _Cliques(g)
    return _certified_cover((1 << g.edge_count) - 1, t.edge_masks, t.edge_holders)


def vertex_clique_cover_number(g: Graph) -> int:
    """Minimum number of cliques containing every vertex; 0 for n = 0."""
    return _Cliques(g).vertex_cover_number((1 << g.n) - 1)


def restricted_edge_cover_number(g: Graph, edge_subset: Iterable[tuple[int, int]]) -> int:
    """Minimum number of cliques of g covering every edge in the subset.

    Cliques may cover edges outside the subset; only the subset must be hit.
    """
    edges = frozenset(tuple(sorted(e)) for e in edge_subset)
    t = _Cliques(g)
    stray = edges - t.bit.keys()
    if stray:
        raise ValueError(f"{min(stray)} is not an edge of the host graph")
    return t.cover(sum(t.bit[e] for e in edges))[0]
