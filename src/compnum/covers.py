"""Maximal clique enumeration and exact minimum set cover.

These two primitives carry all the clique cover numbers: restricting cover
candidates to inclusion-maximal cliques is harmless because any clique in an
optimal cover can be enlarged to a maximal one without uncovering anything,
and that holds for edge covers, vertex covers, and covers of an edge subset
alike.
"""

from __future__ import annotations

import functools
from itertools import combinations
from math import inf
from typing import Hashable, Iterable, NamedTuple, Sequence

from .graphs import Graph, _bits


class InfeasibleCoverError(ValueError):
    """Some universe element is not contained in any candidate set."""

    def __init__(self, element: Hashable):
        self.element = element
        super().__init__(f"element {element!r} is not covered by any candidate")


# -- maximal cliques ---------------------------------------------------------


def maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """All inclusion-maximal cliques, each exactly once.

    Pivoting branch enumeration on the adjacency masks, walked by one loop
    over a stack of (clique, candidates, excluded) frames, each a mask.  The
    pivot is the candidate or excluded vertex with the most candidate
    neighbours, the lowest label on ties.  The result is sorted by member
    lists, so the walk's order changes nothing, and isolated vertices show
    up as singletons.
    """
    rows = g.rows
    found: list[int] = []
    stack = [(0, (1 << g.n) - 1, 0)] if g.n else []
    while stack:
        clique, cand, excl = stack.pop()
        if not cand and not excl:
            found.append(clique)
            continue
        pivot = max(_bits(cand | excl), key=lambda u: ((rows[u] & cand).bit_count(), -u))
        for v in _bits(cand & ~rows[pivot]):
            stack.append((clique | 1 << v, cand & rows[v], excl & rows[v]))
            cand ^= 1 << v
            excl |= 1 << v
    return [frozenset(c) for c in sorted(map(tuple, map(_bits, found)))]


# -- exact set cover ---------------------------------------------------------
#
# One bitmask kernel carries every cover search in the package.  Element i of
# the sorted universe is bit i (for a graph's cliques, see ``_Cliques``), a
# candidate is the mask of its elements, and a ``_Family`` holds, per bit b,
# the mask ``holders[b]`` of the candidates holding b and the mask
# ``shadows[b]`` of b and every element sharing a candidate with b.  Every
# query is one branch and bound, ``_search``, in a fixed order: it branches on
# the lowest uncovered bit among those with the fewest holders, trying its
# holders in ascending order.  Its barrier, one more than the sets a cover may
# use, is the only cap any query sets: with a barrier of 0 or less the search
# meets no cover at all.  Below the root, a cover is recorded as soon as the
# residual is empty, before any barrier check, so an equal-size later sibling
# replaces the recorded cover.  Witness bytes depend on that rule, and on a
# minimum query that returns a cover (``_min_cover``) never stopping its
# search early, not even at the packing bound; its greedy start breaks ties on
# the lowest index.  A query that returns only a number (``_Cliques.fits``
# and the subset walk, ``_Cliques.scan``) has no greedy start and stops at the
# first cover as small as its goal: which cover it ends on changes no answer.
#
# The search is one loop, not a recursion: the picks on the path to the node
# are a list cut back on each backtrack, and the stack holds one frame per
# branch point that still has holders to try.  A forced pick, the last holder
# of its branch and in particular a bit's only holder, pushes no frame, so a
# search as deep as its cover is long needs no Python stack, whatever the
# recursion limit.  It holds no closure either: nothing it builds refers back
# to itself, so a query leaves no garbage for the cyclic collector.
#
# The packing bound counts elements pairwise without a common candidate, so
# no cover can take two of them with one set.  Walking the elements upwards,
# an element is skipped iff a candidate already used holds it, that is iff it
# lies in the shadow of an element already counted; so clearing each counted
# element's shadow counts exactly the same elements, one step per count.
# Shadows are symmetric, a lying in b's iff b lies in a's, so an element whose
# shadow is itself alone lies in no other's: the walk counts it wherever it
# comes and clears nothing else with it.  The family masks such lonely
# elements once, in ``lonely``, and the bound counts them in one step and
# walks only the rest, for every mask of every family.
#
# A node is cut when its picks plus a lower bound on its residual's cover
# reach the barrier, and any proven lower bound that is at least 1 on a
# nonempty residual records the same covers in the same order.  Say one such
# bound keeps a node that another cuts.  Its subtree holds no cover below the
# barrier, and each node kept in it has picks plus bound below the barrier,
# so a child that is a cover would be one below the barrier: none is, so the
# subtree records nothing and leaves the barrier where it was.  The loop thus
# carries ``credit``, a proven lower bound on the residual's cover.  A node
# that counts its packing bound sets credit to it, and a pick passes
# credit - 1 down, since the child's cover plus the pick covers the parent's
# residual.  A node whose branch element has one holder and whose credit is
# at least 1 tests with the credit and counts nothing.  It was reached by
# picks alone from the last node that counted, with no cover recorded since,
# so the barrier has not moved and that node's test still holds.  A popped
# frame resets credit to 0, as the subtrees before it may have moved the
# barrier.  A run of forced picks so counts once at its top instead of once
# per pick, which made it quadratic in its length.


class CoverInstance:
    """Finite universe plus candidate subsets; extras outside the universe are
    dropped from the candidates on construction."""

    def __init__(self, universe: Iterable[Hashable], candidates: Iterable[Iterable[Hashable]]):
        self.universe = frozenset(universe)
        self.candidates = tuple(frozenset(c) & self.universe for c in candidates)

    def __repr__(self) -> str:
        return f"CoverInstance(|universe|={len(self.universe)}, candidates={len(self.candidates)})"


class _Family(NamedTuple):
    """Candidate masks laid out for the kernel, with ``tiers``, the element
    bits grouped by holder count, fewest holders first, and ``lonely``, the
    bits whose shadow is their own bit alone."""

    cands: Sequence[int]
    holders: Sequence[int]
    shadows: Sequence[int]
    tiers: Sequence[int]
    lonely: int


def _family(cands: Sequence[int], width: int) -> _Family:
    holders = [0] * width
    shadows = [1 << b for b in range(width)]
    for i, c in enumerate(cands):
        for b in _bits(c):
            holders[b] |= 1 << i
            shadows[b] |= c
    tiers: dict[int, int] = {}
    for b, h in enumerate(holders):
        tiers[h.bit_count()] = tiers.get(h.bit_count(), 0) | 1 << b
    lonely = sum(1 << b for b, shadow in enumerate(shadows) if shadow == 1 << b)
    return _Family(cands, holders, shadows, [tiers[count] for count in sorted(tiers)], lonely)


def _packing_bound(uncovered: int, family: _Family) -> int:
    # A lower bound on the number of sets any cover must use (see above).
    shadows, count = family.shadows, 0
    if uncovered & family.lonely:
        uncovered, count = uncovered & ~family.lonely, (uncovered & family.lonely).bit_count()
    while uncovered:
        uncovered &= ~shadows[(uncovered & -uncovered).bit_length() - 1]
        count += 1
    return count


def _search(universe: int, family: _Family, barrier: int, goal: int) -> tuple[int, ...] | None:
    """Search the covers of ``universe`` with fewer than ``barrier`` sets, each
    one met becoming the barrier, until one has at most ``goal`` sets.  The
    last cover met, as sorted candidate indices, or None; the barrier is the
    only cap, so with ``barrier <= 0`` no cover is met, not even the empty one.

    The tree is walked depth first by one loop (see the comment above):
    ``chosen`` holds the picks on the path to the node, ``base`` the mask a
    branch point left uncovered, and each stack frame (base, untried
    holders, depth) a branch point still to go back to.  ``credit`` is a
    proven lower bound on the residual's cover, which a forced pick below a
    node that counted its packing bound tests with instead of counting again;
    no bound at least 1 changes what the search records."""
    if barrier <= 0:
        return None
    cands, holders, _, tiers, _ = family
    found = None
    chosen: list[int] = []
    stack: list[tuple[int, int, int]] = []
    uncovered, credit = universe, 0
    while True:
        options = 0  # the holders to try from this node
        if not uncovered:
            found, barrier = tuple(sorted(chosen)), len(chosen)
            if barrier <= goal:
                return found
        else:
            for tier in tiers:
                if tier & uncovered:
                    break
            tier &= uncovered
            held = holders[(tier & -tier).bit_length() - 1]
            if credit < 1 or held & (held - 1):
                credit = _packing_bound(uncovered, family)
            if len(chosen) + credit < barrier:
                base, options, depth = uncovered, held, len(chosen)
        if not options:  # back to the last branch point with holders left
            if not stack:
                return found
            base, options, depth = stack.pop()
            del chosen[depth:]
            credit = 0
        low = options & -options
        if options != low:
            stack.append((base, options ^ low, depth))
        i = low.bit_length() - 1
        chosen.append(i)
        uncovered = base & ~cands[i]
        credit -= 1


def _min_cover(universe: int, family: _Family, cap: int | None = None) -> tuple[int, tuple[int, ...]] | None:
    """Minimum cover of the bits of ``universe``: (size, sorted candidate
    indices), or None once every cover provably needs more than ``cap`` sets.
    Every bit of ``universe`` must have a holder.  The cap enters only as the
    first barrier, ``cap + 1``: the greedy start stops there, and the search
    meets no cover that needs more.  A greedy cover at the packing bound ends
    the search at its root, which counts that bound and meets no smaller cover."""
    cands = family.cands
    # greedy never picks a candidate twice, so uncapped it stays below this
    barrier = len(cands) + 1 if cap is None else cap + 1
    uncovered, greedy, found = universe, [], None
    while uncovered and len(greedy) < barrier:
        best = gain = 0
        for i, c in enumerate(cands):
            new = (c & uncovered).bit_count()
            if new > gain:
                best, gain = i, new
        greedy.append(best)
        uncovered &= ~cands[best]
    if not uncovered and len(greedy) < barrier:
        found, barrier = tuple(sorted(greedy)), len(greedy)
    better = _search(universe, family, barrier, -1)
    found = found if better is None else better
    return None if found is None else (len(found), found)


def _certified_cover(universe: int, family: _Family) -> tuple[int, tuple[int, ...]]:
    """Minimum cover size with the lexicographically smallest optimal index
    set: each candidate in turn joins when the ones after it can finish a
    minimum cover."""
    size, _ = _min_cover(universe, family)
    uncovered, chosen = universe, []
    for i, c in enumerate(family.cands):
        # a set adding nothing new is never part of a minimum cover
        if not c & uncovered:
            continue
        rest, left, later = uncovered & ~c, size - len(chosen) - 1, -2 << i
        # A set holding an uncovered lonely element holds that element alone,
        # and no earlier set holds it, or that one would have joined: every
        # minimum cover finishing from i on takes a copy of it, so i joins
        # with no search.
        if not c & uncovered & family.lonely:
            # The later candidates keep the whole family's shadows, tiers and
            # lonely bits: a bound over all the candidates bounds any fewer,
            # and the branching order moves the effort, not the answer.  Every
            # element of rest has a later holder, since a minimum cover
            # finishing from i on exists.
            if _search(rest, family._replace(holders=[h & later for h in family.holders]), left + 1, left) is None:
                continue
        uncovered = rest
        chosen.append(i)
    return size, tuple(chosen)


def _index(
    universe: Iterable[Hashable], candidates: Iterable[Iterable[Hashable]]
) -> tuple[int, _Family]:
    """Translate a cover instance onto the kernel: (universe mask, family),
    raising InfeasibleCoverError for an element no candidate holds."""
    elements = sorted(frozenset(universe))
    bit = {e: 1 << i for i, e in enumerate(elements)}
    family = _family([sum(bit.get(e, 0) for e in frozenset(c)) for c in candidates], len(elements))
    for b, h in enumerate(family.holders):
        if not h:
            raise InfeasibleCoverError(elements[b])
    return (1 << len(elements)) - 1, family


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


# the table entry of an edge mask not yet bounded: no bound either way
_UNKNOWN = (0, inf)


class _Cliques:
    """The maximal cliques of one graph, laid out for the kernel: the graph's
    cover oracle, which every entry point looks up with ``_oracle(g)``.

    It keeps three layouts.  Vertex v is bit v, as in ``rows``, the graph's
    adjacency masks.  Edge i of ``g.edges()`` is bit i: ``incident[v]``
    masks the edges at v, so the bit of edge uv is ``incident[u] &
    incident[v]``, and no other code knows the edge bits.  Clique j is the
    j-th of ``maximal_cliques(g)``: ``vertex_masks[j]`` masks its members and
    ``edge_family.cands[j]``, the kernel's candidate j, its edges.  Every
    cover it searches for is a cover of edges.

    Induced subgraphs G[S] need no second enumeration.  Every trace C & S is
    a clique of G[S], and every clique of G[S] lies in some maximal C, hence
    in C & S.  So the maximal cliques of G[S] are the maximal nonempty
    traces.

    An edge in no triangle is a maximal clique of its own and no other
    maximal clique holds it, so its shadow is its own bit alone: the edge
    family's ``lonely`` masks exactly these edges.  A cover of an edge mask
    U spends one clique on each lonely edge of U, a clique that covers no
    other edge, and those cliques plus a cover of the rest cover U: the
    cover number of U is |U & lonely| plus that of U & ~lonely.  The kernel's
    packing bound splits the same way (see the kernel comment).

    ``known`` maps an edge mask with no lonely bit to (lower, upper), proven
    bounds on the fewest cliques covering it; the cover number is exact iff
    lower == upper.  lower is the packing bound, at which ``scan`` enters
    each mask it meets, a refuted cap plus one, or the cover number a scan
    counted; upper is the size of a cover found, ``inf`` until one is.  Its
    users strip the lonely bits off a mask and add their count back, so masks
    that differ only in lonely edges share one entry.  The table serves the
    questions that repeat, and it has two users, the only code that reads or
    writes it: ``fits``, the realizer's tail and leaf tests at every level,
    and ``scan``, the bound report's subsets at every m.  A cover number
    depends on the mask alone, so one table serves them all, across calls:
    each mask is bounded once and searched at most once per cap, and a
    question the bounds already settle costs no search.  A one-shot question,
    theta_e or the cover a leaf turns into a witness, asks the kernel directly.
    The table is the only state that outlives a call, and it decides only
    whether a query searches, never what it answers, so an oracle's history
    changes no output.
    """

    def __init__(self, g: Graph):
        self.rows = g.rows
        self.incident = incident = [0] * g.n
        for i, (u, v) in enumerate(g.edges()):
            incident[u] |= 1 << i
            incident[v] |= 1 << i
        self.vertex_masks = [sum(1 << v for v in c) for c in maximal_cliques(g)]
        self.edge_family = _family(
            [sum(incident[u] & incident[v] for u, v in combinations(_bits(c), 2)) for c in self.vertex_masks], g.edge_count
        )
        self.known: dict[int, tuple[int, float]] = {}

    def fits(self, edges: int, cap: int) -> bool:
        """Whether at most ``cap`` cliques cover the edge mask, as
        ``_min_cover(edges, edge_family, cap) is not None`` answers.  Each
        lonely edge, one of ``edge_family.lonely``, takes a clique of its
        own, so the rest must fit in the cap less their count.  The table
        answers when its bounds settle that; otherwise one search with no
        greedy start, stopping at the first cover within the lowered cap (the
        barrier alone enforces it), answers, and the table keeps its
        outcome."""
        cap -= (edges & self.edge_family.lonely).bit_count()
        edges &= ~self.edge_family.lonely
        lower, upper = self.known.get(edges, _UNKNOWN)
        if upper <= cap:
            return True
        if lower > cap:
            return False
        found = _search(edges, self.edge_family, cap + 1, cap)
        if found is None:
            self.known[edges] = (cap + 1, upper)
            return False
        self.known[edges] = (lower, len(found))
        return True

    def scan(self, m: int, goal: int | None = None) -> tuple[int, tuple[int, ...], bool]:
        """The fewest cliques covering the edges at some m vertices, the
        lexicographically first m-subset that needs that few, and whether the
        walk stopped early: with ``goal`` set, it stops at the first subset
        that brings the running minimum down to ``goal`` or below.

        A subset only matters if it needs fewer cliques than the running
        minimum, so once there is one each cover is capped one below it, and
        a subset whose cover provably exceeds the cap is skipped.  Before
        that the cap is the edge count: no mask needs more cliques than it
        has edges, so that cap refutes nothing.  Only strictly smaller covers
        replace the minimum, so the count and the subset are those of the
        literal walk over every subset.

        Each incident-edge mask, less its lonely edges (those of
        ``edge_family.lonely``), is entered in the table at its packing bound
        on its first visit; the count of lonely edges is added to every bound
        the table gives and taken off the cap of every search, which covers
        the rest only.  A subset whose mask the table bounds above the cap
        needs no search, and neither does one whose cover number the table
        holds.  The others get one search with no greedy start that stops at
        the table's lower bound, where a cover is minimum, and the table keeps
        its outcome: the count, the subset and the stop depend on sizes alone,
        never on which cover was met.

        The subsets are walked depth first in lexicographic order by one
        loop: ``head`` is the prefix being extended and ``masks[d]`` the
        incident edges of its first d vertices, each one OR onto the one
        before.  Position d takes vertices up to n - m + d, so every prefix
        entered has an extension.  The incident edges of a subset contain
        those of each prefix and the cover number only grows with the mask,
        while the cap only falls, so a prefix whose mask the table bounds
        above the cap is not entered: every subset through it is skipped
        unsearched.  A d-vertex prefix's mask was a subset's mask at m = d,
        so the walks of smaller m have entered many of them in the table.
        """
        known, incident, family = self.known, self.incident, self.edge_family
        lonely, shared = family.lonely, ~family.lonely
        fewest = argmin = None
        cap = len(family.holders)
        n, last = len(incident), m - 1
        head: list[int] = []
        masks = [0]
        v = 0  # the next vertex to try at position len(head)
        while True:
            if len(head) == last:
                edges = masks[-1]
                for v in range(v, n):
                    mask = edges | incident[v]
                    extra, rest = (mask & lonely).bit_count(), mask & shared
                    entry = known.get(rest)
                    if entry is None:
                        entry = known[rest] = (_packing_bound(rest, family), inf)
                    lower, upper = entry
                    if lower + extra > cap:
                        continue
                    if lower != upper:
                        found = _search(rest, family, cap + 1 - extra, lower)
                        if found is None:
                            known[rest] = (cap + 1 - extra, upper)
                            continue
                        lower = len(found)
                        known[rest] = (lower, lower)
                    fewest, argmin = lower + extra, (*head, v)
                    cap = fewest - 1
                    if goal is not None and fewest <= goal:
                        return fewest, argmin, True
                v = n  # every subset through this prefix is done
            if v > n - m + len(head):
                if not head:
                    return fewest, argmin, False
                v = head.pop() + 1
                masks.pop()
                continue
            mask = masks[-1] | incident[v]
            if known.get(mask & shared, (0,))[0] + (mask & lonely).bit_count() <= cap:
                head.append(v)
                masks.append(mask)
            v += 1

    def within(self, vertices: int, leaving: int) -> list[tuple[tuple[int, ...], int]]:
        """The maximal cliques of G[S] for the vertex mask of S, as (members,
        edge mask), sorted by members as maximal_cliques(G[S]) sorts them,
        with ``leaving``, the edges with an end outside S, cleared from each
        edge mask.

        They are the maximal nonempty traces C & S (see the class), and a
        trace t is maximal iff no vertex of S outside t is adjacent to all of
        t: such a vertex extends t to a clique of G[S], which lies in a larger
        trace, and a larger trace holds such a vertex.  So each trace is kept
        by one AND over its members' adjacency masks, with no comparison
        between traces."""
        rows = self.rows
        pairs = zip(self.vertex_masks, self.edge_family.cands)
        traces = {c & vertices: e & ~leaving for c, e in pairs if c & vertices}
        maximal = []
        for t, e in traces.items():
            members = tuple(_bits(t))
            extenders = vertices
            for v in members:
                extenders &= rows[v]
            if not extenders:
                maximal.append((members, e))
        return sorted(maximal)


# The only place an oracle is built: every entry point looks its graph's up
# here.  Graph is immutable and hashable, and the table is the one state an
# oracle keeps between calls, so one slot serves a survey row, a solve's bound
# phase and levels, and a budget bisection alike.
_oracle = functools.lru_cache(maxsize=1)(_Cliques)


def edge_clique_cover_number(g: Graph) -> int:
    """Minimum number of cliques covering every edge; 0 if there are none."""
    return _min_cover((1 << g.edge_count) - 1, _oracle(g).edge_family)[0]


def edge_clique_cover(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Minimum edge clique cover, reported as (size, indices into
    maximal_cliques(g))."""
    return _certified_cover((1 << g.edge_count) - 1, _oracle(g).edge_family)


def vertex_clique_cover_number(g: Graph) -> int:
    """Minimum number of cliques containing every vertex; 0 for n = 0."""
    return _min_cover((1 << g.n) - 1, _family(_oracle(g).vertex_masks, g.n))[0]


def restricted_edge_cover_number(g: Graph, edge_subset: Iterable[tuple[int, int]]) -> int:
    """Minimum number of cliques of g covering every edge in the subset.

    Cliques may cover edges outside the subset; only the subset must be hit.
    """
    edges = [tuple(sorted(e)) for e in edge_subset]
    host = set(g.edges())
    # labels are ints, as Graph requires: (0, 1.0) equals (0, 1) but is refused
    stray = [e for e in edges if e not in host or not all(isinstance(v, int) for v in e)]
    if stray:
        raise ValueError(f"{min(stray)} is not an edge of the host graph")
    t = _oracle(g)
    return _min_cover(sum(t.incident[u] & t.incident[v] for u, v in set(edges)), t.edge_family)[0]
