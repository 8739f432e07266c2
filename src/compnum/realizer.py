"""Competition graphs, exact competition numbers, and realization witnesses.

The competition graph of a digraph D joins two distinct vertices whenever
they share an out-neighbor.  The competition number of a graph G is the
smallest k such that G plus k added isolated vertices is the competition
graph of some acyclic digraph; find_realization searches for such a digraph
at a fixed k and competition_number drives it by iterative deepening from
the best known lower bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .bounds import general_bound
from .covers import _min_cover, _oracle
from .graphs import CycleError, Digraph, Graph, _arc_order, _bits, _predators, write_arc_list, write_dot


class BudgetExceededError(Exception):
    """The node budget ran out before the search finished.

    Never conflated with infeasibility: when this is raised nothing is known
    about the k values whose search did not complete.  ``lower_bound`` (when
    set by competition_number) is the smallest k not yet ruled out.
    """

    def __init__(self, message: str, lower_bound: int | None = None):
        super().__init__(message)
        self.lower_bound = lower_bound


@dataclass(frozen=True)
class Verification:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class RealizationWitness:
    """Certificate that k added isolated vertices suffice for a graph.

    ``digraph`` lives on n + k vertices, the added ones labeled n..n+k-1 and
    placed after all originals in ``ordering`` (an acyclic ordering of the
    digraph).  Added vertices never have outgoing arcs.
    """

    k: int
    digraph: Digraph
    ordering: tuple[int, ...]

    @property
    def original_count(self) -> int:
        return self.digraph.n - self.k

    def to_arc_list(self) -> str:
        return write_arc_list(self.digraph)

    def to_dot(self) -> str:
        return write_dot(self.digraph, added=self.k)


def _competition_edges(d: Digraph) -> set[tuple[int, int]]:
    """The pairs x < y with a common prey, read off the arcs alone."""
    return {pair for preds in _predators(d).values() for pair in combinations(sorted(preds), 2)}


def competition_graph(d: Digraph) -> Graph:
    """Graph on the same vertices joining every pair with a common prey.

    The digraph need not be acyclic.
    """
    return Graph(d.n, _competition_edges(d))


def verify_realization(g: Graph, k: int, d: Digraph) -> Verification:
    """Check that d is acyclic and its competition graph is exactly g plus k
    added isolated vertices (labels g.n..g.n+k-1).

    The first failed condition is reported, in the order: cycle found,
    missing edge, extra edge, non-isolated added vertex.  The competition
    graph is compared as an edge set, so d may exceed Graph's vertex cap,
    and the check costs what d's arcs hold, whatever d.n says.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if d.n != g.n + k:
        raise ValueError(f"digraph has {d.n} vertices, expected {g.n} + {k}")
    try:
        _arc_order(d)
    except CycleError as err:
        return Verification(False, f"cycle found: {err.arrow}")
    comp = _competition_edges(d)
    target = set(g.edges())
    if missing := target - comp:
        u, v = min(missing)
        return Verification(False, f"missing edge {u}-{v}")
    extra = comp - target
    if originals := [e for e in extra if e[1] < g.n]:
        u, v = min(originals)
        return Verification(False, f"extra edge {u}-{v}")
    if extra:  # every edge left touches an added vertex
        u, v = min(extra)
        return Verification(False, f"non-isolated added vertex {v} (edge {u}-{v})")
    return Verification(True)


# -- feasibility search -------------------------------------------------------
#
# Why searching (vertex order, one clique per position, residual cover) is
# enough to decide feasibility at a fixed k:
#
# Take any acyclic digraph realizing the target graph plus k isolated
# vertices.  In its competition graph, the in-neighborhood of every vertex is
# a clique (its members all share that prey).  An added vertex appearing in
# an in-neighborhood of size >= 2 would therefore be adjacent to something,
# contradicting its isolation, and an in-neighborhood of size 1 creates no
# edge at all, so its arc can be dropped.  After dropping those arcs, every
# in-neighborhood is a clique of the original graph, added vertices have no
# outgoing arcs, and they can be moved to the back of an acyclic ordering.
# What remains is exactly an object of the searched shape: an ordering
# v_1..v_n of the original vertices where each v_i receives arcs from one
# clique inside {v_1..v_{i-1}}, plus up to k cliques feeding the added
# vertices, and together those cliques cover every edge.  Conversely any such
# assignment assembles into a realizing acyclic digraph, so exhausting the
# reformulated space at a given k is a proof of infeasibility.
#
# Two loss-free reductions shrink the space: the clique at position i may be
# taken inclusion-maximal within the first i-1 vertices (enlarging covers
# more and creates only edges the graph already has), and positions 1 and 2
# contribute nothing (no predecessors / a single predecessor covers no edge).
# Swapping the first two vertices changes nothing either, so orderings with
# v_1 > v_2 are skipped.
#
# The maximal cliques of the prefix subgraph G[P] are read off the host's
# (covers._Cliques.within).  The search state is two ints: the placed
# vertices and the covered edges, as masks in the layout of covers._Cliques.
# A node also carries two edge masks that the placed mask determines (see
# ``feeders_of`` below).
#
# Two tests cut a node whose subtree holds no realization.  The packing test:
# the residual edges must fit into the feeder slots still open plus the k
# added vertices; at the leaf no slot is open.  The tail inequality
# (Opsut 1982; Roberts 1978) looks at the r unplaced vertices T, which every
# completion puts last.  No feeder chosen so far touches T, and neither does
# the next one, which lies inside the placed prefix.  So every edge at T must
# be covered by the feeders of the other r - 1 positions or by the k added
# vertices: cover(incident(T)) <= r - 1 + k, with the maximal cliques of G
# as candidates.  Every node takes the packing test, and every node but a
# leaf takes the tail test.  A leaf that passes covers its residual with at
# most k cliques, which feed the added vertices as positions n..n+k-1 of the
# ordering, like any other position.  Neither test changes the witness: each
# cuts only subtrees that hold no realization, so the exploration meets the
# same first witness, in fewer nodes.
#
# A node is tested by its parent, and only a node that passes both tests is
# called.  The root is tested once, before the first call.  A child's packing
# test reads only its covered mask, the parent's covered mask plus the
# feeder, which is the same for every vertex the parent places next, so the
# parent tests each feeder once and keeps those that pass.  The tail test
# reads only the child's placed mask, so the parent asks it at the child's
# first feeder that passes and is not dead, which is where a search testing
# each node on entry asks it first; the oracle sees the same questions in the
# same order.  When it fails, every feeder of that child is refused.
#
# Memos keep any question from being asked twice.  Three live for one level
# (one find_realization call), because their answers depend on k.  ``dead``
# holds every state (placed, covered) that was called and failed: an
# expanded node whose children are exhausted, or a leaf whose residual edges
# need more than k cliques.  A refused child is not stored, because the
# memoized tests refuse it again for one dict lookup.  ``bound_of`` maps a
# covered mask to its residual's packing bound.  The residual is the edges
# outside the covered mask, whatever the placed mask or the depth, so the key
# is the covered mask alone and each residual is counted once per level; only
# the open slots it is compared with change from node to node.
# ``feeders_of`` reads the placed mask and ``leaving``, the edges with an end
# outside it, which is a function of the placed mask: it returns the prefix's
# feeder cliques when the tail inequality holds and None when it fails, and it
# is asked only after the packing test passes.  The tail test covers
# ``leaving``, and ``within`` clips it off the feeder traces.  No node gathers
# it from the unplaced vertices: each node carries it with ``touched``, the
# edges with an end inside the placed mask, and placing v closes exactly the
# edges at v that are touched, so the child gets leaving & ~(incident[v] &
# touched) and touched | incident[v].  A leaf asks ``fits`` first, which stops
# at the first cover within k.  Only when one exists does it ask the kernel
# for the cover itself, once per call.
#
# One memo lives for the whole graph, on its cover oracle (covers._Cliques),
# because it does not depend on k: the table of proven cover bounds.  Only a
# tail or leaf ``fits`` asks it here, and it answers one that an earlier
# level, an earlier call or the bound phase already settled.  Each level
# looks the oracle up from the graph, so the bound phase and every level of a
# solve share it.  Sharing it across calls is safe: the table holds only
# proven bounds, and it decides whether ``fits`` searches, never what it
# answers, so no witness, answer or node count depends on what was asked
# before.
#
# The budget counts every node the exploration meets, refused and dead ones
# included, in the order a search that tests each node on entry meets them.
# The root is counted before it is tested.  A parent adds the refused feeders
# before a passing one together with it (``nodes += run``), then checks the
# budget, then looks the child up in ``dead``.  The refused feeders after the
# last passing one, or after a failed tail test, are added when the child's
# loop ends, and the budget is checked again.  Counting a run in one step
# raises exactly when counting it node by node would: a refused node makes no
# call, returns no witness and stores nothing, so the search ends with the
# same witness, None or BudgetExceededError.


def find_realization(
    g: Graph, k: int, budget: int | None = None
) -> RealizationWitness | None:
    """Search for a witness with exactly k added vertices.

    Returns the witness found first in lexicographic exploration order, or
    None when no realization with k added vertices exists (a proof, not a
    timeout).  Raises BudgetExceededError when ``budget`` search nodes are
    spent first.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    t = _oracle(g)
    n = g.n
    all_edges = (1 << g.edge_count) - 1
    # Feeder cliques only arrive at positions 3..n: the slots still open
    # once ``depth`` vertices are placed.
    open_slots = tuple(max(0, n - max(depth, 2)) for depth in range(n + 1))

    @functools.cache
    def feeders_of(placed: int, leaving: int) -> list[tuple[tuple[int, ...], int]] | None:
        if not t.fits(leaving, n - placed.bit_count() - 1 + k):
            return None
        return t.within(placed, leaving) if placed.bit_count() >= 2 else [((), 0)]

    spent = f"node budget of {budget} exhausted"
    dead: set[tuple[int, int]] = set()
    bound_of: dict[int, int] = {}
    order: list[int] = []
    chosen: list[tuple[int, ...]] = []

    def extend(placed: int, covered: int, leaving: int, touched: int) -> RealizationWitness | None:
        # The parent has counted this node, and it passed both tests.
        nonlocal nodes
        depth = len(order)
        if depth == n:
            residual = all_edges & ~covered
            if t.fits(residual, k):  # so a cover within k exists
                _, found = _min_cover(residual, t.edge_family, k)
                return _assemble(g, k, order, chosen + [_bits(t.vertex_masks[i]) for i in found])
        else:
            feeders = feeders_of(placed, leaving)
            # (run, members, covered mask) per feeder whose children pass the
            # packing test; run counts it and the refused feeders before it
            passing = []
            run = 0
            slots = open_slots[depth + 1] + k
            for members, mask in feeders:
                run += 1
                mask |= covered
                if (bound := bound_of.get(mask)) is None:
                    bound = bound_of[mask] = t.packing_bound(all_edges & ~mask)
                if bound <= slots:
                    passing.append((run, members, mask))
                    run = 0
            inner = depth + 1 < n  # the children are not leaves
            free = ((1 << n) - 1) & ~placed
            if depth == 1:
                free &= -1 << order[0]  # the first two are interchangeable
            for v in _bits(free):
                child = placed | 1 << v
                child_leaving = leaving & ~(t.incident[v] & touched)
                left = len(feeders)  # this child's nodes not yet counted
                order.append(v)
                for run, members, mask in passing:
                    nodes += run
                    left -= run
                    if budget is not None and nodes > budget:
                        raise BudgetExceededError(spent)
                    if (child, mask) in dead:
                        continue
                    if inner and feeders_of(child, child_leaving) is None:
                        break  # the tail test refuses the child with every feeder
                    chosen.append(members)
                    witness = extend(child, mask, child_leaving, touched | t.incident[v])
                    if witness is not None:
                        return witness
                    chosen.pop()
                order.pop()
                nodes += left
                if budget is not None and nodes > budget:
                    raise BudgetExceededError(spent)
        dead.add((placed, covered))
        return None

    try:
        nodes = 1  # the root
        if budget is not None and nodes > budget:
            raise BudgetExceededError(spent)
        bound_of[0] = t.packing_bound(all_edges)
        if bound_of[0] > open_slots[0] + k or (n > 0 and feeders_of(0, all_edges) is None):
            return None
        return extend(0, 0, all_edges, 0)
    finally:
        del extend  # it reaches itself through its cell: free it without the collector


def _assemble(g: Graph, k: int, order: list[int], feeders: list[Iterable[int]]) -> RealizationWitness:
    # positions n..n+k-1 are the added vertices; zip leaves those past the
    # residual's cliques without arcs
    ordering = tuple(order) + tuple(range(g.n, g.n + k))
    arcs = [(u, v) for v, feeder in zip(ordering, feeders) for u in feeder]
    witness = RealizationWitness(k=k, digraph=Digraph(g.n + k, arcs), ordering=ordering)
    check = verify_realization(g, k, witness.digraph)
    if not check.ok:  # internal consistency guard, never expected to fire
        raise RuntimeError(f"assembled witness failed verification: {check.reason}")
    return witness


def competition_number(
    g: Graph, start_k: int | None = None, budget: int | None = None
) -> tuple[int, RealizationWitness]:
    """Exact competition number with a verified witness.

    Iterative deepening: k starts at max(0, general lower bound) unless
    start_k is given, and grows until a realization exists.  Termination is
    guaranteed because the edge clique cover number always suffices.
    ``start_k`` is trusted as a proven lower bound: the levels below it are
    never checked, so a start_k above the competition number is returned
    as k (with a witness at that k).
    ``budget`` caps search nodes per feasibility level; on exhaustion the
    raised BudgetExceededError carries the smallest k not yet ruled out,
    everything below it having been proven infeasible.
    """
    if g.n == 0:
        raise ValueError("competition number of the empty graph is not defined here")
    if start_k is not None and start_k < 0:
        raise ValueError(f"start_k must be nonnegative, got {start_k}")
    k = max(0, general_bound(g, prune=True).general) if start_k is None else start_k
    while True:
        try:
            witness = find_realization(g, k, budget)
        except BudgetExceededError as err:
            raise BudgetExceededError(str(err), lower_bound=k) from None
        if witness is not None:
            return k, witness
        k += 1


# -- cover extraction from a witness -----------------------------------------


@dataclass(frozen=True)
class WitnessCover:
    """Edge clique cover read off a realization witness.

    ``tail`` is the set of the last m original vertices of the witness
    ordering, ``region`` its closed neighborhood, and ``cliques`` the
    in-neighborhoods (clipped to the region) of every later tail vertex and
    every added vertex.  Members are kept as a multiset: empty members are
    retained so that the count is exactly m + k - 1, with the deduplicated
    count reported separately.
    """

    tail: frozenset[int]
    region: frozenset[int]
    target_edges: frozenset[tuple[int, int]]
    cliques: tuple[frozenset[int], ...]

    @property
    def size(self) -> int:
        return len(self.cliques)

    @property
    def distinct_size(self) -> int:
        return len(set(self.cliques))

    @property
    def empty_members(self) -> int:
        return sum(1 for c in self.cliques if not c)

    def covers_target(self) -> bool:
        return all(
            any(u in c and v in c for c in self.cliques) for u, v in self.target_edges
        )

    def members_are_cliques(self, g: Graph) -> bool:
        return all(c <= self.region and g.is_clique(c) for c in self.cliques)


def cover_from_witness(g: Graph, witness: RealizationWitness, m: int) -> WitnessCover:
    """Turn a verified witness into an edge clique cover of the edges incident
    to the last m ordered original vertices, inside their closed neighborhood.

    The family has exactly m + k - 1 members and always covers those edges,
    which is what makes the m-th general-bound term at most k.
    """
    n = g.n
    if not 1 <= m <= n:
        raise ValueError(f"m must be in 1..{n}, got {m}")
    check = verify_realization(g, witness.k, witness.digraph)
    if not check.ok:
        raise ValueError(f"witness does not realize the graph: {check.reason}")
    if sorted(witness.ordering) != list(range(n + witness.k)):
        raise ValueError("witness ordering is not a permutation of the vertices")
    if any(v < n for v in witness.ordering[n:]):
        raise ValueError("witness ordering must place all added vertices last")
    position = {v: i for i, v in enumerate(witness.ordering)}
    if any(position[u] >= position[v] for u, v in witness.digraph.arcs):
        raise ValueError("witness ordering is not an acyclic ordering of its digraph")
    originals = list(witness.ordering[:n])
    tail = originals[n - m:]
    region = g.closed_neighborhood(tail)
    sources = tail[1:] + list(range(n, n + witness.k))
    preds = _predators(witness.digraph)
    return WitnessCover(
        tail=frozenset(tail),
        region=region,
        target_edges=g.incident_edges(tail),
        cliques=tuple(frozenset(preds.get(x, ())) & region for x in sources),
    )
