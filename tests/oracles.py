"""Independent brute-force oracles used to derive expected test values.

Everything here deliberately avoids the package's solver paths: covers are
found by exhaustive subfamily enumeration over all cliques (not just maximal
ones), competition numbers by enumerating vertex permutations together
with every forward arc set, digraph checks from dense per-vertex tables,
graph6 from one bit list per string, labeled graphs from one edge list per
mask, and the general bound's report from one capped cover search per vertex
subset.  The one exception reads the realizer's own search nodes, through
nothing but its public budget, and keeps the realizer's search with both
tests on node entry as the reference for the one that tests each child in
its parent; likewise the cover kernel's recursive search stays here as the
reference for its loop, with a second recursive statement of which nodes
the loop counts a packing bound at; and Opsut's vertex bound is counted
here by its definition, one vertex cover of every N(v), as the reference
for the m = 1 term the package reads it off.  The unlabeled classes on n vertices
come from extending every class on n - 1 vertices by one vertex, in every
way, with the package's class key telling the classes apart; their counts
are checked against the known ones.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial, prod

from compnum import (
    BudgetExceededError,
    CycleError,
    Digraph,
    Graph,
    GraphParseError,
    competition_number,
    edge_clique_cover_number,
    find_realization,
    general_bound,
    maximal_cliques,
)
from compnum.bounds import BoundReport, BoundTerm
from compnum.covers import _Cliques, _family, _min_cover, _oracle, _packing_bound
from compnum.graphs import _bits, _rows_graph, _rows_key
from compnum.realizer import RealizationWitness, _assemble


def adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def all_cliques(g: Graph) -> list[frozenset[int]]:
    """Every clique of g (including the empty set and singletons), by
    checking all vertex subsets against bit adjacency."""
    adj = adjacency_masks(g)
    out = []
    for mask in range(1 << g.n):
        members = [v for v in range(g.n) if (mask >> v) & 1]
        if all((mask & ~(1 << v)) & ~adj[v] == 0 for v in members):
            out.append(frozenset(members))
    return out


def set_maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """The maximal cliques by the pivoting enumeration on frozenset
    neighbourhoods: the same pivot rule (most candidate neighbours, lowest
    label on ties) and the same order as covers.maximal_cliques."""
    adj = [g.neighbors(v) for v in range(g.n)]
    found: list[frozenset[int]] = []

    def expand(clique: frozenset[int], cand: set[int], excl: set[int]) -> None:
        if not cand and not excl:
            found.append(clique)
            return
        pivot = max(cand | excl, key=lambda u: (len(adj[u] & cand), -u))
        for v in sorted(cand - adj[pivot]):
            expand(clique | {v}, cand & adj[v], excl & adj[v])
            cand.discard(v)
            excl.add(v)

    if g.n:
        expand(frozenset(), set(range(g.n)), set())
    return sorted(found, key=sorted)


def brute_min_cover(universe, candidates) -> int | None:
    """Exhaustive minimum cover size: try all subfamilies by increasing size.

    Returns None when even the whole family does not cover the universe.
    """
    universe = frozenset(universe)
    if not universe:
        return 0
    candidates = [frozenset(c) for c in candidates]
    for size in range(1, len(candidates) + 1):
        for subfamily in combinations(candidates, size):
            if universe <= frozenset().union(*subfamily):
                return size
    return None


def brute_lex_min_cover(universe, candidates) -> tuple[int, tuple[int, ...]]:
    """Smallest cover; among the optima, the lexicographically smallest
    index tuple."""
    universe = frozenset(universe)
    if not universe:
        return 0, ()
    candidates = [frozenset(c) for c in candidates]
    for size in range(1, len(candidates) + 1):
        best = None
        for idxs in combinations(range(len(candidates)), size):
            if universe <= frozenset().union(*(candidates[i] for i in idxs)):
                if best is None or idxs < best:
                    best = idxs
        if best is not None:
            return size, best
    raise AssertionError("universe not coverable")


def element_packing_bound(universe, candidates) -> int:
    """The cover kernel's packing bound, walked element by element: in sorted
    order, count each element no candidate used so far holds, then use every
    candidate holding it.  No two counted elements share a candidate, so any
    cover needs at least this many sets."""
    used, count = set(), 0
    for e in sorted(universe):
        holders = {i for i, c in enumerate(candidates) if e in c}
        if not holders & used:
            count += 1
            used |= holders
    return count


def brute_edge_cover_number(g: Graph, target_edges=None) -> int:
    """Minimum number of cliques covering the target edges (all edges when
    target_edges is None), over all cliques of g."""
    if target_edges is None:
        target_edges = g.edges()
    target = frozenset(tuple(sorted(e)) for e in target_edges)
    if not target:
        return 0
    covered_by = [
        frozenset(e for e in target if e[0] in c and e[1] in c) for c in all_cliques(g)
    ]
    return brute_min_cover(target, covered_by)


def brute_subset_term(g: Graph, subset) -> int:
    """cover(U) by the paper's literal definition: the fewest cliques of the
    subgraph induced on N[U] covering every edge incident to U."""
    sub, relabel = g.induced_subgraph(g.closed_neighborhood(subset))
    target = [(relabel[u], relabel[v]) for u, v in g.incident_edges(subset)]
    return brute_edge_cover_number(sub, target)


def edges_at(t: _Cliques, vertices: int) -> int:
    """The mask of the edges with an end in the vertex mask, in the layout
    of the cover oracle t."""
    edges = 0
    for v in _bits(vertices):
        edges |= t.incident[v]
    return edges


def brute_vertex_cover_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    return brute_min_cover(range(g.n), all_cliques(g))


def neighborhood_cover_bound(g: Graph) -> int:
    """Opsut's vertex bound by its definition: min over v of the fewest
    cliques of G[N(v)] covering N(v), each one vertex-cover search of N(v)
    over the maximal cliques of g, whose traces on N(v) hold every clique of
    G[N(v)]."""
    t = _Cliques(g)
    family = _family(t.vertex_masks, g.n)
    return min(_min_cover(g.rows[v], family)[0] for v in range(g.n))


# -- naive competition numbers ------------------------------------------------


@lru_cache(maxsize=None)
def _competition_graphs_of_forward_arcs(total: int) -> frozenset[frozenset]:
    """Competition graphs (as frozensets of position pairs) of every forward
    arc set on ``total`` ordered positions.

    Every acyclic digraph is the forward arc set of some ordering of its
    vertices, so combined with a scan over vertex permutations this covers
    all acyclic digraphs on ``total`` vertices.
    """
    pairs = list(combinations(range(total), 2))
    seen = set()
    for mask in range(1 << len(pairs)):
        outs = [0] * total
        for bit, (i, j) in enumerate(pairs):
            if (mask >> bit) & 1:
                outs[i] |= 1 << j
        edges = frozenset((i, j) for i, j in pairs if outs[i] & outs[j])
        seen.add(edges)
    return frozenset(seen)


def realizable_by_enumeration(g: Graph, k: int) -> bool:
    """Is g plus k isolated vertices the competition graph of some acyclic
    digraph on n+k vertices?  Decided by raw enumeration."""
    total = g.n + k
    achievable = _competition_graphs_of_forward_arcs(total)
    edges = g.edges()
    for perm in permutations(range(total)):
        # perm[v] is the position of vertex v; added vertices must be isolated,
        # so the image contains exactly the original edges.
        image = frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
        if image in achievable:
            return True
    return False


def naive_competition_number(g: Graph, k_cap: int = 6) -> int:
    for k in range(k_cap + 1):
        if realizable_by_enumeration(g, k):
            return k
    raise AssertionError(f"no realization found with up to {k_cap} added vertices")


# -- the realizer's search nodes, read through its budget ------------------------


def least_budget(g: Graph, k: int, solve=find_realization) -> int:
    """The fewest search nodes solve(g, k) needs: it finishes with that budget
    and runs out one below it.  Found by doubling, then bisection, over the
    budget alone."""

    def finishes(budget: int) -> bool:
        try:
            solve(g, k, budget=budget)
        except BudgetExceededError:
            return False
        return True

    high = 1
    while not finishes(high):
        high *= 2
    low = high // 2  # runs out, as a budget of 0 always does
    while high - low > 1:
        mid = (low + high) // 2
        if finishes(mid):
            high = mid
        else:
            low = mid
    return high


def literal_find_realization(
    g: Graph, k: int, budget: int | None = None
) -> RealizationWitness | None:
    """find_realization with both tests on node entry: every child the
    exploration meets is counted, looked up in ``dead`` and called, and a
    refused one marks its state dead on the way out."""
    t = _oracle(g)
    n = g.n
    all_edges = (1 << g.edge_count) - 1
    open_slots = tuple(max(0, n - max(depth, 2)) for depth in range(n + 1))

    @lru_cache(maxsize=None)
    def feeders_of(placed: int):
        unplaced = ((1 << n) - 1) & ~placed
        leaving = edges_at(t, unplaced)
        if not t.fits(leaving, unplaced.bit_count() - 1 + k):
            return None
        return t.within(placed, leaving) if placed.bit_count() >= 2 else [((), 0)]

    dead: set[tuple[int, int]] = set()
    bound_of: dict[int, int] = {}
    order: list[int] = []
    chosen: list[tuple[int, ...]] = []
    nodes = 0

    def count() -> None:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(f"node budget of {budget} exhausted")

    def extend(placed: int, covered: int) -> RealizationWitness | None:
        residual = all_edges & ~covered
        if (bound := bound_of.get(covered)) is None:
            bound = bound_of[covered] = t.packing_bound(residual)
        if open_slots[len(order)] + k >= bound:
            if len(order) == n:
                if t.fits(residual, k) and (found := _min_cover(residual, t.edge_family, k)) is not None:
                    return _assemble(g, k, order, chosen + [maximal_cliques(g)[i] for i in found[1]])
            elif (feeders := feeders_of(placed)) is not None:
                for v in range(n):
                    if placed >> v & 1 or (len(order) == 1 and v < order[0]):
                        continue
                    child = placed | 1 << v
                    order.append(v)
                    for members, mask in feeders:
                        count()
                        if (child, covered | mask) in dead:
                            continue
                        chosen.append(members)
                        witness = extend(child, covered | mask)
                        if witness is not None:
                            return witness
                        chosen.pop()
                    order.pop()
        dead.add((placed, covered))
        return None

    count()  # the root
    return extend(0, 0)


def level_node_counts(g: Graph) -> list[int]:
    """least_budget at every level k = 0..k(G) of a graph with a vertex."""
    return [least_budget(g, k) for k in range(competition_number(g)[0] + 1)]


# -- digraphs from dense per-vertex tables -------------------------------------


def dense_tables(d: Digraph) -> tuple[list[set[int]], list[set[int]]]:
    """Out- and in-neighbour sets, one of each per vertex."""
    out: list[set[int]] = [set() for _ in range(d.n)]
    inn: list[set[int]] = [set() for _ in range(d.n)]
    for u, v in d.arcs:
        out[u].add(v)
        inn[v].add(u)
    return out, inn


def dense_topological_order(d: Digraph) -> list[int]:
    """Kahn's algorithm over every vertex, smallest available label first.

    On a cycle, walks backward from the smallest leftover vertex through
    smallest leftover in-neighbours and raises CycleError with the cycle met.
    """
    out, inn = dense_tables(d)
    indeg = [len(s) for s in inn]
    ready = [v for v in range(d.n) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) == d.n:
        return order
    remaining = set(range(d.n)) - set(order)
    path = [min(remaining)]
    while True:
        prev = min(u for u in inn[path[-1]] if u in remaining)
        if prev in path:
            cycle = path[path.index(prev):]
            cycle.reverse()
            raise CycleError(cycle)
        path.append(prev)


def dense_verify_reason(g: Graph, k: int, d: Digraph) -> str | None:
    """verify_realization's reason (None when d realizes g plus k isolated
    vertices), with the competition graph found pair by pair."""
    try:
        dense_topological_order(d)
    except CycleError as err:
        return "cycle found: " + " -> ".join(map(str, err.cycle + err.cycle[:1]))
    out, _ = dense_tables(d)
    comp = {(x, y) for x, y in combinations(range(d.n), 2) if out[x] & out[y]}
    target = set(g.edges())
    if missing := sorted(target - comp):
        return "missing edge {}-{}".format(*missing[0])
    extra = sorted(comp - target)
    if originals := [e for e in extra if e[1] < g.n]:
        return "extra edge {}-{}".format(*originals[0])
    if extra:
        return "non-isolated added vertex {1} (edge {0}-{1})".format(*extra[0])
    return None


# -- graph6 bit by bit -----------------------------------------------------------


def bitlist_parse_graph6(text: str) -> Graph:
    """graph6 decoding through one list holding every body bit."""
    s = text.rstrip("\r\n")
    if not s:
        raise GraphParseError("byte 0: empty graph6 string")
    header = ord(s[0])
    if header == 126:
        raise GraphParseError("byte 0: vertex counts above 62 are not supported")
    if not 63 <= header <= 125:
        raise GraphParseError(f"byte 0: invalid header byte {s[0]!r}")
    n = header - 63
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    body = s[1:]
    if len(body) < nbytes:
        raise GraphParseError(
            f"byte {len(s)}: truncated body, expected {nbytes} data bytes, got {len(body)}"
        )
    if len(body) > nbytes:
        raise GraphParseError(f"byte {1 + nbytes}: trailing garbage after graph body")
    bits: list[int] = []
    for off, ch in enumerate(body, start=1):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise GraphParseError(f"byte {off}: data byte {ch!r} out of range")
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    for idx in range(npairs, len(bits)):
        if bits[idx]:
            raise GraphParseError(f"byte {1 + idx // 6}: nonzero padding bit")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return Graph(n, [pairs[idx] for idx in range(npairs) if bits[idx]])


def literal_all_labeled_graphs(n: int):
    """Every labeled graph on n vertices, built from an edge list per mask in
    increasing mask order, bit k of the mask being pair k in graph6 column
    order."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


def packer_write_graph6(g: Graph) -> str:
    """graph6 encoding six bits at a time, the last byte zero-padded."""
    chars = [chr(63 + g.n)]
    acc = nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | (1 if j in g.neighbors(i) else 0)
            nbits += 1
            if nbits == 6:
                chars.append(chr(63 + acc))
                acc, nbits = 0, 0
    if nbits:
        chars.append(chr(63 + (acc << (6 - nbits))))
    return "".join(chars)


def inline_canonical_key(g: Graph, max_orders: int = 720) -> tuple[int, int] | None:
    """The canonical key with the relabeled bit pattern built inline for
    every order of the vertices inside the refined cells."""
    n, adj = g.n, [g.neighbors(v) for v in range(g.n)]
    colour = [len(adj[v]) for v in range(n)]
    while True:
        signature = [(colour[v], tuple(sorted(colour[u] for u in adj[v]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(signature)))}
        if len(rank) == len(set(colour)):
            break
        colour = [rank[s] for s in signature]
    cells = [[v for v in range(n) if colour[v] == c] for c in sorted(set(colour))]
    if prod(factorial(len(cell)) for cell in cells) > max_orders:
        return None
    best = None
    for parts in product(*(permutations(cell) for cell in cells)):
        order = [v for part in parts for v in part]
        code = 0
        for j in range(1, n):
            row = adj[order[j]]
            for i in range(j):
                code = code << 1 | (order[i] in row)
        if best is None or code < best:
            best = code
    return n, best


# -- the cover kernel, recursive -------------------------------------------------


def literal_search(universe: int, family, barrier: int, goal: int) -> tuple[int, ...] | None:
    """covers._search as one recursive call per chosen set: the same tree in
    the same order, with the same recording rule, for the kernel to match
    tuple for tuple."""
    cands, holders, shadows, tiers = family
    found = None

    def search(uncovered: int, chosen: tuple[int, ...]) -> bool:
        nonlocal found, barrier
        if not uncovered:
            found, barrier = tuple(sorted(chosen)), len(chosen)
            return barrier <= goal
        if len(chosen) + _packing_bound(uncovered, shadows) >= barrier:
            return False
        for tier in tiers:
            if tier & uncovered:
                break
        tier &= uncovered
        for i in _bits(holders[(tier & -tier).bit_length() - 1]):
            if search(uncovered & ~cands[i], chosen + (i,)):
                return True
        return False

    if barrier > 0:
        search(universe, ())
    return found


def literal_counted_bounds(universe: int, family, barrier: int, goal: int) -> list[int]:
    """The residuals whose packing bound covers._search counts, in order, by
    its credit rule stated on the recursive search: a node counts unless its
    branch element has one holder and the credit handed to it is at least 1,
    and it hands its first child credit - 1 and each later child, met after
    a sibling's subtree may have moved the barrier, no credit."""
    cands, holders, shadows, tiers = family
    counted = []

    def search(uncovered: int, depth: int, credit: int) -> bool:
        nonlocal barrier
        if not uncovered:
            barrier = depth
            return barrier <= goal
        for tier in tiers:
            if tier & uncovered:
                break
        tier &= uncovered
        held = holders[(tier & -tier).bit_length() - 1]
        if credit < 1 or held & (held - 1):
            counted.append(uncovered)
            credit = _packing_bound(uncovered, shadows)
        if depth + credit >= barrier:
            return False
        for i in _bits(held):
            if search(uncovered & ~cands[i], depth + 1, credit - 1):
                return True
            credit = 0
        return False

    if barrier > 0:
        search(universe, 0, 0)
    return counted


# -- the general bound, one subset at a time -------------------------------------


def literal_general_bound(g: Graph, prune: bool = False) -> BoundReport:
    """The general bound's report with every m-subset handed to the capped
    cover search in lexicographic order, nothing remembered between subsets.
    Unpruned, its m-th term is the exact term general_bound_term returns."""

    def scan(t: _Cliques, m: int, floor: int | None) -> tuple[BoundTerm, bool]:
        best = argmin = None
        for subset in combinations(range(g.n), m):
            edges = 0
            for u in subset:
                edges |= t.incident[u]
            found = _min_cover(edges, t.edge_family, None if best is None else best + m - 2)
            if found is not None:
                best, argmin = found[0] - m + 1, subset
                if floor is not None and best <= floor:
                    return BoundTerm(m, best, argmin), True
        return BoundTerm(m, best, argmin), False

    t = _Cliques(g)
    terms: list[BoundTerm] = []
    truncated: set[int] = set()
    best: int | None = None
    for m in range(1, g.n + 1):
        term, cut = scan(t, m, best if prune else None)
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


# -- unlabeled classes by one-vertex extension ------------------------------------


@lru_cache(maxsize=None)
def unlabeled_classes(n: int) -> dict[tuple[int, int] | None, tuple[int, ...]]:
    """One graph per isomorphism class on n vertices, as adjacency masks under
    its class key: each class on n - 1 vertices gains vertex n - 1, joined to
    each subset of the others, and the first masks met per key are kept.  A
    graph the key refuses would sit under None."""
    if n == 0:
        return {_rows_key(()): ()}
    classes: dict[tuple[int, int] | None, tuple[int, ...]] = {}
    for rows in unlabeled_classes(n - 1).values():
        for joined in range(1 << n - 1):
            grown = tuple(row | (joined >> v & 1) << n - 1 for v, row in enumerate(rows)) + (joined,)
            classes.setdefault(_rows_key(grown), grown)
    return classes


def class_census(n: int) -> list[tuple]:
    """(key, theta_e, opsut_e, opsut_v, general, k) for every class on n
    vertices, sorted.  None of these depends on which graph stands for a
    class or how it is labeled."""
    census = []
    for key, rows in unlabeled_classes(n).items():
        g = _rows_graph(rows)
        report = general_bound(g, prune=True)
        k = competition_number(g)[0]
        census.append((key, edge_clique_cover_number(g), report.opsut_edge, report.opsut_vertex, report.general, k))
    return sorted(census)


# -- small structural helpers --------------------------------------------------


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == g.n


def has_triangle(g: Graph) -> bool:
    return any(g.neighbors(u) & g.neighbors(v) for u, v in g.edges())
