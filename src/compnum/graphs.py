"""Simple graphs and digraphs on integer-labeled vertices, plus text formats.

Vertices are always 0..n-1.  Undirected graphs are capped at 62 vertices so
that every graph fits the one-header-byte graph6 encoding; the exact solvers
in this package are only practical far below that anyway.

Supported text formats:

* graph6 (one line): header byte ``chr(63 + n)`` for n <= 62, then the upper
  triangle of the adjacency matrix in column order x(0,1), x(0,2), x(1,2),
  x(0,3), ..., packed 6 bits per byte (most significant bit first), each byte
  offset by 63, zero bits as padding.  The writer emits canonical strings and
  the parser accepts exactly those, so parse and write are mutually inverse.
* arc list (multi-line): a ``digraph <n>`` header line, then one ``u v`` arc
  per line.  ``#`` starts a comment.  Duplicate arcs and loops are rejected.
* DOT (write-only), used to export witness digraphs for viewing.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from itertools import combinations
from typing import Iterable, Iterator, Sequence

MAX_GRAPH6_VERTICES = 62

#: Largest n for which all_labeled_graphs runs without force=True.
MAX_ENUMERATION_VERTICES = 6


class GraphParseError(ValueError):
    """A graph6 string or arc-list text could not be decoded."""


class CycleError(Exception):
    """A digraph that was expected to be acyclic contains a directed cycle.

    ``cycle`` holds the offending cycle as a list of distinct vertices
    [v0, v1, ..., vm] with arcs v0->v1->...->vm->v0, and ``arrow`` the text
    "v0 -> v1 -> ... -> vm -> v0".
    """

    def __init__(self, cycle: Sequence[int]):
        self.cycle = list(cycle)
        self.arrow = " -> ".join(str(v) for v in self.cycle + self.cycle[:1])
        super().__init__(f"directed cycle: {self.arrow}")


def _check_vertex(n: int, v: int) -> None:
    if not isinstance(v, int) or not 0 <= v < n:
        raise ValueError(f"vertex {v!r} out of range for {n} vertices")


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple undirected graph: its vertex count ``n`` and one
    adjacency mask per vertex, bit u of ``rows[v]`` set iff u and v are
    adjacent.  The methods answer with frozensets and sorted edge lists."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if n > MAX_GRAPH6_VERTICES:
            raise ValueError(
                f"at most {MAX_GRAPH6_VERTICES} vertices supported, got {n}"
            )
        rows = [0] * n
        for u, v in edges:
            _check_vertex(n, u)
            _check_vertex(n, v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows: tuple[int, ...] = tuple(rows)

    # -- basic queries ---------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        return [(u, v) for u, row in enumerate(self.rows) for v in _bits(row & -2 << u)]

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.rows)) // 2

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood of v: all vertices adjacent to v, excluding v."""
        _check_vertex(self.n, v)
        return frozenset(_bits(self.rows[v]))

    # -- set-valued operations -------------------------------------------

    def _mask(self, vertices: Iterable[int]) -> int:
        mask = 0
        for v in vertices:
            _check_vertex(self.n, v)
            mask |= 1 << v
        return mask

    def closed_neighborhood(self, vertices: Iterable[int]) -> frozenset[int]:
        """The given vertices together with everything adjacent to them."""
        out = mask = self._mask(vertices)
        for v in _bits(mask):
            out |= self.rows[v]
        return frozenset(_bits(out))

    def incident_edges(self, vertices: Iterable[int]) -> frozenset[tuple[int, int]]:
        """All edges having at least one endpoint in the given set."""
        return frozenset(
            (u, v) if u < v else (v, u)
            for v in _bits(self._mask(vertices))
            for u in _bits(self.rows[v])
        )

    def induced_subgraph(
        self, vertices: Iterable[int]
    ) -> tuple["Graph", dict[int, int]]:
        """Subgraph induced on the given set, relabeled to 0..|S|-1.

        Returns the new graph and the old-to-new label map.  Relabeling is
        order-preserving (smallest old label becomes 0).
        """
        mask = self._mask(vertices)
        relabel = {old: new for new, old in enumerate(_bits(mask))}
        edges = [
            (relabel[u], relabel[v])
            for u in relabel
            for v in _bits(self.rows[u] & mask & -2 << u)
        ]
        return Graph(len(relabel), edges), relabel

    def is_clique(self, vertices: Iterable[int]) -> bool:
        """True iff the vertices are pairwise adjacent; empty sets and
        singletons count as cliques."""
        mask = self._mask(vertices)
        return all(not mask & ~(self.rows[v] | 1 << v) for v in _bits(mask))

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


class Digraph:
    """Immutable loop-free directed graph (may contain directed cycles).

    It holds only ``n`` and ``arcs``, and every query scans the arcs."""

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        arcset = set()
        for u, v in arcs:
            _check_vertex(n, u)
            _check_vertex(n, v)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            arcset.add((u, v))
        self.n = n
        self.arcs: frozenset[tuple[int, int]] = frozenset(arcset)

    def out_neighbors(self, v: int) -> frozenset[int]:
        _check_vertex(self.n, v)
        return frozenset(w for u, w in self.arcs if u == v)

    def in_neighbors(self, v: int) -> frozenset[int]:
        _check_vertex(self.n, v)
        return frozenset(u for u, w in self.arcs if w == v)

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.sorted_arcs()})"


# -- topological ordering -------------------------------------------------


def topological_order(d: Digraph) -> list[int]:
    """Vertex order in which every arc points forward.

    Deterministic: among the vertices currently available, the smallest
    label goes first.  Raises CycleError carrying one directed cycle if the
    digraph is not acyclic.
    """
    order = _arc_order(d)
    touched = set(order)
    return list(heapq.merge(order, (v for v in range(d.n) if v not in touched)))


def _predators(d: Digraph) -> dict[int, list[int]]:
    """Each vertex with in-arcs, mapped to the tails of those arcs."""
    preds: dict[int, list[int]] = {}
    for u, v in d.arcs:
        preds.setdefault(v, []).append(u)
    return preds


def _arc_order(d: Digraph) -> list[int]:
    """Kahn's algorithm over the arc endpoints only, smallest ready label
    first.  A vertex without arcs is ready from the start and frees nothing,
    so topological_order merges those back in, in ascending order."""
    succ: dict[int, list[int]] = {}
    indeg: dict[int, int] = {}
    for u, v in d.arcs:
        succ.setdefault(u, []).append(v)
        indeg[u] = indeg.get(u, 0)
        indeg[v] = indeg.get(v, 0) + 1
    ready = [v for v, deg in indeg.items() if deg == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) < len(indeg):
        raise CycleError(_find_cycle(d, indeg.keys() - set(order)))
    return order


def _find_cycle(d: Digraph, remaining: set[int]) -> list[int]:
    # Every vertex left over by the elimination above has an in-neighbor
    # among the leftovers, so walking backward must repeat a vertex.
    prev = {
        v: min(u for u in preds if u in remaining)
        for v, preds in _predators(d).items()
        if v in remaining
    }
    path = [min(remaining)]
    position = {path[0]: 0}
    while (p := prev[path[-1]]) not in position:
        position[p] = len(path)
        path.append(p)
    cycle = path[position[p]:]
    cycle.reverse()
    return cycle


def is_acyclic(d: Digraph) -> bool:
    try:
        _arc_order(d)
    except CycleError:
        return False
    return True


# -- graph6 ----------------------------------------------------------------


# Every graph6 writer, reader and enumerator below passes one integer around,
# the bit pattern: the upper-triangle pairs in column order, pair (0, 1) as
# the most significant bit, with no padding.  The enumeration counts through
# the patterns read backwards, so there pair (0, 1) is the counter's lowest bit.


def parse_graph6(text: str) -> Graph:
    """Decode a one-line graph6 string (n <= 62).

    Errors name the byte offset of the first offending byte.
    """
    return _rows_graph(_graph6_rows(text))


def _graph6_rows(text: str) -> list[int]:
    """The adjacency masks of the graph a graph6 string encodes, one per
    vertex: bit u of ``rows[v]`` is set iff u and v are adjacent.  Raises
    parse_graph6's errors."""
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
    code = 0
    for off, ch in enumerate(body, start=1):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise GraphParseError(f"byte {off}: data byte {ch!r} out of range")
        code = code << 6 | val
    pad = 6 * nbytes - npairs  # below 6, so all padding sits in the last data byte
    if code & ((1 << pad) - 1):
        raise GraphParseError(f"byte {nbytes}: nonzero padding bit")
    return _code_rows(n, code >> pad)


def _code_rows(n: int, code: int) -> list[int]:
    """The adjacency masks of the graph on n vertices with bit pattern
    ``code``, one per vertex."""
    # column j holds the pairs (0, j) .. (j - 1, j), the first as its top bit
    rows, left = [0] * n, n * (n - 1) // 2
    for j in range(1, n):
        left -= j
        column = code >> left & ((1 << j) - 1)
        while column:
            low = column & -column
            i = j - low.bit_length()
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            column ^= low
    return rows


def _rows_graph(rows: Sequence[int]) -> Graph:
    """The graph with adjacency masks ``rows``, which must be symmetric and
    loop-free, as _graph6_rows decodes them."""
    g = Graph(len(rows))
    g.rows = tuple(rows)
    return g


def _pattern(rows: Sequence[int], cells: Sequence[int]) -> int:
    """The graph6 bit pattern under the order of the cells, each cell's
    members in label order, read as an integer: the pairs in column order,
    the first pair as the most significant bit."""
    order, code = [], 0
    for cell in cells:
        while cell:
            low = cell & -cell
            v = low.bit_length() - 1
            row = rows[v]
            for u in order:
                code = code << 1 | row >> u & 1
            order.append(v)
            cell ^= low
    return code


def _graph6_text(n: int, code: int) -> str:
    """The graph6 line of the graph on n vertices with bit pattern ``code``."""
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    code <<= 6 * nbytes - npairs  # zero padding
    return chr(63 + n) + "".join(chr(63 + (code >> 6 * k & 63)) for k in range(nbytes - 1, -1, -1))


def write_graph6(g: Graph) -> str:
    """Encode a graph as a canonical graph6 line (exact inverse of parse)."""
    return _graph6_text(g.n, _pattern(g.rows, [(1 << g.n) - 1]))


def _labeled_codes(n: int) -> Iterator[int]:
    """The bit pattern of every labeled graph on n vertices, in increasing
    order of the pattern read backwards: a counter whose lowest bit is the
    pattern's top bit, pair (0, 1)."""
    top, code = 1 << n * (n - 1) // 2 >> 1, 0
    while True:
        yield code
        bit = top
        while code & bit:  # carry: clear the trailing ones, from the top
            code ^= bit
            bit >>= 1
        if not bit:
            return
        code |= bit


# -- canonical form ----------------------------------------------------------
#
# The class key comes from individualization-refinement (McKay & Piperno
# 2014) on adjacency masks: bit u of rows[v] is set iff u and v are adjacent,
# and an ordered partition of the vertices is a list of cells, each a mask.
#
# Refinement splits every cell by its members' neighbour counts into every
# cell, orders the sub-cells by that count vector, and repeats until no cell
# splits: the partition is then equitable.  Within a cell made by the last
# round, all members have equal counts into every cell that round did not
# make, so a round counts only into the cells the last one made; the order of
# those counts among a cell's members is the order of the whole vectors.
#
# Twins, two vertices with the same neighbours apart from each other, are
# swapped by an automorphism that fixes every partition the search meets
# while they share a cell.  So a cell of mutual twins never splits, any order
# inside it gives the same code, and branching on a twin of a vertex already
# tried repeats that branch's codes.  The search individualizes each vertex
# of the first cell that is neither a singleton nor all twins, one per twin
# class, as a singleton cell in front of the rest of that cell, and refines.
# A leaf is a partition whose cells are singletons or twin cells, and its code
# is the graph6 bit pattern under its order.  The tree, its leaf count
# included, depends only on the isomorphism class, so its smallest leaf code
# is a canonical form, and whether a graph is keyed depends only on its class.

#: Most leaves the search tree of a keyed graph may have.  No graph on at
#: most 6 vertices needs more than 12; C8, C10, K(4,4) and the Petersen graph
#: need 16, 20, 2 and 120, and four disjoint 5-cycles 240,000.
_MAX_LEAVES = 1000


def _refine(rows: Sequence[int], cells: list[int], fresh: list[int]) -> list[int]:
    """The equitable refinement of ``cells``, whose cells ``fresh`` are the
    ones made since it was last equitable (see above)."""
    while fresh and len(cells) < len(rows):
        out, made = [], []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            low = cell & -cell
            rest = cell ^ low
            if rest & (rest - 1):
                parts: dict[bytes, int] = {}
                while cell:
                    low = cell & -cell
                    counts = bytes(map(int.bit_count, map(rows[low.bit_length() - 1].__and__, fresh)))
                    parts[counts] = parts.get(counts, 0) | low
                    cell ^= low
                split = [parts[counts] for counts in sorted(parts)]
            else:
                # a pair, compared without grouping: 3 in 4 of the cells a
                # round groups over all labeled 5- and 6-vertex graphs are
                # pairs, and this path takes about a sixth off the key's time
                first = bytes(map(int.bit_count, map(rows[low.bit_length() - 1].__and__, fresh)))
                second = bytes(map(int.bit_count, map(rows[rest.bit_length() - 1].__and__, fresh)))
                split = [cell] if first == second else [low, rest] if first < second else [rest, low]
            out += split
            if len(split) > 1:
                made += split
        cells, fresh = out, made
    return cells


def _twins(rows: Sequence[int], cell: int, low: int) -> int:
    """The members of ``cell`` that are twins of its member ``low``, itself
    included: the same open or the same closed neighbourhood."""
    row = rows[low.bit_length() - 1]
    closed = row | low
    twins, rest = 0, cell
    while rest:
        b = rest & -rest
        other = rows[b.bit_length() - 1]
        if other == row or other | b == closed:
            twins |= b
        rest ^= b
    return twins


def _rows_key(rows: Sequence[int]) -> tuple[int, int] | None:
    """``(n, code)`` for the graph with adjacency masks ``rows``, equal for
    two graphs iff they are isomorphic, or None: ``code`` is the smallest
    leaf code of the search above, and None means the search tree has more
    than _MAX_LEAVES leaves."""
    degrees: dict[int, int] = {}
    for v, row in enumerate(rows):
        d = row.bit_count()
        degrees[d] = degrees.get(d, 0) | 1 << v
    cells = [degrees[d] for d in sorted(degrees)]  # one refinement of [all]
    # breadth first: every node still queued roots a subtree with a leaf of
    # its own, so the tree has at least leaves + len(queue) leaves
    queue = deque([(cells, cells)])
    n, best, leaves = len(rows), None, 0
    while queue:
        cells = _refine(rows, *queue.popleft())
        # the first cell to branch on; a leaf has none
        for t, cell in enumerate(cells):
            if cell & (cell - 1) and _twins(rows, cell, cell & -cell) != cell:
                break
        else:
            leaves += 1
            code = _pattern(rows, cells)
            if best is None or code < best:
                best = code
            continue
        left = cell
        while left:
            low = left & -left
            left &= ~_twins(rows, cell, low)
            queue.append((cells[:t] + [low, cell ^ low] + cells[t + 1:], [low, cell ^ low]))
        if leaves + len(queue) > _MAX_LEAVES:
            return None
    return n, best


# -- arc-list format ---------------------------------------------------------


def parse_arc_list(text: str) -> Digraph:
    """Decode the arc-list format.  Errors carry the offending line number."""
    n: int | None = None
    arcs: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "digraph" or not parts[1].isdecimal():
                raise GraphParseError(f"line {lineno}: expected 'digraph <n>' header")
            n = int(parts[1])
            continue
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v' arc")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: expected integer vertex labels") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: vertex out of range 0..{n - 1}")
        if u == v:
            raise GraphParseError(f"line {lineno}: loop '{u} {v}' not allowed")
        if (u, v) in arcs:
            raise GraphParseError(f"line {lineno}: duplicate arc '{u} {v}'")
        arcs.add((u, v))
    if n is None:
        raise GraphParseError("line 1: missing 'digraph <n>' header")
    d = Digraph(n)  # the arcs are checked above, each once
    d.arcs = frozenset(arcs)
    return d


def write_arc_list(d: Digraph) -> str:
    lines = [f"digraph {d.n}"]
    lines.extend(f"{u} {v}" for u, v in d.sorted_arcs())
    return "\n".join(lines) + "\n"


def write_dot(d: Digraph, added: int = 0) -> str:
    """DOT text for a digraph whose last ``added`` vertices came from a
    realization (they are named z1..zk; the rest keep their labels)."""
    if not 0 <= added <= d.n:
        raise ValueError(f"added count {added} out of range for {d.n} vertices")
    base = d.n - added

    def name(v: int) -> str:
        return str(v) if v < base else f"z{v - base + 1}"

    lines = ["digraph {"]
    lines.extend(f"  {name(v)};" for v in range(d.n))
    lines.extend(f"  {name(u)} -> {name(v)};" for u, v in d.sorted_arcs())
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- generators --------------------------------------------------------------


def edgeless_graph(n: int) -> Graph:
    return Graph(n)


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1), consecutive labels adjacent."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """Cycle in label order, closing the edge (0, n-1)."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def complete_multipartite_graph(parts: Sequence[int]) -> Graph:
    """Parts occupy consecutive label blocks; edges join distinct parts."""
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"part sizes must be positive, got {list(parts)}")
    n = sum(parts)
    block = []
    start = 0
    for p in parts:
        block.append(range(start, start + p))
        start += p
    edges = (
        (u, v)
        for a, b in combinations(range(len(parts)), 2)
        for u in block[a]
        for v in block[b]
    )
    return Graph(n, edges)


def star_graph(leaves: int) -> Graph:
    """Center is vertex 0, leaves are 1..m."""
    if leaves < 0:
        raise ValueError("leaf count must be nonnegative")
    return complete_multipartite_graph([1, leaves]) if leaves else Graph(1)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Uniform G(n, p).  Each pair (i, j), i < j, is examined in lexicographic
    order; reproducible for a fixed seed, and the first of random_graphs'
    stream for that seed."""
    return random_graphs(n, p, seed, 1)[0]


def random_graphs(n: int, p: float, seed: int, count: int) -> list[Graph]:
    """A reproducible stream of ``count`` draws from G(n, p), all fed by one
    generator seeded once."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    return [Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)) for _ in range(count)]


GENERATOR_FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "star": star_graph,
    "multipartite": complete_multipartite_graph,
    "edgeless": edgeless_graph,
    "random": random_graph,
}


def _whole(x: float) -> int:
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"expected a whole number, got {x}")
    return int(x)


def generate(family: str, params: Sequence[float], seed: int | None = None) -> Graph:
    """Dispatch a named family after checking its parameters: one whole count,
    or whole part sizes for multipartite, or a whole n, a p and a seed for
    random.  Deterministic for fixed parameters and seed."""
    if family not in GENERATOR_FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(GENERATOR_FAMILIES)}")
    if family == "random":
        if len(params) != 2:
            raise ValueError("random family takes parameters n,p")
        if seed is None:
            raise ValueError("random family requires a seed")
        return random_graph(_whole(params[0]), float(params[1]), seed)
    ints = [_whole(x) for x in params]
    if family == "multipartite":
        return complete_multipartite_graph(ints)
    if len(ints) != 1:
        raise ValueError(f"{family} family takes one parameter, got {len(ints)}")
    return GENERATOR_FAMILIES[family](ints[0])


def all_labeled_graphs(n: int, force: bool = False) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices, exactly once, in increasing
    order of the upper-triangle mask whose bit k is pair k in graph6 column
    order: the order of _labeled_codes.

    There are 2^(n(n-1)/2) of them, so n > 6 is refused unless force=True.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > MAX_ENUMERATION_VERTICES and not force:
        raise ValueError(
            f"{2 ** (n * (n - 1) // 2)} graphs on {n} vertices; pass force=True to enumerate anyway"
        )
    for code in _labeled_codes(n):
        yield _rows_graph(_code_rows(n, code))
