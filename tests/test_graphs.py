import random
import tracemalloc
from itertools import combinations, islice

import networkx as nx
import pytest

from compnum import (
    CycleError,
    Digraph,
    Graph,
    GraphParseError,
    all_labeled_graphs,
    competition_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    edgeless_graph,
    generate,
    is_acyclic,
    parse_arc_list,
    parse_graph6,
    path_graph,
    random_graph,
    star_graph,
    topological_order,
    verify_realization,
    write_arc_list,
    write_dot,
    write_graph6,
)
from compnum import graphs
from oracles import (
    adjacency_masks,
    bitlist_parse_graph6,
    dense_tables,
    dense_topological_order,
    dense_verify_reason,
    inline_canonical_key,
    literal_all_labeled_graphs,
    packer_write_graph6,
    unlabeled_classes,
)


def class_key(g):
    return graphs._rows_key(adjacency_masks(g))


# -- graph6 --------------------------------------------------------------------


class TestGraph6:
    def test_parse_triangle(self):
        g = parse_graph6("Bw")
        assert g.n == 3
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_parse_k4(self):
        g = parse_graph6("C~")
        assert g == complete_graph(4)

    def test_parse_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.edge_count == 0

    def test_write_triangle(self):
        assert write_graph6(complete_graph(3)) == "Bw"

    def test_write_single_vertex(self):
        assert write_graph6(Graph(1)) == "@"

    def test_write_c4(self):
        # bits 101101 -> 45, 45 + 63 = 108 = 'l'
        assert write_graph6(cycle_graph(4)) == "Cl"

    def test_trailing_newline_tolerated(self):
        assert parse_graph6("Bw\n") == complete_graph(3)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "byte 0"),
            ("~A?", "byte 0"),  # 63-vertex header form is unsupported
            (chr(30) + "w", "byte 0"),
            ("B" + chr(200), "byte 1"),
            ("Bww", "byte 2"),  # trailing garbage
            ("C", "byte 1"),  # truncated body
            ("Bx", "padding"),  # 111001: nonzero padding bit
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(GraphParseError, match=fragment):
            parse_graph6(text)

    def test_round_trip_all_small(self, graphs_up_to_3, graphs_4, graphs_5):
        for g in graphs_up_to_3 + graphs_4 + graphs_5:
            assert parse_graph6(write_graph6(g)) == g

    def test_matches_reference_encoder(self, graphs_4):
        for g in graphs_4:
            ref = nx.Graph()
            ref.add_nodes_from(range(g.n))
            ref.add_edges_from(g.edges())
            expected = nx.to_graph6_bytes(ref, nodes=sorted(ref), header=False)
            assert write_graph6(g).encode() + b"\n" == expected

    def test_matches_reference_decoder(self, graphs_4):
        for g in graphs_4:
            decoded = nx.from_graph6_bytes(write_graph6(g).encode())
            assert sorted(decoded.nodes()) == list(range(g.n))
            assert sorted(tuple(sorted(e)) for e in decoded.edges()) == g.edges()


def outcome(fn, text):
    """fn(text), or the type and message of what it raised."""
    try:
        return fn(text)
    except Exception as err:
        return type(err), str(err)


class TestGraph6AgainstBitLists:
    """The graph6 codec must act exactly as the bit-list references in
    tests/oracles.py."""

    @staticmethod
    def check_graph(g):
        text = write_graph6(g)
        assert text == packer_write_graph6(g)
        assert parse_graph6(text) == bitlist_parse_graph6(text) == g

    @staticmethod
    def check_text(text):
        assert outcome(parse_graph6, text) == outcome(bitlist_parse_graph6, text), repr(text)

    def test_every_labeled_graph_up_to_6(self):
        for n in range(7):
            for g in all_labeled_graphs(n):
                self.check_graph(g)

    def test_seeded_draws_with_7_to_62_vertices(self):
        rng = random.Random(12)
        for _ in range(300):
            g = random_graph(rng.randint(7, 62), rng.random(), seed=rng.randrange(10**6))
            self.check_graph(g)

    def test_every_header_byte(self):
        for header in map(chr, range(256)):
            n = ord(header) - 63
            nbytes = (n * (n - 1) // 2 + 5) // 6 if 0 <= n <= 62 else 1
            for body in ("", "?", "~", "?" * nbytes, "~" * nbytes, "?" * (nbytes + 1), "?" * nbytes + "\n"):
                self.check_text(header + body)

    def test_seeded_bodies_near_the_right_length(self):
        rng = random.Random(2012)
        for _ in range(4000):
            n = rng.randint(0, 62)
            nbytes = (n * (n - 1) // 2 + 5) // 6
            length = max(0, nbytes + rng.randint(-2, 2))
            # mostly in-range data bytes, so the padding check is reached
            body = "".join(chr(rng.randint(63, 126) if rng.random() < 0.98 else rng.randint(0, 300))
                           for _ in range(length))
            self.check_text(chr(63 + n) + body)


# -- graph basics ----------------------------------------------------------------


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="62"):
            Graph(63)

    def test_empty_graph_is_legal(self):
        g = Graph(0)
        assert g.edges() == []
        assert g.closed_neighborhood([]) == frozenset()
        assert g.incident_edges([]) == frozenset()
        assert g.is_clique([])

    def test_open_neighborhood(self):
        p3 = path_graph(3)
        assert p3.neighbors(1) == {0, 2}
        assert complete_graph(4).neighbors(0) == {1, 2, 3}
        assert edgeless_graph(3).neighbors(2) == frozenset()
        with pytest.raises(ValueError):
            p3.neighbors(3)

    def test_closed_neighborhood(self):
        p3 = path_graph(3)
        assert p3.closed_neighborhood([0]) == {0, 1}
        c4 = cycle_graph(4)
        assert c4.closed_neighborhood([0, 2]) == {0, 1, 2, 3}
        assert c4.closed_neighborhood(range(4)) == frozenset(range(4))

    def test_incident_edges(self):
        p3 = path_graph(3)
        assert p3.incident_edges([0]) == {(0, 1)}
        c4 = cycle_graph(4)
        assert c4.incident_edges([0, 1]) == {(0, 1), (0, 3), (1, 2)}

    def test_incident_edges_of_all_vertices_is_edge_set(self, graphs_4):
        for g in graphs_4:
            assert g.incident_edges(range(g.n)) == frozenset(g.edges())

    def test_induced_subgraph(self):
        sub, relabel = complete_graph(4).induced_subgraph([0, 1, 2])
        assert sub == complete_graph(3)
        assert relabel == {0: 0, 1: 1, 2: 2}
        sub, relabel = cycle_graph(4).induced_subgraph([0, 1, 2])
        assert sub == path_graph(3)
        sub, _ = cycle_graph(4).induced_subgraph([])
        assert sub.n == 0

    def test_induced_subgraph_relabels_in_order(self):
        sub, relabel = cycle_graph(4).induced_subgraph([3, 1, 2])
        assert relabel == {1: 0, 2: 1, 3: 2}
        assert sub.edges() == [(0, 1), (1, 2)]

    def test_is_clique(self):
        assert complete_graph(4).is_clique([0, 1, 2])
        assert not cycle_graph(4).is_clique([0, 2])
        assert cycle_graph(4).is_clique([1])
        assert cycle_graph(4).is_clique([])

    def test_incident_edges_inside_closed_neighborhood(self, graphs_4):
        # every edge touching U lies in the subgraph induced on the closed
        # neighborhood of U
        for g in graphs_4:
            for mask in range(1 << g.n):
                u = [v for v in range(g.n) if (mask >> v) & 1]
                region = g.closed_neighborhood(u)
                sub, relabel = g.induced_subgraph(region)
                sub_edges = {(relabel[a], relabel[b]) for a, b in g.incident_edges(u)}
                assert sub_edges <= set(sub.edges())

    def test_neighborhood_monotone(self, graphs_4):
        rng = random.Random(11)
        for g in graphs_4:
            small = frozenset(v for v in range(g.n) if rng.random() < 0.4)
            big = small | frozenset(v for v in range(g.n) if rng.random() < 0.4)
            assert g.closed_neighborhood(small) <= g.closed_neighborhood(big)
            assert g.incident_edges(small) <= g.incident_edges(big)


# -- digraphs and the arc-list format ---------------------------------------------


class TestArcList:
    def test_parse_basic(self):
        d = parse_arc_list("digraph 3\n0 2\n1 2")
        assert d.n == 3 and d.arcs == {(0, 2), (1, 2)}

    def test_parse_no_arcs(self):
        d = parse_arc_list("digraph 2\n")
        assert d.n == 2 and d.arcs == frozenset()

    def test_comments_and_blank_lines(self):
        d = parse_arc_list("# witness\ndigraph 2\n\n0 1  # forward\n")
        assert d.arcs == {(0, 1)}

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("graph 2\n0 1", "line 1"),
            ("digraph x\n", "line 1"),
            ("digraph ²\n", "^line 1: expected 'digraph <n>' header$"),  # a digit int() rejects
            ("digraph 2\n0 0", "line 2: loop"),
            ("digraph 2\n0 1\n0 1", "line 3: duplicate"),
            ("digraph 2\n0 5", "line 2: vertex out of range"),
            ("digraph 2\n0 1 2", "line 2"),
            ("", "header"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(GraphParseError, match=fragment):
            parse_arc_list(text)

    def test_each_arc_is_checked_once(self, monkeypatch):
        # the parser's own checks name the line; Digraph.__init__ would
        # check every arc a second time
        calls = []
        check = graphs._check_vertex
        monkeypatch.setattr(graphs, "_check_vertex", lambda n, v: calls.append(v) or check(n, v))
        d = parse_arc_list("digraph 4\n0 2\n1 2\n3 0\n")
        assert calls == []
        assert d.n == 4 and d.arcs == {(0, 2), (1, 2), (3, 0)}

    def test_round_trip(self):
        d = Digraph(4, [(0, 2), (1, 2), (3, 0)])
        assert parse_arc_list(write_arc_list(d)) == d

    def test_digraph_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Digraph(2, [(1, 1)])

    def test_dot_output_names_added_vertices(self):
        d = Digraph(3, [(0, 2), (1, 2)])
        dot = write_dot(d, added=1)
        assert "0 -> z1;" in dot and "1 -> z1;" in dot
        assert dot.startswith("digraph {")


class TestTopologicalOrder:
    def test_shared_prey(self):
        assert topological_order(Digraph(3, [(0, 2), (1, 2)])) == [0, 1, 2]

    def test_two_cycle(self):
        with pytest.raises(CycleError) as info:
            topological_order(Digraph(2, [(0, 1), (1, 0)]))
        assert info.value.cycle in ([0, 1], [1, 0])

    def test_no_arcs_breaks_ties_by_label(self):
        assert topological_order(Digraph(3)) == [0, 1, 2]

    def test_smallest_available_first(self):
        assert topological_order(Digraph(4, [(3, 0), (3, 1)])) == [2, 3, 0, 1]

    def test_cycle_is_reported_as_a_real_cycle(self):
        d = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)])
        with pytest.raises(CycleError) as info:
            topological_order(d)
        cyc = info.value.cycle
        assert len(cyc) >= 2
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert (a, b) in d.arcs

    def test_order_property_on_random_digraphs(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randrange(1, 9)
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and rng.random() < 0.25
            ]
            d = Digraph(n, arcs)
            try:
                order = topological_order(d)
            except CycleError as err:
                cyc = err.cycle
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    assert (a, b) in d.arcs
                continue
            pos = {v: i for i, v in enumerate(order)}
            assert sorted(order) == list(range(n))
            for u, v in d.arcs:
                assert pos[u] < pos[v]
            assert is_acyclic(d)


class TestArcWalkAgainstDenseTables:
    def test_seeded_random_digraphs_agree(self):
        rng = random.Random(11)
        cyclic = 0
        for _ in range(5000):
            n = rng.randrange(0, 12)
            p = rng.choice([0.05, 0.15, 0.3])
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
            if rng.random() < 0.5:
                arcs = [(u, v) for u, v in arcs if u < v]
            d = Digraph(n, arcs)
            try:
                expected = dense_topological_order(d)
            except CycleError as err:
                cyclic += 1
                with pytest.raises(CycleError) as info:
                    topological_order(d)
                assert info.value.cycle == err.cycle
                assert not is_acyclic(d)
            else:
                assert topological_order(d) == expected
                assert is_acyclic(d)
            out, inn = dense_tables(d)
            for v in range(n):
                assert d.out_neighbors(v) == out[v] and d.in_neighbors(v) == inn[v]
            k = rng.randrange(0, n + 1)
            if rng.random() < 0.5:  # often a realization, or close to one
                g = competition_graph(d).induced_subgraph(range(n - k))[0]
            else:
                pairs = combinations(range(n - k), 2)
                g = Graph(n - k, [e for e in pairs if rng.random() < 0.3])
            assert verify_realization(g, k, d).reason == dense_verify_reason(g, k, d)
        assert cyclic > 500  # cycles are exercised, not just orders


# -- generators ----------------------------------------------------------------


class TestGenerators:
    def test_cycle(self):
        assert cycle_graph(4).edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_star_is_multipartite_1_3(self):
        assert complete_multipartite_graph([1, 3]) == star_graph(3)
        assert star_graph(3).edges() == [(0, 1), (0, 2), (0, 3)]

    def test_path_of_two_is_an_edge(self):
        assert path_graph(2) == complete_graph(2)

    def test_multipartite_blocks_are_consecutive(self):
        g = complete_multipartite_graph([2, 2])
        assert g.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_random_is_reproducible(self):
        a = random_graph(8, 0.5, seed=7)
        b = random_graph(8, 0.5, seed=7)
        assert a == b
        assert a != random_graph(8, 0.5, seed=8)

    def test_generate_dispatch(self):
        assert generate("cycle", [4]) == cycle_graph(4)
        assert generate("multipartite", [1, 3]) == star_graph(3)
        assert generate("path", [2]) == complete_graph(2)
        with pytest.raises(ValueError, match="unknown family"):
            generate("moebius", [5])
        with pytest.raises(ValueError, match="seed"):
            generate("random", [5, 0.5])

    def test_generate_checks_parameter_count_and_wholeness(self):
        assert generate("cycle", [4.0]) == cycle_graph(4)
        assert generate("random", [5.0, 0.5], seed=3) == random_graph(5, 0.5, seed=3)
        for family, params in [("cycle", [4, 5]), ("path", []), ("random", [5]), ("multipartite", [])]:
            with pytest.raises(ValueError):
                generate(family, params, seed=1)
        for family, params in [("cycle", [3.5]), ("multipartite", [2, 2.5]), ("random", [5.5, 0.5])]:
            with pytest.raises(ValueError, match="whole number"):
                generate(family, params, seed=1)

    @pytest.mark.parametrize(
        "family,params",
        [("path", [10**6]), ("cycle", [10**6]), ("multipartite", [10**3, 10**3]), ("random", [10**5, 0.5])],
    )
    def test_oversized_family_is_refused_before_its_edges_are_built(self, family, params):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="at most 62 vertices"):
                generate(family, params, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)


class TestAllLabeledGraphs:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 8), (5, 1024), (6, 32768)])
    def test_counts(self, n, count):
        assert sum(1 for _ in all_labeled_graphs(n)) == count

    # n = 7 on its first 200 graphs only: all 2^21 would take too long
    CASES = [(n, None) for n in range(7)] + [(7, 200)]

    @pytest.mark.parametrize("n,first", CASES)
    def test_matches_the_per_pair_enumeration(self, n, first):
        got = islice(all_labeled_graphs(n, force=True), first)
        expected = islice(literal_all_labeled_graphs(n), first)
        assert [(g.n, g.rows) for g in got] == [(g.n, g.rows) for g in expected]

    @pytest.mark.parametrize("n,first", CASES)
    def test_lines_from_the_codes_are_the_written_lines(self, n, first):
        lines = [graphs._graph6_text(n, code) for code in islice(graphs._labeled_codes(n), first)]
        expected = list(islice(literal_all_labeled_graphs(n), first))
        assert lines == [write_graph6(g) for g in expected]
        assert [graphs._graph6_rows(text) for text in lines] == [list(g.rows) for g in expected]

    def test_lines_at_the_ends(self):
        assert [graphs._graph6_text(0, code) for code in graphs._labeled_codes(0)] == ["?"]
        assert [graphs._graph6_text(1, code) for code in graphs._labeled_codes(1)] == ["@"]

    def test_order_is_increasing_bit_pattern(self):
        graphs = list(all_labeled_graphs(3))
        assert graphs[0] == edgeless_graph(3)
        assert graphs[-1] == complete_graph(3)
        assert graphs[1].edges() == [(0, 1)]  # lowest-order bit is the pair (0, 1)

    def test_no_duplicates(self, graphs_4):
        assert len(set(graphs_4)) == 64

    def test_refuses_large_without_force(self):
        with pytest.raises(ValueError, match="force"):
            next(all_labeled_graphs(7))
        assert next(all_labeled_graphs(7, force=True)) == edgeless_graph(7)


class TestCanonicalKey:
    @staticmethod
    def to_nx(g):
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges())
        return ref

    @pytest.mark.parametrize("n,classes", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
    def test_equal_keys_iff_isomorphic(self, n, classes):
        by_key = {}
        for g in all_labeled_graphs(n):
            by_key.setdefault(class_key(g), []).append(self.to_nx(g))
        assert None not in by_key and len(by_key) == classes
        for members in by_key.values():
            assert all(nx.is_isomorphic(members[0], h) for h in members[1:])
        firsts = [members[0] for members in by_key.values()]
        for i, a in enumerate(firsts):
            assert not any(nx.is_isomorphic(a, b) for b in firsts[i + 1:])

    @pytest.mark.parametrize("n,codes", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 16), (5, 84), (6, 936)])
    def test_degree_ordered_codes_name_the_class(self, n, codes):
        # the survey memo holds degree-ordered codes next to class keys: a
        # code must name a graph of the row's class, so rows with equal
        # codes have equal keys
        keys = {}
        for g in all_labeled_graphs(n):
            rows = adjacency_masks(g)
            keys.setdefault(graphs._pattern(rows, graphs._degree_cells(rows)), set()).add(graphs._rows_key(rows))
        assert len(keys) == codes
        for code, found in keys.items():
            assert found == {graphs._rows_key(graphs._code_rows(n, code))}

    def test_one_vertex_extension_meets_the_known_class_counts(self):
        # OEIS A000088.  The extension keeps the first graph met per key, so
        # a key that merged two classes or split one past n = 6, where the
        # labeled graphs above run out, would miss a count.
        counts = [len(unlabeled_classes(n)) for n in range(8)]
        assert counts == [1, 1, 2, 4, 11, 34, 156, 1044]
        assert not any(None in unlabeled_classes(n) for n in range(8))

    @pytest.mark.parametrize("n,p", [(8, 0.5), (10, 0.3)])
    def test_relabelings_share_the_key(self, n, p):
        rng = random.Random(2012)
        keyed = 0
        for seed in range(4):
            g = random_graph(n, p, seed=seed)
            key = class_key(g)
            keyed += key is not None
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
                assert class_key(h) == key
        assert keyed  # the draws are not all too symmetric to key

    @staticmethod
    def relabeled(g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])

    @staticmethod
    def disjoint_copies(g, copies):
        return Graph(g.n * copies, [(u + g.n * i, v + g.n * i) for i in range(copies) for u, v in g.edges()])

    @pytest.mark.parametrize("n,classes", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
    def test_same_classes_as_the_reference_key(self, n, classes, monkeypatch):
        # 12 leaves key every graph on at most 6 vertices (C6 needs them all)
        monkeypatch.setattr(graphs, "_MAX_LEAVES", 12)
        pairs = {(class_key(g), inline_canonical_key(g)) for g in all_labeled_graphs(n)}
        keys, references = zip(*pairs)
        assert None not in keys
        assert len(set(keys)) == len(set(references)) == len(pairs) == classes

    def test_seeded_draws_share_the_key_under_relabeling(self):
        rng = random.Random(12)
        keyed = 0
        for _ in range(300):
            g = random_graph(rng.randint(7, 62), rng.random(), seed=rng.randrange(10**6))
            key = class_key(g)
            keyed += key is not None
            for _ in range(2):
                assert class_key(self.relabeled(g, rng)) == key
        assert keyed > 250

    @pytest.mark.parametrize("name,g,leaves", [
        ("C6", cycle_graph(6), 12),
        ("C8", cycle_graph(8), 16),
        ("C10", cycle_graph(10), 20),
        ("K(4,4)", complete_multipartite_graph([4, 4]), 2),
        ("Petersen", parse_graph6("IheA@GUAo"), 120),
    ])
    def test_symmetric_graphs_within_the_bound_are_keyed(self, name, g, leaves, monkeypatch):
        key = class_key(g)
        assert key is not None and key[0] == g.n
        rng = random.Random(leaves)
        assert all(class_key(self.relabeled(g, rng)) == key for _ in range(3))
        # the search tree has exactly this many leaves
        monkeypatch.setattr(graphs, "_MAX_LEAVES", leaves - 1)
        assert class_key(g) is None
        monkeypatch.setattr(graphs, "_MAX_LEAVES", leaves)
        assert class_key(g) == key

    def test_highly_symmetric_graph_is_not_keyed(self):
        # four disjoint 5-cycles: 20 * 2 * 15 * 2 * 10 * 2 * 5 * 2 leaves
        g = self.disjoint_copies(cycle_graph(5), 4)
        rng = random.Random(4)
        assert class_key(g) is None
        assert all(class_key(self.relabeled(g, rng)) is None for _ in range(3))

    def test_a_graph_past_the_bound_is_refused_early(self, monkeypatch):
        # every queued node holds a leaf of its own, so the search gives up
        # before it has refined as many partitions as the bound allows leaves
        refine, calls = graphs._refine, []
        monkeypatch.setattr(graphs, "_refine", lambda *args: calls.append(args) or refine(*args))
        for g, copies in ((cycle_graph(5), 4), (path_graph(2), 31), (complete_graph(3), 20)):
            calls.clear()
            assert class_key(self.disjoint_copies(g, copies)) is None
            assert len(calls) < graphs._MAX_LEAVES
