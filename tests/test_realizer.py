import gc
import hashlib
import random
import sys
import tracemalloc
from itertools import combinations

import networkx as nx
import pytest

from compnum import (
    BudgetExceededError,
    Digraph,
    Graph,
    RealizationWitness,
    competition_graph,
    competition_number,
    complete_graph,
    complete_multipartite_graph,
    cover_from_witness,
    cycle_graph,
    edge_clique_cover_number,
    edgeless_graph,
    find_realization,
    general_bound,
    is_acyclic,
    parse_arc_list,
    parse_graph6,
    path_graph,
    random_graphs,
    verify_realization,
)
from compnum import realizer
from compnum.covers import _Cliques, _certified_cover, _min_cover, _oracle, _search
from oracles import has_triangle, is_connected, least_budget, level_node_counts, literal_find_realization


class TestCompetitionGraph:
    def test_shared_prey_makes_an_edge(self):
        c = competition_graph(Digraph(3, [(0, 2), (1, 2)]))
        assert c.edges() == [(0, 1)]
        assert c.neighbors(2) == frozenset()

    def test_no_arcs(self):
        assert competition_graph(Digraph(4)) == edgeless_graph(4)

    def test_directed_triangle_has_no_competition(self):
        c = competition_graph(Digraph(3, [(0, 1), (1, 2), (2, 0)]))
        assert c == edgeless_graph(3)

    def test_matches_pairwise_definition_on_random_digraphs(self):
        # direct double loop over vertex pairs testing shared out-neighbors
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randrange(1, 11)
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and rng.random() < 0.3
            ]
            d = Digraph(n, arcs)
            expected = [
                (x, y)
                for x, y in combinations(range(n), 2)
                if d.out_neighbors(x) & d.out_neighbors(y)
            ]
            assert competition_graph(d).edges() == expected

    def test_oversized_header_is_refused_without_a_per_vertex_table(self):
        d = Digraph(10**5, [(0, 1)])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="at most 62 vertices"):
                competition_graph(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_checks_cost_what_the_arcs_hold_not_the_header():
    one_arc = Digraph(10**6 + 1, [(0, 1)])
    two_cycle = Digraph(10**6, [(0, 1), (1, 0)])
    tracemalloc.start()
    try:
        ok = verify_realization(Graph(1), 10**6, one_arc)
        verify_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        acyclic = is_acyclic(two_cycle)
        cycle_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and not acyclic
    assert verify_peak < 1 << 20 and cycle_peak < 1 << 20


class TestVerifyRealization:
    def test_k2_with_one_added_prey(self):
        ok = verify_realization(complete_graph(2), 1, Digraph(3, [(0, 2), (1, 2)]))
        assert ok and ok.reason is None

    def test_k2_without_help_never_works(self):
        # all four loop-free digraphs on two vertices
        for arcs in [[], [(0, 1)], [(1, 0)], [(0, 1), (1, 0)]]:
            assert not verify_realization(complete_graph(2), 0, Digraph(2, arcs))

    def test_edgeless_realizes_itself(self):
        assert verify_realization(edgeless_graph(3), 0, Digraph(3))

    def test_cycle_diagnostic(self):
        result = verify_realization(complete_graph(2), 0, Digraph(2, [(0, 1), (1, 0)]))
        assert not result and result.reason.startswith("cycle found")

    def test_missing_edge_diagnostic(self):
        result = verify_realization(complete_graph(2), 1, Digraph(3))
        assert result.reason == "missing edge 0-1"

    def test_extra_edge_diagnostic(self):
        g = Graph(3, [(0, 1)])
        d = Digraph(3, [(0, 2), (1, 2)])  # also needs edge 0-1: fine
        assert verify_realization(g, 0, d)
        d_bad = Digraph(4, [(0, 3), (1, 3), (0, 2), (1, 2)])
        result = verify_realization(Graph(4, [(0, 1), (2, 3)]), 0, d_bad)
        assert result.reason == "missing edge 2-3"

    def test_non_isolated_added_vertex_diagnostic(self):
        g = complete_graph(2)
        # prey 2 gives the required edge 0-1, but prey 3 joins 0 with the
        # added vertex 2, so 2 is not isolated
        d = Digraph(4, [(0, 2), (1, 2), (0, 3), (2, 3)])
        result = verify_realization(g, 2, d)
        assert result.reason == "non-isolated added vertex 2 (edge 0-2)"

    def test_extra_edge_between_originals(self):
        g = Graph(3, [(0, 1)])
        d = Digraph(4, [(0, 3), (1, 3), (1, 2), (2, 3)])
        # competition graph has edges 01, 02, 12 among originals
        result = verify_realization(g, 1, d)
        assert result.reason in ("extra edge 0-2", "extra edge 1-2")

    def test_size_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="vertices"):
            verify_realization(complete_graph(2), 1, Digraph(2))
        with pytest.raises(ValueError, match="k must be"):
            verify_realization(complete_graph(2), -1, Digraph(1))

    def test_witness_beyond_the_graph_vertex_cap(self):
        # P62 plus one added vertex: vertex i + 2 is fed by {i, i + 1}
        arcs = [(i, i + 2) for i in range(60)] + [(i + 1, i + 2) for i in range(60)] + [(60, 62), (61, 62)]
        assert verify_realization(path_graph(62), 1, Digraph(63, arcs))
        assert verify_realization(path_graph(62), 1, Digraph(63, arcs[:-1])).reason == "missing edge 60-61"


class TestFindRealization:
    def test_c4_feasible_with_two(self):
        w = find_realization(cycle_graph(4), 2)
        assert w is not None and w.k == 2
        assert verify_realization(cycle_graph(4), 2, w.digraph)

    def test_c4_infeasible_with_one(self):
        assert find_realization(cycle_graph(4), 1) is None

    def test_single_vertex_needs_nothing(self):
        w = find_realization(Graph(1), 0)
        assert w is not None
        assert w.digraph == Digraph(1)
        assert w.ordering == (0,)

    def test_monotone_in_k(self, graphs_up_to_3):
        for g in graphs_up_to_3:
            if g.n == 0:
                continue
            for k in range(3):
                if find_realization(g, k) is not None:
                    assert find_realization(g, k + 1) is not None

    def test_budget_exhaustion_is_not_infeasibility(self):
        # at k = 2 the search is nontrivial, so two nodes cannot finish it
        with pytest.raises(BudgetExceededError):
            find_realization(cycle_graph(4), 2, budget=2)

    def test_tiny_infeasible_searches_fit_tiny_budgets(self):
        # at k = 1 the pruning bound refutes the cycle immediately; a
        # conclusive answer inside the budget is not an exhaustion
        assert find_realization(cycle_graph(4), 1, budget=3) is None

    def test_added_vertices_have_no_out_arcs_and_come_last(self):
        w = find_realization(cycle_graph(4), 2)
        n = w.original_count
        for u, v in w.digraph.arcs:
            assert u < n
        assert w.ordering[n:] == (4, 5)
        position = {v: i for i, v in enumerate(w.ordering)}
        for u, v in w.digraph.arcs:
            assert position[u] < position[v]

    # The search order, pinned: the fewest nodes each level needs (it
    # succeeds with that budget and runs out one below it) and the witness
    # found.  The benchmark checks neither, only k.
    @pytest.mark.parametrize(
        "g, k, nodes, arcs, ordering",
        [
            (cycle_graph(5), 1, 1, None, None),
            (cycle_graph(5), 2, 9, "0 2|0 5|1 2|1 3|2 3|2 4|3 4|3 6|4 5|4 6", (0, 1, 2, 3, 4, 5, 6)),
            (complete_multipartite_graph([3, 3, 2]), 3, 91, None, None),
            (
                complete_multipartite_graph([3, 3, 2]), 4, 549,
                "0 2|0 3|0 4|0 8|1 5|1 6|1 9|2 7|2 10|2 11|3 4|3 5|3 10|4 2|4 6|4 11|"
                "5 7|5 8|5 9|6 2|6 5|6 7|7 8|7 9|7 10|7 11",
                (0, 1, 3, 4, 6, 2, 5, 7, 8, 9, 10, 11),
            ),
            (random_graphs(8, 0.5, 11, 1)[0], 0, 61, None, None),
            (
                random_graphs(8, 0.5, 11, 1)[0], 1, 79,
                "0 3|0 4|0 6|1 2|1 4|1 6|2 8|3 5|4 3|4 7|5 2|5 8|6 2|6 5|6 7|7 2|7 3|7 5",
                (0, 1, 4, 6, 7, 3, 5, 2, 8),
            ),
        ],
    )
    def test_node_counts_and_witnesses_are_pinned(self, g, k, nodes, arcs, ordering):
        w = find_realization(g, k, budget=nodes)
        if arcs is None:
            assert w is None
        else:
            assert w.to_arc_list() == f"digraph {g.n + k}\n" + arcs.replace("|", "\n") + "\n"
            assert w.ordering == ordering
        with pytest.raises(BudgetExceededError):
            find_realization(g, k, budget=nodes - 1)

    def test_node_counts_of_every_small_labeled_graph_are_pinned(self, graphs_up_to_3, graphs_4, graphs_5):
        # The same pin over every labeled graph with 1 <= n <= 5 at every level
        # 0..k(G), each count read through the budget alone (oracles.least_budget).
        counts = [level_node_counts(g) for g in graphs_up_to_3 + graphs_4 + graphs_5 if g.n]
        assert len(counts) == 1099
        assert sum(map(sum, counts)) == 28662
        digest = hashlib.sha256(repr(counts).encode()).hexdigest()
        assert digest == "c91ce50d82a971b4fe306edb683dd76beddef5645b4bd108fad16b6423565a7f"


    @pytest.mark.parametrize(
        "g, k, raised, witness",
        [
            (Graph(0), 0, 1, True),
            (Graph(0), 2, 1, True),
            (Graph(1), 0, 2, True),
            (cycle_graph(4), 1, 1, False),  # the root's packing test refuses it
            (complete_graph(2), 0, 1, False),
            (cycle_graph(4), 2, 6, True),
        ],
    )
    def test_root_edge_cases_are_pinned(self, g, k, raised, witness):
        # The root is counted before it is tested, so a budget of 0 runs out
        # even where the root alone settles the level.
        for budget in range(raised):
            with pytest.raises(BudgetExceededError):
                find_realization(g, k, budget=budget)
        w = find_realization(g, k, budget=raised)
        assert (w is not None) == witness
        if g.n == 0:
            assert w.digraph.arcs == frozenset() and w.ordering == tuple(range(k))

    def test_children_tested_in_the_parent_match_the_search_testing_on_entry(self):
        # The same witness and the same least budget at every level 0..k(G)
        # as the search that tests each node on entry (oracles).
        cases = [
            (g, k)
            for i, (n, p) in enumerate((n, p) for n in (8, 9, 10) for p in (0.3, 0.5))
            for g in random_graphs(n, p, 2020 + i, 4)
            for k in range(competition_number(g)[0] + 1)
        ]
        cases.append((parse_graph6("KEcF`]jd_OJ@"), 1))
        for g, k in cases:
            assert find_realization(g, k) == literal_find_realization(g, k), (g.edges(), k)
            assert least_budget(g, k) == least_budget(g, k, literal_find_realization), (g.edges(), k)

    @pytest.mark.parametrize(
        "g, k, nodes",
        [
            (cycle_graph(5), 2, 9),
            (complete_multipartite_graph([3, 3, 2]), 4, 549),
            (random_graphs(8, 0.5, 11, 1)[0], 1, 79),
        ],
    )
    def test_every_budget_ends_as_on_entry_testing(self, g, k, nodes):
        # Runs of refused children are counted in one step; the budget must
        # still run out, or not, exactly where counting one node at a time
        # does, so every budget up to the least one gives the same outcome.
        def outcome(solve, budget):
            try:
                return solve(g, k, budget=budget)
            except BudgetExceededError:
                return BudgetExceededError

        assert least_budget(g, k) == nodes
        for budget in range(1, nodes + 1):
            assert outcome(find_realization, budget) == outcome(literal_find_realization, budget), budget

    def test_tail_pruning_keeps_every_answer_and_witness(
        self, graphs_up_to_3, graphs_4, graphs_5, monkeypatch
    ):
        # The tail inequality may only cut subtrees without a realization, so
        # the search must meet the same first witness, or none, with the test
        # switched off.  Every k from 0 to k(G) is compared.
        six = [Graph(6, g.edges()) for g in nx.graph_atlas_g() if g.number_of_nodes() == 6]
        assert len(six) == 156  # one graph per isomorphism class
        cases = []
        for g in graphs_up_to_3 + graphs_4 + graphs_5 + six:
            k = 0
            while True:
                cases.append((g, k, find_realization(g, k)))
                if cases[-1][2] is not None:
                    break
                k += 1
        hard = parse_graph6("KEcF`]jd_OJ@")
        cases.append((hard, 1, find_realization(hard, 1, budget=3000)))

        fits = _Cliques.fits

        def tail_off(self, edges, cap):
            # only the tail test, which feeders_of asks, is switched off
            return sys._getframe(1).f_code.co_name == "feeders_of" or fits(self, edges, cap)

        monkeypatch.setattr(_Cliques, "fits", tail_off)
        with pytest.raises(BudgetExceededError):  # the test is really off
            find_realization(hard, 1, budget=3000)
        for g, k, pruned in cases:
            assert find_realization(g, k) == pruned, (g.edges(), k)

    def test_each_cover_question_is_asked_once_per_level(
        self, graphs_up_to_3, graphs_4, graphs_5, monkeypatch
    ):
        # Within one level's search, no residual edge mask is packing-bounded
        # twice, and a leaf asks the kernel for the cover itself only when it
        # holds the witness the search returns.
        cases = [
            (g, k) for g in graphs_up_to_3 + graphs_4 + graphs_5 if g.n
            for k in range(competition_number(g)[0] + 1)
        ]
        cases.append((parse_graph6("KEcF`]jd_OJ@"), 1))
        bounded, covered = [], []
        packing_bound = _Cliques.packing_bound
        monkeypatch.setattr(
            _Cliques, "packing_bound", lambda self, edges: bounded.append(edges) or packing_bound(self, edges)
        )

        def cover(edges, family, cap):
            covered.append(edges)
            return _min_cover(edges, family, cap)

        monkeypatch.setattr(realizer, "_min_cover", cover)
        for g, k in cases:
            bounded.clear()
            covered.clear()
            w = find_realization(g, k)
            assert bounded, (g.edges(), k)
            assert len(bounded) == len(set(bounded)), (g.edges(), k)
            assert len(covered) == (w is not None), (g.edges(), k)

    def test_the_carried_masks_ask_the_same_cover_questions(self, monkeypatch):
        # A child's leaving mask is its parent's minus the edges the placed
        # vertex closes, not gathered from the unplaced vertices.  A wrong
        # mask that kept every witness would still change a tail question,
        # so every level 0..k(G) must ask fits the (edges, cap) sequence of
        # the search that gathers it with edges_at at every prefix (oracles).
        asked = []
        fits = _Cliques.fits

        def spy(self, edges, cap):
            asked.append((edges, cap))
            return fits(self, edges, cap)

        monkeypatch.setattr(_Cliques, "fits", spy)
        graphs = [g for i, (n, p) in enumerate((n, p) for n in range(8, 13) for p in (0.3, 0.5))
                  for g in random_graphs(n, p, 2300 + i, 2)]
        questions = 0
        for g in graphs:
            for k in range(competition_number(g)[0] + 1):
                asked.clear()
                w = find_realization(g, k)
                carried = asked[:]
                asked.clear()
                assert literal_find_realization(g, k) == w, (g.edges(), k)
                assert carried == asked, (g.edges(), k)
                questions += len(asked)
        assert questions

    def test_witness_on_63_vertices(self):
        g = path_graph(62)
        w = find_realization(g, 1)
        assert w is not None and w.digraph.n == 63
        cover = cover_from_witness(g, w, 62)
        assert cover.size == 62 and cover.covers_target()


class TestCompetitionNumber:
    def test_k2(self):
        k, w = competition_number(complete_graph(2))
        assert k == 1
        assert verify_realization(complete_graph(2), 1, w.digraph)

    def test_c4(self):
        k, _ = competition_number(cycle_graph(4))
        assert k == 2

    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete_graphs(self, n):
        # the general bound says at least 1, the witness proves at most 1
        g = complete_graph(n)
        assert general_bound(g).general == 1
        k, w = competition_number(g)
        assert k == 1 and verify_realization(g, 1, w.digraph)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_paths(self, n):
        g = path_graph(n)
        assert general_bound(g).general >= 1
        k, w = competition_number(g)
        assert k == 1 and verify_realization(g, 1, w.digraph)

    def test_triangle_free_formula_beyond_brute_force(self):
        # A connected triangle-free graph on n >= 2 vertices has k = |E| - |V|
        # + 2 (Roberts 1978); from k = 0, every level below it is refuted.
        def q3() -> Graph:
            return Graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b])

        graphs = [
            complete_multipartite_graph([3, 3]),
            complete_multipartite_graph([3, 4]),
            complete_multipartite_graph([4, 4]),
            q3(),
            cycle_graph(9),
        ]
        rng = random.Random(1978)
        while len(graphs) < 45:
            n = rng.randrange(4, 12)
            adj = [set() for _ in range(n)]
            for v in range(1, n):  # a random spanning tree keeps it connected
                u = rng.randrange(v)
                adj[u].add(v)
                adj[v].add(u)
            for u, v in combinations(range(n), 2):
                if v not in adj[u] and not adj[u] & adj[v] and rng.random() < 0.3:
                    adj[u].add(v)
                    adj[v].add(u)
            graphs.append(Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v]))
        for g in graphs:
            assert is_connected(g) and not has_triangle(g)
            k, w = competition_number(g, start_k=0)
            assert k == g.edge_count - g.n + 2, g.edges()
            assert verify_realization(g, k, w.digraph)

    # bench/workloads.py's exact corpus, as graph6
    EXACT_START0 = r"""
        GGeO?C G?aC?? GVGAO_ GCWEQK GDIweo G?GPSG GW^bAg GMJm{o GoFCao GNFjOw
        GZaw^[ Gc_HSc IOeO@w?`? IABSVb|rg IH?GgLABO IG?ce_k_? I_{hh@G`?
        IFa_]`_?O IlluBh@jo IL{TQY]IG IdBSuQaB? Ig\yllARw Iaf?Mt]nG IXbTBf`RG
        KASCE@g_Wf?C K?yFWCep?LkM K?o|fHvh@Guz K_yw@b`EQ`sF KSoiy?IOA\NO
        KM@O@XaJ?OEC KeKV?EWvQNPk KuvuLKDSBYOp KTdF^rKLyTSK KEPK][kGYMQs
        Ks?IT\zBEP~K KI?~FM|`Aw}^ G~cOJ[ GYUS{c HoUO{?R HjF[XSV IBlE?G@[?
        I?Z_yoIMW GhCGKC GhCGGC GFzf~w
    """.split()

    def test_answers_on_the_exact_corpus_are_pinned(self):
        # Every solved input's witness bytes and every exhausted input's
        # lower bound, from k = 0 with a budget of 20,000 nodes per level.
        assert len(self.EXACT_START0) == 45
        parts = []
        for text in self.EXACT_START0:
            try:
                parts.append(competition_number(parse_graph6(text), start_k=0, budget=20000)[1].to_arc_list())
            except BudgetExceededError as err:
                parts.append(f"k >= {err.lower_bound}\n")
        assert sum(p.startswith("digraph") for p in parts) == 40
        digest = hashlib.sha256("".join(parts).encode()).hexdigest()
        assert digest == "18feb2f7ad0bb1e20890e3fe1e99892df014950fc4d5f9f1fed7ce1820b946b7"

    def test_the_bound_phase_changes_no_outcome_on_the_exact_corpus(self):
        # With start_k None the bound phase fills the oracle's table before
        # the first level runs, and its entries answer the levels' tail tests;
        # each outcome must be the one the search from k = 0 reaches.
        def outcome(g, start_k):
            try:
                k, witness = competition_number(g, start_k=start_k, budget=20000)
            except BudgetExceededError as err:
                return f"k >= {err.lower_bound}"
            return k, witness.to_arc_list()

        for text in self.EXACT_START0:
            g = parse_graph6(text)
            assert outcome(g, None) == outcome(g, 0), text

    def test_no_existence_search_repeats_within_one_solve(
        self, graphs_up_to_3, graphs_4, graphs_5, monkeypatch
    ):
        # The bound phase and every level ask one cover oracle, whose table
        # keeps each existence search's outcome, so within one solve no
        # (universe, barrier) is searched for a cover within a cap twice.
        # Minimum searches (goal -1) may repeat: a later, larger cap on the
        # same mask can meet the same greedy barrier.
        asked = []

        def spy(universe, family, barrier, goal):
            if goal >= 0:
                asked.append((universe, barrier))
            return _search(universe, family, barrier, goal)

        monkeypatch.setattr("compnum.covers._search", spy)
        graphs = [g for g in graphs_up_to_3 + graphs_4 + graphs_5 if g.n]
        graphs += [parse_graph6("HoUO{?R"), parse_graph6("KEcF`]jd_OJ@")]
        for g in graphs:
            for start_k in (0, None):
                asked.clear()
                competition_number(g, start_k=start_k)
                assert len(asked) == len(set(asked)), (g.edges(), start_k)

    def test_an_oracles_history_changes_nothing(self, graphs_up_to_3, graphs_4):
        # The table of proven cover bounds outlives a call, so each question
        # is asked once on a cleared lookup and once more on the oracle that
        # every question about the same graph has warmed.
        def witness(g):
            k, w = competition_number(g)
            return k, w.to_arc_list()

        hard = parse_graph6("KEcF`]jd_OJ@")
        for g in [g for g in graphs_up_to_3 + graphs_4 if g.n] + [hard]:
            k = competition_number(g)[0]
            questions = [
                lambda: general_bound(g, prune=True),
                lambda: general_bound(g),
                lambda: edge_clique_cover_number(g),
                lambda: witness(g),
                lambda: least_budget(g, k),
            ]
            cold = []
            for ask in questions:
                _oracle.cache_clear()
                cold.append(ask())
            assert [ask() for ask in questions] == cold, g.edges()
        assert k == 1 and cold[4] == 2777
        _oracle.cache_clear()
        with pytest.raises(BudgetExceededError):
            find_realization(hard, 1, budget=2776)
        _oracle.cache_clear()
        assert find_realization(hard, 1, budget=2777) is not None

    def test_start_k_is_a_starting_point(self):
        assert competition_number(cycle_graph(4), start_k=0)[0] == 2
        assert competition_number(cycle_graph(4), start_k=3)[0] == 3

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            competition_number(Graph(0))

    def test_budget_error_carries_lower_bound(self):
        # k = 0 and k = 1 are refuted within the budget; the search at k = 2
        # is the one that runs out, so 2 is the surviving lower bound
        with pytest.raises(BudgetExceededError) as info:
            competition_number(cycle_graph(4), start_k=0, budget=2)
        assert info.value.lower_bound == 2

    def test_deterministic_witness(self):
        a = competition_number(cycle_graph(4))[1]
        b = competition_number(cycle_graph(4))[1]
        assert a.digraph == b.digraph and a.ordering == b.ordering


class TestWitnessExport:
    def test_arc_list_round_trip(self):
        g = cycle_graph(4)
        k, w = competition_number(g)
        parsed = parse_arc_list(w.to_arc_list())
        assert parsed == w.digraph
        assert verify_realization(g, k, parsed)

    def test_dot_names_added_vertices(self):
        _, w = competition_number(complete_graph(3))
        dot = w.to_dot()
        assert "z1" in dot and "z2" not in dot


class TestCoverFromWitness:
    def test_c4_full_tail(self):
        g = cycle_graph(4)
        k, w = competition_number(g)
        cover = cover_from_witness(g, w, 4)
        assert cover.size == 4 + k - 1 == 5
        assert cover.covers_target()
        assert cover.members_are_cliques(g)
        assert cover.target_edges == frozenset(g.edges())

    def test_k2_single_tail_vertex(self):
        g = complete_graph(2)
        k, w = competition_number(g)
        cover = cover_from_witness(g, w, 1)
        assert cover.size == k == 1
        assert cover.cliques == (frozenset({0, 1}),)
        assert cover.covers_target()

    def test_vacuous_when_tail_has_no_edges(self):
        g = edgeless_graph(3)
        k, w = competition_number(g)
        assert k == 0
        for m in range(1, 4):
            cover = cover_from_witness(g, w, m)
            assert cover.size == m - 1
            assert cover.target_edges == frozenset()
            assert cover.covers_target()

    def test_empty_members_are_retained(self):
        g = cycle_graph(4)
        k, w = competition_number(g)
        cover = cover_from_witness(g, w, 4)
        assert cover.empty_members >= 1
        assert cover.distinct_size <= cover.size

    def test_m_out_of_range(self):
        g = complete_graph(2)
        _, w = competition_number(g)
        with pytest.raises(ValueError, match="m must be"):
            cover_from_witness(g, w, 0)
        with pytest.raises(ValueError, match="m must be"):
            cover_from_witness(g, w, 3)

    def test_unverified_witness_is_rejected(self):
        g = complete_graph(2)
        fake = RealizationWitness(k=1, digraph=Digraph(3), ordering=(0, 1, 2))
        with pytest.raises(ValueError, match="witness does not realize"):
            cover_from_witness(g, fake, 1)

    def test_bad_ordering_is_rejected(self):
        g = complete_graph(2)
        d = Digraph(3, [(0, 2), (1, 2)])
        scrambled = RealizationWitness(k=1, digraph=d, ordering=(2, 0, 1))
        with pytest.raises(ValueError, match="ordering"):
            cover_from_witness(g, scrambled, 1)


def test_no_answer_leaves_garbage_for_the_collector():
    # The kernel is a loop, and each recursive closure is deleted before its
    # function returns, so nothing here makes a reference cycle: with the
    # collector off, a collection finds nothing after each kind of call.
    gs = random_graphs(9, 0.5, 22, 20)
    gc.collect()
    gc.disable()
    try:
        for g in gs:
            _Cliques(g)
        assert gc.collect() == 0
        for g in gs:
            general_bound(g)
            general_bound(g, prune=True)
        assert gc.collect() == 0
        for g in gs:
            competition_number(g)
            with pytest.raises(BudgetExceededError):
                competition_number(g, start_k=0, budget=3)
        assert gc.collect() == 0
        for g in gs:
            t, edges = _oracle(g), (1 << g.edge_count) - 1
            size = _min_cover(edges, t.edge_family)[0]
            for cap in range(size - 2, size + 2):
                _search(edges, t.edge_family, cap + 1, cap)
                _min_cover(edges, t.edge_family, cap)
            _certified_cover(edges, t.edge_family)
        assert gc.collect() == 0
    finally:
        gc.enable()
