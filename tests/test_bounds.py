import random
import sys
from itertools import combinations

import pytest

from compnum import (
    Graph,
    all_labeled_graphs,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    edgeless_graph,
    general_bound,
    general_bound_term,
    opsut_edge_bound,
    opsut_vertex_bound,
    path_graph,
    random_graphs,
    restricted_edge_cover_number,
    star_graph,
)
from compnum import covers
from compnum.covers import _Cliques
from oracles import (
    brute_subset_term,
    brute_vertex_cover_number,
    has_triangle,
    is_connected,
    literal_general_bound,
    neighborhood_cover_bound,
)


class TestOpsutEdgeBound:
    def test_c4(self):
        # edge clique cover number 4, so 4 - 4 + 2
        assert opsut_edge_bound(cycle_graph(4)) == 2

    def test_k5_goes_negative(self):
        assert opsut_edge_bound(complete_graph(5)) == -2

    def test_k2(self):
        assert opsut_edge_bound(complete_graph(2)) == 1

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            opsut_edge_bound(Graph(0))


class TestOpsutVertexBound:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete_graphs(self, n):
        assert opsut_vertex_bound(complete_graph(n)) == 1

    def test_c4(self):
        # every neighborhood induces two nonadjacent vertices
        assert opsut_vertex_bound(cycle_graph(4)) == 2

    def test_isolated_vertex_forces_zero(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2)])  # triangle plus isolated 3
        assert opsut_vertex_bound(g) == 0

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            opsut_vertex_bound(Graph(0))

    def test_matches_the_literal_definition(self, graphs_up_to_3, graphs_4, graphs_5):
        # the bound covers N(v) by the whole graph's maximal cliques; the
        # oracle builds G[N(v)] and covers it by brute force over all its cliques
        for g in graphs_up_to_3 + graphs_4 + graphs_5 + random_graphs(8, 0.5, 2012, 4):
            if g.n == 0:
                continue
            expected = min(
                brute_vertex_cover_number(g.induced_subgraph(g.neighbors(v))[0]) for v in range(g.n)
            )
            assert opsut_vertex_bound(g) == expected, g

    def test_matches_the_neighborhood_covers_past_the_corpora(self):
        # G(n, 0.5) draws with n = 20-28; the pruned report takes seconds to
        # minutes on most of them, so it is read on the n = 20, seed 1 draw
        for n in range(20, 29):
            for seed in (1, 2, 3):
                g = random_graphs(n, 0.5, seed, 1)[0]
                assert opsut_vertex_bound(g) == neighborhood_cover_bound(g), (n, seed)
        g = random_graphs(20, 0.5, 1, 1)[0]
        assert opsut_vertex_bound(g) == general_bound(g, prune=True).opsut_vertex == 2


class TestGeneralBoundTerm:
    def test_c4_first_term_matches_vertex_bound(self):
        term = general_bound_term(cycle_graph(4), 1)
        assert term.value == 2 == opsut_vertex_bound(cycle_graph(4))

    def test_c4_last_but_one_term_matches_edge_bound(self):
        term = general_bound_term(cycle_graph(4), 3)
        assert term.value == 2 == opsut_edge_bound(cycle_graph(4))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_complete_graph_terms(self, n):
        for m in range(1, n + 1):
            assert general_bound_term(complete_graph(n), m).value == 2 - m

    def test_minimizer_is_lexicographically_first(self):
        # on a star the center's incident edges need one clique per leaf,
        # any leaf needs just one, so vertex 1 is the first minimizer
        term = general_bound_term(star_graph(3), 1)
        assert term.value == 1 and term.subset == (1,)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            general_bound_term(cycle_graph(4), 0)
        with pytest.raises(ValueError):
            general_bound_term(cycle_graph(4), 5)


class TestGeneralBound:
    def test_c4_report(self):
        report = general_bound(cycle_graph(4))
        assert report.general == 2
        assert [t.value for t in report.terms] == [2, 2, 2, 1]
        assert report.opsut_edge == 2 and report.opsut_vertex == 2
        assert report.truncated_ms == frozenset()

    @pytest.mark.parametrize("n", range(2, 6))
    def test_complete_graphs(self, n):
        report = general_bound(complete_graph(n))
        assert report.general == 1
        assert report.term(1).value == 1

    def test_edgeless(self):
        report = general_bound(edgeless_graph(4))
        assert report.general == 0
        assert [t.value for t in report.terms] == [0, -1, -2, -3]

    def test_term_accessor_bounds(self):
        report = general_bound(path_graph(3))
        with pytest.raises(ValueError):
            report.term(0)
        with pytest.raises(ValueError):
            report.term(4)

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            general_bound(Graph(0))

    def test_single_vertex_has_one_term(self):
        report = general_bound(Graph(1))
        assert report.general == 0
        assert len(report.terms) == 1
        # the edge-cover formula overshoots on a lone vertex (it assumes an
        # m = n-1 term, which does not exist for n = 1); the vertex bound and
        # the general bound still agree
        assert report.opsut_edge == 1
        assert report.opsut_vertex == 0

    def test_first_term_is_vertex_bound(self, graphs_up_to_3, graphs_4):
        for g in graphs_up_to_3 + graphs_4:
            if g.n == 0:
                continue
            assert general_bound_term(g, 1).value == neighborhood_cover_bound(g)

    def test_second_to_last_term_is_edge_bound(self, graphs_up_to_3, graphs_4):
        for g in graphs_up_to_3 + graphs_4:
            if g.n < 2:
                continue
            assert general_bound_term(g, g.n - 1).value == opsut_edge_bound(g)

    def test_report_edge_bound_matches_the_independent_one(self, graphs_up_to_3, graphs_4, graphs_5):
        # the report reads its edge bound off the m = n term, opsut_edge_bound
        # covers every edge on its own; n = 1 has no m = n-1 term to misread
        draws = [g for n in range(6, 11) for p in (0.3, 0.6) for g in random_graphs(n, p, 2012 + n, 5)]
        assert len(draws) == 50
        for g in graphs_up_to_3 + graphs_4 + graphs_5 + draws:
            if g.n == 0:
                continue
            expected = opsut_edge_bound(g)
            for prune in (False, True):
                assert general_bound(g, prune=prune).opsut_edge == expected, (g.edges(), prune)

    def test_report_vertex_bound_matches_the_independent_one(self, graphs_up_to_3, graphs_4, graphs_5):
        # the report reads its vertex bound off the m = 1 term, the
        # reference counts vertex covers of every N(v) on its own
        draws = [g for n in range(6, 11) for p in (0.3, 0.6) for g in random_graphs(n, p, 2012 + n, 5)]
        for g in graphs_up_to_3 + graphs_4 + graphs_5 + draws:
            if g.n == 0:
                continue
            expected = neighborhood_cover_bound(g)
            for prune in (False, True):
                assert general_bound(g, prune=prune).opsut_vertex == expected, (g.edges(), prune)

    def test_dominates_both_bounds_from_two_vertices_up(self, graphs_up_to_3, graphs_4):
        for g in graphs_up_to_3 + graphs_4:
            if g.n < 2:
                continue
            report = general_bound(g)
            assert report.general >= report.opsut_edge
            assert report.general >= report.opsut_vertex

    def test_pruning_changes_nothing_observable(self, graphs_4, graphs_5):
        sample = graphs_4 + graphs_5[::17]
        for g in sample:
            full = general_bound(g)
            pruned = general_bound(g, prune=True)
            assert full.general == pruned.general
            assert full.truncated_ms == frozenset()
            for m in pruned.truncated_ms:
                # truncated values are upper bounds of the true terms and
                # never exceed the overall maximum
                assert pruned.term(m).value >= full.term(m).value
                assert full.term(m).value <= full.general

    def test_terms_match_the_literal_subset_definition(self, sweep):
        # cover(U) is computed from the whole graph's maximal cliques; the
        # oracle builds the closed-neighborhood subgraph and covers the
        # incident edges by brute force, as the bound is defined
        for e in sweep.entries:
            g = e.graph
            for term in e.report.terms:
                values = {
                    subset: brute_subset_term(g, subset) - term.m + 1
                    for subset in combinations(range(g.n), term.m)
                }
                first_min = min(values, key=lambda s: (values[s], s))
                assert (term.value, term.subset) == (values[first_min], first_min)

    @pytest.mark.parametrize(
        "g",
        random_graphs(8, 0.3, 2012, 2)
        + random_graphs(8, 0.5, 2012, 2)
        + random_graphs(9, 0.5, 2012, 1)
        + [cycle_graph(8), complete_multipartite_graph([3, 3, 2])],
    )
    def test_terms_match_a_literal_scan_where_the_cap_bites(self, g):
        # from n = 8 up most subsets are rejected by the capped cover, so
        # every term is checked against covering each subset in full
        full = general_bound(g)
        for term in full.terms:
            values = {
                subset: restricted_edge_cover_number(g, g.incident_edges(subset)) - term.m + 1
                for subset in combinations(range(g.n), term.m)
            }
            first_min = min(values, key=lambda s: (values[s], s))
            assert (term.value, term.subset) == (values[first_min], first_min)
        assert general_bound(g, prune=True).general == full.general


def triangle_free_draw(n: int, rng: random.Random) -> Graph:
    """A random spanning tree plus about n/2 edges that close no triangle."""
    adj = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    added = 0
    for _ in range(50 * n):
        if added == n // 2:
            break
        u, v = rng.sample(range(n), 2)
        if not adj[u] >> v & 1 and not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            added += 1
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1])


@pytest.mark.parametrize("n", [16, 17, 18, 20])
def test_the_pruned_scan_meets_the_triangle_free_closed_form(n):
    # Past the literal scan's reach: on a connected triangle-free graph every
    # clique is an edge, so theta_e = |E|, and k = |E| - n + 2 (Roberts
    # 1978); the general bound lies between opsut_edge_bound and k, so it is
    # |E| - n + 2 exactly.
    g = triangle_free_draw(n, random.Random(1978 + n))
    assert is_connected(g) and not has_triangle(g) and g.edge_count >= n - 1 + n // 2
    report = general_bound(g, prune=True)
    assert report.general == report.opsut_edge == g.edge_count - n + 2


def assert_scan_is_literal(g: Graph) -> None:
    """Whole reports, pruned and unpruned, and every single term agree with
    the scan that hands every subset to the capped cover search."""
    literal = literal_general_bound(g)
    assert general_bound(g) == literal
    assert general_bound(g, prune=True) == literal_general_bound(g, prune=True)
    for m in range(1, g.n + 1):
        assert general_bound_term(g, m) == literal.term(m)


class TestScanAgainstTheLiteralScan:
    # the table of proven cover bounds and the skipped extensions of refuted
    # heads must change no term value, subset or truncation point

    def test_every_labeled_graph_up_to_five_vertices(self, graphs_up_to_3, graphs_4, graphs_5):
        for g in graphs_up_to_3 + graphs_4 + graphs_5:
            if g.n:
                assert_scan_is_literal(g)

    def test_every_seventh_labeled_graph_on_six_vertices(self):
        for i, g in enumerate(all_labeled_graphs(6)):
            if i % 7 == 0:
                assert_scan_is_literal(g)

    @pytest.mark.parametrize(
        "g",
        [g for n in range(7, 13) for p in (0.3, 0.5, 0.7) for g in random_graphs(n, p, 2012 * n, 2)]
        + [cycle_graph(8), complete_multipartite_graph([3, 3, 2])],
    )
    def test_random_and_structured_graphs(self, g):
        assert_scan_is_literal(g)


def test_each_mask_is_bounded_once_and_searched_once_per_cap(monkeypatch):
    # a packing bound, a refuted cap and a found cover are each remembered,
    # so no mask is bounded twice and no capped search is asked again
    packed: list[int] = []
    searched: list[tuple[int, int]] = []
    search, packing_bound = covers._search, _Cliques.packing_bound

    def counted_search(universe, family, barrier, goal):
        if sys._getframe(1).f_code is _Cliques.scan.__code__:
            searched.append((universe, barrier - 1))
        return search(universe, family, barrier, goal)

    def counted_packing_bound(self, edges):
        packed.append(edges)
        return packing_bound(self, edges)

    monkeypatch.setattr(covers, "_search", counted_search)
    monkeypatch.setattr(_Cliques, "packing_bound", counted_packing_bound)
    subsets = searches = 0
    for g in random_graphs(10, 0.5, 2012 * 16 + 5, 3):
        packed.clear()
        searched.clear()
        general_bound(g)
        assert len(packed) == len(set(packed))
        assert len(searched) == len(set(searched))
        subsets += 2**g.n - 1
        searches += len(searched)
    assert 0 < searches and 5 * searches < subsets
