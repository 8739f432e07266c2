import hashlib
import random
import re
import sys
from itertools import combinations

import pytest

from compnum import (
    CoverInstance,
    Graph,
    InfeasibleCoverError,
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    edge_clique_cover,
    edge_clique_cover_number,
    edgeless_graph,
    maximal_cliques,
    min_cover,
    min_set_cover,
    parse_graph6,
    path_graph,
    random_graph,
    random_graphs,
    restricted_edge_cover_number,
    vertex_clique_cover_number,
    write_graph6,
)
from compnum import covers, graphs
from compnum.covers import _Cliques, _family, _min_cover, _packing_bound, _search
from compnum.graphs import _bits
from oracles import (
    adjacency_masks,
    brute_edge_cover_number,
    brute_lex_min_cover,
    brute_min_cover,
    brute_vertex_cover_number,
    edges_at,
    element_packing_bound,
    has_triangle,
    literal_counted_bounds,
    literal_search,
    set_maximal_cliques,
)


def test_every_constructor_gives_one_graph_and_one_oracle():
    # the oracle lookup is keyed by graph equality, so a constructor whose
    # graphs hashed apart would silently rebuild the cliques
    rng = random.Random(19)
    draws = [random_graph(rng.randint(7, 16), rng.random(), seed=rng.randrange(10**6)) for _ in range(60)]
    for g in [g for n in range(6) for g in all_labeled_graphs(n)] + draws:
        text = write_graph6(g)
        built = [
            Graph(g.n, [(v, u) for u, v in reversed(g.edges())]),
            parse_graph6(text),
            graphs._rows_graph(graphs._graph6_rows(text)),
        ]
        oracle = covers._oracle(g)
        for h in built:
            assert h == g and hash(h) == hash(g), text
            assert list(h.rows) == adjacency_masks(g), text
            assert covers._oracle(h) is oracle, text
        assert [frozenset(_bits(c)) for c in oracle.vertex_masks] == maximal_cliques(g) == set_maximal_cliques(g), text


class TestMaximalCliques:
    def test_triangle(self):
        assert maximal_cliques(complete_graph(3)) == [frozenset({0, 1, 2})]

    def test_c4_cliques_are_its_edges(self):
        assert maximal_cliques(cycle_graph(4)) == [
            frozenset(e) for e in [(0, 1), (0, 3), (1, 2), (2, 3)]
        ]

    def test_isolated_vertices_are_singletons(self):
        assert maximal_cliques(edgeless_graph(3)) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]

    def test_empty_graph_gives_empty_family(self):
        assert maximal_cliques(edgeless_graph(0)) == []

    def test_complete_and_maximal_up_to_6_vertices(self):
        # every clique sits inside some returned set, every returned set is a
        # maximal clique, no duplicates; checked against raw subset enumeration
        for n in range(7):
            for g in all_labeled_graphs(n):
                adj = adjacency_masks(g)
                masks = [sum(1 << v for v in c) for c in maximal_cliques(g)]
                assert len(set(masks)) == len(masks)
                for cm in masks:
                    members = [v for v in range(n) if (cm >> v) & 1]
                    for v in members:
                        assert (cm & ~(1 << v)) & ~adj[v] == 0  # pairwise adjacent
                    for w in range(n):
                        if not (cm >> w) & 1:
                            assert cm & ~adj[w] != 0  # nothing extends it
                for sub in range(1, 1 << n):
                    members = [v for v in range(n) if (sub >> v) & 1]
                    if all((sub & ~(1 << v)) & ~adj[v] == 0 for v in members):
                        assert any(sub & ~cm == 0 for cm in masks)


class TestMinSetCover:
    def test_prefers_single_covering_set(self):
        size, chosen = min_set_cover(CoverInstance("ab", [{"a"}, {"b"}, {"a", "b"}]))
        assert size == 1 and chosen == (2,)

    def test_empty_universe(self):
        assert min_set_cover(CoverInstance([], [{"a"}])) == (0, ())

    def test_three_pair_instance(self):
        # brute force over all 8 subfamilies says 2
        inst = CoverInstance("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}])
        assert brute_min_cover(inst.universe, inst.candidates) == 2
        size, chosen = min_set_cover(inst)
        assert size == 2 and chosen == (0, 1)

    def test_infeasible_names_element(self):
        with pytest.raises(InfeasibleCoverError, match="'b'"):
            min_set_cover(CoverInstance("ab", [{"a"}]))

    def test_extras_are_dropped_on_construction(self):
        inst = CoverInstance("ab", [{"a", "z"}, {"b"}])
        assert inst.candidates[0] == {"a"}

    def test_agrees_with_brute_force_on_random_instances(self):
        rng = random.Random(2024)
        for trial in range(100):
            universe = list(range(rng.randrange(0, 13)))
            candidates = []
            for _ in range(rng.randrange(1, 13)):
                candidates.append(
                    frozenset(e for e in universe if rng.random() < 0.35)
                )
            # fold anything uncovered into the last candidate so the
            # instance stays feasible (and stays within 12 candidates)
            leftovers = set(universe) - frozenset().union(*candidates, frozenset())
            if leftovers:
                candidates[-1] = candidates[-1] | leftovers
            inst = CoverInstance(universe, candidates)
            size, chosen = min_set_cover(inst)
            assert size == brute_min_cover(inst.universe, inst.candidates)
            expected_size, expected_idx = brute_lex_min_cover(
                inst.universe, inst.candidates
            )
            assert (size, chosen) == (expected_size, expected_idx)
            covered = frozenset().union(*(inst.candidates[i] for i in chosen), frozenset())
            assert covered == inst.universe

    def test_min_cover_cap(self):
        cands = tuple(frozenset(s) for s in ({0}, {1}, {2}))
        assert min_cover({0, 1, 2}, cands, cap=2) is None
        found = min_cover({0, 1, 2}, cands, cap=3)
        assert found == (3, (0, 1, 2))


class TestCoverCap:
    # A cap only decides whether an answer is reported: the bound's subset
    # scan and the realizer's residual covers rely on a capped search giving
    # the uncapped (size, indices) whenever that size fits, witnesses included.
    @staticmethod
    def assert_caps_agree(cover):
        full = cover(None)
        for cap in range(-1, full[0] + 2):
            assert cover(cap) == (None if full[0] > cap else full), cap

    def test_clique_tables_of_small_graphs(self, graphs_up_to_3, graphs_4, graphs_5):
        # every edge mask the subset scan asks for: the edges at some U
        for g in graphs_up_to_3 + graphs_4 + graphs_5:
            t = _Cliques(g)
            masks = {0}
            for v in range(g.n):
                masks |= {edges | t.incident[v] for edges in masks}
            for edges in masks:
                self.assert_caps_agree(lambda cap: _min_cover(edges, t.edge_family, cap))

    def test_random_instances(self):
        rng = random.Random(2026)
        for trial in range(200):
            universe = range(rng.randrange(0, 13))
            candidates = [
                frozenset(e for e in universe if rng.random() < 0.35)
                for _ in range(rng.randrange(1, 13))
            ]
            candidates[-1] |= set(universe) - frozenset().union(*candidates)
            self.assert_caps_agree(lambda cap: min_cover(universe, candidates, cap))


class TestPackingBound:
    # The kernel clears each counted element's shadow instead of walking every
    # element; both must count the same elements.  An element no candidate
    # holds must still shadow itself, or the walk never gets past it.
    @staticmethod
    def elements(mask):
        return {b for b in range(mask.bit_length()) if mask >> b & 1}

    def assert_matches(self, family, masks):
        for b, shadow in enumerate(family.shadows):
            assert shadow >> b & 1, b
        candidates = [self.elements(c) for c in family.cands]
        for mask in masks:
            expected = element_packing_bound(self.elements(mask), candidates)
            assert _packing_bound(mask, family.shadows) == expected, mask

    def test_clique_tables_of_small_graphs(self, graphs_up_to_3, graphs_4, graphs_5):
        for g in graphs_up_to_3 + graphs_4 + graphs_5:
            t = _Cliques(g)
            edge_masks = {0}
            for v in range(g.n):
                edge_masks |= {edges | t.incident[v] for edges in edge_masks}
            self.assert_matches(t.edge_family, edge_masks)
            self.assert_matches(_family(t.vertex_masks, g.n), range(1 << g.n))

    def test_random_instances(self):
        rng = random.Random(8)
        for trial in range(300):
            width = rng.randrange(0, 14)
            cands = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randrange(1, 12))]
            # odd trials give every element a holder; about half the others
            # leave some element with none, as a masked family can
            if trial % 2:
                held = 0
                for c in cands:
                    held |= c
                cands[-1] |= ((1 << width) - 1) & ~held
            masks = [(1 << width) - 1] + [rng.getrandbits(width) for _ in range(5)]
            self.assert_matches(_family(cands, width), masks)

    def test_whole_family_bounds_the_later_candidates(self):
        # the certified cover's searches over the candidates after i keep the
        # whole family's shadows: the bound must stay below their cover size
        rng = random.Random(9)
        for trial in range(200):
            width = rng.randrange(1, 10)
            cands = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randrange(2, 9))]
            family = _family(cands, width)
            for i in range(len(cands)):
                later = [self.elements(c) for c in cands[i + 1:]]
                rest = rng.getrandbits(width)
                size = brute_min_cover(self.elements(rest), later)
                if size is not None:
                    assert _packing_bound(rest, family.shadows) <= size


class TestChosenCovers:
    # Sizes alone do not pin the kernel: the bound's witness subsets and the
    # realizer's witness arcs are read off the indices it chooses.  A search
    # that checks the barrier before recording a cover, or stops a minimum
    # query once a cover meets the packing bound, finds covers of the same
    # size but chooses other ones on a few of these instances.
    @staticmethod
    def digest(results) -> str:
        return hashlib.sha256(repr(results).encode()).hexdigest()

    def test_min_cover_uncapped_and_capped(self):
        rng = random.Random(2012)
        results = []
        for trial in range(3000):
            universe = range(rng.randrange(1, 16))
            candidates = [
                frozenset(e for e in universe if rng.random() < 0.3)
                for _ in range(rng.randrange(2, 19))
            ]
            candidates[-1] |= set(universe) - frozenset().union(*candidates)
            full = min_cover(universe, candidates)
            results.append((full, min_cover(universe, candidates, full[0])))
        assert self.digest(results) == "66e702d9d08c1c2634790bc785a110370677f683fb16bd08a7a892570b2f7afd"

    def test_edge_clique_covers_of_small_graphs(self, graphs_up_to_3, graphs_4, graphs_5):
        results = [edge_clique_cover(g) for g in graphs_up_to_3 + graphs_4 + graphs_5]
        assert len(results) == 1100
        assert self.digest(results) == "0b56160bf8aa69bf5562c8e66fed22ce1154797d91e9609b431cfbc3a0905728"


class TestSearchContract:
    # The barrier is the kernel's only cap: fits and a capped _min_cover add
    # no size check of their own, so _search must meet no cover with as many
    # sets as the barrier, not even the empty cover of an empty universe.
    def test_empty_universe_under_barrier_zero(self):
        family = _family([0b1], 1)
        assert _search(0, family, 0, -1) is None
        assert _search(0, family, -1, -1) is None
        assert _search(0, family, 1, -1) == ()

    def test_random_families(self):
        rng = random.Random(14)
        for trial in range(400):
            width = rng.randrange(0, 9)
            cands = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randrange(1, 8))]
            held = 0
            for c in cands:
                held |= c
            cands[-1] |= ((1 << width) - 1) & ~held
            family = _family(cands, width)
            universe = 0 if trial % 4 == 0 else rng.getrandbits(width)
            elements = TestPackingBound.elements
            size = brute_min_cover(elements(universe), [elements(c) for c in cands])
            for barrier in range(-2, size + 2):
                for goal in (-1, barrier - 1):
                    found = _search(universe, family, barrier, goal)
                    if found is None:
                        assert size >= barrier, (trial, barrier, goal)
                        continue
                    assert len(found) < barrier and list(found) == sorted(set(found))
                    covered = 0
                    for i in found:
                        covered |= cands[i]
                    assert universe & ~covered == 0
                    if goal == -1:  # an exhaustive search ends on a minimum cover
                        assert len(found) == size


class TestLoopAgainstTheRecursiveSearch:
    # The kernel's loop walks the recursive search's tree in the same order
    # and records covers by the same rule, so every query returns the same
    # tuple, not just one of the same size.
    @staticmethod
    def assert_same(universe, family):
        full = literal_search(universe, family, len(family.cands) + 1, -1)
        size = len(family.cands) if full is None else len(full)
        for barrier in range(-2, size + 2):
            for goal in (-1, barrier - 1):
                expected = literal_search(universe, family, barrier, goal)
                assert _search(universe, family, barrier, goal) == expected, (universe, barrier, goal)

    @staticmethod
    def random_cands(rng, width, count):
        density = rng.choice((0.15, 0.3, 0.5))
        cands = [sum(1 << b for b in range(width) if rng.random() < density) for _ in range(count)]
        held = 0
        for c in cands:
            held |= c
        cands[-1] |= ((1 << width) - 1) & ~held
        return cands

    @staticmethod
    def counted_bounds(monkeypatch) -> list[int]:
        """The residuals the kernel counts a packing bound of, in order, from
        here on."""
        counted = []

        def spy(uncovered, shadows):
            counted.append(uncovered)
            return _packing_bound(uncovered, shadows)

        monkeypatch.setattr(covers, "_packing_bound", spy)
        return counted

    def test_random_families(self):
        rng = random.Random(22)
        for trial in range(800):
            width = rng.randrange(0, 15)
            family = _family(self.random_cands(rng, width, rng.randrange(1, 13)), width)
            universe = rng.getrandbits(width) if trial % 3 == 0 else (1 << width) - 1
            self.assert_same(universe, family)

    def test_forced_chains(self):
        # Elements 0..chain-1 each have one holder of their own, which may
        # hold later elements too: a run of forced picks, then branching.
        rng = random.Random(23)
        for trial in range(200):
            chain, width = rng.randrange(1, 40), rng.randrange(0, 10)
            private = [1 << b | rng.getrandbits(width) << chain for b in range(chain)]
            rest = [c << chain for c in self.random_cands(rng, width, rng.randrange(1, 8))]
            cands = private + rest if trial % 2 else rest + private
            self.assert_same((1 << chain + width) - 1, _family(cands, chain + width))

    def test_holder_masked_families(self):
        # As _certified_cover asks: holders cut down to the candidates after
        # some i, on a universe those later candidates may not cover.
        rng = random.Random(24)
        for trial in range(400):
            width = rng.randrange(1, 13)
            count = rng.randrange(2, 12)
            family = _family(self.random_cands(rng, width, count), width)
            later = -2 << rng.randrange(count)
            masked = family._replace(holders=[h & later for h in family.holders])
            universe = (1 << width) - 1
            for i in _bits(~later & ((1 << count) - 1)):
                if rng.random() < 0.5:
                    universe &= ~family.cands[i]
            self.assert_same(universe, masked)

    def test_a_long_forced_chain_needs_no_recursion_headroom(self):
        # 400 elements with one holder each: 400 picks deep, with the
        # recursion limit only 50 frames above the caller.
        width = 400
        family = _family([1 << b for b in range(width)], width)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            found = _search((1 << width) - 1, family, width + 1, -1)
        finally:
            sys.setrecursionlimit(limit)
        assert found == tuple(range(width))

    def test_the_loop_counts_the_bounds_the_credit_rule_counts(self, monkeypatch):
        # A node tests with its credit instead of counting only on a forced
        # pick reached by picks alone from the last node that counted: the
        # loop counts the packing bounds of the residuals the recursive
        # statement of that rule counts, in the same order, on random
        # families, on families with forced chains, and on holder-masked
        # families, where a pick below a branch point can be forced.
        counted = self.counted_bounds(monkeypatch)
        # Candidate 0 is masked off, so element 2 has one holder.  The root
        # counts 2 and picks 1, whose residual counts 2 and is cut; then the
        # pop to candidate 4 leaves element 2 forced, and the cut sibling's
        # credit says nothing about it, so its residual is counted too.
        family = _family([0b100, 0b001, 0b100, 0b010, 0b011], 3)
        family = family._replace(holders=[h & -2 for h in family.holders])
        assert _search(0b111, family, 3, -1) == (2, 4)
        assert counted == literal_counted_bounds(0b111, family, 3, -1) == [0b111, 0b110, 0b100]
        rng = random.Random(27)
        for trial in range(600):
            chain, width = rng.randrange(0, 20) if trial % 2 else 0, rng.randrange(0, 12)
            private = [1 << b | rng.getrandbits(width) << chain for b in range(chain)]
            cands = private + [c << chain for c in self.random_cands(rng, width, rng.randrange(1, 10))]
            family = _family(cands, chain + width)
            universe = (1 << chain + width) - 1
            if trial % 3 == 0:
                universe &= rng.getrandbits(chain + width)
            if trial % 3 == 1:  # as _certified_cover asks
                later = -2 << rng.randrange(len(cands))
                family = family._replace(holders=[h & later for h in family.holders])
                for i in _bits(~later & ((1 << len(cands)) - 1)):
                    universe &= ~cands[i]
            for barrier in range(-1, len(cands) + 2):
                for goal in (-1, barrier - 1):
                    counted.clear()
                    _search(universe, family, barrier, goal)
                    expected = literal_counted_bounds(universe, family, barrier, goal)
                    assert counted == expected, (trial, barrier, goal)

    def test_a_long_forced_chain_counts_its_packing_bound_once(self, monkeypatch):
        # Each forced pick tests with the credit its parent passed down, so
        # only the root counts: once, where a count per pick is quadratic.
        width = 400
        family = _family([1 << b for b in range(width)], width)
        counted = self.counted_bounds(monkeypatch)
        assert _search((1 << width) - 1, family, width + 1, -1) == tuple(range(width))
        assert counted == [(1 << width) - 1]


class TestFits:
    # fits is the existence half of a capped cover; the realizer's tail test
    # relies on it answering exactly as a capped search would.
    @staticmethod
    def assert_fits_agrees(t, edges):
        size = _min_cover(edges, t.edge_family)[0]
        for cap in range(-1, size + 2):
            assert t.fits(edges, cap) == (_min_cover(edges, t.edge_family, cap) is not None), cap

    @staticmethod
    def assert_scan_agrees(t, m):
        # scan is the bound report's walk over the m-subsets: it must answer
        # as the literal walk, which covers every subset with _min_cover and
        # reads no table, both run in full and stopped at each minimum the
        # walk passes through, or just below the last
        sizes = []
        for subset in combinations(range(len(t.incident)), m):
            edges = edges_at(t, sum(1 << v for v in subset))
            sizes.append((_min_cover(edges, t.edge_family)[0], subset))
        walk = []  # (running minimum, the subset that brought it) in walk order
        for size, subset in sizes:
            if not walk or size < walk[-1][0]:
                walk.append((size, subset))
        assert t.scan(m) == (*walk[-1], False), m
        for goal in range(walk[-1][0] - 1, walk[0][0] + 1):
            stop = next((step for step in walk if step[0] <= goal), None)
            expected = (*walk[-1], False) if stop is None else (*stop, True)
            assert t.scan(m, goal) == expected, (m, goal)

    @staticmethod
    def assert_table_is_proven(t):
        for edges, (lower, upper) in t.known.items():
            assert lower <= _min_cover(edges, t.edge_family)[0] <= upper, edges

    def test_clique_tables_of_small_graphs(self, graphs_up_to_3, graphs_4, graphs_5):
        # every edge mask the realizer asks for: the edges at some vertex set;
        # the scan is asked both on a cold table and on one that holds them
        for g in graphs_up_to_3 + graphs_4 + graphs_5:
            t = _Cliques(g)
            for m in range(1, g.n + 1):
                self.assert_scan_agrees(t, m)
            self.assert_table_is_proven(t)
            masks = {0}
            for v in range(g.n):
                masks |= {edges | t.incident[v] for edges in masks}
            for edges in masks:
                self.assert_fits_agrees(t, edges)
            for m in range(1, g.n + 1):
                self.assert_scan_agrees(t, m)

    def test_random_instances(self):
        rng = random.Random(2026)
        for trial in range(200):
            g = random_graphs(rng.randrange(2, 11), rng.choice([0.3, 0.5, 0.7]), trial, 1)[0]
            t = _Cliques(g)
            edges = rng.getrandbits(g.edge_count)
            self.assert_fits_agrees(t, edges)
            self.assert_scan_agrees(t, random.Random(trial).randrange(1, g.n + 1))
            self.assert_table_is_proven(t)

    def test_a_shared_table_answers_as_a_fresh_search(self):
        # One oracle takes a random run of questions, on repeated masks with
        # caps that rise and fall around each cover number: the realizer's
        # existence question, its leaf's cover question and the bound
        # report's subset walk; every answer must be the kernel's on a second
        # oracle, whose table no answer reads, and the walk's that of an
        # oracle built for it.
        rng = random.Random(1982)
        for trial in range(80):
            g = random_graphs(rng.randrange(2, 11), rng.choice([0.3, 0.5, 0.7]), trial, 1)[0]
            shared, fresh = _Cliques(g), _Cliques(g)
            masks = [rng.getrandbits(g.edge_count) for _ in range(3)]
            masks.append(edges_at(shared, rng.getrandbits(g.n)))
            sizes = {edges: _min_cover(edges, fresh.edge_family)[0] for edges in masks}
            scan_rng = random.Random(trial)
            walks = {}  # (m, goal) -> the walk on an oracle of its own
            for _ in range(30):
                edges = rng.choice(masks)
                cap = sizes[edges] + rng.randrange(-2, 2)
                if rng.random() < 0.75:
                    expected = _search(edges, fresh.edge_family, cap + 1, cap) is not None
                    assert shared.fits(edges, cap) == expected, (trial, edges, cap)
                else:
                    # the leaf's two questions, in order: whether a cover
                    # within the cap exists, then the cover itself
                    expected = _search(edges, fresh.edge_family, cap + 1, cap) is not None
                    assert shared.fits(edges, cap) == expected, (trial, edges, cap)
                    found = _min_cover(edges, shared.edge_family, cap)
                    assert found == _min_cover(edges, fresh.edge_family, cap), (trial, edges, cap)
                # and the subset walk, drawn apart so the questions above
                # stay as they were, with goals around its fewest cover
                m = scan_rng.randrange(1, g.n + 1)
                if (m, None) not in walks:
                    walks[m, None] = _Cliques(g).scan(m)
                goal = scan_rng.choice([None, walks[m, None][0] + scan_rng.randrange(-1, 3)])
                if (m, goal) not in walks:
                    walks[m, goal] = _Cliques(g).scan(m, goal)
                assert shared.scan(m, goal) == walks[m, goal], (trial, m, goal)


class TestGreedyStart:
    def test_a_greedy_cover_at_the_packing_bound_ends_the_search_at_its_root(self, monkeypatch):
        # A greedy start that meets the packing bound is a minimum cover.
        # _min_cover still runs its one search, with the greedy size as the
        # barrier, and the root cuts it: it counts the packing bound once and
        # records no cover, so the greedy cover is the answer.  With no edges
        # the barrier is 0, and the search returns before it counts anything.
        def greedy_size(edges, cands):
            # _min_cover's greedy start, uncapped: the first largest gain
            size = 0
            while edges:
                edges &= ~max(cands, key=lambda c: (c & edges).bit_count())
                size += 1
            return size

        rng = random.Random(16)
        searches, bounds = [], []
        search, packing_bound = covers._search, covers._packing_bound
        monkeypatch.setattr(covers, "_search", lambda *args: searches.append(search(*args)) or searches[-1])
        monkeypatch.setattr(covers, "_packing_bound", lambda *args: bounds.append(args) or packing_bound(*args))
        at_root = searched = 0
        for trial in range(60):
            g = random_graphs(rng.randrange(4, 11), rng.choice([0.3, 0.5, 0.7]), trial, 1)[0]
            t = _Cliques(g)
            for _ in range(5):
                edges = edges_at(t, rng.getrandbits(g.n))
                size = _min_cover(edges, t.edge_family)[0]
                cap = rng.choice([None, size - 1, size, size + 1])
                bound = t.packing_bound(edges)
                searches.clear()
                bounds.clear()
                found = _min_cover(edges, t.edge_family, cap)
                assert len(searches) == 1, (trial, edges, cap)
                if greedy_size(edges, t.edge_family.cands) == bound and (cap is None or bound <= cap):
                    assert len(bounds) == (edges != 0) and searches == [None], (trial, edges, cap)
                    assert found[0] == bound, (trial, edges, cap)
                    at_root += 1
                else:
                    searched += 1
        assert at_root > 50 and searched > 50


class TestCoverNumbers:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete_graphs_need_one_clique(self, n):
        assert edge_clique_cover_number(complete_graph(n)) == 1
        assert vertex_clique_cover_number(complete_graph(n)) == 1

    def test_c4_needs_four(self):
        assert brute_edge_cover_number(cycle_graph(4)) == 4
        assert edge_clique_cover_number(cycle_graph(4)) == 4

    def test_edgeless(self):
        assert edge_clique_cover_number(edgeless_graph(4)) == 0
        assert vertex_clique_cover_number(edgeless_graph(3)) == 3
        assert vertex_clique_cover_number(edgeless_graph(0)) == 0

    def test_c5_vertex_cover_number(self):
        assert brute_vertex_cover_number(cycle_graph(5)) == 3
        assert vertex_clique_cover_number(cycle_graph(5)) == 3

    def test_cover_indices_point_into_maximal_cliques(self):
        g = cycle_graph(4)
        size, indices = edge_clique_cover(g)
        cliques = maximal_cliques(g)
        assert size == 4 and list(indices) == [0, 1, 2, 3]
        covered = set()
        for i in indices:
            members = sorted(cliques[i])
            covered.update(
                (a, b) for a in members for b in members if a < b
            )
        assert covered == set(g.edges())

    def test_matches_brute_force_small(self, graphs_up_to_3, graphs_4):
        # the restriction to maximal cliques loses nothing
        for g in graphs_up_to_3 + graphs_4:
            assert edge_clique_cover_number(g) == brute_edge_cover_number(g)
            assert vertex_clique_cover_number(g) == brute_vertex_cover_number(g)

    def test_triangle_free_cover_is_edge_count(self, graphs_4, graphs_5):
        for g in graphs_4 + graphs_5:
            if not has_triangle(g):
                assert edge_clique_cover_number(g) == g.edge_count

    def test_bounded_by_edges_and_vertices(self, graphs_5):
        for g in graphs_5:
            assert edge_clique_cover_number(g) <= g.edge_count
            assert vertex_clique_cover_number(g) <= g.n


class TestRestrictedCover:
    def test_empty_subset(self):
        assert restricted_edge_cover_number(cycle_graph(4), []) == 0

    def test_full_subset_equals_cover_number(self, graphs_4):
        for g in graphs_4:
            assert restricted_edge_cover_number(g, g.edges()) == edge_clique_cover_number(g)

    def test_c4_three_edges(self):
        g = cycle_graph(4)
        target = [(0, 1), (0, 3), (1, 2)]
        assert brute_edge_cover_number(g, target) == 3
        assert restricted_edge_cover_number(g, target) == 3

    def test_cliques_may_cover_outside_the_subset(self):
        g = complete_graph(4)
        assert restricted_edge_cover_number(g, [(0, 1), (2, 3)]) == 1

    def test_rejects_non_edges(self):
        with pytest.raises(ValueError, match="not an edge"):
            restricted_edge_cover_number(cycle_graph(4), [(0, 2)])
        # a loop, a label past n, a negative label and a float label are
        # refused before any of them is looked up in the oracle
        for pair in [(2, 2), (0, 9), (-1, 0), (0, 1.0)]:
            with pytest.raises(ValueError, match=re.escape(f"{pair} is not an edge of the host graph")):
                restricted_edge_cover_number(cycle_graph(4), [(0, 1), pair])

    def test_monotone_in_the_subset(self, graphs_4):
        rng = random.Random(31)
        for g in graphs_4:
            edges = g.edges()
            if not edges:
                continue
            small = [e for e in edges if rng.random() < 0.5]
            extra = [e for e in edges if rng.random() < 0.5]
            big = sorted(set(small) | set(extra))
            assert restricted_edge_cover_number(g, small) <= restricted_edge_cover_number(g, big)

    def test_matches_brute_force(self, graphs_4, graphs_5):
        rng = random.Random(47)
        for g in graphs_4 + graphs_5:
            edges = g.edges()
            target = [e for e in edges if rng.random() < 0.6]
            expected = brute_edge_cover_number(g, target)
            assert restricted_edge_cover_number(g, target) == expected
            assert restricted_edge_cover_number(g, [(v, u) for u, v in target]) == expected


class TestCliqueTable:
    def test_within_is_the_maximal_cliques_of_the_induced_subgraph(self, graphs_up_to_3, graphs_4, graphs_5):
        # within(S) reads G[S]'s cliques off the host's; enumerating G[S]
        # itself must give the same cliques, edge masks and order
        for g in graphs_up_to_3 + graphs_4 + graphs_5 + random_graphs(8, 0.5, 2012, 3):
            t = _Cliques(g)
            for s in range(1 << g.n):
                members = [v for v in range(g.n) if s >> v & 1]
                sub, _ = g.induced_subgraph(members)
                expected = []
                for c in maximal_cliques(sub):
                    clique = tuple(members[i] for i in sorted(c))
                    expected.append((clique, sum(t.incident[u] & t.incident[v] for u, v in combinations(clique, 2))))
                assert t.within(s, edges_at(t, ((1 << g.n) - 1) & ~s)) == expected, (g, members)

    def test_within_past_five_vertices(self):
        # The adjacency test on seeded draws with n = 8..14 and random vertex
        # masks S, with the edges leaving S handed in, against an enumeration
        # of G[S] itself.
        rng = random.Random(26)
        for n in range(8, 15):
            for p in (0.3, 0.5, 0.7):
                for g in random_graphs(n, p, rng.randrange(10**6), 2):
                    t = _Cliques(g)
                    for _ in range(40):
                        s = rng.getrandbits(n)
                        members = [v for v in range(n) if s >> v & 1]
                        sub, _ = g.induced_subgraph(members)
                        expected = []
                        for c in maximal_cliques(sub):
                            clique = tuple(members[i] for i in sorted(c))
                            expected.append((clique, sum(t.incident[u] & t.incident[v] for u, v in combinations(clique, 2))))
                        leaving = sum(t.incident[u] & t.incident[v] for u, v in g.edges() if not s >> u & s >> v & 1)
                        assert t.within(s, leaving) == expected, (g.edges(), members)

    def test_edges_at_is_the_incident_edge_set(self, graphs_up_to_3, graphs_4, graphs_5):
        # the tests' own OR of t.incident over a vertex mask
        for g in graphs_up_to_3 + graphs_4 + graphs_5:
            t = _Cliques(g)
            for s in range(1 << g.n):
                members = [v for v in range(g.n) if s >> v & 1]
                incident_edges = g.incident_edges(members)
                assert edges_at(t, s) == sum(t.incident[u] & t.incident[v] for u, v in incident_edges), (g, members)

    def test_layout(self, graphs_up_to_3, graphs_4, graphs_5):
        # against brute force in g.edges() order: edge i is bit i, clique j
        # the j-th of maximal_cliques(g)
        rng = random.Random(28)
        draws = [g for n in range(8, 15) for p in (0.3, 0.5) for g in random_graphs(n, p, rng.randrange(10**6), 2)]
        for g in graphs_up_to_3 + graphs_4 + graphs_5 + draws:
            t = _Cliques(g)
            edges = g.edges()
            cliques = maximal_cliques(g)
            assert len(t.vertex_masks) == len(t.edge_family.cands) == len(cliques), edges
            for c, members, cand in zip(cliques, t.vertex_masks, t.edge_family.cands):
                assert members == sum(1 << v for v in c), (edges, c)
                assert cand == sum(1 << i for i, (u, v) in enumerate(edges) if u in c and v in c), (edges, c)
            for u, v in combinations(range(g.n), 2):
                bit = 1 << edges.index((u, v)) if (u, v) in edges else 0
                assert t.incident[u] & t.incident[v] == bit, (edges, u, v)
        g = path_graph(3)  # edges (0, 1) and (1, 2)
        t = _Cliques(g)
        assert t.vertex_masks == [0b011, 0b110]
        assert t.edge_family.cands == [1, 2]
        assert t.incident == [1, 3, 2]
        assert sorted(vars(t)) == ["edge_family", "incident", "known", "rows", "vertex_masks"]
