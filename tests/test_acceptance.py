"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
shared sweep covers every labeled graph on 4 and on 5 vertices (64 + 1024),
with exact unpruned bound reports and competition numbers solved from k = 0.
"""

import random

from compnum import (
    CoverInstance,
    all_labeled_graphs,
    competition_number,
    complete_graph,
    cover_from_witness,
    cycle_graph,
    edge_clique_cover_number,
    general_bound,
    min_set_cover,
    parse_arc_list,
    parse_graph6,
    path_graph,
    verify_realization,
    vertex_clique_cover_number,
    write_graph6,
)
from oracles import (
    brute_edge_cover_number,
    brute_min_cover,
    brute_vertex_cover_number,
    has_triangle,
    is_connected,
    naive_competition_number,
)


def test_criterion_1_soundness_sweep(sweep):
    violations = [
        write_graph6(e.graph)
        for e in sweep.entries
        if max(0, e.report.general) > e.k
    ]
    assert violations == []
    assert len(sweep.entries) == 64 + 1024
    assert sweep.elapsed_seconds < 600
    print(
        f"ACCEPTANCE 1 (soundness sweep): PASS - max(0, general) <= k on all "
        f"{len(sweep.entries)} graphs, sweep took {sweep.elapsed_seconds:.1f}s"
    )


def test_criterion_2_first_term_identity(sweep):
    for e in sweep.entries:
        assert e.report.term(1).value == e.report.opsut_vertex, write_graph6(e.graph)
    print(
        "ACCEPTANCE 2 (m=1 term equals vertex-cover bound): PASS - exact "
        f"equality on all {len(sweep.entries)} graphs"
    )


def test_criterion_3_second_to_last_term_identity(sweep):
    with_isolated = 0
    for e in sweep.entries:
        n = e.graph.n
        assert n >= 2
        assert e.report.term(n - 1).value == e.report.opsut_edge, write_graph6(e.graph)
        if any(not e.graph.neighbors(v) for v in range(n)):
            with_isolated += 1
    assert with_isolated > 0  # the isolated-vertex case is genuinely exercised
    print(
        "ACCEPTANCE 3 (m=n-1 term equals edge-cover bound): PASS - exact "
        f"equality on all {len(sweep.entries)} graphs "
        f"({with_isolated} of them with isolated vertices)"
    )


def test_criterion_4_witness_cover_property(sweep):
    checked = 0
    for e in sweep.entries:
        g, k = e.graph, e.k
        for m in range(1, g.n + 1):
            cover = cover_from_witness(g, e.witness, m)
            assert cover.size == m + k - 1
            assert cover.members_are_cliques(g)
            assert cover.covers_target()
            assert e.report.term(m).value <= k
            checked += 1
    print(
        "ACCEPTANCE 4 (witness-extracted covers): PASS - size m+k-1, valid "
        f"cliques, full coverage, and term <= k in all {checked} (graph, m) cases"
    )


def test_criterion_5_naive_oracle_agreement():
    graphs = []
    for n in range(1, 5):
        graphs.extend(all_labeled_graphs(n))
    for g in graphs:
        k, _ = competition_number(g, start_k=0)
        assert g.n + k <= 6
        assert naive_competition_number(g) == k, write_graph6(g)
    print(
        "ACCEPTANCE 5 (permutation-times-forward-arcs oracle): PASS - exact "
        f"agreement on all {len(graphs)} graphs with up to 4 vertices"
    )


def test_criterion_6_set_cover_oracle():
    rng = random.Random(2024)
    for trial in range(100):
        universe = list(range(rng.randrange(0, 13)))
        candidates = [
            frozenset(e for e in universe if rng.random() < 0.35)
            for _ in range(rng.randrange(1, 13))
        ]
        # fold anything uncovered into the last candidate: feasible, and
        # still at most 12 candidates
        leftovers = set(universe) - frozenset().union(*candidates, frozenset())
        if leftovers:
            candidates[-1] = candidates[-1] | leftovers
        inst = CoverInstance(universe, candidates)
        size, chosen = min_set_cover(inst)
        assert size == brute_min_cover(inst.universe, inst.candidates), trial
        covered = frozenset().union(*(inst.candidates[i] for i in chosen), frozenset())
        assert covered == inst.universe
    print(
        "ACCEPTANCE 6 (set-cover oracle): PASS - exact match with exhaustive "
        "enumeration on 100 seeded random instances"
    )


def test_criterion_7_spot_values():
    # recomputed by the independent oracles before being frozen here
    assert brute_edge_cover_number(cycle_graph(4)) == 4
    assert edge_clique_cover_number(cycle_graph(4)) == 4
    assert brute_vertex_cover_number(cycle_graph(5)) == 3
    assert vertex_clique_cover_number(cycle_graph(5)) == 3

    assert naive_competition_number(cycle_graph(4)) == 2
    assert competition_number(cycle_graph(4), start_k=0)[0] == 2

    for n in range(2, 7):
        for g in (complete_graph(n), path_graph(n)):
            k, witness = competition_number(g, start_k=0)
            assert k == 1
            # certify independently of the solver: the lower bound says at
            # least 1, the verified witness says at most 1
            assert general_bound(g).general >= 1
            assert verify_realization(g, 1, witness.digraph)
            if g.n + 1 <= 6:
                assert naive_competition_number(g) == 1

    report = general_bound(cycle_graph(4))
    assert report.general == 2
    assert [t.value for t in report.terms] == [2, 2, 2, 1]
    print(
        "ACCEPTANCE 7 (derived spot values): PASS - cover numbers, "
        "competition numbers, and the 4-cycle bound table all match"
    )


def test_criterion_8_triangle_free_consistency(sweep):
    checked = 0
    for e in sweep.entries:
        g = e.graph
        if has_triangle(g) or not is_connected(g):
            continue
        assert e.k >= g.edge_count - g.n + 2, write_graph6(g)
        checked += 1
    assert checked > 0
    print(
        "ACCEPTANCE 8 (triangle-free corollary): PASS - k >= |E|-|V|+2 on all "
        f"{checked} triangle-free connected sweep graphs"
    )


def test_criterion_9_format_round_trips(sweep, tmp_path):
    for e in sweep.entries:
        assert parse_graph6(write_graph6(e.graph)) == e.graph
    # one fresh file per witness: rewriting a single file 1,088 times is
    # dominated by the file system's cost of replacing data, not by compnum
    for i, e in enumerate(sweep.entries):
        witness_file = tmp_path / f"witness{i}.d"
        witness_file.write_text(e.witness.to_arc_list())
        reread = parse_arc_list(witness_file.read_text())
        assert reread == e.witness.digraph
        assert verify_realization(e.graph, e.k, reread)
    print(
        "ACCEPTANCE 9 (format round-trips): PASS - graph6 identity and "
        f"witness arc-list re-verification on all {len(sweep.entries)} graphs"
    )
