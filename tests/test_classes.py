"""Every unlabeled class on 6 and 7 vertices, one graph each, generated by
one-vertex extension (oracles.unlabeled_classes): the general bound, the
competition number and the witness that proves it, checked class by class
past the labeled sweeps, which stop at 6 vertices."""

from functools import lru_cache

import pytest

from compnum import competition_number, cover_from_witness, general_bound, opsut_vertex_bound, verify_realization
from compnum.graphs import _rows_graph
from oracles import neighborhood_cover_bound, unlabeled_classes


@lru_cache(maxsize=None)
def solved(n: int) -> list:
    """(graph, unpruned report, k, witness) per class on n vertices."""
    out = []
    for rows in unlabeled_classes(n).values():
        g = _rows_graph(rows)
        out.append((g, general_bound(g), *competition_number(g)))
    return out


@pytest.mark.parametrize("n", [6, 7])
def test_the_pruned_bound_is_the_unpruned_one(n):
    for g, report, _, _ in solved(n):
        assert general_bound(g, prune=True).general == report.general, g.edges()
        # opsut_vertex_bound is the m = 1 term; the reference covers every N(v)
        assert opsut_vertex_bound(g) == neighborhood_cover_bound(g) == report.opsut_vertex, g.edges()


@pytest.mark.parametrize("n", [6, 7])
def test_k_is_the_clamped_bound_or_one_more(n):
    for g, report, k, _ in solved(n):
        assert 0 <= k - max(0, report.general) <= 1, g.edges()


@pytest.mark.parametrize("n", [6, 7])
def test_every_witness_gives_m_plus_k_minus_1_cliques_at_every_m(n):
    # the cover read off a witness is what bounds the m-th term by k
    for g, _, k, witness in solved(n):
        assert verify_realization(g, k, witness.digraph), g.edges()
        for m in range(1, n + 1):
            cover = cover_from_witness(g, witness, m)
            assert cover.size == m + k - 1 and cover.covers_target(), (g.edges(), m)


@pytest.mark.parametrize("n,gaps,strict", [(6, 3, 8), (7, 56, 86)])
def test_the_census(n, gaps, strict):
    # k exceeds the general bound on `gaps` classes, and the general bound
    # exceeds both of Opsut's on `strict`: the paper's generalization, counted
    entries = solved(n)
    assert sum(k == report.general + 1 for _, report, k, _ in entries) == gaps
    assert sum(report.general > max(report.opsut_edge, report.opsut_vertex) for _, report, _, _ in entries) == strict
