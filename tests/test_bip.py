from __future__ import annotations

import math

import numpy as np
import pytest

from dwmwis import (
    FamilySpec,
    Graph,
    WeightedGraph,
    brute_force_mwis,
    build_constraints,
    generate_family,
    solve_bip,
)
from oracles import grid_weights, random_graph


class TestBuildConstraints:
    def test_worked_example_has_four(self, tree_graph):
        cs = build_constraints(tree_graph)
        # edges (0,2), (1,2), (2,3), (3,4) as adjacency bitsets
        assert cs.neighbor_masks == (0b00100, 0b00100, 0b01011, 0b10100, 0b01000)
        assert sum(bin(mask).count("1") for mask in cs.neighbor_masks) == 2 * 4

    def test_edgeless_graph_has_none(self):
        cs = build_constraints(Graph.from_edges(4, []))
        assert cs.neighbor_masks == (0, 0, 0, 0)

    def test_k4_has_six(self):
        cs = build_constraints(generate_family(FamilySpec("Complete", (4,))))
        assert cs.neighbor_masks == tuple(0b1111 & ~(1 << v) for v in range(4))
        assert sum(bin(mask).count("1") for mask in cs.neighbor_masks) == 2 * 6

    def test_branch_order_is_descending_degree(self, tree_graph):
        cs = build_constraints(tree_graph)
        assert cs.order[0] == 2  # the hub
        degrees = tree_graph.degrees()
        assert all(
            degrees[cs.order[i]] >= degrees[cs.order[i + 1]] for i in range(len(cs.order) - 1)
        )


class TestSolve:
    def test_worked_example(self, tree_graph):
        cs = build_constraints(tree_graph)
        solution = solve_bip(cs, (2.0, 3.0, 8.0, 3.0, 1.0))
        assert solution.value == 9.0
        assert solution.vertices == frozenset({2, 4})
        assert solution.seconds >= 0.0

    def test_clique_takes_the_heaviest_vertex(self):
        g = generate_family(FamilySpec("Complete", (7,)))
        cs = build_constraints(g)
        rng = np.random.default_rng(2)
        for _ in range(5):
            w = grid_weights(7, rng)
            solution = solve_bip(cs, w)
            assert solution.value == max(w)
            assert len(solution.vertices) == 1

    def test_weight_validation(self, tree_graph):
        cs = build_constraints(tree_graph)
        with pytest.raises(ValueError, match="positive"):
            solve_bip(cs, (1.0, 1.0, -2.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="expected 5"):
            solve_bip(cs, (1.0, 1.0))

    @pytest.mark.parametrize("trial", range(15))
    def test_matches_oracle_exactly(self, trial):
        rng = np.random.default_rng(1300 + trial)
        g = random_graph(int(rng.integers(2, 16)), float(rng.uniform(0.1, 0.7)), rng)
        weighted = WeightedGraph(g, grid_weights(g.n, rng))
        cs = build_constraints(g)
        solution = solve_bip(cs, weighted.weights)
        _, oracle_value = brute_force_mwis(weighted)
        assert solution.value == oracle_value
        # feasibility: no edge of the graph fully selected
        assert all(
            not ({u, v} <= solution.vertices) for u, v in g.sorted_edges()
        )
        assert solution.value == math.fsum(
            weighted.weights[v] for v in sorted(solution.vertices)
        )

    def test_reuse_equals_fresh_builds(self):
        rng = np.random.default_rng(99)
        g = random_graph(12, 0.3, rng)
        weightings = [grid_weights(12, rng) for _ in range(10)]
        shared = build_constraints(g)
        reused = [solve_bip(shared, w).value for w in weightings]
        fresh = [solve_bip(build_constraints(g), w).value for w in weightings]
        assert reused == fresh
