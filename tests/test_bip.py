from __future__ import annotations

import math
import sys
import time

import numpy as np
import pytest

from dwmwis import (
    FamilySpec,
    Graph,
    WeightedGraph,
    build_constraints,
    gen_weights,
    generate_family,
    solve_bip,
)
from oracles import (
    brute_force_mwis,
    cycle_optimum,
    forest_optimum,
    grid_weights,
    hundredths,
    is_independent,
    random_graph,
    random_tree,
    solve_bip_reference,
)


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
        degrees = [len(nbrs) for nbrs in tree_graph.adjacency()]
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

    @pytest.mark.parametrize(
        "weights",
        [(math.inf, 1.0, 1.0), (1e308, 1e308, 1e308)],
        ids=["infinite", "total-overflows"],
    )
    def test_rejects_weights_without_a_finite_total(self, weights):
        cs = build_constraints(Graph.from_edges(3, [(0, 1), (1, 2)]))
        with pytest.raises(ValueError, match="finite|overflows"):
            solve_bip(cs, weights)

    def test_leaves_the_recursion_limit_alone(self):
        cs = build_constraints(Graph.from_edges(3000, []))
        before = sys.getrecursionlimit()
        solution = solve_bip(cs, [1.0] * 3000)
        assert sys.getrecursionlimit() == before
        assert solution.vertices == frozenset(range(3000))

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

    def test_prune_margin_scales_with_the_weights(self):
        # scaling by a power of two is exact, so a margin that scales with the
        # weights makes the same prunes; one that does not can stop them all
        cs = build_constraints(generate_family(FamilySpec("Grid", (5, 6))))
        weights = gen_weights(30, 1, seed=1)[0]
        tiny = tuple(w * 2.0**-40 for w in weights)

        def best_of_three(w):
            times = []
            for _ in range(3):
                t0 = time.process_time()
                solution = solve_bip(cs, w)
                times.append(time.process_time() - t0)
            return solution.vertices, min(times)

        plain, plain_s = best_of_three(weights)
        scaled, scaled_s = best_of_three(tiny)
        assert scaled == plain
        assert scaled_s <= 10 * max(plain_s, 1e-3)


def _check_optimal(g, weights, solution, optimum_hundredths):
    assert is_independent(g, solution.vertices)
    assert solution.value == math.fsum(weights[v] for v in sorted(solution.vertices))
    assert sum(hundredths([weights[v] for v in solution.vertices])) == optimum_hundredths


class TestAgainstReference:
    """A valid bound prunes only branches that cannot replace the best, so
    value and set, ties included, equal those of the trivially bounded
    search over the same order."""

    @pytest.mark.parametrize("trial", range(60))
    def test_random_graph(self, trial):
        rng = np.random.default_rng(4100 + trial)
        n = int(rng.integers(1, 19))
        g = random_graph(n, float(rng.uniform(0.05, 0.8)), rng)
        # weights of 0.01 and 0.02 on odd trials: a fifth of all trials have co-optimal sets
        top = 3 if trial % 2 else 100
        weights = tuple(float(k) / 100 for k in rng.integers(1, top, size=n))
        cs = build_constraints(g)
        solution = solve_bip(cs, weights)
        assert (solution.value, solution.vertices) == solve_bip_reference(cs, weights)

    @pytest.mark.parametrize(
        "family,params", [("Grid", (5, 5)), ("Star", (12,)), ("Complete", (7,))]
    )
    def test_family(self, family, params):
        g = generate_family(FamilySpec(family, params))
        cs = build_constraints(g)
        for weights in gen_weights(g.n, 5, seed=7):
            solution = solve_bip(cs, weights)
            assert (solution.value, solution.vertices) == solve_bip_reference(cs, weights)


class TestAgainstDynamicProgramme:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 11])
    def test_oracles_agree_with_enumeration(self, n):
        rng = np.random.default_rng(n)

        def enumerated(g, weights):
            vertices, _ = brute_force_mwis(WeightedGraph(g, weights))
            return sum(hundredths([weights[v] for v in vertices]))

        cycle = generate_family(FamilySpec("Cycle", (n,)))
        weights = grid_weights(n, rng)
        assert cycle_optimum(cycle, hundredths(weights)) == enumerated(cycle, weights)
        tree = random_tree(n, rng)
        weights = grid_weights(n, rng)
        assert forest_optimum(tree, hundredths(weights)) == enumerated(tree, weights)

    @pytest.mark.parametrize("n", range(30, 61))
    def test_cycle(self, n):
        g = generate_family(FamilySpec("Cycle", (n,)))
        weights = gen_weights(n, 1, seed=n)[0]
        solution = solve_bip(build_constraints(g), weights)
        _check_optimal(g, weights, solution, cycle_optimum(g, hundredths(weights)))

    @pytest.mark.parametrize("trial", range(20))
    def test_random_tree(self, trial):
        rng = np.random.default_rng(5200 + trial)
        g = random_tree(int(rng.integers(2, 41)), rng)
        weights = grid_weights(g.n, rng)
        solution = solve_bip(build_constraints(g), weights)
        _check_optimal(g, weights, solution, forest_optimum(g, hundredths(weights)))

    def test_cycle_60_within_cpu_budget(self):
        g = generate_family(FamilySpec("Cycle", (60,)))
        weights = gen_weights(60, 1, seed=1)[0]
        cs = build_constraints(g)
        t0 = time.process_time()
        solution = solve_bip(cs, weights)
        assert time.process_time() - t0 < 8.0
        _check_optimal(g, weights, solution, cycle_optimum(g, hundredths(weights)))
