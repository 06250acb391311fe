from __future__ import annotations

import itertools
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwmwis import (
    FamilySpec,
    Graph,
    WeightedGraph,
    build_constraints,
    gen_weights,
    generate_family,
    solve_bip,
)
from dwmwis.bip import _Cover
from oracles import (
    brute_force_mwis,
    cover_bound_reference,
    cycle_optimum,
    forest_optimum,
    grid_weights,
    hundredths,
    is_independent,
    random_graph,
    random_tree,
    solve_bip_reference,
)


def _position(cs):
    position = [0] * cs.n
    for p, v in enumerate(cs.elimination):
        position[v] = p
    return position


def _cover(cs, weights):
    """The solver's cover for vertex-indexed weights, built as ``solve_bip``
    builds it: weights by position, later lists heaviest first with ties to
    the lower vertex index."""
    w = [weights[v] for v in cs.elimination]
    return _Cover(cs.masks, w, sorted(range(cs.n), key=lambda p: (-w[p], cs.elimination[p])))


MASK_GRAPHS = {
    "worked-example": Graph.from_edges(5, [(0, 2), (1, 2), (2, 3), (3, 4)]),
    "edgeless": Graph.from_edges(4, []),
    "k4": generate_family(FamilySpec("Complete", (4,))),
    **{
        f"random-{k}": random_graph(25, 0.1 + 0.2 * k, np.random.default_rng(6000 + k))
        for k in range(4)
    },
}


class TestBuildConstraints:
    @pytest.mark.parametrize("name", MASK_GRAPHS)
    def test_masks_hold_each_edge_both_ways(self, name):
        g = MASK_GRAPHS[name]
        cs = build_constraints(g)
        pos = _position(cs)
        assert sorted(cs.elimination) == list(range(g.n))
        for u, v in g.edges:
            assert (cs.masks[pos[u]] >> pos[v]) & 1
            assert (cs.masks[pos[v]] >> pos[u]) & 1
        assert sum(mask.bit_count() for mask in cs.masks) == 2 * g.num_edges
        assert cs.num_edges == g.num_edges

    def test_branch_order_is_descending_degree(self, tree_graph):
        cs = build_constraints(tree_graph)
        # degrees (1, 1, 3, 2, 1): the hub, then vertex 3, then the leaves by index
        assert [cs.elimination[p] for p in cs.order] == [2, 3, 0, 1, 4]
        rng = np.random.default_rng(6050)
        for _ in range(10):
            g = random_graph(int(rng.integers(1, 30)), float(rng.uniform(0.05, 0.5)), rng)
            adj = g.adjacency()
            cs = build_constraints(g)
            expected = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
            assert [cs.elimination[p] for p in cs.order] == expected

    @pytest.mark.parametrize("trial", range(20))
    def test_elimination_takes_least_remaining_degree_lowest_index(self, trial):
        rng = np.random.default_rng(6100 + trial)
        g = random_graph(int(rng.integers(1, 40)), float(rng.uniform(0.0, 0.6)), rng)
        adj = g.adjacency()
        left = set(range(g.n))
        expected = []
        while left:
            v = min(left, key=lambda u: (len(adj[u] & left), u))
            expected.append(v)
            left.remove(v)
        assert build_constraints(g).elimination == tuple(expected)

    def test_elimination_takes_a_forest_leaf_first(self):
        rng = np.random.default_rng(61)
        g = random_tree(150, rng)
        position = {v: p for p, v in enumerate(build_constraints(g).elimination)}
        # each vertex has at most one neighbour left when it is taken
        assert all(
            sum(position[u] > position[v] for u in nbrs) <= 1
            for v, nbrs in enumerate(g.adjacency())
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


class TestCoverBound:
    """The fractional clique cover at the root, over every vertex."""

    @staticmethod
    def root_bound(g, weights):
        return _cover(build_constraints(g), weights).bound((1 << g.n) - 1, 0.0, math.inf)

    @pytest.mark.parametrize("trial", range(10))
    def test_equals_the_optimum_on_a_forest(self, trial):
        rng = np.random.default_rng(6200 + trial)
        g = random_tree(int(rng.integers(1, 200)), rng)
        if trial % 2:  # a forest: drop a few edges of the tree
            edges = g.sorted_edges()
            keep = rng.random(len(edges)) > 0.1
            g = Graph.from_edges(g.n, [e for e, k in zip(edges, keep) if k])
        weights = grid_weights(g.n, rng)
        optimum = forest_optimum(g, hundredths(weights)) / 100
        margin = 4 * (g.n + g.num_edges + 2) * math.ulp(math.fsum(weights))
        assert abs(self.root_bound(g, weights) - optimum) <= margin

    @pytest.mark.parametrize("trial", range(40))
    def test_at_least_the_optimum(self, trial):
        rng = np.random.default_rng(6300 + trial)
        n = int(rng.integers(1, 19))
        g = random_graph(n, float(rng.uniform(0.05, 0.9)), rng)
        weights = grid_weights(n, rng)
        _, optimum = brute_force_mwis(WeightedGraph(g, weights))
        margin = 4 * (n + g.num_edges + 2) * math.ulp(math.fsum(weights))
        assert self.root_bound(g, weights) >= optimum - margin

    @pytest.mark.parametrize("trial", range(30))
    def test_matches_the_set_reference(self, trial):
        rng = np.random.default_rng(6400 + trial)
        n = int(rng.integers(1, 40))
        g = random_graph(n, float(rng.uniform(0.05, 0.9)), rng)
        # weights of 0.01 and 0.02 on odd trials: equal weights exercise the index ties
        top = 3 if trial % 2 else 100
        weights = tuple(float(k) / 100 for k in rng.integers(1, top, size=n))
        cs = build_constraints(g)
        cover = _cover(cs, weights)
        pos = _position(cs)
        for _ in range(5):
            avail = {v for v in range(n) if rng.random() < 0.7}
            mask = sum(1 << pos[v] for v in avail)
            want = cover_bound_reference(g, cs.elimination, weights, avail)
            assert cover.bound(mask, 0.0, math.inf) == want

    def test_stops_once_past_the_threshold(self):
        g = generate_family(FamilySpec("Cycle", (9,)))
        cover = _cover(build_constraints(g), [1.0] * 9)
        # the first root adds 1.0 and already exceeds a threshold of 0.5
        assert cover.bound((1 << 9) - 1, 0.0, 0.5) == 1.0
        assert cover.bound((1 << 9) - 1, 0.0, math.inf) >= 4.0


def _check_optimal(g, weights, solution, optimum_hundredths):
    assert is_independent(g, solution.vertices)
    assert solution.value == math.fsum(weights[v] for v in sorted(solution.vertices))
    assert sum(hundredths([weights[v] for v in solution.vertices])) == optimum_hundredths


@st.composite
def tie_heavy_instances(draw) -> tuple[Graph, tuple[float, ...]]:
    """A graph of at most 14 vertices with every weight 1.0 or 2.0: most have
    several co-optimal sets, so the tie-breaks decide which one is returned."""
    n = draw(st.integers(1, 14))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k]), tuple(weights)


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
        solution = solve_bip(build_constraints(g), weights)
        assert (solution.value, solution.vertices) == solve_bip_reference(g, weights)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(tie_heavy_instances())
    def test_tie_heavy_weights(self, instance):
        g, weights = instance
        solution = solve_bip(build_constraints(g), weights)
        assert (solution.value, solution.vertices) == solve_bip_reference(g, weights)
        assert solution.value == brute_force_mwis(WeightedGraph(g, weights))[1]

    @pytest.mark.parametrize(
        "family,params", [("Grid", (5, 5)), ("Star", (12,)), ("Complete", (7,))]
    )
    def test_family(self, family, params):
        g = generate_family(FamilySpec(family, params))
        cs = build_constraints(g)
        for weights in gen_weights(g.n, 5, seed=7):
            solution = solve_bip(cs, weights)
            assert (solution.value, solution.vertices) == solve_bip_reference(g, weights)


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

    @pytest.mark.parametrize("trial", range(6))
    def test_random_tree_of_100_to_200(self, trial):
        rng = np.random.default_rng(5300 + trial)
        g = random_tree(int(rng.integers(100, 201)), rng)
        weights = grid_weights(g.n, rng)
        solution = solve_bip(build_constraints(g), weights)
        _check_optimal(g, weights, solution, forest_optimum(g, hundredths(weights)))

    @pytest.mark.parametrize("seed", range(6))
    def test_cycle_200_within_cpu_budget(self, seed):
        g = generate_family(FamilySpec("Cycle", (200,)))
        weights = gen_weights(200, 1, seed=seed)[0]
        cs = build_constraints(g)
        t0 = time.process_time()
        solution = solve_bip(cs, weights)
        assert time.process_time() - t0 < 2.0
        _check_optimal(g, weights, solution, cycle_optimum(g, hundredths(weights)))

    def test_cycle_60_within_cpu_budget(self):
        g = generate_family(FamilySpec("Cycle", (60,)))
        weights = gen_weights(60, 1, seed=1)[0]
        cs = build_constraints(g)
        t0 = time.process_time()
        solution = solve_bip(cs, weights)
        assert time.process_time() - t0 < 8.0
        _check_optimal(g, weights, solution, cycle_optimum(g, hundredths(weights)))
