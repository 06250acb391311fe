from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import sys
import time
from fractions import Fraction

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
from dwmwis import bip
from dwmwis.bip import _Cover, _exact
from oracles import (
    bipartite_by_enumeration,
    brute_force_mwis,
    cover_bound_reference,
    cycle_optimum,
    forest_optimum,
    grid_optimum,
    grid_weights,
    hundredths,
    is_independent,
    random_graph,
    random_tree,
    reference_mwis,
    solve_bip_reference,
)


def _position(cs):
    position = [0] * cs.n
    for p, v in enumerate(cs.elimination):
        position[v] = p
    return position


def _cover(cs, weights):
    """The cover on the float weights, to check against the float operations
    of ``cover_bound_reference``: weights by position, later lists heaviest
    first with ties to the lower vertex index. ``solve_bip`` builds the same
    cover on exact integers, as ``_exact_cover`` does."""
    w = [weights[v] for v in cs.elimination]
    return _Cover(cs.masks, w, sorted(range(cs.n), key=lambda p: (-w[p], cs.elimination[p])))


def _exact_cover(cs, weights):
    """The cover as ``solve_bip`` builds it, on the exact integer weights of
    ``_exact`` by position, and those integers by vertex."""
    w = [float(weights[v]) for v in cs.elimination]
    x = _exact(w)
    cover = _Cover(cs.masks, x, sorted(range(cs.n), key=lambda p: (-w[p], cs.elimination[p])))
    by_vertex = [0] * cs.n
    for p, v in enumerate(cs.elimination):
        by_vertex[v] = x[p]
    return cover, by_vertex


def _exact_optimum(g, x):
    """The greatest sum of the integer weights ``x`` over the independent
    sets of g, by include/exclude on bitsets of the vertices left."""
    nbrs = [sum(1 << u for u in a) for a in g.adjacency()]

    @functools.lru_cache(maxsize=None)
    def best(avail):
        if not avail:
            return 0
        v = (avail & -avail).bit_length() - 1
        rest = avail ^ (1 << v)
        return max(best(rest), x[v] + best(rest & ~nbrs[v]))

    return best((1 << g.n) - 1)


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

    def test_power_of_two_scaling_keeps_the_set_and_the_time(self):
        # scaling by a power of two leaves the integers of ``_exact`` as they
        # were, so the cut on Grid(5, 6) is the same, in the same time
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


COVER_WEIGHTS = (
    grid_weights,
    lambda n, rng: tuple(float(k) / 10 for k in rng.integers(1, 4, size=n)),
    lambda n, rng: tuple(2.0 ** float(e) for e in rng.uniform(-30, 53, size=n)),
)


class TestCoverBound:
    """The fractional clique cover, at the root over every vertex and at
    random subsets of the vertices."""

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

    @staticmethod
    def exact_bounds(g, weights, rng):
        """The exact cover's bound over all of g and over four random subsets,
        each with the subgraph it induces and the exact weights by vertex,
        zero outside the subset."""
        cs = build_constraints(g)
        cover, x = _exact_cover(cs, weights)
        pos = _position(cs)
        out = [(cover.bound((1 << g.n) - 1, 0, math.inf), g, x)]
        for _ in range(4):
            avail = {v for v in range(g.n) if rng.random() < 0.7}
            induced = Graph.from_edges(g.n, [e for e in g.edges if set(e) <= avail])
            bound = cover.bound(sum(1 << pos[v] for v in avail), 0, math.inf)
            out.append((bound, induced, [x[v] if v in avail else 0 for v in range(g.n)]))
        return out

    @pytest.mark.parametrize("trial", range(10))
    def test_exact_bound_equals_the_optimum_on_a_forest(self, trial):
        rng = np.random.default_rng(6500 + trial)
        g = random_tree(int(rng.integers(1, 200)), rng)
        if trial % 2:  # a forest: drop a few edges of the tree
            edges = g.sorted_edges()
            keep = rng.random(len(edges)) > 0.1
            g = Graph.from_edges(g.n, [e for e, k in zip(edges, keep) if k])
        weights = COVER_WEIGHTS[trial % 3](g.n, rng)
        for bound, induced, x in self.exact_bounds(g, weights, rng):
            assert bound == forest_optimum(induced, x)

    @pytest.mark.parametrize("trial", range(10))
    def test_exact_bound_equals_the_optimum_on_a_triangle_and_tree(self, trial):
        # the trees are taken leaf first, and the triangle is a clique
        rng = np.random.default_rng(6600 + trial)
        g, t = _triangle_and_tree(int(rng.integers(3, 150)), rng)
        weights = COVER_WEIGHTS[trial % 3](g.n, rng)
        for bound, induced, x in self.exact_bounds(g, weights, rng):
            assert bound == _triangle_and_tree_optimum(induced, x, t)

    @pytest.mark.parametrize("trial", range(30))
    def test_exact_bound_at_least_the_optimum(self, trial):
        rng = np.random.default_rng(6700 + trial)
        g = random_graph(int(rng.integers(1, 19)), float(rng.uniform(0.05, 0.9)), rng)
        weights = COVER_WEIGHTS[trial % 3](g.n, rng)
        for bound, induced, x in self.exact_bounds(g, weights, rng):
            assert bound >= _exact_optimum(induced, x)

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


@st.composite
def bipartite_graphs(draw) -> Graph:
    """A bipartite graph, a tree or a forest of at most 14 vertices, with its
    labels shuffled."""
    n = draw(st.integers(1, 14))
    shape = draw(st.sampled_from(["bipartite", "tree", "forest"]))
    if shape == "bipartite":
        side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if side[u] != side[v]]
    else:
        edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    if shape != "tree":
        keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        edges = [e for e, k in zip(edges, keep) if k]
    label = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


TIE_HEAVY_WEIGHTS = {
    "ones-and-twos": st.sampled_from([1.0, 2.0]),
    "hundredths": st.integers(1, 99).map(lambda k: k / 100),
    "dyadic": st.integers(1, 511).map(lambda k: k / 128),
}


def _scaled(weights):
    """Float weights as integers in units of the least power of two that
    divides them all, so that sums of them are exact."""
    scale = max(Fraction(x).denominator for x in weights)
    return [int(Fraction(x) * scale) for x in weights]


# two-decimal weights on Cycle(20), as (seed, index) into gen_weights(20, 40,
# seed=seed), where a set of lower exact sum than the optimum has the same value
FLOAT_TIES = [(5, 38), (7, 1), (14, 14), (14, 27)]

EXACT_SUM_CASES = {
    "path-of-three": (Graph.from_edges(5, [(0, 1), (1, 3)]), (0.1, 0.3, 1 / 3, 0.2, 0.2)),
    "eight-vertices": (
        Graph.from_edges(8, [(0, 4), (0, 5), (0, 6), (0, 7), (1, 5), (1, 7), (2, 4), (3, 6)]),
        (0.01, 0.58, 0.32, 0.98, 0.87, 0.4, 0.97, 0.18),
    ),
    "lost-then-kept": (
        Graph.from_edges(9, [(0, 1), (0, 2), (3, 6), (3, 7), (4, 5)]),
        (0.25, 0.1875, 0.1875, 2**-56, 0.25 - 2**-55, 0.25, 5 * 2**-56, 5 * 2**-56, 0.25),
    ),
    **{
        f"cycle-20-{seed}-{index}": (
            generate_family(FamilySpec("Cycle", (20,))),
            gen_weights(20, 40, seed=seed)[index],
        )
        for seed, index in FLOAT_TIES
    },
}


def _is_two_colouring(g, cs):
    pos = _position(cs)
    return all(cs.side[pos[u]] != cs.side[pos[v]] for u, v in g.edges)


class TestMinimumCut:
    """Bipartite graphs take the minimum cut, which returns the value and set
    of the branch and bound, ties included."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(bipartite_graphs(), st.sampled_from(sorted(TIE_HEAVY_WEIGHTS)), st.data())
    def test_matches_the_search_on_tie_heavy_weights(self, g, kind, data):
        weights = tuple(data.draw(st.lists(TIE_HEAVY_WEIGHTS[kind], min_size=g.n, max_size=g.n)))
        cs = build_constraints(g)
        assert bipartite_by_enumeration(g)
        assert cs.side is not None and _is_two_colouring(g, cs)
        solution = solve_bip(cs, weights)
        assert (solution.value, solution.vertices) == solve_bip_reference(g, weights)
        assert solution.value == brute_force_mwis(WeightedGraph(g, weights))[1]

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(bipartite_graphs(), st.data())
    def test_matches_the_search_over_a_wide_weight_range(self, g, data):
        # from 2**-30 to 2**53, two sets' exact sums often differ by less than
        # the rounding of their value: they tie on the value, which is the
        # exhaustive search's fsum, but not on the exact sum, which decides
        weight = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-29, 53))
        weights = tuple(data.draw(st.lists(weight, min_size=g.n, max_size=g.n)))
        solution = solve_bip(build_constraints(g), weights)
        assert is_independent(g, solution.vertices)
        assert solution.value == reference_mwis(WeightedGraph(g, weights))[1]
        assert (solution.value, solution.vertices) == solve_bip_reference(g, weights)

    @pytest.mark.parametrize("trial", range(20))
    def test_one_cut_settles_exact_ties(self, trial, monkeypatch):
        # integer weights sum exactly, so only exact sums tie, and the
        # lexicographic capacity bits settle those in the first cut
        max_flow, flows = bip._max_flow, []
        monkeypatch.setattr(bip, "_max_flow", lambda *args: flows.append(1) or max_flow(*args))
        rng = np.random.default_rng(6500 + trial)
        n = int(rng.integers(20, 61))
        side = rng.integers(0, 2, size=n)
        pairs = itertools.combinations(range(n), 2)
        g = Graph.from_edges(n, [(u, v) for u, v in pairs if side[u] != side[v] and rng.random() < 0.1])
        solution = solve_bip(build_constraints(g), tuple(float(k) for k in rng.integers(1, 3, size=n)))
        assert is_independent(g, solution.vertices)
        assert len(flows) == 1

    @pytest.mark.parametrize("name", EXACT_SUM_CASES)
    def test_one_flow_finds_the_greatest_exact_sum(self, name, monkeypatch):
        # sets whose exact sums differ by less than the rounding of their
        # value tie on the value; one flow on exact capacities tells them apart
        max_flow, flows = bip._max_flow, []
        monkeypatch.setattr(bip, "_max_flow", lambda *args: flows.append(1) or max_flow(*args))
        g, weights = EXACT_SUM_CASES[name]
        solution = solve_bip(build_constraints(g), weights)
        assert len(flows) == 1
        assert (solution.value, solution.vertices) == solve_bip_reference(g, weights)
        assert solution.value == brute_force_mwis(WeightedGraph(g, weights))[1]
        exact = _scaled(weights)
        assert sum(exact[v] for v in solution.vertices) == _exact_optimum(g, exact)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(tie_heavy_instances())
    def test_two_colouring_agrees_with_enumeration(self, instance):
        g, _ = instance
        cs = build_constraints(g)
        assert (cs.side is not None) == bipartite_by_enumeration(g)
        assert cs.side is None or _is_two_colouring(g, cs)

    @pytest.mark.parametrize(
        "family,params,cut",
        [
            ("Complete", (8,), False),
            ("Cycle", (21,), False),
            ("Petersen", (), False),
            ("Cycle", (20,), True),
            ("Grid", (7, 7), True),
            ("Star", (20,), True),
            ("CompleteBipartite", (4, 4), True),
        ],
    )
    def test_selects_the_path_by_the_graph(self, family, params, cut):
        assert (build_constraints(generate_family(FamilySpec(family, params))).side is not None) == cut

    def test_forests_and_edgeless_graphs_take_the_cut(self):
        rng = np.random.default_rng(63)
        tree = random_tree(40, rng)
        forest = Graph.from_edges(40, tree.sorted_edges()[::2])
        for g in (tree, forest, Graph.from_edges(5, []), Graph.from_edges(0, [])):
            assert build_constraints(g).side is not None

    @pytest.mark.parametrize("seed,index", FLOAT_TIES)
    def test_float_ties_take_the_greatest_exact_sum(self, seed, index):
        # two-decimal weights where a set of lower exact sum ties the optimum
        # on the value and comes first in the search's order: the set
        # returned is still the one of greatest exact sum
        g = generate_family(FamilySpec("Cycle", (20,)))
        weights = gen_weights(20, 40, seed=seed)[index]
        solution = solve_bip(build_constraints(g), weights)
        assert (solution.value, solution.vertices) == solve_bip_reference(g, weights)
        exact = _scaled(weights)
        assert sum(exact[v] for v in solution.vertices) == cycle_optimum(g, exact)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(bipartite_graphs(), st.sampled_from(sorted(TIE_HEAVY_WEIGHTS)), st.data())
    def test_the_search_agrees_with_the_cut(self, g, kind, data):
        # the same constraint set with no 2-colouring forces the search
        weights = tuple(data.draw(st.lists(TIE_HEAVY_WEIGHTS[kind], min_size=g.n, max_size=g.n)))
        cs = build_constraints(g)
        cut = solve_bip(cs, weights)
        search = solve_bip(dataclasses.replace(cs, side=None), weights)
        assert (search.value, search.vertices) == (cut.value, cut.vertices)

    @pytest.mark.parametrize("trial", range(10))
    def test_the_search_agrees_with_the_cut_on_larger_graphs(self, trial):
        rng = np.random.default_rng(6800 + trial)
        n = int(rng.integers(20, 41))
        side = rng.integers(0, 2, size=n)
        pairs = itertools.combinations(range(n), 2)
        edges = [(u, v) for u, v in pairs if side[u] != side[v] and rng.random() < 0.15]
        g = Graph.from_edges(n, edges)
        cs = build_constraints(g)
        tenths = tuple(float(k) / 10 for k in rng.integers(1, 4, size=n))
        for weights in (grid_weights(n, rng), tenths):
            cut = solve_bip(cs, weights)
            search = solve_bip(dataclasses.replace(cs, side=None), weights)
            assert (search.value, search.vertices) == (cut.value, cut.vertices)


def _within_cpu_budget(g, weights, seconds=0.1):
    cs = build_constraints(g)
    t0 = time.process_time()
    solution = solve_bip(cs, weights)
    assert time.process_time() - t0 < seconds
    return solution


class TestChipScale:
    """Bipartite graphs at chip scale, far beyond the branch and bound's
    reach, against dynamic programmes."""

    @pytest.mark.parametrize("seed", range(26))
    def test_cycle_500(self, seed):
        g = generate_family(FamilySpec("Cycle", (500,)))
        weights = gen_weights(500, 1, seed=seed)[0]
        solution = _within_cpu_budget(g, weights)
        _check_optimal(g, weights, solution, cycle_optimum(g, hundredths(weights)))

    @pytest.mark.parametrize("seed", range(26))
    def test_grid_14_by_14(self, seed):
        g = generate_family(FamilySpec("Grid", (14, 14)))
        weights = gen_weights(196, 1, seed=seed)[0]
        solution = _within_cpu_budget(g, weights)
        _check_optimal(g, weights, solution, grid_optimum(14, 14, hundredths(weights)))

    def test_tree_of_90_with_unit_weights(self):
        # every weight 1.0: exponentially many co-optimal sets
        rng = np.random.default_rng(90)
        g = Graph.from_edges(90, [(v, rng.integers(0, v)) for v in range(1, 90)])
        weights = (1.0,) * 90
        solution = _within_cpu_budget(g, weights)
        _check_optimal(g, weights, solution, forest_optimum(g, hundredths(weights)))

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 6), (2, 5), (3, 4), (4, 4)])
    def test_grid_oracle_agrees_with_enumeration(self, rows, cols):
        rng = np.random.default_rng(10 * rows + cols)
        g = generate_family(FamilySpec("Grid", (rows, cols)))
        weights = grid_weights(g.n, rng)
        vertices, _ = brute_force_mwis(WeightedGraph(g, weights))
        optimum = sum(hundredths([weights[v] for v in vertices]))
        assert grid_optimum(rows, cols, hundredths(weights)) == optimum


def _triangle_and_tree(n, rng):
    """A triangle with a random tree hung on it, n vertices with labels
    shuffled, and one vertex of the triangle."""
    edges = [(0, 1), (1, 2), (0, 2)] + [(v, int(rng.integers(0, v))) for v in range(3, n)]
    label = rng.permutation(n)
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges]), int(label[0])


def _triangle_and_tree_optimum(g, w, t):
    """The optimum of ``_triangle_and_tree``'s graph with integer weights,
    split on its triangle vertex t into two forests: t left out (its edges
    dropped, its weight 0), and t taken (its neighbours' edges dropped,
    their weights 0)."""
    nbrs = g.adjacency()[t]
    left_out = Graph.from_edges(g.n, [e for e in g.edges if t not in e])
    taken = Graph.from_edges(g.n, [e for e in g.edges if not set(e) & nbrs])
    return max(
        forest_optimum(left_out, [0 if v == t else x for v, x in enumerate(w)]),
        forest_optimum(taken, [0 if v in nbrs else x for v, x in enumerate(w)]),
    )


TIED_WEIGHTS = {
    "ones": lambda n, rng: (1.0,) * n,
    "ones-and-twos": lambda n, rng: tuple(float(k) for k in rng.integers(1, 3, size=n)),
    "tenths": lambda n, rng: tuple(float(k) / 10 for k in rng.integers(1, 4, size=n)),
}


class TestSearchOffBipartite:
    """Twins of the search tests whose graphs are bipartite and so now take
    the cut: the same checks on graphs with an odd cycle."""

    def test_power_of_two_scaling_keeps_the_set_and_the_time(self):
        # as in TestSolve, but the search makes the same prunes: Grid(5, 6)
        # with the diagonal (0, 7), which closes a triangle
        grid = generate_family(FamilySpec("Grid", (5, 6)))
        cs = build_constraints(Graph.from_edges(30, grid.sorted_edges() + [(0, 7)]))
        assert cs.side is None
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

    @pytest.mark.parametrize("family,params", [("Cycle", (21,)), ("Petersen", ())])
    def test_family(self, family, params):
        g = generate_family(FamilySpec(family, params))
        cs = build_constraints(g)
        assert cs.side is None
        for weights in gen_weights(g.n, 5, seed=7):
            solution = solve_bip(cs, weights)
            assert (solution.value, solution.vertices) == solve_bip_reference(g, weights)

    @pytest.mark.parametrize("n", [201, 501])
    def test_tied_cycle_within_cpu_budget(self, n):
        # every weight 1.0: n co-optimal sets of (n - 1) / 2 vertices, whose
        # subtrees an exact prune cuts at their roots rather than walks
        g = generate_family(FamilySpec("Cycle", (n,)))
        weights = (1.0,) * n
        solution = _within_cpu_budget(g, weights, seconds=0.5)
        _check_optimal(g, weights, solution, cycle_optimum(g, hundredths(weights)))

    @pytest.mark.parametrize("n", [90, 200])
    def test_tied_triangle_and_tree_within_cpu_budget(self, n):
        g, t = _triangle_and_tree(n, np.random.default_rng(n))
        assert build_constraints(g).side is None
        weights = (1.0,) * n
        solution = _within_cpu_budget(g, weights, seconds=0.5)
        _check_optimal(g, weights, solution, _triangle_and_tree_optimum(g, hundredths(weights), t))

    @pytest.mark.parametrize("kind", TIED_WEIGHTS)
    @pytest.mark.parametrize("shape", ["cycle-21", "triangle-and-tree-30"])
    def test_tied_weights_match_the_reference(self, shape, kind):
        rng = np.random.default_rng(37)
        if shape == "cycle-21":
            g = generate_family(FamilySpec("Cycle", (21,)))
        else:
            g, _ = _triangle_and_tree(30, rng)
        weights = TIED_WEIGHTS[kind](g.n, rng)
        solution = solve_bip(build_constraints(g), weights)
        assert (solution.value, solution.vertices) == solve_bip_reference(g, weights)
