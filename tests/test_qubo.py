from __future__ import annotations

import math

import numpy as np
import pytest

from dwmwis import (
    FamilySpec,
    Graph,
    QuboMatrix,
    WeightedGraph,
    auto_penalty,
    brute_force_mwis,
    decode,
    energy,
    generate_family,
    mwis_to_qubo,
    repair,
    scale_to_unit,
)
from dwmwis.qubo import repairer
from oracles import exhaustive_qubo_minimum, grid_weights, is_independent, random_graph

# the worked five-vertex reduction with penalty 12
WORKED_MATRIX = {
    (0, 0): -2.0,
    (1, 1): -3.0,
    (2, 2): -8.0,
    (3, 3): -3.0,
    (4, 4): -1.0,
    (0, 2): 12.0,
    (1, 2): 12.0,
    (2, 3): 12.0,
    (3, 4): 12.0,
}


@pytest.fixture(scope="module")
def worked_qubo(tree_weighted):
    return mwis_to_qubo(tree_weighted, 12.0)


class TestQuboMatrix:
    def test_rejects_lower_triangle(self):
        with pytest.raises(ValueError, match="out of range"):
            QuboMatrix(3, {(2, 1): 1.0})

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError, match="zero"):
            QuboMatrix(3, {(0, 0): 0.0})


class TestEnergy:
    def test_worked_optimum(self, worked_qubo):
        assert energy(worked_qubo, (0, 0, 1, 0, 1)) == -9.0

    def test_all_zeros_is_zero(self, worked_qubo):
        assert energy(worked_qubo, (0, 0, 0, 0, 0)) == 0.0

    def test_runner_up_by_hand_and_enumeration(self, worked_qubo):
        # the independent set {0, 1, 3}: -2 - 3 - 3, no couplings active
        assert energy(worked_qubo, (1, 1, 0, 1, 0)) == -8.0
        minimum, minimizers = exhaustive_qubo_minimum(worked_qubo)
        assert minimum == -9.0
        assert minimizers == [(0, 0, 1, 0, 1)]

    def test_dimension_mismatch(self, worked_qubo):
        with pytest.raises(ValueError, match="length"):
            energy(worked_qubo, (0, 1))


class TestReduction:
    def test_worked_matrix_entry_for_entry(self, worked_qubo):
        assert dict(worked_qubo.entries) == WORKED_MATRIX

    def test_edgeless_graph_is_diagonal(self):
        weighted = WeightedGraph(Graph.from_edges(3, []), (1.0, 2.0, 3.0))
        q = mwis_to_qubo(weighted, 5.0)
        assert dict(q.entries) == {(0, 0): -1.0, (1, 1): -2.0, (2, 2): -3.0}

    def test_triangle_minimum_by_enumeration(self):
        g = generate_family(FamilySpec("Complete", (3,)))
        q = mwis_to_qubo(WeightedGraph(g, (1.0, 2.0, 3.0)), 4.0)
        minimum, minimizers = exhaustive_qubo_minimum(q)
        assert minimum == -3.0
        assert minimizers == [(0, 0, 1)]

    def test_penalty_not_above_max_weight_rejected(self, tree_weighted):
        with pytest.raises(ValueError, match="exceed"):
            mwis_to_qubo(tree_weighted, 8.0)

    def test_auto_penalty_integer_vs_real(self):
        assert auto_penalty((2.0, 8.0, 3.0)) == 9.0
        assert auto_penalty((0.5, 0.8)) == pytest.approx(1.2)

    def test_entry_counts(self, tree_weighted):
        q = mwis_to_qubo(tree_weighted, "auto")
        assert len(q.diagonal()) == tree_weighted.n
        assert len(q.couplings()) == tree_weighted.graph.num_edges


class TestDecode:
    def test_worked_optimum(self):
        assert decode((0, 0, 1, 0, 1)) == frozenset({2, 4})

    def test_all_zeros(self):
        assert decode((0, 0, 0)) == frozenset()

    def test_all_ones(self):
        assert decode((1, 1, 1)) == frozenset({0, 1, 2})


class TestRepair:
    def test_worked_trace(self, tree_weighted, tree_graph):
        # edge (1, 2) is violated; 3 < 8 clears vertex 1, greedy adds 4
        assert repair(tree_weighted, (0, 1, 1, 0, 0)) == (0, 0, 1, 0, 1)

    def test_independent_input_only_grows(self, tree_weighted):
        fixed = repair(tree_weighted, (0, 0, 0, 1, 0))
        selected = decode(fixed)
        assert 3 in selected
        assert tree_weighted.graph.is_independent(selected)
        assert math.fsum(tree_weighted.weights[v] for v in selected) >= 3.0

    def test_equal_weight_edge_keeps_lower_index(self):
        weighted = WeightedGraph(Graph.from_edges(2, [(0, 1)]), (1.0, 1.0))
        assert repair(weighted, (1, 1)) == (1, 0)

    @pytest.mark.parametrize("trial", range(10))
    def test_always_independent_and_never_worse(self, trial):
        rng = np.random.default_rng(900 + trial)
        g = random_graph(int(rng.integers(2, 11)), float(rng.uniform(0.2, 0.7)), rng)
        weighted = WeightedGraph(g, grid_weights(g.n, rng))
        q = mwis_to_qubo(weighted, "auto")
        for _ in range(20):
            x = tuple(int(b) for b in rng.integers(0, 2, size=g.n))
            fixed = repair(weighted, x)
            assert is_independent(g, decode(fixed))
            assert energy(q, fixed) <= energy(q, x)

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_rescanning_reference(self, trial):
        # weights from {1, 2, 3} make equal-weight edges common
        rng = np.random.default_rng(950 + trial)
        g = random_graph(int(rng.integers(2, 13)), float(rng.uniform(0.2, 0.8)), rng)
        weighted = WeightedGraph(g, tuple(float(v) for v in rng.integers(1, 4, size=g.n)))
        fix = repairer(weighted)
        for _ in range(30):
            x = tuple(int(b) for b in rng.integers(0, 2, size=g.n))
            assert fix(x) == repair(weighted, x) == _rescanning_repair(weighted, x)


def _rescanning_repair(weighted, x):
    """Reference repair that restarts its edge scan after every removal."""
    w, edges = weighted.weights, weighted.graph.sorted_edges()
    chosen = {i for i, bit in enumerate(x) if bit}
    while True:
        violated = [(u, v) for u, v in edges if u in chosen and v in chosen]
        if not violated:
            break
        u, v = violated[0]
        chosen.discard(u if w[u] < w[v] else v if w[v] < w[u] else max(u, v))
    adj = weighted.graph.adjacency()
    for v in sorted(range(weighted.n), key=lambda i: (w[i], i)):
        if v not in chosen and not (adj[v] & chosen):
            chosen.add(v)
    return tuple(1 if i in chosen else 0 for i in range(weighted.n))


class TestScaling:
    def test_worked_example_scale(self, worked_qubo):
        scaled, scale = scale_to_unit(worked_qubo)
        assert scale == 12.0
        assert scaled.entries[(0, 0)] == -2.0 / 12.0
        assert scaled.entries[(4, 4)] == -1.0 / 12.0
        assert scaled.entries[(0, 2)] == 1.0
        assert scaled.max_abs_entry() <= 1.0

    def test_already_unit_matrix_unchanged(self):
        q = QuboMatrix(2, {(0, 0): -1.0, (0, 1): 0.5})
        scaled, scale = scale_to_unit(q)
        assert scale == 1.0
        assert scaled == q

    def test_triangle_argmin_preserved(self):
        g = generate_family(FamilySpec("Complete", (3,)))
        q = mwis_to_qubo(WeightedGraph(g, (1.0, 2.0, 3.0)), 4.0)
        scaled, _ = scale_to_unit(q)
        assert exhaustive_qubo_minimum(q)[1] == exhaustive_qubo_minimum(scaled)[1]

    def test_argmin_preserved_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            g = random_graph(int(rng.integers(2, 11)), float(rng.uniform(0.2, 0.6)), rng)
            q = mwis_to_qubo(WeightedGraph(g, grid_weights(g.n, rng)), "auto")
            scaled, _ = scale_to_unit(q)
            assert exhaustive_qubo_minimum(q)[1] == exhaustive_qubo_minimum(scaled)[1]

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            scale_to_unit(QuboMatrix(2, {}))


class TestReductionEquivalence:
    """The reduction is exact: the negated minimum equals the heaviest
    independent set, and every minimiser decodes to an independent set."""

    @pytest.mark.parametrize(
        "family,params",
        [
            ("Cycle", (5,)),
            ("Star", (6,)),
            ("Complete", (6,)),
            ("CompleteBipartite", (3, 4)),
            ("Grid", (2, 4)),
            ("Hypercube", (3,)),
            ("Petersen", ()),
        ],
    )
    def test_family_instances(self, family, params):
        g = generate_family(FamilySpec(family, params))
        rng = np.random.default_rng(hash((family, params)) % (2**32))
        for _ in range(5):
            weighted = WeightedGraph(g, grid_weights(g.n, rng))
            q = mwis_to_qubo(weighted, "auto")
            minimum, minimizers = exhaustive_qubo_minimum(q)
            _, oracle_weight = brute_force_mwis(weighted)
            assert -minimum == oracle_weight
            for x in minimizers:
                assert is_independent(g, decode(x))
