from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwmwis import (
    DwmwisInstance,
    FamilySpec,
    Graph,
    GraphFormatError,
    WeightedGraph,
    chimera,
    chimera_index,
    generate_family,
    instance_to_json,
    parse_instance,
)
from conftest import TREE_EDGES, TREE_WEIGHTS
from oracles import (
    bipartite_by_enumeration,
    brute_force_mwis,
    chimera_coords,
    grid_weights,
    is_independent,
    random_graph,
    reference_mwis,
)


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(n=3, edges=frozenset({(1, 1)}))

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(n=3, edges=frozenset({(0, 3)}))

    def test_from_edges_normalises(self):
        g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)})

    def test_adjacency_is_built_once_and_frozen(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        adj = g.adjacency()
        assert adj is g.adjacency()
        assert adj == (frozenset({1, 2}), frozenset({0, 2}), frozenset({0, 1}), frozenset())
        assert all(type(nbrs) is frozenset for nbrs in adj)

    def test_chimera_builds_no_adjacency(self):
        # the chip's adjacency is derived on first use, not at construction
        assert "_adjacency" not in vars(chimera(12))

    def test_independence_check(self, tree_graph):
        assert is_independent(tree_graph, {2, 4})
        assert not is_independent(tree_graph, {1, 2})


class TestWeightedGraph:
    def test_weight_length_mismatch(self, tree_graph):
        with pytest.raises(ValueError, match="expected 5 weights"):
            WeightedGraph(tree_graph, (1.0, 2.0))

    def test_nonpositive_weight_rejected(self, tree_graph):
        with pytest.raises(ValueError, match="positive"):
            WeightedGraph(tree_graph, (1.0, 2.0, 0.0, 1.0, 1.0))


class TestFamilies:
    def test_cycle4_edges(self):
        g = generate_family(FamilySpec("Cycle", (4,)))
        assert g.n == 4
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})

    def test_complete5_edge_count(self):
        g = generate_family(FamilySpec("Complete", (5,)))
        assert g.num_edges == 10

    def test_complete_bipartite_4_4(self):
        g = generate_family(FamilySpec("CompleteBipartite", (4, 4)))
        assert g.n == 8
        assert g.num_edges == 16
        assert bipartite_by_enumeration(g)

    def test_cycle_too_small_rejected(self):
        with pytest.raises(ValueError, match="n >= 3"):
            FamilySpec("Cycle", (2,))

    @pytest.mark.parametrize(
        "family,least",
        [
            ("Cycle", (3,)),
            ("Star", (1,)),
            ("Complete", (1,)),
            ("CompleteBipartite", (1, 1)),
            ("Grid", (1, 1)),
            ("Hypercube", (1,)),
            ("Petersen", ()),
        ],
    )
    def test_arity_and_minimum_enforced(self, family, least):
        assert generate_family(FamilySpec(family, least)).n >= 1
        for i, value in enumerate(least):
            below = least[:i] + (value - 1,) + least[i + 1 :]
            with pytest.raises(ValueError, match=rf"^{family} requires \w+ >= {value}, got "):
                FamilySpec(family, below)
        arity = len(least)
        for params in (least[:-1], least + (3,)):
            if len(params) != arity:
                with pytest.raises(ValueError, match=rf"^{family} takes {arity} parameter"):
                    FamilySpec(family, params)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            FamilySpec("Moebius", (4,))

    @pytest.mark.parametrize(
        "family,params,n,e",
        [
            ("Cycle", (7,), 7, 7),
            ("Star", (9,), 10, 9),  # centre plus nine leaves
            ("Complete", (6,), 6, 15),
            ("CompleteBipartite", (3, 5), 8, 15),
            ("Grid", (3, 4), 12, 17),
            ("Hypercube", (4,), 16, 32),
            ("Petersen", (), 10, 15),
        ],
    )
    def test_counts_match_closed_forms(self, family, params, n, e):
        g = generate_family(FamilySpec(family, params))
        assert (g.n, g.num_edges) == (n, e)

    def test_petersen_is_cubic(self):
        g = generate_family(FamilySpec("Petersen", ()))
        assert {len(nbrs) for nbrs in g.adjacency()} == {3}

    def test_closed_form_counts_across_parameter_sweep(self):
        for n in range(3, 20):
            assert generate_family(FamilySpec("Cycle", (n,))).num_edges == n
        for n in range(1, 20):
            star = generate_family(FamilySpec("Star", (n,)))
            assert (star.n, star.num_edges) == (n + 1, n)
            assert generate_family(FamilySpec("Complete", (n,))).num_edges == n * (n - 1) // 2
        for a in range(1, 7):
            for b in range(1, 7):
                assert generate_family(FamilySpec("CompleteBipartite", (a, b))).num_edges == a * b
        for r in range(1, 6):
            for c in range(1, 6):
                grid = generate_family(FamilySpec("Grid", (r, c)))
                assert (grid.n, grid.num_edges) == (r * c, r * (c - 1) + c * (r - 1))
        for d in range(1, 7):
            cube = generate_family(FamilySpec("Hypercube", (d,)))
            assert (cube.n, cube.num_edges) == (2**d, d * 2 ** (d - 1))


class TestChimera:
    def test_k1_is_k44(self, chip1):
        assert chip1.n == 8
        assert chip1.num_edges == 16
        assert all(chip1.has_edge(a, 4 + b) for a in range(4) for b in range(4))

    def test_k2_counts_by_construction(self, chip2):
        # four blocks of 16 internal edges plus four inter-block bundles of 4
        assert chip2.n == 32
        assert chip2.num_edges == 4 * 16 + 4 * 4

    def test_k3_degree_census(self):
        degrees = [len(nbrs) for nbrs in chimera(3).adjacency()]
        assert set(degrees) == {5, 6}
        centre_block = [chimera_index(3, 1, 1, side, unit) for side in (0, 1) for unit in range(4)]
        assert all(degrees[q] == 6 for q in centre_block)

    def test_vertex_count_formula(self):
        for k in (1, 2, 3, 4):
            assert chimera(k).n == 8 * k * k

    def test_every_block_induces_k44(self):
        k = 3
        g = chimera(k)
        for row in range(k):
            for col in range(k):
                left = [chimera_index(k, row, col, 0, u) for u in range(4)]
                right = [chimera_index(k, row, col, 1, u) for u in range(4)]
                assert all(g.has_edge(a, b) for a in left for b in right)
                assert not any(g.has_edge(a, b) for a in left for b in left)
                assert not any(g.has_edge(a, b) for a in right for b in right)

    def test_index_roundtrip(self):
        k = 4
        for q in range(8 * k * k):
            assert chimera_index(k, *chimera_coords(k, q)) == q

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            chimera(0)


class TestInstanceFormat:
    def test_parse_worked_example(self):
        text = json.dumps({"n": 5, "edges": TREE_EDGES, "weights": list(TREE_WEIGHTS)})
        graph, assignments = parse_instance(text)
        assert graph.n == 5
        assert graph.edges == frozenset(TREE_EDGES)
        assert assignments == (TREE_WEIGHTS,)

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(GraphFormatError, match="nonempty"):
            parse_instance(json.dumps({"n": 0, "edges": [], "weights": []}))

    def test_zero_weight_rejected(self):
        text = json.dumps({"n": 2, "edges": [[0, 1]], "weights": [1.0, 0.0]})
        with pytest.raises(GraphFormatError, match=r"weights\[1\]"):
            parse_instance(text)

    def test_out_of_range_edge_names_field(self):
        text = json.dumps({"n": 2, "edges": [[0, 5]], "weights": [1.0, 1.0]})
        with pytest.raises(GraphFormatError, match=r"edges\[0\]"):
            parse_instance(text)

    def test_duplicate_edge_rejected(self):
        text = json.dumps({"n": 3, "edges": [[0, 1], [1, 0]], "weights": [1, 1, 1]})
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_instance(text)

    def test_malformed_json_rejected(self):
        with pytest.raises(GraphFormatError, match="invalid JSON"):
            parse_instance("{not json")

    def test_roundtrip_with_assignments(self, tree_weighted):
        assignments = [(0.5, 0.25, 1.0, 0.75, 0.125), (1.0, 1.0, 1.0, 1.0, 1.0)]
        text = instance_to_json(tree_weighted.graph, assignments)
        graph, parsed = parse_instance(text)
        assert graph == tree_weighted.graph
        assert parsed == tuple(tuple(a) for a in assignments)

    def test_writer_refuses_no_assignments(self, tree_graph):
        with pytest.raises(ValueError, match="at least one"):
            instance_to_json(tree_graph, ())


# boundary-heavy weights: the two-decimal grid, integers up to 2**53 - 1, the
# least subnormal and 0.1
WEIGHTS = st.one_of(
    st.integers(1, 99).map(lambda c: c / 100),
    st.integers(1, 2**53 - 1).map(float),
    st.sampled_from([5e-324, 0.1, 2.0**53 - 1]),
)
# JSON literals that break the rule: zero, negative, at 2**53, finite but far
# above it, an integer beyond the float range, and not a number
BAD_WEIGHTS = ["0", "-1", str(2**53), "1e300", "1" + "0" * 399, "NaN"]


@st.composite
def instances(draw):
    n = draw(st.integers(1, 20))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    m = draw(st.integers(1, 4))
    vectors = st.lists(WEIGHTS, min_size=n, max_size=n).map(tuple)
    return Graph.from_edges(n, edges), tuple(draw(vectors) for _ in range(m))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(instances(), st.data())
def test_instance_document_roundtrips_and_names_a_bad_weight(instance, data):
    graph, assignments = instance
    text = instance_to_json(graph, assignments)
    assert parse_instance(text) == (graph, assignments)
    inst = DwmwisInstance.from_json(text)
    assert (inst.graph, inst.assignments) == (graph, assignments)

    j = data.draw(st.integers(0, len(assignments) - 1), label="j")
    i = data.draw(st.integers(0, graph.n - 1), label="i")
    for field in ("weights", "weight_assignments"):
        for bad in BAD_WEIGHTS:
            doc = json.loads(text)
            if field == "weights":
                doc["weights"][i], name = "BAD", f"weights[{i}]"
            else:
                doc["weight_assignments"][j][i], name = "BAD", f"weight_assignments[{j}][{i}]"
            with pytest.raises(GraphFormatError) as exc:
                parse_instance(json.dumps(doc).replace('"BAD"', bad))
            assert str(exc.value).split(": ")[0] == name, (bad, str(exc.value))


class TestBruteForce:
    def test_worked_example(self, tree_weighted):
        best, weight = brute_force_mwis(tree_weighted)
        assert best == frozenset({2, 4})
        assert weight == 9.0

    def test_single_vertex(self):
        weighted = WeightedGraph(Graph.from_edges(1, []), (5.0,))
        assert brute_force_mwis(weighted) == (frozenset({0}), 5.0)

    def test_triangle_picks_heaviest(self):
        g = generate_family(FamilySpec("Complete", (3,)))
        weighted = WeightedGraph(g, (1.0, 2.0, 3.0))
        assert brute_force_mwis(weighted) == (frozenset({2}), 3.0)

    def test_guard_rejects_large_graphs(self):
        g = Graph.from_edges(27, [])
        with pytest.raises(ValueError, match="n <= 26"):
            brute_force_mwis(WeightedGraph(g, (1.0,) * 27))

    def test_lexicographic_tie_break(self):
        # equal-weight endpoints of one edge: the smaller characteristic
        # vector excludes vertex 0
        weighted = WeightedGraph(Graph.from_edges(2, [(0, 1)]), (1.0, 1.0))
        best, weight = brute_force_mwis(weighted)
        assert best == frozenset({1})
        assert weight == 1.0

    @pytest.mark.parametrize("trial", range(12))
    def test_matches_recursive_reference(self, trial):
        rng = np.random.default_rng(400 + trial)
        g = random_graph(int(rng.integers(2, 13)), float(rng.uniform(0.1, 0.6)), rng)
        weighted = WeightedGraph(g, grid_weights(g.n, rng))
        mine = brute_force_mwis(weighted)
        ref = reference_mwis(weighted)
        assert mine[1] == ref[1]
        assert is_independent(g, mine[0])
        assert math.fsum(weighted.weights[v] for v in sorted(mine[0])) == mine[1]
