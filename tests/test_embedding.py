from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest

from dwmwis import (
    Embedding,
    FamilySpec,
    Graph,
    QuboMatrix,
    WeightedGraph,
    brute_force_mwis,
    chimera,
    clique_embedding,
    embed_qubo,
    energy,
    generate_family,
    heuristic_embed,
    mwis_to_qubo,
    unembed,
    verify_embedding,
)
from dwmwis.embedding import _best_root, _dijkstra_to_chain, _walk
from oracles import (
    best_root_reference,
    decode,
    dyadic_weights,
    embed_qubo_reference,
    exhaustive_qubo_minimum,
    flood_reference,
    is_independent,
    lift_bits,
    random_graph,
    root_scores,
)


class TestVerify:
    def test_worked_placement_is_valid(self, tree_graph, chip1, tree_embedding):
        assert verify_embedding(tree_graph, chip1, tree_embedding).ok

    def test_identity_embedding_of_chip_subgraph(self, chip2):
        sub = Graph.from_edges(chip2.n, list(chip2.edges)[:20])
        identity = Embedding(chains=tuple((q,) for q in range(chip2.n)), physical=chip2)
        assert verify_embedding(sub, chip2, identity).ok

    def test_shared_qubit_fails_condition_1(self, chip1):
        gl = Graph.from_edges(2, [(0, 1)])
        emb = Embedding(chains=((0,), (0,)), physical=chip1)
        check = verify_embedding(gl, chip1, emb)
        assert not check.ok
        assert not check.condition_ok(1)

    def test_disconnected_chain_fails_condition_2(self, chip1):
        gl = Graph.from_edges(1, [])
        emb = Embedding(chains=((0, 1),), physical=chip1)  # 0 and 1 share a side
        check = verify_embedding(gl, chip1, emb)
        assert not check.ok
        assert not check.condition_ok(2)

    def test_uncovered_edge_fails_condition_3(self, chip1):
        gl = Graph.from_edges(2, [(0, 1)])
        emb = Embedding(chains=((0,), (1,)), physical=chip1)  # same side, no coupler
        check = verify_embedding(gl, chip1, emb)
        assert not check.ok
        assert not check.condition_ok(3)

    def test_size_mismatch_is_an_input_error(self, tree_graph, chip1):
        with pytest.raises(ValueError, match="covers"):
            verify_embedding(tree_graph, chip1, Embedding(chains=((0,),), physical=chip1))


class TestHeuristic:
    def test_tree_gets_unit_chains(self, tree_graph, chip1):
        result = heuristic_embed(tree_graph, chip1, seed=0, max_tries=8)
        assert result.ok
        assert result.embedding.size() == 5
        assert result.embedding.max_chain_length() == 1
        assert verify_embedding(tree_graph, chip1, result.embedding).ok
        assert result.seconds > 0.0

    def test_k5_needs_multi_qubit_chains(self, chip1):
        k5 = generate_family(FamilySpec("Complete", (5,)))
        # K5 is no subgraph of the 8-qubit block: any five qubits share a side
        for five in itertools.combinations(range(8), 5):
            pairs = itertools.combinations(five, 2)
            assert not all(chip1.has_edge(a, b) for a, b in pairs)
        result = heuristic_embed(k5, chip1, seed=0, max_tries=16)
        assert result.ok
        assert result.embedding.max_chain_length() >= 2
        assert verify_embedding(k5, chip1, result.embedding).ok

    def test_impossible_target_reports_failure(self):
        k5 = generate_family(FamilySpec("Complete", (5,)))
        path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        result = heuristic_embed(k5, path4, seed=0, max_tries=4)
        assert not result.ok
        assert result.embedding is None
        assert result.seconds >= 0.0

    def test_deterministic_for_fixed_seed(self, chip2):
        rng = np.random.default_rng(5)
        g = random_graph(10, 0.3, rng)
        first = heuristic_embed(g, chip2, seed=11, max_tries=4)
        second = heuristic_embed(g, chip2, seed=11, max_tries=4)
        assert first.embedding == second.embedding

    def test_star_hub_gets_room(self, chip2):
        star = generate_family(FamilySpec("Star", (12,)))
        result = heuristic_embed(star, chip2, seed=0, max_tries=8)
        assert result.ok
        assert verify_embedding(star, chip2, result.embedding).ok

    @pytest.mark.parametrize("trial", range(10))
    def test_random_graphs_fuzz(self, trial):
        rng = np.random.default_rng(7000 + trial)
        gp = chimera(4)
        g = random_graph(int(rng.integers(3, 15)), float(rng.uniform(0.1, 0.3)), rng)
        result = heuristic_embed(g, gp, seed=trial, max_tries=8)
        assert result.ok
        assert verify_embedding(g, gp, result.embedding).ok


def _chains_digest(result) -> str:
    return hashlib.sha256(result.embedding.to_json().encode()).hexdigest()[:16]


def _criterion_4_graph(trial: int) -> Graph:
    """Graph ``trial`` of the criterion-4 generator (seed 777)."""
    rng = np.random.default_rng(777)
    for _ in range(trial + 1):
        n = int(rng.integers(4, 21))
        g = random_graph(n, float(rng.uniform(0.02, 0.3)), rng)
    return g


class TestEmbedderPinned:
    """Chains and restart counts pinned for fixed inputs: a faster search must
    return exactly these, not just embeddings as good."""

    @pytest.mark.parametrize(
        "family, params, digest, restarts",
        [
            ("Cycle", (20,), "13e2f66dd8967518", 1),
            ("Star", (20,), "1b27184f4324f6b7", 8),
            ("Complete", (8,), "0021930d527b8612", 8),
            ("CompleteBipartite", (4, 4), "b5e695b078aa31d1", 8),
        ],
    )
    def test_protocol_graphs_on_chimera_4(self, family, params, digest, restarts):
        g = generate_family(FamilySpec(family, params))
        result = heuristic_embed(g, chimera(4), seed=42)
        assert (_chains_digest(result), result.restarts) == (digest, restarts)

    @pytest.mark.parametrize(
        "family, params, digest, restarts",
        [
            ("Cycle", (20,), "ee7540c215ad9d0d", 8),
            ("Star", (20,), "038ba6b7cf33f189", 8),
            ("Complete", (8,), "72e755b406302c7d", 8),
            ("CompleteBipartite", (4, 4), "8e4427e0409705c1", 7),
        ],
    )
    def test_protocol_graphs_on_chimera_12(self, family, params, digest, restarts):
        g = generate_family(FamilySpec(family, params))
        result = heuristic_embed(g, chimera(12), seed=42)
        assert (_chains_digest(result), result.restarts) == (digest, restarts)

    @pytest.mark.parametrize(
        "trial, digest", [(8, "bd84803ff5711395"), (9, "be8629c7fbf78154")]
    )
    def test_criterion_4_graphs_on_chimera_12(self, trial, digest):
        result = heuristic_embed(_criterion_4_graph(trial), chimera(12), seed=trial, max_tries=8)
        assert (_chains_digest(result), result.restarts) == (digest, 8)


class TestRoutingSearch:
    def test_early_stop_picks_the_full_search_route(self):
        # odd cases draw costs from {1, 1.5, 2}, so that equal route costs,
        # and goals tied at the least cost, are common
        tied = 0
        for case in range(60):
            rng = np.random.default_rng(4100 + case)
            gp = chimera(2 if case % 3 else 4)
            adj = [sorted(s) for s in gp.adjacency()]
            free = (rng.random(gp.n) < 0.8).tolist()
            if case % 2:
                cost = rng.choice([1.0, 1.5, 2.0], size=gp.n).tolist()
            else:
                cost = (1.0 + rng.random(gp.n)).tolist()
            picks = rng.permutation(gp.n)[: 2 + int(rng.integers(0, 6))].tolist()
            target, chain = set(picks[::2]), set(picks[1::2])
            for q in picks:
                free[q] = False
            goals = {q for c in chain for q in adj[c] if free[q]}

            full_dist, full_parent = flood_reference(target, adj, free, cost)
            dist, parent = _dijkstra_to_chain(target, adj, free, cost, goals)
            reached = sorted((full_dist[q], q) for q in goals if full_dist[q] < math.inf)
            early = [(dist[q], q) for q in goals if dist[q] < math.inf]
            if not reached:
                assert not early
                continue
            start = reached[0][1]
            assert min(early) == reached[0]
            assert _walk(parent, start) == _walk(full_parent, start)
            tied += len(reached) > 1 and reached[1][0] == reached[0][0]
        assert tied >= 5

    def test_early_stop_picks_the_flood_root(self):
        # odd cases draw costs from {1, 1.5, 2}, so that tied scores occur;
        # every tenth case walls its first target in, so that no root exists
        tied = walled = 0
        for case in range(120):
            rng = np.random.default_rng(4300 + case)
            gp = chimera(2 if case % 3 else 4)
            adj = [sorted(s) for s in gp.adjacency()]
            free = (rng.random(gp.n) < 0.8).tolist()
            if case % 2:
                cost = rng.choice([1.0, 1.5, 2.0], size=gp.n).tolist()
            else:
                cost = (1.0 + rng.random(gp.n)).tolist()
            picks = rng.permutation(gp.n).tolist()
            targets = []
            for _ in range(2 + case % 5):
                size = 1 + int(rng.integers(0, 3))
                targets.append(set(picks[:size]))
                del picks[:size]
            for q in set().union(*targets):
                free[q] = False
            if case % 10 == 9:
                for q in targets[0]:
                    for nb in adj[q]:
                        free[nb] = False

            root, fields = _best_root(targets, adj, free, cost)
            ref_root, ref_fields = best_root_reference(targets, adj, free, cost)
            assert root == ref_root
            if root < 0:
                walled += 1
                continue
            assert [f[root] for f in fields] == [f[root] for f in ref_fields]
            score = root_scores(ref_fields, free, cost)
            tied += int(np.count_nonzero(score == score[root])) > 1
        assert tied >= 5
        assert walled >= 12


class TestCliqueEmbedding:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_size_chains_and_validity(self, k):
        emb = clique_embedding(k)
        assert emb.size() == 4 * k * (k + 1)
        assert all(len(chain) == k + 1 for chain in emb.chains)
        clique = generate_family(FamilySpec("Complete", (4 * k,)))
        assert verify_embedding(clique, emb.physical, emb).ok

    def test_k1_uses_all_eight_qubits(self):
        emb = clique_embedding(1)
        assert sorted(q for chain in emb.chains for q in chain) == list(range(8))
        assert emb.max_chain_length() == 2


class TestEmbedQubo:
    def test_single_vertex_two_qubit_chain_by_hand(self, chip1):
        q = QuboMatrix(1, {(0, 0): -8.0})
        emb = Embedding(chains=((0, 4),), physical=chip1)
        physical = embed_qubo(q, emb, chain_strength=20.0)
        assert physical.entries == {(0, 0): 16.0, (4, 4): 16.0, (0, 4): -40.0}
        grid = {(a, b): None for a in (0, 1) for b in (0, 1)}
        for a, b in grid:
            x = [0] * 8
            x[0], x[4] = a, b
            grid[(a, b)] = energy(physical, tuple(x))
        assert grid == {(0, 0): 0.0, (1, 0): 16.0, (0, 1): 16.0, (1, 1): -8.0}

    def test_unit_chains_relabel_the_logical_problem(self, tree_weighted, tree_embedding):
        q = mwis_to_qubo(tree_weighted, 12.0)
        physical = embed_qubo(q, tree_embedding)
        relabel = {v: chain[0] for v, chain in enumerate(tree_embedding.chains)}
        expected = {}
        for (i, j), value in q.entries.items():
            a, b = relabel[i], relabel[j]
            expected[(min(a, b), max(a, b))] = value
        assert dict(physical.entries) == expected

    def test_worked_instance_physical_minimum(self, tree_weighted, tree_embedding):
        q = mwis_to_qubo(tree_weighted, 12.0)
        physical = embed_qubo(q, tree_embedding)
        minimum, minimizers = exhaustive_qubo_minimum(physical)
        assert minimum == -9.0
        logical = {unembed(x, tree_embedding, tree_weighted) for x in minimizers}
        assert logical == {(0, 0, 1, 0, 1)}

    def test_rejects_invalid_embedding(self, chip1):
        q = QuboMatrix(2, {(0, 0): -1.0, (1, 1): -1.0, (0, 1): 2.0})
        emb = Embedding(chains=((0,), (1,)), physical=chip1)  # no coupler 0-1
        with pytest.raises(ValueError, match="invalid embedding"):
            embed_qubo(q, emb)

    @pytest.mark.parametrize(
        "chains", [((0, 4), (4, 1)), ((0, 1), (4,)), ((0,), ()), ((0,), (4, 8))],
        ids=["shared", "disconnected", "empty", "off-chip"],
    )
    def test_rejects_broken_chains(self, chip1, chains):
        q = QuboMatrix(2, {(0, 0): -1.0, (1, 1): -1.0})
        with pytest.raises(ValueError, match="invalid embedding"):
            embed_qubo(q, Embedding(chains=chains, physical=chip1))

    def test_rejects_nonpositive_strength(self, chip1):
        q = QuboMatrix(1, {(0, 0): -8.0})
        emb = Embedding(chains=((0, 4),), physical=chip1)
        with pytest.raises(ValueError, match="positive"):
            embed_qubo(q, emb, chain_strength=0.0)

    @pytest.mark.parametrize("strength", [None, 4.0])
    @pytest.mark.parametrize("k", [2, 4, 12])
    def test_entries_and_their_order_match_per_call_construction(self, k, strength):
        # the sampler sums each qubit's field in entry order, so the order counts
        gp, rng = chimera(k), np.random.default_rng(k)
        if k == 12:
            graphs = [generate_family(FamilySpec("Cycle", (20,)))]
        else:
            graphs = [random_graph(int(rng.integers(3, 10)), 0.4, rng) for _ in range(4)]
        for trial, g in enumerate(graphs):
            emb = heuristic_embed(g, gp, seed=42 + trial).embedding
            assert emb is not None
            for _ in range(3):
                q = mwis_to_qubo(WeightedGraph(g, dyadic_weights(g.n, rng)), "auto")
                new = embed_qubo(q, emb, strength)
                old = embed_qubo_reference(q, emb, gp, strength)
                assert list(new.entries.items()) == list(old.entries.items())
                assert new.n == old.n


class TestEnergyCorrespondence:
    """Lifted logical states hit the logical energy exactly, and breaking a
    chain from the lifted optimum always costs energy."""

    def _seeded_instance(self, trial):
        rng = np.random.default_rng(5000 + trial)
        n = int(rng.integers(2, 9))
        g = random_graph(n, 0.45, rng)
        weighted = WeightedGraph(g, dyadic_weights(n, rng))
        gp = chimera(2)
        result = heuristic_embed(g, gp, seed=trial, max_tries=8)
        assert result.ok
        return weighted, gp, result.embedding

    @pytest.mark.parametrize("trial", range(6))
    def test_exact_on_dyadic_instances(self, trial):
        weighted, gp, emb = self._seeded_instance(trial)
        q = mwis_to_qubo(weighted, "auto")
        physical = embed_qubo(q, emb)
        for bits in itertools.product((0, 1), repeat=weighted.n):
            assert energy(physical, lift_bits(emb, bits)) == energy(q, bits)

    @pytest.mark.parametrize("trial", range(6))
    def test_chain_break_strictly_increases_energy(self, trial):
        weighted, gp, emb = self._seeded_instance(trial)
        q = mwis_to_qubo(weighted, "auto")
        physical = embed_qubo(q, emb)
        optimum, _ = brute_force_mwis(weighted)
        x_logical = tuple(1 if v in optimum else 0 for v in range(weighted.n))
        lifted = list(lift_bits(emb, x_logical))
        base = energy(physical, tuple(lifted))
        for chain in emb.chains:
            if len(chain) < 2:
                continue
            for qubit in chain:
                flipped = lifted.copy()
                flipped[qubit] ^= 1
                assert energy(physical, tuple(flipped)) > base

    def test_grid_weights_match_within_tolerance(self):
        rng = np.random.default_rng(77)
        g = random_graph(6, 0.5, rng)
        weighted = WeightedGraph(g, tuple(float(v) / 100 for v in rng.integers(1, 100, 6)))
        gp = chimera(2)
        emb = heuristic_embed(g, gp, seed=3, max_tries=8).embedding
        q = mwis_to_qubo(weighted, "auto")
        physical = embed_qubo(q, emb)
        for bits in itertools.product((0, 1), repeat=6):
            assert energy(physical, lift_bits(emb, bits)) == pytest.approx(
                energy(q, bits), abs=1e-9
            )


class TestUnembed:
    def test_majority_vote(self, chip1):
        g = Graph.from_edges(1, [])
        weighted = WeightedGraph(g, (1.0,))
        emb = Embedding(chains=((0, 4, 1),), physical=chip1)
        x = [0] * 8
        x[0], x[4], x[1] = 1, 1, 0
        assert unembed(tuple(x), emb, weighted)[0] == 1

    def test_tie_breaks_to_zero_then_repair_may_restore(self, chip1):
        g = Graph.from_edges(1, [])
        weighted = WeightedGraph(g, (1.0,))
        emb = Embedding(chains=((0, 4),), physical=chip1)
        x = [0] * 8
        x[0] = 1  # split chain: one vote each
        # the tied vote reads 0, but the repair step re-adds the free vertex
        assert unembed(tuple(x), emb, weighted) == (1,)

    def test_intact_optimum_unembeds_to_logical_optimum(
        self, tree_weighted, chip1, tree_embedding
    ):
        lifted = lift_bits(tree_embedding, (0, 0, 1, 0, 1))
        assert unembed(lifted, tree_embedding, tree_weighted) == (0, 0, 1, 0, 1)

    def test_result_always_independent(self, chip2):
        rng = np.random.default_rng(123)
        g = random_graph(8, 0.4, rng)
        weighted = WeightedGraph(g, tuple(float(v) / 100 for v in rng.integers(1, 100, 8)))
        emb = heuristic_embed(g, chip2, seed=1, max_tries=8).embedding
        for _ in range(50):
            x = tuple(int(b) for b in rng.integers(0, 2, size=chip2.n))
            logical = unembed(x, emb, weighted)
            assert is_independent(g, decode(logical))


class TestSerialization:
    def test_roundtrip(self, tree_embedding, chip1):
        text = tree_embedding.to_json()
        back = Embedding.from_json(text, chip1)
        assert back == tree_embedding

    def test_missing_chain_rejected(self, chip1):
        with pytest.raises(ValueError, match="missing"):
            Embedding.from_json('{"chains": {"0": [0], "2": [1]}}', chip1)
