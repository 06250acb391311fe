from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest

from dwmwis import (
    AssignmentOutcome,
    BenchConfig,
    BenchmarkRecord,
    DwmwisInstance,
    Embedding,
    EmbeddingFailed,
    FamilySpec,
    Graph,
    Reads,
    SamplerConfig,
    SampleSet,
    Unsolved,
    WeightedGraph,
    chimera,
    embed_qubo,
    embedding,
    gen_weights,
    generate_family,
    heuristic_embed,
    instance_to_json,
    logical_sampleset,
    mwis_to_qubo,
    ratios,
    record_csv,
    record_summary,
    run_classical,
    run_hybrid,
    run_standard,
    sample,
    scale_to_unit,
    selection_weight,
    timing_profile,
)
from dwmwis.bench import SOLVED, UNSOLVED
from oracles import (
    brute_force_mwis,
    energy,
    grid_weights,
    physical_rows,
    random_graph,
    unembed_reference,
)


def outcome(index, status=SOLVED, s=0.5, k99=6.0, t_proc=0.03):
    return AssignmentOutcome(
        index=index,
        status=status,
        s=s,
        k99=k99 if status == SOLVED else None,
        t_proc=t_proc,
        optimal_value=1.0,
        n_samples=1000,
        n_opt=int(1000 * s),
        t2_seconds=1e-5,
    )


def synthetic_record(m=2, t_embed=0.1, t_procs=(0.03, 0.04), t_c=0.5):
    outcomes = tuple(outcome(i, t_proc=tp) for i, tp in enumerate(t_procs))
    t_h = t_embed + math.fsum(t_procs)
    return BenchmarkRecord(
        instance="synthetic",
        n=5,
        m=m,
        outcomes=outcomes,
        t_embed=t_embed,
        measured_t_embed=t_embed,
        embed_restarts=1,
        embedded_order=5,
        max_chain_length=1,
        T_H=t_h,
        T_std=t_h + (m - 1) * t_embed,
        T_C=t_c,
    )


class TestGenWeights:
    def test_protocol_scale(self):
        vectors = gen_weights(5, 100, seed=7)
        assert len(vectors) == 100
        grid = {round(0.01 * k, 2) for k in range(1, 100)}
        assert all(len(v) == 5 for v in vectors)
        assert all(w in grid for v in vectors for w in v)

    def test_single_assignment(self):
        assert len(gen_weights(3, 1, seed=0)) == 1

    def test_deterministic(self):
        assert gen_weights(4, 10, seed=5) == gen_weights(4, 10, seed=5)
        assert gen_weights(4, 10, seed=5) != gen_weights(4, 10, seed=6)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            gen_weights(4, 0, seed=1)


class TestInstance:
    def test_json_roundtrip(self, tree_graph):
        inst = DwmwisInstance(tree_graph, gen_weights(5, 4, seed=1), name="tree")
        text = instance_to_json(inst.weighted(0), inst.assignments)
        back = DwmwisInstance.from_json(text, name="tree")
        assert back.graph == inst.graph
        assert back.assignments == inst.assignments

    def test_plain_graph_document_gives_single_assignment(self, tree_weighted):
        inst = DwmwisInstance.from_json(instance_to_json(tree_weighted))
        assert inst.m == 1
        assert inst.assignments[0] == tree_weighted.weights


class TestClassical:
    def test_worked_example_value(self, tree_graph):
        inst = DwmwisInstance(tree_graph, ((2.0, 3.0, 8.0, 3.0, 1.0),))
        baseline = run_classical(inst)
        assert baseline.values == (9.0,)
        assert baseline.sets == (frozenset({2, 4}),)
        assert baseline.seconds > 0.0

    def test_edgeless_graph_sums_everything(self):
        g = Graph.from_edges(4, [])
        weights = gen_weights(4, 5, seed=3)
        baseline = run_classical(DwmwisInstance(g, weights))
        for value, vec in zip(baseline.values, weights):
            assert value == math.fsum(sorted(vec))

    def test_clique_takes_max_weight(self):
        g = generate_family(FamilySpec("Complete", (8,)))
        weights = gen_weights(8, 100, seed=11)
        baseline = run_classical(DwmwisInstance(g, weights))
        assert all(v == max(vec) for v, vec in zip(baseline.values, weights))


class TestFormulas:
    def test_two_assignment_arithmetic(self):
        rec = synthetic_record(m=2, t_embed=0.1, t_procs=(0.03, 0.04))
        assert rec.T_H == pytest.approx(0.17)
        assert rec.T_std == pytest.approx(0.27)
        r_h, r_c = ratios(rec)
        assert r_h == pytest.approx(0.27 / 0.17)
        assert r_h == pytest.approx(1.588, abs=1e-3)

    def test_zero_embedding_time_means_no_hybrid_gain(self):
        rec = synthetic_record(t_embed=0.0)
        r_h, _ = ratios(rec)
        assert r_h == 1.0

    def test_identity_holds_exactly(self):
        rec = synthetic_record(m=2, t_embed=0.0375, t_procs=(0.011, 0.013))
        assert rec.T_std == rec.T_H + (rec.m - 1) * rec.t_embed

    def test_hybrid_gain_grows_with_embedding_cost(self):
        gains = [
            ratios(synthetic_record(m=3, t_embed=t, t_procs=(0.03, 0.04, 0.05)))[0]
            for t in (0.0, 0.01, 0.1, 1.0, 10.0)
        ]
        assert gains == sorted(gains)
        assert len(set(gains)) == len(gains)

    def test_unsolved_blocks_ratios(self):
        from dataclasses import replace

        bad = replace(
            synthetic_record(),
            outcomes=(outcome(0), outcome(1, status=UNSOLVED, s=0.0)),
        )
        with pytest.raises(Unsolved):
            ratios(bad)


@pytest.fixture(scope="module")
def small_run(tree_graph, chip1):
    inst = DwmwisInstance(tree_graph, gen_weights(5, 4, seed=2), name="tree")
    cfg = BenchConfig(seed=1, sample_budgets=(200, 200, 400))
    tm = timing_profile("dwave2x")
    record = run_hybrid(inst, chip1, cfg, tm)
    return inst, cfg, tm, record


class TestPipelines:
    def test_all_solved_and_totals_ordered(self, small_run):
        _, _, _, record = small_run
        assert record.all_solved
        assert record.T_H < record.T_std
        assert record.t_embed > 0.0
        r_h, r_c = ratios(record)
        assert r_h > 1.0
        assert r_c == record.T_H / record.T_C

    def test_identity_exact_on_real_run(self, small_run):
        _, _, _, record = small_run
        assert record.T_std == record.T_H + (record.m - 1) * record.t_embed

    def test_single_assignment_collapses(self, tree_graph, chip1):
        inst = DwmwisInstance(tree_graph, gen_weights(5, 1, seed=2))
        record = run_hybrid(inst, chip1, BenchConfig(seed=1, sample_budgets=(200,)),
                            timing_profile("dwave2x"))
        assert record.T_H == record.T_std

    def test_reembed_each_measures_every_run(self, small_run, chip1):
        inst, cfg, tm, record = small_run
        redone = run_standard(inst, chip1, cfg, tm, paired=record)
        assert redone.t_embed_each is not None
        assert len(redone.t_embed_each) == inst.m
        assert redone.T_std > 0.0

    def test_zero_profile_is_quality_only(self, tree_graph, chip1):
        inst = DwmwisInstance(tree_graph, gen_weights(5, 3, seed=4))
        record = run_hybrid(inst, chip1, BenchConfig(seed=0, sample_budgets=(200,)),
                            timing_profile("zero"))
        assert record.T_H == record.T_std == 0.0
        assert record.t_embed == 0.0
        assert record.measured_t_embed > 0.0
        r_h, r_c = ratios(record)
        assert r_h == 1.0
        assert r_c == 0.0

    def test_embedding_failure_raises(self):
        k9 = generate_family(FamilySpec("Complete", (9,)))
        inst = DwmwisInstance(k9, gen_weights(9, 1, seed=0))
        with pytest.raises(EmbeddingFailed):
            run_hybrid(inst, chimera(1), BenchConfig(seed=0, max_tries=2),
                       timing_profile("dwave2x"))

    def test_chains_are_checked_once_per_run(self, monkeypatch, tree_graph, chip1):
        result = heuristic_embed(tree_graph, chip1, seed=0)
        calls = []
        check = embedding.verify_embedding

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(embedding, "verify_embedding", counted)
        inst = DwmwisInstance(tree_graph, gen_weights(5, 5, seed=2))
        record = run_hybrid(inst, chip1, BenchConfig(seed=1, sample_budgets=(20,), sweeps=2),
                            timing_profile("dwave2x"), embed_result=result)
        assert record.m == 5
        assert len(calls) <= 1

    def test_embedding_for_another_chip_rejected(self, tree_graph, chip1, chip2):
        result = heuristic_embed(tree_graph, chip1, seed=0)
        inst = DwmwisInstance(tree_graph, gen_weights(5, 1, seed=2))
        with pytest.raises(ValueError, match="another hardware graph"):
            run_hybrid(inst, chip2, BenchConfig(seed=1, sample_budgets=(20,)),
                       timing_profile("dwave2x"), embed_result=result)

    def test_hits_do_not_depend_on_weight_scale(self, chip2):
        # scaling by a power of two leaves the embedded, unit-scaled matrix and
        # so the reads bit-identical; the hit test must scale with the weights
        g = generate_family(FamilySpec("Cycle", (12,)))
        weights = gen_weights(g.n, 4, seed=5)
        cfg = BenchConfig(seed=3, sample_budgets=(40, 40), sweeps=2)

        def outcomes(scale):
            inst = DwmwisInstance(g, [[w * scale for w in vec] for vec in weights])
            record = run_hybrid(inst, chip2, cfg, timing_profile("dwave2x"))
            return [(o.status, o.s, o.k99, o.n_samples, o.n_opt) for o in record.outcomes]

        plain = outcomes(1.0)
        assert any(0.0 < s < 1.0 for _, s, *_ in plain)
        assert outcomes(2.0**-40) == plain

    def test_success_reference_matches_oracle(self, small_run, tree_graph):
        inst, _, _, record = small_run
        for o in record.outcomes:
            _, oracle_value = brute_force_mwis(
                WeightedGraph(tree_graph, inst.assignments[o.index])
            )
            assert o.optimal_value == oracle_value
            assert o.n_opt > 0  # solver found the optimum


class TestLogicalSampleset:
    def test_matches_per_read_reference(self, chip2):
        # the reference unembeds and scores every read on its own; the tally at
        # each value the reads reach must count the reads at or above it
        broken = ties = 0
        for seed in range(24):
            rng = np.random.default_rng(900 + seed)
            g = random_graph(int(rng.integers(5, 10)), 0.5, rng)
            weighted = WeightedGraph(g, grid_weights(g.n, rng))
            emb = heuristic_embed(g, chip2, seed=seed, max_tries=8).embedding
            q = mwis_to_qubo(weighted, "auto")
            q_scaled, _ = scale_to_unit(embed_qubo(q, emb))
            annealed = sample(q_scaled, chip2, SamplerConfig(num_samples=100, sweeps=3, seed=seed))
            uniform = rng.integers(0, 2, size=(200, chip2.n)).astype(np.int8)
            physical = np.concatenate([physical_rows(annealed, chip2.n), uniform])
            reads = Reads(physical, np.arange(chip2.n))

            rows = [tuple(row) for row in reads.samples.tolist()]
            values = [-energy(q, unembed_reference(row, emb, weighted)) for row in rows]
            for v in sorted(set(values)):
                want = SampleSet(sum(value >= v - 1e-6 for value in values), len(rows))
                assert logical_sampleset(reads, emb, weighted, v) == want, f"seed {seed}, value {v}"
            for row in rows:
                for chain in emb.chains:
                    ones = sum(row[qb] for qb in chain)
                    broken += 0 < ones < len(chain)
                    ties += 2 * ones == len(chain)
        assert broken > 0 and ties > 0

    def test_rounding_of_equal_weights_counts_as_hit(self, chip1):
        # the path 0 - 2 - 1 with weights 0.1, 0.2, 0.3: {0, 1} and {2} weigh
        # the same as decimals, but their float sums differ by one ulp
        weighted = WeightedGraph(Graph.from_edges(3, [(0, 2), (1, 2)]), (0.1, 0.2, 0.3))
        emb = Embedding(chains=((4,), (5,), (0,)), physical=chip1)
        optimum = selection_weight(weighted.weights, {0, 1})
        assert optimum > selection_weight(weighted.weights, {2})
        samples = np.array([[1, 0, 0]] * 3 + [[0, 1, 1]] * 2, dtype=np.int8)
        tally = logical_sampleset(Reads(samples, np.array([0, 4, 5])), emb, weighted, optimum)
        assert tally == SampleSet(5, 5)

    def test_chain_qubit_without_column_rejected(self, tree_weighted, tree_embedding, chip1):
        q = mwis_to_qubo(tree_weighted, 12.0)
        reads = sample(embed_qubo(q, tree_embedding), chip1, SamplerConfig(num_samples=4))
        dropped = Reads(reads.samples[:, 1:], reads.qubits[1:])
        with pytest.raises(ValueError, match="no column"):
            logical_sampleset(dropped, tree_embedding, tree_weighted, 9.0)

    @pytest.mark.parametrize("keep", [slice(None, -1), slice(0, 0)], ids=["last", "all"])
    def test_chain_qubit_past_the_columns_rejected(
        self, tree_weighted, tree_embedding, chip1, keep
    ):
        q = mwis_to_qubo(tree_weighted, 12.0)
        reads = sample(embed_qubo(q, tree_embedding), chip1, SamplerConfig(num_samples=4))
        dropped = Reads(reads.samples[:, keep], reads.qubits[keep])
        with pytest.raises(ValueError, match="no column"):
            logical_sampleset(dropped, tree_embedding, tree_weighted, 9.0)


class TestReports:
    def test_csv_shape_and_determinism(self, tree_graph, chip1):
        inst = DwmwisInstance(tree_graph, gen_weights(5, 3, seed=8), name="tree")
        cfg = BenchConfig(seed=2, sample_budgets=(100,))
        tm = timing_profile("dwave2x")
        first = record_csv(run_hybrid(inst, chip1, cfg, tm))
        second = record_csv(run_hybrid(inst, chip1, cfg, tm))

        def strip_wall(text: str) -> list[list[str]]:
            rows = [line.split(",") for line in text.strip().splitlines()]
            header = rows[0]
            drop = header.index("t2_wall_seconds")
            return [row[:drop] + row[drop + 1 :] for row in rows]

        assert strip_wall(first) == strip_wall(second)
        assert first.splitlines()[0].startswith("instance,assignment,status,s,k99")

    def test_csv_quotes_name_with_comma(self):
        from dataclasses import replace

        text = record_csv(replace(synthetic_record(), instance="Grid(2,3)"))
        reader = csv.DictReader(io.StringIO(text))
        rows = list(reader)
        assert len(rows) == 2
        for row, o in zip(rows, synthetic_record().outcomes):
            assert len(row) == len(reader.fieldnames) == 10 and None not in row
            assert row["instance"] == "Grid(2,3)"
            assert row["t2_wall_seconds"] == repr(o.t2_seconds)
            assert row["k99"] == repr(o.k99)

    def test_summary_masks_declared_wall_fields(self, tree_graph, chip1):
        inst = DwmwisInstance(tree_graph, gen_weights(5, 3, seed=8), name="tree")
        cfg = BenchConfig(seed=2, sample_budgets=(100,))
        tm = timing_profile("dwave2x")
        a = json.loads(record_summary(run_hybrid(inst, chip1, cfg, tm)))
        b = json.loads(record_summary(run_hybrid(inst, chip1, cfg, tm)))
        for doc in (a, b):
            for key in doc["wall_clock_fields"]:
                doc.pop(key, None)
        assert a == b
