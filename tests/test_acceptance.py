"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dwmwis import (
    BenchConfig,
    DwmwisInstance,
    Embedding,
    FamilySpec,
    WeightedGraph,
    build_constraints,
    chimera,
    cli,
    embed_qubo,
    embedding,
    gen_weights,
    generate_family,
    heuristic_embed,
    k_p,
    mwis_to_qubo,
    ratios,
    run_hybrid,
    solve_bip,
    timing_profile,
    verify_embedding,
)
from oracles import (
    brute_force_mwis,
    decode,
    dyadic_weights,
    energy,
    exhaustive_qubo_minimum,
    grid_weights,
    is_independent,
    lift_bits,
    random_graph,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS", flush=True)


def test_criterion_1_worked_example_exactness(tree_weighted):
    with criterion(1, "worked-example exactness"):
        started = time.perf_counter()
        q = mwis_to_qubo(tree_weighted, 12.0)
        assert dict(q.entries) == {
            (0, 0): -2.0, (1, 1): -3.0, (2, 2): -8.0, (3, 3): -3.0, (4, 4): -1.0,
            (0, 2): 12.0, (1, 2): 12.0, (2, 3): 12.0, (3, 4): 12.0,
        }
        minimum, minimizers = exhaustive_qubo_minimum(q)
        assert minimum == -9.0
        assert minimizers == [(0, 0, 1, 0, 1)]
        assert decode(minimizers[0]) == frozenset({2, 4})
        best_set, best_weight = brute_force_mwis(tree_weighted)
        assert (best_set, best_weight) == (frozenset({2, 4}), 9.0)
        assert time.perf_counter() - started < 1.0


# every built-in family, sized to stay within the exhaustive window
EQUIVALENCE_INSTANCES = [
    ("Cycle", (3,)), ("Cycle", (4,)), ("Cycle", (6,)), ("Cycle", (9,)),
    ("Cycle", (12,)), ("Cycle", (16,)),
    ("Star", (2,)), ("Star", (5,)), ("Star", (9,)), ("Star", (15,)),
    ("Complete", (2,)), ("Complete", (5,)), ("Complete", (9,)),
    ("Complete", (13,)), ("Complete", (16,)),
    ("CompleteBipartite", (1, 1)), ("CompleteBipartite", (2, 3)),
    ("CompleteBipartite", (4, 4)), ("CompleteBipartite", (3, 5)),
    ("CompleteBipartite", (8, 8)),
    ("Grid", (2, 2)), ("Grid", (2, 5)), ("Grid", (3, 4)), ("Grid", (4, 4)),
    ("Hypercube", (1,)), ("Hypercube", (2,)), ("Hypercube", (3,)), ("Hypercube", (4,)),
    ("Petersen", ()),
]


def test_criterion_2_reduction_oracle_equivalence():
    with criterion(2, "reduction equals oracle equals exact baseline, n <= 16"):
        started = time.perf_counter()
        for family, params in EQUIVALENCE_INSTANCES:
            g = generate_family(FamilySpec(family, params))
            assert g.n <= 16
            cs = build_constraints(g)
            rng = np.random.default_rng(200_000 + 131 * g.n + g.num_edges)
            for _ in range(25):
                weighted = WeightedGraph(g, grid_weights(g.n, rng))
                q = mwis_to_qubo(weighted, "auto")
                minimum, minimizers = exhaustive_qubo_minimum(q)
                _, oracle_value = brute_force_mwis(weighted)
                bip_value = solve_bip(cs, weighted.weights).value
                assert -minimum == oracle_value == bip_value
                for x in minimizers:
                    assert is_independent(g, decode(x))
        assert time.perf_counter() - started < 300.0


def test_criterion_3_clique_embeddings():
    with criterion(3, "constructive clique embeddings for k = 1..4"):
        for k in (1, 2, 3, 4):
            # the layout heuristic_embed takes for dense graphs, on all k x k blocks
            emb = Embedding(embedding._clique_chains(k, 4 * k), chimera(k))
            clique = generate_family(FamilySpec("Complete", (4 * k,)))
            assert verify_embedding(clique, emb.physical, emb).ok
            assert emb.size() == 4 * k * (k + 1)


@pytest.mark.slow
def test_criterion_4_embedding_fuzz():
    with criterion(4, "heuristic embedding validity fuzz into chimera(12)"):
        started = time.perf_counter()
        gp = chimera(12)
        rng = np.random.default_rng(777)
        embedded = 0
        # chains and restart counts of all 100 trials, pinned: a faster search
        # must return these exact embeddings, not just valid ones
        chains = hashlib.sha256()
        for trial in range(100):
            n = int(rng.integers(4, 21))
            density = float(rng.uniform(0.02, 0.3))
            g = random_graph(n, density, rng)
            result = heuristic_embed(g, gp, seed=trial, max_tries=8)
            assert result.ok, f"trial {trial}: no embedding for n={n} density={density:.2f}"
            check = verify_embedding(g, gp, result.embedding)
            assert check.ok, f"trial {trial}: {check.failures}"
            embedded += 1
            chains.update(repr((result.embedding.chains, result.restarts)).encode())
        assert embedded == 100
        assert chains.hexdigest()[:16] == "1ad6d4e2ed101986"
        assert time.perf_counter() - started < 600.0


def test_criterion_5_energy_correspondence_and_chain_breaks():
    with criterion(5, "exact energy correspondence and chain-break penalties"):
        gp = chimera(2)
        for trial in range(20):
            rng = np.random.default_rng(50_000 + trial)
            n = int(rng.integers(2, 11))
            g = random_graph(n, float(rng.uniform(0.25, 0.6)), rng)
            weighted = WeightedGraph(g, dyadic_weights(n, rng))
            result = heuristic_embed(g, gp, seed=trial, max_tries=8)
            assert result.ok
            emb = result.embedding
            q = mwis_to_qubo(weighted, "auto")
            physical = embed_qubo(q, emb)
            for bits in itertools.product((0, 1), repeat=n):
                assert energy(physical, lift_bits(emb, bits)) == energy(q, bits)
            optimum, _ = brute_force_mwis(weighted)
            lifted = list(lift_bits(emb, tuple(1 if v in optimum else 0 for v in range(n))))
            base = energy(physical, tuple(lifted))
            for chain in emb.chains:
                if len(chain) < 2:
                    continue
                for qubit in chain:
                    flipped = lifted.copy()
                    flipped[qubit] ^= 1
                    assert energy(physical, tuple(flipped)) > base


def test_criterion_6_tts_arithmetic():
    with criterion(6, "time-to-solution arithmetic"):
        assert k_p(0.99, 0.99) == 1.0
        assert abs(k_p(0.5, 0.99) - 6.6439) < 1e-4


def test_criterion_7_hybrid_identity(tree_graph, chip1):
    with criterion(7, "hybrid timing identity and speedup bounds"):
        tm = timing_profile("dwave2x")
        records = []
        for m, seed in ((1, 3), (5, 4), (8, 5)):
            inst = DwmwisInstance(tree_graph, gen_weights(5, m, seed=seed), name=f"tree-m{m}")
            records.append(run_hybrid(inst, chip1, BenchConfig(seed=seed, sample_budgets=(200, 400)), tm))
        zero_inst = DwmwisInstance(tree_graph, gen_weights(5, 4, seed=6), name="tree-zero")
        records.append(
            run_hybrid(zero_inst, chip1, BenchConfig(seed=6, sample_budgets=(200,)),
                       timing_profile("zero"))
        )
        for record in records:
            assert record.all_solved
            assert record.T_std == record.T_H + (record.m - 1) * record.t_embed
            r_h, _ = ratios(record)
            assert r_h >= 1.0
            if record.t_embed == 0.0:
                assert r_h == 1.0
            if record.m > 1 and record.t_embed > 0.0:
                assert r_h > 1.0


PROTOCOL_INSTANCES = [
    ("Cycle", (20,)),
    ("Star", (20,)),
    ("Complete", (8,)),
    ("CompleteBipartite", (4, 4)),
]


@pytest.mark.slow
def test_criterion_8_end_to_end_protocol():
    with criterion(8, "end-to-end m=100 protocol on the four reference graphs"):
        started = time.perf_counter()
        gp = chimera(4)
        tm = timing_profile("dwave2x")
        for family, params in PROTOCOL_INSTANCES:
            spec = FamilySpec(family, params)
            g = generate_family(spec)
            inst = DwmwisInstance(g, gen_weights(g.n, 100, seed=42), name=spec.label())
            record = run_hybrid(inst, gp, BenchConfig(seed=42), tm)
            assert record.all_solved, f"{spec.label()}: unsolved assignments"
            assert all(
                o.k99 is not None and math.isfinite(o.k99) for o in record.outcomes
            ), f"{spec.label()}: non-finite k99"
            assert record.T_std == record.T_H + (record.m - 1) * record.t_embed
            assert record.t_embed > 0.0
            r_h, r_c = ratios(record)
            assert r_h > 1.0, f"{spec.label()}: no hybrid gain (R_H={r_h})"
            assert r_c > 0.0
        assert time.perf_counter() - started < 900.0


def test_criterion_9_report_determinism(tmp_path, tree_weighted):
    with criterion(9, "byte-identical reports outside wall-clock fields"):
        from dwmwis import instance_to_json

        instance = tmp_path / "tree.json"
        instance.write_text(instance_to_json(tree_weighted, gen_weights(5, 5, seed=3)))
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = cli.main([
                "bench", "--graph", str(instance), "--chimera-k", "1",
                "--timing-profile", "dwave2x", "--seed", "2",
                "--samples", "200", "--out", str(out),
            ])
            assert code == cli.EXIT_OK
            outputs.append(out)

        def masked_csv(path):
            rows = [line.split(",") for line in (path / "assignments.csv").read_text().splitlines()]
            drop = rows[0].index("t2_wall_seconds")
            return [row[:drop] + row[drop + 1 :] for row in rows]

        def masked_summary(path):
            doc = json.loads((path / "summary.json").read_text())
            for key in doc["wall_clock_fields"]:
                doc.pop(key, None)
            return doc

        assert masked_csv(outputs[0]) == masked_csv(outputs[1])
        assert masked_summary(outputs[0]) == masked_summary(outputs[1])


def test_sampler_stream_pinned(tmp_path, tree_weighted):
    # the criterion-9 run with its sampler output pinned: any change to the
    # sampler's random draws or update order moves these columns. Re-pinned
    # once for the layered sweep, which draws float32 thresholds and start
    # bits for the active qubits only; tests/test_sampler_quality.py holds
    # the new stream to the old sampler's pooled success rates.
    from dwmwis import instance_to_json

    instance = tmp_path / "tree.json"
    instance.write_text(instance_to_json(tree_weighted, gen_weights(5, 5, seed=3)))
    out = tmp_path / "run"
    code = cli.main([
        "bench", "--graph", str(instance), "--chimera-k", "1",
        "--timing-profile", "dwave2x", "--seed", "2",
        "--samples", "200", "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    header, *rows = [line.split(",") for line in (out / "assignments.csv").read_text().splitlines()]
    columns = [header.index(name) for name in ("s", "k99", "n_samples", "n_opt")]
    assert [[row[c] for c in columns] for row in rows] == [
        ["0.955", "1.485015283002401", "200", "191"],
        ["1.0", "1.0", "200", "200"],
        ["0.835", "2.555858100561088", "200", "167"],
        ["0.68", "4.041628599327294", "200", "136"],
        ["1.0", "1.0", "200", "200"],
    ]
