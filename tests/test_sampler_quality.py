"""The sampler's success rate on protocol graphs, pooled over many seeds.

The pinned rates come from the per-qubit sampler that preceded the layered
sweep (commit e45de77). A change to the sweep's order or its random stream
moves every single-seed result, so this test holds the sampler to the quality
of that reference instead: each pooled rate must lie within 4 standard errors
of the reference rate, the error being that of the difference between two
independent binomial estimates over the same number of reads.

Run as a script, the module prints the pooled counts of the sampler on the
path. The pinned constants are its output with this file copied into a
checkout of commit e45de77 and run from there:

    PYTHONPATH=src python tests/test_sampler_quality.py
"""

from __future__ import annotations

import math

import pytest

from dwmwis import (
    FamilySpec,
    SamplerConfig,
    WeightedGraph,
    build_constraints,
    chimera,
    embed_qubo,
    gen_weights,
    generate_family,
    heuristic_embed,
    logical_sampleset,
    mwis_to_qubo,
    sample,
    scale_to_unit,
    solve_bip,
    success_probability,
)

SEEDS = range(20)
ASSIGNMENTS = 2
READS = 1000

# (hits, reads) per graph at commit e45de77
REFERENCE = {
    ("CompleteBipartite", (4, 4)): (6887, 40000),
    ("Cycle", (20,)): (23210, 40000),
}


def pooled_hits(family: str, params: tuple[int, ...]) -> tuple[int, int]:
    """Optimal reads and all reads of the hybrid pipeline's first sampling
    stage on chimera(4), over assignments 0 and 1 and every seed in SEEDS.
    Embedding and weights use seed 42, as the benchmark's protocol does."""
    gp = chimera(4)
    g = generate_family(FamilySpec(family, params))
    emb = heuristic_embed(g, gp, seed=42, max_tries=8).embedding
    constraints = build_constraints(g)
    hits = total = 0
    for index, weights in enumerate(gen_weights(g.n, ASSIGNMENTS, seed=42)):
        weighted = WeightedGraph(g, weights)
        optimum = solve_bip(constraints, weights).value
        q = mwis_to_qubo(weighted, "auto")
        q_scaled, _ = scale_to_unit(embed_qubo(q, emb, gp))
        for seed in SEEDS:
            cfg = SamplerConfig(num_samples=READS, seed=(seed, 1000 + index, 0))
            logical = logical_sampleset(sample(q_scaled, gp, cfg), emb, weighted, q)
            hits += round(success_probability(logical, -optimum) * READS)
            total += READS
    return hits, total


@pytest.mark.slow
@pytest.mark.parametrize("graph", sorted(REFERENCE), ids=lambda key: FamilySpec(*key).label())
def test_success_rate_matches_reference_sampler(graph):
    ref_hits, ref_total = REFERENCE[graph]
    hits, total = pooled_hits(*graph)
    assert total == ref_total
    p_ref, p = ref_hits / ref_total, hits / total
    stderr = math.sqrt(p_ref * (1 - p_ref) / ref_total + p * (1 - p) / total)
    assert abs(p - p_ref) <= 4 * stderr, f"{p:.4f} against {p_ref:.4f}, 4 se = {4 * stderr:.4f}"


if __name__ == "__main__":
    for key in sorted(REFERENCE):
        print(key, pooled_hits(*key))
