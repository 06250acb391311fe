"""The four workloads: their inputs, the pipeline calls that are measured, and
the checks of their outputs against the oracles.

A workload is a list of tasks. How many tasks a run gets scales with
``--seconds`` from a fixed count per 20 seconds, so the work of a run depends
only on the seed and the run length, never on how fast the machine is.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from dwmwis import (
    BenchConfig,
    DwmwisInstance,
    FamilySpec,
    Graph,
    bench,
    chimera,
    embedding,
    gen_weights,
    generate_family,
    timing_profile,
    verify_embedding,
)

import oracles

# Inputs are fixed instances: the protocol's weights (seed 42) and a batch
# from the criterion-4 generator (seed 777). The workload seed is the run
# seed of the sampling workloads: it drives the sampler streams. Drawing new
# inputs per seed would let input difficulty swamp the code's cost, beyond any
# bound the benchmark can hold: a Grid(7,7) exact solve costs 0.02-0.95 s
# depending on its weights (CV 0.7 over 80 draws), a criterion-4 graph embeds
# in 1.5-12 s depending on its edges and 10-20% apart between search seeds,
# and k99 moves with the weights. The exact solver and the embedding batch
# therefore do the same work on every seed. The sampling workloads embed with
# the protocol's seed too: Complete(8) takes 22-34 qubits depending on the
# search seed, and the sampler's cost grows with the square of that.
REFERENCE_SEED = 42
EMBED_SEED = 42
# embed-c12 embeds a fixed batch from the criterion-4 generator, graph i with
# search seed i as criterion 4 does. Search time grows with the edge count, so
# the batch keeps graphs of n <= edges <= 24: none embeds with unit chains on
# its first try, and one pass over the batch takes about 24 CPU s.
EMBED_BATCH_SEED = 777
EMBED_BATCH = 6
MAX_TRIES = 8

PROTOCOL = (("Cycle", (20,)), ("Star", (20,)), ("Complete", (8,)), ("CompleteBipartite", (4, 4)))


def subseed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0] & 0x7FFFFFFF)


@dataclass(frozen=True)
class Context:
    gp: Graph | None
    tm: object


@dataclass
class Checked:
    failed: int
    mismatches: list[str]


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HybridTask:
    """Embed once, solve classically, sample every assignment, write reports."""

    family: str
    params: tuple[int, ...]
    inst: DwmwisInstance
    cfg: BenchConfig

    unit = "assignment"

    @property
    def units(self) -> int:
        return self.inst.m

    def run(self, ctx: Context):
        result = embedding.heuristic_embed(
            self.inst.graph, ctx.gp, seed=EMBED_SEED, max_tries=self.cfg.max_tries
        )
        if not result.ok:
            return HybridOut(result, None, None, ())
        baseline = bench.run_classical(self.inst)
        record = bench.run_hybrid(
            self.inst, ctx.gp, self.cfg, ctx.tm, baseline=baseline, embed_result=result
        )
        return HybridOut(result, baseline, record, (bench.record_csv(record), bench.record_summary(record)))

    def check(self, out: "HybridOut", ctx: Context) -> Checked:
        if out.record is None:
            return Checked(self.units, [])
        bad = check_embedding(self.inst.graph, ctx.gp, out.embed)
        bad += check_classical(self.family, self.params, self.inst, out.baseline)
        rec = out.record
        if rec.T_std != rec.T_H + (rec.m - 1) * rec.t_embed:
            bad.append(f"{self.inst.name}: T_std != T_H + (m-1)*t_embed")
        if rec.embedded_order != out.embed.embedding.size():
            bad.append(f"{self.inst.name}: embedded order differs from the embedding")
        failed = 0
        for o in rec.outcomes:
            if o.optimal_value != out.baseline.values[o.index]:
                bad.append(f"{self.inst.name}#{o.index}: optimum differs from the classical pass")
            if o.status != bench.SOLVED:
                failed += 1
            elif o.s != o.n_opt / o.n_samples or not math.isclose(
                o.k99, oracles.expected_k99(o.s, self.cfg.p), rel_tol=1e-12
            ):
                bad.append(f"{self.inst.name}#{o.index}: s or k99 inconsistent with the counts")
        return Checked(self.units if bad else failed, bad)

    def digest_text(self, out: "HybridOut") -> str:
        if out.record is None:
            return "embedding failed"
        csv_text, summary = out.reports
        rows = [line.split(",") for line in csv_text.splitlines()]
        keep = [i for i, col in enumerate(rows[0]) if col not in bench.CSV_WALL_CLOCK_COLUMNS]
        masked_csv = "\n".join(",".join(row[i] for i in keep) for row in rows)
        doc = {k: v for k, v in json.loads(summary).items() if k not in bench.WALL_CLOCK_FIELDS}
        return masked_csv + "\n" + json.dumps(doc, sort_keys=True)

    def qubits(self, out: "HybridOut") -> int:
        return out.record.embedded_order if out.record is not None else 0


@dataclass
class HybridOut:
    embed: object
    baseline: object
    record: object
    reports: tuple[str, ...]

    @property
    def outcomes(self):
        return self.record.outcomes if self.record is not None else ()


@dataclass(frozen=True)
class EmbedTask:
    """One heuristic embedding search, the cost the standard pipeline repeats."""

    graph: Graph
    search_seed: int

    unit = "embedding"
    units = 1

    def run(self, ctx: Context):
        return embedding.heuristic_embed(self.graph, ctx.gp, seed=self.search_seed, max_tries=MAX_TRIES)

    def check(self, out, ctx: Context) -> Checked:
        if not out.ok:
            return Checked(1, [])
        bad = check_embedding(self.graph, ctx.gp, out)
        return Checked(1 if bad else 0, bad)

    def digest_text(self, out) -> str:
        chains = out.embedding.chains if out.ok else None
        return json.dumps({"chains": chains, "restarts": out.restarts})

    def qubits(self, out) -> int:
        return out.embedding.size() if out.ok else 0


@dataclass(frozen=True)
class ClassicalTask:
    """The classical pipeline: one constraint build, then m exact solves."""

    family: str
    params: tuple[int, ...]
    inst: DwmwisInstance

    unit = "solve"

    @property
    def units(self) -> int:
        return self.inst.m

    def run(self, ctx: Context):
        return bench.run_classical(self.inst)

    def check(self, out, ctx: Context) -> Checked:
        bad = check_classical(self.family, self.params, self.inst, out)
        return Checked(self.units if bad else 0, bad)

    def digest_text(self, out) -> str:
        return json.dumps([[repr(v), sorted(s)] for v, s in zip(out.values, out.sets)])


def check_embedding(graph: Graph, gp: Graph, result) -> list[str]:
    check = verify_embedding(graph, gp, result.embedding)
    return [] if check.ok else [f"invalid embedding: {check.failures[:2]}"]


def check_classical(family, params, inst: DwmwisInstance, baseline) -> list[str]:
    bad = []
    edges = inst.graph.edges
    for i, weights in enumerate(inst.assignments):
        optimum = oracles.family_optimum(family, params, oracles.hundredths(weights))
        problem = oracles.check_selection(edges, weights, baseline.sets[i], baseline.values[i], optimum)
        if problem:
            bad.append(f"{inst.name}#{i}: {problem}")
    return bad


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def _instance(family, params, m, label) -> DwmwisInstance:
    g = generate_family(FamilySpec(family, params))
    return DwmwisInstance(g, gen_weights(g.n, m, REFERENCE_SEED), name=label)


def _count(seconds: float, per_20_s: int) -> int:
    """Tasks for a run of ``seconds``; ``per_20_s`` tasks take 20-30 CPU s on
    the reference machine, enough to hold the run-to-run spread near 5-10%."""
    return max(1, round(per_20_s * seconds / 20))


def _hybrid_c4(seed: int, seconds: float):
    instances = [(f, p, _instance(f, p, 2, FamilySpec(f, p).label())) for f, p in PROTOCOL]
    tasks = [
        HybridTask(family, params, inst, BenchConfig(seed=subseed(seed, r, gi)))
        for r in range(_count(seconds, 2))
        for gi, (family, params, inst) in enumerate(instances)
    ]
    return chimera(4), tasks


def _reuse_c12(seed: int, seconds: float):
    inst = _instance("Cycle", (20,), 25, "Cycle(20)")
    tasks = [
        HybridTask("Cycle", (20,), inst, BenchConfig(seed=subseed(seed, r), sweeps=20))
        for r in range(_count(seconds, 2))
    ]
    return chimera(12), tasks


def embed_batch() -> list[Graph]:
    """Graphs from the criterion-4 generator with 12-20 vertices and n to 24 edges."""
    rng = np.random.default_rng(EMBED_BATCH_SEED)
    batch = []
    while len(batch) < EMBED_BATCH:
        n = int(rng.integers(4, 21))
        density = float(rng.uniform(0.02, 0.3))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        if n >= 12 and n <= len(edges) <= 24:
            batch.append(Graph.from_edges(n, edges))
    return batch


def _embed_c12(seed: int, seconds: float):
    batch = embed_batch()
    tasks = [EmbedTask(g, i) for _ in range(_count(seconds, 1)) for i, g in enumerate(batch)]
    return chimera(12), tasks


def _classical_grid(seed: int, seconds: float):
    inst = _instance("Grid", (7, 7), 40, "Grid(7,7)")
    return None, [ClassicalTask("Grid", (7, 7), inst) for _ in range(_count(seconds, 2))]


PLANS = {
    "hybrid-c4": _hybrid_c4,
    "reuse-c12": _reuse_c12,
    "embed-c12": _embed_c12,
    "classical-grid": _classical_grid,
}
DEFAULT_SEEDS = {"hybrid-c4": 42, "reuse-c12": 42, "embed-c12": 777, "classical-grid": 42}


def plan(workload: str, seed: int, seconds: float):
    """Set-up: the hardware graph, the timing profile and the task list."""
    gp, tasks = PLANS[workload](seed, seconds)
    return Context(gp=gp, tm=timing_profile("dwave2x")), tasks
