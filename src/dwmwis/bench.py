"""Benchmark driver for dynamically weighted maximum-weight independent set
instances: one graph, many weight assignments.

Three pipelines are compared. The hybrid pipeline embeds the graph once and
reuses the embedding for every assignment; the standard pipeline charges the
embedding cost once per assignment; the classical pipeline solves every
assignment exactly with the branch-and-bound baseline, building the
constraint structure once. Per-assignment solver quality (success rate s and
the repetition estimate k99) is measured by actually sampling; wall-clock
totals combine the measured embedding and reweighting times with the modeled
processing constants, with the standard total derived analytically from the
paired hybrid run so that T_std - T_H == (m - 1) * t_embed holds exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .annealer import (
    Reads,
    SampleSet,
    SamplerConfig,
    TimingModel,
    Unsolved,
    k_p,
    proc_time,
    sample,
    temperature_range,
)
from .bip import build_constraints, solve_bip
from .embedding import EmbedResult, Embedding, embed_qubo, heuristic_embed, unembed
from .graphs import Graph, WeightedGraph, parse_instance, selection_weight
from .qubo import QuboMatrix, mwis_to_qubo, scale_to_unit

__all__ = [
    "DwmwisInstance",
    "BenchConfig",
    "AssignmentOutcome",
    "BenchmarkRecord",
    "ClassicalBaseline",
    "EmbeddingFailed",
    "SOLVED",
    "UNSOLVED",
    "gen_weights",
    "run_classical",
    "run_hybrid",
    "run_standard",
    "ratios",
    "logical_sampleset",
    "reweight",
    "record_csv",
    "record_summary",
    "WALL_CLOCK_FIELDS",
    "CSV_WALL_CLOCK_COLUMNS",
]

SOLVED = "solved"
UNSOLVED = "unsolved"

# summary fields that contain measured wall-clock time (directly or derived);
# everything else in a report is reproducible bit-for-bit from the manifest
WALL_CLOCK_FIELDS = (
    "t_embed",
    "t_embed_each",
    "T_H",
    "T_std",
    "T_C",
    "R_H",
    "R_C",
    "t2_total",
)
CSV_WALL_CLOCK_COLUMNS = ("t2_wall_seconds",)


class EmbeddingFailed(RuntimeError):
    """The heuristic found no embedding of the instance into the hardware graph."""


@dataclass(frozen=True)
class DwmwisInstance:
    """One graph with m per-vertex weight assignments."""

    graph: Graph
    assignments: tuple[tuple[float, ...], ...]
    name: str = "instance"

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", tuple(tuple(v) for v in self.assignments))
        if len(self.assignments) < 1:
            raise ValueError("need at least one weight assignment")
        for vec in self.assignments:
            WeightedGraph(self.graph, vec)  # validates length and positivity

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return len(self.assignments)

    def weighted(self, index: int) -> WeightedGraph:
        return WeightedGraph(self.graph, self.assignments[index])

    @classmethod
    def from_json(cls, text: str, name: str = "instance") -> "DwmwisInstance":
        weighted, assignments = parse_instance(text)
        vectors = tuple(assignments) if assignments else (weighted.weights,)
        return cls(graph=weighted.graph, assignments=vectors, name=name)


def gen_weights(n: int, m: int, seed: int) -> tuple[tuple[float, ...], ...]:
    """Draw m weight vectors on the two-decimal grid in [0.01, 0.99].

    Uniform draws from [0, 1) are truncated to two decimals; exact zeros are
    bumped to 0.01 to keep every weight positive. Deterministic per seed.
    """
    if m < 1:
        raise ValueError(f"need m >= 1 assignments, got {m}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    return tuple(
        tuple(max(rng.randrange(100), 1) / 100 for _ in range(n)) for _ in range(m)
    )


@dataclass(frozen=True)
class BenchConfig:
    """Knobs for the sampling pipelines.

    ``sample_budgets`` is the escalation ladder: stages run in order until an
    optimal sample has been seen, mirroring the run-twice-then-escalate
    estimation protocol. ``chain_strength`` None derives the strength from
    each assignment's matrix (see ``embed_qubo``). ``p`` is no knob: every
    report names its repetition estimate ``k99``, so the confidence is 0.99.
    """

    p: ClassVar[float] = 0.99
    seed: int = 0
    sample_budgets: tuple[int, ...] = (1000, 1000, 2000, 2000)
    sweeps: int | None = None
    chain_strength: float | None = None
    max_tries: int = 8

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.sample_budgets or any(b < 1 for b in self.sample_budgets):
            raise ValueError(f"bad sample budgets {self.sample_budgets}")
        if self.sweeps is not None and self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")
        # a Chimera qubit has at most 6 couplers, so its diagonal collects at
        # most 6M plus one split weight and a chain coupler carries -2M; up to
        # float max / 8 every physical entry stays finite
        top = sys.float_info.max / 8
        if self.chain_strength is not None and not 0.0 < self.chain_strength <= top:
            raise ValueError(f"chain strength must be in (0, {top:.4g}], got {self.chain_strength}")
        if self.max_tries < 1:
            raise ValueError(f"max_tries must be >= 1, got {self.max_tries}")


@dataclass(frozen=True)
class AssignmentOutcome:
    """Per-assignment results; everything except t2_seconds is reproducible."""

    index: int
    status: str
    s: float
    k99: float | None
    t_proc: float
    optimal_value: float
    n_samples: int
    n_opt: int
    t2_seconds: float


@dataclass(frozen=True)
class ClassicalBaseline:
    values: tuple[float, ...]
    sets: tuple[frozenset[int], ...]
    seconds: float


@dataclass(frozen=True)
class BenchmarkRecord:
    instance: str
    n: int
    m: int
    outcomes: tuple[AssignmentOutcome, ...]
    t_embed: float
    embed_restarts: int
    embedded_order: int
    max_chain_length: int
    T_H: float
    T_std: float
    T_C: float
    t_embed_each: tuple[float, ...] | None = None

    @property
    def all_solved(self) -> bool:
        return all(o.status == SOLVED for o in self.outcomes)

    @property
    def solved_count(self) -> int:
        return sum(1 for o in self.outcomes if o.status == SOLVED)


def run_classical(inst: DwmwisInstance) -> ClassicalBaseline:
    """Solve every assignment exactly, reusing one constraint build.

    The measured wall time covers the constraint build plus all solves and is
    the classical total T_C; the optimal values double as the optimality
    reference for success counting.
    """
    t0 = time.perf_counter()
    cs = build_constraints(inst.graph)
    values = []
    sets = []
    for vec in inst.assignments:
        solution = solve_bip(cs, vec)
        values.append(solution.value)
        sets.append(solution.vertices)
    seconds = time.perf_counter() - t0
    return ClassicalBaseline(values=tuple(values), sets=tuple(sets), seconds=seconds)


def logical_sampleset(
    reads: Reads,
    emb: Embedding,
    weighted: WeightedGraph,
    optimal_value: float,
) -> SampleSet:
    """Count the annealer's reads that reach the optimum in logical space: a
    read hits when the weight of its selection under ``unembed`` is
    ``optimal_value`` up to rounding. Reads that vote alike are scored once."""
    chosen, counts = unembed(reads, emb, weighted)
    n, w = len(chosen), weighted.weights
    # two selections of the same exact weight differ by at most the rounding
    # of their n weights plus that of each sum; a tolerance in ulps of the
    # optimum scales with the weights, where an absolute one would count every
    # read as a hit once the optimum falls below it
    threshold = optimal_value - (n + 1) * math.ulp(optimal_value)
    # screen: the products of positive weights with 0/1 entries are exact, and
    # their sum in any order errs from the exact sum S by at most n/2 * eps * S;
    # fsum(S) >= threshold gives S >= threshold * (1 - eps/2), so a row that
    # fsum counts has a dot product above threshold * (1 - (n + 2)/2 * eps),
    # the subtraction's rounding included; the margin is four times that
    margin = 2 * (n + 2) * sys.float_info.epsilon * abs(threshold)
    screened = np.flatnonzero(np.array(w) @ chosen >= threshold - margin)
    hits = sum(
        int(counts[i])
        for i in screened.tolist()
        if selection_weight(w, np.flatnonzero(chosen[:, i]).tolist()) >= threshold
    )
    return SampleSet(hits, len(reads.samples))


def reweight(weighted: WeightedGraph, emb: Embedding, chain_strength: float | None) -> QuboMatrix:
    """The physical QUBO the sampler anneals for one assignment, scaled to
    the unit range: the reweighting that ``t2`` times."""
    q_physical = embed_qubo(mwis_to_qubo(weighted, "auto"), emb, chain_strength)
    return scale_to_unit(q_physical)[0]


def _solve_assignment(
    weighted: WeightedGraph,
    index: int,
    emb: Embedding,
    cfg: BenchConfig,
    tm: TimingModel,
    optimal_value: float,
    q_scaled: QuboMatrix,
    t2: float,
) -> AssignmentOutcome:
    """Sample the assignment's scaled QUBO up the escalation ladder and score
    the reads; ``run_hybrid`` reweighted it, in ``t2`` seconds, beforehand."""
    stages: list[SampleSet] = []
    for stage, budget in enumerate(cfg.sample_budgets):
        sampler_cfg = SamplerConfig(
            num_samples=budget, sweeps=cfg.sweeps, seed=(cfg.seed, 1000 + index, stage)
        )
        reads = sample(q_scaled, emb.physical, sampler_cfg)
        stages.append(logical_sampleset(reads, emb, weighted, optimal_value))
        merged = SampleSet.merge(stages)
        if merged.hits:
            break

    n_opt, n_total = merged.hits, merged.total
    s = n_opt / n_total
    if n_opt:
        k99 = k_p(s, cfg.p)
        status = SOLVED
        t_proc = proc_time(k99, tm)
    else:
        # undefined repetition count: charge the samples actually burned and
        # flag the assignment so totals are read as lower bounds
        k99 = None
        status = UNSOLVED
        t_proc = proc_time(max(1, n_total), tm)
    return AssignmentOutcome(
        index=index,
        status=status,
        s=s,
        k99=k99,
        t_proc=t_proc,
        optimal_value=optimal_value,
        n_samples=n_total,
        n_opt=n_opt,
        t2_seconds=t2,
    )


def _assignments_charge(outcomes) -> float:
    """sum_i (t2_i + t_proc_i): each measured reweighting and modeled processing time."""
    return math.fsum(o.t2_seconds + o.t_proc for o in outcomes)


def run_hybrid(
    inst: DwmwisInstance,
    gp: Graph,
    cfg: BenchConfig = BenchConfig(),
    tm: TimingModel = TimingModel(0.0, 0.0, 0.0),
    baseline: ClassicalBaseline | None = None,
    embed_result: EmbedResult | None = None,
) -> BenchmarkRecord:
    """Embed once, then sample every assignment through the shared embedding.

    The order is fixed here, so that doomed work stops before the exponential
    classical pass: embed, unless ``embed_result`` is given (``EmbeddingFailed``
    on failure); reweight each assignment once, timed as its ``t2``, refusing a
    weight range the sampler cannot hold (``ValueError``); solve exactly,
    unless ``baseline`` is given; then sample each stored QUBO.

    T_H = t_embed + sum_i (t2_i + t_proc_i) charges the measured embedding
    search once and every measured reweighting, under every timing model: an
    all-zero one models a free annealer, so only the t_proc_i vanish. The
    paired standard total charges the embedding once per assignment, so
    T_std == T_H + (m - 1) * t_embed holds as written.
    """
    result = embed_result
    if result is None:
        result = heuristic_embed(inst.graph, gp, seed=cfg.seed, max_tries=cfg.max_tries)
    if not result.ok:
        # the search runs no restart only when its proven floor exceeds the chip
        reason = ("can exist: its chains need more qubits than the chip has" if not result.restarts
                  else "after 1 restart" if result.restarts == 1
                  else f"after {result.restarts} restarts")
        raise EmbeddingFailed(
            f"no embedding of {inst.name!r} ({inst.n} vertices) into the "
            f"{gp.n}-qubit hardware graph {reason}"
        )
    emb = result.embedding
    if emb.physical != gp:
        raise ValueError("the embedding was made for another hardware graph")
    emb.chain_edges  # derive the chain structure before any reweight is timed
    reweighted = []
    for i in range(inst.m):
        t2_start = time.perf_counter()
        q_scaled = reweight(inst.weighted(i), emb, cfg.chain_strength)
        reweighted.append((q_scaled, time.perf_counter() - t2_start))
        temperature_range(q_scaled)
    if baseline is None:
        baseline = run_classical(inst)
    outcomes = [
        _solve_assignment(inst.weighted(i), i, emb, cfg, tm, baseline.values[i], q, t2)
        for i, (q, t2) in enumerate(reweighted)
    ]

    t_h = result.seconds + _assignments_charge(outcomes)
    t_std = t_h + (inst.m - 1) * result.seconds
    return BenchmarkRecord(
        instance=inst.name,
        n=inst.n,
        m=inst.m,
        outcomes=tuple(outcomes),
        t_embed=result.seconds,
        embed_restarts=result.restarts,
        embedded_order=emb.size(),
        max_chain_length=emb.max_chain_length(),
        T_H=t_h,
        T_std=t_std,
        T_C=baseline.seconds,
    )


def run_standard(
    inst: DwmwisInstance,
    gp: Graph,
    cfg: BenchConfig,
    paired: BenchmarkRecord,
) -> BenchmarkRecord:
    """Standard pipeline with a real embedder run per assignment.

    The hybrid record already carries the analytic standard total. This path
    (``--reembed-each``) reruns the embedder for every assignment after the
    first, reuses the paired record's samples, t2 and t_proc, and replaces ``T_std``
    with the measured sum_i (t_embed_i + t2_i + t_proc_i), to study embedding variance.
    """
    times = [paired.t_embed]
    for i in range(1, inst.m):
        result = heuristic_embed(inst.graph, gp, seed=cfg.seed + i, max_tries=cfg.max_tries)
        if not result.ok:
            raise EmbeddingFailed(f"re-embedding run {i} of {inst.name!r} failed")
        times.append(result.seconds)
    t_std = math.fsum(times) + _assignments_charge(paired.outcomes)
    return replace(paired, T_std=t_std, t_embed_each=tuple(times))


def ratios(record: BenchmarkRecord) -> tuple[float, float]:
    """Speedup ratios (R_H, R_C) = (T_std / T_H, T_H / T_C).

    Only defined when every assignment was solved. Equal totals give R_H = 1,
    even when both are 0, which only a record built by hand can have: the
    totals hold measured time under every timing model. The algebraic
    identity R_H = 1 + (m - 1) * t_embed / T_H is revalidated on every call.
    """
    unsolved = [o.index for o in record.outcomes if o.status != SOLVED]
    if unsolved:
        raise Unsolved(f"assignments {unsolved} are unsolved; ratios are unavailable")
    r_h = 1.0 if record.T_std == record.T_H else record.T_std / record.T_H
    if record.t_embed_each is None and record.T_H > 0.0:
        expected = 1.0 + (record.m - 1) * record.t_embed / record.T_H
        if not math.isclose(r_h, expected, rel_tol=1e-9, abs_tol=1e-12):
            raise RuntimeError(f"speedup identity violated: {r_h} vs {expected}")
    return r_h, record.T_H / record.T_C


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def record_csv(record: BenchmarkRecord) -> str:
    """One row per assignment. Only t2_wall_seconds is nondeterministic. A
    name with a comma, such as ``Grid(5,5)``, is quoted; an unknown k99 is
    an empty field."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["instance", "assignment", "status", "s", "k99", "t_proc_seconds", "n_samples", "n_opt",
         "optimal_value", "t2_wall_seconds"]
    )
    for o in record.outcomes:
        writer.writerow(
            [record.instance, o.index, o.status, o.s, o.k99, o.t_proc, o.n_samples, o.n_opt,
             o.optimal_value, o.t2_seconds]
        )
    return out.getvalue()


def record_summary(record: BenchmarkRecord) -> str:
    """Instance-level JSON summary; wall-clock fields are listed explicitly so
    reproducibility checks know what to mask."""
    r_h, r_c = ratios(record) if record.all_solved else (None, None)
    doc = {
        "instance": record.instance,
        "n": record.n,
        "m": record.m,
        "embedded_order": record.embedded_order,
        "max_chain_length": record.max_chain_length,
        "embed_restarts": record.embed_restarts,
        "solved": record.solved_count,
        "unsolved": record.m - record.solved_count,
        "statuses": [o.status for o in record.outcomes],
        "lower_bound_only": not record.all_solved,
        "t_embed": record.t_embed,
        "t_embed_each": list(record.t_embed_each) if record.t_embed_each else None,
        "T_H": record.T_H,
        "T_std": record.T_std,
        "T_C": record.T_C,
        "R_H": r_h,
        "R_C": r_c,
        "t2_total": math.fsum(o.t2_seconds for o in record.outcomes),
        "wall_clock_fields": list(WALL_CLOCK_FIELDS),
    }
    return json.dumps(doc, indent=1, sort_keys=True)
