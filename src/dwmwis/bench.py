"""Benchmark driver for dynamically weighted maximum-weight independent set
instances: one graph, many weight assignments.

Three pipelines are compared. The hybrid pipeline embeds the graph once and
reuses the embedding for every assignment; the standard pipeline charges the
embedding cost once per assignment; the classical pipeline solves every
assignment exactly with the branch-and-bound baseline, building the
constraint structure once. Per-assignment solver quality (success rate s and
the repetition estimate k99) is measured by actually sampling; wall-clock
totals combine the measured embedding time with the modeled processing
constants, with the standard total derived analytically from the paired
hybrid run so that T_std - T_H == (m - 1) * t_embed holds exactly.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

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
    success_probability,
)
from .bip import build_constraints, solve_bip
from .embedding import (
    EmbedResult,
    Embedding,
    embed_qubo,
    heuristic_embed,
    unembed,  # the per-read form of logical_sampleset; perfbench's tracer counts its calls here
)
from .graphs import Graph, WeightedGraph, instance_to_json, parse_instance
from .qubo import QuboMatrix, energy, mwis_to_qubo, repairer, scale_to_unit

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
    "measured_t_embed",
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

    @classmethod
    def from_file(cls, path: str | Path) -> "DwmwisInstance":
        path = Path(path)
        return cls.from_json(path.read_text(), name=path.stem)

    def to_json(self) -> str:
        base = WeightedGraph(self.graph, self.assignments[0])
        return instance_to_json(base, self.assignments)


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
    each assignment's matrix (see ``auto_chain_strength``).
    """

    seed: int = 0
    sample_budgets: tuple[int, ...] = (1000, 1000, 2000, 2000)
    p: float = 0.99
    sweeps: int | None = None
    chain_strength: float | None = None
    max_tries: int = 8

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.sample_budgets or any(b < 1 for b in self.sample_budgets):
            raise ValueError(f"bad sample budgets {self.sample_budgets}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"confidence p must be in (0, 1), got {self.p}")
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
    best_energy: float
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
    measured_t_embed: float
    embed_restarts: int
    embedded_order: int
    max_chain_length: int
    T_H: float
    T_std: float
    T_C: float | None
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
    q_logical: QuboMatrix,
) -> SampleSet:
    """Map the annealer's reads to logical space: majority vote, repair, then
    logical energies. Per read this is ``unembed`` followed by ``energy``;
    reads that vote alike share one repair and one energy evaluation, and
    their multiplicities add up."""
    lengths = np.array([len(chain) for chain in emb.chains])
    chain_qubits = np.array([q for chain in emb.chains for q in chain], dtype=np.intp)
    if not np.isin(chain_qubits, reads.qubits).all():
        raise ValueError("a chain qubit has no column in the reads")
    chain_bits = reads.samples[:, np.searchsorted(reads.qubits, chain_qubits)]
    ones = np.add.reduceat(chain_bits, np.cumsum(lengths) - lengths, axis=1, dtype=np.int32)
    # majority vote per chain, exact ties falling to 0 as in unembed, packed
    # into whole uint64 words: one key per read when n <= 64
    n, words = len(lengths), -(-len(lengths) // 64)
    votes = np.zeros((len(ones), 64 * words), dtype=np.uint8)
    votes[:, :n] = 2 * ones > lengths
    keys = np.packbits(votes, axis=1, bitorder="little").view(np.uint64)
    if words == 1:
        distinct, counts = np.unique(keys[:, 0], return_counts=True)
    else:
        distinct, counts = np.unique(keys, axis=0, return_counts=True)
    packed = np.ascontiguousarray(distinct).view(np.uint8).reshape(len(counts), -1)
    rows = np.unpackbits(packed, axis=1, count=n, bitorder="little")
    fix = repairer(weighted)
    entries = []
    for row, count in zip(rows.tolist(), counts.tolist()):
        x = fix(row)
        entries.append((x, energy(q_logical, x), count))
    return SampleSet.from_samples(entries)


def _solve_assignment(
    inst: DwmwisInstance,
    index: int,
    emb: Embedding,
    gp: Graph,
    cfg: BenchConfig,
    tm: TimingModel,
    optimal_value: float,
) -> AssignmentOutcome:
    weighted = inst.weighted(index)
    optimal_energy = -optimal_value

    t2_start = time.perf_counter()
    q_logical = mwis_to_qubo(weighted, "auto")
    q_physical = embed_qubo(q_logical, emb, gp, cfg.chain_strength)
    q_scaled, _scale = scale_to_unit(q_physical)
    t2 = time.perf_counter() - t2_start

    stages: list[SampleSet] = []
    n_total = 0
    for stage, budget in enumerate(cfg.sample_budgets):
        sampler_cfg = SamplerConfig(
            num_samples=budget, sweeps=cfg.sweeps, seed=(cfg.seed, 1000 + index, stage)
        )
        reads = sample(q_scaled, gp, sampler_cfg)
        stages.append(logical_sampleset(reads, emb, weighted, q_logical))
        n_total += budget
        merged = SampleSet.merge(stages)
        s = success_probability(merged, optimal_energy)
        if s > 0.0:
            break

    # s is the hit count over n_total, so rounding recovers the count exactly
    n_opt = round(s * n_total)
    if s > 0.0:
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
        best_energy=merged.best_energy(),
        n_samples=n_total,
        n_opt=n_opt,
        t2_seconds=t2,
    )


def run_hybrid(
    inst: DwmwisInstance,
    gp: Graph,
    cfg: BenchConfig = BenchConfig(),
    tm: TimingModel = TimingModel(0.0, 0.0, 0.0),
    baseline: ClassicalBaseline | None = None,
    embed_result: EmbedResult | None = None,
) -> BenchmarkRecord:
    """Embed once, then sample every assignment through the shared embedding.

    T_H charges the measured embedding time once; the paired standard total
    charges it once per assignment and is derived analytically, so the record
    satisfies T_std == T_H + (m - 1) * t_embed as written. Under an all-zero
    timing model the run is a pure solution-quality study and measured wall
    clock is left out of the totals entirely.
    """
    result = embed_result
    if result is None:
        result = heuristic_embed(inst.graph, gp, seed=cfg.seed, max_tries=cfg.max_tries)
    if not result.ok:
        raise EmbeddingFailed(
            f"no embedding of {inst.name!r} ({inst.n} vertices) into the "
            f"{gp.n}-qubit hardware graph after {result.restarts} restarts"
        )
    emb = result.embedding
    if baseline is None:
        baseline = run_classical(inst)

    outcomes = [
        _solve_assignment(inst, i, emb, gp, cfg, tm, baseline.values[i]) for i in range(inst.m)
    ]

    charged = 0.0 if tm.is_zero() else result.seconds
    per_assignment = [tm.t_conv + tm.t_pre + o.t_proc for o in outcomes]
    t_h = charged + math.fsum(per_assignment)
    t_std = t_h + (inst.m - 1) * charged
    return BenchmarkRecord(
        instance=inst.name,
        n=inst.n,
        m=inst.m,
        outcomes=tuple(outcomes),
        t_embed=charged,
        measured_t_embed=result.seconds,
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
    tm: TimingModel,
    paired: BenchmarkRecord,
) -> BenchmarkRecord:
    """Standard pipeline with a real embedder run per assignment.

    The hybrid record already carries the analytic standard total. This path
    (``--reembed-each``) reruns the embedder for every assignment after the
    first, reuses the paired record's samples, and replaces ``T_std`` with the
    measured embedding times, for studies of embedding variance.
    """
    times = [paired.measured_t_embed]
    for i in range(1, inst.m):
        result = heuristic_embed(inst.graph, gp, seed=cfg.seed + i, max_tries=cfg.max_tries)
        if not result.ok:
            raise EmbeddingFailed(f"re-embedding run {i} of {inst.name!r} failed")
        times.append(result.seconds)
    per_assignment = [tm.t_conv + tm.t_pre + o.t_proc for o in paired.outcomes]
    t_std = (0.0 if tm.is_zero() else math.fsum(times)) + math.fsum(per_assignment)
    return replace(paired, T_std=t_std, t_embed_each=tuple(times))


def ratios(record: BenchmarkRecord) -> tuple[float, float]:
    """Speedup ratios (R_H, R_C) = (T_std / T_H, T_H / T_C).

    Only defined when every assignment was solved. Equal totals give R_H = 1
    (this covers the all-zero timing model where both totals vanish). The
    algebraic identity R_H = 1 + (m - 1) * t_embed / T_H is revalidated on
    every call.
    """
    unsolved = [o.index for o in record.outcomes if o.status != SOLVED]
    if unsolved:
        raise Unsolved(f"assignments {unsolved} are unsolved; ratios are unavailable")
    if record.T_std == record.T_H:
        r_h = 1.0
    else:
        r_h = record.T_std / record.T_H
    if record.t_embed_each is None and record.T_H > 0.0:
        expected = 1.0 + (record.m - 1) * record.t_embed / record.T_H
        if not math.isclose(r_h, expected, rel_tol=1e-9, abs_tol=1e-12):
            raise RuntimeError(f"speedup identity violated: {r_h} vs {expected}")
    if record.T_C is None:
        raise ValueError("record carries no classical total")
    r_c = record.T_H / record.T_C
    return r_h, r_c


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def record_csv(record: BenchmarkRecord) -> str:
    """One row per assignment. Only t2_wall_seconds is nondeterministic."""
    lines = [
        "instance,assignment,status,s,k99,t_proc_seconds,n_samples,n_opt,"
        "optimal_value,t2_wall_seconds"
    ]
    for o in record.outcomes:
        lines.append(
            ",".join(
                [
                    record.instance,
                    str(o.index),
                    o.status,
                    repr(o.s),
                    _fmt(o.k99),
                    repr(o.t_proc),
                    str(o.n_samples),
                    str(o.n_opt),
                    repr(o.optimal_value),
                    repr(o.t2_seconds),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def record_summary(record: BenchmarkRecord) -> str:
    """Instance-level JSON summary; wall-clock fields are listed explicitly so
    reproducibility checks know what to mask."""
    if record.all_solved:
        r_h, r_c = ratios(record)
    else:
        r_h = r_c = None
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
        "measured_t_embed": record.measured_t_embed,
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
