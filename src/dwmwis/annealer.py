"""Simulated-annealing sampler standing in for the quantum processor, plus
the calibrated wall-clock model and time-to-solution statistics.

The sampler runs independent Metropolis single-bit-flip anneals over a
geometric temperature schedule; all runs march through the sweep schedule in
lock-step as vectorised numpy batches, which keeps them bit-reproducible for
a fixed seed. Timing never comes from the sampler itself: processing time is
modelled from configurable constants the way the hardware publishes them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph
from .qubo import BitVector, QuboMatrix

__all__ = [
    "SamplerConfig",
    "Reads",
    "Sample",
    "SampleSet",
    "TimingModel",
    "TIMING_PROFILES",
    "timing_profile",
    "Unsolved",
    "sample",
    "success_probability",
    "k_p",
    "proc_time",
]


class Unsolved(RuntimeError):
    """No optimal sample was ever observed, so k_p is undefined."""


@dataclass(frozen=True)
class TimingModel:
    """Modeled wall-clock constants, all in seconds.

    ``t_sample`` is one full anneal-readout-delay cycle. ``t_conv`` and
    ``t_pre`` exist for completeness and default to zero; the benchmark adds
    them per assignment.
    """

    t_prog: float
    t_sample: float
    t_post: float
    t_conv: float = 0.0
    t_pre: float = 0.0

    def __post_init__(self) -> None:
        for name in ("t_prog", "t_sample", "t_post", "t_conv", "t_pre"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")

    def is_zero(self) -> bool:
        return self.t_prog == self.t_sample == self.t_post == self.t_conv == self.t_pre == 0.0

    @classmethod
    def from_json(cls, text: str) -> "TimingModel":
        """Parse a JSON object of constants; a malformed document raises ValueError."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("timing profile must be a JSON object of constants")
        try:
            return cls(**{k: float(v) for k, v in obj.items()})
        except (TypeError, OverflowError) as exc:  # bad or missing key, non-number, huge int
            raise ValueError(f"timing profile: {exc}") from None


# dwave2x: 20 ms programming, 380.2 us per anneal-readout-delay cycle, and a
# flat 20 ms post-processing overhead per instance. zero: quality-only runs.
TIMING_PROFILES = {
    "dwave2x": TimingModel(t_prog=20e-3, t_sample=380.2e-6, t_post=20e-3),
    "zero": TimingModel(t_prog=0.0, t_sample=0.0, t_post=0.0),
}


def timing_profile(name: str) -> TimingModel:
    try:
        return TIMING_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown timing profile {name!r}; expected one of {sorted(TIMING_PROFILES)}"
        ) from None


@dataclass(frozen=True)
class SamplerConfig:
    """Controls one batch of annealing runs.

    ``sweeps`` defaults to 64 per active qubit. The temperature range comes
    from the matrix: hottest at the largest coefficient magnitude, coldest at
    1e-2 times the smallest.
    """

    num_samples: int = 1000
    sweeps: int | None = None
    seed: int | tuple[int, ...] = 0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")
        if self.sweeps is not None and self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")


@dataclass(frozen=True, eq=False)
class Reads:
    """Annealer output: ``samples[r]`` is the int8 bit vector of read r over
    every physical qubit, one row per read in draw order."""

    samples: np.ndarray


@dataclass(frozen=True)
class Sample:
    bits: BitVector
    energy: float
    count: int


@dataclass(frozen=True)
class SampleSet:
    """Aggregated logical samples in canonical (energy, bits) order."""

    samples: tuple[Sample, ...]
    total: int

    def __post_init__(self) -> None:
        if sum(s.count for s in self.samples) != self.total:
            raise ValueError("sample multiplicities do not add up to the total")

    def best_energy(self) -> float:
        return min(s.energy for s in self.samples)

    @classmethod
    def from_samples(cls, entries: Iterable[tuple[BitVector, float, int]]) -> "SampleSet":
        merged: dict[BitVector, tuple[float, int]] = {}
        for bits, energy, count in entries:
            if bits in merged:
                merged[bits] = (merged[bits][0], merged[bits][1] + count)
            else:
                merged[bits] = (energy, count)
        samples = tuple(
            Sample(bits, energy, count)
            for bits, (energy, count) in sorted(merged.items(), key=lambda kv: (kv[1][0], kv[0]))
        )
        return cls(samples=samples, total=sum(s.count for s in samples))

    @classmethod
    def merge(cls, parts: Sequence["SampleSet"]) -> "SampleSet":
        return cls.from_samples((s.bits, s.energy, s.count) for p in parts for s in p.samples)


def _schedule(q: QuboMatrix, active: Sequence[int], cfg: SamplerConfig) -> np.ndarray:
    magnitudes = [abs(v) for v in q.entries.values()]
    hottest = max(magnitudes)
    coldest = 1e-2 * min(magnitudes)
    if not (hottest >= coldest > 0.0):
        raise ValueError(f"bad temperature range ({hottest}, {coldest})")
    sweeps = cfg.sweeps if cfg.sweeps is not None else 64 * len(active)
    return np.geomspace(hottest, coldest, sweeps)


def sample(qp: QuboMatrix, gp: Graph, cfg: SamplerConfig) -> Reads:
    """Draw ``cfg.num_samples`` independent annealing runs of the QUBO.

    Each run starts from uniform random bits and performs Metropolis
    single-bit-flip sweeps with incremental energy deltas; only couplings
    present in the matrix (all of which must be hardware edges) enter a
    delta. Qubits the matrix never touches keep their starting bits.
    Deterministic for a fixed seed.
    """
    if qp.n != gp.n:
        raise ValueError(f"QUBO dimension {qp.n} != hardware size {gp.n}")
    for i, j in qp.entries:
        if i != j and not gp.has_edge(i, j):
            raise ValueError(f"coupling ({i},{j}) is not a hardware edge")

    rng = np.random.default_rng(cfg.seed)
    reads = cfg.num_samples
    bits = rng.integers(0, 2, size=(reads, qp.n)).astype(np.int8)

    active = sorted({i for key in qp.entries for i in key})
    if active:
        temps = _schedule(qp, active, cfg)
        slot = {q: a for a, q in enumerate(active)}
        n_active = len(active)
        linear = np.zeros(n_active)
        nbrs: list[list[int]] = [[] for _ in range(n_active)]
        nbr_weights: list[list[float]] = [[] for _ in range(n_active)]
        for (i, j), value in qp.entries.items():
            if i == j:
                linear[slot[i]] = value
            else:
                nbrs[slot[i]].append(slot[j])
                nbr_weights[slot[i]].append(value)
                nbrs[slot[j]].append(slot[i])
                nbr_weights[slot[j]].append(value)
        nbr_idx = [np.array(v, dtype=np.intp) for v in nbrs]
        nbr_w = [np.array(v) for v in nbr_weights]

        # qubit-major, as in Isakov et al. (arXiv:1401.1084): each update
        # reads contiguous rows and rewrites its own row in place
        state = np.ascontiguousarray(bits[:, active].T, dtype=np.float64)
        threshold = np.empty((n_active, reads))
        for temperature in temps:
            rng.random(out=threshold)
            with np.errstate(divide="ignore"):
                np.log(threshold, out=threshold)
            threshold *= -temperature
            for a in range(n_active):
                row = state[a]
                # a BLAS product, not a running sum: with six neighbours the
                # two round differently and the pinned sampler output moves
                local = nbr_w[a] @ state.take(nbr_idx[a], axis=0)
                local += linear[a]
                # delta = (1 - 2 x_a) * local; x_a flips when delta < threshold
                sign = row * -2.0
                sign += 1.0
                local *= sign
                np.not_equal(row, local < threshold[a], out=row)
        bits[:, active] = state.T
    return Reads(bits)


def success_probability(ss: SampleSet, optimal_energy: float, tol: float = 1e-6) -> float:
    """Fraction of samples whose energy reaches the optimum within tolerance."""
    if ss.total < 1:
        raise ValueError("sample set is empty")
    hits = sum(s.count for s in ss.samples if s.energy <= optimal_energy + tol)
    return hits / ss.total


def k_p(s: float, p: float = 0.99) -> float:
    """Expected repetitions to see an optimal sample with confidence p.

    ``log(1-p) / log(1-s)``, clamped below at one run. ``s = 0`` raises
    :class:`Unsolved` (the instance would have to be abandoned); ``s = 1``
    needs exactly one run.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"confidence p must be in (0, 1), got {p}")
    if s == 0.0:
        raise Unsolved("success probability is zero; repetition count undefined")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"success probability must be in (0, 1], got {s}")
    if s == 1.0:
        return 1.0
    return max(1.0, math.log(1.0 - p) / math.log(1.0 - s))


def proc_time(k: float, tm: TimingModel) -> float:
    """Processing time for k repetitions: t_prog + k * t_sample + t_post."""
    if k < 1.0:
        raise ValueError(f"repetition count must be >= 1, got {k}")
    return tm.t_prog + k * tm.t_sample + tm.t_post
