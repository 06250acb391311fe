"""Simulated-annealing sampler standing in for the quantum processor, plus
the calibrated wall-clock model and time-to-solution statistics.

The sampler runs independent Metropolis single-bit-flip anneals over a
geometric temperature schedule; all runs march through the sweep schedule in
lock-step as vectorised numpy batches, which keeps them bit-reproducible for
a fixed seed. A sweep visits the qubits in ascending order, but a layer at a
time: the qubits are layered once per call so that no coupling joins two
qubits of a layer and every coupling runs from a lower layer to a higher one,
and each layer is updated at once from one matrix product. That is the same
Markov chain as updating the qubits one by one. Only the qubits the matrix
touches are annealed and read out. Timing never comes from the sampler
itself: processing time is modelled from configurable constants the way the
hardware publishes them.
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
    """Annealer output over the active qubits: ``samples[r, c]`` is the int8
    bit of qubit ``qubits[c]`` in read r, one row per read in draw order.
    ``qubits`` is sorted; a qubit the matrix never touches has no column."""

    samples: np.ndarray
    qubits: np.ndarray


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


def _sweep_layers(q: QuboMatrix) -> list[list[int]]:
    """Group the qubits the matrix touches into layers, each sorted. A qubit's
    layer is one above the highest layer among the qubits it couples to that
    have a lower index. So no coupling joins two qubits of one layer, and
    updating the layers in turn, each at once, is the same Metropolis sweep as
    visiting the qubits one by one in ascending order: two qubits whose visit
    order changes share no coupling."""
    lower: dict[int, list[int]] = {}
    for i, j in q.entries:
        lower.setdefault(i, [])
        lower.setdefault(j, [])
        if i != j:
            lower[j].append(i)
    layer: dict[int, int] = {}
    for v in sorted(lower):
        layer[v] = 1 + max((layer[u] for u in lower[v]), default=-1)
    layers: list[list[int]] = [[] for _ in range(max(layer.values(), default=-1) + 1)]
    for v in sorted(layer):
        layers[layer[v]].append(v)
    return layers


def sample(qp: QuboMatrix, gp: Graph, cfg: SamplerConfig) -> Reads:
    """Draw ``cfg.num_samples`` independent annealing runs of the QUBO.

    Each run starts from uniform random bits and performs Metropolis
    single-bit-flip sweeps in ascending qubit order; only couplings present in
    the matrix (all of which must be hardware edges) enter a flip's energy
    delta. A sweep updates the qubits a layer at a time (see
    ``_sweep_layers``): no coupling joins two qubits of a layer, so the whole
    layer flips at once from one matrix product, with the same outcome as
    flipping its qubits one by one. Only the qubits the matrix touches are
    annealed and read out. Deterministic for a fixed seed.
    """
    if qp.n != gp.n:
        raise ValueError(f"QUBO dimension {qp.n} != hardware size {gp.n}")
    for i, j in qp.entries:
        if i != j and not gp.has_edge(i, j):
            raise ValueError(f"coupling ({i},{j}) is not a hardware edge")

    rng = np.random.default_rng(cfg.seed)
    reads = cfg.num_samples
    qubits = sorted({i for key in qp.entries for i in key})
    n_active = len(qubits)
    bits = rng.integers(0, 2, size=(reads, n_active), dtype=np.int8)
    if qubits:
        temps = _schedule(qp, qubits, cfg)
        layers = _sweep_layers(qp)
        # State rows: the layers in turn, then a row of ones. In spins
        # s = 2x - 1 the local field J x + h is (J/2) s + h + (row sums of
        # J)/2; the column that meets the row of ones holds that constant, so
        # one product gives the fields of a whole layer.
        position = {q: a for a, q in enumerate(q for layer in layers for q in layer)}
        field_matrix = np.zeros((n_active, n_active + 1))
        for (i, j), value in qp.entries.items():
            a, b = position[i], position[j]
            if i == j:
                field_matrix[a, n_active] += value
            else:
                half = 0.5 * value
                field_matrix[a, b] = field_matrix[b, a] = half
                field_matrix[a, n_active] += half
                field_matrix[b, n_active] += half
        # A layer's fields need only the state rows its couplings touch. They
        # are gathered, and the layer keeps just those columns of the matrix,
        # side by side with the other layers' so that one multiply scales all
        # of them by 1/T.
        bounds = np.cumsum([0] + [len(layer) for layer in layers])
        spans = list(zip(bounds[:-1], bounds[1:]))
        touched = [np.flatnonzero(field_matrix[lo:hi].any(axis=0)) for lo, hi in spans]
        compact = np.zeros((n_active, max(len(columns) for columns in touched)))
        for (lo, hi), columns in zip(spans, touched):
            compact[lo:hi, : len(columns)] = field_matrix[lo:hi, columns]
        scaled = np.empty_like(compact)
        blocks = [
            (lo, hi, columns, scaled[lo:hi, : len(columns)])
            for (lo, hi), columns in zip(spans, touched)
        ]

        rows = np.array([position[q] for q in qubits], dtype=np.intp)
        spins = np.ones((n_active + 1, reads))
        spins[rows] = 2.0 * bits.T - 1.0
        widest = max(len(layer) for layer in layers)
        log_u = np.empty((n_active, reads), dtype=np.float32)
        field = np.empty((widest, reads))
        flip = np.empty((widest, reads), dtype=bool)
        # x flips when its delta (1 - 2x) * local = -s * local is below
        # -T log(u), that is when s * local / T > log(u); a draw of 0 always
        # flips. The temperature stays in float64, so a large coefficient
        # scale cannot overflow the float32 draws.
        with np.errstate(divide="ignore"):
            for temperature in temps:
                np.multiply(compact, 1.0 / temperature, out=scaled)
                rng.random(dtype=np.float32, out=log_u)
                np.log(log_u, out=log_u)
                for lo, hi, columns, matrix in blocks:
                    f, fl, s = field[: hi - lo], flip[: hi - lo], spins[lo:hi]
                    np.matmul(matrix, spins[columns], out=f)
                    f *= s
                    np.greater(f, log_u[lo:hi], out=fl)
                    np.negative(s, out=s, where=fl)
        bits[:] = (spins[rows] > 0.0).T
    return Reads(bits, np.array(qubits, dtype=np.intp))


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
