"""Simulated-annealing sampler standing in for the quantum processor, plus
the calibrated wall-clock model and time-to-solution statistics.

The sampler runs independent Metropolis single-bit-flip anneals over a
geometric temperature schedule; all runs march through the sweep schedule in
lock-step as vectorised numpy batches, which keeps them bit-reproducible for
a fixed seed. A sweep visits the qubits in ascending order, but a layer at a
time: the qubits are layered once per call so that no coupling joins two
qubits of a layer and every coupling runs from a lower layer to a higher one,
and each layer is updated at once from one matrix product. That is the same
Markov chain as updating the qubits one by one. A spin flips when the sign of
log(u) minus its scaled field says so, u being numpy's float32 uniforms cut
from raw PCG64 words. Only the active qubits are annealed and read out. Time
is modelled from constants the way the hardware publishes them, not measured.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph
from .qubo import QuboMatrix

__all__ = [
    "SamplerConfig",
    "Reads",
    "SampleSet",
    "TimingModel",
    "TIMING_PROFILES",
    "timing_profile",
    "Unsolved",
    "sample",
    "temperature_range",
    "k_p",
    "proc_time",
]


_MAX_CONSTANT = 86400.0


class Unsolved(RuntimeError):
    """No optimal sample was ever observed, so k_p is undefined."""


@dataclass(frozen=True)
class TimingModel:
    """Modeled wall-clock constants, all in seconds.

    ``t_sample`` is one full anneal-readout-delay cycle. Each constant is at
    most a day, which keeps every modeled total finite.
    """

    t_prog: float
    t_sample: float
    t_post: float

    def __post_init__(self) -> None:
        for name in ("t_prog", "t_sample", "t_post"):
            value = getattr(self, name)
            if not 0.0 <= value <= _MAX_CONSTANT:
                raise ValueError(f"{name} must be in [0, {_MAX_CONSTANT:g}] s, got {value}")

    @classmethod
    def from_json(cls, text: str) -> "TimingModel":
        """Parse a JSON object of the three constants; a malformed document raises ValueError."""
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ValueError(f"timing profile: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ValueError("timing profile must be a JSON object of constants")
        names = [f.name for f in fields(cls)]
        unknown = [key for key in obj if key not in names]
        missing = [name for name in names if name not in obj]
        if unknown or missing:
            problem = f"{'unknown' if unknown else 'missing'} constant {(unknown or missing)[0]!r}"
            raise ValueError(f"timing profile: {problem}; a profile holds exactly t_prog, t_sample "
                             "and t_post (the measured reweighting t2 replaced t_conv and t_pre)")
        for key, value in obj.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"timing profile: {key!r} must be a number, got {value!r}")
        try:
            return cls(**{k: float(v) for k, v in obj.items()})
        except OverflowError as exc:  # an integer beyond the float range
            raise ValueError(f"timing profile: {exc}") from None


# dwave2x: 20 ms programming, 380.2 us per anneal-readout-delay cycle, and a
# flat 20 ms post-processing overhead per instance. zero: a free annealer.
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
class SampleSet:
    """Logical reads tallied against the optimum: ``hits`` of ``total`` reads
    reached it."""

    hits: int
    total: int

    def __post_init__(self) -> None:
        if not 0 <= self.hits <= self.total:
            raise ValueError(f"hits must be in [0, total], got {self.hits} of {self.total}")

    @classmethod
    def merge(cls, parts: Sequence["SampleSet"]) -> "SampleSet":
        return cls(sum(p.hits for p in parts), sum(p.total for p in parts))


def temperature_range(q: QuboMatrix) -> tuple[float, float]:
    """``(hottest, coldest)`` of the sampler's schedule for a nonempty ``q``;
    raises ``ValueError`` when 1/T or a scaled field would overflow."""
    magnitudes = [abs(v) for v in q.entries.values()]
    hottest = max(magnitudes)
    coldest = 1e-2 * min(magnitudes)
    # |field| * T <= the qubit's magnitudes summed; a NaN field has no flip decision
    bound = float(np.bincount(np.ravel(list(q.entries)), np.repeat(magnitudes, 2)).max())
    if not (coldest > 0.0 and math.isfinite(bound * (1.0 / coldest))):
        raise ValueError(f"bad temperature range ({hottest}, {coldest}): 1/T or a field overflows")
    return hottest, coldest


def _schedule(q: QuboMatrix, active: Sequence[int], cfg: SamplerConfig) -> np.ndarray:
    hottest, coldest = temperature_range(q)
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


def _log_uniforms(bit_generator: np.random.BitGenerator, out: np.ndarray) -> Iterator[None]:
    """Each step fills the float32 ``out`` with log(u), u the next uniforms of
    ``Generator.random(out.shape, dtype=np.float32)``: numpy cuts u from 32
    bits as ``(bits >> 8) * 2**-24``, and PCG64 hands out the low half of a
    64-bit word first and holds the high half back for the next request. A
    half held back at the start (``integers`` can leave one) comes first, and
    one left over starts the next step. A draw takes at most 2**14 words, so
    that a large step's transient words do not add to the peak memory."""
    flat = out.reshape(-1)
    state = bit_generator.state
    halves = np.array([state["uinteger"]] * state["has_uint32"], dtype="<u4")
    while True:
        at = 0
        while at < flat.size:
            if not halves.size:
                words = min(-(-(flat.size - at) // 2), 1 << 14)
                # little-endian words split low half first: value order on any host
                halves = bit_generator.random_raw(words).astype("<u8", copy=False).view("<u4")
            bits, halves = halves[: flat.size - at], halves[flat.size - at :]
            bits >>= 8  # 24 bits: exact as int32 and as float32
            np.multiply(bits.view("<i4"), 2.0**-24, out=flat[at : at + bits.size], dtype=np.float32)
            at += bits.size
        with np.errstate(divide="ignore"):
            np.log(out, out=out)
        yield


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

    Spin s = 2x - 1 flips when its delta -s * local is below -T log(u), that is
    when f = s * local / T > log(u): s becomes s * copysign(1, log(u) - f). For
    finite values IEEE subtraction is 0 only on a tie, and +0 keeps s; u = 0
    gives -inf and flips. u: ``Generator.random``'s float32 draws per sweep over
    (qubit in layer order, read), cut from raw words (see ``_log_uniforms``).
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

        rows = np.array([position[q] for q in qubits], dtype=np.intp)
        spins = np.ones((n_active + 1, reads))
        spins[rows] = 2.0 * bits.T - 1.0
        field = np.empty((max(len(layer) for layer in layers), reads))
        logs = np.empty((n_active, reads), dtype=np.float32)
        blocks = []
        for (lo, hi), columns in zip(spans, touched):
            f, s, ell = field[: hi - lo], spins[lo:hi], logs[lo:hi]
            matrix = scaled[lo:hi, : len(columns)]
            blocks.append((f, f.view(np.uint64), s, s.view(np.uint64), ell, columns, matrix))
        # with d = log(u) - f in f, s * copysign(1, d) is s XOR d's sign bit
        # (numpy's copysign loop is not vectorised). T stays in float64, so a
        # large coefficient scale cannot overflow the float32 draws.
        for temperature, _ in zip(temps, _log_uniforms(rng.bit_generator, logs)):
            np.multiply(compact, 1.0 / temperature, out=scaled)
            for f, f_bits, s, s_bits, ell, columns, matrix in blocks:
                np.matmul(matrix, spins[columns], out=f)
                f *= s
                np.subtract(ell, f, out=f)
                f_bits &= 1 << 63  # the sign bit
                s_bits ^= f_bits
        bits[:] = (spins[rows] > 0.0).T
    return Reads(bits, np.array(qubits, dtype=np.intp))


def k_p(s: float) -> float:
    """Expected repetitions to see an optimal sample with confidence p = 0.99.

    ``log(1-p) / log(1-s)``, clamped below at one run: the k99 every report
    names. ``s = 0`` raises :class:`Unsolved` (the instance would have to be
    abandoned); ``s = 1`` needs exactly one run.
    """
    if s == 0.0:
        raise Unsolved("success probability is zero; repetition count undefined")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"success probability must be in (0, 1], got {s}")
    if s == 1.0:
        return 1.0
    return max(1.0, math.log(1.0 - 0.99) / math.log(1.0 - s))


def proc_time(k: float, tm: TimingModel) -> float:
    """Processing time for k repetitions: t_prog + k * t_sample + t_post."""
    if k < 1.0:
        raise ValueError(f"repetition count must be >= 1, got {k}")
    return tm.t_prog + k * tm.t_sample + tm.t_post
