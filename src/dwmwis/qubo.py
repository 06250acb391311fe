"""Quadratic unconstrained binary optimisation: objective, the weighted
independent-set reduction, solution decoding, constructive repair, and
hardware-range rescaling.

The objective is ``f(x) = sum_{i <= j} x_i Q_{ij} x_j`` over bits ``x_i`` with
an upper-triangular coefficient map ``Q``. Energies are evaluated with
``math.fsum`` so that two entry sets with the same exact real sum always
produce bit-identical floats; the embedding layer leans on this.

Only the binary (0/1) formulation is implemented. The equivalent spin (+/-1)
form differs by an affine change of variables and is out of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .graphs import Graph, WeightedGraph

__all__ = [
    "QuboMatrix",
    "BitVector",
    "energy",
    "mwis_to_qubo",
    "auto_penalty",
    "decode",
    "repair",
    "repairer",
    "scale_to_unit",
]

BitVector = tuple[int, ...]


@dataclass(frozen=True)
class QuboMatrix:
    """Sparse upper-triangular coefficient map for a QUBO objective.

    ``entries`` maps ``(i, j)`` with ``i <= j`` to a nonzero real; diagonal
    keys carry the linear terms. Instances are treated as immutable.
    """

    n: int
    entries: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        for (i, j), value in self.entries.items():
            if not (0 <= i <= j < self.n):
                raise ValueError(f"entry ({i},{j}) out of range for n={self.n}")
            if value == 0.0:
                raise ValueError(f"entry ({i},{j}) stores an explicit zero")
            if not math.isfinite(value):
                raise ValueError(f"entry ({i},{j}) is not finite: {value}")

    def diagonal(self) -> dict[int, float]:
        return {i: v for (i, j), v in self.entries.items() if i == j}

    def couplings(self) -> dict[tuple[int, int], float]:
        return {(i, j): v for (i, j), v in self.entries.items() if i != j}

    def coupling_graph(self) -> Graph:
        """Graph whose edges are the nonzero off-diagonal couplings."""
        return Graph.from_edges(self.n, [(i, j) for (i, j) in self.entries if i != j])

    def max_abs_entry(self) -> float:
        return max(abs(v) for v in self.entries.values()) if self.entries else 0.0


def energy(q: QuboMatrix, x: Sequence[int]) -> float:
    """Objective value ``sum_{i <= j} x_i Q_{ij} x_j`` (diagonal counted once)."""
    if len(x) != q.n:
        raise ValueError(f"bit vector length {len(x)} != dimension {q.n}")
    return math.fsum(v for (i, j), v in q.entries.items() if x[i] and x[j])


def auto_penalty(weights: Sequence[float]) -> float:
    """Default penalty weight: W + 1 for all-integer weights, else 1.5 * W.

    Keeping the penalty close to the largest weight limits the dynamic-range
    loss when the matrix is later rescaled to the unit interval.
    """
    top = max(weights)
    if all(float(w).is_integer() for w in weights):
        return top + 1.0
    return 1.5 * top


def mwis_to_qubo(weighted: WeightedGraph, penalty: float | str = "auto") -> QuboMatrix:
    """Reduce a maximum-weight independent set instance to a QUBO.

    Diagonal entries are the negated vertex weights; every edge receives the
    penalty coupling ``S`` which must exceed the maximum vertex weight so that
    no violating selection can beat an independent one.
    """
    if penalty == "auto":
        s = auto_penalty(weighted.weights)
    else:
        s = float(penalty)
    top = weighted.max_weight()
    if not s > top:
        raise ValueError(f"penalty {s} must exceed the maximum vertex weight {top}")
    entries: dict[tuple[int, int], float] = {
        (i, i): -w for i, w in enumerate(weighted.weights)
    }
    for u, v in weighted.graph.sorted_edges():
        entries[(u, v)] = s
    return QuboMatrix(n=weighted.n, entries=entries)


def decode(x: Sequence[int]) -> frozenset[int]:
    """Vertices selected by a bit vector."""
    return frozenset(i for i, bit in enumerate(x) if bit)


def repair(weighted: WeightedGraph, x: Sequence[int]) -> BitVector:
    """Constructive repair: make the selection independent, then greedily grow it.

    While some edge has both endpoints selected, the lighter endpoint is
    cleared (equal weights keep the lower index). Afterwards every vertex
    whose addition preserves independence is added, scanned in ascending
    (weight, index) order. The objective never increases along the way.
    """
    return repairer(weighted)(x)


def repairer(weighted: WeightedGraph) -> Callable[[Sequence[int]], BitVector]:
    """``repair`` on one weighted graph, for many vectors: the edge list, the
    adjacency and the greedy scan order are built once."""
    n, w = weighted.n, weighted.weights
    adj = weighted.graph.adjacency()
    edges = weighted.graph.sorted_edges()
    order = sorted(range(n), key=lambda i: (w[i], i))

    def fix(x: Sequence[int]) -> BitVector:
        if len(x) != n:
            raise ValueError(f"bit vector length {len(x)} != vertex count {n}")
        chosen = {i for i, bit in enumerate(x) if bit}
        # clearing an endpoint never violates an edge, so one pass in edge
        # order clears what rescanning from the first violated edge would
        for u, v in edges:
            if u in chosen and v in chosen:
                if w[u] < w[v]:
                    chosen.discard(u)
                elif w[v] < w[u]:
                    chosen.discard(v)
                else:
                    chosen.discard(max(u, v))
        for v in order:
            if v not in chosen and not (adj[v] & chosen):
                chosen.add(v)
        return tuple(1 if i in chosen else 0 for i in range(n))

    return fix


def scale_to_unit(q: QuboMatrix) -> tuple[QuboMatrix, float]:
    """Rescale so every coefficient lies in [-1, 1].

    Returns ``(q / scale, scale)`` with ``scale = max |Q_{ij}|``. Positive
    rescaling preserves the ordering of objective values, so the minimising
    set is unchanged.
    """
    scale = q.max_abs_entry()
    if scale == 0.0:
        raise ValueError("cannot scale a matrix with no nonzero entries")
    scaled = {key: value / scale for key, value in q.entries.items()}
    return QuboMatrix(n=q.n, entries=scaled), scale
