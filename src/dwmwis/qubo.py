"""Quadratic unconstrained binary optimisation: the coefficient map, the
weighted independent-set reduction, and hardware-range rescaling.

The objective is ``f(x) = sum_{i <= j} x_i Q_{ij} x_j`` over bits ``x_i`` with
an upper-triangular coefficient map ``Q``. No pipeline evaluates it; the
fsum-exact ``energy`` that tests check the reduction and the embedding
against is in ``tests/oracles.py``.

Only the binary (0/1) formulation is implemented. The equivalent spin (+/-1)
form differs by an affine change of variables and is out of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .graphs import WeightedGraph

__all__ = [
    "QuboMatrix",
    "mwis_to_qubo",
    "auto_penalty",
    "scale_to_unit",
]


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

    def max_abs_entry(self) -> float:
        return max(abs(v) for v in self.entries.values()) if self.entries else 0.0


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
