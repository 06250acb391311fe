"""Independent optimum oracles and output checks for the benchmark.

Nothing here calls the library's solvers. Weights from ``gen_weights`` lie on
the two-decimal grid, so every optimum is computed exactly in integer
hundredths: a row-transfer dynamic programme for Grid and Cycle, closed forms
for Complete, Star and CompleteBipartite.
"""

from __future__ import annotations

import math
from typing import Sequence

GRID_SCALE = 100


def hundredths(weights: Sequence[float]) -> list[int]:
    """Integer hundredths of two-decimal weights; raises off the grid."""
    ints = [round(w * GRID_SCALE) for w in weights]
    for w, k in zip(weights, ints):
        if k / GRID_SCALE != w or k < 1:
            raise ValueError(f"weight {w!r} is not a positive two-decimal value")
    return ints


def _row_masks(width: int) -> list[int]:
    """Independent sets of a path of ``width`` vertices, as bit masks."""
    return [mask for mask in range(1 << width) if not mask & (mask >> 1)]


def grid_optimum(rows: int, cols: int, w: Sequence[int]) -> int:
    """Maximum independent-set weight of the row-major Grid(rows, cols).

    Row-transfer DP: the state is the independent mask of the current row; two
    consecutive rows are compatible when their masks share no column.
    """
    masks = _row_masks(cols)
    best = {0: 0}
    for r in range(rows):
        row = w[r * cols : (r + 1) * cols]
        gains = {m: sum(row[c] for c in range(cols) if m >> c & 1) for m in masks}
        best = {
            m: gains[m] + max(v for prev, v in best.items() if not prev & m)
            for m in masks
        }
    return max(best.values())


def cycle_optimum(w: Sequence[int]) -> int:
    """Maximum independent-set weight of a cycle in ring order.

    Transfer along the ring with state (vertex 0 taken, current vertex
    taken); the last vertex may not be taken together with vertex 0.
    """
    best = 0
    for first in (False, True):
        # best prefix weight with the current vertex left out / taken
        out, taken = (-math.inf, w[0]) if first else (0, -math.inf)
        for weight in w[1:]:
            out, taken = max(out, taken), out + weight
        best = max(best, out if first else max(out, taken))
    return int(best)


def family_optimum(family: str, params: tuple[int, ...], w: Sequence[int]) -> int:
    """Exact optimum in hundredths for the families the benchmark uses."""
    if family == "Grid":
        return grid_optimum(params[0], params[1], w)
    if family == "Cycle":
        return cycle_optimum(w)
    if family == "Complete":
        return max(w)
    if family == "Star":
        return max(w[0], sum(w[1:]))
    if family == "CompleteBipartite":
        a = params[0]
        return max(sum(w[:a]), sum(w[a:]))
    raise ValueError(f"no oracle for family {family!r}")


def check_selection(edges, weights, vertices, value, optimum: int) -> str | None:
    """Check one exact solution; returns a description of the mismatch or None."""
    chosen = set(vertices)
    if any(u in chosen and v in chosen for u, v in edges):
        return "selection is not independent"
    if value != math.fsum(weights[v] for v in sorted(chosen)):
        return f"reported value {value!r} is not the selection's weight"
    got = sum(hundredths([weights[v] for v in chosen]))
    if got != optimum:
        return f"selection weighs {got}/100, oracle optimum is {optimum}/100"
    return None


def expected_k99(s: float, p: float = 0.99) -> float:
    """Repetitions for confidence p, recomputed from the success rate."""
    if s >= 1.0:
        return 1.0
    return max(1.0, math.log(1.0 - p) / math.log(1.0 - s))
