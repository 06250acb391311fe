"""Exact classical baseline: the binary-program formulation of the weighted
independent set problem (maximise the weight sum subject to x_i + x_j <= 1
per edge), solved by depth-first branch and bound.

The constraint structure depends only on the graph, never on the weights, so
it is built once and reused across every weight assignment of a dynamically
weighted instance.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, selection_weight

__all__ = ["ConstraintSet", "BipSolution", "build_constraints", "solve_bip"]


@dataclass(frozen=True)
class ConstraintSet:
    """Weight-independent solver state for one graph.

    ``order`` is the fixed descending-degree branching order and
    ``neighbor_masks`` are adjacency bitsets over vertex indices; bit v of
    mask u is the x_u + x_v <= 1 constraint of edge (u, v).
    """

    n: int
    order: tuple[int, ...]
    neighbor_masks: tuple[int, ...]


@dataclass(frozen=True)
class BipSolution:
    vertices: frozenset[int]
    value: float
    seconds: float


def build_constraints(g: Graph) -> ConstraintSet:
    """Build the reusable constraint structure for a graph."""
    masks = [0] * g.n
    degrees = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        degrees[u] += 1
        degrees[v] += 1
    order = sorted(range(g.n), key=lambda v: (-degrees[v], v))
    return ConstraintSet(
        n=g.n,
        order=tuple(order),
        neighbor_masks=tuple(masks),
    )


def _greedy_start(cs: ConstraintSet, w: Sequence[float]) -> int:
    chosen = 0
    blocked = 0
    for v in sorted(range(cs.n), key=lambda i: (-w[i], i)):
        if not (blocked >> v) & 1:
            chosen |= 1 << v
            blocked |= (1 << v) | cs.neighbor_masks[v]
    return chosen


def solve_bip(cs: ConstraintSet, weights: Sequence[float]) -> BipSolution:
    """Exact optimum by branch and bound over include/exclude decisions.

    Prunes with the optimistic bound "current weight plus everything still
    available"; reported values go through the canonical selection sum so
    they compare bit-exactly against the exhaustive oracle.
    """
    if len(weights) != cs.n:
        raise ValueError(f"expected {cs.n} weights, got {len(weights)}")
    for i, w in enumerate(weights):
        if not w > 0.0:
            raise ValueError(f"weights[{i}] must be positive, got {w}")
    t0 = time.perf_counter()
    n = cs.n
    order = cs.order
    masks = cs.neighbor_masks
    w = [float(x) for x in weights]

    def mask_value(mask: int) -> float:
        return selection_weight(w, _bits(mask))

    best_mask = _greedy_start(cs, w)
    best_value = mask_value(best_mask)

    if n:
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))

    # slack so float error never prunes a strictly better branch: a path rounds
    # at most 4n + 2 times, each by at most ulp(W), W the total weight, as every
    # sum stays below 2W; an absolute slack outgrows every gap of tiny weights
    margin = 4 * (n + 2) * math.ulp(math.fsum(w))

    def dfs(pos: int, chosen: int, chosen_w: float, avail: int, avail_w: float) -> None:
        nonlocal best_mask, best_value
        if chosen_w + avail_w + margin <= best_value:
            return
        while pos < n and not (avail >> order[pos]) & 1:
            pos += 1
        if pos == n:
            value = mask_value(chosen)
            if value > best_value:
                best_value, best_mask = value, chosen
            return
        v = order[pos]
        nbrs = masks[v] & avail
        # taking a vertex with no available neighbours is never worse
        dropped = nbrs | (1 << v)
        dropped_w = math.fsum(w[i] for i in _bits(nbrs)) + w[v]
        dfs(pos + 1, chosen | (1 << v), chosen_w + w[v], avail & ~dropped, avail_w - dropped_w)
        if nbrs:
            dfs(pos + 1, chosen, chosen_w, avail & ~(1 << v), avail_w - w[v])

    full = (1 << n) - 1
    dfs(0, 0, 0.0, full, math.fsum(w))
    seconds = time.perf_counter() - t0
    return BipSolution(
        vertices=frozenset(_bits(best_mask)), value=best_value, seconds=seconds
    )


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
