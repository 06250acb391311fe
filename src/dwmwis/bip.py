"""Exact classical baseline: the binary-program formulation of the weighted
independent set problem (maximise the weight sum subject to x_i + x_j <= 1
per edge), solved by depth-first branch and bound with a weighted clique-cover
bound: the available vertices are split greedily into cliques, and an
independent set gains at most the largest weight of each.

The constraint structure depends only on the graph, never on the weights, so
it is built once and reused across every weight assignment of a dynamically
weighted instance.
"""

from __future__ import annotations

import math
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

    Each node is pruned with a weighted clique-cover bound: the available
    vertices are split greedily into cliques, heaviest vertex first, and the
    bound is the chosen weight plus the largest weight of each clique, since an
    independent set holds at most one vertex of a clique (Östergård 2001;
    Tomita & Seki 2003). The search is a depth-first walk on an explicit
    stack, including a vertex before excluding it. Reported values go through
    the canonical selection sum so they compare bit-exactly against the
    exhaustive oracle.
    """
    if len(weights) != cs.n:
        raise ValueError(f"expected {cs.n} weights, got {len(weights)}")
    for i, x in enumerate(weights):
        if not (x > 0.0 and math.isfinite(x)):
            raise ValueError(f"weights[{i}] must be positive and finite, got {x}")
    w = [float(x) for x in weights]
    try:
        total = math.fsum(w)
    except OverflowError:
        raise ValueError("the weights' total overflows a float") from None
    t0 = time.perf_counter()
    n = cs.n
    order = cs.order

    # the bound works on vertices relabelled by rank in descending weight, so
    # the heaviest vertex of a set is its lowest bit
    by_weight = sorted(range(n), key=lambda i: (-w[i], i))
    rank = [0] * n
    for r, v in enumerate(by_weight):
        rank[v] = r
    rank_w = [w[v] for v in by_weight]
    rank_masks = [sum(1 << rank[u] for u in _bits(cs.neighbor_masks[v])) for v in by_weight]
    rank_order = [rank[v] for v in order]

    best_mask = _greedy_start(cs, w)
    best_value = selection_weight(w, _bits(best_mask))
    # slack so float error never prunes a strictly better branch: a bound sums
    # at most n weights, and it, the threshold and a leaf value round at most
    # n + 2 times, each by at most ulp(W), W the total weight, as every sum
    # stays below 2W; an absolute slack outgrows every gap of tiny weights
    margin = 4 * (n + 2) * math.ulp(total)
    threshold = best_value - margin

    # nodes are (position in order, chosen vertices, their weight, available
    # vertices by rank); chosen vertices keep their own indices
    stack = [(0, 0, 0.0, (1 << n) - 1)]
    while stack:
        pos, chosen, chosen_w, avail = stack.pop()
        bound = chosen_w
        rest = avail
        while rest:
            low = rest & -rest
            r = low.bit_length() - 1
            bound += rank_w[r]
            if bound > threshold:
                break
            rest ^= low
            clique = rank_masks[r] & rest
            while clique:
                low = clique & -clique
                rest ^= low
                clique &= rank_masks[low.bit_length() - 1]
        if bound <= threshold:
            continue
        # go down the forced choices to the next branching vertex or a leaf
        while True:
            while pos < n and not (avail >> rank_order[pos]) & 1:
                pos += 1
            if pos == n:
                value = selection_weight(w, _bits(chosen))
                if value > best_value:
                    best_value, best_mask = value, chosen
                    threshold = best_value - margin
                break
            v, r = order[pos], rank_order[pos]
            bit = 1 << r
            nbrs = rank_masks[r] & avail
            pos += 1
            if nbrs:
                stack.append((pos, chosen, chosen_w, avail ^ bit))
                stack.append((pos, chosen | (1 << v), chosen_w + w[v], avail & ~(nbrs | bit)))
                break
            # a vertex with no available neighbours is in every leaf below, and
            # taking it leaves the bound as it was, so no new check is needed
            chosen |= 1 << v
            chosen_w += w[v]
            avail ^= bit
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
