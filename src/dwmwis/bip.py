"""Exact classical baseline: the binary-program formulation of the weighted
independent set problem (maximise the weight sum subject to x_i + x_j <= 1
per edge), solved by depth-first branch and bound with a fractional
clique-cover bound: the weights of the available vertices are split over
cliques, and an independent set gains at most the share of each clique.

The constraint structure, the branching order and the order in which the
bound takes vertices depend only on the graph, never on the weights, so they
are built once and reused across every weight assignment of a dynamically
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
    mask u is the x_u + x_v <= 1 constraint of edge (u, v). ``elimination``
    is the degeneracy order, the order in which the bound takes vertices:
    repeatedly a vertex of least degree among those not yet taken, ties to
    the lowest index. On a forest it takes leaves first.
    """

    n: int
    order: tuple[int, ...]
    neighbor_masks: tuple[int, ...]
    elimination: tuple[int, ...]


@dataclass(frozen=True)
class BipSolution:
    vertices: frozenset[int]
    value: float
    seconds: float


def build_constraints(g: Graph) -> ConstraintSet:
    """Build the reusable constraint structure for a graph."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    adj = g.adjacency()
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    return ConstraintSet(
        n=g.n,
        order=tuple(order),
        neighbor_masks=tuple(masks),
        elimination=_degeneracy_order(adj),
    )


def _degeneracy_order(adj: Sequence[frozenset[int]]) -> tuple[int, ...]:
    """Vertices by repeatedly taking one of least remaining degree, ties to
    the lowest index, from a bucket queue: bucket d is the bitset of the
    vertices of remaining degree d, so its lowest bit is the next vertex.
    Taking a vertex moves each remaining neighbour down one bucket, so the
    order costs n + m bucket moves, each a few operations on n-bit integers."""
    n = len(adj)
    degree = [len(nbrs) for nbrs in adj]
    buckets = [0] * (max(degree, default=0) + 1)
    for v in range(n):
        buckets[degree[v]] |= 1 << v
    taken = [False] * n
    out = []
    d = 0
    for _ in range(n):
        while not buckets[d]:
            d += 1
        low = buckets[d] & -buckets[d]
        buckets[d] ^= low
        v = low.bit_length() - 1
        taken[v] = True
        out.append(v)
        for u in adj[v]:
            if not taken[u]:
                k = degree[u]
                degree[u] = k - 1
                buckets[k] ^= 1 << u
                buckets[k - 1] |= 1 << u
                if k <= d:
                    d = k - 1
    return tuple(out)


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

    The search is a depth-first walk on an explicit stack over ``cs.order``,
    including a vertex before excluding it. It starts from the greedy set and
    replaces the best set only on a strictly greater value. Reported values
    go through the canonical selection sum so they compare bit-exactly
    against the exhaustive oracle.

    Each node is pruned with the fractional clique cover of ``_Cover``, built
    leaf first over the available vertices. The cover is valid, so it never
    prunes a subtree holding a leaf strictly better than the best so far:
    the search finds the same best sets in the same order as with any other
    valid bound over the same order and start, and returns the same value
    and set, ties included. On a forest the cover's value is the optimum.

    Float safety: let W be the total weight. Every weight, residual and
    partial sum below lies in (-2W, 2W), so each rounding errs by at most
    ulp(W). A vertex's residual is rounded once each time the vertex joins a
    clique as a member, which it joins through its edge to the clique's
    root, and no edge serves two cliques: the shares cover every weight up
    to |E| roundings in all. The shares and the chosen weight together sum
    at most n terms, and the threshold and a leaf value round once each. The
    computed bound therefore lies within (n + |E| + 2) ulp(W) of a valid
    one, and the prune margin of four times that never cuts off a strictly
    better leaf. It scales with W, where an absolute slack would outgrow
    every gap of tiny weights.
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
    cover = _Cover(cs, w)
    masks = cover.masks
    pos_order = [cover.position[v] for v in order]

    best_mask = _greedy_start(cs, w)
    best_value = selection_weight(w, _bits(best_mask))
    num_edges = sum(mask.bit_count() for mask in cs.neighbor_masks) // 2
    margin = 4 * (n + num_edges + 2) * math.ulp(total)
    threshold = best_value - margin

    # nodes are (position in order, chosen vertices, their weight, available
    # vertices); chosen vertices are bits by index, available ones by
    # position in the elimination order
    stack = [(0, 0, 0.0, (1 << n) - 1)]
    while stack:
        pos, chosen, chosen_w, avail = stack.pop()
        if cover.bound(avail, chosen_w, threshold) <= threshold:
            continue
        # go down the forced choices to the next branching vertex or a leaf
        while True:
            while pos < n and not (avail >> pos_order[pos]) & 1:
                pos += 1
            if pos == n:
                value = selection_weight(w, _bits(chosen))
                if value > best_value:
                    best_value, best_mask = value, chosen
                    threshold = best_value - margin
                break
            v, r = order[pos], pos_order[pos]
            bit = 1 << r
            nbrs = masks[r] & avail
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


class _Cover:
    """The fractional clique-cover bound of one weight set on one graph.

    Vertices are relabelled by their position in ``cs.elimination``, so a
    set of available vertices is a bitset whose lowest bit is the next one
    the cover takes. ``masks`` are the adjacency bitsets in that labelling,
    ``position[v]`` is vertex v's position, and ``later[p]`` lists the
    neighbours after position p, heaviest first with ties to the lower index,
    as ``(position, bit)`` pairs: the candidates of the clique p roots.
    """

    def __init__(self, cs: ConstraintSet, w: Sequence[float]) -> None:
        n = cs.n
        position = [0] * n
        for p, v in enumerate(cs.elimination):
            position[v] = p
        nbrs = [[position[u] for u in _bits(cs.neighbor_masks[v])] for v in cs.elimination]
        later: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for v in sorted(range(n), key=lambda i: (-w[i], i)):
            p = position[v]
            for u in nbrs[p]:
                if u < p:
                    later[u].append((p, 1 << p))
        self.position = position
        self.weights = [w[v] for v in cs.elimination]
        self.masks = [sum(1 << u for u in row) for row in nbrs]
        self.later = later

    def bound(self, avail: int, base: float, threshold: float) -> float:
        """``base`` plus a fractional clique cover of the vertices in
        ``avail``, or a partial sum as soon as it exceeds ``threshold``.

        Every vertex starts with its weight as residual. The vertices are
        taken in elimination order; one whose residual is still positive is
        a root: its residual c is added to the bound, its clique grows from
        its heaviest later neighbours (each adjacent to every member so far),
        and every member's residual drops by c, a member falling to zero or
        below leaving the walk. Each vertex is then covered by cliques whose
        shares sum to at least its weight, and an independent set holds at
        most one vertex of each clique, so its weight is at most the sum of
        the shares. This is the weight-splitting dual of the edge relaxation.
        On a forest the elimination order takes leaves first and each clique
        is a leaf and its one remaining neighbour; taking the leaf, or
        folding its weight into that neighbour, keeps the optimum, so there
        the sum is the optimum.
        """
        masks, later = self.masks, self.later
        residual = self.weights[:]
        bound = base
        rest = avail
        while rest:
            low = rest & -rest
            r = low.bit_length() - 1
            c = residual[r]
            bound += c
            if bound > threshold:
                break
            rest ^= low
            clique = masks[r] & rest
            if clique:
                for u, bit in later[r]:
                    if clique & bit:
                        clique &= masks[u]
                        left = residual[u] - c
                        residual[u] = left
                        if left <= 0.0:
                            rest ^= bit
                        if not clique:
                            break
        return bound


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
