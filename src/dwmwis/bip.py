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

import heapq
import math
import time
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, selection_weight

__all__ = ["ConstraintSet", "BipSolution", "build_constraints", "solve_bip"]


@dataclass(frozen=True)
class ConstraintSet:
    """Weight-independent solver state for one graph.

    ``elimination`` is the degeneracy order, the order in which the bound
    takes vertices: repeatedly a vertex of least degree among those not yet
    taken, ties to the lowest index. On a forest it takes leaves first. The
    rest names each vertex by its position in ``elimination``: ``masks[p]``
    is the adjacency bitset of position p over positions, bit q of it the
    x_u + x_v <= 1 constraint of the edge between the vertices at p and q,
    and ``order`` is the descending-degree branching order as positions,
    ties to the lower vertex index. ``num_edges`` sizes the prune margin.
    """

    n: int
    num_edges: int
    order: tuple[int, ...]
    masks: tuple[int, ...]
    elimination: tuple[int, ...]


@dataclass(frozen=True)
class BipSolution:
    vertices: frozenset[int]
    value: float
    seconds: float


def build_constraints(g: Graph) -> ConstraintSet:
    """Build the reusable constraint structure for a graph."""
    adj = g.adjacency()
    elimination = _degeneracy_order(adj)
    position = [0] * g.n
    for p, v in enumerate(elimination):
        position[v] = p
    masks = [0] * g.n
    for u, v in g.edges:
        masks[position[u]] |= 1 << position[v]
        masks[position[v]] |= 1 << position[u]
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    return ConstraintSet(
        n=g.n,
        num_edges=g.num_edges,
        order=tuple(position[v] for v in order),
        masks=tuple(masks),
        elimination=elimination,
    )


def _degeneracy_order(adj: Sequence[frozenset[int]]) -> tuple[int, ...]:
    """Vertices by repeatedly taking one of least remaining degree, ties to
    the lowest index, from a heap of ``(remaining degree, vertex)`` entries:
    taking a vertex pushes each remaining neighbour anew one degree lower,
    and an entry whose degree is no longer current is skipped."""
    degree = [len(nbrs) for nbrs in adj]
    heap = sorted(zip(degree, range(len(adj))))
    taken = [False] * len(adj)
    out = []
    while heap:
        d, v = heapq.heappop(heap)
        if taken[v] or d != degree[v]:
            continue
        taken[v] = True
        out.append(v)
        for u in adj[v]:
            if not taken[u]:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    return tuple(out)


def solve_bip(cs: ConstraintSet, weights: Sequence[float]) -> BipSolution:
    """Exact optimum by branch and bound over include/exclude decisions.

    The search is a depth-first walk on an explicit stack over ``cs.order``,
    including a vertex before excluding it. It starts from the greedy set,
    heaviest first with ties to the lower vertex index, and replaces the best
    set only on a strictly greater value. The whole search names vertices by
    their position in ``cs.elimination``; only the returned set is mapped
    back to vertices. Values are the canonical selection sum, an fsum, so the
    sum by position is the same float and compares bit-exactly against the
    exhaustive oracle.

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
    elimination = cs.elimination
    w = [float(weights[v]) for v in elimination]
    try:
        total = math.fsum(w)
    except OverflowError:
        raise ValueError("the weights' total overflows a float") from None
    t0 = time.perf_counter()
    n, order, masks = cs.n, cs.order, cs.masks
    heaviest = sorted(range(n), key=lambda p: (-w[p], elimination[p]))
    cover = _Cover(masks, w, heaviest)

    best_mask = blocked = 0
    for p in heaviest:
        if not (blocked >> p) & 1:
            best_mask |= 1 << p
            blocked |= (1 << p) | masks[p]
    best_value = selection_weight(w, _bits(best_mask))
    margin = 4 * (n + cs.num_edges + 2) * math.ulp(total)
    threshold = best_value - margin

    # nodes are (index into order, chosen vertices, their weight, available
    # vertices), both vertex sets as bitsets over positions
    stack = [(0, 0, 0.0, (1 << n) - 1)]
    while stack:
        k, chosen, chosen_w, avail = stack.pop()
        if cover.bound(avail, chosen_w, threshold) <= threshold:
            continue
        # go down the forced choices to the next branching vertex or a leaf
        while True:
            while k < n and not (avail >> order[k]) & 1:
                k += 1
            if k == n:
                value = selection_weight(w, _bits(chosen))
                if value > best_value:
                    best_value, best_mask = value, chosen
                    threshold = best_value - margin
                break
            p = order[k]
            bit = 1 << p
            nbrs = masks[p] & avail
            k += 1
            if nbrs:
                stack.append((k, chosen, chosen_w, avail ^ bit))
                stack.append((k, chosen | bit, chosen_w + w[p], avail & ~(nbrs | bit)))
                break
            # a vertex with no available neighbours is in every leaf below, and
            # taking it leaves the bound as it was, so no new check is needed
            chosen |= bit
            chosen_w += w[p]
            avail ^= bit
    vertices = frozenset(elimination[p] for p in _bits(best_mask))
    return BipSolution(vertices, best_value, seconds=time.perf_counter() - t0)


class _Cover:
    """The fractional clique-cover bound of one weight set on one graph.

    Vertices are named by their position in the elimination order, so a set
    of available vertices is a bitset whose lowest bit is the next one the
    cover takes. ``masks`` are the constraint set's adjacency bitsets,
    ``weights[p]`` is position p's weight, and ``later[p]`` lists the
    neighbours after position p in the order ``heaviest`` gives them, as
    ``(position, bit)`` pairs: the candidates of the clique p roots.
    """

    def __init__(self, masks: Sequence[int], weights: list[float], heaviest: list[int]) -> None:
        later: list[list[tuple[int, int]]] = [[] for _ in masks]
        for p in heaviest:
            bit = 1 << p
            for u in _bits(masks[p] & (bit - 1)):
                later[u].append((p, bit))
        self.masks = masks
        self.weights = weights
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
