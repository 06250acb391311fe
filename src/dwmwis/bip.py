"""Exact classical baseline: the binary-program formulation of the weighted
independent set problem (maximise the weight sum subject to x_i + x_j <= 1
per edge), solved exactly on one of two paths, chosen by the graph alone.

On a bipartite graph an independent set is the complement of a vertex cover,
and a minimum-weight vertex cover is a minimum cut (Koenig's theorem, weighted
form): source to each side-0 vertex at its weight, side 0 to side 1 along
each edge unbounded, each side-1 vertex to the sink at its weight. Every
other graph is solved by depth-first branch and bound with a fractional
clique-cover bound: the weights of the available vertices are split over
cliques, and an independent set gains at most the share of each clique. Both
paths return the same value and set, ties included (see ``solve_bip``).

The constraint structure, the 2-colouring and flow network, the branching
order and the order in which the bound takes vertices depend only on the
graph, never on the weights, so they are built once and reused across every
weight assignment of a dynamically weighted instance.
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
    taken, ties to the lowest index. It peels every tree hung on the graph's
    cycles leaf first, before any vertex of a cycle. The rest names each
    vertex by its position in ``elimination``: ``masks[p]`` is the adjacency
    bitset of position p over positions, bit q of it the x_u + x_v <= 1
    constraint of the edge between the vertices at p and q, and ``order`` is
    the descending-degree branching order as positions, ties to the lower
    vertex index.

    ``side`` is None when the graph has an odd cycle; else it 2-colours the
    positions and ``head`` and ``arcs`` are the flow network of the cut, over
    nodes 0..n-1 (the positions), n (source) and n + 1 (sink). Edge e runs
    from ``head[e ^ 1]`` to ``head[e]``, so e ^ 1 is its residual reverse;
    edge 2p is position p's terminal edge, and the edges from 2n on join
    side 0 to side 1. ``arcs[x]`` lists the edges leaving node x.
    """

    n: int
    order: tuple[int, ...]
    masks: tuple[int, ...]
    elimination: tuple[int, ...]
    side: tuple[int, ...] | None
    arcs: tuple[tuple[int, ...], ...]
    head: tuple[int, ...]


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
    colour = _two_colouring(adj)
    side = None if colour is None else tuple(colour[v] for v in elimination)
    head: list[int] = []
    arcs: list[list[int]] = []
    if side is not None:
        for p, d in enumerate(side):
            head += (g.n + 1, p) if d else (p, g.n)
        for u, v in g.sorted_edges():
            head += sorted((position[u], position[v]), key=side.__getitem__, reverse=True)
        arcs = [[] for _ in range(g.n + 2)]
        for e in range(len(head)):
            arcs[head[e ^ 1]].append(e)
    return ConstraintSet(
        n=g.n,
        order=tuple(position[v] for v in order),
        masks=tuple(masks),
        elimination=elimination,
        side=side,
        arcs=tuple(map(tuple, arcs)),
        head=tuple(head),
    )


def _two_colouring(adj: Sequence[frozenset[int]]) -> list[int] | None:
    """Side 0 or 1 per vertex with every edge across, by breadth-first search
    from each uncoloured vertex in index order; None when an edge joins two
    vertices of one side, that is, when the graph has an odd cycle."""
    side = [-1] * len(adj)
    for root in range(len(adj)):
        if side[root] < 0:
            side[root] = 0
            queue = [root]
            for v in queue:
                for u in adj[v]:
                    if side[u] < 0:
                        side[u] = 1 - side[v]
                        queue.append(u)
                    elif side[u] == side[v]:
                        return None
    return side


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
    """Exact optimum: by minimum cut on a bipartite graph (see the last
    paragraph), else by branch and bound over include/exclude decisions.

    Sets are compared by their exact sums, on the integer weights of
    ``_exact``. The returned set is the greedy start, heaviest first with
    ties to the lower vertex index, if no set has a greater exact sum; else
    it is the set of greatest exact sum whose membership along ``cs.order``
    is lexicographically greatest. Its value is the canonical selection sum,
    an fsum, computed once for the returned set; rounding is monotone, so it
    is the greatest value of any independent set, bit for bit the
    exhaustive oracle's. Only the returned set is mapped back from positions
    in ``cs.elimination`` to vertices.

    The search is a depth-first walk on an explicit stack over ``cs.order``,
    including a vertex before excluding it, that starts from the greedy set
    and replaces the best set only on a strictly greater exact sum. Every
    maximal independent set is a leaf, and so is every optimal one; the walk
    meets the leaves in lexicographically decreasing order, so the first
    optimal leaf is the set above. Each node is bounded by the fractional
    clique cover of ``_Cover``, built leaf first over the available
    vertices, and pruned when the bound is at most the best set's exact sum:
    no leaf below can replace the best, so the search returns the same set
    as with any other valid bound, and a subtree that can at most tie the
    best is cut at its root rather than walked. The degeneracy order peels
    every tree hung on the graph's cycles leaf first, so each such vertex
    has at most one later neighbour at every node, and the cover folds it
    into that neighbour exactly: the bound's slack is the cyclic core's
    alone.

    On a bipartite graph no search runs: ``_min_cut`` finds the same set
    with one maximum flow.
    """
    if len(weights) != cs.n:
        raise ValueError(f"expected {cs.n} weights, got {len(weights)}")
    for i, x in enumerate(weights):
        if not (x > 0.0 and math.isfinite(x)):
            raise ValueError(f"weights[{i}] must be positive and finite, got {x}")
    elimination = cs.elimination
    w = [float(weights[v]) for v in elimination]
    try:
        math.fsum(w)
    except OverflowError:
        raise ValueError("the weights' total overflows a float") from None
    t0 = time.perf_counter()
    x = _exact(w)
    heaviest = sorted(range(cs.n), key=lambda p: (-w[p], elimination[p]))
    best_mask = blocked = 0
    for p in heaviest:
        if not (blocked >> p) & 1:
            best_mask |= 1 << p
            blocked |= (1 << p) | cs.masks[p]
    best_x = sum(x[p] for p in _bits(best_mask))
    if cs.side is not None:
        best_mask = _min_cut(cs, x, best_mask, best_x)
    else:
        best_mask = _search(cs, x, heaviest, best_mask, best_x)
    best = _bits(best_mask)
    vertices = frozenset(elimination[p] for p in best)
    return BipSolution(vertices, selection_weight(w, best), seconds=time.perf_counter() - t0)


def _search(cs: ConstraintSet, x: list[int], heaviest: list[int], best: int, best_x: int) -> int:
    """``solve_bip``'s branch and bound from the greedy set, as bitsets over positions."""
    n, order, masks = cs.n, cs.order, cs.masks
    cover = _Cover(masks, x, heaviest)
    # nodes are (index into order, chosen vertices, their exact weight,
    # available vertices), both vertex sets as bitsets over positions
    stack = [(0, 0, 0, (1 << n) - 1)]
    while stack:
        k, chosen, chosen_x, avail = stack.pop()
        if cover.bound(avail, chosen_x, best_x) <= best_x:
            continue
        # go down the forced choices to the next branching vertex or a leaf
        while True:
            while k < n and not (avail >> order[k]) & 1:
                k += 1
            if k == n:
                if chosen_x > best_x:
                    best, best_x = chosen, chosen_x
                break
            p = order[k]
            bit = 1 << p
            nbrs = masks[p] & avail
            k += 1
            if nbrs:
                stack.append((k, chosen, chosen_x, avail ^ bit))
                stack.append((k, chosen | bit, chosen_x + x[p], avail & ~(nbrs | bit)))
                break
            # a vertex with no available neighbours is in every leaf below, and
            # taking it leaves the bound as it was, so no new check is needed
            chosen |= bit
            chosen_x += x[p]
            avail ^= bit
    return best


def _exact(w: list[float]) -> list[int]:
    """Each weight M * 2**(e - 53) from ``math.frexp`` as the integer
    M * 2**(e - low), with ``low`` the least weight's exponent: the weights
    in units of 2**(low - 53), so every sum of them is exact and orders sets
    as their real sums do."""
    low = math.frexp(min(w, default=0.0))[1]
    return [int(m * 2.0**53) << (e - low) for m, e in map(math.frexp, w)]


def _min_cut(cs: ConstraintSet, x: list[int], greedy: int, greedy_x: int) -> int:
    """The branch and bound's set on a bipartite graph, a bitset over
    positions, given its greedy start and that set's exact sum, by one
    minimum cut.

    Capacities are Python ints, the exact weights ``x`` of ``_exact``, as
    float capacities can cut wrongly on a near tie. Shifted left n bits,
    plus 2**(n - 1 - k) at branching rank k, they make the cut unique: of
    the sets of greatest exact sum, the lexicographically greatest along
    ``cs.order``, the search's first optimal leaf. The search keeps its
    greedy start instead when that ties it.
    """
    n, order, arcs, head = cs.n, cs.order, cs.arcs, cs.head
    caps = [0] * n
    for k, p in enumerate(order):
        caps[p] = (x[p] << n) | (1 << (n - 1 - k))
    cap = [0] * len(head)
    cap[: 2 * n : 2] = caps
    cap[2 * n :: 2] = [sum(caps) << 1] * (len(head) // 2 - n)
    for e in range(2 * n, len(head), 2):  # a head start: each path source-u-v-sink
        a, b = 2 * head[e ^ 1], 2 * head[e]
        f = min(cap[a], cap[b])
        for y in (a, b, e):
            cap[y] -= f
            cap[y ^ 1] += f
    best = _cut_side(_max_flow(arcs, head, cap), cs.side)
    return greedy if sum(x[p] for p in _bits(best)) == greedy_x else best


def _cut_side(level: list[int], side: Sequence[int]) -> int:
    """The independent set of a minimum cut, the complement of its vertex
    cover: side 0 the source reaches and side 1 it does not."""
    return sum(1 << p for p, d in enumerate(side) if (level[p] >= 0) != d)


def _max_flow(arcs: Sequence[Sequence[int]], head: Sequence[int], cap: list[int]) -> list[int]:
    """Push a maximum flow from the source to the sink by Dinic's blocking
    flows, without recursion, in the residual capacities ``cap``. Returns
    the levels of the last breadth-first search, nonnegative where the
    source still reaches."""
    source = len(arcs) - 2
    sink = source + 1
    while True:
        level = [-1] * len(arcs)
        level[source] = 0
        queue = [source]
        for x in queue:
            for e in arcs[x]:
                if cap[e] and level[head[e]] < 0:
                    level[head[e]] = level[x] + 1
                    queue.append(head[e])
        if level[sink] < 0:
            return level
        start = [0] * len(arcs)
        path: list[int] = []
        x = source
        while True:
            if x == sink:
                f = min(map(cap.__getitem__, path))
                for e in path:
                    cap[e] -= f
                    cap[e ^ 1] += f
                # go on from the tail of the first edge the path saturated
                k = next(k for k, e in enumerate(path) if not cap[e])
                x = head[path[k] ^ 1]
                del path[k:]
            out, i, deeper = arcs[x], start[x], level[x] + 1
            end = len(out)
            while i < end:
                e = out[i]
                if cap[e] and level[head[e]] == deeper:
                    break
                i += 1
            start[x] = i
            if i < end:
                path.append(e)
                x = head[e]
            elif path:
                level[x] = -1  # a dead end for the rest of this phase
                x = head[path.pop() ^ 1]
            else:
                break


class _Cover:
    """The fractional clique-cover bound of one weight set on one graph.

    Vertices are named by their position in the elimination order, so a set
    of available vertices is a bitset whose lowest bit is the next one the
    cover takes. ``masks`` are the constraint set's adjacency bitsets,
    ``weights[p]`` is position p's weight (the exact integer in a solve, so
    that every bound is exact), and ``later[p]`` lists the
    neighbours after position p in the order ``heaviest`` gives them, as
    ``(position, bit)`` pairs: the candidates of the clique p roots.
    """

    def __init__(self, masks: Sequence[int], weights: list[int], heaviest: list[int]) -> None:
        later: list[list[tuple[int, int]]] = [[] for _ in masks]
        for p in heaviest:
            bit = 1 << p
            for u in _bits(masks[p] & (bit - 1)):
                later[u].append((p, bit))
        self.masks = masks
        self.weights = weights
        self.later = later

    def bound(self, avail: int, base: int, threshold: int) -> int:
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
        A root with at most one later neighbour left forms a clique with it,
        and taking the root, or folding its weight into that neighbour, keeps
        the optimum. The elimination order leaves every vertex of a tree hung
        on the graph's cycles at most one later neighbour at every node, so
        the bound is exact on those trees and loose on the cyclic core alone.
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
                        if left <= 0:
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
