"""Independent reference implementations the tests check the library against,
and the oracles the package does not carry: ``energy``, ``brute_force_mwis``,
``chimera_coords``, and ``unembed_reference`` with ``repair_reference``, the
per-read form of ``embedding.unembed``'s rule.

Nothing here shares code paths with the package: minima come from full
enumeration, independence checks walk the edge list directly, and weights are
re-summed with fsum so comparisons against the library are bit-exact. The
exact optima of cycles, trees and grids are computed in integers by dynamic
programmes, along a cycle or tree and over the row masks of a grid.
``solve_bip_reference`` is the branch and bound with the
trivial bound, on vertex sets and exact ``Fraction`` sums, with its own
adjacency, branching order and greedy start built from the graph. Three oracles are exceptions.
``brute_force_mwis`` settles near ties with ``selection_weight``.
``embed_qubo_reference`` rebuilds the chain structure on every call, and
shares ``verify_embedding``, the weight split and the automatic chain
strength with the library. ``cover_bound_reference`` spells out the solver's
clique-cover rule on neighbour sets built from the graph, but takes the
elimination order from its caller, which passes the constraint set's.
``unembed_read`` is no oracle: it runs the package's ``unembed`` on one read.
``improve_reference`` is the embedder's improvement pass with no skips: it
re-routes every vertex through the package's ``_route_vertex``.
``least_connector_of_two`` is a plain breadth-first search.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from dwmwis import (
    Embedding,
    Graph,
    QuboMatrix,
    Reads,
    WeightedGraph,
    selection_weight,
    unembed,
    verify_embedding,
)
from dwmwis.embedding import _route_vertex, _split_parts

ENUMERATION_LIMIT = 20
BRUTE_FORCE_LIMIT = 26
_CHUNK_BITS = 20


def energy(q: QuboMatrix, x: Sequence[int]) -> float:
    """``sum_{i <= j} x_i Q_{ij} x_j`` by fsum: entry sets of one exact sum
    give bit-identical floats."""
    if len(x) != q.n:
        raise ValueError(f"bit vector length {len(x)} != dimension {q.n}")
    return math.fsum(v for (i, j), v in q.entries.items() if x[i] and x[j])


def brute_force_mwis(weighted: WeightedGraph) -> tuple[frozenset[int], float]:
    """Exhaustive maximum-weight independent set over all 2^n subsets.

    Among co-optimal sets the one with the lexicographically smallest
    characteristic vector ``(x_0, ..., x_{n-1})`` wins, which keeps the oracle
    deterministic. Guarded to n <= 26.
    """
    g = weighted.graph
    n = g.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_LIMIT}, got {n}")
    if n == 0:
        return frozenset(), 0.0

    w = np.asarray(weighted.weights, dtype=np.float64)
    edges = g.sorted_edges()
    # key weights for the lexicographic tie-break: x_0 is most significant
    lex = 1 << (n - 1 - np.arange(n, dtype=np.int64))

    best_weight = -math.inf
    best_key = None
    best_set: frozenset[int] = frozenset()

    total = 1 << n
    step = 1 << min(n, _CHUNK_BITS)
    shifts = np.arange(n, dtype=np.int64)
    for start in range(0, total, step):
        masks = np.arange(start, min(start + step, total), dtype=np.int64)
        bits = ((masks[:, None] >> shifts) & 1).astype(bool)
        independent = np.ones(len(masks), dtype=bool)
        for u, v in edges:
            independent &= ~(bits[:, u] & bits[:, v])
        if not independent.any():
            continue
        sums = bits @ w
        sums[~independent] = -np.inf
        # screen generously, then settle near-ties with exact canonical sums
        floor = max(float(sums.max()), best_weight) - 1e-9
        for idx in np.flatnonzero(sums >= floor):
            vertices = np.flatnonzero(bits[idx])
            weight = selection_weight(weighted.weights, vertices.tolist())
            key = int(lex[vertices].sum())
            if weight > best_weight or (weight == best_weight and key < best_key):
                best_weight = weight
                best_key = key
                best_set = frozenset(int(v) for v in vertices)
    return best_set, best_weight


def chimera_coords(k: int, index: int) -> tuple[int, int, int, int]:
    """Inverse of ``chimera_index``: the (row, col, side, unit) of a qubit."""
    block, rem = divmod(index, 8)
    side, unit = divmod(rem, 4)
    row, col = divmod(block, k)
    return row, col, side, unit


def repair_reference(weighted: WeightedGraph, x: Sequence[int]) -> tuple[int, ...]:
    """Make one selection independent, then grow it, with sets: on each edge in
    sorted order whose endpoints are both chosen the lighter endpoint is
    cleared (the higher index on equal weights), then every vertex with no
    chosen neighbour is added in ascending (weight, index) order."""
    w, adj = weighted.weights, weighted.graph.adjacency()
    chosen = {i for i, bit in enumerate(x) if bit}
    for u, v in weighted.graph.sorted_edges():
        if u in chosen and v in chosen:
            chosen.discard(u if w[u] < w[v] else v if w[v] < w[u] else max(u, v))
    for v in sorted(range(weighted.n), key=lambda i: (w[i], i)):
        if not (adj[v] & chosen):
            chosen.add(v)
    return tuple(1 if i in chosen else 0 for i in range(weighted.n))


def unembed_reference(
    x_phys: Sequence[int], emb: Embedding, weighted: WeightedGraph
) -> tuple[int, ...]:
    """One physical read over all qubits to a logical selection: the majority
    vote of each chain, exact ties falling to 0, then ``repair_reference``."""
    votes = [1 if 2 * sum(x_phys[q] for q in chain) > len(chain) else 0 for chain in emb.chains]
    return repair_reference(weighted, votes)


def unembed_read(x_phys: Sequence[int], emb: Embedding, weighted: WeightedGraph) -> tuple[int, ...]:
    """The package's ``unembed`` on a single read whose bit i is qubit i."""
    reads = Reads(np.array([x_phys], dtype=np.int8), np.arange(len(x_phys)))
    chosen, counts = unembed(reads, emb, weighted)
    assert counts.tolist() == [1]
    return tuple(chosen[:, 0].astype(int).tolist())


def exhaustive_qubo_minimum(q: QuboMatrix) -> tuple[float, list[tuple[int, ...]]]:
    """Minimum energy and all minimising bit vectors, by trying every vector.

    Screens with vectorised arithmetic, then settles candidates with the
    library's fsum-exact evaluation so the returned minimum is canonical.
    """
    n = q.n
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration limited to {ENUMERATION_LIMIT} bits, got {n}")
    masks = np.arange(1 << n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    approx = np.zeros(len(masks))
    for (i, j), value in q.entries.items():
        if i == j:
            approx += value * bits[:, i]
        else:
            approx += value * bits[:, i] * bits[:, j]
    best = math.inf
    minimizers: list[tuple[int, ...]] = []
    for idx in np.flatnonzero(approx <= approx.min() + 1e-9):
        x = tuple(int(b) for b in bits[idx])
        e = energy(q, x)
        if e < best:
            best, minimizers = e, [x]
        elif e == best:
            minimizers.append(x)
    return best, minimizers


def physical_rows(reads, n: int) -> np.ndarray:
    """The sampler's reads as full rows over all n physical qubits; qubits
    that were not read out hold 0."""
    rows = np.zeros((len(reads.samples), n), dtype=np.int8)
    rows[:, reads.qubits] = reads.samples
    return rows


def reference_mwis(weighted: WeightedGraph) -> tuple[frozenset[int], float]:
    """Recursive include/exclude search, independent of the library oracle."""
    g = weighted.graph
    w = weighted.weights
    adj = g.adjacency()
    best_weight = -math.inf
    best_set: frozenset[int] = frozenset()

    def recurse(v: int, chosen: set[int]) -> None:
        nonlocal best_weight, best_set
        if v == g.n:
            weight = math.fsum(w[i] for i in sorted(chosen))
            if weight > best_weight:
                best_weight, best_set = weight, frozenset(chosen)
            return
        recurse(v + 1, chosen)
        if not (adj[v] & chosen):
            chosen.add(v)
            recurse(v + 1, chosen)
            chosen.discard(v)

    recurse(0, set())
    return best_set, best_weight


def _neighbour_sets(g: Graph) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def solve_bip_reference(g: Graph, weights: Sequence[float]) -> tuple[float, frozenset[int]]:
    """Branch and bound over the vertices by descending degree (ties to the
    lower index), include before exclude, pruned when "chosen weight plus all
    still-available weight" is at most the best set's, by recursion on
    vertex sets. Sets are compared by their exact sums, as ``Fraction``s. It
    starts from the greedy set that takes vertices heaviest first (ties to
    the lower index) and replaces the best only on a strictly greater exact
    sum, so it returns the greedy set if that is optimal, else the optimal
    set first met, the one lexicographically greatest along the branching
    order; ``solve_bip`` must return the same set, and its fsum as the value.
    The recursion is as deep as the graph is large: keep n small."""
    n = g.n
    w = [Fraction(float(x)) for x in weights]
    nbrs = _neighbour_sets(g)
    order = sorted(range(n), key=lambda v: (-len(nbrs[v]), v))

    greedy: set[int] = set()
    for v in sorted(range(n), key=lambda i: (-w[i], i)):
        if not nbrs[v] & greedy:
            greedy.add(v)
    best = frozenset(greedy)
    best_w = sum(w[v] for v in best)

    def dfs(
        pos: int,
        chosen: frozenset[int],
        chosen_w: Fraction,
        avail: frozenset[int],
        avail_w: Fraction,
    ) -> None:
        nonlocal best, best_w
        if chosen_w + avail_w <= best_w:
            return
        while pos < n and order[pos] not in avail:
            pos += 1
        if pos == n:
            if chosen_w > best_w:
                best_w, best = chosen_w, chosen
            return
        v = order[pos]
        dropped = (nbrs[v] & avail) | {v}
        dropped_w = sum(w[i] for i in dropped)
        dfs(pos + 1, chosen | {v}, chosen_w + w[v], avail - dropped, avail_w - dropped_w)
        if len(dropped) > 1:
            dfs(pos + 1, chosen, chosen_w, avail - {v}, avail_w - w[v])

    dfs(0, frozenset(), Fraction(0), frozenset(range(n)), sum(w, Fraction(0)))
    return math.fsum(float(weights[v]) for v in sorted(best)), best


def cover_bound_reference(
    g: Graph, elimination: Sequence[int], weights: Sequence[float], avail: set[int]
) -> float:
    """The fractional clique cover of the vertices in ``avail``: in
    elimination order, each vertex still in play adds its residual c, takes
    its neighbours still in play, heaviest first (ties to the lower index),
    into its clique when they are adjacent to every member so far, and lowers
    each member's residual by c; a member at zero or below leaves play. The
    float operations are the solver's, in its order."""
    nbrs = _neighbour_sets(g)
    residual = [float(x) for x in weights]
    in_play = set(avail)
    bound = 0.0
    for r in elimination:
        if r not in in_play:
            continue
        c = residual[r]
        bound += c
        in_play.remove(r)
        members: list[int] = []
        for u in sorted(nbrs[r] & in_play, key=lambda i: (-weights[i], i)):
            if all(u in nbrs[k] for k in members):
                members.append(u)
                residual[u] -= c
                if residual[u] <= 0.0:
                    in_play.remove(u)
    return bound


def hundredths(weights: Sequence[float]) -> list[int]:
    """Two-decimal weights as exact integer hundredths; raises off the grid."""
    out = [round(x * 100) for x in weights]
    for x, k in zip(weights, out):
        if k / 100 != x or k < 1:
            raise ValueError(f"weight {x!r} is not a positive two-decimal value")
    return out


def cycle_optimum(g: Graph, w: Sequence[int]) -> int:
    """Maximum independent-set weight of a graph that is one cycle, by a
    transfer along the ring from vertex 0, once with vertex 0 left out and
    once with it taken (and so its other ring neighbour left out)."""
    adj = g.adjacency()
    if g.n < 3 or any(len(nbrs) != 2 for nbrs in adj):
        raise ValueError("not a cycle")
    ring = [0, min(adj[0])]
    while len(ring) < g.n:
        ring.append(next(iter(adj[ring[-1]] - {ring[-2]})))
    if ring[-1] not in adj[0] or len(set(ring)) != g.n:
        raise ValueError("not a single cycle")

    def path_optimum(path: list[int]) -> int:
        out, taken = 0, 0  # best with the last vertex left out / taken
        for v in path:
            out, taken = max(out, taken), out + w[v]
        return max(out, taken)

    return max(path_optimum(ring[1:]), w[ring[0]] + path_optimum(ring[2:-1]))


def grid_optimum(rows: int, cols: int, w: Sequence[int]) -> int:
    """Maximum independent-set weight of the row-major Grid(rows, cols): a
    transfer over rows whose state is the independent set of the current row
    as a bit mask, where two consecutive rows fit when their masks share no
    column. The best previous row that fits m is the best over the subsets of
    m's complement, a running maximum over subsets taken one bit at a time.
    Exact in int64; masks that are not independent hold -1."""
    full = (1 << cols) - 1
    masks = np.arange(full + 1)
    independent = (masks & (masks >> 1)) == 0
    bits = (masks[:, None] >> np.arange(cols)) & 1
    best = np.where(independent, 0, -1).astype(np.int64)
    for row in np.asarray(w, dtype=np.int64).reshape(rows, cols):
        below = best.copy()
        for b in range(cols):
            pairs = below.reshape(-1, 2, 1 << b)
            np.maximum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
        best = np.where(independent, bits @ row + below[full ^ masks], -1)
    return int(best.max())


def forest_optimum(g: Graph, w: Sequence[int]) -> int:
    """Maximum independent-set weight of a forest: per vertex, the best of its
    subtree with it taken and with it left out, children before parents."""
    adj = g.adjacency()
    taken = list(w)
    out = [0] * g.n
    seen = [False] * g.n
    total = 0
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        visit, parent = [root], {root: None}
        for v in visit:  # breadth-first; grows while it is read
            for u in adj[v]:
                if u == parent[v]:
                    continue
                if seen[u]:
                    raise ValueError("not a forest")
                seen[u] = True
                parent[u] = v
                visit.append(u)
        for v in reversed(visit):
            p = parent[v]
            if p is not None:
                taken[p] += out[v]
                out[p] += max(out[v], taken[v])
        total += max(out[root], taken[root])
    return total


def random_tree(n: int, rng: np.random.Generator) -> Graph:
    """Uniform random attachment tree on n vertices, with labels shuffled."""
    label = rng.permutation(n)
    return Graph.from_edges(n, [(label[v], label[rng.integers(0, v)]) for v in range(1, n)])


def is_independent(g: Graph, vertices) -> bool:
    chosen = set(vertices)
    return all(not (u in chosen and v in chosen) for u, v in g.edges)


def bipartite_by_enumeration(g: Graph) -> bool:
    """Try every 2-colouring outright."""
    if g.n > ENUMERATION_LIMIT:
        raise ValueError("graph too large for colouring enumeration")
    for mask in range(1 << g.n):
        if all(((mask >> u) & 1) != ((mask >> v) & 1) for u, v in g.edges):
            return True
    return False


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def grid_weights(n: int, rng: np.random.Generator) -> tuple[float, ...]:
    """Two-decimal weights in [0.01, 0.99], like the benchmark generator uses."""
    return tuple(float(v) / 100 for v in rng.integers(1, 100, size=n))


def dyadic_weights(n: int, rng: np.random.Generator) -> tuple[float, ...]:
    """Positive weights on the 1/128 grid; exactly representable in binary."""
    return tuple(float(v) / 128 for v in rng.integers(1, 512, size=n))


def decode(x: Sequence[int]) -> frozenset[int]:
    """Vertices selected by a bit vector."""
    return frozenset(i for i, bit in enumerate(x) if bit)


def lift_bits(emb: Embedding, x_logical: Sequence[int]) -> tuple[int, ...]:
    """Physical state with every chain set to its logical bit (others zero)."""
    if len(x_logical) != emb.logical_n:
        raise ValueError(f"logical vector length {len(x_logical)} != {emb.logical_n}")
    bits = [0] * emb.physical.n
    for v, chain in enumerate(emb.chains):
        if x_logical[v]:
            for qb in chain:
                bits[qb] = 1
    return tuple(bits)


def chain_strength_reference(
    q: QuboMatrix, emb: Embedding, inter: dict[tuple[int, int], list[tuple[int, int]]]
) -> float:
    """The automatic chain strength from a pass of its own: twice the largest
    per-qubit sum of absolute split parts (diagonals in chain order, then the
    couplings in ``inter`` order) plus the largest ``|Q|``, rounded up to a
    power of two; 1.0 when that is zero."""
    load = {qb: 0.0 for chain in emb.chains for qb in chain}
    for v, chain in enumerate(emb.chains):
        if (v, v) in q.entries:
            for qb, part in zip(chain, _split_parts(q.entries[(v, v)], len(chain))):
                load[qb] += abs(part)
    for key, edges in inter.items():
        for (p, r), part in zip(edges, _split_parts(q.entries[key], len(edges))):
            load[p] += abs(part)
            load[r] += abs(part)
    raw = 2.0 * max(load.values(), default=0.0) + max(map(abs, q.entries.values()), default=0.0)
    return 1.0 if raw <= 0.0 else 2.0 ** math.ceil(math.log2(raw))


def embed_qubo_reference(
    q: QuboMatrix, emb: Embedding, gp: Graph, chain_strength: float | None
) -> QuboMatrix:
    """``embed_qubo`` as a per-call construction: verify the embedding against
    the couplings of ``q``, then bucket the sorted hardware edges of ``gp``
    into inter-chain (per coupling of ``q``) and intra-chain lists."""
    if q.n != emb.logical_n:
        raise ValueError(f"QUBO dimension {q.n} != embedded logical size {emb.logical_n}")
    couplings_of_q = Graph.from_edges(q.n, [(i, j) for (i, j) in q.entries if i != j])
    check = verify_embedding(couplings_of_q, gp, emb)
    if not check:
        detail = "; ".join(msg for _, msg in check.failures[:3])
        raise ValueError(f"invalid embedding: {detail}")

    owner = {qb: v for v, chain in enumerate(emb.chains) for qb in chain}
    inter: dict[tuple[int, int], list[tuple[int, int]]] = {}
    intra: dict[int, list[tuple[int, int]]] = {v: [] for v in range(emb.logical_n)}
    for p, r in gp.sorted_edges():
        a, b = owner.get(p), owner.get(r)
        if a is None or b is None:
            continue
        if a == b:
            intra[a].append((p, r))
        else:
            key = (min(a, b), max(a, b))
            if key in q.entries:
                inter.setdefault(key, []).append((p, r))

    strength = (
        chain_strength_reference(q, emb, inter) if chain_strength is None else chain_strength
    )
    if not strength > 0.0:
        raise ValueError(f"chain strength must be positive, got {strength}")

    diag: dict[int, float] = {}
    couplings: dict[tuple[int, int], float] = {}
    for v, chain in enumerate(emb.chains):
        value = q.entries.get((v, v))
        if value is not None:
            for qb, part in zip(chain, _split_parts(value, len(chain))):
                diag[qb] = diag.get(qb, 0.0) + part
    for key, edges in inter.items():
        for (p, r), part in zip(edges, _split_parts(q.entries[key], len(edges))):
            couplings[(p, r)] = part
    for v, edges in intra.items():
        for p, r in edges:
            diag[p] = diag.get(p, 0.0) + strength
            diag[r] = diag.get(r, 0.0) + strength
            couplings[(p, r)] = couplings.get((p, r), 0.0) - 2.0 * strength

    entries: dict[tuple[int, int], float] = {}
    for qb, value in diag.items():
        if value != 0.0:
            entries[(qb, qb)] = value
    for key, value in couplings.items():
        if value != 0.0:
            entries[key] = value
    return QuboMatrix(n=gp.n, entries=entries)


def flood_reference(
    chain: set[int], adj: list[list[int]], free: list[bool], cost: list[float]
) -> tuple[list[float], list[int]]:
    """Dijkstra over every free qubit from the free neighbours of ``chain``:
    ``dist[q]`` is the cost of the cheapest free path from q to a qubit next to
    the chain, q included, and ``parent`` points one step along it (-1 at the
    chain-adjacent end). Runs to exhaustion, with no goals and no early stop."""
    dist = [math.inf] * len(adj)
    parent = [-1] * len(adj)
    heap: list[tuple[float, int]] = []
    for c in chain:
        for q in adj[c]:
            if free[q] and cost[q] < dist[q]:
                dist[q] = cost[q]
                heapq.heappush(heap, (cost[q], q))
    while heap:
        d, q = heapq.heappop(heap)
        if d > dist[q]:
            continue
        for nb in adj[q]:
            if free[nb] and d + cost[nb] < dist[nb]:
                dist[nb] = d + cost[nb]
                parent[nb] = q
                heapq.heappush(heap, (dist[nb], nb))
    return dist, parent


def root_scores(fields: list[list[float]], free: list[bool], cost: list[float]) -> np.ndarray:
    """Summed route cost of every qubit to all targets, its own cost counted
    once: ``dist_0 + ... + dist_{T-1} - (T-1) * cost``, infinite where occupied."""
    score = np.zeros(len(free))
    for dist in fields:
        score += dist
    score -= (len(fields) - 1) * np.asarray(cost)
    score[~np.asarray(free)] = math.inf
    return score


def best_root_reference(
    targets: list[set[int]], adj: list[list[int]], free: list[bool], cost: list[float]
) -> tuple[int, list[list[float]]]:
    """Root selection from one full flood per target: the first qubit of least
    ``root_scores`` (``np.argmin``), or -1 when every score is infinite."""
    fields = [flood_reference(t, adj, free, cost)[0] for t in targets]
    score = root_scores(fields, free, cost)
    root = int(np.argmin(score))
    return (root if math.isfinite(score[root]) else -1), fields


def improve_reference(
    gl: Graph, ws, chains: list[set[int]], rng: np.random.Generator, passes: int = 2
) -> None:
    """The improvement pass that re-routes every vertex of more than one qubit,
    each pass in a fresh ``rng`` order, and keeps a re-route only when it
    shrinks the chain; stops after a pass that keeps none."""
    adj_logical = gl.adjacency()
    for _ in range(passes):
        improved = False
        for v in rng.permutation(gl.n):
            v = int(v)
            old = chains[v]
            if len(old) <= 1 or not adj_logical[v]:
                continue
            ws.release(old)
            routed = _route_vertex(ws, [chains[u] for u in sorted(adj_logical[v])], donate=False)
            if routed is not None and len(routed[0]) < len(old):
                chains[v] = routed[0]
                improved = True
            else:
                if routed is not None:
                    ws.release(routed[0])
                ws.occupy(old)
        if not improved:
            break


def least_connector_of_two(
    adj: list[list[int]], free: list[bool], a: set[int], b: set[int]
) -> float:
    """The fewest free qubits of a connected set next to both chains ``a`` and
    ``b``: one more than the hops between their free frontiers over free
    qubits, or inf when no free path joins them."""
    goal = {q for c in b for q in adj[c] if free[q]}
    layer = {q for c in a for q in adj[c] if free[q]}
    seen, size = set(layer), 1
    while layer:
        if layer & goal:
            return size
        layer = {nb for q in layer for nb in adj[q] if free[nb] and nb not in seen}
        seen |= layer
        size += 1
    return math.inf
