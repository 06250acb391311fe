"""Independent reference implementations the tests check the library against.

Nothing here shares code paths with the package: minima come from full
enumeration, independence checks walk the edge list directly, and weights are
re-summed with fsum so comparisons against the library are bit-exact. The
exact optima of cycles and trees are computed in integer hundredths by linear
dynamic programmes. Two oracles are exceptions. ``embed_qubo_reference``
rebuilds the chain structure on every call, and shares ``verify_embedding``,
the weight split and the automatic chain strength with the library.
``solve_bip_reference`` is the branch and bound with the trivial bound, and
shares the constraint set and the greedy start with the library.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from dwmwis import (
    ConstraintSet,
    Embedding,
    Graph,
    QuboMatrix,
    WeightedGraph,
    energy,
    verify_embedding,
)
from dwmwis.bip import _greedy_start
from dwmwis.embedding import _auto_strength, _split_parts

ENUMERATION_LIMIT = 20


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


def solve_bip_reference(
    cs: ConstraintSet, weights: Sequence[float]
) -> tuple[float, frozenset[int]]:
    """Branch and bound over ``cs.order``, include before exclude, pruned by
    "chosen weight plus all still-available weight", by recursion. It starts
    from the library's greedy set and replaces the best only on a strictly
    greater value, so ``solve_bip`` must return the same value and set, ties
    included. The recursion is as deep as the graph is large: keep n small."""
    n = cs.n
    w = [float(x) for x in weights]

    def value_of(mask: int) -> float:
        return math.fsum(w[v] for v in range(n) if (mask >> v) & 1)

    best_mask = _greedy_start(cs, w)
    best_value = value_of(best_mask)
    margin = 4 * (n + 2) * math.ulp(math.fsum(w))

    def dfs(pos: int, chosen: int, chosen_w: float, avail: int, avail_w: float) -> None:
        nonlocal best_mask, best_value
        if chosen_w + avail_w + margin <= best_value:
            return
        while pos < n and not (avail >> cs.order[pos]) & 1:
            pos += 1
        if pos == n:
            value = value_of(chosen)
            if value > best_value:
                best_value, best_mask = value, chosen
            return
        v = cs.order[pos]
        nbrs = cs.neighbor_masks[v] & avail
        dropped_w = math.fsum(w[i] for i in range(n) if (nbrs >> i) & 1) + w[v]
        dropped = nbrs | (1 << v)
        dfs(pos + 1, chosen | (1 << v), chosen_w + w[v], avail & ~dropped, avail_w - dropped_w)
        if nbrs:
            dfs(pos + 1, chosen, chosen_w, avail & ~(1 << v), avail_w - w[v])

    dfs(0, 0, 0.0, (1 << n) - 1, math.fsum(w))
    return best_value, frozenset(v for v in range(n) if (best_mask >> v) & 1)


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

    strength = _auto_strength(q, emb, inter) if chain_strength is None else chain_strength
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
