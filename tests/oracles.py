"""Independent reference implementations the tests check the library against.

Nothing here shares code paths with the package: minima come from full
enumeration, independence checks walk the edge list directly, and weights are
re-summed with fsum so comparisons against the library are bit-exact. The one
exception is ``embed_qubo_reference``: it rebuilds the chain structure on every
call, and shares ``verify_embedding``, the weight split and the automatic chain
strength with the library.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from dwmwis import Embedding, Graph, QuboMatrix, WeightedGraph, energy, verify_embedding
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
