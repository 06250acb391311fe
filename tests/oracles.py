"""Independent reference implementations the tests check the library against.

Nothing here shares code paths with the package: minima come from full
enumeration, independence checks walk the edge list directly, and weights are
re-summed with fsum so comparisons against the library are bit-exact.
"""

from __future__ import annotations

import math

import numpy as np

from dwmwis import Graph, QuboMatrix, WeightedGraph, energy

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
