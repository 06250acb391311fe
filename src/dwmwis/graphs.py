"""Logical graphs, named graph families, Chimera hardware graphs, and the
exhaustive maximum-weight independent set oracle.

Conventions fixed here and relied on everywhere else:

* Vertices are always ``0 .. n-1``; edges are unordered pairs stored as
  ``(u, v)`` with ``u < v``.
* ``Star(n)`` is the star with a centre (vertex 0) plus ``n`` leaves, i.e.
  ``n + 1`` vertices and ``n`` edges.
* The Chimera graph ``chimera(k)`` is a ``k x k`` grid of ``K_{4,4}`` blocks.
  A qubit is addressed by ``(row, col, side, unit)`` with ``side 0`` coupling
  vertically between blocks and ``side 1`` horizontally; the linear index is
  ``8*(k*row + col) + 4*side + unit``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "WeightedGraph",
    "FamilySpec",
    "GraphFormatError",
    "FAMILIES",
    "generate_family",
    "chimera",
    "chimera_index",
    "chimera_coords",
    "parse_graph",
    "parse_instance",
    "instance_to_json",
    "brute_force_mwis",
    "selection_weight",
]

BRUTE_FORCE_LIMIT = 26
_CHUNK_BITS = 20


class GraphFormatError(ValueError):
    """Raised when a graph or instance document cannot be parsed."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``0 .. n-1``."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge {edge} out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph, normalising edge orientation and dropping nothing."""
        normalised = set()
        for edge in edges:
            u, v = int(edge[0]), int(edge[1])
            if u > v:
                u, v = v, u
            normalised.add((u, v))
        return cls(n=n, edges=frozenset(normalised))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def is_independent(self, vertices: Iterable[int]) -> bool:
        chosen = set(vertices)
        return not any(u in chosen and v in chosen for u, v in self.edges)


@dataclass(frozen=True)
class WeightedGraph:
    """A graph together with one positive weight per vertex."""

    graph: Graph
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.graph.n:
            raise ValueError(
                f"expected {self.graph.n} weights, got {len(self.weights)}"
            )
        for i, w in enumerate(self.weights):
            if not (w > 0.0) or not math.isfinite(w):
                raise ValueError(f"weights[{i}] must be a positive finite real, got {w}")

    @property
    def n(self) -> int:
        return self.graph.n

    def max_weight(self) -> float:
        return max(self.weights)


def selection_weight(weights: Sequence[float], vertices: Iterable[int]) -> float:
    """Canonical value of a vertex selection: correctly rounded sum in index order.

    Every module that reports or compares selection weights goes through this
    helper so equal selections always produce bit-identical floats.
    """
    return math.fsum(weights[v] for v in sorted(vertices))


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

FAMILIES = (
    "Cycle",
    "Star",
    "Complete",
    "CompleteBipartite",
    "Grid",
    "Hypercube",
    "Petersen",
)

_FAMILY_ARITY = {
    "Cycle": 1,
    "Star": 1,
    "Complete": 1,
    "CompleteBipartite": 2,
    "Grid": 2,
    "Hypercube": 1,
    "Petersen": 0,
}


def _check_family(family: str, params: tuple[int, ...]) -> None:
    if family not in _FAMILY_ARITY:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    arity = _FAMILY_ARITY[family]
    if len(params) != arity:
        raise ValueError(f"{family} takes {arity} parameter(s), got {len(params)}")
    if family == "Cycle" and params[0] < 3:
        raise ValueError(f"Cycle requires n >= 3, got {params[0]}")
    if family == "Star" and params[0] < 1:
        raise ValueError(f"Star requires n >= 1 leaves, got {params[0]}")
    if family == "Complete" and params[0] < 1:
        raise ValueError(f"Complete requires n >= 1, got {params[0]}")
    if family == "CompleteBipartite" and min(params) < 1:
        raise ValueError(f"CompleteBipartite requires n, m >= 1, got {params}")
    if family == "Grid" and min(params) < 1:
        raise ValueError(f"Grid requires rows, cols >= 1, got {params}")
    if family == "Hypercube" and params[0] < 1:
        raise ValueError(f"Hypercube requires dimension >= 1, got {params[0]}")


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family plus its integer parameters, e.g. Cycle(20)."""

    family: str
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        _check_family(self.family, self.params)

    def label(self) -> str:
        if not self.params:
            return self.family
        return f"{self.family}({','.join(str(p) for p in self.params)})"


def generate_family(spec: FamilySpec) -> Graph:
    """Construct the standard graph of the requested family.

    Vertex labelling per family: Cycle vertices in ring order; Star centre is
    vertex 0; CompleteBipartite parts are ``0..n-1`` and ``n..n+m-1``; Grid is
    row-major; Hypercube labels are bit patterns of the coordinates.
    """
    family, params = spec.family, spec.params
    if family == "Cycle":
        n = params[0]
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "Star":
        n = params[0]
        return Graph.from_edges(n + 1, [(0, leaf) for leaf in range(1, n + 1)])
    if family == "Complete":
        n = params[0]
        return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if family == "CompleteBipartite":
        a, b = params
        return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if family == "Grid":
        rows, cols = params
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
        return Graph.from_edges(rows * cols, edges)
    if family == "Hypercube":
        d = params[0]
        n = 1 << d
        edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
        return Graph.from_edges(n, edges)
    if family == "Petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        return Graph.from_edges(10, outer + inner + spokes)
    raise ValueError(f"unknown family {family!r}")  # unreachable, __post_init__ checks


# ---------------------------------------------------------------------------
# Chimera hardware graphs
# ---------------------------------------------------------------------------


def chimera_index(k: int, row: int, col: int, side: int, unit: int) -> int:
    """Linear index of the qubit at (row, col, side, unit) in chimera(k)."""
    return 8 * (k * row + col) + 4 * side + unit


def chimera_coords(k: int, index: int) -> tuple[int, int, int, int]:
    """Inverse of :func:`chimera_index`."""
    block, rem = divmod(index, 8)
    side, unit = divmod(rem, 4)
    row, col = divmod(block, k)
    return row, col, side, unit


def chimera(k: int) -> Graph:
    """The Chimera graph: a k x k grid of K_{4,4} blocks with 8*k^2 qubits.

    Inside each block every side-0 qubit couples to every side-1 qubit.
    Side-0 qubits couple to the same unit in the vertically adjacent blocks,
    side-1 qubits to the same unit in the horizontally adjacent blocks.
    """
    if k < 1:
        raise ValueError(f"chimera requires k >= 1, got {k}")
    edges = []
    for row in range(k):
        for col in range(k):
            for a in range(4):
                left = chimera_index(k, row, col, 0, a)
                for b in range(4):
                    edges.append((left, chimera_index(k, row, col, 1, b)))
            if row + 1 < k:
                for a in range(4):
                    edges.append(
                        (chimera_index(k, row, col, 0, a), chimera_index(k, row + 1, col, 0, a))
                    )
            if col + 1 < k:
                for a in range(4):
                    edges.append(
                        (chimera_index(k, row, col, 1, a), chimera_index(k, row, col + 1, 1, a))
                    )
    return Graph.from_edges(8 * k * k, edges)


# ---------------------------------------------------------------------------
# instance documents
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GraphFormatError(message)


def _parse_weight_vector(raw: object, n: int, where: str) -> tuple[float, ...]:
    _require(isinstance(raw, list), f"{where}: expected a list")
    _require(len(raw) == n, f"{where}: expected {n} entries, got {len(raw)}")
    weights = []
    for i, value in enumerate(raw):
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{where}[{i}]: expected a number, got {value!r}",
        )
        try:
            w = float(value)
        except OverflowError:  # an integer beyond the float range
            w = math.inf
        _require(math.isfinite(w), f"{where}[{i}]: must be finite, got {w}")
        _require(w > 0.0, f"{where}[{i}]: weights must be positive, got {w}")
        weights.append(w)
    return tuple(weights)


def parse_instance(text: str) -> tuple[WeightedGraph, list[tuple[float, ...]] | None]:
    """Parse an instance document.

    The document format is a single JSON object::

        {"n": int, "edges": [[u, v], ...], "weights": [w0, ...],
         "weight_assignments": [[...], ...]}            # optional

    Returns the weighted graph plus the optional list of extra weight
    assignments. Malformed input raises :class:`GraphFormatError` naming the
    offending field.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    _require(isinstance(obj, dict), "top-level value must be an object")
    _require("n" in obj, "missing field 'n'")
    n = obj["n"]
    _require(isinstance(n, int) and not isinstance(n, bool), f"n: expected an integer, got {n!r}")
    _require(n >= 1, f"n: vertex set must be nonempty, got {n}")

    raw_edges = obj.get("edges", [])
    _require(isinstance(raw_edges, list), "edges: expected a list")
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for i, raw in enumerate(raw_edges):
        _require(
            isinstance(raw, list) and len(raw) == 2,
            f"edges[{i}]: expected a pair [u, v], got {raw!r}",
        )
        u, v = raw
        _require(
            isinstance(u, int) and isinstance(v, int)
            and not isinstance(u, bool) and not isinstance(v, bool),
            f"edges[{i}]: endpoints must be integers, got {raw!r}",
        )
        _require(u != v, f"edges[{i}]: self-loop at vertex {u}")
        _require(0 <= u < n and 0 <= v < n, f"edges[{i}]: endpoint out of range for n={n}")
        key = (min(u, v), max(u, v))
        _require(key not in seen, f"edges[{i}]: duplicate edge {list(key)}")
        seen.add(key)
        edges.append(key)

    _require("weights" in obj, "missing field 'weights'")
    weights = _parse_weight_vector(obj["weights"], n, "weights")
    graph = Graph.from_edges(n, edges)

    assignments = None
    if "weight_assignments" in obj:
        raw_assignments = obj["weight_assignments"]
        _require(isinstance(raw_assignments, list), "weight_assignments: expected a list")
        _require(len(raw_assignments) >= 1, "weight_assignments: must be nonempty when present")
        assignments = [
            _parse_weight_vector(vec, n, f"weight_assignments[{j}]")
            for j, vec in enumerate(raw_assignments)
        ]
    return WeightedGraph(graph, weights), assignments


def parse_graph(text: str) -> WeightedGraph:
    """Parse an instance document and return just the weighted graph."""
    weighted, _ = parse_instance(text)
    return weighted


def instance_to_json(
    weighted: WeightedGraph, assignments: Sequence[Sequence[float]] | None = None
) -> str:
    """Serialise a weighted graph (plus optional assignments) to the document format.

    Round-trips exactly through :func:`parse_instance`.
    """
    doc: dict[str, object] = {
        "n": weighted.n,
        "edges": [[u, v] for u, v in weighted.graph.sorted_edges()],
        "weights": list(weighted.weights),
    }
    if assignments is not None:
        doc["weight_assignments"] = [list(vec) for vec in assignments]
    return json.dumps(doc, indent=1)


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------


def brute_force_mwis(weighted: WeightedGraph) -> tuple[frozenset[int], float]:
    """Exhaustive maximum-weight independent set over all 2^n subsets.

    Among co-optimal sets the one with the lexicographically smallest
    characteristic vector ``(x_0, ..., x_{n-1})`` wins, which keeps the oracle
    deterministic. Guarded to n <= 26; intended as the ground truth for tests
    and small benchmark references, not as a solver.
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
