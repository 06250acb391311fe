"""Logical graphs, named graph families, Chimera hardware graphs, and the
instance document format. The exhaustive maximum-weight independent set
oracle (``brute_force_mwis``) and ``chimera_coords``, the inverse of
``chimera_index``, are test oracles and live in ``tests/oracles.py``.

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

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

__all__ = [
    "Graph",
    "WeightedGraph",
    "FamilySpec",
    "GraphFormatError",
    "FAMILIES",
    "generate_family",
    "chimera",
    "chimera_index",
    "parse_instance",
    "instance_to_json",
    "selection_weight",
]


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

    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbour set of every vertex, built on the first call and shared
        by every later one."""
        return self._adjacency

    @cached_property
    def _adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(map(frozenset, adj))

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges


def _check_weight(w: float, field: str, error: type[ValueError] = ValueError) -> float:
    """The one weight rule: positive and below 2**53, where the penalty W + 1 is exact."""
    if not 0.0 < w < 2.0**53:
        raise error(f"{field}: must be a positive real below 2**53, got {w}")
    return w


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
            _check_weight(w, f"weights[{i}]")

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

def _grid(rows: int, cols: int) -> Graph:
    n = rows * cols
    across = [(v, v + 1) for v in range(n) if (v + 1) % cols]
    return Graph.from_edges(n, across + [(v, v + cols) for v in range(n - cols)])


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


# family -> ((parameter, least value), ...) and the builder that takes them.
# Vertex labels: Cycle in ring order; Star's centre is vertex 0; the parts of
# CompleteBipartite(n, m) are 0..n-1 and n..n+m-1; Grid is row-major;
# Hypercube labels are the bit patterns of the coordinates; Petersen's outer
# cycle is 0..4, its inner pentagram 5..9, and spoke i joins i to 5 + i.
_FAMILY_TABLE: dict[str, tuple[tuple[tuple[str, int], ...], Callable[..., Graph]]] = {
    "Cycle": ((("n", 3),), lambda n: Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])),
    "Star": ((("leaves", 1),), lambda n: Graph.from_edges(n + 1, [(0, v + 1) for v in range(n)])),
    "Complete": ((("n", 1),), lambda n: Graph.from_edges(n, itertools.combinations(range(n), 2))),
    "CompleteBipartite": (
        (("n", 1), ("m", 1)),
        lambda a, b: Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)]),
    ),
    "Grid": ((("rows", 1), ("cols", 1)), _grid),
    "Hypercube": (
        (("dimension", 1),),
        lambda d: Graph.from_edges(
            1 << d, [(v, v ^ (1 << b)) for v in range(1 << d) for b in range(d)]
        ),
    ),
    "Petersen": ((), _petersen),
}

FAMILIES = tuple(_FAMILY_TABLE)


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family plus its integer parameters, e.g. Cycle(20)."""

    family: str
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        if self.family not in _FAMILY_TABLE:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        names = _FAMILY_TABLE[self.family][0]
        if len(self.params) != len(names):
            raise ValueError(
                f"{self.family} takes {len(names)} parameter(s), got {len(self.params)}"
            )
        for (name, least), value in zip(names, self.params):
            if value < least:
                raise ValueError(f"{self.family} requires {name} >= {least}, got {value}")

    def label(self) -> str:
        if not self.params:
            return self.family
        return f"{self.family}({','.join(str(p) for p in self.params)})"


def generate_family(spec: FamilySpec) -> Graph:
    """Construct the standard graph of the requested family."""
    return _FAMILY_TABLE[spec.family][1](*spec.params)


# ---------------------------------------------------------------------------
# Chimera hardware graphs
# ---------------------------------------------------------------------------


def chimera_index(k: int, row: int, col: int, side: int, unit: int) -> int:
    """Linear index of the qubit at (row, col, side, unit) in chimera(k)."""
    return 8 * (k * row + col) + 4 * side + unit


def chimera(k: int) -> Graph:
    """The Chimera graph: a k x k grid of K_{4,4} blocks with 8*k^2 qubits.

    Inside each block every side-0 qubit couples to every side-1 qubit.
    Side-0 qubits couple to the same unit in the vertically adjacent blocks,
    side-1 qubits to the same unit in the horizontally adjacent blocks.
    """
    # k = 16 is the 2048-qubit D-Wave 2000Q, the largest Chimera chip built
    if not 1 <= k <= 16:
        raise ValueError(f"chimera requires 1 <= k <= 16, got {k}")
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
        weights.append(_check_weight(w, f"{where}[{i}]", GraphFormatError))
    return tuple(weights)


def parse_instance(text: str) -> tuple[Graph, tuple[tuple[float, ...], ...]]:
    """Parse an instance document into its graph and its weight assignments.

    The document format is a single JSON object::

        {"n": int, "edges": [[u, v], ...], "weights": [w0, ...],
         "weight_assignments": [[...], ...]}            # optional

    The assignments are ``weight_assignments``, whose first must be ``weights``,
    or else ``(weights,)``. Every weight in the document meets the rule of
    :class:`WeightedGraph`. Malformed input raises :class:`GraphFormatError`
    naming the offending field, such as ``weight_assignments[1][1]``.
    """
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
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
    assignments = (weights,)
    if "weight_assignments" in obj:
        raw_assignments = obj["weight_assignments"]
        _require(isinstance(raw_assignments, list), "weight_assignments: expected a list")
        _require(len(raw_assignments) >= 1, "weight_assignments: must be nonempty when present")
        assignments = tuple(
            _parse_weight_vector(vec, n, f"weight_assignments[{j}]")
            for j, vec in enumerate(raw_assignments)
        )
        _require(assignments[0] == weights, "weights: must equal weight_assignments[0]")
    return Graph.from_edges(n, edges), assignments


def instance_to_json(graph: Graph, assignments: Sequence[Sequence[float]]) -> str:
    """Serialise a graph and its weight assignments to the document format.

    ``weights`` is the first assignment and ``weight_assignments`` all of them;
    :func:`parse_instance` reads the pair back exactly. An empty list raises
    ValueError, as the reader refuses one.
    """
    if not assignments:
        raise ValueError("need at least one weight assignment")
    doc = {
        "n": graph.n,
        "edges": [[u, v] for u, v in graph.sorted_edges()],
        "weights": list(assignments[0]),
        "weight_assignments": [list(vec) for vec in assignments],
    }
    return json.dumps(doc, indent=1)
