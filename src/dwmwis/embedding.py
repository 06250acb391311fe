"""Minor embeddings of logical graphs into hardware graphs.

An embedding maps every logical vertex to a nonempty "chain" of physical
qubits such that (1) chains are pairwise disjoint, (2) each chain induces a
connected subgraph of the hardware graph, and (3) every logical edge is
covered by at least one physical edge between the two chains.

``embed_qubo`` spreads a logical QUBO over an embedding: diagonals are split
across chain qubits, couplings across all available inter-chain edges, and
every intra-chain edge receives the ferromagnetic disagreement penalty
(+M on both diagonals, -2M on the coupling) so equal chain bits contribute
nothing and a disagreeing pair costs +M.

Splitting is done with exact-residual parts: all but one part of a split
value carry at most 27 mantissa bits and the final part absorbs the exact
remainder, so the parts sum to the logical value as exact reals. Combined
with an fsum-based energy evaluation this makes the physical energy of an
intact-chain state bit-identical to the logical energy whenever the logical
coefficients are grid-representable (dyadic); for arbitrary doubles the
agreement is still far below any tolerance used downstream.

``unembed`` takes the annealer's reads back to logical independent sets.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .annealer import Reads
from .graphs import Graph, WeightedGraph, chimera_index
from .qubo import QuboMatrix

__all__ = [
    "Embedding",
    "EmbeddingCheck",
    "EmbedResult",
    "verify_embedding",
    "heuristic_embed",
    "embed_qubo",
    "unembed",
]


@dataclass(frozen=True)
class Embedding:
    """Assignment of logical vertices to disjoint physical chains."""

    chains: tuple[tuple[int, ...], ...]
    physical: Graph

    @property
    def logical_n(self) -> int:
        return len(self.chains)

    def size(self) -> int:
        """Number of physical qubits used (the embedded order)."""
        return sum(len(c) for c in self.chains)

    def max_chain_length(self) -> int:
        return max((len(c) for c in self.chains), default=0)

    @cached_property
    def chain_edges(self) -> tuple[Mapping[tuple[int, int], tuple], tuple[tuple, ...]]:
        """``(inter, intra)``: the hardware edges between the chains of each
        touching logical pair ``(a, b)``, a < b, and inside each chain, in
        sorted chip-edge order (``inter``'s keys too). Checks conditions 1-2
        of ``verify_embedding`` once and raises ``ValueError`` on a failure."""
        check = verify_embedding(Graph(self.logical_n, frozenset()), self.physical, self)
        if not check:
            detail = "; ".join(msg for _, msg in check.failures[:3])
            raise ValueError(f"invalid embedding: {detail}")
        owner = {q: v for v, chain in enumerate(self.chains) for q in chain}
        inter: dict[tuple[int, int], list[tuple[int, int]]] = {}
        intra: list[list[tuple[int, int]]] = [[] for _ in self.chains]
        for p, r in self.physical.sorted_edges():
            if p in owner and r in owner:
                a, b = owner[p], owner[r]
                if a == b:
                    intra[a].append((p, r))
                else:
                    inter.setdefault((min(a, b), max(a, b)), []).append((p, r))
        return MappingProxyType({k: tuple(e) for k, e in inter.items()}), tuple(map(tuple, intra))

    def to_json(self) -> str:
        return json.dumps(
            {"chains": {str(v): list(chain) for v, chain in enumerate(self.chains)}},
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str, physical: Graph) -> "Embedding":
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ValueError(f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict) or "chains" not in obj:
            raise ValueError("embedding document must be an object with a 'chains' field")
        raw = obj["chains"]
        if not isinstance(raw, dict):
            raise ValueError("'chains' must map logical vertices to qubit lists")
        chains = []
        for v in range(len(raw)):
            key = str(v)
            if key not in raw:
                raise ValueError(f"'chains' is missing logical vertex {v}")
            chain = raw[key]
            if not isinstance(chain, list) or not all(type(q) is int for q in chain):
                raise ValueError(f"chain of logical vertex {v} must be a list of qubit indices")
            chain = sorted(chain)
            for q, nxt in zip(chain, chain[1:]):
                if q == nxt:
                    raise ValueError(f"chain of logical vertex {v} lists qubit {q} twice")
            chains.append(tuple(chain))
        return cls(chains=tuple(chains), physical=physical)


@dataclass(frozen=True)
class EmbeddingCheck:
    """Outcome of verifying the three minor-embedding conditions."""

    ok: bool
    failures: tuple[tuple[int, str], ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def condition_ok(self, condition: int) -> bool:
        return all(c != condition for c, _ in self.failures)


@dataclass(frozen=True)
class EmbedResult:
    """Result of a heuristic embedding run, including its wall-clock cost."""

    embedding: Embedding | None
    seconds: float
    restarts: int

    @property
    def ok(self) -> bool:
        return self.embedding is not None


def verify_embedding(gl: Graph, gp: Graph, emb: Embedding) -> EmbeddingCheck:
    """Check disjointness, chain connectivity, and logical edge coverage.

    Returns a result carrying one diagnostic per violated condition instead of
    raising, so callers can report exactly what broke.
    """
    if emb.logical_n != gl.n:
        raise ValueError(f"embedding covers {emb.logical_n} vertices, graph has {gl.n}")
    failures: list[tuple[int, str]] = []

    seen: dict[int, int] = {}
    for v, chain in enumerate(emb.chains):
        for q in chain:
            if q in seen:
                failures.append(
                    (1, f"qubit {q} is shared by logical vertices {seen[q]} and {v}")
                )
            else:
                seen[q] = v

    adj = gp.adjacency()
    for v, chain in enumerate(emb.chains):
        if not chain:
            failures.append((2, f"logical vertex {v} has an empty chain"))
            continue
        bad = [q for q in chain if not (0 <= q < gp.n)]
        if bad:
            failures.append((2, f"chain of vertex {v} leaves the hardware graph: {bad}"))
            continue
        members = set(chain)
        reached = {chain[0]}
        frontier = [chain[0]]
        while frontier:
            q = frontier.pop()
            for nb in adj[q]:
                if nb in members and nb not in reached:
                    reached.add(nb)
                    frontier.append(nb)
        if reached != members:
            failures.append(
                (2, f"chain of vertex {v} is not connected: {sorted(members - reached)} unreachable")
            )

    for u, v in gl.sorted_edges():
        cu, cv = set(emb.chains[u]), set(emb.chains[v])
        covered = any(nb in cv for q in cu if 0 <= q < gp.n for nb in adj[q])
        if not covered:
            failures.append((3, f"logical edge ({u},{v}) has no physical edge between its chains"))

    return EmbeddingCheck(ok=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# heuristic embedding
# ---------------------------------------------------------------------------


def _cheapest_route(
    chain: set[int],
    adj: list[list[int]],
    cost: list[float],
    goals: set[int],
) -> list[int] | None:
    """The cheapest free-qubit route from ``goals`` to ``chain``, or None when
    no goal is reached.

    ``cost`` is infinite at every occupied qubit, which no route enters, and
    positive at every free one. A route's cost sums its qubits, both ends
    included; the route runs from the goal of least ``(cost, qubit)`` to a
    qubit next to the chain. Every step into a qubit x adds the same
    ``cost[x] > 0``, and the search settles qubits in order of distance, so
    the first settled neighbour of x is its nearest (and a qubit next to the
    chain starts at ``cost[x]``, below any longer route): x's distance and
    parent are final the moment the search first reaches it, and no popped
    entry is stale. The search keeps the least ``(dist, goal)`` reached so
    far and stops at the first pop ``d`` with ``d + min(cost[g] for g in
    goals)`` above that distance, since every goal not yet reached ends at
    least that far out; a goal that ties it is still reached.
    """
    n = len(adj)
    dist = [math.inf] * n
    parent = [-1] * n
    heap: list[tuple[float, int]] = []
    for c in chain:
        for q in adj[c]:
            if cost[q] < dist[q]:
                dist[q] = cost[q]
                heap.append((cost[q], q))
    heapq.heapify(heap)
    best = min(((dist[g], g) for g in goals), default=(math.inf, -1))
    nearest = min((cost[g] for g in goals), default=math.inf)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, q = pop(heap)
        if d + nearest > best[0]:
            break
        for nb in adj[q]:
            nd = d + cost[nb]
            if nd < dist[nb]:
                dist[nb] = nd
                parent[nb] = q
                push(heap, (nd, nb))
                if nb in goals and (nd, nb) < best:
                    best = (nd, nb)
    if best[0] == math.inf:
        return None
    route = [best[1]]
    while parent[route[-1]] != -1:
        route.append(parent[route[-1]])
    return route


def _best_root(
    targets: list[set[int]],
    adj: list[list[int]],
    cost: list[float],
) -> tuple[int, list[list[float]]]:
    """The free qubit of least summed route cost to all ``targets``.

    ``cost`` is infinite at every occupied qubit and positive at every free
    one. The score of q is ``dist_0[q] + ... + dist_{T-1}[q] - (T-1) *
    cost[q]``, where ``dist_t[q]`` is the cost of the cheapest free path from
    q to a qubit next to target t, q included; the least ``(score, qubit)``
    wins. Returns ``(root, fields)`` with ``fields[t]`` the distances search
    t reached, final at the root; ``root`` is -1 when no free qubit reaches
    every target.

    The T searches share one heap, each starting from its target's chain at
    distance 0. As in ``_cheapest_route``, a distance is final the moment a
    search first reaches the qubit, so q is scored, from the same floats a
    full search would settle, as soon as all T searches have reached it. At a
    popped distance ``d``, a search that has not reached x ends at
    ``dist_t[x] >= d + cost[x]``. So with ``limit = best * (1 + 1e-9)`` (the
    margin only absorbs the rounding of the sums):

    * a qubit that no search has reached scores at least ``T*d + cost[x]``,
      above ``limit`` once ``T*d > limit``;
    * a qubit that k searches have reached, ``known[x]`` their sum, scores at
      least ``LB(x) = known[x] + (T-k) * (d + cost[x]) - (T-1) * cost[x]``,
      which never falls as d grows and more searches reach x.

    The partly reached qubits are rescanned once ``T*d`` passes ``limit``,
    and again whenever d passes the radius at which the last rescan's
    survivors would exceed it; those whose ``LB`` already exceeds it are
    dropped for good, and the loop stops when none is left. A qubit that ties
    the best score is therefore scored before the loop stops, and ties
    resolve to the lowest index as in a full search.
    """
    n, size = len(adj), len(targets)
    fields = [[math.inf] * n for _ in targets]
    reached = [0] * n
    known = [0.0] * n  # sum of each qubit's reached distances
    touched: list[int] = []  # qubits some searches but not all have reached
    heap = [(0.0, t, c) for t, chain in enumerate(targets) for c in chain]
    heapq.heapify(heap)
    best, root, limit = math.inf, -1, math.inf
    check = math.inf  # the pop above which the partly reached are rescanned
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, t, q = pop(heap)
        if d > check:
            survivors, radius = [], limit / size
            for x in touched:
                unknown = size - reached[x]
                if not unknown:
                    continue
                slack = limit + (size - 1) * cost[x] - known[x]
                if unknown * (d + cost[x]) > slack:
                    continue  # LB(x) > limit at this pop and every later one
                survivors.append(x)
                r = slack / unknown - cost[x]
                if r > radius:
                    radius = r
            if not survivors:
                break
            touched, check = survivors, radius
        dist = fields[t]
        for nb in adj[q]:
            nd = d + cost[nb]
            if nd < dist[nb]:
                dist[nb] = nd
                push(heap, (nd, t, nb))
                k = reached[nb] + 1
                reached[nb] = k
                if k < size:
                    known[nb] += nd
                    if k == 1:
                        touched.append(nb)
                    continue
                score = 0.0
                for field in fields:
                    score += field[nb]
                score -= (size - 1) * cost[nb]
                if score < best or (score == best and nb < root):
                    best, root, limit = score, nb, score * (1.0 + 1e-9)
                    check = limit / size
    return root, fields


class _Workspace:
    """Mutable state for one embedding attempt, kept as Python lists that the
    searches index directly: ``used_deg`` counts each qubit's occupied
    neighbours, and ``cost`` holds each free qubit's congestion-weighted cost
    and ``inf`` for an occupied one, so a qubit is free exactly when its cost
    is finite. ``occupy`` and ``release`` update ``cost`` wherever occupancy
    or ``used_deg`` changes."""

    def __init__(self, gp_adj: list[list[int]], jitter: np.ndarray):
        self.adj = gp_adj
        self.used_deg = [0] * len(gp_adj)
        self.deg = [len(a) or 1 for a in gp_adj]
        self.jitter = jitter.tolist()
        # ``_cost`` with no qubit occupied: 1.0 + 0.0 is exactly 1.0
        self.cost = (1.0 + 0.05 * jitter).tolist()

    def _cost(self, q: int) -> float:
        # congestion-weighted vertex cost: crowded regions are more expensive
        return 1.0 + 0.5 * (self.used_deg[q] / self.deg[q]) + 0.05 * self.jitter[q]

    def occupy(self, qubits: Iterable[int]) -> None:
        used_deg, cost = self.used_deg, self.cost
        for q in qubits:
            cost[q] = math.inf
            for nb in self.adj[q]:
                used_deg[nb] += 1
                if cost[nb] < math.inf:
                    cost[nb] = self._cost(nb)

    def release(self, qubits: Iterable[int]) -> None:
        used_deg, cost = self.used_deg, self.cost
        for q in qubits:
            cost[q] = self._cost(q)
            for nb in self.adj[q]:
                used_deg[nb] -= 1
                if cost[nb] < math.inf:
                    cost[nb] = self._cost(nb)


def _route_vertex(
    ws: _Workspace,
    targets: list[set[int]],
    donate: bool,
) -> tuple[set[int], list[set[int]]] | None:
    """Grow a new chain connected to every target chain.

    The root is the free qubit whose summed route costs to all targets, its
    own cost counted once, are least, lowest index on ties (Cai, Macready &
    Roy, arXiv:1406.2741). ``_best_root`` finds it exactly with searches that
    stop once no unscored qubit can match the best score. The chain then
    routes to each target in turn, nearest first, through currently free
    qubits. When ``donate`` is set, the far half of each route is handed to
    the target's chain (the vertex-model growth that keeps high-degree hubs
    reachable); otherwise the whole route joins the new chain.
    """
    root, fields = _best_root(targets, ws.adj, ws.cost)
    if root < 0:
        return None

    chain: set[int] = {root}
    donations: list[set[int]] = [set() for _ in targets]
    ws.occupy([root])

    def rollback() -> None:
        ws.release(chain)
        for extra in donations:
            ws.release(extra)

    order = sorted(range(len(targets)), key=lambda t: (fields[t][root], t))
    for t in order:
        target = targets[t]
        if any(nb in target for q in chain for nb in ws.adj[q]):
            continue  # already adjacent, nothing to route
        path = _cheapest_route(target, ws.adj, ws.cost, _free_frontier(ws, chain))
        if path is None:
            rollback()
            return None
        ws.occupy(path)
        if donate and len(path) > 1:
            keep = (len(path) + 1) // 2
            chain.update(path[:keep])
            donations[t].update(path[keep:])
        else:
            chain.update(path)
    return chain, donations


def _free_frontier(ws: _Workspace, chain: set[int]) -> set[int]:
    return {q for c in chain for q in ws.adj[c] if ws.cost[q] < math.inf}


def _ensure_capacity(ws: _Workspace, chain: set[int], demand: int) -> None:
    """Annex frontier qubits until the chain can host ``demand`` more routes.

    Every future neighbour must enter through a free qubit adjacent to the
    chain; high-degree vertices would otherwise get walled in by their own
    earlier neighbours. Annexation stops when no frontier qubit would grow
    the free adjacency.
    """
    while True:
        frontier = _free_frontier(ws, chain)
        if len(frontier) >= demand or not frontier:
            return
        best = None
        best_gain = 0
        for q in sorted(frontier):
            gain = sum(1 for x in ws.adj[q] if ws.cost[x] < math.inf and x not in frontier) - 1
            if gain > best_gain:
                best, best_gain = q, gain
        if best is None:
            return
        chain.add(best)
        ws.occupy([best])


def _grow_attempt(gl: Graph, ws: _Workspace, rng: np.random.Generator) -> list[set[int]] | None:
    adj_logical = gl.adjacency()
    order = sorted(range(gl.n), key=lambda v: (-len(adj_logical[v]), v))
    chains: dict[int, set[int]] = {}
    for v in order:
        placed = [u for u in sorted(adj_logical[v]) if u in chains]
        if not placed:
            candidates = np.flatnonzero(np.isfinite(ws.cost))
            if len(candidates) == 0:
                return None
            q = int(rng.choice(candidates))
            chains[v] = {q}
            ws.occupy([q])
        else:
            routed = _route_vertex(ws, [chains[u] for u in placed], donate=True)
            if routed is None:
                return None
            chain, donations = routed
            chains[v] = chain
            for u, extra in zip(placed, donations):
                chains[u] |= extra
        for u in [v, *placed]:
            _ensure_capacity(ws, chains[u], sum(1 for x in adj_logical[u] if x not in chains))
    return [chains[v] for v in range(gl.n)]


def _connector_floor(ws: _Workspace, targets: list[set[int]], limit: int) -> int:
    """A lower bound, capped at ``limit``, on the qubits of a connected set of
    free qubits next to every target chain; ``limit`` when there is none.

    A qubit's frontier mask has bit t set when it is free and next to target
    t. Below four qubits, one qubit is a connector when its mask is full, and
    an adjacent pair when the union of their masks is. From four up, a set
    that touches two targets whose free frontiers are ``h`` hops apart over
    free qubits holds a path of ``h + 1`` qubits. A breadth-first search from
    the smallest frontier finds the hops to the others; it stops at depth
    ``limit - 2``, since a frontier not reached by then is ``limit - 1`` or
    more hops away.
    """
    adj, cost = ws.adj, ws.cost
    masks: dict[int, int] = {}
    frontiers: list[list[int]] = []
    for t, target in enumerate(targets):
        bit = 1 << t
        frontier = [q for c in target for q in adj[c] if cost[q] < math.inf]
        if not frontier:
            return limit
        for q in frontier:
            masks[q] = masks.get(q, 0) | bit
        frontiers.append(frontier)
    full = (1 << len(targets)) - 1
    if limit >= 4:
        layer = set(min(frontiers, key=len))
        seen = set(layer)
        reached = 0
        for q in layer:
            reached |= masks[q]
        depth = 0
        while reached != full:
            if depth == limit - 2 or not layer:
                return limit
            depth += 1
            layer = {nb for q in layer for nb in adj[q] if cost[nb] < math.inf and nb not in seen}
            seen |= layer
            for q in layer:
                reached |= masks.get(q, 0)
        return depth + 1
    if full in masks.values():
        return 1
    if limit <= 2:
        return limit
    for q, mask in masks.items():
        for nb in adj[q]:
            if mask | masks.get(nb, 0) == full:
                return 2
    return 3


def _improve(gl: Graph, ws: _Workspace, chains: list[set[int]], rng: np.random.Generator) -> None:
    """Re-route single vertices to shrink the total footprint, in two passes.

    A re-route of v (``donate=False``) draws nothing from ``rng`` and returns
    a connected set of qubits that are free once v's old chain is released
    and that touches every neighbour's chain; it replaces the old chain only
    when it has fewer than ``L = len(old)`` qubits. After a rejected re-route,
    ``release`` and ``occupy`` put every cost back bit for bit, since a free
    qubit's cost is a function of the occupancy alone. So a re-route whose
    rejection is known in advance is skipped, with the same chains as
    running it:

    * (a) no re-route has succeeded since v's last rejection: the chains and
      costs are those of that try, and so is its outcome;
    * (b) with the old chain released, no free qubit (L = 2), nor any
      adjacent free pair (L = 3), touches every target;
    * (c) for L >= 4, two targets' free frontiers are at least L - 1 hops
      apart over free qubits, so any connected set touching both has at least
      L qubits.

    (b) and (c) are ``_connector_floor`` reaching ``L``.
    """
    adj_logical = gl.adjacency()
    successes = 0
    rejected_at = [-1] * gl.n  # the success count at each vertex's last rejection
    for _ in range(2):
        earlier = successes
        for v in rng.permutation(gl.n):
            v = int(v)
            old = chains[v]
            if len(old) <= 1 or not adj_logical[v] or rejected_at[v] == successes:
                continue
            targets = [chains[u] for u in sorted(adj_logical[v])]
            ws.release(old)
            routed = None
            if _connector_floor(ws, targets, len(old)) < len(old):
                routed = _route_vertex(ws, targets, donate=False)
            if routed is not None and len(routed[0]) < len(old):
                chains[v] = routed[0]
                successes += 1
            else:
                if routed is not None:
                    ws.release(routed[0])
                ws.occupy(old)
                rejected_at[v] = successes
        if successes == earlier:
            break


def heuristic_embed(gl: Graph, gp: Graph, seed: int = 0, max_tries: int = 8) -> EmbedResult:
    """Search for a minor embedding with randomised restarts, then try the
    chip's clique layout.

    Vertices are placed in descending degree order and routed to the chains of
    their already-placed neighbours along congestion-weighted shortest paths;
    improvement passes then try to shrink individual chains. The best attempt
    (fewest physical qubits, earliest restart) wins; the first to reach the
    floor, the sum of every vertex's ``_chain_floor``, stops the restarts, and
    a floor above the chip's size runs none. On a chip of ``8k^2`` qubits, a
    graph of ``0 < n <= 4k`` vertices then takes the first n chains of the
    clique layout on the top-left ``ceil(n/4)`` blocks (``_clique_chains``)
    when its ``n * (ceil(n/4) + 1)`` qubits are strictly fewer than the best
    attempt's, or no attempt succeeded, and the layout passes
    ``verify_embedding``. The layout holds any graph of n vertices and draws no
    random numbers; where it cannot strictly win it is not built, so those
    results are the search's alone. ``restarts`` counts search attempts only.
    Failure is a result, not an exception; the clock covers search and layout.
    """
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # numpy.random and the chip's cached adjacency load on first use: before the clock
    default_rng = np.random.default_rng
    adj = [sorted(s) for s in gp.adjacency()]
    t0 = time.perf_counter()
    chip_degree = max(map(len, adj), default=0)
    floor = sum(_chain_floor(len(nbrs), chip_degree) for nbrs in gl.adjacency())
    best: Embedding | None = None
    best_size = math.inf
    restarts = 0
    for attempt in range(max_tries if floor <= gp.n else 0):
        restarts += 1
        rng = default_rng((seed, attempt))
        ws = _Workspace(adj, jitter=rng.random(gp.n))
        chains = _grow_attempt(gl, ws, rng)
        if chains is None:
            continue
        _improve(gl, ws, chains, rng)
        candidate = Embedding(tuple(tuple(sorted(c)) for c in chains), gp)
        if not verify_embedding(gl, gp, candidate):
            continue  # defensive: a broken attempt never escapes
        size = candidate.size()
        if size < best_size:
            best, best_size = candidate, size
        if best_size == floor:
            break  # provably minimal
    k = math.isqrt(gp.n // 8)
    blocks = -(-gl.n // 4)
    if gp.n == 8 * k * k and 0 < gl.n <= 4 * k and gl.n * (blocks + 1) < best_size:
        layout = Embedding(_clique_chains(k, gl.n), gp)
        if verify_embedding(gl, gp, layout):
            best = layout
    seconds = time.perf_counter() - t0
    return EmbedResult(embedding=best, seconds=seconds, restarts=restarts)


def _chain_floor(degree: int, chip_degree: int) -> int:
    """Fewest qubits in a vertex's chain: at most (D - 2)L + 2 couplers leave a
    chain of L qubits on a chip of maximum degree D > 2, one per neighbour."""
    return max(1, -(-(degree - 2) // (chip_degree - 2))) if chip_degree > 2 else 1


def _clique_chains(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The first n chains of the clique layout on the top-left ``m x m``
    blocks of chimera(k), ``m = ceil(n/4)``, each of m + 1 qubits.

    Chain ``4b + a`` is the column strip of unit ``a`` in block column ``b``
    (rows b..m-1, vertical side) plus the row strip of unit ``a`` in block row
    ``b`` (columns 0..b, horizontal side): an L meeting at the diagonal block
    (Boothby, King & Roy, arXiv:1507.04774). Chains ``4b + a`` and ``4c + e``,
    b <= c, touch in block (c, b), so any graph on the n vertices embeds.
    """
    m = -(-n // 4)
    chains = []
    for t in range(n):
        b, a = divmod(t, 4)
        column = [chimera_index(k, r, b, 0, a) for r in range(b, m)]
        row = [chimera_index(k, b, c, 1, a) for c in range(b + 1)]
        chains.append(tuple(sorted(column + row)))
    return tuple(chains)


# ---------------------------------------------------------------------------
# weight distribution
# ---------------------------------------------------------------------------


def _split_parts(value: float, count: int) -> list[float]:
    """Split ``value`` into ``count`` floats summing to it as exact reals.

    The first count-1 parts are the even share rounded to 27 mantissa bits,
    which keeps later additions of the (power-of-two) chain penalty exact for
    grid-representable inputs; the last part absorbs the exact remainder.
    """
    m, e = math.frexp(value / count)
    coarse = math.ldexp(round(m * (1 << 26)), e - 26)
    rest = value - (count - 1) * coarse
    return [coarse] * (count - 1) + [rest]


def _auto_strength(q: QuboMatrix, load: Iterable[float]) -> float:
    """Chain strength that provably dominates any single chain qubit's load.

    Twice the worst per-qubit sum of absolute split weights plus the largest
    logical coefficient magnitude, rounded up to a power of two so penalty
    bookkeeping stays exact.
    """
    raw = 2.0 * max(load, default=0.0) + q.max_abs_entry()
    if raw <= 0.0:
        return 1.0
    return math.ldexp(1.0, math.ceil(math.log2(raw)))


def embed_qubo(
    q: QuboMatrix, emb: Embedding, chain_strength: float | None = None
) -> QuboMatrix:
    """Spread a logical QUBO over an embedding into its hardware graph.

    Diagonals are split equally across their chain's qubits, couplings equally
    across every physical edge between the two chains, and each intra-chain
    edge receives the disagreement penalty (+M, +M, -2M). M is
    ``chain_strength``, or when that is None the one ``_auto_strength``
    derives from the qubit loads that the splitting pass sums. With intact
    chains the physical energy of the lifted state equals the logical energy.
    Only the couplings of ``q`` are checked per call; ``Embedding.chain_edges``
    checks the chains once. A split or strength that overflows a float raises
    ``ValueError`` naming the entry of largest magnitude.
    """
    if q.n != emb.logical_n:
        raise ValueError(f"QUBO dimension {q.n} != embedded logical size {emb.logical_n}")
    pairs, intra = emb.chain_edges
    uncovered = sorted(key for key in q.entries if key[0] != key[1] and key not in pairs)
    if uncovered:
        raise ValueError(f"invalid embedding: no physical edge joins the chains of {uncovered[:3]}")

    diag: dict[int, float] = {}
    couplings: dict[tuple[int, int], float] = {}
    load: dict[int, float] = {}  # each qubit's sum of absolute parts
    try:
        for v, chain in enumerate(emb.chains):
            value = q.entries.get((v, v))
            if value is not None:
                for qb, part in zip(chain, _split_parts(value, len(chain))):
                    diag[qb] = part
                    load[qb] = abs(part)
        for key, edges in pairs.items():
            value = q.entries.get(key)
            if value is not None:
                for (p, r), part in zip(edges, _split_parts(value, len(edges))):
                    couplings[(p, r)] = part
                    load[p] = load.get(p, 0.0) + abs(part)
                    load[r] = load.get(r, 0.0) + abs(part)
        strength = _auto_strength(q, load.values()) if chain_strength is None else chain_strength
    except OverflowError:
        key = max(q.entries, key=lambda k: abs(q.entries[k]))
        raise ValueError(f"QUBO entry {key} = {q.entries[key]!r} is too large to embed") from None
    if not strength > 0.0:
        raise ValueError(f"chain strength must be positive, got {strength}")
    for edges in intra:
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
    return QuboMatrix(n=emb.physical.n, entries=entries)


def unembed(
    reads: Reads,
    emb: Embedding,
    weighted: WeightedGraph,
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the annealer's reads to independent sets of the logical graph.

    Each logical bit is the majority vote over its chain, exact ties falling
    to 0. The vote is then repaired: on every edge, in sorted order, whose
    endpoints are both chosen, the lighter endpoint is cleared (the higher
    index on equal weights), and then each vertex with no chosen neighbour is
    added, in ascending ``(weight, index)`` order. Reads that vote alike share
    one repair, and the distinct votes are repaired together, one array
    operation per edge and per vertex. Returns ``(chosen, counts)``:
    ``chosen[v, k]`` is vertex v of the repaired k-th distinct vote, and
    ``counts[k]`` the number of reads that cast that vote.
    """
    lengths = np.array([len(chain) for chain in emb.chains])
    chain_qubits = np.array([q for chain in emb.chains for q in chain], dtype=np.intp)
    columns = np.searchsorted(reads.qubits, chain_qubits)
    if (columns == len(reads.qubits)).any() or (reads.qubits[columns] != chain_qubits).any():
        raise ValueError("a chain qubit has no column in the reads")
    n, words = len(lengths), -(-len(lengths) // 64)
    # each chain's count of ones as a product with its 0/1 membership column:
    # float32 sums of 0/1 terms are exact below 2**24
    member = np.zeros((len(reads.qubits), n), dtype=np.float32)
    member[columns, np.repeat(np.arange(n), lengths)] = 1.0
    ones = reads.samples.astype(np.float32) @ member
    # the votes packed into whole uint64 words: one key per read when n <= 64
    votes = np.zeros((len(ones), 64 * words), dtype=np.uint8)
    votes[:, :n] = 2 * ones > lengths
    keys = np.packbits(votes, axis=1, bitorder="little").view(np.uint64)
    if words == 1:
        distinct, counts = np.unique(keys[:, 0], return_counts=True)
    else:
        distinct, counts = np.unique(keys, axis=0, return_counts=True)
    packed = np.ascontiguousarray(distinct).view(np.uint8).reshape(len(counts), -1)
    chosen = np.unpackbits(packed, axis=1, count=n, bitorder="little").T.astype(bool)
    w = weighted.weights
    # clearing an endpoint never violates an edge, so one pass in edge order
    # clears what rescanning from the first violated edge would
    for u, v in weighted.graph.sorted_edges():
        lose, keep = (u, v) if w[u] < w[v] else (v, u)
        chosen[lose] &= ~chosen[keep]
    adj = weighted.graph.adjacency()
    for v in sorted(range(n), key=lambda i: (w[i], i)):
        chosen[v] |= ~chosen[list(adj[v])].any(axis=0)
    return chosen, counts
