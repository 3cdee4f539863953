"""Edge-labeled graphs with a fixed vertex order, plus trail machinery.

A graph document fixes the vertex order; indices in this module are
0-based positions in that order.  Edges keep their document order, and
an edge's index is its position in ``LabeledGraph.edges``; that order
drives every deterministic enumeration below.

A trail is a walk that repeats no edge; vertices may repeat.  The zero
trails of vertex i are the trails from i to any earlier vertex, reduced
so that no returned trail's edge set strictly contains another's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .rings import DOMAINS, Domain, RingParseError

DEFAULT_TRAIL_LIMIT = 1_000_000


class GraphDocumentError(ValueError):
    """A graph document that violates the input contract."""


class TrailLimitError(RuntimeError):
    """Trail enumeration exceeded the configured cap."""


@dataclass(frozen=True)
class Edge:
    """An edge u-v; its index is its position in ``LabeledGraph.edges``."""

    u: int
    v: int
    label: object


@dataclass(frozen=True)
class Trail:
    """Edge-simple walk; ``edges`` holds edge indices in traversal order."""

    edges: tuple[int, ...]
    vertices: tuple[int, ...]
    gcd: object


class LabeledGraph:
    """Simple graph with ordered vertices and nonzero edge labels.  Edge k
    is ``edges[k]``, so adjacency is in index order."""

    def __init__(self, domain: Domain, vertex_names: Sequence[str], edges: Sequence[Edge]):
        self.domain = domain
        self.vertex_names = tuple(vertex_names)
        self.edges = tuple(edges)
        adjacency: list[list[tuple[int, int]]] = [[] for _ in self.vertex_names]
        for k, e in enumerate(self.edges):
            adjacency[e.u].append((k, e.v))
            adjacency[e.v].append((k, e.u))
        self._adjacency = adjacency

    @property
    def n(self) -> int:
        return len(self.vertex_names)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> list[tuple[int, int]]:
        """(edge index, other endpoint) pairs in edge-index order."""
        return self._adjacency[v]

    @property
    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            self.domain is other.domain
            and self.vertex_names == other.vertex_names
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n}, m={self.m}, domain={self.domain.name})"


def load_graph(document) -> LabeledGraph:
    """Build a graph from a parsed JSON document.

    Expected shape::

        {"domain": "int" | "intpoly",
         "vertices": ["v1", ...],
         "edges": [{"u": "v1", "v": "v2", "label": "5"}, ...]}
    """
    if not isinstance(document, dict):
        raise GraphDocumentError("graph document must be a JSON object")
    try:
        domain_name = document["domain"]
        vertices = document["vertices"]
        edge_docs = document["edges"]
    except KeyError as exc:
        raise GraphDocumentError(f"graph document is missing key {exc}") from None
    domain = DOMAINS.get(domain_name) if isinstance(domain_name, str) else None
    if domain is None:
        raise GraphDocumentError(f"unknown domain {domain_name!r}")
    if not isinstance(vertices, list) or not vertices:
        raise GraphDocumentError("graph document needs a nonempty vertex list")
    if not all(isinstance(name, str) for name in vertices):
        raise GraphDocumentError("vertex names must be strings")
    if not isinstance(edge_docs, list):
        raise GraphDocumentError("graph document needs an edge list")
    if len(set(vertices)) != len(vertices):
        raise GraphDocumentError("vertex names must be distinct")
    index = {name: k for k, name in enumerate(vertices)}
    edges = []
    seen = set()
    for pos, doc in enumerate(edge_docs):
        try:
            uname, vname, text = doc["u"], doc["v"], doc["label"]
        except (TypeError, KeyError):
            raise GraphDocumentError(f"edge #{pos} must have keys u, v, label") from None
        if not (isinstance(uname, str) and isinstance(vname, str)
                and uname in index and vname in index):
            raise GraphDocumentError(f"edge #{pos} references an unknown vertex")
        u, v = index[uname], index[vname]
        if u == v:
            raise GraphDocumentError(f"edge #{pos} is a self-loop at {uname}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphDocumentError(f"duplicate edge {uname}-{vname}")
        seen.add((u, v))
        if not isinstance(text, str):
            raise GraphDocumentError(f"edge #{pos}: label must be a string")
        try:
            label = domain.parse(text)
        except RingParseError as exc:
            raise GraphDocumentError(f"edge #{pos}: {exc}") from None
        if domain.is_zero(label):
            raise GraphDocumentError(f"edge #{pos} has a zero label")
        edges.append(Edge(u, v, label))
    return LabeledGraph(domain, vertices, edges)


def completion(g: LabeledGraph) -> LabeledGraph:
    """Complete graph on the same vertex order; missing edges get label one.

    Existing edges keep their labels and document positions, so the added
    unit edges sort after them in every enumeration.
    """
    edges = list(g.edges)
    for u in range(g.n):
        adjacent = {w for _, w in g.neighbors(u)}
        for v in range(u + 1, g.n):
            if v not in adjacent:
                edges.append(Edge(u, v, g.domain.one))
    return LabeledGraph(g.domain, g.vertex_names, edges)


def _trail_limit_error(g: LabeledGraph, i: int, max_trails: int) -> TrailLimitError:
    return TrailLimitError(f"vertex {g.vertex_names[i]} has more than "
                           f"{max_trails} zero trails; raise the cap to continue")


def check_completion_trail_cap(g: LabeledGraph, i: int,
                               max_trails: int = DEFAULT_TRAIL_LIMIT) -> None:
    """Raise ``TrailLimitError``, as ``zero_trails`` would on the completion
    of ``g``, when vertex ``i`` has more than ``max_trails`` zero trails
    there, without building the completion.

    On K_n a zero trail of vertex i is a simple path through k of the
    L = n-1-i later vertices, in order, then an edge to one of the i
    earlier ones: i * sum_k L!/(L-k)! trails whatever the labels.  The sum
    stops once it passes the cap.
    """
    later = g.n - 1 - i
    count, paths = 0, 1
    for k in range(later + 1):
        count += i * paths
        if count > max_trails:
            raise _trail_limit_error(g, i, max_trails)
        paths *= later - k


def zero_trails(g: LabeledGraph, i: int,
                max_trails: int = DEFAULT_TRAIL_LIMIT) -> list[Trail]:
    """Containment-reduced zero trails of vertex ``i`` (0-based, ``i >= 1``).

    Conceptually this enumerates every trail from vertex i to any earlier
    vertex and drops each trail whose edge set strictly contains another's
    (keeping one representative per surviving edge set).  The survivors
    are exactly the vertex-simple paths that stop at the first earlier
    vertex reached:

    * a candidate that revisits a vertex, or passes through an earlier
      vertex, edge-set-contains the shorter candidate obtained by cutting
      the detour, so it is dropped;
    * two distinct such paths cannot contain one another, because a path
      inside a path's edge set starting at the same endpoint is a prefix,
      and a proper prefix would end at an interior (hence non-earlier)
      vertex.

    So the reduced family is enumerated here directly as simple paths.
    Each path carries the gcd of its prefix, one ``gcd`` per step.  The
    walk takes neighbours in edge-index order and never extends a zero
    trail, so its preorder is already sorted by ``edges``.  On a complete
    graph the cap is checked first, against the count in closed form.
    """
    if i < 1:
        raise ValueError("the first vertex has no zero trails")
    if i >= g.n:
        raise ValueError(f"vertex index {i} out of range")
    if g.is_complete:
        check_completion_trail_cap(g, i, max_trails)
    d = g.domain
    results: list[Trail] = []
    on_path = [False] * g.n
    on_path[i] = True
    path_vertices = [i]
    path_edges: list[int] = []
    # gcds[k] is the gcd of the labels of path_edges[:k].
    gcds = [d.zero]
    # One neighbor iterator per path vertex: an explicit depth-first
    # stack, so path length is not bounded by the recursion limit.
    pending = [iter(g.neighbors(i))]
    while pending:
        for edge_index, w in pending[-1]:
            if on_path[w]:
                continue
            x = d.gcd(gcds[-1], g.edges[edge_index].label)
            if w >= i:
                path_edges.append(edge_index)
                path_vertices.append(w)
                gcds.append(x)
                on_path[w] = True
                pending.append(iter(g.neighbors(w)))
                break
            if len(results) >= max_trails:
                raise _trail_limit_error(g, i, max_trails)
            results.append(Trail((*path_edges, edge_index), (*path_vertices, w), x))
        else:
            pending.pop()
            if path_edges:
                on_path[path_vertices.pop()] = False
                path_edges.pop()
                gcds.pop()
    return results
