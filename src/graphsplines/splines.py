"""Spline verification, vertex invariants, selections, and constructions.

A spline on an edge-labeled graph is a vertex vector whose difference
across every edge is divisible by that edge's label.  For vertex i the
leading value is the lcm of the gcds of its zero trails; the product of
all leading values is the determinant target used by the basis check.
Leading values come from a path closure that lists no trails (see
``path_closure``), whose reach map also gives the integer flow-up rows
in ``basis``; trails are enumerated only for the selections below,
whose output is made of trails.

A selection at vertex i picks one edge from every zero trail of length
greater than one.  Each pick contributes the quotient of its label by the
trail gcd; the product of those quotients times the leading value is the
nonzero value used by the spline constructions at the end of the module.
Minimal selections are the minimal label cuts between i and the earlier
vertices.  ``minimal_selections``, ``minimal_selection`` and
``selection_from_labels`` share one path: a per-vertex context lists the
long trails, the leading value and a key per label once, with a bit mask
of each trail's edges and of the edges carrying each key.  It turns each
label set into a ``Selection``: the key masks are ORed into one mask, and
every trail takes the lowest set bit of its mask within it, its
lowest-indexed selected edge.  Only a label that no trail took sends the
choice to an augmenting-path repair, which minimal label sets never need.
The quotients are tabled once per vertex, one table per distinct trail
gcd, and the product is taken once per distinct quotient, as a power.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .graphs import DEFAULT_TRAIL_LIMIT, Edge, LabeledGraph, Trail, zero_trails


class DisconnectedGraphError(ValueError):
    """A vertex with no trail to any earlier vertex; leading values need a
    connected graph."""


class SplineConstructionError(RuntimeError):
    """A constructed vector failed its own spline check."""


def first_violation(g: LabeledGraph, values: Sequence) -> Optional[Edge]:
    """First edge (document order) whose divisibility condition fails."""
    if len(values) != g.n:
        raise ValueError(f"expected {g.n} values, got {len(values)}")
    d = g.domain
    vals = [d.coerce(v) for v in values]
    for e in g.edges:
        if not d.divides(e.label, vals[e.u] - vals[e.v]):
            return e
    return None


def is_spline(g: LabeledGraph, values: Sequence) -> bool:
    return first_violation(g, values) is None


def path_closure(g: LabeledGraph, i: int):
    """(lead, reach) for vertex ``i``: its leading value and its reach map.

    A path closure over the ``(lcm, gcd)`` semiring, without listing
    trails.  A worklist walks from ``i`` through vertices ``> i`` and
    keeps ``reach[v]``, the lcm of the gcds of the walks found so far from
    ``i`` to ``v``.  ``reach[i]`` stays zero, which every gcd divides, so
    an edge back into ``i`` is skipped before its gcd; an edge into an
    earlier vertex folds the walk's gcd into the lead.  The first vertex,
    with no earlier vertex, has lead one.  This is exact:

    * gcd distributes over lcm in a GCD domain, so relaxing ``reach[v]``
      as a whole equals relaxing each walk into ``v`` on its own;
    * cutting the cycles out of a walk leaves a zero trail (a simple path,
      see ``zero_trails``) whose gcd is a multiple of the walk's, so the
      lcm over walks equals the lcm over zero trails;
    * a walk whose gcd already divides the lead or ``reach[v]`` is
      dropped, which is sound because extending a walk only shrinks its
      gcd.

    A walk dropped against the lead may be missing from ``reach``, but its
    gcd divides the lead: the power of a prime in ``reach[v]`` is exact
    where it exceeds the lead's, all that ``basis.flowup_basis`` reads.
    Every update strictly grows ``reach[v]`` inside the divisors of the
    lcm of the labels at ``v``, so the loop ends after polynomially many
    gcd and lcm operations.
    """
    d = g.domain
    lead = d.one if i == 0 else None
    reach = {i: d.zero}
    work = [i]
    queued = {i}
    while work:
        v = work.pop()
        queued.discard(v)
        at_v = reach[v]
        for k, w in g.neighbors(v):
            if w == i:
                continue
            x = d.gcd(at_v, g.edges[k].label)
            if lead is not None and d.divides(x, lead):
                continue
            if w < i:
                lead = x if lead is None else d.lcm(lead, x)
                continue
            old = reach.get(w)
            if old is not None:
                if d.divides(x, old):
                    continue
                x = d.lcm(old, x)
            reach[w] = x
            if w not in queued:
                queued.add(w)
                work.append(w)
    if lead is None:
        raise DisconnectedGraphError(
            f"vertex {g.vertex_names[i]} has no trail to any earlier vertex"
        )
    return lead, reach


def leading_value(g: LabeledGraph, i: int):
    """lcm of the zero-trail gcds of vertex ``i`` (the lead of
    ``path_closure``); one for the first vertex."""
    if not 0 <= i < g.n:
        raise ValueError(f"vertex index {i} out of range")
    if i == 0:
        return g.domain.one
    return path_closure(g, i)[0]


def leading_values(g: LabeledGraph) -> list:
    return [leading_value(g, i) for i in range(g.n)]


def determinant_target(g: LabeledGraph):
    """Product of all leading values, canonical; the determinant of any
    basis equals this up to a unit."""
    d = g.domain
    return d.canonical(d.product(leading_values(g)))


@dataclass(frozen=True, eq=False)
class Selection:
    """One chosen edge per long zero trail of a vertex.

    ``labels`` is the set of chosen labels (canonical associates, ordered
    by the smallest edge index carrying each label), ``product`` the
    product of the per-trail quotient factors, and ``value`` the canonical
    product of ``product`` with the vertex's leading value.  ``h_edges``
    are the indices of every edge in the graph whose canonical label is
    among the chosen labels.
    """

    graph: LabeledGraph = field(repr=False)
    vertex: int
    trails: tuple[Trail, ...] = field(repr=False)
    chosen: tuple[int, ...]
    factors: tuple
    labels: tuple
    product: object
    value: object
    h_edges: frozenset = field(repr=False)


class _VertexSelections:
    """What every selection at vertex ``i`` shares, built once: the long
    zero trails with a bit mask of each one's edge indices, the leading
    value, the key of each label (the smallest edge index carrying its
    canonical associate) with a mask of the edges carrying it, and one
    table of quotients l(e)/gcd per distinct trail gcd, over its trails."""

    def __init__(self, g: LabeledGraph, i: int, max_trails: int):
        if not 1 <= i <= g.n - 2:
            raise ValueError(f"selections exist for vertex indices 1..{g.n - 2}, got {i}"
                             if g.n > 2 else "selections need a graph with at least 3 vertices")
        d = g.domain
        self.graph, self.vertex = g, i
        self.key: dict = {}
        self.edge_key = [self.key.setdefault(d.canonical(e.label), k)
                         for k, e in enumerate(g.edges)]
        self.key_mask: dict[int, int] = {}
        for e, k in enumerate(self.edge_key):
            self.key_mask[k] = self.key_mask.get(k, 0) | 1 << e
        self.trails = tuple(
            t for t in zero_trails(g, i, max_trails) if len(t.edges) > 1
        )
        self.trail_mask = [sum(1 << e for e in t.edges) for t in self.trails]
        edges_by_gcd: dict = {}
        for t in self.trails:
            edges_by_gcd.setdefault(t.gcd, set()).update(t.edges)
        tables = {c: {e: d.exact_div(g.edges[e].label, c) for e in edges}
                  for c, edges in edges_by_gcd.items()}
        self.quotients: list[dict] = [tables[t.gcd] for t in self.trails]
        self.lead = leading_value(g, i)

    def minimal_keysets(self) -> list[frozenset[int]]:
        """Key sets of the minimal label cuts, sorted by their sorted keys.

        A minimal cut C is reached once, from S, the component of ``i``
        among the vertices C's edges cut off from the earlier ones.  S grows
        one later neighbour at a time, each added or kept out for good; a
        branch lives only while every vertex kept out reaches an earlier one
        outside S without the edges of keys already cut.  A leaf is kept if
        dropping any one key reconnects ``i``.  The exits, the later
        vertices with the keys of their edges to earlier ones, and the keys
        that label more than one edge of the search graph (the edges with
        an endpoint after ``i``) are listed once per call.

        Only a leaf whose cut holds one of those keys runs that check, one
        ``escaping`` search per cut key.  Any other leaf is kept as it is:

        * each cut key was added for a boundary edge of S; a key that
          labels one edge labels only that boundary edge, so deleting the
          cut removes exactly the boundary edges and leaves S connected;
        * dropping a key k, on the boundary edge s-w with s in S, then
          reconnects ``i`` through s and w.  Either w is earlier, or w is
          kept out, and a kept-out w escapes avoiding S and the cut, which
          the push that made this leaf verified.

        With distinct labels no leaf runs the check, and all are kept.
        """
        g, i, key = self.graph, self.vertex, self.edge_key
        adj = [[(key[k], w) for k, w in g.neighbors(v) if max(v, w) > i] for v in range(g.n)]
        exits = [(v, keys) for v in range(i, g.n)
                 if (keys := {k for k, w in adj[v] if w < i})]
        uses = Counter(k for v in range(g.n) for k, w in adj[v] if v < w)
        repeated = {k for k, c in uses.items() if c > 1}

        def escaping(side: frozenset, cut: frozenset) -> set[int]:
            """Vertices ``>= i`` outside ``side`` that reach an earlier one
            avoiding ``side`` and the edges whose key is in ``cut``."""
            work = [v for v, keys in exits if v not in side and not keys <= cut]
            seen = set(work)
            while work:
                for k, w in adj[work.pop()]:
                    if w >= i and k not in cut and w not in side and w not in seen:
                        seen.add(w)
                        work.append(w)
            return seen

        cuts, stack = [], [(frozenset({i}), frozenset(), frozenset())]
        while stack:
            side, out, cut = stack.pop()
            frontier = {w for v in side for _, w in adj[v] if w > i} - side - out
            if not frontier:
                if cut.isdisjoint(repeated) or all(
                        i in escaping(frozenset(), cut - {k}) for k in cut):
                    cuts.append(cut)
                continue
            v = min(frontier)
            kept = cut | {k for k, w in adj[v] if w in side}
            if out | {v} <= escaping(side, kept):
                stack.append((side, out | {v}, kept))
            grown = cut | {k for k, w in adj[v] if w < i or w in out}
            if out <= escaping(side | {v}, grown):
                stack.append((side | {v}, out, grown))
        return sorted(cuts, key=lambda c: tuple(sorted(c)))

    def select(self, keyset: frozenset[int]) -> Selection:
        """The selection whose label keys are ``keyset``.

        The masks of the keys are ORed into ``h``, the edges whose key is in
        ``keyset`` (``h_edges``).  Each long trail takes the lowest set bit
        of its mask within ``h``, its lowest-indexed selected edge; only
        when some key is then taken by no trail does ``_repair`` reassign
        trails.  The factors are read from the trails' quotient tables and
        multiplied over their distinct values, each to the power of its count.
        """
        g, d, trails, key = self.graph, self.graph.domain, self.trails, self.edge_key
        h = 0
        for k in keyset:
            h |= self.key_mask[k]
        common = [mask & h for mask in self.trail_mask]
        if 0 in common:
            t = trails[common.index(0)]
            raise ValueError(
                "label set misses the trail through "
                + "-".join(g.vertex_names[v] for v in t.vertices)
            )
        choice = [(c & -c).bit_length() - 1 for c in common]
        if len(set(map(key.__getitem__, choice))) < len(keyset):
            choice = self._repair(choice, keyset)
        factors = tuple(map(dict.__getitem__, self.quotients, choice))
        counts = Counter(factors)
        product = d.canonical(d.product(map(pow, counts, counts.values())))
        return Selection(
            graph=g,
            vertex=self.vertex,
            trails=trails,
            chosen=tuple(choice),
            factors=factors,
            labels=tuple(d.canonical(g.edges[k].label) for k in sorted(keyset)),
            product=product,
            value=d.canonical(d.mul(product, self.lead)),
            h_edges=frozenset(e for e, k in enumerate(key) if k in keyset),
        )

    def _repair(self, choice: list[int], keyset: frozenset[int]) -> list[int]:
        """Reassign trails along augmenting chains until every key in
        ``keyset`` is the choice of some trail, or raise ValueError.  Trail
        t carries key k when ``trail_mask[t] & key_mask[k]``, and moves onto
        that intersection's lowest set bit, the rule of ``select``.  Runs
        only for a key that no trail's lowest selected edge carries, never
        for a minimal label set: each of its keys has a trail on which it is
        the only selected one."""
        edge_key, trail_mask, key_mask = self.edge_key, self.trail_mask, self.key_mask
        carriers = {k: [t for t, m in enumerate(trail_mask) if m & key_mask[k]] for k in keyset}
        counts = Counter(edge_key[e] for e in choice)

        def realize(key: int) -> bool:
            # Depth-first search on an explicit stack: chain[f] is the trail
            # that takes wants[f] and hands its current key to the next level,
            # unless another trail also chooses that key.
            visited: set[int] = set()
            wants, pending, chain = [key], [iter(carriers[key])], []
            while pending:
                for ti in pending[-1]:
                    old = edge_key[choice[ti]]
                    if ti in visited or old == wants[-1]:
                        continue
                    visited.add(ti)
                    chain.append(ti)
                    if counts[old] > 1:
                        for want, tj in zip(wants, chain):
                            counts[edge_key[choice[tj]]] -= 1
                            counts[want] += 1
                            c = trail_mask[tj] & key_mask[want]
                            choice[tj] = (c & -c).bit_length() - 1
                        return True
                    wants.append(old)
                    pending.append(iter(carriers[old]))
                    break
                else:
                    pending.pop()
                    wants.pop()
                    if chain:
                        chain.pop()
            return False

        for key in sorted(keyset):
            if counts[key] == 0 and not realize(key):
                raise ValueError("label set is not realizable as a selection")
        return choice


def minimal_selections(g: LabeledGraph, i: int,
                       max_trails: int = DEFAULT_TRAIL_LIMIT) -> list[Selection]:
    """Selections whose label sets are minimal under inclusion.

    A label set meets every long zero trail exactly when deleting its
    edges cuts vertex ``i`` off from the earlier vertices, so these are
    the minimal label cuts (``_VertexSelections.minimal_keysets``), in
    the order of their sorted label keys.  Each is realized by picking,
    per trail, the lowest-indexed edge whose label it contains; no repair
    runs.
    """
    at = _VertexSelections(g, i, max_trails)
    return [at.select(s) for s in at.minimal_keysets()]


def minimal_selection(g: LabeledGraph, i: int, index: int,
                      max_trails: int = DEFAULT_TRAIL_LIMIT) -> Selection:
    """``minimal_selections(g, i)[index]``, realizing only that selection;
    an ``index`` outside the list, negative included, raises ValueError."""
    at = _VertexSelections(g, i, max_trails)
    keysets = at.minimal_keysets()
    if not 0 <= index < len(keysets):
        raise ValueError(f"selection id {index} out of range; "
                         f"{len(keysets)} minimal selections exist")
    return at.select(keysets[index])


def selection_from_labels(g: LabeledGraph, i: int, labels,
                          max_trails: int = DEFAULT_TRAIL_LIMIT) -> Selection:
    """Selection with the given label set, canonical assignment.

    Raises ValueError when some long trail carries none of the labels or
    some label cannot be realized by any assignment.
    """
    at = _VertexSelections(g, i, max_trails)
    d = g.domain
    keyset = set()
    for lab in labels:
        c = d.canonical(d.coerce(lab))
        if c not in at.key:
            raise ValueError(f"no edge carries the label {d.format(c)}")
        keyset.add(at.key[c])
    return at.select(frozenset(keyset))


def _check_output(g: LabeledGraph, values: list, what: str) -> list:
    e = first_violation(g, values)
    if e is not None:
        raise SplineConstructionError(
            f"{what} failed the spline check on edge "
            f"{g.vertex_names[e.u]}-{g.vertex_names[e.v]} "
            f"(label {g.domain.format(e.label)})"
        )
    return values


def single_vertex_spline(a: Selection) -> list:
    """Spline on ``a.graph`` supported on one vertex, when every incident label is chosen.

    Requires each edge at the selection's vertex to carry a label from the
    selection's label set; the value there is the selection value, zero
    elsewhere.
    """
    g = a.graph
    d = g.domain
    i = a.vertex
    for k, w in g.neighbors(i):
        if k not in a.h_edges:
            raise ValueError(
                f"label of edge {g.vertex_names[i]}-{g.vertex_names[w]} "
                "is not in the selection"
            )
    values = [d.zero] * g.n
    values[i] = a.value
    return _check_output(g, values, "single-vertex construction")


def selection_spline(a: Selection) -> list:
    """Two-valued spline on the complete graph ``a.graph`` from selection ``a``.

    With i the selection's vertex and X its value, the selection subgraph
    is read as neighbour sets: ``inside[v]`` holds v's neighbours across
    an edge in ``a.h_edges``, and ``forced`` the later vertices outside
    ``inside[i]``.  Vertex i gets X; a later vertex gets zero when
    ``forced`` is a subset of its ``inside`` set, else X, so each vertex
    of ``forced``, not its own neighbour, gets X; earlier vertices get
    zero.  The output is checked and a violation raises, which happens
    only outside the construction's guarantees (equal labels on distinct
    edges, or a label set that is not inclusion-minimal).

    Zero set.  For an inclusion-minimal selection with pairwise-distinct
    labels, let I be the later vertices s whose edge i-s lies in the
    selection subgraph.  The output is zero exactly on {0..i-1} and I, and
    X everywhere else: ``forced`` lies in the ``inside`` set of every
    vertex of I, so the rule above always sends it to zero.  Proof
    sketch: by minimality the label of i-s is the only selected label on
    some long zero trail i->s->P, so P avoids the selection subgraph.  For
    a vertex t of ``forced``, P cannot pass through t, or the zero trail
    i->t->(rest of P) would be missed by the selection.  So i->t->s->P is
    a long zero trail whose only edge that can be selected is t-s, hence
    t-s is inside.

    The guaranteed zero count is therefore i-1 at the vertex in 1-based
    position i (the earlier vertices).  There are i or more zeros exactly
    when I is nonempty; when no edge at vertex i is selected, every later
    vertex gets X and only the i-1 guaranteed zeros remain.

    Complete graphs with distinct labels.  Every S made of vertex i and
    any subset of the later vertices is the side of a minimal label cut
    (see ``minimal_selections``): S is connected, and every later vertex
    outside it has an edge to an earlier vertex.  Distinct minimal cuts
    are never nested, so vertex i has exactly 2^(n-1-i) minimal
    selections, 2^(n-v) at 1-based position v, one per S.  The selection
    of S picks the edges leaving S, so S is vertex i plus the later
    vertices whose edge to i is not selected, and the spline is X
    exactly on S and zero elsewhere.
    """
    k = a.graph
    if not k.is_complete:
        raise ValueError("the selection construction needs a complete graph")
    i = a.vertex
    if not 1 <= i <= k.n - 2:
        raise ValueError(f"construction applies to vertex indices 1..{k.n - 2}" if k.n > 2
                         else "the selection construction needs at least 3 vertices")
    d = k.domain
    x = a.value
    inside = [{w for e, w in k.neighbors(v) if e in a.h_edges} for v in range(k.n)]
    forced = set(range(i + 1, k.n)) - inside[i]
    values = [d.zero] * k.n
    values[i] = x
    for s in range(i + 1, k.n):
        if not forced <= inside[s]:
            values[s] = x
    return _check_output(k, values, "selection construction")


def induced_spline(f: Sequence, a: Selection, a_star: Selection) -> list:
    """Transport a two-valued spline of ``a`` to a superset selection.

    Values equal to ``a.value`` become ``a_star.value``; zeros stay zero;
    anything else is rejected.
    """
    if a.graph != a_star.graph or a.vertex != a_star.vertex:
        raise ValueError("selections must target the same vertex of the same graph")
    if not set(a.labels) <= set(a_star.labels):
        raise ValueError("the first selection's labels must be contained "
                         "in the second's")
    g = a.graph
    d = g.domain
    if len(f) != g.n:
        raise ValueError(f"expected {g.n} values, got {len(f)}")
    out = []
    for v in f:
        v = d.coerce(v)
        if v == a.value:
            out.append(a_star.value)
        elif d.is_zero(v):
            out.append(d.zero)
        else:
            raise ValueError(
                f"value {d.format(v)} is neither zero nor the selection value"
            )
    return _check_output(g, out, "induced spline")


def top_spline(g: LabeledGraph) -> list:
    """Flow-up spline of the last vertex: zeros below, leading value on top."""
    d = g.domain
    values = [d.zero] * g.n
    values[g.n - 1] = leading_value(g, g.n - 1)
    return _check_output(g, values, "top spline")
