"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive results through different
algorithms than the package uses: determinants by first-row cofactor
expansion, zero trails by full trail enumeration plus explicit edge-set
pruning, leading values from the listed zero trails, the path closure
with a gcd for every walk back into its start vertex, the selection
factors of every edge of every long zero trail, minimal selections by a
hitting-set search over the long trails' label sets, the label-cut search
with every leaf checked, each selection realized by set intersections and
one plain product, trail counts by dynamic programming over used-edge sets, the flow-up basis and span coordinates
through a Hermite form over the integers that tracks its unimodular
transform, the flow-up basis again by a Hermite elimination modulo the
lcm of the labels, and a third time by localising at a coprime base of
the labels.  ``ZZ[x]`` gcd, lcm and exact division go through
a pseudo-remainder sequence that scales at every step and a long division
on ``IntPoly`` values.  The completion and the selection construction
are re-derived from vertex-pair lookups built from the edge list.
``permute_vertices`` reorders a graph for the invariance tests,
``reverse_endpoints`` writes edges high endpoint first, and
``edge_index_between`` finds the edge joining two vertices.
"""

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from graphsplines import (
    DEFAULT_TRAIL_LIMIT,
    ZZ,
    ZZX,
    DisconnectedGraphError,
    Edge,
    InternalConsistencyError,
    IntPoly,
    LabeledGraph,
    Selection,
    SplineConstructionError,
    Trail,
    TrailLimitError,
    first_violation,
    leading_values,
    load_graph,
    selection_from_labels,
    zero_trails,
)
from graphsplines.splines import _repair


def graph_doc(domain, vertices, edges):
    return {
        "domain": domain,
        "vertices": list(vertices),
        "edges": [{"u": u, "v": v, "label": str(lab)} for u, v, lab in edges],
    }


def make_graph(domain, vertices, edges) -> LabeledGraph:
    return load_graph(graph_doc(domain, vertices, edges))


def diamond() -> LabeledGraph:
    """4-vertex diamond; leads (1, 30, 4, 18), target 2160."""
    return make_graph("int", ["v1", "v2", "v3", "v4"], [
        ("v1", "v2", 5),
        ("v1", "v3", 4),
        ("v1", "v4", 6),
        ("v2", "v3", 2),
        ("v2", "v4", 9),
    ])


# Labels keyed 1..6 on K4 in the order l1=v1v2, l2=v2v3, l3=v1v3,
# l4=v1v4, l5=v2v4, l6=v3v4.
K4_LABELS = {1: 2, 2: 3, 3: 5, 4: 7, 5: 11, 6: 13}


def k4_distinct() -> LabeledGraph:
    l = K4_LABELS
    return make_graph("int", ["v1", "v2", "v3", "v4"], [
        ("v1", "v2", l[1]),
        ("v2", "v3", l[2]),
        ("v1", "v3", l[3]),
        ("v1", "v4", l[4]),
        ("v2", "v4", l[5]),
        ("v3", "v4", l[6]),
    ])


# Labels keyed 1..10 on K5 in the order l1=v1v2, l2=v2v3, l3=v1v3,
# l4=v1v4, l5=v2v4, l6=v3v4, l7=v1v5, l8=v2v5, l9=v3v5, l10=v4v5.
K5_LABELS = dict(zip(range(1, 11), [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]))
K5_PAIRS = [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4),
            (3, 4), (1, 5), (2, 5), (3, 5), (4, 5)]


def k5_distinct() -> LabeledGraph:
    return make_graph("int", [f"v{k}" for k in range(1, 6)], [
        (f"v{a}", f"v{b}", K5_LABELS[j])
        for j, (a, b) in enumerate(K5_PAIRS, start=1)
    ])


def repeated_label_k5() -> LabeledGraph:
    """K5 with labels 2, 3 and 5 each on two edges; the minimal selection
    {2, 3, 5} at v2 defeats the two-valued construction."""
    return make_graph("int", ["v1", "v2", "v3", "v4", "v5"], [
        ("v2", "v1", 23), ("v2", "v3", 2), ("v2", "v4", 3),
        ("v2", "v5", 7), ("v3", "v1", 2), ("v3", "v4", 13),
        ("v3", "v5", 11), ("v4", "v1", 3), ("v4", "v5", 5),
        ("v5", "v1", 5),
    ])


def poly_cycle() -> LabeledGraph:
    """3-cycle labeled x, x+1, x^2+x; both nontrivial leads are x^2+x."""
    return make_graph("intpoly", ["v1", "v2", "v3"], [
        ("v1", "v2", "x"),
        ("v1", "v3", "x+1"),
        ("v2", "v3", "x^2+x"),
    ])


def random_connected_graph(rng: random.Random, n: int, max_label: int = 30,
                           distinct: bool = False, extra_edge_p: float = 0.45) -> LabeledGraph:
    """Random spanning tree plus extra edges, labels in 1..max_label."""
    names = [f"v{k}" for k in range(1, n + 1)]
    pairs = []
    for v in range(1, n):
        u = rng.randrange(v)
        pairs.append((u, v))
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) not in pairs and rng.random() < extra_edge_p:
            pairs.append((u, v))
    pairs.sort()
    if distinct:
        labels = rng.sample(range(1, max(max_label, len(pairs)) * 4), len(pairs))
        labels = [lab + 1 for lab in labels]
    else:
        labels = [rng.randint(1, max_label) for _ in pairs]
    return make_graph("int", names, [
        (names[u], names[v], lab) for (u, v), lab in zip(pairs, labels)
    ])


def random_complete_graph(rng: random.Random, n: int, max_label: int = 30,
                          distinct: bool = True) -> LabeledGraph:
    names = [f"v{k}" for k in range(1, n + 1)]
    pairs = list(itertools.combinations(range(n), 2))
    if distinct:
        labels = [lab + 1 for lab in rng.sample(range(1, 400), len(pairs))]
    else:
        labels = [rng.randint(1, max_label) for _ in pairs]
    return make_graph("int", names, [
        (names[u], names[v], lab) for (u, v), lab in zip(pairs, labels)
    ])


SMALL_PRIMES = [p for p in range(2, 100) if all(p % q for q in range(2, p))]


def random_sparse_graph(rng: random.Random, n: int, m: int) -> LabeledGraph:
    """Random spanning tree plus random extra edges, m edges in all.

    Labels are products of one to three primes below 100, so their lcm
    divides the product of those primes (121 bits) however large the
    graph is."""
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    while len(pairs) < m:
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    names = [f"v{k}" for k in range(1, n + 1)]
    return make_graph("int", names, [
        (names[u], names[v], math.prod(rng.sample(SMALL_PRIMES, rng.randint(1, 3))))
        for u, v in sorted(pairs)
    ])


def random_poly_complete_graph(rng: random.Random, n: int) -> LabeledGraph:
    """K_n over ZZ[x] labelled c * (x - a1)...(x - ak): k in 1..3 distinct
    roots from -4..4 and c in {1, 2, 3, 5, 6}."""
    names = [f"v{k}" for k in range(1, n + 1)]
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        label = ZZX.coerce(rng.choice((1, 2, 3, 5, 6)))
        for a in rng.sample(range(-4, 5), rng.randint(1, 3)):
            label = label * IntPoly((-a, 1))
        edges.append((names[u], names[v], ZZX.format(label)))
    return make_graph("intpoly", names, edges)


def block_splines(g: LabeledGraph) -> list[list]:
    """The splines F_k, zero before vertex k and equal from k on to the lcm
    of the labels of the edges that cross from below k to k or above."""
    d = g.domain
    out = []
    for k in range(g.n):
        lead = d.lcm_all(e.label for e in g.edges if min(e.u, e.v) < k <= max(e.u, e.v))
        out.append([lead if j >= k else d.zero for j in range(g.n)])
    return out


def permute_vertices(g: LabeledGraph, perm: Sequence[int]) -> LabeledGraph:
    """Reindex vertices; ``perm[old]`` is the new position of vertex ``old``."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("permutation must be a bijection on the vertex indices")
    names = [""] * g.n
    for old, new in enumerate(perm):
        names[new] = g.vertex_names[old]
    edges = []
    for e in g.edges:
        u, v = perm[e.u], perm[e.v]
        if u > v:
            u, v = v, u
        edges.append(Edge(u, v, e.label))
    return LabeledGraph(g.domain, names, edges)


def reverse_endpoints(g: LabeledGraph, rng: random.Random) -> LabeledGraph:
    """The same graph with a random half of its edges written high
    endpoint first, which ``load_graph`` never produces."""
    return LabeledGraph(g.domain, g.vertex_names, [
        Edge(e.v, e.u, e.label) if rng.random() < 0.5 else e for e in g.edges
    ])


def edge_index_between(g: LabeledGraph, u: int, v: int) -> Optional[int]:
    """Index of the edge u-v, or None: a scan of u's adjacency, O(degree)."""
    return next((k for k, w in g.neighbors(u) if w == v), None)


def combinations_completion(g: LabeledGraph) -> LabeledGraph:
    """``completion`` over ``itertools.combinations``, with the present
    pairs read from ``g.edges`` rather than the adjacency lists."""
    present = {(min(e.u, e.v), max(e.u, e.v)) for e in g.edges}
    edges = list(g.edges)
    for u, v in itertools.combinations(range(g.n), 2):
        if (u, v) not in present:
            edges.append(Edge(u, v, g.domain.one))
    return LabeledGraph(g.domain, g.vertex_names, edges)


def pair_lookup_selection_spline(a: Selection) -> list:
    """``selection_spline`` by edge lookups per vertex pair, in a dict
    built from ``a.graph.edges``: a later vertex whose edge to the target is not
    selected gets X, and so does one with an unselected edge to such a
    vertex.  Raises ``SplineConstructionError`` on a non-spline output."""
    k = a.graph
    pair = {}
    for index, e in enumerate(k.edges):
        pair[e.u, e.v] = pair[e.v, e.u] = index
    i, x = a.vertex, a.value
    values = [k.domain.zero] * k.n
    values[i] = x
    outside = [s for s in range(i + 1, k.n) if pair[i, s] not in a.h_edges]
    for s in range(i + 1, k.n):
        if s in outside or not all(pair[s, t] in a.h_edges for t in outside):
            values[s] = x
    if first_violation(k, values) is not None:
        raise SplineConstructionError("selection construction failed the spline check")
    return values


def naive_cofactor_det(domain, rows):
    """First-row Laplace expansion; no pivoting, no shared code path."""
    n = len(rows)
    if n == 0:
        return domain.one
    if n == 1:
        return rows[0][0]
    total = domain.zero
    for c in range(n):
        a = rows[0][c]
        if domain.is_zero(a):
            continue
        minor = [row[:c] + row[c + 1:] for row in rows[1:]]
        term = domain.mul(a, naive_cofactor_det(domain, minor))
        total = total + term if c % 2 == 0 else total - term
    return total


def poly_primitive_canonical(p: IntPoly) -> IntPoly:
    """Divide out the content and force a positive leading coefficient."""
    if p.is_zero:
        return p
    c = math.gcd(*p.coeffs)
    if p.leading < 0:
        c = -c
    return IntPoly(tuple(v // c for v in p.coeffs))


def poly_pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo remainder of a by b: scale by lc(b) before every step."""
    lb = b.leading
    db = b.degree
    rem = list(a.coeffs)
    while len(rem) - 1 >= db:
        top = rem[-1]
        shift = len(rem) - 1 - db
        rem = [lb * v for v in rem]
        for j, bc in enumerate(b.coeffs):
            rem[shift + j] -= top * bc
        while rem and rem[-1] == 0:
            rem.pop()
    return IntPoly(rem)


def prs_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Reference for ``ZZX.gcd``: gcd of the contents times the last
    nonzero term of the primitive pseudo-remainder sequence."""
    if a.is_zero:
        return ZZX.canonical(b)
    if b.is_zero:
        return ZZX.canonical(a)
    c = math.gcd(*a.coeffs, *b.coeffs)
    f = poly_primitive_canonical(a)
    g = poly_primitive_canonical(b)
    if f.degree < g.degree:
        f, g = g, f
    while not g.is_zero:
        f, g = g, poly_primitive_canonical(poly_pseudo_rem(f, g))
    return c * f


def poly_exact_div(a: IntPoly, b: IntPoly) -> Optional[IntPoly]:
    """Reference for ``ZZX.exact_div``: long division over the integers,
    or None when nonzero b does not divide a."""
    if a.is_zero:
        return IntPoly()
    if a.degree < b.degree:
        return None
    rem = list(a.coeffs)
    lb = b.leading
    db = b.degree
    q = [0] * (a.degree - db + 1)
    for k in range(a.degree - db, -1, -1):
        c = rem[k + db]
        if c == 0:
            continue
        if c % lb:
            return None
        f = c // lb
        q[k] = f
        for j, bc in enumerate(b.coeffs):
            rem[k + j] -= f * bc
    if any(rem):
        return None
    return IntPoly(q)


def prs_lcm(a: IntPoly, b: IntPoly) -> IntPoly:
    """Reference for ``ZZX.lcm``: ``(a·b) / gcd`` through the oracles."""
    if a.is_zero or b.is_zero:
        return IntPoly()
    return ZZX.canonical(poly_exact_div(a * b, prs_gcd(a, b)))


def enumerate_trails(g: LabeledGraph, start: int, end: int,
                     max_trails: int = DEFAULT_TRAIL_LIMIT) -> list[Trail]:
    """Every trail from ``start`` to ``end``, lexicographic by edge indices.

    Exponential in the graph size; the package lists only the reduced
    zero trails (``zero_trails``), and the tests use this full listing to
    check them.

    A walk that reaches ``end`` is recorded and then extended further,
    since trails may pass through their endpoint and return to it.
    """
    if start == end:
        raise ValueError("trail endpoints must differ")
    results: list[Trail] = []
    used = [False] * g.m
    path_vertices = [start]
    path_edges: list[int] = []

    def visit(v: int) -> None:
        for edge_index, w in g.neighbors(v):
            if used[edge_index]:
                continue
            used[edge_index] = True
            path_edges.append(edge_index)
            path_vertices.append(w)
            if w == end:
                if len(results) >= max_trails:
                    raise TrailLimitError(
                        f"more than {max_trails} trails; raise the cap to continue"
                    )
                results.append(Trail(tuple(path_edges), tuple(path_vertices),
                                     g.domain.gcd_all(g.edges[k].label for k in path_edges)))
            visit(w)
            path_vertices.pop()
            path_edges.pop()
            used[edge_index] = False

    visit(start)
    return results


def brute_zero_trails(g: LabeledGraph, i: int):
    """Zero trails by definition: every trail to every earlier vertex,
    pruned by strict edge-set containment, one representative per set.

    Returns the sorted list of edge-index tuples.
    """
    candidates = []
    for j in range(i):
        candidates.extend(t.edges for t in enumerate_trails(g, i, j))
    by_set = {}
    for edges in sorted(candidates):
        by_set.setdefault(frozenset(edges), edges)
    survivors = []
    for es, rep in by_set.items():
        if not any(other < es for other in by_set):
            survivors.append(rep)
    return sorted(survivors)


def reference_path_closure(g: LabeledGraph, i: int):
    """Reference for ``splines.path_closure``: the same worklist, which
    also takes the gcd of every walk back into ``i`` before the zero kept
    at ``i`` drops it."""
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
        raise DisconnectedGraphError(f"vertex {i} has no trail to any earlier vertex")
    return lead, reach


def trail_leading_value(g: LabeledGraph, i: int):
    """Leading value by definition: lcm over the zero trails of their gcds.

    Reference for the path closure in ``splines.leading_value``; takes
    factorial time on dense graphs.
    """
    if i == 0:
        return g.domain.one
    trails = zero_trails(g, i)
    if not trails:
        raise DisconnectedGraphError(f"vertex {i} has no zero trail")
    return g.domain.lcm_all(t.gcd for t in trails)


@dataclass(frozen=True)
class TrailFactors:
    """Quotients label/trail-gcd for one zero trail of length > 1."""

    trail: Trail
    factors: tuple


def trail_factor_sets(g: LabeledGraph, i: int) -> list[TrailFactors]:
    """Factor sets of the long zero trails of vertex ``i``.

    The factors of one trail always have unit gcd, since the trail gcd has
    been divided out of every label.  Reference for the factors that
    ``minimal_selections`` computes for the chosen edges only.
    """
    if not 1 <= i < g.n:
        raise ValueError(f"vertex index {i} out of range")
    d = g.domain
    out = []
    for t in zero_trails(g, i):
        if len(t.edges) <= 1:
            continue
        factors = tuple(d.exact_div(g.edges[k].label, t.gcd) for k in t.edges)
        out.append(TrailFactors(t, factors))
    return out


def minimal_hitting_sets(trail_keysets: list[tuple[int, ...]]) -> list[frozenset[int]]:
    """All inclusion-minimal key sets meeting every listed key set.

    Branches on the first unhit set; a branch whose partial set already
    contains a recorded hitting set cannot lead to a new minimal one.
    """
    found: list[frozenset[int]] = []

    def extend(chosen: frozenset[int]) -> None:
        target = None
        for ks in trail_keysets:
            if not any(k in chosen for k in ks):
                target = ks
                break
        if target is None:
            found.append(chosen)
            return
        for k in target:
            nxt = chosen | {k}
            if any(f <= nxt for f in found):
                continue
            extend(nxt)

    extend(frozenset())
    unique = set(found)
    minimal = [s for s in unique if not any(o < s for o in unique)]
    return sorted(minimal, key=lambda s: tuple(sorted(s)))


def hitting_set_selections(g: LabeledGraph, i: int) -> list[Selection]:
    """``minimal_selections`` by the minimal hitting sets of the long
    trails' label keys (a key is the smallest edge index carrying a
    label's canonical associate), in the order of their sorted keys.

    Reference for the label-cut enumeration in ``splines``; exponential in
    the number of trails.
    """
    d = g.domain
    key: dict = {}
    for index, e in enumerate(g.edges):
        key.setdefault(d.canonical(e.label), index)
    keysets = [
        tuple(sorted({key[d.canonical(g.edges[k].label)] for k in t.edges}))
        for t in zero_trails(g, i) if len(t.edges) > 1
    ]
    return [selection_from_labels(g, i, [g.edges[k].label for k in sorted(s)])
            for s in minimal_hitting_sets(keysets)]


def checked_minimal_keysets(at, check: bool = True) -> list[frozenset[int]]:
    """``_VertexSelections.minimal_keysets`` with the leaf check run at
    every leaf: one ``escaping`` search per cut key, whatever labels the
    cut holds.  With ``check=False`` every leaf is kept instead, which
    shows where the check drops a cut.
    """
    g, i, key = at.graph, at.vertex, at.edge_key
    adj = [[(key[k], w) for k, w in g.neighbors(v) if max(v, w) > i] for v in range(g.n)]
    exits = [(v, keys) for v in range(i, g.n)
             if (keys := {k for k, w in adj[v] if w < i})]

    def escaping(side: frozenset, cut: frozenset) -> set[int]:
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
            if not check or all(i in escaping(frozenset(), cut - {k}) for k in cut):
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


def reference_select(at, keyset: frozenset[int]) -> Selection:
    """``_VertexSelections.select`` without bit masks or kept quotients:
    each trail takes ``min`` of its edges' intersection with the selected
    ones, each factor is one ``exact_div``, and the product is
    ``Domain.product`` over every factor."""
    g, d, trails, key = at.graph, at.graph.domain, at.trails, at.edge_key
    h_edges = frozenset(e for e, k in enumerate(key) if k in keyset)
    choice = []
    for t in trails:
        common = h_edges.intersection(t.edges)
        if not common:
            raise ValueError(
                "label set misses the trail through "
                + "-".join(g.vertex_names[v] for v in t.vertices)
            )
        choice.append(min(common))
    if len({key[e] for e in choice}) < len(keyset):
        choice = _repair(trails, choice, keyset, key)
    factors = tuple(
        d.exact_div(g.edges[e].label, t.gcd) for t, e in zip(trails, choice)
    )
    product = d.canonical(d.product(factors))
    return Selection(
        graph=g,
        vertex=at.vertex,
        trails=trails,
        chosen=tuple(choice),
        factors=factors,
        labels=tuple(d.canonical(g.edges[k].label) for k in sorted(keyset)),
        product=product,
        value=d.canonical(d.mul(product, at.lead)),
        h_edges=h_edges,
    )


def count_trails_dp(g: LabeledGraph, start: int, end: int) -> int:
    """Number of trails via memoized counting over (vertex, used-edge set)."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def walk(v: int, used: int) -> int:
        total = 0
        for k, w in g.neighbors(v):
            bit = 1 << k
            if used & bit:
                continue
            total += (w == end) + walk(w, used | bit)
        return total

    return walk(start, 0)


def random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """Product of elementary integer operations; determinant is +-1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if op == 0 and i != j:
            c = rng.randint(-3, 3)
            for r in range(n):
                m[r][i] += c * m[r][j]
        elif op == 1 and i != j:
            for r in range(n):
                m[r][i], m[r][j] = m[r][j], m[r][i]
        else:
            for r in range(n):
                m[r][i] = -m[r][i]
    return m


def combine_columns(splines, coef, zero=0):
    """Integer column recombination: new spline k = sum_j coef[j][k] * F_j;
    ``zero`` is the domain's zero."""
    n = len(splines[0])
    out = []
    for k in range(len(splines)):
        out.append([
            sum((coef[j][k] * splines[j][r] for j in range(len(splines))), zero)
            for r in range(n)
        ])
    return out


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def row_hermite(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row echelon form over the integers with unimodular row operations.

    Returns (h, u) with u * mat == h, pivots positive, entries above each
    pivot reduced into [0, pivot), and zero rows at the bottom.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    h = [list(r) for r in mat]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = None
        for rr in range(r, rows):
            if h[rr][c]:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            h[r], h[pivot_row] = h[pivot_row], h[r]
            u[r], u[pivot_row] = u[pivot_row], u[r]
        for rr in range(r + 1, rows):
            if not h[rr][c]:
                continue
            g, x, y = xgcd(h[r][c], h[rr][c])
            pa, pb = h[r][c] // g, h[rr][c] // g
            h[r], h[rr] = (
                [x * s + y * t for s, t in zip(h[r], h[rr])],
                [-pb * s + pa * t for s, t in zip(h[r], h[rr])],
            )
            u[r], u[rr] = (
                [x * s + y * t for s, t in zip(u[r], u[rr])],
                [-pb * s + pa * t for s, t in zip(u[r], u[rr])],
            )
        if h[r][c] < 0:
            h[r] = [-v for v in h[r]]
            u[r] = [-v for v in u[r]]
        for rr in range(r):
            q = h[rr][c] // h[r][c]
            if q:
                h[rr] = [s - q * t for s, t in zip(h[rr], h[r])]
                u[rr] = [s - q * t for s, t in zip(u[rr], u[r])]
        r += 1
    return h, u


def kernel_flowup_basis(g: LabeledGraph) -> list[list[int]]:
    """Flow-up basis of the integer spline lattice, the kernel way.

    Reference for ``basis.flowup_basis``: the lattice is the projection of
    the kernel of the edge-difference system augmented with
    label-multiplied slack columns, found by a row Hermite form that
    tracks its unimodular transform, whose entries grow to thousands of
    bits by n = 16.

    Returns n splines; the k-th vanishes on the first k-1 vertices and its
    value at vertex k equals that vertex's leading value, which is checked
    and enforced.  The splines form a module basis: the lattice is solved
    exactly, not constructed greedily.
    """
    if g.domain is not ZZ:
        raise ValueError("the flow-up oracle works over the integer domain only")
    leads = leading_values(g)
    n, m = g.n, g.m
    # Kernel of [differences | -labels] picks out (values, slacks) with
    # value[u] - value[v] = label * slack on every edge.
    kt = [[0] * m for _ in range(n + m)]
    for k, e in enumerate(g.edges):
        kt[e.u][k] = 1
        kt[e.v][k] = -1
        kt[n + k][k] = -e.label
    h, u = row_hermite(kt)
    kernel = [u[r] for r in range(n + m) if not any(h[r])]
    if len(kernel) != n:
        raise InternalConsistencyError(
            f"kernel rank {len(kernel)} differs from the vertex count {n}"
        )
    projected = [row[:n] for row in kernel]
    echelon, _ = row_hermite(projected)
    for k in range(n):
        if any(echelon[k][j] for j in range(k)) or echelon[k][k] != leads[k]:
            raise InternalConsistencyError(
                "flow-up diagonal does not reproduce the leading values"
            )
    return echelon


def _hermite_column(rows: list[list[int]], entries: list[int], modulus: int,
                    M: int, width: int) -> tuple[list[int], int, list[list[int]]]:
    """One column of the Hermite elimination modulo M.

    ``entries[k]`` is the column entry of ``rows[k]``, which matters only
    modulo ``modulus``: modulus * e_c lies in the lattice and starts as the
    pivot row, with vertex part zero.  Each row with a nonzero entry meets
    the pivot in a unimodular 2x2 step.  Returns the final pivot's vertex
    part and entry, and the remainder rows, all zero in this column.  Rows
    are reduced modulo M, and zero rows are dropped.
    """
    pivot, p = [0] * width, modulus
    rest = []
    for row, a in zip(rows, entries):
        a %= modulus
        if not a:
            rest.append(row)
            continue
        if a % p == 0:
            # The general step covers this case too, but rebuilds the pivot.
            q = a // p
            row = [(s - q * t) % M for s, t in zip(row, pivot)]
        else:
            g = math.gcd(a, p)
            pa, pp = a // g, p // g
            x = pow(pa, -1, pp)
            y = (1 - pa * x) // pp
            row, pivot, p = (
                [(pp * s - pa * t) % M for s, t in zip(row, pivot)],
                [(x * s + y * t) % M for s, t in zip(row, pivot)],
                g,
            )
        if any(row):
            rest.append(row)
    return pivot, p, rest


def modular_flowup_basis(g: LabeledGraph) -> list[list[int]]:
    """Flow-up basis of the integer spline lattice by a Hermite elimination
    modulo M, the lcm of the labels.

    Reference for ``basis.flowup_basis``, the way it was computed before
    the closed-form rows: the Hermite form of the lattice in Z^(m+n), edge
    columns first, generated by one row (D e_i | e_i) per vertex, D the
    edge-difference matrix, and one row (l_e e_e | 0) per edge.  Its rows
    with pivots in the vertex columns are the flow-up basis.  Each column
    adjoins M e_c (at edge column e the edge row l_e e_e) and carries the
    remainder rows forward reduced modulo M (Domich, Kannan and Trotter
    1987; Cohen, *A Course in Computational Algebraic Number Theory*,
    Alg. 2.4.8).  A row keeps only its vertex part f and reads its entry
    at edge uv as f_u - f_v.  The diagonal is checked against the leading
    values.
    """
    if g.domain is not ZZ:
        raise ValueError("the flow-up oracle works over the integer domain only")
    leads = leading_values(g)
    n = g.n
    M = ZZ.lcm_all(e.label for e in g.edges)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for e in g.edges:
        entries = [f[e.u] - f[e.v] for f in rows]
        _, _, rows = _hermite_column(rows, entries, abs(e.label), M, n)
    basis = []
    for c in range(n):
        pivot, p, rows = _hermite_column(rows, [f[c] for f in rows], M, M, n)
        pivot[c] = p
        basis.append(pivot)
    _reduce_above_diagonal(basis)
    if [basis[k][k] for k in range(n)] != leads:
        raise InternalConsistencyError(
            "flow-up diagonal does not reproduce the leading values"
        )
    return basis


def _reduce_above_diagonal(basis: list[list[int]]) -> None:
    """Reduce, in place, every entry of a triangular basis right of the
    diagonal into [0, pivot) of its column: the unique Hermite form."""
    for c in range(len(basis)):
        for k in range(c):
            q = basis[k][c] // basis[c][c]
            if q:
                basis[k][c:] = [s - q * t for s, t in zip(basis[k][c:], basis[c][c:])]


def _valuation(x: int, c: int) -> tuple[int, int]:
    """(v, x / c^v) for the largest v with c^v | x, in O(log v) divisions:
    v is twice the valuation at c^2, plus one when c still divides."""
    if x % c:
        return 0, x
    w, y = _valuation(x, c * c)
    return (2 * w + 1, y // c) if y % c == 0 else (2 * w, y)


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers above one whose powers multiply to each
    of ``values`` (positive integers), by factor refinement (Bach, Driscoll
    and Shallit 1993).  A value sharing a factor g = gcd with a base
    element b loses every power of g; b, unless it is g, is replaced by g
    and by b without its powers of g, which are refined in turn."""
    base: list[int] = []
    for x in values:
        pending = [x]
        while pending:
            a, pos = pending.pop(), 0
            while a > 1 and pos < len(base):
                b = base[pos]
                g = math.gcd(a, b)
                if g == 1:
                    pos += 1
                    continue
                if g != b:
                    base[pos] = base[-1]
                    base.pop()
                    pending += (_valuation(b, g)[1], g)
                a = _valuation(a, g)[1]
            if a > 1:
                base.append(a)
    return base


def _closed_form_rows(g: LabeledGraph, leads: list[int]) -> tuple[list[dict[int, int]], int]:
    """Triangular rows of the lattice with the leading values on the
    diagonal, each a dict from vertex to entry, and M = lcm of the labels.

    The lattice modulo M splits over a coprime base of the labels
    (Bowden and Tymoczko, "Splines mod m").  For a base element c, let
    beta_k(c) be the largest valuation t at which k reaches an earlier
    vertex through the edges with v_c >= t, and C_k(c) the component of k
    in the edges with v_c > beta_k(c).  Row k is lead_k at k and lead_k
    times the sum of the idempotents E_c (1 mod c^A_c, 0 mod M / c^A_c)
    over the c with j in C_k(c) at each later j; the product of the
    c^beta_k(c) must reproduce lead_k.

    Per base element c and each valuation t that occurs, vertices join a
    union-find in decreasing order over the edges with v_c >= t, and each
    component keeps its smallest neighbour across those edges.  Vertex k
    reaches an earlier vertex at t when that neighbour is below k as k
    joins.  beta_k(c) is the largest such t (zero if none), and C_k(c) is
    the component of k at the next t, the first at which it does not.
    """
    ends_of: dict[int, list[tuple[int, int]]] = {}
    for e in g.edges:
        ends_of.setdefault(abs(e.label), []).append((e.u, e.v))
    base = _coprime_base(ends_of)
    # Per base element c, its edges with v_c(label) >= 1 and that valuation.
    edges_of: dict[int, list[tuple[int, int, int]]] = {c: [] for c in base}
    for x, ends in ends_of.items():
        for c in base:
            v, x = _valuation(x, c)
            if v:
                edges_of[c] += [(u, w, v) for u, w in ends]
    # The components change only at the valuations that occur.
    levels = {c: sorted({v for _, _, v in edges}) for c, edges in edges_of.items()}
    M = math.prod(c ** ts[-1] for c, ts in levels.items())
    rows = [{k: lead} for k, lead in enumerate(leads)]
    found = [1] * g.n
    for c, edges in edges_of.items():
        q = c ** levels[c][-1]
        idem = M // q * pow(M // q, -1, q)
        reached, below = None, 0
        for t in levels[c]:
            step, below = c ** (t - below), t
            adj: dict[int, list[int]] = {}
            for u, w, v in edges:
                if v >= t:
                    adj.setdefault(u, []).append(w)
                    adj.setdefault(w, []).append(u)
            parent: dict[int, int] = {}
            low: dict[int, int] = {}
            members: dict[int, list[int]] = {}
            now = set()
            for k in sorted(adj, reverse=True):
                root = parent[k] = k
                low[k] = min(adj[k])
                members[k] = [k]
                for w in adj[k]:
                    if w < k:
                        continue
                    while parent[w] != w:
                        parent[w] = w = parent[parent[w]]
                    if w == root:
                        continue
                    if len(members[w]) > len(members[root]):
                        root, w = w, root
                    parent[w] = root
                    members[root] += members.pop(w)
                    low[root] = min(low[root], low.pop(w))
                if low[root] < k:
                    now.add(k)
                    found[k] *= step
                elif reached is None or k in reached:
                    s = leads[k] * idem % M
                    row = rows[k]
                    for j in members[root]:
                        if j != k:
                            row[j] = (row.get(j, 0) + s) % M
            reached = now
    if found != leads:
        raise InternalConsistencyError(
            "flow-up diagonal does not reproduce the leading values"
        )
    return rows, M


def localised_flowup_basis(g: LabeledGraph) -> list[list[int]]:
    """Flow-up basis of the integer spline lattice from rows localised at
    a coprime base of the labels.

    Reference for ``basis.flowup_basis``, the way it was computed before
    the rows were read off the path closure's reach map: a coprime base by
    factor refinement, then one union-find sweep per base element and
    valuation (``_closed_form_rows``), and one dense reduction.
    """
    if g.domain is not ZZ:
        raise ValueError("the flow-up oracle works over the integer domain only")
    rows, _ = _closed_form_rows(g, leading_values(g))
    basis = [[row.get(j, 0) for j in range(g.n)] for row in rows]
    _reduce_above_diagonal(basis)
    return basis


def hermite_span_coordinates(g: LabeledGraph, basis: Sequence[Sequence[int]],
                             f: Sequence[int]) -> Optional[list[int]]:
    """Integer coordinates of ``f`` in the span of ``basis``, or None.

    Reference for ``basis.span_coordinates``, read off the transform of
    the Hermite form.

    The basis vectors must be linearly independent; the system is solved
    exactly through the Hermite form.
    """
    if g.domain is not ZZ:
        raise ValueError("span coordinates are computed over the integers only")
    rows = [list(map(g.domain.coerce, b)) for b in basis]
    if len(f) != g.n or any(len(b) != g.n for b in rows):
        raise ValueError("vector lengths must match the vertex count")
    h, u = row_hermite(rows)
    if any(not any(row) for row in h):
        raise ValueError("basis vectors are linearly dependent")
    pivots = [next(j for j, v in enumerate(row) if v) for row in h]
    rem = list(f)
    y = [0] * len(rows)
    k = 0
    for c in range(g.n):
        if k < len(pivots) and pivots[k] == c:
            q, r = divmod(rem[c], h[k][c])
            if r:
                return None
            y[k] = q
            if q:
                rem = [s - q * t for s, t in zip(rem, h[k])]
            k += 1
        elif rem[c]:
            return None
    return [sum(y[k] * u[k][j] for k in range(len(rows))) for j in range(len(rows))]
