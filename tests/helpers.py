"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive results through different
algorithms than the package uses: determinants by first-row cofactor
expansion, zero trails by full trail enumeration plus explicit edge-set
pruning, leading values from the listed zero trails, and trail counts by
dynamic programming over used-edge sets.
"""

import itertools
import random

from graphsplines import (
    DisconnectedGraphError,
    LabeledGraph,
    completion,
    enumerate_trails,
    load_graph,
    zero_trails,
)


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
        total = domain.add(total, term) if c % 2 == 0 else domain.sub(total, term)
    return total


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


def combine_columns(splines, coef):
    """Integer column recombination: new spline k = sum_j coef[j][k] * F_j."""
    n = len(splines[0])
    out = []
    for k in range(len(splines)):
        out.append([
            sum(coef[j][k] * splines[j][r] for j in range(len(splines)))
            for r in range(n)
        ])
    return out


def completion_pair(g):
    return g, completion(g)
