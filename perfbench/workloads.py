"""The four workloads: seeded inputs, the fixed batch of one pass, and a
check of every operation's output against the oracles.

Each workload names its lightest operation (the per-call cost of reading
JSON, argparse, parsing labels and formatting output) and its heaviest
(the instance nearest today's wall).  CLI operations run ``--format json``
so their output can be read back; vertex arguments are 1-based.
"""

from __future__ import annotations

import itertools
import json
import random
from functools import reduce

from oracles import (
    Model,
    combine,
    det_fraction,
    expect,
    format_value,
    is_minimal_hitting,
    minimal_hitting_sets,
    parse_int,
    parse_poly,
    pscale,
    spline_matrix,
    unimodular,
    vadd,
    value,
    vmax,
    vsub,
    zero_trail_count_complete,
)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97)


class Op:
    """One operation of a pass.  ``before`` prepares inputs that depend on
    earlier outputs of the same pass and runs outside the timed call."""

    def __init__(self, name, call, check, before=None):
        self.name = name
        self.call = call
        self.check = check
        self.before = before


def cli_op(env, name, argv, check, before=None):
    return Op(name, lambda: env.cli(argv + ["--format", "json"]), check, before)


def complete_int(n, rng):
    """K_n whose labels are distinct products of two primes."""
    pairs = rng.sample(list(itertools.combinations(PRIMES[:12], 2)), n * (n - 1) // 2)
    return Model("int", n, [(u, v, {p: 1, q: 1}) for (u, v), (p, q)
                            in zip(itertools.combinations(range(n), 2), pairs)])


def complete_poly(n, shape_rng, rng):
    """K_n labelled c * (x - a1)...(x - ak), k in 1..3, c in {1, 2, 3, 5, 6}.

    Which edges share which factors comes from ``shape_rng``; ``rng``
    only permutes the roots and the constant primes.  Seeds then change
    every label but not the gcd structure, whose cost varies widely.
    """
    roots = rng.sample(range(-4, 5), 9)
    consts = rng.sample((2, 3, 5), 3)
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        vec = {("x", roots[s]): 1 for s in shape_rng.sample(range(9), shape_rng.randint(1, 3))}
        for s in shape_rng.choice(((), (0,), (1,), (2,), (0, 1))):
            vec[consts[s]] = 1
        edges.append((u, v, vec))
    return Model("intpoly", n, edges)


def sparse_int(n, m, rng):
    """Connected graph: a random spanning tree plus random extra edges,
    labels products of 1-3 primes below 100 up to 10^4."""
    pairs = {(rng.randrange(k), k) for k in range(1, n)}
    while len(pairs) < m:
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    edges = []
    for u, v in sorted(pairs):
        while True:
            atoms = rng.sample(PRIMES, rng.randint(1, 3))
            if value({p: 1 for p in atoms}, "int") <= 10 ** 4:
                break
        edges.append((u, v, {p: 1 for p in atoms}))
    return Model("int", n, edges)


# --- checks ------------------------------------------------------------
# A check takes (exit code, output) and raises Mismatch (or fails to read
# the output) when the output disagrees with the oracles.

def check_invariants(m):
    def check(code, out):
        expect(code == 0, f"exit {code}")
        doc = json.loads(out)
        leads = doc["leading_values"]
        expect(len(leads) == m.n, "wrong number of leading values")
        for i, text in enumerate(leads):
            expect(m.parse(text) == m.lead_value(i), f"leading value of {m.names[i]}")
        expect(m.parse(doc["q_g"]) == m.value(m.q_vec()), "q_g")
    return check


def check_trails(m, i):
    """Zero trails of vertex i on a complete graph: the closed-form count,
    each a simple path through later vertices with the right edges and gcd."""
    def check(code, out):
        expect(code == 0, f"exit {code}")
        doc = json.loads(out)
        expect(doc["vertex"] == m.names[i], "vertex name")
        trails = doc["trails"]
        expect(len(trails) == zero_trail_count_complete(m.n, i), "zero-trail count")
        seen = set()
        for t in trails:
            path = tuple(m.index[name] for name in t["path"])
            expect(path[0] == i and path[-1] < i, f"trail endpoints {path}")
            expect(all(v > i for v in path[1:-1]) and len(set(path)) == len(path),
                   f"trail {path} is not a simple path through later vertices")
            expect(len(t["edges"]) == len(path) - 1, f"edges of trail {path}")
            for (a, b), e in zip(zip(path, path[1:]), t["edges"]):
                k = m.edge_between(a, b)
                expect(e["index"] == k and {e["u"], e["v"]} == {m.names[a], m.names[b]}
                       and m.parse(e["label"]) == m.label(k), f"edge {e} of trail {path}")
            expect(m.parse(t["gcd"]) == m.value(m.path_gcd(path)), f"gcd of trail {path}")
            seen.add(path)
        expect(len(seen) == len(trails), "duplicate trails")
    return check


def check_selections(m, i, brute, ctx, key):
    """Minimal selections at vertex i of a distinct-label complete graph.

    Stores (edge mask, value vector) per listed selection in ``ctx[key]``.
    """
    long_paths = sorted(p for p in m.zero_paths(i) if len(p) > 2)
    trail_masks = [sum(1 << k for k in m.path_edges(p)) for p in long_paths]
    edge_of_label = {m.label(k): k for k in range(len(m.edges))}

    def check(code, out):
        expect(code == 0, f"exit {code}")
        doc = json.loads(out)
        sels = doc["selections"]
        expect(doc["count"] == len(sels) >= 1, "selection count")
        found = []
        for s in sels:
            edges = [edge_of_label.get(m.parse(text)) for text in s["labels"]]
            expect(None not in edges, f"selection labels {s['labels']} not on the graph")
            mask = sum(1 << k for k in set(edges))
            expect(len(set(edges)) == len(edges), "repeated label in a selection")
            expect(is_minimal_hitting(mask, trail_masks),
                   f"labels {s['labels']} are not a minimal hitting set of the long trails")
            paths = [tuple(m.index[name] for name in c["path"]) for c in s["choices"]]
            expect(sorted(paths) == long_paths, "choices do not cover the long trails once each")
            product = {}
            for c, path in zip(s["choices"], paths):
                k = c["chosen_edge"]["index"]
                expect(k in m.path_edges(path) and mask >> k & 1,
                       f"chosen edge {k} is not a selected edge of {path}")
                factor = vsub(m.edges[k][2], m.path_gcd(path))
                expect(m.parse(c["factor"]) == m.value(factor), f"factor on {path}")
                product = vadd(product, factor)
            expect(m.parse(s["product"]) == m.value(product), "selection product")
            x = vadd(product, m.leads[i])
            expect(m.parse(s["value"]) == m.value(x), "selection value")
            found.append((mask, x))
        masks = [mask for mask, _ in found]
        expect(len(set(masks)) == len(masks), "duplicate selections")
        if brute is not None:
            expect(set(masks) == brute, "selections differ from brute force")
        ctx[key] = found
    return check


def check_construct(m, i, sid, ctx, sel_key, key):
    """Two-valued spline of selection ``sid``: zero exactly on the earlier
    vertices and the later vertices whose edge to i is selected."""
    def check(code, out):
        expect(code == 0, f"exit {code}")
        expect(sel_key in ctx and sid < len(ctx[sel_key]), "no selection to compare with")
        mask, x = ctx[sel_key][sid]
        values = [parse_int(v) for v in json.loads(out)["values"]]
        zeros = set(range(i)) | {s for s in range(i + 1, m.n)
                                 if mask >> m.edge_between(i, s) & 1}
        want = [0 if v in zeros else m.value(x) for v in range(m.n)]
        expect(values == want, f"construction {values} differs from the zero set {sorted(zeros)}")
        expect(m.is_spline(values), "construction is not a spline")
        ctx[key] = (out, values)
    return check


def check_verify(m, ctx, key):
    def check(code, out):
        _, values = ctx[key]
        expect(code == 0, f"exit {code}")
        doc = json.loads(out)
        expect(doc["is_spline"] is True and len(doc["edges"]) == len(m.edges),
               "verify rejected a spline")
        for k, e in enumerate(doc["edges"]):
            u, v, _ = m.edges[k]
            expect(e["ok"] is True and e["index"] == k
                   and parse_int(e["difference"]) == values[u] - values[v],
                   f"verify report for edge {k}")
    return check


def check_basis_verdict(expected):
    """``expected()`` gives (determinant, q_g, quotient, is_basis) values."""
    def check(code, out):
        det, q, quotient, is_basis = expected()
        expect(code == (0 if is_basis else 1), f"exit {code}")
        doc = json.loads(out)
        expect(doc["is_basis"] is is_basis, "basis verdict")
        parse = parse_int if isinstance(det, int) else parse_poly
        expect(parse(doc["determinant"]) == det, "determinant")
        expect(parse(doc["q_g"]) == q, "q_g")
        expect(parse(doc["quotient"]) == quotient, "quotient")
    return check


def write_splines(env, prefix, rows, domain):
    for k, row in enumerate(rows):
        env.write(f"{prefix}-{k}", {"values": [format_value(v, domain) for v in row]})


# --- workloads ---------------------------------------------------------

class Workload:
    models: dict

    def documents(self):
        return {key: m.document() for key, m in self.models.items()}

    def prepare(self):
        """Oracle work done once per run, outside every timed region."""
        for m in self.models.values():
            m.lead_values()


class Dense(Workload):
    """Zero-trail enumeration on distinct-label complete graphs, plus the
    600-vertex path whose q_g has more than 4300 digits."""

    name = "dense"
    light = "trails:K7"
    heavy = "invariants:K10"
    sizes = (7, 8, 9, 10)
    path_n = 600
    path_label = 10 ** 9 + 7

    def __init__(self, seed):
        rng = random.Random(f"dense:{seed}")
        self.models = {f"K{n}": complete_int(n, rng) for n in self.sizes}
        self.models["P600"] = Model("int", self.path_n, [
            (k, k + 1, {self.path_label: 1}) for k in range(self.path_n - 1)])

    def batch(self, env):
        ops = []
        for n in self.sizes:
            key, i = f"K{n}", n // 2
            m = self.models[key]
            ops.append(cli_op(env, f"invariants:{key}",
                              ["invariants", "--graph", env.doc(key)], check_invariants(m)))
            ops.append(cli_op(env, f"trails:{key}",
                              ["trails", "--graph", env.doc(key), "--vertex", str(i + 1)],
                              check_trails(m, i)))
        # Fails on every pass today: cli formats q_g with str(), which
        # raises past the interpreter's 4300-digit limit, so it exits 2.
        ops.append(cli_op(env, "invariants:P600", ["invariants", "--graph", env.doc("P600")],
                          check_invariants(self.models["P600"])))
        return ops


class Select(Workload):
    """Minimal selections (hitting-set search) and the two-valued
    construction on distinct-label complete graphs."""

    name = "select"
    light = "verify:K6@v3#0"
    heavy = "selections:K6@v2"
    plan = ((5, (2, 3, 4)), (6, (2, 3, 4, 5)), (7, (4, 5, 6)))
    construct_at = ("K6", 3)
    brute_force_up_to = 6

    def __init__(self, seed):
        rng = random.Random(f"select:{seed}")
        self.models = {f"K{n}": complete_int(n, rng) for n, _ in self.plan}

    def prepare(self):
        super().prepare()
        self.brute = {}
        for n, vertices in self.plan:
            if n > self.brute_force_up_to:
                continue
            m = self.models[f"K{n}"]
            for v in vertices:
                long_masks = [sum(1 << k for k in m.path_edges(p))
                              for p in m.zero_paths(v - 1) if len(p) > 2]
                self.brute[(f"K{n}", v)] = minimal_hitting_sets(long_masks)

    def batch(self, env):
        ctx = env.ctx
        ops = []
        for n, vertices in self.plan:
            key = f"K{n}"
            for v in vertices:
                name = f"selections:{key}@v{v}"
                ops.append(cli_op(
                    env, name, ["selections", "--graph", env.doc(key), "--vertex", str(v)],
                    check_selections(self.models[key], v - 1, self.brute.get((key, v)),
                                     ctx, name)))
        key, v = self.construct_at
        m = self.models[key]
        sel_key = f"selections:{key}@v{v}"
        for sid in range(len(self.brute[(key, v)])):
            c_name = f"construct:{key}@v{v}#{sid}"
            ops.append(cli_op(
                env, c_name, ["construct", "--graph", env.doc(key), "--vertex", str(v),
                              "--selection", str(sid)],
                check_construct(m, v - 1, sid, ctx, sel_key, c_name)))
            doc_name = f"construct-{key}-v{v}-{sid}"

            def before(c_name=c_name, doc_name=doc_name):
                expect(c_name in ctx, f"{c_name} gave no spline to verify")
                env.write_text(doc_name, ctx[c_name][0])

            ops.append(cli_op(
                env, f"verify:{key}@v{v}#{sid}",
                ["verify", "--graph", env.doc(key), "--spline", env.doc(doc_name)],
                check_verify(m, ctx, c_name), before))
        return ops


class Lattice(Workload):
    """The integer flow-up oracle (HNF), the basis test and span membership
    on sparse graphs.  The graphs come from a fixed generator seed, because
    flowup time ranges over three orders of magnitude across random graphs
    of one size; ``--seed`` draws the recombination, the scaling and the
    span coefficients."""

    name = "lattice"
    light = "check-basis:G10/basis"
    heavy = "flowup:G14"
    sizes = (10, 11, 12, 13, 14)
    graph_seed = "lattice-graphs:6"

    def __init__(self, seed):
        graph_rng = random.Random(self.graph_seed)
        self.models = {f"G{n}": sparse_int(n, 2 * n, graph_rng) for n in self.sizes}
        rng = random.Random(f"lattice:{seed}")
        self.recombine, self.scaled, self.coeffs = {}, {}, {}
        for n in self.sizes:
            key = f"G{n}"
            self.recombine[key] = unimodular(rng, n)[0]
            self.scaled[key] = (rng.randrange(n), rng.choice((2, 3, 5, 6, 7)))
            self.coeffs[key] = [rng.randint(-3, 3) for _ in range(n)]
        self._verdicts = {}

    def prepare(self):
        super().prepare()
        for m in self.models.values():
            expect(any(m.label(k) not in (1, -1) for _, k in m.adj[m.n - 1]),
                   "the off-lattice probe needs a non-unit label at the last vertex")

    def candidates(self, key, rows, kind):
        if kind == "basis":
            return rows, 1
        if kind == "recombined":
            return combine(self.recombine[key], rows, "int"), 1
        r, c = self.scaled[key]
        return [[c * x for x in row] if k == r else row for k, row in enumerate(rows)], c

    def verdict(self, key, cands, unit_factor):
        """Determinant by rational elimination; the quotient must also be
        the one the construction predicts (+-1 for the basis and its
        recombination, +-c for the scaled basis)."""
        memo_key = (key, tuple(map(tuple, cands)))
        if memo_key not in self._verdicts:
            m = self.models[key]
            det = det_fraction(spline_matrix(cands))
            q = m.value(m.q_vec())
            expect(det % q == 0, "determinant is not a multiple of q_g")
            quotient = det // q
            expect(abs(quotient) == unit_factor, "basis quotient differs from the construction")
            self._verdicts[memo_key] = (det, q, quotient, abs(quotient) == 1)
        return self._verdicts[memo_key]

    def batch(self, env):
        ctx = env.ctx
        ops = []
        for n in self.sizes:
            key = f"G{n}"
            m = self.models[key]
            ops.append(cli_op(env, f"flowup:{key}", ["flowup", "--graph", env.doc(key)],
                              self._check_flowup(m, ctx, key)))
            for kind in ("basis", "recombined", "scaled"):
                prefix = f"{key}-{kind}"
                paths = [env.doc(f"{prefix}-{k}") for k in range(n)]
                argv = ["check-basis", "--graph", env.doc(key)]
                for p in paths:
                    argv += ["--spline", p]
                state = {}

                def before(key=key, kind=kind, prefix=prefix, state=state):
                    expect(key in ctx, f"flowup:{key} gave no basis")
                    cands, unit_factor = self.candidates(key, ctx[key], kind)
                    write_splines(env, prefix, cands, "int")
                    state["expected"] = lambda: self.verdict(key, cands, unit_factor)

                ops.append(cli_op(env, f"check-basis:{key}/{kind}", argv,
                                  check_basis_verdict(lambda state=state: state["expected"]()),
                                  before))
            ops.extend(self._span_ops(env, key, m))
        return ops

    def _check_flowup(self, m, ctx, key):
        def check(code, out):
            expect(code == 0, f"exit {code}")
            doc = json.loads(out)
            rows = [[parse_int(v) for v in s["values"]] for s in doc["splines"]]
            expect(len(rows) == m.n and all(len(r) == m.n for r in rows), "basis shape")
            for k, row in enumerate(rows):
                expect(not any(row[:k]), f"row {k} is not zero before the diagonal")
                expect(row[k] == m.lead_value(k), f"diagonal {k} is not the leading value")
                expect(m.is_spline(row), f"row {k} is not a spline")
            expect([parse_int(v) for v in doc["diagonal"]] == [r[k] for k, r in enumerate(rows)],
                   "diagonal listing")
            ctx[key] = rows
        return check

    def _span_ops(self, env, key, m):
        ctx = env.ctx
        coeffs = self.coeffs[key]
        args = {}

        def member():
            expect(key in ctx, f"flowup:{key} gave no basis")
            rows = ctx[key]
            f = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(m.n)]
            args["member"] = (rows, f)
            args["off"] = (rows, f[:-1] + [f[-1] + 1])

        def check_member(code, out):
            expect(out == coeffs, f"span coordinates {out}, built from {coeffs}")

        def check_off(code, out):
            expect(out is None, "member plus e_last reported inside the lattice")

        return [
            Op(f"span:{key}/member",
               lambda: env.lib("span_coordinates", env.graphs[key], *args["member"]),
               check_member, member),
            Op(f"span:{key}/off-lattice",
               lambda: env.lib("span_coordinates", env.graphs[key], *args["off"]),
               check_off),
        ]


class Poly(Workload):
    """ZZ[x] arithmetic: leading values, zero trails and the basis test on
    complete graphs labelled by products of linear factors."""

    name = "poly"
    light = "trails:PK6"
    heavy = "invariants:PK8"
    sizes = (6, 7, 8)
    shape_seed = "poly-shapes:1"

    def __init__(self, seed):
        rng = random.Random(f"poly:{seed}")
        shape_rng = random.Random(self.shape_seed)
        self.models = {f"PK{n}": complete_poly(n, shape_rng, rng) for n in self.sizes}
        # Candidate set per graph: the block splines F_k (zero before k,
        # L_k = lcm of the labels crossing from {<k} to {>=k} from k on),
        # recombined by a unimodular integer matrix.
        self.candidate_rows, self.candidate_sign, self.block_vecs = {}, {}, {}
        for n in self.sizes:
            key = f"PK{n}"
            m = self.models[key]
            blocks = [reduce(vmax, (vec for u, v, vec in m.edges if u < k <= v), {})
                      for k in range(n)]
            rows = [[value(blocks[k], "intpoly") if j >= k else () for j in range(n)]
                    for k in range(n)]
            u, det_u = unimodular(rng, n, spread=1)
            self.candidate_rows[key] = combine(u, rows, "intpoly")
            self.candidate_sign[key] = det_u * (-1) ** (n * (n - 1) // 2)
            self.block_vecs[key] = blocks

    def documents(self):
        docs = super().documents()
        for key, rows in self.candidate_rows.items():
            for k, row in enumerate(rows):
                docs[f"{key}-cand-{k}"] = {"values": [format_value(v, "intpoly") for v in row]}
        return docs

    def prepare(self):
        super().prepare()
        self.expected = {}
        for key, m in self.models.items():
            sign = self.candidate_sign[key]
            det_vec = reduce(vadd, self.block_vecs[key], {})
            quotient_vec = vsub(det_vec, m.q_vec())
            self.expected[key] = (pscale(sign, m.value(det_vec)), m.value(m.q_vec()),
                                  pscale(sign, m.value(quotient_vec)), not quotient_vec)

    def batch(self, env):
        ops = []
        for n in self.sizes:
            key, i = f"PK{n}", n // 2
            m = self.models[key]
            ops.append(cli_op(env, f"invariants:{key}",
                              ["invariants", "--graph", env.doc(key)], check_invariants(m)))
            ops.append(cli_op(env, f"trails:{key}",
                              ["trails", "--graph", env.doc(key), "--vertex", str(i + 1)],
                              check_trails(m, i)))
            argv = ["check-basis", "--graph", env.doc(key)]
            for k in range(n):
                argv += ["--spline", env.doc(f"{key}-cand-{k}")]
            ops.append(cli_op(env, f"check-basis:{key}", argv,
                              check_basis_verdict(lambda key=key: self.expected[key])))
        return ops


WORKLOADS = {cls.name: cls for cls in (Dense, Select, Lattice, Poly)}
