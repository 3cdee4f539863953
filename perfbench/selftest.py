"""Self-test of the benchmark's oracles and checks.

    python3 perfbench/selftest.py

Each oracle must agree with the program on a few small graphs, one pass
of every workload must check clean (the dense path-600 operation aside),
and every check must reject a planted wrong value.  Exits 1 on the first
disagreement.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from functools import reduce

import run as bench
from oracles import (
    Mismatch,
    det_fraction,
    format_value,
    minimal_hitting_sets,
    parse_value,
    peval,
    pscale,
    spline_matrix,
    value,
    vadd,
    zero_trail_count_complete,
)
from workloads import WORKLOADS, Poly, complete_int, complete_poly, sparse_int

sys.path.insert(0, str(bench.ROOT / "src"))
import graphsplines as gs  # noqa: E402


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def program_value(x):
    return x.coeffs if isinstance(x, gs.IntPoly) else x


def oracles_agree_with_program():
    rng = random.Random("selftest")
    models = [sparse_int(n, n + n // 2, rng) for n in range(4, 10)]
    models += [complete_poly(n, rng, rng) for n in (4, 5, 6)]
    for m in models:
        g = gs.load_graph(m.document())
        check(m.lead_values() == [program_value(x) for x in gs.leading_values(g)],
              f"closure leads = program leads on {m.domain} n={m.n} m={len(m.edges)}")
        check(all(sorted(m.zero_paths(i)) == sorted(t.vertices for t in gs.zero_trails(g, i))
                  for i in range(1, m.n)),
              f"own zero paths = program zero trails on {m.domain} n={m.n}")

    for n in (4, 6, 8):
        g = gs.load_graph(complete_int(n, rng).document())
        check(all(len(gs.zero_trails(g, i)) == zero_trail_count_complete(n, i)
                  for i in range(1, n)), f"closed-form zero-trail count on K{n}")

    for n in range(1, 8):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        check(det_fraction(rows) == gs.determinant(gs.ZZ, rows),
              f"rational-elimination determinant = program on {n}x{n}")

    poly = Poly(seed=7)
    for key, rows in poly.candidate_rows.items():
        det = pscale(poly.candidate_sign[key],
                     value(reduce(vadd, poly.block_vecs[key], {}), "intpoly"))
        s = spline_matrix(rows)
        bound = sum(max(len(x) for x in col) for col in zip(*s))
        check(all(det_fraction([[peval(x, t) for x in r] for r in s]) == peval(det, t)
                  for t in range(bound + 1)),
              f"constructed determinant = rational elimination at {bound + 1} points on {key}")

    for n in (5, 6):
        m = complete_int(n, rng)
        g = gs.load_graph(m.document())
        edge_of = {m.label(k): k for k in range(len(m.edges))}
        for i in range(1, n - 1):
            got = {sum(1 << edge_of[lab] for lab in s.labels)
                   for s in gs.minimal_selections(g, i)}
            want = minimal_hitting_sets([sum(1 << k for k in m.path_edges(p))
                                         for p in m.zero_paths(i) if len(p) > 2])
            check(got == want, f"brute-force minimal hitting sets = program on K{n} vertex {i}")


def doubled(text, domain):
    x = parse_value(text, domain)
    return format_value(2 * x if domain == "int" else pscale(2, x), domain)


def json_mutation(fn):
    def mutate(out):
        doc = json.loads(out)
        fn(doc)
        return json.dumps(doc)
    return mutate


def _superfluous_label(doc):
    sel = doc["selections"][0]
    used = set(sel["labels"])
    for other in doc["selections"][1:]:
        extra = [lab for lab in other["labels"] if lab not in used]
        if extra:
            sel["labels"].append(extra[0])
            return
    raise SystemExit("selftest FAILED: no label to plant")


def _one_zero_to_x(doc):
    vals = doc["values"]
    x = next(v for v in vals if v != "0")
    vals[vals.index("0")] = x


def _set(key, val):
    def fn(doc):
        doc[key] = val
    return fn


PLANTED = {
    "dense": {
        "invariants:K8": ("a lead doubled", json_mutation(
            lambda d: d["leading_values"].__setitem__(3, doubled(d["leading_values"][3], "int")))),
        "trails:K8": ("a trail dropped", json_mutation(lambda d: d["trails"].pop())),
        "trails:K9": ("a trail gcd doubled", json_mutation(
            lambda d: d["trails"][5].__setitem__("gcd", doubled(d["trails"][5]["gcd"], "int")))),
    },
    "select": {
        "selections:K5@v2": ("a selection with a superfluous label",
                             json_mutation(_superfluous_label)),
        "selections:K6@v3": ("a selection dropped", json_mutation(
            lambda d: (d["selections"].pop(), d.__setitem__("count", d["count"] - 1)))),
        "construct:K6@v3#1": ("a zero of the construction set to X",
                              json_mutation(_one_zero_to_x)),
        "verify:K6@v3#0": ("a spline reported as not one", json_mutation(_set("is_spline", False))),
    },
    "lattice": {
        "flowup:G11": ("a diagonal entry doubled", json_mutation(
            lambda d: d["splines"][4]["values"].__setitem__(
                4, doubled(d["splines"][4]["values"][4], "int")))),
        "check-basis:G12/scaled": ("a non-basis reported as a basis",
                                   json_mutation(_set("is_basis", True))),
        "check-basis:G10/recombined": ("the determinant negated", json_mutation(
            lambda d: d.__setitem__("determinant", str(-int(d["determinant"]))))),
        "span:G10/member": ("a coordinate off by one", lambda out: [out[0] + 1] + out[1:]),
        "span:G13/off-lattice": ("an off-lattice vector given coordinates",
                                 lambda out: [0] * 13),
    },
    "poly": {
        "invariants:PK6": ("a lead doubled", json_mutation(
            lambda d: d["leading_values"].__setitem__(
                2, doubled(d["leading_values"][2], "intpoly")))),
        "trails:PK7": ("a trail gcd doubled", json_mutation(
            lambda d: d["trails"][0].__setitem__("gcd", doubled(d["trails"][0]["gcd"], "intpoly")))),
        "check-basis:PK6": ("the quotient doubled", json_mutation(
            lambda d: d.__setitem__("quotient", doubled(d["quotient"], "intpoly")))),
    },
}
EXPECTED_FAILURES = {"dense": ["invariants:P600"]}


def checks_catch_planted_errors():
    for name, cls in WORKLOADS.items():
        workdir = bench.ROOT / ".perfbench" / "work" / f"selftest-{name}"
        try:
            _, workload, env = bench.setup(cls, 3, workdir)
            workload.prepare()
            ops = {op.name: op for op in workload.batch(env)}
            _, failures, wrong = bench.run_pass(list(ops.values()), env)
            check(not wrong and failures == EXPECTED_FAILURES.get(name, []),
                  f"{name}: one pass checks clean ({len(ops)} operations, failed {failures})")
            for op_name, (what, mutate) in PLANTED[name].items():
                op = ops[op_name]
                if op.before is not None:
                    op.before()
                code, out, _ = op.call()
                op.check(code, out)
                try:
                    op.check(code, mutate(out))
                except Mismatch:
                    caught = True
                else:
                    caught = False
                check(caught, f"{name}: {op_name} with {what} is caught")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    oracles_agree_with_program()
    checks_catch_planted_errors()
    print("selftest passed")
