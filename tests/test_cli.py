import contextlib
import io
import itertools
import json
import hashlib
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from graphsplines import cli, flowup_basis, graphs, splines, top_spline
from graphsplines.cli import main
from graphsplines.rings import MAX_DEGREE, ZZ

DIAMOND_DOC = helpers.graph_doc("int", ["v1", "v2", "v3", "v4"], [
    ("v1", "v2", 5), ("v1", "v3", 4), ("v1", "v4", 6),
    ("v2", "v3", 2), ("v2", "v4", 9),
])

POLY_DOC = helpers.graph_doc("intpoly", ["v1", "v2", "v3"], [
    ("v1", "v2", "x"), ("v1", "v3", "x+1"), ("v2", "v3", "x^2+x"),
])


@pytest.fixture
def diamond_path(tmp_path):
    p = tmp_path / "diamond.json"
    p.write_text(json.dumps(DIAMOND_DOC))
    return str(p)


@pytest.fixture
def poly_path(tmp_path):
    p = tmp_path / "cycle.json"
    p.write_text(json.dumps(POLY_DOC))
    return str(p)


def spline_path(tmp_path, name, values):
    p = tmp_path / name
    p.write_text(json.dumps({"values": [str(v) for v in values]}))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def doc_path(tmp_path, doc, name="g.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run_python(*argv, timeout=None):
    """``python *argv`` in a child process that imports the package the
    suite imported, installed or not."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=timeout,
    )


def run_module(*argv, timeout=None):
    """``python -m graphsplines *argv`` in a child process."""
    return run_python("-m", "graphsplines", *argv, timeout=timeout)


def primes(count):
    out = []
    c = 2
    while len(out) < count:
        if all(c % p for p in out):
            out.append(c)
        c += 1
    return out


def distinct_complete_doc(n):
    names = [f"v{k}" for k in range(1, n + 1)]
    labels = iter(primes(n * (n - 1) // 2))
    return helpers.graph_doc("int", names, [
        (a, b, next(labels)) for a, b in itertools.combinations(names, 2)
    ])


def cycle_doc(n, label):
    names = [f"v{k}" for k in range(1, n + 1)]
    return helpers.graph_doc("int", names, [
        (names[k], names[(k + 1) % n], label) for k in range(n)
    ])


class TestVerify:
    def test_accepts_spline(self, capsys, tmp_path, diamond_path):
        sp = spline_path(tmp_path, "f.json", [2, 32, 34, 50])
        code, out, _ = run(capsys, "verify", "--graph", diamond_path, "--spline", sp)
        assert code == 0
        assert out.count("ok") == 5 and "spline" in out

    def test_accepts_constant(self, capsys, tmp_path, diamond_path):
        sp = spline_path(tmp_path, "f.json", [1, 1, 1, 1])
        assert run(capsys, "verify", "--graph", diamond_path, "--spline", sp)[0] == 0

    def test_rejects_with_first_edge(self, capsys, tmp_path, diamond_path):
        sp = spline_path(tmp_path, "f.json", [0, 1, 0, 0])
        code, out, _ = run(capsys, "verify", "--graph", diamond_path,
                           "--spline", sp, "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["is_spline"] is False
        assert doc["edges"][-1] == {
            "index": 0, "u": "v1", "v": "v2", "label": "5",
            "difference": "-1", "ok": False,
        }

    # The first failing edge sits inside the edge list: v1-v4 (label 6,
    # difference -1) in the diamond, v1-v3 (label x+1, difference -1) in
    # the polynomial triangle.
    @pytest.mark.parametrize("graph, values, failing", [
        ("diamond", [0, 5, 4, 1], 2),
        ("poly", ["0", "x", "1"], 1),
    ])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_lists_edges_through_the_first_failure(self, capsys, tmp_path, request,
                                                   graph, values, failing, fmt):
        g = request.getfixturevalue(f"{graph}_path")
        sp = spline_path(tmp_path, "f.json", values)
        code, out, _ = run(capsys, "verify", "--graph", g, "--spline", sp,
                           "--format", fmt)
        assert code == 1
        if fmt == "json":
            doc = json.loads(out)
            assert doc["is_spline"] is False
            assert [e["index"] for e in doc["edges"]] == list(range(failing + 1))
            assert [e["ok"] for e in doc["edges"]] == [True] * failing + [False]
            assert doc["edges"][-1]["difference"] == "-1"
        else:
            lines = out.splitlines()
            assert len(lines) == failing + 2
            assert all(": ok (" in line for line in lines[:failing])
            assert lines[failing].endswith(": FAIL (difference -1)")
            assert lines[-1] == f"not a spline: edge {lines[failing].split()[1]} fails"

    def test_parse_error_exits_2(self, capsys, tmp_path, diamond_path):
        sp = tmp_path / "bad.json"
        sp.write_text("{not json")
        code, _, err = run(capsys, "verify", "--graph", diamond_path,
                           "--spline", str(sp))
        assert code == 2 and "error:" in err

    def test_wrong_length_exits_2(self, capsys, tmp_path, diamond_path):
        sp = spline_path(tmp_path, "f.json", [1, 1])
        code, _, err = run(capsys, "verify", "--graph", diamond_path, "--spline", sp)
        assert code == 2 and "expected 4 values" in err


class TestInvariants:
    def test_diamond(self, capsys, diamond_path):
        code, out, _ = run(capsys, "invariants", "--graph", diamond_path,
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "leading_values": ["1", "30", "4", "18"],
            "q_g": "2160",
        }

    def test_polynomial(self, capsys, poly_path):
        code, out, _ = run(capsys, "invariants", "--graph", poly_path,
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["leading_values"] == ["1", "x^2 + x", "x^2 + x"]
        assert doc["q_g"] == "x^4 + 2*x^3 + x^2"

    def test_disconnected_exits_2(self, capsys, tmp_path):
        doc = helpers.graph_doc("int", ["a", "b", "c"], [("a", "b", 2)])
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "invariants", "--graph", str(p))
        assert code == 2 and "no trail" in err

    def test_text_format(self, capsys, diamond_path):
        code, out, _ = run(capsys, "invariants", "--graph", diamond_path)
        assert code == 0
        assert "lead[v2] = 30" in out and "q_g = 2160" in out

    def test_k12_distinct_primes(self, capsys, tmp_path):
        # every long zero trail has gcd one, so a lead is the product of
        # the primes on the edges to earlier vertices
        names = [f"v{k}" for k in range(1, 13)]
        pairs = list(itertools.combinations(range(12), 2))
        label = dict(zip(pairs, primes(len(pairs))))
        doc = helpers.graph_doc("int", names, [
            (names[u], names[v], label[(u, v)]) for u, v in pairs
        ])
        code, out, _ = run(capsys, "invariants", "--graph",
                           doc_path(tmp_path, doc), "--format", "json")
        assert code == 0
        leads = [1]
        for i in range(1, 12):
            leads.append(math.prod(label[(j, i)] for j in range(i)))
        assert json.loads(out) == {
            "leading_values": [str(v) for v in leads],
            "q_g": str(math.prod(label.values())),
        }

    def test_cycle_1500(self, capsys, tmp_path):
        code, out, _ = run(capsys, "invariants", "--graph",
                           doc_path(tmp_path, cycle_doc(1500, 3)),
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["leading_values"] == ["1"] + ["3"] * 1499
        assert doc["q_g"] == str(3 ** 1499)

    def test_q_g_beyond_the_int_str_digit_limit(self, capsys, tmp_path):
        p = 10 ** 9 + 7
        names = [f"v{k}" for k in range(1, 601)]
        doc = helpers.graph_doc("int", names, [
            (names[k], names[k + 1], p) for k in range(599)
        ])
        before = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "invariants", "--graph",
                           doc_path(tmp_path, doc), "--format", "json")
        assert code == 0
        assert sys.get_int_max_str_digits() == before
        sys.set_int_max_str_digits(0)
        try:
            expected = str(p ** 599)
        finally:
            sys.set_int_max_str_digits(before)
        assert len(expected) > 4300
        assert json.loads(out)["q_g"] == expected


class TestTrails:
    def test_diamond_v2(self, capsys, diamond_path):
        code, out, _ = run(capsys, "trails", "--graph", diamond_path,
                           "--vertex", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["vertex"] == "v2"
        assert [t["gcd"] for t in doc["trails"]] == ["5", "2", "3"]

    def test_vertex_required(self, capsys, diamond_path):
        for command in ("trails", "selections", "construct"):
            code, out, err = run(capsys, command, "--graph", diamond_path)
            assert code == 2 and out == "" and "--vertex" in err

    def test_vertex_range(self, capsys, diamond_path):
        code, _, err = run(capsys, "trails", "--graph", diamond_path,
                           "--vertex", "1")
        assert code == 2

    @pytest.mark.parametrize("command, n", [
        ("trails", 1), ("selections", 1), ("selections", 2), ("construct", 1), ("construct", 2),
    ])
    def test_too_few_vertices_named(self, capsys, tmp_path, command, n):
        doc = helpers.graph_doc("int", ["v1", "v2"][:n], [("v1", "v2", 7)][:n - 1])
        code, out, err = run(capsys, command, "--graph", doc_path(tmp_path, doc),
                             "--vertex", "2")
        assert code == 2 and out == ""
        assert err == ("error: zero trails need a graph with at least 2 vertices\n"
                       if command == "trails" else
                       "error: selections need a graph with at least 3 vertices\n")

    def test_cap_exits_2(self, capsys, tmp_path):
        doc = helpers.graph_doc("int", ["v1", "v2", "v3", "v4"], [
            (a, b, 2) for a, b in [("v1", "v2"), ("v1", "v3"), ("v1", "v4"),
                                   ("v2", "v3"), ("v2", "v4"), ("v3", "v4")]
        ])
        p = tmp_path / "k4.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "trails", "--graph", str(p),
                           "--vertex", "2", "--max-trails", "1")
        assert code == 2 and "raise the cap" in err

    @pytest.mark.parametrize("command", ["trails", "selections", "construct"])
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_exits_2(self, capsys, diamond_path, command, cap):
        code, out, err = run(capsys, command, "--graph", diamond_path,
                             "--vertex", "2", "--max-trails", cap)
        assert code == 2 and out == ""
        assert f"argument --max-trails: must be at least 1, got {cap}" in err

    @pytest.mark.parametrize("command", ["verify", "invariants", "check-basis", "flowup"])
    def test_cap_only_on_trail_commands(self, capsys, tmp_path, diamond_path, command):
        sp = spline_path(tmp_path, "f.json", [2, 32, 34, 50])
        argv = [command, "--graph", diamond_path, "--max-trails", "5"]
        if command == "verify":
            argv += ["--spline", sp]
        if command == "check-basis":
            argv += ["--spline", sp] * 4
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --max-trails 5" in err

    def test_cap_bounds_selections(self, capsys, diamond_path):
        argv = ["selections", "--graph", diamond_path, "--vertex", "2"]
        assert run(capsys, *argv, "--max-trails", "3")[0] == 0
        code, _, err = run(capsys, *argv, "--max-trails", "2")
        assert code == 2 and "more than 2 zero trails" in err

    @pytest.mark.parametrize("command", ["trails", "selections", "construct"])
    def test_cap_error_names_the_vertex(self, capsys, diamond_path, command):
        code, out, err = run(capsys, command, "--graph", diamond_path,
                             "--vertex", "3", "--max-trails", "1")
        assert code == 2 and out == ""
        assert ("error: vertex v3 has more than 1 zero trails; "
                "raise the cap to continue") in err

    @pytest.mark.parametrize("command", ["trails", "selections"])
    def test_complete_graph_cap_checked_before_the_walk(self, capsys, tmp_path,
                                                        monkeypatch, command):
        # K13 has about 1.1e8 zero trails at v2; the cap stops the command
        # before the walk takes a step.
        path = doc_path(tmp_path, distinct_complete_doc(13))

        def refuse(g, v):
            raise AssertionError("the walk started")

        monkeypatch.setattr(graphs.LabeledGraph, "neighbors", refuse)
        code, out, err = run(capsys, command, "--graph", path, "--vertex", "2")
        assert code == 2 and out == ""
        assert err == ("error: vertex v2 has more than 1000000 zero trails; "
                       "raise the cap to continue\n")

    def test_cycle_1500_beyond_the_recursion_limit(self, capsys, tmp_path):
        code, out, _ = run(capsys, "trails", "--graph",
                           doc_path(tmp_path, cycle_doc(1500, 3)),
                           "--vertex", "2", "--format", "json")
        assert code == 0
        trails = json.loads(out)["trails"]
        assert [len(t["path"]) for t in trails] == [2, 1500]
        assert trails[1]["path"][-1] == "v1"
        assert [t["gcd"] for t in trails] == ["3", "3"]


class TestSelections:
    def test_diamond_v2(self, capsys, diamond_path):
        code, out, _ = run(capsys, "selections", "--graph", diamond_path,
                           "--vertex", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 4
        got = {frozenset(s["labels"]) for s in doc["selections"]}
        assert got == {frozenset(p) for p in
                       [("2", "9"), ("2", "6"), ("4", "9"), ("4", "6")]}
        for s in doc["selections"]:
            assert set(s) == {"id", "vertex", "vertex_index", "labels",
                              "choices", "product", "value"}
            assert s["vertex_index"] == 2

    def test_range_error(self, capsys, diamond_path):
        code, _, _ = run(capsys, "selections", "--graph", diamond_path,
                         "--vertex", "4")
        assert code == 2

    def test_k8_v2_wall(self, capsys, tmp_path):
        # 1956 long trails; a hitting-set search over the trails takes more
        # than a minute already on K7, the label-cut enumeration here a
        # fraction of a second.  Text output prints one line per selection
        # rather than one choice per trail.
        code, out, _ = run(capsys, "selections", "--graph",
                           doc_path(tmp_path, distinct_complete_doc(8)), "--vertex", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "64 minimal selections at v2"
        assert len({line.split(" product ")[0].split(": ")[1] for line in lines[:-1]}) == 64


class TestConstruct:
    def test_diamond_auto_completion(self, capsys, diamond_path):
        code, out, err = run(capsys, "construct", "--graph", diamond_path,
                             "--vertex", "2", "--selection", "0",
                             "--format", "json")
        assert code == 0
        assert "completed the graph with 1 unit-labeled edges" in err
        doc = json.loads(out)
        values = [int(v) for v in doc["values"]]
        assert values[0] == 0 and values[1] != 0

    def test_output_feeds_verify(self, capsys, tmp_path, diamond_path):
        code, out, _ = run(capsys, "construct", "--graph", diamond_path,
                           "--vertex", "2", "--format", "json")
        assert code == 0
        sp = tmp_path / "constructed.json"
        sp.write_text(out)
        assert run(capsys, "verify", "--graph", diamond_path,
                   "--spline", str(sp))[0] == 0

    def test_bad_selection_id(self, capsys, diamond_path):
        code, _, err = run(capsys, "construct", "--graph", diamond_path,
                           "--vertex", "2", "--selection", "99")
        assert code == 2 and "out of range" in err

    def test_realizes_only_the_printed_selection(self, capsys, tmp_path, monkeypatch):
        # Distinct-label K6 has 16 minimal selections at v2; only one is built.
        calls = []
        select = splines._VertexSelections.select
        monkeypatch.setattr(splines._VertexSelections, "select",
                            lambda at, keyset: calls.append(keyset) or select(at, keyset))
        code, out, err = run(capsys, "construct", "--graph",
                             doc_path(tmp_path, distinct_complete_doc(6)),
                             "--vertex", "2", "--selection", "5")
        assert code == 0 and "note: selection 5 uses labels" in err
        assert len(out.splitlines()) == 6
        assert len(calls) == 1

    def test_cap_checked_before_the_completion(self, capsys, tmp_path, monkeypatch):
        # The completion of an 800-vertex path has 318 801 more edges, and
        # v2 has far more than 1000 zero trails there: the cap stops the
        # command before any of them is built, and before it notes a
        # completion that it never builds.
        names = [f"v{k}" for k in range(1, 801)]
        path = doc_path(tmp_path, helpers.graph_doc(
            "int", names, [(a, b, 2) for a, b in zip(names, names[1:])]))

        def refuse(g):
            raise AssertionError("the completion was built")

        monkeypatch.setattr(graphs, "completion", refuse)
        code, out, err = run(capsys, "construct", "--graph", path,
                             "--vertex", "2", "--max-trails", "1000")
        assert code == 2 and out == ""
        assert err == ("error: vertex v2 has more than 1000 zero trails; "
                       "raise the cap to continue\n")

    def test_bad_vertex_before_the_completion_note(self, capsys, tmp_path):
        # A 3-vertex path lacks one edge; --vertex 9 is rejected without a
        # note about completing it.
        path = doc_path(tmp_path, helpers.graph_doc(
            "int", ["a", "b", "c"], [("a", "b", 2), ("b", "c", 3)]))
        code, out, err = run(capsys, "construct", "--graph", path, "--vertex", "9")
        assert code == 2 and out == ""
        assert err == "error: --vertex must be between 2 and 2\n"

    def test_selection_id_past_the_count(self, capsys, tmp_path):
        code, out, err = run(capsys, "construct", "--graph",
                             doc_path(tmp_path, distinct_complete_doc(6)),
                             "--vertex", "2", "--selection", "16")
        assert code == 2 and out == ""
        assert ("error: selection id 16 out of range; "
                "16 minimal selections exist") in err


class TestCheckBasis:
    def test_nonbasis_flowups_fail(self, capsys, tmp_path, diamond_path):
        paths = [spline_path(tmp_path, f"f{k}.json", vals) for k, vals in
                 enumerate([[1, 1, 1, 1], [0, 30, 0, 48],
                            [0, 0, 8, 0], [0, 0, 0, 36]])]
        argv = ["check-basis", "--graph", diamond_path, "--format", "json"]
        for p in paths:
            argv += ["--spline", p]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        doc = json.loads(out)
        assert set(doc) == {"determinant", "q_g", "quotient", "is_basis"}
        assert doc["q_g"] == "2160" and doc["is_basis"] is False
        assert doc["quotient"] in ("4", "-4")

    def test_wrong_count(self, capsys, tmp_path, diamond_path):
        sp = spline_path(tmp_path, "f.json", [1, 1, 1, 1])
        code, _, err = run(capsys, "check-basis", "--graph", diamond_path,
                           "--spline", sp)
        assert code == 2 and "exactly 4" in err

    def test_polynomial_basis_accepted(self, capsys, tmp_path, poly_path):
        rows = [["1", "1", "1"], ["0", "x^2+x", "0"], ["0", "0", "x^2+x"]]
        argv = ["check-basis", "--graph", poly_path]
        for k, vals in enumerate(rows):
            argv += ["--spline", spline_path(tmp_path, f"p{k}.json", vals)]
        assert run(capsys, *argv)[0] == 0


class TestFlowup:
    def test_diamond_diagonal(self, capsys, diamond_path):
        code, out, _ = run(capsys, "flowup", "--graph", diamond_path,
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["diagonal"] == ["1", "30", "4", "18"]
        assert len(doc["splines"]) == 4

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_each_entry_formatted_once(self, capsys, monkeypatch, diamond_path, fmt):
        # One text per distinct entry: the 16 entries hold 6 values, the
        # zeros among them.  Patched on the class, since an attribute set
        # on the instance would outlive the test.
        distinct = set().union(*flowup_basis(graphs.load_graph(DIAMOND_DOC)))
        calls = []
        format_int = type(ZZ).format
        monkeypatch.setattr(type(ZZ), "format",
                            lambda self, a: calls.append(a) or format_int(self, a))
        code, out, _ = run(capsys, "flowup", "--graph", diamond_path, "--format", fmt)
        assert code == 0 and len(calls) == len(distinct) == 6
        assert set(calls) == distinct
        if fmt == "json":
            assert json.loads(out)["diagonal"] == ["1", "30", "4", "18"]
        else:
            assert out.startswith("diagonal: 1 30 4 18\n")

    @pytest.mark.parametrize("n, m", [(300, 900), (1000, 3000)])
    def test_sparse_wall(self, tmp_path, n, m):
        # The whole command, JSON rendering included, in a child process
        # that must finish within 10 s; it takes about a second at n=1000.
        # The Hermite elimination the closed-form rows replaced took
        # 10-15 s at n=300.
        g = helpers.random_sparse_graph(random.Random(1000 * n + m), n, m)
        names = g.vertex_names
        path = doc_path(tmp_path, helpers.graph_doc("int", names, [
            (names[e.u], names[e.v], e.label) for e in g.edges
        ]))
        proc = run_module("flowup", "--graph", path, "--format", "json", timeout=10)
        assert proc.returncode == 0 and proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["diagonal"] == [str(v) for v in splines.leading_values(g)]
        assert len(doc["splines"]) == n

    def test_polynomial_domain_exits_2(self, capsys, poly_path):
        code, _, err = run(capsys, "flowup", "--graph", poly_path)
        assert code == 2 and "integer" in err

    def test_round_trip_verify_and_basis(self, capsys, tmp_path, diamond_path):
        code, out, _ = run(capsys, "flowup", "--graph", diamond_path,
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        argv = ["check-basis", "--graph", diamond_path]
        for k, sp in enumerate(doc["splines"]):
            p = tmp_path / f"b{k}.json"
            p.write_text(json.dumps(sp))
            assert run(capsys, "verify", "--graph", diamond_path,
                       "--spline", str(p))[0] == 0
            argv += ["--spline", str(p)]
        assert run(capsys, *argv)[0] == 0


class TestMalformedDocuments:
    @pytest.mark.parametrize("change, message", [
        pytest.param(lambda d: d["edges"][0].update(label=5),
                     "label must be a string", id="numeric-label"),
        pytest.param(lambda d: d.update(vertices=[["v1"], "v2", "v3", "v4"]),
                     "vertex names must be strings", id="list-vertex-name"),
        pytest.param(lambda d: d.update(edges="v1-v2"),
                     "needs an edge list", id="string-edges"),
        pytest.param(lambda d: d.update(edges={"u": "v1"}),
                     "needs an edge list", id="object-edges"),
        pytest.param(lambda d: d["edges"][0].update(u=["v1"]),
                     "unknown vertex", id="list-endpoint"),
        pytest.param(lambda d: d.update(domain=["int"]),
                     "unknown domain", id="list-domain"),
        pytest.param(lambda d: d.update(domain="intpoly", edges=[
                         {"u": "v1", "v": "v2", "label": f"x^{MAX_DEGREE + 1}"}]),
                     f"exponent {MAX_DEGREE + 1} ", id="degree-cap"),
        # Whitespace never joins digits: "1 0" is not 10.
        pytest.param(lambda d: d.update(domain="intpoly", edges=[
                         {"u": "v1", "v": "v2", "label": "x + 1 0"}]),
                     "not a polynomial in x: 'x + 1 0'", id="split-number"),
    ])
    def test_exits_2_without_traceback(self, capsys, tmp_path, change, message):
        doc = json.loads(json.dumps(DIAMOND_DOC))
        change(doc)
        code, out, err = run(capsys, "invariants", "--graph",
                             doc_path(tmp_path, doc))
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


class TestSplineValues:
    # Spline values, like labels, must be JSON strings.  A number literal
    # past the interpreter's int/str digit limit is rejected by the JSON
    # reader before it is converted, with a message that asks for strings.
    CASES = {
        "number": ("diamond_path", 4, '[1, "3", "6", "2"]', "must be strings"),
        "null": ("diamond_path", 4, '["2", null, "34", "50"]', "must be strings"),
        "nested": ("diamond_path", 4, '["2", ["32"], "34", "50"]',
                   "must be strings"),
        "intpoly-int": ("poly_path", 3, '["1", 2, "x"]', "must be strings"),
        "long-literal": ("diamond_path", 4,
                         "[" + "7" * 1_000_000 + ', "1", "1", "1"]',
                         "numbers must be written as strings"),
    }

    @pytest.mark.parametrize("command", ["verify", "check-basis"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_without_traceback(self, capsys, tmp_path, request,
                                       command, case):
        graph, n, values, message = self.CASES[case]
        sp = tmp_path / "bad.json"
        sp.write_text('{"values": ' + values + "}")
        copies = 1 if command == "verify" else n
        argv = [command, "--graph", request.getfixturevalue(graph)]
        argv += ["--spline", str(sp)] * copies
        before = sys.get_int_max_str_digits()
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err
        assert "set_int_max_str_digits" not in err
        assert sys.get_int_max_str_digits() == before

    def test_long_literal_in_graph_document(self, capsys, tmp_path):
        text = json.dumps(DIAMOND_DOC).replace('"5"', "5" * 5000, 1)
        gp = tmp_path / "g.json"
        gp.write_text(text)
        code, out, err = run(capsys, "invariants", "--graph", str(gp))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {gp}: a JSON number literal is too long")
        assert "numbers must be written as strings" in err
        assert "set_int_max_str_digits" not in err


# Text for the JSON renderer: non-ASCII, quotes, backslashes and control
# characters come up often.
JSON_TEXT = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600')
                    | st.characters(), max_size=6)
JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.integers(min_value=10 ** 29).flatmap(
                   lambda v: st.sampled_from([v, -v]))
               | JSON_TEXT)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


def unwrap(obj):
    """``obj`` with every ``cli._Shared`` node replaced by its value."""
    if type(obj) is cli._Shared:
        return unwrap(obj.value)
    if type(obj) is dict:
        return {k: unwrap(v) for k, v in obj.items()}
    if type(obj) is list:
        return [unwrap(v) for v in obj]
    return obj


class TestJsonRenderer:
    # ``cli._dumps`` against its oracle, ``json.dumps(doc, indent=2)``.
    @settings(max_examples=200, deadline=None)
    @given(doc=JSON_DOCS)
    def test_matches_json_dumps(self, doc):
        assert "".join(cli._dumps(doc)) == json.dumps(doc, indent=2)

    @settings(max_examples=60, deadline=None)
    @given(shared_dict=st.dictionaries(JSON_TEXT, JSON_DOCS, min_size=1, max_size=3),
           shared_list=st.lists(JSON_DOCS, min_size=1, max_size=3),
           other=JSON_DOCS)
    def test_shared_containers_at_two_depths(self, shared_dict, shared_list, other):
        # One wrapper at two depths has two texts, so a kept text must be
        # reused only at the depth it was joined at.
        d, l = cli._Shared(shared_dict), cli._Shared(shared_list)
        doc = {
            "d": d,
            "l": l,
            "deeper": [other, {"d": d, "l": [l, l]}],
            "again": d,
            "empty": [[], {}, [[]], {"e": {}}, cli._Shared([])],
        }
        assert "".join(cli._dumps(doc)) == json.dumps(unwrap(doc), indent=2)

    def test_long_shared_containers_at_two_depths(self):
        # A wrapper's text is joined once per change of depth, and reused
        # as the same string while the depth stays: 44 places, 3 depths,
        # 2 wrappers.
        long_list = cli._Shared(["x" * 600, "y" * 600])
        long_dict = cli._Shared({"k": "z" * 1500, "n": 10 ** 600})
        doc = {"a": [long_list, long_dict], "c": [[long_dict, long_list]],
               **{f"r{j}": (long_list, long_dict)[j % 2] for j in range(40)}}
        pieces = cli._dumps(doc)
        assert "".join(pieces) == json.dumps(unwrap(doc), indent=2)
        long = [p for p in pieces if len(p) > 1024]
        assert len(long) == 44 and len({id(p) for p in long}) == 6

    def test_wrapper_at_alternating_depths(self):
        # Each place at a new depth joins the text again; none is written
        # with the indent of the place before it.
        edge = cli._Shared({"u": "a", "v": ["b", "c"]})
        doc = [edge, [edge], edge, {"e": [edge, edge]}, [[edge]], edge]
        pieces = cli._dumps(doc)
        assert "".join(pieces) == json.dumps(unwrap(doc), indent=2)
        assert pieces[-2] is edge.text and edge.newline == "\n  "

    @settings(max_examples=100, deadline=None)
    @given(node=st.lists(JSON_DOCS, min_size=1, max_size=3)
           | st.dictionaries(JSON_TEXT, JSON_DOCS, min_size=1, max_size=3),
           other=JSON_DOCS, data=st.data())
    def test_any_declared_containers(self, node, other, data):
        # Any subset of the document's containers may be wrapped, one
        # wrapper per container, with ``node`` at two depths, alternately.
        doc = {"node": node, "deeper": [other, {"again": [node, node]}],
               "back": node}
        built = {}

        def wrap(obj):
            if type(obj) not in (dict, list):
                return obj
            if id(obj) not in built:
                copy = ({k: wrap(v) for k, v in obj.items()} if type(obj) is dict
                        else [wrap(v) for v in obj])
                built[id(obj)] = cli._Shared(copy) if data.draw(st.booleans()) else copy
            return built[id(obj)]

        assert "".join(cli._dumps(wrap(doc))) == json.dumps(doc, indent=2)

    def test_unshared_parents_not_kept(self):
        # One long edge object in 50 trails that are not shared: every
        # piece that holds the edge's text is that one kept string, not a
        # trail's joined copy of it.
        edge = cli._Shared({"index": 0, "u": "a", "v": "b", "label": "7" * 5000})
        doc = {"trails": [{"path": ["a", "b"], "edges": [edge], "gcd": "7"}
                          for _ in range(50)]}
        pieces = cli._dumps(doc)
        assert "".join(pieces) == json.dumps(unwrap(doc), indent=2)
        long = [p for p in pieces if len(p) > 5000]
        assert len(long) == 50 and len({id(p) for p in long}) == 1

    @pytest.mark.parametrize("graph", ["k5_distinct", "repeated_label_k5"])
    @pytest.mark.parametrize("command, shared", [
        ("trails", "edges"), ("selections", "choices")])
    def test_command_documents(self, monkeypatch, graph, command, shared):
        # The documents the commands build, at v2: rendered exactly, and
        # each distinct shared node's text is one string, placed wherever
        # the document holds that node.
        docs = []
        monkeypatch.setattr(cli, "_load_graph", lambda path: getattr(helpers, graph)())
        monkeypatch.setattr(cli, "_emit_json", docs.append)
        assert main([command, "--graph", "-", "--vertex", "2", "--format", "json"]) == 0
        [doc] = docs
        pieces = cli._dumps(doc)
        assert "".join(pieces) == json.dumps(unwrap(doc), indent=2)
        places = [node for entry in doc[command] for node in entry[shared]]
        assert places and all(type(node) is cli._Shared for node in places)
        counts = Counter(map(id, pieces))
        for node in {id(node): node for node in places}.values():
            assert counts[id(node.text)] == sum(n is node for n in places)

    def test_edge_documents(self):
        for doc in ({}, [], "", 0, True, False, None, 10 ** 40, -(10 ** 40),
                    [{}], {"": []}, {"\u00e9\"\\\x01": ["\U0001f600"]}):
            assert "".join(cli._dumps(doc)) == json.dumps(doc, indent=2)

    def test_emit_json_writes_batches(self, monkeypatch):
        # More than one batch of pieces: the text goes out a batch at a
        # time, never as one string, and the newline comes last.
        writes = []

        class Stream:
            def write(self, text):
                writes.append(text)
                return len(text)

        doc = {"rows": [[k, str(k)] for k in range(cli._WRITE_BATCH)]}
        assert len(cli._dumps(doc)) > cli._WRITE_BATCH
        monkeypatch.setattr(sys, "stdout", Stream())
        cli._emit_json(doc)
        text = json.dumps(doc, indent=2)
        assert len(writes) >= 3 and writes[-1] == "\n"
        assert max(map(len, writes)) < len(text)
        assert "".join(writes) == text + "\n"

    @pytest.mark.parametrize("doc", [1.5, [1, (2, 3)], {"a": {"b": 0.0}},
                                     {1: "int key"}, {"s": {1, 2}}, [b"bytes"]],
                             ids=["float", "tuple", "nested-float", "int-key",
                                  "set", "bytes"])
    def test_unsupported_values_raise(self, doc):
        with pytest.raises(TypeError):
            cli._dumps(doc)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_big_label_trails_memory(self, tmp_path):
        # Distinct-prime K8 with every label times 10^700: 11 MB of trails
        # whose edge texts are 700 digits each.  Keeping each trail's text
        # with copies of its edges' texts peaked near 60 MB; the edge texts
        # kept once and the trails written as pieces stay near 25 MB.  The
        # child reads its peak RSS as VmHWM, not ru_maxrss: ru_maxrss keeps
        # the peak of the process image before exec, here the test runner.
        doc = distinct_complete_doc(8)
        for e in doc["edges"]:
            e["label"] += "0" * 700
        path = doc_path(tmp_path, doc)
        script = ("import os, re, sys\n"
                  "from graphsplines.cli import main\n"
                  "sys.stdout = open(os.devnull, 'w')\n"
                  "code = main(sys.argv[1:])\n"
                  "status = open('/proc/self/status').read()\n"
                  "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', status)[1], file=sys.stderr)\n")
        proc = run_python("-c", script, "trails", "--graph", path, "--vertex", "2",
                          "--format", "json", timeout=60)
        code, kib = map(int, proc.stderr.split())
        assert code == 0 and kib < 40 * 1024


class TestDriver:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_graph_flag(self, capsys):
        assert main(["invariants"]) == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "invariants", "--graph",
                           str(tmp_path / "nope.json"))
        assert code == 2

    def test_deterministic_output(self, capsys, diamond_path):
        outs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "selections", "--graph", diamond_path,
                            "--vertex", "2", "--format", "json")
            outs.add(out)
        assert len(outs) == 1

    def test_calls_in_one_process_see_only_their_arguments(self, capsys, tmp_path,
                                                           diamond_path):
        sp = spline_path(tmp_path, "f.json", [1, 1, 1, 1])
        argv = ["check-basis", "--graph", diamond_path, "--format", "json"]
        code, out, _ = run(capsys, *argv, *["--spline", sp] * 4)
        assert code == 1 and json.loads(out)["is_basis"] is False
        code, out, err = run(capsys, "check-basis", "--format", "yaml")
        assert code == 2 and out == "" and "usage:" in err
        code, out, err = run(capsys, *argv, *["--spline", sp] * 3)
        assert code == 2 and out == ""
        assert "check-basis needs exactly 4 --spline documents" in err
        code, out, _ = run(capsys, "invariants", "--graph", diamond_path)
        assert code == 0 and out.endswith("q_g = 2160\n")

    def test_uses_only_public_library_names(self):
        source = Path(cli.__file__).read_text(encoding="utf-8")
        assert not re.search(r"\b(graphs|splines|basis_mod)\._", source)

    def test_module_entry_point(self, diamond_path):
        proc = run_module("invariants", "--graph", diamond_path, "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["q_g"] == "2160"


# Documents for the exit-code fuzz test: well-formed graphs and spline
# documents, and in half the examples some parts replaced by a bad label
# or by arbitrary JSON.  A number literal too long for json.dumps at the
# default digit limit is written as a placeholder string and spliced into
# the text afterwards.
LONG_LITERAL = "__long_literal__"
NAMES = ["a", "b", "c", "d", "e"]
GOOD_TEXT = {
    "int": ["5", "-3", "1", "6", "10", "1" * 5000, " 7 "],
    "intpoly": ["x", "x+1", "x^2 - 1", "2*x + 4", "3", "x - " + "7" * 5000],
}
BAD_TEXT = ["0", "5.0", "", "y", "x^" + str(MAX_DEGREE + 1), "--1"]
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=4) | st.just(LONG_LITERAL))
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
BAD = st.sampled_from(BAD_TEXT) | ANY_JSON


@st.composite
def documents(draw):
    """A graph document and up to five spline documents."""
    corrupt = draw(st.booleans())

    def part(value):
        # ``value``, or in a corrupt example now and then something bad.
        return draw(BAD) if corrupt and draw(st.integers(0, 7)) == 0 else value

    domain = draw(st.sampled_from(sorted(GOOD_TEXT)))
    text = st.sampled_from(GOOD_TEXT[domain])
    n = draw(st.integers(1, 5))
    names = NAMES[:n]
    edges = [
        part({"u": u, "v": v, "label": part(draw(text))})
        for u, v in itertools.combinations(names, 2) if draw(st.booleans())
    ]
    graph = part({key: part(value) for key, value in
                  (("domain", domain), ("vertices", names), ("edges", edges))})
    # Constant vectors are splines, so check-basis reaches a verdict.
    values = (text.map(lambda t: [t] * n)
              | st.lists(text, min_size=n, max_size=n)
              | st.lists(text, max_size=6))
    splines = [part({"values": part([part(v) for v in draw(values)])})
               for _ in range(draw(st.integers(0, 5)))]
    return graph, splines


def write_document(path, doc):
    text = json.dumps(doc).replace(json.dumps(LONG_LITERAL), "9" * 5000)
    path.write_text(text)
    return str(path)


class TestExitCodeFuzz:
    # Any JSON document through all seven subcommands: exit 0, 1 or 2,
    # never a traceback (an exception escaping main), and with
    # --format json a verdict (exit 0 or 1) prints JSON that parses.
    # Option values; None leaves the option out.
    VERTEX = st.sampled_from(["2", "3", "4", None, "1", "0", "-1", "x", "9" * 30])
    SELECTION = st.sampled_from([None, "0", "1", "3", "-1", "x", "9" * 30])
    MAX_TRAILS = st.sampled_from([None, "3", "0", "-1", "x", "9" * 30])

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(docs=documents(), vertex=VERTEX, selection=SELECTION,
           max_trails=MAX_TRAILS, fmt=st.sampled_from(["json", "text"]))
    def test_exit_codes(self, tmp_path_factory, docs, vertex, selection,
                        max_trails, fmt):
        graph, splines = docs
        work = tmp_path_factory.mktemp("fuzz")
        graph_path = write_document(work / "g.json", graph)
        spline_args = []
        for k, doc in enumerate(splines):
            spline_args += ["--spline", write_document(work / f"f{k}.json", doc)]
        for command in ("verify", "invariants", "trails", "selections",
                        "construct", "check-basis", "flowup"):
            argv = [command, "--graph", graph_path, "--format", fmt]
            if command == "verify":
                argv += spline_args[:2] or ["--spline", graph_path]
            if command == "check-basis":
                argv += spline_args
            if command in ("trails", "selections", "construct"):
                for flag, value in (("--vertex", vertex),
                                    ("--max-trails", max_trails)):
                    argv += [flag, value] if value is not None else []
            if command == "construct" and selection is not None:
                argv += ["--selection", selection]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err.getvalue()
            if fmt == "json" and code in (0, 1):
                json.loads(out.getvalue())


def golden_graphs():
    """The graphs whose selections and constructions are pinned below."""
    rng = random.Random(2024)
    return {
        "diamond": helpers.diamond(),
        "k4": helpers.k4_distinct(),
        "k5": helpers.k5_distinct(),
        "poly-cycle": helpers.poly_cycle(),
        "poly-k4": helpers.make_graph("intpoly", ["v1", "v2", "v3", "v4"], [
            ("v1", "v2", "x"), ("v1", "v3", "x^2 - 1"), ("v1", "v4", "2*x"),
            ("v2", "v3", "x+1"), ("v2", "v4", "x^2 + x"), ("v3", "v4", "x - 1"),
        ]),
        "k5-repeated": helpers.random_complete_graph(rng, 5, max_label=6,
                                                     distinct=False),
        "sparse-6": helpers.random_connected_graph(rng, 6, max_label=12),
    }


def golden_graph_path(g, tmp_path):
    return doc_path(tmp_path, {
        "domain": g.domain.name,
        "vertices": list(g.vertex_names),
        "edges": [{"u": g.vertex_names[e.u], "v": g.vertex_names[e.v],
                   "label": g.domain.format(e.label)} for e in g.edges],
    })


def capture(text, title, argv):
    """Run ``main`` on ``argv``; append ``title``, the exit code, stdout
    and stderr to ``text`` and return stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text.append(f"{title} -> {code}\n{out.getvalue()}{err.getvalue()}")
    return out.getvalue()


def selection_outputs(g, tmp_path):
    """stdout and stderr of ``selections`` at every vertex and of
    ``construct`` for every selection there, in JSON."""
    path = golden_graph_path(g, tmp_path)
    text = []

    def run_json(argv):
        return capture(text, " ".join(argv[:1] + argv[3:]), argv)

    for vertex in range(2, g.n):
        argv = ["--graph", path, "--vertex", str(vertex), "--format", "json"]
        count = json.loads(run_json(["selections", *argv]))["count"]
        for k in range(count):
            run_json(["construct", *argv, "--selection", str(k)])
    return "".join(text)


def command_outputs(g, tmp_path):
    """stdout and stderr, in both formats, of ``invariants``, ``trails`` at
    every vertex, and ``verify`` on the vector of vertex positions and on
    the top spline; on int graphs also of ``flowup``, ``verify`` on each
    flow-up spline and ``check-basis`` on the flow-up basis."""
    path = golden_graph_path(g, tmp_path)
    d = g.domain
    vectors = [[d.coerce(k) for k in range(g.n)], top_spline(g)]
    if d.name == "int":
        vectors += flowup_basis(g)
    spline_paths = [spline_path(tmp_path, f"golden{k}.json", [d.format(v) for v in vec])
                    for k, vec in enumerate(vectors)]
    text = []

    def run_in(fmt, command, *options, splines=()):
        # The title names spline documents by index, not by path.
        argv = [command, "--graph", path, *options, "--format", fmt]
        for k in splines:
            argv += ["--spline", spline_paths[k]]
        capture(text, " ".join([command, *options, fmt, *map(str, splines)]), argv)

    for fmt in ("json", "text"):
        run_in(fmt, "invariants")
        for vertex in range(2, g.n + 1):
            run_in(fmt, "trails", "--vertex", str(vertex))
        for k in range(len(vectors)):
            run_in(fmt, "verify", splines=[k])
        if d.name == "int":
            run_in(fmt, "flowup")
            run_in(fmt, "check-basis", splines=range(2, len(vectors)))
    return "".join(text)


def basis_outputs(g, tmp_path):
    """stdout and stderr, in both formats, of ``check-basis`` on the block
    splines of ``g``, on a unimodular recombination of them, on that
    recombination with its last column replaced by its first (determinant
    zero) and with its first column times 2x (a non-unit quotient)."""
    path = golden_graph_path(g, tmp_path)
    d = g.domain
    blocks = helpers.block_splines(g)
    mixed = helpers.combine_columns(blocks, helpers.random_unimodular(random.Random(g.n), g.n),
                                    d.zero)
    two_x = d.parse("2*x")
    candidates = {
        "blocks": blocks,
        "recombined": mixed,
        "singular": mixed[:-1] + mixed[:1],
        "scaled": [[two_x * v for v in mixed[0]]] + mixed[1:],
    }
    text = []
    for name, splines in candidates.items():
        argv = ["check-basis", "--graph", path]
        for k, f in enumerate(splines):
            argv += ["--spline", spline_path(tmp_path, f"{name}{k}.json", map(d.format, f))]
        for fmt in ("json", "text"):
            capture(text, f"check-basis {name} {fmt}", argv + ["--format", fmt])
    return "".join(text)


class TestGoldenSelections:
    # sha256 of ``selection_outputs``, recorded before the selection path
    # was merged into one per-vertex context; the output is byte-identical.
    DIGESTS = {
        "diamond": "321c68df457eeb7afa82d109db0111ed856678f74f4b74a0691e0c2cf01c581a",
        "k4": "1288adfa545dc511441c3826c3df3e7728b4c83569bdfc4b9028e83c5643b302",
        "k5": "a8999bc38ed4940bafa9c70ad5273c45011d4f1522745ef4b08e127c60bc8b33",
        "poly-cycle": "29af6f5c6f1360ba49dce76557566d4c086e775f5255c79c580665fa12a0e994",
        "poly-k4": "fdf99113c0226cb351fe6704ec3aaab33496361330c98988891a80b8dbdd13c5",
        "k5-repeated": "843a00d050c49a85316fac26da2407bc86bc5129b749a97d5cb9d5c3c855b356",
        "sparse-6": "3187b01759648a3880ef3d5413356297b2bddceecce0c26ea0957785896da6fe",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_selections_and_construct_json(self, tmp_path, name):
        text = selection_outputs(golden_graphs()[name], tmp_path)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[name]


class TestGoldenCommands:
    # sha256 of ``command_outputs`` on the graphs of ``golden_graphs``,
    # recorded before selections were realized in one pass per trail.
    DIGESTS = {
        "diamond": "7fea66a6130e042438c825f1b1154a8aee0798f2b0c9b0175bc5a0e5358c921a",
        "k4": "4e0b7f028a191de6a25fafb51007fa1d96cad9d30795f78692c09492c7b61f6b",
        "k5": "29e70ecf41a139755a3abf1ce86799ba76afdb19fbe43fc09b6c891bf65aeafe",
        "k5-repeated": "b548b9468f422731b4865038d6569e136911dc382838ab57879d0a8eb8ed2434",
        "poly-cycle": "b3b40f7ed6f5acd8366e6f23da49d5301fd9553accd166bf05b836cdd7d7c12c",
        "poly-k4": "57c31941a2fc6be70fd0fe63f5810f04a8e85499af1a8c7608f50d5d4dd7faf0",
        "sparse-6": "b61dfee6463cbff7cfefb635294655cece4376256b4e3ef2d75c273a606d38c2",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_other_commands_both_formats(self, tmp_path, name):
        text = command_outputs(golden_graphs()[name], tmp_path)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[name]

    # sha256 of ``basis_outputs`` on the ZZ[x] graphs, recorded while
    # every ZZ[x] determinant still ran Bareiss over ZZ[x].
    BASIS_DIGESTS = {
        "poly-cycle": "10c5501240bd1abae6aee3cca93fdcd862c8c753de87e9dedb0566d486e1145f",
        "poly-k4": "dd395cc115acafbb30e4c32dc41b364e89bbbae6f45f734d708b17070b91f7b6",
        "poly-k6": "145775279519dbbbde599b1baa826951be45499bae0227c2c452d97e59830eb7",
    }

    @pytest.mark.parametrize("name", sorted(BASIS_DIGESTS))
    def test_check_basis_over_polynomials(self, tmp_path, name):
        g = {**golden_graphs(), "poly-k6": helpers.random_poly_complete_graph(
            random.Random(6), 6)}[name]
        text = basis_outputs(g, tmp_path)
        assert hashlib.sha256(text.encode()).hexdigest() == self.BASIS_DIGESTS[name]

    # sha256 of stdout of ``selections --format json`` at v2 of K7 with
    # distinct prime labels, recorded before the JSON renderer replaced
    # ``json.dumps``: 3 383 034 bytes, 32 selections that repeat the
    # choices of 325 trails.
    K7_SELECTIONS = "15e6fb785fe45a25c1c39800efbcb1b22a3284a05b428949356e55a5b69dcef8"

    def test_selections_json_with_repeated_choices(self, capsys, tmp_path):
        code, out, _ = run(capsys, "selections", "--graph",
                           doc_path(tmp_path, distinct_complete_doc(7)),
                           "--vertex", "2", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.K7_SELECTIONS
