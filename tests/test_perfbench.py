"""The benchmark's self-test, run against the current program.

``perfbench/selftest.py`` checks the benchmark's oracles against the
program and that every output check rejects a planted wrong value, so a
change to the program's output format or results that the benchmark
would misjudge fails here first.

The self-test lists ``invariants:P600`` as an expected failure of the
``dense`` workload, from when the CLI could not print a ``q_g`` past the
interpreter's int/str digit limit.  The CLI prints it now, so this test
runs the self-test with no expected failures: every operation of every
workload must check clean.

The second test installs the benchmark's tracer (``perfbench/tracing.py``)
on the package, as ``run.py --trace 1`` does.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import helpers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SELFTEST = """
import selftest
selftest.EXPECTED_FAILURES = {}
selftest.oracles_agree_with_program()
selftest.checks_catch_planted_errors()
"""


def test_selftest_passes_with_every_operation_clean():
    proc = subprocess.run([sys.executable, "-c", SELFTEST], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest FAILED" not in proc.stdout


def test_tracer_wraps_the_package_and_restores_it(tmp_path, capsys):
    # ``run.py --trace 1`` installs the tracer on the package's public
    # functions by name; the self-test above never does, so an API change
    # that breaks tracing would otherwise pass the suite.
    import graphsplines
    import graphsplines.cli
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(helpers.graph_doc("int", ["v1", "v2", "v3", "v4"], [
        ("v1", "v2", 5), ("v1", "v3", 4), ("v1", "v4", 6),
        ("v2", "v3", 2), ("v2", "v4", 9),
    ])))
    splines = []
    for k, values in enumerate([[1, 1, 1, 1], [0, 30, 0, 48], [0, 0, 8, 0], [0, 0, 0, 36]]):
        path = tmp_path / f"f{k}.json"
        path.write_text(json.dumps({"values": [str(v) for v in values]}))
        splines += ["--spline", str(path)]
    # One ZZ[x] run, so the tracer wraps and restores the kernels of both
    # domains while they are in use.
    poly_graph = tmp_path / "pg.json"
    poly_graph.write_text(json.dumps(helpers.graph_doc("intpoly", ["v1", "v2", "v3"], [
        ("v1", "v2", "x^2 - 1"), ("v2", "v3", "2*x + 2"), ("v1", "v3", "x^2 + x"),
    ])))
    runs = [(["invariants"], graph, 0), (["selections", "--vertex", "2"], graph, 0),
            (["flowup"], graph, 0), (["check-basis", *splines], graph, 1),
            (["invariants"], poly_graph, 0)]

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "graphsplines" or name.startswith("graphsplines.")}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    domains = [graphsplines.ZZ, graphsplines.ZZX]
    # The tracer wraps ring methods by instance attributes and deletes them
    # afterwards, so each must be a method of the class.
    for d in domains:
        for meth in tracing.RING_METHODS:
            assert meth not in vars(d) and callable(getattr(type(d), meth)), meth
    domain_attrs = [dict(vars(d)) for d in domains]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [graphsplines.cli.main([*argv, "--graph", str(path)])
                 for argv, path, _ in runs]
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert codes == [code for _, _, code in runs]
    assert metrics["splines.minimal_selections.calls"] == 1
    assert metrics["splines.minimal_selections.out"] == 4
    assert metrics["basis.flowup_basis.calls"] == 1
    assert metrics["basis.determinant.calls"] == 1
    assert metrics["graphs.zero_trails.calls"] >= 1
    assert metrics["splines.leading_value.calls"] >= 4
    assert metrics["rings.ZZX.gcd.calls"] >= 1
    assert tracer.stats["cli.main"][0] == len(runs)
    for name, mod in modules.items():
        assert all(vars(mod)[attr] is value
                   for attr, value in before[name].items()), name
    assert [dict(vars(d)) for d in domains] == domain_attrs
