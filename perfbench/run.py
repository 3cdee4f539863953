"""Benchmark of graphsplines: one process, one thread, a closed loop.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Runs whole passes of the workload's fixed batch, one operation at a time,
until ``--seconds`` have gone by, checks every output against the oracles
outside the timed calls, and prints one JSON line: ``correct``,
``attempted``, ``failed`` and the metrics (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``).  Details go to ``.perfbench/results/``.
See README.md next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# The standard library modules graphsplines imports are loaded up front,
# so every repetition of the set-up imports exactly the package's own
# modules and nothing else.
import dataclasses  # noqa: F401
import itertools  # noqa: F401
import math  # noqa: F401
import re  # noqa: F401
import typing  # noqa: F401

from oracles import Mismatch
from tracing import PER_LAYER_METRICS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
# The lightest operation takes milliseconds and its run-to-run noise is a
# large share of that, so each pass runs it this many times in a row.
LIGHT_REPEATS = 5
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("light_op_s", "s"),
              ("heavy_op_s", "s"), ("peak_rss_mb", "MB"))


class Env:
    """What operations see: the loaded package, the documents on disk, the
    graphs loaded at set-up, and a per-pass context for outputs that later
    operations of the same pass consume."""

    def __init__(self, pkg, workdir, graphs):
        self.pkg = pkg
        self.workdir = workdir
        self.graphs = graphs
        self.ctx = {}
        self.tracer = None

    def doc(self, name):
        return str(self.workdir / f"{name}.json")

    def write(self, name, obj):
        self.write_text(name, json.dumps(obj))

    def write_text(self, name, text):
        with open(self.doc(name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def cli(self, argv):
        """Run a subcommand in-process; (exit code, stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        main = self.pkg.cli.main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception as exc:  # a traceback past the CLI boundary
                code = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.out_bytes += len(text.encode())
        return code, text, seconds

    def lib(self, name, *args):
        """Call a public library function; (0 or error, result, seconds)."""
        fn = getattr(self.pkg, name)
        start = time.perf_counter()
        try:
            result, code = fn(*args), 0
        except Exception as exc:
            result, code = None, f"raised {type(exc).__name__}: {exc}"
        return code, result, time.perf_counter() - start


def setup(cls, seed, workdir):
    """Import the package, generate and write the documents, load each
    graph once; repeated, with the package's modules dropped in between.
    Returns the median time and the state of the last repetition."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "graphsplines" or n.startswith("graphsplines.")]:
            del sys.modules[name]
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        gc.collect()
        start = time.perf_counter()
        pkg = importlib.import_module("graphsplines")
        importlib.import_module("graphsplines.cli")
        workload = cls(seed)
        env = Env(pkg, workdir, {})
        for name, doc in workload.documents().items():
            env.write(name, doc)
        for key in workload.models:
            with open(env.doc(key), encoding="utf-8") as fh:
                env.graphs[key] = pkg.load_graph(json.load(fh))
        times.append(time.perf_counter() - start)
    return statistics.median(times), workload, env


def with_light_repeats(ops, light):
    out = []
    for op in ops:
        out.extend([op] * (LIGHT_REPEATS if op.name == light else 1))
    return out


def run_pass(ops, env):
    """One pass of the batch: (name, seconds) per operation, failures,
    wrong outputs.  The collector runs before each operation, outside its
    timed call, so no operation pays for garbage an earlier one left."""
    env.ctx.clear()
    times, failures, wrong = [], [], []
    for op in ops:
        try:
            if op.before is not None:
                op.before()
        except Mismatch as exc:
            failures.append(op.name)
            wrong.append(f"{op.name}: {exc}")
            times.append((op.name, 0.0))
            continue
        gc.collect()
        code, out, seconds = op.call()
        times.append((op.name, seconds))
        if not isinstance(code, int) or code == 2:
            failures.append(op.name)
            continue
        try:
            op.check(code, out)
        except (Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
            failures.append(op.name)
            wrong.append(f"{op.name}: {type(exc).__name__}: {exc}")
    return times, failures, wrong


def measure(ops, env, seconds, tracer=None):
    """Whole passes until ``seconds`` have gone by (at least one)."""
    passes = []
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
        env.tracer = tracer
    try:
        while not passes or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.reset()
            times, failures, wrong = run_pass(ops, env)
            record = {"times": times, "solve_s": sum(t for _, t in times),
                      "failed": failures, "wrong": wrong}
            if tracer is not None:
                record["layers"] = tracer.metrics()
                record["spans"] = list(tracer.spans)
            passes.append(record)
    finally:
        if tracer is not None:
            tracer.uninstall()
            env.tracer = None
    return passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "graphsplines" / "__init__.py").is_file():
        print(f"error: no graphsplines package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    cls = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, workload, env = setup(cls, args.seed, workdir)
        workload.prepare()
        ops = with_light_repeats(workload.batch(env), workload.light)
        if args.trace:
            plain = measure(ops, env, args.seconds / 2)
            traced = measure(ops, env, args.seconds / 2, Tracer())
            passes = plain + traced
        else:
            passes = measure(ops, env, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def median_of(rows, key):
        return statistics.median(key(r) for r in rows)

    def op_median(name):
        return statistics.median(t for r in passes for n, t in r["times"] if n == name)

    if args.trace:
        # Times are medians over the traced passes; counts repeat exactly
        # from pass to pass, so the last pass gives them.
        units = dict(PER_LAYER_METRICS)
        metrics = {name: median_of(traced, lambda r, n=name: r["layers"][n])
                   if unit == "s" else traced[-1]["layers"][name]
                   for name, unit in PER_LAYER_METRICS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (median_of(traced, lambda r: r["solve_s"])
                                       - median_of(plain, lambda r: r["solve_s"]))
    else:
        metrics = {
            "setup_s": setup_s,
            "solve_s": median_of(passes, lambda r: r["solve_s"]),
            "light_op_s": op_median(workload.light),
            "heavy_op_s": op_median(workload.heavy),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)

    wrong = [w for r in passes for w in r["wrong"]]
    result = {
        "correct": not wrong,
        "attempted": len(passes) * len(ops),
        "failed": sum(len(r["failed"]) for r in passes),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    for w in wrong[:10]:
        print(f"wrong output: {w}", file=sys.stderr)

    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {**result, "workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "passes": [
                   {k: v for k, v in r.items() if k != "spans"} for r in passes]}
    (results_dir / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if args.trace:
        spans = [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                 for s in traced[-1]["spans"]]
        (results_dir / f"{stem}.spans.json").write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
