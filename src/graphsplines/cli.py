"""Command line driver.

Subcommands read graph and spline documents (JSON; see ``graphs`` and
the README).  Exit codes: 0 for success or an affirmative verdict, 1 for
a negative verdict, 2 for any input or usage problem or when memory runs
out.  Output is deterministic.  ``--format json`` is ``json.dumps(doc,
indent=2)`` byte for byte, written in batches, with one kept text per
``_Shared`` node.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import basis as basis_mod
from . import graphs, splines
from .graphs import DEFAULT_TRAIL_LIMIT


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        # The reader's only other ValueError: an integer literal past the
        # interpreter's int/str digit limit.
        raise ValueError(f"{path}: a JSON number literal is too long; "
                         "numbers must be written as strings") from None


def _load_graph(path: str) -> graphs.LabeledGraph:
    return graphs.load_graph(_read_json(path))


def _load_spline(path: str, g: graphs.LabeledGraph) -> list:
    doc = _read_json(path)
    if not isinstance(doc, dict) or "values" not in doc:
        raise ValueError(f"{path}: spline document needs a 'values' key")
    values = doc["values"]
    if not isinstance(values, list) or len(values) != g.n:
        raise ValueError(f"{path}: expected {g.n} values")
    if not all(isinstance(v, str) for v in values):
        raise ValueError(f"{path}: spline values must be strings")
    return [g.domain.parse(v) for v in values]


_LITERALS = {True: "true", False: "false", None: "null"}
_WRITE_BATCH = 8192  # pieces that ``_emit_json`` joins into one write


class _Shared:
    """A node that a command places at many points of its document:
    ``_dumps`` keeps its text, joined at ``newline``, and reuses it there."""

    __slots__ = ("value", "newline", "text")

    def __init__(self, value):
        self.value, self.newline, self.text = value, None, None


def _dumps(doc) -> list[str]:
    """The pieces of ``json.dumps(doc, indent=2)``, byte for byte once
    joined, for a document of dicts with str keys, lists, str, int, bool
    and None, with any node wrapped as ``_Shared`` written as its value;
    any other value raises TypeError.

    One pass over the document into one list of pieces, never joined
    whole; the standard library's encoder runs in pure Python whenever
    ``indent`` is set (before Python 3.13).  A ``_Shared`` node's text
    is joined and kept on the wrapper, and reused while its depth stays
    the same.  Every other container's pieces are appended as they are
    and nothing of them is kept.
    """
    out = []
    append = out.append

    def emit(obj, newline):
        kind = type(obj)
        if kind is str:
            append(encode_basestring_ascii(obj))
        elif kind is _Shared:
            if obj.newline != newline:
                start = len(out)
                emit(obj.value, newline)
                obj.newline, obj.text = newline, "".join(out[start:])
                del out[start:]
            append(obj.text)
        elif kind is int:
            append(int.__repr__(obj))
        elif kind is dict or kind is list:
            if not obj:
                append("{}" if kind is dict else "[]")
                return
            inner = newline + "  "
            sep = "," + inner
            if kind is dict:
                lead = "{" + inner
                for k, v in obj.items():
                    append(lead + encode_basestring_ascii(k) + ": ")
                    emit(v, inner)
                    lead = sep
                append(newline + "}")
            else:
                lead = "[" + inner
                for v in obj:
                    append(lead)
                    emit(v, inner)
                    lead = sep
                append(newline + "]")
        elif kind is bool or obj is None:
            append(_LITERALS[obj])
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    emit(doc, "\n")
    return out


def _emit_json(obj) -> None:
    pieces = _dumps(obj)
    for k in range(0, len(pieces), _WRITE_BATCH):
        sys.stdout.write("".join(pieces[k:k + _WRITE_BATCH]))
    sys.stdout.write("\n")


def _vertex_index(g: graphs.LabeledGraph, vertex: int, what: str, after: int) -> int:
    # Command line indices are 1-based positions in the vertex order; a
    # vertex needs an earlier one and ``after`` later ones.
    if (top := g.n - after) < 2:
        raise ValueError(f"{what} need a graph with at least {after + 2} vertices")
    if not 2 <= vertex <= top:
        raise ValueError(f"--vertex must be between 2 and {top}")
    return vertex - 1


def _edge_obj(g: graphs.LabeledGraph, k: int) -> dict:
    e = g.edges[k]
    return {
        "index": k,
        "u": g.vertex_names[e.u],
        "v": g.vertex_names[e.v],
        "label": g.domain.format(e.label),
    }


def _edge_objs(g: graphs.LabeledGraph) -> list[_Shared]:
    """One shared edge object per graph edge, by index."""
    return [_Shared(_edge_obj(g, k)) for k in range(g.m)]


def _edge_name(g: graphs.LabeledGraph, e: graphs.Edge) -> str:
    return f"{g.vertex_names[e.u]}-{g.vertex_names[e.v]}"


def _cmd_verify(g: graphs.LabeledGraph, args) -> int:
    values = _load_spline(args.spline, g)
    d = g.domain
    violation = splines.first_violation(g, values)
    last = g.m if violation is None else g.edges.index(violation) + 1
    checked = [(e, values[e.u] - values[e.v], e is not violation)
               for e in g.edges[:last]]
    if args.format == "json":
        _emit_json({
            "is_spline": violation is None,
            "edges": [
                {**_edge_obj(g, k), "difference": d.format(diff), "ok": ok}
                for k, (e, diff, ok) in enumerate(checked)
            ],
        })
    else:
        for e, diff, ok in checked:
            status = "ok" if ok else "FAIL"
            print(f"edge {_edge_name(g, e)} label {d.format(e.label)}: "
                  f"{status} (difference {d.format(diff)})")
        print("spline" if violation is None else
              f"not a spline: edge {_edge_name(g, violation)} fails")
    return 0 if violation is None else 1


def _cmd_invariants(g: graphs.LabeledGraph, args) -> int:
    d = g.domain
    leads = splines.leading_values(g)
    q = d.canonical(d.product(leads))
    if args.format == "json":
        _emit_json({
            "leading_values": [d.format(v) for v in leads],
            "q_g": d.format(q),
        })
    else:
        for name, v in zip(g.vertex_names, leads):
            print(f"lead[{name}] = {d.format(v)}")
        print(f"q_g = {d.format(q)}")
    return 0


def _cmd_trails(g: graphs.LabeledGraph, args) -> int:
    i = _vertex_index(g, args.vertex, "zero trails", 0)
    d = g.domain
    trails = graphs.zero_trails(g, i, args.max_trails)
    edges = _edge_objs(g)
    if args.format == "json":
        _emit_json({
            "vertex": g.vertex_names[i],
            "trails": [
                {
                    "path": [g.vertex_names[v] for v in t.vertices],
                    "edges": [edges[k] for k in t.edges],
                    "gcd": d.format(t.gcd),
                }
                for t in trails
            ],
        })
    else:
        for t in trails:
            path = "-".join(g.vertex_names[v] for v in t.vertices)
            labels = ", ".join(edges[k].value["label"] for k in t.edges)
            print(f"trail {path}: labels [{labels}] gcd {d.format(t.gcd)}")
        print(f"{len(trails)} zero trails of {g.vertex_names[i]}")
    return 0


def _selections_doc(g: graphs.LabeledGraph, i: int,
                    sels: list[splines.Selection]) -> dict:
    # Shared nodes: the edge objects, one path per trail (every selection
    # lists the same trails) and one choice per (trail, chosen edge) pair.
    d, names = g.domain, g.vertex_names
    edges = _edge_objs(g)
    trails = sels[0].trails if sels else ()
    paths = [_Shared([names[v] for v in t.vertices]) for t in trails]
    choices = [{} for _ in trails]

    def choice(k, e, f):
        obj = choices[k].get(e)
        if obj is None:
            obj = choices[k][e] = _Shared({
                "path": paths[k], "chosen_edge": edges[e], "factor": d.format(f),
            })
        return obj

    return {
        "vertex": names[i],
        "count": len(sels),
        "selections": [
            {
                "id": sel_id,
                "vertex": names[sel.vertex],
                "vertex_index": sel.vertex + 1,
                "labels": [d.format(lab) for lab in sel.labels],
                "choices": [choice(k, e, f) for k, (e, f)
                            in enumerate(zip(sel.chosen, sel.factors))],
                "product": d.format(sel.product),
                "value": d.format(sel.value),
            }
            for sel_id, sel in enumerate(sels)
        ],
    }


def _cmd_selections(g: graphs.LabeledGraph, args) -> int:
    i = _vertex_index(g, args.vertex, "selections", 1)
    d = g.domain
    sels = splines.minimal_selections(g, i, args.max_trails)
    if args.format == "json":
        _emit_json(_selections_doc(g, i, sels))
    else:
        for k, s in enumerate(sels):
            labels = ", ".join(d.format(lab) for lab in s.labels)
            print(f"selection {k}: labels {{{labels}}} "
                  f"product {d.format(s.product)} value {d.format(s.value)}")
        print(f"{len(sels)} minimal selections at {g.vertex_names[i]}")
    return 0


def _cmd_construct(g: graphs.LabeledGraph, args) -> int:
    i = _vertex_index(g, args.vertex, "selections", 1)
    graphs.check_completion_trail_cap(g, i, args.max_trails)
    if missing := g.n * (g.n - 1) // 2 - g.m:
        print(f"note: completed the graph with {missing} unit-labeled edges; "
              "selection ids refer to the completion", file=sys.stderr)
    k = graphs.completion(g)
    sel = splines.minimal_selection(k, i, args.selection, args.max_trails)
    values = splines.selection_spline(sel)
    d = k.domain
    labels = ", ".join(d.format(lab) for lab in sel.labels)
    print(f"note: selection {args.selection} uses labels {{{labels}}}, "
          f"value {d.format(sel.value)}", file=sys.stderr)
    if args.format == "json":
        _emit_json({"values": [d.format(v) for v in values]})
    else:
        for name, v in zip(k.vertex_names, values):
            print(f"{name}: {d.format(v)}")
    return 0


def _cmd_check_basis(g: graphs.LabeledGraph, args) -> int:
    if len(args.spline) != g.n:
        raise ValueError(f"check-basis needs exactly {g.n} --spline documents")
    candidates = [_load_spline(p, g) for p in args.spline]
    verdict = basis_mod.check_basis(g, candidates)
    d = g.domain
    payload = {
        "determinant": d.format(verdict.determinant),
        "q_g": d.format(verdict.q),
        "quotient": d.format(verdict.quotient),
        "is_basis": verdict.is_basis,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"determinant = {payload['determinant']}")
        print(f"q_g = {payload['q_g']}")
        print(f"quotient = {payload['quotient']}")
        print("basis" if verdict.is_basis else "not a basis")
    return 0 if verdict.is_basis else 1


def _cmd_flowup(g: graphs.LabeledGraph, args) -> int:
    d = g.domain
    basis = basis_mod.flowup_basis(g)
    texts = {v: d.format(v) for v in set().union(*basis)}
    rows = [[texts[v] for v in row] for row in basis]
    diagonal = [row[k] for k, row in enumerate(rows)]
    if args.format == "json":
        _emit_json({
            "diagonal": diagonal,
            "splines": [{"values": row} for row in rows],
        })
    else:
        print("diagonal: " + " ".join(diagonal))
        for k, row in enumerate(rows, start=1):
            print(f"F{k}: " + " ".join(row))
    return 0


def _trail_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cap}")
    return cap


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsplines",
        description="exact spline invariants and basis tests on edge-labeled graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, vertex=False, selection=False, spline=None):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--graph", required=True, help="graph document (JSON)")
        if vertex:
            p.add_argument("--vertex", type=int, required=True,
                           help="1-based position in the vertex order")
            p.add_argument("--max-trails", type=_trail_cap, default=DEFAULT_TRAIL_LIMIT,
                           help="abort trail enumeration beyond this many trails")
        if selection:
            p.add_argument("--selection", type=int, default=0,
                           help="selection id from the selections command (default 0)")
        if spline == "one":
            p.add_argument("--spline", required=True, help="spline document (JSON)")
        elif spline == "many":
            p.add_argument("--spline", action="append", default=[],
                           help="spline document (JSON); repeat once per candidate")
        p.add_argument("--format", choices=("json", "text"), default="text")

    command("verify", _cmd_verify, "check a vector against the edge conditions",
            spline="one")
    command("invariants", _cmd_invariants, "leading values and their product")
    command("trails", _cmd_trails, "reduced zero trails of a vertex", vertex=True)
    command("selections", _cmd_selections, "minimal selections at a vertex",
            vertex=True)
    command("construct", _cmd_construct,
            "two-valued spline from a minimal selection (completes the graph when needed)",
            vertex=True, selection=True)
    command("check-basis", _cmd_check_basis, "determinant basis criterion",
            spline="many")
    command("flowup", _cmd_flowup, "integer flow-up basis")
    return parser


def main(argv=None) -> int:
    # The parser is built once per process and holds no per-call state:
    # ``append`` copies its default list before adding to it.
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(_load_graph(args.graph), args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError:
        print("error: memory ran out", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
