"""Spans and counters around the calls into each layer, recorded from outside.

``Tracer.install`` wraps the public functions named in ``LAYER_FUNCTIONS``
in every ``graphsplines`` module namespace that holds them, so that
``splines.zero_trails`` is wrapped as well as ``graphs.zero_trails``.  Ring
methods are wrapped by instance attributes on the ``ZZ`` and ``ZZX``
domain objects.  ``uninstall`` restores every original, so untraced passes
run the program unchanged.

Each call records a span ``(id, name, start, end, parent id)`` and adds its
duration and self time (duration minus the time of its child spans) to its
name's totals.  Ring methods run millions of times per pass on dense
graphs, so their spans are only totalled, not stored; their time is still
subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "graphsplines"
LAYER_FUNCTIONS = {
    "graphs": ("load_graph", "zero_trails"),
    "splines": ("leading_value", "minimal_selections", "selection_spline",
                "first_violation"),
    "basis": ("flowup_basis", "span_coordinates", "determinant", "check_basis"),
    "cli": ("main",),
}
RING_METHODS = ("gcd", "lcm", "gcd_all", "lcm_all", "product", "mul",
                "exact_div", "divides", "parse", "format")

PER_LAYER_METRICS = (
    ("graphs.zero_trails.calls", "count"),
    ("graphs.zero_trails.out", "count"),
    ("graphs.zero_trails.self_s", "s"),
    ("rings.ZZ.gcd_lcm.calls", "count"),
    ("rings.ZZ.self_s", "s"),
    ("splines.leading_value.calls", "count"),
    ("splines.leading_value.distinct", "count"),
    ("splines.leading_value.useful_ratio", "ratio"),
    ("splines.leading_value.self_s", "s"),
    ("splines.minimal_selections.calls", "count"),
    ("splines.minimal_selections.out", "count"),
    ("splines.minimal_selections.self_s", "s"),
    ("splines.selection_spline.self_s", "s"),
    ("basis.flowup_basis.calls", "count"),
    ("basis.flowup_basis.self_s", "s"),
    ("basis.flowup_basis.out_bits", "bits"),
    ("basis.span_coordinates.self_s", "s"),
    ("basis.determinant.calls", "count"),
    ("basis.determinant.self_s", "s"),
    ("basis.check_basis.self_s", "s"),
    ("splines.first_violation.calls", "count"),
    ("splines.first_violation.self_s", "s"),
    ("rings.ZZX.gcd.calls", "count"),
    ("rings.ZZX.gcd.self_s", "s"),
    ("rings.ZZX.exact_div.self_s", "s"),
    ("rings.ZZX.mul.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("rings.format.self_s", "s"),
    ("graphs.load_graph.self_s", "s"),
    ("rings.parse.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _graph_key(g):
    return (g.domain.name, g.vertex_names,
            tuple((e.u, e.v, e.label) for e in g.edges))


class Tracer:
    def __init__(self):
        self._patches = []
        self.stack = []
        self.stats = {}
        self.spans = []
        self.reset()

    def reset(self):
        """Forget the spans and counts of the previous pass.  The
        containers are cleared in place: the wrappers hold them."""
        self.stack.clear()
        self.stats.clear()
        self.spans.clear()
        self.next_id = 0
        self.trails_out = 0
        self.selections_out = 0
        self.flowup_bits = 0
        self.out_bytes = 0
        self.lead_pairs = set()
        self._graph_keys = {}

    def _wrap(self, name, fn, keep_span, after=None):
        stats, stack, spans = self.stats, self.stack, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else None
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if keep_span:
                    spans.append((sid, name, start, end,
                                  None if parent is None else parent[1]))
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_zero_trails(self, args, result):
        self.trails_out += len(result)

    def _after_leading_value(self, args, result):
        g, i = args[0], args[1]
        entry = self._graph_keys.get(id(g))
        if entry is None:
            # The graph is kept so its id cannot be reused within the pass.
            entry = self._graph_keys[id(g)] = (g, _graph_key(g))
        self.lead_pairs.add((entry[1], i))

    def _after_minimal_selections(self, args, result):
        self.selections_out += len(result)

    def _after_flowup(self, args, result):
        bits = max((abs(v).bit_length() for row in result for v in row), default=0)
        self.flowup_bits = max(self.flowup_bits, bits)

    def install(self):
        pkg = sys.modules[PACKAGE]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        after = {
            "graphs.zero_trails": self._after_zero_trails,
            "splines.leading_value": self._after_leading_value,
            "splines.minimal_selections": self._after_minimal_selections,
            "basis.flowup_basis": self._after_flowup,
        }
        for layer, names in LAYER_FUNCTIONS.items():
            home = getattr(pkg, layer)
            for fname in names:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, original, True, after.get(name))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))
        for tag, domain in (("ZZ", pkg.ZZ), ("ZZX", pkg.ZZX)):
            for meth in RING_METHODS:
                setattr(domain, meth,
                        self._wrap(f"rings.{tag}.{meth}", getattr(domain, meth), False))
                self._patches.append((domain, meth, None))

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            if original is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)
        self._patches = []

    def metrics(self):
        """Per-layer metrics of the pass since the last ``reset``."""
        def calls(name):
            return self.stats.get(name, (0, 0.0, 0.0))[0]

        def self_s(*names):
            return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

        def ring_self(tag):
            return self_s(*(f"rings.{tag}.{m}" for m in RING_METHODS))

        lead_calls = calls("splines.leading_value")
        return {
            "graphs.zero_trails.calls": calls("graphs.zero_trails"),
            "graphs.zero_trails.out": self.trails_out,
            "graphs.zero_trails.self_s": self_s("graphs.zero_trails"),
            "rings.ZZ.gcd_lcm.calls": calls("rings.ZZ.gcd") + calls("rings.ZZ.lcm"),
            "rings.ZZ.self_s": ring_self("ZZ"),
            "splines.leading_value.calls": lead_calls,
            "splines.leading_value.distinct": len(self.lead_pairs),
            "splines.leading_value.useful_ratio":
                len(self.lead_pairs) / lead_calls if lead_calls else 0.0,
            "splines.leading_value.self_s": self_s("splines.leading_value"),
            "splines.minimal_selections.calls": calls("splines.minimal_selections"),
            "splines.minimal_selections.out": self.selections_out,
            "splines.minimal_selections.self_s": self_s("splines.minimal_selections"),
            "splines.selection_spline.self_s": self_s("splines.selection_spline"),
            "basis.flowup_basis.calls": calls("basis.flowup_basis"),
            "basis.flowup_basis.self_s": self_s("basis.flowup_basis"),
            "basis.flowup_basis.out_bits": self.flowup_bits,
            "basis.span_coordinates.self_s": self_s("basis.span_coordinates"),
            "basis.determinant.calls": calls("basis.determinant"),
            "basis.determinant.self_s": self_s("basis.determinant"),
            "basis.check_basis.self_s": self_s("basis.check_basis"),
            "splines.first_violation.calls": calls("splines.first_violation"),
            "splines.first_violation.self_s": self_s("splines.first_violation"),
            "rings.ZZX.gcd.calls": calls("rings.ZZX.gcd"),
            "rings.ZZX.gcd.self_s": self_s("rings.ZZX.gcd"),
            "rings.ZZX.exact_div.self_s": self_s("rings.ZZX.exact_div"),
            "rings.ZZX.mul.self_s": self_s("rings.ZZX.mul"),
            "cli.main.self_s": self_s("cli.main"),
            "cli.out_bytes": self.out_bytes,
            "rings.format.self_s": self_s("rings.ZZ.format", "rings.ZZX.format"),
            "graphs.load_graph.self_s": self_s("graphs.load_graph"),
            "rings.parse.self_s": self_s("rings.ZZ.parse", "rings.ZZX.parse"),
        }
