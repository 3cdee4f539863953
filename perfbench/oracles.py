"""Reference computations the benchmark checks the program against.

Every label is generated as a product of chosen atoms: primes for the
`int` domain, and linear factors ``x - a`` times small primes for the
`intpoly` domain.  A label is kept as its exponent vector (a dict from
atom to exponent), so gcd and lcm become componentwise min and max and no
ring arithmetic of the program is needed to know an answer.

Atoms are ints (primes) or ``("x", a)`` for the monic factor ``x - a``.
Polynomials are coefficient tuples, lowest degree first, with no trailing
zeros.  All values built here are canonical associates: positive for
integers, positive leading coefficient for polynomials.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import reduce


class Mismatch(AssertionError):
    """A program output that disagrees with the reference."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


# --- exponent vectors --------------------------------------------------

def vmin(a, b):
    return {k: min(e, b[k]) for k, e in a.items() if k in b}


def vmax(a, b):
    out = dict(a)
    for k, e in b.items():
        if e > out.get(k, 0):
            out[k] = e
    return out


def vadd(a, b):
    out = dict(a)
    for k, e in b.items():
        out[k] = out.get(k, 0) + e
    return out


def vsub(a, b):
    """a / b as vectors; raises when b does not divide a."""
    out = dict(a)
    for k, e in b.items():
        left = out.get(k, 0) - e
        if left < 0:
            raise ValueError(f"{b} does not divide {a}")
        if left:
            out[k] = left
        else:
            out.pop(k, None)
    return out


# --- values ------------------------------------------------------------

def pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(out)


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return ptrim(out)


def pscale(c, a):
    return ptrim([c * x for x in a])


def ptrim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def peval(a, t):
    out = 0
    for c in reversed(a):
        out = out * t + c
    return out


def value(vec, domain):
    """The canonical ring element with exponent vector ``vec``."""
    c = math.prod(p ** e for p, e in vec.items() if isinstance(p, int))
    if domain == "int":
        return c
    poly = (c,)
    for atom, e in sorted((k, e) for k, e in vec.items() if not isinstance(k, int)):
        for _ in range(e):
            poly = pmul(poly, (-atom[1], 1))
    return poly


def scale(c, v, domain):
    return c * v if domain == "int" else pscale(c, v)


def add(a, b, domain):
    return a + b if domain == "int" else padd(a, b)


def zero(domain):
    return 0 if domain == "int" else ()


def format_value(v, domain):
    """Document text for a value, in the syntax of graph documents."""
    if domain == "int":
        return str(v)
    if not v:
        return "0"
    parts = []
    for k in range(len(v) - 1, -1, -1):
        c = v[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = "x" if k == 1 else f"x^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        sign = "-" if c < 0 else "+"
        parts.append(("-" if c < 0 else "") + body if not parts else f"{sign} {body}")
    return " ".join(parts)


_INT = re.compile(r"-?[0-9]+")
_TERM = re.compile(r"([+-])(?:([0-9]+)\*?)?(x)?(?:\^([0-9]+))?")


def parse_int(text):
    """Decimal text to int without the interpreter's digit limit, so a
    long output is read without raising the limit for the program too."""
    expect(isinstance(text, str) and _INT.fullmatch(text), f"not an integer: {text!r}")
    neg = text.startswith("-")
    digits = text.lstrip("-")
    out = 0
    for k in range(0, len(digits), 4000):
        chunk = digits[k:k + 4000]
        out = out * 10 ** len(chunk) + int(chunk)
    return -out if neg else out


def parse_poly(text):
    expect(isinstance(text, str), f"not a polynomial: {text!r}")
    s = text.replace(" ", "")
    if s and s[0] not in "+-":
        s = "+" + s
    coeffs = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        expect(m and m.end() > pos + 1, f"not a polynomial: {text!r}")
        sign, c, x, e = m.groups()
        expect(c or x, f"not a polynomial: {text!r}")
        c = int(c) if c else 1
        e = (int(e) if e else 1) if x else 0
        expect(x or m.group(4) is None, f"not a polynomial: {text!r}")
        coeffs[e] = coeffs.get(e, 0) + (c if sign == "+" else -c)
        pos = m.end()
    expect(coeffs, f"not a polynomial: {text!r}")
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return ptrim(out)


def parse_value(text, domain):
    return parse_int(text) if domain == "int" else parse_poly(text)


# --- graphs ------------------------------------------------------------

def zero_trail_count_complete(n, i):
    """Zero trails of 0-based vertex i on K_n: i * sum_k L!/(L-k)!."""
    L = n - 1 - i
    return i * sum(math.perm(L, k) for k in range(L + 1))


class Model:
    """The benchmark's own view of one generated graph.

    ``edges`` holds ``(u, v, vec)`` in document order with ``u < v``.
    Vertex names are ``v1..vn`` in vertex order.
    """

    def __init__(self, domain, n, edges):
        self.domain = domain
        self.n = n
        self.edges = list(edges)
        self.names = [f"v{k + 1}" for k in range(n)]
        self.index = {name: k for k, name in enumerate(self.names)}
        self.pair = {(u, v): k for k, (u, v, _) in enumerate(self.edges)}
        self.adj = [[] for _ in range(n)]
        for k, (u, v, _) in enumerate(self.edges):
            self.adj[u].append((v, k))
            self.adj[v].append((u, k))
        self._leads = None
        self._lead_values = None

    def label(self, k):
        return value(self.edges[k][2], self.domain)

    def document(self):
        return {
            "domain": self.domain,
            "vertices": self.names,
            "edges": [
                {"u": self.names[u], "v": self.names[v],
                 "label": format_value(value(vec, self.domain), self.domain)}
                for u, v, vec in self.edges
            ],
        }

    def parse(self, text):
        return parse_value(text, self.domain)

    def value(self, vec):
        return value(vec, self.domain)

    def edge_between(self, a, b):
        return self.pair[(min(a, b), max(a, b))]

    @property
    def leads(self):
        """Leading-value exponent vectors by an (lcm, gcd) path closure.

        The lead of vertex i is, atom by atom, the widest bottleneck over
        paths from i through vertices >= i to an earlier vertex.  A
        worklist relaxes best[v] = max over edges v-w of min(edge, best[w])
        with earlier vertices as sinks; cycles never raise a bottleneck,
        so walks give the same value as simple paths.
        """
        if self._leads is None:
            leads = [{}]
            for i in range(1, self.n):
                best = {}
                work = []
                for v in range(i, self.n):
                    for w, k in self.adj[v]:
                        if w < i:
                            best[v] = vmax(best.get(v, {}), self.edges[k][2])
                    if v in best:
                        work.append(v)
                while work:
                    v = work.pop()
                    for w, k in self.adj[v]:
                        if w < i:
                            continue
                        cand = vmin(self.edges[k][2], best[v])
                        new = vmax(best[w], cand) if w in best else cand
                        if best.get(w) != new:
                            best[w] = new
                            work.append(w)
                if i not in best:
                    raise ValueError(f"vertex {i} has no path to an earlier vertex")
                leads.append(best[i])
            self._leads = leads
        return self._leads

    def lead_values(self):
        if self._lead_values is None:
            self._lead_values = [self.value(v) for v in self.leads]
        return self._lead_values

    def lead_value(self, i):
        return self.lead_values()[i]

    def q_vec(self):
        return reduce(vadd, self.leads, {})

    def zero_paths(self, i):
        """Vertex-simple paths from i through later vertices to an earlier one."""
        out = []
        stack = [(i, (i,))]
        while stack:
            v, path = stack.pop()
            for w, _ in self.adj[v]:
                if w in path:
                    continue
                if w < i:
                    out.append(path + (w,))
                elif w > i:
                    stack.append((w, path + (w,)))
        return out

    def path_edges(self, path):
        return [self.edge_between(a, b) for a, b in zip(path, path[1:])]

    def path_gcd(self, path):
        return reduce(vmin, (self.edges[k][2] for k in self.path_edges(path)))

    def is_spline(self, values):
        """Divisibility of every edge difference (integer domain)."""
        for u, v, vec in self.edges:
            diff = values[u] - values[v]
            if diff % self.value(vec):
                return False
        return True


def minimal_hitting_sets(sets):
    """Every inclusion-minimal bit set meeting each bit set in ``sets``,
    by exhausting the subsets of the bits that occur."""
    bits = sorted({b for s in sets for b in range(s.bit_length()) if s >> b & 1})
    local = [sum(1 << j for j, b in enumerate(bits) if s >> b & 1) for s in sets]
    size = 1 << len(bits)
    hits = bytearray(size)
    for sub in range(size):
        hits[sub] = all(sub & t for t in local)
    out = set()
    for sub in range(size):
        if hits[sub] and not any(sub >> j & 1 and hits[sub & ~(1 << j)]
                                 for j in range(len(bits))):
            out.add(sum(1 << b for j, b in enumerate(bits) if sub >> j & 1))
    return out


def hits_all(mask, sets):
    return all(mask & t for t in sets)


def is_minimal_hitting(mask, sets):
    if not hits_all(mask, sets):
        return False
    return not any(mask >> b & 1 and hits_all(mask & ~(1 << b), sets)
                   for b in range(mask.bit_length()))


def det_fraction(rows):
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    expect(det.denominator == 1, "integer determinant has a fraction")
    return det.numerator


def spline_matrix(candidates):
    """The program's documented layout: rows run from the last vertex to
    the first, column k is the k-th candidate."""
    n = len(candidates)
    return [[candidates[c][n - 1 - r] for c in range(n)] for r in range(n)]


def unimodular(rng, n, spread=2):
    """A random integer matrix of determinant +-1 and that determinant:
    lower unitriangular times upper unitriangular times a sign diagonal."""
    low = [[1 if i == j else (rng.randint(-spread, spread) if j < i else 0)
            for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.randint(-spread, spread) if j > i else 0)
           for j in range(n)] for i in range(n)]
    signs = [rng.choice((1, -1)) for _ in range(n)]
    u = [[sum(low[i][k] * up[k][j] for k in range(n)) * signs[j] for j in range(n)]
         for i in range(n)]
    return u, math.prod(signs)


def combine(u, rows, domain):
    """Rows of u * rows, over ints or polynomials."""
    out = []
    for coeffs in u:
        acc = [zero(domain)] * len(rows[0])
        for c, row in zip(coeffs, rows):
            if c:
                acc = [add(a, scale(c, x, domain), domain) for a, x in zip(acc, row)]
        out.append(acc)
    return out
