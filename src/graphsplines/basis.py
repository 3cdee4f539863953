"""Spline matrices, exact determinants, basis verdicts, and the integer
flow-up oracle.

The basis criterion: n candidate splines form a module basis exactly when
the determinant of their spline matrix equals a unit times the graph's
determinant target.  The determinant always has the target as an exact
divisor, so the verdict reduces to a unit test on the quotient.  There
is one determinant path, ``determinant``, at every size including the
empty matrix; it and the integer span solve in a non-triangular basis
share one fraction-free (Bareiss) elimination.  Over ZZ[x] it runs on
integers: the matrix is evaluated at x = 2^k, with 2^(k-1) above
Hadamard's bound B on the determinant's coefficients, taken on the unit
circle (``_packed_determinant``), and the one integer determinant is
unpacked into its balanced base-2^k digits (Kronecker substitution; von
zur Gathen and Gerhard, *Modern Computer Algebra*, 8.4).  The packed
integers take (D+1)*k bits, D a degree bound, however sparse the entries
are, and big-integer division is quadratic; so past 2^20 bits the
elimination stays over ZZ[x], which is faster on sparse entries such as
x^D - c.

Over the integers the spline module is the lattice L of vectors f with
l_e | f_u - f_v on every edge e = uv, and its row Hermite normal form is
the flow-up basis.  With M the lcm of the labels, L contains M Z^n, and
L / M Z^n splits over the primes p of M into the lattices of f modulo
p^v_p(M) with f_u = f_v mod p^v_p(l_e) (Bowden and Tymoczko, "Splines
mod m"); such an f is constant modulo p^t on each component of the edges
with v_p >= t.  ``flowup_basis`` reads each row off the path closure that
gives the leading values (``splines.path_closure``).  Run from vertex k,
it returns lead_k, whose p-power is the largest t at which k reaches an
earlier vertex through those edges, and reach_k[v], whose p-power is the
largest t at which k reaches v through later vertices.  So p^v_p(lead_k)
divides f_k whenever f vanishes before k, and lead_k on k and on the v
with v_p(reach_k[v]) > v_p(lead_k), zero elsewhere, is such an f: those
vertices are a component of the edges with v_p > v_p(lead_k), which holds
no earlier vertex.  Glued over p by the Chinese remainder theorem, row k
is lead_k at k and lead_k * E_Q mod M at each later v, where E_Q is 1 mod
Q and 0 mod M / Q, and Q is the part of M on the primes of
u = reach_k[v] / gcd(reach_k[v], lead_k): gcd(M, u), with its exponents
doubled by gcds with the rest of M until none is left, so nothing is
factored.  With E_Q = (M / Q) * r, r the inverse of M / Q modulo Q, the
entry is (M / Q) * (lead_k * r mod Q): no remainder modulo M, which
would cost a quadratic division on labels of a million bits.  A walk the
closure drops has a gcd dividing lead_k, so it cannot change a row.
These rows are triangular with the least possible diagonal, hence a
basis; reducing every entry right of the diagonal into [0, lead_j),
column by column, gives the Hermite form, which is unique.  No entry
exceeds M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import LabeledGraph
from .rings import ZZ, ZZX, Domain, IntPoly
from .splines import determinant_target, first_violation, path_closure


class InternalConsistencyError(RuntimeError):
    """An exactness guarantee failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class BasisVerdict:
    """Outcome of the determinant criterion for one candidate set."""

    determinant: object
    q: object
    quotient: object
    is_basis: bool


def spline_matrix(g: LabeledGraph, splines: Sequence[Sequence]) -> list[list]:
    """Rows ordered from the last vertex down to the first; column k is
    the k-th candidate spline."""
    if len(splines) != g.n:
        raise ValueError(f"expected {g.n} splines, got {len(splines)}")
    d = g.domain
    cols = [[d.coerce(v) for v in f] for f in splines]
    for f in cols:
        if len(f) != g.n:
            raise ValueError("spline length does not match the vertex count")
    return [[cols[c][g.n - 1 - r] for c in range(g.n)] for r in range(g.n)]


def _fraction_free_eliminate(d: Domain, m: list[list], width: int) -> int:
    """Bareiss elimination of ``m`` in place on its first ``width`` columns.

    Afterwards row k holds the pivot of column k and the updated entries
    right of it, every interior division exact; the entries below the
    pivots are not cleared, since no caller reads them.  Returns the sign
    of the row swaps, or 0 when those columns are linearly dependent.
    """
    rows = len(m)
    if width > rows:
        return 0
    sign = 1
    prev = d.one
    for k in range(width):
        if d.is_zero(m[k][k]):
            for r in range(k + 1, rows):
                if not d.is_zero(m[r][k]):
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for r in range(k + 1, rows):
            for c in range(k + 1, len(m[r])):
                num = d.mul(m[r][c], pivot) - d.mul(m[r][k], m[k][c])
                m[r][c] = d.exact_div(num, prev)
        prev = pivot
    return sign


# Largest packed size (D+1)*k, in bits; see the module docstring.
_MAX_PACKED_BITS = 1 << 20


def _packed_determinant(m: list[list[IntPoly]]) -> Optional[IntPoly]:
    """det(m) over ZZX by Kronecker substitution, or None past the cap.

    Evaluation at x = 2^k is a ring map Z[x] -> Z, so det(m)(2^k) is the
    determinant of the integers m(2^k).  A coefficient of det(m) is its
    mean against a power of z on the unit circle, where |a(z)| <= ||a||_1,
    so Hadamard's inequality bounds it by B, the product over rows of
    ceil(sqrt(sum_j ||a_ij||_1^2)); with 2^(k-1) > B the balanced
    base-2^k digits of that integer are its coefficients.  k is a whole
    number of bytes, so digits biased by 2^(k-1) into [0, 2^k) pack and
    unpack through int.to_bytes and int.from_bytes.
    """
    bound = math.prod(math.isqrt(t - 1) + 1 if t else 0 for t in
                      (sum(sum(map(abs, p.coeffs)) ** 2 for p in row) for row in m))
    if not bound:
        return IntPoly()
    # One digit past a degree bound; a zero column (degree -1) means det 0.
    size = 1 + max(0, min(sum(max(p.degree for p in row) for row in m),
                          sum(max(p.degree for p in col) for col in zip(*m))))
    width = bound.bit_length() // 8 + 1
    if 8 * width * size > _MAX_PACKED_BITS:
        return None
    half = 1 << (8 * width - 1)
    digit = half.to_bytes(width, "little")

    def pack(p: IntPoly) -> int:
        raw = b"".join((c + half).to_bytes(width, "little") for c in p.coeffs)
        return int.from_bytes(raw, "little") - int.from_bytes(digit * len(p.coeffs), "little")

    det = determinant(ZZ, [[pack(p) for p in row] for row in m])
    raw = (det + int.from_bytes(digit * size, "little")).to_bytes(width * size, "little")
    return IntPoly(int.from_bytes(raw[k:k + width], "little") - half
                   for k in range(0, len(raw), width))


def determinant(d: Domain, rows: list[list]):
    """Exact determinant over an integral domain, sign preserved, by
    fraction-free elimination; the empty matrix has determinant one.
    Over ZZX the elimination runs on packed integers when they are small
    enough (``_packed_determinant``)."""
    m = [[d.coerce(v) for v in row] for row in rows]
    if any(len(row) != len(m) for row in m):
        raise ValueError("determinant needs a square matrix")
    if d is ZZX and (det := _packed_determinant(m)) is not None:
        return det
    sign = _fraction_free_eliminate(d, m, len(m))
    if not sign:
        return d.zero
    det = m[-1][-1] if m else d.one
    return det if sign > 0 else -det


def _require_splines(g: LabeledGraph, splines: Sequence[Sequence]) -> None:
    for pos, f in enumerate(splines):
        e = first_violation(g, f)
        if e is not None:
            raise ValueError(
                f"candidate #{pos} is not a spline: edge "
                f"{g.vertex_names[e.u]}-{g.vertex_names[e.v]} "
                f"(label {g.domain.format(e.label)}) fails"
            )


def check_basis(g: LabeledGraph, splines: Sequence[Sequence]) -> BasisVerdict:
    """Determinant criterion: a basis exactly when the quotient is a unit.

    Works unchanged on non-complete graphs, since completing a graph with
    unit labels changes neither the spline set nor the target.
    """
    if len(splines) != g.n:
        raise ValueError(f"expected {g.n} candidate splines, got {len(splines)}")
    _require_splines(g, splines)
    det = determinant(g.domain, spline_matrix(g, splines))
    q = determinant_target(g)
    try:
        quotient = g.domain.exact_div(det, q)
    except ArithmeticError as exc:
        raise InternalConsistencyError(
            f"determinant {g.domain.format(det)} is not a multiple of the "
            f"target {g.domain.format(q)}"
        ) from exc
    return BasisVerdict(
        determinant=det,
        q=q,
        quotient=quotient,
        is_basis=g.domain.is_unit(quotient),
    )


def flowup_basis(g: LabeledGraph) -> list[list[int]]:
    """Flow-up basis of the integer spline lattice: its row Hermite form.

    Returns n splines; the k-th vanishes on the first k-1 vertices, its
    value at vertex k is that vertex's leading value, and its values at
    later vertices j lie in [0, lead_j).  Row k is read off the path
    closure run from k, the first vertex with lead one, and reduced once
    (see the module docstring).  Each row before the reduction is checked
    against the edges at its nonzero entries.
    """
    if g.domain is not ZZ:
        raise ValueError("the flow-up oracle works over the integer domain only")
    M = ZZ.lcm_all(e.label for e in g.edges)
    idempotents: dict[int, tuple[int, int, int]] = {}
    rows: list[dict[int, int]] = []
    cols: list[set[int]] = [set() for _ in range(g.n)]
    for k in range(g.n):
        lead, reach = path_closure(g, k)
        row = {k: lead}
        for v, x in reach.items():
            u = x // math.gcd(x, lead)
            if v == k or u == 1:
                continue
            idem = idempotents.get(u)
            if idem is None:
                q = math.gcd(M, u)
                while (h := math.gcd(M // q, q)) > 1:
                    q *= h
                idem = idempotents[u] = (M // q, pow(M // q, -1, q), q)
            rest, inverse, q = idem
            row[v] = rest * (lead * inverse % q)
            cols[v].add(k)
        for j, x in row.items():
            for e, w in g.neighbors(j):
                if (x - row.get(w, 0)) % g.edges[e].label:
                    raise InternalConsistencyError(
                        f"flow-up row {k} fails the edge {j}-{w}"
                    )
        rows.append(row)
    # In increasing column order, row k takes the multiple of row c that
    # brings its entry at c into [0, lead_c).  Only rows nonzero at c and
    # the nonzero columns of row c are touched.
    for c, pivot in enumerate(rows):
        d = pivot[c]
        for k in cols[c]:
            row = rows[k]
            q = row.get(c, 0) // d
            if not q:
                continue
            for j, t in pivot.items():
                x = (row.get(j, 0) - q * t) % M
                if x:
                    row[j] = x
                    if j > c:
                        cols[j].add(k)
                else:
                    row.pop(j, None)
    basis = []
    for row in rows:
        out = [0] * g.n
        for j, x in row.items():
            out[j] = x
        basis.append(out)
    return basis


def span_coordinates(g: LabeledGraph, basis: Sequence[Sequence[int]],
                     f: Sequence[int]) -> Optional[list[int]]:
    """Integer coordinates of ``f`` in the span of ``basis``, or None.

    The basis vectors must be linearly independent.  The system
    sum_k y_k basis[k] = f is solved exactly; None when it has no integer
    solution.  A triangular basis, such as the flow-up basis (row k zero
    before column k and nonzero at k), is solved by substitution over its
    nonzeros, one exact division per row; any other basis by fraction-free
    elimination and back substitution.
    """
    if g.domain is not ZZ:
        raise ValueError("span coordinates are computed over the integers only")
    rows = [list(map(g.domain.coerce, b)) for b in basis]
    f = list(map(g.domain.coerce, f))
    if len(f) != g.n or any(len(b) != g.n for b in rows):
        raise ValueError("vector lengths must match the vertex count")
    k = len(rows)
    if k <= g.n and all(row[j] and not any(row[:j]) for j, row in enumerate(rows)):
        rest = f
        y = []
        for j, row in enumerate(rows):
            q, r = divmod(rest[j], row[j])
            if r:
                return None
            y.append(q)
            if q:
                for c in range(j + 1, g.n):
                    if row[c]:
                        rest[c] -= q * row[c]
        return None if any(rest[k:]) else y
    system = [[b[j] for b in rows] + [f[j]] for j in range(g.n)]
    if not _fraction_free_eliminate(ZZ, system, k):
        raise ValueError("basis vectors are linearly dependent")
    if any(system[r][k] for r in range(k, g.n)):
        return None
    y = [0] * k
    for j in range(k - 1, -1, -1):
        rhs = system[j][k] - sum(system[j][c] * y[c] for c in range(j + 1, k))
        y[j], r = divmod(rhs, system[j][j])
        if r:
            return None
    return y
