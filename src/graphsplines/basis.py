"""Spline matrices, exact determinants, basis verdicts, and the integer
flow-up oracle.

The basis criterion: n candidate splines form a module basis exactly when
the determinant of their spline matrix equals a unit times the graph's
determinant target.  The determinant always has the target as an exact
divisor, so the verdict reduces to a unit test on the quotient.  There
is one determinant path, ``determinant``, at every size including the
empty matrix; it and the integer span solve in a non-triangular basis
share one fraction-free (Bareiss) elimination.  Over ZZ[x] it runs on
integers: the matrix is evaluated at x = 2^k, with 2^(k-1) above a bound
B on the determinant's coefficients, and the one integer determinant is
unpacked into its balanced base-2^k digits (Kronecker substitution; von
zur Gathen and Gerhard, *Modern Computer Algebra*, 8.4).  The packed
integers take (D+1)*k bits, D a degree bound, however sparse the entries
are, and big-integer division is quadratic; so past 2^20 bits the
elimination stays over ZZ[x], which is faster on sparse entries such as
x^D - c.

Over the integers the spline module is the lattice L of vectors f with
l_e | f_u - f_v on every edge e = uv, and its row Hermite normal form is
the flow-up basis.  ``flowup_basis`` takes the Hermite form of the
lattice in Z^(m+n), edge columns first, generated by one row
(D e_i | e_i) per vertex, D the edge-difference matrix, and one row
(l_e e_e | 0) per edge.  Its rows with pivots in the vertex columns are
zero on every edge, so their vertex parts are the Hermite basis of L.
That lattice contains M Z^(m+n), M the lcm of the labels, so every entry
is kept modulo M: each column adjoins M e_c (at edge column e the edge
row l_e e_e, which is still untouched there) and carries the remainder
row forward (Domich, Kannan and Trotter 1987; Cohen, *A Course in
Computational Algebraic Number Theory*, Alg. 2.4.8).  With the edge row
at hand, an edge entry matters only modulo l_e, so a row keeps just its
vertex part f and reads its entry at edge uv as f_u - f_v.  No entry
exceeds M.  The diagonal must reproduce the leading values, which
``splines`` computes by an independent path closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import LabeledGraph
from .rings import ZZ, ZZX, Domain, IntPoly
from .splines import determinant_target, first_violation, leading_values


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

    Afterwards row k holds the pivot of column k with zeros below it; all
    columns are updated and every interior division is exact.  Returns the
    sign of the row swaps, or 0 when one of those columns has no pivot,
    that is when they are linearly dependent.
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
                num = d.sub(d.mul(m[r][c], pivot), d.mul(m[r][k], m[k][c]))
                m[r][c] = d.exact_div(num, prev)
            m[r][k] = d.zero
        prev = pivot
    return sign


# Largest packed size (D+1)*k, in bits; see the module docstring.
_MAX_PACKED_BITS = 1 << 20


def _packed_determinant(m: list[list[IntPoly]]) -> Optional[IntPoly]:
    """det(m) over ZZX by Kronecker substitution, or None past the cap.

    Evaluation at x = 2^k is a ring map Z[x] -> Z, so det(m)(2^k) is the
    determinant of the integers m(2^k).  Expanding the product of the row
    sums bounds every coefficient of det(m) by B, the product over rows of
    the entries' summed absolute coefficients; with 2^(k-1) > B the
    balanced base-2^k digits of that integer are its coefficients.  k is
    a whole number of bytes, so digits biased by 2^(k-1) into [0, 2^k)
    pack and unpack through int.to_bytes and int.from_bytes.
    """
    bound = math.prod(sum(abs(c) for p in row for c in p.coeffs) for row in m)
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
    return det if sign > 0 else d.neg(det)


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


def _hermite_column(rows: list[list[int]], entries: list[int], modulus: int,
                    M: int, width: int) -> tuple[list[int], int, list[list[int]]]:
    """One column of the Hermite elimination modulo M.

    ``entries[k]`` is the column entry of ``rows[k]``, which matters only
    modulo ``modulus``: modulus * e_c lies in the lattice and starts as the
    pivot row, with vertex part zero.  Each row with a nonzero entry meets
    the pivot in a unimodular 2x2 step.  Returns the final pivot's vertex
    part and entry, and the remainder rows, all zero in this column.  Rows
    are reduced modulo M, and zero rows are dropped.
    """
    pivot, p = [0] * width, modulus
    rest = []
    for row, a in zip(rows, entries):
        a %= modulus
        if not a:
            rest.append(row)
            continue
        if a % p == 0:
            # The general step covers this case too, but rebuilds the pivot.
            q = a // p
            row = [(s - q * t) % M for s, t in zip(row, pivot)]
        else:
            g = math.gcd(a, p)
            pa, pp = a // g, p // g
            x = pow(pa, -1, pp)
            y = (1 - pa * x) // pp
            row, pivot, p = (
                [(pp * s - pa * t) % M for s, t in zip(row, pivot)],
                [(x * s + y * t) % M for s, t in zip(row, pivot)],
                g,
            )
        if any(row):
            rest.append(row)
    return pivot, p, rest


def flowup_basis(g: LabeledGraph) -> list[list[int]]:
    """Flow-up basis of the integer spline lattice: its row Hermite form.

    Returns n splines; the k-th vanishes on the first k-1 vertices, its
    value at vertex k is that vertex's leading value, and its values at
    later vertices j lie in [0, lead_j).  The splines form a module basis:
    the lattice is solved exactly, modulo the lcm of the labels (see the
    module docstring), not constructed greedily.  The diagonal is checked
    against ``leading_values``.
    """
    if g.domain is not ZZ:
        raise ValueError("the flow-up oracle works over the integer domain only")
    leads = leading_values(g)
    n = g.n
    M = ZZ.lcm_all(e.label for e in g.edges)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for e in g.edges:
        entries = [f[e.u] - f[e.v] for f in rows]
        _, _, rows = _hermite_column(rows, entries, abs(e.label), M, n)
    basis = []
    for c in range(n):
        pivot, p, rows = _hermite_column(rows, [f[c] for f in rows], M, M, n)
        pivot[c] = p
        basis.append(pivot)
    for c in range(n):
        for k in range(c):
            q = basis[k][c] // basis[c][c]
            if q:
                basis[k][c:] = [s - q * t for s, t in zip(basis[k][c:], basis[c][c:])]
    if [basis[k][k] for k in range(n)] != leads:
        raise InternalConsistencyError(
            "flow-up diagonal does not reproduce the leading values"
        )
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
