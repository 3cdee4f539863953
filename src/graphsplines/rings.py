"""Exact arithmetic over GCD domains.

Two domains are provided.  ``ZZ`` operates on plain Python integers.
``ZZX`` operates on :class:`IntPoly` values, univariate polynomials with
integer coefficients stored as a low-to-high coefficient tuple with no
trailing zeros (so the degree is one less than the tuple length).

Polynomial gcds are computed by splitting off the integer content and
running a primitive polynomial remainder sequence on the primitive parts,
which keeps every intermediate value in integer arithmetic.

gcd and lcm results are canonical associates so repeated runs print
byte-identical output: nonnegative for integers, positive leading
coefficient for polynomials.  The units are +1 and -1 in both domains.
"""

from __future__ import annotations

import math
import re
from typing import Iterable

# Largest exponent ZZX.parse accepts: a label of degree N takes N+1
# coefficient slots, so the cap bounds what one label can allocate.
MAX_DEGREE = 10_000


def _decimal(digits: str) -> int:
    """Value of a validated decimal string of any length.

    ``int`` refuses strings longer than the interpreter's int/str digit
    limit; those are split in halves and recombined arithmetically, so the
    limit is neither hit nor changed.
    """
    try:
        return int(digits)
    except ValueError:
        pass
    if digits[0] in "+-":
        return (-1 if digits[0] == "-" else 1) * _decimal(digits[1:])
    half = len(digits) // 2
    return _decimal(digits[:-half]) * 10 ** half + _decimal(digits[-half:])


def _decimal_text(a: int) -> str:
    """Decimal text of an int of any size; the inverse of ``_decimal``.

    ``str`` refuses ints longer than the interpreter's int/str digit
    limit; those are split at a power of ten into halves printed on their
    own, so the limit is neither hit nor changed.
    """
    try:
        return str(a)
    except ValueError:
        pass
    if a < 0:
        return "-" + _decimal_text(-a)
    # A little under half the decimal digits (log10(2) / 2 > 3/20), so
    # ``high`` is never zero.
    half = a.bit_length() * 3 // 20
    high, low = divmod(a, 10 ** half)
    return _decimal_text(high) + _decimal_text(low).zfill(half)


class RingParseError(ValueError):
    """Text that does not encode an element of the requested domain."""


class ExactDivisionError(ArithmeticError):
    """exact_div was called on a pair that does not divide evenly."""


class IntPoly:
    """Immutable integer polynomial; ``coeffs[k]`` multiplies x^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        # The zero polynomial reports degree -1.
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (IntPoly((other,))).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its int, so it hashes like it.
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(("IntPoly", self.coeffs))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(tuple(other * c for c in self.coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"IntPoly({ZZX.format(self)!r})"


def _poly_primitive_canonical(p: IntPoly) -> IntPoly:
    """Divide out the content and force a positive leading coefficient."""
    if p.is_zero:
        return p
    c = math.gcd(*p.coeffs)
    if p.leading < 0:
        c = -c
    return IntPoly(tuple(v // c for v in p.coeffs))


def _poly_pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo remainder of a by b; defined for any nonzero b up to content."""
    lb = b.leading
    db = b.degree
    rem = list(a.coeffs)
    while len(rem) - 1 >= db:
        top = rem[-1]
        shift = len(rem) - 1 - db
        rem = [lb * v for v in rem]
        for j, bc in enumerate(b.coeffs):
            rem[shift + j] -= top * bc
        while rem and rem[-1] == 0:
            rem.pop()
    return IntPoly(rem)


def _poly_exact_div(a: IntPoly, b: IntPoly):
    """Quotient q with a == q*b, or None when b does not divide a in Z[x]."""
    if a.is_zero:
        return IntPoly()
    if a.degree < b.degree:
        return None
    rem = list(a.coeffs)
    lb = b.leading
    db = b.degree
    q = [0] * (a.degree - db + 1)
    for k in range(a.degree - db, -1, -1):
        c = rem[k + db]
        if c == 0:
            continue
        if c % lb:
            return None
        f = c // lb
        q[k] = f
        for j, bc in enumerate(b.coeffs):
            rem[k + j] -= f * bc
    if any(rem):
        return None
    return IntPoly(q)


class Domain:
    """Arithmetic of one GCD domain; values are opaque to callers.

    Elements of both domains support ``+``, ``-`` and ``*``, so the ring
    operations live here; subclasses supply parsing, text, canonical
    associates, gcd, lcm and exact division.  Collections fold pairwise
    with canonicalization after each step, so set-wise gcd and lcm are
    order-independent up to the canonical associate.
    """

    name = "?"

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def gcd_all(self, items) :
        out = self.zero
        for a in items:
            out = self.gcd(out, a)
        return out

    def lcm_all(self, items):
        out = self.one
        for a in items:
            out = self.lcm(out, a)
        return out

    def product(self, items):
        return math.prod(items, start=self.one)


class IntegerDomain(Domain):
    """Arbitrary-precision integers; the canonical associate is |a|."""

    name = "int"
    zero = 0
    one = 1

    def coerce(self, a):
        if not isinstance(a, int):
            raise TypeError(f"expected an integer, got {type(a).__name__}")
        return a

    def parse(self, text: str) -> int:
        m = re.fullmatch(r"[+-]?[0-9]+", text.strip())
        if m is None:
            raise RingParseError(f"not an integer: {text!r}")
        return _decimal(m.group())

    def format(self, a: int) -> str:
        return _decimal_text(a)

    def canonical(self, a: int) -> int:
        return abs(a)

    def is_zero(self, a: int) -> bool:
        return a == 0

    def is_unit(self, a: int) -> bool:
        return a in (1, -1)

    def gcd(self, a: int, b: int) -> int:
        return math.gcd(a, b)

    def lcm(self, a: int, b: int) -> int:
        return math.lcm(a, b)

    def divides(self, b: int, a: int) -> bool:
        if b == 0:
            return a == 0
        return a % b == 0

    def exact_div(self, a: int, b: int) -> int:
        if b == 0:
            raise ExactDivisionError("division by zero")
        q, r = divmod(a, b)
        if r:
            raise ExactDivisionError(
                f"{self.format(b)} does not divide {self.format(a)}"
            )
        return q


class IntPolyDomain(Domain):
    """Univariate integer polynomials; canonical associates have a
    positive leading coefficient.  This is a GCD domain but not a PID."""

    name = "intpoly"
    zero = IntPoly()
    one = IntPoly((1,))

    _TERM = re.compile(r"(?:([0-9]+)\*?)?x(?:\^([0-9]+))?$|([0-9]+)$")

    def coerce(self, a):
        if isinstance(a, IntPoly):
            return a
        if isinstance(a, int):
            return IntPoly((a,))
        raise TypeError(f"expected an integer polynomial, got {type(a).__name__}")

    def parse(self, text: str) -> IntPoly:
        s = re.sub(r"\s+", "", text)
        if not s:
            raise RingParseError("empty polynomial")
        if s[0] not in "+-":
            s = "+" + s
        tokens = re.findall(r"[+-][^+-]+", s)
        if "".join(tokens) != s:
            raise RingParseError(f"not a polynomial in x: {text!r}")
        coeffs: dict[int, int] = {}
        for tok in tokens:
            sign = 1 if tok[0] == "+" else -1
            m = self._TERM.fullmatch(tok[1:])
            if m is None:
                raise RingParseError(f"bad term {tok[1:]!r} in {text!r}")
            if m.group(3) is not None:
                exp, coeff = 0, _decimal(m.group(3))
            else:
                coeff = _decimal(m.group(1)) if m.group(1) else 1
                exp = _decimal(m.group(2)) if m.group(2) else 1
                if exp > MAX_DEGREE:
                    raise RingParseError(
                        f"exponent {m.group(2)} in {text!r} exceeds the degree "
                        f"cap {MAX_DEGREE}"
                    )
            coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
        out = [0] * (max(coeffs) + 1)
        for exp, c in coeffs.items():
            out[exp] = c
        return IntPoly(out)

    def format(self, a: IntPoly) -> str:
        if a.is_zero:
            return "0"
        parts = []
        for k in range(a.degree, -1, -1):
            c = a.coeffs[k]
            if c == 0:
                continue
            mag = _decimal_text(abs(c))
            if k == 0:
                body = mag
            elif k == 1:
                body = "x" if mag == "1" else f"{mag}*x"
            else:
                body = f"x^{k}" if mag == "1" else f"{mag}*x^{k}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def canonical(self, a: IntPoly) -> IntPoly:
        if a.leading < 0:
            return -a
        return a

    def is_zero(self, a: IntPoly) -> bool:
        return a.is_zero

    def is_unit(self, a: IntPoly) -> bool:
        return a.degree == 0 and a.coeffs[0] in (1, -1)

    def gcd(self, a: IntPoly, b: IntPoly) -> IntPoly:
        if a.is_zero:
            return self.canonical(b)
        if b.is_zero:
            return self.canonical(a)
        c = math.gcd(*a.coeffs, *b.coeffs)
        f = _poly_primitive_canonical(a)
        g = _poly_primitive_canonical(b)
        if f.degree < g.degree:
            f, g = g, f
        while not g.is_zero:
            r = _poly_pseudo_rem(f, g)
            f, g = g, _poly_primitive_canonical(r)
        return c * f

    def lcm(self, a: IntPoly, b: IntPoly) -> IntPoly:
        if a.is_zero or b.is_zero:
            return IntPoly()
        return self.canonical(self.exact_div(a * b, self.gcd(a, b)))

    def divides(self, b: IntPoly, a: IntPoly) -> bool:
        if b.is_zero:
            return a.is_zero
        return _poly_exact_div(a, b) is not None

    def exact_div(self, a: IntPoly, b: IntPoly) -> IntPoly:
        if b.is_zero:
            raise ExactDivisionError("division by zero")
        q = _poly_exact_div(a, b)
        if q is None:
            raise ExactDivisionError(
                f"{self.format(b)} does not divide {self.format(a)}"
            )
        return q


ZZ = IntegerDomain()
ZZX = IntPolyDomain()

DOMAINS = {ZZ.name: ZZ, ZZX.name: ZZX}
