"""Exact arithmetic over GCD domains.

Two domains are provided.  ``ZZ`` operates on plain Python integers.
``ZZX`` operates on :class:`IntPoly` values, univariate polynomials with
integer coefficients stored as a low-to-high coefficient tuple with no
trailing zeros (so the degree is one less than the tuple length).

The polynomial kernels work on plain coefficient lists and return them
normalised, wrapped as they are.  gcds take each operand's integer
content once and run a primitive remainder sequence on the primitive
parts, in integer arithmetic; a remainder step scales by the divisor's
leading coefficient only when an exact integer quotient cannot cancel
the top coefficient.  Exact division checks the leading coefficients and
the values at 0 and 1 before the long division, and lcm chains the
kernels as ``a·(b / gcd)``.  ``ZZX.parse`` lets whitespace separate
tokens but never split a number, so ``"1 0"`` is rejected, not read as 10.

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
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for k, c in enumerate(b):
            out[k] -= c
        return IntPoly(out)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(tuple(other * c for c in self.coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        return _wrap(_mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, c: int) -> "IntPoly":
        # By repeated squaring; a negative exponent raises.
        if c < 0:
            raise ValueError(f"negative exponent {c}")
        out, f = _wrap((1,)), self
        while c:
            if c & 1:
                out *= f
            c >>= 1
            if c:
                f *= f
        return out

    def __repr__(self) -> str:
        return f"IntPoly({ZZX.format(self)!r})"


def _wrap(cs) -> IntPoly:
    """An IntPoly of coefficients that are already normalised."""
    p = IntPoly.__new__(IntPoly)
    p.coeffs = tuple(cs)
    return p


def _mul_coeffs(a, b):
    """Coefficients of the product of nonzero a and b."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _primitive(cs, c):
    """Coefficients of a nonzero polynomial, of content (or unit) c, with c
    divided out and the leading coefficient made positive."""
    if cs[-1] < 0:
        c = -c
    return cs if c == 1 else [v // c for v in cs]


def _scaled_rem(f, g):
    """``A·(f mod g)`` for some nonzero integer ``A``; g has degree >= 1.

    Each step pops the top coefficient, which ``(top // lc)·x^s·g``
    cancels, and subtracts the rest of that multiple; it scales by ``lc``
    first only when ``lc`` does not divide the top, so coefficients grow
    only where a pseudo-remainder cannot avoid it.
    """
    r = list(f)
    lc = g[-1]
    dg = len(g) - 1
    low = g[:-1]
    while len(r) > dg:
        top = r.pop()
        q, m = divmod(top, lc)
        if m:
            r = [lc * v for v in r]
            q = top
        j = len(r) - dg
        for v in low:
            r[j] -= q * v
            j += 1
        while r and not r[-1]:
            r.pop()
    return r


def _quotient(a, b):
    """Coefficients of q with a == q*b, or None when b does not divide a.

    b is nonzero.  A quotient forces ``lc(b) | lc(a)``, ``b(0) | a(0)`` and
    ``b(1) | a(1)``, so those are checked before any long division: on
    products of linear factors they settle most pairs that do not divide.
    """
    if not a:
        return []
    db = len(b) - 1
    n = len(a) - 1 - db
    lb = b[-1]
    if n < 0 or a[-1] % lb:
        return None
    for vb, va in ((b[0], a[0]), (sum(b), sum(a))):
        if va % vb if vb else va:
            return None
    r = list(a)
    q = [0] * (n + 1)
    for k in range(n, -1, -1):
        c, m = divmod(r[k + db], lb)
        if m:
            return None
        if c:
            q[k] = c
            j = k
            for v in b:
                r[j] -= c * v
                j += 1
    if any(r[:db]):
        return None
    return q


def _gcd_coeffs(a, b):
    """Canonical gcd of nonzero a and b: the contents' gcd c times the last
    g of a primitive remainder sequence, or c once a remainder is constant."""
    ca, cb = math.gcd(*a), math.gcd(*b)
    c = math.gcd(ca, cb)
    f, g = _primitive(a, ca), _primitive(b, cb)
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r = _scaled_rem(f, g)
        if not r:
            return [c * v for v in g]
        f, g = g, _primitive(r, math.gcd(*r))
    return [c]


class Domain:
    """Arithmetic of one GCD domain.

    Elements support ``+``, ``-``, ``*`` and ``**``; callers subtract and
    raise with the operators, and multiply and fold through these methods,
    which a profiler can wrap by name.  Subclasses supply parsing, text,
    canonical associates, gcd, lcm and exact division.  Folds canonicalize
    after each step, so set-wise gcd and lcm are order-independent.
    """

    name = "?"

    def mul(self, a, b):
        return a * b

    def gcd_all(self, items):
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
    _INTEGER = re.compile(r"[+-]?[0-9]+")

    def coerce(self, a):
        if not isinstance(a, int) or isinstance(a, bool):
            raise TypeError(f"expected an integer, got {type(a).__name__}")
        return a

    def parse(self, text: str) -> int:
        m = self._INTEGER.fullmatch(text.strip())
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

    # One signed term: ``c*x^e`` with ``c``, ``*`` and ``^e`` optional, or
    # a bare integer.  Whitespace may sit between tokens.  No two ``\s*``
    # meet without a token between them, so a failed match backtracks
    # through a run of whitespace in linear, not quadratic, time.
    _TERM = re.compile(r"\s*(?:([+-])\s*)?(?:(?:([0-9]+)\s*(?:\*\s*)?)?x"
                       r"(?:\s*\^\s*([0-9]+))?|([0-9]+))\s*")

    def coerce(self, a):
        if isinstance(a, IntPoly):
            return a
        if isinstance(a, int) and not isinstance(a, bool):
            return IntPoly((a,))
        raise TypeError(f"expected an integer polynomial, got {type(a).__name__}")

    def parse(self, text: str) -> IntPoly:
        if not text.strip():
            raise RingParseError("empty polynomial")
        coeffs: dict[int, int] = {}
        pos = 0
        while pos < len(text):
            m = self._TERM.match(text, pos)
            # Every term after the first needs its sign.
            if m is None or (pos and not m.group(1)):
                raise RingParseError(f"not a polynomial in x: {text!r}")
            sign, coeff, exp, const = m.groups()
            if const is not None:
                e, c = 0, _decimal(const)
            else:
                c = _decimal(coeff) if coeff else 1
                e = _decimal(exp) if exp else 1
                if e > MAX_DEGREE:
                    raise RingParseError(
                        f"exponent {exp} in {text!r} exceeds the degree "
                        f"cap {MAX_DEGREE}"
                    )
            coeffs[e] = coeffs.get(e, 0) + (-c if sign == "-" else c)
            pos = m.end()
        out = [0] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            out[e] = c
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
        if not a.coeffs:
            return self.canonical(b)
        if not b.coeffs:
            return self.canonical(a)
        return _wrap(_gcd_coeffs(a.coeffs, b.coeffs))

    def lcm(self, a: IntPoly, b: IntPoly) -> IntPoly:
        if a.is_zero or b.is_zero:
            return IntPoly()
        q = _quotient(b.coeffs, _gcd_coeffs(a.coeffs, b.coeffs))
        return _wrap(_mul_coeffs(_primitive(a.coeffs, 1), _primitive(q, 1)))

    def divides(self, b: IntPoly, a: IntPoly) -> bool:
        if b.is_zero:
            return a.is_zero
        return _quotient(a.coeffs, b.coeffs) is not None

    def exact_div(self, a: IntPoly, b: IntPoly) -> IntPoly:
        if b.is_zero:
            raise ExactDivisionError("division by zero")
        q = _quotient(a.coeffs, b.coeffs)
        if q is None:
            raise ExactDivisionError(
                f"{self.format(b)} does not divide {self.format(a)}"
            )
        return _wrap(q)


ZZ = IntegerDomain()
ZZX = IntPolyDomain()

DOMAINS = {ZZ.name: ZZ, ZZX.name: ZZX}
