import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from graphsplines.rings import (
    MAX_DEGREE,
    ExactDivisionError,
    IntPoly,
    RingParseError,
    ZZ,
    ZZX,
)

ints = st.integers(min_value=-10**6, max_value=10**6)
nonzero_ints = ints.filter(lambda a: a != 0)
polys = st.lists(st.integers(min_value=-40, max_value=40), max_size=5).map(IntPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
# Coefficients from a few bits to past 2^64, so multi-word integers meet
# the kernels too.
wide_polys = st.lists(st.integers(min_value=-40, max_value=40)
                      | st.integers(min_value=-2**80, max_value=2**80),
                      max_size=6).map(IntPoly)
wide_nonzero_polys = wide_polys.filter(lambda p: not p.is_zero)
# Non-monic and negative leading coefficients, and factors x and x - 1,
# which make b(0) = 0 or b(1) = 0.
special_factors = st.sampled_from([
    IntPoly((0, 1)), IntPoly((-1, 1)), IntPoly((1, -1)), IntPoly((0, -3)),
    IntPoly((3, 0, -2)), IntPoly((-7, 5)), IntPoly((0, 0, 4)),
])
divisors = (wide_nonzero_polys | special_factors
            | st.tuples(wide_nonzero_polys, special_factors).map(lambda t: t[0] * t[1]))


class TestCoerce:
    @pytest.mark.parametrize("domain, value, want", [
        (ZZ, 7, 7), (ZZX, 7, IntPoly((7,))), (ZZX, IntPoly((1, 2)), IntPoly((1, 2))),
    ], ids=["int", "int-as-constant", "poly"])
    def test_accepts(self, domain, value, want):
        assert domain.coerce(value) == want

    @pytest.mark.parametrize("domain, value, match", [
        (ZZ, 2.0, "^expected an integer, got float$"),
        (ZZ, "3", "^expected an integer, got str$"),
        (ZZ, IntPoly((3,)), "^expected an integer, got IntPoly$"),
        (ZZX, 2.0, "^expected an integer polynomial, got float$"),
        (ZZX, "x", "^expected an integer polynomial, got str$"),
        (ZZX, None, "^expected an integer polynomial, got NoneType$"),
        # bool is an int subclass; as an entry it would make
        # determinant(ZZ, [[True]]) be True, which formats as "True".
        (ZZ, True, "^expected an integer, got bool$"),
        (ZZX, False, "^expected an integer polynomial, got bool$"),
    ], ids=["zz-float", "zz-str", "zz-poly", "zzx-float", "zzx-str", "zzx-none",
            "zz-bool", "zzx-bool"])
    def test_rejects_non_numbers(self, domain, value, match):
        with pytest.raises(TypeError, match=match):
            domain.coerce(value)


class TestIntegerOps:
    def test_gcd_examples(self):
        assert ZZ.gcd(9, 6) == 3
        assert ZZ.gcd(0, -7) == 7
        assert ZZ.gcd(0, 0) == 0

    def test_lcm_examples(self):
        assert ZZ.lcm(5, ZZ.lcm(2, 3)) == 30
        assert ZZ.lcm(-4, 1) == 4
        assert ZZ.lcm(4, 2) == 4
        assert ZZ.lcm(9, 0) == 0

    def test_exact_div(self):
        assert ZZ.exact_div(9, 3) == 3
        assert ZZ.exact_div(-12, 4) == -3
        assert ZZ.exact_div(7, 1) == 7
        with pytest.raises(ExactDivisionError):
            ZZ.exact_div(7, 2)
        with pytest.raises(ExactDivisionError):
            ZZ.exact_div(1, 0)

    def test_divides(self):
        assert ZZ.divides(5, 30)
        assert ZZ.divides(5, 0)
        assert ZZ.divides(0, 0)
        assert not ZZ.divides(0, 3)
        assert not ZZ.divides(4, 30)

    def test_units(self):
        assert ZZ.is_unit(-1) and ZZ.is_unit(1)
        assert not ZZ.is_unit(0) and not ZZ.is_unit(2)

    def test_parse_and_format(self):
        assert ZZ.parse(" -35 ") == -35
        assert ZZ.parse("+7") == 7
        assert ZZ.format(-35) == "-35"
        with pytest.raises(RingParseError):
            ZZ.parse("1_0")
        with pytest.raises(RingParseError):
            ZZ.parse("x")
        with pytest.raises(RingParseError):
            ZZ.parse("1 0")


class TestPolynomialOps:
    def test_gcd_examples(self):
        assert ZZX.gcd(ZZX.parse("x^2-1"), ZZX.parse("x^2+2x+1")) == ZZX.parse("x+1")
        assert ZZX.gcd(ZZX.zero, ZZX.parse("-x-1")) == ZZX.parse("x+1")
        # content interacts with the primitive part
        assert ZZX.gcd(ZZX.parse("2x+2"), ZZX.parse("4x^2-4")) == ZZX.parse("2x+2")
        assert ZZX.gcd(ZZX.parse("6"), ZZX.parse("4x")) == ZZX.parse("2")

    def test_lcm_examples(self):
        assert ZZX.lcm(ZZX.parse("x"), ZZX.parse("x+1")) == ZZX.parse("x^2+x")
        assert ZZX.lcm(ZZX.parse("x"), ZZX.zero) == ZZX.zero
        assert ZZX.lcm(ZZX.parse("-x"), ZZX.one) == ZZX.parse("x")

    def test_exact_div(self):
        assert ZZX.exact_div(ZZX.parse("x^2-1"), ZZX.parse("x+1")) == ZZX.parse("x-1")
        assert ZZX.exact_div(ZZX.parse("x^2-1"), ZZX.one) == ZZX.parse("x^2-1")
        with pytest.raises(ExactDivisionError):
            ZZX.exact_div(ZZX.parse("x^2+1"), ZZX.parse("x+2"))
        with pytest.raises(ExactDivisionError):
            ZZX.exact_div(ZZX.parse("3x"), ZZX.parse("2"))

    def test_divides(self):
        assert ZZX.divides(ZZX.parse("x+1"), ZZX.parse("x^2-1"))
        assert not ZZX.divides(ZZX.parse("x+2"), ZZX.parse("x^2+1"))
        assert ZZX.divides(ZZX.parse("x"), ZZX.zero)
        assert not ZZX.divides(ZZX.zero, ZZX.one)

    def test_units(self):
        assert ZZX.is_unit(ZZX.parse("-1"))
        assert not ZZX.is_unit(ZZX.zero)
        assert not ZZX.is_unit(ZZX.parse("x+1"))
        assert not ZZX.is_unit(ZZX.parse("2"))

    def test_canonical(self):
        assert ZZX.canonical(ZZX.parse("-x+1")) == ZZX.parse("x-1")
        assert ZZX.canonical(ZZX.zero) == ZZX.zero

    def test_parse_variants(self):
        assert ZZX.parse("3*x^2 - x + 7") == IntPoly((7, -1, 3))
        assert ZZX.parse("3x") == IntPoly((0, 3))
        assert ZZX.parse("x^3") == IntPoly((0, 0, 0, 1))
        assert ZZX.parse("-x") == IntPoly((0, -1))
        assert ZZX.parse("0") == ZZX.zero
        assert ZZX.parse("x + x") == IntPoly((0, 2))
        # Whitespace may separate any two tokens.
        assert ZZX.parse("3 x") == IntPoly((0, 3))
        assert ZZX.parse("x ^ 2") == IntPoly((0, 0, 1))
        assert ZZX.parse(" - x^4 + 2 ") == IntPoly((2, 0, 0, 0, -1))
        assert ZZX.parse("- 12 * x ^ 3\t+ 5") == IntPoly((5, 0, 0, -12))

    # Whitespace never splits a number: "1 0" is not 10, nor "x ^ 1 0" x^10.
    @pytest.mark.parametrize("bad", ["", " ", "y+1", "x^-1", "x^", "3**x", "x*x",
                                     "+-3", "3*", "x 2", "1 0", "x ^ 1 0",
                                     "x + 1 0", "1 0*x"])
    def test_parse_rejects(self, bad):
        with pytest.raises(RingParseError):
            ZZX.parse(bad)

    def test_exact_div_by_zero(self):
        with pytest.raises(ExactDivisionError, match="^division by zero$"):
            ZZX.exact_div(ZZX.parse("x"), ZZX.zero)

    def test_format_round_trip(self):
        for text in ["3*x^2 - x + 7", "x", "-x^4 + 2", "0", "12"]:
            p = ZZX.parse(text)
            assert ZZX.parse(ZZX.format(p)) == p
        assert ZZX.format(ZZX.parse("3*x^2-x+7")) == "3*x^2 - x + 7"


class TestIntegerProperties:
    @given(a=nonzero_ints, b=nonzero_ints)
    def test_gcd_divides_both(self, a, b):
        g = ZZ.gcd(a, b)
        assert ZZ.divides(g, a) and ZZ.divides(g, b)

    @given(a=nonzero_ints, b=nonzero_ints)
    def test_gcd_lcm_product(self, a, b):
        assert ZZ.canonical(ZZ.mul(ZZ.gcd(a, b), ZZ.lcm(a, b))) == ZZ.canonical(a * b)

    @given(a=ints, b=nonzero_ints)
    def test_exact_div_undoes_mul(self, a, b):
        assert ZZ.exact_div(a * b, b) == a

    @given(a=ints, b=ints, c=ints)
    def test_gcd_associative(self, a, b, c):
        assert ZZ.gcd(ZZ.gcd(a, b), c) == ZZ.gcd(a, ZZ.gcd(b, c))


class TestPolynomialProperties:
    @settings(deadline=None)
    @given(a=nonzero_polys, b=nonzero_polys)
    def test_gcd_divides_both(self, a, b):
        g = ZZX.gcd(a, b)
        assert ZZX.divides(g, a) and ZZX.divides(g, b)

    @settings(deadline=None)
    @given(a=nonzero_polys, b=nonzero_polys)
    def test_gcd_lcm_product(self, a, b):
        prod = ZZX.mul(ZZX.gcd(a, b), ZZX.lcm(a, b))
        assert ZZX.canonical(prod) == ZZX.canonical(a * b)

    @settings(deadline=None)
    @given(a=polys, b=nonzero_polys)
    def test_exact_div_undoes_mul(self, a, b):
        assert ZZX.exact_div(a * b, b) == a

    @settings(deadline=None)
    @given(a=polys, b=polys, c=polys)
    def test_gcd_associative(self, a, b, c):
        assert ZZX.gcd(ZZX.gcd(a, b), c) == ZZX.gcd(a, ZZX.gcd(b, c))

    @settings(deadline=None)
    @given(p=nonzero_polys, q=nonzero_polys, g=nonzero_polys)
    def test_common_factor_detected(self, p, q, g):
        assert ZZX.divides(ZZX.canonical(g), ZZX.gcd(p * g, q * g))


class TestPolynomialKernelsAgainstOracles:
    """The coefficient-list kernels against the pseudo-remainder sequence
    and long division of ``helpers``."""

    @settings(deadline=None)
    @given(a=wide_polys, b=wide_polys, g=divisors)
    def test_gcd_and_lcm(self, a, b, g):
        for x, y in ((a, b), (a * g, b * g), (a * g, g)):
            assert ZZX.gcd(x, y) == helpers.prs_gcd(x, y)
            assert ZZX.lcm(x, y) == helpers.prs_lcm(x, y)

    @settings(deadline=None)
    @given(q=wide_polys, b=divisors, r=wide_polys)
    def test_divides_and_exact_div(self, q, b, r):
        for a in (q * b, q * b + r, q * b - b + r * b):
            expected = helpers.poly_exact_div(a, b)
            assert ZZX.divides(b, a) == (expected is not None)
            if expected is None:
                with pytest.raises(ExactDivisionError):
                    ZZX.exact_div(a, b)
            else:
                assert ZZX.exact_div(a, b) == expected

    # Each quick necessary condition of exact division (lc(b) | lc(a),
    # b(0) | a(0), b(1) | a(1)) once failing and once passing.
    @pytest.mark.parametrize("a, b, divides", [
        pytest.param("3*x^2 + 3*x", "2*x + 2", False, id="lc-fails"),
        pytest.param("4*x^2 + 4*x", "2*x + 2", True, id="lc-passes"),
        pytest.param("x^2 + 1", "x", False, id="b0-zero-fails"),
        pytest.param("x^2 + x", "x", True, id="b0-zero-passes"),
        pytest.param("x^2 + 1", "x + 2", False, id="b0-fails"),
        pytest.param("x^2 + 3*x + 2", "x + 2", True, id="b0-passes"),
        pytest.param("x^2 + 1", "x - 1", False, id="b1-zero-fails"),
        pytest.param("x^2 - 1", "x - 1", True, id="b1-zero-passes"),
        pytest.param("x^2 + 3*x + 4", "x + 2", False, id="b1-fails"),
        pytest.param("x^3 + x + 2", "x^2 + 1", False, id="long-division-fails"),
        pytest.param("-6*x^3 + 4*x^2 - 3*x + 2", "-3*x + 2", True,
                     id="negative-leading"),
    ])
    def test_quick_rejects(self, a, b, divides):
        a, b = ZZX.parse(a), ZZX.parse(b)
        assert ZZX.divides(b, a) == divides
        assert (helpers.poly_exact_div(a, b) is not None) == divides
        if divides:
            assert ZZX.exact_div(a, b) * b == a

    def test_past_the_int_str_limit(self):
        big = 10 ** 5000 + 7
        f = ZZX.coerce(big) * ZZX.parse("x") + ZZX.coerce(3 * big + 1)
        a, b = f * ZZX.parse("x - 3"), f * ZZX.parse("-2*x^2 + 1")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert ZZX.gcd(a, b) == helpers.prs_gcd(a, b) == f
            assert ZZX.lcm(a, b) == helpers.prs_lcm(a, b)
            assert ZZX.exact_div(b, f) == helpers.poly_exact_div(b, f)
            assert not ZZX.divides(a, b)
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)


def workload_operands(seed):
    """The labels c * (x - a1)...(x - ak) of a ``random_poly_complete_graph``,
    the ``poly`` workload's shapes, and lcms of gcds of them, built by the
    oracles, as the leading values' path closure meets them."""
    rng = random.Random(seed)
    labels = [e.label for e in helpers.random_poly_complete_graph(rng, 4).edges]
    values = list(labels)
    for _ in range(6):
        x = IntPoly((1,))
        for _ in range(rng.randint(1, 3)):
            x = helpers.prs_lcm(x, helpers.prs_gcd(*rng.sample(labels, 2)))
        values.append(x)
    return values


HUGE = 10 ** 5000
P = ZZX.parse("6*x^3 - 3*x + 9")
Q = ZZX.parse("-2*x^2 + 5")
BIG = ZZX.coerce(HUGE + 3) * ZZX.parse("x") - ZZX.coerce(2 * HUGE)
EDGE_CASES = {
    "constant-times": (ZZX.coerce(4), P),
    "constant-times-multiple": (ZZX.coerce(-10) * P, P),
    "equal": (P, P),
    "equal-negated": (P, -P),
    "divides": (Q, Q * P),
    "divides-negated": (-Q, Q * ZZX.parse("-x^4 + 7*x - 1")),
    "negative-leading": (ZZX.parse("-4*x^2 + 4"), ZZX.parse("-6*x^3 - 6*x^2")),
    "huge": (BIG * ZZX.parse("x - 3"), BIG * ZZX.parse("-7*x^2 + 1")),
    "huge-constant": (ZZX.coerce(-HUGE), BIG * ZZX.coerce(HUGE)),
}


def assert_normalised(r):
    assert r.coeffs == IntPoly(r.coeffs).coeffs


def check_kernels(a, b):
    for x, y in ((a, b), (b, a)):
        g, l = ZZX.gcd(x, y), ZZX.lcm(x, y)
        assert g == helpers.prs_gcd(x, y)
        assert l == helpers.prs_lcm(x, y)
        for r in (g, l):
            assert_normalised(r)
            assert r.leading > 0
        for num, den in ((x, y), (x * y, y), (l, x), (x, g)):
            want = helpers.poly_exact_div(num, den)
            if want is None:
                with pytest.raises(ExactDivisionError):
                    ZZX.exact_div(num, den)
            else:
                q = ZZX.exact_div(num, den)
                assert q == want
                assert_normalised(q)


class TestKernelsOnWorkloadShapes:
    """``ZZX.gcd``, ``lcm`` and ``exact_div`` against the oracles on the
    operands the leading values meet and on edge cases; every result is
    normalised, and gcds and lcms have a positive leading coefficient."""

    @pytest.mark.parametrize("seed", range(4))
    def test_workload_operands(self, seed):
        values = workload_operands(seed)
        for a in values:
            for b in values:
                check_kernels(a, b)

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases(self, case):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            check_kernels(*EDGE_CASES[case])
        finally:
            sys.set_int_max_str_digits(saved)


class TestIntPolyTruth:
    def test_zero_is_falsy(self):
        # Trailing zero coefficients are dropped, so [0, 0] is zero too.
        assert not ZZX.zero and not IntPoly([0, 0]) and not IntPoly()
        assert IntPoly([0, 1]) and IntPoly([-3]) and ZZX.one


class TestIntPolyOperands:
    def test_float_operand_raises(self):
        # Neither side multiplies an IntPoly by a float, so Python raises.
        with pytest.raises(TypeError):
            IntPoly((1,)) * 1.5
        with pytest.raises(TypeError):
            1.5 * IntPoly((1,))


class TestIntPolyHash:
    def test_constants_meet_ints(self):
        assert 3 in {IntPoly((3,))} and IntPoly((3,)) in {3}
        assert IntPoly() in {0} and {0: "zero"}[IntPoly()] == "zero"
        assert IntPoly((0, 1)) not in {0, 1}

    @settings(deadline=None)
    @given(p=polys, c=st.integers(min_value=-40, max_value=40))
    def test_equal_values_hash_equal(self, p, c):
        const = IntPoly((c,))
        for a, b in ((p, IntPoly(p.coeffs)), (const, c), (const, IntPoly((c, 0))),
                     (p, c), (p, const)):
            assert (a == b) == (b == a)
            if a == b:
                assert hash(a) == hash(b)
            assert (a in {b}) == (b in {a}) == (a == b)
            assert ({b: 0}.get(a, 1) == 0) == ({a: 0}.get(b, 1) == 0) == (a == b)


class TestParseLimits:
    # 10^4999 + 7 has more digits than the interpreter's default int/str
    # limit of 4300.
    BIG = "1" + "0" * 4998 + "7"
    BIG_VALUE = 10 ** 4999 + 7

    def test_digits_past_the_int_str_limit(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert ZZ.parse(self.BIG) == self.BIG_VALUE
            assert ZZ.parse(f" -{self.BIG} ") == -self.BIG_VALUE
            assert ZZX.parse(f"{self.BIG}*x^2 - {self.BIG}").coeffs == (
                -self.BIG_VALUE, 0, self.BIG_VALUE)
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)

    def test_format_past_the_int_str_limit(self):
        values = [10 ** 5000, 10 ** 5000 - 1, -(10 ** 6000 + 12345),
                  7 * 10 ** 4400, self.BIG_VALUE]
        poly = ZZX.coerce(10 ** 5000) * ZZX.parse("x^2 - 3") + ZZX.parse("x")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for v in values:
                assert ZZ.parse(ZZ.format(v)) == v
            assert ZZ.format(10 ** 5000) == "1" + "0" * 5000
            assert ZZX.parse(ZZX.format(poly)) == poly
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)

    def test_exact_div_error_past_the_int_str_limit(self):
        a, b = 10 ** 4999 + 1, 10 ** 4999 + 3
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ExactDivisionError, match="does not divide"):
                ZZ.exact_div(a, b)
            with pytest.raises(ExactDivisionError, match="does not divide"):
                ZZX.exact_div(ZZX.coerce(a), ZZX.coerce(b))
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)

    def test_whitespace_runs_cost_linear_time(self):
        # A failed term match backtracks through the whitespace before it.
        # A term pattern with two optional-whitespace runs side by side does
        # that in quadratic time: about 20 s for the first text here.
        gap = " " * 20_000
        start = time.perf_counter()
        for text in (gap + "y", "3" + gap + "y", "+" + gap + "y",
                     "x" + gap + "^" + gap + "y", "3" + gap + "*" + gap + "y"):
            with pytest.raises(RingParseError):
                ZZX.parse(text)
        assert ZZX.parse("3" + gap + "*" + gap + "x" + gap) == IntPoly((0, 3))
        assert time.perf_counter() - start < 2

    def test_degree_cap(self):
        assert ZZX.parse(f"x^{MAX_DEGREE} + 1").degree == MAX_DEGREE
        for text in (f"3*x^{MAX_DEGREE + 1} + 1", f"x^{MAX_DEGREE}0"):
            exponent = text.split("^")[1].split()[0]
            with pytest.raises(RingParseError, match=f"exponent {exponent} "):
                ZZX.parse(text)
