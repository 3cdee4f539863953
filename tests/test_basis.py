import itertools
import json
import math
import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from graphsplines import basis as basis_mod
from graphsplines import (
    DisconnectedGraphError,
    Edge,
    InternalConsistencyError,
    IntPoly,
    LabeledGraph,
    ZZ,
    ZZX,
    check_basis,
    completion,
    determinant,
    determinant_target,
    flowup_basis,
    is_spline,
    leading_values,
    span_coordinates,
    spline_matrix,
)
from graphsplines.cli import main as cli_main

DIAMOND_FLOWUPS = [[1, 1, 1, 1], [0, 30, 0, 48], [0, 0, 8, 0], [0, 0, 0, 36]]


class TestDeterminant:
    def test_identity_unit_labels(self):
        g = helpers.make_graph("int", ["a", "b"], [("a", "b", 1)])
        cols = [[1, 0], [0, 1]]
        assert abs(determinant(ZZ, spline_matrix(g, cols))) == 1

    def test_flowup_matrix_is_triangular_product(self, diamond):
        rows = spline_matrix(diamond, DIAMOND_FLOWUPS)
        assert abs(determinant(ZZ, rows)) == 1 * 30 * 8 * 36

    def test_bareiss_matches_cofactor(self):
        rng = random.Random(311)
        for n in (4, 5):
            for _ in range(8):
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                expected = helpers.naive_cofactor_det(ZZ, rows)
                assert determinant(ZZ, rows) == expected

    def test_small_sizes_match_cofactor(self):
        rng = random.Random(317)
        for n in (1, 2, 3):
            for _ in range(8):
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                assert determinant(ZZ, rows) == helpers.naive_cofactor_det(ZZ, rows)

    def test_empty_matrix_is_one(self):
        for d in (ZZ, ZZX):
            assert determinant(d, []) == d.one

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            determinant(ZZ, [[1, 2], [3, 4], [5, 6]])

    def test_entries_are_coerced(self):
        # An int over ZZ[x] is a constant; a float is no ring element.
        assert determinant(ZZX, [[1, 0], [0, 1]]) == ZZX.one
        assert determinant(ZZX, [[2, ZZX.parse("x")], [1, 3]]) == ZZX.parse("6 - x")
        with pytest.raises(TypeError):
            determinant(ZZ, [[2.0, 1], [1, 1]])

    def test_bareiss_matches_cofactor_polynomials(self):
        rng = random.Random(313)
        for n in (4, 5):
            for _ in range(3):
                rows = [[ZZX.coerce(rng.randint(-3, 3)) * ZZX.parse("x")
                         + ZZX.coerce(rng.randint(-3, 3))
                         for _ in range(n)] for _ in range(n)]
                expected = helpers.naive_cofactor_det(ZZX, rows)
                assert determinant(ZZX, rows) == expected

    def test_singular_matrix(self):
        rows = [[1, 2, 0, 0, 1], [2, 4, 0, 0, 2], [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0], [1, 1, 1, 1, 1]]
        assert determinant(ZZ, rows) == 0

    def test_zero_pivot_needs_row_swap(self):
        rows = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 2, 1],
                [0, 0, 1, 0, 0], [0, 0, 0, 1, 1]]
        assert determinant(ZZ, rows) == helpers.naive_cofactor_det(ZZ, rows)


def eliminated_determinant(d, rows):
    """The determinant through ``_fraction_free_eliminate`` over ``d``."""
    m = [list(row) for row in rows]
    sign = basis_mod._fraction_free_eliminate(d, m, len(m))
    if not sign:
        return d.zero
    det = m[-1][-1] if m else d.one
    return det if sign > 0 else -det


# 10^5000 has more digits than the default int/str limit allows to print.
HUGE = 10 ** 5000


@st.composite
def poly_matrices(draw):
    """Square ZZ[x] matrices, n = 0-8, degree 0-6, with zero entries,
    constant matrices, zero rows, repeated rows, coefficients up to 2^200
    and, when n <= 3, past 10^5000."""
    n = draw(st.integers(0, 8))
    degree = draw(st.integers(0, 6))
    big = st.integers(-2 ** 200, 2 ** 200)
    if n <= 3 and draw(st.booleans()):
        big = st.one_of(big, st.integers(-9, 9).map(lambda c: c - HUGE if c < 0 else c + HUGE))
    coeff = st.one_of(st.integers(-9, 9), big)
    entry = st.lists(coeff, max_size=degree + 1).map(IntPoly)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        target, source = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[target] = [IntPoly()] * n if draw(st.booleans()) else list(rows[source])
    return rows


def monomial(c, e):
    return IntPoly([0] * e + [c])


class TestPackedDeterminant:
    @settings(max_examples=100, deadline=None)
    @given(poly_matrices())
    def test_matches_elimination_over_polynomials(self, rows):
        packed = basis_mod._packed_determinant(rows)
        assert packed is not None
        assert packed == eliminated_determinant(ZZX, rows)
        assert determinant(ZZX, rows) == packed

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_coefficient_at_the_bound_and_a_byte_boundary(self, m, sign, offset):
        c = sign * (2 ** (8 * m - 1) + offset)
        assert basis_mod._packed_determinant([[ZZX.coerce(c)]]) == ZZX.coerce(c)

    @pytest.mark.parametrize("factors", [(127,), (7, 31, 151), (47, 178481),
                                         (2 ** 31 - 1,), (2 ** 10, 2 ** 5), (2, 2 ** 22)])
    def test_diagonal_monomials(self, factors):
        # The determinant's only coefficient is the bound B itself,
        # 2^(8m-1) - 1 or 2^(8m-1).
        for signs in itertools.product((1, -1), repeat=len(factors)):
            cs = [s * c for s, c in zip(signs, factors)]
            n = len(cs)
            rows = [[monomial(cs[r], r + 1) if r == c else IntPoly() for c in range(n)]
                    for r in range(n)]
            want = monomial(math.prod(cs), n * (n + 1) // 2)
            assert basis_mod._packed_determinant(rows) == want

    @staticmethod
    def sylvester_hadamard(order):
        h = [[1]]
        while len(h) < order:
            h = [row + row for row in h] + [row + [-v for v in row] for row in h]
        return h

    @pytest.mark.parametrize("order", [2, 4, 8])
    @pytest.mark.parametrize("base", ["x", "x + 1"])
    @pytest.mark.parametrize("seed", range(3))
    def test_hadamard_matrices_meet_the_bound(self, order, base, seed):
        # Entry (i, j) is h_ij * s_i * t_j * base^k_i * x^l_j.  On the unit
        # circle the rows stay orthogonal, so |det| meets Hadamard's bound
        # at every point of it.
        rng = random.Random(seed)
        s, t = ([rng.choice((1, -1)) for _ in range(order)] for _ in range(2))
        k, l = ([rng.randint(0, 3) for _ in range(order)] for _ in range(2))
        b = ZZX.parse(base)
        rows = [[ZZX.coerce(h * s[i] * t[j]) * ZZX.product([b] * k[i]) * monomial(1, l[j])
                 for j, h in enumerate(row)]
                for i, row in enumerate(self.sylvester_hadamard(order))]
        packed = basis_mod._packed_determinant(rows)
        assert packed is not None
        assert packed == eliminated_determinant(ZZX, rows)

    @settings(max_examples=100, deadline=None)
    @given(poly_matrices())
    # A row with one entry keeps its bound: a coefficient just under a
    # byte boundary, alone or on a diagonal, packs in the same width.
    @example([[IntPoly((2 ** 15 - 1,))]])
    @example([[monomial(-127, 1), IntPoly()], [IntPoly(), IntPoly((1, -2 ** 16 + 2))]])
    def test_width_within_the_row_sum_width(self, rows):
        # The width the old bound gave, the product over rows of the
        # entries' summed absolute coefficients: with the cap set to the
        # packed size at that width, the determinant still packs.
        old = math.prod(sum(abs(c) for p in row for c in p.coeffs) for row in rows)
        size = 1 + max(0, min(sum(max(p.degree for p in row) for row in rows),
                              sum(max(p.degree for p in col) for col in zip(*rows))))
        cap = basis_mod._MAX_PACKED_BITS
        basis_mod._MAX_PACKED_BITS = 8 * (old.bit_length() // 8 + 1) * size
        try:
            packed = basis_mod._packed_determinant(rows)
        finally:
            basis_mod._MAX_PACKED_BITS = cap
        assert packed == eliminated_determinant(ZZX, rows)

    def test_cap_on_the_packed_size(self):
        # A monomial packs one byte per coefficient slot: 2^17 slots fill
        # the 2^20-bit cap, one more passes it.
        assert basis_mod._packed_determinant([[monomial(1, 2 ** 17 - 1)]]) == \
            monomial(1, 2 ** 17 - 1)
        assert basis_mod._packed_determinant([[monomial(1, 2 ** 17)]]) is None

    @staticmethod
    def record_domains(monkeypatch):
        seen = []
        eliminate = basis_mod._fraction_free_eliminate

        def record(d, m, width):
            seen.append(d.name)
            return eliminate(d, m, width)

        monkeypatch.setattr(basis_mod, "_fraction_free_eliminate", record)
        return seen

    def test_sparse_high_degree_labels_keep_polynomial_elimination(self, monkeypatch):
        # Packed, det = L^2 would take 20001 digits of over 4 KB each, and
        # its integer elimination tens of seconds.
        seen = self.record_domains(monkeypatch)
        label = "x^10000 - " + "7" * 5000
        g = helpers.make_graph("intpoly", ["v1", "v2", "v3"],
                               [("v1", "v2", label), ("v2", "v3", label)])
        start = time.perf_counter()
        v = check_basis(g, helpers.block_splines(g))
        assert time.perf_counter() - start < 5
        assert seen == ["intpoly"]
        lab = ZZX.parse(label)
        assert v.is_basis and v.determinant == -(lab * lab)

    def test_dense_labels_eliminate_integers(self, monkeypatch):
        seen = self.record_domains(monkeypatch)
        rng = random.Random(8)
        g = helpers.random_poly_complete_graph(rng, 8)
        cols = helpers.combine_columns(helpers.block_splines(g),
                                       helpers.random_unimodular(rng, 8), ZZX.zero)
        v = check_basis(g, cols)
        assert seen == ["int"]
        assert v.determinant == eliminated_determinant(ZZX, spline_matrix(g, cols))


class TestDeterminantQuotient:
    def test_diamond_flowups_quotient_four(self, diamond):
        assert abs(check_basis(diamond, DIAMOND_FLOWUPS).quotient) == 4

    def test_oracle_quotient_is_unit(self, diamond):
        assert abs(check_basis(diamond, flowup_basis(diamond)).quotient) == 1

    def test_repeated_column_quotient_zero(self, diamond):
        cols = [DIAMOND_FLOWUPS[0], DIAMOND_FLOWUPS[0],
                DIAMOND_FLOWUPS[2], DIAMOND_FLOWUPS[3]]
        assert check_basis(diamond, cols).quotient == 0

    def test_non_spline_column_rejected(self, diamond):
        with pytest.raises(ValueError, match="not a spline"):
            check_basis(diamond, [[1, 1, 1, 1], [0, 1, 0, 0],
                                  [0, 0, 8, 0], [0, 0, 0, 36]])


class TestCheckBasis:
    def test_diamond_flowups_not_a_basis(self, diamond):
        v = check_basis(diamond, DIAMOND_FLOWUPS)
        assert not v.is_basis
        assert abs(v.quotient) == 4 and v.q == 2160

    def test_oracle_is_a_basis(self, diamond):
        v = check_basis(diamond, flowup_basis(diamond))
        assert v.is_basis and abs(v.quotient) == 1

    def test_unimodular_recombination_stays_basis(self, diamond):
        rng = random.Random(71)
        base = flowup_basis(diamond)
        cols = helpers.combine_columns(base, helpers.random_unimodular(rng, 4))
        v = check_basis(diamond, cols)
        assert v.is_basis

    def test_nonunit_scaling_breaks_basis(self, diamond):
        base = flowup_basis(diamond)
        scaled = [list(base[0]), [3 * v for v in base[1]], list(base[2]),
                  list(base[3])]
        v = check_basis(diamond, scaled)
        assert not v.is_basis and abs(v.quotient) == 3

    def test_wrong_count_rejected(self, diamond):
        with pytest.raises(ValueError, match="expected 4"):
            check_basis(diamond, DIAMOND_FLOWUPS[:3])

    def test_polynomial_candidates(self, poly_cycle):
        x2x = ZZX.parse("x^2+x")
        zero, one = ZZX.zero, ZZX.one
        good = [[one, one, one], [zero, x2x, zero], [zero, zero, x2x]]
        v = check_basis(poly_cycle, good)
        assert v.is_basis and ZZX.is_unit(v.quotient)
        bad = [[one, one, one], [zero, x2x * ZZX.parse("x"), zero],
               [zero, zero, x2x]]
        w = check_basis(poly_cycle, bad)
        assert not w.is_basis and w.quotient in (ZZX.parse("x"), ZZX.parse("-x"))

    def test_determinant_off_the_target_is_internal(self, diamond, monkeypatch,
                                                    tmp_path, capsys):
        # The determinant of n splines is always a multiple of the target;
        # a target that breaks this is a bug, reported as such by the
        # library and as an input-free exit 2 by the command line.
        monkeypatch.setattr(basis_mod, "determinant_target", lambda g: 7)
        message = "determinant -?8640 is not a multiple of the target 7"
        with pytest.raises(InternalConsistencyError, match=message):
            check_basis(diamond, DIAMOND_FLOWUPS)
        names = diamond.vertex_names
        graph = tmp_path / "diamond.json"
        graph.write_text(json.dumps(helpers.graph_doc("int", names, [
            (names[e.u], names[e.v], e.label) for e in diamond.edges
        ])))
        argv = ["check-basis", "--graph", str(graph)]
        for k, values in enumerate(DIAMOND_FLOWUPS):
            spline = tmp_path / f"f{k}.json"
            spline.write_text(json.dumps({"values": [str(v) for v in values]}))
            argv += ["--spline", str(spline)]
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(f"error: {message}\n", err)


class TestFlowupBasis:
    def test_diamond_diagonal(self, diamond):
        rows = flowup_basis(diamond)
        assert [rows[k][k] for k in range(4)] == [1, 30, 4, 18]
        for k, row in enumerate(rows):
            assert all(v == 0 for v in row[:k])
            assert is_spline(diamond, row)

    def test_single_edge(self):
        g = helpers.make_graph("int", ["a", "b"], [("a", "b", 7)])
        assert flowup_basis(g) == [[1, 1], [0, 7]]

    def test_k3_236(self):
        g = helpers.make_graph("int", ["v1", "v2", "v3"],
                               [("v1", "v2", 2), ("v1", "v3", 3), ("v2", "v3", 6)])
        rows = flowup_basis(g)
        assert [rows[k][k] for k in range(3)] == [1, 6, 6]
        assert abs(determinant(ZZ, spline_matrix(g, rows))) == 36

    def test_polynomial_domain_rejected(self, poly_cycle):
        with pytest.raises(ValueError, match="integer"):
            flowup_basis(poly_cycle)

    def test_diagonal_matches_leads_randomized(self):
        rng = random.Random(97)
        for _ in range(20):
            g = helpers.random_connected_graph(rng, rng.choice([3, 4, 5, 6]))
            rows = flowup_basis(g)
            assert [rows[k][k] for k in range(g.n)] == leading_values(g)

    def test_vertex_permutation_keeps_target(self):
        rng = random.Random(101)
        for _ in range(12):
            n = rng.choice([3, 4, 5])
            g = helpers.random_connected_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            h = helpers.permute_vertices(g, perm)
            assert determinant_target(h) == determinant_target(g)


    def test_wall_n300_m900(self):
        # Rows in the lattice, triangular, with the leading values on the
        # diagonal and every entry right of it in [0, lead_j): that is the
        # Hermite form, certified without an oracle that takes seconds here.
        g = helpers.random_sparse_graph(random.Random(300900), 300, 900)
        rows = flowup_basis(g)
        leads = leading_values(g)
        assert [rows[k][k] for k in range(g.n)] == leads
        for k, row in enumerate(rows):
            assert not any(row[:k])
            assert all(0 <= v < leads[j] for j, v in enumerate(row) if j > k)
            assert is_spline(g, row)

    def test_corrupted_closure_trips_the_edge_check(self, diamond, monkeypatch):
        # A closure that loses its reach map leaves row 0 as (1, 0, 0, 0),
        # which fails the edge 0-1 (label 5) before any reduction.
        closure = basis_mod.path_closure
        monkeypatch.setattr(basis_mod, "path_closure",
                            lambda g, i: (closure(g, i)[0], {}))
        with pytest.raises(InternalConsistencyError, match="row 0 fails the edge 0-1"):
            flowup_basis(diamond)

    def test_huge_prime_power_labels(self):
        # Labels 2^e * 3^5, five times that, and 6 on a triangle: M has a
        # 300000-bit power of two, Q is found by exponent doubling in a few
        # gcds, and no entry takes a remainder modulo M.
        x = 2 ** 300000 * 3 ** 5
        g = LabeledGraph(ZZ, ["a", "b", "c"],
                         [Edge(0, 1, x), Edge(1, 2, 5 * x), Edge(0, 2, 6)])
        assert flowup_basis(g) == helpers.modular_flowup_basis(g)

    def test_wall_n64_m128(self):
        g = helpers.random_sparse_graph(random.Random(64128), 64, 128)
        rows = flowup_basis(g)
        lcm = ZZ.lcm_all(e.label for e in g.edges)
        assert [rows[k][k] for k in range(g.n)] == leading_values(g)
        for k, row in enumerate(rows):
            assert not any(row[:k])
            assert all(0 <= v <= lcm for v in row)
            assert is_spline(g, row)


LABELS = st.one_of(st.sampled_from([1, -1, 2, -2, 6, 12, -30, 35]),
                   st.integers(min_value=-1000, max_value=1000).filter(bool))


@st.composite
def int_graphs(draw):
    """Integer graphs on up to nine vertices, most of them built on a
    spanning tree, disconnected ones included; labels of both signs, units
    and repeats among them."""
    n = draw(st.integers(min_value=1, max_value=9))
    names = [f"v{k}" for k in range(1, n + 1)]
    pairs = set()
    if n > 1:
        if draw(st.integers(min_value=0, max_value=3)):
            pairs = {(draw(st.integers(min_value=0, max_value=v - 1)), v)
                     for v in range(1, n)}
        pairs |= set(draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                                   max_size=n + 2)))
    return helpers.make_graph("int", names, [
        (names[u], names[v], draw(LABELS)) for u, v in sorted(pairs)
    ])


class TestKernelOracle:
    """The Hermite form taken modulo the label lcm and both span solves
    (substitution on triangular bases, fraction-free elimination on the
    others) against the kernel construction and the transform-tracking
    span solve in ``helpers``, and against each other."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_flowup_and_span_match(self, data):
        g = data.draw(int_graphs())
        try:
            want = helpers.kernel_flowup_basis(g)
        except DisconnectedGraphError:
            with pytest.raises(DisconnectedGraphError):
                flowup_basis(g)
            return
        base = flowup_basis(g)
        assert base == want
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2 ** 32)))
        n = g.n
        recombined = helpers.combine_columns(base, helpers.random_unimodular(rng, n))
        scaled = [list(b) for b in base]
        k = rng.randrange(n)
        scaled[k] = [rng.choice([2, 3, 5, -6]) * v for v in scaled[k]]
        partial = base[:rng.randrange(n)]
        for b in (base, recombined, scaled, partial):
            coeffs = [rng.randint(-5, 5) for _ in b]
            member = [sum(c * row[j] for c, row in zip(coeffs, b)) for j in range(n)]
            probes = [member, [rng.randint(-50, 50) for _ in range(n)]]
            probes += [member[:j] + [member[j] + 1] + member[j + 1:] for j in range(n)]
            for f in probes:
                want = helpers.hermite_span_coordinates(g, b, f)
                assert span_coordinates(g, b, f) == want
                # Reversed, a triangular basis of two or more rows is no
                # longer triangular and goes through the elimination.
                back = span_coordinates(g, b[::-1], f)
                assert back == (None if want is None else want[::-1])
            assert span_coordinates(g, b, member) == coeffs
            if b:
                dependent = [list(row) for row in b]
                dependent[-1] = [sum(col) for col in zip(*b[:-1])] or [0] * n
                for solve in (span_coordinates, helpers.hermite_span_coordinates):
                    with pytest.raises(ValueError, match="dependent"):
                        solve(g, dependent, member)

    @pytest.mark.parametrize("edges, want", [
        ([("v1", "v2", 6), ("v1", "v3", 4), ("v2", "v3", 2)],
         [[1, 1, 1], [0, 6, 0], [0, 0, 4]]),
        ([("v1", "v2", 6), ("v2", "v3", 4)],
         [[1, 1, 1], [0, 6, 2], [0, 0, 4]]),
    ])
    def test_entry_dividing_the_pivot(self, edges, want):
        # Column entries that properly divide the current pivot: 1 | 6 and
        # 2 | 4 at the edge columns, 6 | 12 and 4 | 12 at the vertex columns
        # (M = 12).  The modular oracle's ``helpers._hermite_column`` meets
        # them with its general extended-gcd step (x = 1, y = 0); this pins
        # that step.
        g = helpers.make_graph("int", ["v1", "v2", "v3"], edges)
        assert flowup_basis(g) == helpers.kernel_flowup_basis(g) == want
        assert helpers.modular_flowup_basis(g) == want


# Primes just below 2^31 and 2^30: their pairwise products are 60- and
# 61-bit semiprimes that share a factor.
P31, Q30, R30 = 2 ** 31 - 1, 1073741789, 1073741783
LOCAL_LABELS = st.sampled_from([
    32, 81, 12, 18, 72, -8,          # prime powers and their products
    35, 1225, -175,                  # 35 stays one base element, squared
    P31 * Q30, P31 * R30, -Q30 * R30,
    1, -1, -1225, 2 ** 200, -(6 ** 90),
])


@st.composite
def local_graphs(draw):
    """Integer graphs on up to seven vertices whose coprime base has prime
    powers, a composite element and large shared factors; most are built
    on a spanning tree, the others may be disconnected."""
    n = draw(st.integers(min_value=1, max_value=7))
    names = [f"v{k}" for k in range(1, n + 1)]
    pairs = set()
    if n > 1:
        if draw(st.integers(min_value=0, max_value=3)):
            pairs = {(draw(st.integers(min_value=0, max_value=v - 1)), v)
                     for v in range(1, n)}
        pairs |= set(draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                                   max_size=n + 2)))
    return helpers.make_graph("int", names, [
        (names[u], names[v], draw(LOCAL_LABELS)) for u, v in sorted(pairs)
    ])


class TestLocalisation:
    """The rows read off the path closure against the kernel construction,
    the modular Hermite elimination and the coprime-base localisation in
    ``helpers``, and the coprime base of the last."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(int_graphs(), local_graphs()))
    def test_matches_the_three_oracles(self, g):
        oracles = (helpers.modular_flowup_basis, helpers.kernel_flowup_basis,
                   helpers.localised_flowup_basis)
        try:
            want = flowup_basis(g)
        except DisconnectedGraphError:
            for build in oracles:
                with pytest.raises(DisconnectedGraphError):
                    build(g)
            return
        for build in oracles:
            assert build(g) == want

    @given(st.lists(st.one_of(LOCAL_LABELS, LABELS), max_size=12))
    def test_coprime_base(self, labels):
        base = helpers._coprime_base({abs(x) for x in labels})
        assert all(c > 1 for c in base)
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
        for x in labels:
            for c in base:
                while x % c == 0:
                    x //= c
            assert x in (1, -1)

    @pytest.mark.parametrize("labels, want", [
        ([12, 18], {2, 3}),
        ([35, 1225], {35}),
        ([32, 81, 72], {2, 9}),
        ([P31 * Q30, P31 * R30], {P31, Q30, R30}),
        ([1, 1], set()),
        ([2 ** 200 * 3 ** 5, 6], {2, 3}),
    ])
    def test_coprime_base_examples(self, labels, want):
        assert set(helpers._coprime_base(labels)) == want


class TestSpanCoordinates:
    def test_basis_element(self, diamond):
        base = flowup_basis(diamond)
        assert span_coordinates(diamond, base, base[2]) == [0, 0, 1, 0]

    def test_outside_span(self, diamond):
        assert span_coordinates(diamond, DIAMOND_FLOWUPS, [0, 0, 4, 0]) is None
        assert is_spline(diamond, [0, 0, 4, 0])

    def test_constructed_combination(self, diamond):
        f = [2 * a + 3 * b for a, b in zip(DIAMOND_FLOWUPS[1], DIAMOND_FLOWUPS[3])]
        assert span_coordinates(diamond, DIAMOND_FLOWUPS, f) == [0, 2, 0, 3]

    def test_singular_basis_rejected(self, diamond):
        cols = [DIAMOND_FLOWUPS[0], DIAMOND_FLOWUPS[0],
                DIAMOND_FLOWUPS[2], DIAMOND_FLOWUPS[3]]
        with pytest.raises(ValueError, match="dependent"):
            span_coordinates(diamond, cols, [1, 1, 1, 1])

    def test_triangular_basis_needs_no_elimination(self, monkeypatch):
        def eliminate(*args):
            raise AssertionError("a triangular basis went through elimination")

        monkeypatch.setattr(basis_mod, "_fraction_free_eliminate", eliminate)
        rng = random.Random(137)
        g = helpers.random_sparse_graph(rng, 14, 30)
        base = flowup_basis(g)
        coeffs = [rng.randint(-9, 9) for _ in base]
        member = [sum(c * b[r] for c, b in zip(coeffs, base)) for r in range(g.n)]
        assert span_coordinates(g, base, member) == coeffs
        assert base[-1][-1] > 1
        member[-1] += 1
        assert span_coordinates(g, base, member) is None

    def test_round_trip_random(self):
        rng = random.Random(131)
        for _ in range(10):
            g = helpers.random_connected_graph(rng, rng.choice([3, 4, 5]))
            base = flowup_basis(g)
            coeffs = [rng.randint(-6, 6) for _ in range(g.n)]
            f = [sum(c * b[r] for c, b in zip(coeffs, base)) for r in range(g.n)]
            assert span_coordinates(g, base, f) == coeffs


def _triangle():
    return helpers.make_graph("int", ["a", "b", "c"],
                              [("a", "b", 2), ("b", "c", 3), ("a", "c", 5)])


class TestInputChecks:
    # Each public input check of ``basis``, reached once.
    @pytest.mark.parametrize("call, error, match", [
        (lambda g: spline_matrix(g, DIAMOND_FLOWUPS[:3]), ValueError,
         "^expected 4 splines, got 3$"),
        (lambda g: spline_matrix(g, [[1, 1, 1]] * 4), ValueError,
         "^spline length does not match the vertex count$"),
        (lambda g: span_coordinates(helpers.poly_cycle(), [[1, 1, 1]], [1, 1, 1]),
         ValueError, "^span coordinates are computed over the integers only$"),
        (lambda g: span_coordinates(g, DIAMOND_FLOWUPS, [1, 1, 1]), ValueError,
         "^vector lengths must match the vertex count$"),
        (lambda g: span_coordinates(g, DIAMOND_FLOWUPS[:3] + [[1, 2, 3]], [1, 1, 1, 1]),
         ValueError, "^vector lengths must match the vertex count$"),
        # More vectors than vertices are dependent, found by elimination.
        (lambda g: span_coordinates(g, DIAMOND_FLOWUPS + [[1, 1, 1, 1]], [1, 1, 1, 1]),
         ValueError, "^basis vectors are linearly dependent$"),
        (lambda g: span_coordinates(_triangle(), flowup_basis(_triangle()), [2.0, 2.0, 2.0]),
         TypeError, "^expected an integer, got float$"),
    ], ids=["matrix-count", "matrix-length", "span-polynomial", "span-vector-length",
            "span-basis-length", "span-more-vectors", "span-float-vector"])
    def test_rejected(self, diamond, call, error, match):
        with pytest.raises(error, match=match):
            call(diamond)


class TestCompletionInvariance:
    def test_target_agrees(self):
        rng = random.Random(163)
        for _ in range(15):
            g = helpers.random_connected_graph(rng, rng.choice([3, 4, 5]))
            assert determinant_target(g) == determinant_target(completion(g))

    def test_membership_agrees(self):
        rng = random.Random(167)
        for _ in range(10):
            g = helpers.random_connected_graph(rng, rng.choice([3, 4, 5]))
            k = completion(g)
            base = flowup_basis(g)
            for _ in range(20):
                if rng.random() < 0.5:
                    coeffs = [rng.randint(-3, 3) for _ in range(g.n)]
                    f = [sum(c * b[r] for c, b in zip(coeffs, base))
                         for r in range(g.n)]
                else:
                    f = [rng.randint(-40, 40) for _ in range(g.n)]
                assert is_spline(g, f) == is_spline(k, f)
