import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import enumerate_trails, trail_factor_sets
from graphsplines import (
    DEFAULT_TRAIL_LIMIT,
    DisconnectedGraphError,
    Selection,
    SplineConstructionError,
    ZZ,
    ZZX,
    check_basis,
    completion,
    determinant_target,
    first_violation,
    flowup_basis,
    induced_spline,
    is_spline,
    leading_value,
    leading_values,
    minimal_selection,
    minimal_selections,
    selection_from_labels,
    selection_spline,
    single_vertex_spline,
    top_spline,
    zero_trails,
)
from graphsplines import splines
from graphsplines.splines import path_closure

L4, L5 = helpers.K4_LABELS, helpers.K5_LABELS


class TestIsSpline:
    def test_diamond_examples(self, diamond):
        assert is_spline(diamond, [2, 32, 34, 50])
        assert is_spline(diamond, [3, 3, 3, 3])
        assert not is_spline(diamond, [2, 32, 34, 51])

    def test_first_violation_reports_document_order(self, diamond):
        e = first_violation(diamond, [0, 1, 0, 0])
        assert (e.u, e.v, e.label) == (0, 1, 5)

    def test_length_mismatch(self, diamond):
        with pytest.raises(ValueError):
            is_spline(diamond, [1, 2, 3])

    def test_polynomial_spline(self, poly_cycle):
        x2x = ZZX.parse("x^2+x")
        assert is_spline(poly_cycle, [ZZX.zero, x2x, ZZX.zero])
        assert not is_spline(poly_cycle, [ZZX.zero, ZZX.one, ZZX.zero])


class TestLeadingValues:
    def test_diamond(self, diamond):
        assert leading_values(diamond) == [1, 30, 4, 18]

    def test_first_vertex_is_one(self, k5):
        assert leading_value(k5, 0) == 1

    def test_closure_from_the_first_vertex_starts_at_one(self, k5, poly_cycle):
        for g in (k5, poly_cycle):
            assert path_closure(g, 0)[0] == g.domain.one

    def test_target_diamond(self, diamond):
        assert determinant_target(diamond) == 2160

    def test_target_unit_labels(self):
        g = helpers.make_graph("int", ["a", "b", "c"],
                               [("a", "b", 1), ("b", "c", 1)])
        assert determinant_target(g) == 1

    def test_target_single_edge(self):
        g = helpers.make_graph("int", ["a", "b"], [("a", "b", 7)])
        assert leading_values(g) == [1, 7]
        assert determinant_target(g) == 7

    def test_k3_236(self):
        g = helpers.make_graph("int", ["v1", "v2", "v3"],
                               [("v1", "v2", 2), ("v1", "v3", 3), ("v2", "v3", 6)])
        assert leading_values(g) == [1, 6, 6]
        assert determinant_target(g) == 36

    def test_poly_cycle(self, poly_cycle):
        x2x = ZZX.parse("x^2+x")
        assert leading_values(poly_cycle) == [ZZX.one, x2x, x2x]
        assert determinant_target(poly_cycle) == ZZX.parse("x^4+2x^3+x^2")

    def test_disconnected_rejected(self):
        g = helpers.make_graph("int", ["a", "b", "c"], [("a", "b", 2)])
        with pytest.raises(DisconnectedGraphError):
            leading_value(g, 2)

    def test_only_later_neighbors_rejected(self):
        # c reaches only d, which is later and has no other neighbor
        g = helpers.make_graph("int", ["a", "b", "c", "d"],
                               [("a", "b", 2), ("c", "d", 3)])
        assert [leading_value(g, i) for i in (1, 3)] == [2, 3]
        with pytest.raises(DisconnectedGraphError):
            leading_value(g, 2)

    def test_no_trail_enumeration(self, monkeypatch, diamond, poly_cycle):
        import graphsplines.graphs as graphs_mod
        import graphsplines.splines as splines_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("zero_trails called")

        monkeypatch.setattr(graphs_mod, "zero_trails", forbidden)
        monkeypatch.setattr(splines_mod, "zero_trails", forbidden)
        assert determinant_target(diamond) == 2160
        assert check_basis(diamond, flowup_basis(diamond)).is_basis
        assert leading_values(poly_cycle)[2] == ZZX.parse("x^2+x")

    @pytest.mark.parametrize("seed", range(8))
    def test_closure_matches_reference(self, seed):
        # The whole reach map, not only the lead: flowup_basis reads it.
        rng = random.Random(seed)
        pool = [1, -1, 2, -2, 3, -3, 4, 8, -8, 9, 27, 16, 5, 25, 6, -12, 30, 49]
        graphs = [helpers.random_poly_complete_graph(rng, rng.randint(3, 7))]
        for _ in range(6):
            n = rng.randint(2, 9)
            names = [f"v{k}" for k in range(1, n + 1)]
            graphs.append(helpers.make_graph("int", names, [
                (names[u], names[v], rng.choice(pool))
                for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.55
            ]))
        for g in graphs:
            for i in range(g.n):
                try:
                    want = helpers.reference_path_closure(g, i)
                except DisconnectedGraphError:
                    with pytest.raises(DisconnectedGraphError):
                        path_closure(g, i)
                    continue
                assert path_closure(g, i) == want

    def test_no_gcd_on_edges_back_into_the_start(self, monkeypatch):
        # Distinct primes name their edges.  The start vertex's own pop
        # takes one gcd per edge at i; after it, no gcd takes a label at i,
        # since every walk back into i is dropped by the zero kept there.
        # Patched on the class, so nothing outlives the test.
        names = [f"v{k}" for k in range(1, 7)]
        g = helpers.make_graph("int", names, [
            (names[u], names[v], p) for (u, v), p in
            zip(itertools.combinations(range(6), 2), helpers.SMALL_PRIMES)
        ])
        labels = []
        gcd_int = type(ZZ).gcd
        monkeypatch.setattr(type(ZZ), "gcd",
                            lambda self, a, b: labels.append(b) or gcd_int(self, a, b))
        for i in range(g.n):
            labels.clear()
            path_closure(g, i)
            at_i = [g.edges[k].label for k, _ in g.neighbors(i)]
            assert labels[:len(at_i)] == at_i
            assert set(at_i).isdisjoint(labels[len(at_i):])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_closure_matches_trail_oracle(self, data):
        g = data.draw(random_graphs())
        for i in range(g.n):
            try:
                want = helpers.trail_leading_value(g, i)
            except DisconnectedGraphError:
                with pytest.raises(DisconnectedGraphError):
                    leading_value(g, i)
                continue
            got = leading_value(g, i)
            assert got == want
            assert g.domain.format(got) == g.domain.format(want)


POLY_FACTORS = ["x", "x+1", "x-1", "2", "3", "x^2+1", "2*x+1", "-1"]


@st.composite
def selection_graphs(draw):
    """Connected graphs on three to seven vertices in either domain for
    the selection oracle: labels distinct, or drawn from a small pool with
    unit labels so they repeat; graphs on up to five vertices may be
    completed.  Graphs on six or seven vertices stay sparse, since the
    oracle's hitting-set search is exponential in the trails."""
    domain = draw(st.sampled_from(["int", "intpoly"]))
    n = draw(st.integers(min_value=3, max_value=7))
    names = [f"v{k}" for k in range(1, n + 1)]
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    others = [pq for pq in itertools.combinations(range(n), 2) if pq not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True,
                          max_size=len(others) if n <= 5 else 3))
    pairs = sorted(tree + extra)
    if draw(st.booleans()):
        pool = (["1", "-1", "2", "3", "6", "4"] if domain == "int"
                else ["1", "-1", "x", "x+1", "x^2+x", "2*x"])
        labels = [draw(st.sampled_from(pool)) for _ in pairs]
    else:
        shifts = draw(st.lists(st.integers(min_value=1, max_value=200), unique=True,
                               min_size=len(pairs), max_size=len(pairs)))
        labels = [str(c + 1) if domain == "int" else f"x+{c}" for c in shifts]
    g = helpers.make_graph(domain, names, [
        (names[u], names[v], lab) for (u, v), lab in zip(pairs, labels)
    ])
    if n <= 5 and draw(st.booleans()):
        g = completion(g)
    return g


@st.composite
def random_graphs(draw):
    """Graphs on up to seven vertices in either domain, disconnected ones
    included; labels share factors so trail gcds are nontrivial."""
    domain = draw(st.sampled_from(["int", "intpoly"]))
    n = draw(st.integers(min_value=2, max_value=7))
    names = [f"v{k}" for k in range(1, n + 1)]
    if domain == "int":
        labels = st.integers(min_value=-60, max_value=60).filter(bool)
    else:
        labels = st.lists(st.sampled_from(POLY_FACTORS), min_size=1,
                          max_size=3).map(
            lambda fs: ZZX.format(ZZX.product(ZZX.parse(f) for f in fs)))
    edges = [
        (names[u], names[v], draw(labels))
        for u, v in itertools.combinations(range(n), 2)
        if draw(st.booleans())
    ]
    return helpers.make_graph(domain, names, edges)


class TestTrailFactorSets:
    def test_diamond_v2(self, diamond):
        sets = trail_factor_sets(diamond, 1)
        assert [tf.trail.edges for tf in sets] == [(3, 1), (4, 2)]
        assert [tf.factors for tf in sets] == [(1, 2), (3, 2)]

    def test_k4_v2_count(self, k4):
        sets = trail_factor_sets(k4, 1)
        assert len(sets) == 4
        # distinct prime labels make every long-trail gcd one
        for tf in sets:
            assert tf.factors == tuple(k4.edges[k].label for k in tf.trail.edges)

    def test_factor_sets_have_unit_gcd(self, k5):
        rng = random.Random(5)
        graphs = [helpers.k5_distinct(), helpers.diamond()]
        graphs += [helpers.random_connected_graph(rng, n) for n in (4, 5)]
        for g in graphs:
            for i in range(1, g.n - 1):
                for tf in trail_factor_sets(g, i):
                    assert ZZ.gcd_all(tf.factors) == 1

    def test_only_zero_edges_gives_empty(self):
        g = helpers.make_graph("int", ["a", "b", "c"],
                               [("a", "b", 2), ("a", "c", 3)])
        assert trail_factor_sets(g, 1) == []

    def test_top_vertex_empty(self, k4):
        assert trail_factor_sets(k4, k4.n - 1) == []


class TestMinimalSelections:
    def test_k4_label_sets(self, k4):
        sels = minimal_selections(k4, 1)
        got = {frozenset(s.labels) for s in sels}
        expect = {
            frozenset({L4[2], L4[5]}),
            frozenset({L4[3], L4[4]}),
            frozenset({L4[2], L4[4], L4[6]}),
            frozenset({L4[3], L4[5], L4[6]}),
        }
        assert got == expect

    def test_diamond_label_sets(self, diamond):
        got = {frozenset(s.labels) for s in minimal_selections(diamond, 1)}
        assert got == {frozenset(p) for p in [(2, 9), (2, 6), (4, 9), (4, 6)]}

    def test_empty_selection(self):
        g = helpers.make_graph("int", ["a", "b", "c"],
                               [("a", "b", 2), ("a", "c", 3)])
        sels = minimal_selections(g, 1)
        assert len(sels) == 1
        s = sels[0]
        assert s.labels == () and s.product == 1 and s.value == 2

    def test_antichain_and_dominance(self):
        rng = random.Random(41)
        graphs = [helpers.k4_distinct(), helpers.diamond(), helpers.poly_cycle()]
        graphs += [helpers.random_connected_graph(rng, 4) for _ in range(3)]
        for g in graphs:
            for i in range(1, g.n - 1):
                sels = minimal_selections(g, i)
                sets = [frozenset(s.labels) for s in sels]
                for a in sets:
                    for b in sets:
                        assert not a < b
                # each chosen edge's factor is the oracle's entry for it
                oracle = trail_factor_sets(g, i)
                for s in sels:
                    assert s.trails == tuple(tf.trail for tf in oracle)
                    assert s.factors == tuple(
                        tf.factors[tf.trail.edges.index(e)]
                        for tf, e in zip(oracle, s.chosen)
                    )
                # every brute-force assignment's label set contains a minimal one
                trails = [tf.trail for tf in oracle]
                if not trails:
                    continue
                for combo in itertools.product(*[t.edges for t in trails]):
                    labels = frozenset(g.edges[k].label for k in combo)
                    assert any(s <= labels for s in sets)

    def test_selection_is_deterministic(self, k4):
        a = minimal_selections(k4, 1)
        b = minimal_selections(k4, 1)
        assert [(s.labels, s.chosen, s.product) for s in a] == \
            [(s.labels, s.chosen, s.product) for s in b]

    def test_chosen_edges_avoid_zero_edges(self):
        rng = random.Random(13)
        for _ in range(10):
            g = helpers.random_connected_graph(rng, 5)
            for i in range(1, g.n - 1):
                for s in minimal_selections(g, i):
                    for e in s.chosen:
                        edge = g.edges[e]
                        assert not ({edge.u, edge.v} <= set(range(i + 1))
                                    and i in (edge.u, edge.v))

    def test_out_of_range(self, k4):
        with pytest.raises(ValueError):
            minimal_selections(k4, 0)
        with pytest.raises(ValueError):
            minimal_selections(k4, k4.n - 1)

    def test_two_vertex_graph_has_no_eligible_vertex(self):
        g = helpers.make_graph("int", ["a", "b"], [("a", "b", 7)])
        with pytest.raises(ValueError):
            minimal_selections(g, 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_few_vertices_named(self, n):
        g = helpers.make_graph("int", ["a", "b"][:n], [("a", "b", 7)][:n - 1])
        with pytest.raises(ValueError, match="^selections need a graph with at least 3 vertices$"):
            minimal_selections(g, 1)
        with pytest.raises(ValueError, match="^selections need a graph with at least 3 vertices$"):
            selection_from_labels(g, 1, [7])
        # No library call returns a selection here; build one by hand.
        s = Selection(graph=g, vertex=1, trails=(), chosen=(), factors=(), labels=(),
                      product=1, value=1, h_edges=frozenset())
        with pytest.raises(ValueError, match="^the selection construction needs at least 3 vertices$"):
            selection_spline(s)

    @settings(max_examples=220, deadline=None)
    @given(st.data())
    def test_cuts_match_hitting_set_oracle(self, data):
        g = data.draw(selection_graphs())
        for i in range(1, g.n - 1):
            got = minimal_selections(g, i)
            want = helpers.hitting_set_selections(g, i)
            assert [(s.labels, s.trails, s.chosen, s.factors, s.product, s.value)
                    for s in got] == \
                [(s.labels, s.trails, s.chosen, s.factors, s.product, s.value)
                 for s in want]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_each_trail_takes_its_lowest_selected_edge(self, data):
        g = data.draw(selection_graphs())
        for i in range(1, g.n - 1):
            for s in minimal_selections(g, i):
                assert s.chosen == tuple(min(e for e in t.edges if e in s.h_edges)
                                         for t in s.trails)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_one_selection_by_position(self, data):
        # ``minimal_selection`` realizes the selection at one position of
        # ``minimal_selections`` and rejects every other position.
        g = data.draw(selection_graphs())

        def fields(s):
            return (s.vertex, s.trails, s.labels, s.chosen, s.factors, s.product,
                    s.value, s.h_edges)

        for i in range(1, g.n - 1):
            sels = minimal_selections(g, i)
            for k, s in enumerate(sels):
                one = minimal_selection(g, i, k)
                assert one.graph is g and fields(one) == fields(s)
            for bad in (-1, len(sels)):
                with pytest.raises(ValueError, match=f"^selection id {bad} out of range; "
                                   f"{len(sels)} minimal selections exist$"):
                    minimal_selection(g, i, bad)

    def test_sparse_n30_wall(self):
        # A hitting-set search over this vertex's 62 long trails takes more
        # than a minute; the label-cut enumeration takes under a second.
        g = helpers.random_sparse_graph(random.Random(30040), 30, 40)
        sels = minimal_selections(g, 1)
        assert len(sels) == 1005
        assert len({s.labels for s in sels}) == 1005

    def test_parallel_paths_two_labels_wall(self):
        # Thirty trails v2-a_j-v1, labelled 3 then 7: 2^30 minimal edge
        # cuts, but only the label cuts {3} and {7} are minimal.
        m = 30
        edges = [("v1", "v2", 5)]
        for j in range(m):
            edges += [("v2", f"a{j}", 3), (f"a{j}", "v1", 7)]
        g = helpers.make_graph("int", ["v1", "v2"] + [f"a{j}" for j in range(m)], edges)
        sels = minimal_selections(g, 1)
        assert [s.labels for s in sels] == [(3,), (7,)]
        assert [s.product for s in sels] == [3 ** m, 7 ** m]


def selection_fields(s):
    # Selection compares by identity; compare its fields, and the types of
    # its ring values, since an int equals the constant IntPoly.
    values = (*s.factors, s.product, s.value)
    return (s.vertex, s.trails, s.chosen, s.factors, s.labels, s.product, s.value,
            s.h_edges, [type(v) for v in values])


def outcome(call):
    try:
        s = call()
    except ValueError as e:
        return "error", str(e)
    return "selection", selection_fields(s)


class TestSelectionFastPaths:
    """The mask realization and the unchecked label-cut leaves against the
    oracles that intersect sets and check every leaf."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_minimal_selections_match_the_oracles(self, data):
        g = data.draw(selection_graphs())
        for i in range(1, g.n - 1):
            at = splines._VertexSelections(g, i, DEFAULT_TRAIL_LIMIT)
            keysets = at.minimal_keysets()
            assert keysets == helpers.checked_minimal_keysets(at)
            got = minimal_selections(g, i)
            assert all(s.graph is g for s in got)
            assert [selection_fields(s) for s in got] == \
                [selection_fields(helpers.reference_select(at, k)) for k in keysets]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_label_sets_match_reference_select(self, data):
        # A minimal key set with random keys added is realizable but often
        # takes _repair; a set of random keys alone often misses a trail.
        g = data.draw(selection_graphs())
        for i in range(1, g.n - 1):
            at = splines._VertexSelections(g, i, DEFAULT_TRAIL_LIMIT)
            base = data.draw(st.sampled_from(at.minimal_keysets() + [frozenset()]))
            keyset = base | data.draw(st.frozensets(st.sampled_from(sorted(set(at.edge_key)))))
            labels = [g.edges[k].label for k in keyset]
            assert outcome(lambda: selection_from_labels(g, i, labels)) == \
                outcome(lambda: helpers.reference_select(at, keyset))

    def test_repaired_choice_takes_its_own_factors(self):
        # At v4 the lowest selected edges carry labels 6, 2, 2; repair moves
        # the second trail onto 3, whose factor the select recomputes.
        g = helpers.make_graph("int", ["v1", "v2", "v3", "v4", "v5"], [
            ("v1", "v2", 2), ("v1", "v3", 5), ("v1", "v5", 6), ("v2", "v3", 2),
            ("v2", "v5", 2), ("v3", "v4", 15), ("v3", "v5", 2), ("v4", "v5", 3),
        ])
        at = splines._VertexSelections(g, 3, DEFAULT_TRAIL_LIMIT)
        keyset = frozenset(at.key[lab] for lab in (2, 3, 6))
        assert selection_fields(at.select(keyset)) == \
            selection_fields(helpers.reference_select(at, keyset))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_power_by_squaring_matches_prod(self, data):
        d = data.draw(st.sampled_from([ZZ, ZZX]))
        if d is ZZ:
            f = data.draw(st.integers(min_value=-50, max_value=50))
        else:
            f = ZZX.product(ZZX.parse(p) for p in data.draw(
                st.lists(st.sampled_from(POLY_FACTORS), max_size=3)))
        c = data.draw(st.integers(min_value=0, max_value=13))
        for k in (0, c):
            got, want = pow(f, k), math.prod([f] * k, start=d.one)
            assert got == want and type(got) is type(want)
        if d is ZZX:
            # An int's negative power is Python's float; an IntPoly's raises.
            with pytest.raises(ValueError):
                pow(f, -1 - c)

    def test_repeated_label_k5_at_every_vertex(self):
        # Labels 2, 3 and 5 each label two edges.  At v2 and v4 the search
        # reaches a leaf whose cut is not minimal, and the check drops it.
        g = helpers.repeated_label_k5()
        got = [[s.labels for s in minimal_selections(g, i)] for i in (1, 2, 3)]
        assert got == [
            [(2, 3, 7), (2, 3, 5)],
            [(3, 7, 5), (3, 11, 5), (7, 13, 5), (13, 11)],
            [(5,)],
        ]
        leaves = [len(helpers.checked_minimal_keysets(
            splines._VertexSelections(g, i, DEFAULT_TRAIL_LIMIT), check=False))
            for i in (1, 2, 3)]
        assert leaves == [3, 4, 2]

    def test_leaf_whose_shared_key_cuts_alone_is_dropped(self):
        # At v3 the leaf S = {v3, v4} cuts v4-v1 (3) and v4-v2 (5).  But 5
        # also labels v3-v4 inside S, so 5 alone cuts v3 off: {3, 5} is not
        # minimal, although every cut key labels a boundary edge.
        g = helpers.make_graph("int", ["v1", "v2", "v3", "v4"], [
            ("v1", "v4", 3), ("v2", "v4", 5), ("v3", "v4", 5),
        ])
        at = splines._VertexSelections(g, 2, DEFAULT_TRAIL_LIMIT)
        assert helpers.checked_minimal_keysets(at, check=False) == \
            [frozenset({0, 1}), frozenset({1})]
        assert [s.labels for s in minimal_selections(g, 2)] == [(5,)]


class TestSelectionProducts:
    def test_diamond_selection_product(self, diamond):
        s = selection_from_labels(diamond, 1, [2, 9])
        assert s.factors == (1, 3)
        assert s.product == 3
        assert s.value == 90

    def test_one_factor_per_long_trail(self, k4):
        s = selection_from_labels(k4, 1, [L4[2], L4[4], L4[6]])
        assert len(s.factors) == 4
        assert s.product == math.prod(s.factors)
        # every factor is the chosen label divided by its trail's gcd
        for t, e, f in zip(s.trails, s.chosen, s.factors):
            assert f * t.gcd == k4.edges[e].label

    def test_shared_label_contributes_per_trail(self, k4):
        # one label can be the choice of several trails; each occurrence
        # contributes its own factor
        s = selection_from_labels(k4, 1, [L4[2], L4[4], L4[6]])
        chosen_labels = [k4.edges[e].label for e in s.chosen]
        assert len(chosen_labels) == 4
        assert s.product == math.prod(chosen_labels)  # prime labels: gcds are 1
        assert any(chosen_labels.count(lab) == 2 for lab in set(chosen_labels))

    def test_empty_product(self):
        g = helpers.make_graph("int", ["a", "b", "c"],
                               [("a", "b", 2), ("a", "c", 3)])
        assert selection_from_labels(g, 1, []).product == 1

    def test_unrealizable_rejected(self, diamond):
        with pytest.raises(ValueError):
            selection_from_labels(diamond, 1, [2])  # misses the 9-6 trail
        with pytest.raises(ValueError):
            selection_from_labels(diamond, 1, [7])  # no such label

    def test_unrealizable_after_repair(self):
        # Both long trails of v2 carry a selected label, but two trails
        # cannot take three labels: v2-v4-v5-v1 carries only 5.
        g = helpers.make_graph("int", ["v1", "v2", "v3", "v4", "v5"], [
            ("v1", "v5", 6), ("v2", "v4", 5), ("v3", "v4", 3),
            ("v3", "v5", 2), ("v4", "v5", 10),
        ])
        with pytest.raises(ValueError, match="label set is not realizable as a selection"):
            selection_from_labels(g, 1, [2, 3, 5])

    def test_repair_backtracks_out_of_a_dead_end(self):
        # At v4 the three trails first take labels 6, 2, 2, so 3 needs
        # repair.  Moving the trail on 6 is a dead end (no other trail
        # carries 6); the second trail then hands over its shared 2.
        g = helpers.make_graph("int", ["v1", "v2", "v3", "v4", "v5"], [
            ("v1", "v2", 2), ("v1", "v3", 5), ("v1", "v5", 6), ("v2", "v3", 2),
            ("v2", "v5", 2), ("v3", "v4", 15), ("v3", "v5", 2), ("v4", "v5", 3),
        ])
        s = selection_from_labels(g, 3, [2, 3, 6])
        assert [t.vertices for t in s.trails] == [(3, 4, 0), (3, 4, 1), (3, 4, 2)]
        assert s.chosen == (2, 7, 6)
        assert s.factors == (2, 3, 2)
        assert s.value == 180

    def test_vertex_without_long_trails(self):
        g = helpers.make_graph("int", ["v1", "v2", "v3"],
                               [("v1", "v2", 3), ("v2", "v3", 5)])
        with pytest.raises(ValueError, match="label set is not realizable as a selection"):
            selection_from_labels(g, 1, [5])
        s = selection_from_labels(g, 1, [])
        assert (s.trails, s.chosen, s.factors, s.labels) == ((), (), (), ())
        assert (s.product, s.value, s.h_edges) == (1, 3, frozenset())

    def test_repair_chain_beyond_the_recursion_limit(self):
        # Trails v2-a_j-v1: trail 0 carries only p_0, trail j > 0 carries
        # p_(j-1) on its lower edge and p_j on the other.  Every trail
        # starts on its lower edge, so p_1200 is realized only by a chain
        # that moves every trail j onto p_j.
        count = 1201
        p = [j + 2 for j in range(count)]
        edges = []
        for j in range(count):
            edges += [("v2", f"a{j}", p[max(j - 1, 0)]), (f"a{j}", "v1", p[j])]
        g = helpers.make_graph("int", ["v1", "v2"] + [f"a{j}" for j in range(count)],
                               edges)
        s = selection_from_labels(g, 1, p)
        assert [t.vertices[1] for t in s.trails] == list(range(2, count + 2))
        assert [g.edges[e].label for e in s.chosen] == p


class TestSingleVertexSpline:
    def test_no_zero_edge_case(self):
        # v2 is adjacent only to later vertices, so the incident-label
        # precondition is satisfiable
        g = helpers.make_graph("int", ["v1", "v2", "v3"], [("v1", "v3", 3),
                                                           ("v2", "v3", 6)])
        s = selection_from_labels(g, 1, [6])
        f = single_vertex_spline(s)
        assert f[1] != 0 and f[0] == 0 and f[2] == 0
        assert is_spline(g, f)

    def test_zero_edge_blocks_precondition(self):
        g = helpers.make_graph("int", ["v1", "v2", "v3"],
                               [("v1", "v2", 2), ("v1", "v3", 3), ("v2", "v3", 6)])
        s = selection_from_labels(g, 1, [6])
        # the label 2 of edge v1-v2 lies on no long trail, so it can never
        # be part of a selection and the operation must refuse
        with pytest.raises(ValueError):
            single_vertex_spline(s)


class TestSelectionSpline:
    def test_k4_all_minimal(self, k4):
        for s in minimal_selections(k4, 1):
            f = selection_spline(s)
            assert is_spline(k4, f)
            assert set(f) <= {0, s.value}
            assert f[0] == 0 and f[1] == s.value

    def test_prop_42_case_only_vertex(self, k4):
        s = selection_from_labels(k4, 1, [L4[2], L4[5]])
        assert selection_spline(s) == [0, s.value, 0, 0]

    def test_k5_stated_selection_pattern(self, k5):
        stated = [L5[j] for j in (2, 4, 7, 5, 9, 10)]
        a = selection_from_labels(k5, 1, stated)
        f = selection_spline(a)
        assert f == [0, a.value, 0, 0, a.value]

    def test_completion_of_diamond(self, diamond):
        k = completion(diamond)
        for s in minimal_selections(k, 1):
            assert is_spline(k, selection_spline(s))

    def test_zero_count_bound(self):
        # every output vanishes on the vertices before the target one;
        # more zeros are possible but not guaranteed
        rng = random.Random(3)
        for _ in range(25):
            n = rng.choice([3, 4, 5, 6])
            k = helpers.random_complete_graph(rng, n, distinct=True)
            for i in range(1, n - 1):
                for s in minimal_selections(k, i):
                    f = selection_spline(s)
                    assert all(v == 0 for v in f[:i])
                    assert f[i] == s.value != 0
                    assert sum(1 for v in f if v == 0) >= i  # i zeros when 0-based

    def test_k4_zero_patterns(self, k4):
        # zeros sit exactly on the earlier vertices and on the later
        # vertices whose edge to v2 is selected; {5, 7} selects no edge at
        # v2, so position 2 gets one zero, short of a 2-zeros bound
        x = "X"
        expect = {
            frozenset({3, 11}): [0, x, 0, 0],
            frozenset({3, 7, 13}): [0, x, 0, x],
            frozenset({5, 11, 13}): [0, x, x, 0],
            frozenset({5, 7}): [0, x, x, x],
        }
        got = {}
        for s in minimal_selections(k4, 1):
            f = selection_spline(s)
            assert set(f) <= {0, s.value}
            got[frozenset(s.labels)] = [x if v == s.value else 0 for v in f]
        assert got == expect

    def test_repeated_labels_can_defeat_construction(self):
        # equal labels on distinct edges break the subgraph reasoning the
        # construction relies on; the self-check must catch it
        g = helpers.repeated_label_k5()
        bad = next(s for s in minimal_selections(g, 1)
                   if frozenset(s.labels) == frozenset({2, 3, 5}))
        with pytest.raises(SplineConstructionError):
            selection_spline(bad)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_complete_graph_selections_are_vertex_subsets(self, n):
        # Distinct-label K_n: the minimal selections at 1-based vertex v
        # are the 2^(n-v) edge cuts around S, the vertex plus any subset
        # of the later vertices, and each spline is X exactly on S.
        k = helpers.random_complete_graph(random.Random(n), n)
        for i in range(1, n - 1):
            sels = minimal_selections(k, i)
            assert len(sels) == 2 ** (n - 1 - i)
            sides = set()
            for s in sels:
                side = {i} | {t for t in range(i + 1, n)
                              if helpers.edge_index_between(k, i, t) not in s.h_edges}
                assert s.h_edges == {index for index, e in enumerate(k.edges)
                                     if max(e.u, e.v) > i and (e.u in side) != (e.v in side)}
                values = selection_spline(s)
                assert [v for v in range(n) if values[v] == s.value] == sorted(side)
                assert all(values[v] == 0 for v in range(n) if v not in side)
                sides.add(frozenset(side))
            assert len(sides) == 2 ** (n - 1 - i)

    @pytest.mark.parametrize("distinct", [True, False])
    def test_matches_pair_lookup_oracle(self, distinct):
        # Every valid vertex, every minimal selection and a few supersets,
        # on complete graphs as loaded and with endpoints reversed; with
        # repeated labels the construction may fail its self-check, and
        # then the oracle must fail too.
        def outcome(construct, s):
            try:
                return construct(s)
            except SplineConstructionError:
                return SplineConstructionError

        rng = random.Random(1800 + distinct)
        graphs = [helpers.random_complete_graph(rng, rng.randint(3, 6), max_label=8,
                                                distinct=distinct) for _ in range(30)]
        if not distinct:
            graphs.append(helpers.repeated_label_k5())
        seen = set()
        for g in graphs:
            for k in (g, helpers.reverse_endpoints(g, rng)):
                labels = sorted({e.label for e in k.edges})
                for i in range(1, g.n - 1):
                    sels = minimal_selections(k, i)
                    for s in rng.sample(sels, min(3, len(sels))):
                        extra = rng.sample(labels, min(3, len(labels)))
                        try:
                            sels.append(selection_from_labels(k, i, (*s.labels, *extra)))
                        except ValueError:
                            pass
                    for s in sels:
                        got = outcome(selection_spline, s)
                        assert got == outcome(helpers.pair_lookup_selection_spline, s)
                        seen.add("raise" if got is SplineConstructionError
                                 else "zero" if 0 in got[i + 1:] else "all X")
        assert seen >= ({"zero", "all X"} if distinct else {"zero", "all X", "raise"})

    def test_non_complete_rejected(self, diamond):
        s = minimal_selections(diamond, 1)[0]
        with pytest.raises(ValueError):
            selection_spline(s)


class TestInducedSpline:
    def test_k5_stated_extension(self, k5):
        stated = [L5[j] for j in (2, 4, 7, 5, 9, 10)]
        a = selection_from_labels(k5, 1, stated)
        a_star = selection_from_labels(k5, 1, stated + [L5[3]])
        f = selection_spline(a)
        g = induced_spline(f, a, a_star)
        assert g == [0, a_star.value, 0, 0, a_star.value]
        assert is_spline(k5, g)

    def test_same_selection_is_identity(self, k4):
        a = minimal_selections(k4, 1)[0]
        f = selection_spline(a)
        assert induced_spline(f, a, a) == f

    def test_inclusion_required(self, k4):
        sels = minimal_selections(k4, 1)
        f = selection_spline(sels[0])
        with pytest.raises(ValueError):
            induced_spline(f, sels[0], sels[1])

    def test_bad_value_rejected(self, k4):
        a = minimal_selections(k4, 1)[0]
        f = selection_spline(a)
        f[2] = 1 if f[2] == 0 else f[2] + 1
        with pytest.raises(ValueError):
            induced_spline(f, a, a)

    def test_random_extensions_are_splines(self, k4):
        # a selection with k long trails realizes at most k labels, so only
        # extensions that stay realizable count
        rng = random.Random(17)
        trail_count = len(trail_factor_sets(k4, 1))
        all_labels = sorted({k4.edges[k].label for tf in trail_factor_sets(k4, 1)
                             for k in tf.trail.edges})
        checked = 0
        for s in minimal_selections(k4, 1):
            extra = [lab for lab in all_labels if lab not in s.labels]
            rng.shuffle(extra)
            room = trail_count - len(s.labels)
            star_labels = list(s.labels) + extra[:min(2, room)]
            try:
                a_star = selection_from_labels(k4, 1, star_labels)
            except ValueError:
                continue
            f = selection_spline(s)
            assert is_spline(k4, induced_spline(f, s, a_star))
            checked += 1
        assert checked >= 2


class TestInputChecks:
    # Each public input check of ``splines`` that no other test reaches.
    @pytest.mark.parametrize("call, match", [
        (lambda k4, k5: leading_value(k4, 4), "^vertex index 4 out of range$"),
        (lambda k4, k5: leading_value(k4, -1), "^vertex index -1 out of range$"),
        (lambda k4, k5: induced_spline([0] * 4, minimal_selections(k4, 1)[0],
                                       minimal_selections(k4, 2)[0]),
         "^selections must target the same vertex of the same graph$"),
        (lambda k4, k5: induced_spline([0] * 4, minimal_selections(k4, 1)[0],
                                       minimal_selections(k5, 1)[0]),
         "^selections must target the same vertex of the same graph$"),
        (lambda k4, k5: induced_spline([0] * 3, minimal_selections(k4, 1)[0],
                                       minimal_selections(k4, 1)[0]),
         "^expected 4 values, got 3$"),
    ], ids=["lead-past-the-end", "lead-negative", "induced-other-vertex", "induced-other-graph", "induced-length"])
    def test_rejected(self, k4, k5, call, match):
        with pytest.raises(ValueError, match=match):
            call(k4, k5)


class TestTopSpline:
    def test_diamond(self, diamond):
        assert top_spline(diamond) == [0, 0, 0, 18]

    def test_single_edge(self):
        g = helpers.make_graph("int", ["a", "b"], [("a", "b", 7)])
        assert top_spline(g) == [0, 7]

    def test_unit_k3(self):
        g = helpers.make_graph("int", ["a", "b", "c"],
                               [("a", "b", 1), ("a", "c", 1), ("b", "c", 1)])
        assert top_spline(g) == [0, 0, 1]


class TestDivisibilityProperties:
    def test_trail_gcd_divides_spline_differences(self):
        # random splines from the lattice; every trail between two vertices
        rng = random.Random(29)
        for _ in range(12):
            g = helpers.random_connected_graph(rng, rng.choice([3, 4, 5, 6]))
            basis = flowup_basis(g)
            coeffs = [rng.randint(-4, 4) for _ in range(g.n)]
            f = [sum(c * b[r] for c, b in zip(coeffs, basis)) for r in range(g.n)]
            assert is_spline(g, f)
            u, v = rng.sample(range(g.n), 2)
            for t in enumerate_trails(g, u, v, max_trails=3000):
                assert (f[u] - f[v]) % t.gcd == 0

    def test_chosen_and_zero_edge_labels_divide_value(self):
        rng = random.Random(31)
        graphs = [helpers.k4_distinct(), helpers.diamond()]
        graphs += [helpers.random_connected_graph(rng, n) for n in (4, 5, 5)]
        for g in graphs:
            for i in range(1, g.n - 1):
                for s in minimal_selections(g, i):
                    for e in s.chosen:
                        assert s.value % g.edges[e].label == 0
                    for k, w in g.neighbors(i):
                        if w < i:
                            assert s.value % g.edges[k].label == 0

    def test_product_set_gcd_is_unit_exhaustive_n4(self):
        # over ALL choices of one selection per eligible vertex, the gcd of
        # the resulting products is one; small enough to enumerate fully
        rng = random.Random(37)
        graphs = [helpers.k4_distinct(),
                  helpers.random_complete_graph(rng, 4),
                  completion(helpers.diamond())]
        for g in graphs:
            per_vertex = []
            for i in range(1, g.n - 1):
                factor_sets = [tf.factors for tf in trail_factor_sets(g, i)]
                per_vertex.append([
                    math.prod(choice) for choice in itertools.product(*factor_sets)
                ] or [1])
            running = 0
            for combo in itertools.product(*per_vertex):
                running = math.gcd(running, math.prod(combo))
            assert running == 1

    def test_product_set_gcd_is_unit_sampled_n5(self, k5):
        # the full product set on five vertices is astronomically large, so
        # sample assignments with a fixed seed; the running gcd is monotone
        # and the assertion only ever concludes gcd == 1
        rng = random.Random(43)
        per_vertex = [
            [tf.factors for tf in trail_factor_sets(k5, i)]
            for i in range(1, k5.n - 1)
        ]
        running = 0
        for _ in range(5000):
            total = 1
            for factor_sets in per_vertex:
                for factors in factor_sets:
                    total *= rng.choice(factors)
            running = math.gcd(running, total)
            if running == 1:
                break
        assert running == 1, "sampled product-set gcd never reached one"
