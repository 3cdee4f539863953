import itertools
import math
import random

import pytest

import helpers
from helpers import enumerate_trails, permute_vertices
from graphsplines import graphs
from graphsplines import (
    ZZ,
    Edge,
    GraphDocumentError,
    LabeledGraph,
    TrailLimitError,
    completion,
    load_graph,
    zero_trails,
)


class TestLoadGraph:
    def test_diamond_document(self, diamond):
        assert diamond.n == 4 and diamond.m == 5
        assert diamond.vertex_names == ("v1", "v2", "v3", "v4")
        assert [e.label for e in diamond.edges] == [5, 4, 6, 2, 9]

    def test_single_edge(self):
        g = helpers.make_graph("int", ["v1", "v2"], [("v1", "v2", 7)])
        assert g.n == 2 and g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphDocumentError, match="self-loop"):
            helpers.make_graph("int", ["v1"], [("v1", "v1", 3)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphDocumentError, match="duplicate"):
            helpers.make_graph("int", ["v1", "v2"],
                               [("v1", "v2", 3), ("v2", "v1", 5)])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(GraphDocumentError, match="unknown vertex"):
            helpers.make_graph("int", ["v1", "v2"], [("v1", "v9", 3)])

    def test_zero_label_rejected(self):
        with pytest.raises(GraphDocumentError, match="zero label"):
            helpers.make_graph("int", ["v1", "v2"], [("v1", "v2", 0)])

    def test_domain_mismatch_rejected(self):
        with pytest.raises(GraphDocumentError):
            helpers.make_graph("int", ["v1", "v2"], [("v1", "v2", "x+1")])

    def test_unknown_domain_rejected(self):
        with pytest.raises(GraphDocumentError, match="unknown domain"):
            load_graph({"domain": "rational", "vertices": ["a"], "edges": []})

    @pytest.mark.parametrize("key", ["domain", "vertices", "edges"])
    def test_missing_key_rejected(self, key):
        doc = {"domain": "int", "vertices": ["a", "b"],
               "edges": [{"u": "a", "v": "b", "label": "2"}]}
        del doc[key]
        with pytest.raises(GraphDocumentError,
                           match=f"^graph document is missing key '{key}'$"):
            load_graph(doc)

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphDocumentError, match="distinct"):
            load_graph({"domain": "int", "vertices": ["a", "a"], "edges": []})

    def test_label_past_the_int_str_digit_limit(self):
        big = "1" + "0" * 4998 + "7"
        g = load_graph(helpers.graph_doc("int", ["a", "b"], [("a", "b", big)]))
        assert g.edges[0].label == 10 ** 4999 + 7

    def test_degree_cap_rejected(self):
        with pytest.raises(GraphDocumentError, match="exponent 20000 "):
            helpers.make_graph("intpoly", ["a", "b"], [("a", "b", "x^20000")])


    def test_equality_and_repr(self, diamond):
        assert diamond == helpers.diamond() and (diamond == 5) is False
        assert repr(diamond) == "LabeledGraph(n=4, m=5, domain=int)"


class TestEdgeIndices:
    @pytest.mark.parametrize("seed", range(5))
    def test_neighbors_in_edge_index_order(self, seed):
        # Edges listed in shuffled document order, each written high vertex
        # first, so neither endpoint order sorts the adjacency by index.
        rng = random.Random(seed)
        names = [f"v{k}" for k in range(8)]
        pairs = [p for p in itertools.combinations(range(8), 2) if rng.random() < 0.5]
        rng.shuffle(pairs)
        g = helpers.make_graph("int", names, [
            (names[v], names[u], rng.randint(1, 30)) for u, v in pairs
        ])
        perm = rng.sample(range(8), 8)
        for h in (g, completion(g), permute_vertices(g, perm)):
            for v in range(h.n):
                assert h.neighbors(v) == [(k, e.u + e.v - v) for k, e in enumerate(h.edges)
                                          if v in (e.u, e.v)]


class TestCompletion:
    def test_diamond_completion(self, diamond):
        k = completion(diamond)
        assert k.is_complete and k.m == 6
        added = k.edges[5]
        assert (added.u, added.v) == (2, 3)
        assert added.label == 1
        assert k.edges[:5] == diamond.edges

    def test_fixed_point(self, k4):
        assert completion(k4) == k4

    def test_idempotent(self, diamond):
        once = completion(diamond)
        assert completion(once) == once

    def test_edgeless(self):
        g = helpers.make_graph("int", ["a", "b", "c"], [])
        k = completion(g)
        assert k.is_complete and all(e.label == 1 for e in k.edges)

    def test_edge_written_high_endpoint_first(self):
        # b-a, c-b, c-a: every edge written high endpoint first.  Pair
        # lookups read the adjacency lists, so endpoint order cannot hide
        # an edge and the completion adds nothing.
        g = LabeledGraph(ZZ, ["a", "b", "c"],
                         [Edge(1, 0, 2), Edge(2, 1, 3), Edge(2, 0, 5)])
        assert helpers.edge_index_between(g, 0, 1) == helpers.edge_index_between(g, 1, 0) == 0
        assert helpers.edge_index_between(g, 1, 2) == helpers.edge_index_between(g, 2, 1) == 1
        k = completion(g)
        assert k.m == 3 and k.is_complete
        assert k == g

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_combinations_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(6):
            n = rng.randint(2, 9)
            g = helpers.random_connected_graph(rng, n, extra_edge_p=rng.random())
            for h in (g, helpers.reverse_endpoints(g, rng)):
                pair = {frozenset((e.u, e.v)): k for k, e in enumerate(h.edges)}
                for u, v in itertools.permutations(range(n), 2):
                    assert helpers.edge_index_between(h, u, v) == pair.get(frozenset((u, v)))
                assert completion(h) == helpers.combinations_completion(h)


class TestEnumerateTrails:
    def test_path_graph(self):
        g = helpers.make_graph("int", ["v1", "v2", "v3"],
                               [("v1", "v2", 2), ("v2", "v3", 3)])
        trails = enumerate_trails(g, 2, 0)
        assert [t.edges for t in trails] == [(1, 0)]
        assert trails[0].vertices == (2, 1, 0)

    def test_isolated_vertices(self):
        g = helpers.make_graph("int", ["a", "b"], [])
        assert enumerate_trails(g, 0, 1) == []

    def test_same_endpoints_rejected(self, diamond):
        with pytest.raises(ValueError):
            enumerate_trails(diamond, 1, 1)

    def test_k4_contains_listed_zero_trails(self, k4):
        found = {t.edges for t in enumerate_trails(k4, 1, 0)}
        # the five reduced zero trails are among all v2-to-v1 trails
        for seq in [(0,), (1, 2), (4, 3), (1, 5, 3), (4, 5, 2)]:
            assert seq in found

    def test_lexicographic_order(self, k4):
        trails = enumerate_trails(k4, 1, 0)
        assert [t.edges for t in trails] == sorted(t.edges for t in trails)

    def test_cap_aborts(self, k4):
        with pytest.raises(TrailLimitError):
            enumerate_trails(k4, 1, 0, max_trails=2)

    def test_counts_match_dp_oracle(self):
        rng = random.Random(7)
        for n in (3, 4, 5):
            g = helpers.random_complete_graph(rng, n)
            expected = helpers.count_trails_dp(g, 1, 0)
            assert len(enumerate_trails(g, 1, 0)) == expected

    def test_complete_graph_lower_bound(self):
        rng = random.Random(11)
        for n in (3, 4, 5, 6):
            g = helpers.random_complete_graph(rng, n)
            assert len(enumerate_trails(g, 0, n - 1)) >= math.factorial(n - 2)

    def test_trail_invariants(self, k4):
        for t in enumerate_trails(k4, 1, 0):
            assert len(t.edges) >= 1
            assert len(set(t.edges)) == len(t.edges)
            assert t.vertices[0] == 1 and t.vertices[-1] == 0
            for k, e in enumerate(t.edges):
                edge = k4.edges[e]
                assert {t.vertices[k], t.vertices[k + 1]} == {edge.u, edge.v}


class TestZeroTrails:
    def test_diamond_v2(self, diamond):
        trails = zero_trails(diamond, 1)
        assert [t.edges for t in trails] == [(0,), (3, 1), (4, 2)]
        assert [t.gcd for t in trails] == [5, 2, 3]

    def test_k4_v2_matches_listed(self, k4):
        assert [t.edges for t in zero_trails(k4, 1)] == \
            [(0,), (1, 2), (1, 5, 3), (4, 3), (4, 5, 2)]

    def test_star_center(self):
        g = helpers.make_graph("int", ["leaf", "center", "other"],
                               [("center", "leaf", 6), ("center", "other", 10)])
        trails = zero_trails(g, 1)
        assert [t.edges for t in trails] == [(0,)]

    def test_first_vertex_rejected(self, diamond):
        with pytest.raises(ValueError):
            zero_trails(diamond, 0)

    def test_vertex_past_the_last_rejected(self, diamond):
        with pytest.raises(ValueError, match="^vertex index 4 out of range$"):
            zero_trails(diamond, 4)

    def test_completion_trail_cap_counts_the_zero_trails(self):
        # The cap check on the completion, which it does not build, allows
        # exactly the number of zero trails zero_trails lists there.
        rng = random.Random(5)
        for n in range(2, 8):
            g = helpers.random_connected_graph(rng, n, extra_edge_p=0.2)
            k = completion(g)
            for i in range(1, n):
                count = len(zero_trails(k, i))
                graphs.check_completion_trail_cap(g, i, count)
                with pytest.raises(TrailLimitError, match=f"more than {count - 1} zero"):
                    graphs.check_completion_trail_cap(g, i, count - 1)
                with pytest.raises(TrailLimitError, match=f"more than {count - 1} zero"):
                    zero_trails(k, i, count - 1)

    def test_complete_graph_cap_checked_before_the_walk(self, monkeypatch):
        # K13 has about 1.1e8 zero trails at its second vertex: the count on
        # a complete graph is known, so the cap stops the call before any
        # step.
        g = completion(helpers.make_graph("int", [f"v{k}" for k in range(13)], []))

        def refuse(v):
            raise AssertionError("the walk started")

        monkeypatch.setattr(g, "neighbors", refuse)
        with pytest.raises(TrailLimitError, match="^vertex v1 has more than 1000000 zero"):
            zero_trails(g, 1)

    def test_antichain(self, k5):
        for i in range(1, k5.n):
            sets = [frozenset(t.edges) for t in zero_trails(k5, i)]
            assert len(set(sets)) == len(sets)
            for a in sets:
                for b in sets:
                    assert not a < b

    def test_matches_bruteforce_pruning(self):
        rng = random.Random(23)
        graphs = [helpers.diamond(), helpers.k4_distinct(), helpers.k5_distinct(),
                  helpers.poly_cycle()]
        graphs += [helpers.random_connected_graph(rng, n) for n in (3, 4, 5, 5)]
        # The same shapes over ZZX, with labels that share factors.
        pool = ["x", "x+1", "2*x", "x^2+x", "x^2-1", "3", "-1"]
        for n in (3, 4, 5, 5, 6):
            shape = helpers.random_connected_graph(rng, n)
            names = shape.vertex_names
            graphs.append(helpers.make_graph("intpoly", names, [
                (names[e.u], names[e.v], rng.choice(pool)) for e in shape.edges
            ]))
        for g in graphs:
            for i in range(1, g.n):
                trails = zero_trails(g, i)
                assert [t.edges for t in trails] == helpers.brute_zero_trails(g, i)
                # the walk's preorder is already sorted, and the prefix gcd
                # it carries is the gcd of the trail's labels
                assert trails == sorted(trails, key=lambda t: t.edges)
                assert all(t.gcd == g.domain.gcd_all(g.edges[k].label for k in t.edges)
                           for t in trails)
                # a zero trail leaves i and stops at the first earlier vertex
                assert all(t.vertices[0] == i and t.vertices[-1] < i for t in trails)

    def test_top_vertex_only_zero_edges(self, k5):
        assert all(len(t.edges) == 1 for t in zero_trails(k5, k5.n - 1))


class TestPermuteVertices:
    def test_identity(self, diamond):
        assert permute_vertices(diamond, [0, 1, 2, 3]) == diamond

    def test_swap_relabels_edges(self, diamond):
        g = permute_vertices(diamond, [0, 1, 3, 2])
        # the label-2 edge v2-v3 now joins v2 and the vertex at position 3
        e = next(e for e in g.edges if e.label == 2)
        assert (e.u, e.v) == (1, 3)
        assert g.vertex_names == ("v1", "v2", "v4", "v3")

    def test_reverse_path(self):
        g = helpers.make_graph("int", ["a", "b", "c"],
                               [("a", "b", 2), ("b", "c", 3)])
        r = permute_vertices(g, [2, 1, 0])
        assert r.vertex_names == ("c", "b", "a")
        assert [(e.u, e.v, e.label) for e in r.edges] == [(1, 2, 2), (0, 1, 3)]

    def test_non_bijection_rejected(self, diamond):
        with pytest.raises(ValueError):
            permute_vertices(diamond, [0, 0, 1, 2])
