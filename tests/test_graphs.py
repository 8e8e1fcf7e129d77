"""Graph and PLG foundations: canonical forms, stringency, enumeration, format."""

import random
from itertools import combinations

import pytest

from homdens import graphs
from homdens.errors import CapExceeded, FormatError
from homdens.graphs import (
    PLG,
    Graph,
    automorphisms,
    canonical_form,
    clique_blowup,
    enumerate_graphs,
    format_plg,
    homogeneous_sets,
    independent_blowup,
    is_isomorphic_labeled,
    is_stringent,
    parse_plg,
    stringent_graph,
)
from oracles import (
    brute_automorphisms,
    brute_graph_classes,
    _ref_encode,
    brute_isomorphic,
    round_based_canonical_form,
)


def random_plg(rng, n, label_count=0):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    g = Graph(n, edges)
    verts = rng.sample(range(n), label_count)
    labels = [(i + 1, v) for i, v in enumerate(verts)]
    return PLG(g, labels)


def shuffled_copy(rng, plg):
    perm = list(range(plg.n))
    rng.shuffle(perm)
    return plg.relabeled_vertices(perm)


class TestGraphBasics:
    def test_edge_normalization(self):
        g = Graph(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)})
        assert g.has_edge(2, 0) and g.has_edge(0, 2)
        assert not g.has_edge(0, 1)

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_constructors(self):
        assert len(Graph.complete(5).edges) == 10
        assert len(Graph.path(4).edges) == 3
        assert len(Graph.cycle(5).edges) == 5
        assert Graph.cycle(3) == Graph.complete(3)

    def test_induced(self):
        g = Graph.path(4)
        sub = g.induced([1, 2, 3])
        assert sub == Graph.path(3)

    def test_plg_validation(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            PLG(g, [(1, 0), (1, 2)])  # duplicate label
        with pytest.raises(ValueError):
            PLG(g, [(1, 0), (2, 0)])  # vertex labeled twice
        with pytest.raises(ValueError):
            PLG(g, [(0, 1)])  # labels are positive

    def test_relabel_rejects_non_permutations(self):
        plg = PLG(Graph(3, [(0, 2), (1, 2)]), [(1, 0)])
        for perm in ([0, 0, 2], [0, 1, 3], [0, -1, 2], [0, 1], [0, 1, 2, 3]):
            with pytest.raises(ValueError):
                plg.relabeled_vertices(perm)

    def test_relabel_matches_the_constructors(self):
        """The directly built image equals the one the validating
        constructors build, edges, rows and labels alike."""
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(0, 9)
            plg = random_plg(rng, n, label_count=rng.randint(0, n))
            perm = list(range(n))
            rng.shuffle(perm)
            got = plg.relabeled_vertices(tuple(perm))
            g = Graph(n, [(perm[u], perm[v]) for u, v in plg.graph.edges])
            want = PLG(g, [(lab, perm[v]) for lab, v in plg.labels])
            assert got == want
            assert got.graph.adj == g.adj
            assert got.labels == want.labels
            assert got._canon is None

    def test_encode_matches_reference(self):
        rng = random.Random(43)
        for _ in range(500):
            n = rng.randint(0, 12)
            adj = random_plg(rng, n).graph.adj
            order = list(range(n))
            rng.shuffle(order)
            assert graphs._encode(adj, order) == _ref_encode(adj, order)
            assert graphs._encode(adj, range(n)) == _ref_encode(adj, range(n))


class TestCanonicalForm:
    def test_certificate_is_the_relabeling(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(0, 6)
            plg = random_plg(rng, n, label_count=rng.randint(0, min(2, n)))
            canon, cert = canonical_form(plg)
            assert plg.relabeled_vertices(cert) == canon

    def test_invariant_under_relabeling(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 7)
            plg = random_plg(rng, n, label_count=rng.randint(0, min(2, n)))
            other = shuffled_copy(rng, plg)
            assert canonical_form(plg)[0] == canonical_form(other)[0]

    def test_idempotent(self):
        rng = random.Random(13)
        for _ in range(50):
            plg = random_plg(rng, rng.randint(1, 6))
            c = canonical_form(plg)[0]
            assert canonical_form(c)[0] == c

    def test_matches_round_based_reference(self):
        """Refining against the changed cells only picks the representative
        that counting against every cell picked, on connected and
        disconnected PLGs alike."""
        rng = random.Random(29)
        disconnected = 0
        for _ in range(3000):
            n = rng.randint(0, 10)
            p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.9))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            verts = rng.sample(range(n), rng.randint(0, min(3, n)))
            labels = sorted(rng.sample(range(1, 6), len(verts)))
            plg = PLG(Graph(n, edges), list(zip(labels, verts)))
            disconnected += len(graphs._components(plg.graph)) > 1
            assert canonical_form(plg) == round_based_canonical_form(plg), plg
        assert disconnected > 500

    def test_enumerated_graphs_match_round_based_reference(self):
        rng = random.Random(31)
        for g in enumerate_graphs(6):
            plg = shuffled_copy(rng, PLG(g))
            assert canonical_form(plg)[1] == round_based_canonical_form(plg)[1]

    def test_canonical_form_is_its_own(self, canonical_calls):
        rng = random.Random(37)
        plgs = [PLG(Graph(0)), PLG(Graph(5, [(0, 1), (2, 3)]), [(2, 4)])]
        for _ in range(50):
            n = rng.randint(1, 7)
            plgs.append(random_plg(rng, n, label_count=rng.randint(0, min(2, n))))
        forms = [canonical_form(plg)[0] for plg in plgs]
        del canonical_calls[:]
        assert all(c.canonical() is c for c in forms)
        assert canonical_calls == []
        assert [plg.canonical() for plg in plgs] == forms

    def test_labels_fix_the_order(self):
        """With at most one vertex unlabeled, the O(n) route gives the
        search route's form and certificate.  Every such PLG with at most 5
        vertices is covered, in two vertex orders: every edge set, labels
        from a pool with gaps on the first vertices in rank order, and again
        on the last vertices in reverse order."""
        pool = (2, 5, 7, 11, 13)
        disconnected = 0
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
                disconnected += len(graphs._components(g)) > 1
                for count in {n, max(n - 1, 0)}:
                    for labels in combinations(pool, count):
                        for verts in (range(count), range(n - 1, n - 1 - count, -1)):
                            plg = PLG(g, list(zip(labels, verts)))
                            assert canonical_form(plg) == round_based_canonical_form(plg), plg
        assert disconnected == 327  # of the 1100 edge sets, 0 + 0 + 1 + 4 + 26 + 296

    def test_input_in_rank_order_is_its_own_form(self):
        g = Graph(4, [(0, 3), (1, 2)])
        for labels in ([(2, 0), (7, 1), (13, 2)], [(2, 0), (5, 1), (7, 2), (11, 3)]):
            c = PLG(g, labels)
            assert canonical_form(c) == (c, (0, 1, 2, 3))
            assert canonical_form(c)[0] is c
            fresh = PLG(g, labels)
            assert fresh.canonical() is fresh
        moved = PLG(g, [(7, 0), (2, 1), (13, 2)])
        form, cert = canonical_form(moved)
        assert form is not moved and cert == (1, 0, 2, 3)
        assert form.canonical() is form

    def test_labeled_vertices_come_first(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        plg = PLG(g, [(2, 3), (5, 1)])
        c = canonical_form(plg)[0]
        assert c.labels == ((2, 0), (5, 1))

    def test_distinguishes_nonisomorphic(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        path = Graph.path(4)
        assert canonical_form(star)[0] != canonical_form(path)[0]

    def test_labels_matter(self):
        g = Graph.path(3)  # middle vertex 1 has degree 2
        end = PLG(g, [(1, 0)])
        mid = PLG(g, [(1, 1)])
        assert not is_isomorphic_labeled(end, mid)
        other_end = PLG(g, [(1, 2)])
        assert is_isomorphic_labeled(end, other_end)

    def test_agrees_with_brute_force(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 5)
            a = random_plg(rng, n, label_count=rng.randint(0, min(2, n)))
            b = shuffled_copy(rng, a)
            if rng.random() < 0.5 and a.graph.edges:
                # knock out one edge so roughly half the pairs differ
                u, v = sorted(a.graph.edges)[0]
                b = PLG(
                    Graph(b.graph.n, set(b.graph.edges) - {tuple(sorted((u, v)))}),
                    b.labels,
                )
            assert is_isomorphic_labeled(a, b) == brute_isomorphic(a, b)


class TestAutomorphisms:
    def test_counts_on_named_graphs(self):
        assert len(automorphisms(Graph.complete(3))) == 6
        assert len(automorphisms(Graph.path(3))) == 2
        assert len(automorphisms(Graph.cycle(4))) == 8
        assert len(automorphisms(Graph(3))) == 6

    def test_identity_always_present(self):
        g = Graph.path(4)
        assert tuple(range(4)) in automorphisms(g)

    def test_labels_pin_vertices(self):
        g = Graph.complete(3)
        assert len(automorphisms(PLG(g, [(1, 0)]))) == 2
        assert len(automorphisms(PLG(g, [(1, 0), (2, 1)]))) == 1

    def test_matches_brute_force(self):
        rng = random.Random(19)
        for _ in range(80):
            n = rng.randint(0, 6)
            plg = random_plg(rng, n, label_count=rng.randint(0, min(2, n)))
            assert automorphisms(plg) == brute_automorphisms(plg)
        for n in range(3, 7):
            for g in (Graph(n), Graph.complete(n), Graph.cycle(n), Graph.path(n)):
                for labels in ([], [(1, 0)], [(1, 0), (2, 2)]):
                    plg = PLG(g, labels)
                    assert automorphisms(plg) == brute_automorphisms(plg)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            automorphisms(Graph(11))


class TestHomogeneousAndStringent:
    def test_complete_graph_all_homogeneous(self):
        # In K3 every 2-subset has equal outside neighborhoods.
        found = homogeneous_sets(Graph.complete(3))
        assert found == [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]

    def test_edgeless_graph_all_homogeneous(self):
        assert len(homogeneous_sets(Graph(3))) == 3

    def test_path4_has_none(self):
        assert homogeneous_sets(Graph.path(4)) == []

    def test_path3_endpoints_homogeneous(self):
        # In the path a-b-c only the endpoints share their outside neighborhood {b}.
        assert homogeneous_sets(Graph.path(3)) == [frozenset({0, 2})]

    def test_stringent_graph_construction(self):
        g = stringent_graph(6)
        expected = {(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)}
        assert g.edges == frozenset(expected)
        assert [g.degree(v) for v in range(6)] == [2, 3, 4, 2, 2, 3]

    def test_stringent_graphs_are_stringent(self):
        for k in range(6, 10):
            g = stringent_graph(k)
            assert is_stringent(g), f"k={k}"

    def test_stringent_rejects_small(self):
        with pytest.raises(ValueError):
            stringent_graph(5)

    def test_small_graphs_not_stringent(self):
        # Every graph on 2..5 vertices has a homogeneous set or a symmetry.
        for n in range(2, 6):
            for g in enumerate_graphs(n):
                assert not is_stringent(g)


class TestBlowups:
    def test_independent_blowup_of_edge(self):
        c4 = independent_blowup(Graph(2, [(0, 1)]), (2, 2))
        assert is_isomorphic_labeled(c4, Graph.cycle(4))

    def test_clique_blowup_of_edge(self):
        k3 = clique_blowup(Graph(2, [(0, 1)]), (2, 1))
        assert is_isomorphic_labeled(k3, Graph.complete(3))

    def test_unit_counts_do_nothing(self):
        g = Graph.path(4)
        assert independent_blowup(g, (1, 1, 1, 1)) == g
        assert clique_blowup(g, (1, 1, 1, 1)) == g

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            independent_blowup(Graph(2), (1,))
        with pytest.raises(ValueError):
            clique_blowup(Graph(2), (0, 1))

    def test_vertex_cap(self):
        k2 = Graph(2, [(0, 1)])
        assert independent_blowup(k2, (graphs.VERTEX_CAP - 1, 1)).n == graphs.VERTEX_CAP
        for build in (
            lambda: stringent_graph(graphs.VERTEX_CAP + 1),
            lambda: clique_blowup(k2, (graphs.VERTEX_CAP, 1)),
            lambda: independent_blowup(k2, (10**12, 1)),
        ):
            with pytest.raises(CapExceeded):
                build()


class TestEnumeration:
    def test_counts_up_to_six(self):
        for n, expected in [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)]:
            assert len(enumerate_graphs(n)) == expected

    def test_counts_seven(self):
        assert len(enumerate_graphs(7)) == 1044

    def test_classes_match_brute_force(self):
        for n in range(5):
            ours = enumerate_graphs(n)
            brute = brute_graph_classes(n)
            assert len(ours) == len(brute)
            for g in ours:
                assert any(brute_isomorphic(g, h) for h in brute)

    def test_representatives_are_canonical_and_distinct(self):
        graphs = enumerate_graphs(5)
        assert len(set(graphs)) == len(graphs)
        for g in graphs:
            assert PLG(g).canonical().graph == g

    def test_memoized_per_process(self, canonical_calls):
        first = enumerate_graphs(6)
        del canonical_calls[:]
        second = enumerate_graphs(6)
        assert canonical_calls == []
        assert second == first
        assert isinstance(second, tuple)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_graphs(8)


class TestPlgFormat:
    def test_format_examples(self):
        k2 = PLG(Graph(2, [(0, 1)]), [(1, 0)])
        assert format_plg(k2) == "plg n=2 labels=1:1 edges=1-2"
        assert format_plg(Graph(3)) == "plg n=3"

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(0, 6)
            plg = random_plg(rng, n, label_count=rng.randint(0, min(3, n)))
            text = format_plg(plg.canonical())
            back = parse_plg(text)
            assert is_isomorphic_labeled(plg, back)
            assert format_plg(back) == text

    def test_parse_is_exact_when_not_canonicalized(self):
        text = "plg n=3 labels=2:3 edges=1-2;2-3"
        plg = parse_plg(text)
        assert plg.graph.edges == frozenset({(0, 1), (1, 2)})
        assert plg.labels == ((2, 2),)

    def test_errors(self):
        for bad in [
            "graph n=2",
            "plg",
            "plg n=two",
            "plg n=2 edges=1-3",
            "plg n=2 labels=1:1,1:2",
            "plg n=2 edges=1;2",
            "plg n=2 labels=1",
            "plg n=2 n=3",
            "plg n=2 bogus=1",
        ]:
            with pytest.raises(FormatError):
                parse_plg(bad)

    def test_error_carries_line(self):
        with pytest.raises(FormatError) as info:
            parse_plg("plg n=oops", line=12)
        assert info.value.line == 12
        assert "line 12" in str(info.value)
