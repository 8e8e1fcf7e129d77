"""Graph and PLG foundations: canonical forms, stringency, enumeration, format."""

import gc
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from homdens import graphs
from homdens.algebra import _stripped, format_quantum, glue, ind_product, ind_terms, parse_quantum
from homdens.errors import CapExceeded, FormatError
from homdens.graphs import (
    PLG,
    Graph,
    canonical_form,
    clique_blowup,
    enumerate_graphs,
    format_plg,
    independent_blowup,
    parse_plg,
    parse_rational,
    stringent_graph,
)
from conftest import counterexample
from oracles import (
    brute_automorphisms,
    brute_graph_classes,
    _ref_components,
    _ref_encode,
    brute_isomorphic,
    full_refine,
    homogeneous_sets,
    is_isomorphic_labeled,
    is_stringent,
    relabeled_vertices,
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
    return relabeled_vertices(plg, perm)


class TestGraphBasics:
    def test_edge_normalization(self):
        g = Graph(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)})
        assert g.adj[2] >> 0 & 1 and g.adj[0] >> 2 & 1
        assert not g.adj[0] >> 1 & 1

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            Graph(-1)
        with pytest.raises(ValueError, match="cycle needs at least 3 vertices"):
            Graph.cycle(2)

    def test_constructors(self):
        assert len(Graph.complete(5).edges) == 10
        assert len(Graph.path(4).edges) == 3
        assert len(Graph.cycle(5).edges) == 5
        assert Graph.cycle(3) == Graph.complete(3)

    def test_induced(self):
        g = Graph.path(4)
        sub = g.induced([1, 2, 3])
        assert sub == Graph.path(3)

    def test_induced_rejects_repeated_or_missing_vertices(self):
        g = Graph.path(4)
        for vertices in ([1, 1], [0, 4], [2, -1]):
            with pytest.raises(ValueError):
                g.induced(vertices)

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
                relabeled_vertices(plg, perm)

    def test_relabel_matches_the_constructors(self):
        """The package's image under a trusted permutation, built without
        the checks, has the rows the validating constructor builds, and
        the form `_form_parts` gives is the input's image under its
        certificate, rows and labels alike."""
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(0, 9)
            plg = random_plg(rng, n, label_count=rng.randint(0, n))
            perm = list(range(n))
            rng.shuffle(perm)
            got = graphs._moved_rows(plg.graph.adj, tuple(perm))
            assert got == Graph(n, [(perm[u], perm[v]) for u, v in plg.graph.edges]).adj
            adj, labels, cert = graphs._form_parts(plg.graph.adj, plg.labels)
            g = Graph(n, [(cert[u], cert[v]) for u, v in plg.graph.edges])
            want = PLG(g, [(lab, cert[v]) for lab, v in plg.labels])
            assert adj == want.graph.adj
            assert labels == want.labels

    def test_row_built_graphs_match_the_validating_constructor(self):
        """Every route that builds a graph from trusted rows gives the graph
        that `Graph(n, edges)` builds from its edge view, under ==, hash,
        the edge view and the record; the edge view is also checked
        against the edges each route should make."""
        rng = random.Random(47)

        def check(got, edges):
            want = Graph(got.n, sorted(edges))
            assert got == want and hash(got) == hash(want)
            assert got.adj == want.adj and got.edges == want.edges == frozenset(edges)
            assert format_plg(got) == format_plg(want)

        def pair(u, v):
            return (u, v) if u < v else (v, u)

        assert Graph.__slots__ == ("n", "adj")
        for n in range(6):
            for g in enumerate_graphs(n):
                check(g, g.edges)
                k = rng.randint(0, n)
                labeled = PLG(g, zip(rng.sample(range(1, 9), k), rng.sample(range(n), k)))
                perm = rng.sample(range(n), n)
                moved = Graph._of_rows(graphs._moved_rows(labeled.graph.adj, perm))
                check(moved, {pair(perm[u], perm[v]) for u, v in g.edges})
                vs = rng.sample(range(n), rng.randint(0, n))
                check(g.induced(vs), {pair(i, j) for i, j in combinations(range(len(vs)), 2)
                                      if g.adj[vs[i]] >> vs[j] & 1})
                stripped = Graph._of_rows(_stripped(labeled.graph.adj, labeled.labels)[0])
                check(stripped, stripped.edges)
                m = rng.randint(0, 4)
                other = random_plg(rng, m, label_count=rng.randint(0, min(2, m)))
                glued = glue(labeled, other)
                at = labeled.label_map()
                spot = {v: at[lab] for lab, v in other.labels if lab in at}
                fresh = iter(range(n, glued.n))
                where = [spot[v] if v in spot else next(fresh) for v in range(other.n)]
                check(glued.graph, g.edges | {pair(where[u], where[v]) for u, v in other.graph.edges})
                counts = [rng.randint(1, 3) for _ in range(n)]
                starts = [sum(counts[:v]) for v in range(n)]
                copies = [range(s, s + c) for s, c in zip(starts, counts)]
                across = {pair(i, j) for u, v in g.edges for i in copies[u] for j in copies[v]}
                check(independent_blowup(g, counts), across)
                within = {p for c in copies for p in combinations(c, 2)}
                check(clique_blowup(g, counts), across | within)
                for (adj, labels), _ in ind_terms(labeled, (0,) * n):
                    raw = Graph._of_rows(adj)
                    check(raw, raw.edges)
                    assert g.edges <= raw.edges and labels == labeled.labels
                free = frozenset(rng.sample(list(combinations(range(n), 2)), min(2, n * (n - 1) // 2)))
                product = ind_product((labeled, Graph(n, free).adj), (other, (0,) * other.n))
                if product is not None:
                    check(product[0].graph, product[0].graph.edges)
        with pytest.raises(AttributeError):
            g.edges = frozenset()

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
            assert relabeled_vertices(plg, cert) == canon

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

    def test_drop_last_refinement_matches_full_refinement(self, monkeypatch):
        """Leaving each split's last piece out of the fresh cells gives the
        certificate that counting against every piece gives: on every
        labeling by 0-2 labels of every graph with at most 6 vertices, and
        on seeded random graphs with 7-12 vertices and 0-3 labels."""
        inputs = []
        for n in range(7):
            labelings = [()] + [((1, v),) for v in range(n)]
            labelings += [((1, u), (2, v)) for u in range(n) for v in range(n) if u != v]
            inputs += [(g.adj, labels) for g in enumerate_graphs(n) for labels in labelings]
        rng = random.Random(43)
        for _ in range(2000):
            n = rng.randint(7, 12)
            p = rng.choice((0.2, 0.5, 0.8))
            adj = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]).adj
            verts = rng.sample(range(n), rng.randint(0, 3))
            inputs.append((adj, tuple((lab, v) for lab, v in enumerate(verts, start=1))))
        want = [graphs._certificate(adj, labels) for adj, labels in inputs]
        monkeypatch.setattr(graphs, "_refine", full_refine)
        assert [graphs._certificate(adj, labels) for adj, labels in inputs] == want

    def test_matches_round_based_reference(self, monkeypatch):
        """Refining against the changed cells only picks the representative
        that counting against every cell picked, on connected and
        disconnected PLGs alike.  Vertex-transitive graphs refine to no
        split at all, so their searches reach many leaves and the lazily
        encoded comparison between leaves decides the answer."""
        rng = random.Random(29)
        disconnected = 0
        for _ in range(3000):
            n = rng.randint(0, 10)
            p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.9))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            verts = rng.sample(range(n), rng.randint(0, min(3, n)))
            labels = sorted(rng.sample(range(1, 6), len(verts)))
            plg = PLG(Graph(n, edges), list(zip(labels, verts)))
            disconnected += len(_ref_components(plg.graph)) > 1
            assert canonical_form(plg) == round_based_canonical_form(plg), plg
        assert disconnected > 500

        encodings = []
        encode = graphs._encode

        def counting(adj, order):
            encodings.append(order)
            return encode(adj, order)

        monkeypatch.setattr(graphs, "_encode", counting)
        petersen = [(i, (i + 1) % 5) for i in range(5)]
        petersen += [(i + 5, (i + 2) % 5 + 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
        transitive = [Graph.cycle(n) for n in range(5, 10)] + [
            Graph(6, [(u, v) for u in range(3) for v in range(3, 6)]),
            Graph(8, [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1]),
            Graph(10, petersen),
        ]
        for g in transitive:
            for count in range(3):
                for _ in range(3):
                    plg = shuffled_copy(rng, PLG(g, [(lab, v) for v, lab in enumerate((2, 5)[:count])]))
                    assert canonical_form(plg) == round_based_canonical_form(plg), plg
        assert len(encodings) > 500

        # 3·K2 ∪ 2·P3 ∪ C4: unlabeled components that tie, and labels on
        # two components, outside a form table and twice inside one.
        union = Graph(16, [(0, 1), (2, 3), (4, 5), (6, 7), (7, 8), (9, 10), (10, 11)]
                      + [(12, 13), (13, 14), (14, 15), (12, 15)])
        ties = [
            shuffled_copy(rng, PLG(union, labels))
            for labels in ({}, {1: 0}, {1: 6, 3: 13}, {2: 1, 5: 7}, {4: 9, 1: 3}, {1: 0, 2: 8, 6: 12})
            for _ in range(4)
        ]
        want = [round_based_canonical_form(plg) for plg in ties]
        assert [canonical_form(PLG(plg.graph, plg.labels)) for plg in ties] == want
        with graphs.form_table():
            for _ in range(2):
                assert [canonical_form(PLG(plg.graph, plg.labels)) for plg in ties] == want

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

    def test_input_with_identity_certificate_is_its_own_form(self, canonical_calls):
        """A PLG built afresh from a canonical form's graph and labels is
        returned itself, with the identity certificate, on the refinement
        route (with and without labels) and on the per-component route, as
        on the O(n) route; it is flagged, so `.canonical()` makes no call."""
        two_triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        connected = [
            PLG(Graph.path(5)),
            PLG(Graph.cycle(6), [(3, 2)]),
            PLG(stringent_graph(7), [(4, 6), (9, 1)]),
        ]
        disconnected = [
            PLG(Graph(8, two_triangles + [(6, 7)])),
            PLG(Graph(8, two_triangles + [(6, 7)]), [(3, 4)]),
        ]
        for plg in connected + disconnected:
            form = canonical_form(plg)[0]
            fresh = PLG(form.graph, form.labels)
            assert fresh._canon is None and fresh.n - len(fresh.labels) > 1
            assert (len(_ref_components(fresh.graph)) > 1) == (plg in disconnected)
            got, cert = canonical_form(fresh)
            assert got is fresh and cert == tuple(range(fresh.n))
            del canonical_calls[:]
            assert fresh.canonical() is fresh
            assert canonical_calls == []

    def test_labeling_leaves_no_cyclic_garbage(self):
        """With the collector off, labeling frees everything by reference
        counting: parsing the counterexample's text, 1000 labelings of C6
        and a labeled disconnected input leave no cycle to collect."""
        text = format_quantum(counterexample())
        union = Graph(11, [(0, 1), (2, 3), (4, 5), (6, 7), (7, 8), (9, 10)])
        gc.collect()
        gc.disable()
        try:
            parse_quantum(text)
            assert gc.collect() == 0
            for _ in range(1000):
                canonical_form(PLG(Graph.cycle(6)))
            assert gc.collect() == 0
            canonical_form(PLG(union, {1: 7, 2: 2}))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_form_table_gives_the_unscoped_forms(self, monkeypatch):
        """Inside a `form_table` scope, the first and a repeated call on a
        fresh copy of each input give the form (rows and labels) and the
        certificate of a call outside any scope, on every labeling by 0-2
        labels of every graph with at most 5 vertices and on 3·K2 ∪ P3,
        unlabeled and labeled; an identity-certificate input is returned
        itself, flagged.  The repeated pass runs with a search cap of 0 nodes,
        so every search-route input, each component included, comes from
        the table."""
        plgs = []
        for n in range(6):
            for g in enumerate_graphs(n) if n else [Graph(0)]:
                for k in range(min(n, 2) + 1):
                    for vertices in permutations(range(n), k):
                        plgs.append(PLG(g, {i + 1: v for i, v in enumerate(vertices)}))
        union = Graph(9, [(0, 1), (2, 3), (4, 5), (6, 7), (7, 8)])
        plgs += [PLG(union), PLG(union, {1: 7}), PLG(union, {1: 2, 2: 8})]

        def fresh():
            return [PLG(plg.graph, plg.labels) for plg in plgs]

        def results(inputs):
            for plg in inputs:
                form, cert = canonical_form(plg)
                assert form._canon is True
                assert (form is plg) == (cert == tuple(range(plg.n)))
                yield form.graph.adj, form.labels, cert

        want = list(results(fresh()))
        assert graphs._FORMS is None
        with graphs.form_table():
            assert list(results(fresh())) == want
            entries = len(graphs._FORMS)
            monkeypatch.setattr(graphs, "CANONICAL_NODE_CAP", 0)
            assert list(results(fresh())) == want
            assert len(graphs._FORMS) == entries > 0
        assert graphs._FORMS is None

    def test_refused_search_leaves_no_table_entry(self, monkeypatch):
        """A search past the node cap raises inside a scope and records
        nothing; with the cap restored the same input is searched."""
        plg = PLG(Graph.cycle(6))
        want = canonical_form(plg)
        with graphs.form_table():
            monkeypatch.setattr(graphs, "CANONICAL_NODE_CAP", 0)
            with pytest.raises(CapExceeded):
                canonical_form(PLG(plg.graph))
            assert graphs._FORMS == {}
            monkeypatch.undo()
            assert canonical_form(PLG(plg.graph)) == want
            assert list(graphs._FORMS.values()) == [want[1]]
        assert graphs._FORMS is None

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
                disconnected += len(_ref_components(g)) > 1
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
    """The brute-force automorphism lists that the stringency oracle reads."""

    def test_counts_on_named_graphs(self):
        assert len(brute_automorphisms(Graph.complete(3))) == 6
        assert len(brute_automorphisms(Graph.path(3))) == 2
        assert len(brute_automorphisms(Graph.cycle(4))) == 8
        assert len(brute_automorphisms(Graph(3))) == 6

    def test_identity_always_present(self):
        g = Graph.path(4)
        assert brute_automorphisms(g)[0] == tuple(range(4))

    def test_labels_pin_vertices(self):
        g = Graph.complete(3)
        assert len(brute_automorphisms(PLG(g, [(1, 0)]))) == 2
        assert len(brute_automorphisms(PLG(g, [(1, 0), (2, 1)]))) == 1


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
        assert [row.bit_count() for row in g.adj] == [2, 3, 4, 2, 2, 3]

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

    def test_item_errors_name_the_bad_item(self):
        # A vertex text missing from the lookup table falls back to `int`,
        # and every error keeps its text and line number.
        for bad, message in [
            ("edges=1-2;3", "bad edge item '3'"),
            ("edges=1;2-3-4", "bad edge item '1'"),
            ("edges=1-2;;2-3", "bad edge item ''"),
            ("edges=1-2-3", "bad vertex '2-3'"),
            ("edges=-1-2", "bad vertex ''"),
            ("edges=1-x", "bad vertex 'x'"),
            ("edges=0-1", "edge (-1,0) out of range for n=3"),
            ("edges=1-1", "loop at vertex 0"),
            ("labels=a:1", "bad label 'a'"),
            ("labels=1:b", "bad vertex 'b'"),
            ("labels=1:1,2", "bad label item '2'"),
            ("labels=1:0", "label 1 on missing vertex -1"),
        ]:
            with pytest.raises(FormatError) as info:
                parse_plg("plg n=3 " + bad, line=7)
            assert str(info.value) == f"{message} (line 7)"
            assert info.value.line == 7

    def test_integers_read_as_int_reads_them(self):
        plg = parse_plg("plg n=3 labels=+2:03 edges=01-2;2-3;2-1")
        assert plg.labels == ((2, 2),)
        assert plg.graph.edges == frozenset({(0, 1), (1, 2)})

    def test_rationals_take_no_exponent(self):
        for text, value in [("3", 3), ("-2/4", Fraction(-1, 2)), ("0.25", Fraction(1, 4)), ("+.5", Fraction(1, 2))]:
            assert parse_rational(text, "rational") == value
        for text in ("1e3", "1E3", "2.5e-1", "1/0", "x", ""):
            with pytest.raises(FormatError) as info:
                parse_rational(text, "weight", line=4)
            assert str(info.value) == f"bad weight {text!r} (line 4)"

    def test_error_carries_line(self):
        with pytest.raises(FormatError) as info:
            parse_plg("plg n=oops", line=12)
        assert info.value.line == 12
        assert "line 12" in str(info.value)
