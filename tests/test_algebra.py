"""Quantum-graph algebra: gluing, normal forms, ind, QExpr."""

import random
import time
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations

import pytest

from homdens.algebra import (
    QEXPR_DEPTH_CAP,
    Atom,
    Const,
    IndAtom,
    PolyImage,
    Product,
    QuantumGraph,
    Sum,
    Unlabel,
    _as_qexpr,
    expand,
    format_qexpr,
    format_quantum,
    glue,
    ind,
    ind_product,
    ind_terms,
    parse_qexpr,
    parse_quantum,
    product,
    read_terms,
    unlabel,
)
from homdens.certificates import verify_sos
from homdens.errors import BudgetExceeded, FormatError
from homdens.graphs import PLG, Graph, canonical_form, enumerate_graphs, parse_plg
from homdens.polynomials import Polynomial

from homdens import algebra
from oracles import (
    brute_glue,
    brute_ind_product_form,
    brute_normal_form,
    brute_strip,
    ind_sum,
    is_isomorphic_labeled,
    labeled_core,
)
from test_density import _random_expr

K2 = Graph(2, [(0, 1)])
P3 = Graph.path(3)


def edge(*labels):
    return PLG(K2, [(lab, i) for i, lab in enumerate(labels) if lab])


def plgs_with_labels(max_n, label_count):
    """One representative per PLG class: graphs up to max_n vertices with
    labels 1..label_count placed on distinct vertices."""
    from itertools import permutations

    out = {}
    for n in range(max(label_count, 1), max_n + 1):
        for g in enumerate_graphs(n):
            for verts in permutations(range(n), label_count):
                plg = PLG(g, [(i + 1, v) for i, v in enumerate(verts)])
                out.setdefault(plg.canonical(), None)
    return list(out)


def random_quantum(rng, max_terms=3, max_n=3, labels=(1, 2)):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        n = rng.randint(1, max_n)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        k = rng.randint(0, min(len(labels), n))
        verts = rng.sample(range(n), k)
        plg = PLG(Graph(n, edges), [(labels[i], v) for i, v in enumerate(verts)])
        terms.append((plg, Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
    return QuantumGraph(terms)


class TestGluing:
    def test_half_labeled_edge_squared_is_cherry(self):
        e = edge(1, None)
        sq = glue(e, e)
        cherry = PLG(P3, [(1, 1)])  # center carries the label
        assert is_isomorphic_labeled(sq, cherry)

    def test_fully_labeled_edge_squared_is_itself(self):
        e = edge(1, 2)
        assert is_isomorphic_labeled(glue(e, e), e)

    def test_unlabeled_product_is_disjoint_union(self):
        two = glue(K2, K2)
        assert two.graph.n == 4
        assert len(two.graph.edges) == 2

    def test_mixed_label_sets(self):
        # Shared label 2 merges; labels 1 and 3 stay separate.
        a = edge(1, 2)
        b = edge(2, 3)
        p = glue(a, b)
        assert p.graph.n == 3
        assert is_isomorphic_labeled(p, PLG(P3, [(1, 0), (2, 1), (3, 2)]))

    def test_doubled_edge_kept_once(self):
        e = edge(1, 2)
        nonedge = PLG(Graph(2), [(1, 0), (2, 1)])
        assert is_isomorphic_labeled(glue(e, nonedge), e)


class TestNormalForm:
    def test_isolated_vertices_dropped(self):
        with_iso = PLG(Graph(3, [(0, 1)]))
        assert QuantumGraph.of(with_iso) == QuantumGraph.of(K2)

    def test_labeled_isolated_vertices_dropped(self):
        with_iso = PLG(Graph(3, [(0, 1)]), [(1, 2)])
        assert QuantumGraph.of(with_iso) == QuantumGraph.of(K2)

    def test_coefficient_merge(self):
        f = QuantumGraph([(PLG(K2), Fraction(1, 2)), (PLG(K2), Fraction(1, 2))])
        assert f == QuantumGraph.of(K2)

    def test_cancellation(self):
        f = QuantumGraph.of(K2) - QuantumGraph.of(K2)
        assert f == 0
        assert f == QuantumGraph()

    def test_equal_mod_K_examples(self):
        assert QuantumGraph.of(Graph(3, [(0, 1)])) == QuantumGraph.of(K2)
        assert QuantumGraph.of(K2) != QuantumGraph.of(P3)
        sq = unlabel(product(QuantumGraph.of(edge(1, None)), QuantumGraph.of(edge(1, None))))
        assert sq == QuantumGraph.of(P3)

    def test_single_labeled_vertex_is_unit(self):
        one = PLG(Graph(1), [(1, 0)])
        assert QuantumGraph.of(one) == QuantumGraph.unit()

    def test_stripped_canonical_forms_stay_canonical(self):
        """Every labeling by 1..3 of every graph with at most 5 vertices:
        the rows and labels of the canonical form with its isolated
        vertices stripped, which the normal form keys without labeling
        them, are what canonical labeling makes of them."""
        for n in range(6):
            for g in enumerate_graphs(n) if n else [Graph(0)]:
                for k in range(min(n, 3) + 1):
                    for vertices in permutations(range(n), k):
                        form = PLG(g, {i + 1: v for i, v in enumerate(vertices)}).canonical()
                        adj, labels = algebra._stripped(form.graph.adj, form.labels)
                        stripped = PLG(Graph._of_rows(adj), labels)
                        assert canonical_form(stripped) == (stripped, tuple(range(len(adj))))

    def test_atom_with_isolated_vertices_expands_with_one_canonicalization(self, canonical_calls):
        """The atom canonicalizes its PLG once; the term it expands to is
        that form stripped, so it costs no second call.  The PLG caches
        its form, so its normal form costs none either, while a fresh copy
        of it costs one."""
        plg = PLG(Graph(3, [(0, 1)]), {1: 0, 2: 2})
        want = QuantumGraph.of(PLG(K2, {1: 0}))
        del canonical_calls[:]
        assert expand(Atom(plg)) == want
        assert len(canonical_calls) == 1
        del canonical_calls[:]
        assert QuantumGraph.of(plg) == want
        assert canonical_calls == []
        assert QuantumGraph.of(PLG(plg.graph, plg.labels)) == want
        assert len(canonical_calls) == 1

    def test_keys_are_not_canonicalized_again(self, canonical_calls):
        rng = random.Random(71)
        f, g = random_quantum(rng, max_terms=6, max_n=5), random_quantum(rng, max_terms=6, max_n=5)
        del canonical_calls[:]
        assert QuantumGraph(f.terms) == f
        assert (f + g) - g == f
        assert -f * 3 + f * Fraction(3) == QuantumGraph()
        assert canonical_calls == []

    def test_negation_and_scalars_scale_the_keys_as_they_are(self, canonical_calls):
        """`-f` and `f * c` keep f's keys and scale their coefficients: the
        terms the constructor makes of the scaled pairs, with no call, and
        `f * 0` is zero."""
        rng = random.Random(73)
        f = random_quantum(rng, max_terms=8, max_n=5)
        assert len(f.terms) > 1
        scaled = {s: QuantumGraph([(p, c * s) for p, c in f.terms.items()]).terms
                  for s in (-1, 3, Fraction(-2, 3))}
        del canonical_calls[:]
        cases = [(-f, -1), (f * 3, 3), (3 * f, 3), (f * Fraction(-2, 3), Fraction(-2, 3))]
        assert canonical_calls == []
        for got, s in cases:
            assert got.terms == scaled[s]
            assert all(type(c) is Fraction for c in got.terms.values())
            assert all(a is b for a, b in zip(got.terms, f.terms))
        assert f * 0 == 0 and (0 * f).terms == {}

    def test_each_distinct_raw_term_canonicalized_once(self, canonical_calls):
        """ind(F) squared, for F the fully labeled empty 4-vertex graph:
        the 4096 glued terms fall into 297 distinct raw terms, 64 of them
        with a nonzero coefficient, and canonicalizing those takes 64 calls.
        Each is fully labeled, so none splits into per-component calls.
        One call per glued term took 4150."""
        f = ind(PLG(Graph(4), [(i + 1, i) for i in range(4)]))
        del canonical_calls[:]
        assert product(f, f) == f
        assert len(canonical_calls) == 64


def random_terms(rng, max_terms=4, max_n=4, labels=(1, 2, 3)):
    """Raw (PLG, Fraction) terms, isolated vertices and repeats included."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        n = rng.randint(0, max_n)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        k = rng.randint(0, min(len(labels), n))
        plg = PLG(Graph(n, edges), zip(rng.sample(labels, k), rng.sample(range(n), k)))
        terms.append((plg, Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
    return terms + rng.sample(terms, rng.randint(0, len(terms)))


class TestRoutesIntoTheRule:
    """Each route that hands the normal-form rule rows, against gluing,
    stripping and labeling by brute force on seeded inputs."""

    def test_product(self):
        rng = random.Random(4001)
        for _ in range(40):
            f, g = QuantumGraph(random_terms(rng)), QuantumGraph(random_terms(rng))
            raw = [(brute_glue(a, b), ca * cb) for a, ca in f.terms.items() for b, cb in g.terms.items()]
            assert product(f, g).terms == brute_normal_form(raw), (f, g)

    def test_unlabel_with_a_partial_keep(self, canonical_calls):
        """Only a key that loses a label is labeled again."""
        rng = random.Random(4002)
        for _ in range(40):
            f = QuantumGraph(random_terms(rng))
            keep = set(rng.sample((1, 2, 3, 4), rng.randint(0, 3)))
            want = brute_normal_form(f.terms.items(), keep)
            assert unlabel(f, keep).terms == want, (f, keep)
            del canonical_calls[:]
            assert unlabel(f, (1, 2, 3)) == f
            assert canonical_calls == []
            # Written labels are read as integers, on both routes.
            written = [str(lab) for lab in keep]
            assert unlabel(f, written).terms == want
            assert expand(Unlabel(written, f)).terms == want

    def test_unlabel_reads_written_labels_as_unlabel_does(self):
        f = QuantumGraph.of(edge(1, None))
        assert unlabel(f, ["1"]) == expand(Unlabel(["1"], f)) == f
        assert unlabel(f, ["1"]) != unlabel(f) == QuantumGraph.of(K2)

    def test_sum(self):
        rng = random.Random(4003)
        for _ in range(40):
            f, g = QuantumGraph(random_terms(rng)), QuantumGraph(random_terms(rng))
            assert (f + g).terms == brute_normal_form([*f.terms.items(), *g.terms.items()]), (f, g)
            assert (f - f).terms == {}

    def test_known_forms_are_merged_unlabeled(self, canonical_calls):
        """PLGs that cache their form, and forms with isolated vertices,
        reach the normal form without a labeling."""
        rng = random.Random(4004)
        for _ in range(40):
            terms = random_terms(rng)
            want = brute_normal_form(terms)
            cached = [(plg, c) for plg, c in terms if plg.canonical() is not plg]
            forms = [(canonical_form(plg)[0], c) for plg, c in terms]
            del canonical_calls[:]
            assert QuantumGraph(cached).terms == brute_normal_form(cached)
            assert QuantumGraph(forms).terms == want
            assert QuantumGraph(terms).terms == want
            assert canonical_calls == []

    def test_a_given_plg_is_labeled_once(self, canonical_calls):
        """The first build records the form on the given PLG, so building
        from it again labels nothing."""
        e, want = PLG(K2), QuantumGraph.of(K2)
        del canonical_calls[:]
        for _ in range(5):
            assert QuantumGraph([(e, 1)]) == want
        assert len(canonical_calls) == 1
        assert e.canonical() is e

    def test_a_given_form_is_its_own_key(self):
        """A form with no isolated vertex, given as itself or through a PLG
        that caches it, is the key of the built graph, not a copy of it."""
        path = PLG(Graph(3, [(0, 2), (1, 2)]), {1: 1})
        f = path.canonical()
        assert f is not path
        for given in (f, path):
            assert next(iter(QuantumGraph([(given, 1)]).terms)) is f
        assert next(iter(unlabel(QuantumGraph([(f, 2)]), [1]).terms)) is f


class TestRingAxioms:
    def test_randomized(self):
        rng = random.Random(67)
        for _ in range(40):
            f, g, h = (random_quantum(rng) for _ in range(3))
            assert product(f, g) == product(g, f)
            assert product(product(f, g), h) == product(f, product(g, h))
            assert product(f + g, h) == product(f, h) + product(g, h)

    def test_unit(self):
        rng = random.Random(71)
        for _ in range(10):
            f = random_quantum(rng)
            assert product(f, QuantumGraph.unit()) == f

    def test_representative_independence(self):
        # Gluing with an isolated-vertex-padded representative gives the
        # same class, so the product is well defined on the quotient.
        rng = random.Random(73)
        for _ in range(30):
            f = random_quantum(rng, max_terms=1)
            g = random_quantum(rng, max_terms=1)
            if f == 0 or g == 0:
                continue
            (pf, cf), = f.terms.items()
            (pg, cg), = g.terms.items()
            padded = PLG(
                Graph(pf.graph.n + 2, pf.graph.edges),
                list(pf.labels) + [(9, pf.graph.n)],
            )
            assert QuantumGraph.of(glue(padded, pg)) == QuantumGraph.of(glue(pf, pg))


class TestUnlabel:
    def test_examples(self):
        e = edge(1, 2)
        assert unlabel(e) == QuantumGraph.of(K2)
        f = QuantumGraph.of(e)
        assert unlabel(f, {1, 2, 7}) == f
        cherry = PLG(P3, [(1, 1)])
        assert unlabel(cherry) == QuantumGraph.of(P3)

    def test_linear(self):
        rng = random.Random(79)
        for _ in range(20):
            f, g = random_quantum(rng), random_quantum(rng)
            assert unlabel(f + g, {1}) == unlabel(f, {1}) + unlabel(g, {1})


class TestInd:
    def test_fully_joined_is_fixed(self):
        e = edge(1, 2)
        assert ind(e) == QuantumGraph.of(e)

    def test_one_missing_pair(self):
        h = PLG(Graph(2), [(1, 0), (2, 1)])
        assert ind(h) == QuantumGraph.of(h) - QuantumGraph.of(edge(1, 2))

    def test_empty_graph(self):
        assert ind(PLG(Graph(0))) == QuantumGraph.unit()

    def test_cap(self):
        # The expand budget prices the 2^(absent pairs) terms before any is
        # built: 18 absent pairs are past the default 200000.
        with pytest.raises(BudgetExceeded, match=r"needs 2\^18 terms"):
            ind(PLG(Graph(7, [(0, 1), (2, 3), (4, 5)])))
        with pytest.raises(BudgetExceeded, match=r"needs 2\^21 terms"):
            ind(PLG(Graph(7)))

    def test_term_count(self):
        # K1,2 with no labels has two absent pairs... use a concrete case:
        h = PLG(Graph(3, [(0, 1)]))
        assert sum(1 for _ in ind(h).terms) <= 4

    def test_orthogonality(self):
        # ind images of graphs with different labeled cores multiply to zero.
        pairs = plgs_with_labels(3, 2)
        for i, h1 in enumerate(pairs):
            for h2 in pairs[i:]:
                if labeled_core(h1) != labeled_core(h2):
                    assert product(ind(h1), ind(h2)) == 0, (h1, h2)

    def test_orthogonality_four_vertices_sample(self):
        rng = random.Random(83)
        pool = plgs_with_labels(4, 2)
        for _ in range(120):
            h1, h2 = rng.sample(pool, 2)
            if labeled_core(h1) != labeled_core(h2):
                assert product(ind(h1), ind(h2)) == 0

    def test_fully_labeled_idempotence(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                h = PLG(g, [(i + 1, i) for i in range(n)])
                f = ind(h)
                assert product(f, f) == f, g

    def test_unlabeled_square_identity(self):
        # ind(H) equals the square of its fully labeled lift, unlabeled back.
        rng = random.Random(89)
        cases = []
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                cases.append(PLG(g, [(i + 1, i) for i in range(rng.randint(0, n))]))
        for h in cases:
            full = PLG(h.graph, [(i + 1, i) for i in range(h.graph.n)])
            lifted_sq = product(ind(full), ind(full))
            assert unlabel(lifted_sq, h.label_set()) == ind(h), h

    def test_mobius_round_trip(self):
        # Writing H as the sum of ind(F) over supergraphs F returns H.
        from homdens.algebra import ind_terms

        for n in range(1, 5):
            for g in enumerate_graphs(n):
                h = PLG(g, [(1, 0)] if n >= 1 else [])
                total = QuantumGraph()
                for (adj, labels), _ in ind_terms(h, (0,) * h.n):
                    total = total + ind(PLG(Graph._of_rows(adj), labels))
                assert total == QuantumGraph.of(h), g


class TestQExpr:
    def test_expand_matches_direct(self):
        e = edge(1, None)
        tree = Unlabel((), Product([Atom(e), Atom(e)]))
        assert expand(tree) == unlabel(product(QuantumGraph.of(e), QuantumGraph.of(e)))

    def test_expand_sum_and_const(self):
        tree = Sum([Const(Fraction(1, 2)), Atom(PLG(K2)), Atom(PLG(K2))])
        assert expand(tree) == Fraction(1, 2) * QuantumGraph.unit() + 2 * QuantumGraph.of(K2)

    def test_product_expands_each_distinct_child_once(self, canonical_calls):
        f = Sum([IndAtom(PLG(Graph(3), [(1, 0)])), Atom(edge(1, None)), Const(2)])
        del canonical_calls[:]
        q = expand(f)
        once = len(canonical_calls)
        square = product(q, q)
        calls = len(canonical_calls)
        del canonical_calls[:]
        assert expand(Product((f, f))) == square
        assert len(canonical_calls) == calls > once > 0

    def test_zero_scale_expands_nothing(self, canonical_calls):
        """A product scaled by 0 returns before its lone factor expands in
        place, so an unlabeled sum adds no zero terms to canonicalize."""
        f = _as_qexpr(QuantumGraph.of(edge(1, None)) - QuantumGraph.of(PLG(P3, [(1, 0), (2, 2)])))
        assert expand(Product((Const(3), Unlabel((), f)))) == 3 * unlabel(expand(f), ())
        del canonical_calls[:]
        assert expand(Product((Const(0), Unlabel((), f)))) == 0
        assert canonical_calls == []

    def test_expand_indatom(self):
        h = PLG(Graph(2), [(1, 0), (2, 1)])
        assert expand(IndAtom(h)) == QuantumGraph.of(h) - QuantumGraph.of(edge(1, 2))

    def test_budget(self):
        big = IndAtom(PLG(Graph(9)))  # 36 absent pairs
        with pytest.raises(BudgetExceeded):
            expand(big, budget=1000)
        # multisets of 4 paths out of 6 kinds: 126 distinct product terms,
        # from a last product that glues 56 x 6 = 336 term pairs; the
        # budget bounds the pairs before they are glued
        paths = Sum([Atom(PLG(Graph.path(i))) for i in range(2, 8)])
        wide = Product([paths] * 4)
        assert len(expand(wide, budget=336).terms) == 126
        with pytest.raises(BudgetExceeded):
            expand(wide, budget=335)

    @pytest.mark.parametrize("text", ["(g plg n=2 edges=1-2)", "(q 1)", "(ind plg n=2)"])
    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_is_refused_at_entry(self, text, budget):
        with pytest.raises(ValueError) as exc:
            expand(parse_qexpr(text), budget)
        assert str(exc.value) == f"budget must be at least 1, got {budget}"

    def test_poly_image(self):
        p = Polynomial.variable("x1") ** 2
        img = PolyImage({"x1": Atom(edge(1, None))}, p)
        direct = product(QuantumGraph.of(edge(1, None)), QuantumGraph.of(edge(1, None)))
        assert expand(img) == direct

    def test_poly_image_constant_and_mixed_monomials(self):
        x1, x2 = Polynomial.variable("x1", ("x1", "x2")), Polynomial.variable("x2", ("x1", "x2"))
        a, b = QuantumGraph.of(edge(1, None)), QuantumGraph.of(PLG(K2))
        img = PolyImage({"x1": Atom(edge(1, None)), "x2": Atom(PLG(K2))}, x1 * x2 ** 2 - 3)
        assert expand(img) == product(a, product(b, b)) - 3 * QuantumGraph.unit()

    def test_poly_image_checks_vars(self):
        p = Polynomial.variable("x1") + Polynomial.variable("x2")
        with pytest.raises(ValueError):
            PolyImage({"x1": Atom(PLG(K2))}, p)

    def test_node_equality_hashing_and_immutability(self):
        e = PLG(K2)
        poly = Polynomial.variable("x1")
        wide = Polynomial.variable("x1", ("x1", "x2"))
        gens = {"x1": Atom(e), "x2": Atom(e)}
        assert Atom(e) != IndAtom(e)
        assert Sum([Atom(e)]) != Product([Atom(e)])
        assert Unlabel((), Atom(e)) != Unlabel((), IndAtom(e))
        # (two equal nodes built differently, an attribute they hold)
        pairs = [
            (Const(Fraction(2, 4)), Const(Fraction(1, 2)), "value"),
            (Atom(PLG(K2, [(1, 0)])), Atom(PLG(K2, [(1, 1)])), "plg"),
            (IndAtom(e), IndAtom(PLG(Graph(2, [(1, 0)]))), "plg"),
            (Sum([1, e]), Sum([Const(1), Atom(e)]), "children"),
            (Product([e, e]), Product([Atom(e), Atom(e)]), "children"),
            (Unlabel([1], Atom(e)), Unlabel({1}, Atom(e)), "child"),
            (PolyImage(gens, poly), PolyImage(gens, wide, origin="(x)"), "poly"),
        ]
        for a, b, attr in pairs:
            assert a == b
            assert hash(a) == hash(b)
            with pytest.raises(AttributeError):
                setattr(a, attr, getattr(b, attr))
        assert len({node for a, b, _ in pairs for node in (a, b)}) == len(pairs)

    def test_label_sets(self):
        e = edge(1, 2)
        assert Atom(e).label_set() == {1, 2}
        assert Unlabel({1}, Atom(e)).label_set() == {1}
        assert Product([Atom(e), Atom(edge(3, None))]).label_set() == {1, 2, 3}
        assert Const(2).label_set() == frozenset()


def plgs_with_label_subsets(max_n, labels):
    """One representative per PLG class on at most max_n vertices whose
    labels are any subset of `labels`."""
    out = {}
    for n in range(max_n + 1):
        for g in enumerate_graphs(n):
            for k in range(min(n, len(labels)) + 1):
                for labs in combinations(labels, k):
                    for verts in permutations(range(n), k):
                        out.setdefault(PLG(g, zip(labs, verts)).canonical(), None)
    return list(out)


def fully_labeled(g):
    return PLG(g, [(i + 1, i) for i in range(g.n)])


def free_pair_atoms(pool):
    """Each PLG of the pool with each one of its non-edges made free."""
    return [
        IndAtom(plg, [pair])
        for plg in pool
        for pair in combinations(range(plg.n), 2)
        if not plg.graph.adj[pair[0]] >> pair[1] & 1
    ]


def trigraph(atom):
    return atom.plg, atom.rows


class TestIndProduct:
    """`expand` multiplies IndAtom factors by `ind_product`; `product` of
    the `ind` expansions is the reference route."""

    def test_every_pair_up_to_three_vertices(self):
        pool = plgs_with_label_subsets(3, (1, 2))
        assert len(pool) == 36
        zero = 0
        for a in pool:
            for b in pool:
                got = expand(Product([IndAtom(a), IndAtom(b)]))
                assert got == product(ind(a), ind(b)), (a, b)
                vanishes = ind_product(trigraph(IndAtom(a)), trigraph(IndAtom(b))) is None
                assert vanishes == (ind_product(trigraph(IndAtom(b)), trigraph(IndAtom(a))) is None)
                assert vanishes <= (got == 0), (a, b)
                zero += vanishes
        assert 0 < zero < len(pool) ** 2

    def test_free_pair_atoms(self):
        """A free-pair atom expands to the sum over its pair's two states,
        and its products with the plain and free-pair atoms of the pool,
        by the rule, equal the products of those sums."""
        pool = plgs_with_label_subsets(3, (1, 2))
        atoms = free_pair_atoms(pool)
        assert len(atoms) == 40
        sums = {atom: ind_sum(atom) for atom in atoms}
        for atom in atoms:
            assert expand(atom) == sums[atom], atom
        for atom in pool:
            sums[IndAtom(atom)] = ind(atom)
        zero = 0
        for a in atoms:
            for b in sums:
                got = expand(Product([a, b]))
                assert got == product(sums[a], sums[b]), (a, b)
                zero += ind_product(trigraph(a), trigraph(b)) is None
        assert zero > 0

    def test_seeded_three_factor_products(self):
        rng = random.Random(97)
        pool = plgs_with_label_subsets(3, (1, 2, 3)) + [
            fully_labeled(g) for g in enumerate_graphs(4)
        ]
        atoms = [IndAtom(plg) for plg in pool] + free_pair_atoms(pool)
        zero = 0
        for _ in range(120):
            factors = []
            for _ in range(3):
                if rng.random() < 0.2:
                    factors.append(Const(Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
                else:
                    factors.append(rng.choice(atoms))
            reference = QuantumGraph.unit()
            for f in factors:
                reference = product(reference, ind_sum(f) if isinstance(f, IndAtom) else expand(f))
            got = expand(Product(factors))
            assert got == reference, factors
            zero += (got == 0)
        assert zero > 0

    def test_conflicting_shared_pairs_give_zero(self):
        path = PLG(P3, [(1, 0), (2, 1), (3, 2)])  # 1-2 and 2-3, not 1-3
        cases = [
            (edge(1, 2), PLG(Graph(2), [(1, 0), (2, 1)])),
            (edge(1, 3), path),
            (PLG(Graph(2), [(2, 0), (3, 1)]), path),
            (PLG(Graph(2), [(1, 0), (2, 1)]), fully_labeled(Graph.path(4))),
        ]
        for a, b in cases:
            assert product(ind(a), ind(b)) == 0, (a, b)
            assert expand(Product([IndAtom(a), IndAtom(b)])) == 0, (a, b)
            assert expand(Product([IndAtom(b), Atom(P3), IndAtom(a)])) == 0, (a, b)

    def test_square_canonicalizes_like_one_factor(self, canonical_calls):
        atom = IndAtom(fully_labeled(Graph(4)))
        del canonical_calls[:]
        single = expand(atom)
        calls = len(canonical_calls)
        del canonical_calls[:]
        assert expand(Product([atom, atom])) == single
        assert len(canonical_calls) == calls == 64

    def test_budget_counts_every_merged_factor(self):
        big = IndAtom(fully_labeled(Graph(4)))  # 6 absent pairs
        small = IndAtom(PLG(Graph(2), [(1, 0), (2, 1)]))
        for budget in (32, 63):
            for tree in (big, Product([big, big]), Product([small, big]), Product([big, small])):
                with pytest.raises(BudgetExceeded):
                    expand(tree, budget)
        assert expand(Product([small, big]), 64) == expand(big, 64)

    def test_free_pairs_are_checked(self):
        """A free pair must join two distinct non-adjacent vertices of the
        graph; a negative vertex does not wrap round to the last one."""
        base = PLG(Graph(3, [(0, 1)]))
        for free in ([(-1, 0)], [(0, 5)], [(2, 2)], [(1, 0)]):
            with pytest.raises(ValueError):
                IndAtom(base, free)
        assert repr(IndAtom(base, [(2, 0)])) == "IndAtom('plg n=3 edges=2-3', free=[(0, 1)])"


def random_subset(rng, labels):
    return frozenset(lab for lab in labels if rng.random() < 0.5)


class TestUnlabelPushdown:
    """`expand` carries the labels an Unlabel keeps down the tree; the
    reference expands labeled and unlabels afterwards."""

    def test_random_trees(self):
        rng = random.Random(71)
        for _ in range(200):
            expr = _random_expr(rng, rng.randint(1, 3))
            keep = random_subset(rng, expr.label_set())
            assert expand(Unlabel(keep, expr)) == unlabel(expand(expr), keep), expr

    def test_products_of_free_pair_atoms(self):
        rng = random.Random(73)
        pool = plgs_with_label_subsets(3, (1, 2, 3))
        atoms = [IndAtom(plg) for plg in pool] + free_pair_atoms(pool)
        for _ in range(200):
            factors = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.2:
                    factors.append(Const(Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
                else:
                    factors.append(rng.choice(atoms))
            expr = Product(factors)
            keep = random_subset(rng, (1, 2, 3))
            assert expand(Unlabel(keep, expr)) == unlabel(expand(expr), keep), factors

    def test_nested_unlabels_intersect(self):
        rng = random.Random(79)
        pool = plgs_with_label_subsets(3, (1, 2, 3))
        atoms = [IndAtom(plg) for plg in pool] + free_pair_atoms(pool) + [Atom(plg) for plg in pool]
        for _ in range(100):
            inner, outer, mid = (random_subset(rng, (1, 2, 3)) for _ in range(3))
            expr = Product([rng.choice(atoms) for _ in range(2)])
            side = rng.choice(atoms)
            tree = Unlabel(outer, Sum([Unlabel(inner, expr), Unlabel(mid, side)]))
            want = unlabel(unlabel(expand(expr), inner) + unlabel(expand(side), mid), outer)
            assert expand(tree) == want, (inner, outer, mid, expr, side)

    def test_poly_image_is_a_sum_of_products(self):
        """Each monomial's generators multiplied one at a time, with
        repeated variables, against `expand` of the image."""
        rng = random.Random(83)
        pool = plgs_with_label_subsets(3, (1, 2))
        names = ("x1", "x2", "x3")
        for _ in range(60):
            gens = {var: Atom(rng.choice(pool)) for var in names}
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 3) for _ in names)
                terms[exps] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            poly = Polynomial(names, terms)
            reference = QuantumGraph()
            for exps, coeff in poly.terms.items():
                term = QuantumGraph.unit()
                for var, e in zip(names, exps):
                    for _ in range(e):
                        term = product(term, expand(gens[var]))
                reference = reference + coeff * term
            image = PolyImage(gens, poly)
            assert expand(image) == reference, (gens, poly)
            assert expand(Unlabel((), image)) == unlabel(reference, ()), (gens, poly)


class TestIntegerMerge:
    """A product of ind atoms and Const factors adds its raw terms'
    integer weights per canonical form, then scales each form once.  The
    reference multiplies the `ind_sum` expansions and unlabels after."""

    def test_seeded_scaled_differences(self):
        """s * ind(a with a free pair) * rest - s * ind(a) * rest, unlabeled
        to a seeded keep set: ind(a with a free pair) is ind(a) plus
        ind(a with that pair an edge), so the forms of the second product
        meet raw terms of the first with the opposite weight and cancel.
        Products of atoms that share a label and hang an unlabeled vertex
        on it glue twins, taken up to swapping."""
        rng = random.Random(109)
        pool = plgs_with_label_subsets(3, (1, 2))
        loose_atoms = free_pair_atoms(pool)
        atoms = [IndAtom(plg) for plg in pool] + loose_atoms
        twins = cancelled = 0
        for _ in range(150):
            loose = rng.choice(loose_atoms)
            plain = IndAtom(loose.plg)
            rest = [rng.choice(atoms) for _ in range(rng.randint(0, 2))]
            scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
            keep = random_subset(rng, (1, 2))
            got = expand(Unlabel(keep, Sum([
                Product([Const(scale), loose, *rest]),
                Product([plain, *rest, Const(-scale)]),
            ])))
            others = QuantumGraph.unit()
            for atom in rest:
                others = product(others, ind_sum(atom))
            difference = product(ind_sum(loose), others) - product(ind(plain.plg), others)
            assert got == unlabel(scale * difference, keep), (loose, rest, keep)
            assert all(isinstance(c, Fraction) and c for c in got.terms.values())
            glued = reduce(lambda a, b: a and ind_product(a, b), [trigraph(a) for a in (loose, *rest)])
            if glued is not None:
                plg, rows = glued
                twins += any(abs(w) > 1 for _, w in ind_terms(plg.drop_labels(keep), rows))
            cancelled += bool(set(expand(Unlabel(keep, Product([plain, *rest]))).terms) - set(got.terms))
        assert twins > 20 and cancelled > 100, (twins, cancelled)


class TestRawTermOracle:
    """`expand` of ind products against `brute_ind_product_form`, which
    labels every stripped raw term of the product on its own and merges by
    brute force.  The normal-form rule labels each distinct stripped raw
    term of the glued trigraph once, one `_form_parts` call each, except
    those whose weights cancel before labeling."""

    @pytest.fixture
    def labelings(self, monkeypatch):
        calls = []
        original = algebra._form_parts

        def counting(adj, labels):
            calls.append((adj, labels))
            return original(adj, labels)

        monkeypatch.setattr(algebra, "_form_parts", counting)
        return calls

    def check(self, atoms, keep, labelings):
        """Assert both facts for one product; return its raw term count
        and how many distinct stripped raw terms they make."""
        del labelings[:]
        expr = Product(atoms)
        got = expand(expr if keep is None else Unlabel(keep, expr))
        assert got.terms == brute_ind_product_form(atoms, keep), (atoms, keep)
        glued = reduce(lambda a, b: a and ind_product(a, b), [trigraph(a) for a in atoms])
        if glued is None:
            assert labelings == []
            return 0, 0
        plg, rows = glued
        stripped = Counter()
        raw = 0
        for (adj, labels), weight in ind_terms(plg if keep is None else plg.drop_labels(keep), rows):
            stripped[brute_strip(PLG(Graph._of_rows(adj), labels))] += weight
            raw += 1
        assert len(labelings) == sum(1 for w in stripped.values() if w), (atoms, keep)
        return raw, len(stripped)

    def test_seeded_products_keeping_labels_or_some(self, labelings):
        rng = random.Random(113)
        pool = plgs_with_label_subsets(3, (1, 2))
        atoms = [IndAtom(plg) for plg in pool] + free_pair_atoms(pool)
        kept = partial = 0
        for _ in range(60):
            factors = [rng.choice(atoms) for _ in range(rng.randint(1, 3))]
            keep = None if rng.random() < 0.5 else random_subset(rng, (1, 2))
            raw, _ = self.check(factors, keep, labelings)
            if raw:
                kept += keep is None
                partial += keep is not None and bool(keep)
        assert kept > 10 and partial > 5, (kept, partial)

    def test_stripping_merges_raw_terms(self, labelings):
        """Bases with isolated vertices, whose raw terms differ only in
        where an edge lands among them, strip to equal PLGs."""
        rng = random.Random(127)
        bases = [
            PLG(Graph(3), {1: 0}),
            PLG(Graph(4, [(0, 1)]), {1: 0, 2: 2}),
            PLG(Graph(3), {}),
            PLG(Graph(4, [(2, 3)]), {2: 2}),
        ]
        merged = 0
        for base in bases:
            for keep in (None, (), (1,), (2,)):
                raw, distinct = self.check([IndAtom(base)], keep, labelings)
                merged += distinct < raw
        for _ in range(20):
            factors = [IndAtom(rng.choice(bases)) for _ in range(2)]
            raw, distinct = self.check(factors, random_subset(rng, (1, 2)), labelings)
            merged += distinct < raw
        assert merged > 10, merged


def non_ind_factor(rng, pool):
    """An Atom, a Sum of scaled Atoms, or an Unlabel of such a Sum."""
    atoms = [Atom(rng.choice(pool)) for _ in range(rng.randint(1, 3))]
    kind = rng.randrange(3)
    if kind == 0:
        return atoms[0]
    summed = Sum([Product([Const(Fraction(rng.randint(-3, 3), rng.randint(1, 3))), a]) for a in atoms])
    return summed if kind == 1 else Unlabel(random_subset(rng, (1, 2, 3)), summed)


class TestLastGluing:
    """A product with a factor that is not an ind atom folds all but its
    last factor through `product` and sends the last gluing's pairs
    straight to the normal-form rule.  The reference takes each factor's
    normal form, multiplies them by `product`, then unlabels."""

    def test_seeded_products_match_the_factor_route(self):
        rng = random.Random(113)
        pool = plgs_with_label_subsets(3, (1, 2, 3))
        inds = [IndAtom(plg) for plg in pool] + free_pair_atoms(pool)
        seen = Counter()
        for _ in range(150):
            factors = []
            for _ in range(rng.randint(1, 3)):
                # a repeated factor is one object, expanded once
                reuse = factors and rng.random() < 0.25
                factors.append(rng.choice(factors) if reuse else non_ind_factor(rng, pool))
            with_ind = rng.random() < 0.5
            if with_ind:
                factors.insert(rng.randrange(len(factors) + 1), rng.choice(inds))
            keep = random_subset(rng, (1, 2, 3))
            reference = reduce(product, [expand(f) for f in factors])
            got = expand(Unlabel(keep, Product(factors)))
            assert got == unlabel(reference, keep), (factors, keep)
            seen[len(factors) - with_ind, with_ind] += 1
        assert all(seen[n, i] > 10 for n in (1, 2, 3) for i in (False, True)), seen

    def test_verify_sos_canonicalizes_each_unlabeled_glued_term_once(self, canonical_calls):
        """Each square of a certificate glues its term pairs and unlabels
        them in one step: each distinct glued term, stripped and with its
        labels dropped, is canonicalized once, and no labeled product is
        built first.  Every term carries label 1, so each glued term is
        connected and costs one call; the target's keys cost none, and so
        does the unlabeled glued term of the first square whose weights
        cancel."""
        cert = [parse_qexpr(text) for text in (
            "(sum (g plg n=2 labels=1:1 edges=1-2) (prod (q -2) (g plg n=3 labels=1:1,2:2 edges=1-2;1-3)))",
            "(sum (g plg n=3 labels=1:1 edges=1-2;2-3) (prod (q 1/3) (g plg n=3 labels=1:1,2:3 edges=1-3;2-3))"
            " (g plg n=3 labels=2:1,1:2 edges=1-2;1-3;2-3))",
        )]
        target = expand(Unlabel((), Sum(g * g for g in cert)))
        want = 0
        for g in cert:
            f = expand(g)
            raw = Counter()
            for a, ca in f.terms.items():
                for b, cb in f.terms.items():
                    raw[brute_strip(glue(a, b), ())] += ca * cb
            want += sum(1 for c in raw.values() if c)
        del canonical_calls[:]
        assert verify_sos(target, cert)
        assert len(canonical_calls) == want == 10


class TestQuantumFormat:
    def test_round_trip(self):
        rng = random.Random(103)
        for _ in range(50):
            f = random_quantum(rng)
            text = format_quantum(f)
            assert parse_quantum(text) == f
            assert format_quantum(parse_quantum(text)) == text

    def test_parse_opens_no_form_table(self, canonical_tables):
        """Equal records, each written in a different vertex order, are
        each canonicalized with no form table open."""
        text = "1 * plg n=4 edges=1-2;2-3;3-4\n2 * plg n=4 edges=2-1;1-4;4-3\n-1 * plg n=4 edges=3-1;1-2;2-4\n"
        f = parse_quantum(text)
        assert canonical_tables == [None] * 3
        assert f == 2 * QuantumGraph.of(Graph.path(4))

    def test_zero(self):
        assert parse_quantum(format_quantum(QuantumGraph())) == 0
        assert parse_quantum("# nothing here\n") == 0

    def test_comments_and_whitespace(self):
        f = parse_quantum("  1/2 * plg n=2 edges=1-2   # the edge\n\n# done\n")
        assert f == Fraction(1, 2) * QuantumGraph.of(K2)

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_quantum("1/2 plg n=2\n")
        with pytest.raises(FormatError) as info:
            parse_quantum("# fine\nx * plg n=2\n")
        assert info.value.line == 2

    def test_bad_records_read_alike_on_every_route(self):
        """A bad record gives one message and line as a lone record, in a
        term list and in its normal form; the label and edge messages are
        those of the PLG and graph constructors."""
        for record, message in [
            ("plg n=x", "bad vertex count 'x'"),
            ("plg n=-1", "vertex count must be nonnegative"),
            ("plg n=2 edges=1-1", "loop at vertex 0"),
            ("plg n=2 edges=1-3", "edge (0,2) out of range for n=2"),
            ("plg n=2 labels=0:1", "label 0 is not a positive integer"),
            ("plg n=2 labels=2:3", "label 2 on missing vertex 2"),
            ("plg n=2 labels=1:1,1:2", "label 1 used twice"),
            ("plg n=2 labels=2:1,1:1", "vertex 0 labeled twice"),
            ("plg n=2 labels=1:1 bogus=1", "unknown field 'bogus'"),
        ]:
            text = f"# two lines\n1 * plg n=1\n-1/2 * {record}\n"
            for read in (lambda: parse_plg(record, line=3), lambda: list(read_terms(text)),
                         lambda: parse_quantum(text)):
                with pytest.raises(FormatError) as info:
                    read()
                assert (str(info.value), info.value.line) == (f"{message} (line 3)", 3)

    def test_edge_anomalies_read_as_the_checked_reader_reads_them(self):
        """A term list reads each edge item once, so a later record can meet
        an item it knows at a vertex count too small for it.  Every edge
        anomaly gives the checked reader's message and line on each route,
        an item read before or not: a bad item's message wins over a range
        error before it, as a range error wins over a bad label.  The
        record on line 2 reads every good item below first."""
        for record, message in [
            ("plg n=9 edges=1-2;1-1", "loop at vertex 0"),
            ("plg n=9 edges=1-2;1-12", "edge (0,11) out of range for n=9"),
            ("plg n=3 edges=2-3;1-12", "edge (0,11) out of range for n=3"),
            ("plg n=0 edges=1-2", "edge (0,1) out of range for n=0"),
            ("plg n=-2", "vertex count must be nonnegative"),
            ("plg n=-2 edges=1-2", "vertex count must be nonnegative"),
            ("plg n=3 edges=01-01", "loop at vertex 0"),
            ("plg n=3 edges=1-2;+2-04", "edge (1,3) out of range for n=3"),
            ("plg n=3 edges=1-2;13", "bad edge item '13'"),
            ("plg n=3 edges=1-2;", "bad edge item ''"),
            ("plg n=3 edges=1-12;2-x", "bad vertex 'x'"),
            ("plg n=3 edges=1-1;2-3;3", "bad edge item '3'"),
            ("plg n=3 labels=1:5 edges=1-12", "edge (0,11) out of range for n=3"),
        ]:
            text = f"1 * plg n=12 edges=1-2;1-12;2-3\n-1/2 * {record}\n"
            for read in (lambda: parse_plg(record, line=2), lambda: list(read_terms(text)),
                         lambda: parse_quantum(text)):
                with pytest.raises(FormatError) as info:
                    read()
                assert (str(info.value), info.value.line) == (f"{message} (line 2)", 2)
        (_, _), (plg, c) = read_terms("1 * plg n=3 edges=1-2\n2 * plg n=3 edges=01-+2;2-3;1-2\n")
        assert plg == parse_plg("plg n=3 edges=1-2;2-3") and c == 2

    def test_records_share_equal_rows(self):
        """The records of one term list share each distinct row's int.  A
        row of a 9-vertex graph can pass 256, above the ints that Python
        shares by itself: here K9 and K9 less the edge 1-2."""
        k9 = ";".join(f"{u}-{v}" for u in range(1, 10) for v in range(u + 1, 10))
        (a, _), (b, _) = read_terms(f"1 * plg n=9 edges={k9}\n-1 * plg n=9 edges={k9[4:]}\n")
        assert b.graph.adj[0] == a.graph.adj[0] ^ 2
        assert a.graph.adj[5] == 511 ^ 32
        assert all(a.graph.adj[v] is b.graph.adj[v] for v in range(2, 9))


class TestQExprFormat:
    def test_round_trip(self):
        e = edge(1, 2)
        tree = Unlabel(
            {1},
            Sum(
                [
                    Product([Atom(e), IndAtom(PLG(K2, [(1, 0)]))]),
                    Const(Fraction(-2, 3)),
                ]
            ),
        )
        text = format_qexpr(tree)
        assert parse_qexpr(text) == tree
        assert format_qexpr(parse_qexpr(text)) == text

    def test_expected_shape(self):
        text = format_qexpr(Const(Fraction(1, 3)))
        assert text == "(q 1/3)"
        assert format_qexpr(Atom(PLG(K2))) == "(g plg n=2 edges=1-2)"

    def test_empty_unlabel_list(self):
        tree = Unlabel((), Atom(PLG(K2)))
        assert parse_qexpr(format_qexpr(tree)) == tree

    def test_errors(self):
        for bad in [
            "",
            "(q)",
            "(q 1/0)",
            "(bogus 1)",
            "(sum (q 1)",
            "(unlabel 1 (q 1))",
            "(q 1) extra",
        ]:
            with pytest.raises(FormatError):
                parse_qexpr(bad)

    def test_unknown_head_is_named(self):
        with pytest.raises(FormatError, match="unknown expression head 'foo'"):
            parse_qexpr("(foo 1)")

    def test_long_sum_parses_in_linear_time(self):
        """One index walks the tokens: a parse that copied the rest of the
        token list at every node would take about a minute here."""
        child = "(prod (q 3) (g plg n=3 edges=1-2;2-3))"
        text = "(sum " + " ".join([child] * 20000) + ")"
        start = time.perf_counter()
        expr = parse_qexpr(text)
        assert time.perf_counter() - start < 5
        assert len(expr.children) == 20000
        assert expr.children[-1] == parse_qexpr(child)

    def test_equal_leaves_canonicalized_once_per_parse(self, canonical_calls):
        """Equal leaf records share one canonical form within a parse; the
        next parse canonicalizes again, so no form outlives its parse."""
        text = "(sum " + " ".join(["(g plg n=3 edges=1-2;2-3)"] * 8000) + ")"
        expr = parse_qexpr(text)
        assert len(canonical_calls) == 1
        assert len(expr.children) == 8000 and len({id(c.plg) for c in expr.children}) == 1
        parse_qexpr(text)
        assert len(canonical_calls) == 2
        mixed = parse_qexpr("(prod (g plg n=3 edges=1-2;2-3) (ind plg n=3 edges=1-2;2-3))")
        assert len(canonical_calls) == 3
        assert mixed == Product([Atom(PLG(P3)), IndAtom(PLG(P3))])

    def test_depth_cap(self):
        def nested(depth):
            return "(unlabel () " * (depth - 1) + "(q 1)" + ")" * (depth - 1)

        expr = parse_qexpr(nested(QEXPR_DEPTH_CAP))
        assert format_qexpr(expr) == nested(QEXPR_DEPTH_CAP)
        for depth in (QEXPR_DEPTH_CAP + 1, 3000):
            with pytest.raises(FormatError, match="nested deeper"):
                parse_qexpr(nested(depth))
