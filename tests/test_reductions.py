import random
from collections import Counter
from fractions import Fraction as F
from itertools import product as iproduct

import pytest

from homdens import density
from homdens.algebra import (
    IndAtom,
    PolyImage,
    QuantumGraph,
    Sum,
    Unlabel,
    expand,
    format_qexpr,
    ind_product,
    ind_terms,
    parse_qexpr,
    product,
    unlabel,
)
from homdens.density import WeightedGraph, compiled_density, density_polynomial, t, t_quantum
from homdens.errors import BudgetExceeded, FormatError
from homdens.graphs import (
    PLG,
    Graph,
    clique_blowup,
    enumerate_graphs,
    stringent_graph,
)
from homdens.polynomials import (
    Polynomial,
    calculus_q,
    counterexample_poly,
    goodman_g,
    tau,
)
from homdens.reductions import (
    TauCalculusPoly,
    build_counterexample,
    build_instance,
    exact_embeddings,
    is_exact_embedding,
    phi,
    psi_expr,
    psi_generator,
    resample_set,
    witness_eval,
    witness_graph,
)

from conftest import counterexample
from oracles import (
    TauPoly,
    alpha,
    blowup_block,
    brute_exact_embeddings,
    free_pairs,
    ind_sum,
    merged_monomial_terms,
    phi_monomial_expansion,
    plain_monomial_terms,
)

from functools import reduce

K1 = Graph.complete(1)
K2 = Graph.complete(2)
K3 = Graph.complete(3)
P3 = Graph.path(3)
H6 = stringent_graph(6)
XV6 = tuple(f"x{i}" for i in range(1, 7))


def xvar(name, vars):
    return Polynomial.variable(name, vars)


def random_graph(rng, n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph(n, edges)


def random_distribution(rng, n):
    cuts = sorted(rng.randint(0, 12) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(12 - prev)
    return [F(p, 12) for p in parts]


def targets_up_to(n):
    return [g for m in range(1, n + 1) for g in enumerate_graphs(m)]


def all_root_maps(k, g):
    for img in iproduct(range(g.n), repeat=k):
        yield {j + 1: img[j] for j in range(k)}


class TestExactEmbeddings:
    def test_stringent_self_embedding_is_identity_only(self):
        assert exact_embeddings(H6, H6) == [{j: j - 1 for j in range(1, 7)}]

    def test_edge_into_triangle(self):
        assert len(exact_embeddings(K2, K3)) == 6

    def test_blowup_embeddings_land_in_blocks(self):
        counts = (3, 1, 1, 1, 1, 1)
        maps = exact_embeddings(H6, clique_blowup(H6, counts))
        assert len(maps) == 3
        for m in maps:
            for j in range(1, 7):
                assert m[j] in blowup_block(counts, j - 1)

    def test_empty_pattern_and_empty_target(self):
        assert exact_embeddings(Graph(0), K3) == [{}]
        assert exact_embeddings(K2, Graph(0)) == []

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(40):
            h = random_graph(rng, rng.randint(1, 3))
            g = random_graph(rng, rng.randint(1, 4))
            got = {
                tuple(m[j] for j in range(1, h.n + 1)) for m in exact_embeddings(h, g)
            }
            assert got == set(brute_exact_embeddings(h, g))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            exact_embeddings(Graph(4), Graph(9), budget=10)

    def test_is_exact_embedding_checks_domain(self):
        with pytest.raises(ValueError):
            is_exact_embedding(K2, K3, {1: 0})
        assert is_exact_embedding(K2, K3, {1: 0, 2: 1})
        assert not is_exact_embedding(K2, K3, {1: 0, 2: 0})

    def test_resample_set(self):
        assert resample_set(K2, K3, {1: 0, 2: 1}, 1) == [0, 2]
        assert resample_set(K2, K3, {1: 0, 2: 1}, 2) == [1, 2]


class TestCloneConstruction:
    def test_clone_pair_shape(self):
        # one atom: the copy 3 of vertex 1 gets its neighborhood {0, 2},
        # and its pair to vertex 1 is free, neither edge nor non-edge
        atom = psi_generator(P3, 2, 1)
        assert atom.plg.n == 4
        assert atom.plg.graph.adj[3] == 0b101
        assert free_pairs(atom.rows) == {(1, 3)}
        assert atom.plg.label_map() == {1: 0, 2: 1, 3: 2}

    def test_deep_products_count_their_absent_pairs(self):
        """The glued trigraph of x1^m over H6 has 7 + 3m absent pairs: the 7
        non-edges of H6, and per copy of vertex 1 its 3 non-edges to the
        vertices outside N(1); its pairs to vertex 1 and to the other copies
        are free.  The budget refuses the expansion from that count."""
        for m in (1, 2, 3, 10, 100, 1000):
            with pytest.raises(BudgetExceeded, match=rf"needs 2\^{7 + 3 * m} terms"):
                expand(phi(H6, xvar("x1", ("x1",)) ** m), budget=1)

    def test_single_vertex_base_evaluates_to_one(self):
        expr = phi(K1, xvar("x1", ("x1",)))
        for g in (K1, K3, P3, Graph(2)):
            for w in range(g.n):
                assert t_quantum(expr, g, {1: w}) == 1

    def test_edge_base_at_triangle(self):
        expr = phi(K2, xvar("x1", ("x1", "x2")))
        assert t_quantum(expr, K3, {1: 0, 2: 1}) == F(2, 3)

    def test_rejects_foreign_variables(self):
        with pytest.raises(ValueError):
            phi(K2, xvar("z1", ("z1",)))

    def test_evaluation_is_linear(self):
        vars = ("x1", "x2")
        p1 = xvar("x1", vars) * 3
        p2 = xvar("x2", vars) * xvar("x1", vars)
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 4))
            ph = {1: rng.randrange(g.n), 2: rng.randrange(g.n)}
            lhs = t_quantum(phi(K2, p1 + p2), g, ph)
            assert lhs == t_quantum(phi(K2, p1), g, ph) + t_quantum(phi(K2, p2), g, ph)

    def test_evaluation_is_multiplicative(self):
        rng = random.Random(13)
        vars = ("x1", "x2", "x3")
        for _ in range(25):
            h = random_graph(rng, 3)
            p1 = xvar(rng.choice(vars), vars)
            p2 = xvar(rng.choice(vars), vars) + rng.randint(0, 2) * xvar("x2", vars)
            g = random_graph(rng, rng.randint(1, 4))
            ph = {j: rng.randrange(g.n) for j in (1, 2, 3)}
            lhs = t_quantum(phi(h, p1 * p2), g, ph)
            assert lhs == t_quantum(phi(h, p1), g, ph) * t_quantum(phi(h, p2), g, ph)

    def test_value_is_monomial_in_alphas_on_s_and_zero_off_s(self):
        # exhaustive: bases up to 3 vertices, monomials of degree <= 2,
        # targets up to 4 vertices, every root map
        for k in (1, 2, 3):
            vars = tuple(f"x{j}" for j in range(1, k + 1))
            monomials = [xvar(v, vars) for v in vars]
            monomials += [
                xvar(a, vars) * xvar(b, vars)
                for ai, a in enumerate(vars)
                for b in vars[ai:]
            ]
            for h in enumerate_graphs(k):
                exprs = [phi(h, m) for m in monomials]
                for g in targets_up_to(4):
                    for ph in all_root_maps(k, g):
                        if is_exact_embedding(h, g, ph):
                            alphas = {
                                v: alpha(h, g, ph, j + 1) for j, v in enumerate(vars)
                            }
                            expected = [m.evaluate(alphas) for m in monomials]
                        else:
                            expected = [F(0)] * len(monomials)
                        for expr, want in zip(exprs, expected):
                            assert t_quantum(expr, g, ph) == want


class TestAlpha:
    def test_triangle_example(self):
        assert alpha(K2, K3, {1: 0, 2: 1}, 1) == F(2, 3)

    def test_single_vertex_always_one(self):
        for g in (K1, K3, P3):
            for w in range(g.n):
                assert alpha(K1, g, {1: w}, 1) == 1

    def test_rejects_non_embeddings(self):
        with pytest.raises(ValueError):
            alpha(K2, K3, {1: 0, 2: 0}, 1)

    def test_agrees_with_clone_image_of_x_j(self):
        rng = random.Random(17)
        done = 0
        while done < 50:
            h = random_graph(rng, rng.randint(1, 3))
            g = random_graph(rng, rng.randint(1, 4))
            y = random_distribution(rng, g.n)
            G = WeightedGraph(g, y)
            maps = exact_embeddings(h, g)
            if not maps:
                continue
            ph = rng.choice(maps)
            j = rng.randint(1, h.n)
            vars = tuple(f"x{i}" for i in range(1, h.n + 1))
            expr = phi(h, xvar(f"x{j}", vars))
            assert alpha(h, G, ph, j) == t_quantum(expr, G, ph)
            done += 1


def counterexample_monomials():
    """The js of each monomial of counterexample_poly(6), one j per factor."""
    return [
        tuple(j for pos, e in enumerate(exps) for j in [pos + 1] * e)
        for exps in counterexample_poly(6).terms
    ]


def plain_expansion(h, js, labeled=True):
    return merged_monomial_terms(h, js, plain_monomial_terms(h, js), labeled)


def clone_trigraph(h, js):
    """The clone image of prod x_j as one trigraph (plg, free rows): the
    generators glued by `ind_product`, as `expand` glues them."""
    return reduce(ind_product, [(g.plg, g.rows) for g in (psi_generator(h, j, 1) for j in js)])


class TestMonomialExpansion:
    SMALL = [
        (K2, (1,)),
        (K2, (2,)),
        (K2, (1, 2)),
        (K2, (1, 1)),
        (Graph(2), (1, 2)),
        (P3, (1,)),
        (P3, (1, 3)),
        (P3, (2, 2)),
        (P3, (1, 2, 3)),
        (Graph(3, [(0, 1)]), (3, 3)),
    ]

    def test_matches_product_expansion(self):
        # the expanded product of the generators against the glued product
        # of the two-atom sums, labeled and unlabeled, and against the
        # plain enumeration
        for h, js in self.SMALL:
            glued = ind_sum(psi_generator(h, js[0], 1))
            for j in js[1:]:
                glued = product(glued, ind_sum(psi_generator(h, j, 1)))
            assert phi_monomial_expansion(h, js) == glued
            assert phi_monomial_expansion(h, js, False) == unlabel(glued, ())
        for h, js in self.SMALL + [(P3, (1, 1, 1)), (P3, (3, 1, 3)), (K2, (2, 2, 2, 2))]:
            for labeled in (True, False):
                assert phi_monomial_expansion(h, js, labeled) == plain_expansion(h, js, labeled)

    def test_without_repeats_yields_the_plain_terms(self):
        # with the base labeled and no repeated j there are no twins: the
        # weights are signs and the raw terms are the plain ones
        cases = [(H6, js) for js in ((2, 3, 4), (1, 2, 3), (6, 1))]
        cases += [(h, js) for h, js in self.SMALL if len(set(js)) == len(js)]
        for h, js in cases:
            mine = Counter(
                (raw.graph.edges, weight) for raw, weight in ind_terms(*clone_trigraph(h, js))
            )
            plain = Counter(
                (Graph(h.n + len(js), edges).edges, sign)
                for edges, sign in plain_monomial_terms(h, js)
            )
            assert mine == plain, (h, js)

    def test_repeats_on_h6_match_plain_enumeration(self):
        """The monomials of p with a repeated j, and a triple repeat, merged
        with the base labeled 1..6 and unlabeled.  Unlabeling is linear, so
        equal labeled expansions have equal unlabeled ones; the unlabeled
        merge of (2, 4, 4), 32768 plain terms, is left to that and to the
        pinned counterexample bytes, which the plain enumeration produced.
        (2, 3, 4) has no repeat and is compared term by term above."""
        cases = [js for js in counterexample_monomials() if len(set(js)) < len(js)]
        assert sorted(cases) == [(2, 2, 3), (2, 4, 4), (3, 3, 4)]
        for js in cases + [(2, 2, 2)]:
            assert phi_monomial_expansion(H6, js) == plain_expansion(H6, js)
            if js != (2, 4, 4):
                assert phi_monomial_expansion(H6, js, False) == plain_expansion(H6, js, False)

    def test_raw_term_counts(self):
        """The build's raw terms, from each monomial's unlabeled trigraph:
        one per copy-swap orbit, and the orbit sizes add up to the
        2^(free pairs) plain terms."""
        counts = {}
        for js in counterexample_monomials():
            plg, rows = clone_trigraph(H6, js)
            terms = list(ind_terms(plg.drop_labels(), rows))
            counts[js] = len(terms)
            assert sum(abs(w) for _, w in terms) == sum(1 for _ in plain_monomial_terms(H6, js))
        assert counts == {(2, 2, 3): 2560, (3, 3, 4): 3072, (2, 4, 4): 18432, (2, 3, 4): 8192}
        assert sum(counts.values()) == 32256

    def test_empty_monomial_is_the_unit(self):
        # a constant monomial maps to a multiple of the unit
        assert phi_monomial_expansion(K2, ()) == QuantumGraph.unit()
        assert expand(phi(K2, Polynomial.constant(3))) == 3


class TestCounterexample:
    def test_only_six_supported(self):
        with pytest.raises(ValueError):
            build_counterexample(4)

    def test_structured_form_round_trips(self):
        """The expression the build expands, the unlabeled clone image of p
        renamed to x1..x6, is 175 bytes of text that parse back to it."""
        p = Polynomial(tuple(f"x{j}" for j in range(1, 7)), counterexample_poly(6).terms)
        expr = Unlabel((), phi(H6, p))
        text = format_qexpr(expr)
        assert len(text) == 175
        assert parse_qexpr(text) == expr

    def test_each_raw_term_canonicalized_once(self, canonical_calls, canonical_tables):
        """32256 raw terms, one per copy-swap orbit, one canonical_form call
        each; the final normal form reuses the 11464 canonical keys.  The
        only other calls build the generator atoms of `phi`, one per
        variable x1..x6, on the O(n) route.  The raw terms are all
        distinct, so no form table is open: it would only hold memory."""
        x = build_counterexample(6)
        assert canonical_tables == [None] * len(canonical_calls)
        raw = [g for g in canonical_calls if not g.labels]
        assert len(raw) == 32256
        generators = [g for g in canonical_calls if g.labels]
        assert len(generators) == 6
        assert all(g.n == 7 and len(g.labels) == 6 for g in generators)
        assert len(x.terms) == 11464

    def test_terms_stay_small(self):
        x = counterexample()
        assert x.terms
        assert all(plg.n <= 9 for plg in x.terms)
        assert all(not plg.labels for plg in x.terms)

    def test_vanishes_on_single_vertex(self):
        assert t_quantum(counterexample(), K1) == 0

    def test_density_polynomial_at_base(self):
        got = density_polynomial(counterexample(), H6)
        yv = tuple(f"y{i}" for i in range(1, 7))
        want = counterexample_poly(6).in_vars(yv)
        for i in range(1, 7):
            want = want * Polynomial.variable(f"y{i}", yv)
        assert got == want

    def test_compiled_density_grows_its_search_across_targets(self):
        """Plans and trie nodes grown at K1 serve a weighted H6, which
        searches deeper, and both serve K1 and K2 again: each value equals
        a fresh t_quantum call."""
        x = counterexample()
        rng = random.Random(43)
        w = [rng.randint(1, 9) for _ in range(6)]
        G = WeightedGraph(H6, [F(v, sum(w)) for v in w])
        density = compiled_density(x)
        values = [density(target) for target in (K1, G, K1, K2)]
        assert values == [t_quantum(x, target) for target in (K1, G, K1, K2)]
        assert values[1] > 0

    def test_nonnegative_on_small_graphs(self):
        x = counterexample()
        for g in targets_up_to(3):
            assert t_quantum(x, g) >= 0


def wirings(h, j, m):
    """The 2^m plain atoms that the clique generator's free pairs stand
    for: H plus an m-clique joined to N(j), wired to j in every way."""
    k = h.n
    atoms = []
    for mask in range(1 << m):
        edges = list(h.edges)
        for a in range(m):
            edges.extend((u, k + a) for u in range(k) if h.adj[j - 1] >> u & 1)
            edges.extend((k + b, k + a) for b in range(a))
            if mask >> a & 1:
                edges.append((j - 1, k + a))
        atoms.append(IndAtom(PLG(Graph(k + m, edges), {i + 1: i for i in range(k)})))
    return atoms


class TestOneAtomGenerators:
    """Each generator is one atom with free pairs; the 2^m-atom clique sum
    it replaces, the two-atom clone sum at m = 1, is built here."""

    def generators(self, h):
        for j in range(1, h.n + 1):
            for m in (1, 2, 3):
                yield psi_generator(h, j, m), wirings(h, j, m)

    def test_small_bases_on_every_small_target(self):
        for h in (K2, P3):
            for atom, sum_of in self.generators(h):
                old = Sum(sum_of)
                for g in targets_up_to(4):
                    for ph in all_root_maps(h.n, g):
                        assert t_quantum(atom, g, ph) == t_quantum(old, g, ph), (atom, g, ph)
                assert expand(atom) == expand(old) == ind_sum(atom), atom

    def test_stringent_base(self):
        """H6 has no exact embedding into a graph with at most 4 vertices.
        Both sides are sums of nonnegative exact densities, so their
        uniform averages over all root maps, taken by Unlabel, are 0 only
        when each side is 0 at every root map.  Elsewhere they are compared
        at every root map into H6 that fixes all but one label, and at
        every exact embedding into two clique blow-ups.  Expansions are
        compared where the old sums stay small: the clone generators, and
        the clique generators of the degree-4 vertex 3 up to m = 2."""
        for atom, sum_of in self.generators(H6):
            for g in targets_up_to(4):
                assert t_quantum(Unlabel((), atom), g) == 0, (atom, g)
                assert t_quantum(Unlabel((), Sum(sum_of)), g) == 0, (atom, g)
        blowups = [clique_blowup(H6, (2, 1, 1, 1, 1, 1)), clique_blowup(H6, (1, 1, 2, 1, 2, 1))]
        near = []
        for j in range(1, 7):
            for w in range(6):
                ph = {i: i - 1 for i in range(1, 7)}
                ph[j] = w
                near.append(ph)
        for atom, sum_of in self.generators(H6):
            old = Sum(sum_of)
            for ph in near:
                assert t_quantum(atom, H6, ph) == t_quantum(old, H6, ph), (atom, ph)
            for g in blowups:
                for ph in exact_embeddings(H6, g):
                    assert t_quantum(atom, g, ph) == t_quantum(old, g, ph), (atom, ph)
        for j in range(1, 7):
            assert expand(psi_generator(H6, j, 1)) == expand(Sum(wirings(H6, j, 1)))
        for m in (1, 2):
            assert expand(psi_generator(H6, 3, m)) == expand(Sum(wirings(H6, 3, m)))


class TestCliqueGenerators:
    def test_generator_is_sum_over_wirings(self):
        for m in (1, 2, 3):
            gen = psi_generator(K2, 1, m)
            assert gen.plg.n == 2 + m
            assert free_pairs(gen.rows) == {(0, 2 + a) for a in range(m)}
            assert expand(gen) == expand(Sum(wirings(K2, 1, m)))

    def test_vertex_generator_example(self):
        assert t_quantum(psi_generator(K2, 1, 1), K3, {1: 0, 2: 1}) == F(2, 3)

    def test_edge_generator_example(self):
        # U_1 induces an edge: t(K2;U_1) * (2/3)^2 = (1/2)(4/9)
        assert t_quantum(psi_generator(K2, 1, 2), K3, {1: 0, 2: 1}) == F(2, 9)

    def test_zero_off_the_embedding_set(self):
        for m in (1, 2, 3):
            assert t_quantum(psi_generator(K2, 1, m), K3, {1: 0, 2: 0}) == 0

    def test_uniform_moment_identities(self):
        rng = random.Random(23)
        done = 0
        while done < 30:
            h = random_graph(rng, rng.randint(1, 3))
            g = random_graph(rng, rng.randint(1, 4))
            maps = exact_embeddings(h, g)
            if not maps:
                continue
            ph = rng.choice(maps)
            j = rng.randint(1, h.n)
            u = resample_set(h, g, ph, j)
            sub = g.induced(u)
            share = F(len(u), g.n)
            assert t_quantum(psi_generator(h, j, 1), g, ph) == share
            assert t_quantum(psi_generator(h, j, 2), g, ph) == t(K2, sub) * share**2
            assert t_quantum(psi_generator(h, j, 3), g, ph) == t(K3, sub) * share**3
            done += 1


class TestTauPolynomials:
    def test_rejects_constants_and_foreign_vars(self):
        with pytest.raises(ValueError):
            TauPoly(Polynomial.constant(2, ("x1",)), 1)
        with pytest.raises(ValueError):
            TauPoly(xvar("z1", ("z1",)), 1)
        with pytest.raises(ValueError):
            TauCalculusPoly(Polynomial.constant(1, ("x1",)), 1)
        with pytest.raises(ValueError):
            TauCalculusPoly(xvar("y1", ("y1",)), 1)

    def test_constant_term_is_zero(self):
        assert TauPoly(xvar("x1", ("x1",)), 1).constant_term() == 0
        assert TauCalculusPoly(xvar("x1", ("x1",)), 2).constant_term() == 0

    def test_taupoly_evaluate_matches_cleared_polynomial(self):
        rng = random.Random(31)
        vars2 = ("x1", "x2", "y1", "y2")
        q = (
            xvar("x1", vars2) * xvar("y2", vars2)
            + 2 * xvar("x2", vars2) ** 2
            - xvar("y1", vars2)
        )
        tp = TauPoly(q, 2)
        cleared = tp.as_polynomial()
        assert cleared == tau(q, k=2)
        for _ in range(40):
            point = {}
            for j in (1, 2):
                v = F(rng.randint(0, 4), rng.randint(1, 4))
                if v == 0:
                    e = tr = F(0)
                else:
                    e = F(rng.randint(0, 6), 7) * v**2
                    tr = F(rng.randint(0, 6), 7) * v**3
                point.update({f"v{j}": v, f"e{j}": e, f"t{j}": tr})
            assert tp.evaluate(point) == cleared.evaluate(point)

    def test_calculus_poly_structured_value_matches_expanded(self):
        rng = random.Random(37)
        vars2 = ("x1", "x2")
        p = 2 * xvar("x1", vars2) - 3 * xvar("x2", vars2) ** 2
        tp = TauCalculusPoly(p, 2)
        expanded = calculus_q(p)
        assert tp.degree == p.total_degree() + 12
        assert tp.as_polynomial() == tau(expanded, k=2)
        for _ in range(25):
            xs = [F(rng.randint(0, 9), 10) for _ in range(2)]
            ys = [F(rng.randint(0, 9), 10) for _ in range(2)]
            point = {f"x{j+1}": xs[j] for j in range(2)}
            point.update({f"y{j+1}": ys[j] for j in range(2)})
            assert tp.q_value(xs, ys) == expanded.evaluate(point)

    def test_penalty_vanishes_on_the_moment_curve(self):
        tp = TauCalculusPoly(1 - 2 * xvar("x1", XV6), 6)
        xs = [F(2, 3)] + [F(0)] * 5
        ys = [goodman_g(x) for x in xs]
        assert tp.q_value(xs, ys) == F(-1, 3) * F(1, 3) ** 6


class TestBuildInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            build_instance(Polynomial.constant(3, XV6))
        with pytest.raises(ValueError):
            build_instance(xvar("x1", XV6) * F(1, 2))

    def test_structure(self):
        inst = build_instance(1 - 2 * xvar("x1", XV6))
        assert isinstance(inst, Unlabel) and not inst.keep
        assert isinstance(inst.child, PolyImage)
        assert len(inst.child.generators) == 18

    def test_round_trip(self):
        inst = build_instance(1 - 2 * xvar("x1", XV6))
        text = format_qexpr(inst)
        assert parse_qexpr(text) == inst
        assert format_qexpr(parse_qexpr(text)) == text

    def test_phi_round_trip(self):
        vars3 = ("x1", "x2", "x3")
        expr = phi(P3, 2 * xvar("x1", vars3) - xvar("x3", vars3))
        text = format_qexpr(expr)
        assert parse_qexpr(text) == expr

    def test_malformed_head(self):
        with pytest.raises(FormatError):
            parse_qexpr("(psitau plg n=2 labels=1:1,2:2)")

    def test_pruning_binds_one_atom_per_core(self, monkeypatch):
        """Each of the 18 generators is one IndAtom, and all share the
        labeled core H6, so the Unlabel walks that core once as its label
        trigraph, finding its 3 exact embeddings in the flagship witness,
        and at each walks the 18 atoms' searches: 1 + 3 * 18 = 55 walks."""
        walks = [0]
        original = density._TermSearch.walk

        def counting(*args):
            walks[0] += 1
            return original(*args)

        monkeypatch.setattr(density._TermSearch, "walk", counting)
        p = 1 - 2 * xvar("x1", XV6)
        value = t_quantum(build_instance(p), witness_graph(p, (3, 1, 1, 1, 1, 1)))
        assert value == -F(3**105, 2**2016)
        assert walks[0] == 55

    def test_symbolic_density_is_a_clear_error(self):
        inst = build_instance(1 - 2 * xvar("x1", XV6))
        with pytest.raises(TypeError, match=r"use density_polynomial\(expand\(expr\)"):
            density_polynomial(inst, H6)


class TestWitnessGraph:
    def test_flagship_shape(self):
        g = witness_graph(1 - 2 * xvar("x1", XV6), (3, 1, 1, 1, 1, 1))
        assert g.n == 8
        assert len(g.edges) == len(H6.edges) + 3 + 2 * H6.adj[0].bit_count()

    def test_all_ones_gives_the_base(self):
        # needs a polynomial that is already negative at the origin
        assert witness_graph(2 * xvar("x1", XV6) - 1, (1,) * 6) == H6

    def test_rejects_nonnegative_grid_points(self):
        with pytest.raises(ValueError):
            witness_graph(xvar("x1", XV6), (3, 1, 1, 1, 1, 1))
        with pytest.raises(ValueError):
            witness_graph(1 - 2 * xvar("x1", XV6), (1, 1, 1, 1, 1, 2))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            witness_graph(1 - 2 * xvar("x1", XV6), (0, 1, 1, 1, 1, 1))


class TestWitnessEval:
    def test_flagship_negative_value(self):
        p = 1 - 2 * xvar("x1", XV6)
        inst = build_instance(p)
        g = witness_graph(p, (3, 1, 1, 1, 1, 1))
        value = witness_eval(inst, g)
        assert value == -F(3**105, 2**2016)
        # structural evaluation shares no code with the embedding-sum formula
        assert t_quantum(inst, g) == value

    def test_single_vertex_target(self):
        inst = build_instance(1 - 2 * xvar("x1", XV6))
        assert witness_eval(inst, K1) == 0
        assert witness_eval(inst, Graph(0)) == 0

    def test_zero_without_embeddings(self):
        inst = build_instance(xvar("x1", XV6))
        for g in targets_up_to(4):
            assert witness_eval(inst, g) == 0

    def test_small_cross_check(self):
        # k = 2 instance evaluated three ways: formula, expansion, structural
        q = xvar("x1", ("x1", "x2"))
        tp = TauPoly(q, 2)
        inner = psi_expr(K2, tp)
        inst = Unlabel((), inner)
        formula = witness_eval(inst, K3)
        expanded = expand(inner)
        by_expansion = sum(
            (t_quantum(expanded, K3, ph) for ph in all_root_maps(2, K3)),
            F(0),
        ) / F(9)
        assert formula == by_expansion == t_quantum(inst, K3)
        # six embeddings, each with x_1 = 1/2 and |U_1| = |U_2| = 2
        assert formula == F(1, 9) * 6 * F(1, 2) * F(2, 3) ** 6

    def test_rejects_plain_expressions(self):
        with pytest.raises(ValueError):
            witness_eval(phi(K1, xvar("x1", ("x1",))), K3)


class TestBlowupEmbeddingUniqueness:
    def test_embeddings_hit_each_block_once(self):
        def count_tuples(prefix, remaining):
            if len(prefix) == 6:
                yield prefix
                return
            for c in range(1, remaining + 1):
                yield from count_tuples(prefix + (c,), remaining // c)

        total = 0
        for counts in count_tuples((), 16):
            g = clique_blowup(H6, counts)
            maps = exact_embeddings(H6, g)
            expected = 1
            for c in counts:
                expected *= c
            assert len(maps) == expected
            for m in maps:
                for j in range(1, 7):
                    assert m[j] in blowup_block(counts, j - 1)
            total += 1
        assert total > 100
