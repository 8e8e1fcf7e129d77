import gc
import random
from fractions import Fraction as F
from itertools import combinations, permutations, product
from math import prod

import pytest

from homdens.algebra import (
    Atom,
    Const,
    IndAtom,
    PolyImage,
    Product,
    QuantumGraph,
    Sum,
    Unlabel,
    expand,
    ind,
    load_expression,
    parse_quantum,
    product as qproduct,
    unlabel as qunlabel,
)
from homdens import density
from homdens.density import (
    EXACT,
    HOM,
    WeightedGraph,
    compiled_density,
    density_polynomial,
    extensions,
    format_weighted_graph,
    parse_weighted_graph,
    t,
    t_ind,
    t_quantum,
    _TermSearch,
)
from homdens.errors import BudgetExceeded, CapExceeded, FormatError
from homdens.graphs import (
    Graph,
    PartiallyLabeledGraph as PLG,
    enumerate_graphs,
    format_plg,
    independent_blowup,
    stringent_graph,
)
from homdens.polynomials import Polynomial

from homdens.reductions import counterexample_expr, exact_embeddings, psi_generator

from conftest import counterexample
from oracles import (
    brute_density_polynomial,
    brute_ind_terms,
    brute_exact_embeddings,
    brute_rooted_t,
    brute_t,
    brute_t_ind,
    brute_t_inj,
    brute_weighted_t,
    check_tasym,
    hom_count,
    vertex_of,
    weighted,
)

K1 = Graph.complete(1)
K2 = Graph.complete(2)
K3 = Graph.complete(3)
P3 = Graph.path(3)
EDGE1 = PLG(K2, {1: 0})
TWO_EDGES = Graph(4, [(0, 1), (2, 3)])


def random_graph(rng, n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph(n, edges)


def random_plg(rng, max_n, labels=(1, 2)):
    n = rng.randint(1, max_n)
    g = random_graph(rng, n)
    chosen = [lab for lab in labels if rng.random() < 0.7]
    vertices = rng.sample(range(n), min(len(chosen), n))
    return PLG(g, dict(zip(chosen, vertices)))


def random_distribution(rng, n, denom=12):
    cuts = sorted(rng.randint(0, denom) for _ in range(n - 1))
    parts = [a - b for a, b in zip(cuts + [denom], [0] + cuts)]
    return [F(p, denom) for p in parts]


def random_weighted(rng, max_n):
    n = rng.randint(1, max_n)
    return WeightedGraph(random_graph(rng, n), random_distribution(rng, n))


class TestWeightedGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedGraph(K2, [F(1, 2)])
        with pytest.raises(ValueError):
            WeightedGraph(K2, [F(3, 4), F(3, 4)])
        with pytest.raises(ValueError):
            WeightedGraph(K2, [F(-1, 2), F(3, 2)])

    def test_uniform(self):
        """A plain graph target weighs every vertex 1/n."""
        for g in [K3, Graph.path(4), Graph(1)]:
            for h in [K1, K2, P3]:
                assert t_quantum(h, g) == t_quantum(h, WeightedGraph(g, [F(1, g.n)] * g.n))
        assert t_quantum(K2, Graph(0)) == t_quantum(K2, WeightedGraph(Graph(0), []))

    def test_other_targets_are_refused(self):
        for target in ("K2", PLG(K2), None):
            with pytest.raises(TypeError, match=f"^expected a graph or weighted graph, got {type(target).__name__}$"):
                t_quantum(K2, target)

    def test_immutable(self):
        G = WeightedGraph(K2, [F(1, 2)] * 2)
        with pytest.raises(AttributeError):
            G.y = ()


class TestHomCount:
    def test_edge_into_triangle(self):
        assert hom_count(K2, K3) == 6

    def test_single_vertex_counts_target(self):
        for g in [K1, K3, Graph.path(4), Graph(5)]:
            assert hom_count(K1, g) == g.n

    def test_triangle_into_edge(self):
        assert hom_count(K3, K2) == 0

    def test_against_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            h = random_graph(rng, rng.randint(0, 3))
            g = random_graph(rng, rng.randint(0, 4))
            expected = sum(
                1
                for phi in _all_maps(h.n, g.n)
                if all(g.adj[phi[u]] >> phi[v] & 1 for u, v in h.edges)
            )
            assert hom_count(h, g) == expected


def _all_maps(n, m):
    if n == 0:
        return [()]
    if m == 0:
        return []
    out = [()]
    for _ in range(n):
        out = [p + (v,) for p in out for v in range(m)]
    return out


class TestBasicDensities:
    def test_edge_triangle_values(self):
        assert t(K2, K3) == F(2, 3)
        assert t_ind(K2, K3) == F(2, 3)
        assert t_ind(Graph(2), K3) == F(1, 3)

    def test_two_vertex_patterns_partition(self):
        for g in enumerate_graphs(4):
            assert t_ind(K2, g) + t_ind(Graph(2), g) == 1

    def test_empty_pattern(self):
        assert t(Graph(0), K3) == 1
        assert t(Graph(0), Graph(0)) == 1
        assert t(K2, Graph(0)) == 0

    def test_labeled_pattern_is_refused(self):
        with pytest.raises(ValueError, match="expected an unlabeled graph"):
            t(PLG(K2, {1: 0}), K3)

    def test_path_in_edge(self):
        assert t(P3, K2) == F(1, 4)

    def test_against_oracles(self):
        rng = random.Random(23)
        cases = [(h, g) for h in enumerate_graphs(3) for g in enumerate_graphs(4)]
        cases += [
            (random_graph(rng, rng.randint(1, 4)), random_graph(rng, 5))
            for _ in range(20)
        ]
        for h, g in cases:
            assert t(h, g) == brute_t(h, g)
            assert t_ind(h, g) == brute_t_ind(h, g)


class TestRooted:
    def test_edge_rooted_at_triangle(self):
        assert t_quantum(EDGE1, K3, {1: 0}) == F(2, 3)

    def test_fully_labeled_indicator(self):
        full = PLG(K2, {1: 0, 2: 1})
        assert t_quantum(full, K3, {1: 0, 2: 1}) == 1
        assert t_quantum(full, K3, {1: 0, 2: 0}) == 0

    def test_weighted_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            h = random_plg(rng, 3)
            G = random_weighted(rng, 4)
            phi = {lab: rng.randrange(G.graph.n) for lab in h.label_set()}
            pinned = {vertex_of(h, lab): v for lab, v in phi.items()}
            assert t_quantum(h, G, phi) == brute_rooted_t(h, G.graph, pinned, G.y)

    def test_violated_root_edge_is_zero(self):
        full = PLG(P3, {1: 0, 2: 1, 3: 2})
        assert t_quantum(full, Graph(3, [(0, 1)]), {1: 0, 2: 1, 3: 2}) == 0


class TestQuantum:
    def test_goodman_form_tight_at_triangle(self):
        # Goodman's bound is tight exactly at complete graphs, so the value
        # here is 0: 2/9 - 2*(4/9) + 2/3.
        f = QuantumGraph.of(K3) - 2 * QuantumGraph.of(TWO_EDGES) + QuantumGraph.of(K2)
        assert t_quantum(f, K3) == 0
        assert (
            brute_t(K3, K3) - 2 * brute_t(K2, K3) ** 2 + brute_t(K2, K3) == 0
        )

    def test_goodman_nonnegative_small(self):
        f = QuantumGraph.of(K3) - 2 * QuantumGraph.of(TWO_EDGES) + QuantumGraph.of(K2)
        for g in enumerate_graphs(5):
            assert t_quantum(f, g) >= 0

    def test_linearity(self):
        rng = random.Random(5)
        for _ in range(20):
            a = QuantumGraph.of(random_graph(rng, 3))
            b = QuantumGraph.of(random_graph(rng, 3))
            G = random_weighted(rng, 4)
            c = F(rng.randint(-3, 3), rng.randint(1, 4))
            assert t_quantum(a + c * b, G) == t_quantum(a, G) + c * t_quantum(b, G)

    def test_label_coverage_required(self):
        with pytest.raises(ValueError):
            t_quantum(QuantumGraph.of(EDGE1), K3, {})

    def test_ind_nonedge_at_adjacent_roots(self):
        ne = PLG(Graph(2), {1: 0, 2: 1})
        assert t_quantum(ind(ne), K3, {1: 0, 2: 1}) == 0
        assert t_quantum(ind(ne), K3, {1: 0, 2: 0}) == 1

    def test_multiplicativity_exhaustive_small(self):
        plgs = _plgs_with_labels(3, (1, 2))
        targets = enumerate_graphs(3)
        for h1 in plgs:
            for h2 in plgs:
                prod = qproduct(QuantumGraph.of(h1), QuantumGraph.of(h2))
                for g in targets:
                    if g.n == 0:
                        continue
                    for phi in _all_root_maps((1, 2), g.n):
                        lhs = t_quantum(prod, g, phi)
                        rhs = t_quantum(QuantumGraph.of(h1), g, phi) * t_quantum(
                            QuantumGraph.of(h2), g, phi
                        )
                        assert lhs == rhs

    def test_multiplicativity_random_larger(self):
        rng = random.Random(41)
        for _ in range(120):
            h1 = random_plg(rng, 4)
            h2 = random_plg(rng, 4)
            G = random_weighted(rng, 4)
            labels = h1.label_set() | h2.label_set()
            phi = {lab: rng.randrange(G.graph.n) for lab in labels}
            prod = qproduct(QuantumGraph.of(h1), QuantumGraph.of(h2))
            assert t_quantum(prod, G, phi) == t_quantum(
                QuantumGraph.of(h1), G, phi
            ) * t_quantum(QuantumGraph.of(h2), G, phi)


def _plgs_with_labels(max_n, labels):
    seen = {}
    for n in range(1, max_n + 1):
        for g in enumerate_graphs(n):
            for count in range(min(len(labels), n) + 1):
                for chosen in combinations(labels, count):
                    for verts in permutations(range(n), count):
                        plg = PLG(g, dict(zip(chosen, verts)))
                        seen[plg.canonical()] = plg
    return list(seen.values())


def _all_root_maps(labels, n):
    maps = [{}]
    for lab in labels:
        maps = [{**m, lab: v} for m in maps for v in range(n)]
    return maps


# Patterns and targets for the kernel check: every graph with at most 4
# vertices, plus a disconnected pattern whose free vertices split into two
# components once its labeled vertices are pinned, and a star whose plan
# ends in a tail of three leaves.
SMALL = [g for n in range(5) for g in enumerate_graphs(n)]
SPLIT = PLG(TWO_EDGES, {1: 0, 2: 2})
STAR = Graph(4, [(0, 1), (0, 2), (0, 3)])


def _labelings(h):
    """h unlabeled, with each one of its vertices labeled, and with its
    first and last vertices labeled."""
    out = [PLG(h)] + [PLG(h, {1: v}) for v in range(h.n)]
    if h.n > 1:
        out.append(PLG(h, {1: 0, 2: h.n - 1}))
    return out


def _grown_split(pattern, pinned):
    """(start, tail, stop) positions of each component of the fully grown
    search orders, numbered as one search order."""
    search = _TermSearch([(F(1), pattern, pinned)], HOM)
    search.keys = [None] * len(search.state)  # as a walk grows them
    out, start = [], 0
    for c in range(len(search.state)):
        tail = 0
        while not isinstance(codes := search._grow(c, tail), list):
            tail += 1
        out.append((start, start + tail, start + tail + len(codes)))
        start += tail + len(codes)
    return out


@pytest.mark.parametrize(
    "mode", ["t", "t_ind", "t_quantum", "exact_embeddings", "density_polynomial"]
)
def test_kernel_modes_against_oracles(mode):
    assert _grown_split(SPLIT.graph, {0: 0, 2: 0}) == [(0, 0, 1), (1, 1, 2)]
    assert _grown_split(STAR, {}) == [(0, 1, 4)]
    rng = random.Random(61)
    for g in SMALL:
        y = random_distribution(rng, g.n) if g.n else []
        point = {f"y{i + 1}": y[i] for i in range(g.n)}
        for h in SMALL + [STAR]:
            if mode == "t":
                assert t(h, g) == brute_t(h, g)
            elif mode == "t_ind":
                assert t_ind(h, g) == brute_t_ind(h, g)
            elif mode == "exact_embeddings":
                got = [tuple(m[j] for j in range(1, h.n + 1)) for m in exact_embeddings(h, g)]
                assert got == sorted(brute_exact_embeddings(h, g))
            elif g.n:
                for plg in _labelings(h) + [SPLIT]:
                    for phi in _all_root_maps(sorted(plg.label_set()), g.n):
                        pinned = {vertex_of(plg, lab): v for lab, v in phi.items()}
                        want = brute_rooted_t(plg, g, pinned, y)
                        if mode == "t_quantum":
                            assert t_quantum(plg, WeightedGraph(g, y), phi) == want
                        else:
                            # A term list keeps the isolated vertices that the
                            # normal form of plg drops.
                            listed = density_polynomial(((plg, F(1)),), g, phi)
                            assert listed.terms == brute_density_polynomial(plg, g, phi)
                            assert density_polynomial(plg, g, phi).evaluate(point) == want


class TestBlowupExactness:
    def test_matches_weighted_density(self):
        rng = random.Random(13)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 3))
            counts = tuple(rng.randint(1, 3) for _ in range(g.n))
            total = sum(counts)
            y = [F(c, total) for c in counts]
            big = independent_blowup(g, counts)
            G = WeightedGraph(g, y)
            for h in [K2, K3, P3]:
                assert t(h, big) == t_quantum(QuantumGraph.of(h), G)
                assert t(h, big) == brute_weighted_t(h, g, y)


class TestMobiusDensityIdentities:
    def test_partial_order_and_mobius(self):
        # t(H; g) equals the sum of exact-pattern densities over supergraphs
        # of H on the same vertex set, and the alternating inverse recovers
        # t_ind from t.
        for h in enumerate_graphs(4):
            supers = _supergraphs(h)
            for g in enumerate_graphs(5):
                assert t(h, g) == sum(t_ind(f, g) for f in supers)
                assert t_ind(h, g) == sum(
                    (-1) ** (len(f.edges) - len(h.edges)) * t(f, g) for f in supers
                )


def _supergraphs(h):
    missing = [
        (i, j)
        for i in range(h.n)
        for j in range(i + 1, h.n)
        if not h.adj[i] >> j & 1
    ]
    out = []
    for mask in range(1 << len(missing)):
        extra = [missing[i] for i in range(len(missing)) if mask >> i & 1]
        out.append(Graph(h.n, list(h.edges) + extra))
    return out


class TestUnlabelExpectationLaw:
    def test_law_random(self):
        rng = random.Random(17)
        for _ in range(25):
            h1 = random_plg(rng, 3, labels=(1, 2, 3))
            h2 = random_plg(rng, 3, labels=(1, 2, 3))
            f = QuantumGraph.of(h1) + F(1, 2) * QuantumGraph.of(h2)
            labels = sorted(f.label_set())
            keep = frozenset(lab for lab in labels if rng.random() < 0.5)
            G = random_weighted(rng, 4)
            phi = {lab: rng.randrange(G.graph.n) for lab in keep}
            lhs = t_quantum(qunlabel(f, keep), G, phi)
            free = [lab for lab in labels if lab not in keep]
            rhs = F(0)
            for images in _all_maps(len(free), G.graph.n):
                psi = dict(phi)
                weight = F(1)
                for lab, v in zip(free, images):
                    psi[lab] = v
                    weight *= G.y[v]
                rhs += weight * t_quantum(f, G, psi)
            assert lhs == rhs

    def test_structured_unlabel_matches(self):
        rng = random.Random(19)
        for _ in range(25):
            h = random_plg(rng, 3, labels=(1, 2))
            expr = Unlabel(frozenset({1}), Atom(h))
            G = random_weighted(rng, 4)
            phi = {1: rng.randrange(G.graph.n)} if 1 in h.label_set() else {}
            assert t_quantum(expr, G, phi) == t_quantum(expand(expr), G, phi)


class TestStructuredEvaluation:
    def test_structured_vs_expanded_random(self):
        rng = random.Random(101)
        for _ in range(100):
            expr = _random_expr(rng, depth=2)
            G = random_weighted(rng, 4)
            phi = {lab: rng.randrange(G.graph.n) for lab in expr.label_set()}
            assert t_quantum(expr, G, phi) == t_quantum(expand(expr), G, phi)

    def test_indatom_matches_ind_expansion(self):
        rng = random.Random(103)
        for _ in range(40):
            h = random_plg(rng, 3)
            G = random_weighted(rng, 4)
            phi = {lab: rng.randrange(G.graph.n) for lab in h.label_set()}
            assert t_quantum(IndAtom(h), G, phi) == t_quantum(ind(h), G, phi)

    def test_unlabel_cap(self):
        h = PLG(Graph(9), {i: i - 1 for i in range(1, 10)})
        expr = Unlabel(frozenset(), Atom(h))
        with pytest.raises(CapExceeded):
            t_quantum(expr, K3)

    def test_polyimage_evaluation(self):
        poly = Polynomial.variable("x1") ** 2 - Polynomial.variable("x1")
        expr = Unlabel(frozenset(), PolyImage({"x1": Atom(EDGE1)}, poly))
        assert t_quantum(expr, K3) == t_quantum(expand(expr), K3)


def _trigraph_targets():
    """Every graph with at most 3 vertices, the empty one included, and
    weighted targets whose weights vanish on some vertices."""
    targets = [Graph(0)] + [g for n in range(1, 4) for g in enumerate_graphs(n)]
    targets += [
        WeightedGraph(P3, [F(1, 2), F(0), F(1, 2)]),
        WeightedGraph(K3, [F(0), F(1, 3), F(2, 3)]),
        WeightedGraph(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)]), [F(1, 4), F(0), F(1, 4), F(1, 2)]),
    ]
    return targets


class TestUnlabelTrigraph:
    """An Unlabel walks only the label maps that its child's label
    trigraph allows; each rule that builds the trigraph must keep every
    map at which the child is nonzero, so the walk agrees with the
    expansion on every target."""

    EDGE12 = Atom(PLG(K2, {1: 0, 2: 1}))
    NONEDGE12 = IndAtom(PLG(Graph(2), {1: 0, 2: 1}))
    EDGE23 = IndAtom(PLG(K2, {2: 0, 3: 1}))
    PATH123 = IndAtom(PLG(P3, {1: 0, 2: 1, 3: 2}))

    def _agrees(self, expr, keep=()):
        """Unlabel(keep, expr) against its expansion, on every target and,
        with kept labels, under every root map of them."""
        keep = sorted(keep)
        node = Unlabel(frozenset(keep), expr)
        want = expand(node)
        for G in _trigraph_targets():
            n = (G if isinstance(G, Graph) else G.graph).n
            for images in _all_maps(len(keep), n) if keep else [()]:
                phi = dict(zip(keep, images))
                assert t_quantum(node, G, phi) == t_quantum(want, G, phi), (expr, G, phi)

    def test_atoms_force_only_their_labeled_pairs(self):
        """An atom's labeled non-edge and an ind atom's free pair between
        two labels leave the pair unforced."""
        self._agrees(Atom(PLG(P3, {1: 0, 2: 2})))
        self._agrees(Atom(PLG(P3, {1: 0, 2: 2})), keep=(1,))
        free = IndAtom(PLG(Graph(3, [(0, 2)]), {1: 0, 2: 1}), free=[(0, 1)])
        self._agrees(free)
        self._agrees(Product([free, self.EDGE23]), keep=(2,))

    def test_product_of_disagreeing_factors_is_zero(self, monkeypatch):
        """No label map satisfies both factors, so no walk runs."""
        walks = []
        monkeypatch.setattr(density, "_walk_extensions", lambda *args, **kw: walks.append(args) or [])
        expr = Product([self.EDGE12, self.NONEDGE12])
        assert expand(expr) == 0
        for G in _trigraph_targets():
            assert t_quantum(Unlabel((), expr), G) == 0
        for g in enumerate_graphs(3):
            assert t_quantum(Unlabel((2,), Product([Const(3), expr])), g, {2: 0}) == 0
        assert walks == []
        monkeypatch.undo()
        self._agrees(Product([self.EDGE12, self.EDGE23]))

    def test_sum_forces_only_the_pairs_its_children_agree_on(self):
        self._agrees(Sum([self.EDGE12, self.NONEDGE12]))
        self._agrees(Sum([Product([self.EDGE12, self.EDGE23]), self.PATH123]))
        self._agrees(Sum([self.PATH123, Product([Const(0), self.EDGE12])]))

    @pytest.mark.parametrize("constant", [0, 1])
    def test_polyimage_constant_term(self, constant):
        x1, x2 = Polynomial.variable("x1", ("x1", "x2")), Polynomial.variable("x2", ("x1", "x2"))
        poly = x1 * x2 - 2 * x1 + constant
        gens = {"x1": self.PATH123, "x2": Product([self.EDGE12, self.EDGE23])}
        self._agrees(PolyImage(gens, poly))
        self._agrees(PolyImage(gens, poly), keep=(2,))

    def test_free_pair_generators(self):
        for base in (K2, P3):
            gens = [psi_generator(base, j, m) for j in range(1, base.n + 1) for m in (1, 2)]
            for gen in gens:
                assert any(gen.rows)
                self._agrees(gen)
            self._agrees(Product(gens[:2]))
            self._agrees(Sum(gens[-2:]), keep=(1,))

    def test_nested_unlabel_with_pinned_labels(self):
        inner = Unlabel(frozenset({1, 2}), Product([self.PATH123, self.EDGE12]))
        self._agrees(Product([inner, self.NONEDGE12]))
        self._agrees(Product([inner, Atom(PLG(K2, {2: 0, 4: 1}))]), keep=(2,))
        self._agrees(Sum([inner, self.EDGE23]), keep=(1, 3))


class TestSearchesServeEveryRootMap:
    """An evaluation keeps one search per Unlabel node and per distinct
    atom, keyed by label rather than by image, so one `walks` dict serves
    every root map and target."""

    FREE = IndAtom(PLG(Graph(3, [(0, 2)]), {1: 0, 2: 1}), free=[(0, 1)])
    # FREE with its vertices permuted: a distinct object, equal to FREE.
    FREE_AGAIN = IndAtom(PLG(Graph(3, [(0, 1)]), {1: 1, 2: 2}), free=[(1, 2)])

    def _agrees(self, node):
        """Evaluate node through one `walks` dict at every root map of
        every target, against a fresh evaluation and the expansion, and
        return the dict."""
        labels, want, walks = sorted(node.label_set()), expand(node), {}
        for G in _trigraph_targets():
            graph, weights = density._read_target(node, G)
            for images in _all_maps(len(labels), graph.n):
                phi = dict(zip(labels, images))
                got = density._eval_expr(node, graph, weights, phi, walks)
                assert got == t_quantum(node, G, phi) == t_quantum(want, G, phi), (node, G, phi)
        return walks

    def test_atoms(self):
        walks = self._agrees(Atom(PLG(P3, {1: 0, 2: 2})))
        assert len(walks) == 1
        for gen in [self.FREE] + [psi_generator(P3, j, m) for j in (1, 3) for m in (1, 2)]:
            assert any(gen.rows)
            self._agrees(gen)

    def test_equal_atoms_share_one_search(self):
        path, path_again = Atom(PLG(P3, {1: 0, 2: 2})), Atom(PLG(P3, {2: 0, 1: 2}))
        for a, b in [(path, path_again), (self.FREE, self.FREE_AGAIN)]:
            assert a is not b and a == b
            assert list(self._agrees(Product([a, b]))) == [a]

    def test_unlabel_nodes_that_keep_labels(self):
        path123 = IndAtom(PLG(P3, {1: 0, 2: 1, 3: 2}))
        edge12, edge23 = Atom(PLG(K2, {1: 0, 2: 1})), IndAtom(PLG(K2, {2: 0, 3: 1}))
        inner = Unlabel(frozenset({1, 2}), Product([path123, edge12]))
        for node in [
            Unlabel(frozenset({1}), Product([path123, edge12])),
            Unlabel(frozenset({2}), Product([self.FREE, edge23])),
            Unlabel(frozenset({1, 3}), Sum([inner, edge23])),
            Unlabel(frozenset({1}), Sum([psi_generator(P3, 1, 2), psi_generator(P3, 2, 1)])),
        ]:
            walks = self._agrees(node)
            assert id(node) in walks


def _random_expr(rng, depth):
    if depth == 0:
        kind = rng.randrange(3)
        if kind == 0:
            return Const(F(rng.randint(-2, 2), rng.randint(1, 3)))
        if kind == 1:
            return Atom(random_plg(rng, 3))
        return IndAtom(random_plg(rng, 2))
    kind = rng.randrange(4)
    if kind == 0:
        return Sum([_random_expr(rng, depth - 1) for _ in range(2)])
    if kind == 1:
        return Product([_random_expr(rng, depth - 1) for _ in range(2)])
    if kind == 2:
        child = _random_expr(rng, depth - 1)
        keep = frozenset(lab for lab in child.label_set() if rng.random() < 0.5)
        return Unlabel(keep, child)
    poly = Polynomial(
        ("x1",), {(2,): F(rng.randint(1, 2)), (1,): F(rng.randint(-2, 0)), (0,): F(1)}
    )
    return PolyImage({"x1": _random_expr(rng, depth - 1)}, poly)


class TestDensityPolynomial:
    def test_edge_in_edge(self):
        p = density_polynomial(QuantumGraph.of(K2), K2)
        y1 = Polynomial.variable("y1", ("y1", "y2"))
        y2 = Polynomial.variable("y2", ("y1", "y2"))
        assert p == 2 * y1 * y2

    def test_unit_is_one(self):
        p = density_polynomial(QuantumGraph.unit(), K3)
        assert p == Polynomial.constant(1, ("y1", "y2", "y3"))

    def test_fully_labeled_square(self):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(1, 3)
            g0 = random_graph(rng, n)
            f0 = QuantumGraph.of(PLG(g0, {i + 1: i for i in range(n)}))
            coeff = F(rng.randint(-2, 2), rng.randint(1, 3))
            h0 = random_graph(rng, n)
            f0 = f0 + coeff * QuantumGraph.of(PLG(h0, {i + 1: i for i in range(n)}))
            g = random_graph(rng, rng.randint(1, 4))
            phi = {i + 1: rng.randrange(g.n) for i in range(n)}
            base = density_polynomial(f0, g, phi)
            square = density_polynomial(qproduct(f0, f0), g, phi)
            assert square == base * base

    def test_matches_evaluation(self):
        rng = random.Random(37)
        for _ in range(25):
            h = random_plg(rng, 3)
            g = random_graph(rng, rng.randint(1, 4))
            phi = {lab: rng.randrange(g.n) for lab in h.label_set()}
            p = density_polynomial(QuantumGraph.of(h), g, phi)
            y = random_distribution(rng, g.n)
            point = {f"y{i + 1}": y[i] for i in range(g.n)}
            assert p.evaluate(point) == t_quantum(
                QuantumGraph.of(h), WeightedGraph(g, y), phi
            )

    def test_structured_and_expanded_routes_agree_on_the_simplex(self):
        """A tree's polynomial, read without expansion, and its expansion's
        polynomial both equal t_quantum of the tree at seeded points of the
        simplex y1 + ... + yn = 1.  As polynomials they may differ, since a
        normal form strips isolated vertices, and some of these trees do.
        The empty target reads both as the constant of the value at K1."""
        rng = random.Random(43)
        differ = 0
        for trial in range(150):
            expr = _random_expr(rng, depth=1 + trial % 2)
            g = random_graph(rng, rng.randint(1, 3))
            phi = {lab: rng.randrange(g.n) for lab in expr.label_set()}
            p, q = density_polynomial(expr, g, phi), density_polynomial(expand(expr), g, phi)
            differ += p != q
            for _ in range(3):
                y = random_distribution(rng, g.n)
                point = {f"y{i + 1}": y[i] for i in range(g.n)}
                assert p.evaluate(point) == q.evaluate(point) == t_quantum(expr, WeightedGraph(g, y), phi)
            closed = Unlabel(frozenset(), expr)
            empty = density_polynomial(closed, Graph(0))
            assert empty == density_polynomial(expand(closed), Graph(0)) == t_quantum(closed, Graph(0))
            assert empty.vars == ()
        assert 0 < differ < 150

    def test_one_atom_trees_match_brute_force(self):
        """An atom, ind or not, is the polynomial of its one-term list,
        isolated vertices included, as the brute force counts it."""
        rng = random.Random(47)
        for _ in range(30):
            h = random_plg(rng, 3)
            g = random_graph(rng, rng.randint(1, 3))
            phi = {lab: rng.randrange(g.n) for lab in h.label_set()}
            assert density_polynomial(Atom(h), g, phi).terms == brute_density_polynomial(h, g, phi)
            atom = IndAtom(h)
            raw = tuple((plg, F(sign)) for plg, sign in brute_ind_terms(atom))
            assert density_polynomial(atom, g, phi).terms == _brute_terms(raw, g, phi)

    def test_generator_free_pairs_match_brute_force(self):
        """A clique-construction generator leaves its free pairs
        unconstrained in its polynomial too."""
        for j, m in ((1, 1), (2, 2), (3, 1)):
            atom = psi_generator(P3, j, m)
            raw = tuple((plg, F(sign)) for plg, sign in brute_ind_terms(atom))
            for phi in _all_root_maps([1, 2, 3], 3):
                assert density_polynomial(atom, P3, phi).terms == _brute_terms(raw, P3, phi)


def _star(leaves):
    """K_{1,leaves} with its centre, vertex 0, labeled 1."""
    return PLG(Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)]), {1: 0})


def _brute_terms(terms, g, phi):
    """The terms of a term list's density polynomial, summed from the
    brute-force terms of each record."""
    total = {}
    for plg, coeff in terms:
        for exps, k in brute_density_polynomial(plg, g, phi).items():
            total[exps] = total.get(exps, 0) + coeff * k
    return {exps: c for exps, c in total.items() if c}


class TestPackedMonomials:
    """A monomial is one int with a field of exponent bits per target
    vertex, wide enough for the search's deepest term."""

    @pytest.mark.parametrize("leaves", [7, 8])
    def test_star_fills_its_exponent_field(self, leaves):
        """7 free leaves fill a 3-bit field and 8 need a 4-bit one."""
        star = _star(leaves)
        assert density_polynomial(star, K2, {1: 0}).terms == {(0, leaves): 1}
        assert density_polynomial(star, K2, {1: 1}).terms == {(leaves, 0): 1}

    def test_shallow_and_deep_terms_in_one_list(self):
        """A depth-2 term and a depth-8 term share the deep term's field."""
        terms = ((PLG(K2), F(3)), (_star(8), F(-1, 2)))
        for phi in ({1: 0}, {1: 1}):
            poly = density_polynomial(terms, P3, phi)
            assert poly.terms == _brute_terms(terms, P3, phi)
        assert poly.terms[4, 0, 4] == -35

    def test_terms_of_several_components(self):
        rng = random.Random(2051)
        split = PLG(Graph(6, [(0, 1), (1, 2), (3, 4)]))  # P3, K2 and a vertex
        terms = (
            (PLG(TWO_EDGES), F(2)),
            (split, F(-1, 3)),
            (_relabeled(rng, split), F(1, 4)),
            (SPLIT, F(5)),
            (PLG(Graph(5, [(0, 1), (2, 3), (3, 4)]), {1: 3}), F(-2)),
        )
        for g in (K2, P3, K3):
            for phi in _all_root_maps([1, 2], g.n):
                assert density_polynomial(terms, g, phi).terms == _brute_terms(terms, g, phi)

    def test_coefficients_cancel_on_a_monomial(self):
        """1/2, 1/3 and -5/6 share the denominator 6; y2 cancels across
        leaf groups, and no zero coefficient is kept."""
        terms = (
            (PLG(K2, {1: 0}), F(1, 2)),
            (PLG(Graph(2), {1: 0}), F(1, 3)),
            (PLG(Graph(2), {1: 1}), F(-5, 6)),
        )
        poly = density_polynomial(terms, K2, {1: 0})
        assert poly.terms == {(1, 0): F(-1, 2)} == _brute_terms(terms, K2, {1: 0})
        same = ((PLG(P3), F(1, 2)), (PLG(P3), F(1, 3)), (PLG(P3), F(-5, 6)))
        assert density_polynomial(same, K3).terms == {}

    def test_eleven_vertex_target(self):
        """y10 and y11 come out in the natural variable order."""
        g = Graph.path(11)
        terms = ((PLG(K2), F(1)), (PLG(Graph(3, [(0, 1), (0, 2)]), {1: 0}), F(1, 2)))
        poly = density_polynomial(terms, g, {1: 10})
        assert poly.vars == tuple(f"y{i}" for i in range(1, 12))
        assert poly.terms == _brute_terms(terms, g, {1: 10})
        assert poly.terms[(0,) * 9 + (1, 1)] == 2
        assert poly.terms[(0,) * 9 + (2, 0)] == F(1, 2)


class TestCauchySchwarzNumeric:
    def test_nonnegative_at_random_distributions(self):
        rng = random.Random(53)
        checked = 0
        while checked < 100:
            h1 = random_plg(rng, 3, labels=(1, 2))
            h2 = random_plg(rng, 3, labels=(1, 2))
            if h1.label_set() != h2.label_set():
                continue
            f1 = QuantumGraph.of(h1) - F(1, 2) * QuantumGraph.unit()
            f2 = QuantumGraph.of(h2)
            keep = frozenset(
                lab for lab in sorted(h1.label_set()) if rng.random() < 0.5
            )
            a = qproduct(
                qunlabel(qproduct(f1, f1), keep), qunlabel(qproduct(f2, f2), keep)
            )
            b = qunlabel(qproduct(f1, f2), keep)
            gap = a - qproduct(b, b)
            g = random_graph(rng, rng.randint(1, 4))
            phi = {lab: rng.randrange(g.n) for lab in keep}
            p = density_polynomial(gap, g, phi)
            y = random_distribution(rng, g.n)
            value = p.evaluate({f"y{i + 1}": y[i] for i in range(g.n)})
            assert value >= 0
            checked += 1


class TestTasym:
    def test_tight_example(self):
        assert abs(t(K2, K3) - brute_t_inj(K2, K3)) == F(1, 3)
        assert check_tasym(K2, K3)

    def test_empty_pattern(self):
        assert check_tasym(Graph(0), K3)

    def test_exhaustive_small(self):
        for h in enumerate_graphs(4):
            for g in enumerate_graphs(6):
                assert check_tasym(h, g)


class TestWeightedGraphFormat:
    def test_round_trip(self):
        G = WeightedGraph(Graph(3, [(0, 1), (1, 2)]), [F(1, 2), F(1, 3), F(1, 6)])
        assert parse_weighted_graph(format_weighted_graph(G)) == G

    def test_default_uniform(self):
        G = parse_weighted_graph("plg n=3 edges=1-2")
        assert G == weighted(Graph(3, [(0, 1)]))

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_weighted_graph("plg n=2 weights=1/2")
        with pytest.raises(FormatError):
            parse_weighted_graph("plg n=2 weights=1/2,x")
        with pytest.raises(FormatError):
            parse_weighted_graph("plg n=2 labels=1:1 weights=1/2,1/2")
        with pytest.raises(FormatError) as exc:
            parse_weighted_graph("plg n=2 weights=1/0,1", line=4)
        assert "line 4" in str(exc.value)


# Term lists read for evaluation keep their records as written, up to
# isolated vertices; they must evaluate, and fail, as their normal forms do.


def _relabeled(rng, plg):
    """An isomorphic copy of plg with its vertices shuffled."""
    perm = list(range(plg.graph.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in plg.graph.edges]
    return PLG(Graph(plg.graph.n, edges), {lab: perm[v] for lab, v in plg.labels})


def _with_isolated(plg, label=None):
    """plg plus one isolated vertex, labeled `label` unless that is None."""
    n = plg.graph.n
    labels = dict(plg.labels)
    if label is not None:
        labels[label] = n
    return PLG(Graph(n + 1, plg.graph.edges), labels)


def _random_term_list(rng):
    """Records with isomorphic duplicates, isolated labeled and unlabeled
    vertices, and a pair of terms carrying label 3 that cancel."""
    records = []
    for _ in range(rng.randint(1, 3)):
        plg = random_plg(rng, 3)
        coeff = F(rng.randint(-3, 3), rng.randint(1, 3))
        records.append((plg, coeff))
        if rng.random() < 0.5:
            records.append((_relabeled(rng, plg), F(rng.randint(-2, 2))))
        if rng.random() < 0.5:
            records.append((_with_isolated(plg, rng.choice((None, 4))), F(1, 2)))
    core = random_plg(rng, 3, labels=(3,))
    c = F(rng.randint(1, 3), 2)
    records += [(core, c), (_relabeled(rng, core), -c)]
    rng.shuffle(records)
    text = "".join(f"{c} * {format_plg(plg)}\n" for plg, c in records)
    return text, records


def _term_list_oracle(records, G, phi):
    """The brute-force density of the records as written; a label phi
    misses stays unpinned."""
    total = F(0)
    for plg, coeff in records:
        pinned = {v: phi[lab] for lab, v in plg.labels if lab in phi}
        total += coeff * brute_rooted_t(plg, G.graph, pinned, list(G.y))
    return total


class TestTermLists:
    def test_routes_agree_on_every_small_target(self):
        rng = random.Random(2027)
        targets = [g for n in range(1, 5) for g in enumerate_graphs(n)]
        for _ in range(10):
            text, records = _random_term_list(rng)
            raw = load_expression(text)
            assert raw == tuple(
                (PLG(*_stripped(plg)), c) for plg, c in records
            )
            nf = parse_quantum(text)
            assert expand(raw) == nf
            labels = sorted(nf.label_set())
            assert 3 not in labels and 4 not in labels
            for g in targets:
                for phi in _all_root_maps(labels, g.n):
                    value = t_quantum(raw, g, phi)
                    assert value == t_quantum(nf, g, phi)
                    assert value == _term_list_oracle(records, weighted(g), phi)

    def test_routes_agree_on_weighted_targets(self):
        rng = random.Random(2028)
        for _ in range(30):
            text, records = _random_term_list(rng)
            raw = load_expression(text)
            nf = parse_quantum(text)
            G = random_weighted(rng, 4)
            # Labels 3 and 4 survive in no normal form: leave them out or
            # send them outside the target, and neither route objects.
            phi = {lab: rng.randrange(G.graph.n) for lab in (1, 2)}
            phi[3] = rng.choice((G.graph.n, rng.randrange(G.graph.n)))
            if rng.random() < 0.5:
                phi[4] = G.graph.n + 2
            value = t_quantum(raw, G, phi)
            assert value == t_quantum(nf, G, phi)
            assert value == _term_list_oracle(records, G, {k: phi[k] for k in (1, 2)})

    def test_density_polynomial_matches_normal_form(self):
        rng = random.Random(2029)
        for _ in range(30):
            text, _ = _random_term_list(rng)
            raw = load_expression(text)
            nf = parse_quantum(text)
            g = random_graph(rng, rng.randint(1, 4))
            phi = {lab: rng.randrange(g.n) for lab in (1, 2)}
            if rng.random() < 0.5:
                phi[3] = g.n
            assert density_polynomial(raw, g, phi) == density_polynomial(nf, g, phi)

    def test_single_record_payload(self):
        text = "plg n=4 labels=1:1,2:4 edges=1-2;2-3\n"
        raw = load_expression(text)
        assert raw == ((PLG(Graph(3, [(0, 1), (1, 2)]), {1: 0}), F(1)),)
        for phi in _all_root_maps((1, 2), 3):
            assert t_quantum(raw, P3, phi) == t_quantum(expand(raw), P3, phi)

    @pytest.mark.parametrize(
        "phi, message",
        [
            ({2: 0}, "root map missing labels [1]"),
            ({1: 3, 2: 0}, "root image 4 outside the target graph"),
        ],
        ids=["missing-label", "image-outside"],
    )
    def test_root_errors_agree(self, phi, message):
        text = (
            "1 * plg n=3 labels=1:1,2:3 edges=1-2\n"
            "2 * plg n=2 labels=1:2 edges=1-2\n"
            "-2 * plg n=2 labels=1:1 edges=1-2\n"
        )
        for f in (load_expression(text), parse_quantum(text)):
            with pytest.raises(ValueError) as exc:
                t_quantum(f, K3, phi)
            assert str(exc.value) == message

    def test_label_cover_rule_of_each_form(self):
        """An edge rooted at label 1 less itself: a term list needs no image
        for label 1, which its normal form lacks, and is 0; a tree carries
        every label it mentions, and its missing image is refused."""
        edge = "plg n=2 labels=1:1 edges=1-2"
        terms = load_expression(f"1 * {edge}\n-1 * {edge}\n")
        tree = load_expression(f"(sum (g {edge}) (prod (q -1) (g {edge})))\n")
        assert t_quantum(terms, K2) == 0
        assert expand(tree) == 0 and tree.label_set() == {1}
        with pytest.raises(ValueError) as exc:
            t_quantum(tree, K2)
        assert str(exc.value) == "root map missing labels [1]"

    def test_unlabeled_term_lists_read_the_empty_target_at_k1(self):
        """A term list with no labels reads the empty target as its normal
        form does, at its unit coefficient, whatever isolated vertices its
        records keep."""
        vertex = ((PLG(Graph(1)), F(1)),)
        assert t_quantum(vertex, Graph(0)) == 1
        assert t_quantum(QuantumGraph.of(PLG(Graph(1))), Graph(0)) == 1
        padded = ((PLG(K2), F(1)), (PLG(Graph(3, [(0, 1)])), F(-1)))
        unit_less_edge = ((PLG(Graph(2)), F(2)), (PLG(Graph(3, [(1, 2)])), F(-1)))
        for f in (vertex, padded, unit_less_edge):
            for G in (Graph(0), K1, K2, P3, WeightedGraph(P3, [F(1, 2), 0, F(1, 2)])):
                want = t_quantum(QuantumGraph(f), G)
                assert t_quantum(f, G) == compiled_density(f)(G) == want
        assert t_quantum(unit_less_edge, Graph(0)) == 2

    def test_density_polynomial_of_term_lists_on_the_empty_target(self):
        """`density_polynomial` reads an unlabeled term list on the empty
        target at K1 too, as the constant polynomial of that value, which
        its normal form gives; an edge stays 0, padded or not."""
        vertex = ((PLG(Graph(1)), F(1)),)
        padded_edge = ((PLG(Graph(3, [(0, 2)])), F(5)),)
        unit_less_edge = ((PLG(Graph(2)), F(2)), (PLG(Graph(3, [(1, 2)])), F(-1)))
        for f, want in ((vertex, 1), (padded_edge, 0), (((PLG(K2), F(1)),), 0), (unit_less_edge, 2)):
            got = density_polynomial(f, Graph(0))
            assert got == density_polynomial(QuantumGraph(f), Graph(0)) == want
            assert got.vars == ()
        assert density_polynomial(unit_less_edge, K2).evaluate({"y1": F(1, 2), "y2": F(1, 2)}) == F(3, 2)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1 * plg n=2 edges=1-2\n\n# note\nx * plg n=1\n", 4),
            ("1 * plg n=2 edges=1-2\n2 plg n=1\n", 2),
            ("1/2 * plg n=2 edges=1-3\n", 1),
            ("1 * plg n=1\n-1 * plg n=2 labels=1:5\n", 2),
        ],
    )
    def test_bad_records_fail_alike(self, text, line):
        with pytest.raises(FormatError) as raw:
            load_expression(text)
        with pytest.raises(FormatError) as nf:
            parse_quantum(text)
        assert raw.value.line == nf.value.line == line
        assert str(raw.value) == str(nf.value)


def _mixed_term_list(rng, labeled=True):
    """A term list for the shared search: random terms, disconnected ones,
    a term split into components by its pinned vertex, the empty graph (no
    free vertex), a repeated term and an isomorphic labeled pair whose
    coefficients cancel.  With `labeled`, also labeled and fully pinned
    terms; without, the normal form carries no label."""
    terms = [(PLG(random_graph(rng, rng.randint(1, 5))), F(rng.randint(-3, 3), rng.randint(1, 3)))
             for _ in range(rng.randint(2, 4))]
    terms.append((PLG(Graph(0)), F(1, 3)))
    if labeled:
        terms += [(random_plg(rng, 4, labels=(1, 2, 3)), F(rng.randint(-3, 3), rng.randint(1, 3)))
                  for _ in range(rng.randint(2, 4))]
        n = rng.randint(1, 3)
        terms.append((PLG(random_graph(rng, n), {lab: lab - 1 for lab in range(1, n + 1)}), F(-1, 2)))
        terms.append((PLG(Graph(5, [(0, 1), (2, 3), (3, 4)]), {1: 3}), F(2)))
    terms.append(rng.choice(terms))
    pair = random_plg(rng, 4, labels=(1, 2, 3))
    c = F(rng.randint(1, 3), 2)
    terms += [(pair, c), (_relabeled(rng, pair), -c)]
    rng.shuffle(terms)
    return tuple(terms)


class TestSharedSearch:
    """One search serves a whole term list; every value must be the sum of
    its terms' brute-force rooted densities."""

    def test_term_lists_under_root_maps(self):
        rng = random.Random(2031)
        for _ in range(25):
            terms = _mixed_term_list(rng)
            G = random_weighted(rng, 4)
            phi = {lab: rng.randrange(G.graph.n) for lab in (1, 2, 3)}
            assert t_quantum(terms, G, phi) == _term_list_oracle(terms, G, phi)

    def test_compiled_density_over_targets(self):
        rng = random.Random(2032)
        for _ in range(10):
            terms = _mixed_term_list(rng, labeled=False)
            density = compiled_density(terms)
            for _ in range(4):
                G = random_weighted(rng, 4)
                want = _term_list_oracle(terms, G, {})
                assert density(G) == want
                assert t_quantum(terms, G) == want

    def test_density_polynomial_under_root_maps(self):
        """One search holds every term: the polynomial is the sum of the
        terms' own, each a product over its components, and evaluates to
        their brute-force densities."""
        rng = random.Random(2033)
        for _ in range(25):
            terms = _mixed_term_list(rng)
            g = random_graph(rng, rng.randint(1, 4))
            phi = {lab: rng.randrange(g.n) for lab in (1, 2, 3)}
            poly = density_polynomial(terms, g, phi)
            parts = [density_polynomial((term,), g, phi) for term in terms]
            assert poly == sum(parts[1:], parts[0])
            for _ in range(3):
                y = random_distribution(rng, g.n)
                point = {f"y{i + 1}": y[i] for i in range(g.n)}
                assert poly.evaluate(point) == _term_list_oracle(terms, WeightedGraph(g, y), phi)

    def test_compiled_structured_expression(self):
        """A compiled structured x keeps its label walks across targets,
        repeated ones included, and reads each as a fresh t_quantum."""
        x = counterexample_expr(6)
        rng = random.Random(2034)
        targets = [g for n in range(6) for g in enumerate_graphs(n)]
        # Weighted targets with induced copies of the base, where x is not 0.
        h6 = stringent_graph(6)
        for _ in range(8):
            extra = [(v, 6) for v in range(6) if rng.random() < 0.5]
            g = rng.choice((h6, Graph(7, list(h6.edges) + extra)))
            w = [rng.randint(1, 6) for _ in range(g.n)]
            targets.append(WeightedGraph(g, [F(a, sum(w)) for a in w]))
        wants = [t_quantum(x, G) for G in targets]
        assert any(wants)
        density = compiled_density(x)
        for _ in range(2):
            assert [density(G) for G in targets] == wants


def _tail_target(rng, n):
    """A seeded weighted graph on n vertices whose weights repeat and
    include 0, so that a search weighs candidate masks vertex by vertex."""
    w = [0, 2, 2, 1, 3, 1, 0][:n]
    rng.shuffle(w)
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6])
    return WeightedGraph(g, [F(a, sum(w)) for a in w])


def _brute_value(f, G, psi):
    """The brute-force density of a QuantumGraph f under the root map psi."""
    return sum(
        (c * brute_rooted_t(plg, G.graph, {v: psi[lab] for lab, v in plg.labels}, list(G.y))
         for plg, c in f.terms.items()),
        F(0),
    )


class TestWeightedTails:
    """A weighted target sums each distinct candidate mask's weights once,
    and every search at that target reads the sums: tails that share a
    mask, root maps, and the atoms and label walks of one structured
    evaluation must all read them exactly."""

    # Stars place the centre, then take their leaves as one tail whose
    # vertices share the centre's mask; the rest split into components.
    TERMS = (
        (PLG(Graph(3, [(0, 1), (0, 2)])), F(1)),
        (PLG(Graph(4, [(0, 1), (0, 2), (0, 3)])), F(-1, 2)),
        (_star(3), F(2)),
        (PLG(TWO_EDGES), F(3)),
        (PLG(Graph(5, [(0, 1), (1, 2), (3, 4)])), F(-1, 3)),
        (PLG(Graph(5, [(0, 1), (0, 2), (3, 4)]), {1: 3}), F(1, 4)),
    )

    def test_tails_that_share_a_mask(self):
        rng = random.Random(2061)
        for n in (5, 6, 7):
            G = _tail_target(rng, n)
            assert G.y.count(F(0)) and len(set(G.y)) < n
            for w in rng.sample(range(n), 3):
                phi = {1: w}
                assert t_quantum(self.TERMS, G, phi) == _term_list_oracle(self.TERMS, G, phi)

    def test_each_target_weighs_its_own_masks(self):
        """One compiled search over several weightings of one graph: each
        target's sums serve that target only."""
        rng = random.Random(2062)
        terms = tuple((plg, c) for plg, c in self.TERMS if not plg.labels)
        density = compiled_density(terms)
        g = _tail_target(rng, 6).graph
        for _ in range(4):
            w = [rng.choice((0, 1, 1, 3)) for _ in range(5)] + [2]
            G = WeightedGraph(g, [F(a, sum(w)) for a in w])
            assert density(G) == t_quantum(terms, G) == _term_list_oracle(terms, G, {})

    def test_labeled_term_list_under_root_maps(self):
        rng = random.Random(2063)
        for _ in range(6):
            terms = _mixed_term_list(rng)
            G = _tail_target(rng, rng.randint(5, 6))
            for _ in range(3):
                phi = {lab: rng.randrange(G.graph.n) for lab in (1, 2, 3)}
                assert t_quantum(terms, G, phi) == _term_list_oracle(terms, G, phi)

    def test_unlabel_atoms_share_the_target(self):
        """The label walk and every atom it evaluates read one target's
        sums; the value is the expectation, over the weighted images of
        the labels, of the product of the factors' brute-force densities."""
        factors = [
            Atom(PLG(Graph(4, [(0, 1), (0, 2), (0, 3)]), {1: 0})),
            IndAtom(PLG(P3, {1: 0, 2: 2})),
            Atom(PLG(TWO_EDGES, {2: 0})),
        ]
        expr = Unlabel(frozenset(), Product(factors))
        rng = random.Random(2064)
        for n in (5, 6):
            G = _tail_target(rng, n)
            want = F(0)
            for a, b in product(range(n), repeat=2):
                psi = {1: a, 2: b}
                want += G.y[a] * G.y[b] * prod(_brute_value(expand(f), G, psi) for f in factors)
            assert t_quantum(expr, G) == compiled_density(expr)(G) == want
            assert t_quantum(expand(expr), G) == want

    def test_counterexample_identity_at_weighted_h6(self):
        """t(x; (H6, y)) = y1...y6 * p(y2, y3, y4), on H6 and on a
        relabeled copy of H6 carrying the same weights."""
        x, h6 = counterexample(), stringent_graph(6)
        rng = random.Random(2065)
        weights = [
            [rng.randint(1, 9) for _ in range(6)],
            [4, 3, 3, 3, 1, 2],  # y2 = y3 = y4: p vanishes
            [2, 5, 1, 0, 4, 3],  # a zero weight
        ]
        perm = list(range(6))
        rng.shuffle(perm)
        copy = Graph(6, [(perm[u], perm[v]) for u, v in h6.edges])
        for w in weights:
            y = [F(a, sum(w)) for a in w]
            p = y[1] ** 2 * y[2] + y[2] ** 2 * y[3] + y[3] ** 2 * y[1] - 3 * y[1] * y[2] * y[3]
            want = prod(y) * p
            moved = [None] * 6
            for v, u in enumerate(perm):
                moved[u] = y[v]
            assert t_quantum(x, WeightedGraph(h6, y)) == t_quantum(x, WeightedGraph(copy, moved)) == want
            assert (want == 0) == (0 in w or w[1] == w[2] == w[3])


class TestKeptSearch:
    """An unlabeled QuantumGraph keeps one term search from its first
    t_quantum or density_polynomial on; a compiled function keeps one of
    its own."""

    H6 = stringent_graph(6)

    def test_routes_interleave_on_one_search(self):
        """Each value, in any order of the routes, equals a fresh search of
        the same terms as written and their brute-force densities."""
        rng = random.Random(2041)
        split = PLG(Graph(6, [(0, 1), (1, 2), (3, 4)]))  # P3, K2 and a vertex
        pair = PLG(Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)]))  # K2 and K3
        terms = (
            (split, F(2)),
            (_relabeled(rng, split), F(-1, 2)),
            (pair, F(3)),
            (_relabeled(rng, pair), F(-3)),
            (PLG(Graph.cycle(4)), F(1, 3)),
            (PLG(TWO_EDGES), F(-5, 4)),
            (PLG(Graph(0)), F(1, 7)),
        )
        x = QuantumGraph(terms)
        assert not x.label_set()
        density = compiled_density(x)
        assert x._search is None
        zero_weight = WeightedGraph(self.H6, [F(0), F(1, 5), F(1, 5), F(1, 10), F(3, 10), F(1, 5)])
        searches = set()
        for i, G in enumerate([K1, zero_weight, Graph.complete(4), self.H6]):
            W = weighted(G)
            want = _term_list_oracle(terms, W, {})
            point = {f"y{v + 1}": w for v, w in enumerate(W.y)}
            assert t_quantum(terms, G) == density_polynomial(terms, W.graph).evaluate(point) == want
            routes = [
                lambda: t_quantum(x, G),
                lambda: density_polynomial(x, W.graph).evaluate(point),
                lambda: density(G),
            ]
            assert [route() for route in routes[i % 3:] + routes[:i % 3]] == [want] * 3
            searches.add(id(x._search))
        assert len(searches) == 1 and x._search is not None

    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize("cut", [1, 9, 33, 50])
    def test_search_cut_off_while_growing_runs_again(self, monkeypatch, compiled, cut):
        """A kept search that is cut off, as by an interrupt, right after
        growing an order gives the same values afterwards."""

        class Cut(Exception):
            pass

        rng = random.Random(2043)
        terms = tuple((PLG(random_graph(rng, rng.randint(3, 6))), F(rng.randint(1, 4))) for _ in range(12))
        terms += ((PLG(Graph.path(6)), F(-2)), (PLG(STAR), F(3)))
        x = QuantumGraph(terms)
        density = compiled_density(x) if compiled else lambda G: t_quantum(x, G)
        targets = [K1, K2, K3, Graph.path(4), Graph.cycle(5), Graph.complete(4), Graph.complete(5)]
        grow, calls = _TermSearch._grow, []

        def cut_off(self, *args):
            code = grow(self, *args)
            calls.append(args)
            if len(calls) == cut:
                raise Cut
            return code

        monkeypatch.setattr(_TermSearch, "_grow", cut_off)
        with pytest.raises(Cut):
            for G in targets:
                density(G)
        monkeypatch.undo()
        assert [density(G) for G in targets] == [t_quantum(terms, G) for G in targets]

    def test_labeled_graph_keeps_no_search(self):
        rng = random.Random(2042)
        terms = _mixed_term_list(rng)
        x = QuantumGraph(terms)
        assert x.label_set()
        G = random_weighted(rng, 4)
        point = {f"y{v + 1}": w for v, w in enumerate(G.y)}
        for phi in _all_root_maps([1, 2, 3], G.graph.n):
            want = _term_list_oracle(terms, G, phi)
            assert t_quantum(x, G, phi) == t_quantum(terms, G, phi) == want
            assert density_polynomial(x, G.graph, phi).evaluate(point) == want
        with pytest.raises(ValueError, match="root map missing labels"):
            compiled_density(x)
        assert x._search is None

    def test_kept_search_holds_fewer_objects_than_terms(self):
        """The search keeps its state in flat lists of ints, not a few
        objects per term, and no key list outlives a call."""
        x = QuantumGraph(counterexample().terms)
        assert x._search is None and len(x.terms) == 11464
        gc.collect()
        before = len(gc.get_objects())
        assert t_quantum(x, self.H6) == 0
        gc.collect()
        assert x._search is not None and x._search.keys is None
        assert len(gc.get_objects()) - before < len(x.terms)


class TestPinsCheckedByRootCodes:
    """Each pinned vertex has a root code against the pins before it, so a
    walk checks the whole root map and zeroes the terms it breaks.  The
    root maps below are all of them on small targets, so they include maps
    that break a pinned edge or a pinned exact non-edge."""

    TARGETS = [G for G in _trigraph_targets() if (G if isinstance(G, Graph) else G.graph).n]

    def test_labeled_term_lists(self):
        rng = random.Random(2044)
        for _ in range(8):
            terms = [(random_plg(rng, 4, labels=(1, 2, 3)), F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)))
                     for _ in range(rng.randint(1, 4))]
            # A pinned edge, a fully pinned path and an unlabeled term.
            terms += [(PLG(P3, {1: 0, 2: 1}), F(2)), (PLG(P3, {1: 0, 2: 1, 3: 2}), F(-1)), (PLG(K2), F(1, 2))]
            terms = tuple(terms)
            for G in map(weighted, self.TARGETS):
                point = {f"y{v + 1}": w for v, w in enumerate(G.y)}
                for phi in _all_root_maps([1, 2, 3], G.graph.n):
                    want = _term_list_oracle(terms, G, phi)
                    assert t_quantum(terms, G, phi) == want, (terms, G, phi)
                    assert density_polynomial(terms, G.graph, phi).evaluate(point) == want

    def test_ind_atoms_with_free_rows(self):
        rng = random.Random(2045)
        atoms = [
            # Pins 1 and 2 are an exact non-edge, pins 2 and 3 a free pair.
            IndAtom(PLG(Graph(3, [(0, 2)]), {1: 0, 2: 1, 3: 2}), free=[(1, 2)]),
            IndAtom(PLG(Graph(4, [(0, 1), (2, 3)]), {1: 0, 2: 2}), free=[(1, 2)]),
        ]
        for _ in range(10):
            h = random_graph(rng, rng.randint(2, 4))
            nonedges = [(u, v) for u in range(h.n) for v in range(u + 1, h.n) if not h.adj[u] >> v & 1]
            free = rng.sample(nonedges, rng.randint(0, len(nonedges)))
            pins = rng.sample(range(h.n), rng.randint(2, h.n))
            atoms.append(IndAtom(PLG(h, {lab: v for lab, v in enumerate(pins, 1)}), free=free))
        for atom in atoms:
            h, pins = atom.plg.graph, dict(atom.plg.labels)
            free = [(u, v) for u in range(h.n) for v in range(u + 1, h.n) if atom.rows[u] >> v & 1]
            for G in map(weighted, self.TARGETS):
                # A free pair obeys one of the two rules at every map, so
                # the maps of the atom are the exact maps of some state.
                maps = set()
                for state in product((False, True), repeat=len(free)):
                    wired = Graph(h.n, list(h.edges) + [p for p, on in zip(free, state) if on])
                    maps.update(brute_exact_embeddings(wired, G.graph))
                for phi in _all_root_maps(sorted(pins), G.graph.n):
                    want = sum((prod(G.y[m[v]] for v in range(h.n) if v not in pins.values())
                                for m in maps if all(m[v] == phi[lab] for lab, v in pins.items())), F(0))
                    assert t_quantum(atom, G, phi) == want, (atom, G, phi)

    def test_exact_extensions(self):
        for h in [g for n in range(1, 4) for g in enumerate_graphs(n)]:
            for G in self.TARGETS:
                g = G if isinstance(G, Graph) else G.graph
                maps = sorted(brute_exact_embeddings(h, g))
                for k in range(1, h.n + 1):
                    for pins in combinations(range(h.n), k):
                        for images in _all_maps(k, g.n):
                            pinned = dict(zip(pins, images))
                            want = [m for m in maps if all(m[v] == w for v, w in pinned.items())]
                            assert sorted(extensions(h, pinned, g)) == want, (h, pinned, g)

    def test_broken_pins_visit_no_node(self):
        """A one-term search whose pins all break returns 0, or no
        extension, before it builds the root of its trie."""
        # A pinned edge on one vertex.
        search = _TermSearch([(F(1), P3, {0: 1, 1: 2})], HOM)
        _, weights = density._target(K3)
        assert search.value(K3, weights, {1: 0, 2: 0}) == 0
        assert search.root.pending is not None
        assert search.value(K3, weights, {1: 0, 2: 1}) == F(2, 3)
        assert search.root.pending is None
        # A pinned exact non-edge on an edge.
        search = _TermSearch([(F(1), P3, {0: 0, 2: 2})], EXACT)
        assert density._walk_extensions(search, [0, 0, 1], K3) == []
        assert search.root.pending is not None
        assert density._walk_extensions(search, [0, 0, 0], K3) == [(0, 1, 0), (0, 2, 0)]
        assert search.root.pending is None
        # A term list with no pinned vertex has nothing to check.
        assert _TermSearch([(F(1), P3, {}), (F(2), K2, {})], HOM).checks == []

    def test_out_of_range_pins_are_named(self):
        with pytest.raises(ValueError, match="^root image 4 outside the target graph$"):
            extensions(P3, {0: 0, 1: 3}, K3)
        with pytest.raises(ValueError, match="^root image 0 outside the target graph$"):
            extensions(P3, {2: -1}, K3)


class TestExtensions:
    """The enumerating search of a one-term list, in exact mode, against
    brute force."""

    def test_exact_with_free_rows_and_pinned_vertices(self):
        rng = random.Random(2035)
        for _ in range(60):
            h = random_graph(rng, rng.randint(1, 4))
            g = random_graph(rng, rng.randint(1, 4))
            nonedges = [(u, v) for u in range(h.n) for v in range(u + 1, h.n) if not h.adj[u] >> v & 1]
            free = rng.sample(nonedges, rng.randint(0, len(nonedges)))
            rows = [0] * h.n
            for u, v in free:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            pinned = {v: rng.randrange(g.n) for v in rng.sample(range(h.n), rng.randint(0, h.n))}
            # A free pair obeys one of the two rules at every map, so the
            # exact maps with free pairs are those of some state of them.
            want = set()
            for state in product((False, True), repeat=len(free)):
                wired = Graph(h.n, list(h.edges) + [p for p, on in zip(free, state) if on])
                want.update(brute_exact_embeddings(wired, g))
            want = sorted(m for m in want if all(m[v] == w for v, w in pinned.items()))
            # The exact one-term search with free rows that `_eval_unlabel` walks.
            search = _TermSearch([(F(1), h, {v: v for v in pinned})], EXACT, rows if free else None)
            image = [pinned.get(v, 0) for v in range(h.n)]
            assert sorted(density._walk_extensions(search, image, g)) == want

    def test_budget_caps_the_extensions(self):
        assert len(extensions(Graph(4), {}, Graph(9), budget=9**4)) == 9**4
        with pytest.raises(BudgetExceeded):
            extensions(Graph(4), {}, Graph(9), budget=10)


def _stripped(plg):
    """The graph and labels of plg without its isolated vertices."""
    keep = [v for v in range(plg.graph.n) if plg.graph.adj[v]]
    index = {v: i for i, v in enumerate(keep)}
    labels = {lab: index[v] for lab, v in plg.labels if v in index}
    return plg.graph.induced(keep), labels
