"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Every comparison is an exact Fraction equality or
inequality; nothing here floats and nothing is tolerance-based.
"""

import hashlib
import random
from fractions import Fraction as F
from itertools import permutations

from homdens.algebra import (
    Atom,
    Const,
    IndAtom,
    Product,
    QuantumGraph,
    Sum,
    Unlabel,
    as_quantum,
    expand,
    format_quantum,
    ind,
    product,
    unlabel,
)
from homdens import algebra
from homdens.algebra import ind_terms
from homdens.certificates import (
    ProofLine,
    check_cs_proof,
    is_psd,
    moment_matrix,
    verify_sos,
)
from homdens.density import (
    WeightedGraph,
    compiled_density,
    density_polynomial,
    t,
    t_ind,
    t_quantum,
)
from homdens.graphs import (
    Graph,
    PartiallyLabeledGraph as PLG,
    clique_blowup,
    enumerate_graphs,
    stringent_graph,
)
from homdens.polynomials import (
    Polynomial,
    counterexample_poly,
    goodman_g,
)
from homdens.reductions import (
    build_instance,
    counterexample_expr,
    exact_embeddings,
    psi_expr,
    psi_rooted_value,
    witness_eval,
    witness_graph,
)

from conftest import counterexample
from oracles import (
    TauPoly,
    alpha,
    blowup_block,
    bollobas_L,
    check_tasym,
    in_region_R,
    is_stringent,
    labeled_core,
    weighted,
)

H6 = stringent_graph(6)
K2 = Graph.complete(2)
K3 = Graph.complete(3)
P3 = Graph.path(3)
VARS6 = ("x1", "x2", "x3", "x4", "x5", "x6")


def targets_up_to(n):
    out = []
    for k in range(1, n + 1):
        out.extend(enumerate_graphs(k))
    return out


def all_root_maps(k, g):
    maps = [{}]
    for lab in range(1, k + 1):
        maps = [{**m, lab: v} for m in maps for v in range(g.n)]
    return maps


def random_graph(rng, n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])


def random_distribution(rng, n):
    w = [rng.randint(0, 5) for _ in range(n)]
    if not any(w):
        w[rng.randrange(n)] = 1
    s = sum(w)
    return [F(x, s) for x in w]


def counterexample_value(G):
    """t of the counterexample via the root-map identity.

    The unlabeled value is the weighted sum over exact embeddings phi of
    p(alpha(phi)); off the embedding set every rooted value vanishes.
    The identity itself is verified against the generic evaluator on all
    targets with up to 4 vertices inside criterion 2, and exhaustively
    with up to 4 vertices in the reduction unit tests.
    """
    G = weighted(G)
    p = counterexample_poly(6)
    total = F(0)
    for phi in exact_embeddings(H6, G.graph):
        weight = F(1)
        for j in range(1, 7):
            weight *= G.y[phi[j]]
        point = {f"y{j}": alpha(H6, G, phi, j) for j in range(1, 7)}
        total += weight * p.evaluate(point)
    return total


def test_criterion_1_counterexample_identity(monkeypatch):
    """Rooted density polynomial of the counterexample at its own base
    graph equals y1*...*y6 times the cyclic Motzkin form, exactly, both
    for x and for its structured tree, which is read without expansion."""
    got = density_polynomial(counterexample(), H6)
    yv = tuple(f"y{i}" for i in range(1, 7))
    want = counterexample_poly(6).in_vars(yv)
    for i in range(1, 7):
        want = want * Polynomial.variable(f"y{i}", yv)
    assert got == want
    sx = counterexample_expr(6)

    def refuse(*args, **kwargs):
        raise AssertionError("the structured route expanded its tree")

    monkeypatch.setattr(algebra, "expand", refuse)
    assert density_polynomial(sx, H6) == want
    print("criterion 1: PASS (exact polynomial identity at the base graph)")


def test_counterexample_output_bytes():
    """The written counterexample stays byte-identical."""
    text = format_quantum(counterexample()).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "4dadc9a6723029645846779517b34de0da6d903162b23b849c16b4f4a5f91b3b"
    )


def test_criterion_2_counterexample_positivity_scan():
    """t(x; g) >= 0 for every graph with at most 7 vertices and for 500
    seeded random weighted graphs, all exact, evaluated by the package on
    the structured x that `counterexample --form expr` writes.  On every
    graph with at most 6 vertices and on the weighted targets it equals
    the independent embedding-sum oracle."""
    sx = counterexample_expr(6)
    x = compiled_density(counterexample())
    # route check: the structured x against its 11464-term expansion, every
    # target where evaluating the expansion is quick
    for g in targets_up_to(4):
        assert t_quantum(sx, g) == x(g)
    scanned = 0
    for g in targets_up_to(6):
        value = t_quantum(sx, g)
        assert value == counterexample_value(g), g
        assert value >= 0, g
        scanned += 1
    assert scanned == 1 + 2 + 4 + 11 + 34 + 156
    sevens = enumerate_graphs(7)
    assert len(sevens) == 1044
    for g in sevens:
        assert t_quantum(sx, g) >= 0, g
    rng = random.Random(20260816)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 6))
        G = WeightedGraph(g, random_distribution(rng, g.n))
        value = t_quantum(sx, G)
        assert value == counterexample_value(G), G
        assert value >= 0, G
    print("criterion 2: PASS (1252 exhaustive + 500 weighted targets, all >= 0)")


def test_criterion_3_undecidability_pipeline_negative():
    """For p = 1 - 2x1 the instance is strictly negative on the blow-up
    witness and exactly zero on every graph with at most 5 vertices."""
    p = Polynomial(VARS6, {(0,) * 6: F(1), (1, 0, 0, 0, 0, 0): F(-2)})
    instance = build_instance(p)
    witness = witness_graph(p, (3, 1, 1, 1, 1, 1))
    value = witness_eval(instance, witness)
    assert value == -F(3**105, 2**2016)
    assert value < 0
    assert t_quantum(instance, witness) == value
    for g in targets_up_to(5):
        assert exact_embeddings(H6, g) == []
        assert witness_eval(instance, g) == 0
    print(f"criterion 3: PASS (witness value -3^105/2^2016, zero below 6 vertices)")


def test_criterion_4_grid_nonnegative_instance():
    """For p = x1 the instance evaluates >= 0 on all graphs up to 5
    vertices, on 200 seeded random graphs up to 7, and on blow-ups."""
    p = Polynomial(VARS6, {(1, 0, 0, 0, 0, 0): F(1)})
    instance = build_instance(p)
    for g in targets_up_to(5):
        assert witness_eval(instance, g) == 0
    rng = random.Random(424242)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 7))
        assert witness_eval(instance, g) >= 0, g
    positives = 0
    for counts in _count_tuples((), 8):
        g = clique_blowup(H6, counts)
        value = witness_eval(instance, g)
        assert value >= 0
        if counts[0] > 1:
            assert value > 0
            positives += 1
    assert positives > 0
    print("criterion 4: PASS (grid-nonnegative source stays nonnegative)")


def test_criterion_5_edge_triangle_region():
    """(t(K2), t(K3)) lies in the region above the piecewise-linear lower
    bound for every graph up to 6 vertices; the bound meets the parabola
    at the clique points 1 - 1/s."""
    for g in targets_up_to(6):
        assert in_region_R(t(K2, g), t(K3, g)), g
    for s in range(1, 21):
        xb = 1 - F(1, s)
        assert bollobas_L(xb) == goodman_g(xb)
    print("criterion 5: PASS (region membership for 208 graphs, 20 breakpoints)")


def test_criterion_6_algebra_identities():
    """Mobius round-trip, orthogonality, rooted multiplicativity, the
    injective-density gap bound, and the unlabel-expectation law."""
    # Mobius round-trip in the algebra: summing ind over supergraphs
    # returns the original pattern, all graphs up to 4 vertices
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            h = PLG(g, [(1, 0)])
            total = QuantumGraph()
            for (adj, labels), _ in ind_terms(h, (0,) * h.n):
                total = total + ind(PLG(Graph._of_rows(adj), labels))
            assert total == QuantumGraph.of(h)

    # the same pair of identities at the density level: h up to 4,
    # targets up to 5, both directions of the inversion
    cache = {}

    def tc(f, gi, g):
        key = (PLG(f).canonical(), gi)
        if key not in cache:
            cache[key] = t(f, g)
        return cache[key]

    for h in targets_up_to(4):
        supers = _unlabeled_supergraphs(h)
        for gi, g in enumerate(targets_up_to(5)):
            assert tc(h, gi, g) == sum(t_ind(f, g) for f in supers)
            assert t_ind(h, g) == sum(
                (-1) ** (len(f.edges) - len(h.edges)) * tc(f, gi, g) for f in supers
            )

    # orthogonality: ind images of distinct labeled cores multiply to zero
    pool = _plgs_with_labels(3, 2)
    for i, h1 in enumerate(pool):
        for h2 in pool[i:]:
            if labeled_core(h1) != labeled_core(h2):
                assert product(ind(h1), ind(h2)) == 0

    # rooted multiplicativity, exhaustive at 3 vertices
    plgs = _plgs_with_labels(3, 2)
    for h1 in plgs:
        for h2 in plgs:
            prod = product(QuantumGraph.of(h1), QuantumGraph.of(h2))
            for g in enumerate_graphs(3):
                for phi in all_root_maps(2, g):
                    assert t_quantum(prod, g, phi) == t_quantum(
                        QuantumGraph.of(h1), g, phi
                    ) * t_quantum(QuantumGraph.of(h2), g, phi)

    # injective-density gap: |t - t_inj| <= C(v(h),2)/v(g), exhaustive
    for h in targets_up_to(4):
        for g in targets_up_to(5):
            assert check_tasym(h, g)

    # unlabel-expectation law on seeded random rooted combinations
    rng = random.Random(171717)
    for _ in range(25):
        h1 = _random_plg(rng, 3, labels=(1, 2, 3))
        h2 = _random_plg(rng, 3, labels=(1, 2, 3))
        f = QuantumGraph.of(h1) + F(1, 2) * QuantumGraph.of(h2)
        labels = sorted(f.label_set())
        keep = frozenset(lab for lab in labels if rng.random() < 0.5)
        g = random_graph(rng, 4)
        G = WeightedGraph(g, random_distribution(rng, 4))
        phi = {lab: rng.randrange(4) for lab in keep}
        lhs = t_quantum(unlabel(f, keep), G, phi)
        free = [lab for lab in labels if lab not in keep]
        rhs = F(0)
        for images in all_root_maps(len(free), g):
            psi = dict(phi)
            weight = F(1)
            for lab, v in zip(free, images.values()):
                psi[lab] = v
                weight *= G.y[v]
            rhs += weight * t_quantum(f, G, psi)
        assert lhs == rhs
    print("criterion 6: PASS (five identity families, exact)")


def test_criterion_7_structured_vs_expanded():
    """Structured evaluation equals full expansion: exhaustively on the
    k=2 clique-generator instances and on 100 random expressions."""
    xv, yv = ("x1", "x2"), ("y1", "y2")
    qs = [
        Polynomial.variable("x1", xv),
        Polynomial.variable("y1", yv),
        Polynomial.variable("x1", xv) * Polynomial.variable("x2", xv),
        Polynomial.variable("y2", yv),
    ]
    for q in qs:
        tp = TauPoly(q, 2)
        for base in enumerate_graphs(2):
            expr = psi_expr(base, tp)
            expanded = expand(expr)
            for g in targets_up_to(4):
                for ph in all_root_maps(2, g):
                    formula = psi_rooted_value(base, tp, g, ph)
                    assert formula == t_quantum(expanded, g, ph)
                    assert formula == t_quantum(expr, g, ph)

    rng = random.Random(77)
    for _ in range(100):
        expr = _random_expr(rng, 2)
        g = random_graph(rng, 4)
        G = WeightedGraph(g, random_distribution(rng, 4))
        phi = {lab: rng.randrange(4) for lab in expr.label_set()}
        assert t_quantum(expr, G, phi) == t_quantum(expand(expr), G, phi)
    print("criterion 7: PASS (exhaustive k=2 grid + 100 random expressions)")


def test_criterion_8_certificates():
    """Certificate checking: the standard certificates verify, seeded
    mutations fail, the full-labeling proofs check for every pattern up
    to 4 vertices, and small moment matrices are exactly PSD."""
    edge1 = PLG(K2, {1: 0})
    full_edge = PLG(K2, {1: 0, 2: 1})
    assert verify_sos(as_quantum(P3), [edge1])
    assert verify_sos(as_quantum(K2), [full_edge])

    rng = random.Random(816)
    bases = [(as_quantum(P3), [edge1]), (as_quantum(K2), [full_edge])]
    rejected = 0
    for _ in range(20):
        target, cert = bases[rng.randrange(2)]
        kind = rng.randrange(3)
        if kind == 0:
            mutated = target + F(rng.randint(1, 3), rng.randint(1, 3)) * as_quantum(
                rng.choice([K2, K3, P3])
            )
        elif kind == 1:
            mutated = F(rng.randint(2, 5)) * target
        else:
            mutated = target - as_quantum(Graph(1))
        assert not verify_sos(mutated, cert)
        rejected += 1
    assert rejected == 20

    checked = 0
    for i, h in enumerate(_all_plgs_up_to(4)):
        full = _fully_labeled(h)
        ifull = ind(full)
        proof = [
            ProofLine(product(ifull, ifull), "A1", (ifull,)),
            ProofLine(ind(h), "R3", (1, h.label_set())),
        ]
        assert check_cs_proof(proof, ind(h)), h
        checked += 1
        if i % 25 == 0:
            flipped = [proof[0], ProofLine(-1 * ind(h), "R3", (1, h.label_set()))]
            assert not check_cs_proof(flipped, -1 * ind(h))
            assert not check_cs_proof(proof, 2 * ind(h))
    assert checked > 200

    point1 = PLG(Graph(1), {1: 0})
    nonedge1 = PLG(Graph(2), {1: 0})
    M = moment_matrix(K2, [point1, edge1])
    assert M == ((F(1), F(1, 2)), (F(1, 2), F(1, 4)))
    assert is_psd(M)
    assert is_psd(moment_matrix(K3, [point1, nonedge1, edge1]))
    assert is_psd(moment_matrix(K3, [PLG(Graph(0), {})]))
    print(f"criterion 8: PASS (certs, 20 mutations, {checked} proofs, PSD moments)")


def test_criterion_9_stringency_and_blowup_embeddings():
    """stringent_graph(k) passes the exhaustive stringency check for
    6 <= k <= 9; clique blow-ups admit exactly prod(n_j) exact
    embeddings, each landing in its own block."""
    for k in range(6, 10):
        assert is_stringent(stringent_graph(k)), k

    total = 0
    for counts in _count_tuples((), 16):
        g = clique_blowup(H6, counts)
        maps = exact_embeddings(H6, g)
        expected = 1
        for c in counts:
            expected *= c
        assert len(maps) == expected, counts
        for m in maps:
            for j in range(1, 7):
                assert m[j] in blowup_block(counts, j - 1)
        total += 1
    assert total > 100
    print(f"criterion 9: PASS (stringency 6..9, {total} blow-up tuples)")


# ---------------------------------------------------------------------------
# Local helpers


def _count_tuples(prefix, remaining):
    if len(prefix) == 6:
        yield prefix
        return
    for c in range(1, remaining + 1):
        yield from _count_tuples(prefix + (c,), remaining // c)


def _unlabeled_supergraphs(h):
    missing = [
        (i, j) for i in range(h.n) for j in range(i + 1, h.n) if not h.adj[i] >> j & 1
    ]
    out = []
    for mask in range(1 << len(missing)):
        extra = [missing[i] for i in range(len(missing)) if mask >> i & 1]
        out.append(Graph(h.n, list(h.edges) + extra))
    return out


def _plgs_with_labels(max_n, label_count):
    out = {}
    for n in range(max(label_count, 1), max_n + 1):
        for g in enumerate_graphs(n):
            for verts in permutations(range(n), label_count):
                plg = PLG(g, [(i + 1, v) for i, v in enumerate(verts)])
                out.setdefault(plg.canonical(), None)
    return list(out)


def _all_plgs_up_to(max_n):
    out = {}
    for n in range(1, max_n + 1):
        for g in enumerate_graphs(n):
            for k in range(n + 1):
                for verts in permutations(range(n), k):
                    plg = PLG(g, [(i + 1, v) for i, v in enumerate(verts)])
                    out.setdefault(plg.canonical(), None)
    return list(out)


def _fully_labeled(h):
    labeled = dict(h.labels)
    taken = set(labeled)
    nxt = max(taken, default=0) + 1
    assigned = dict(labeled)
    covered = {v for _, v in h.labels}
    for v in range(h.graph.n):
        if v not in covered:
            assigned[nxt] = v
            nxt += 1
    return PLG(h.graph, assigned)


def _random_plg(rng, max_n, labels=(1, 2)):
    n = rng.randint(1, max_n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    k = rng.randint(0, min(len(labels), n))
    verts = rng.sample(range(n), k)
    return PLG(Graph(n, edges), [(labels[i], v) for i, v in enumerate(verts)])


def _random_expr(rng, depth):
    if depth == 0:
        kind = rng.randrange(3)
        if kind == 0:
            return Const(F(rng.randint(-2, 2), rng.randint(1, 3)))
        if kind == 1:
            return Atom(_random_plg(rng, 3))
        return IndAtom(_random_plg(rng, 2))
    kind = rng.randrange(3)
    if kind == 0:
        return Sum([_random_expr(rng, depth - 1) for _ in range(2)])
    if kind == 1:
        return Product([_random_expr(rng, depth - 1) for _ in range(2)])
    child = _random_expr(rng, depth - 1)
    keep = frozenset(lab for lab in child.label_set() if rng.random() < 0.5)
    return Unlabel(keep, child)
