"""Reductions from polynomials to labeled quantum graphs.

Two constructions over a base graph H on vertices [k] (vertex i carries
label i+1... in the code vertices are 0-based, labels are 1-based).  Each
generator is one ind atom whose free pairs, neither edges nor non-edges,
leave part of its pattern unconstrained.

The clone construction sends x_j to ind(H_j), where H_j adds one
unlabeled copy of vertex j joined to exactly N(j), and the pair between
the copy and j is free: the copy's relation to j is unconstrained in the
rooted density.  For p without constant term, evaluating at a root map
phi gives p(alpha_1(phi), ..., alpha_k(phi)) when phi is an exact
embedding and 0 otherwise, where alpha_j is the probability that
redrawing phi(j) lands back in the exact-embedding set.  (A constant term
maps to a multiple of the unit, which is 1 everywhere.)

The clique construction sends v_j, e_j, t_j to generators V_j, E_j, T_j:
ind of H plus an unlabeled m-clique (m = 1, 2, 3) joined to N(j), with
the pairs between the clique and j free.  Rooted uniformly at an exact
embedding, the generator densities are the vertex, edge, and triangle
moments of the redraw set U_j, which is what makes the cleared
substitution x_i = e_i/v_i^2, y_i = t_i/v_i^3 evaluate to a density
statement about t(K2;U_j) and t(K3;U_j).

Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import IndAtom, PolyImage, Unlabel, expand
from .density import extensions, t
from .errors import FormatError
from .graphs import (
    Graph,
    PartiallyLabeledGraph,
    clique_blowup,
    format_plg,
    parse_plg,
    stringent_graph,
)
from .polynomials import (
    M_constant,
    Polynomial,
    _check_vars,
    _etv_vars,
    _x_vars,
    calculus_q,
    counterexample_poly,
    format_poly,
    parse_poly,
    penalized_q,
    tau,
)

EMBED_BUDGET = 10**7
COUNTEREXAMPLE_K = 6


def labeled_base(h):
    """h on [k] as a fully labeled graph, vertex i carrying label i+1."""
    return PartiallyLabeledGraph(h, {i + 1: i for i in range(h.n)})


# ---------------------------------------------------------------------------
# Exact embeddings


def is_exact_embedding(h, g, phi):
    """Does the root map preserve both adjacency and non-adjacency?

    phi maps label j to a vertex of g for every j in 1..|V(h)|.  An edge
    must land on a distinct adjacent pair; a non-edge on an equal or
    non-adjacent pair.
    """
    if set(phi) != set(range(1, h.n + 1)):
        raise ValueError("root map domain must be the labels 1..k")
    pinned = {v: phi[v + 1] for v in range(h.n)}
    return bool(extensions(h, pinned, g))


def exact_embeddings(h, g, budget=EMBED_BUDGET):
    """All root maps V(h) -> V(g) preserving adjacency and non-adjacency.

    `budget` bounds the number of embeddings.  Returns root maps keyed
    by label, sorted.
    """
    images = sorted(extensions(h, {}, g, budget=budget))
    return [{v + 1: w for v, w in enumerate(image)} for image in images]


def resample_set(h, g, phi, j):
    """U_j: the vertices w for which phi with j redirected to w stays exact."""
    others = {v: phi[v + 1] for v in range(h.n) if v != j - 1}
    return [image[j - 1] for image in extensions(h, others, g)]


# ---------------------------------------------------------------------------
# The clone construction


def phi(h, p):
    """The image of p under the clone homomorphism, as a structured tree."""
    k = h.n
    _check_vars(p, _x_vars(k))
    gens = {f"x{j}": psi_generator(h, j, 1) for j in range(1, k + 1)}
    origin = f"(phi {format_plg(labeled_base(h))} | {format_poly(p)})"
    return PolyImage(gens, p, origin=origin)


def counterexample_expr(k=COUNTEREXAMPLE_K):
    """The positive-but-not-square quantum graph as a structured tree: the
    unlabeled clone image of the Motzkin-type polynomial, its y1..yk
    renamed x1..xk, over the k-vertex stringent base."""
    if k != COUNTEREXAMPLE_K:
        raise ValueError(f"only k = {COUNTEREXAMPLE_K} is supported")
    p = Polynomial(_x_vars(k), counterexample_poly(k).terms)
    return Unlabel((), phi(stringent_graph(k), p))


def build_counterexample(k=COUNTEREXAMPLE_K):
    """The expansion of `counterexample_expr`.  Each monomial's glued
    trigraph expands unlabeled, so each raw term stands for one orbit of
    copy swaps."""
    return expand(counterexample_expr(k))


# ---------------------------------------------------------------------------
# The clique construction


def psi_generator(h, j, m):
    """ind of H plus an unlabeled m-clique joined to N(j), with every pair
    between the clique and j free: the sum over the 2^m wirings of the
    clique to j."""
    k, near = h.n, h.adj[j - 1]
    clique = ((1 << m) - 1) << k
    rows = [row | clique if near >> u & 1 else row for u, row in enumerate(h.adj)]
    rows += [near | clique ^ 1 << c for c in range(k, k + m)]
    free = [(j - 1, c) for c in range(k, k + m)]
    return IndAtom(PartiallyLabeledGraph(Graph._of_rows(tuple(rows)), labeled_base(h).labels), free)


def psi_expr(h, poly, origin=None):
    gens = {}
    for j in range(1, h.n + 1):
        gens[f"v{j}"] = psi_generator(h, j, 1)
        gens[f"e{j}"] = psi_generator(h, j, 2)
        gens[f"t{j}"] = psi_generator(h, j, 3)
    return PolyImage(gens, poly, origin=origin)


def _psitau_expr(h, p):
    """The clique image of the cleared calculus polynomial of p over h."""
    origin = f"(psitau {format_plg(labeled_base(h))} | {format_poly(p)})"
    return psi_expr(h, TauCalculusPoly(p, h.n), origin=origin)


class TauCalculusPoly:
    """tau of p's penalized q (`polynomials.penalized_q`), unexpanded.

    q is never expanded (it would have on the order of 7^k monomials);
    q_value reads `penalized_q` at rationals, straight from p.  evaluate()
    takes generator values keyed e_j/t_j/v_j and computes
    q(e/v^2, t/v^3) * prod v^(3 deg q) by rational substitution.  When some
    v_j = 0 it returns 0, which equals the cleared polynomial whenever the
    point satisfies e_j = t_j = 0 alongside v_j = 0; generator evaluations
    always do, since all three are moments of the same redraw set.
    """

    __slots__ = ("p", "k", "M", "degree", "vars")

    def __init__(self, p, k):
        _check_vars(p, _x_vars(k))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "M", M_constant(p))
        object.__setattr__(self, "degree", p.total_degree() + 6 * k)
        object.__setattr__(self, "vars", _etv_vars(k))

    def constant_term(self):
        return Fraction(0)

    def evaluate(self, point):
        vs = [Fraction(point[f"v{j}"]) for j in range(1, self.k + 1)]
        if any(v == 0 for v in vs):
            return Fraction(0)
        xs = [Fraction(point[f"e{j}"]) / vs[j - 1] ** 2 for j in range(1, self.k + 1)]
        ys = [Fraction(point[f"t{j}"]) / vs[j - 1] ** 3 for j in range(1, self.k + 1)]
        clear = Fraction(1)
        for v in vs:
            clear *= v ** (3 * self.degree)
        return self.q_value(xs, ys) * clear

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def q_value(self, xs, ys):
        return penalized_q(self.p, self.M, xs, ys)

    def as_polynomial(self):
        return tau(calculus_q(self.p.in_vars(_x_vars(self.k))), k=self.k)

    def __eq__(self, other):
        return (
            isinstance(other, TauCalculusPoly)
            and self.p == other.p
            and self.k == other.k
        )

    def __hash__(self):
        return hash(("TauCalculusPoly", self.p, self.k))

    def __repr__(self):
        return f"TauCalculusPoly({self.p!r}, k={self.k})"


def build_instance(p, k=COUNTEREXAMPLE_K):
    """The unlabeled clique image of the cleared calculus polynomial of p,
    as a structured expression over the k-vertex stringent base."""
    for _, coeff in p.terms.items():
        if coeff.denominator != 1:
            raise ValueError("coefficients must be integers")
    return Unlabel(frozenset(), _psitau_expr(stringent_graph(k), p))


# ---------------------------------------------------------------------------
# Witnesses and the embedding-sum evaluator


def witness_graph(p, counts):
    """Clique blow-up witness at a grid point where p is negative."""
    k = len(counts)
    if any(c < 1 for c in counts):
        raise ValueError("blow-up counts must be positive")
    _check_vars(p, _x_vars(k))
    value = p.evaluate(dict(zip(_x_vars(k), (1 - Fraction(1, c) for c in counts))))
    if value >= 0:
        # The sign, not the value, which may have more digits than print.
        sign = "0" if value == 0 else "a positive value"
        raise ValueError(f"grid point evaluates to {sign}, need a negative value")
    return clique_blowup(stringent_graph(k), counts)


def _instance_parts(instance):
    """Base graph and substituted polynomial of a clique-image expression."""
    expr = instance
    if isinstance(expr, Unlabel):
        if expr.keep:
            raise ValueError("expected a fully unlabeled instance")
        expr = expr.child
    if not isinstance(expr, PolyImage):
        raise ValueError("expected a clique-image expression")
    poly = expr.poly
    if not isinstance(poly, TauCalculusPoly):
        raise ValueError("expected a cleared-substitution polynomial")
    core = expr.generator_map()["v1"].plg
    at = core.label_map()
    return core.graph.induced([at[j] for j in range(1, poly.k + 1)]), poly


def psi_rooted_value(h, q, g, phi_map):
    """Rooted uniform density of the clique image, by the redraw-set formula:
    0 off the exact-embedding set, else q at the edge and triangle densities
    of the induced redraw sets, cleared by (|U_j|/n)^(3 deg q)."""
    n = g.n
    if not is_exact_embedding(h, g, phi_map):
        return Fraction(0)
    value = Fraction(1)
    xs, ys = [], []
    for j in range(1, h.n + 1):
        u = resample_set(h, g, phi_map, j)
        sub = g.induced(u)
        xs.append(t(Graph.complete(2), sub))
        ys.append(t(Graph.complete(3), sub))
        value *= Fraction(len(u), n) ** (3 * q.degree)
    return q.q_value(xs, ys) * value


def witness_eval(instance, g, budget=EMBED_BUDGET):
    """t of the unlabeled instance at g, as the exact-embedding sum."""
    h, q = _instance_parts(instance)
    n = g.n
    if n == 0:
        return Fraction(0)
    total = Fraction(0)
    for phi_map in exact_embeddings(h, g, budget=budget):
        total += psi_rooted_value(h, q, g, phi_map)
    return total / Fraction(n) ** h.n


# ---------------------------------------------------------------------------
# Serialization heads


def _graph_by_labels(plg):
    k = plg.graph.n
    if plg.label_set() != set(range(1, k + 1)):
        raise FormatError("base graph must be fully labeled 1..k")
    at = plg.label_map()
    return plg.graph.induced([at[j] for j in range(1, k + 1)])


def _parse_head(head, tokens):
    """The body of a `(phi ...)` or `(psitau ...)` record: a base graph
    labeled 1..k, '|', and a polynomial."""
    if "|" not in tokens:
        raise FormatError(f"({head} ...) needs a '|' between graph and polynomial")
    cut = tokens.index("|")
    h = _graph_by_labels(parse_plg(" ".join(tokens[:cut])))
    p = parse_poly(" ".join(tokens[cut + 1:]))
    return (phi if head == "phi" else _psitau_expr)(h, p)
