"""Reductions from polynomials to labeled quantum graphs.

Two constructions over a base graph H on vertices [k] (vertex i carries
label i+1... in the code vertices are 0-based, labels are 1-based):

The clone construction sends x_j to ind(H_j) + ind(H_j'), where H_j adds
one unlabeled copy of vertex j joined to exactly N(j), and H_j' also joins
the copy to j itself.  The two alternating supergraph sums cancel every
term containing the copy-to-j pair, so the sum runs over supergraphs of
H_j that avoid that pair; the copy's relation to j is therefore
unconstrained in the rooted density.  For p without constant term,
evaluating at a root map phi gives p(alpha_1(phi), ..., alpha_k(phi))
when phi is an exact embedding and 0 otherwise, where alpha_j is the
probability that redrawing phi(j) lands back in the exact-embedding set.
(A constant term maps to a multiple of the unit, which is 1 everywhere.)

The clique construction sends v_j, e_j, t_j to generators V_j, E_j, T_j
built from H plus an unlabeled m-clique (m = 1, 2, 3) joined to N(j),
summed over all 2^m ways of wiring the clique to j.  Rooted uniformly at
an exact embedding, the generator densities are the vertex, edge, and
triangle moments of the redraw set U_j, which is what makes the cleared
substitution x_i = e_i/v_i^2, y_i = t_i/v_i^3 evaluate to a density
statement about t(K2;U_j) and t(K3;U_j).

Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

from .algebra import (
    IndAtom,
    PolyImage,
    QuantumGraph,
    Sum,
    Unlabel,
    register_qexpr_head,
)
from .density import EXACT, as_weighted, extensions, t
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
    calculus_q,
    counterexample_poly,
    format_poly,
    goodman_g,
    parse_poly,
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
    return next(extensions(h, pinned, EXACT, g), None) is not None


def exact_embeddings(h, g, budget=EMBED_BUDGET):
    """All root maps V(h) -> V(g) preserving adjacency and non-adjacency.

    `budget` bounds the number of search nodes.  Returns root maps keyed
    by label, sorted.
    """
    images = sorted(tuple(image) for image in extensions(h, {}, EXACT, g, budget=budget))
    return [{v + 1: w for v, w in enumerate(image)} for image in images]


def resample_set(h, g, phi, j):
    """U_j: the vertices w for which phi with j redirected to w stays exact."""
    others = {v: phi[v + 1] for v in range(h.n) if v != j - 1}
    return [image[j - 1] for image in extensions(h, others, EXACT, g)]


# ---------------------------------------------------------------------------
# The clone construction


def clone_pair(h, j):
    """(H_j, H_j'): H plus an unlabeled copy of j joined to N(j), without
    and with the copy-to-j edge."""
    k = h.n
    c = k
    base = list(h.edges) + [(u, c) for u in h.neighbors(j - 1)]
    labels = {i + 1: i for i in range(k)}
    without = PartiallyLabeledGraph(Graph(k + 1, base), labels)
    with_edge = PartiallyLabeledGraph(Graph(k + 1, base + [(j - 1, c)]), labels)
    return without, with_edge


def phi_generator(h, j):
    without, with_edge = clone_pair(h, j)
    return Sum([IndAtom(without), IndAtom(with_edge)])


def _x_vars(k):
    return tuple(f"x{j}" for j in range(1, k + 1))


def _check_vars(p, allowed):
    bad = set(p.vars) - set(allowed)
    if bad:
        raise ValueError(f"polynomial uses variables {sorted(bad)}, expected {', '.join(allowed)}")


def phi(h, p):
    """The image of p under the clone homomorphism, as a structured tree."""
    k = h.n
    _check_vars(p, _x_vars(k))
    gens = {f"x{j}": phi_generator(h, j) for j in range(1, k + 1)}
    origin = f"(phi {format_plg(labeled_base(h))} | {format_poly(p)})"
    return PolyImage(gens, p, origin=origin)


def alpha(h, G, phi_map, j):
    """Probability that redrawing phi(j) from the vertex distribution keeps
    the map an exact embedding."""
    G = as_weighted(G)
    if not is_exact_embedding(h, G.graph, phi_map):
        raise ValueError("root map is not an exact embedding")
    return sum((G.y[w] for w in resample_set(h, G.graph, phi_map, j)), Fraction(0))


def _subsets(items):
    """Every subset of `items` as a list, in the order of its bitmask."""
    return [
        [item for i, item in enumerate(items) if mask >> i & 1]
        for mask in range(1 << len(items))
    ]


def _monomial_terms(h, js):
    """Weighted expansion of the clone image of the monomial prod x_j.

    One unlabeled copy c_i per factor, joined to N(j_i).  The
    inclusion-exclusion over supergraphs collapses so that each subset A of
    the free pairs (internal non-edges of h, plus copy-to-non-neighbor
    pairs) appears once with sign (-1)^|A|; copy-to-copy and copy-to-own-j
    pairs never appear.

    Copies of the same j are wired alike, so swapping two of them is an
    isomorphism that keeps |A|.  Repeated copies are therefore taken up to
    swapping: each copy of a j gets a subset of the non-neighbors of j,
    chosen in ascending order across the copies, and the term's weight
    counts the orders that reach it, m!/prod(multiplicity!) for m copies.
    Yields (edge list, weight) over k + len(js) vertices, where weight is
    (-1)^|A| times that count; with no repeated j every weight is the sign.
    """
    if not js:
        raise ValueError("need at least one factor; the empty product maps to the unit")
    k = h.n
    base = list(h.edges)
    internal = [
        (u, v)
        for u in range(k)
        for v in range(u + 1, k)
        if not h.has_edge(u, v)
    ]
    copies = {}
    for i, j in enumerate(js):
        base.extend((u, k + i) for u in h.neighbors(j - 1))
        copies.setdefault(j, []).append(k + i)
    # One list of (extra edges, count) choices per group.  The internal pairs
    # vary fastest and the last group slowest, as the bits of one mask over
    # all free pairs would.
    groups = [[(extra, 1) for extra in _subsets(internal)]]
    for j, cs in copies.items():
        free = _subsets(
            [w for w in range(k) if w != j - 1 and not h.has_edge(w, j - 1)]
        )
        choices = []
        for picks in combinations_with_replacement(range(len(free)), len(cs)):
            count = factorial(len(cs))
            for mult in Counter(picks).values():
                count //= factorial(mult)
            extra = [(w, c) for c, s in zip(cs, picks) for w in free[s]]
            choices.append((extra, count))
        groups.append(choices)
    for combo in product(*reversed(groups)):
        extra = []
        weight = 1
        for edges, count in reversed(combo):
            extra += edges
            weight *= count
        yield base + extra, -weight if len(extra) % 2 else weight


def build_counterexample(k=COUNTEREXAMPLE_K):
    """The positive-but-not-square quantum graph: the unlabeled clone image
    of the Motzkin-type polynomial over the k-vertex stringent base."""
    if k != COUNTEREXAMPLE_K:
        raise ValueError(f"only k = {COUNTEREXAMPLE_K} is supported")
    h = stringent_graph(k)
    p = counterexample_poly(k)
    acc = {}
    for exps, coeff in p.terms.items():
        js = []
        for pos, e in enumerate(exps):
            js.extend([pos + 1] * e)
        for edges, weight in _monomial_terms(h, js):
            plg = PartiallyLabeledGraph(Graph(k + len(js), edges)).canonical()
            value = acc.get(plg, 0) + weight * coeff
            if value:
                acc[plg] = value
            else:
                acc.pop(plg, None)
    return QuantumGraph(acc)


# ---------------------------------------------------------------------------
# The clique construction


def clique_extension(h, j, m, joined):
    """H plus an unlabeled m-clique joined to N(j), plus the edges from the
    clique members listed in `joined` to j itself."""
    k = h.n
    edges = list(h.edges)
    for a in range(m):
        c = k + a
        edges.extend((u, c) for u in h.neighbors(j - 1))
        edges.extend((k + b, c) for b in range(a))
    edges.extend((j - 1, k + a) for a in joined)
    labels = {i + 1: i for i in range(k)}
    return PartiallyLabeledGraph(Graph(k + m, edges), labels)


def psi_generator(h, j, m):
    """Sum over the 2^m wirings of the m-clique to j, as ind-atoms."""
    atoms = []
    for mask in range(1 << m):
        joined = [a for a in range(m) if mask >> a & 1]
        atoms.append(IndAtom(clique_extension(h, j, m, joined)))
    return Sum(atoms)


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


def _etv_vars(k):
    out = []
    for prefix in ("e", "t", "v"):
        out.extend(f"{prefix}{j}" for j in range(1, k + 1))
    return tuple(out)


class _TauSubstituted:
    """Shared evaluation for cleared-substitution polynomials.

    evaluate() takes generator values keyed e_j/t_j/v_j and computes
    q(e/v^2, t/v^3) * prod v^(3 deg q) by rational substitution.  When some
    v_j = 0 it returns 0, which equals the cleared polynomial whenever the
    point satisfies e_j = t_j = 0 alongside v_j = 0; generator evaluations
    always do, since all three are moments of the same redraw set.
    """

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


class TauPoly(_TauSubstituted):
    """The cleared substitution image of an explicit polynomial q(x, y)."""

    __slots__ = ("q", "k", "degree", "vars")

    def __init__(self, q, k):
        _check_vars(q, _x_vars(k) + tuple(f"y{j}" for j in range(1, k + 1)))
        if q.total_degree() == 0:
            raise ValueError("source polynomial must not be constant")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "degree", q.total_degree())
        object.__setattr__(self, "vars", _etv_vars(k))

    def __setattr__(self, name, value):
        raise AttributeError("TauPoly is immutable")

    def q_value(self, xs, ys):
        point = {}
        for var in self.q.vars:
            idx = int(var[1:]) - 1
            point[var] = xs[idx] if var[0] == "x" else ys[idx]
        return self.q.evaluate(point)

    def as_polynomial(self):
        return tau(self.q, k=self.k)

    def __eq__(self, other):
        return isinstance(other, TauPoly) and self.q == other.q and self.k == other.k

    def __hash__(self):
        return hash(("TauPoly", self.q, self.k))

    def __repr__(self):
        return f"TauPoly({self.q!r}, k={self.k})"


class TauCalculusPoly(_TauSubstituted):
    """The cleared substitution image of q = p * prod(1-x_i)^6 + M * sum(y_i - g(x_i)).

    q is never expanded (it would have on the order of 7^k monomials);
    q_value evaluates the structured form directly from p.
    """

    __slots__ = ("p", "k", "M", "degree", "vars")

    def __init__(self, p, k):
        _check_vars(p, _x_vars(k))
        if p.total_degree() == 0:
            raise ValueError("source polynomial must not be constant")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "M", M_constant(p))
        object.__setattr__(self, "degree", p.total_degree() + 6 * k)
        object.__setattr__(self, "vars", _etv_vars(k))

    def __setattr__(self, name, value):
        raise AttributeError("TauCalculusPoly is immutable")

    def q_value(self, xs, ys):
        point = {var: xs[int(var[1:]) - 1] for var in self.p.vars}
        value = self.p.evaluate(point)
        for x in xs:
            value *= (1 - x) ** 6
        penalty = sum((y - goodman_g(x) for x, y in zip(xs, ys)), Fraction(0))
        return value + self.M * penalty

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
    if p.total_degree() < 1:
        raise ValueError("need a non-constant polynomial")
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
    point = {var: 1 - Fraction(1, counts[int(var[1:]) - 1]) for var in p.vars}
    value = p.evaluate(point)
    if value >= 0:
        raise ValueError(f"grid point evaluates to {value}, need a negative value")
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
    if not isinstance(poly, _TauSubstituted):
        raise ValueError("expected a cleared-substitution polynomial")
    gens = expr.generator_map()
    atom = gens["v1"].children[0]
    core = atom.plg
    label_map = core.label_map()
    order = [label_map[j] for j in range(1, poly.k + 1)]
    keep = set(order)
    edges = [
        (order.index(u), order.index(v))
        for u, v in core.graph.edges
        if u in keep and v in keep
    ]
    return Graph(poly.k, edges), poly


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


def _graph_by_labels(plg, line=None):
    k = plg.graph.n
    if set(plg.label_set()) != set(range(1, k + 1)):
        raise FormatError("base graph must be fully labeled 1..k", line=line)
    label_map = plg.label_map()
    perm = [0] * k
    for j in range(1, k + 1):
        perm[label_map[j]] = j - 1
    return plg.relabeled_vertices(perm).graph


def _split_head(tokens, head):
    if "|" not in tokens:
        raise FormatError(f"({head} ...) needs a '|' between graph and polynomial")
    cut = tokens.index("|")
    plg = parse_plg(" ".join(tokens[:cut]))
    poly = parse_poly(" ".join(tokens[cut + 1:]))
    return _graph_by_labels(plg), poly


def _parse_phi_head(tokens):
    h, p = _split_head(tokens, "phi")
    return phi(h, p)


def _parse_psitau_head(tokens):
    return _psitau_expr(*_split_head(tokens, "psitau"))


register_qexpr_head("phi", _parse_phi_head)
register_qexpr_head("psitau", _parse_psitau_head)
