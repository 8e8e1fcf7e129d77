"""Exact density functionals.

Everything here returns exact rationals.  The basic quantities are
homomorphism densities t, injective densities t_inj, and induced densities
t_ind of a small graph in a larger one; labeled variants fix some vertices
through a root map (a dict label -> target vertex) and average the rest
over a vertex-weight distribution y.

t_ind uses the convention that a non-edge is respected by a pair of equal
images: an edge must go to a distinct adjacent pair, a non-edge to a pair
that is equal or non-adjacent.  This is what makes the partial-order and
Moebius identities exact sums over supergraphs, with no injectivity error
terms.

Every density is a sum over the ways of extending a map, pinned on some
vertices of a pattern, to all of it, and one kernel does all of them.  A
plan fixes the search order of the free vertices, split into independent
components, each ending in a tail whose vertices are summed over their
candidate masks rather than enumerated.  One candidate rule, in hom, inj
or exact mode, gives the target vertices open to each vertex, and also
checks the pinned vertices.  The ring sum adds products of integer
vertex-weight numerators over one denominator; the image walk yields whole
images, for the monomial bins of density polynomials, for exact
embeddings and for automorphisms.

Quantum graphs and term lists evaluate linearly, through one term sum that
every density shares.  Structured expressions evaluate without expansion:
Product nodes multiply factor densities, Unlabel nodes take an exact
expectation over label assignments, abandoning a branch as soon as the
partial assignment forces the child to vanish, and IndAtom nodes are the
exact mode of the kernel, which leaves their free pairs unconstrained.
Density polynomials are built from term lists only: a structured
expression is expanded first.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, lcm, perm

from .algebra import (
    Atom,
    Const,
    IndAtom,
    PolyImage,
    Product,
    QExpr,
    QuantumGraph,
    Sum,
    Unlabel,
    as_quantum,
)
from .errors import BudgetExceeded, CapExceeded, FormatError
from .graphs import (
    Graph,
    PartiallyLabeledGraph,
    _bits,
    format_plg,
    plg_from_fields,
    split_record_fields,
)
from .polynomials import Polynomial

UNLABEL_CAP = 8


def _as_graph(h):
    if isinstance(h, Graph):
        return h
    if isinstance(h, PartiallyLabeledGraph):
        if h.labels:
            raise ValueError("expected an unlabeled graph")
        return h.graph
    raise TypeError(f"expected a graph, got {type(h).__name__}")


class WeightedGraph:
    """A graph with a rational probability distribution on its vertices."""

    __slots__ = ("graph", "y")

    def __init__(self, graph, y):
        y = tuple(Fraction(w) for w in y)
        if len(y) != graph.n:
            raise ValueError("need one weight per vertex")
        if any(w < 0 for w in y):
            raise ValueError("negative vertex weight")
        if graph.n and sum(y) != 1:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedGraph is immutable")

    @staticmethod
    def uniform(graph):
        n = graph.n
        return WeightedGraph(graph, [Fraction(1, n)] * n if n else [])

    def __eq__(self, other):
        return (
            isinstance(other, WeightedGraph)
            and self.graph == other.graph
            and self.y == other.y
        )

    def __repr__(self):
        return f"WeightedGraph({self.graph!r}, y={list(self.y)})"


def as_weighted(G):
    if isinstance(G, WeightedGraph):
        return G
    if isinstance(G, Graph):
        return WeightedGraph.uniform(G)
    raise TypeError(f"expected a graph or weighted graph, got {type(G).__name__}")


def _target(G):
    """The graph and `_Weights` of a target; a plain graph weighs each
    vertex 1/n, with no WeightedGraph to build and validate."""
    if isinstance(G, Graph):
        return G, _Weights((Fraction(1, G.n),) * G.n if G.n else ())
    G = as_weighted(G)
    return G.graph, _Weights(G.y)


# ---------------------------------------------------------------------------
# The hom-extension kernel

HOM, INJ, EXACT = "hom", "inj", "exact"


class _Plan:
    """The search order for extending a map pinned on some pattern vertices.

    `order` lists the free vertices.  For position i, `nbs[i]` is the
    pattern neighbourhood of order[i] and `earlier[i]` the pinned or
    earlier vertices its candidates depend on: its neighbours among them,
    or in exact mode all of them but its partners in the `free` rows, one
    bitmask of free pairs per pattern vertex, or None.  `comps` holds one
    (start, tail, stop) range of positions per component of the constraint
    graph on the free vertices: the pattern in hom mode, the complete graph
    in inj and exact modes.  Positions tail..stop-1 have no constrained
    neighbour later in the order.
    """

    __slots__ = ("order", "nbs", "earlier", "comps", "mode", "exact", "inj", "free")

    def __init__(self, pattern, pinned, mode, free=None):
        adj = pattern.adj
        self.mode = mode
        self.free = free
        self.exact = mode == EXACT
        self.inj = mode == INJ
        bound = 0
        for v in pinned:
            bound |= 1 << v
        rest = _bits(((1 << pattern.n) - 1) & ~bound)
        order, starts, done = [], [], 0
        while rest:
            # Finish the current component first; within it, most placed
            # neighbours first, then highest degree.
            v = max(rest, key=lambda v: (
                (adj[v] & done) != 0, (adj[v] & (bound | done)).bit_count(), adj[v].bit_count()
            ))
            if not order or mode == HOM and not adj[v] & done:
                starts.append(len(order))
            rest.remove(v)
            order.append(v)
            done |= 1 << v
        # The tail of a component: its longest suffix with no constrained pair.
        self.comps = []
        for start, stop in zip(starts, starts[1:] + [len(order)]):
            tail, later = stop, 0
            while tail > start and not later & (adj[order[tail - 1]] if mode == HOM else -1):
                tail -= 1
                later |= 1 << order[tail]
            self.comps.append((start, tail, stop))
        self.order = order
        self.nbs = [adj[v] for v in order]
        self.earlier = []
        for v in order:
            exact = bound & ~free[v] if free else bound
            self.earlier.append(_bits(exact if self.exact else adj[v] & bound))
            bound |= 1 << v


def _candidates(nb, earlier, exact, adj, full, image, used):
    """Target vertices open to a pattern vertex with neighbourhood `nb`,
    given the images of the `earlier` vertices.

    A candidate is adjacent to the image of every earlier neighbour; in
    exact mode it is also not adjacent to the image of any earlier
    non-neighbour; it is never in `used`, which only inj mode fills.
    """
    cand = full & ~used
    for u in earlier:
        if nb >> u & 1:
            cand &= adj[image[u]]
        elif exact:
            cand &= ~adj[image[u]]
    return cand


def _bind(pattern, pinned, mode, graph, free=None):
    """Check the root map {pattern vertex: target vertex} by the candidate
    rule: the image list holding it and the target vertices it uses (inj
    mode only), or None when it breaks a constraint of `mode`.  `free`
    rows, as in `_Plan`, exempt pairs from the exact rule.  Root images
    must be target vertices; the error names them 1-based, as the text
    formats do."""
    n = graph.n
    for w in pinned.values():
        if not 0 <= w < n:
            raise ValueError(f"root image {w + 1} outside the target graph")
    adj, gadj, exact, inj = pattern.adj, graph.adj, mode == EXACT, mode == INJ
    full = (1 << n) - 1
    image = [0] * pattern.n
    used = 0
    seen = []
    for v, w in pinned.items():
        earlier = [u for u in seen if not free[v] >> u & 1] if free and free[v] else seen
        if earlier and not _candidates(adj[v], earlier, exact, gadj, full, image, used) >> w & 1:
            return None
        image[v] = w
        seen.append(v)
        if inj:
            used |= 1 << w
    return image, used


class _Weights:
    """Rational vertex weights of a target as integer numerators over their
    least common denominator, so a search adds and multiplies integers only.

    `flat` is the common numerator when all are equal, so that a candidate
    mask weighs its popcount times `flat`.
    """

    __slots__ = ("y", "num", "den", "flat")

    def __init__(self, y):
        self.y = y
        self.den = lcm(*(w.denominator for w in y))
        self.num = [w.numerator * (self.den // w.denominator) for w in y]
        self.flat = self.num[0] if len(set(self.num)) == 1 else None

    def mask_sum(self, mask):
        if self.flat is not None:
            return self.flat * mask.bit_count()
        return sum(self.num[w] for w in _bits(mask))


def _ring_sum(plan, graph, weights, image, used):
    """Sum over extensions of the bound image of the product of the weight
    numerators of the free vertices' images.

    Components extend independently, so their sums multiply; a tail vertex
    is summed over its candidate mask instead of enumerated.
    """
    adj, full, num = graph.adj, (1 << graph.n) - 1, weights.num
    order, nbs, earlier, exact, inj = plan.order, plan.nbs, plan.earlier, plan.exact, plan.inj

    def rec(i, tail, stop, used):
        if i == tail:
            value = 1
            for j in range(tail, stop):
                cand = _candidates(nbs[j], earlier[j], exact, adj, full, image, used)
                value *= weights.mask_sum(cand)
                if not value:
                    break
            return value
        cand = _candidates(nbs[i], earlier[i], exact, adj, full, image, used)
        v = order[i]
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            image[v] = w
            sub = rec(i + 1, tail, stop, used | low if inj else used)
            if sub:
                total += num[w] * sub
        return total

    value = 1
    for start, tail, stop in plan.comps:
        value *= rec(start, tail, stop, used)
        if not value:
            break
    return value


def _walk(plan, graph, image, used, budget=None):
    """Yield `image` once per extension, with every free vertex filled in.

    The same list is yielded each time; `budget` caps the search nodes.
    """
    order, nbs, earlier, exact, inj = plan.order, plan.nbs, plan.earlier, plan.exact, plan.inj
    k = len(order)
    if not k:
        yield image
        return
    adj, full = graph.adj, (1 << graph.n) - 1
    used = [used] * (k + 1)
    masks = [0] * k
    masks[0] = _candidates(nbs[0], earlier[0], exact, adj, full, image, used[0])
    nodes = 0
    i = 0
    while i >= 0:
        cand = masks[i]
        if not cand:
            i -= 1
            continue
        low = cand & -cand
        masks[i] = cand ^ low
        image[order[i]] = low.bit_length() - 1
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded(f"extension search exceeded {budget} nodes")
        if i + 1 == k:
            yield image
            continue
        i += 1
        if inj:
            used[i] = used[i - 1] | low
        masks[i] = _candidates(nbs[i], earlier[i], exact, adj, full, image, used[i])


def extensions(pattern, pinned, mode, graph, budget=None):
    """Yield the image list (indexed by pattern vertex) of every extension
    of the root map `pinned` {pattern vertex: target vertex}."""
    bound = _bind(pattern, pinned, mode, graph)
    if bound is not None:
        yield from _walk(_Plan(pattern, pinned, mode), graph, *bound, budget)


def _rooted_density(pattern, pinned, mode, graph, weights, free=None):
    """The weighted probability that a random extension of `pinned` is a
    homomorphism (hom mode), an injective one (inj) or exact (exact), with
    the pairs in the `free` rows unconstrained."""
    bound = _bind(pattern, pinned, mode, graph, free)
    if bound is None:
        return Fraction(0)
    value = _ring_sum(_Plan(pattern, pinned, mode, free), graph, weights, *bound)
    return Fraction(value, weights.den ** (pattern.n - len(pinned)))


def _density(h, g, mode):
    h, g = _as_graph(h), _as_graph(g)
    return _rooted_density(h, {}, mode, *_target(g))


# ---------------------------------------------------------------------------
# Basic densities


def hom_count(h, g):
    """Number of maps V(h) -> V(g) sending every edge of h to an edge of g."""
    return int(t(h, g) * g.n ** h.n)


def t(h, g):
    """Probability that a uniformly random map V(h) -> V(g) is a homomorphism."""
    return _density(h, g, HOM)


def t_inj(h, g):
    """Density over injective maps; 0 when the target is smaller than h."""
    if g.n < h.n:
        return Fraction(0)
    return _density(h, g, INJ) * Fraction(g.n ** h.n, perm(g.n, h.n))


def t_ind(h, g):
    """Exact-pattern density: edges land on distinct adjacent pairs, non-edges
    on equal or non-adjacent pairs."""
    return _density(h, g, EXACT)


# ---------------------------------------------------------------------------
# Quantum graphs and structured expressions


def t_quantum(f, G, phi=None):
    """Rooted weighted density, extended linearly and structurally.

    f may be a QuantumGraph (or plain graph material), a term list (a
    tuple of (plg, coefficient) pairs, isomorphic duplicates allowed) or a
    QExpr tree; phi must cover every label of f's normal form.
    Structured trees are never expanded.
    """
    graph, weights = _target(G)
    phi = dict(phi or {})
    if isinstance(f, QExpr):
        _check_cover(f.label_set(), phi)
        return _eval_expr(f, graph, weights, phi)
    return _sum_terms(_term_plans(_terms(f), phi, graph.n), graph, weights)


def compiled_density(f):
    """The function G -> t_quantum(f, G) of an unlabeled f.

    A term list or QuantumGraph compiles each term's plan once, here, and
    reuses it for every target; a QExpr is evaluated afresh each call.
    """
    if isinstance(f, QExpr):
        return lambda G: t_quantum(f, G)
    plans = list(_term_plans(_terms(f), {}, 0))
    return lambda G: _sum_terms(plans, *_target(G))


def _terms(f):
    """The (plg, coefficient) pairs of a term list or of quantum-graph material."""
    return f if isinstance(f, tuple) else as_quantum(f).terms.items()


def _label_set(f):
    """The labels of the normal form of f.  A term list builds that normal
    form only when some term carries a label."""
    if isinstance(f, tuple):
        if not any(plg.labels for plg, _ in f):
            return frozenset()
        f = QuantumGraph(f)
    return f.label_set()


def _term_plans(terms, phi, n):
    """Yield (coefficient, pattern, pinned, plan) per nonzero term of a term
    list evaluated under the root map phi on an n-vertex target, one plan
    at a time.

    A label that only terms cancelling up to isomorphism carry is absent
    from the normal form, so phi need not cover it, and it stays unpinned:
    those terms still cancel.  Only that case builds the normal form.
    """
    terms = tuple((plg, coeff) for plg, coeff in terms if coeff)
    labels = {lab for plg, _ in terms for lab, _ in plg.labels}
    if not all(lab in phi and 0 <= phi[lab] < n for lab in labels):
        labels = _label_set(terms)
        _check_cover(labels, phi)
        phi = {lab: phi[lab] for lab in labels}
    for plg, coeff in terms:
        pinned = _pinned(plg, phi)
        yield coeff, plg.graph, pinned, _Plan(plg.graph, pinned, HOM)


def _sum_terms(plans, graph, weights):
    """The sum of coefficient times density over (coefficient, pattern,
    pinned, plan) tuples, in each plan's mode.

    Each ring sum is an integer over den ** (free vertices), so the sums
    are collected as integers per (free vertices, coefficient denominator)
    and only those few become Fractions.
    """
    sums = Counter()
    for coeff, pattern, pinned, plan in plans:
        bound = _bind(pattern, pinned, plan.mode, graph, plan.free)
        if bound is not None:
            value = _ring_sum(plan, graph, weights, *bound)
            sums[pattern.n - len(pinned), coeff.denominator] += coeff.numerator * value
    return sum(
        (Fraction(num, den * weights.den ** k) for (k, den), num in sums.items()),
        Fraction(0),
    )


def _check_cover(labels, phi):
    missing = set(labels) - set(phi)
    if missing:
        raise ValueError(f"root map missing labels {sorted(missing)}")


def _pinned(plg, phi):
    """The root map on the labeled vertices of plg."""
    return {v: phi[lab] for lab, v in plg.labels if lab in phi}


def _eval_expr(expr, graph, weights, phi):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, (Atom, IndAtom)):
        mode, free = (HOM, None) if isinstance(expr, Atom) else (EXACT, expr.rows)
        return _rooted_density(expr.plg.graph, _pinned(expr.plg, phi), mode, graph, weights, free)
    if isinstance(expr, Sum):
        total = Fraction(0)
        for child in expr.children:
            total = total + _eval_expr(child, graph, weights, phi)
        return total
    if isinstance(expr, Product):
        total = Fraction(1)
        for child in expr.children:
            total = total * _eval_expr(child, graph, weights, phi)
        return total
    if isinstance(expr, Unlabel):
        return _eval_unlabel(expr, graph, weights, phi)
    if isinstance(expr, PolyImage):
        values = {
            var: _eval_expr(gen, graph, weights, phi) for var, gen in expr.generators
        }
        return expr.poly.evaluate(values)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _eval_unlabel(expr, graph, weights, phi):
    inner_labels = expr.child.label_set()
    free = sorted(inner_labels - expr.keep)
    if len(free) > UNLABEL_CAP:
        raise CapExceeded(
            f"unlabeling over {len(free)} labels exceeds cap {UNLABEL_CAP}"
        )
    base = {lab: phi[lab] for lab in inner_labels & expr.keep}

    def rec(i, assignment):
        if _prune(expr.child, assignment, graph):
            return Fraction(0)
        if i == len(free):
            return _eval_expr(expr.child, graph, weights, assignment)
        total = Fraction(0)
        for v in range(graph.n):
            assignment[free[i]] = v
            sub = rec(i + 1, assignment)
            if sub:
                total += weights.y[v] * sub
            del assignment[free[i]]
        return total

    return rec(0, dict(base))


def _prune(expr, assignment, graph):
    """True only when every completion of `assignment` makes expr vanish."""
    if isinstance(expr, Const):
        return expr.value == 0
    if isinstance(expr, (Atom, IndAtom)):
        mode, free = (HOM, None) if isinstance(expr, Atom) else (EXACT, expr.rows)
        # The label search assigns labels in ascending order, and a branch
        # mostly fails on its newest label: bind the highest labels first.
        labels = reversed(expr.plg.labels)
        pinned = {v: assignment[lab] for lab, v in labels if lab in assignment}
        return _bind(expr.plg.graph, pinned, mode, graph, free) is None
    if isinstance(expr, Sum):
        return bool(expr.children) and all(
            _prune(c, assignment, graph) for c in expr.children
        )
    if isinstance(expr, Product):
        return any(_prune(c, assignment, graph) for c in expr.children)
    if isinstance(expr, Unlabel):
        visible = {lab: v for lab, v in assignment.items() if lab in expr.keep}
        return _prune(expr.child, visible, graph)
    if isinstance(expr, PolyImage):
        if any(not _prune(gen, assignment, graph) for _, gen in expr.generators):
            return False
        return expr.poly.constant_term() == 0
    return False


# ---------------------------------------------------------------------------
# Symbolic density polynomials


def density_polynomial(f, g, phi=None):
    """The density as a polynomial in vertex weights y_1..y_n of the target.

    f is a QuantumGraph (or plain graph material) or a term list, read as
    t_quantum reads it; evaluating the result at any probability
    distribution equals t_quantum(f, (g, y), phi).  The extensions of each
    term are binned by their image multiset.  A structured expression is a
    TypeError: expand it first.
    """
    if isinstance(f, QExpr):
        raise TypeError(
            "density_polynomial takes a quantum graph or term list; for a "
            "structured expression use density_polynomial(expand(expr), g, phi)"
        )
    g = _as_graph(g) if not isinstance(g, WeightedGraph) else g.graph
    terms = Counter()
    for coeff, pattern, pinned, plan in _term_plans(_terms(f), dict(phi or {}), g.n):
        bound = _bind(pattern, pinned, plan.mode, g)
        if bound is None:
            continue
        bins = Counter()
        for image in _walk(plan, g, *bound):
            exps = [0] * g.n
            for v in plan.order:
                exps[image[v]] += 1
            bins[tuple(exps)] += 1
        for exps, count in bins.items():
            terms[exps] += coeff * count
    return Polynomial(tuple(f"y{i}" for i in range(1, g.n + 1)), terms)


# ---------------------------------------------------------------------------
# The near-injectivity bound


def check_tasym(h, g):
    """|t - t_inj| <= C(|V(h)|, 2) / |V(g)|, the random-collision bound."""
    h, g = _as_graph(h), _as_graph(g)
    gap = abs(t(h, g) - t_inj(h, g))
    if g.n == 0:
        return gap == 0
    return gap <= Fraction(comb(h.n, 2), g.n)


# ---------------------------------------------------------------------------
# Text formats


def format_weighted_graph(G):
    G = as_weighted(G)
    record = format_plg(G.graph)
    if G.graph.n:
        record += " weights=" + ",".join(str(w) for w in G.y)
    return record


def parse_weighted_graph(text, line=None):
    fields = split_record_fields(text, line=line, allowed=("n", "edges", "weights"))
    plg = plg_from_fields({k: v for k, v in fields.items() if k != "weights"}, line=line)
    n = plg.graph.n
    if fields.get("weights"):
        try:
            y = [Fraction(wtxt) for wtxt in fields["weights"].split(",")]
        except (ValueError, ZeroDivisionError):
            raise FormatError("bad weight entry", line=line) from None
    else:
        y = [Fraction(1, n)] * n if n else []
    try:
        return WeightedGraph(plg.graph, y)
    except ValueError as exc:
        raise FormatError(str(exc), line=line) from None
