"""Exact density functionals.

Everything here returns exact rationals.  The basic quantities are
homomorphism densities t and induced densities t_ind of a small graph in
a larger one; labeled variants fix some vertices through a root map (a
dict label -> target vertex) and average the rest over a vertex-weight
distribution y.

t_ind uses the convention that a non-edge is respected by a pair of equal
images: an edge must go to a distinct adjacent pair, a non-edge to a pair
that is equal or non-adjacent.  This is what makes the partial-order and
Moebius identities exact sums over supergraphs, with no injectivity error
terms.

Every density is a sum over the ways of extending a map, pinned on some
vertices of a pattern, to all of it, and one search does all of them.  The
free vertices split into components, each searched in a greedy order,
grown only as deep as a search reaches, in hom or exact mode.  A term
list is one `_TermSearch` over a trie of the components' position codes,
so components that share a prefix enumerate its images once.  Codes name
pinned vertices by keys, such as labels, not by their images, so a search
serves every root map.  Pinned vertices have codes too, read against the
pins before them, so a walk checks the whole root map and zeroes the
terms it breaks.  Where components reach their tails, the search
counts them for a density, weighing each distinct candidate mask once per
target, or hands the path images and tail masks to a caller: a density
polynomial counts its monomials there, each one packed int of exponents
in the layout of `polynomials.Polynomial`, sums the terms as integer
numerators over one denominator, and hands the monomials to that ring
as they are; `extensions` lists whole exact images, for exact
embeddings and the label walk of Unlabel nodes.  A single density or
extension list is the search of a one-term list.

Quantum graphs and term lists evaluate linearly, through the one search
that every density shares; an unlabeled QuantumGraph keeps it for its next
t_quantum or density_polynomial call, since it serves every target.
Structured expressions evaluate without expansion: Product nodes
multiply factor densities, and IndAtom nodes are the exact mode of the
kernel, which leaves their free pairs unconstrained.  Every node has a
label trigraph, the label pairs that each root map at which it is nonzero
sends to edges or to non-edges, so an Unlabel node walks the exact
embeddings of its child's trigraph with the kernel and evaluates the
child once per embedding.
Density polynomials are built from term lists only: a structured
expression is expanded first.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from types import MappingProxyType

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
    _components,
    format_plg,
    parse_rational,
    plg_from_fields,
    split_record_fields,
)
from .polynomials import Polynomial, _width

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

HOM, EXACT = "hom", "exact"


def _root(pinned, a, pinmask, mode, free):
    """The `root` of the code of a vertex with neighbour row `a` and free
    row `free`, as `_TermSearch` describes it, against the pinned vertices
    in `pinmask`."""
    if not pinmask:
        return ()
    near = tuple(sorted(pinned[u] for u in _bits(a & pinmask)))
    apart = tuple(sorted(pinned[u] for u in _bits(pinmask & ~a & ~free))) if mode == EXACT else ()
    return (near, apart) if near or apart else ()


def _root_mask(root, at, gadj, full):
    """The target vertices a code's `root` leaves open under the root map
    `at`, which sends each key to its image."""
    mask = full
    if root:
        near, apart = root
        for k in near:
            mask &= gadj[at[k]]
        for k in apart:
            mask &= ~gadj[at[k]]
    return mask


class _Weights:
    """Rational vertex weights of a target as integer numerators over their
    least common denominator, so a search adds and multiplies integers only.

    `flat` is the common numerator when all are equal, so that a candidate
    mask weighs its popcount times `flat`.  Otherwise a mask weighs the sum
    of its vertices' numerators, and `mask_sums` keeps that sum for each
    mask a search has read.  It lives as long as this object, one per
    target, so every atom and label walk evaluated at the target shares it.
    """

    __slots__ = ("num", "den", "flat", "mask_sums")

    def __init__(self, y):
        self.den = lcm(*(w.denominator for w in y))
        self.num = [w.numerator * (self.den // w.denominator) for w in y]
        self.flat = self.num[0] if len(set(self.num)) == 1 else None
        self.mask_sums = {}


class _Node:
    """A node of the term search's trie: the components whose search
    orders share the codes of the positions on the path to it.

    `pending` holds their indices until the search first reaches the node
    and builds it.  Then `codes` lists, as (root id, near positions, apart
    positions), the distinct codes of the next position and of the tails
    that start here; `children` pairs a code index with the node of the
    components placing that code next; `tails` lists the code indices the
    tails use, and `leaves` pairs each distinct tail, as indices into
    `tails`, with the leaf group of its components.
    """

    __slots__ = ("pending", "codes", "children", "tails", "leaves")

    def __init__(self, pending):
        self.pending = pending


class _TermSearch:
    """The extensions of every term of a term list, in one search.

    Each term is (coefficient, pattern, pinned), `pinned` mapping each
    pinned vertex to a key: a label, or the vertex itself.  The search
    reads keys only, so it serves every root map: `walk` and `value` take
    the root map `at`, key -> target vertex.  `free` rows, one bitmask of
    free partners per pattern vertex, exempt pairs from the exact rule in
    a one-term list.  A term's free vertices form components, the
    pattern's in hom mode and one in exact mode, where every pair is
    constrained.  A component is placed in a greedy order: the next
    vertex touches a placed vertex, then has most placed or pinned
    neighbours, then highest degree, then lowest index.  Once no
    constrained pair is left among the unplaced vertices, they are placed
    at once as the tail, read as candidate masks.

    A position's code is what its candidates depend on, named by positions
    and keys rather than vertices and images, so that components of
    different patterns share codes.  It is (root, near, apart): `near` is
    the mask of the earlier positions whose images the candidate must be
    adjacent to, `apart` the mask of those it must not be adjacent to in
    exact mode, and `root` is (near, apart): the keys of its pinned
    neighbours and, in exact mode, non-neighbours, as sorted tuples, or
    () when both are empty.  A walk reads each root's images through `at`
    once.  A pinned vertex has a root too, against the pinned vertices
    before it in `pinned`, so a walk checks the whole root map: it zeroes
    each term with a pinned image outside its root's mask.

    The search walks a trie of the codes, built lazily, so components that
    share a prefix enumerate its images once and an order grows only as
    deep as a search reaches.  Components whose tails start at one node and
    read the same codes form a leaf group, which `walk` either counts,
    summing over the images of its path the product of the weight
    numerators of the placed positions and of each tail vertex's candidate
    mask, or hands to a caller.  A mask's weight is read from `_Weights`,
    which sums each distinct mask once per target.  In `value` a term is
    its coefficient times the product of its components' counts.  Each
    count is an integer over den ** (free vertices), so terms are summed as
    integers per (free vertices, coefficient denominator) and only those
    sums become Fractions.

    The state is flat lists, not objects per term for the collector to
    traverse.  Per term: coefficient, free vertex count, end of its
    components; per pinned vertex with a nonempty root: its term, key and
    root id.  Per component: its pattern's rows, pinned keys and pinned
    mask, constrained pairs, leaf group (0 until its tail is placed),
    `state`, its vertex mask with its order above, n.bit_length() bits a
    position holding the vertex plus one, and `keys`, what `_grow` keeps
    of an order still growing, for one walk or for a compiled function.
    """

    def __init__(self, terms, mode, free=None):
        self.mode, self.free = mode, free
        self.coeffs, self.sizes, self.stops, self.checks = [], [], [], []
        self.rows, self.pins, self.pinmask, self.state, self.pairs = [], [], [], [], []
        self.roots = {(): 0}
        for coeff, pattern, pinned in terms:
            pinmask = 0
            for v in pinned:
                root = _root(pinned, pattern.adj[v], pinmask, mode, free[v] if free else 0)
                if root:
                    rid = self.roots.setdefault(root, len(self.roots))
                    self.checks.append((len(self.coeffs), pinned[v], rid))
                pinmask |= 1 << v
            rest = (1 << pattern.n) - 1 ^ pinmask
            k = rest.bit_count()
            comps = _components(pattern.adj, rest) if mode == HOM else [(rest, k * (k - 1) // 2)] * (k > 0)
            for comp, pairs in comps:
                self.state.append(comp)
                self.pairs.append(pairs)
                self.rows.append(pattern.adj)
                self.pins.append(pinned)
                self.pinmask.append(pinmask)
            self.coeffs.append(coeff)
            self.sizes.append(pattern.n - len(pinned))
            self.stops.append(len(self.state))
        self.group = [0] * len(self.state)  # group 0 counts the tails no search has reached
        self.keys = None
        self.root = _Node(list(range(len(self.state))))
        self.depth = max(self.sizes, default=0)
        self.groups = 1

    def order(self, c, d):
        """The vertices at the first d positions of component c."""
        n, b = len(self.rows[c]), len(self.rows[c]).bit_length()
        return [(self.state[c] >> n + p * b & (1 << b) - 1) - 1 for p in range(d)]

    def value(self, graph, weights, at):
        coeffs, totals = self.walk(graph, weights, at)
        sums, group, start = Counter(), self.group, 0
        for coeff, size, stop in zip(coeffs, self.sizes, self.stops):
            value = coeff.numerator
            for c in range(start, stop):
                value *= totals[group[c]]
            start = stop
            if value:
                sums[size, coeff.denominator] += value
        return sum(
            (Fraction(n, den * weights.den ** k) for (k, den), n in sums.items()),
            Fraction(0),
        )

    def walk(self, graph, weights, at, leaf=None):
        """Search the trie on one target under the root map `at`, whose
        images must be target vertices.  Return the coefficients, 0 for
        each term that `at` breaks, and, without `leaf`, each leaf group's
        count; with it, call leaf(node, d, img, masks) at each node of depth
        d where tails start, img[:d] holding the images of the path and
        masks[i] the candidates of the node's code i.  A walk that breaks
        every term visits no node.  Only vertices of positive weight are
        placed on the path, so a walk over every extension takes uniform
        weights."""
        gadj, num, flat, weighed = graph.adj, weights.num, weights.flat, weights.mask_sums
        full = (1 << graph.n) - 1
        support = full if flat else sum(1 << w for w, x in enumerate(num) if x)
        rmask = [_root_mask(root, at, gadj, full) for root in self.roots]
        totals = [0] * self.groups
        broken = {term for term, key, rid in self.checks if not rmask[rid] >> at[key] & 1}
        coeffs = [0 if i in broken else c for i, c in enumerate(self.coeffs)] if broken else self.coeffs
        if broken and len(broken) == len(coeffs):
            return coeffs, totals
        img = [0] * self.depth
        build = self._build

        def visit(node, d, weight):
            if node.pending is not None:
                build(node, d, rmask, totals, at, gadj, full)
            masks = []
            for rid, near, apart in node.codes:
                cand = rmask[rid]
                for p in near:
                    cand &= gadj[img[p]]
                for p in apart:
                    cand &= ~gadj[img[p]]
                masks.append(cand)
            if node.leaves:
                if leaf:
                    leaf(node, d, img, masks)
                else:
                    if flat:
                        sums = [flat * masks[i].bit_count() for i in node.tails]
                    else:
                        sums = [weighed[m] if (m := masks[i]) in weighed
                                else weighed.setdefault(m, sum(num[w] for w in _bits(m)))
                                for i in node.tails]
                    for tail, group in node.leaves:
                        value = weight
                        for i in tail:
                            value *= sums[i]
                        totals[group] += value
            for i, child in node.children:
                cand = masks[i] & support
                while cand:
                    low = cand & -cand
                    cand ^= low
                    w = low.bit_length() - 1
                    img[d] = w
                    visit(child, d + 1, weight * num[w])

        keys = self.keys  # a compiled function's, or None: this walk's only
        self.keys = keys or [None] * len(self.state)
        try:
            visit(self.root, 0, 1)
        finally:
            self.keys = keys
            del visit  # it refers to itself: unbound, the search is freed at once
        return coeffs, totals

    def _grow(self, c, d):
        """Place position d of component c and return its code, or, once no
        constrained pair is left among its unplaced vertices, place them as
        its tail and return their codes.  One int key per unplaced vertex
        packs the fields of the order rule above the positions of its placed
        neighbours.  Only the first d positions are read, and kept keys only
        if they belong to them, so a build that was cut off can run again."""
        adj, pinmask = self.rows[c], self.pinmask[c]
        n, b = len(adj), len(adj).bit_length()
        s, near = self.state[c] & (1 << n + d * b) - 1, (1 << n) - 1
        # A placed neighbour sets the touch bit and its position's bit, and counts.
        touch, step = 1 << 3 * b + n, 1 << 2 * b + n
        hom, grown, self.keys[c] = self.mode == HOM, self.keys[c], None
        if grown and grown[0] == s:
            _, rest, left, keys = grown
        else:
            order, rest, left = self.order(c, d) if d else (), s & near, self.pairs[c]
            for v in order:
                rest ^= 1 << v
                left -= (adj[v] & rest).bit_count() if hom else rest.bit_count()
            keys = [(((a & pinmask).bit_count() << b | a.bit_count()) << b | n - 1 - v) << n
                    if rest >> v & 1 else -1 for v, a in enumerate(adj)]
            for p, v in enumerate(order):
                for u in _bits(adj[v] & rest):
                    keys[u] = (keys[u] | touch | 1 << p) + step
        if not left:
            tail = _bits(rest)
            self.state[c] = s | sum(v + 1 << n + p * b for p, v in enumerate(tail, d))
            return [self._code(c, v, d, keys[v] & near, pinmask) for v in tail]
        key = max(keys)
        v = n - 1 - (key >> n & (1 << b) - 1)
        keys[v] = -1
        rest ^= 1 << v
        nb = adj[v] & rest
        left -= nb.bit_count() if hom else rest.bit_count()
        while nb:
            u = nb & -nb
            nb ^= u
            u = u.bit_length() - 1
            keys[u] = (keys[u] | touch | 1 << d) + step
        self.state[c] = s = s | v + 1 << n + d * b
        self.keys[c] = s, rest, left, keys
        # An unpinned vertex in hom mode, as in the counterexample's terms, skips `_code`.
        return ((), key & near, 0) if not pinmask and hom else self._code(c, v, d, key & near, pinmask)

    def _code(self, c, v, d, near, pinmask):
        """The code of vertex v of component c at position d, or in a tail
        starting there, with placed neighbours at the positions `near`."""
        free = self.free[v] if self.free else 0
        root = _root(self.pins[c], self.rows[c][v], pinmask, self.mode, free)
        apart = 0
        for p, u in enumerate(self.order(c, d) if self.mode == EXACT and d else ()):
            if not (near >> p | free >> u) & 1:
                apart |= 1 << p
        return root, near, apart

    def _build(self, node, d, rmask, totals, at, gadj, full):
        """Grow the orders of a node's components by one position, or to
        their tails, and group them by code."""
        children, leaves = {}, {}
        for c in node.pending:
            code = self._grow(c, d)
            if type(code) is list:
                leaves.setdefault(tuple(sorted(code)), []).append(c)
            else:
                children.setdefault(code, []).append(c)
        index = {}
        codes = []

        def code_index(code):
            i = index.get(code)
            if i is None:
                root, near, apart = code
                rid = self.roots.get(root)
                if rid is None:
                    rid = self.roots[root] = len(rmask)
                    rmask.append(_root_mask(root, at, gadj, full))
                i = index[code] = len(codes)
                codes.append((rid, tuple(_bits(near)), tuple(_bits(apart))))
            return i

        node.children = [(code_index(code), _Node(comps)) for code, comps in children.items()]
        tails, node.leaves = {}, []
        for tail, comps in leaves.items():
            slots = tuple(tails.setdefault(code_index(code), len(tails)) for code in tail)
            for c in comps:
                self.group[c] = self.groups
            node.leaves.append((slots, self.groups))
            self.groups += 1
            totals.append(0)
        node.tails = list(tails)
        node.codes = codes
        node.pending = None


def extensions(pattern, pinned, graph, budget=None, free=None):
    """The image tuples, indexed by pattern vertex, of every exact
    extension of the root map `pinned` {pattern vertex: target vertex}:
    the walk of a one-term search in exact mode whose keys are the pinned
    vertices themselves, which checks the pins by their root codes.
    `free` rows, as in `_TermSearch`, exempt pairs from the exact rule;
    `budget` caps the number of extensions."""
    _check_cover(pinned, pinned, graph)
    image = [pinned.get(v, 0) for v in range(pattern.n)]
    search = _TermSearch([(Fraction(1), pattern, {v: v for v in pinned})], EXACT, free)
    return _walk_extensions(search, image, graph, budget)


def _walk_extensions(search, image, graph, budget=None):
    """The extensions the one-term `search`, keyed by vertex, walks from its root map `image`."""
    out = []

    def leaf(node, d, img, masks):
        # Every pair of free vertices is constrained, so they form one
        # component, and its tail is its last vertex.
        order = search.order(0, d + 1)
        for p in range(d):
            image[order[p]] = img[p]
        for w in _bits(masks[node.tails[0]]):
            image[order[d]] = w
            out.append(tuple(image))
        if budget is not None and len(out) > budget:
            raise BudgetExceeded(f"extension search exceeded {budget} extensions")

    coeffs, _ = search.walk(graph, _target(graph)[1], image, leaf)
    if not search.state:  # no free vertex: the root map extends only to itself
        return [tuple(image)] if coeffs[0] else []
    return out


def _density(h, g, mode):
    """The density of h in g in `mode`: a one-term search with no root."""
    h, g = _as_graph(h), _as_graph(g)
    return _TermSearch([(Fraction(1), h, {})], mode).value(*_target(g), {})


# ---------------------------------------------------------------------------
# Basic densities


def t(h, g):
    """Probability that a uniformly random map V(h) -> V(g) is a homomorphism."""
    return _density(h, g, HOM)


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
    QExpr tree; phi must cover the labels of f's normal form, or a tree's
    `label_set`, every label it names, as trees are never expanded.
    """
    phi = dict(phi or {})
    graph, weights = _read_target(f, G)
    if isinstance(f, QExpr):
        _check_cover(f.label_set(), phi, graph)
        return _eval_expr(f, graph, weights, phi, {})
    return _term_search(f, phi, graph).value(graph, weights, phi)


def compiled_density(f):
    """The function G -> t_quantum(f, G) of an unlabeled f.

    A term list or QuantumGraph gets a term search of its own, and a QExpr
    keeps the label walk of each Unlabel node and the search of each
    distinct atom, for the function's life: the orders, trie nodes and
    keys grown for one target serve the next.
    """
    if isinstance(f, QExpr):
        _check_cover(f.label_set(), {})
        walks = {}
        return lambda G: _eval_expr(f, *_read_target(f, G), {}, walks)
    search = _TermSearch(_term_roots(f, {}, Graph(0)), HOM)
    search.keys = [None] * len(search.state)
    return lambda G: search.value(*_read_target(f, G), {})


def _term_search(f, phi, graph):
    """The term search of f under phi on `graph`: the one a QuantumGraph
    with no labels keeps from its first evaluation on, or a new one."""
    if not isinstance(f, QuantumGraph) or not f._search and any(plg.labels for plg in f.terms):
        return _TermSearch(_term_roots(f, phi, graph), HOM)
    if f._search is None:
        object.__setattr__(f, "_search", _TermSearch(_term_roots(f, {}, graph), HOM))
    return f._search


def _read_target(f, G):
    """The graph and `_Weights` at which f reads the target G.  An f with
    no labels reads the empty graph as its normal form does, at its unit
    coefficient, which is its value at K1."""
    graph, weights = _target(G)
    return (graph, weights) if graph.n or _label_set(f) else _target(Graph(1))


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
    return (f if isinstance(f, QExpr) else as_quantum(f)).label_set()


def _term_roots(f, phi, graph):
    """(coefficient, pattern, pinned) per nonzero term of f evaluated under
    the root map phi, whose images must be vertices of `graph`.  The
    search checks the pinned vertices by their root codes.

    A label that only terms cancelling up to isomorphism carry is absent
    from the normal form, so phi need not cover it, and it stays unpinned:
    those terms still cancel.  Only that case builds the normal form.
    """
    terms = tuple((plg, coeff) for plg, coeff in _terms(f) if coeff)
    labels = {lab for plg, _ in terms for lab, _ in plg.labels}
    if not all(lab in phi and 0 <= phi[lab] < graph.n for lab in labels):
        labels = _label_set(terms)
        _check_cover(labels, phi, graph)
        phi = {lab: phi[lab] for lab in labels}
    # Unlabeled terms share one empty root map: the search holds every term
    # at once, and each object per term is one more for the collector to
    # traverse.
    return [
        (coeff, plg.graph, {v: lab for lab, v in plg.labels if lab in phi} if plg.labels else _UNPINNED)
        for plg, coeff in terms
    ]


def _check_cover(labels, phi, graph=None):
    missing = set(labels) - set(phi)
    if missing:
        raise ValueError(f"root map missing labels {sorted(missing)}")
    for lab in sorted(labels) if graph is not None else ():
        if not 0 <= phi[lab] < graph.n:
            raise ValueError(f"root image {phi[lab] + 1} outside the target graph")


_UNPINNED = MappingProxyType({})


def _eval_expr(expr, graph, weights, phi, walks):
    """The value of expr; `walks` holds the label walks of its Unlabel
    nodes, by id, and the one-term search of each distinct atom, by value.
    Neither holds a root image, so they serve every root map and target."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, (Atom, IndAtom)):
        search = walks.get(expr)
        if search is None:
            mode, free = (HOM, None) if isinstance(expr, Atom) else (EXACT, expr.rows)
            keys = {v: lab for lab, v in expr.plg.labels}
            search = walks[expr] = _TermSearch([(Fraction(1), expr.plg.graph, keys)], mode, free)
        return search.value(graph, weights, phi)
    if isinstance(expr, Sum):
        return sum((_eval_expr(c, graph, weights, phi, walks) for c in expr.children), Fraction(0))
    if isinstance(expr, Product):
        return prod((_eval_expr(c, graph, weights, phi, walks) for c in expr.children), start=Fraction(1))
    if isinstance(expr, Unlabel):
        return _eval_unlabel(expr, graph, weights, phi, walks)
    if isinstance(expr, PolyImage):
        values = {
            var: _eval_expr(gen, graph, weights, phi, walks) for var, gen in expr.generators
        }
        return expr.poly.evaluate(values)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _eval_unlabel(expr, graph, weights, phi, walks):
    """The expectation of the child over the images of the labels it
    loses: the kernel walks the exact embeddings of the child's label
    trigraph, the kept labels pinned, and evaluates the child at each.
    `walks` keeps what every root map and target share: the child's labels
    in order, the positions of those it loses, the kept ones as search
    keys and the walk's one-term search, None when the child is 0 at every
    root map."""
    walk = walks.get(id(expr))
    if walk is None:
        labels = sorted(expr.child.label_set())
        unlabeled = [i for i, lab in enumerate(labels) if lab not in expr.keep]
        if len(unlabeled) > UNLABEL_CAP:
            raise CapExceeded(f"unlabeling over {len(unlabeled)} labels exceeds cap {UNLABEL_CAP}")
        kept = {i: i for i, lab in enumerate(labels) if lab in expr.keep}
        tri = _trigraph(expr.child)
        search = None
        if tri is not None:
            index = {lab: i for i, lab in enumerate(labels)}
            rows = [sum(1 << index[b] for b in labels if a != b and (min(a, b), max(a, b)) not in tri)
                    for a in labels]
            pattern = Graph(len(labels), [(index[a], index[b]) for (a, b), edge in tri.items() if edge])
            search = _TermSearch([(Fraction(1), pattern, kept)], EXACT, rows)
        walk = walks[id(expr)] = labels, unlabeled, kept, search
    labels, unlabeled, kept, search = walk
    if search is None:
        return Fraction(0)
    at = [phi[lab] if i in kept else 0 for i, lab in enumerate(labels)]
    total = 0
    for image in _walk_extensions(search, at, graph):
        weight = prod(weights.num[image[v]] for v in unlabeled)
        if weight:
            total += weight * _eval_expr(expr.child, graph, weights, dict(zip(labels, image)), walks)
    return Fraction(total, weights.den ** len(unlabeled))


def _trigraph(expr):
    """The label pairs that expr, wherever it is nonzero, maps as exact
    mode does, as {(a, b): adjacent} with labels a < b; every other pair
    is free.  None when expr is 0 at every root map."""
    if isinstance(expr, Const):
        return {} if expr.value else None
    if isinstance(expr, (Atom, IndAtom)):
        adj = expr.plg.graph.adj
        free = expr.rows if isinstance(expr, IndAtom) else None
        return {(a, b): bool(adj[u] >> v & 1) for (a, u), (b, v) in combinations(expr.plg.labels, 2)
                if adj[u] >> v & 1 or free and not free[u] >> v & 1}
    if isinstance(expr, Product):
        tri = {}
        for sub in map(_trigraph, expr.children):
            if sub is None or any(tri.setdefault(p, s) != s for p, s in sub.items()):
                return None
        return tri
    if isinstance(expr, Unlabel):
        tri = _trigraph(expr.child)
        return tri and {(a, b): s for (a, b), s in tri.items() if {a, b} <= expr.keep}
    if isinstance(expr, PolyImage):
        if expr.poly.constant_term():
            return {}
        expr = Sum(gen for _, gen in expr.generators)
    tris = [tri.items() for tri in map(_trigraph, expr.children) if tri is not None]
    return dict(set(tris[0]).intersection(*tris[1:])) if tris else None


# ---------------------------------------------------------------------------
# Symbolic density polynomials


def density_polynomial(f, g, phi=None):
    """The density as a polynomial in vertex weights y_1..y_n of the target.

    f is a QuantumGraph (or plain graph material) or a term list, read as
    t_quantum reads it; evaluating the result at any probability
    distribution equals t_quantum(f, (g, y), phi).  All terms share one
    search: each leaf group counts the monomials of its extensions, and a
    term is its coefficient times the product of its components' counts.
    A monomial is one int, b bits of exponent per target vertex, so that
    multiplying monomials adds ints: a term's degree is its free vertex
    count, at most the search's depth, and b is the ring's width for that
    degree.  Coefficients are integer numerators over their least common
    denominator D, and each monomial's sum becomes one Fraction over D.
    The packed monomials are the result's own, with nothing unpacked.  A
    structured expression is a TypeError: expand it first.
    """
    if isinstance(f, QExpr):
        raise TypeError(
            "density_polynomial takes a quantum graph or term list; for a "
            "structured expression use density_polynomial(expand(expr), g, phi)"
        )
    g = _as_graph(g) if not isinstance(g, WeightedGraph) else g.graph
    read, weights, phi = *_read_target(f, g), dict(phi or {})
    search = _term_search(f, phi, read)
    b = _width(search.depth)
    unit = [1 << b * w for w in range(read.n)]
    groups = defaultdict(lambda: defaultdict(int))
    units_of = {}  # the units of a candidate mask's vertices, by mask

    def leaf(node, d, img, masks):
        path = sum(map(unit.__getitem__, img[:d]))
        tails = [units_of[m] if m in units_of else units_of.setdefault(m, [unit[w] for w in _bits(m)])
                 for m in map(masks.__getitem__, node.tails)]
        for tail, group in node.leaves:
            monos = [path]
            for i in tail:
                monos = [mono + u for mono in monos for u in tails[i]]
            into = groups[group]
            for mono in monos:
                into[mono] += 1

    coeffs, _ = search.walk(read, weights, phi, leaf)
    den = lcm(*(coeff.denominator for coeff in coeffs))
    # Terms whose components fall in the same leaf groups share one product.
    scaled, start = defaultdict(int), 0
    for coeff, stop in zip(coeffs, search.stops):
        scaled[tuple(search.group[start:stop])] += coeff.numerator * (den // coeff.denominator)
        start = stop
    terms = defaultdict(int)
    for comps, num in scaled.items():
        poly = {0: num} if num else {}
        for group in comps:
            poly, partial = defaultdict(int), poly
            for mono, c in partial.items():
                for more, k in groups[group].items():
                    poly[mono + more] += c * k
        for mono, c in poly.items():
            terms[mono] += c
    if read is not g:  # the empty graph, read at K1: the constant of its value
        return Polynomial._of_monos((), 1, {0: Fraction(sum(terms.values()), den)})
    ys = tuple(f"y{i}" for i in range(1, g.n + 1))
    return Polynomial._of_monos(ys, b, {mono: Fraction(c, den) for mono, c in terms.items()})


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
        y = [parse_rational(wtxt, "weight", line) for wtxt in fields["weights"].split(",")]
    else:
        y = [Fraction(1, n)] * n if n else []
    try:
        return WeightedGraph(plg.graph, y)
    except ValueError as exc:
        raise FormatError(str(exc), line=line) from None
