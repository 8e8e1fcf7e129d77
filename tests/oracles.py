"""Independent brute-force reference implementations used by the tests,
and the test-only helpers that no command needs.

Everything here is deliberately naive: permutations, all maps, all edge
subsets.  These functions never import from homdens internals beyond the
Graph/PLG data holders, so a bug in the package cannot hide in its own
oracle.  The exceptions are `phi_monomial_expansion`, which expands the
package's clone generators with `expand` so that a test can hold it
against `plain_monomial_terms`; `ind_sum`, which spells out an ind
atom's free pairs through the package's plain `ind`; and the helpers at
the end, which state facts about the package's own values (`hom_count`,
`alpha`, `check_tasym`, `is_isomorphic_labeled`) or build test inputs
(`TauPoly`).
"""

import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations, product

from homdens.graphs import Graph, PartiallyLabeledGraph
from homdens.polynomials import _check_vars, _etv_vars, _xy_vars, tau
from homdens.reductions import TauCalculusPoly


def brute_isomorphic(a, b):
    """Label-preserving isomorphism by trying every vertex bijection."""
    if isinstance(a, Graph):
        a = PartiallyLabeledGraph(a)
    if isinstance(b, Graph):
        b = PartiallyLabeledGraph(b)
    if a.graph.n != b.graph.n:
        return False
    if len(a.graph.edges) != len(b.graph.edges):
        return False
    if a.label_set() != b.label_set():
        return False
    n = a.graph.n
    la, lb = a.label_map(), b.label_map()
    for perm in permutations(range(n)):
        if any(perm[la[lab]] != lb[lab] for lab in la):
            continue
        mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in a.graph.edges}
        if mapped == set(b.graph.edges):
            return True
    return False


def brute_automorphisms(g):
    """Every permutation of the vertices, in lexicographic order, that fixes
    the labeled vertices and maps the edge set onto itself."""
    if isinstance(g, Graph):
        g = PartiallyLabeledGraph(g)
    edges = set(g.graph.edges)
    out = []
    for perm in permutations(range(g.graph.n)):
        if any(perm[v] != v for _, v in g.labels):
            continue
        mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}
        if mapped == edges:
            out.append(perm)
    return out


def relabeled_vertices(plg, perm):
    """The image of `plg` under a vertex permutation: vertex v goes to
    perm[v].  Raises ValueError unless `perm` is a permutation of range(n).
    Built through the validating constructors, apart from the package's
    trusted-permutation route."""
    n = plg.graph.n
    if len(perm) != n or set(perm) != set(range(n)):
        raise ValueError(f"not a permutation of range({n}): {list(perm)}")
    edges = [(perm[u], perm[v]) for u, v in plg.graph.edges]
    return PartiallyLabeledGraph(Graph(n, edges), [(lab, perm[v]) for lab, v in plg.labels])


def vertex_of(plg, label):
    """The vertex of `plg` that carries `label`; KeyError if none does."""
    for lab, v in plg.labels:
        if lab == label:
            return v
    raise KeyError(label)


def brute_graph_classes(n):
    """Count of isomorphism classes of n-vertex graphs by filtering all edge sets."""
    pairs = list(combinations(range(n), 2))
    reps = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph(n, edges)
        if not any(brute_isomorphic(g, h) for h in reps):
            reps.append(g)
    return reps


def labeled_core(plg):
    """The subgraph induced on the labeled vertices, ordered by label.

    Fully labeled graphs are isomorphic exactly when these are equal.
    """
    verts = [v for _, v in plg.labels]
    index = {v: i for i, v in enumerate(verts)}
    return PartiallyLabeledGraph(
        plg.graph.induced(verts), [(lab, index[v]) for lab, v in plg.labels]
    )


def plain_monomial_terms(h, js):
    """The clone image of prod x_j as (edge list, sign) pairs, one per subset
    A of the free pairs, with sign (-1)^|A|.

    One copy per factor, joined to N(j), on vertex k + i for the i-th
    factor.  The free pairs are the internal non-edges of h and each copy's
    pairs to the non-neighbors of its j other than j.  Copies of the same j
    are not taken up to swapping, so there are 2^(free pairs) terms.
    """
    k = h.n
    base = list(h.edges)
    free = [(u, v) for u, v in combinations(range(k), 2) if not h.has_edge(u, v)]
    for i, j in enumerate(js):
        c = k + i
        base.extend((u, c) for u in h.neighbors(j - 1))
        free.extend((w, c) for w in range(k) if w != j - 1 and not h.has_edge(w, j - 1))
    for mask in range(1 << len(free)):
        extra = [free[i] for i in range(len(free)) if mask >> i & 1]
        yield base + extra, -1 if len(extra) % 2 else 1


def merged_monomial_terms(h, js, terms, labeled=True):
    """The quantum graph of (edge list, weight) terms over k + len(js)
    vertices, with the base vertex i carrying label i+1 or no label."""
    from homdens.algebra import QuantumGraph

    k = h.n
    labels = {i + 1: i for i in range(k)} if labeled else {}
    return QuantumGraph(
        (PartiallyLabeledGraph(Graph(k + len(js), edges), labels), weight)
        for edges, weight in terms
    )


def phi_monomial_expansion(h, js, labeled=True):
    """The package's expansion of the clone image of prod x_j: the product
    of the generators, or its unlabeled image, whose labels `expand` drops
    before the one ind expansion, as the counterexample build does."""
    from homdens.algebra import Product, Unlabel, expand
    from homdens.reductions import psi_generator

    monomial = Product([psi_generator(h, j, 1) for j in js])
    return expand(monomial if labeled else Unlabel((), monomial))


def free_pairs(rows):
    """The free pairs of a trigraph's free rows, as a set of (u, v), u < v."""
    return {(u, v) for u, row in enumerate(rows) for v in range(u + 1, len(rows)) if row >> v & 1}


def ind_sum(atom):
    """ind of an IndAtom as the sum of plain inds over every edge or
    non-edge state of its free pairs, without the free-pair code."""
    from homdens.algebra import QuantumGraph, ind

    plg, free = atom.plg, sorted(free_pairs(atom.rows))
    total = QuantumGraph.zero()
    for mask in range(1 << len(free)):
        extra = [pair for i, pair in enumerate(free) if mask >> i & 1]
        graph = Graph(plg.n, list(plg.graph.edges) + extra)
        total = total + ind(PartiallyLabeledGraph(graph, plg.labels))
    return total


def brute_hom_count(h, g):
    """Number of maps V(h) -> V(g) sending every edge to an edge."""
    if h.n == 0:
        return 1
    count = 0
    for phi in product(range(g.n), repeat=h.n):
        if all(g.has_edge(phi[u], phi[v]) for u, v in h.edges):
            count += 1
    return count


def brute_t(h, g):
    if g.n == 0:
        return Fraction(1) if h.n == 0 else Fraction(0)
    return Fraction(brute_hom_count(h, g), g.n ** h.n)


def brute_t_inj(h, g):
    if h.n == 0:
        return Fraction(1)
    if g.n < h.n:
        return Fraction(0)
    count = 0
    for phi in permutations(range(g.n), h.n):
        if all(g.has_edge(phi[u], phi[v]) for u, v in h.edges):
            count += 1
    denom = 1
    for i in range(h.n):
        denom *= g.n - i
    return Fraction(count, denom)


def brute_t_ind(h, g):
    """Induced density with the equal-image convention.

    A map must send each edge of h to an edge of g between distinct images,
    while each non-edge of h must go to a pair with equal or non-adjacent
    images.
    """
    if g.n == 0:
        return Fraction(1) if h.n == 0 else Fraction(0)
    if h.n == 0:
        return Fraction(1)
    count = 0
    pairs = list(combinations(range(h.n), 2))
    edge_set = h.edges
    for phi in product(range(g.n), repeat=h.n):
        ok = True
        for u, v in pairs:
            a, b = phi[u], phi[v]
            if (u, v) in edge_set:
                if a == b or not g.has_edge(a, b):
                    ok = False
                    break
            else:
                if a != b and g.has_edge(a, b):
                    ok = False
                    break
        if ok:
            count += 1
    return Fraction(count, g.n ** h.n)


def brute_rooted_t(h, g, phi_partial, y=None):
    """Rooted density: average over extensions of the labeled-vertex map.

    phi_partial maps each labeled vertex of h (by vertex index) to a vertex
    of g.  y is an optional vertex weight distribution on g (list of
    Fractions summing to 1); None means uniform.
    """
    if isinstance(h, Graph):
        h = PartiallyLabeledGraph(h)
    hg = h.graph
    pinned = dict(phi_partial)
    free = [v for v in range(hg.n) if v not in pinned]
    if y is None:
        y = [Fraction(1, g.n)] * g.n
    edges = hg.edges  # a Graph derives its edge set on each read
    total = Fraction(0)
    for assignment in product(range(g.n), repeat=len(free)):
        phi = dict(pinned)
        phi.update(zip(free, assignment))
        if all(g.has_edge(phi[u], phi[v]) for u, v in edges):
            w = Fraction(1)
            for v in free:
                w *= y[phi[v]]
            total += w
    return total


def brute_density_polynomial(plg, g, phi):
    """The terms of the rooted density polynomial of plg in g under the
    root map phi {label: target vertex}: over every map of the free
    vertices, one count per homomorphism on the exponent vector of their
    images, as {exponents: Fraction}, without zero coefficients.  Every
    vertex counts, as in a term list: the normal form of a quantum graph
    drops isolated vertices, and a free one multiplies the polynomial by
    y1 + ... + yn."""
    if isinstance(plg, Graph):
        plg = PartiallyLabeledGraph(plg)
    h = plg.graph
    pinned = {v: phi[lab] for lab, v in plg.labels}
    free = [v for v in range(h.n) if v not in pinned]
    edges = h.edges  # a Graph derives its edge set on each read
    counts = {}
    for assignment in product(range(g.n), repeat=len(free)):
        image = dict(pinned)
        image.update(zip(free, assignment))
        if all(g.has_edge(image[u], image[v]) for u, v in edges):
            exps = tuple(assignment.count(w) for w in range(g.n))
            counts[exps] = counts.get(exps, 0) + 1
    return {exps: Fraction(k) for exps, k in counts.items()}


def brute_weighted_t(h, g, y):
    """Fully weighted homomorphism density with vertex distribution y."""
    if h.n == 0:
        return Fraction(1)
    total = Fraction(0)
    for phi in product(range(g.n), repeat=h.n):
        if all(g.has_edge(phi[u], phi[v]) for u, v in h.edges):
            w = Fraction(1)
            for v in range(h.n):
                w *= y[phi[v]]
            total += w
    return total


def brute_exact_embeddings(h, g):
    """Maps preserving both adjacency and non-adjacency (not necessarily injective)."""
    out = []
    for phi in product(range(g.n), repeat=h.n):
        ok = True
        for u, v in combinations(range(h.n), 2):
            hu = h.has_edge(u, v)
            a, b = phi[u], phi[v]
            if hu:
                if a == b or not g.has_edge(a, b):
                    ok = False
                    break
            else:
                if a != b and g.has_edge(a, b):
                    ok = False
                    break
        if ok:
            out.append(phi)
    return out


# ---------------------------------------------------------------------------
# Round-based canonical labeling, kept as the reference for the package's
# refinement against changed cells.  This is the earlier implementation,
# copied unchanged apart from the names: each refinement round counts every
# vertex's neighbours in every cell.  The package must pick the same
# representative, so the certificates must agree exactly.

ReferenceForm = namedtuple("ReferenceForm", "plg certificate")


def round_based_canonical_form(g):
    if isinstance(g, Graph):
        g = PartiallyLabeledGraph(g)
    n = g.graph.n
    if n == 0:
        return ReferenceForm(g, ())
    comps = _ref_components(g.graph)
    if len(comps) > 1:
        return _ref_canonical_disconnected(g, comps)
    adj = g.graph.adj
    labeled = [v for _, v in g.labels]
    rest = sorted(set(range(n)) - set(labeled))
    cells = [[v] for v in labeled]
    if rest:
        cells.append(rest)

    best = None  # (encoding, order)

    def refine(cells):
        while True:
            masks = [_ref_cell_mask(c) for c in cells]
            out = []
            split = False
            for cell in cells:
                if len(cell) == 1:
                    out.append(cell)
                    continue
                sig = {}
                for v in cell:
                    sig[v] = tuple((adj[v] & m).bit_count() for m in masks)
                groups = {}
                for v in cell:
                    groups.setdefault(sig[v], []).append(v)
                if len(groups) > 1:
                    split = True
                for key in sorted(groups):
                    out.append(groups[key])
            cells = out
            if not split:
                return cells

    def search(cells):
        nonlocal best
        cells = refine(cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [c[0] for c in cells]
            enc = _ref_encode(adj, order)
            if best is None or enc < best[0]:
                best = (enc, order)
            return
        cell = cells[target]
        if _ref_all_twins(adj, cell):
            fixed = cells[:target] + [[v] for v in sorted(cell)] + cells[target + 1:]
            search(fixed)
            return
        for v in sorted(cell):
            branch = (
                cells[:target]
                + [[v], [u for u in cell if u != v]]
                + cells[target + 1:]
            )
            search(branch)

    search(cells)
    _, order = best
    cert = [0] * n
    for new, old in enumerate(order):
        cert[old] = new
    cert = tuple(cert)
    return ReferenceForm(relabeled_vertices(g, cert), cert)


def _ref_bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _ref_components(graph):
    unseen = (1 << graph.n) - 1
    comps = []
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        frontier = 1 << start
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            for v in _ref_bits(frontier):
                nxt |= graph.adj[v]
            frontier = nxt & ~comp
        comps.append(_ref_bits(comp))
        unseen &= ~comp
    return comps


def _ref_canonical_disconnected(g, comps):
    label_of = {v: lab for lab, v in g.labels}
    pieces = []
    for comp in comps:
        sub = PartiallyLabeledGraph(
            g.graph.induced(comp),
            [(label_of[v], i) for i, v in enumerate(comp) if v in label_of],
        )
        cf = round_based_canonical_form(sub)
        canon = cf.plg
        min_label = min((lab for lab, _ in canon.labels), default=None)
        enc_key = (
            canon.graph.n,
            _ref_encode(canon.graph.adj, range(canon.graph.n)),
            canon.labels,
        )
        pieces.append((comp, cf, min_label, enc_key))
    with_labels = sorted((p for p in pieces if p[2] is not None), key=lambda p: p[2])
    without = sorted((p for p in pieces if p[2] is None), key=lambda p: p[3])

    all_labels = [lab for lab, _ in g.labels]
    label_pos = {lab: i for i, lab in enumerate(all_labels)}
    cert = [None] * g.graph.n
    next_free = len(all_labels)
    for comp, cf, _, _ in with_labels + without:
        placed = [lab for lab, _ in cf.plg.labels]
        for i, v in enumerate(comp):
            p = cf.certificate[i]
            if p < len(placed):
                cert[v] = label_pos[placed[p]]
            else:
                cert[v] = next_free + (p - len(placed))
        next_free += len(comp) - len(placed)
    cert = tuple(cert)
    return ReferenceForm(relabeled_vertices(g, cert), cert)


def _ref_cell_mask(cell):
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _ref_all_twins(adj, cell):
    mask = _ref_cell_mask(cell)
    first = cell[0]
    outside = adj[first] & ~mask
    inside_deg = (adj[first] & mask).bit_count()
    if inside_deg not in (0, len(cell) - 1):
        return False
    for v in cell[1:]:
        if adj[v] & ~mask != outside:
            return False
        if (adj[v] & mask).bit_count() != inside_deg:
            return False
    return True


def _ref_encode(adj, order):
    enc = 0
    for i, u in enumerate(order):
        row = adj[u]
        for v in order[i + 1:]:
            enc = enc << 1 | (row >> v & 1)
    return enc


# ---------------------------------------------------------------------------
# Dict-of-exponent-tuples polynomial arithmetic, kept as the reference for
# the package's packed monomials.


def _ref_var_key(name):
    prefix = name.rstrip("0123456789")
    return prefix, int(name[len(prefix):] or -1)


class TermsPoly:
    """A polynomial as canonically ordered variable names and a dict from
    exponent tuples, in that order, to nonzero Fractions, with the plain
    tuple arithmetic of the package's `Polynomial` before it packed its
    monomials into ints.  Numbers take part as constants."""

    def __init__(self, vars, terms):
        self.vars = tuple(sorted(vars, key=_ref_var_key))
        order = [tuple(vars).index(v) for v in self.vars]
        self.terms = {}
        for exps, coeff in terms.items():
            exps = tuple(exps[i] for i in order)
            self.terms[exps] = self.terms.get(exps, 0) + Fraction(coeff)
        self.terms = {e: c for e, c in self.terms.items() if c}

    def in_vars(self, vars):
        vars = tuple(sorted(set(vars) | set(self.vars), key=_ref_var_key))
        pos = [vars.index(v) for v in self.vars]
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(vars)
            for p, e in zip(pos, exps):
                new[p] = e
            terms[tuple(new)] = coeff
        return TermsPoly(vars, terms)

    def _pair(self, other):
        if not isinstance(other, TermsPoly):
            other = TermsPoly((), {(): other})
        union = set(self.vars) | set(other.vars)
        return self.in_vars(union), other.in_vars(union)

    def __add__(self, other):
        a, b = self._pair(other)
        terms = dict(a.terms)
        for exps, coeff in b.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return TermsPoly(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return TermsPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -1 * other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b = self._pair(other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return TermsPoly(a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        result = TermsPoly(self.vars, {(0,) * len(self.vars): 1})
        for _ in range(exponent):
            result = result * self
        return result

    def evaluate(self, point):
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            val = coeff
            for v, e in zip(self.vars, exps):
                if e:
                    val = val * point[v] ** e
            total = total + val
        return total

    def __eq__(self, other):
        a, b = self._pair(other)
        return a.terms == b.terms

    def total_degree(self):
        return max(map(sum, self.terms), default=0)

    def hash_value(self):
        """A constant's number's hash, else the hash of the terms over the
        variables each uses."""
        if set(self.terms) <= {(0,) * len(self.vars)}:
            return hash(self.terms.get((0,) * len(self.vars), Fraction(0)))
        return hash(frozenset(
            (tuple((v, e) for v, e in zip(self.vars, exps) if e), c) for exps, c in self.terms.items()
        ))


# ---------------------------------------------------------------------------
# Statements about the package's values, and test inputs.


def hom_count(h, g):
    """Number of maps V(h) -> V(g) sending every edge of h to an edge of g,
    read off the package's `t`."""
    from homdens.density import t

    return int(t(h, g) * g.n ** h.n)


def alpha(h, G, phi_map, j):
    """Probability that redrawing phi(j) from the vertex distribution keeps
    the map an exact embedding, summed over the package's redraw set."""
    from homdens.density import as_weighted
    from homdens.reductions import is_exact_embedding, resample_set

    G = as_weighted(G)
    if not is_exact_embedding(h, G.graph, phi_map):
        raise ValueError("root map is not an exact embedding")
    return sum((G.y[w] for w in resample_set(h, G.graph, phi_map, j)), Fraction(0))


def check_tasym(h, g):
    """|t - t_inj| <= C(|V(h)|, 2) / |V(g)|, the random-collision bound."""
    from homdens.density import t, t_inj

    gap = abs(t(h, g) - t_inj(h, g))
    if g.n == 0:
        return gap == 0
    return gap <= Fraction(math.comb(h.n, 2), g.n)


def is_isomorphic_labeled(a, b):
    """Label-preserving isomorphism test via the package's canonical forms."""
    if isinstance(a, Graph):
        a = PartiallyLabeledGraph(a)
    if isinstance(b, Graph):
        b = PartiallyLabeledGraph(b)
    return a.canonical() == b.canonical()


def blowup_block(counts, v):
    """The copy indices of original vertex v in a blow-up with these counts."""
    start = sum(counts[:v])
    return range(start, start + counts[v])


def bollobas_L(x):
    """The piecewise-linear lower boundary of the edge/triangle region.

    On [1 - 1/s, 1 - 1/(s+1)] this is the chord of g between the interval's
    endpoints; the interval index is s = floor(1/(1-x)).  Defined for
    0 <= x < 1; at a breakpoint the two pieces agree and the right-hand one
    is used.
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"bollobas_L needs 0 <= x < 1, got {x}")
    s = math.floor(Fraction(1) / (1 - x))
    slope = Fraction(3 * s * s - s - 2, s * (s + 1))
    return slope * x - Fraction(2 * (s - 1), s + 1)


def in_region_R(x, y):
    """Whether (x, y) lies on or above the boundary L."""
    return Fraction(y) >= bollobas_L(x)


class TauPoly(TauCalculusPoly):
    """The cleared substitution image of an explicit polynomial q(x, y): a
    test double of the clique image's `TauCalculusPoly`, whose evaluation
    it inherits, and which `witness_eval` and `psi_rooted_value` accept
    alike."""

    __slots__ = ("q",)

    def __init__(self, q, k):
        _check_vars(q, _xy_vars(k))
        if q.total_degree() == 0:
            raise ValueError("source polynomial must not be constant")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "degree", q.total_degree())
        object.__setattr__(self, "vars", _etv_vars(k))

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
