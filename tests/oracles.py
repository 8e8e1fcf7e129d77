"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive: permutations, all maps, all edge
subsets.  These functions never import from homdens internals beyond the
Graph/PLG data holders, so a bug in the package cannot hide in its own
oracle.  The one exception is `phi_monomial_expansion`, which assembles
the package's collapsed monomial terms so that a test can hold them
against the generic expander and against `plain_monomial_terms`.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations, product

from homdens.graphs import Graph, PartiallyLabeledGraph


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
    """Expanded quantum graph for the clone image of prod x_j, from the
    package's terms taken up to swapping copies."""
    from homdens.reductions import _monomial_terms

    return merged_monomial_terms(h, js, _monomial_terms(h, js), labeled)


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
    total = Fraction(0)
    for assignment in product(range(g.n), repeat=len(free)):
        phi = dict(pinned)
        phi.update(zip(free, assignment))
        if all(g.has_edge(phi[u], phi[v]) for u, v in hg.edges):
            w = Fraction(1)
            for v in free:
                w *= y[phi[v]]
            total += w
    return total


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
    return ReferenceForm(g.relabeled_vertices(cert), cert)


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
    return ReferenceForm(g.relabeled_vertices(cert), cert)


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
