"""Reference values the benchmark checks homdens against.

Nothing here imports homdens.  Each value comes from a closed formula the
paper proves, or from a brute force written for this file: graphs are
plain `(n, edges)` pairs with 0-based vertices, partially labeled graphs
are `(n, edges, labels)` with `labels` a tuple of `(label, vertex)` pairs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod

# The stringent base H6: triangle v1 v2 v3, path v3 v4 v5 v6, and the
# edges v6 v2, v6 v3 (0-based here).
H6_EDGES = ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5))

# The source polynomial of the certify pipeline, p = 1 - 2*x1 over x1..x6.
PIPELINE_POLY = "poly vars=x1,x2,x3,x4,x5,x6 ; 1 + -2*x1"

# A000088: graphs on n unlabeled vertices, n = 0..7.
GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044)


def counterexample_value(y):
    """t(x; (H6, y)) = y1...y6 * (y2^2 y3 + y3^2 y4 + y4^2 y2 - 3 y2 y3 y4)."""
    _, y2, y3, y4, _, _ = y
    return prod(y) * (y2 * y2 * y3 + y3 * y3 * y4 + y4 * y4 * y2 - 3 * y2 * y3 * y4)


def counterexample_polynomial():
    """The same value as a map from exponent tuples of y1..y6 to coefficients."""
    cyclic = {
        (0, 2, 1, 0, 0, 0): 1,
        (0, 0, 2, 1, 0, 0): 1,
        (0, 1, 0, 2, 0, 0): 1,
        (0, 1, 1, 1, 0, 0): -3,
    }
    return {
        tuple(e + 1 for e in exps): Fraction(coeff) for exps, coeff in cyclic.items()
    }


def pipeline_value(sizes):
    """t of the reduction instance of p = 1 - 2*x1 at the clique blow-up of H6.

    Each of the prod(c) exact embeddings sees redraw sets equal to its
    blocks, where the edge density is x_j = 1 - 1/c_j and the triangle
    density sits on the moment curve, so the penalty vanishes and
    t = (prod c / N^6) * p(x) * prod c^-6 * prod (c/N)^(3 deg q), deg q = 37.
    """
    k = len(sizes)
    n = sum(sizes)
    degree = 1 + 6 * k
    x1 = 1 - Fraction(1, sizes[0])
    value = Fraction(prod(sizes), n**k) * (1 - 2 * x1)
    for c in sizes:
        value *= Fraction(1, c**6) * Fraction(c, n) ** (3 * degree)
    return value


def independent_blowup(edges, counts):
    """Vertex v becomes counts[v] pairwise non-adjacent twins."""
    offsets = [sum(counts[:v]) for v in range(len(counts))]
    out = [
        (offsets[u] + i, offsets[v] + j)
        for u, v in edges
        for i in range(counts[u])
        for j in range(counts[v])
    ]
    return sum(counts), out


# ---------------------------------------------------------------------------
# Records


def format_record(n, edges, labels=()):
    """A `plg` record with 1-based vertices."""
    parts = [f"plg n={n}"]
    if labels:
        parts.append("labels=" + ",".join(f"{lab}:{v + 1}" for lab, v in sorted(labels)))
    if edges:
        parts.append("edges=" + ";".join(f"{u + 1}-{v + 1}" for u, v in sorted(edges)))
    return " ".join(parts)


def parse_record(text):
    """(n, edges) of an unlabeled `plg` record."""
    fields = dict(tok.split("=", 1) for tok in text.split()[1:])
    edges = []
    if fields.get("edges"):
        for item in fields["edges"].split(";"):
            u, v = item.split("-")
            edges.append((int(u) - 1, int(v) - 1))
    return int(fields["n"]), edges


# ---------------------------------------------------------------------------
# Graph classes by brute force


def automorphism_count(n, edges):
    """Adjacency-preserving permutations, by backtracking on degrees."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    deg = [a.bit_count() for a in adj]
    image = [0] * n

    def extend(v, used):
        if v == n:
            return 1
        total = 0
        for w in range(n):
            if used >> w & 1 or deg[w] != deg[v]:
                continue
            if all((adj[v] >> u & 1) == (adj[w] >> image[u] & 1) for u in range(v)):
                image[v] = w
                total += extend(v + 1, used | 1 << w)
        return total

    return extend(0, 0)


def covers_all_classes(n, graphs):
    """Orbit-counting identity: sum of n!/|Aut(G)| over one graph per class
    is the number of labeled graphs, 2^C(n,2)."""
    total = sum(factorial(n) // automorphism_count(n, edges) for edges in graphs)
    return total == 2 ** (n * (n - 1) // 2)


def _canonical_key(n, edges, labels):
    return min(
        (tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges)),
         tuple(sorted((lab, p[v]) for lab, v in labels)))
        for p in permutations(range(n))
    )


def labeled_graphs_up_to(max_n):
    """One partially labeled graph per class with n <= max_n vertices,
    labels 1..k on k of them, for every k."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        graphs = {}
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            graphs.setdefault(_canonical_key(n, edges, ()), edges)
        for edges in graphs.values():
            seen = set()
            for k in range(n + 1):
                for verts in permutations(range(n), k):
                    labels = tuple((i + 1, v) for i, v in enumerate(verts))
                    key = _canonical_key(n, edges, labels)
                    if key not in seen:
                        seen.add(key)
                        out.append((n, tuple(edges), labels))
    return out


def fully_labeled(n, edges, labels):
    """Label every unlabeled vertex, continuing after the largest label."""
    taken = {v for _, v in labels}
    nxt = max((lab for lab, _ in labels), default=0) + 1
    extra = []
    for v in range(n):
        if v not in taken:
            extra.append((nxt, v))
            nxt += 1
    return n, edges, tuple(labels) + tuple(extra)


# ---------------------------------------------------------------------------
# Gluing and brute-force densities


def glue(a, b):
    """Disjoint union of two labeled graphs with equal labels identified."""
    na, ea, la = a
    nb, eb, lb = b
    at = dict(la)
    mapping = {}
    fresh = na
    for v in range(nb):
        lab = next((l for l, w in lb if w == v), None)
        if lab in at:
            mapping[v] = at[lab]
        else:
            mapping[v] = fresh
            fresh += 1
    edges = set(ea)
    for u, v in eb:
        x, y = mapping[u], mapping[v]
        edges.add((min(x, y), max(x, y)))
    labels = dict(la)
    labels.update((lab, mapping[v]) for lab, v in lb)
    return fresh, tuple(sorted(edges)), tuple(sorted(labels.items()))


def rooted_density(n, edges, fixed, target):
    """Weighted homomorphism density with `fixed` vertex images.

    target is (adjacency sets, integer weights w, denominator d) standing
    for the vertex distribution w/d; the result averages over the images
    of every vertex not in `fixed`.
    """
    adj, w, d = target
    free = [v for v in range(n) if v not in fixed]
    image = dict(fixed)
    total = 0
    for images in product(range(len(w)), repeat=len(free)):
        image.update(zip(free, images))
        if all(image[v] in adj[image[u]] for u, v in edges):
            total += prod(w[x] for x in images)
    return Fraction(total, d ** len(free))


def weighted_target(n, edges, weights):
    """A small weighted graph in the form `rooted_density` takes."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj, tuple(weights), sum(weights)


def sum_of_squares_value(cert, target, labels=(1, 2)):
    """Sum over g in cert of E_phi[t(g; phi)^2], phi drawn from the target's
    vertex distribution on every label in `labels`."""
    adj, w, d = target
    total = Fraction(0)
    for phi in product(range(len(w)), repeat=len(labels)):
        root = dict(zip(labels, phi))
        weight = Fraction(prod(w[x] for x in phi), d ** len(labels))
        for g in cert:
            value = sum(
                coeff * rooted_density(n, edges, {v: root[lab] for lab, v in labs}, target)
                for coeff, (n, edges, labs) in g
            )
            total += weight * value * value
    return total
