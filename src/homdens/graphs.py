"""Simple graphs and partially labeled graphs.

A partially labeled graph (PLG) is a simple finite graph together with an
injective assignment of distinct positive integer labels to some of its
vertices.  Two PLGs are considered the same object when a bijection of the
vertices preserves edges, non-edges, and every label; `canonical_form`
realizes that quotient by computing a deterministic canonical vertex order
(labeled vertices pinned first, in ascending label order).

Vertices are 0-based everywhere in code.  The text format and the docs use
1-based vertices, matching the usual v1..vk notation.
"""

from __future__ import annotations

from itertools import combinations

from .errors import CapExceeded, FormatError

AUTOMORPHISM_CAP = 10
ENUMERATION_CAP = 7
# Most vertices of a built stringent graph or blow-up.  A witness with all
# of them in one clique has ~500000 edges, one of the largest graphs that
# the commands build and write out in a few seconds.
VERTEX_CAP = 1000

_ENUM_MEMO = {}  # n -> tuple of representatives, filled once per process


class Graph:
    """An immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))
        adj = [0] * n
        for u, v in norm:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "adj", tuple(adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph({self.n}, {sorted(self.edges)})"

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def degree(self, v):
        return self.adj[v].bit_count()

    def neighbors(self, v):
        return _bits(self.adj[v])

    def induced(self, vertices):
        """Subgraph induced on `vertices`, re-indexed in the given order."""
        index = {v: i for i, v in enumerate(vertices)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        ]
        return Graph(len(vertices), edges)

    @staticmethod
    def complete(n):
        return Graph(n, combinations(range(n), 2))

    @staticmethod
    def path(n):
        return Graph(n, ((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def cycle(n):
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])


EMPTY_GRAPH = Graph(0)


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class PartiallyLabeledGraph:
    """A graph plus an injective partial labeling by positive integers."""

    __slots__ = ("graph", "labels", "_canon")

    def __init__(self, graph, labels=()):
        if isinstance(labels, dict):
            labels = labels.items()
        labels = tuple(sorted((int(l), int(v)) for l, v in labels))
        seen_labels = set()
        seen_vertices = set()
        for lab, v in labels:
            if lab <= 0:
                raise ValueError(f"label {lab} is not a positive integer")
            if not 0 <= v < graph.n:
                raise ValueError(f"label {lab} on missing vertex {v}")
            if lab in seen_labels:
                raise ValueError(f"label {lab} used twice")
            if v in seen_vertices:
                raise ValueError(f"vertex {v} labeled twice")
            seen_labels.add(lab)
            seen_vertices.add(v)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, name, value):
        raise AttributeError("PartiallyLabeledGraph is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, PartiallyLabeledGraph)
            and self.graph == other.graph
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.graph, self.labels))

    def __repr__(self):
        return f"PLG({self.graph!r}, labels={dict(self.labels)})"

    @property
    def n(self):
        return self.graph.n

    def label_set(self):
        return frozenset(lab for lab, _ in self.labels)

    def label_map(self):
        return dict(self.labels)

    def vertex_of(self, label):
        for lab, v in self.labels:
            if lab == label:
                return v
        raise KeyError(label)

    def relabeled_vertices(self, perm):
        """Apply a vertex permutation: new index of old vertex v is perm[v].

        Raises ValueError unless `perm` is a permutation of range(n).  The
        image of a valid PLG under a permutation is valid, so the result is
        built directly, without the constructors' checks.  The edges are
        collected in a set first: a frozenset built from a list can keep a
        larger table, 2264 bytes against 1240 for 20 pairs.
        """
        old = self.graph
        n = old.n
        if len(perm) != n or set(perm) != set(range(n)):
            raise ValueError(f"not a permutation of range({n}): {list(perm)}")
        edges = set()
        adj = [0] * n
        for u, v in old.edges:
            u, v = perm[u], perm[v]
            if u > v:
                u, v = v, u
            edges.add((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        g = object.__new__(Graph)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", frozenset(edges))
        object.__setattr__(g, "adj", tuple(adj))
        plg = object.__new__(PartiallyLabeledGraph)
        object.__setattr__(plg, "graph", g)
        object.__setattr__(plg, "labels", tuple((lab, perm[v]) for lab, v in self.labels))
        object.__setattr__(plg, "_canon", None)
        return plg

    def drop_labels(self, keep=()):
        keep = frozenset(keep)
        return PartiallyLabeledGraph(
            self.graph, (lv for lv in self.labels if lv[0] in keep)
        )

    def canonical(self):
        """The canonical form; a PLG that `canonical_form` returned is its own.

        `_canon` is None until computed, True on a canonical form, else the
        form.  A flag rather than a self-reference keeps canonical forms out
        of reference cycles.
        """
        canon = self._canon
        if canon is None:
            canon = canonical_form(self)[0]
            if canon is not self:
                object.__setattr__(self, "_canon", canon)
        return self if canon is True else canon

    def sort_key(self):
        """Deterministic total order on canonical PLGs, used for serialization."""
        c = self.canonical()
        return (c.n, len(c.graph.edges), sorted(c.graph.edges), c.labels)


PLG = PartiallyLabeledGraph


def canonical_form(g):
    """Canonical form of a PLG (or a bare Graph, treated as unlabeled).

    Labeled vertices are pinned to the first positions in ascending label
    order; the unlabeled remainder is ordered by color refinement plus
    backtracking, minimizing the adjacency encoding.  Disconnected graphs
    are canonicalized per component and reassembled, which sidesteps the
    branching blow-up on unions of many isomorphic pieces.  Returns the
    pair (canonical PLG, certificate), where the certificate is a tuple
    `cert` with cert[old_vertex] = new_vertex.

    When at most one vertex is unlabeled, the labels alone fix the order:
    each labeled vertex goes to the rank of its label and the free vertex,
    if any, goes last, the order the search and per-component routes reach
    as well.  That form is built in O(n), with no refinement or search, and
    an input already in that order is flagged and returned itself.
    """
    if isinstance(g, Graph):
        g = PartiallyLabeledGraph(g)
    n = g.graph.n
    labels = g.labels
    if n - len(labels) <= 1:
        cert = [len(labels)] * n
        for rank, (_, v) in enumerate(labels):
            cert[v] = rank
        cert = tuple(cert)
        if cert == tuple(range(n)):
            return _marked(g), cert
        return _marked(g.relabeled_vertices(cert)), cert
    comps = _components(g.graph)
    if len(comps) > 1:
        return _canonical_disconnected(g, comps)
    adj = g.graph.adj
    bits = n.bit_length()  # a count is at most n - 1
    labeled = [v for _, v in labels]
    rest = sorted(set(range(n)) - set(labeled))
    cells = [[v] for v in labeled]
    if rest:
        cells.append(rest)

    best = None  # (encoding, order)

    def refine(cells, fresh):
        """Split cells by their neighbour counts into the `fresh` cells
        until no cell splits.

        `fresh` holds the masks of the cells the last split made, in cell
        order.  Every cell already has one count into each other cell, so
        leaving those out of the signature gives the same pieces in the
        same sorted order as counting against every cell.  A signature is
        packed into one int, `bits` bits per count, first count most
        significant, so it sorts as the tuple of counts would.
        """
        while fresh:
            out = []
            made = []
            for cell in cells:
                if len(cell) == 1:
                    out.append(cell)
                    continue
                groups = {}
                for v in cell:
                    row = adj[v]
                    sig = 0
                    for m in fresh:
                        sig = sig << bits | (row & m).bit_count()
                    groups.setdefault(sig, []).append(v)
                if len(groups) == 1:
                    out.append(cell)
                    continue
                for key in sorted(groups):
                    out.append(groups[key])
                    made.append(_cell_mask(groups[key]))
            cells, fresh = out, made
        return cells

    def search(cells, fresh):
        nonlocal best
        cells = refine(cells, fresh)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [c[0] for c in cells]
            enc = _encode(adj, order)
            if best is None or enc < best[0]:
                best = (enc, order)
            return
        cell = cells[target]
        if _all_twins(adj, cell):
            # Each other vertex sees all twins or none, and each cell had one
            # count into the twin cell, so it has one count into every twin
            # singleton too: nothing is fresh.
            fixed = cells[:target] + [[v] for v in sorted(cell)] + cells[target + 1:]
            search(fixed, [])
            return
        for v in sorted(cell):
            rest = [u for u in cell if u != v]
            branch = cells[:target] + [[v], rest] + cells[target + 1:]
            search(branch, [1 << v, _cell_mask(rest)])

    search(cells, [_cell_mask(c) for c in cells])
    _, order = best
    cert = [0] * n
    for new, old in enumerate(order):
        cert[old] = new
    cert = tuple(cert)
    return _marked(g.relabeled_vertices(cert)), cert


def _marked(plg):
    """Flag `plg` as a canonical form, so that `plg.canonical()` is `plg`."""
    object.__setattr__(plg, "_canon", True)
    return plg


def _components(graph):
    """Connected components as sorted vertex lists, in order of smallest vertex."""
    unseen = (1 << graph.n) - 1
    comps = []
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        frontier = 1 << start
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            for v in _bits(frontier):
                nxt |= graph.adj[v]
            frontier = nxt & ~comp
        comps.append(_bits(comp))
        unseen &= ~comp
    return comps


def _canonical_disconnected(g, comps):
    """Canonicalize each component, then assemble in a deterministic order.

    Global positions still follow the contract: one slot per label in
    ascending label order first, then the unlabeled vertices, grouped by
    component.  Components carrying labels come in order of their smallest
    label; unlabeled components are ordered by their canonical encoding, and
    ties there mean the components are interchangeable.
    """
    label_of = {v: lab for lab, v in g.labels}
    pieces = []
    for comp in comps:
        sub = PartiallyLabeledGraph(
            g.graph.induced(comp),
            [(label_of[v], i) for i, v in enumerate(comp) if v in label_of],
        )
        form = canonical_form(sub)
        canon = form[0]
        min_label = min((lab for lab, _ in canon.labels), default=None)
        enc_key = (
            canon.graph.n,
            _encode(canon.graph.adj, range(canon.graph.n)),
            canon.labels,
        )
        pieces.append((comp, form, min_label, enc_key))
    with_labels = sorted((p for p in pieces if p[2] is not None), key=lambda p: p[2])
    without = sorted((p for p in pieces if p[2] is None), key=lambda p: p[3])

    all_labels = [lab for lab, _ in g.labels]
    label_pos = {lab: i for i, lab in enumerate(all_labels)}
    cert = [None] * g.graph.n
    next_free = len(all_labels)
    for comp, (canon, sub_cert), _, _ in with_labels + without:
        placed = [lab for lab, _ in canon.labels]
        for i, v in enumerate(comp):
            p = sub_cert[i]
            if p < len(placed):
                cert[v] = label_pos[placed[p]]
            else:
                cert[v] = next_free + (p - len(placed))
        next_free += len(comp) - len(placed)
    cert = tuple(cert)
    return _marked(g.relabeled_vertices(cert)), cert


def _cell_mask(cell):
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _all_twins(adj, cell):
    """True when all vertices of `cell` are interchangeable twins.

    Requires identical neighborhoods outside the cell and a cell that is
    internally complete or internally empty; permuting such vertices is an
    automorphism, so no branching is needed.
    """
    mask = _cell_mask(cell)
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


def _encode(adj, order):
    """The upper triangle of the adjacency matrix in `order`, an ordering
    of all the vertices, row by row as one int, first pair most significant.

    Each row's bits are set from the vertex's later neighbors into a small
    int, so the work per row follows its degree and the growing code is
    shifted once per row rather than once per pair.
    """
    n = len(order)
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    enc = 0
    later = (1 << n) - 1
    left = n
    for u in order:
        later ^= 1 << u
        row = adj[u] & later
        bits = 0
        while row:
            low = row & -row
            bits |= 1 << (n - 1 - pos[low.bit_length() - 1])
            row ^= low
        left -= 1
        enc = enc << left | bits
    return enc


def is_isomorphic_labeled(a, b):
    """Label-preserving isomorphism test via canonical forms."""
    if isinstance(a, Graph):
        a = PartiallyLabeledGraph(a)
    if isinstance(b, Graph):
        b = PartiallyLabeledGraph(b)
    return a.canonical() == b.canonical()


def automorphisms(g, cap=AUTOMORPHISM_CAP):
    """All adjacency-preserving vertex permutations of g.

    For a PLG, labeled vertices must be fixed points.  Returned as tuples
    `perm` with perm[v] = image of v, sorted, so the identity comes first.
    They are the injective homomorphisms from g to itself: such a map is a
    bijection of the vertices sending the finitely many edges injectively,
    hence onto, the edges, so it also sends non-edges to non-edges.
    """
    from .density import INJ, extensions

    plg = g if isinstance(g, PartiallyLabeledGraph) else PartiallyLabeledGraph(g)
    if plg.graph.n > cap:
        raise CapExceeded(f"automorphisms supports n <= {cap}, got {plg.graph.n}")
    fixed = {v: v for _, v in plg.labels}
    return sorted(tuple(image) for image in extensions(plg.graph, fixed, INJ, plg.graph))


def homogeneous_sets(g, cap=AUTOMORPHISM_CAP):
    """All vertex sets W with 1 < |W| <= n-1 whose members look alike outside W.

    The condition is N(u) \\ W == N(v) \\ W for every two distinct u, v
    in W.
    """
    n = g.n
    if n > cap:
        raise CapExceeded(f"homogeneous_sets supports n <= {cap}, got {n}")
    adj = g.adj
    found = []
    for size in range(2, n):
        for comb in combinations(range(n), size):
            wmask = _cell_mask(comb)
            outs = [adj[v] & ~wmask for v in comb]
            if all(o == outs[0] for o in outs):
                found.append(frozenset(comb))
    found.sort(key=lambda w: (len(w), sorted(w)))
    return found


def is_stringent(g, cap=AUTOMORPHISM_CAP):
    """A graph is stringent when it has no homogeneous set and no nontrivial automorphism."""
    if homogeneous_sets(g, cap=cap):
        return False
    return len(automorphisms(g, cap=cap)) == 1


def _check_vertex_cap(n):
    if n > VERTEX_CAP:
        raise CapExceeded(f"graphs are built with at most {VERTEX_CAP} vertices, got {n}")


def stringent_graph(k):
    """The explicit stringent graph on k >= 6 vertices.

    A triangle v1 v2 v3, a path v3 v4 ... vk, and edges vk v2, vk v3
    (1-based names; vertex vi is index i-1).
    """
    if k < 6:
        raise ValueError(f"stringent_graph requires k >= 6, got {k}")
    _check_vertex_cap(k)
    edges = [(0, 1), (0, 2), (1, 2)]
    edges += [(i - 1, i) for i in range(3, k)]
    edges += [(k - 1, 1), (k - 1, 2)]
    return Graph(k, edges)


def _blowup(g, counts, within_edges):
    counts = tuple(int(c) for c in counts)
    if len(counts) != g.n:
        raise ValueError("need one count per vertex")
    if any(c < 1 for c in counts):
        raise ValueError("counts must be positive")
    _check_vertex_cap(sum(counts))
    offset = [0] * g.n
    total = 0
    for v in range(g.n):
        offset[v] = total
        total += counts[v]
    edges = []
    for u, v in g.edges:
        for i in range(counts[u]):
            for j in range(counts[v]):
                edges.append((offset[u] + i, offset[v] + j))
    if within_edges:
        for v in range(g.n):
            for i, j in combinations(range(counts[v]), 2):
                edges.append((offset[v] + i, offset[v] + j))
    return Graph(total, edges)


def independent_blowup(g, counts):
    """Replace vertex v by counts[v] pairwise non-adjacent copies."""
    return _blowup(g, counts, within_edges=False)


def clique_blowup(g, counts):
    """Replace vertex v by a clique of counts[v] copies."""
    return _blowup(g, counts, within_edges=True)


def blowup_block(counts, v):
    """The copy indices of original vertex v in a blow-up with these counts."""
    start = sum(counts[:v])
    return range(start, start + counts[v])


def enumerate_graphs(n, cap=ENUMERATION_CAP):
    """One canonical representative per isomorphism class of n-vertex graphs,
    as a tuple, memoized per process.

    Built incrementally: every n-vertex graph is an (n-1)-vertex graph plus
    one vertex with some neighborhood, so extending all classes and
    deduplicating by canonical form is exhaustive.  Counts follow the known
    sequence 1, 1, 2, 4, 11, 34, 156, 1044.
    """
    if n > cap:
        raise CapExceeded(f"enumerate_graphs supports n <= {cap}, got {n}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n in _ENUM_MEMO:
        return _ENUM_MEMO[n]
    if n == 0:
        result = [EMPTY_GRAPH]
    else:
        seen = {}
        for base in enumerate_graphs(n - 1, cap=cap):
            for nbhd in range(1 << (n - 1)):
                edges = list(base.edges)
                edges += [(v, n - 1) for v in _bits(nbhd)]
                g = Graph(n, edges)
                can = PartiallyLabeledGraph(g).canonical().graph
                seen.setdefault(can, None)
        result = sorted(seen, key=lambda g: (len(g.edges), sorted(g.edges)))
    _ENUM_MEMO[n] = tuple(result)
    return _ENUM_MEMO[n]


# ---------------------------------------------------------------------------
# Text format: plg n=<N> labels=<lab>:<vertex>[,...] edges=<u>-<v>[;...]
# Vertices are 1-based in the record.  Empty fields are omitted.


def format_plg(plg, *, canonicalize=False):
    """The record of `plg` (or of an unlabeled graph) exactly as given.

    Call `.canonical()` first for the canonical record.  The keyword
    `canonicalize=True` does that here; it stays only because
    bench/workloads.py passes `canonicalize=False`.
    """
    if isinstance(plg, Graph):
        plg = PartiallyLabeledGraph(plg)
    if canonicalize:
        plg = plg.canonical()
    parts = [f"plg n={plg.graph.n}"]
    if plg.labels:
        parts.append("labels=" + ",".join(f"{lab}:{v + 1}" for lab, v in plg.labels))
    if plg.graph.edges:
        edges = sorted(plg.graph.edges)
        parts.append("edges=" + ";".join(f"{u + 1}-{v + 1}" for u, v in edges))
    return " ".join(parts)


def record_lines(text):
    """Yield (line number, body) for each line of a text file that is not
    blank once its '#' comment is cut off.  Line numbers are 1-based, as
    FormatError reports them."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def split_record_fields(text, line=None, allowed=("n", "labels", "edges", "weights")):
    """Split a `plg ...` record into its key=value fields."""
    tokens = text.split()
    if not tokens or tokens[0] != "plg":
        raise FormatError("expected record to start with 'plg'", line=line, column=1)
    fields = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise FormatError(f"malformed field {tok!r}", line=line)
        key, _, value = tok.partition("=")
        if key not in allowed:
            raise FormatError(f"unknown field {key!r}", line=line)
        if key in fields:
            raise FormatError(f"duplicate field {key!r}", line=line)
        fields[key] = value
    if "n" not in fields:
        raise FormatError("missing field 'n'", line=line)
    return fields


def parse_plg(text, line=None):
    fields = split_record_fields(text, line=line, allowed=("n", "labels", "edges"))
    return plg_from_fields(fields, line=line)


def plg_from_fields(fields, line=None):
    try:
        n = int(fields["n"])
    except ValueError:
        raise FormatError(f"bad vertex count {fields['n']!r}", line=line) from None
    labels = []
    if fields.get("labels"):
        for item in fields["labels"].split(","):
            lab, sep, v = item.partition(":")
            if not sep:
                raise FormatError(f"bad label item {item!r}", line=line)
            labels.append((_parse_int(lab, "label", line), _parse_int(v, "vertex", line) - 1))
    edges = []
    if fields.get("edges"):
        for item in fields["edges"].split(";"):
            u, sep, v = item.partition("-")
            if not sep:
                raise FormatError(f"bad edge item {item!r}", line=line)
            edges.append((_parse_int(u, "vertex", line) - 1, _parse_int(v, "vertex", line) - 1))
    try:
        return PartiallyLabeledGraph(Graph(n, edges), labels)
    except ValueError as exc:
        raise FormatError(str(exc), line=line) from None


def _parse_int(text, what, line):
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"bad {what} {text!r}", line=line) from None
