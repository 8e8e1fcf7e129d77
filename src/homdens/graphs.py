"""Simple graphs and partially labeled graphs.

A partially labeled graph (PLG) is a simple finite graph together with an
injective assignment of distinct positive integer labels to some of its
vertices.  Two PLGs are considered the same object when a bijection of the
vertices preserves edges, non-edges, and every label; `canonical_form`
realizes that quotient.  One routine, `_certificate`, maps a graph's
adjacency rows and sorted labels to a deterministic canonical vertex order
(labeled vertices pinned first, in ascending label order), and the form is
the input moved by it.

Vertices are 0-based everywhere in code.  The text format and the docs use
1-based vertices, matching the usual v1..vk notation.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from .errors import CapExceeded, FormatError

ENUMERATION_CAP = 7
# Most vertices of a built stringent graph or blow-up.  A witness with all
# of them in one clique has ~500000 edges, one of the largest graphs that
# the commands build and write out in a few seconds.
VERTEX_CAP = 1000
# Most nodes of one canonical-labeling search (the tests and benchmark need
# 191): a huge glued product of cliques is refused, not searched leaf by leaf.
CANONICAL_NODE_CAP = 20_000

_ENUM_MEMO = {}  # n -> tuple of representatives, filled once per process
_FORMS = None  # (adj, labels) -> certificate, a dict only inside `form_table`


class Graph:
    """An immutable simple graph on vertices 0..n-1, kept as its adjacency
    rows: `adj[v]` is the bitmask of the neighbours of v."""

    __slots__ = ("n", "adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))

    @classmethod
    def _of_rows(cls, adj):
        """The graph of trusted rows, a tuple of symmetric loop-free
        bitmasks, built without the constructor's checks."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "adj", adj)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edges(self):
        """The edges as a frozenset of pairs (u, v) with u < v."""
        return frozenset((u, v) for u, row in enumerate(self.adj) for v in _bits(row) if u < v)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"Graph({self.n}, {sorted(self.edges)})"

    def induced(self, vertices):
        """Subgraph induced on `vertices`, distinct vertices of the graph,
        re-indexed in the given order."""
        index = {v: i for i, v in enumerate(vertices)}
        mask = _cell_mask(index)
        if len(index) != len(vertices) or mask >> self.n:
            raise ValueError(f"not distinct vertices of the graph: {list(vertices)}")
        return Graph._of_rows(tuple(_moved(self.adj[v] & mask, index) for v in vertices))

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


def _moved(mask, to):
    """The mask of the vertices to[v] for the vertices v of `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << to[low.bit_length() - 1]
        mask ^= low
    return out


class PartiallyLabeledGraph:
    """A graph plus an injective partial labeling by positive integers."""

    __slots__ = ("graph", "labels", "_canon")

    def __init__(self, graph, labels=()):
        if isinstance(labels, dict):
            labels = labels.items()
        labels = tuple(sorted((int(l), int(v)) for l, v in labels)) if labels else ()
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

    @classmethod
    def _of_parts(cls, graph, labels):
        """The PLG of a graph and a labels tuple, sorted by label, that the
        caller trusts, built without the constructor's checks."""
        plg = object.__new__(cls)
        object.__setattr__(plg, "graph", graph)
        object.__setattr__(plg, "labels", labels)
        object.__setattr__(plg, "_canon", None)
        return plg

    def __setattr__(self, name, value):
        raise AttributeError("PartiallyLabeledGraph is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, PartiallyLabeledGraph)
            and self.graph == other.graph
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.graph.adj, self.labels))

    def __repr__(self):
        return f"PLG({self.graph!r}, labels={dict(self.labels)})"

    @property
    def n(self):
        return self.graph.n

    def label_set(self):
        return frozenset(lab for lab, _ in self.labels)

    def label_map(self):
        return dict(self.labels)

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
        return (c.n, *_edge_order(c.graph), c.labels)


PLG = PartiallyLabeledGraph


def _edge_order(g):
    """Sorts n-vertex graphs as (edge count, sorted edge list) would: equal
    length lists first differ where one holds the smaller pair, the higher
    bit of the upper-triangle encoding, so the encoding is negated."""
    return sum(row.bit_count() for row in g.adj) // 2, -_encode(g.adj, range(g.n))


def canonical_form(g):
    """Canonical form of a PLG (or a bare Graph, treated as unlabeled): the
    pair (canonical PLG, certificate), where the certificate is the tuple
    `cert` with cert[old_vertex] = new_vertex that `_certificate` gives for
    the input's rows and labels.  An input whose certificate is the
    identity is already its own form; it is flagged and returned itself."""
    if isinstance(g, Graph):
        g = PartiallyLabeledGraph._of_parts(g, ())
    return _form(g, _certificate(g.graph.adj, g.labels))


def _certificate(adj, labels):
    """The certificate of the PLG of rows `adj` and `labels`, a tuple of
    (label, vertex) pairs sorted by label.

    Labeled vertices are pinned to the first positions in ascending label
    order.  When at most one vertex is unlabeled, that fixes the order: the
    free vertex, if any, goes last, the order the search and per-component
    routes reach as well, in O(n) with no refinement or search.

    A disconnected graph, found by one flood from vertex 0, is labeled per
    component, each cut as rows, which sidesteps the branching blow-up on
    unions of many isomorphic pieces.  Components carrying labels come in
    order of their smallest label; unlabeled ones are ordered by size and
    then by their encoding under their own certificate, and ties there mean
    the components are interchangeable.  The unlabeled vertices take the
    positions after the labels, grouped by component.

    A connected graph is ordered by `_search`.  Inside a `form_table`
    scope its rows and labels are looked up first and the certificate found
    is recorded, so each connected graph, a component included, is searched
    once per scope.
    """
    n = len(adj)
    cert = [len(labels)] * n
    for rank, (_, v) in enumerate(labels):
        cert[v] = rank
    if n - len(labels) <= 1:
        return tuple(cert)
    full = (1 << n) - 1
    if _reach(adj, 1) != full:
        pieces = []  # (sort key, vertices, certificate, label count)
        for comp, _ in _components(adj, full):
            verts = _bits(comp)
            index = {v: i for i, v in enumerate(verts)}
            rows = tuple(_moved(adj[v] & comp, index) for v in verts)
            sub_labels = tuple((lab, index[v]) for lab, v in labels if comp >> v & 1)
            sub = _certificate(rows, sub_labels)
            if sub_labels:
                key = (0, sub_labels[0][0])
            else:
                key = (1, len(verts), _encode(rows, sorted(range(len(sub)), key=sub.__getitem__)))
            pieces.append((key, verts, sub, len(sub_labels)))
        pieces.sort(key=lambda p: p[0])
        free = len(labels)
        for _, verts, sub, labeled in pieces:
            for v, p in zip(verts, sub):
                if p >= labeled:
                    cert[v] = free + p - labeled
            free += len(verts) - labeled
        return tuple(cert)
    table = _FORMS
    if table is not None:
        found = table.get((adj, labels))
        if found is not None:
            return found
    if labels:
        pinned = {v for _, v in labels}
        cells = [[v] for _, v in labels] + [[v for v in range(n) if v not in pinned]]
        fresh = [_cell_mask(c) for c in cells]
    else:
        cells, fresh = [list(range(n))], [full]
    for new, old in enumerate(_search(adj, cells, fresh)):
        cert[old] = new
    cert = tuple(cert)
    if table is not None:
        table[adj, labels] = cert
    return cert


def _search(adj, cells, fresh):
    """The vertex order of the least leaf of the search tree from `cells`,
    the last split of which made the `fresh` cells (see `_refine`).

    A node refines its cells; a leaf has only singletons.  Elsewhere the
    first cell of several vertices is split by individualizing each of its
    vertices in turn, or fixed at once when its vertices are twins.  Leaves
    are visited depth first, smallest vertex first, and encoded only to
    choose among them: when refinement reaches a single leaf, its order is
    the answer unencoded.  Of equal encodings the first leaf wins.
    """
    bits = len(adj).bit_length()  # a count is at most n - 1
    best = None  # the order of the least leaf so far
    best_enc = None  # its encoding, computed once a second leaf appears
    nodes = 0
    stack = [(cells, fresh)]
    while stack:
        nodes += 1
        if nodes > CANONICAL_NODE_CAP:
            raise CapExceeded(f"canonical labeling of {len(adj)} vertices exceeds {CANONICAL_NODE_CAP} search nodes")
        cells, fresh = stack.pop()
        cells = _refine(adj, bits, cells, fresh)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [c[0] for c in cells]
            if best is None:
                best = order
                continue
            if best_enc is None:
                best_enc = _encode(adj, best)
            enc = _encode(adj, order)
            if enc < best_enc:
                best, best_enc = order, enc
            continue
        cell = cells[target]
        if _all_twins(adj, cell):
            # Each other vertex sees all twins or none, and each cell had one
            # count into the twin cell, so it has one count into every twin
            # singleton too: nothing is fresh.
            stack.append((cells[:target] + [[v] for v in sorted(cell)] + cells[target + 1:], []))
            continue
        for v in sorted(cell, reverse=True):  # popped smallest first
            rest = [u for u in cell if u != v]
            stack.append((cells[:target] + [[v], rest] + cells[target + 1:], [1 << v, _cell_mask(rest)]))
    return best


def _refine(adj, bits, cells, fresh):
    """Split cells by their neighbour counts into the `fresh` cells until
    no cell splits.

    `fresh` holds the masks of the cells the last split made, in cell
    order.  Every cell already has one count into each other cell, so
    leaving those out of the signature gives the same pieces in the same
    sorted order as counting against every cell.  A signature is packed
    into one int, `bits` bits per count, first count most significant, so
    it sorts as the tuple of counts would; against one fresh cell it is
    the count itself.
    """
    while fresh:
        out = []
        made = []
        single = fresh[0] if len(fresh) == 1 else 0
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups = {}
            if single:
                for v in cell:
                    groups.setdefault((adj[v] & single).bit_count(), []).append(v)
            else:
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


@contextmanager
def form_table():
    """A scope in which `_certificate` keeps the certificate of each
    connected graph it searches, keyed by its rows and labels, and reuses
    it for an equal input.  A nested scope shares the open table; leaving
    the outermost one, by return or exception, drops it.  A check opens
    one around its expansions, which canonicalize many equal graphs; a
    build or parse whose inputs are all distinct opens none, as the table
    would only hold memory."""
    global _FORMS
    outer = _FORMS
    if outer is None:
        _FORMS = {}
    try:
        yield
    finally:
        _FORMS = outer


def _form(g, cert):
    """The pair (canonical form, `cert`) of `g` under its certificate, a
    permutation the caller trusts: `g` itself when `cert` is the identity,
    else its image.  The form is flagged, so that `.canonical()` on it is
    itself."""
    form = g if cert == tuple(range(len(cert))) else _moved_plg(g, cert)
    return _marked(form), cert


def _moved_plg(plg, perm):
    """The image of `plg` under a permutation the caller trusts: vertex v
    goes to perm[v].  The image of a valid PLG is valid, so it is built
    without the constructors' checks."""
    labels = tuple((lab, perm[v]) for lab, v in plg.labels)
    return PartiallyLabeledGraph._of_parts(Graph._of_rows(_moved_rows(plg.graph.adj, perm)), labels)


def _moved_rows(adj, perm):
    """The rows `adj` with each vertex v moved to perm[v]."""
    out = [0] * len(perm)
    for u, row in enumerate(adj):
        out[perm[u]] = _moved(row, perm)
    return tuple(out)


def _marked(plg):
    """Flag `plg` as a canonical form, so that `plg.canonical()` is `plg`."""
    object.__setattr__(plg, "_canon", True)
    return plg


def _reach(adj, start):
    """The mask of the vertices that the vertex mask `start` reaches in the
    graph of rows `adj`, `start` included."""
    seen = front = start
    while front:
        reach = 0
        while front:
            low = front & -front
            front ^= low
            reach |= adj[low.bit_length() - 1]
        front = reach & ~seen
        seen |= front
    return seen


def _components(adj, rest):
    """The components of the graph of rows `adj` induced on the vertex mask
    `rest`, lowest vertex first, each as (vertex mask, number of edges
    inside it)."""
    comps = []
    free = rest
    while rest:
        comp = front = rest & -rest
        degrees = 0
        while front:
            reach = 0
            while front:
                low = front & -front
                front ^= low
                a = adj[low.bit_length() - 1] & free
                reach |= a
                degrees += a.bit_count()
            front = reach & ~comp
            comp |= front
        comps.append((comp, degrees // 2))
        rest &= ~comp
    return comps


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
    blocks, total = [], 0
    for c in counts:
        blocks.append(((1 << c) - 1) << total)
        total += c
    rows = []
    for v in range(g.n):
        out = 0
        for u in _bits(g.adj[v]):
            out |= blocks[u]
        for i in _bits(blocks[v]):
            rows.append(out | blocks[v] ^ 1 << i if within_edges else out)
    return Graph._of_rows(tuple(rows))


def independent_blowup(g, counts):
    """Replace vertex v by counts[v] pairwise non-adjacent copies."""
    return _blowup(g, counts, within_edges=False)


def clique_blowup(g, counts):
    """Replace vertex v by a clique of counts[v] copies."""
    return _blowup(g, counts, within_edges=True)


def enumerate_graphs(n):
    """One canonical representative per isomorphism class of n-vertex graphs,
    as a tuple, memoized per process.

    Built incrementally: every n-vertex graph is an (n-1)-vertex graph plus
    one vertex with some neighborhood, so extending all classes and
    deduplicating by canonical form is exhaustive.  Counts follow the known
    sequence 1, 1, 2, 4, 11, 34, 156, 1044.
    """
    if n > ENUMERATION_CAP:
        raise CapExceeded(f"enumerate_graphs supports n <= {ENUMERATION_CAP}, got {n}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n in _ENUM_MEMO:
        return _ENUM_MEMO[n]
    if n == 0:
        result = [EMPTY_GRAPH]
    else:
        seen = {}
        new = 1 << n - 1
        for base in enumerate_graphs(n - 1):
            for nbhd in range(new):
                rows = [row | new if nbhd >> v & 1 else row for v, row in enumerate(base.adj)]
                g = Graph._of_rows((*rows, nbhd))
                can = PartiallyLabeledGraph(g).canonical().graph
                seen.setdefault(can, None)
        result = sorted(seen, key=_edge_order)
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
    if canonicalize:
        plg = (PartiallyLabeledGraph(plg) if isinstance(plg, Graph) else plg).canonical()
    graph, labels = (plg, ()) if isinstance(plg, Graph) else (plg.graph, plg.labels)
    parts = [f"plg n={graph.n}"]
    if labels:
        parts.append("labels=" + ",".join(f"{lab}:{v + 1}" for lab, v in labels))
    edges = []
    for u, row in enumerate(graph.adj):
        row >>= u + 1
        while row:
            low = row & -row
            edges.append(f"{u + 1}-{u + 1 + low.bit_length()}")
            row ^= low
    if edges:
        parts.append("edges=" + ";".join(edges))
    return " ".join(parts)


def record_lines(text):
    """Yield (line number, body) for each line of a text file that is not
    blank once its '#' comment is cut off.  Line numbers are 1-based, as
    FormatError reports them."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def record_text(text):
    """The records of a text file as `record_lines` reads them, one per line."""
    return "\n".join(body for _, body in record_lines(text))


def single_record(text):
    """(line number, body) of the one record of a text file, or (None, "")
    for none; FormatError names the line of a second."""
    records = list(record_lines(text))
    if len(records) > 1:
        raise FormatError("expected one record, found a second", line=records[1][0])
    return records[0] if records else (None, "")


def split_record_fields(text, line=None, allowed=("n", "labels", "edges", "weights")):
    """Split a `plg ...` record into its key=value fields."""
    tokens = text.split()
    if not tokens or tokens[0] != "plg":
        raise FormatError("expected record to start with 'plg'", line=line)
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
    """The PLG of a record's fields, its vertex count checked first."""
    try:
        n = int(fields["n"])
    except ValueError:
        raise FormatError(f"bad vertex count {fields['n']!r}", line=line) from None
    _check_vertex_cap(n)
    vertex = _VERTEX.get
    labels = []
    if fields.get("labels"):
        for item in fields["labels"].split(","):
            lab, sep, v = item.partition(":")
            if not sep:
                raise FormatError(f"bad label item {item!r}", line=line)
            labels.append((_parse_int(lab, "label", line), _vertex(v, line)))
    edges = []
    if fields.get("edges"):
        for item in fields["edges"].split(";"):
            u, sep, v = item.partition("-")
            if not sep:
                raise FormatError(f"bad edge item {item!r}", line=line)
            a, b = vertex(u), vertex(v)
            if a is None or b is None:
                a, b = _vertex(u, line), _vertex(v, line)
            edges.append((a, b))
    try:
        return PartiallyLabeledGraph(Graph(n, edges), labels)
    except ValueError as exc:
        raise FormatError(str(exc), line=line) from None


# The 0-based vertex of each plain 1-based vertex text a record can hold.
_VERTEX = {str(v): v - 1 for v in range(1, VERTEX_CAP + 1)}


def _vertex(text, line):
    """The 0-based vertex of a 1-based vertex text: the table's, or else
    what `int` reads."""
    v = _VERTEX.get(text)
    return _parse_int(text, "vertex", line) - 1 if v is None else v


def _parse_int(text, what, line):
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"bad {what} {text!r}", line=line) from None


def parse_rational(text, what, line=None):
    """The Fraction of an integer, `a/b` or plain decimal text.  Exponent
    notation is refused: `Fraction` would expand `1e999999999` digit by
    digit."""
    try:
        if "e" in text or "E" in text:
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad {what} {text!r}", line=line) from None
