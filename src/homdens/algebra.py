"""The quantum-graph algebra.

A quantum graph is a formal rational linear combination of partially
labeled graphs.  Multiplication glues two PLGs: take the disjoint union,
identify vertices carrying the same label, and keep one copy of any doubled
edge.  Working modulo the ideal spanned by differences F - H, where F adds
a (possibly labeled) isolated vertex to H, every combination has a normal
form: strip all isolated vertices from every term, canonicalize, merge.
Two combinations are equal in the quotient exactly when their normal forms
coincide, so `QuantumGraph` stores the normal form and nothing else.

Large expressions that must never be expanded (images of big polynomials
under graph-algebra homomorphisms) are kept as `QExpr` trees instead, built
from Const/Atom/IndAtom/Sum/Product/Unlabel nodes plus `PolyImage`, which
applies a polynomial to named generator subexpressions.  `expand` turns a
tree into a QuantumGraph when it fits in a term budget; the density module
evaluates trees directly without expansion.  A Const factor scales a
product instead of gluing as the unit, and an Unlabel passes the labels
it keeps down the tree, so a product of ind atoms drops the rest before
its one expansion.

A trigraph is a PLG plus one free row per vertex, the bitmask of its free
pairs, which are neither edges nor non-edges; with none, its rows are 0.
An IndAtom is ind of a trigraph, the alternating sum over the supergraphs
that add non-edges, where free pairs never appear.  Two inds multiply by
one rule, `ind_product`, which merges rows and glues no terms: a pair that
both trigraphs cover must agree, a free pair yielding to the other state,
or the product is 0; a pair between the parts of different factors is free.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from itertools import product as cartesian
from math import factorial

from .errors import BudgetExceeded, FormatError
from .graphs import (
    PLG,
    Graph,
    PartiallyLabeledGraph,
    _bits,
    _form_parts,
    _marked,
    _moved,
    _moved_rows,
    _read_record,
    canonical_form,
    format_plg,
    parse_plg,
    parse_rational,
    record_lines,
    record_text,
    single_record,
)
from .polynomials import Polynomial

EXPAND_BUDGET = 200_000
# Deepest s-expression nesting accepted; the parser and the recursive
# evaluators stay well inside the interpreter's recursion limit.
QEXPR_DEPTH_CAP = 100

EMPTY_PLG = _marked(PLG(Graph(0)))


def as_plg(x):
    if isinstance(x, PartiallyLabeledGraph):
        return x
    if isinstance(x, Graph):
        return PLG(x)
    raise TypeError(f"expected a graph or PLG, got {type(x).__name__}")


def _stripped(adj, labels):
    """The rows and labels of the PLG of rows `adj` and `labels`, sorted
    by label, with every isolated vertex removed.

    What is left of a canonical form is one: canonical labeling orders the
    labeled vertices by label, and places each component apart, unlabeled
    isolated vertices before any other unlabeled component, so dropping
    isolated vertices keeps the order of the rest.
    """
    index = {v: i for i, v in enumerate(v for v, row in enumerate(adj) if row)}
    return (
        tuple(_moved(row, index) for row in adj if row),
        tuple((lab, index[v]) for lab, v in labels if v in index),
    )


def _glue_map(a, b):
    """Where gluing PLG b onto PLG a sends each vertex of b, as a list, the
    glued vertex count and the glued labels, as {label: vertex}: a keeps
    its vertices, a vertex of b with a label of a goes to that vertex, and
    the rest come after a's."""
    labels = a.label_map()
    label_of = {v: lab for lab, v in b.labels}
    bmap, n = [], a.graph.n
    for v in range(b.graph.n):
        if label_of.get(v) in labels:
            bmap.append(labels[label_of[v]])
        else:
            bmap.append(n)
            n += 1
    labels.update((lab, bmap[v]) for lab, v in b.labels)
    return bmap, n, labels


def glue(a, b):
    """Glue two PLGs: disjoint union, identify equal labels, drop doubled edges."""
    return PLG._of_parts(*_glued(as_plg(a), as_plg(b)))


def _glued(a, b):
    """The rows and labels, sorted by label, of `glue(a, b)` for PLGs a and b."""
    bmap, n, labels = _glue_map(a, b)
    adj = [*a.graph.adj, *[0] * (n - a.graph.n)]
    for u, row in enumerate(b.graph.adj):
        adj[bmap[u]] |= _moved(row, bmap)
    return tuple(adj), tuple(sorted(labels.items()))


class QuantumGraph:
    """A rational combination of PLGs, stored in normal form.

    Keys are canonical isolated-vertex-free PLGs; the empty graph is the
    unit of the unlabeled subalgebra.  The empty map is zero, and no
    coefficient is 0.  Given PLGs become keys by `_add_plgs`, which labels
    each once and records its form on it.

    `_search` is the term search that `density` keeps on a graph with no
    labels once it is first evaluated, and None until then.
    """

    __slots__ = ("terms", "_search")

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        acc = _Terms()
        _add_plgs(acc, ((as_plg(plg), c if isinstance(c, Fraction) else Fraction(c)) for plg, c in terms))
        object.__setattr__(self, "terms", acc.terms())
        object.__setattr__(self, "_search", None)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumGraph is immutable")

    @staticmethod
    def of(plg, coeff=1):
        return QuantumGraph([(as_plg(plg), coeff)])

    @staticmethod
    def _normal(terms):
        """The QuantumGraph of `terms`, a dict from canonical isolated-free
        PLGs to nonzero Fractions, which it keeps."""
        f = QuantumGraph()
        object.__setattr__(f, "terms", terms)
        return f

    @staticmethod
    def unit():
        return QuantumGraph.of(EMPTY_PLG)

    def label_set(self):
        return frozenset().union(*(plg.label_set() for plg in self.terms))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __add__(self, other):
        terms = dict(self.terms)
        for p, c in as_quantum(other).terms.items():
            _merge(terms, p, c)
        return QuantumGraph._normal({p: c for p, c in terms.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return QuantumGraph._normal({p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-as_quantum(other))

    def __rsub__(self, other):
        return as_quantum(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return QuantumGraph()
            return QuantumGraph._normal({p: c * other for p, c in self.terms.items()})
        return product(self, other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuantumGraph.unit() * other
        elif not isinstance(other, QuantumGraph):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "QuantumGraph(0)"
        bits = [f"{c} * {format_plg(p)}" for p, c in self.sorted_terms()]
        return "QuantumGraph(" + " + ".join(bits) + ")"


def as_quantum(x):
    if isinstance(x, QuantumGraph):
        return x
    if isinstance(x, (PartiallyLabeledGraph, Graph)):
        return QuantumGraph.of(as_plg(x))
    if isinstance(x, (int, Fraction)):
        return QuantumGraph.unit() * x
    raise TypeError(f"expected quantum graph material, got {type(x).__name__}")


def product(f, g):
    """Bilinear extension of PLG gluing; commutative and associative."""
    f, g = as_quantum(f), as_quantum(g)
    return _normalized((_glued(a, b), ca * cb) for a, ca in f.terms.items() for b, cb in g.terms.items())


def unlabel(f, keep=()):
    """Forget every label outside `keep`, labels read as integers as
    `Unlabel` reads them; linear in f.  A key that keeps all its labels
    is not labeled again."""
    acc = _Terms()
    _add_plgs(acc, as_quantum(f).terms.items(), frozenset(int(t) for t in keep))
    return QuantumGraph._normal(acc.terms())


# ---------------------------------------------------------------------------
# Induced densities: ind of a trigraph (plg, rows), a PLG plus the free row
# of each vertex, its pairs that are neither edges nor non-edges.


def _absent(plg, rows):
    """How many pairs of the trigraph (plg, rows) are neither edges nor free."""
    n = plg.n
    return (n * (n - 1) - sum(a.bit_count() + r.bit_count() for a, r in zip(plg.graph.adj, rows))) // 2


def ind_terms(plg, rows):
    """Yield the raw terms whose sum is ind of the trigraph (plg, rows), each
    as ((adj, labels), weight), the rows and labels of a PLG never built.

    ind is the alternating sum over the supergraphs that add a set A of
    non-edges, with sign (-1)^|A|; free pairs are never added, so they stay
    unconstrained.  Unlabeled twins, vertices with the same edges and free
    pairs to every other vertex and a free pair between them, swap without
    changing |A|, so a class of m twins is taken up to swapping: each twin
    takes a subset of the class's non-edge partners, the subsets chosen in
    ascending order, weighted by the m!/prod(multiplicity!) orders that
    reach the choice.  A class owns its members' pairs, so it is taken up
    to swapping only when no earlier such class is among its partners;
    the pairs no class owns are plain, each added or not.  The raw terms
    are pairwise distinct: they share the labels, and each choice adds
    different edges.
    """
    g, n = plg.graph, plg.n
    open_rows = [((1 << n) - 1) & ~(g.adj[v] | rows[v] | 1 << v) for v in range(n)]
    labeled = {v for _, v in plg.labels}
    twins = {}
    for v in range(n):
        if v not in labeled:
            twins.setdefault((g.adj[v], rows[v] | 1 << v), []).append(v)

    def subsets(items):
        return [[x for i, x in enumerate(items) if mask >> i & 1] for mask in range(1 << len(items))]

    choices, owned = [], 0  # one list of (extra edges, count) per class, then the plain pairs
    for members in twins.values():
        partners = open_rows[members[0]]
        if len(members) > 1 and not partners & owned:
            owned |= sum(1 << c for c in members)
            picked = subsets(_bits(partners))
            group = []
            for picks in combinations_with_replacement(range(len(picked)), len(members)):
                count = factorial(len(members))
                for mult in Counter(picks).values():
                    count //= factorial(mult)
                group.append(([(w, c) for c, s in zip(members, picks) for w in picked[s]], count))
            choices.append(group)
    plain = [(u, v) for u in range(n) if not owned >> u & 1 for v in _bits(open_rows[u] & ~owned) if u < v]
    choices.append([(extra, 1) for extra in subsets(plain)])
    for combo in cartesian(*choices):
        adj, added, weight = list(g.adj), 0, 1
        for edges, count in combo:
            for u, v in edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            added += len(edges)
            weight *= count
        yield (tuple(adj), plg.labels), -weight if added % 2 else weight


def ind_product(a, b):
    """ind a * ind b as the ind of one trigraph, for trigraphs a and b
    given as (plg, rows); None when the product is 0.

    The factors are glued at their shared labels.  A pair that both cover
    must agree, where a free pair yields to the other factor's state, and
    an edge against a non-edge makes the product 0.  A pair between
    vertices that only one factor covers each is free.  No pair is
    visited: each vertex of b merges its moved rows into the glued ones.
    """
    (pa, ra), (pb, rb) = a, b
    bmap, n, labels = _glue_map(pa, pb)
    k = pa.n
    own, shared = (1 << k) - 1, sum(1 << x for x in bmap if x < k)
    fresh, alone = (1 << n) - 1 ^ own, own ^ shared
    adj, free = [*pa.graph.adj, *[0] * (n - k)], [*ra, *[0] * (n - k)]
    for u, x in enumerate(bmap):
        edge, loose = _moved(pb.graph.adj[u], bmap), _moved(rb[u], bmap)
        if x < k:
            both = shared ^ 1 << x  # the pairs at x that both factors cover
            if adj[x] & both & ~edge & ~loose or edge & both & ~adj[x] & ~free[x]:
                return None
            adj[x] |= edge
            free[x] = free[x] & (loose | ~both) | loose & fresh  # free where its coverers agree
        else:
            adj[x], free[x] = edge, loose | alone
    for v in _bits(alone):
        free[v] |= fresh
    return PLG(Graph._of_rows(tuple(adj)), labels), tuple(free)


def ind(h):
    """Alternating sum over all supergraphs of h on the same vertex set.

    ind(H) = sum over F >= H of (-1)^{|E(F) - E(H)|} F, labels kept: the
    expansion of the atom `IndAtom(h)`, so the expand budget bounds its
    2^(absent pairs) terms before any is built.
    """
    return expand(IndAtom(h))


# ---------------------------------------------------------------------------
# Structured expressions


class QExpr:
    """Base of the structured expression tree.

    Nodes are immutable.  Each node type defines `_key()` and
    `label_set()`; two nodes are equal when they have the same type and
    equal `_key()`.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def __add__(self, other):
        return Sum((self, _as_qexpr(other)))

    def __mul__(self, other):
        return Product((self, _as_qexpr(other)))

    __radd__ = __add__
    __rmul__ = __mul__


def _as_qexpr(x):
    """Lift x into an expression.  A QuantumGraph, or a term list (a tuple
    of (plg, coefficient) pairs) through its normal form, becomes a Sum
    of Const * Atom products; each call builds a new tree, so lift an
    operand once before using it twice."""
    if isinstance(x, QExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(x)
    if isinstance(x, (PartiallyLabeledGraph, Graph)):
        return Atom(as_plg(x))
    if isinstance(x, tuple):  # a term list: equal records merge before labeling, as in parse_quantum
        x = _normalized(((plg.graph.adj, plg.labels), c) for plg, c in x)
    elif not isinstance(x, QuantumGraph):
        raise TypeError(f"cannot lift {type(x).__name__} into an expression")
    return Sum(Product((Const(coeff), Atom(plg))) for plg, coeff in x.terms.items())


class Const(QExpr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", Fraction(value))

    def _key(self):
        return self.value

    def label_set(self):
        return frozenset()

    def __repr__(self):
        return f"Const({self.value})"


class _Leaf(QExpr):
    """A node holding one PLG, stored as its canonical form."""

    __slots__ = ("plg",)

    def __init__(self, plg):
        object.__setattr__(self, "plg", as_plg(plg).canonical())

    def _key(self):
        return self.plg

    def label_set(self):
        return self.plg.label_set()

    def __repr__(self):
        return f"{type(self).__name__}({format_plg(self.plg)!r})"


class Atom(_Leaf):
    __slots__ = ()


class IndAtom(_Leaf):
    """ind of a trigraph, kept unexpanded: the canonical form `plg` and
    its free `rows`, the `free` pairs mapped through the certificate.

    A free pair joins two non-adjacent vertices and is neither an edge nor
    a non-edge: ind leaves it unconstrained, so one atom with free pairs
    is the sum of the plain atoms over every state of those pairs.  Only
    code builds such atoms; they have no text form.  Equal atoms are
    isomorphic trigraphs.
    """

    __slots__ = ("rows",)

    def __init__(self, plg, free=()):
        plg = as_plg(plg)
        rows = Graph(plg.n, free).adj
        if any(a & r for a, r in zip(plg.graph.adj, rows)):
            raise ValueError("a free pair must join two non-adjacent vertices")
        if any(rows):
            plg, cert = canonical_form(plg)
            rows = _moved_rows(rows, cert)
        object.__setattr__(self, "plg", plg.canonical())
        object.__setattr__(self, "rows", rows)

    def _key(self):
        return self.plg, self.rows

    def __repr__(self):
        free = f", free={sorted(Graph._of_rows(self.rows).edges)}" if any(self.rows) else ""
        return f"IndAtom({format_plg(self.plg)!r}{free})"


class _NAry(QExpr):
    """A node over a tuple of child expressions."""

    __slots__ = ("children",)

    def __init__(self, children):
        object.__setattr__(self, "children", tuple(_as_qexpr(c) for c in children))

    def _key(self):
        return self.children

    def label_set(self):
        return frozenset().union(*(c.label_set() for c in self.children))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.children)!r})"


class Sum(_NAry):
    __slots__ = ()


class Product(_NAry):
    __slots__ = ()


class Unlabel(QExpr):
    __slots__ = ("keep", "child")

    def __init__(self, keep, child):
        object.__setattr__(self, "keep", frozenset(int(t) for t in keep))
        object.__setattr__(self, "child", _as_qexpr(child))

    def _key(self):
        return self.keep, self.child

    def label_set(self):
        return self.child.label_set() & self.keep

    def __repr__(self):
        return f"Unlabel({sorted(self.keep)}, {self.child!r})"


class PolyImage(QExpr):
    """A polynomial applied to named generator subexpressions.

    Represents the image of `poly` under the algebra homomorphism sending
    each variable to its generator, without multiplying anything out.  The
    poly slot needs `vars`, `evaluate(point)` and, for expansion, `terms`
    (or an `as_polynomial()` view).  `origin` is an optional s-expression
    that reconstructs the node, used by the serializer.
    """

    __slots__ = ("generators", "poly", "origin")

    def __init__(self, generators, poly, origin=None):
        if isinstance(generators, dict):
            generators = generators.items()
        gens = tuple(sorted((str(v), _as_qexpr(e)) for v, e in generators))
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "origin", origin)
        missing = set(poly.vars) - {v for v, _ in gens}
        if missing:
            raise ValueError(f"no generator for variables {sorted(missing)}")

    def generator_map(self):
        return dict(self.generators)

    def _key(self):
        return self.generators, self.poly

    def label_set(self):
        return frozenset().union(*(e.label_set() for _, e in self.generators))

    def __repr__(self):
        names = ", ".join(v for v, _ in self.generators)
        return f"PolyImage([{names}], {self.poly!r})"


def expand(expr, budget=EXPAND_BUDGET):
    """Expand a structured expression into a normal-form QuantumGraph.

    `expr` is anything `_as_qexpr` lifts, a QuantumGraph or a term list
    included.  The budget must be at least 1.  Raises BudgetExceeded when
    an intermediate combination would hold more than `budget` terms, so
    astronomically large images fail fast instead of thrashing.  A
    PolyImage is the sum of its monomials' products.  A product's Const
    factors scale it, and a product scaled by 0 expands nothing.  Its
    IndAtom factors multiply by `ind_product` into one trigraph, or 0,
    whose 2^(non-edges) terms are checked before any is built; with no
    other factor, its raw terms go to the normal-form rule as rows, by
    `_add_ind`.  A lone other factor expands in place, scaled; otherwise each other factor
    is expanded once, all but the last fold by `product`, and the last
    gluing's rows go to the rule, so no product is canonicalized twice; a
    gluing is refused when its term counts multiply past the budget.  An
    Unlabel passes its kept labels down through Sum, PolyImage and nested
    Unlabels to each product, whose rule drops the rest: a product of
    IndAtom and Const factors drops them from its trigraph before it
    expands, so its unlabeled twins collapse."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    acc = _Terms()
    _expand_into(acc, _as_qexpr(expr), 1, None, budget)
    return QuantumGraph._normal(acc.terms())


class _Terms:
    """A sum on its way to normal form: `coeffs` maps the rows and labels
    of each canonical form reached to its coefficient.  Rows that labeling
    moved take one shared int per distinct row from `rows`, as a parsed
    form's do.  `given` maps the rows and labels of each form given as a
    PLG to that PLG, which `terms` keeps as the key's PLG."""

    __slots__ = ("coeffs", "rows", "given")

    def __init__(self):
        self.coeffs, self.rows, self.given = {}, {}, {}

    def terms(self):
        """The dict from the flagged PLG of each form with a nonzero
        coefficient to that coefficient as a Fraction, equal coefficients
        one object; a given PLG is kept, and the rest are built."""
        out, shared, given = {}, {}, self.given
        for key, c in self.coeffs.items():
            if c:
                f = shared.get(c)
                if f is None:
                    f = shared[c] = c if isinstance(c, Fraction) else Fraction(c)
                out[given.get(key) or _marked(PLG._of_parts(*key))] = f
        return out


def _normalized(terms):
    """The QuantumGraph of the raw `terms`, by `_add_raw`."""
    acc = _Terms()
    _add_raw(acc, terms)
    return QuantumGraph._normal(acc.terms())


def _add_plgs(acc, terms, keep=None):
    """Add the sum of `terms`, (PLG, weight) pairs, to the `_Terms` acc,
    unlabeled down to `keep` as in `_add_raw`.  A PLG that keeps all its
    labels is keyed by the rows and labels of its form, stripped (see
    `_stripped`), and `canonical` records that form on it, so a PLG given
    again is not labeled again; a form with no isolated vertex is kept as
    its key's PLG.  The rest go to `_add_raw` as rows."""
    raw = []
    for plg, weight in terms:
        if keep is not None and any(lab not in keep for lab, _ in plg.labels):
            raw.append(((plg.graph.adj, plg.labels), weight))
        elif weight:
            form = plg.canonical()
            adj, labels = form.graph.adj, form.labels
            acc.given[adj, labels] = form
            _merge(acc.coeffs, (adj, labels) if all(adj) else _stripped(adj, labels), weight)
    _add_raw(acc, raw, 1, keep)


def _add_raw(acc, terms, scale=1, keep=None):
    """The normal-form rule: add scale times the sum of the raw `terms` to
    the `_Terms` acc.  A raw term is ((adj, labels), weight), the rows and
    labels, sorted by label, of a PLG that need not be built.  Labels
    outside `keep` (None keeps all) and isolated vertices go first; then
    equal raw terms merge, and `_add_distinct` labels the nonzero ones."""
    raw = {}
    for (adj, labels), weight in terms:
        if not weight:
            continue
        if keep is not None and any(lab not in keep for lab, _ in labels):
            labels = tuple(lv for lv in labels if lv[0] in keep)
        if not all(adj):
            adj, labels = _stripped(adj, labels)
        _merge(raw, (adj, labels), weight)
    _add_distinct(acc, ((key, w) for key, w in raw.items() if w), scale)


def _add_distinct(acc, terms, scale=1):
    """Add scale times the sum of `terms` to the `_Terms` acc: pairwise
    distinct ((adj, labels), weight) raw terms, none with an isolated
    vertex or a zero weight, so none merges before labeling.  Each term is
    labeled once, and its form's rows and labels key the merge.  The scale
    meets each form once."""
    coeffs = acc.coeffs if scale == 1 else {}
    rows = acc.rows
    for key, weight in terms:
        adj, labels, _ = _form_parts(*key)
        moved = adj is not key[0]
        if moved:
            key = adj, labels
        old = coeffs.get(key)
        if old is None:
            if moved:
                key = tuple([rows.setdefault(r, r) for r in adj]), labels
            coeffs[key] = weight
        else:
            coeffs[key] = old + weight
    if coeffs is not acc.coeffs:
        for key, weight in coeffs.items():
            _merge(acc.coeffs, key, scale * weight)


def _add_ind(acc, plg, rows, scale=1):
    """Add scale times ind of the trigraph (plg, rows) to the `_Terms` acc.
    Its raw terms are pairwise distinct, so they go straight to labeling
    unless the graph has an isolated vertex, whose loss can make two equal."""
    terms = ind_terms(plg, rows)
    if all(plg.graph.adj):
        _add_distinct(acc, terms, scale)
    else:
        _add_raw(acc, terms, scale)


def _merge(acc, key, coeff):
    """Add coeff to acc[key]; a coefficient is only touched when two meet."""
    old = acc.get(key)
    acc[key] = coeff if old is None else old + coeff


def _expand_into(acc, expr, scale, keep, budget):
    """Add scale * expr, unlabeled down to `keep` as in `_add_raw`, to acc."""
    if isinstance(expr, Atom):
        _add_plgs(acc, ((expr.plg, scale),), keep)
    elif isinstance(expr, (Const, IndAtom)):
        _expand_into(acc, Product((expr,)), scale, keep, budget)
    elif isinstance(expr, Sum):
        for child in expr.children:
            _expand_into(acc, child, scale, keep, budget)
            _check_budget(acc, budget)
    elif isinstance(expr, Unlabel):
        kept = expr.keep if keep is None else keep & expr.keep
        _expand_into(acc, expr.child, scale, kept, budget)
    elif isinstance(expr, PolyImage):
        poly = expr.poly if isinstance(expr.poly, Polynomial) else expr.poly.as_polynomial()
        gens = expr.generator_map()
        for exps, coeff in poly.terms.items():
            factors = [gens[var] for var, e in zip(poly.vars, exps) for _ in range(e)]
            _expand_into(acc, Product(factors), scale * coeff, keep, budget)
            _check_budget(acc, budget)
    elif isinstance(expr, Product):
        inds, others = [], []
        for child in expr.children:
            if isinstance(child, Const):
                scale *= child.value
            elif isinstance(child, IndAtom):
                inds.append((child.plg, child.rows))
            else:
                others.append(child)
        if not scale:
            return
        if not inds and len(others) == 1:
            _expand_into(acc, others[0], scale, keep, budget)
            return
        # The unit, or the inds' product; a product of 0 is None, and stays None.
        glued = reduce(lambda a, b: a and ind_product(a, b), inds) if inds else (EMPTY_PLG, ())
        if glued is None:
            return
        missing = _absent(*glued)
        if (1 << missing) > budget:
            raise BudgetExceeded(f"ind expansion needs 2^{missing} terms, budget is {budget}")
        plg, rows = glued
        if not others:
            _add_ind(acc, plg if keep is None else plg.drop_labels(keep), rows, scale)
            return
        expanded = {}  # keyed by identity: hashing a deep child costs more
        factors = []
        if inds:
            ind_acc = _Terms()
            _add_ind(ind_acc, plg, rows)
            factors.append(QuantumGraph._normal(ind_acc.terms()))
        for child in others:
            if id(child) not in expanded:
                expanded[id(child)] = expand(child, budget)
            factors.append(expanded[id(child)])
        # All but the last factor fold by `product`; the last gluing is raw.
        total = factors[0]
        for i, factor in enumerate(factors[1:], start=2):
            m, n = len(total.terms), len(factor.terms)
            if m * n > budget:
                raise BudgetExceeded(f"product of {m} by {n} terms exceeds {budget}")
            if i < len(factors):
                total = product(total, factor)
        pairs = ((_glued(a, b), ca * cb) for a, ca in total.terms.items() for b, cb in factor.terms.items())
        _add_raw(acc, pairs, scale, keep)
    else:
        raise TypeError(f"unknown expression node {type(expr).__name__}")


def _check_budget(acc, budget):
    coeffs = acc.coeffs
    if len(coeffs) > budget and sum(1 for c in coeffs.values() if c) > budget:
        raise BudgetExceeded(f"expansion exceeded {budget} terms")


# ---------------------------------------------------------------------------
# Text formats


def format_quantum(f):
    """One `<coefficient> * <plg record>` line per term, canonically sorted."""
    f = as_quantum(f)
    if not f.terms:
        return "# 0\n"
    lines = [
        f"{coeff} * {format_plg(plg)}"
        for plg, coeff in f.sorted_terms()
    ]
    return "\n".join(lines) + "\n"


def _raw_terms(text):
    """Yield the raw term ((adj, labels), coefficient) of each record of a
    term list, as written but with isolated vertices stripped; bad records
    raise FormatError with their line number.  Each distinct coefficient
    text and edge item is read once per call, and the records share each
    distinct adjacency row's int."""
    coeffs, rows, items = {}, {}, {}
    for lineno, body in record_lines(text):
        coeff_text, sep, record = body.partition("*")
        if not sep:
            raise FormatError("expected '<coefficient> * <plg record>'", line=lineno)
        coeff_text = coeff_text.strip()
        coeff = coeffs.get(coeff_text)
        if coeff is None:
            coeff = coeffs[coeff_text] = parse_rational(coeff_text, "coefficient", lineno)
        adj, labels = _read_record(record.strip(), lineno, items)
        if not all(adj):
            adj, labels = _stripped(adj, labels)
        yield (tuple([rows.setdefault(r, r) for r in adj]), labels), coeff


def read_terms(text):
    """The `(plg, coefficient)` pair of each raw term `_raw_terms` reads."""
    for parts, coeff in _raw_terms(text):
        yield PLG._of_parts(*parts), coeff


def parse_quantum(text):
    """The normal form of a term list, whose records reach the normal-form
    rule as rows, so that no PLG is built for a record."""
    return _normalized(_raw_terms(text))


# s-expressions: (q 2/3), (g <plg>), (ind <plg>), (sum e...), (prod e...),
# (unlabel (1 2) e), and the reductions' (phi <plg> | <poly>) and
# (psitau <plg> | <poly>).


def format_qexpr(expr):
    expr = _as_qexpr(expr)
    if isinstance(expr, Const):
        return f"(q {expr.value})"
    if isinstance(expr, Atom):
        return f"(g {format_plg(expr.plg)})"
    if isinstance(expr, IndAtom):
        if any(expr.rows):
            raise ValueError("an ind atom with free pairs has no text form")
        return f"(ind {format_plg(expr.plg)})"
    if isinstance(expr, Sum):
        return "(sum " + " ".join(format_qexpr(c) for c in expr.children) + ")"
    if isinstance(expr, Product):
        return "(prod " + " ".join(format_qexpr(c) for c in expr.children) + ")"
    if isinstance(expr, Unlabel):
        inner = " ".join(str(t) for t in sorted(expr.keep))
        return f"(unlabel ({inner}) {format_qexpr(expr.child)})"
    if isinstance(expr, PolyImage):
        if expr.origin is None:
            raise ValueError("PolyImage without an origin cannot be serialized")
        return expr.origin
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def parse_qexpr(text):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise FormatError("empty expression")
    expr, end = _parse_node(tokens, 0, 1, {})
    if end < len(tokens):
        raise FormatError(f"trailing tokens after expression: {' '.join(tokens[end:end + 4])}")
    return expr


def _parse_node(tokens, i, depth, leaves):
    """The node whose '(' is tokens[i], and the index just past its ')'.
    One index walks the tokens, so parsing is linear in their number.
    `leaves` maps the record text of each leaf parsed so far to its
    canonical form, so equal records are canonicalized once per parse."""
    if depth > QEXPR_DEPTH_CAP:
        raise FormatError(f"expression nested deeper than {QEXPR_DEPTH_CAP} levels")
    if tokens[i] != "(":
        raise FormatError(f"expected '(', got {tokens[i]!r}")
    if i + 1 == len(tokens):
        raise FormatError("unterminated expression")
    head, i = tokens[i + 1], i + 2
    if head == "q":
        flat, i = _take_flat(tokens, i)
        if len(flat) != 1:
            raise FormatError("(q ...) takes one rational")
        return Const(parse_rational(flat[0], "rational")), i
    if head in ("g", "ind"):
        flat, i = _take_flat(tokens, i)
        record = " ".join(flat)
        plg = leaves.get(record)
        if plg is None:
            plg = leaves[record] = parse_plg(record).canonical()
        return (Atom(plg) if head == "g" else IndAtom(plg)), i
    if head == "sum" or head == "prod":
        children = []
        while i < len(tokens) and tokens[i] != ")":
            child, i = _parse_node(tokens, i, depth + 1, leaves)
            children.append(child)
        if i == len(tokens):
            raise FormatError(f"unterminated ({head} ...)")
        return (Sum(children) if head == "sum" else Product(children)), i + 1
    if head == "unlabel":
        if i == len(tokens) or tokens[i] != "(":
            raise FormatError("(unlabel ...) needs a label list")
        close = i + 1
        while close < len(tokens) and tokens[close] != ")":
            close += 1
        if close + 1 >= len(tokens):
            raise FormatError("unterminated (unlabel ...)")
        try:
            keep = [int(t) for t in tokens[i + 1:close]]
        except ValueError:
            raise FormatError("label list must contain integers") from None
        keep = _keep_set(keep)
        child, i = _parse_node(tokens, close + 1, depth + 1, leaves)
        if i == len(tokens) or tokens[i] != ")":
            raise FormatError("unterminated (unlabel ...)")
        return Unlabel(keep, child), i + 1
    if head == "phi" or head == "psitau":
        from .reductions import _parse_head

        flat, i = _take_flat(tokens, i)
        return _parse_head(head, flat), i
    raise FormatError(f"unknown expression head {head!r}")


def _keep_set(labels, line=None):
    """The set of a written label list, whose labels must be positive and
    distinct, as they are on a PLG; FormatError otherwise."""
    seen = set()
    for lab in labels:
        if lab < 1:
            raise FormatError(f"label {lab} is not a positive integer", line=line)
        if lab in seen:
            raise FormatError(f"label {lab} given twice", line=line)
        seen.add(lab)
    return frozenset(seen)


def _take_flat(tokens, i):
    """The tokens from tokens[i] up to the node's closing paren, which
    allows no nesting, and the index just past that paren."""
    for j in range(i, len(tokens)):
        if tokens[j] == ")":
            return tokens[i:j], j + 1
        if tokens[j] == "(":
            raise FormatError("unexpected '(' inside a flat node")
    raise FormatError("unterminated expression")


def load_expression(text):
    """Parse a quantum-graph payload: an s-expression, one plg record, or a term list.

    Comments are cut first; a file of comments alone is the empty term
    list.  A plg record or a term list comes back as written: the tuple of
    its `read_terms` pairs, with no canonical labeling.  Densities are
    linear in the terms, and `expand` brings the tuple to its normal form.
    """
    if not text.strip():
        raise FormatError("empty input")
    first = next(record_lines(text), (None, ""))[1]
    if first.startswith("("):
        return parse_qexpr(record_text(text))
    if first.startswith("plg"):
        line, record = single_record(text)
        return ((PLG._of_parts(*_stripped(*_read_record(record, line, {}))), Fraction(1)),)
    return tuple(read_terms(text))
