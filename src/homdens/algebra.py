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
    _marked,
    _moved,
    _moved_rows,
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

EMPTY_PLG = PLG(Graph(0))


def as_plg(x):
    if isinstance(x, PartiallyLabeledGraph):
        return x
    if isinstance(x, Graph):
        return PLG(x)
    raise TypeError(f"expected a graph or PLG, got {type(x).__name__}")


def strip_isolated(plg):
    """Remove every isolated vertex, labeled or not.

    What is left of a canonical form is flagged as one: canonical labeling
    orders the labeled vertices by label, and places each component apart,
    unlabeled isolated vertices before any other unlabeled component, so
    dropping isolated vertices keeps the order of the rest.
    """
    g = plg.graph
    if all(g.adj):
        return plg
    keep = [v for v in range(g.n) if g.adj[v]]
    index = {v: i for i, v in enumerate(keep)}
    labels = [(lab, index[v]) for lab, v in plg.labels if v in index]
    stripped = PLG(g.induced(keep), labels)
    return _marked(stripped) if plg._canon is True else stripped


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
    a, b = as_plg(a), as_plg(b)
    bmap, n, labels = _glue_map(a, b)
    adj = [*a.graph.adj, *[0] * (n - a.graph.n)]
    for u, row in enumerate(b.graph.adj):
        adj[bmap[u]] |= _moved(row, bmap)
    return PLG(Graph._of_rows(tuple(adj)), labels)


class QuantumGraph:
    """A rational combination of PLGs, stored in normal form.

    Keys are canonical isolated-vertex-free PLGs; the empty graph is the
    unit of the unlabeled subalgebra.  The empty map is zero.  Raw terms
    become keys by `_add_raw`, the normal-form rule `expand` applies too.

    `_search` is the term search that `density` keeps on a graph with no
    labels once it is first evaluated, and None until then.
    """

    __slots__ = ("terms", "_search")

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        acc = {}
        _add_raw(acc, ((as_plg(plg), c if isinstance(c, Fraction) else Fraction(c)) for plg, c in terms))
        object.__setattr__(self, "terms", {k: c for k, c in acc.items() if c})
        object.__setattr__(self, "_search", None)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumGraph is immutable")

    @staticmethod
    def of(plg, coeff=1):
        return QuantumGraph([(as_plg(plg), coeff)])

    @staticmethod
    def zero():
        return QuantumGraph()

    @staticmethod
    def _normal(terms):
        """The QuantumGraph of a dict from canonical isolated-free PLGs to coefficients."""
        f = QuantumGraph()
        terms = {key: c if isinstance(c, Fraction) else Fraction(c) for key, c in terms.items() if c}
        object.__setattr__(f, "terms", terms)
        return f

    @staticmethod
    def unit():
        return QuantumGraph.of(EMPTY_PLG)

    def is_zero(self):
        return not self.terms

    def label_set(self):
        return frozenset().union(*(plg.label_set() for plg in self.terms))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __add__(self, other):
        return QuantumGraph([*self.terms.items(), *as_quantum(other).terms.items()])

    __radd__ = __add__

    def __neg__(self):
        return QuantumGraph._normal({p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-as_quantum(other))

    def __rsub__(self, other):
        return as_quantum(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
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
    return QuantumGraph((glue(a, b), ca * cb) for a, ca in f.terms.items() for b, cb in g.terms.items())


def unlabel(f, keep=()):
    """Forget every label outside `keep`; linear in f."""
    keep = frozenset(keep)
    return QuantumGraph((plg.drop_labels(keep), coeff) for plg, coeff in as_quantum(f).terms.items())


# ---------------------------------------------------------------------------
# Induced densities: ind of a trigraph (plg, rows), a PLG plus the free row
# of each vertex, its pairs that are neither edges nor non-edges.


def _absent(plg, rows):
    """How many pairs of the trigraph (plg, rows) are neither edges nor free."""
    n = plg.n
    return (n * (n - 1) - sum(a.bit_count() + r.bit_count() for a, r in zip(plg.graph.adj, rows))) // 2


def ind_terms(plg, rows):
    """Yield (raw PLG, weight) pairs whose sum is ind of the trigraph (plg, rows).

    ind is the alternating sum over the supergraphs that add a set A of
    non-edges, with sign (-1)^|A|; free pairs are never added, so they stay
    unconstrained.  Unlabeled twins, vertices with the same edges and free
    pairs to every other vertex and a free pair between them, swap without
    changing |A|, so a class of m twins is taken up to swapping: each twin
    takes a subset of the class's non-edge partners, the subsets chosen in
    ascending order, weighted by the m!/prod(multiplicity!) orders that
    reach the choice.  A class owns its members' pairs, so it is taken up
    to swapping only when no earlier such class is among its partners;
    the pairs no class owns are plain, each added or not.
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
        yield PLG._of_parts(Graph._of_rows(tuple(adj)), plg.labels), -weight if added % 2 else weight


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
    if isinstance(x, tuple):
        x = QuantumGraph(x)
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
    other factor, its raw terms go to the normal-form rule `_add_raw`.  A
    lone other factor expands in place, scaled; otherwise each other factor
    is expanded once, all but the last fold by `product`, and the last
    gluing's pairs go to the rule, so no product is canonicalized twice; a
    gluing is refused when its term counts multiply past the budget.  An
    Unlabel passes its kept labels down through Sum, PolyImage and nested
    Unlabels to each product, whose rule drops the rest: a product of
    IndAtom and Const factors drops them from its trigraph before it
    expands, so its unlabeled twins collapse."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    acc = {}
    _expand_into(acc, _as_qexpr(expr), 1, None, budget)
    return QuantumGraph._normal(acc)


def _add_raw(acc, terms, scale=1, keep=None):
    """The normal-form rule: add scale times the sum of the raw (PLG, weight)
    `terms` to acc, keyed by canonical PLG.  Labels outside `keep` (None keeps
    all) and isolated vertices go first; equal raw terms merge, each distinct
    nonzero one is canonicalized once, and the scale meets each form once.
    No form is cached on a raw term: the raw dict would keep each copy alive."""
    raw = {}
    for plg, weight in terms:
        if weight:
            _merge(raw, strip_isolated(plg if keep is None else plg.drop_labels(keep)), weight)
    forms = acc if scale == 1 else {}
    for plg, weight in raw.items():
        if weight:
            _merge(forms, plg if plg._canon is True else plg._canon or canonical_form(plg)[0], weight)
    for key, weight in () if forms is acc else forms.items():
        _merge(acc, key, scale * weight)


def _merge(acc, key, coeff):
    """Add coeff to acc[key]; a coefficient is only touched when two meet."""
    old = acc.get(key)
    acc[key] = coeff if old is None else old + coeff


def _expand_into(acc, expr, scale, keep, budget):
    """Add scale * expr, unlabeled down to `keep` as in `_add_raw`, to acc."""
    if isinstance(expr, Atom):
        _add_raw(acc, ((expr.plg, scale),), 1, keep)
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
            _add_raw(acc, ind_terms(plg if keep is None else plg.drop_labels(keep), rows), scale)
            return
        expanded = {}  # keyed by identity: hashing a deep child costs more
        factors = [QuantumGraph(ind_terms(plg, rows))] if inds else []
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
        pairs = ((glue(a, b), ca * cb) for a, ca in total.terms.items() for b, cb in factor.terms.items())
        _add_raw(acc, pairs, scale, keep)
    else:
        raise TypeError(f"unknown expression node {type(expr).__name__}")


def _check_budget(acc, budget):
    if len(acc) > budget and sum(1 for c in acc.values() if c) > budget:
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


def read_terms(text):
    """Yield the `(plg, coefficient)` pair of each record of a term list, as
    written but with isolated vertices stripped; bad records raise
    FormatError with their line number.  Each distinct coefficient text is
    read once per call, and the records share each distinct adjacency row's
    int."""
    coeffs, rows = {}, {}
    for lineno, body in record_lines(text):
        coeff_text, sep, record = body.partition("*")
        if not sep:
            raise FormatError("expected '<coefficient> * <plg record>'", line=lineno)
        coeff_text = coeff_text.strip()
        coeff = coeffs.get(coeff_text)
        if coeff is None:
            coeff = coeffs[coeff_text] = parse_rational(coeff_text, "coefficient", lineno)
        plg = strip_isolated(parse_plg(record.strip(), line=lineno))
        # The graph is new, so trading its rows for equal ones read before
        # changes nothing but memory.
        object.__setattr__(plg.graph, "adj", tuple([rows.setdefault(r, r) for r in plg.graph.adj]))
        yield plg, coeff


def parse_quantum(text):
    """The normal form of a term list."""
    return QuantumGraph(read_terms(text))


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
        return ((strip_isolated(parse_plg(record, line)), Fraction(1)),)
    return tuple(read_terms(text))
