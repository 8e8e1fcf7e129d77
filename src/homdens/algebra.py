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
evaluates trees directly without expansion.  Inside a product, `expand`
multiplies two IndAtom factors without gluing when every vertex of one
carries a label of the other: ind F1 * ind F2 is ind of the larger factor
if the two agree on every pair of shared labels, and 0 if they do not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import BudgetExceeded, CapExceeded, FormatError
from .graphs import (
    PLG,
    Graph,
    PartiallyLabeledGraph,
    format_plg,
    parse_plg,
    record_lines,
)
from .polynomials import Polynomial

IND_CAP = 20
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
    """Remove every isolated vertex, labeled or not."""
    g = plg.graph
    keep = [v for v in range(g.n) if g.adj[v]]
    if len(keep) == g.n:
        return plg
    index = {v: i for i, v in enumerate(keep)}
    labels = [(lab, index[v]) for lab, v in plg.labels if v in index]
    return PLG(g.induced(keep), labels)


def glue(a, b):
    """Glue two PLGs: disjoint union, identify equal labels, drop doubled edges."""
    a, b = as_plg(a), as_plg(b)
    avert = a.label_map()
    bmap = {}
    fresh = a.graph.n
    b_label_of = {v: lab for lab, v in b.labels}
    for v in range(b.graph.n):
        lab = b_label_of.get(v)
        if lab is not None and lab in avert:
            bmap[v] = avert[lab]
        else:
            bmap[v] = fresh
            fresh += 1
    edges = set(a.graph.edges)
    for u, v in b.graph.edges:
        x, y = bmap[u], bmap[v]
        edges.add((x, y) if x < y else (y, x))
    labels = dict(a.labels)
    for lab, v in b.labels:
        labels[lab] = bmap[v]
    return PLG(Graph(fresh, edges), labels)


class QuantumGraph:
    """A rational combination of PLGs, stored in normal form.

    Keys are canonical isolated-vertex-free PLGs; the empty graph is the
    unit of the unlabeled subalgebra.  The empty map is zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        # Equal raw terms are merged first, so each distinct one with a
        # nonzero coefficient is canonicalized once; a term that is already
        # a canonical form costs nothing.
        raw = {}
        for plg, coeff in terms:
            coeff = Fraction(coeff)
            if coeff:
                key = strip_isolated(as_plg(plg))
                raw[key] = raw.get(key, 0) + coeff
        acc = {}
        for plg, coeff in raw.items():
            if coeff:
                key = plg.canonical()
                acc[key] = acc.get(key, 0) + coeff
        object.__setattr__(self, "terms", {k: c for k, c in acc.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("QuantumGraph is immutable")

    @staticmethod
    def of(plg, coeff=1):
        return QuantumGraph([(as_plg(plg), coeff)])

    @staticmethod
    def zero():
        return QuantumGraph()

    @staticmethod
    def unit():
        return QuantumGraph.of(EMPTY_PLG)

    def is_zero(self):
        return not self.terms

    def label_set(self):
        out = set()
        for plg in self.terms:
            out |= plg.label_set()
        return frozenset(out)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __add__(self, other):
        other = as_quantum(other)
        merged = dict(self.terms)
        for plg, coeff in other.terms.items():
            merged[plg] = merged.get(plg, Fraction(0)) + coeff
        return QuantumGraph(merged)

    __radd__ = __add__

    def __neg__(self):
        return QuantumGraph({p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-as_quantum(other))

    def __rsub__(self, other):
        return as_quantum(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuantumGraph({p: c * other for p, c in self.terms.items()})
        return product(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

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
    out = []
    for h1, c1 in f.terms.items():
        for h2, c2 in g.terms.items():
            out.append((glue(h1, h2), c1 * c2))
    return QuantumGraph(out)


def unlabel(f, keep=()):
    """Forget every label outside `keep`; linear in f."""
    keep = frozenset(keep)
    f = as_quantum(f)
    return QuantumGraph(
        [(plg.drop_labels(keep), coeff) for plg, coeff in f.terms.items()]
    )


def non_edges(plg):
    g = plg.graph
    return [(u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)]


def _supergraphs_raw(plg):
    """All supergraphs on the same vertex set, labels kept, no normalization."""
    missing = non_edges(plg)
    base = set(plg.graph.edges)
    for bits in range(1 << len(missing)):
        extra = [missing[i] for i in range(len(missing)) if bits >> i & 1]
        yield PLG(Graph(plg.graph.n, base.union(extra)), plg.labels)


def ind(h, cap=IND_CAP):
    """Alternating sum over all supergraphs of h on the same vertex set.

    ind(H) = sum over F >= H of (-1)^{|E(F) - E(H)|} F, labels kept.  The
    number of absent pairs is capped; larger graphs must stay symbolic as
    IndAtom nodes.
    """
    h = as_plg(h)
    missing = len(non_edges(h))
    if missing > cap:
        raise CapExceeded(f"ind expansion over {missing} absent pairs exceeds cap {cap}")
    base = len(h.graph.edges)
    return QuantumGraph(
        (sup, (-1) ** (len(sup.graph.edges) - base)) for sup in _supergraphs_raw(h)
    )


# ---------------------------------------------------------------------------
# Structured expressions


class QExpr:
    """Base of the structured expression tree.

    Nodes are immutable.  Two nodes are equal when they have the same type
    and equal `_key()`.
    """

    __slots__ = ()

    def _key(self):
        raise NotImplementedError

    def label_set(self):
        raise NotImplementedError

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
    if isinstance(x, QExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(x)
    if isinstance(x, (PartiallyLabeledGraph, Graph)):
        return Atom(as_plg(x))
    raise TypeError(f"cannot lift {type(x).__name__} into an expression")


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
    """ind(plg), kept unexpanded."""

    __slots__ = ()


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

    Raises BudgetExceeded when an intermediate combination would hold more
    than `budget` terms, so astronomically large images fail fast instead
    of thrashing.  In a product, IndAtom factors covered by another IndAtom
    factor's labels are multiplied by `_ind_overlap` before anything is
    glued; each still has its 2^missing checked against the budget.  Each
    distinct child of a product is expanded once.
    """
    expr = _as_qexpr(expr)
    if isinstance(expr, Const):
        return QuantumGraph.unit() * expr.value
    if isinstance(expr, Atom):
        return QuantumGraph.of(expr.plg)
    if isinstance(expr, IndAtom):
        return ind(expr.plg, cap=_ind_missing(expr, budget))
    if isinstance(expr, Sum):
        total = QuantumGraph.zero()
        for child in expr.children:
            total = total + expand(child, budget)
            _check_budget(total, budget)
        return total
    if isinstance(expr, Product):
        total = None
        factors = {}
        for child in _merge_ind_factors(expr.children, budget):
            factor = factors.get(child)
            if factor is None:
                factor = factors[child] = expand(child, budget)
            total = factor if total is None else product(total, factor)
            _check_budget(total, budget)
        return QuantumGraph.unit() if total is None else total
    if isinstance(expr, Unlabel):
        return unlabel(expand(expr.child, budget), expr.keep)
    if isinstance(expr, PolyImage):
        return _expand_poly_image(expr, budget)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _check_budget(qg, budget):
    if len(qg.terms) > budget:
        raise BudgetExceeded(f"expansion exceeded {budget} terms")


def _ind_missing(atom, budget):
    """The number of absent pairs of an IndAtom; raises BudgetExceeded when
    its 2^missing-term expansion would not fit in the budget."""
    missing = len(non_edges(atom.plg))
    if (1 << missing) > budget:
        raise BudgetExceeded(f"ind expansion needs 2^{missing} terms, budget is {budget}")
    return missing


def _ind_overlap(a, b):
    """ind(a) * ind(b) as one node, or None when neither IndAtom is covered.

    A factor is covered when each of its vertices carries a label of the
    other.  Its ind is then the indicator that the labeled vertices induce
    it, which the larger factor's ind already asserts or contradicts on
    those pairs: the product is the larger factor, or 0 on a disagreement.
    """
    small, large = (a, b) if a.plg.n <= b.plg.n else (b, a)
    s, g = small.plg, large.plg
    if len(s.labels) != s.n or not s.label_set() <= g.label_set():
        return None
    at = g.label_map()
    for (la, u), (lb, v) in combinations(s.labels, 2):
        if s.graph.has_edge(u, v) != g.graph.has_edge(at[la], at[lb]):
            return Const(0)
    return large


def _merge_ind_factors(children, budget):
    """The factors of a product, each covered IndAtom merged by
    `_ind_overlap` into the first earlier IndAtom it overlaps."""
    out = []
    for child in children:
        if isinstance(child, IndAtom):
            _ind_missing(child, budget)
            for i, prev in enumerate(out):
                merged = _ind_overlap(prev, child) if isinstance(prev, IndAtom) else None
                if merged is not None:
                    out[i] = merged
                    break
            else:
                out.append(child)
        else:
            out.append(child)
    return out


def _expand_poly_image(expr, budget):
    poly = expr.poly
    if not isinstance(poly, Polynomial):
        poly = poly.as_polynomial()
    gens = {v: expand(e, budget) for v, e in expr.generators}
    powers = {}

    def gen_power(var, e):
        if e == 1:
            return gens[var]
        if (var, e) not in powers:
            powers[var, e] = product(gen_power(var, e - 1), gens[var])
            _check_budget(powers[var, e], budget)
        return powers[var, e]

    total = QuantumGraph.zero()
    for exps, coeff in poly.terms.items():
        term = None
        for var, e in zip(poly.vars, exps):
            if e:
                power = gen_power(var, e)
                term = power if term is None else product(term, power)
                _check_budget(term, budget)
        total = total + coeff * (QuantumGraph.unit() if term is None else term)
        _check_budget(total, budget)
    return total


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
    FormatError with their line number."""
    for lineno, body in record_lines(text):
        coeff_text, sep, record = body.partition("*")
        if not sep:
            raise FormatError("expected '<coefficient> * <plg record>'", line=lineno)
        try:
            coeff = Fraction(coeff_text.strip())
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"bad coefficient {coeff_text.strip()!r}", line=lineno) from None
        yield strip_isolated(parse_plg(record.strip(), line=lineno)), coeff


def parse_quantum(text):
    """The normal form of a term list."""
    return QuantumGraph(read_terms(text))


# s-expressions: (q 2/3), (g <plg>), (ind <plg>), (sum e...), (prod e...),
# (unlabel (1 2) e).  Extra heads may be registered by other modules.

QEXPR_HEADS = {}


def register_qexpr_head(name, parser):
    QEXPR_HEADS[name] = parser


def format_qexpr(expr):
    expr = _as_qexpr(expr)
    if isinstance(expr, Const):
        return f"(q {expr.value})"
    if isinstance(expr, Atom):
        return f"(g {format_plg(expr.plg)})"
    if isinstance(expr, IndAtom):
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


def _tokenize_sexpr(text):
    out = []
    for chunk in text.replace("(", " ( ").replace(")", " ) ").split():
        out.append(chunk)
    return out


def parse_qexpr(text):
    tokens = _tokenize_sexpr(text)
    if not tokens:
        raise FormatError("empty expression")
    expr, rest = _parse_node(tokens, 1)
    if rest:
        raise FormatError(f"trailing tokens after expression: {' '.join(rest[:4])}")
    return expr


def _parse_node(tokens, depth):
    if depth > QEXPR_DEPTH_CAP:
        raise FormatError(f"expression nested deeper than {QEXPR_DEPTH_CAP} levels")
    if tokens[0] != "(":
        raise FormatError(f"expected '(', got {tokens[0]!r}")
    if len(tokens) < 2:
        raise FormatError("unterminated expression")
    head, rest = tokens[1], tokens[2:]
    if head == "q":
        flat, rest = _take_flat(rest)
        if len(flat) != 1:
            raise FormatError("(q ...) takes one rational")
        try:
            return Const(Fraction(flat[0])), rest
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"bad rational {flat[0]!r}") from None
    if head in ("g", "ind"):
        flat, rest = _take_flat(rest)
        plg = parse_plg(" ".join(flat))
        return (Atom(plg) if head == "g" else IndAtom(plg)), rest
    if head == "sum" or head == "prod":
        children = []
        while rest and rest[0] != ")":
            child, rest = _parse_node(rest, depth + 1)
            children.append(child)
        if not rest:
            raise FormatError(f"unterminated ({head} ...)")
        node = Sum(children) if head == "sum" else Product(children)
        return node, rest[1:]
    if head == "unlabel":
        if not rest or rest[0] != "(":
            raise FormatError("(unlabel ...) needs a label list")
        close = rest.index(")") if ")" in rest else len(rest)
        if close + 1 >= len(rest):
            raise FormatError("unterminated (unlabel ...)")
        try:
            keep = [int(t) for t in rest[1:close]]
        except ValueError:
            raise FormatError("label list must contain integers") from None
        child, rest = _parse_node(rest[close + 1:], depth + 1)
        if not rest or rest[0] != ")":
            raise FormatError("unterminated (unlabel ...)")
        return Unlabel(keep, child), rest[1:]
    if head in QEXPR_HEADS:
        flat, rest = _take_flat(rest)
        return QEXPR_HEADS[head](flat), rest
    raise FormatError(f"unknown expression head {head!r}")


def _take_flat(tokens):
    """Consume tokens up to the node's closing paren; no nesting allowed."""
    flat = []
    for i, tok in enumerate(tokens):
        if tok == ")":
            return flat, tokens[i + 1:]
        if tok == "(":
            raise FormatError("unexpected '(' inside a flat node")
        flat.append(tok)
    raise FormatError("unterminated expression")


def load_expression(text, normal_form=True):
    """Parse a quantum-graph payload: an s-expression, one plg record, or a term list.

    With `normal_form=False`, for callers that only evaluate, a plg record
    or a term list comes back as the tuple of its `read_terms` pairs, with
    no canonical labeling; densities are linear in the terms.
    """
    stripped = text.strip()
    if not stripped:
        raise FormatError("empty input")
    if stripped.startswith("("):
        return parse_qexpr(stripped)
    if stripped.startswith("plg"):
        plg = parse_plg(stripped)
        return as_quantum(plg) if normal_form else ((strip_isolated(plg), Fraction(1)),)
    return parse_quantum(text) if normal_form else tuple(read_terms(text))
