"""Positivity evidence for quantum graphs.

Four kinds: sum-of-squares certificates (a witness list of labeled
quantum graphs whose squares sum to the target after unlabeling), formal
proofs in the Cauchy-Schwarz calculus, finite moment matrices with an
exact positive-semidefiniteness test, and refutation search over small
and random weighted targets.

Each check builds the expression its rule names, such as the unlabeled
sum of the squares or alpha*P_i + beta*P_j, and compares normal forms
that come only from `expand`, so one budget bounds every rule.  Operands
and proof statements are lifted into expressions once, so a square
expands its operand once, and a rule reads an earlier line as stated.

Everything is decided over the rationals; nothing here floats.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import lcm

from .algebra import (
    Const,
    EXPAND_BUDGET,
    Product,
    QExpr,
    QuantumGraph,
    Sum,
    Unlabel,
    _as_qexpr,
    _keep_set,
    as_quantum,
    expand,
    load_expression,
    parse_qexpr,
)
from .density import WeightedGraph, _label_set, compiled_density, t_quantum
from .errors import CapExceeded, FormatError
from .graphs import (
    ENUMERATION_CAP,
    Graph,
    enumerate_graphs,
    form_table,
    independent_blowup,
    parse_rational,
    record_lines,
)

# ---------------------------------------------------------------------------
# Sum-of-squares certificates


def verify_sos(target, cert, budget=EXPAND_BUDGET):
    """Does the unlabeled sum of the squares of `cert` equal `target`?

    True is sound evidence of positivity: each square has nonnegative
    densities, and unlabeling preserves that.  False only means this
    particular witness list fails.  The sum of squares is one expansion
    within the budget, so ind atoms meet the product rule.  Both
    expansions share one `form_table`: a target written as the glued
    products of the squares, and the repeated components of those
    products, are searched once.
    """
    with form_table():
        gs = [_as_qexpr(g) for g in cert]
        if not gs:
            raise ValueError("a certificate needs at least one quantum graph")
        squares = Unlabel((), Sum(g * g for g in gs))
        return expand(squares, budget) == expand(target, budget)


def parse_sos_certificate(text):
    header_seen = False
    out = []
    for lineno, body in record_lines(text):
        if not header_seen:
            if body != "sos:":
                raise FormatError("certificate must start with 'sos:'", line=lineno)
            header_seen = True
            continue
        if not body.startswith("g:"):
            raise FormatError("expected 'g: <expression>'", line=lineno)
        try:
            out.append(parse_qexpr(body[2:].strip()))
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno) from None
    if not header_seen:
        raise FormatError("certificate must start with 'sos:'")
    if not out:
        raise FormatError("certificate lists no quantum graphs")
    return out


# ---------------------------------------------------------------------------
# The Cauchy-Schwarz calculus


def cs_instance(f1, f2, T):
    """The Cauchy-Schwarz expression [f1^2]_T [f2^2]_T - [f1 f2]_T^2.

    Nonnegative on every target for any T: averaging over the forgotten
    roots is a conditional expectation, and this is its Cauchy-Schwarz
    inequality.  T must only use labels that appear in f1 or f2.
    """
    f1, f2 = _as_qexpr(f1), _as_qexpr(f2)
    keep = frozenset(int(t) for t in T)
    known = f1.label_set() | f2.label_set()
    stray = keep - known
    if stray:
        raise ValueError(f"labels {sorted(stray)} appear in neither factor")
    sq1 = Unlabel(keep, Product([f1, f1]))
    sq2 = Unlabel(keep, Product([f2, f2]))
    cross = Unlabel(keep, Product([f1, f2]))
    return Sum([Product([sq1, sq2]), Product([Const(Fraction(-1)), cross, cross])])


class ProofLine:
    """One derivation step: a statement `f >= 0`, the rule that justifies
    it, and the rule's operands, one per kind that `RULES` lists."""

    __slots__ = ("statement", "rule", "args")

    def __init__(self, statement, rule, args):
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r}")
        args, kinds = tuple(args), RULES[rule][0]
        if len(args) != len(kinds):
            raise ValueError(f"{rule} takes {','.join(kinds)}")
        object.__setattr__(self, "statement", statement)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "args", args)

    def __setattr__(self, name, value):
        raise AttributeError("ProofLine is immutable")

    def __repr__(self):
        return f"ProofLine({self.rule}, {self.args!r})"


def _conic(earlier, i, j, alpha, beta):
    """alpha*line_i + beta*line_j, or None for a negative coefficient; a
    bad reference raises whatever the signs."""
    combination = alpha * earlier(i) + beta * earlier(j)
    return combination if alpha >= 0 and beta >= 0 else None


# The rules of the calculus.  Each maps to its operand kinds, as a proof
# file writes them: f an expression, i an earlier line's number, q a
# rational, and T the labels, which take the remaining operands.  Its
# builder gets `earlier(i)`, line i's statement lifted, and the operands,
# and returns the expression the line's statement must equal, or None to
# reject the line.
RULES = {
    "A1": ("f", lambda earlier, f: Product([_as_qexpr(f)] * 2)),  # f^2
    "A2": ("ffT", lambda earlier, f1, f2, T: cs_instance(f1, f2, T)),
    "R1": ("iiqq", _conic),
    "R2": ("ii", lambda earlier, i, j: earlier(i) * earlier(j)),
    "R3": ("iT", lambda earlier, i, T: Unlabel(T, earlier(i))),
}


def check_cs_proof(proof, claimed, budget=EXPAND_BUDGET):
    """Validate a derivation line by line; True iff every conclusion is the
    exact normal form demanded by its rule and the last line proves
    `claimed`.  Reference errors raise; rule violations just reject.
    Rules read earlier statements as written.  Statements, rule
    expressions and the claim are each expanded within the budget, and
    equal expressions once; every expansion shares one `form_table`, so a
    graph that several lines make is searched once.
    """
    lines = list(proof)
    if not lines:
        raise ValueError("empty proof")
    statements = []  # each line's statement, lifted once
    forms = {}  # the normal form of each distinct expression expanded

    def earlier(i):
        if not 1 <= i < number:
            raise ValueError(f"line {number} references line {i}, which is not earlier")
        return statements[i - 1]

    def normal(expr):
        form = forms.get(expr)
        if form is None:
            form = forms[expr] = expand(expr, budget)
        return form

    with form_table():
        for number, line in enumerate(lines, start=1):
            statements.append(_as_qexpr(line.statement))
            stated = normal(statements[-1])
            expected = RULES[line.rule][1](earlier, *line.args)
            if expected is None or normal(expected) != stated:
                return False
        return stated == normal(_as_qexpr(claimed))


# -- proof file format -------------------------------------------------------
# n: <statement> ; by A1(<f>) | A2(<f1>,<f2>,T=...) | R1(i,j,a,b) | R2(i,j)
#                 | R3(i,T=...)
# Statements and rule operands are inline s-expressions or @file references.


def _parse_operand(text, resolve, lineno):
    text = text.strip()
    if not text:
        raise FormatError("empty operand", line=lineno)
    if text.startswith("@"):
        if resolve is None:
            raise FormatError(f"no resolver for the reference {text!r}", line=lineno)
        try:
            text = resolve(text[1:])
        except OSError as exc:
            raise FormatError(f"cannot read {text[1:]!r}: {exc}", line=lineno) from None
    try:
        return load_expression(text)
    except FormatError as exc:
        if exc.line is None:
            raise FormatError(str(exc), line=lineno) from None
        raise


def _split_top_level(text):
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_labels(parts, lineno):
    head = parts[0].strip()
    if not head.startswith("T="):
        raise FormatError("expected T=<labels>", line=lineno)
    items = [head[2:].strip()] + [p.strip() for p in parts[1:]]
    labels = []
    for item in items:
        if not item:
            continue
        try:
            labels.append(int(item))
        except ValueError:
            raise FormatError(f"bad label {item!r}", line=lineno) from None
    return _keep_set(labels, lineno)


def _parse_justification(text, resolve, lineno):
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise FormatError("expected <rule>(<operands>)", line=lineno)
    rule, _, inner = text.partition("(")
    rule = rule.strip()
    kinds = RULES[rule][0]
    parts = _split_top_level(inner[:-1])
    if len(parts) < len(kinds) or len(parts) > len(kinds) and kinds[-1] != "T":
        raise FormatError(f"{rule} takes {','.join(kinds)}", line=lineno)
    args = []
    for at, (kind, part) in enumerate(zip(kinds, parts)):
        if kind == "f":
            args.append(_parse_operand(part, resolve, lineno))
        elif kind == "T":
            args.append(_parse_labels(parts[at:], lineno))
        else:
            try:
                args.append(int(part) if kind == "i" else parse_rational(part.strip(), "rational"))
            except ValueError:
                raise FormatError(f"bad {rule} arguments", line=lineno) from None
    return rule, tuple(args)


# Graph records use ';' and ':' internally, so the split points are the
# first ':' (numbers precede any record) and the last '; by <rule>('.
_BY_RULE = re.compile(r";\s*by\s+(?=(?:" + "|".join(RULES) + r")\s*\()")


def parse_cs_proof(text, resolve=None):
    """Parse a numbered proof file; @refs are loaded through `resolve`, and
    with none an @ref is a FormatError."""
    lines = []
    for lineno, body in record_lines(text):
        number, sep, rest = body.partition(":")
        if not sep or not number.strip().isdigit():
            raise FormatError("expected '<number>: ...'", line=lineno)
        if int(number) != len(lines) + 1:
            raise FormatError(
                f"line numbered {number.strip()}, expected {len(lines) + 1}",
                line=lineno,
            )
        splits = list(_BY_RULE.finditer(rest))
        if not splits:
            raise FormatError("missing '; by <rule>(...)'", line=lineno)
        statement = _parse_operand(rest[: splits[-1].start()], resolve, lineno)
        rule, args = _parse_justification(rest[splits[-1].end():], resolve, lineno)
        lines.append(ProofLine(statement, rule, args))
    if not lines:
        raise FormatError("empty proof")
    return lines


# ---------------------------------------------------------------------------
# Moment matrices


def moment_matrix(g, basis):
    """The rows, as a tuple of tuples, of the matrix whose entry (i, j) is
    the density in g of the unlabeled gluing of basis[i] and basis[j]."""
    bs = [_as_qexpr(b) for b in basis]
    k = len(bs)
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = t_quantum(expand(Unlabel((), bs[i] * bs[j])), g)
    return tuple(tuple(row) for row in rows)


def is_psd(matrix):
    """Exact positive-semidefiniteness of a symmetric rational matrix.

    Symmetric elimination over Fractions: a negative pivot disproves, a
    zero pivot must head an all-zero row, and surviving pivots certify a
    LDL^T factorization with nonnegative diagonal.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix must be symmetric")
    for i in range(n):
        pivot = a[i][i]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(a[i][j] != 0 for j in range(i + 1, n)):
                return False
            continue
        for r in range(i + 1, n):
            if a[r][i] == 0:
                continue
            factor = a[r][i] / pivot
            for c in range(i, n):
                a[r][c] -= factor * a[i][c]
    return True


# ---------------------------------------------------------------------------
# Refutation search


def _random_graph(rng, n):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
    ]
    return Graph(n, edges)


def _random_distribution(rng, n):
    weights = [rng.randint(0, 6) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def refute(target, max_n=5, samples=200, seed=0):
    """Search for a target graph where the quantum graph evaluates negative.

    Scans every isomorphism class up to max_n vertices in canonical order,
    then `samples` seeded random weighted graphs.  Returns the first
    witness (a Graph, or a WeightedGraph from the random phase) or None.
    The result is deterministic in (max_n, samples, seed).  A term list
    (a tuple of (plg, coefficient) pairs) or a quantum graph keeps its
    term search and trie for every target, so the orders and trie nodes
    grown for one target serve the next.
    """
    _check_search(max_n, samples)
    if not isinstance(target, (QExpr, QuantumGraph, tuple)):
        target = as_quantum(target)
    labels = _label_set(target)
    if labels:
        raise ValueError(f"target carries labels {sorted(labels)}, expected none")
    density = compiled_density(target)
    return _scan_exhaustive(density, max_n) or _scan_random(density, max_n, samples, seed)


def _check_search(max_n, samples, names=("max_n", "samples")):
    """Reject a search size `refute` cannot scan; `names` are the
    arguments' names in the error messages."""
    if max_n < 1:
        raise ValueError(f"{names[0]} must be at least 1, got {max_n}")
    if max_n > ENUMERATION_CAP:
        raise CapExceeded(f"{names[0]} must be at most {ENUMERATION_CAP}, got {max_n}")
    if samples < 0:
        raise ValueError(f"{names[1]} must be at least 0, got {samples}")


def _scan_exhaustive(density, max_n):
    """The first graph, in canonical order by vertex count, at which the
    density is negative, or None."""
    for n in range(1, max_n + 1):
        for g in enumerate_graphs(n):
            if density(g) < 0:
                return g
    return None


def _scan_random(density, max_n, samples, seed):
    rng = random.Random(seed)
    for _ in range(samples):
        g = _random_graph(rng, rng.randint(1, max_n))
        G = WeightedGraph(g, _random_distribution(rng, g.n))
        if density(G) < 0:
            return G
    return None


def integer_witness(G):
    """An unweighted graph with exactly the weighted witness's densities.

    Zero-weight vertices are dropped; each remaining vertex becomes an
    independent set of cleared-numerator many copies, which reproduces the
    vertex distribution exactly.
    """
    support = [v for v in range(G.graph.n) if G.y[v] > 0]
    sub = G.graph.induced(support)
    denom = lcm(*(G.y[v].denominator for v in support))
    counts = [int(G.y[v] * denom) for v in support]
    return independent_blowup(sub, counts)
