"""Sparse multivariate polynomials over the rationals.

A polynomial is a tuple of variable names, a field width w, and a map
from monomials to nonzero Fraction coefficients.  A monomial is one packed
int: w bits of exponent per variable, with variable i at bits w*i, so
multiplying monomials adds their ints.  w keeps every monomial's total
degree below 2 ** w - 1, so each exponent fits its field and a
monomial's total degree is its int modulo 2 ** w - 1.  The constructor
takes the least such width; a sum takes the wider of its operands', and
a product widens that, before it is formed, to what the sum of their
total degrees needs.  The constructor checks what parsers and callers
hand in, as exponent tuples; arithmetic, `tau` and
`density.density_polynomial` build their results through the trusted
`Polynomial._of_monos`, and `terms` derives the map from exponent tuples
to coefficients on each read.  Variable names are kept in a canonical
order (alphabetic prefix, then numeric suffix), so `x1 < x2 < x10 < y1`;
binary operations align operands on the union of their variable sets,
and equality and hashing see neither unused variables nor widths.
Substituting polynomials for variables is `Polynomial.evaluate` at
polynomial values.

Besides generic arithmetic this module houses the concrete polynomial
constructions the rest of the package builds on: the Motzkin-type form S,
the nonnegative-orthant polynomial p fed to the clone reduction, the
grid-to-cube transform, Goodman's triangle bound g, the penalized
polynomial q with its constant M, and the clearing substitution tau into
(e, t, v) variables.  q has one definition, `penalized_q`, read at
rationals by the reduction's evaluator and at the variables by
`calculus_q`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import CapExceeded, FormatError
from .graphs import parse_rational, record_text

# The largest total degree of a term that `parse_poly` reads.
DEGREE_CAP = 1000

_VAR_RE = re.compile(r"^([A-Za-z]+)([0-9]*)$")


def _var_key(name):
    m = _VAR_RE.match(name)
    if not m:
        raise ValueError(f"bad variable name {name!r}")
    prefix, digits = m.groups()
    return (prefix, int(digits) if digits else -1)


def _sort_vars(names):
    return tuple(sorted(names, key=_var_key))


def _width(degree):
    """The field width for total degrees up to `degree`: the least with
    degree < 2 ** width - 1, so every exponent fits its field and a
    monomial's total degree is its int modulo 2 ** width - 1."""
    return (degree + 1).bit_length()


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("vars", "width", "monos")

    def __init__(self, vars, terms):
        vars = tuple(vars)
        for name in vars:
            _var_key(name)
        if len(set(vars)) != len(vars):
            raise ValueError("duplicate variable name")
        order = _sort_vars(vars)
        remap = [vars.index(v) for v in order]
        clean = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(vars):
                raise ValueError("exponent tuple length mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            exps = tuple(exps[i] for i in remap)
            clean[exps] = clean.get(exps, 0) + Fraction(coeff)
        clean = {exps: c for exps, c in clean.items() if c}
        width = _width(max(map(sum, clean), default=0))
        object.__setattr__(self, "vars", order)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "monos", {
            sum(e << width * i for i, e in enumerate(exps)): c for exps, c in clean.items()})

    @classmethod
    def _of_monos(cls, vars, width, monos):
        """The polynomial of trusted parts, built without the constructor's
        checks: `vars` in canonical order, a `width` that fits every
        monomial's total degree, and coefficients keyed by packed
        monomials.  Zero coefficients are dropped."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "width", width)
        object.__setattr__(p, "monos", {m: c for m, c in monos.items() if c})
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value, vars=()):
        vars = tuple(vars)
        return Polynomial(vars, {(0,) * len(vars): value})

    @staticmethod
    def variable(name, vars=None):
        if vars is None:
            vars = (name,)
        vars = _sort_vars(vars)
        exps = tuple(1 if v == name else 0 for v in vars)
        if name not in vars:
            raise ValueError(f"{name!r} not among {vars}")
        return Polynomial(vars, {exps: Fraction(1)})

    # -- structure ----------------------------------------------------------

    @property
    def terms(self):
        """The terms as a dict from exponent tuples, in `vars` order, to
        coefficients, derived from the packed monomials on each read."""
        mask, shifts = (1 << self.width) - 1, range(0, self.width * len(self.vars), self.width)
        return {tuple(m >> s & mask for s in shifts): c for m, c in self.monos.items()}

    def total_degree(self):
        """Maximum total degree; 0 for the zero polynomial."""
        return max((m % ((1 << self.width) - 1) for m in self.monos), default=0)

    def constant_term(self):
        return self.monos.get(0, Fraction(0))

    def abs_coeff_sum(self):
        return sum((abs(c) for c in self.monos.values()), Fraction(0))

    def in_vars(self, vars):
        """The same polynomial over a larger variable set."""
        return self._recast(_sort_vars(set(vars) | set(self.vars)), self.width)

    def _recast(self, vars, width):
        """The same polynomial over `vars`, a canonically ordered superset
        of its own, with fields `width` bits wide: each field moves to its
        variable's place."""
        if vars == self.vars and width == self.width:
            return self
        mask = (1 << self.width) - 1
        moves = [(self.width * i, width * vars.index(v)) for i, v in enumerate(self.vars)]
        return Polynomial._of_monos(vars, width, {
            sum((m >> src & mask) << dst for src, dst in moves): c for m, c in self.monos.items()})

    # -- arithmetic ---------------------------------------------------------

    def _pair(self, other, product=False):
        """Both operands over the union of their variables, at one width:
        the wider of theirs, or wide enough for their product."""
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        vars = self.vars if self.vars == other.vars else _sort_vars(set(self.vars) | set(other.vars))
        width = max(self.width, other.width)
        if product:
            width = max(width, _width(self.total_degree() + other.total_degree()))
        return self._recast(vars, width), other._recast(vars, width)

    def __add__(self, other):
        a, b = self._pair(other)
        monos = dict(a.monos)
        for m, c in b.monos.items():
            monos[m] = monos.get(m, 0) + c
        return Polynomial._of_monos(a.vars, a.width, monos)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of_monos(self.vars, self.width, {m: -c for m, c in self.monos.items()})

    def __sub__(self, other):
        a, b = self._pair(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other, product=True)
        monos = {}
        for m1, c1 in a.monos.items():
            for m2, c2 in b.monos.items():
                acc = monos.get(m1 + m2)
                monos[m1 + m2] = c1 * c2 if acc is None else acc + c1 * c2
        return Polynomial._of_monos(a.vars, a.width, monos)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative power")
        result = Polynomial._of_monos(self.vars, 1, {0: Fraction(1)})
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.monos.keys() <= {0} and self.constant_term() == other
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._pair(other)
        return a.monos == b.monos

    def __hash__(self):
        # A constant equals its number, so it hashes as that number.
        if self.monos.keys() <= {0}:
            return hash(self.constant_term())
        # Unused variables are left out, as `__eq__` ignores them.
        return hash(frozenset(
            (tuple((v, e) for v, e in zip(self.vars, exps) if e), c)
            for exps, c in self.terms.items()
        ))

    def __repr__(self):
        return f"Polynomial({format_poly(self)!r})"

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point):
        """Value at a full assignment {var: value}.

        Values may be rationals or anything that adds and multiplies with
        them.  At polynomial values this is substitution: the composite
        polynomial, as in `p.evaluate({"y1": x1 ** 2})`.
        """
        missing = set(self.vars) - set(point)
        if missing:
            raise ValueError(f"unassigned variables {sorted(missing)}")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            val = coeff
            for v, e in zip(self.vars, exps):
                if e:
                    val = val * point[v] ** e
            total = total + val
        return total


# ---------------------------------------------------------------------------
# Named constructions


def motzkin_S():
    """S(x,y,z) = x^4 y^2 + y^4 z^2 + z^4 x^2 - 3 x^2 y^2 z^2.

    Nonnegative everywhere by AM-GM on the three squares, yet not a sum of
    squares of polynomials; even and homogeneous of degree 6.
    """
    vars = ("x", "y", "z")
    return Polynomial(
        vars,
        {
            (4, 2, 0): Fraction(1),
            (0, 4, 2): Fraction(1),
            (2, 0, 4): Fraction(1),
            (2, 2, 2): Fraction(-3),
        },
    )


def counterexample_poly(k):
    """p(y) = y2^2 y3 + y3^2 y4 + y4^2 y2 - 3 y2 y3 y4 over y1..yk.

    Substituting y_i = x_i^2 recovers motzkin_S in x2, x3, x4, so p is
    nonnegative on the nonnegative orthant.  Requires k >= 4; the variables
    outside {y2, y3, y4} are carried but unused.
    """
    if k < 4:
        raise ValueError(f"counterexample_poly requires k >= 4, got {k}")
    vars = tuple(f"y{i}" for i in range(1, k + 1))

    def mono(**degs):
        return tuple(degs.get(v, 0) for v in vars)

    return Polynomial(
        vars,
        {
            mono(y2=2, y3=1): Fraction(1),
            mono(y3=2, y4=1): Fraction(1),
            mono(y4=2, y2=1): Fraction(1),
            mono(y2=1, y3=1, y4=1): Fraction(-3),
        },
    )


def hilbert10_transform(q):
    """Turn a grid sign question into a unit-cube sign question.

    For q in y1..yk returns p(x) = (prod_i (1-x_i)^deg q) * q(1/(1-x)), a
    polynomial in x1..xk.  At grid-aligned points x_i = 1 - 1/n_i this gives
    p(x) = (prod n_i^-deg q) * q(n), so p and q have equal signs there.
    """
    d = q.total_degree()
    xvars = _x_vars(len(q.vars))
    one_minus = [1 - Polynomial.variable(v, xvars) for v in xvars]
    result = Polynomial.constant(0, xvars)
    for exps, coeff in q.terms.items():
        term = Polynomial.constant(coeff, xvars)
        for i, e in enumerate(exps):
            term = term * one_minus[i] ** (d - e)
        result = result + term
    return result


# ---------------------------------------------------------------------------
# The reduction's polynomial: p in x1..xk, its penalized q in x1..xk, y1..yk,
# and q cleared by tau into e1..ek, t1..tk, v1..vk


def _x_vars(k):
    return tuple(f"x{i}" for i in range(1, k + 1))


def _xy_vars(k):
    return _x_vars(k) + tuple(f"y{i}" for i in range(1, k + 1))


def _etv_vars(k):
    return tuple(f"{prefix}{i}" for prefix in "etv" for i in range(1, k + 1))


def _check_vars(p, allowed):
    bad = set(p.vars) - set(allowed)
    if bad:
        raise ValueError(f"polynomial uses variables {sorted(bad)}, expected {', '.join(allowed) or 'no variables'}")


def goodman_g(x):
    """g(x) = 2x^2 - x, the lower triangle-density bound along clique blow-ups."""
    return 2 * x * x - x


def M_constant(p):
    """(sum of |coefficients|) * 100 * deg(p); rejects constant p."""
    d = p.total_degree()
    if d < 1:
        raise ValueError("need a non-constant polynomial")
    return p.abs_coeff_sum() * 100 * d


def penalized_q(p, M, xs, ys):
    """q(x, y) = p(x) * prod_i (1-x_i)^6 + M * sum_i (y_i - g(x_i)) at a point.

    p's variable x_j reads xs[j-1]; the coordinates may be rationals or
    polynomials.  M is the penalty constant `M_constant(p)`, which callers
    compute once per p.  Along the moment curve y_i = g(x_i) the penalty
    vanishes, so q inherits the sign of p there (up to the positive factor
    prod (1-x_i)^6 for x in [0,1)).
    """
    value = p.evaluate(dict(zip(_x_vars(len(xs)), xs)))
    for x in xs:
        value = value * (1 - x) ** 6
    return value + M * sum(y - goodman_g(x) for x, y in zip(xs, ys))


def calculus_q(p):
    """`penalized_q` as a polynomial in x1..xk, y1..yk, for p in x1..xk."""
    k = len(p.vars)
    if p.vars != _x_vars(k):
        raise ValueError("p must be declared over x1..xk")
    xy = _xy_vars(k)
    gens = [Polynomial.variable(v, xy) for v in xy]
    return penalized_q(p, M_constant(p), gens[:k], gens[k:])


def tau(q, k):
    """Clear the substitution x_i -> e_i/v_i^2, y_i -> t_i/v_i^3 in q.

    q lives in x1..xk, y1..yk.  Returns a polynomial in e_i, t_i, v_i
    (i = 1..k) such that for all nonzero v_i,
    tau(q)(e,t,v) = q(e/v^2, t/v^3) * prod_i v_i^{3 deg q}: the monomial
    x_i^a y_i^b becomes e_i^a t_i^b v_i^(3 deg q - 2a - 3b).  That power is
    never negative, because 2a + 3b <= 3(a + b) <= 3 deg q.

    Each monomial moves as one int, at a width that fits the result's
    total degree, at most 3k deg q: x_i and y_i keep their fields as e_i
    and t_i, and v_i takes field 2k + i, where the k fields of v are
    3 deg q minus twice the x fields minus three times the y fields, all
    at once, since no field of 2a + 3b passes 3 deg q to carry or borrow.
    """
    _check_vars(q, _xy_vars(k))
    d = q.total_degree()
    width = _width(3 * d * k)
    q, shift = q._recast(_xy_vars(k), width), width * k
    top = 3 * d * sum(1 << width * i for i in range(k))
    monos = {m | (top - 2 * (m & (1 << shift) - 1) - 3 * (m >> shift)) << 2 * shift: c
             for m, c in q.monos.items()}
    return Polynomial._of_monos(_etv_vars(k), width, monos)


# ---------------------------------------------------------------------------
# Text format: poly vars=x1,x2 ; <coeff>*x1^2*x2 + <coeff> [+ ...]


def format_poly(p):
    head = "poly vars=" + ",".join(p.vars)
    if not p.terms:
        return head + " ; 0"
    keyed = sorted(
        p.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0]))
    )
    rendered = []
    for exps, coeff in keyed:
        parts = [str(coeff)]
        for v, e in zip(p.vars, exps):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        rendered.append("*".join(parts))
    return head + " ; " + " + ".join(rendered)


def parse_poly(text, line=None):
    head, sep, body = record_text(text).partition(";")
    if not sep:
        raise FormatError("missing ';' between header and terms", line=line)
    tokens = head.split()
    if len(tokens) != 2 or tokens[0] != "poly" or not tokens[1].startswith("vars="):
        raise FormatError("expected 'poly vars=...' header", line=line)
    names = tokens[1][len("vars="):]
    vars = tuple(v for v in names.split(",") if v)
    try:
        for v in vars:
            _var_key(v)
    except ValueError as exc:
        raise FormatError(str(exc), line=line) from None
    if len(set(vars)) != len(vars):
        raise FormatError("duplicate variable in vars=", line=line)
    terms = {}
    for sign, term in _split_terms(body, line):
        mono, coeff = _parse_term(term, vars, line)
        terms[mono] = terms.get(mono, 0) + sign * coeff
    return Polynomial(vars, terms)


def _split_terms(body, line):
    out = []
    sign = 1
    current = []
    for tok in body.split():
        if tok == "+":
            if current:
                out.append((sign, current))
            sign, current = 1, []
        elif tok == "-":
            if current:
                out.append((sign, current))
            sign, current = -1, []
        else:
            current.append(tok)
    if current:
        out.append((sign, current))
    if not out:
        raise FormatError("empty polynomial body", line=line)
    return [(s, " ".join(parts)) for s, parts in out]


def _parse_term(term, vars, line):
    factors = term.split("*")
    coeff = Fraction(1)
    exps = {v: 0 for v in vars}
    seen_coeff = False
    for factor in factors:
        factor = factor.strip()
        if not factor:
            raise FormatError(f"empty factor in term {term!r}", line=line)
        name, caret, power = factor.partition("^")
        if caret and not power.isdecimal():
            raise FormatError(f"bad exponent {power!r}", line=line)
        if not _VAR_RE.match(name):
            if seen_coeff or caret:
                raise FormatError(f"bad term {term!r}", line=line)
            coeff = parse_rational(name, "coefficient", line)
            seen_coeff = True
            continue
        if name not in exps:
            raise FormatError(f"unknown variable {name!r}", line=line)
        if len(power.lstrip("0")) > len(str(DEGREE_CAP)):
            raise CapExceeded(f"exponent of {name} exceeds the degree cap {DEGREE_CAP}")
        exps[name] += int(power) if caret else 1
    mono = tuple(exps[v] for v in vars)
    if sum(mono) > DEGREE_CAP:
        raise CapExceeded(f"term degree {sum(mono)} exceeds the degree cap {DEGREE_CAP}")
    return mono, coeff
