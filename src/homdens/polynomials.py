"""Sparse multivariate polynomials over the rationals.

A polynomial is stored as a map from exponent tuples to nonzero Fraction
coefficients, together with a tuple of variable names.  Variable names are
kept in a canonical order (alphabetic prefix, then numeric suffix), so
`x1 < x2 < x10 < y1`; binary operations align operands by taking the union
of their variable sets.  Substituting polynomials for variables is
`Polynomial.evaluate` at polynomial values.

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


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        vars = tuple(vars)
        for name in vars:
            _var_key(name)
        if len(set(vars)) != len(vars):
            raise ValueError("duplicate variable name")
        order = _sort_vars(vars)
        if order != vars:
            remap = [vars.index(v) for v in order]
            terms = {
                tuple(exps[i] for i in remap): c for exps, c in dict(terms).items()
            }
            vars = order
        clean = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(vars):
                raise ValueError("exponent tuple length mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            coeff = Fraction(coeff)
            if coeff:
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
        clean = {e: c for e, c in clean.items() if c}
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value, vars=()):
        value = Fraction(value)
        vars = _sort_vars(vars)
        if not value:
            return Polynomial(vars, {})
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

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Maximum total degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def coefficient(self, monomial):
        """Coefficient of a monomial given as {var: exponent}."""
        exps = tuple(monomial.get(v, 0) for v in self.vars)
        extra = set(monomial) - set(self.vars)
        if extra:
            raise ValueError(f"unknown variables {sorted(extra)}")
        return self.terms.get(exps, Fraction(0))

    def abs_coeff_sum(self):
        return sum((abs(c) for c in self.terms.values()), Fraction(0))

    def in_vars(self, vars):
        """The same polynomial over a larger variable set."""
        vars = _sort_vars(set(vars) | set(self.vars))
        pos = {v: i for i, v in enumerate(vars)}
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(vars)
            for v, e in zip(self.vars, exps):
                new[pos[v]] = e
            terms[tuple(new)] = coeff
        return Polynomial(vars, terms)

    # -- arithmetic ---------------------------------------------------------

    def _pair(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        if self.vars == other.vars:
            return self, other
        union = set(self.vars) | set(other.vars)
        return self.in_vars(union), other.in_vars(union)

    def __add__(self, other):
        a, b = self._pair(other)
        terms = dict(a.terms)
        for exps, coeff in b.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return Polynomial(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        a, b = self._pair(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                acc = terms.get(key)
                terms[key] = c1 * c2 if acc is None else acc + c1 * c2
        return Polynomial(a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(1, self.vars)
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
            if self.terms and set(self.terms) != {(0,) * len(self.vars)}:
                return False
            return self.constant_term() == other
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._pair(other)
        return a.terms == b.terms

    def __hash__(self):
        # A constant equals its number, so it hashes as that number.
        if set(self.terms) <= {(0,) * len(self.vars)}:
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
        raise ValueError(f"polynomial uses variables {sorted(bad)}, expected {', '.join(allowed)}")


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
    value = p.evaluate({var: xs[int(var[1:]) - 1] for var in p.vars})
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
    """
    _check_vars(q, _xy_vars(k))
    d = q.total_degree()
    terms = {}
    for exps, coeff in q.terms.items():
        out = [0] * (2 * k) + [3 * d] * k
        for var, e in zip(q.vars, exps):
            i, is_y = int(var[1:]) - 1, var[0] == "y"
            out[is_y * k + i] += e
            out[2 * k + i] -= (2 + is_y) * e
        terms[tuple(out)] = coeff
    return Polynomial(_etv_vars(k), terms)


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
