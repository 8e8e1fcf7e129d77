"""Sparse multivariate polynomials over the rationals.

A polynomial is stored as a map from exponent tuples to nonzero Fraction
coefficients, together with a tuple of variable names.  Variable names are
kept in a canonical order (alphabetic prefix, then numeric suffix), so
`x1 < x2 < x10 < y1`; binary operations align operands by taking the union
of their variable sets.

Besides generic arithmetic this module houses the concrete polynomial
constructions the rest of the package builds on: the Motzkin-type form S,
the nonnegative-orthant polynomial p fed to the clone reduction, the
grid-to-cube transform, Goodman's triangle bound g, the
penalized polynomial q with its constant M, and the clearing substitution
tau into (v, e, t) variables.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import CapExceeded, FormatError

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

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, point):
        """Value at a full assignment {var: value}.

        Values may be rationals or anything that adds and multiplies with
        them, such as polynomials.
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

    def substitute_monomials(self, mapping, clear=None):
        """Replace variables by Laurent monomials and clear denominators.

        mapping: var -> {new_var: exponent}, exponents may be negative (a
        monomial denominator).  clear: {new_var: exponent} multiplied onto
        every term afterwards.  Raises if any exponent stays negative, i.e.
        the declared clearing power was insufficient.
        """
        clear = clear or {}
        new_names = set(clear)
        for repl in mapping.values():
            new_names |= set(repl)
        for v in self.vars:
            if v not in mapping:
                new_names.add(v)
        new_vars = _sort_vars(new_names)
        pos = {v: i for i, v in enumerate(new_vars)}
        terms = {}
        for exps, coeff in self.terms.items():
            acc = [0] * len(new_vars)
            for v, e in clear.items():
                acc[pos[v]] += e
            for v, e in zip(self.vars, exps):
                if not e:
                    continue
                repl = mapping.get(v)
                if repl is None:
                    acc[pos[v]] += e
                else:
                    for nv, ne in repl.items():
                        acc[pos[nv]] += ne * e
            if any(a < 0 for a in acc):
                raise ValueError("clearing power too small")
            key = tuple(acc)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return Polynomial(new_vars, terms)


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
    k = len(q.vars)
    xvars = tuple(f"x{i}" for i in range(1, k + 1))
    one_minus = [
        Polynomial(xvars, {(0,) * k: Fraction(1)})
        - Polynomial.variable(xvars[i], xvars)
        for i in range(k)
    ]
    result = Polynomial.constant(0, xvars)
    for exps, coeff in q.terms.items():
        term = Polynomial.constant(coeff, xvars)
        for i, e in enumerate(exps):
            term = term * one_minus[i] ** (d - e)
        result = result + term
    return result


def M_constant(p):
    """(sum of |coefficients|) * 100 * deg(p); rejects constant p."""
    d = p.total_degree()
    if d < 1:
        raise ValueError("M_constant needs a nonconstant polynomial")
    return p.abs_coeff_sum() * 100 * d


def calculus_q(p):
    """q(x, y) = p(x) * prod_i (1-x_i)^6 + M * sum_i (y_i - g(x_i)).

    p lives in x1..xk; the result lives in x1..xk, y1..yk with M the
    penalty constant M_constant(p) and g(x) = 2x^2 - x.  Along the moment
    curve y_i = g(x_i) the penalty vanishes, so q inherits the sign of p
    there (up to the positive factor prod (1-x_i)^6 for x in [0,1)).
    """
    k = len(p.vars)
    if tuple(p.vars) != tuple(f"x{i}" for i in range(1, k + 1)):
        raise ValueError("p must be declared over x1..xk")
    M = M_constant(p)
    allvars = p.vars + tuple(f"y{i}" for i in range(1, k + 1))
    q = p.in_vars(allvars)
    for i in range(1, k + 1):
        xi = Polynomial.variable(f"x{i}", allvars)
        q = q * (1 - xi) ** 6
    penalty = Polynomial.constant(0, allvars)
    for i in range(1, k + 1):
        xi = Polynomial.variable(f"x{i}", allvars)
        yi = Polynomial.variable(f"y{i}", allvars)
        penalty = penalty + yi - (2 * xi * xi - xi)
    return q + M * penalty


def tau(q, k=None):
    """Clear the substitution x_i -> e_i/v_i^2, y_i -> t_i/v_i^3 in q.

    Returns a polynomial in v_i, e_i, t_i (i = 1..k) such that for all
    nonzero v_i,  tau(q)(v,e,t) = q(e/v^2, t/v^3) * prod_i v_i^{3 deg q}.
    The clearing power 3*deg(q) per v_i always suffices because each
    monomial has 2a_i + 3b_i <= 3(a_i + b_i) <= 3 deg q.
    """
    if k is None:
        k = 0
        for v in q.vars:
            prefix, num = _var_key(v)
            if prefix not in ("x", "y") or num < 1:
                raise ValueError(f"unexpected variable {v!r}")
            k = max(k, num)
    d = q.total_degree()
    mapping = {}
    clear = {}
    for i in range(1, k + 1):
        mapping[f"x{i}"] = {f"e{i}": 1, f"v{i}": -2}
        mapping[f"y{i}"] = {f"t{i}": 1, f"v{i}": -3}
        clear[f"v{i}"] = 3 * d
    return q.substitute_monomials(mapping, clear)


def goodman_g(x):
    """g(x) = 2x^2 - x, the lower triangle-density bound along clique blow-ups."""
    x = Fraction(x)
    return 2 * x * x - x


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
    head, sep, body = text.partition(";")
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
        if name.lstrip("-").replace("/", "").isdigit():
            if seen_coeff or caret:
                raise FormatError(f"bad term {term!r}", line=line)
            try:
                coeff = Fraction(name)
            except (ValueError, ZeroDivisionError):
                raise FormatError(f"bad coefficient {name!r}", line=line) from None
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
