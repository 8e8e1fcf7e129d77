"""Polynomial arithmetic and the named polynomial constructions."""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from homdens.errors import CapExceeded, FormatError
from homdens.polynomials import (
    DEGREE_CAP,
    M_constant,
    Polynomial,
    calculus_q,
    counterexample_poly,
    format_poly,
    goodman_g,
    hilbert10_transform,
    motzkin_S,
    parse_poly,
    tau,
)

from oracles import TermsPoly, bollobas_L, in_region_R


def rand_fraction(rng, lo=-4, hi=4, den=5):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_poly(rng, vars, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in vars)
        terms[exps] = terms.get(exps, 0) + rand_fraction(rng)
    return Polynomial(vars, terms)


def x(i):
    return Polynomial.variable(f"x{i}")


class TestArithmetic:
    def test_basic_identities(self):
        one_minus_x = 1 - Polynomial.variable("x")
        sq = one_minus_x * one_minus_x
        assert sq.evaluate({"x": Fraction(1, 2)}) == Fraction(1, 4)

        a, b = Polynomial.variable("x", ("x", "y")), Polynomial.variable("y", ("x", "y"))
        assert (a + b) * (a - b) == a * a - b * b

    def test_variable_alignment(self):
        p = x(1) + x(3)
        q = x(2)
        s = p + q
        assert s.vars == ("x1", "x2", "x3")
        assert s.evaluate({"x1": 1, "x2": 10, "x3": 100}) == 111

    def test_random_ring_identities(self):
        rng = random.Random(31)
        vars = ("x1", "x2")
        for _ in range(50):
            a, b, c = (rand_poly(rng, vars) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert a - a == 0
            pt = {"x1": rand_fraction(rng), "x2": rand_fraction(rng)}
            assert (a * b + c).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt) + c.evaluate(pt)

    def test_evaluate_at_polynomials_is_composition(self):
        """Evaluating p at polynomial values gives the composite, whose
        value at a point is p at the values' values there."""
        rng = random.Random(29)
        inner = ("x1", "x2", "x3")
        for _ in range(40):
            p = rand_poly(rng, ("y1", "y2"))
            values = {"y1": rand_poly(rng, inner[:2]), "y2": rand_poly(rng, inner)}
            # A constant p evaluates to a number; adding 0 over `inner` makes it a polynomial.
            composite = p.evaluate(values) + Polynomial.constant(0, inner)
            pt = {v: rand_fraction(rng) for v in inner}
            assert composite.evaluate(pt) == p.evaluate({y: q.evaluate(pt) for y, q in values.items()})

    def test_power(self):
        p = 1 + x(1)
        assert p ** 0 == 1
        assert p ** 1 == p
        assert p ** 5 == p * p * p * p * p

    def test_unused_variables_do_not_change_the_hash(self):
        a = Polynomial.variable("x1")
        b = Polynomial.variable("x1", ("x1", "x2"))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("value", [3, Fraction(1, 2), 0])
    def test_constants_hash_as_their_numbers(self, value):
        for p in (Polynomial.constant(value), Polynomial.constant(value, ("x1", "x2"))):
            assert p == value
            assert hash(p) == hash(value)
            assert len({p, value}) == 1

    @pytest.mark.parametrize("other", ["1", None, 1.0, (1,)], ids=repr)
    def test_equal_only_to_numbers_and_polynomials(self, other):
        one = Polynomial.constant(1)
        assert one != other
        assert not one == other
        assert len({one, other}) == 2

    def test_degree_and_coefficients(self):
        p = 2 * x(1) ** 3 * x(2) - x(2)
        assert p.total_degree() == 4
        assert p.coefficient({"x1": 3, "x2": 1}) == 2
        assert p.coefficient({"x2": 1}) == -1
        assert p.coefficient({}) == 0
        assert p.abs_coeff_sum() == 3

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            Polynomial(("x", "x"), {})
        with pytest.raises(ValueError):
            Polynomial(("x",), {(-1,): 1})
        with pytest.raises(ValueError):
            Polynomial(("2bad",), {})


# Names whose canonical order differs from their text order: x2 < x10.
POOL = ("x1", "x2", "x10", "y1", "y3")


def ref_pair(rng, max_exp, max_terms=5):
    """One seeded polynomial over some of POOL, in the package's ring and
    in the reference's."""
    vars = tuple(rng.sample(POOL, rng.randint(1, 4)))
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in vars)
        terms[exps] = terms.get(exps, 0) + rand_fraction(rng)
    return Polynomial(vars, terms), TermsPoly(vars, terms)


def same(got, want):
    return (got.vars, got.terms, got.total_degree()) == (want.vars, want.terms, want.total_degree())


class TestAgainstTermsReference:
    """Packed monomials against the dict-of-tuples reference, over mixed
    variable sets, with degrees past the first field widths."""

    def test_arithmetic(self):
        rng = random.Random(71)
        for _ in range(150):
            (a, ra), (b, rb) = ref_pair(rng, 9), ref_pair(rng, 9)
            pairs = [
                (a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra),
                (a ** 3, ra ** 3), (2 - a, 2 - ra), (a * Fraction(1, 3), ra * Fraction(1, 3)),
                (a.in_vars(b.vars), ra.in_vars(rb.vars)),
            ]
            for got, want in pairs:
                assert same(got, want)
                assert hash(got) == want.hash_value()
            assert (a == b) == (ra == rb)
            assert a * b - b * a == 0

    def test_evaluate_at_rationals_and_polynomials(self):
        rng = random.Random(79)
        for _ in range(60):
            a, ra = ref_pair(rng, 9)
            point = {v: rand_fraction(rng) for v in POOL}
            assert a.evaluate(point) == ra.evaluate(point)
            a, ra = ref_pair(rng, 2)
            values = {v: ref_pair(rng, 2, max_terms=3) for v in a.vars}
            got = a.evaluate({v: p for v, (p, _) in values.items()}) + Polynomial.constant(0, POOL)
            want = ra.evaluate({v: r for v, (_, r) in values.items()}) + TermsPoly(POOL, {})
            assert same(got, want)

    def test_widths_change_neither_equality_nor_hash(self):
        """A sum that passes through degree 40 keeps the wider fields of
        its operands, yet equals and hashes as the narrow original."""
        rng = random.Random(83)
        far = Polynomial.variable("x1") ** 40
        for _ in range(40):
            a, _ = ref_pair(rng, 3)
            wide = (a + far) - far
            assert wide.width > a.width
            assert wide == a and hash(wide) == hash(a)
        three = (Polynomial.constant(3) + far) - far
        assert three.width > Polynomial.constant(3).width
        assert three == Polynomial.constant(3) == 3
        assert hash(three) == hash(Polynomial.constant(3)) == hash(3)


class TestMotzkinS:
    def test_values(self):
        S = motzkin_S()
        assert S.evaluate({"x": 1, "y": 1, "z": 1}) == 0
        assert S.evaluate({"x": 1, "y": 1, "z": 0}) == 1

    def test_shape(self):
        S = motzkin_S()
        assert len(S.terms) == 4
        assert S.total_degree() == 6
        for exps in S.terms:
            assert sum(exps) == 6  # homogeneous
            assert all(e % 2 == 0 for e in exps)  # even

    def test_nonnegative_spot_check(self):
        S = motzkin_S()
        rng = random.Random(37)
        for _ in range(1000):
            pt = {v: rand_fraction(rng, -6, 6) for v in "xyz"}
            assert S.evaluate(pt) >= 0


class TestCounterexamplePoly:
    def test_values(self):
        p = counterexample_poly(6)
        ones = {f"y{i}": 1 for i in range(1, 7)}
        assert p.evaluate({**ones, "y1": 17, "y5": -3, "y6": 5}) == 0
        zeros = {f"y{i}": 0 for i in range(1, 7)}
        assert p.evaluate({**zeros, "y2": 1, "y3": 1}) == 1

    def test_square_substitution_recovers_S(self):
        # p(x2^2, x3^2, x4^2) should be S up to renaming x,y,z -> x2,x3,x4.
        p = counterexample_poly(4)
        squared = p.evaluate({f"y{i}": x(i) ** 2 for i in range(1, 5)})
        assert squared == motzkin_S().evaluate({"x": x(2), "y": x(3), "z": x(4)})

    def test_homogeneous_degree_three(self):
        p = counterexample_poly(4)
        assert all(sum(e) == 3 for e in p.terms)

    def test_nonnegative_on_orthant(self):
        p = counterexample_poly(4)
        rng = random.Random(41)
        for _ in range(1000):
            pt = {v: abs(rand_fraction(rng, -9, 9)) for v in p.vars}
            assert p.evaluate(pt) >= 0

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            counterexample_poly(3)


class TestHilbert10Transform:
    def test_linear_example(self):
        q = Polynomial.variable("y1") - 2
        assert hilbert10_transform(q) == 2 * Polynomial.variable("x1") - 1

    def test_constant(self):
        q = Polynomial.constant(7, ("y1", "y2"))
        assert hilbert10_transform(q) == 7

    def test_sign_at_origin(self):
        q = Polynomial.variable("y1") - 2
        p = hilbert10_transform(q)
        assert q.evaluate({"y1": 1}) == -1
        assert p.evaluate({"x1": 0}) == -1

    def test_grid_sign_transfer(self):
        rng = random.Random(43)
        for _ in range(50):
            k = rng.randint(1, 3)
            vars = tuple(f"y{i}" for i in range(1, k + 1))
            terms = {
                tuple(rng.randint(0, 2) for _ in vars): rng.randint(-5, 5)
                for _ in range(rng.randint(1, 4))
            }
            q = Polynomial(vars, terms)
            p = hilbert10_transform(q)
            n = [rng.randint(1, 7) for _ in range(k)]
            qv = q.evaluate({f"y{i+1}": n[i] for i in range(k)})
            pv = p.evaluate({f"x{i+1}": 1 - Fraction(1, n[i]) for i in range(k)})
            scale = Fraction(1)
            for ni in n:
                scale *= Fraction(1, ni) ** q.total_degree()
            assert pv == scale * qv


class TestMConstantAndCalculusQ:
    def test_M_examples(self):
        assert M_constant(1 - 2 * x(1)) == 300
        assert M_constant(x(1)) == 100
        assert M_constant(x(1) ** 2 + x(2) ** 2) == 400

    def test_M_rejects_constant(self):
        with pytest.raises(ValueError):
            M_constant(Polynomial.constant(5, ("x1",)))

    def test_structure(self):
        # Subtracting the penalty must leave exactly p * prod (1-x_i)^6.
        p = 1 - 2 * x(1) + 0 * x(2)
        q = calculus_q(p)
        M = M_constant(p)
        allvars = q.vars
        penalty = Polynomial.constant(0, allvars)
        expected = p.in_vars(allvars)
        for i in (1, 2):
            xi = Polynomial.variable(f"x{i}", allvars)
            yi = Polynomial.variable(f"y{i}", allvars)
            penalty = penalty + yi - goodman_g_poly(xi)
            expected = expected * (1 - xi) ** 6
        assert q - M * penalty == expected

    def test_negative_value_example(self):
        p = 1 - 2 * x(1) + 0 * x(2)
        q = calculus_q(p)
        pt = {
            "x1": Fraction(2, 3),
            "x2": Fraction(0),
            "y1": goodman_g(Fraction(2, 3)),
            "y2": goodman_g(0),
        }
        assert q.evaluate(pt) == Fraction(-1, 3) * Fraction(1, 3) ** 6

    def test_degree(self):
        for p, k in [(1 - 2 * x(1), 1), (1 - 2 * x(1) + 0 * x(2), 2)]:
            assert calculus_q(p).total_degree() == p.total_degree() + 6 * k

    def test_sign_transfer_into_region(self):
        # Wherever the transformed p is negative on the grid, q is negative
        # at the matching point on the curve y = g(x), which lies in R.
        rng = random.Random(47)
        qpoly = Polynomial.variable("y1") - 2
        p = hilbert10_transform(qpoly)
        q = calculus_q(p)
        for n in range(1, 9):
            xv = 1 - Fraction(1, n)
            pt = {"x1": xv, "y1": goodman_g(xv)}
            assert in_region_R(xv, pt["y1"]) or xv == 0
            if p.evaluate({"x1": xv}) < 0:
                assert q.evaluate(pt) < 0


def goodman_g_poly(xi):
    return 2 * xi * xi - xi


class TestTau:
    def test_examples(self):
        q1 = Polynomial.variable("x1", ("x1", "x2", "y1", "y2"))
        t1 = tau(q1, k=2)
        e1 = Polynomial.variable("e1")
        v1, v2 = Polynomial.variable("v1"), Polynomial.variable("v2")
        assert t1 == (e1 * v1 * v2 ** 3).in_vars(t1.vars)

        q2 = Polynomial.variable("y1")
        assert tau(q2, k=1) == Polynomial.variable("t1").in_vars(tau(q2, k=1).vars)

        q3 = Polynomial.constant(1, ("x1", "y1"))
        assert tau(q3, k=1) == 1

    def test_stray_variable_refused(self):
        # x3 is outside x1, x2, y1, y2 and would be left uncleared.
        with pytest.raises(ValueError, match="x3"):
            tau(Polynomial.variable("x3", ("x1", "x3")), k=2)
        with pytest.raises(ValueError, match="z1"):
            tau(Polynomial.variable("z1"), k=1)

    def test_clearing_soundness(self):
        rng = random.Random(53)
        vars = ("x1", "x2", "y1", "y2")
        for _ in range(30):
            q = rand_poly(rng, vars, max_terms=4, max_exp=2)
            tq = tau(q, k=2)
            v = [rand_fraction(rng, 1, 5) for _ in range(2)]
            e = [rand_fraction(rng, -4, 4) for _ in range(2)]
            t = [rand_fraction(rng, -4, 4) for _ in range(2)]
            lhs = tq.evaluate(
                {"v1": v[0], "v2": v[1], "e1": e[0], "e2": e[1], "t1": t[0], "t2": t[1]}
            )
            rhs = q.evaluate(
                {
                    "x1": e[0] / v[0] ** 2,
                    "x2": e[1] / v[1] ** 2,
                    "y1": t[0] / v[0] ** 3,
                    "y2": t[1] / v[1] ** 3,
                }
            )
            for vi in v:
                rhs *= vi ** (3 * q.total_degree())
            assert lhs == rhs


    def test_output_bytes_are_pinned(self):
        """The cleared penalized polynomial of 1 - 2*x1 over x1..x3."""
        cleared = tau(calculus_q(parse_poly("poly vars=x1,x2,x3 ; 1 + -2*x1")), 3)
        digest = hashlib.sha256(format_poly(cleared).encode()).hexdigest()
        assert (len(cleared.terms), digest) == (
            395, "6190bdd2e294ecccdedb89052c81e4dccc48c1f2bdbc7ac7fc0c444b39d4d0c8")


class TestGoodmanBollobas:
    def test_named_values(self):
        assert goodman_g(Fraction(1, 2)) == 0
        assert bollobas_L(Fraction(1, 2)) == 0
        assert bollobas_L(Fraction(3, 5)) == Fraction(2, 15)
        assert goodman_g(Fraction(3, 5)) == Fraction(3, 25)
        assert bollobas_L(0) == 0

    def test_breakpoint_continuity(self):
        for s in range(2, 21):
            xb = 1 - Fraction(1, s)
            eps = Fraction(1, 10 ** 9)
            left = bollobas_L(xb - eps)
            right = bollobas_L(xb)
            assert abs(left - right) < Fraction(100, 10 ** 9)
            assert right == goodman_g(xb)  # chords of g meet g at endpoints

    def test_L_dominates_g(self):
        rng = random.Random(59)
        for _ in range(200):
            xv = Fraction(rng.randint(0, 999), 1000)
            assert bollobas_L(xv) >= goodman_g(xv)

    def test_domain(self):
        with pytest.raises(ValueError):
            bollobas_L(Fraction(-1, 2))
        with pytest.raises(ValueError):
            bollobas_L(1)

    def test_region(self):
        assert in_region_R(Fraction(1, 2), 0)
        assert in_region_R(Fraction(3, 5), Fraction(2, 15))
        assert not in_region_R(Fraction(3, 5), Fraction(1, 10))


class TestPolyFormat:
    def test_round_trip_random(self):
        rng = random.Random(61)
        for _ in range(100):
            vars = tuple(f"x{i}" for i in range(1, rng.randint(1, 4)))
            p = rand_poly(rng, vars)
            text = format_poly(p)
            assert parse_poly(text) == p
            assert format_poly(parse_poly(text)) == text

    def test_examples(self):
        p = parse_poly("poly vars=x1,x2 ; 1*x1^2*x2 + -2/3*x2")
        assert p.coefficient({"x1": 2, "x2": 1}) == 1
        assert p.coefficient({"x2": 1}) == Fraction(-2, 3)
        assert parse_poly("poly vars=x1 ; 0").is_zero()
        assert parse_poly("poly vars=x1 ; x1 - 2") == x(1) - 2
        assert parse_poly("poly vars= ; 5") == 5
        assert parse_poly("poly vars=x1 ; 0.5*x1 + -0.25") == Fraction(1, 2) * x(1) - Fraction(1, 4)

    def test_errors(self):
        for bad in [
            "poly vars=x1 1*x1",
            "vars=x1 ; x1",
            "poly vars=x1,x1 ; x1",
            "poly vars=x1 ; x2",
            "poly vars=x1 ; x1^a",
            "poly vars=x1 ; x1^\u00b2",
            "poly vars=x1 ; 1/0",
            "poly vars=x1 ;",
            "poly vars=1bad ; 1",
        ]:
            with pytest.raises(FormatError):
                parse_poly(bad)

    def test_many_terms_parse_in_linear_time(self):
        text = "poly vars=x1,x2,x3 ; " + " + ".join(
            f"{i}*x1^{i % 7}*x2^{i % 11}*x3^{i % 13}" for i in range(1, 3001)
        )
        start = time.perf_counter()
        p = parse_poly(text)
        assert time.perf_counter() - start < 1
        assert len(p.terms) == 1001  # the exponents repeat with period 7 * 11 * 13
        assert p.coefficient({}) == sum(range(1001, 3001, 1001))

    def test_repeated_terms_sum(self):
        rng = random.Random(67)
        vars = ("x1", "x2", "x3")
        terms = [rand_poly(rng, vars, max_terms=1, max_exp=2) for _ in range(25)]
        terms += [-t for t in terms[:10]] + terms[10:20] + [2 * t for t in terms[20:25]]
        rng.shuffle(terms)
        terms = [t for t in terms if not t.is_zero()]
        text = "poly vars=x1,x2,x3 ; " + " + ".join(format_poly(t).split(" ; ")[1] for t in terms)
        assert parse_poly(text) == sum(terms, Polynomial.constant(0, vars))

    def test_degree_cap(self):
        """The cap holds per term, and a long exponent is refused by its
        length, before its digits are read."""
        for ok in (f"x1^{DEGREE_CAP}", f"x1^0000{DEGREE_CAP}", f"x1^{DEGREE_CAP - 1}*x2 + x2^{DEGREE_CAP}"):
            assert parse_poly(f"poly vars=x1,x2 ; {ok}").total_degree() == DEGREE_CAP
        for bad in (f"x1^{DEGREE_CAP + 1}", f"x1^{DEGREE_CAP}*x2", "x1^600*x1^600", "x1^" + "9" * 5000):
            with pytest.raises(CapExceeded, match=f"degree cap {DEGREE_CAP}"):
                parse_poly(f"poly vars=x1,x2 ; {bad} + -2")

    def test_caret_needs_digits(self):
        for bad in ["poly vars=x1 ; x1^", "poly vars=x1 ; 2^", "poly vars=x1 ; 3*x1^ + 1"]:
            with pytest.raises(FormatError, match="bad exponent ''"):
                parse_poly(bad)
