import random
from fractions import Fraction as F

import pytest

from homdens import algebra, graphs
from homdens.algebra import (
    Atom,
    QuantumGraph,
    Sum,
    as_quantum,
    expand,
    format_qexpr,
    ind,
    load_expression,
    parse_qexpr,
    parse_quantum,
    product,
    unlabel,
)
from homdens import certificates
from homdens.certificates import (
    ProofLine,
    check_cs_proof,
    cs_instance,
    integer_witness,
    is_psd,
    moment_matrix,
    parse_cs_proof,
    parse_sos_certificate,
    refute,
    verify_sos,
)
from homdens.density import WeightedGraph, t_quantum
from homdens.errors import BudgetExceeded, CapExceeded, FormatError
from homdens.graphs import Graph, PartiallyLabeledGraph as PLG, enumerate_graphs, format_plg

K1 = Graph(1)
K2 = Graph.complete(2)
K3 = Graph.complete(3)
P3 = Graph.path(3)

EDGE_1 = PLG(K2, {1: 0})
NONEDGE_1 = PLG(Graph(2), {1: 0})
POINT_1 = PLG(K1, {1: 0})
FULL_EDGE = PLG(K2, {1: 0, 2: 1})

GOODMAN = (
    as_quantum(K3)
    - 2 * as_quantum(Graph(4, [(0, 1), (2, 3)]))
    + as_quantum(K2)
)


def targets_up_to(n):
    out = []
    for k in range(1, n + 1):
        out.extend(enumerate_graphs(k))
    return out


def all_root_maps(labels, g):
    labels = sorted(labels)
    if not labels:
        return [{}]
    maps = [{}]
    for lab in labels:
        maps = [{**m, lab: v} for m in maps for v in range(g.n)]
    return maps


def random_graph(rng, n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])


def random_distribution(rng, n):
    w = [rng.randint(0, 5) for _ in range(n)]
    if not any(w):
        w[rng.randrange(n)] = 1
    s = sum(w)
    return [F(x, s) for x in w]


class TestVerifySos:
    def test_single_rooted_edge_proves_the_path(self):
        assert verify_sos(as_quantum(P3), [EDGE_1])

    def test_fully_labeled_edge_squares_to_itself(self):
        assert verify_sos(as_quantum(K2), [FULL_EDGE])

    def test_negated_edge_is_not_a_square_sum(self):
        assert not verify_sos(-as_quantum(K2), [EDGE_1])
        assert not verify_sos(-as_quantum(K2), [FULL_EDGE, POINT_1])

    def test_two_squares_add(self):
        target = unlabel(product(as_quantum(EDGE_1), as_quantum(EDGE_1)), ()) + unlabel(
            product(as_quantum(POINT_1), as_quantum(POINT_1)), ()
        )
        assert verify_sos(target, [EDGE_1, POINT_1])
        assert not verify_sos(target, [EDGE_1])

    def test_qexpr_entries_are_accepted(self):
        doubled = Sum([Atom(EDGE_1), Atom(EDGE_1)])
        target = 4 * as_quantum(P3)
        assert verify_sos(target, [doubled])

    def test_empty_certificate_is_rejected(self):
        with pytest.raises(ValueError):
            verify_sos(as_quantum(P3), [])


class TestFormTable:
    """`verify_sos` and `check_cs_proof` run every expansion in one form
    table, and no table is open once they return or raise."""

    def test_each_check_expands_in_one_table(self, canonical_tables):
        two_squares = unlabel(product(as_quantum(EDGE_1), as_quantum(EDGE_1)), ()) + unlabel(
            product(as_quantum(POINT_1), as_quantum(POINT_1)), ()
        )
        proof, path, edge, triangle = p3_proof(), as_quantum(P3), as_quantum(K2), as_quantum(K3)
        checks = [
            lambda: verify_sos(two_squares, [EDGE_1, POINT_1]),
            lambda: not verify_sos(-edge, [EDGE_1]),
            lambda: check_cs_proof(proof, path),
            lambda: not check_cs_proof(proof, triangle),
        ]
        for check in checks:
            del canonical_tables[:]
            assert check()
            assert canonical_tables and canonical_tables[-1] is not None
            assert {id(t) for t in canonical_tables} == {id(canonical_tables[-1])}
            assert graphs._FORMS is None

    def test_a_refused_check_closes_its_table(self, canonical_tables):
        """The squares expand, then the target exceeds the budget of 1."""
        f = as_quantum(EDGE_1) + as_quantum(POINT_1) + as_quantum(FULL_EDGE)
        sq = product(f, f)
        del canonical_tables[:]
        with pytest.raises(BudgetExceeded):
            verify_sos(sq, [EDGE_1], budget=1)
        assert canonical_tables and None not in canonical_tables
        assert graphs._FORMS is None
        with pytest.raises(BudgetExceeded):
            check_cs_proof([ProofLine(sq, "A1", (f,))], sq, budget=1)
        assert graphs._FORMS is None

    def test_a_nested_check_shares_the_open_table(self, canonical_tables):
        target = as_quantum(P3)
        with graphs.form_table():
            outer = graphs._FORMS
            del canonical_tables[:]
            assert verify_sos(target, [EDGE_1])
            assert check_cs_proof(p3_proof(), target)
            assert graphs._FORMS is outer
        assert outer and all(t is outer for t in canonical_tables)
        assert graphs._FORMS is None


class TestSosFormat:
    def test_round_trip_is_byte_stable(self):
        text = "sos:\ng: (g plg n=2 labels=1:1 edges=1-2)\ng: (g plg n=1 labels=1:1)\n"
        back = parse_sos_certificate(text)
        assert back == [Atom(EDGE_1), Atom(POINT_1)]
        assert "sos:\n" + "".join(f"g: {format_qexpr(g)}\n" for g in back) == text
        assert verify_sos(
            as_quantum(P3) + unlabel(product(as_quantum(POINT_1), as_quantum(POINT_1)), ()),
            back,
        )

    def test_comments_and_blank_lines_are_ignored(self):
        text = "# witness list\n\nsos:\n# the square root\ng: (g plg n=2 labels=1:1 edges=1-2)\n"
        assert len(parse_sos_certificate(text)) == 1

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_sos_certificate("g: (g plg n=1)\n")

    def test_bad_entry_reports_its_line(self):
        try:
            parse_sos_certificate("sos:\ng: (oops)\n")
        except FormatError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected FormatError")

    def test_empty_list_is_rejected(self):
        with pytest.raises(FormatError):
            parse_sos_certificate("sos:\n")


class TestCsInstance:
    def test_equal_factors_vanish_identically(self):
        for f in (EDGE_1, NONEDGE_1, POINT_1, FULL_EDGE):
            inst = cs_instance(f, f, f.label_set())
            assert expand(inst) == QuantumGraph()

    def test_edge_against_nonedge_at_the_triangle(self):
        inst = cs_instance(EDGE_1, NONEDGE_1, [])
        assert t_quantum(expand(inst), K3) >= 0

    def test_labels_outside_both_factors_are_rejected(self):
        with pytest.raises(ValueError):
            cs_instance(EDGE_1, NONEDGE_1, [2])

    def test_nonnegative_on_random_weighted_targets(self):
        rng = random.Random(20260816)
        pool = [EDGE_1, NONEDGE_1, POINT_1, PLG(P3, {1: 0}), PLG(P3, {1: 1})]
        for _ in range(100):
            f1, f2 = rng.choice(pool), rng.choice(pool)
            T = frozenset() if rng.random() < 0.5 else frozenset({1})
            inst = expand(cs_instance(f1, f2, T))
            g = random_graph(rng, rng.randint(1, 4))
            G = WeightedGraph(g, random_distribution(rng, g.n))
            for phi in all_root_maps(T, g):
                assert t_quantum(inst, G, phi) >= 0


def p3_proof():
    sq = product(as_quantum(EDGE_1), as_quantum(EDGE_1))
    return [
        ProofLine(sq, "A1", (EDGE_1,)),
        ProofLine(as_quantum(P3), "R3", (1, frozenset())),
    ]


class TestProofChecker:
    def test_two_line_path_proof(self):
        assert check_cs_proof(p3_proof(), as_quantum(P3))

    def test_wrong_claim_is_rejected(self):
        assert not check_cs_proof(p3_proof(), as_quantum(K3))

    def test_wrong_intermediate_statement_is_rejected(self):
        lines = p3_proof()
        lines[0] = ProofLine(as_quantum(P3), "A1", (EDGE_1,))
        assert not check_cs_proof(lines, as_quantum(P3))

    def test_rooted_indicator_via_full_labeling(self):
        # ind of a partially labeled graph is the T-average of the square
        # of the fully labeled refinement, which squares to itself.
        h = PLG(P3, {1: 0})
        full = PLG(P3, {1: 0, 2: 1, 3: 2})
        ifull = ind(full)
        assert product(ifull, ifull) == ifull
        lines = [
            ProofLine(ifull, "A1", (ifull,)),
            ProofLine(ind(h), "R3", (1, frozenset({1}))),
        ]
        assert check_cs_proof(lines, ind(h))

    def test_ind_squares_against_the_glued_route(self):
        # A1 on an IndAtom and a (prod (ind F) (ind G)) statement both go
        # through the ind overlap products of expand; accept exactly when
        # the glued product of the expansions agrees.
        rng = random.Random(29)
        pool = [PLG(g, dict(zip(labels, range(g.n))))
                for n in range(1, 5) for g in enumerate_graphs(n)
                for labels in ((), (1,), (2, 1), (1, 2, 3), (3, 1, 2, 4))
                if len(labels) <= n and (n < 4 or len(labels) == 4)]
        seen = set()
        for _ in range(60):
            f, g = rng.choice(pool), rng.choice(pool)
            stated = parse_qexpr(f"(prod (ind {format_plg(f)}) (ind {format_plg(g)}))")
            want = product(ind(f), ind(g)) == product(ind(f), ind(f))
            line = ProofLine(stated, "A1", (stated.children[0],))
            assert check_cs_proof([line], stated) == want, (f, g)
            seen.add(want)
        assert seen == {True, False}

    def test_scaling_and_addition(self):
        sq_e = product(as_quantum(EDGE_1), as_quantum(EDGE_1))
        sq_p = product(as_quantum(POINT_1), as_quantum(POINT_1))
        lines = [
            ProofLine(sq_e, "A1", (EDGE_1,)),
            ProofLine(sq_p, "A1", (POINT_1,)),
            ProofLine(2 * sq_e + F(1, 3) * sq_p, "R1", (1, 2, F(2), F(1, 3))),
        ]
        assert check_cs_proof(lines, 2 * sq_e + F(1, 3) * sq_p)

    def test_negative_scaling_is_rejected(self):
        sq_e = product(as_quantum(EDGE_1), as_quantum(EDGE_1))
        sq_p = product(as_quantum(POINT_1), as_quantum(POINT_1))
        lines = [
            ProofLine(sq_e, "A1", (EDGE_1,)),
            ProofLine(sq_p, "A1", (POINT_1,)),
            ProofLine(-1 * sq_e, "R1", (1, 2, F(-1), F(0))),
        ]
        assert not check_cs_proof(lines, -1 * sq_e)

    def test_products_of_earlier_lines(self):
        sq_e = product(as_quantum(EDGE_1), as_quantum(EDGE_1))
        lines = [
            ProofLine(sq_e, "A1", (EDGE_1,)),
            ProofLine(product(sq_e, sq_e), "R2", (1, 1)),
        ]
        assert check_cs_proof(lines, product(sq_e, sq_e))

    def test_products_check_the_budget_before_gluing(self):
        """R2 and A1 refuse a product whose glued pairs exceed the budget
        before building any of them; at that many pairs they go through."""
        f = as_quantum(EDGE_1) + as_quantum(POINT_1) + as_quantum(FULL_EDGE)
        sq = product(f, f)
        lines = [ProofLine(sq, "A1", (f,)), ProofLine(product(sq, sq), "R2", (1, 1))]
        pairs = len(sq.terms) ** 2
        assert check_cs_proof(lines, product(sq, sq), budget=pairs)
        with pytest.raises(BudgetExceeded, match=f"exceeds {pairs - 1}"):
            check_cs_proof(lines, product(sq, sq), budget=pairs - 1)
        with pytest.raises(BudgetExceeded, match="product of 3 by 3 terms exceeds 8"):
            check_cs_proof(lines[:1], sq, budget=8)
        with pytest.raises(BudgetExceeded, match="product of 3 by 3 terms exceeds 8"):
            verify_sos(sq, [f], budget=8)

    def test_term_list_operand_is_lifted_once(self, canonical_calls, monkeypatch):
        """A1 on a term list lifts it once, so both factors of the square
        share one tree, which the product expands once.  Beyond the same
        check on its normal form, the operand costs the canonical
        labelings of one expand of it.  Each record memoizes its
        canonical form, so each count reads a fresh term list."""
        text = (
            "1 * plg n=2 labels=1:1 edges=1-2\n"
            "1/2 * plg n=3 labels=1:1 edges=1-2;2-3\n"
            "-1 * plg n=3 labels=2:1 edges=1-2;1-3\n"
        )
        nf = expand(load_expression(text))
        sq = product(nf, nf)
        del canonical_calls[:]
        expand(load_expression(text))
        once = len(canonical_calls)
        factors = []
        original = algebra.expand
        monkeypatch.setattr(algebra, "expand", lambda e, budget: factors.append(e) or original(e, budget))
        calls = []
        for operand in (load_expression(text), nf):
            del canonical_calls[:]
            assert check_cs_proof([ProofLine(sq, "A1", (operand,))], sq)
            calls.append(len(canonical_calls))
            assert len(factors) == len(calls)
        assert calls[0] - calls[1] == once == 3

    @pytest.mark.parametrize(
        "h, full, T, calls",
        [
            ("plg n=4 labels=1:1 edges=1-2;1-4;2-3",
             "plg n=4 labels=1:1,2:2,3:3,4:4 edges=1-2;1-4;2-3", "1", 25),
            ("plg n=4 edges=1-2", "plg n=4 labels=1:1,2:2,3:3,4:4 edges=1-2", "", 98),
        ],
        ids=["P4", "K2+2K1"],
    )
    def test_rules_read_statements_not_normal_forms(self, canonical_calls, monkeypatch,
                                                    h, full, T, calls):
        """The certify benchmark's proof shape: the square of a fully
        labeled ind atom by A1, then ind h by R3.  R3 builds on line 1's
        statement as written, so no normal form is lifted back into an
        expression, and the canonical labelings of the check and the
        claim's parse stay at their count.  Line 1's statement is its A1
        expression and the claim is line 2's statement, so three distinct
        expressions are expanded, each once.  Raw terms merge once their
        isolated vertices are stripped, before any is canonicalized: for
        K2+2K1 the unlabeled expansions take 98 calls, where one call per
        raw term took 104."""
        proof = parse_cs_proof(
            f"1: (prod (ind {full}) (ind {full})) ; by A1((ind {full}))\n"
            f"2: (ind {h}) ; by R3(1, T={T})\n"
        )
        lifted = []
        original = certificates._as_qexpr

        def counting(x):
            lifted.append(len(x.terms) if isinstance(x, QuantumGraph) else 0)
            return original(x)

        monkeypatch.setattr(certificates, "_as_qexpr", counting)
        del canonical_calls[:]
        assert check_cs_proof(proof, load_expression(f"(ind {h})"))
        assert (sum(lifted), len(canonical_calls)) == (0, calls)

    def test_equal_expressions_expand_once(self, canonical_calls):
        """A square stated as A1 builds it, `f^2 ; by A1(f)`, and claimed
        as stated, costs the canonical labelings of one expansion of f*f:
        the rule expression and the claim equal the statement."""
        f = "(sum (ind plg n=3 labels=1:1 edges=1-2) (prod (q -1/2) (g plg n=3 labels=1:1,2:2 edges=1-2;2-3)))"
        proof = parse_cs_proof(f"1: (prod {f} {f}) ; by A1({f})\n")
        square = parse_qexpr(f"(prod {f} {f})")
        del canonical_calls[:]
        expand(square)
        once = len(canonical_calls)
        del canonical_calls[:]
        assert check_cs_proof(proof, square)
        assert len(canonical_calls) == once > 0

    def test_sum_and_unlabel_lines_respect_the_budget(self):
        """Each A1 line glues one pair, and the R1 and R3 lines have 2
        terms: either proof is accepted at budget 2 and exceeds budget 1.
        With a wrong one-term R1 statement, R1's own expression exceeds it."""
        sq_e = product(as_quantum(EDGE_1), as_quantum(EDGE_1))
        full = as_quantum(FULL_EDGE)
        lines = [
            ProofLine(sq_e, "A1", (EDGE_1,)),
            ProofLine(full, "A1", (FULL_EDGE,)),
            ProofLine(sq_e + full, "R1", (1, 2, 1, 1)),
            ProofLine(as_quantum(P3) + as_quantum(K2), "R3", (3, frozenset())),
        ]
        for proof in (lines[:3], lines):
            claim = proof[-1].statement
            assert len(claim.terms) == 2
            assert check_cs_proof(proof, claim, budget=2)
            with pytest.raises(BudgetExceeded, match="expansion exceeded 1 terms"):
                check_cs_proof(proof, claim, budget=1)
        wrong = lines[:2] + [ProofLine(sq_e, "R1", (1, 2, 1, 1))]
        assert not check_cs_proof(wrong, sq_e, budget=2)
        with pytest.raises(BudgetExceeded, match="expansion exceeded 1 terms"):
            check_cs_proof(wrong, sq_e, budget=1)

    def test_cauchy_schwarz_axiom_line(self):
        inst = cs_instance(EDGE_1, NONEDGE_1, frozenset())
        lines = [ProofLine(expand(inst), "A2", (EDGE_1, NONEDGE_1, frozenset()))]
        assert check_cs_proof(lines, expand(inst))

    def test_forward_reference_raises(self):
        sq = product(as_quantum(EDGE_1), as_quantum(EDGE_1))
        lines = [ProofLine(unlabel(sq, ()), "R3", (1, frozenset()))]
        with pytest.raises(ValueError):
            check_cs_proof(lines, unlabel(sq, ()))

    def test_operand_count_is_checked(self):
        with pytest.raises(ValueError, match="^R2 takes i,i$"):
            ProofLine(as_quantum(P3), "R2", (1,))

    def test_empty_proof_raises(self):
        with pytest.raises(ValueError):
            check_cs_proof([], as_quantum(P3))

    def test_accepted_statements_are_nonnegative_everywhere_small(self):
        # soundness spot check: every line of every accepted proof here
        # evaluates nonnegatively on all graphs with up to 4 vertices
        h = PLG(P3, {1: 0})
        full = PLG(P3, {1: 0, 2: 1, 3: 2})
        accepted = p3_proof() + [
            ProofLine(ind(full), "A1", (ind(full),)),
            ProofLine(ind(h), "R3", (1, frozenset({1}))),
        ]
        for line in accepted:
            stated = line.statement if isinstance(line.statement, QuantumGraph) else expand(line.statement)
            for g in targets_up_to(4):
                for phi in all_root_maps(stated.label_set(), g):
                    assert t_quantum(stated, g, phi) >= 0


class TestProofFormat:
    TWO_LINE = (
        "# path positivity\n"
        "1: (prod (g plg n=2 labels=1:1 edges=1-2) (g plg n=2 labels=1:1 edges=1-2))"
        " ; by A1((g plg n=2 labels=1:1 edges=1-2))\n"
        "2: 1 * plg n=3 edges=1-2;2-3 ; by R3(1, T=)\n"
    )

    def test_parse_and_check_the_path_proof(self):
        lines = parse_cs_proof(self.TWO_LINE)
        assert [l.rule for l in lines] == ["A1", "R3"]
        assert check_cs_proof(lines, as_quantum(P3))

    def test_bare_plg_operands_parse(self):
        text = (
            "1: 1 * plg n=3 labels=1:1 edges=1-2;1-3"
            " ; by A1(plg n=2 labels=1:1 edges=1-2)\n"
            "2: 1 * plg n=3 edges=1-2;2-3 ; by R3(1, T=)\n"
        )
        lines = parse_cs_proof(text)
        assert check_cs_proof(lines, as_quantum(P3))

    def test_statement_files_resolve_through_references(self):
        inst = cs_instance(EDGE_1, NONEDGE_1, frozenset({1}))
        files = {
            "inst.qx": format_qexpr(inst),
            "f1.qx": "(g plg n=2 labels=1:1 edges=1-2)",
            "f2.qx": "(g plg n=2 labels=1:1)",
        }
        text = "1: @inst.qx ; by A2(@f1.qx, @f2.qx, T=1)\n"
        lines = parse_cs_proof(text, resolve=files.__getitem__)
        assert check_cs_proof(lines, expand(inst))

    def test_references_need_a_resolver(self, tmp_path, monkeypatch):
        """With no resolver an @file operand is refused with its line, even
        when the file is in the working directory."""
        (tmp_path / "f.qx").write_text("(g plg n=2 labels=1:1 edges=1-2)\n")
        monkeypatch.chdir(tmp_path)
        statement = "1: @f.qx ; by A1((g plg n=1))\n"
        operand = "1: (g plg n=1) ; by A1((g plg n=1))\n2: (g plg n=1) ; by A1(@f.qx)\n"
        for text, line in ((statement, 1), (operand, 2)):
            with pytest.raises(FormatError) as exc:
                parse_cs_proof(text)
            assert str(exc.value) == f"no resolver for the reference '@f.qx' (line {line})"

    def test_rational_rule_arguments(self):
        text = (
            "1: (prod (g plg n=2 labels=1:1 edges=1-2) (g plg n=2 labels=1:1 edges=1-2))"
            " ; by A1((g plg n=2 labels=1:1 edges=1-2))\n"
            "2: (prod (q 5/2) (prod (g plg n=2 labels=1:1 edges=1-2) (g plg n=2 labels=1:1 edges=1-2)))"
            " ; by R1(1, 1, 2, 1/2)\n"
        )
        lines = parse_cs_proof(text)
        assert lines[1].args == (1, 1, F(2), F(1, 2))
        claimed = F(5, 2) * product(as_quantum(EDGE_1), as_quantum(EDGE_1))
        assert check_cs_proof(lines, claimed)

    def test_misnumbered_lines_are_rejected(self):
        with pytest.raises(FormatError):
            parse_cs_proof("2: (g plg n=1) ; by A1((g plg n=1))\n")

    def test_missing_justification(self):
        with pytest.raises(FormatError):
            parse_cs_proof("1: (g plg n=1)\n")

    def test_unknown_rule_reports_the_line(self):
        try:
            parse_cs_proof("1: (g plg n=1) ; by A7((g plg n=1))\n")
        except FormatError as exc:
            assert exc.line == 1
        else:
            pytest.fail("expected FormatError")

    def test_empty_text(self):
        with pytest.raises(FormatError):
            parse_cs_proof("# nothing here\n")

    @pytest.mark.parametrize(
        "rule, message",
        [
            ("A1((g plg n=1), (g plg n=1))", "A1 takes f"),
            ("A2((g plg n=1), T=)", "A2 takes f,f,T"),
            ("R1(1, 1, 2)", "R1 takes i,i,q,q"),
            ("R1(1, 1, 2, 1, 1)", "R1 takes i,i,q,q"),
            ("R2(1)", "R2 takes i,i"),
            ("R3(1)", "R3 takes i,T"),
            ("R1(1, 1, a, 1)", "bad R1 arguments"),
            ("R2(1, x)", "bad R2 arguments"),
            ("R3(x, T=)", "bad R3 arguments"),
            ("R3(1, 1)", "expected T=<labels>"),
            ("A2((g plg n=1), (g plg n=1), T=1, y)", "bad label 'y'"),
        ],
    )
    def test_operand_errors_name_the_rule_and_line(self, rule, message):
        """The operand kinds in `RULES` drive the parser: an arity error
        lists them, and an operand that is not its kind names the rule."""
        text = "1: (g plg n=1) ; by A1((g plg n=1))\n2: (g plg n=1) ; by " + rule + "\n"
        with pytest.raises(FormatError) as exc:
            parse_cs_proof(text)
        assert str(exc.value) == f"{message} (line 2)"


class TestMomentMatrix:
    def test_rooted_point_and_edge_at_the_single_edge(self):
        M = moment_matrix(K2, [POINT_1, EDGE_1])
        assert M == ((F(1), F(1, 2)), (F(1, 2), F(1, 4)))
        assert is_psd(M)

    def test_empty_pattern_basis(self):
        M = moment_matrix(K3, [PLG(Graph(0), {})])
        assert M == ((F(1),),)
        assert is_psd(M)

    def test_triangle_with_all_small_rooted_patterns(self):
        basis = [
            POINT_1,
            NONEDGE_1,
            EDGE_1,
        ]
        M = moment_matrix(K3, basis)
        assert is_psd(M)
        for row in M:
            for x in row:
                assert 0 <= x <= 1

    def test_entries_are_symmetric_and_reorder_consistently(self):
        basis = [POINT_1, EDGE_1, NONEDGE_1]
        M = moment_matrix(P3, basis)
        for i in range(3):
            for j in range(3):
                assert M[i][j] == M[j][i]
        perm = [2, 0, 1]
        N = moment_matrix(P3, [basis[p] for p in perm])
        for i in range(3):
            for j in range(3):
                assert N[i][j] == M[perm[i]][perm[j]]


class TestIsPsd:
    def test_gram_matrices_pass(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 4)
            a = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            gram = [
                [sum(a[r][i] * a[r][j] for r in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert is_psd(gram)

    def test_indefinite_and_negative_matrices_fail(self):
        assert not is_psd([[F(1), F(2)], [F(2), F(1)]])
        assert not is_psd([[F(-1)]])
        assert not is_psd([[F(0), F(1)], [F(1), F(1)]])

    def test_zero_blocks_pass(self):
        assert is_psd([[F(0), F(0)], [F(0), F(1)]])
        assert is_psd([[F(0)]])

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            is_psd([[F(1), F(0)]])
        with pytest.raises(ValueError):
            is_psd([[F(1), F(2)], [F(3), F(1)]])


class TestRefute:
    def test_goodman_bound_has_no_small_witness(self):
        assert refute(GOODMAN, max_n=6, samples=100, seed=1) is None

    def test_negated_edge_is_refuted_by_the_edge(self):
        w = refute(-as_quantum(K2), max_n=5)
        assert isinstance(w, Graph)
        assert w.n == 2 and len(w.edges) == 1
        assert t_quantum(-as_quantum(K2), w) == F(-1, 2)

    def test_triangle_minus_edge_is_refuted(self):
        w = refute(as_quantum(K3) - as_quantum(K2), max_n=5)
        assert w is not None
        assert t_quantum(as_quantum(K3) - as_quantum(K2), w) < 0

    def test_deterministic_in_the_seed(self):
        target = as_quantum(K3) - as_quantum(K2)
        assert refute(target, max_n=4, samples=30, seed=5) == refute(
            target, max_n=4, samples=30, seed=5
        )

    def test_weighted_phase_finds_nonuniform_witnesses(self):
        # x^2 - x/2 in the edge density: zero at every uniform target with
        # at most 2 vertices, negative when the two weights differ
        union = as_quantum(Graph(4, [(0, 1), (2, 3)]))
        target = union - F(1, 2) * as_quantum(K2)
        w = refute(target, max_n=2, samples=300, seed=3)
        assert isinstance(w, WeightedGraph)
        value = t_quantum(target, w)
        assert value < 0
        blown = integer_witness(w)
        assert t_quantum(target, blown) == value

    def test_never_reports_a_nonnegative_witness(self):
        rng = random.Random(99)
        patterns = [as_quantum(K2), as_quantum(K3), as_quantum(P3), QuantumGraph.unit()]
        for _ in range(20):
            target = QuantumGraph()
            for p in patterns:
                target = target + F(rng.randint(-2, 2), rng.randint(1, 3)) * p
            w = refute(target, max_n=3, samples=40, seed=11)
            if w is not None:
                assert t_quantum(target, w) < 0

    def test_labeled_targets_are_rejected(self):
        with pytest.raises(ValueError):
            refute(QuantumGraph.of(EDGE_1), max_n=3)

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ({"max_n": 0, "samples": 3}, "max_n must be at least 1, got 0"),
            ({"max_n": -2}, "max_n must be at least 1, got -2"),
            ({"samples": -1}, "samples must be at least 0, got -1"),
        ],
    )
    def test_search_sizes_are_checked(self, sizes, message):
        with pytest.raises(ValueError) as exc:
            refute(parse_qexpr("(q -1)"), **sizes)
        assert str(exc.value) == message

    @pytest.mark.parametrize("target", [-as_quantum(K2), as_quantum(P3)], ids=["negative", "nonnegative"])
    def test_max_n_past_the_enumeration_cap_is_refused_before_scanning(self, target, monkeypatch):
        def scan(*_):
            raise AssertionError("scanned")

        monkeypatch.setattr(certificates, "_scan_exhaustive", scan)
        monkeypatch.setattr(certificates, "_scan_random", scan)
        for max_n in (8, 9):
            with pytest.raises(CapExceeded, match=f"max_n must be at most 7, got {max_n}"):
                refute(target, max_n=max_n, samples=0)

    def test_term_lists_refute_as_their_normal_forms(self):
        # K3 - K2 written with a relabeled duplicate, an isolated vertex and
        # labeled terms that cancel
        text = (
            "1/2 * plg n=3 edges=1-2;1-3;2-3\n"
            "1/2 * plg n=4 edges=2-3;2-4;3-4\n"
            "-1 * plg n=2 edges=1-2\n"
            "1 * plg n=2 labels=1:1 edges=1-2\n"
            "-1 * plg n=2 labels=1:2 edges=1-2\n"
        )
        nf = parse_quantum(text)
        assert nf == as_quantum(K3) - as_quantum(K2)
        raw = load_expression(text)
        for sizes in ({"max_n": 2, "samples": 0}, {"max_n": 4, "samples": 5}):
            w = refute(raw, **sizes)
            assert w == refute(nf, **sizes) == K2
            assert t_quantum(raw, w) == t_quantum(nf, w) < 0
        # x^2 - x/2 in the edge density, the edge written twice: only the
        # weighted phase finds a witness
        text = "1 * plg n=4 edges=1-2;3-4\n-1/4 * plg n=2 edges=1-2\n-1/4 * plg n=3 edges=2-3\n"
        raw = load_expression(text)
        w = refute(raw, max_n=2, samples=300, seed=3)
        assert isinstance(w, WeightedGraph)
        assert w == refute(parse_quantum(text), max_n=2, samples=300, seed=3)
        assert t_quantum(raw, w) == t_quantum(parse_quantum(text), w) < 0
        with pytest.raises(ValueError) as exc:
            refute(load_expression(text + "1 * plg n=2 labels=2:1 edges=1-2\n"))
        assert str(exc.value) == "target carries labels [2], expected none"


class TestIntegerWitness:
    def test_zero_weight_vertices_are_dropped(self):
        W = WeightedGraph(P3, [F(1, 2), F(1, 2), F(0)])
        g = integer_witness(W)
        assert g.n == 2 and len(g.edges) == 1
        for target in (as_quantum(K2), as_quantum(K3), as_quantum(P3)):
            assert t_quantum(target, W) == t_quantum(target, g)

    def test_densities_match_exactly_at_random(self):
        rng = random.Random(4242)
        targets = [as_quantum(K2), as_quantum(K3), as_quantum(P3), GOODMAN]
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 4))
            W = WeightedGraph(g, random_distribution(rng, g.n))
            blown = integer_witness(W)
            for target in targets:
                assert t_quantum(target, W) == t_quantum(target, blown)


class TestSoundness:
    def test_verified_targets_have_no_refutation(self):
        targets = [
            (as_quantum(P3), [EDGE_1]),
            (as_quantum(K2), [FULL_EDGE]),
            (
                as_quantum(P3)
                + unlabel(product(as_quantum(POINT_1), as_quantum(POINT_1)), ()),
                [EDGE_1, POINT_1],
            ),
        ]
        for target, cert in targets:
            assert verify_sos(target, cert)
            assert refute(target, max_n=5, samples=50, seed=2) is None
