import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import homdens
from homdens import certificates, cli
from homdens.algebra import load_expression, parse_quantum
from homdens.cli import main
from homdens.density import compiled_density, parse_weighted_graph, t_quantum
from homdens.graphs import (
    CANONICAL_NODE_CAP,
    VERTEX_CAP,
    Graph,
    PartiallyLabeledGraph as PLG,
    enumerate_graphs,
    format_plg,
    is_stringent,
    parse_plg,
)
from homdens.polynomials import DEGREE_CAP, Polynomial, format_poly

VARS6 = ("x1", "x2", "x3", "x4", "x5", "x6")
# The counterexample as the unlabeled clone image of its polynomial.
STRUCTURED_X = (
    "(unlabel () (phi plg n=6 labels=1:1,2:2,3:3,4:4,5:5,6:6 "
    "edges=1-2;1-3;2-3;2-6;3-4;3-6;4-5;5-6 | poly vars=x1,x2,x3,x4,x5,x6 ; "
    "1*x2^2*x3 + -3*x2*x3*x4 + 1*x2*x4^2 + 1*x3^2*x4))"
)


def run_process(argv):
    """Run the interpreter on argv with this package's source directory on
    the child's PYTHONPATH, which pytest's own path setting does not reach."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(homdens.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines_of(out):
    return dict(line.split("=", 1) for line in out.strip().splitlines())


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def plg_text(g):
    return format_plg(PLG(g)) + "\n"


class TestDensity:
    def test_edge_in_triangle(self, capsys, files):
        target = files("K3.plg", plg_text(Graph.complete(3)))
        pattern = files("K2.plg", plg_text(Graph.complete(2)))
        code, out, _ = run(capsys, "density", "--target", target, "--in", pattern)
        assert code == 0
        assert out == "t=2/3\n"

    def test_rooted_pattern(self, capsys, files):
        target = files("K3.plg", plg_text(Graph.complete(3)))
        pattern = files("e1.plg", "plg n=2 labels=1:1 edges=1-2\n")
        code, out, _ = run(
            capsys, "density", "--target", target, "--in", pattern, "--root", "1:2"
        )
        assert code == 0
        assert lines_of(out)["t"] == "2/3"

    def test_quantum_term_list_pattern(self, capsys, files):
        target = files("K2.plg", plg_text(Graph.complete(2)))
        pattern = files(
            "f.qg", "1/2 * plg n=2 edges=1-2\n-1 * plg n=1\n"
        )
        code, out, _ = run(capsys, "density", "--target", target, "--in", pattern)
        assert code == 0
        assert lines_of(out)["t"] == "-3/4"

    def test_malformed_target_exits_2(self, capsys, files):
        target = files("bad.plg", "plg n=two\n")
        pattern = files("K2.plg", plg_text(Graph.complete(2)))
        code, _, err = run(capsys, "density", "--target", target, "--in", pattern)
        assert code == 2
        assert "error:" in err

    def test_term_lists_are_never_canonicalized(self, capsys, files, canonical_calls):
        # Duplicates up to isomorphism, an isolated vertex and a term that
        # cancels: evaluation reads the records as written.
        text = (
            "1 * plg n=3 edges=1-2;1-3;2-3\n"
            "-1/2 * plg n=3 edges=1-2\n"
            "-1/2 * plg n=2 edges=1-2\n"
            "2 * plg n=3 edges=1-2;2-3\n"
            "-2 * plg n=3 edges=1-3;2-3\n"
        )
        target = files("t.qg", text)
        for n in range(1, 4):
            enumerate_graphs(n)
        del canonical_calls[:]
        code, out, _ = run(capsys, "refute", "--in", target, "--max-n", "3", "--samples", "5")
        assert (code, lines_of(out)["witness"], lines_of(out)["value"]) == (1, "plg n=2 edges=1-2", "-1/2")
        density = compiled_density(load_expression(text))
        assert density(Graph.complete(2)) < 0
        assert canonical_calls == []
        nf = parse_quantum(text)
        del canonical_calls[:]
        for g in enumerate_graphs(3):
            assert density(g) == t_quantum(nf, g)
        assert canonical_calls == []

    def test_labeled_target_exits_2(self, capsys, files):
        target = files("lab.plg", "plg n=2 labels=1:1 edges=1-2\n")
        pattern = files("K2.plg", plg_text(Graph.complete(2)))
        code, _, err = run(capsys, "density", "--target", target, "--in", pattern)
        assert code == 2
        assert "labels" in err


    def test_root_out_of_range_is_named_1_based(self, capsys, files):
        target = files("K3.plg", plg_text(Graph.complete(3)))
        pattern = files("e1.plg", "plg n=2 labels=1:1 edges=1-2\n")
        code, out, err = run(
            capsys, "density", "--target", target, "--in", pattern, "--root", "1:5"
        )
        assert code == 2
        assert out == ""
        assert err == "error: root image 5 outside the target graph\n"

    def test_ind_root_out_of_range_exits_2(self, capsys, files):
        target = files("K3.plg", plg_text(Graph.complete(3)))
        expr = files("e1.qx", "(ind plg n=2 labels=1:1 edges=1-2)\n")
        code, _, err = run(capsys, "eval", "--target", target, "--in", expr, "--root", "1:4")
        assert code == 2
        assert err == "error: root image 4 outside the target graph\n"

    @pytest.mark.parametrize(
        "text",
        [
            # 0 at every root map: its factors disagree on the pair 1-2.
            "(unlabel (1) (prod (ind plg n=2 labels=1:1,2:2 edges=1-2) (ind plg n=2 labels=1:1,2:2)))",
            "(prod (q 0) (g plg n=2 labels=1:1 edges=1-2))",
        ],
    )
    def test_structured_root_out_of_range_exits_2(self, capsys, files, text):
        target = files("K3.plg", plg_text(Graph.complete(3)))
        expr = files("z.qx", text + "\n")
        code, out, err = run(capsys, "density", "--target", target, "--in", expr, "--root", "1:9")
        assert (code, out, err) == (2, "", "error: root image 9 outside the target graph\n")

    @pytest.mark.parametrize("command", ["density", "eval"])
    @pytest.mark.parametrize(
        "name, text",
        [
            ("l1.plg", "plg n=1 labels=1:1\n"),
            # Reading strips the labeled vertex, and its label with it.
            ("l1.qg", "1 * plg n=3 labels=1:1 edges=2-3\n"),
            ("l1.qx", "(g plg n=1 labels=1:1)\n"),
        ],
    )
    def test_root_of_an_isolated_label_is_checked(self, capsys, files, command, name, text):
        target = files("K3.plg", plg_text(Graph.complete(3)))
        pattern = files(name, text)
        code, out, err = run(capsys, command, "--target", target, "--in", pattern, "--root", "1:99")
        assert (code, out, err) == (2, "", "error: root image 99 outside the target graph\n")

    def test_root_of_a_label_the_input_lacks_is_checked(self, capsys, files):
        target = files("K3.plg", plg_text(Graph.complete(3)))
        pattern = files("e1.plg", "plg n=2 labels=1:1 edges=1-2\n")
        code, out, err = run(capsys, "density", "--target", target, "--in", pattern, "--root", "1:1,2:7")
        assert (code, out, err) == (2, "", "error: root image 7 outside the target graph\n")
        code, out, _ = run(capsys, "density", "--target", target, "--in", pattern, "--root", "1:1,2:3")
        assert (code, out) == (0, "t=2/3\n")


class TestStringent:
    def test_construct_and_verify(self, capsys, files, tmp_path):
        out_path = str(tmp_path / "H.plg")
        code, out, _ = run(capsys, "stringent", "--k", "6", "--out", out_path)
        assert code == 0
        kv = lines_of(out)
        assert kv["n"] == "6"
        g = parse_plg((tmp_path / "H.plg").read_text().strip()).graph
        assert is_stringent(g)


class TestReductionPipeline:
    def test_negative_instance_end_to_end(self, capsys, files, tmp_path):
        p = Polynomial(VARS6, {(0,) * 6: F(1), (1, 0, 0, 0, 0, 0): F(-2)})
        poly = files("p.poly", format_poly(p) + "\n")
        inst = str(tmp_path / "inst.qx")
        wit = str(tmp_path / "G.plg")

        code, out, _ = run(capsys, "reduce", "--poly", poly, "--out", inst)
        assert code == 0

        code, out, _ = run(capsys, "witness", "--poly", poly, "--sizes", "3,1,1,1,1,1", "--out", wit)
        assert code == 0
        assert lines_of(out)["n"] == "8"

        code, out, _ = run(capsys, "eval", "--in", inst, "--target", wit)
        assert code == 1
        assert F(lines_of(out)["value"]) == -F(3**105, 2**2016)

    def test_nonnegative_instance_exits_0(self, capsys, files, tmp_path):
        p = Polynomial(VARS6, {(1, 0, 0, 0, 0, 0): F(1)})
        poly = files("q.poly", format_poly(p) + "\n")
        inst = str(tmp_path / "inst.qx")
        run(capsys, "reduce", "--poly", poly, "--out", inst)
        target = files("C5.plg", plg_text(Graph.cycle(5)))
        code, out, _ = run(capsys, "eval", "--in", inst, "--target", target)
        assert code == 0
        assert lines_of(out)["value"] == "0"

    def test_reduce_output_is_byte_deterministic(self, capsys, files, tmp_path):
        p = Polynomial(VARS6, {(0,) * 6: F(1), (1, 0, 0, 0, 0, 0): F(-2)})
        poly = files("p.poly", format_poly(p) + "\n")
        a, b = str(tmp_path / "a.qx"), str(tmp_path / "b.qx")
        run(capsys, "reduce", "--poly", poly, "--out", a)
        run(capsys, "reduce", "--poly", poly, "--out", b)
        assert (tmp_path / "a.qx").read_bytes() == (tmp_path / "b.qx").read_bytes()

    def test_commands_past_the_vertex_cap_exit_2(self, capsys, files):
        """Each building command checks the cap before it allocates; one
        vertex past it is refused with a single error line."""
        over = VERTEX_CAP + 1
        message = f"error: graphs are built with at most {VERTEX_CAP} vertices, got {over}\n"
        p = Polynomial(VARS6, {(0,) * 6: F(1), (1, 0, 0, 0, 0, 0): F(-2)})
        poly = files("p.poly", format_poly(p) + "\n")
        sizes = ",".join(str(c) for c in (over - 5, 1, 1, 1, 1, 1))
        for argv in (
            ["stringent", "--k", str(over)],
            ["reduce", "--poly", poly, "--k", str(over)],
            ["witness", "--poly", poly, "--sizes", sizes],
        ):
            assert run(capsys, *argv) == (2, "", message), argv

    def test_oversized_records_exit_2(self, capsys, files):
        """A record's vertex count is checked against the cap before the
        graph is built, as a pattern, a target or a weighted target."""
        big = 10**12
        message = f"error: graphs are built with at most {VERTEX_CAP} vertices, got {big}\n"
        huge = files("huge.plg", f"plg n={big} edges=1-2\n")
        heavy = files("heavy.plg", f"plg n={big} weights=1\n")
        edge = files("edge.plg", "plg n=2 edges=1-2\n")
        for argv in (
            ["eval", "--in", edge, "--target", huge],
            ["eval", "--in", edge, "--target", heavy],
            ["eval", "--in", huge, "--target", edge],
            ["density", "--in", huge, "--target", edge],
        ):
            assert run(capsys, *argv) == (2, "", message), argv

    def test_degree_past_the_cap_exits_2_at_once(self, capsys, files):
        """`parse_poly` refuses the exponent by its length before it reads
        the digits, so no power is ever taken: for `reduce`, for `witness`
        and for a polynomial inside an expression."""
        body = "1*x1^999999999 + -2"
        poly = files("p.poly", f"poly vars=x1,x2,x3,x4,x5,x6 ; {body}\n")
        expr = files("f.qx", STRUCTURED_X.split(" ; ")[0] + f" ; {body}))\n")
        edge = files("K2.plg", plg_text(Graph.complete(2)))
        message = f"error: exponent of x1 exceeds the degree cap {DEGREE_CAP}\n"
        for argv in (
            ["reduce", "--poly", poly],
            ["witness", "--poly", poly, "--sizes", "2,1,1,1,1,1"],
            ["eval", "--in", expr, "--target", edge],
        ):
            start = time.perf_counter()
            assert run(capsys, *argv) == (2, "", message), argv
            assert time.perf_counter() - start < 1, argv

    def test_values_print_at_any_length(self, capsys, files, tmp_path):
        """This value has more digits than the interpreter turns into text
        by default.  It prints whole, and the limit, which guards reading
        digits, is in force again once `main` returns."""
        limit = sys.get_int_max_str_digits()
        p = Polynomial(VARS6, {(0,) * 6: F(-2), (150, 0, 0, 0, 0, 0): F(1)})
        poly = files("p.poly", format_poly(p) + "\n")
        inst, wit = tmp_path / "inst.qx", tmp_path / "G.plg"
        assert run(capsys, "reduce", "--poly", poly, "--out", str(inst))[0] == 0
        assert run(capsys, "witness", "--poly", poly, "--sizes", "40,1,1,1,1,1", "--out", str(wit))[0] == 0
        code, out, err = run(capsys, "eval", "--in", str(inst), "--target", str(wit))
        assert sys.get_int_max_str_digits() == limit
        value = t_quantum(load_expression(inst.read_text()), parse_plg(wit.read_text().strip()).graph)
        assert value < 0 and value.denominator >= 10**limit
        try:
            sys.set_int_max_str_digits(0)
            want = f"value={value}\n"
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out, err) == (1, want, "")

    def test_refusal_names_the_sign_of_a_long_value(self, capsys, files):
        """The grid value here has more digits than the interpreter turns
        into text by default; the refusal names its sign in one line."""
        poly = files("p.poly", "poly vars=x1,x2,x3,x4,x5,x6 ; 1*x1^1000 + 1*x2^1000\n")
        code, out, err = run(capsys, "witness", "--poly", poly, "--sizes", "499,497,1,1,1,1")
        assert (code, out) == (2, "")
        assert err.startswith("error: grid point") and err.count("\n") == 1, err

    def test_cleared_instance_is_refused_by_the_ind_budget(self, capsys, files, tmp_path):
        """verify-sos on the reduce instance of 1 - 2*x1 builds its cleared
        polynomial, 134462 terms of degree 37, before the budget refuses
        the ind expansion of its first monomial."""
        poly = files("p.poly", "poly vars=x1,x2,x3,x4,x5,x6 ; 1 + -2*x1\n")
        inst = str(tmp_path / "inst.qx")
        assert run(capsys, "reduce", "--poly", poly, "--k", "6", "--out", inst)[0] == 0
        cert = files("c.sos", "sos:\ng: (g plg n=2 labels=1:1 edges=1-2)\n")
        message = "error: ind expansion needs 2^1561 terms, budget is 200000\n"
        assert run(capsys, "verify-sos", "--target", inst, "--cert", cert) == (2, "", message)

    def test_bad_sizes_exit_2(self, capsys, files):
        p = Polynomial(VARS6, {(0,) * 6: F(1), (1, 0, 0, 0, 0, 0): F(-2)})
        poly = files("p.poly", format_poly(p) + "\n")
        code, _, err = run(capsys, "witness", "--poly", poly, "--sizes", "3,x")
        assert code == 2
        assert "error:" in err


class TestCertificateCommands:
    def test_verify_sos_accepts_and_rejects(self, capsys, files):
        target = files("P3.qg", "1 * plg n=3 edges=1-2;2-3\n")
        cert = files("c.sos", "sos:\ng: (g plg n=2 labels=1:1 edges=1-2)\n")
        code, out, _ = run(capsys, "verify-sos", "--target", target, "--cert", cert)
        assert code == 0
        assert lines_of(out)["verified"] == "true"

        wrong = files("t.qg", "1 * plg n=2 edges=1-2\n")
        code, out, _ = run(capsys, "verify-sos", "--target", wrong, "--cert", cert)
        assert code == 1
        assert lines_of(out)["verified"] == "false"

    def test_over_budget_square_exits_2(self, capsys, files):
        """A square whose 3 x 3 glued pairs exceed --budget 8 is refused
        before it is glued; at --budget 9 the certificate is checked."""
        target = files("P3.qg", "1 * plg n=3 edges=1-2;2-3\n")
        terms = "(g plg n=2 labels=1:1 edges=1-2) (g plg n=1 labels=1:1) (g plg n=2 edges=1-2)"
        cert = files("c.sos", f"sos:\ng: (sum {terms})\n")
        argv = ["verify-sos", "--target", target, "--cert", cert, "--budget"]
        code, out, err = run(capsys, *argv, "8")
        assert (code, out) == (2, "")
        assert err.endswith("error: product of 3 by 3 terms exceeds 8\n")
        assert run(capsys, *argv, "9")[:2] == (1, "verified=false\n")

    def test_deep_clone_product_is_refused_at_once(self, capsys, files):
        """x1^1000 over H6 glues 1000 clone generators into one trigraph
        with 7 + 3*1000 absent pairs, and the budget refuses it from that
        count."""
        base = STRUCTURED_X.split("(phi ")[1].split(" | ")[0]
        target = files("deep.qx", f"(phi {base} | poly vars=x1 ; 1*x1^1000)\n")
        cert = files("c.sos", "sos:\ng: (g plg n=2 labels=1:1 edges=1-2)\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify-sos", "--target", target, "--cert", cert)
        assert time.perf_counter() - start < 3
        assert (code, out, err) == (2, "", "error: ind expansion needs 2^3007 terms, budget is 200000\n")

    def test_verify_sos_expands_the_structured_counterexample(self, capsys, files):
        """The 175-byte structured x expands within the default budget, each
        monomial's generators glued by the ind product rule, so a
        one-square certificate is checked, and rejected."""
        target = files("x.qx", STRUCTURED_X + "\n")
        cert = files("c.sos", "sos:\ng: (g plg n=2 labels=1:1 edges=1-2)\n")
        code, out, _ = run(capsys, "verify-sos", "--target", target, "--cert", cert)
        assert (code, out) == (1, "verified=false\n")

    def test_verify_sos_malformed_cert_exits_2(self, capsys, files):
        target = files("P3.qg", "1 * plg n=3 edges=1-2;2-3\n")
        cert = files("c.sos", "g: (g plg n=1)\n")
        code, _, err = run(capsys, "verify-sos", "--target", target, "--cert", cert)
        assert code == 2
        assert "sos:" in err

    def test_check_proof_with_file_references(self, capsys, tmp_path):
        (tmp_path / "sq.qx").write_text(
            "(prod (g plg n=2 labels=1:1 edges=1-2) (g plg n=2 labels=1:1 edges=1-2))"
        )
        proof = tmp_path / "proof.txt"
        proof.write_text(
            "1: @sq.qx ; by A1((g plg n=2 labels=1:1 edges=1-2))\n"
            "2: 1 * plg n=3 edges=1-2;2-3 ; by R3(1, T=)\n"
        )
        claim = tmp_path / "claim.qg"
        claim.write_text("1 * plg n=3 edges=1-2;2-3\n")
        code, out, _ = run(capsys, "check-proof", "--in", str(proof), "--claim", str(claim))
        assert code == 0
        kv = lines_of(out)
        assert kv["lines"] == "2" and kv["accepted"] == "true"

        bad_claim = tmp_path / "bad.qg"
        bad_claim.write_text("1 * plg n=3 edges=1-2;1-3;2-3\n")
        code, out, _ = run(capsys, "check-proof", "--in", str(proof), "--claim", str(bad_claim))
        assert code == 1
        assert lines_of(out)["accepted"] == "false"

    def test_check_proof_budget_bounds_sum_and_unlabel_lines(self, capsys, files):
        """The R1 and R3 lines have 2 terms, from term-list statements,
        and each A1 line glues one pair: accepted at --budget 2, exit 2
        with one error line at --budget 1."""
        files("sum.qg", "1 * plg n=3 labels=1:1 edges=1-2;1-3\n1 * plg n=2 labels=1:1,2:2 edges=1-2\n")
        claim = files("c.qg", "1 * plg n=3 edges=1-2;2-3\n1 * plg n=2 edges=1-2\n")
        proof = files("p.txt",
                      "1: 1 * plg n=3 labels=1:1 edges=1-2;1-3 ; by A1(plg n=2 labels=1:1 edges=1-2)\n"
                      "2: (g plg n=2 labels=1:1,2:2 edges=1-2) ; by A1((g plg n=2 labels=1:1,2:2 edges=1-2))\n"
                      "3: @sum.qg ; by R1(1, 2, 1, 1)\n"
                      "4: @c.qg ; by R3(3, T=)\n")
        argv = ["check-proof", "--in", proof, "--claim", claim, "--budget"]
        assert run(capsys, *argv, "2")[:2] == (0, "lines=4\naccepted=true\n")
        code, out, err = run(capsys, *argv, "1")
        assert (code, out) == (2, "")
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            "error: expansion exceeded 1 terms"
        ]

    def test_budget_below_one_exits_2(self, capsys, files):
        target = files("P3.qg", "1 * plg n=3 edges=1-2;2-3\n")
        cert = files("c.sos", "sos:\ng: (g plg n=2 labels=1:1 edges=1-2)\n")
        proof = files("p.txt", "1: 1 * plg n=3 labels=1:1 edges=1-2;1-3 ; by A1(plg n=2 labels=1:1 edges=1-2)\n")
        for argv in (["verify-sos", "--target", target, "--cert", cert],
                     ["check-proof", "--in", proof, "--claim", target]):
            code, out, err = run(capsys, *argv, "--budget", "0")
            assert (code, out) == (2, "")
            assert err.splitlines()[-1] == "error: budget must be at least 1, got 0"

    @pytest.mark.parametrize("alpha", ["1", "-1"])
    def test_check_proof_bad_reference_exits_2_whatever_the_sign(self, capsys, files, alpha):
        proof = files("p.txt",
                      "1: 1 * plg n=3 labels=1:1 edges=1-2;1-3 ; by A1(plg n=2 labels=1:1 edges=1-2)\n"
                      f"2: 1 * plg n=3 edges=1-2;2-3 ; by R1(5, 1, {alpha}, 1)\n")
        claim = files("c.qg", "1 * plg n=3 edges=1-2;2-3\n")
        code, out, err = run(capsys, "check-proof", "--in", proof, "--claim", claim)
        assert (code, out) == (2, "")
        assert err == "error: line 2 references line 5, which is not earlier\n"

    def test_moment_matrix_rows_and_psd(self, capsys, files):
        target = files("K2.plg", plg_text(Graph.complete(2)))
        basis = files("basis.txt", "plg n=1 labels=1:1\nplg n=2 labels=1:1 edges=1-2\n")
        code, out, _ = run(capsys, "moment-matrix", "--target", target, "--basis", basis)
        assert code == 0
        kv = lines_of(out)
        assert kv["size"] == "2"
        assert kv["row1"] == "1,1/2"
        assert kv["row2"] == "1/2,1/4"
        assert kv["psd"] == "true"


class TestEvalReadsTermListsAsWritten:
    TEXT = (
        "1 * plg n=3 labels=1:1,2:3 edges=1-2;2-3\n"
        "-1/2 * plg n=3 labels=2:1,1:3 edges=2-3;1-2\n"
        "1/3 * plg n=4 labels=1:4 edges=1-2\n"
        "3 * plg n=2 labels=3:1,4:2\n"
        "5 * plg n=2 labels=5:1 edges=1-2\n"
        "-5 * plg n=2 labels=5:2 edges=1-2\n"
    )

    @pytest.mark.parametrize("command, key", [("eval", "value"), ("density", "t")])
    def test_values_match_the_normal_form(self, capsys, files, canonical_calls, command, key):
        pattern = files("f.qg", self.TEXT)
        target = files("P4.plg", plg_text(Graph.path(4)))
        nf = parse_quantum(self.TEXT)
        assert nf.label_set() == {1, 2}
        for root, phi in [
            ("1:1,2:2,5:1", {1: 0, 2: 1}),
            ("1:2,2:4,5:3", {1: 1, 2: 3}),
            ("2:3,1:3,5:4", {1: 2, 2: 2}),
            # Label 5 only on terms that cancel: only this root map, which
            # misses it, builds the normal form, as the parent route did.
            ("1:2,2:1", {1: 1, 2: 0}),
        ]:
            want = t_quantum(nf, Graph.path(4), phi)
            del canonical_calls[:]
            code, out, _ = run(capsys, command, "--in", pattern, "--target", target, "--root", root)
            assert out == f"{key}={want}\n"
            assert code == (1 if command == "eval" and want < 0 else 0)
            assert (canonical_calls == []) == ("5:" in root)

    @pytest.mark.parametrize(
        "root, message",
        [
            ("2:1", "root map missing labels [1]"),
            ("1:1,2:9", "root image 9 outside the target graph"),
            ("1:2,1:3", "root label 1 given twice"),
            # No record carries such a label, so it is refused, not ignored.
            ("1:1,2:2,0:1", "root label 0 is not a positive integer"),
            ("-2:1", "root label -2 is not a positive integer"),
        ],
    )
    def test_root_errors_match_the_normal_form(self, capsys, files, root, message):
        pattern = files("f.qg", self.TEXT)
        target = files("P4.plg", plg_text(Graph.path(4)))
        # `--root=`, so that argparse reads a map starting with '-' as its value.
        code, out, err = run(capsys, "eval", "--in", pattern, "--target", target, f"--root={root}")
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestRefuteCommand:
    def test_witness_found_with_value(self, capsys, files):
        target = files("negK2.qg", "-1 * plg n=2 edges=1-2\n")
        code, out, _ = run(capsys, "refute", "--in", target, "--max-n", "3")
        assert code == 1
        kv = lines_of(out)
        assert kv["value"] == "-1/2"
        assert parse_plg(kv["witness"]).graph == Graph.complete(2)

    def test_no_witness_for_a_density(self, capsys, files):
        target = files("P3.qg", "1 * plg n=3 edges=1-2;2-3\n")
        code, out, _ = run(capsys, "refute", "--in", target, "--max-n", "3", "--samples", "30")
        assert code == 0
        assert out == "witness=none\n"

    def test_weighted_witness_reports_integer_blowup(self, capsys, files):
        # zero at uniform targets up to 2 vertices, negative off-uniform
        target = files(
            "t.qg",
            "1 * plg n=4 edges=1-2;3-4\n-1/2 * plg n=2 edges=1-2\n",
        )
        code, out, _ = run(
            capsys, "refute", "--in", target, "--max-n", "2", "--samples", "300", "--seed", "3"
        )
        assert code == 1
        kv = lines_of(out)
        assert "weights=" in kv["witness"]
        assert F(kv["value"]) < 0
        assert F(kv["integer_value"]) == F(kv["value"])

    def test_weighted_witness_values_are_its_densities(self, capsys, files):
        """`value=` and `integer_value=` equal the target's densities at
        the printed graphs."""
        text = "1 * plg n=4 edges=1-2;3-4\n-1/2 * plg n=2 edges=1-2\n"
        target = files("t.qg", text)
        code, out, _ = run(
            capsys, "refute", "--in", target, "--max-n", "2", "--samples", "300", "--seed", "3"
        )
        kv = lines_of(out)
        assert (code, list(kv)) == (1, ["witness", "value", "integer_witness", "integer_value"])
        f = load_expression(text)
        assert F(kv["value"]) == t_quantum(f, parse_weighted_graph(kv["witness"])) < 0
        assert F(kv["integer_value"]) == t_quantum(f, parse_plg(kv["integer_witness"]).graph)

    def test_jobs_print_the_same_bytes_at_a_three_vertex_witness(self, capsys, files):
        target = files("negK3.qg", "-1 * plg n=3 edges=1-2;1-3;2-3\n")
        serial = run(capsys, "refute", "--in", target, "--max-n", "4", "--jobs", "1")
        pooled = run(capsys, "refute", "--in", target, "--max-n", "4", "--jobs", "2")
        assert serial == pooled == (1, "witness=plg n=3 edges=1-2;1-3;2-3\nvalue=-2/9\n", "")

    def test_jobs_do_not_change_the_result(self, capsys, files):
        target = files("t.qg", "1 * plg n=3 edges=1-2;1-3;2-3\n-1 * plg n=2 edges=1-2\n")
        code1, out1, _ = run(capsys, "refute", "--in", target, "--max-n", "4")
        code2, out2, _ = run(capsys, "refute", "--in", target, "--max-n", "4", "--jobs", "2")
        assert (code1, out1) == (code2, out2)

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_exits_2(self, capsys, files, jobs):
        target = files("negK2.qg", "-1 * plg n=2 edges=1-2\n")
        code, out, err = run(capsys, "refute", "--in", target, "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-n", "0", "--samples", "3"], "--max-n must be at least 1, got 0"),
            (["--max-n", "-2"], "--max-n must be at least 1, got -2"),
            (["--samples", "-1"], "--samples must be at least 0, got -1"),
        ],
        ids=["max-n-0", "max-n-negative", "samples-negative"],
    )
    def test_search_flags_out_of_range_exit_2(self, capsys, files, flags, message):
        target = files("negK2.qg", "-1 * plg n=2 edges=1-2\n")
        code, out, err = run(capsys, "refute", "--in", target, *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text", ["-1 * plg n=2 edges=1-2\n", "1 * plg n=3 edges=1-2;2-3\n"],
                             ids=["negative", "nonnegative"])
    def test_max_n_past_the_enumeration_cap_exits_2_before_scanning(self, capsys, files,
                                                                     monkeypatch, text):
        """Neither target is scanned: the negative one would otherwise exit 1
        at its witness, and the nonnegative one scan every graph up to the
        cap before `enumerate_graphs` refused."""
        def scan(*_):
            raise AssertionError("scanned")

        monkeypatch.setattr(certificates, "_scan_exhaustive", scan)
        target = files("t.qg", text)
        for max_n in ("8", "9"):
            code, out, err = run(capsys, "refute", "--in", target, "--max-n", max_n, "--samples", "0")
            assert (code, out, err) == (2, "", f"error: --max-n must be at most 7, got {max_n}\n")

    def test_counterexample_pipeline_finds_nothing_small(self, capsys, files, tmp_path):
        out_path = str(tmp_path / "x.qg")
        code, out, _ = run(capsys, "counterexample", "--k", "6", "--out", out_path)
        assert code == 0
        assert lines_of(out)["terms"] == "11464"
        code, out, _ = run(
            capsys, "refute", "--in", out_path, "--max-n", "1", "--samples", "3"
        )
        assert code == 0
        assert out == "witness=none\n"

    def test_counterexample_structured_form(self, capsys, tmp_path):
        """`--form expr` writes the 175-byte structured x, which `refute`
        reads as it is, and a newline, byte for byte on every run."""
        assert len(STRUCTURED_X.encode()) == 175
        for _ in range(2):
            assert run(capsys, "counterexample", "--form", "expr") == (0, STRUCTURED_X + "\n", "")
        path = str(tmp_path / "x.qx")
        code, out, _ = run(capsys, "counterexample", "--form", "expr", "--out", path)
        assert (code, out) == (0, f"out={path}\n")
        with open(path, "rb") as fh:
            assert fh.read() == (STRUCTURED_X + "\n").encode()
        code, out, _ = run(capsys, "refute", "--in", path, "--max-n", "4", "--samples", "3")
        assert (code, out) == (0, "witness=none\n")

    def test_labeled_target_exits_2(self, capsys, files):
        target = files("lab.qg", "1 * plg n=2 labels=1:1 edges=1-2\n")
        code, _, err = run(capsys, "refute", "--in", target, "--max-n", "2")
        assert code == 2
        assert "labels" in err


class TestEnumerate:
    def test_count_and_records(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4")
        assert code == 0
        body = out.strip().splitlines()
        assert body[0] == "count=11"
        assert len(body) == 12
        assert all(line.startswith("graph=plg n=4") for line in body[1:])

    def test_byte_identical_across_runs(self, capsys):
        _, out1, _ = run(capsys, "enumerate", "--n", "5")
        _, out2, _ = run(capsys, "enumerate", "--n", "5")
        assert out1 == out2

    def test_seven_output_bytes(self, capsys, tmp_path):
        path = tmp_path / "e7.txt"
        assert run(capsys, "enumerate", "--n", "7", "--out", str(path))[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "1b4369011c9fff9a3daf7833535f0212409d691d466c1bfa2521dc20d744d15e"
        )

    def test_warm_enumerate_canonicalizes_nothing(self, capsys, tmp_path, canonical_calls):
        first, second = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        assert run(capsys, "enumerate", "--n", "7", "--out", first)[0] == 0
        del canonical_calls[:]
        assert run(capsys, "enumerate", "--n", "7", "--out", second)[0] == 0
        assert canonical_calls == []
        assert (tmp_path / "b.txt").read_bytes() == (tmp_path / "a.txt").read_bytes()

    def test_out_file(self, capsys, tmp_path):
        path = str(tmp_path / "g3.txt")
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--out", path)
        assert code == 0
        assert lines_of(out)["count"] == "4"
        assert len((tmp_path / "g3.txt").read_text().splitlines()) == 4


class TestOutput:
    @pytest.mark.parametrize(
        "argv, records",
        [
            (["stringent", "--k", "7"], True),
            (["counterexample", "--form", "expr"], False),
            (["reduce", "--poly", "@p"], False),
            (["witness", "--poly", "@p", "--sizes", "3,1,1,1,1,1"], True),
            (["enumerate", "--n", "4"], True),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_out_file_is_the_printed_payload(self, capsys, files, tmp_path, argv, records):
        """With `--out` the payload goes to the file and `out=` replaces it;
        without, it is printed as it is, or as one `graph=` line per record."""
        poly = files("p.poly", "poly vars=x1,x2,x3,x4,x5,x6 ; 1 + -2*x1\n")
        argv = [poly if a == "@p" else a for a in argv]
        path = tmp_path / "out.txt"
        code, printed, _ = run(capsys, *argv)
        assert code == 0
        code, written, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        tail = f"out={path}\n"
        assert written.endswith(tail)
        payload = path.read_text()
        if records:
            payload = "".join(f"graph={record}\n" for record in payload.splitlines())
        assert printed == written[: -len(tail)] + payload

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--n", "3"],
            ["stringent", "--k", "7"],
            ["witness", "--poly", "@p", "--sizes", "3,1,1,1,1,1"],
        ],
        ids=lambda v: v[0],
    )
    def test_failed_write_prints_nothing(self, capsys, files, tmp_path, argv):
        """The `--out` file is written before any key is printed, so a run
        that exits 2 on the write leaves stdout empty."""
        poly = files("p.poly", "poly vars=x1,x2,x3,x4,x5,x6 ; 1 + -2*x1\n")
        argv = [poly if a == "@p" else a for a in argv]
        path = str(tmp_path / "missing" / "out.txt")
        code, out, err = run(capsys, *argv, "--out", path)
        assert (code, out, err) == (2, "", f"error: [Errno 2] No such file or directory: {path!r}\n")


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        for module in ("homdens.cli", "homdens"):
            proc = run_process(["-m", module, "enumerate", "--n", "2"])
            assert proc.returncode == 0, module
            assert proc.stdout.splitlines()[0] == "count=2", module

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "density", "--target", "/nonexistent", "--in", "/nonexistent")
        assert code == 2
        assert "error:" in err

    def test_consecutive_calls_share_no_arguments(self, capsys, files):
        """One parser serves every call in a process; no flag of one call
        reaches the next."""
        target = files("K3.plg", plg_text(Graph.complete(3)))
        pattern = files("e1.plg", "plg n=2 labels=1:1 edges=1-2\n")
        code, out, _ = run(capsys, "eval", "--in", pattern, "--target", target, "--root", "1:2")
        assert (code, out) == (0, "value=2/3\n")
        code, out, err = run(capsys, "eval", "--in", pattern, "--target", target)
        assert (code, out) == (2, "")
        assert err == "error: root map missing labels [1]\n"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--in", pattern])
        assert exc.value.code == 2
        assert "--target" in capsys.readouterr().err
        code, out, _ = run(capsys, "eval", "--in", pattern, "--target", target, "--root", "1:1")
        assert (code, out) == (0, "value=2/3\n")
        assert cli._parser() is cli._parser()


def nested_sum(depth):
    return "(sum " * depth + "(q 1)" + ")" * depth + "\n"


class TestInputErrorsExit2:
    """An input error exits 2 with one `error:` line and no output."""

    def test_negative_enumeration_size(self, capsys):
        assert run(capsys, "enumerate", "--n", "-1") == (2, "", "error: n must be nonnegative\n")

    def test_certificate_of_only_comments(self, capsys, files):
        target = files("P3.qg", "1 * plg n=3 edges=1-2;2-3\n")
        cert = files("c.sos", "# no header\n\n")
        code, out, err = run(capsys, "verify-sos", "--target", target, "--cert", cert)
        assert (code, out, err) == (2, "", "error: certificate must start with 'sos:'\n")

    def test_proof_line_with_an_empty_operand(self, capsys, files):
        proof = files("p.txt", "1: (q 1) ; by A1()\n")
        claim = files("c.qg", "1 * plg n=1\n")
        code, out, err = run(capsys, "check-proof", "--in", proof, "--claim", claim)
        assert (code, out, err) == (2, "", "error: empty operand (line 1)\n")

    def test_basis_of_only_comments(self, capsys, files):
        target = files("K2.plg", plg_text(Graph.complete(2)))
        basis = files("basis.txt", "# none\n")
        code, out, err = run(capsys, "moment-matrix", "--target", target, "--basis", basis)
        assert (code, out, err) == (2, "", "error: basis file lists no patterns\n")

    def test_term_list_record_without_plg(self, capsys, files):
        target = files("K3.plg", plg_text(Graph.complete(3)))
        pattern = files("f.qg", "1 * graph n=2 edges=1-2\n")
        code, out, err = run(capsys, "density", "--target", target, "--in", pattern)
        assert (code, out, err) == (2, "", "error: expected record to start with 'plg' (line 1)\n")

    @pytest.mark.parametrize("record, message", [
        ("plg n=2 edges=1-2 weights=1e9,1", "bad weight '1e9'"),
        ("plg n=2 edges=1-3", "edge (0,2) out of range for n=2"),
        ("plg n=2 labels=1:1 edges=1-2", "target graphs carry no labels"),
    ])
    def test_target_record_errors_name_their_line(self, capsys, files, record, message):
        """A target file's one record may follow comments; an error in it
        names its line, as an error in a term list does."""
        target = files("t.plg", f"# a comment\n{record}\n")
        pattern = files("K2.plg", plg_text(Graph.complete(2)))
        code, out, err = run(capsys, "eval", "--in", pattern, "--target", target)
        assert (code, out, err) == (2, "", f"error: {message} (line 2)\n")


# (argv, input files): "@name" in argv is the path of file `name`.
COMMENT_CASES = {
    "density-record": (["density", "--in", "@e.plg", "--target", "@k3.plg", "--root", "1:2"],
                       {"e.plg": "plg n=2 labels=1:1 edges=1-2\n", "k3.plg": "plg n=3 edges=1-2;1-3;2-3\n"}),
    "density-terms": (["density", "--in", "@f.qg", "--target", "@k3.plg"],
                      {"f.qg": "1/2 * plg n=2 edges=1-2\n-1 * plg n=3 edges=1-2;2-3\n",
                       "k3.plg": "plg n=3 edges=1-2;1-3;2-3 weights=1/2,1/4,1/4\n"}),
    "eval": (["eval", "--in", "@f.qx", "--target", "@k3.plg"],
             {"f.qx": "(sum (g plg n=2 edges=1-2)\n (q -1))\n", "k3.plg": "plg n=3 edges=1-2;1-3;2-3\n"}),
    "reduce": (["reduce", "--poly", "@p.poly", "--k", "6"],
               {"p.poly": "poly vars=x1,x2,x3,x4,x5,x6 ; 1 + -2*x1\n"}),
    "witness": (["witness", "--poly", "@p.poly", "--sizes", "3,1,1,1,1,1"],
                {"p.poly": "poly vars=x1,x2,x3,x4,x5,x6 ;\n1 + -2*x1\n"}),
    "verify-sos": (["verify-sos", "--target", "@p3.qg", "--cert", "@c.sos"],
                   {"p3.qg": "1 * plg n=3 edges=1-2;2-3\n", "c.sos": "sos:\ng: (g plg n=2 labels=1:1 edges=1-2)\n"}),
    "check-proof": (["check-proof", "--in", "@p.txt", "--claim", "@c.qx"],
                    {"p.txt": "1: (g plg n=3 labels=1:1 edges=1-2;1-3) ; by A1((g plg n=2 labels=1:1 edges=1-2))\n"
                              "2: (g plg n=3 edges=1-2;2-3) ; by R3(1, T=)\n",
                     "c.qx": "(g plg n=3 edges=1-2;2-3)\n"}),
    "refute": (["refute", "--in", "@f.qg", "--max-n", "2", "--samples", "2"],
               {"f.qg": "-1 * plg n=2 edges=1-2\n"}),
    "moment-matrix": (["moment-matrix", "--target", "@k2.plg", "--basis", "@b.txt"],
                      {"k2.plg": "plg n=2 edges=1-2\n", "b.txt": "plg n=1 labels=1:1\nplg n=2 labels=1:1 edges=1-2\n"}),
}


class TestComments:
    @pytest.mark.parametrize("case", sorted(COMMENT_CASES))
    def test_leading_and_trailing_comments_change_no_output(self, capsys, tmp_path, case):
        """Every input file may open and close with comment lines; each
        command's exit code and output bytes stay those of the bare files."""
        argv, texts = COMMENT_CASES[case]
        results = []
        for name, wrap in (("bare", lambda t: t), ("commented", lambda t: f"# leading\n\n{t}# trailing\n")):
            folder = tmp_path / name
            folder.mkdir()
            for file, text in texts.items():
                (folder / file).write_text(wrap(text))
            results.append(run(capsys, *[str(folder / a[1:]) if a.startswith("@") else a for a in argv]))
        assert results[0] == results[1]
        assert results[0][0] in (0, 1) and results[0][1], results[0]

    @pytest.mark.parametrize("flag", ["--in", "--target"])
    def test_single_record_files_refuse_a_second(self, capsys, files, flag):
        """A target or a one-record pattern names the line of a second record."""
        paths = {"--in": files("e.plg", "plg n=2 edges=1-2\n"), "--target": files("k2.plg", "plg n=2 edges=1-2\n")}
        paths[flag] = files("two.plg", "# two records\nplg n=2 edges=1-2\n\nplg n=3\n")
        code, out, err = run(capsys, "density", "--in", paths["--in"], "--target", paths["--target"])
        assert (code, out, err) == (2, "", "error: expected one record, found a second (line 4)\n")


class TestHostileInput:
    def test_clique_product_past_the_search_node_cap_exits_2(self, capsys, files):
        """The clique image of x1 over a labeled edge glues one monomial's
        generators into an 80-vertex product of cliques, whose canonical
        search would encode every one of its many leaves; the node cap
        refuses it with one error line."""
        target = files("t.qx", "(psitau plg n=2 labels=1:1,2:2 edges=1-2 | poly vars=x1,x2 ; 1*x1)\n")
        cert = files("c.sos", "sos:\ng: (q 1)\n")
        code, out, err = run(capsys, "verify-sos", "--target", target, "--cert", cert)
        message = f"canonical labeling of 80 vertices exceeds {CANONICAL_NODE_CAP} search nodes"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_deep_nest_exits_2(self, capsys, files):
        expr = files("deep.qx", nested_sum(3000))
        target = files("K2.plg", plg_text(Graph.complete(2)))
        code, out, err = run(capsys, "eval", "--in", expr, "--target", target)
        assert code == 2
        assert out == ""
        assert err.startswith("error: expression nested deeper than")

    def test_deep_nest_process_exits_2_without_traceback(self, files):
        expr = files("deep.qx", nested_sum(3000))
        target = files("K2.plg", plg_text(Graph.complete(2)))
        script = "import sys; from homdens.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = run_process(["-c", script, "eval", "--in", expr, "--target", target])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("text", ["(unlabel ()", "(unlabel ("], ids=["no-child", "open-list"])
    def test_unterminated_unlabel_exits_2(self, capsys, files, text):
        expr = files("bad.qx", text + "\n")
        target = files("K2.plg", plg_text(Graph.complete(2)))
        code, out, err = run(capsys, "eval", "--in", expr, "--target", target)
        assert (code, out, err) == (2, "", "error: unterminated (unlabel ...)\n")

    @pytest.mark.parametrize("site", ["coefficient", "q", "weights", "R1", "poly"])
    def test_exponent_notation_exits_2_at_once(self, capsys, files, site):
        """`Fraction('1e999999999')` would expand the exponent digit by digit
        for hours; every reader of a rational refuses exponent notation."""
        big = "1e999999999"
        edge = files("K2.plg", plg_text(Graph.complete(2)))
        proof = (
            "1: 1 * plg n=3 labels=1:1 edges=1-2;1-3 ; by A1(plg n=2 labels=1:1 edges=1-2)\n"
            f"2: 2 * plg n=3 labels=1:1 edges=1-2;1-3 ; by R1(1, 1, {big}, 1)\n"
        )
        argv, message = {
            "coefficient": (["eval", "--in", files("f.qg", f"{big} * plg n=1\n"), "--target", edge],
                            f"bad coefficient '{big}' (line 1)"),
            "q": (["eval", "--in", files("f.qx", f"(q {big})\n"), "--target", edge],
                  f"bad rational '{big}'"),
            "weights": (["eval", "--in", edge, "--target", files("w.plg", f"plg n=2 weights={big},1\n")],
                        f"bad weight '{big}' (line 1)"),
            "R1": (["check-proof", "--in", files("p.txt", proof), "--claim", files("c.qg", "1 * plg n=1\n")],
                   "bad R1 arguments (line 2)"),
            "poly": (["reduce", "--poly", files("p.poly", f"poly vars=x1 ; {big}*x1\n")],
                     f"bad coefficient '{big}'"),
        }[site]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unexpected_exception_exits_3(self, capsys, files, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("internal failure")

        monkeypatch.setattr(cli, "t_quantum", broken)
        target = files("K3.plg", plg_text(Graph.complete(3)))
        pattern = files("K2.plg", plg_text(Graph.complete(2)))
        code, out, err = run(capsys, "eval", "--target", target, "--in", pattern)
        assert code == 3
        assert out == ""
        assert err == "error: unexpected RuntimeError: internal failure\n"
