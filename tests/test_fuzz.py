"""Seeded mutation fuzzing of the command line.

Valid inputs of every text format are mutated (characters deleted,
inserted or replaced, short spans copied) and handed to the matching
command through `cli.main` in this process.  Every run must exit 0, 1 or
2 without a traceback, and exit 1, a definite answer, only when every
input is accepted by the library reader for its format.

A mutant holding an integer larger than every integer of its seed is
drawn again, so no mutant asks for a large graph (`Graph` allocates per
vertex) or a large search.  One target seed has a vertex count far past
`graphs.VERTEX_CAP`, which the record reader refuses before building.
"""

import contextlib
import io
import os
import random
import re

from homdens import cli
from homdens.algebra import load_expression
from homdens.certificates import parse_cs_proof, parse_sos_certificate
from homdens.errors import FormatError
from homdens.graphs import parse_plg
from homdens.polynomials import parse_poly

SEED = 4
MUTANTS_PER_SEED = 100
ALPHABET = " \n\t()-;:,=*/+^#@|.0123456789plgnxqsumdvarwehtb"


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _expression(path):
    load_expression(_read(path))


def _target(path):
    cli._load_target(_read(path))


def _certificate(path):
    parse_sos_certificate(_read(path))


def _proof(path):
    base = os.path.dirname(path)
    parse_cs_proof(_read(path), resolve=lambda ref: _read(os.path.join(base, ref)))


def _basis(path):
    for raw in _read(path).splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            parse_plg(body)


def _poly(path):
    parse_poly(_read(path))


def _roots(text):
    cli._parse_roots(text)


K3 = "plg n=3 edges=1-2;1-3;2-3\n"
P4 = "plg n=4 edges=1-2;2-3;3-4\n"
P3_TERMS = "1 * plg n=3 edges=1-2;2-3\n"
EDGE_1 = "plg n=2 labels=1:1 edges=1-2"
EXPRESSIONS = [
    EDGE_1 + "\n",
    "1/2 * plg n=2 edges=1-2\n-1 * plg n=1\n# comment\n",
    "(sum (g plg n=2 edges=1-2) (prod (q -1/3) (ind plg n=3 labels=1:1,2:2 edges=1-2)))\n",
    "(unlabel () (prod (g " + EDGE_1 + ") (q 2)))\n",
]
INSTANCE = (
    "(unlabel () (psitau plg n=6 labels=1:1,2:2,3:3,4:4,5:5,6:6 "
    "edges=1-2;1-3;2-3;2-6;3-4;3-6;4-5;5-6 | poly vars=x1,x2,x3,x4,x5,x6 ; -2*x1 + 1))\n"
)
TARGETS = [
    "plg n=3 edges=1-2;2-3\n",
    "plg n=3 edges=1-2;2-3 weights=1/2,1/4,1/4\n",
    # past the vertex cap, which the reader checks before building
    "plg n=1000000000000 edges=1-2\n",
]
TERM_LISTS = [
    "-1 * plg n=2 edges=1-2\n",
    P3_TERMS,
    "1 * plg n=4 edges=1-2;3-4\n-1/2 * plg n=2 edges=1-2\n",
]
CERTIFICATES = [
    "sos:\ng: (g " + EDGE_1 + ")\n",
    "sos:\n# one square\ng: (sum (g " + EDGE_1 + ") (q 0))\n",
]
FULL_P4 = "plg n=4 labels=1:1,2:2,3:3,4:4 edges=1-2;2-3"
CHERRY = "(g plg n=3 labels=1:1 edges=1-2;1-3)"
# [e^2][n^2] - [e n]^2 for the edge e and the non-edge n rooted at label 1.
CS_INSTANCE = (
    f"(sum (prod (unlabel () (prod (g {EDGE_1}) (g {EDGE_1})))"
    " (unlabel () (prod (g plg n=2 labels=1:1) (g plg n=2 labels=1:1))))"
    f" (prod (q -1) (unlabel () (prod (g {EDGE_1}) (g plg n=2 labels=1:1)))"
    f" (unlabel () (prod (g {EDGE_1}) (g plg n=2 labels=1:1)))))\n"
)
PROOFS = [
    "1: 1 * plg n=3 labels=1:1 edges=1-2;1-3 ; by A1(" + EDGE_1 + ")\n"
    "2: 1 * plg n=3 edges=1-2;2-3 ; by R3(1, T=)\n",
    "1: @sq.qx ; by A1((g " + EDGE_1 + "))\n"
    "2: 1 * plg n=3 edges=1-2;2-3 ; by R3(1, T=)\n"
    "3: 2 * plg n=3 edges=1-2;2-3 ; by R1(2, 2, 1, 1)\n",
    # The square of a fully labeled ind, unlabeled: mutants that still
    # parse reach the ind overlap products of expand.
    f"1: (prod (ind {FULL_P4}) (ind {FULL_P4})) ; by A1((ind {FULL_P4}))\n"
    "2: (ind plg n=4 labels=1:1 edges=1-2;2-3) ; by R3(1, T=1)\n",
    # Term-list operand and statements: mutants reach the lifted route.
    "1: @sq.qg ; by A1(@e.qg)\n"
    "2: @c ; by R3(1, T=)\n",
    # A Cauchy-Schwarz instance, and a product of a line with itself:
    # with the seeds above, mutants reach every operand kind of the rules.
    "1: @cs.qx ; by A2((g " + EDGE_1 + "), (g plg n=2 labels=1:1), T=)\n",
    "1: 1 * plg n=3 labels=1:1 edges=1-2;1-3 ; by A1(" + EDGE_1 + ")\n"
    f"2: (prod {CHERRY} {CHERRY}) ; by R2(1, 1)\n",
]
SQUARE = "(prod (g " + EDGE_1 + ") (g " + EDGE_1 + "))\n"
# A small clone image: mutants that still parse reach expand's polynomial
# images, whose monomials glue ind generators and drop labels inside.
PHI_TARGET = (
    "(unlabel () (phi plg n=3 labels=1:1,2:2,3:3 edges=1-2;2-3 | "
    "poly vars=x1,x2,x3 ; 1*x1*x2 + -1*x3^2))\n"
)
BASES = [
    "plg n=1 labels=1:1\n" + EDGE_1 + "\n",
    "# basis\nplg n=2 labels=1:1\nplg n=3 labels=1:1 edges=1-2;2-3\n",
]
POLYS = ["poly vars=x1,x2,x3,x4,x5,x6 ; 1 + -2*x1\n", "poly vars=x1,x2,x3,x4,x5,x6 ; x1*x2 + -1\n"]

# (argv, fixed files, mutated input, its seeds, reader of each input).
# In argv "@name" is the path of file `name` and "$name" the text of a
# mutated argument.
CASES = [
    (["density", "--in", "@f", "--target", "@g", "--root", "1:2,2:1"],
     {"g": K3}, "f", EXPRESSIONS, {"f": _expression, "g": _target}),
    (["eval", "--in", "@f", "--target", "@g"],
     {"f": "1 * plg n=2 edges=1-2\n-1/2 * plg n=1\n"}, "g", TARGETS,
     {"f": _expression, "g": _target}),
    (["eval", "--in", "@f", "--target", "@g"],
     {"g": P4}, "f", [INSTANCE], {"f": _expression, "g": _target}),
    (["density", "--in", "@f", "--target", "@g", "--root", "$root"],
     {"f": "plg n=3 labels=1:1,2:2 edges=1-2;2-3\n", "g": P4}, "root", ["1:2,2:3", "2:1,1:4"],
     {"f": _expression, "g": _target, "root": _roots}),
    (["verify-sos", "--target", "@t", "--cert", "@c"],
     {"t": P3_TERMS}, "c", CERTIFICATES, {"t": _expression, "c": _certificate}),
    (["verify-sos", "--target", "@t", "--cert", "@c"],
     {"c": CERTIFICATES[0]}, "t", [P3_TERMS, "(unlabel () " + SQUARE.strip() + ")\n", PHI_TARGET],
     {"t": _expression, "c": _certificate}),
    (["check-proof", "--in", "@p", "--claim", "@c"],
     {"c": P3_TERMS, "sq.qx": SQUARE, "cs.qx": CS_INSTANCE, "e.qg": "1 * " + EDGE_1 + "\n",
      "sq.qg": "1/2 * plg n=3 labels=1:1 edges=1-2;1-3\n1/2 * plg n=3 labels=1:2 edges=1-2;2-3\n"},
     "p", PROOFS, {"p": _proof, "c": _expression}),
    (["check-proof", "--in", "@p", "--claim", "@c"],
     {"p": PROOFS[0]}, "c", [P3_TERMS], {"p": _proof, "c": _expression}),
    (["refute", "--in", "@t", "--max-n", "2", "--samples", "3"],
     {}, "t", TERM_LISTS, {"t": _expression}),
    (["moment-matrix", "--target", "@g", "--basis", "@b"],
     {"g": "plg n=2 edges=1-2\n"}, "b", BASES, {"g": _target, "b": _basis}),
    (["moment-matrix", "--target", "@g", "--basis", "@b"],
     {"b": BASES[0]}, "g", TARGETS, {"g": _target, "b": _basis}),
    (["reduce", "--poly", "@p", "--k", "6"], {}, "p", POLYS, {"p": _poly}),
    (["witness", "--poly", "@p", "--sizes", "3,1,1,1,1,1"], {}, "p", POLYS, {"p": _poly}),
]


def _mutate(rng, text):
    chars = list(text)
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        op = rng.randrange(4)
        i = rng.randrange(len(chars) + 1)
        if op == 0 and i < len(chars):
            del chars[i]
        elif op == 1:
            chars.insert(i, rng.choice(ALPHABET))
        elif op == 2 and i < len(chars):
            chars[i] = rng.choice(ALPHABET)
        else:
            j = rng.randrange(len(chars) + 1)
            chars[i:i] = chars[j:j + rng.randint(1, 6)]
    return "".join(chars)


def _integers(text):
    return [int(d) for d in re.findall(r"\d+", text)]


def _small_mutant(rng, seed):
    bound = max(_integers(seed), default=0)
    while True:
        text = _mutate(rng, seed)
        if all(v <= bound for v in _integers(text)):
            return text


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
    return code, err.getvalue()


def _accepted(readers, paths, texts):
    try:
        for name, reader in readers.items():
            reader(paths[name] if name in paths else texts[name])
    except ValueError:
        return False
    return True


def test_cli_exit_codes_under_mutation(tmp_path):
    rng = random.Random(SEED)
    codes = set()
    for argv, fixed, mutated, seeds, readers in CASES:
        for seed in seeds:
            for _ in range(MUTANTS_PER_SEED):
                texts = dict(fixed)
                texts[mutated] = _small_mutant(rng, seed)
                paths = {}
                for name, text in texts.items():
                    if f"${name}" not in argv:
                        paths[name] = str(tmp_path / name)
                        with open(paths[name], "w", encoding="utf-8") as fh:
                            fh.write(text)
                args = [
                    paths[a[1:]] if a.startswith("@") else texts[a[1:]] if a.startswith("$") else a
                    for a in argv
                ]
                code, err = _run(args)
                case = f"{argv[0]} {mutated}={texts[mutated]!r}"
                assert code in (0, 1, 2), f"{case} exited {code}: {err}"
                assert "Traceback" not in err, case
                if code == 1:
                    assert _accepted(readers, paths, texts), f"{case} exited 1 on unreadable input"
                codes.add(code)
    assert codes == {0, 1, 2}


def test_expression_prefixes_and_suffixes():
    """Every prefix and suffix of a valid expression parses or raises
    FormatError; nothing else escapes the reader."""
    for text in EXPRESSIONS + [INSTANCE, PHI_TARGET]:
        for cut in range(len(text) + 1):
            for piece in (text[:cut], text[cut:]):
                try:
                    load_expression(piece)
                except FormatError:
                    pass


# Seeds whose `(unlabel (...))` keep lists and proofs' `T=` lists are
# rewritten: (argv, fixed files, rewritten input, its seeds).
LABEL_CASES = [
    (["eval", "--in", "@f", "--target", "@g"], {"g": K3}, "f", [EXPRESSIONS[3]]),
    (["eval", "--in", "@f", "--target", "@g"], {"g": P4}, "f", [INSTANCE]),
    (["verify-sos", "--target", "@t", "--cert", "@c"], {"c": CERTIFICATES[0]}, "t", [PHI_TARGET]),
    (["check-proof", "--in", "@p", "--claim", "@c"],
     {"c": P3_TERMS, "cs.qx": CS_INSTANCE}, "p", PROOFS[:1] + PROOFS[2:3] + PROOFS[4:5]),
    (["check-proof", "--in", "@p", "--claim", "@c"],
     {"c": P3_TERMS, "p": PROOFS[4]}, "cs.qx", [CS_INSTANCE]),
]
KEEP_LIST = re.compile(r"\(unlabel \(([^()]*)\)")
T_LIST = re.compile(r"T=([^)]*)\)")


def _relabeled(rng, seed):
    """The seed with each label list replaced by a draw of one to three
    labels from -2..2, and whether some list holds a label below 1 or a
    label twice."""
    bad = False

    def draw(sep):
        nonlocal bad
        labels = [rng.choice((-2, -1, 0, 1, 1, 2)) for _ in range(rng.randint(1, 3))]
        bad |= min(labels) < 1 or len(set(labels)) < len(labels)
        return sep.join(map(str, labels))

    text = KEEP_LIST.sub(lambda m: f"(unlabel ({draw(' ')})", seed)
    return T_LIST.sub(lambda m: f"T={draw(',')})", text), bad


def test_label_lists_refuse_non_labels(tmp_path):
    """Keep lists and T= lists holding 0, negative or repeated labels: a
    run exits 0, 1 or 2, and 2 with one error line when a list holds a
    label that no PLG can carry."""
    rng = random.Random(SEED)
    refused = 0
    for argv, fixed, mutated, seeds in LABEL_CASES:
        for seed in seeds:
            for _ in range(20):
                texts = dict(fixed)
                texts[mutated], bad = _relabeled(rng, seed)
                for name, text in texts.items():
                    (tmp_path / name).write_text(text, encoding="utf-8")
                args = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
                code, err = _run(args)
                case = f"{argv[0]} {mutated}={texts[mutated]!r}"
                assert code in (0, 1, 2), f"{case} exited {code}: {err}"
                assert "Traceback" not in err, case
                if bad:
                    assert code == 2 and err.count("\n") == 1 and err.startswith("error: label"), case
                    refused += 1
    assert refused > 50
