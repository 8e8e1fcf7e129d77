"""Command-line surface.

Every command reads and writes the plain-text formats of the library
(`plg` records, quantum-graph term lists, s-expressions, polynomial and
proof files) and prints machine-readable `key=value` lines with exact
rationals.  Exit codes: 0 for verified/none-found, 1 for rejected or
witness-found, 2 for malformed input or exceeded caps, 3 for an
unexpected internal error.

Every command reads a term list as its written records.  The commands
that compare quantum graphs, `verify-sos` and `check-proof`, bring what
they compare to normal form through `expand`, every rule within the one
`--budget`.  `eval`, `density` and `refute` evaluate the records as
written, since a density is linear in the terms.  `refute` is
`certificates.refute`, whose one term search and trie serve all its
targets; its `--jobs` flag is checked and otherwise ignored.

Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .algebra import EXPAND_BUDGET, format_qexpr, format_quantum, load_expression
from .certificates import (
    _check_search,
    check_cs_proof,
    integer_witness,
    is_psd,
    moment_matrix,
    parse_cs_proof,
    parse_sos_certificate,
    refute,
    verify_sos,
)
from .density import WeightedGraph, _check_cover, format_weighted_graph, parse_weighted_graph, t_quantum
from .errors import FormatError
from .graphs import enumerate_graphs, format_plg, parse_plg, record_lines, single_record, stringent_graph
from .polynomials import parse_poly
from .reductions import build_counterexample, build_instance, counterexample_expr, witness_graph


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(key, *values):
    """Print `key=` and the values, comma-separated.  Exact values print at
    any length: the interpreter's limit on the digits of an integer turned
    into text, which guards reading, is lifted only while they are formatted."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = ",".join(map(str, values))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print(f"{key}={text}")


def _output(args, text, records=False, keys=()):
    """Write `text` to `--out`, then emit the `keys`, (key, value) pairs,
    and `out=`; or else emit the `keys` and print `text`: as it is, or as
    one `graph=` line per record.  A failed write prints nothing."""
    if args.out:
        _write(args.out, text)
    for key, value in keys:
        _emit(key, value)
    if args.out:
        _emit("out", args.out)
    elif records:
        for record in text.splitlines():
            _emit("graph", record)
    else:
        sys.stdout.write(text)
    return 0


def _load_target(text):
    line, record = single_record(text)
    if "weights=" in record:
        return parse_weighted_graph(record, line)
    plg = parse_plg(record, line)
    if plg.labels:
        raise FormatError("target graphs carry no labels", line=line)
    return plg.graph


def _parse_roots(text):
    phi = {}
    if not text:
        return phi
    for item in text.split(","):
        lab, sep, vertex = item.partition(":")
        if not sep:
            raise FormatError(f"bad root {item!r}, expected label:vertex")
        try:
            lab, image = int(lab), int(vertex) - 1
        except ValueError:
            raise FormatError(f"bad root {item!r}") from None
        if lab < 1:
            raise FormatError(f"root label {lab} is not a positive integer")
        if lab in phi:
            raise FormatError(f"root label {lab} given twice")
        phi[lab] = image
    return phi


def _warn_budget(args):
    if args.budget != EXPAND_BUDGET:
        print(
            f"warning: expansion budget overridden to {args.budget}",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# Commands


def _evaluate(args, key):
    """The value of `--in` at `--target` under `--root`, emitted as `key`.
    Every root image must be a target vertex, even one whose label the
    input does not carry or loses with its isolated vertices."""
    f = load_expression(_read(args.infile))
    target = _load_target(_read(args.target))
    phi = _parse_roots(args.root)
    _check_cover(phi, phi, target.graph if isinstance(target, WeightedGraph) else target)
    value = t_quantum(f, target, phi)
    _emit(key, value)
    return value


def cmd_density(args):
    _evaluate(args, "t")
    return 0


def cmd_eval(args):
    return 1 if _evaluate(args, "value") < 0 else 0


def cmd_stringent(args):
    g = stringent_graph(args.k)
    edges = sum(row.bit_count() for row in g.adj) // 2
    return _output(args, format_plg(g) + "\n", records=True, keys=(("n", g.n), ("edges", edges)))


def cmd_counterexample(args):
    if args.form == "expr":
        return _output(args, format_qexpr(counterexample_expr(args.k)) + "\n")
    x = build_counterexample(args.k)
    return _output(args, format_quantum(x), keys=(("terms", len(x.terms)),))


def cmd_reduce(args):
    p = parse_poly(_read(args.poly))
    return _output(args, format_qexpr(build_instance(p, k=args.k)) + "\n")


def cmd_witness(args):
    p = parse_poly(_read(args.poly))
    try:
        counts = tuple(int(c) for c in args.sizes.split(","))
    except ValueError:
        raise FormatError(f"bad sizes {args.sizes!r}") from None
    g = witness_graph(p, counts)
    return _output(args, format_plg(g) + "\n", records=True, keys=(("n", g.n),))


def cmd_verify_sos(args):
    _warn_budget(args)
    target = load_expression(_read(args.target))
    cert = parse_sos_certificate(_read(args.cert))
    ok = verify_sos(target, cert, budget=args.budget)
    _emit("verified", "true" if ok else "false")
    return 0 if ok else 1


def cmd_check_proof(args):
    _warn_budget(args)
    base = os.path.dirname(os.path.abspath(args.infile))

    def resolve(ref):
        return _read(os.path.join(base, ref))

    proof = parse_cs_proof(_read(args.infile), resolve=resolve)
    claimed = load_expression(_read(args.claim))
    ok = check_cs_proof(proof, claimed, budget=args.budget)
    _emit("lines", len(proof))
    _emit("accepted", "true" if ok else "false")
    return 0 if ok else 1


def cmd_refute(args):
    """`refute` on `--in`; a witness's values are the target's densities
    there.  `--jobs N` is checked and has no other effect."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    _check_search(args.max_n, args.samples, ("--max-n", "--samples"))
    f = load_expression(_read(args.infile))
    witness = refute(f, args.max_n, args.samples, args.seed)
    if witness is None:
        _emit("witness", "none")
        return 0
    weighted = isinstance(witness, WeightedGraph)
    _emit("witness", (format_weighted_graph if weighted else format_plg)(witness))
    _emit("value", t_quantum(f, witness))
    if weighted:
        blown = integer_witness(witness)
        _emit("integer_witness", format_plg(blown))
        _emit("integer_value", t_quantum(f, blown))
    return 1


def cmd_moment_matrix(args):
    target = _load_target(_read(args.target))
    basis = [parse_plg(body, line=lineno) for lineno, body in record_lines(_read(args.basis))]
    if not basis:
        raise FormatError("basis file lists no patterns")
    M = moment_matrix(target, basis)
    _emit("size", len(basis))
    for i, row in enumerate(M, start=1):
        _emit(f"row{i}", *row)
    ok = is_psd(M)
    _emit("psd", "true" if ok else "false")
    return 0 if ok else 1


def cmd_enumerate(args):
    graphs = enumerate_graphs(args.n)
    text = "".join(format_plg(g) + "\n" for g in graphs)
    return _output(args, text, records=True, keys=(("count", len(graphs)),))


# ---------------------------------------------------------------------------
# Argument wiring


@functools.cache
def _parser():
    """The argument parser, built once per process: parsing reads it and
    never changes it, and each call gets a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="homdens",
        description="Exact homomorphism-density computations on quantum graphs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = command("density", cmd_density, "rooted density of a pattern in a target graph")
    p.add_argument("--in", dest="infile", required=True, help="pattern file")
    p.add_argument("--target", required=True, help="target graph file")
    p.add_argument("--root", default="", help="root map label:vertex[,...] (1-based)")

    p = command("stringent", cmd_stringent, "construct the stringent graph on k vertices")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")

    p = command("counterexample", cmd_counterexample, "positive but not sum-of-squares quantum graph")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--form", choices=("terms", "expr"), default="terms",
                   help="the expanded term list, or the structured expression it expands")
    p.add_argument("--out")

    p = command("reduce", cmd_reduce, "map a polynomial to its decision-problem instance")
    p.add_argument("--poly", required=True, help="polynomial file")
    p.add_argument("--k", type=int, default=6, help="number of variables / labels")
    p.add_argument("--out")

    p = command("witness", cmd_witness, "clique blow-up witnessing grid negativity")
    p.add_argument("--poly", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated clique sizes")
    p.add_argument("--out")

    p = command("eval", cmd_eval, "evaluate a quantum expression on a target graph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--root", default="")

    p = command("verify-sos", cmd_verify_sos, "check a sum-of-squares certificate")
    p.add_argument("--target", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--budget", type=int, default=EXPAND_BUDGET)

    p = command("check-proof", cmd_check_proof, "check a Cauchy-Schwarz calculus proof")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--claim", required=True, help="claimed nonnegative quantum graph")
    p.add_argument("--budget", type=int, default=EXPAND_BUDGET)

    p = command("refute", cmd_refute, "search small and weighted graphs for a negative value")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)

    p = command("moment-matrix", cmd_moment_matrix, "pairwise product densities of a basis")
    p.add_argument("--target", required=True)
    p.add_argument("--basis", required=True, help="file with one plg record per line")

    p = command("enumerate", cmd_enumerate, "canonical graphs on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")

    return top


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never exit 1, which reads as a definite answer
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
