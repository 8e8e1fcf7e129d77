"""The public surface: `homdens.__all__`, the names the benchmark traces,
and the functions that no command reaches."""

import importlib
import importlib.util
import os

import homdens

from test_cli import run_process

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
REACH = os.path.join(os.path.dirname(__file__), "reach.py")

# The named functions and methods of `homdens.*` that no command reaches,
# as `tests/reach.py` finds them, grouped by why each stays in the package.
# Dunders, among them the immutability guards and `__repr__`s, are not
# scanned.
UNREACHED = {
    # The key behind a polynomial image's `__eq__` and `__hash__`:
    # `check-proof` keys its normal forms by expression, but no proof that
    # the commands check states one.
    "algebra.PolyImage._key",
    # Documented API (README: quick start, Modules table, Library API), and
    # the helpers that only it reaches.  bench/tracing.py also traces
    # `parse_quantum`.
    "algebra.QuantumGraph.is_zero",
    "algebra.QuantumGraph.label_set",
    "algebra.QuantumGraph.of",
    "algebra.QuantumGraph.unit",
    "algebra.QuantumGraph.zero",
    "algebra.ind",
    "algebra.parse_quantum",
    # `expand` glues the last factor of a product straight into its normal
    # form, so only a fold of three or more factors calls `product`.
    "algebra.product",
    "algebra.unlabel",
    "certificates._default_resolver",
    "density._as_graph",
    "density._density",
    "density.extensions",
    "density.t",
    "density.t_ind",
    "density.t_inj",
    "graphs.Graph.complete",
    "graphs.Graph.cycle",
    "graphs.Graph.degree",
    "graphs.Graph.edges",
    "graphs.Graph.has_edge",
    "graphs.Graph.neighbors",
    "graphs.Graph.path",
    "graphs.automorphisms",
    "graphs.homogeneous_sets",
    "graphs.is_stringent",
    "polynomials.Polynomial.coefficient",
    "polynomials.Polynomial.is_zero",
    # Kept for ROADMAP items 3, 4 and 9, which give them a command.
    "density.density_polynomial",
    "polynomials.hilbert10_transform",
    "polynomials.motzkin_S",
    # `as_weighted` lifts a plain graph through it, but no command hands
    # `as_weighted` one: `_target` weighs a plain graph itself, and
    # `refute` formats only a weighted witness with `format_weighted_graph`.
    "density.WeightedGraph.uniform",
    # Traced by bench/tracing.py, which no command calls: the `witness_eval`
    # chain, until ROADMAP item 1 moves it or stops tracing it.
    "reductions._instance_parts",
    "reductions.exact_embeddings",
    "reductions.is_exact_embedding",
    "reductions.psi_rooted_value",
    "reductions.resample_set",
    "reductions.witness_eval",
    # Reached only by `counterexample --k 6`, which the pinned-hash test
    # `test_counterexample_output_bytes` runs, and which takes about 2.5
    # times as long under the profile.
    "algebra.QuantumGraph.sorted_terms",
    "algebra.format_quantum",
    "graphs.PartiallyLabeledGraph.sort_key",
    "reductions.build_counterexample",
}


def test_all_resolves_sorted_without_duplicates():
    names = homdens.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(homdens, name), name


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, attr, _ in tracing.TRACED:
        owner = importlib.import_module(f"homdens.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_commands_reach_all_but_the_allowlist():
    """Every function that no command reaches is on `UNREACHED`, and every
    name there is still unreached: code that only tests call belongs in
    the tests, and a name a command starts to reach leaves the list."""
    done = run_process([REACH])
    assert done.returncode == 0, done.stderr
    unreached = set(done.stdout.split())
    assert {"new": unreached - UNREACHED, "now reached": UNREACHED - unreached} == {
        "new": set(),
        "now reached": set(),
    }
