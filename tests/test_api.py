"""The public surface: `homdens.__all__`, the names the benchmark traces,
the functions that no command reaches, and which of those README's
examples call."""

import importlib
import importlib.util
import os

import homdens

from reach import definitions
from test_cli import run_process
from test_readme import python_calls

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
REACH = os.path.join(os.path.dirname(__file__), "reach.py")
LOC = os.path.join(os.path.dirname(__file__), "loc.py")

# The functions and methods that README's Python examples call and no
# command reaches: the documented library API (README: quick start and
# Library API), with the helpers that only it reaches.  bench/tracing.py
# also traces `parse_quantum` and `density_polynomial`.
DOCUMENTED = {
    "algebra.QuantumGraph.label_set",
    "algebra.QuantumGraph.of",
    # A printed QuantumGraph lists its terms through these two, which
    # `counterexample --k 6` reaches too (see below).
    "algebra.QuantumGraph.sorted_terms",
    "algebra.QuantumGraph.unit",
    "algebra.ind",
    "algebra.parse_quantum",
    # `expand` glues the last factor of a product straight into its normal
    # form, so only a fold of three or more factors calls `product`.
    "algebra.product",
    "algebra.unlabel",
    # The symbolic reading of a term search, which only
    # `density_polynomial` asks for.
    "density._TermSearch.polynomial",
    "density._as_graph",
    "density._density",
    "density.density_polynomial",
    "density.t",
    "density.t_ind",
    "graphs.Graph.complete",
    "graphs.Graph.cycle",
    "graphs.Graph.edges",
    "graphs.Graph.path",
    "graphs.PartiallyLabeledGraph.sort_key",
}

# The named functions and methods of `homdens.*` that no command reaches,
# as `tests/reach.py` finds them, grouped by why each stays in the package.
# Dunders, among them the immutability guards and `__repr__`s, are not
# scanned.
UNREACHED = DOCUMENTED | {
    # The key behind a polynomial image's `__eq__` and `__hash__`:
    # `check-proof` keys its normal forms by expression, but no proof that
    # the commands check states one.
    "algebra.PolyImage._key",
    # Kept for ROADMAP items 3, 4 and 9, which give them a command.
    "polynomials.hilbert10_transform",
    "polynomials.motzkin_S",
    # Traced by bench/tracing.py, which no command calls.  `product` and
    # `expand` hand the rows of each gluing to the normal-form rule, so
    # nothing in the package builds a glued PLG.
    "algebra.glue",
    # Traced by bench/tracing.py, which no command calls: the `witness_eval`
    # chain and the exact extension lists it rests on, until ROADMAP item 1
    # moves it or stops tracing it.  `exact_embeddings` and `witness_eval`
    # are not in `homdens.__all__`.
    "density.extensions",
    "reductions._instance_parts",
    "reductions.exact_embeddings",
    "reductions.is_exact_embedding",
    "reductions.psi_rooted_value",
    "reductions.resample_set",
    "reductions.witness_eval",
    # Reached only by `counterexample --k 6`, which the pinned-hash test
    # `test_counterexample_output_bytes` runs, and which takes about 2.5
    # times as long under the profile.
    "algebra.format_quantum",
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


def test_loc_counts_every_module():
    """`tests/loc.py` prints one code-line count per package module and
    their total."""
    done = run_process([LOC])
    assert done.returncode == 0, done.stderr
    *rows, total = [line.split() for line in done.stdout.splitlines()]
    modules = sorted(name for name in os.listdir(os.path.dirname(homdens.__file__)) if name.endswith(".py"))
    assert [name for _, name in rows] == modules
    assert total == [str(sum(int(count) for count, _ in rows)), "total"]
    assert all(int(count) > 0 for count, _ in rows)


def test_documented_names_are_what_readme_calls():
    """The documented group is exactly the unreached names that README's
    Python examples call, so a name the examples stop calling leaves the
    package or moves to another group, and the group cannot drift."""
    calls = python_calls()
    called = {name for code, name in definitions().items() if code in calls}
    assert DOCUMENTED == called & UNREACHED
