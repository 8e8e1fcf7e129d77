"""The public surface: `homdens.__all__` and the names the benchmark traces."""

import importlib
import importlib.util
import os

import homdens

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


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
