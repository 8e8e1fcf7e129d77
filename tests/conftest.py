import os
import sys
from functools import lru_cache

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@lru_cache(maxsize=None)
def counterexample():
    """The 11464-term counterexample x, built once per test session for
    every module that imports it from here.  It keeps the term search that
    its first evaluation grows."""
    from homdens.reductions import build_counterexample

    return build_counterexample()


@pytest.fixture
def canonical_calls(monkeypatch):
    """The list of inputs of every `canonical_form` call made during the
    test, recursive calls on components included, in every module that
    imports it."""
    from homdens import algebra, graphs

    calls = []
    original = graphs.canonical_form

    def counting(g):
        calls.append(g)
        return original(g)

    for module in (graphs, algebra):
        monkeypatch.setattr(module, "canonical_form", counting)
    return calls


@pytest.fixture
def canonical_tables(canonical_calls, monkeypatch):
    """The form table open at each `canonical_form` call of the test, None
    outside every scope, one entry per call that `canonical_calls` lists."""
    from homdens import algebra, graphs

    tables = []
    counting = graphs.canonical_form

    def recording(g):
        tables.append(graphs._FORMS)
        return counting(g)

    for module in (graphs, algebra):
        monkeypatch.setattr(module, "canonical_form", recording)
    return tables
