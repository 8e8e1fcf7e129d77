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
    """The input of every canonical labeling made during the test, each
    component of a disconnected input included, as the PLG of the rows
    and labels handed to `graphs._certificate`."""
    from homdens import graphs

    calls = []
    original = graphs._certificate

    def counting(adj, labels):
        calls.append(graphs.PLG._of_parts(graphs.Graph._of_rows(adj), labels))
        return original(adj, labels)

    monkeypatch.setattr(graphs, "_certificate", counting)
    return calls


@pytest.fixture
def canonical_tables(canonical_calls, monkeypatch):
    """The form table open at each canonical labeling of the test, None
    outside every scope, one entry per input that `canonical_calls` lists."""
    from homdens import graphs

    tables = []
    counting = graphs._certificate

    def recording(adj, labels):
        tables.append(graphs._FORMS)
        return counting(adj, labels)

    monkeypatch.setattr(graphs, "_certificate", recording)
    return tables
