"""Spans around the public functions of each homdens module.

`Tracer.install` replaces each traced function with a wrapper in every
homdens module namespace that holds it, because modules import these
functions by name (`canonical_form` is bound in both `graphs` and
`algebra`, `t_quantum` in `density`, `certificates`, `reductions` and
`cli`).  Two methods are wrapped on their class: `QuantumGraph.__init__`,
where every normal form is made, and `Polynomial.evaluate`.

Spans are kept in memory, one row per call with its name, start, end,
parent span and run id, and written out by `write`.  Only calls made
while `active` is set are recorded, so the benchmark's own checks stay
out of the trace.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name); methods are "Class.method".
TRACED = (
    ("graphs", "canonical_form", "graphs.canonical_form"),
    ("graphs", "enumerate_graphs", "graphs.enumerate_graphs"),
    ("graphs", "parse_plg", "graphs.parse_plg"),
    ("graphs", "format_plg", "graphs.format_plg"),
    ("algebra", "glue", "algebra.glue"),
    ("algebra", "product", "algebra.product"),
    ("algebra", "QuantumGraph.__init__", "algebra.normal_form"),
    ("algebra", "expand", "algebra.expand"),
    ("algebra", "unlabel", "algebra.unlabel"),
    ("algebra", "parse_quantum", "algebra.parse_quantum"),
    ("algebra", "parse_qexpr", "algebra.parse_qexpr"),
    ("algebra", "format_quantum", "algebra.format_quantum"),
    ("density", "t_quantum", "density.t_quantum"),
    ("density", "density_polynomial", "density.density_polynomial"),
    ("reductions", "build_counterexample", "reductions.build_counterexample"),
    ("reductions", "build_instance", "reductions.build_instance"),
    ("reductions", "witness_eval", "reductions.witness_eval"),
    ("reductions", "exact_embeddings", "reductions.exact_embeddings"),
    ("certificates", "verify_sos", "certificates.verify_sos"),
    ("certificates", "check_cs_proof", "certificates.check_cs_proof"),
    ("certificates", "parse_cs_proof", "certificates.parse_cs_proof"),
    ("certificates", "refute", "certificates.refute"),
    ("polynomials", "Polynomial.evaluate", "polynomials.Polynomial.evaluate"),
    ("polynomials", "parse_poly", "polynomials.parse_poly"),
    ("cli", "main", "cli"),
)

# Per-layer metrics: (name, unit, better).
LAYER_METRICS = [
    (f"{span}.{kind}", unit, "lower")
    for _, _, span in TRACED
    if span != "cli"
    for kind, unit in (("calls", "count"), ("self_s", "s"))
] + [
    ("graphs.canonical_form.distinct_ratio", "ratio", "higher"),
    ("algebra.normal_form.terms_in", "count", "lower"),
    ("algebra.normal_form.terms_out", "count", "lower"),
    ("algebra.normal_form.merge_ratio", "ratio", "higher"),
    ("density.t_quantum.terms", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _graph_key(g):
    """(n, edges, labels) of a Graph or partially labeled graph."""
    labels = getattr(g, "labels", ())
    graph = getattr(g, "graph", g)
    return graph.n, graph.edges, labels


class Tracer:
    """Records spans for the homdens functions listed in TRACED."""

    def __init__(self):
        self.active = False
        self.run_id = 0
        self.names = [span for _, _, span in TRACED]
        self.name_ix = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("H")
        self._stack = []  # [span id, time covered by child spans]
        self._saved = []
        self.reset()

    def reset(self):
        """Clear the per-round tallies; recorded spans are kept."""
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.canonical_inputs = set()

    def _wrap(self, ix, fn, before, after):
        tracer = self
        name = self.names[ix]

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before:
                args = before(args)
            stack = tracer._stack
            span = len(tracer.start)
            tracer.name_ix.append(ix)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.run.append(tracer.run_id)
            tracer.end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            tracer.start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.end[span] = end
                duration = end - start
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if after:
                    after(args)

        return traced

    def install(self):
        """Wrap every traced function in every homdens namespace that holds it."""
        modules = [m for k, m in sys.modules.items() if k == "homdens" or k.startswith("homdens.")]
        hooks = {
            "graphs.canonical_form": (self._before_canonical, None),
            "algebra.normal_form": (self._before_normal_form, self._after_normal_form),
            "density.t_quantum": (self._before_t_quantum, None),
        }
        for ix, (module, attr, span) in enumerate(TRACED):
            owner = sys.modules[f"homdens.{module}"]
            before, after = hooks.get(span, (None, None))
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(ix, original, before, after))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(ix, original, before, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _before_canonical(self, args):
        self.canonical_inputs.add(_graph_key(args[0]))
        return args

    def _before_normal_form(self, args):
        """Materialize the terms handed to QuantumGraph so they can be counted."""
        qg, *rest = args
        terms = rest[0] if rest else ()
        items = list(terms.items() if isinstance(terms, dict) else terms)
        self.counts["terms_in"] += len(items)
        return (qg, items)

    def _after_normal_form(self, args):
        self.counts["terms_out"] += len(args[0].terms)

    def _before_t_quantum(self, args):
        f = args[0]
        terms = getattr(f, "terms", None)
        if isinstance(terms, dict):
            self.counts["t_quantum_terms"] += len(terms)
        elif hasattr(f, "n"):
            self.counts["t_quantum_terms"] += 1
        return args

    def metrics(self):
        """Per-layer tallies since the last reset, by metric name."""
        out = {}
        for _, _, span in TRACED:
            if span != "cli":
                out[f"{span}.calls"] = self.calls[span]
                out[f"{span}.self_s"] = self.self_s[span]
        calls = self.calls["graphs.canonical_form"]
        out["graphs.canonical_form.distinct_ratio"] = (
            len(self.canonical_inputs) / calls if calls else 0.0
        )
        terms_in, terms_out = self.counts["terms_in"], self.counts["terms_out"]
        out["algebra.normal_form.terms_in"] = terms_in
        out["algebra.normal_form.terms_out"] = terms_out
        out["algebra.normal_form.merge_ratio"] = terms_out / terms_in if terms_in else 0.0
        out["density.t_quantum.terms"] = self.counts["t_quantum_terms"]
        out["cli.self_s"] = self.self_s["cli"]
        return out

    def write(self, path):
        """All recorded spans as tab-separated rows; times in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\trun\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_ix[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.run[i]}\n"
                )

