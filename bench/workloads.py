"""The three benchmark workloads.

Each workload writes its inputs in `setup`, runs one round of timed
operations in `round`, and checks every output against `reference`.
Commands go through `homdens.cli.main(argv)` in this process, so argument
parsing and file I/O are timed with them; library calls go through the
module attribute at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import gc
import io
import random
import statistics
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations, product

from homdens import algebra, cli, density, graphs, reductions

import reference as ref
from speed import SpeedMeter

H6 = graphs.Graph(6, ref.H6_EDGES)
Y_VARS = tuple(f"y{i}" for i in range(1, 7))


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _seeded_weights(rng, n, high=9):
    w = [rng.randint(1, high) for _ in range(n)]
    return tuple(Fraction(x, sum(w)) for x in w)


class Round:
    """Timing, operation counts and check results of one round."""

    def __init__(self, stages, tracer=None):
        self.meter = SpeedMeter()
        self.stages = [0.0] * stages
        self.raw_stages = [0.0] * stages
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tracer = tracer

    def op(self, stage, fn, reps=1):
        """Run one operation `reps` times and add its median time to `stage`.

        Times are reference-speed seconds (see speed.py); stage None runs the
        operation untimed.  A call that raises counts as failed; the result
        of the last call is returned, or None after a failure.
        """
        times, raws, results = [], [], []
        for _ in range(reps):
            self.attempted += 1
            probe = nullcontext() if stage is None else self.meter.measure()
            if self.tracer and stage is not None:
                self.tracer.active = True
            try:
                with probe:
                    results.append(fn())
            except Exception as exc:  # a failed operation is reported, not fatal
                self.failed += 1
                self.problems.append(f"operation failed: {type(exc).__name__}: {exc}")
                return None
            finally:
                if self.tracer:
                    self.tracer.active = False
            if stage is not None:
                times.append(probe.seconds)
                raws.append(probe.raw)
        if stage is not None:
            self.stages[stage] += statistics.median(times)
            self.raw_stages[stage] += statistics.median(raws)
        if any(res != results[0] for res in results):
            self.problems.append("repeated calls of one operation gave different results")
        return results[-1]

    def cli(self, stage, argv, reps=1):
        """(exit code, stdout) of `homdens <argv>`; exit 2 counts as failed."""

        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            if code not in (0, 1):
                raise RuntimeError(f"homdens {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
            return code, out.getvalue()

        return self.op(stage, call, reps)

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)


def run_round(workload, tracer=None, run_id=0):
    """One round of `workload`; with a tracer, traced and with layer metrics."""
    r = Round(len(workload.stages), tracer)
    gc.collect()  # every round starts from the same heap
    if tracer is None:
        workload.round(r)
        return r
    tracer.reset()
    tracer.run_id = run_id
    tracer.install()
    try:
        workload.round(r)
    finally:
        tracer.uninstall()
    r.layers = tracer.metrics()
    return r


class Workload:
    """Inputs from `setup`, one round of timed operations, final checks."""

    stages = ()  # names of the three timed parts, reported as stage1_s..stage3_s
    setup_repeats = 3

    def __init__(self, seed):
        self.seed = seed

    def finish(self, r):
        """Checks made once per run, outside the timing."""


class Construct(Workload):
    """Canonical labeling without density search: build, enumerate, parse."""

    stages = ("counterexample_s", "enumerate_s", "parse_s")
    x = e7 = None

    def setup(self):
        self.y = _seeded_weights(random.Random(self.seed), 6)

    def round(self, r):
        res = r.cli(0, ["counterexample", "--k", "6", "--out", "x.qg"])
        r.expect(res in (None, (0, "terms=11464\nout=x.qg\n")), f"counterexample printed {res}")
        res = r.cli(1, ["enumerate", "--n", "7", "--out", "e7.txt"], reps=3)
        r.expect(res in (None, (0, "count=1044\nout=e7.txt\n")), f"enumerate printed {res}")
        x = r.op(2, lambda: algebra.parse_quantum(_read("x.qg")), reps=3)

        lines = _read("x.qg").splitlines()
        r.expect(len(lines) == 11464, f"x.qg holds {len(lines)} terms, expected 11464")
        if x is not None:
            written = {(rec, Fraction(c)) for c, rec in (ln.split(" * ", 1) for ln in lines)}
            parsed = {(graphs.format_plg(k, canonicalize=False), c) for k, c in x.terms.items()}
            r.expect(parsed == written, "parse_quantum(x.qg) differs from the written graph")
            self.x = x
        records = _read("e7.txt").splitlines()
        r.expect(len(records) == len(set(records)) == 1044, "e7.txt does not hold 1044 distinct records")
        self.e7 = records

    def finish(self, r):
        if self.x is not None:
            value = r.op(None, lambda: density.t_quantum(self.x, density.WeightedGraph(H6, self.y)))
            r.expect(value in (None, ref.counterexample_value(self.y)), f"t(x; H6, {self.y}) = {value}")
        for n in range(7):
            res = r.cli(None, ["enumerate", "--n", str(n)])
            if res is None:
                continue
            lines = res[1].splitlines()
            found = [ref.parse_record(ln.split("=", 1)[1]) for ln in lines[1:]]
            r.expect(
                lines[0] == f"count={ref.GRAPH_COUNTS[n]}" and len(found) == ref.GRAPH_COUNTS[n]
                and ref.covers_all_classes(n, [e for _, e in found]),
                f"enumerate --n {n} does not list one graph per class",
            )
        if self.e7 is not None:
            found = [ref.parse_record(ln) for ln in self.e7]
            r.expect(
                all(m == 7 for m, _ in found) and ref.covers_all_classes(7, [e for _, e in found]),
                "e7.txt does not list one graph per class",
            )


class Evaluate(Workload):
    """Hom-extension search and Fraction arithmetic over the 11464-term graph."""

    stages = ("eval_s", "density_poly_s", "refute_s")
    setup_repeats = 1  # set-up builds the counterexample, ~10 s
    blowup = (1, 1, 1, 2, 1, 1)  # y4 = 2/7 makes t(x) = 2/40353607, not 0
    weighted_copies = 2

    def setup(self):
        self.x = reductions.build_counterexample(6)
        _write("x.qg", algebra.format_quantum(self.x))
        rng = random.Random(self.seed)
        self.targets = []
        for _ in range(self.weighted_copies):
            y = _seeded_weights(rng, 6)
            self.targets.append((density.WeightedGraph(H6, y), y))
        n, edges = ref.independent_blowup(ref.H6_EDGES, self.blowup)
        y = tuple(Fraction(c, n) for c in self.blowup)
        self.targets.append((graphs.Graph(n, edges), y))

    def round(self, r):
        for target, y in self.targets:
            value = r.op(0, lambda: density.t_quantum(self.x, target))
            r.expect(value in (None, ref.counterexample_value(y)), f"t(x; {target}) = {value}")
        poly = r.op(1, lambda: density.density_polynomial(self.x, H6), reps=3)
        if poly is not None:
            r.expect(
                poly.vars == Y_VARS and poly.terms == ref.counterexample_polynomial(),
                "density_polynomial(x, H6) differs from y1...y6 times the cyclic form",
            )
        res = r.cli(2, ["refute", "--in", "x.qg", "--max-n", "2", "--samples", "2",
                        "--seed", str(self.seed), "--jobs", "1"])
        r.expect(res in (None, (0, "witness=none\n")), f"refute printed {res}")


class Certify(Workload):
    """Gluing, normal forms and expand, plus the structured density route."""

    stages = ("pipeline_s", "check_proof_s", "verify_sos_s")
    setup_repeats = 3
    sizes = ((3, 1, 1, 1, 1, 1), (4, 1, 1, 1, 1, 1), (3, 2, 1, 1, 1, 1),
             (3, 1, 1, 1, 1, 2), (5, 1, 1, 1, 1, 1))
    certificates = 40
    squares = 3  # quantum graphs per certificate
    terms = 3  # 3-vertex terms per quantum graph

    def setup(self):
        rng = random.Random(self.seed)
        _write("p.poly", ref.PIPELINE_POLY + "\n")
        self.proofs = []
        flip = {}
        for i, (n, edges, labels) in enumerate(ref.labeled_graphs_up_to(4)):
            self.proofs.append(self._write_proof(f"proof{i}", (n, edges, labels), 1))
            flip.setdefault((n, edges), []).append((n, edges, labels))
        # One sign-flipped proof per underlying graph: its cost depends only
        # on the graph, so the seeded choice of labeling keeps the work fixed.
        for i, choices in enumerate(flip.values()):
            self.proofs.append(self._write_proof(f"flip{i}", rng.choice(choices), -1))
        self.sos = []
        for i in range(self.certificates):
            self.sos.extend(self._write_certificate(rng, i))

    def _write_proof(self, stem, h, sign):
        full = ref.format_record(*ref.fully_labeled(*h))
        claim = f"(ind {ref.format_record(*h)})"
        if sign < 0:
            claim = f"(prod (q -1) {claim})"
        labels = ",".join(str(lab) for lab, _ in h[2])
        _write(f"{stem}.txt",
               f"1: (prod (ind {full}) (ind {full})) ; by A1((ind {full}))\n"
               f"2: {claim} ; by R3(1, T={labels})\n")
        _write(f"{stem}.qx", claim + "\n")
        expected = (0, "lines=2\naccepted=true\n") if sign > 0 else (1, "lines=2\naccepted=false\n")
        return ["check-proof", "--in", f"{stem}.txt", "--claim", f"{stem}.qx"], expected

    def _write_certificate(self, rng, i):
        cert = []
        for _ in range(self.squares):
            g = []
            for _ in range(self.terms):
                edges = tuple(e for e in combinations(range(3), 2) if rng.random() < 0.5)
                labs = rng.choice(((), (1,), (2,), (1, 2)))
                labels = tuple(zip(labs, rng.sample(range(3), len(labs))))
                g.append((Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)),
                          (3, edges, labels)))
            cert.append(g)
        target = []
        for g in cert:
            for (ca, fa), (cb, fb) in product(g, g):
                n, edges, _ = ref.glue(fa, fb)
                target.append((ca * cb, n, edges))
        extra = (Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)),
                 *rng.choice(((2, ((0, 1),)), (3, ((0, 1), (1, 2))), (4, ((0, 1), (1, 2), (2, 3))))))

        # Confirm the target by brute force before handing it to the program.
        for n, edges in ((2, ((0, 1),)), (3, ((0, 1), (1, 2)))):
            small = ref.weighted_target(n, edges, [rng.randint(1, 5) for _ in range(n)])
            squares = ref.sum_of_squares_value(cert, small)
            value = sum(c * ref.rooted_density(m, e, {}, small) for c, m, e in target)
            if value != squares:
                raise RuntimeError(f"certificate {i}: target is not its sum of squares")
            c, m, e = extra
            if value + c * ref.rooted_density(m, e, {}, small) == squares:
                raise RuntimeError(f"certificate {i}: mutation leaves the value unchanged")

        body = "".join(
            "g: (sum " + " ".join(f"(prod (q {c}) (g {ref.format_record(*f)}))" for c, f in g) + ")\n"
            for g in cert
        )
        _write(f"cert{i}.sos", "sos:\n" + body)
        lines = "".join(f"{c} * {ref.format_record(n, e)}\n" for c, n, e in target)
        _write(f"target{i}.qg", lines)
        _write(f"mutant{i}.qg", lines + f"{extra[0]} * {ref.format_record(*extra[1:])}\n")
        return [
            (["verify-sos", "--target", f"target{i}.qg", "--cert", f"cert{i}.sos"], (0, "verified=true\n")),
            (["verify-sos", "--target", f"mutant{i}.qg", "--cert", f"cert{i}.sos"], (1, "verified=false\n")),
        ]

    def round(self, r):
        res = r.cli(0, ["reduce", "--poly", "p.poly", "--k", "6", "--out", "inst.qx"])
        r.expect(res in (None, (0, "out=inst.qx\n")), f"reduce printed {res}")
        for i, sizes in enumerate(self.sizes):
            argv = ["witness", "--poly", "p.poly", "--sizes", ",".join(map(str, sizes)),
                    "--out", f"wit{i}.plg"]
            res = r.cli(0, argv)
            r.expect(res in (None, (0, f"n={sum(sizes)}\nout=wit{i}.plg\n")), f"witness printed {res}")
            res = r.cli(0, ["eval", "--in", "inst.qx", "--target", f"wit{i}.plg"])
            if res is not None:
                code, out = res
                want = ref.pipeline_value(sizes)
                r.expect(code == 1 and out == f"value={want}\n", f"eval at sizes {sizes}: {code} {out[:60]}")
        for argv, expected in self.proofs:
            res = r.cli(1, argv)
            r.expect(res in (None, expected), f"{' '.join(argv)} gave {res}, expected {expected}")
        for argv, expected in self.sos:
            res = r.cli(2, argv, reps=3)
            r.expect(res in (None, expected), f"{' '.join(argv)} gave {res}, expected {expected}")


WORKLOADS = {"construct": Construct, "evaluate": Evaluate, "certify": Certify}
