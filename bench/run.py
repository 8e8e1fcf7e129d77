"""Run one homdens benchmark workload and print its metrics.

    python3 bench/run.py --workload construct --seed 1 --seconds 5 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/`.  Inputs and outputs go to `bench/work/<workload>/`.  The workload
repeats whole rounds until `--seconds` have passed (at least one round)
and reports medians over the rounds.  Times are in reference-speed
seconds (see speed.py); the human-readable lines also show the measured
seconds.  With `--trace 1` every round runs
twice, untraced and then traced, and the per-layer metrics of the traced
rounds are reported instead; their spans go to
`bench/work/spans-<workload>-seed<seed>.tsv`.  The last stdout line is
the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "work")

# Unit of each end-to-end metric.  stage1_s..stage3_s are the three timed
# parts of a workload, named in its `stages`.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "stage1_s": "s",
    "stage2_s": "s",
    "stage3_s": "s",
}


def _arguments(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("construct", "evaluate", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = _arguments(argv)
    if not os.path.isfile(os.path.join(SRC, "homdens", "cli.py")):
        print(f"error: no homdens package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("HOMDENS_CACHE_DIR", None)  # enumeration starts cold
    sys.path[:0] = [SRC, BENCH_DIR]

    from speed import SpeedMeter

    meter = SpeedMeter()
    with meter.measure() as imported:
        import homdens.cli
    if not os.path.abspath(homdens.__file__).startswith(SRC + os.sep):
        print(f"error: imported homdens from {homdens.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import selftest
    import tracing
    import workloads

    problems = selftest.run()
    if problems:
        print("error: benchmark self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.chdir(workdir)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setups = []
    for _ in range(workload.setup_repeats):
        with meter.measure() as probe:
            workload.setup()
        setups.append(probe)
    setup_s = imported.seconds + statistics.median(p.seconds for p in setups)
    setup_raw = imported.raw + statistics.median(p.raw for p in setups)

    tracer = tracing.Tracer() if args.trace else None
    rounds, traced = [], []
    begin = perf_counter()
    while True:
        rounds.append(workloads.run_round(workload))
        if tracer:
            traced.append(workloads.run_round(workload, tracer, len(traced) + 1))
        if perf_counter() - begin >= args.seconds:
            break
    last = workloads.Round(len(workload.stages))
    workload.finish(last)

    everything = rounds + traced + [last]
    problems = [p for r in everything for p in r.problems]
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)

    wall = statistics.median([sum(r.stages) for r in rounds])
    raw = {}
    if tracer:
        metrics = {
            name: {"value": statistics.median([r.layers[name] for r in traced]), "unit": unit}
            for name, unit, _ in tracing.LAYER_METRICS
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median([sum(r.stages) for r in traced]) - wall,
            "unit": "s",
        }
        spans = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write(spans)
        print(f"spans: {len(tracer.start)} written to {os.path.relpath(spans, ROOT)}")
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        raw["setup_s"] = setup_raw
        raw["wall_s"] = statistics.median([sum(r.raw_stages) for r in rounds])
        for i in range(len(workload.stages)):
            values[f"stage{i + 1}_s"] = statistics.median([r.stages[i] for r in rounds])
            raw[f"stage{i + 1}_s"] = statistics.median([r.raw_stages[i] for r in rounds])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    labels = {f"stage{i + 1}_s": label for i, label in enumerate(workload.stages)}
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
          f"attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        shown = f"{labels[name]} ({name})" if name in labels else name
        measured = f" (measured {raw[name]:.4g} s)" if name in raw else ""
        print(f"  {shown} = {m['value']:.6g} {m['unit']}{measured}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    with open(os.path.join(WORK, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
