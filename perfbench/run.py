"""The repository benchmark: time to verdict and decided share, per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite_sweep --seed 1 --seconds 40 --trace 0

Workloads (``perfbench/workloads.py``): ``itp_deep``, ``pdr_deep``,
``suite_sweep`` and ``race``; ``BENCHMARK.json`` gates the last two (see
``perfbench/README.md`` for why the deep ones are not).  The engines run the
way users run them, one property at a time in a closed loop, under the
deterministic budgets of the artefact benchmarks.  A run

1. writes the workload's circuits to AIGER (seeded) and times, in fresh
   processes, ``import repro`` plus parsing them (``setup_s``);
2. times a canned ``CdclSolver`` solve (machine calibration, information only);
3. runs a fixed number of whole passes over the cells (``--seconds`` over
   the workload's nominal pass time), checking every verdict against the
   ground truth, replaying every FAIL trace on the parsed model and
   requiring each cell's deterministic tuple to be identical on every pass;
4. with ``--trace 1``, runs half as many untraced passes (rounded up) and
   then as many again with every layer's entry points wrapped
   (``perfbench/tracing.py``), reporting per-layer metrics instead.

Every end-to-end timing is taken over each cell's minimum time across the
run's passes.  Wrong verdicts are counted in ``failed``.

Human-readable lines come first; the last line of standard output is the
JSON result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")


def _declared(kind):
    """Name -> unit of the metrics ``BENCHMARK.json`` declares under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def _reported(values, declared):
    """The JSON ``metrics`` object; exactly the declared metrics, or an error."""
    if set(values) != set(declared):
        raise RuntimeError(f"measured metrics {sorted(values)} differ from "
                           f"the declared {sorted(declared)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program source not found under {SRC}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from harness import Bench, calibrate, end_to_end, summed_stats
    from workloads import RACE, WORKLOADS, passes_for

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)

    bench = Bench(args.workload, args.seed, SRC, WORK)
    calibration_s = calibrate()
    bench.warm_up()
    passes = passes_for(args.workload, args.seconds)
    # A traced run splits its passes: untraced ones, then as many traced.
    records, pass_walls = bench.run_passes((passes + 1) // 2 if args.trace else passes)
    metrics, tail_note = end_to_end(bench, records)
    attempted = len(records)

    print(f"perfbench {args.workload} seed={args.seed}: {len(bench.cells)} cells, "
          f"{len(pass_walls)} untraced pass(es), "
          f"pass wall {', '.join(f'{w:.3f}' for w in pass_walls)} s")
    print(f"  calibration (pigeonhole 7/6 CDCL solve): {calibration_s:.4f} s")
    units = _declared("end_to_end")
    for name, value in metrics.items():
        extra = f"   ({tail_note})" if name == "verdict_tail_s" else ""
        print(f"  {name:16s} {value:12.4f} {units[name]}{extra}")
    print(f"  wrong_verdicts   {len(bench.errors):12d} count")

    problems = []
    if args.trace:
        from tracing import (ENGINE_TARGETS, RACE_TARGETS, SpanRecorder,
                             cross_checks, instrument, layer_metrics)

        recorder = SpanRecorder()
        targets = RACE_TARGETS if args.workload == RACE else ENGINE_TARGETS
        with instrument(recorder, targets):
            traced, traced_walls = bench.run_passes(len(pass_walls), recorder)
        attempted += len(traced)
        # Race workers are separate processes: only parent-side layers count.
        stats = summed_stats([] if args.workload == RACE else traced)
        spans = recorder.self_times()
        layers = {"aig.parse_s": bench.setup_times()[1]}
        layers.update(layer_metrics(recorder, spans, stats, len(traced_walls),
                                    sum(r["child_cpu"] for r in traced)))
        overhead = statistics.fmean(traced_walls) - statistics.fmean(pass_walls)
        layers["trace.overhead_s"] = overhead
        layers["calib.solve_s"] = calibration_s
        if args.workload != RACE:
            problems = cross_checks(spans, stats)
        recorder.write(os.path.join(WORK, f"spans-{args.workload}-s{args.seed}.jsonl"))
        print(f"  traced passes: {', '.join(f'{w:.3f}' for w in traced_walls)} s; "
              f"tracing overhead {overhead:.3f} s "
              f"({overhead / statistics.fmean(pass_walls):+.1%} of untraced)")
        for name, value in layers.items():
            print(f"  {name:32s} {value:14.4f}")
        for problem in problems:
            print(f"  CROSS-CHECK FAILED: {problem}")
        reported = _reported(layers, _declared("per_layer"))
    else:
        reported = _reported(metrics, units)

    for message in bench.errors:
        print(f"  WRONG: {message}")
    for message in bench.mismatches:
        print(f"  TRAJECTORY MISMATCH: {message}")
    correct = not (bench.errors or bench.mismatches or problems)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(bench.errors), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
