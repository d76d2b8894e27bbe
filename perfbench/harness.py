"""Running one workload: inputs, set-up probes, passes, checks and metrics."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

from repro.aig import Model, read_aiger
from repro.core import Portfolio, run_engine
from repro.core.result import EngineStats
from repro.sat import CdclSolver, SatResult
from workloads import OPTIONS, RACE, RACE_JOBS, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh-process set-up measurements per run (after one untimed warm-up).
SETUP_PROBES = 9
#: Canned solves per run for the machine calibration.
CALIBRATION_SOLVES = 3
#: Candidate percentiles for ``verdict_tail_s``, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _cpu():
    """(own, children's) user+system CPU seconds so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime,
            children.ru_utime + children.ru_stime)


def probe_setup(src, files):
    """One fresh-process set-up measurement: ``{"setup_s", "parse_s"}``."""
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"), src] + files
    done = subprocess.run(command, capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(done.stdout.strip().splitlines()[-1])


def calibrate():
    """Median wall time of a canned CDCL solve: pigeonhole, 7 pigeons, 6 holes."""
    holes = 6
    times = []
    for _ in range(CALIBRATION_SOLVES):
        solver = CdclSolver()
        var = lambda pigeon, hole: pigeon * holes + hole + 1  # noqa: E731
        for pigeon in range(holes + 1):
            solver.add_clause([var(pigeon, hole) for hole in range(holes)])
        for hole in range(holes):
            for a in range(holes + 1):
                for b in range(a + 1, holes + 1):
                    solver.add_clause([-var(a, hole), -var(b, hole)])
        started = time.perf_counter()
        answer = solver.solve()
        times.append(time.perf_counter() - started)
        if answer is not SatResult.UNSAT:
            raise RuntimeError("calibration: pigeonhole instance reported satisfiable")
    return statistics.median(times)


class Bench:
    """One workload's inputs, passes and checks."""

    def __init__(self, workload: str, seed: int, src: str, work: str) -> None:
        directory = os.path.join(work, "inputs", workload)
        if os.path.isdir(directory):
            for name in os.listdir(directory):
                os.remove(os.path.join(directory, name))
        made = make_inputs(workload, seed, directory)
        self.cells = made["cells"]
        self.warmup_file = made["warmup"]
        files = made["files"]
        # Set-up probes are spread over the run (one after each untraced
        # pass, topped up at the end), so their median does not hinge on the
        # machine's speed during one short moment.  The first probe warms
        # the file cache and is not counted.
        self._probe_args = (src, sorted(files.values()))
        probe_setup(*self._probe_args)
        self.setup_samples = []
        # Parsed once; traces are replayed on these, engines get copies.
        self.models = {name: Model(read_aiger(path), name=name)
                       for name, path in files.items()}
        self.tuples = {}
        self.errors = []           # wrong verdicts, one message each
        self.mismatches = []       # trajectory differences

    def setup_times(self):
        """Median ``(setup_s, parse_s)`` after topping the probes up."""
        while len(self.setup_samples) < SETUP_PROBES:
            self.setup_samples.append(probe_setup(*self._probe_args))
        return (statistics.median(s["setup_s"] for s in self.setup_samples),
                statistics.median(s["parse_s"] for s in self.setup_samples))

    def fresh_model(self, instance):
        parsed = self.models[instance]
        return Model(parsed.aig.copy(), name=instance)

    def run_cell(self, engine, model):
        if engine == RACE:
            return Portfolio(options=OPTIONS).run_first_solved(
                model, parallel=True, jobs=RACE_JOBS, share=True)
        return run_engine(engine, model, OPTIONS)

    def warm_up(self):
        """Run every engine of the workload once on a small circuit, untimed.

        Then freeze the heap built so far (imported modules, parsed inputs):
        the collections every cell pays for below traverse only what the
        cells themselves allocate, not the benchmark's own data.
        """
        aig = read_aiger(self.warmup_file)
        for engine in sorted({cell.engine for cell in self.cells}):
            self.run_cell(engine, Model(aig.copy(), name="warmup"))
        gc.collect()
        gc.freeze()

    def _wait4(self, pid, options):
        """``os.waitpid`` that also keeps the peak memory of a child that
        ran to completion.

        A race loser killed by a signal is left out: its peak depends on
        how far it got before it was cancelled (33 to 94 MB on
        ``indA2_ring16``), not on the work the race needed.
        """
        pid, status, usage = os.wait4(pid, options)
        if pid and not os.WIFSIGNALED(status):
            self._reaped_kb.append(usage.ru_maxrss)
        return pid, status

    def run_pass(self, recorder=None):
        """One closed-loop pass over every cell: list of per-cell records.

        While the pass runs, ``os.waitpid`` (through which multiprocessing
        reaps the race workers) is replaced by :meth:`_wait4`, so each
        record carries the largest peak memory of the workers its cell
        forked that ran to completion (0 for a solo engine).
        """
        records = []
        waitpid, os.waitpid = os.waitpid, self._wait4
        try:
            for cell in self.cells:
                self._reaped_kb = []
                records.append(self._run_cell_timed(cell, recorder))
        finally:
            os.waitpid = waitpid
        return records

    def _run_cell_timed(self, cell, recorder):
        """Run one cell and time it: one per-cell record."""
        model = self.fresh_model(cell.instance)
        own0, children0 = _cpu()
        started = time.perf_counter()
        if recorder is None:
            result = self.run_cell(cell.engine, model)
        else:
            with recorder.cell(cell.engine):
                result = self.run_cell(cell.engine, model)
        # Batch time: the cell pays for collecting the cyclic garbage
        # it leaves behind (proofs, interpolant cones, engine state).
        gc.collect()
        wall = time.perf_counter() - started
        own1, children1 = _cpu()
        self.check(cell, result)
        return {"cell": cell, "wall": wall,
                "cpu": (own1 - own0) + (children1 - children0),
                "child_cpu": children1 - children0,
                "worker_kb": max(self._reaped_kb, default=0),
                "solved": result.solved, "stats": result.stats}

    def check(self, cell, result):
        """Ground-truth verdict, FAIL depth and replay; trajectory identity."""
        verdict = result.verdict.value
        if verdict in ("pass", "fail"):
            problem = None
            if verdict != cell.expected:
                problem = f"verdict {verdict}, expected {cell.expected}"
            elif verdict == "fail":
                trace = result.trace
                if trace is None:
                    problem = "FAIL without a trace"
                elif (cell.expected_depth is not None
                      and (result.k_fp, trace.depth) != (cell.expected_depth,) * 2):
                    problem = (f"FAIL at k_fp={result.k_fp}, trace depth "
                               f"{trace.depth}, expected {cell.expected_depth}")
                elif not trace.check(self.models[cell.instance]):
                    problem = "FAIL trace does not replay on the parsed model"
            if problem is not None:
                self.errors.append(f"{cell.key}: {problem}")
        if cell.engine == RACE:
            # The race winner is not schedule-deterministic; its verdict is.
            signature = (verdict,)
        else:
            stats = result.stats
            signature = (verdict, result.k_fp, result.j_fp, stats.clauses_added,
                         stats.propagations, stats.sat_calls)
        previous = self.tuples.setdefault(cell.key, signature)
        if previous != signature:
            self.mismatches.append(f"{cell.key}: {previous} then {signature}")

    def run_passes(self, count, recorder=None):
        """Exactly ``count`` passes: (all records, each pass's wall time)."""
        records, pass_walls = [], []
        for _ in range(count):
            pass_started = time.perf_counter()
            records.extend(self.run_pass(recorder))
            pass_walls.append(time.perf_counter() - pass_started)
            if recorder is None:
                self.setup_samples.append(probe_setup(*self._probe_args))
        return records, pass_walls


def _tail(samples):
    """Highest candidate percentile with enough samples beyond it.

    Enough means ten, or a quarter of the samples when there are fewer
    than forty (at least one).  Returns (value, percentile, samples beyond).
    """
    ordered = sorted(samples)
    count = len(ordered)
    wanted = max(1, min(10, count // 4))
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile / 100.0 * count))
        beyond = count - rank
        if beyond >= wanted:
            return ordered[rank - 1], percentile, beyond
    return ordered[-1], 100.0, 0


def end_to_end(bench, records):
    """The end-to-end metrics from the untraced passes.

    Every timing is taken over each cell's minimum across the run's passes:
    a cell's cost is deterministic work, and the minimum is the pass the
    shared machine disturbed least.  The sample count is the number of cells.
    """
    walls, cpus, workers = {}, {}, {}
    for record in records:
        key = record["cell"].key
        walls.setdefault(key, []).append(record["wall"])
        cpus.setdefault(key, []).append(record["cpu"])
        workers.setdefault(key, []).append(record["worker_kb"])
    best = [min(values) for values in walls.values()]
    tail, percentile, beyond = _tail(best)
    decided = sum(1 for record in records if record["solved"])
    setup_s, _ = bench.setup_times()
    # A race's memory is its workers': the parent only forks, waits and
    # reads pipes.  Each race counts with its leanest pass, as timings do.
    worker_kb = max(min(values) for values in workers.values())
    peak_kb = worker_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(best),
        "cell_geomean_s": math.exp(statistics.fmean(math.log(v) for v in best)),
        "verdict_p50_s": statistics.median(best),
        "verdict_tail_s": tail,
        "cpu_s": sum(min(values) for values in cpus.values()),
        "peak_rss_mb": peak_kb / 1024.0,
        "decided_share": decided / len(records),
    }
    note = f"p{percentile:g} of {len(best)} cells, {beyond} beyond it"
    return metrics, note


def summed_stats(records):
    """The cells' ``EngineStats`` counters, summed."""
    totals = dict.fromkeys(EngineStats().as_dict(), 0)
    for record in records:
        for name, value in record["stats"].as_dict().items():
            totals[name] += value
    return totals
