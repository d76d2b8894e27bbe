"""Outside-in layer tracing: spans recorded by wrapping the program's entry points.

Nothing under ``src/`` is edited.  :func:`instrument` replaces each layer's
public entry point — a class method, or the module binding the engines call
through — with a wrapper that records a span ``(name, start, end, parent)``
in memory, and puts the originals back on exit.  Per-clause hot calls are
never wrapped; their counts come from the engines' own ``EngineStats``.

A span's *self time* is its duration minus the durations of its direct
children.  The benchmark opens one ``cell`` span around every verification
call, so the cell span's self time is exactly the time no wrapper covered:
the engine loop plus unwrapped code (``core.residual_s``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional

import repro.core.base as core_base
import repro.core.cba_engine as cba_engine
import repro.core.pdr_engine as pdr_engine
import repro.parallel as parallel
from repro.bmc.incremental import IncrementalUnroller
from repro.cnf.tseitin import TseitinEncoder
from repro.core.fixpoint import FixpointChecker
from repro.itp.craig import InterpolantBuilder
from repro.pdr.frames import FrameSequence
from repro.preprocess.coi import CoiPass
from repro.preprocess.fraig import FraigPass
from repro.preprocess.passes import CnfEliminationPass, Pipeline
from repro.preprocess.rewrite import RewritePass
from repro.preprocess.sweep import SweepPass
from repro.sat.solver import CdclSolver

CELL = "cell"


class SpanRecorder:
    """Spans kept in memory, plus the counts read off wrapped results.

    Spans live in flat typed arrays, not in one Python object per span:
    every cell's timing ends with a full garbage collection, and a
    collection never traverses an array, so the time it takes does not
    grow with the number of spans recorded so far.
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # One entry per span, by index: name id, start, end, parent, cell.
        self._name = array("I")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._cell = array("q")
        self.counts: Dict[str, float] = defaultdict(float)
        #: Cell span index -> the cell's engine name.
        self.cell_engines: Dict[int, str] = {}
        self._stack: List[int] = []

    @contextlib.contextmanager
    def cell(self, engine: str) -> Iterator[None]:
        """Open the root span of one verification call."""
        index = self._open(CELL)
        self.cell_engines[index] = engine
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self._start)
        parent = self._stack[-1] if self._stack else -1
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        self._name.append(name_id)
        self._parent.append(parent)
        self._cell.append(index if name == CELL
                          else (self._cell[parent] if parent >= 0 else -1))
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    def spans(self) -> Iterator[tuple]:
        """Every span as ``(name, start, end, parent, cell)``, in opening order."""
        names = self._names
        for name_id, start, end, parent, cell in zip(
                self._name, self._start, self._end, self._parent, self._cell):
            yield names[name_id], start, end, parent, cell

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(index)
            if on_result is not None:
                on_result(recorder.counts, result)
            return result

        return wrapper

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total self time."""
        child = [0.0] * len(self._start)
        for _, start, end, parent, _ in self.spans():
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
        for index, (name, start, end, _, _) in enumerate(self.spans()):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[index]
            entry["wall_s"] += end - start
        return totals

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, cell."""
        with open(path, "w") as handle:
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")


# The result hooks read only the denominators ``EngineStats`` lacks; every
# numerator is the engines' own counter.

def _on_pipeline(counts, result) -> None:
    counts["preprocess.ands_in"] += result.original.aig.num_ands


def _on_reduce(counts, result) -> None:
    _, reduction = result
    counts["sat.proof.nodes_in"] += reduction.nodes_before


def _on_compact(counts, result) -> None:
    counts["itp.compact_ands_in"] += result.ands_before


def _on_race(counts, outcome) -> None:
    winner = outcome.results.get(outcome.winner) if outcome.winner else None
    counts["parallel.winner_s"] += winner.time_seconds if winner else 0.0
    for result in outcome.results.values():
        for name in ("lemmas_tx", "lemmas_rx", "lemmas_retracted",
                     "share_solves_skipped"):
            counts["share." + name] += getattr(result.stats, name)


#: (span name, owner, attribute, result hook) for every in-process layer.
ENGINE_TARGETS = (
    ("preprocess.run", Pipeline, "run", _on_pipeline),
    ("preprocess.coi", CoiPass, "apply", None),
    ("preprocess.sweep", SweepPass, "apply", None),
    ("preprocess.rewrite", RewritePass, "apply", None),
    ("preprocess.fraig", FraigPass, "apply", None),
    ("preprocess.cnf", CnfEliminationPass, "apply", None),
    ("cnf.encode", TseitinEncoder, "literal", None),
    ("sat.solve", CdclSolver, "solve", None),
    ("sat.proof.reduce", core_base, "reduce_proof", _on_reduce),
    ("itp.extract", InterpolantBuilder, "extract", None),
    ("itp.compact", core_base, "compact_cone", _on_compact),
    ("core.fixpoint.implies", FixpointChecker, "implies", None),
    ("bmc.extend", IncrementalUnroller, "extend", None),
    ("bmc.refutation", IncrementalUnroller, "refutation", None),
    ("pdr.obligation", FrameSequence, "check_obligation", None),
    ("pdr.generalize", pdr_engine, "generalize", None),
    ("pdr.propagate", FrameSequence, "propagate", None),
    ("abstraction.extend", cba_engine, "extend_counterexample", None),
)

#: The race is traced on the parent side only: its workers are forked
#: processes, so wrappers installed there would record into memory nobody reads.
RACE_TARGETS = (
    ("parallel.race", parallel, "race_engines", _on_race),
)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, targets) -> Iterator[None]:
    """Install the wrappers of ``targets``; restore the originals on exit."""
    originals = []
    try:
        for name, owner, attribute, hook in targets:
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(name, original, hook))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


PASS_NAMES = ("coi", "sweep", "rewrite", "fraig", "cnf")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, spans: Dict[str, Dict[str, float]],
                  stats: Dict[str, float], passes: int,
                  child_cpu_s: float) -> Dict[str, float]:
    """Per-layer metrics of the traced passes, each as a per-pass figure.

    ``spans`` is :meth:`SpanRecorder.self_times`; ``stats`` sums the cells'
    ``EngineStats`` counters over the traced passes; ``child_cpu_s`` is the
    CPU time the traced passes' child processes used.
    """
    counts = recorder.counts

    def calls(name):
        return spans[name]["calls"] / passes if name in spans else 0

    def self_s(name):
        return spans[name]["self_s"] / passes if name in spans else 0.0

    def per_pass(value):
        return value / passes

    pdr_solves = sum(1 for name, _, _, _, cell in recorder.spans()
                     if name == "sat.solve"
                     and recorder.cell_engines.get(cell) == "pdr")
    cell_wall = spans[CELL]["wall_s"] if CELL in spans else 0.0
    race_wall = spans["parallel.race"]["wall_s"] if "parallel.race" in spans else 0.0
    metrics = {
        "preprocess.calls": calls("preprocess.run"),
        "preprocess.self_s": self_s("preprocess.run"),
    }
    for name in PASS_NAMES:
        metrics[f"preprocess.{name}.self_s"] = self_s(f"preprocess.{name}")
    metrics.update({
        "preprocess.ands_removed_share": _ratio(stats["pre_ands_removed"],
                                                counts["preprocess.ands_in"]),
        "preprocess.fraig_merge_ratio": _ratio(stats["fraig_merges"],
                                               stats["fraig_sat_confirms"]),
        "cnf.encode_calls": calls("cnf.encode"),
        "cnf.encode_self_s": self_s("cnf.encode"),
        "cnf.clauses_added": per_pass(stats["clauses_added"]),
        "sat.solve_calls": calls("sat.solve"),
        "sat.solve_self_s": self_s("sat.solve"),
        "sat.propagations": per_pass(stats["propagations"]),
        "sat.conflicts": per_pass(stats["conflicts"]),
        "sat.props_per_s": _ratio(stats["propagations"],
                                  passes * self_s("sat.solve")),
        "sat.proof.reduce_calls": calls("sat.proof.reduce"),
        "sat.proof.reduce_self_s": self_s("sat.proof.reduce"),
        "sat.proof.nodes_in": per_pass(counts["sat.proof.nodes_in"]),
        "sat.proof.trim_ratio": _ratio(stats["proof_nodes_trimmed"],
                                       counts["sat.proof.nodes_in"]),
        "sat.proof.group_fallback_ratio": _ratio(stats["proof_group_fallbacks"],
                                                 passes * calls("bmc.refutation")),
        "itp.extract_calls": calls("itp.extract"),
        "itp.extract_self_s": self_s("itp.extract"),
        "itp.nodes": per_pass(stats["itp_nodes"]),
        "itp.compact_self_s": self_s("itp.compact"),
        "itp.compact_saved_ratio": _ratio(stats["itp_ands_compacted"],
                                          counts["itp.compact_ands_in"]),
        "core.fixpoint.implies_calls": calls("core.fixpoint.implies"),
        "core.fixpoint.implies_self_s": self_s("core.fixpoint.implies"),
        "core.fixpoint.reuse_ratio": _ratio(stats["fixpoint_encodings_reused"],
                                            stats["containment_checks"]),
        "bmc.extend_self_s": self_s("bmc.extend"),
        "bmc.refutation_self_s": self_s("bmc.refutation"),
        "pdr.obligation_calls": calls("pdr.obligation"),
        "pdr.obligation_self_s": self_s("pdr.obligation"),
        "pdr.generalize_self_s": self_s("pdr.generalize"),
        "pdr.propagate_self_s": self_s("pdr.propagate"),
        "pdr.blocked_cubes": per_pass(stats["blocked_cubes"]),
        "pdr.solves_per_cube": _ratio(pdr_solves, stats["blocked_cubes"]),
        "abstraction.refinements": per_pass(stats["refinements"]),
        "abstraction.extend_self_s": self_s("abstraction.extend"),
        "core.residual_s": self_s(CELL),
        "core.attributed_share": 1.0 - _ratio(passes * self_s(CELL), cell_wall),
        "parallel.race_overhead_s": per_pass(race_wall - counts["parallel.winner_s"]),
        "parallel.child_cpu_s": per_pass(child_cpu_s),
        "parallel.useful_cpu_share": _ratio(counts["parallel.winner_s"], child_cpu_s),
        "share.lemmas_tx": per_pass(counts["share.lemmas_tx"]),
        "share.lemmas_rx": per_pass(counts["share.lemmas_rx"]),
        "share.lemmas_retracted": per_pass(counts["share.lemmas_retracted"]),
        "share.solves_skipped": per_pass(counts["share.share_solves_skipped"]),
    })
    return metrics


def cross_checks(spans: Dict[str, Dict[str, float]],
                 stats: Dict[str, float]) -> List[str]:
    """Wrapper call counts that must equal the program's own counters.

    A mismatch means a wrapper sits at a binding the engines no longer call.
    """
    problems = []
    for span_name, stat_name in (("itp.extract", "itp_extractions"),
                                 ("core.fixpoint.implies", "containment_checks")):
        wrapped = spans[span_name]["calls"] if span_name in spans else 0
        if wrapped != stats[stat_name]:
            problems.append(f"{span_name} calls {wrapped} != "
                            f"EngineStats.{stat_name} {stats[stat_name]:g}")
    return problems
