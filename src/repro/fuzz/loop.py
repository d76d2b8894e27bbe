"""The differential fuzz loop: six engines × variants × preprocessing.

For every seed the loop generates the base model, applies every registered
mutator, and runs all six engine front-ends — the five UMC engines of the
registry plus :class:`~repro.bmc.engine.BmcEngine` — on every variant with
preprocessing on and off, under deterministic clause/propagation budgets.
It then asserts, against the planted ground truth and the mutator
contracts:

* every UMC run solves (PASS/FAIL; OVERFLOW/UNKNOWN is a finding at these
  model sizes) with the planted verdict;
* on FAIL, ``k_fp`` equals the planted depth for every engine and
  configuration, and BMC reports the same failing depth;
* preprocessing on-vs-off yields identical verdicts (and depths on FAIL)
  per engine;
* optionally (``--check-no-group-proof``) group-aware proof logging
  on-vs-off yields identical verdicts (and depths on FAIL) per UMC engine
  — PASS convergence bounds may legitimately differ, so they are not
  compared;
* FAIL traces replay on the raw model: engines already validate their
  own lifted traces (``validate_traces``), and mutant traces are lowered
  through the mutation's variable maps and replayed on the *base* model.

Any violation is a :class:`Problem`.  The failing variant is then shrunk
(:mod:`repro.fuzz.shrink`) under a predicate that re-runs the implicated
engines and checks for *internal* disagreement — sound under shrinking
surgery, unlike the planted verdict — and a self-contained repro bundle
(binary ``.aig`` files + seed + command line) is written.

Seeds fan out over worker processes through
:func:`repro.parallel.parallel_map`; reports carry only picklable scalars
and come back in seed order, so the rendered summary is byte-identical at
any ``--jobs`` value.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..aig.aiger import write_aig
from ..aig.model import Model
from ..bmc.cex import Trace
from ..bmc.engine import BmcEngine
from ..core import ENGINES, EngineOptions, run_engine
from ..parallel import parallel_map
from .generate import FuzzParams, generate
from .mutate import MUTATORS, Mutation, apply_mutator
from .shrink import shrink_model

__all__ = [
    "ENGINE_ORDER",
    "FuzzConfig",
    "RunRecord",
    "Problem",
    "VariantReport",
    "SeedReport",
    "FuzzReport",
    "run_fuzz",
    "render_summary",
]

#: The six engine front-ends under differential test: the UMC registry
#: (in registration order) plus the plain BMC engine.
ENGINE_ORDER: Tuple[str, ...] = tuple(ENGINES) + ("bmc",)


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz campaign: seed range, engine budgets, feature toggles."""

    seed: int = 0
    iterations: int = 50
    jobs: Optional[int] = 1
    mutators: Tuple[str, ...] = tuple(MUTATORS)
    #: Bound/frame ceiling for the UMC engines; must exceed the largest
    #: planted failure depth plus the deepest fixpoint the tiny counters
    #: need (generously: the generator plants depths <= 8).
    max_bound: int = 30
    #: BMC deepening horizon; must cover every planted failure depth.
    bmc_depth: int = 10
    #: Deterministic budgets (machine-independent OVERFLOW points).  At
    #: fuzz model sizes these bind only on a runaway engine bug.
    max_clauses: Optional[int] = 2_000_000
    max_propagations: Optional[int] = 50_000_000
    #: Also run every engine with preprocessing off and assert identity.
    check_no_preprocess: bool = True
    #: Also run every UMC engine with group-aware proof logging off
    #: (``--no-group-proof``: fresh refutation solver per bound) and assert
    #: the verdict — and, on FAIL, the depth — is identical.  PASS
    #: convergence bounds (``k_fp``/``j_fp``) are *not* compared: the
    #: stripped refutation is a different (stronger) proof of the same
    #: fact, and interpolants from it may legitimately close the fixpoint
    #: at a neighbouring bound (see tests/core/test_group_proof_identity).
    check_no_group_proof: bool = False
    shrink: bool = True
    shrink_checks: int = 48
    #: Where repro bundles are written (``None`` disables bundles).
    bundle_dir: Optional[str] = None
    #: Every Nth seed additionally runs the deterministic cooperative
    #: shared race (:func:`repro.share.coop.cooperative_race`, all six
    #: engines exchanging lemmas) on the *base* model and asserts the
    #: planted verdict — and, on FAIL, the planted depth, since honest
    #: lemmas can only skip refuted bounds, never hide the first failing
    #: one.  ``0`` (the default) disables the mode; the nightly lane runs
    #: a subset because a race costs several solo runs per seed.
    share_race_every: int = 0


@dataclass(frozen=True)
class RunRecord:
    """One engine run: UMC verdicts, or BMC's ``fail``/``no_cex``/``unknown``."""

    engine: str
    preprocess: bool
    verdict: str
    depth: Optional[int]
    group_proof: bool = True


@dataclass(frozen=True)
class Problem:
    """One violated expectation."""

    seed: int
    variant: str
    engine: str
    kind: str        # verdict | depth | unsolved | identity | trace | error
    detail: str


@dataclass(frozen=True)
class VariantReport:
    variant: str
    records: Tuple[RunRecord, ...]


@dataclass(frozen=True)
class SeedReport:
    seed: int
    params: FuzzParams
    variants: Tuple[VariantReport, ...]
    problems: Tuple[Problem, ...]
    bundle: Optional[str] = None
    shrunk: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def runs(self) -> int:
        return sum(len(v.records) for v in self.variants)


@dataclass(frozen=True)
class FuzzReport:
    seed: int
    iterations: int
    mutators: Tuple[str, ...]
    seeds: Tuple[SeedReport, ...]

    @property
    def problems(self) -> Tuple[Problem, ...]:
        return tuple(p for s in self.seeds for p in s.problems)

    @property
    def runs(self) -> int:
        return sum(s.runs for s in self.seeds)


# --------------------------------------------------------------------- #
# Single engine runs and expectation checks
# --------------------------------------------------------------------- #
def _run_one(engine: str, model: Model, pre: bool,
             config: FuzzConfig, group_proof: bool = True
             ) -> Tuple[RunRecord, Optional[Trace], Optional[str]]:
    """Run one engine; never raise — errors become a record + detail."""
    try:
        if engine == "bmc":
            result = BmcEngine(model, preprocess=pre).run(
                max_depth=config.bmc_depth)
            return (RunRecord(engine, pre, result.status, result.depth),
                    result.trace, None)
        options = EngineOptions(max_bound=config.max_bound, preprocess=pre,
                                max_clauses=config.max_clauses,
                                max_propagations=config.max_propagations,
                                group_proof=group_proof)
        result = run_engine(engine, model, options)
        return (RunRecord(engine, pre, result.verdict.value, result.k_fp,
                          group_proof),
                result.trace, None)
    except Exception as exc:  # noqa: BLE001 - a crash is a finding, not an abort
        return (RunRecord(engine, pre, "error", None, group_proof), None,
                f"{type(exc).__name__}: {exc}")


def _expected_bmc_verdict(expected: str) -> str:
    return "fail" if expected == "fail" else "no_cex"


def _check_record(record: RunRecord, error: Optional[str],
                  trace: Optional[Trace], params: FuzzParams,
                  variant: str, base: Model, mutation: Optional[Mutation],
                  problems: List[Problem]) -> None:
    seed = params.seed
    where = f"{record.engine}/pre={'on' if record.preprocess else 'off'}"
    if not record.group_proof:
        where += "/gp=off"
    if record.verdict == "error":
        problems.append(Problem(seed, variant, record.engine, "error",
                                f"{where}: {error}"))
        return
    if record.engine == "bmc":
        want = _expected_bmc_verdict(params.expected)
        if record.verdict != want:
            problems.append(Problem(
                seed, variant, record.engine, "verdict",
                f"{where}: got {record.verdict}@{record.depth}, "
                f"planted {params.expected}@{params.expected_depth}"))
        elif want == "fail" and record.depth != params.expected_depth:
            problems.append(Problem(
                seed, variant, record.engine, "depth",
                f"{where}: failed at {record.depth}, "
                f"planted depth {params.expected_depth}"))
    else:
        if record.verdict not in ("pass", "fail"):
            problems.append(Problem(
                seed, variant, record.engine, "unsolved",
                f"{where}: {record.verdict} (budgets should never bind "
                f"at fuzz sizes)"))
        elif record.verdict != params.expected:
            problems.append(Problem(
                seed, variant, record.engine, "verdict",
                f"{where}: got {record.verdict}, planted {params.expected}"))
        elif params.expected == "fail" and record.depth != params.expected_depth:
            problems.append(Problem(
                seed, variant, record.engine, "depth",
                f"{where}: k_fp={record.depth}, "
                f"planted depth {params.expected_depth}"))
    # Mutant FAIL traces must replay on the *base* model through the maps
    # (engines only validated them on the mutant itself).
    if record.verdict == "fail" and trace is not None and mutation is not None:
        lowered = mutation.lower_trace(trace, base)
        if not lowered.check(base):
            problems.append(Problem(
                seed, variant, record.engine, "trace",
                f"{where}: mutant trace does not replay on the base model"))


def _check_identity(records: Sequence[RunRecord], seed: int, variant: str,
                    problems: List[Problem]) -> None:
    """Preprocessing on-vs-off: identical verdict, identical FAIL depth."""
    by_engine = {}
    for record in records:
        if not record.group_proof:
            continue                     # the gp axis has its own check
        by_engine.setdefault(record.engine, {})[record.preprocess] = record
    for engine, pair in by_engine.items():
        if True not in pair or False not in pair:
            continue
        on, off = pair[True], pair[False]
        if on.verdict != off.verdict:
            problems.append(Problem(
                seed, variant, engine, "identity",
                f"preprocess on={on.verdict} vs off={off.verdict}"))
        elif on.verdict == "fail" and on.depth != off.depth:
            problems.append(Problem(
                seed, variant, engine, "identity",
                f"preprocess on fails at {on.depth} vs off at {off.depth}"))


def _check_group_proof_identity(records: Sequence[RunRecord], seed: int,
                                variant: str,
                                problems: List[Problem]) -> None:
    """Group proof on-vs-off: identical verdict, identical FAIL depth.

    PASS convergence bounds are deliberately *not* compared — the
    stripped refutation can yield stronger interpolants that close the
    fixpoint at a neighbouring bound (see FuzzConfig.check_no_group_proof).
    """
    by_engine = {}
    for record in records:
        if not record.preprocess:
            continue                     # gp axis runs with preprocess on
        by_engine.setdefault(record.engine, {})[record.group_proof] = record
    for engine, pair in by_engine.items():
        if True not in pair or False not in pair:
            continue
        on, off = pair[True], pair[False]
        if on.verdict != off.verdict:
            problems.append(Problem(
                seed, variant, engine, "identity",
                f"group proof on={on.verdict} vs off={off.verdict}"))
        elif on.verdict == "fail" and on.depth != off.depth:
            problems.append(Problem(
                seed, variant, engine, "identity",
                f"group proof on fails at {on.depth} vs off at {off.depth}"))


def _run_share_race(base: Model, params: FuzzParams, config: FuzzConfig,
                    problems: List[Problem]) -> VariantReport:
    """Run the cooperative shared race on the base model; check the verdict.

    Aggressive sharing may change *which* engine answers and how much work
    the race does, but never the answer: every lemma on the bus came from
    an engine running the same model, so it is honest, the race must still
    report the planted verdict, and a FAIL still lands on the planted
    depth (an honest ``DepthLemma`` only covers bounds strictly below the
    first failing one).
    """
    from ..share.coop import cooperative_race  # deferred: rarely needed

    seed = params.seed
    try:
        options = EngineOptions(max_bound=config.max_bound,
                                max_clauses=config.max_clauses,
                                max_propagations=config.max_propagations)
        outcome = cooperative_race(base, options=options, share=True)
    except Exception as exc:  # noqa: BLE001 - a crash is a finding
        problems.append(Problem(seed, "share-race", "race", "error",
                                f"cooperative race crashed: "
                                f"{type(exc).__name__}: {exc}"))
        return VariantReport("share-race",
                             (RunRecord("race", True, "error", None),))
    result = outcome.result
    if result is None:
        problems.append(Problem(seed, "share-race", "race", "unsolved",
                                "cooperative race: no engine solved"))
        return VariantReport("share-race",
                             (RunRecord("race", True, "unknown", None),))
    record = RunRecord("race", True, result.verdict.value, result.k_fp)
    if record.verdict != params.expected:
        problems.append(Problem(
            seed, "share-race", "race", "verdict",
            f"winner {outcome.winner}: got {record.verdict}, "
            f"planted {params.expected}"))
    elif params.expected == "fail" and record.depth != params.expected_depth:
        problems.append(Problem(
            seed, "share-race", "race", "depth",
            f"winner {outcome.winner}: failed at {record.depth}, "
            f"planted depth {params.expected_depth}"))
    return VariantReport("share-race", (record,))


# --------------------------------------------------------------------- #
# Shrinking predicate: internal disagreement, sound under surgery
# --------------------------------------------------------------------- #
def _records_conflict(records: Sequence[Tuple[RunRecord, Optional[str]]]) -> bool:
    """Do these observations contradict each other (or crash)?"""
    if any(rec.verdict == "error" for rec, _ in records):
        return True
    fails = [rec for rec, _ in records if rec.verdict == "fail"]
    clean = [rec for rec, _ in records if rec.verdict in ("pass", "no_cex")]
    if fails and clean:
        return True
    return len({rec.depth for rec in fails}) > 1


def _implicated_runs(problems: Sequence[Problem],
                     config: FuzzConfig) -> Tuple[Tuple[str, bool, bool], ...]:
    """The (engine, preprocess, group_proof) runs to repeat while shrinking."""
    runs = set()
    for problem in problems:
        for pre in (True, False) if config.check_no_preprocess else (True,):
            runs.add((problem.engine, pre, True))
        if config.check_no_group_proof and problem.engine != "bmc":
            runs.add((problem.engine, True, False))
    # Two reference engines keep single-engine problems observable as a
    # cross-engine conflict on the shrunk candidates.
    runs.add(("bmc", True, True))
    runs.add(("pdr", True, True))
    return tuple(sorted(runs))


def _shrink_failing_variant(model: Model, problems: Sequence[Problem],
                            config: FuzzConfig) -> Model:
    runs = _implicated_runs(problems, config)

    def still_failing(candidate: Model) -> bool:
        observed = [(rec, err) for rec, _, err in
                    (_run_one(engine, candidate, pre, config, group_proof)
                     for engine, pre, group_proof in runs)]
        return _records_conflict(observed)

    return shrink_model(model, still_failing, max_checks=config.shrink_checks)


# --------------------------------------------------------------------- #
# Repro bundles
# --------------------------------------------------------------------- #
def _write_bundle(config: FuzzConfig, params: FuzzParams, base: Model,
                  failing: Optional[Tuple[str, Model]],
                  shrunk: Optional[Model],
                  problems: Sequence[Problem]) -> str:
    """Write a self-contained repro bundle; return its directory."""
    bundle = os.path.join(config.bundle_dir, f"seed{params.seed}")
    os.makedirs(bundle, exist_ok=True)
    write_aig(base.aig, os.path.join(bundle, "base.aig"))
    if failing is not None and failing[0] != "base":
        write_aig(failing[1].aig, os.path.join(bundle, f"{failing[0]}.aig"))
    if shrunk is not None:
        write_aig(shrunk.aig, os.path.join(bundle, "shrunk.aig"))
    manifest = {
        "seed": params.seed,
        "params": dataclasses.asdict(params),
        "describe": params.describe(),
        "command": (f"python -m repro.fuzz --seed {params.seed} "
                    f"--iterations 1 --jobs 1"),
        "problems": [dataclasses.asdict(p) for p in problems],
    }
    with open(os.path.join(bundle, "repro.json"), "w",
              encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return bundle


# --------------------------------------------------------------------- #
# Per-seed worker (module-level: crosses the process-pool boundary)
# --------------------------------------------------------------------- #
def _fuzz_one_seed(task: Tuple[int, FuzzConfig]) -> SeedReport:
    seed, config = task
    base, params = generate(seed)
    variants: List[Tuple[str, Model, Optional[Mutation]]] = [("base", base, None)]
    for name in config.mutators:
        mutation = apply_mutator(name, base, seed)
        variants.append((mutation.name, mutation.model, mutation))

    reports: List[VariantReport] = []
    problems: List[Problem] = []
    for variant, model, mutation in variants:
        records: List[RunRecord] = []
        for engine in ENGINE_ORDER:
            for pre in (True, False) if config.check_no_preprocess else (True,):
                record, trace, error = _run_one(engine, model, pre, config)
                records.append(record)
                _check_record(record, error, trace, params, variant,
                              base, mutation, problems)
            if config.check_no_group_proof and engine != "bmc":
                record, trace, error = _run_one(engine, model, True, config,
                                                group_proof=False)
                records.append(record)
                _check_record(record, error, trace, params, variant,
                              base, mutation, problems)
        _check_identity(records, seed, variant, problems)
        if config.check_no_group_proof:
            _check_group_proof_identity(records, seed, variant, problems)
        reports.append(VariantReport(variant, tuple(records)))

    if config.share_race_every and seed % config.share_race_every == 0:
        reports.append(_run_share_race(base, params, config, problems))

    bundle = shrunk_note = None
    if problems:
        # The shared race is not a solo front-end: its problems bundle the
        # base model but cannot drive the solo re-run shrink predicate.
        solo = [p for p in problems if p.engine != "race"]
        failing_name = solo[0].variant if solo else "base"
        failing = next((v, m) for v, m, _ in variants if v == failing_name)
        shrunk = None
        if config.shrink and solo:
            shrunk = _shrink_failing_variant(failing[1], solo, config)
            before, after = failing[1].stats(), shrunk.stats()
            shrunk_note = (f"{before['latches']}FF/{before['ands']}AND -> "
                           f"{after['latches']}FF/{after['ands']}AND")
        if config.bundle_dir:
            bundle = _write_bundle(config, params, base, failing, shrunk,
                                   problems)
    return SeedReport(seed=seed, params=params, variants=tuple(reports),
                      problems=tuple(problems), bundle=bundle,
                      shrunk=shrunk_note)


# --------------------------------------------------------------------- #
# Campaign driver and summary
# --------------------------------------------------------------------- #
def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run the campaign; seeds fan out over ``config.jobs`` processes."""
    for name in config.mutators:
        if name not in MUTATORS:
            raise KeyError(f"unknown mutator {name!r}; "
                           f"known: {', '.join(MUTATORS)}")
    tasks = [(seed, config)
             for seed in range(config.seed, config.seed + config.iterations)]
    reports = parallel_map(_fuzz_one_seed, tasks, jobs=config.jobs)
    return FuzzReport(seed=config.seed, iterations=config.iterations,
                      mutators=tuple(config.mutators), seeds=tuple(reports))


def render_summary(report: FuzzReport) -> str:
    """Deterministic text summary — byte-identical at any ``--jobs``."""
    lines = [
        f"fuzz: seeds {report.seed}..{report.seed + report.iterations - 1} "
        f"engines={','.join(ENGINE_ORDER)} "
        f"mutators={','.join(report.mutators)}",
    ]
    for seed_report in report.seeds:
        params = seed_report.params
        expect = params.expected + (f"@{params.expected_depth}"
                                    if params.expected == "fail" else "")
        status = "ok"
        if seed_report.problems:
            kinds = sorted({p.kind for p in seed_report.problems})
            status = f"DISAGREE[{','.join(kinds)}]"
            if seed_report.shrunk:
                status += f" shrunk {seed_report.shrunk}"
        lines.append(f"seed {seed_report.seed:<6d} {expect:8s} "
                     f"runs={seed_report.runs:<3d} {status:24s} "
                     f"{params.describe()}")
    problems = report.problems
    lines.append(f"total: seeds={report.iterations} runs={report.runs} "
                 f"disagreements={len(problems)}")
    for problem in problems:
        lines.append(f"  problem seed={problem.seed} variant={problem.variant} "
                     f"kind={problem.kind}: {problem.detail}")
    return "\n".join(lines) + "\n"
