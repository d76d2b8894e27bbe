"""The four workloads: which cells each one runs, and how its inputs are made.

A *cell* is one verification call on one circuit: an engine name and an
instance for the solo workloads, or the portfolio race for ``race``.  Every
circuit is built from the suite registry, written to AIGER with
``write_aig`` and handed to the engines only as the model parsed back from
that file.  The seed draws ``suite_sweep``'s fuzz rows and shuffles the cell
order of every workload, so the same seed always gives the same inputs.
A run makes a fixed number of passes over its cells: ``--seconds`` over the
workload's nominal pass time (:data:`PASS_SECONDS`), at least one.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.aig import write_aig
from repro.circuits.suite import SuiteInstance, full_suite, get_instance
from repro.core import ENGINES, EngineOptions
from repro.fuzz.generate import FuzzParams, fuzz_model_name

#: The deterministic budgets of the artefact benchmarks
#: (``benchmarks/budgets.py``): which cells get decided never depends on the
#: speed of the machine.
OPTIONS = EngineOptions(max_bound=25, time_limit=None,
                        max_clauses=5_000_000, max_propagations=10_000_000)

UMC_ENGINES = tuple(ENGINES)            # itp, itpseq, sitpseq, itpseqcba, pdr
DEEP_RINGS = ("indA1_ring12", "indA2_ring16")
RACE_JOBS = 2
RACE_INSTANCES = ("indA1_ring12", "indA2_ring16", "indB1_arb08", "modcnt12",
                  "traffic2", "red_dup10", "red_dup10bug", "indE1_lock05",
                  "parity05", "cnt08", "mutexbug", "indF3_ctrldp16")
PDR_INSTANCES = ("indA1_ring12", "indA2_ring16", "indB1_arb08", "modcnt12",
                 "ring06", "arb05")
#: Rows ``suite_sweep`` leaves out: the deep rings, and the five costliest
#: of the rest (about 6.5 of a 15 s pass), so that eight passes fit in a run.
#: ``race`` runs four of those five and ``pdr_deep`` runs ``ring06``.
SWEEP_SKIPPED = DEEP_RINGS + ("red_dup10", "traffic2", "indB1_arb08",
                              "modcnt12", "ring06")
#: ``suite_sweep``'s fuzz rows: this many planted PASS and as many planted
#: FAIL, all on 3-bit counters.  A 4-bit PASS row costs up to 1.2 s over the
#: five engines, a 3-bit one at most 0.26 s; unrestricted draws moved the
#: pass time by about 8% from seed to seed.
SWEEP_FUZZ_PER_VERDICT = 5
SWEEP_FUZZ_WIDTH = 3
#: Small instance used to warm each engine up before anything is timed.
WARMUP_INSTANCE = "ring04"

RACE = "race"

#: Nominal seconds per pass on a 2-vCPU Xeon VM; ``--seconds`` over it,
#: rounded, is the number of passes a run makes.
PASS_SECONDS = {"itp_deep": 30.0, "pdr_deep": 10.0, "suite_sweep": 5.0,
                RACE: 3.5}


@dataclass(frozen=True)
class Cell:
    """One timed verification call."""

    engine: str                  # an ENGINES key, or RACE
    instance: str
    expected: str                # "pass" or "fail"
    expected_depth: Optional[int]

    @property
    def key(self) -> str:
        return f"{self.engine}/{self.instance}"


def _pairs(workload: str, rng: random.Random) -> List[tuple]:
    if workload == "itp_deep":
        return ([(e, "indA1_ring12") for e in ("itp", "itpseq", "sitpseq", "itpseqcba")]
                + [(e, "indA2_ring16") for e in ("itp", "itpseq")])
    if workload == "pdr_deep":
        return [("pdr", name) for name in PDR_INSTANCES]
    if workload == "suite_sweep":
        rows = [inst.name for inst in full_suite() if inst.name not in SWEEP_SKIPPED]
        rows += _fuzz_rows(rng)
        return [(e, name) for name in rows for e in UMC_ENGINES]
    if workload == RACE:
        return [(RACE, name) for name in RACE_INSTANCES]
    raise ValueError(f"unknown workload {workload!r}")


def _fuzz_rows(rng: random.Random) -> List[str]:
    """Draw ``suite_sweep``'s fuzz rows: equal PASS and FAIL counts, 3-bit counters."""
    wanted = {"pass": SWEEP_FUZZ_PER_VERDICT, "fail": SWEEP_FUZZ_PER_VERDICT}
    rows: List[str] = []
    while any(wanted.values()):
        params = FuzzParams.from_seed(rng.randrange(1, 1_000_000))
        name = fuzz_model_name(params.seed)
        if (params.counter_width == SWEEP_FUZZ_WIDTH and wanted[params.expected]
                and name not in rows):
            wanted[params.expected] -= 1
            rows.append(name)
    return rows


def passes_for(workload: str, seconds: float) -> int:
    """The fixed number of passes a run of ``seconds`` makes."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


WORKLOADS = ("itp_deep", "pdr_deep", "suite_sweep", RACE)


def make_inputs(workload: str, seed: int, directory: str) -> Dict[str, object]:
    """Write the workload's circuits to ``directory`` and list its cells.

    Returns ``{"cells": [...], "files": {instance: path}, "warmup": path}``;
    the cell order is shuffled by ``seed``.
    """
    rng = random.Random(seed)
    pairs = _pairs(workload, rng)
    rng.shuffle(pairs)
    os.makedirs(directory, exist_ok=True)
    instances: Dict[str, SuiteInstance] = {}
    for _, name in pairs:
        if name not in instances:
            instances[name] = get_instance(name)
    files = {}
    for name, instance in instances.items():
        files[name] = os.path.join(directory, f"{name}.aig")
        write_aig(instance.build().aig, files[name])
    warmup = os.path.join(directory, "_warmup.aig")
    write_aig(get_instance(WARMUP_INSTANCE).build().aig, warmup)
    cells = [Cell(engine, name, instances[name].expected,
                  instances[name].expected_depth)
             for engine, name in pairs]
    return {"cells": cells, "files": files, "warmup": warmup}
