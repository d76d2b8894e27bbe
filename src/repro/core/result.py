"""Verification results reported by the UMC engines.

The paper reports, per instance and per engine, the outcome, the CPU time
and the depth measures (k_fp, j_fp) defined in Section IV-B:

* ``k_fp`` — the BMC bound of the outer iteration at which the engine
  stopped (the fixed-point bound for proofs, the failure depth for
  counterexamples, the last attempted bound for overflows);
* ``j_fp`` — the depth of the over-approximate forward traversal at the
  fixed-point (the index of the cut); reported as 0 for failures, matching
  the paper's convention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..bmc.cex import Trace

__all__ = ["Verdict", "VerificationResult", "EngineStats", "STAT_GROUPS"]

#: Subsystem grouping of the :class:`EngineStats` counters.  Every key of
#: :meth:`EngineStats.as_dict` appears in exactly one group; engines declare
#: which groups are structurally meaningful for them via their
#: ``stat_groups`` class attribute, and the CLI's ``--stats`` rendering
#: suppresses the groups an engine can only ever report as zero.
STAT_GROUPS: Dict[str, tuple] = {
    "solver": ("sat_calls", "sat_time", "clauses_added", "conflicts",
               "propagations", "max_call_conflicts"),
    "preprocess": ("pre_inputs_removed", "pre_latches_removed",
                   "pre_ands_removed", "pre_cnf_clauses_eliminated",
                   "fraig_classes", "fraig_merges", "fraig_sat_confirms",
                   "fraig_sat_refutes", "fraig_rounds"),
    "lifecycle": ("itp_extractions", "itp_nodes", "itp_steps_replayed",
                  "containment_checks",
                  "proof_nodes_trimmed", "itp_ands_compacted",
                  "fixpoint_encodings_reused", "fixpoint_groups_shed",
                  "proof_group_solves_saved", "proof_chains_stripped",
                  "proof_group_fallbacks"),
    "pdr": ("blocked_cubes", "clauses_pushed"),
    "cba": ("refinements", "abstract_latches"),
    "share": ("lemmas_tx", "lemmas_rx", "lemmas_retracted",
              "share_solves_skipped"),
}


class Verdict(enum.Enum):
    """Outcome of a verification run."""

    PASS = "pass"
    FAIL = "fail"
    OVERFLOW = "ovf"
    UNKNOWN = "unknown"


@dataclass
class EngineStats:
    """Aggregate counters accumulated during a run.

    ``clauses_added``, ``conflicts`` and ``propagations`` are *cumulative*
    across every SAT call routed through the engine's accounting (the
    incremental counterexample search plus the proof-logged refutation
    checks); ``max_call_conflicts`` is the *per-call* peak, so Fig. 6/7
    records can report both the total solver work and the hardest single
    query.  ``propagations`` is the deterministic effort proxy closest to
    wall clock (and the counter behind ``EngineOptions.max_propagations``).

    ``blocked_cubes`` and ``clauses_pushed`` are populated by the PDR
    engine only (frame clauses learned, and how many of them the
    propagation phase moved forward); they stay 0 for the interpolation
    engines, whose proof effort shows up in ``itp_extractions``/``itp_nodes``
    instead.

    The ``pre_*`` counters describe the preprocessing pipeline's reduction
    of the run's model (inputs/latches/AND gates removed before any
    encoding happened) and, for ``pre_cnf_clauses_eliminated``, the
    cumulative clauses the CNF-level pass removed from the containment
    checks.  All stay 0 with ``EngineOptions.preprocess`` off.  The
    ``fraig_*`` counters expose the SAT-sweeping pass of the pipeline:
    candidate equivalence classes examined, nodes merged onto class
    representatives, the miter UNSAT answers that proved those merges, the
    miter SAT answers whose counterexamples split classes, and the
    simulation rounds evaluated (they stay 0 when the pipeline contains no
    ``fraig`` pass).

    ``itp_steps_replayed`` is the extraction work itself: the resolution
    steps replayed over every (A, B) cut of every extracted interpolant
    (a sequence of n-1 cuts replays its refutation's core n-1 times).

    The interpolant-lifecycle counters measure what the post-extraction
    machinery saved: ``proof_nodes_trimmed`` — proof nodes removed from
    refutations before extraction (core trimming + RecyclePivots);
    ``itp_ands_compacted`` — AND gates removed from freshly extracted
    interpolant cones by structural compaction; and
    ``fixpoint_encodings_reused`` — cone-gate encodings the persistent
    containment checker served from its cache instead of re-emitting
    (each one is three Tseitin clauses a throwaway solver would have
    paid again).  ``fixpoint_groups_shed`` counts the checker's clause
    groups released because column strengthening superseded their cones
    (:meth:`repro.core.fixpoint.FixpointChecker.shed_superseded`); only
    the sequence engines shed, so it stays 0 elsewhere.  They stay 0 with
    the corresponding ``EngineOptions`` toggles off, and for the PDR/BMC
    engines.

    The group-proof counters measure the one-solve-per-bound path
    (``EngineOptions.group_proof``): ``proof_group_solves_saved`` — bounds
    whose refutation came from the incremental searcher's stripped trace
    instead of a fresh monolithic re-solve (each one is a whole SAT solve
    that never happened); ``proof_chains_stripped`` — derived chains an
    activation literal was deleted from across those refutations
    (:func:`repro.sat.proof.strip_activations`); and
    ``proof_group_fallbacks`` — bounds where stripping was rejected (a
    chain depended on a released earlier-depth group) and the engine fell
    back to the fresh-solver reference path.
    """

    sat_calls: int = 0
    sat_time: float = 0.0
    itp_extractions: int = 0
    itp_nodes: int = 0
    itp_steps_replayed: int = 0
    refinements: int = 0
    abstract_latches: int = 0
    containment_checks: int = 0
    clauses_added: int = 0
    conflicts: int = 0
    propagations: int = 0
    max_call_conflicts: int = 0
    blocked_cubes: int = 0
    clauses_pushed: int = 0
    pre_inputs_removed: int = 0
    pre_latches_removed: int = 0
    pre_ands_removed: int = 0
    pre_cnf_clauses_eliminated: int = 0
    fraig_classes: int = 0
    fraig_merges: int = 0
    fraig_sat_confirms: int = 0
    fraig_sat_refutes: int = 0
    fraig_rounds: int = 0
    proof_nodes_trimmed: int = 0
    itp_ands_compacted: int = 0
    fixpoint_encodings_reused: int = 0
    fixpoint_groups_shed: int = 0
    proof_group_solves_saved: int = 0
    proof_chains_stripped: int = 0
    proof_group_fallbacks: int = 0
    lemmas_tx: int = 0
    lemmas_rx: int = 0
    lemmas_retracted: int = 0
    share_solves_skipped: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "sat_calls": self.sat_calls,
            "sat_time": round(self.sat_time, 4),
            "itp_extractions": self.itp_extractions,
            "itp_nodes": self.itp_nodes,
            "itp_steps_replayed": self.itp_steps_replayed,
            "refinements": self.refinements,
            "abstract_latches": self.abstract_latches,
            "containment_checks": self.containment_checks,
            "clauses_added": self.clauses_added,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "max_call_conflicts": self.max_call_conflicts,
            "blocked_cubes": self.blocked_cubes,
            "clauses_pushed": self.clauses_pushed,
            "pre_inputs_removed": self.pre_inputs_removed,
            "pre_latches_removed": self.pre_latches_removed,
            "pre_ands_removed": self.pre_ands_removed,
            "pre_cnf_clauses_eliminated": self.pre_cnf_clauses_eliminated,
            "fraig_classes": self.fraig_classes,
            "fraig_merges": self.fraig_merges,
            "fraig_sat_confirms": self.fraig_sat_confirms,
            "fraig_sat_refutes": self.fraig_sat_refutes,
            "fraig_rounds": self.fraig_rounds,
            "proof_nodes_trimmed": self.proof_nodes_trimmed,
            "itp_ands_compacted": self.itp_ands_compacted,
            "fixpoint_encodings_reused": self.fixpoint_encodings_reused,
            "fixpoint_groups_shed": self.fixpoint_groups_shed,
            "proof_group_solves_saved": self.proof_group_solves_saved,
            "proof_chains_stripped": self.proof_chains_stripped,
            "proof_group_fallbacks": self.proof_group_fallbacks,
            "lemmas_tx": self.lemmas_tx,
            "lemmas_rx": self.lemmas_rx,
            "lemmas_retracted": self.lemmas_retracted,
            "share_solves_skipped": self.share_solves_skipped,
        }

    def grouped(self, groups=None) -> "Dict[str, Dict[str, float]]":
        """The :meth:`as_dict` counters bucketed by subsystem.

        ``groups`` selects (and orders) the buckets; ``None`` means every
        bucket of :data:`STAT_GROUPS`.  Unknown group names raise
        ``KeyError`` — a typo in an engine's ``stat_groups`` should surface
        loudly, not silently drop counters.
        """
        flat = self.as_dict()
        selected = tuple(groups) if groups is not None else tuple(STAT_GROUPS)
        return {group: {name: flat[name] for name in STAT_GROUPS[group]}
                for group in selected}


@dataclass
class VerificationResult:
    """The answer of one engine on one model."""

    verdict: Verdict
    engine: str
    model_name: str
    k_fp: Optional[int] = None
    j_fp: Optional[int] = None
    time_seconds: float = 0.0
    trace: Optional[Trace] = None
    stats: EngineStats = field(default_factory=EngineStats)
    message: str = ""

    @property
    def is_pass(self) -> bool:
        return self.verdict is Verdict.PASS

    @property
    def is_fail(self) -> bool:
        return self.verdict is Verdict.FAIL

    @property
    def is_overflow(self) -> bool:
        return self.verdict is Verdict.OVERFLOW

    @property
    def solved(self) -> bool:
        """Whether the run produced a definitive PASS or FAIL answer."""
        return self.verdict in (Verdict.PASS, Verdict.FAIL)

    def depth_pair(self) -> str:
        """Render (k_fp, j_fp) the way Table I does.

        Overflows show the last attempted bound in round brackets and a dash
        for the traversal depth.
        """
        if self.is_overflow:
            k = f"({self.k_fp})" if self.k_fp is not None else "(-)"
            return f"{k} -"
        k = str(self.k_fp) if self.k_fp is not None else "-"
        j = str(self.j_fp) if self.j_fp is not None else "-"
        return f"{k} {j}"

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (f"{self.engine}: {self.verdict.value} on {self.model_name} "
                f"(k_fp={self.k_fp}, j_fp={self.j_fp}, "
                f"t={self.time_seconds:.2f}s)")
