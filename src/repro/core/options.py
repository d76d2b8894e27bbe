"""Configuration options for the UMC engines.

Defaults follow the paper's experimental setup where a setting is
mentioned (``alpha_s = 0.5``, assume-k checks for interpolation sequences)
and otherwise pick values that behave sensibly on the down-scaled synthetic
suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from ..bmc.checks import BmcCheckKind
from ..preprocess.passes import validate_pass_names

__all__ = ["EngineOptions"]


@dataclass
class EngineOptions:
    """Knobs shared by all engines (engine-specific ones are ignored by others).

    Lemma sharing has no knob: an engine attached to a share port always
    follows the one conservative contract of :mod:`repro.share`, so its
    verdict and ``k_fp``/``j_fp`` equal a solo run with the same options.

    Attributes
    ----------
    max_bound:
        Largest BMC bound attempted before giving up with ``UNKNOWN``.
    time_limit:
        Wall-clock budget in seconds for one verification run (the paper
        used 1800 s on its testbed); ``None`` disables the limit.  Exceeding
        it yields an ``OVERFLOW`` verdict, mirroring the paper's *ovf*.
    conflict_limit:
        Per-SAT-call conflict budget; ``None`` disables it.
    max_clauses:
        Deterministic resource budget: total clause additions across every
        SAT call of the run (the counter behind ``EngineStats.clauses_added``).
        Exceeding it yields ``OVERFLOW`` exactly like the wall-clock limit,
        but at a machine-independent point — the committed benchmark
        artefacts are regenerated under this budget instead of a time limit
        so that reruns on any hardware (and at any ``jobs`` count) produce
        byte-identical tables.  Binds on the *encoding-heavy* failure mode
        (re-unrolling a deep circuit per bound).  ``None`` disables it.
    max_propagations:
        Deterministic resource budget: total unit propagations across every
        SAT call of the run.  Propagations are the classic deterministic
        effort proxy (cf. kissat's "ticks"): they track wall-clock time far
        more closely than conflicts or clauses, so this budget binds on the
        *search-heavy* failure mode (exact-k checks whose formulas stay
        small but hard) that ``max_clauses`` never catches.  Same
        ``OVERFLOW`` semantics, same machine-independence.  ``None``
        disables it.
    bmc_check:
        Which BMC formulation the sequence engines use for their main check
        (``ASSUME`` by default, per Section III; ``EXACT`` reproduces the
        other axis of Fig. 7).  The standard-interpolation engine always
        uses bound-k checks as required for its correctness.
    itp_system:
        Interpolation system: ``"mcmillan"`` or ``"pudlak"``.
    incremental_cex_search:
        Run each bound's counterexample search on a persistent incremental
        solver before the proof-logged check (the default).  Failures are
        then found without ever paying for proof logging, at the price of
        one extra — usually cheap — UNSAT confirmation per bound on
        property-passing instances; disable to restore the seed behaviour
        where the proof-logged check answers SAT-or-UNSAT by itself.
    alpha_s:
        Serialisation ratio for serial interpolation sequences (Fig. 4).
    validate_traces:
        Replay counterexamples on the concrete model before reporting FAIL.
    cba_initial_visible:
        Initial abstraction for the CBA engine: ``"property"`` keeps the
        latches in the combinational support of the property, ``"none"``
        abstracts every latch.
    cba_refine_batch:
        Maximum number of latches re-introduced per refinement step.
    pdr_gen_budget:
        PDR inductive generalization: maximum number of *failed*
        literal-drop attempts per blocked cube (successful drops are free);
        0 disables generalization beyond the UNSAT-core shrink.
    pdr_push_period:
        PDR clause pushing: run the propagation phase only every N frame
        openings (1, the default, pushes after every frame as the standard
        algorithm does; larger values trade later fixpoint detection for
        fewer push queries).
    preprocess:
        Run the model-preprocessing pipeline (:mod:`repro.preprocess`)
        before encoding anything: cone-of-influence reduction, stuck-latch
        sweeping, structural rewriting, SAT sweeping (fraiging) and
        CNF-level elimination on the containment checks.  Counterexamples
        found on the reduced model are
        lifted back to the original variables before validation, so
        verdicts and replayed traces are identical either way — only the
        amount of logic the solver pays for changes.  On by default;
        disable to encode the raw circuit as the seed implementation did.
    preprocess_passes:
        Pass names (in order) for the pipeline; ``None`` selects the
        default ``('coi', 'sweep', 'coi', 'rewrite', 'fraig', 'cnf')``.
        Ignored when ``preprocess`` is off.
    proof_reduce:
        Post-process every refutation before interpolant extraction: core
        trimming plus the RecyclePivots redundant-pivot pass
        (:func:`repro.sat.proof.reduce_proof`).  Extraction then replays a
        smaller derivation DAG, which yields smaller interpolant cones.
        On by default; disable to extract from the raw solver trace as the
        seed implementation did.
    itp_compact:
        Structurally compact every freshly extracted interpolant cone
        (:func:`repro.itp.compact.compact_cone`) before it is disjoined
        into the reachable-set accumulation — the one place cone sharing
        compounds, since R is re-encoded at every later containment
        check.  Guarded never to grow a cone.  On by default.
    fixpoint_incremental:
        Run the R-accumulation containment checks on one persistent
        incremental solver per run
        (:class:`repro.core.fixpoint.FixpointChecker`) that encodes only
        each check's *new* cone, instead of re-encoding the whole
        accumulated R into a throwaway solver per check.  On by default;
        disabling restores the one-shot path with its size-gated CNF
        simplification.
    group_proof:
        Reuse the incremental counterexample search's own UNSAT answer as
        the proof-logged refutation: the searcher runs with proof logging
        on, and :func:`repro.sat.proof.strip_activations` turns its
        recorded trace into an activation-free refutation of the monolithic
        S₀ ∧ Tᵏ ∧ B — deleting the fresh-solver re-solve per bound.  The
        fresh-solver path remains as automatic fallback (when a stripped
        chain depends on a released earlier-depth group) and stays the only
        path for checks the persistent searcher cannot express (serial
        sequence suffixes, CBA abstract models).  Requires
        ``incremental_cex_search`` and is suspended while a share port is
        attached (foreign clauses must never enter a proof).  On by
        default; disable with ``--no-group-proof`` to restore the
        two-solves-per-bound split.
    """

    max_bound: int = 30
    time_limit: Optional[float] = None
    conflict_limit: Optional[int] = None
    max_clauses: Optional[int] = None
    max_propagations: Optional[int] = None
    bmc_check: BmcCheckKind = BmcCheckKind.ASSUME
    itp_system: str = "mcmillan"
    incremental_cex_search: bool = True
    alpha_s: float = 0.5
    validate_traces: bool = True
    cba_initial_visible: str = "property"
    cba_refine_batch: int = 4
    pdr_gen_budget: int = 32
    pdr_push_period: int = 1
    preprocess: bool = True
    preprocess_passes: Optional[Tuple[str, ...]] = None
    proof_reduce: bool = True
    itp_compact: bool = True
    fixpoint_incremental: bool = True
    group_proof: bool = True

    def with_changes(self, **kwargs) -> "EngineOptions":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha_s <= 1.0:
            raise ValueError(f"alpha_s must be within [0, 1], got {self.alpha_s}")
        if self.max_bound < 1:
            raise ValueError("max_bound must be at least 1")
        if self.itp_system not in ("mcmillan", "pudlak"):
            raise ValueError(f"unknown interpolation system {self.itp_system!r}")
        if self.cba_initial_visible not in ("property", "none"):
            raise ValueError(
                f"cba_initial_visible must be 'property' or 'none', "
                f"got {self.cba_initial_visible!r}")
        if self.cba_refine_batch < 1:
            raise ValueError("cba_refine_batch must be at least 1")
        if self.max_clauses is not None and self.max_clauses < 1:
            raise ValueError("max_clauses must be at least 1 (or None)")
        if self.max_propagations is not None and self.max_propagations < 1:
            raise ValueError("max_propagations must be at least 1 (or None)")
        if self.pdr_gen_budget < 0:
            raise ValueError("pdr_gen_budget must be non-negative")
        if self.pdr_push_period < 1:
            raise ValueError("pdr_push_period must be at least 1")
        if self.preprocess_passes is not None:
            self.preprocess_passes = validate_pass_names(self.preprocess_passes)
