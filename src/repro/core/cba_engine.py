"""Interpolation sequences tightly integrated with CBA (Section V, Fig. 5).

The engine interleaves, at every bound ``k``:

1. an abstraction-refinement loop on a localization-abstracted model T_A —
   abstract counterexamples are concretised (EXTEND) and either reported as
   genuine failures or used to re-introduce latches (REFINE);
2. once the abstract depth-``k`` check is unsatisfiable, a *serial*
   interpolation sequence (Fig. 4) computed on the **abstract** model from
   that refutation;
3. the usual matrix-column / fixed-point bookkeeping of Fig. 2, performed on
   the concrete state space (the abstract interpolants are predicates over
   visible latches only, so they translate to the concrete AIG by renaming
   leaves).

Per the paper, refinements are *not* followed by re-proving smaller bounds:
the only purpose of the refinement is to make the depth-``k`` instance
unsatisfiable, which tends to produce smaller refutations and therefore
more abstract (larger) interpolants.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..abstraction.cba import choose_refinement, extend_counterexample
from ..abstraction.localization import LocalizationAbstraction, property_support_latches
from ..aig.aig import FALSE, TRUE, lit_from_var
from ..aig.ops import LiteralMapper
from ..bmc.checks import BmcCheckKind, build_check
from ..bmc.incremental import IncrementalUnroller
from ..sat.types import SatResult
from ..share.lemma import Lemma
from .base import OutOfBudget, initial_states_predicate
from .itpseq_engine import ItpSeqEngine
from .result import VerificationResult
from .sitpseq_engine import compute_serial_sequence

__all__ = ["ItpSeqCbaEngine"]


class ItpSeqCbaEngine(ItpSeqEngine):
    """Serial interpolation sequences + counterexample-based abstraction (Fig. 5)."""

    name = "itpseqcba"

    stat_groups = ("solver", "preprocess", "lifecycle", "cba", "share")

    def _run(self) -> VerificationResult:
        # Persistent incremental searchers: one on the current abstract model
        # (rebuilt whenever a refinement changes the model) and one exact-mode
        # unroller on the concrete model shared by every EXTEND query.
        self._abstract_searcher: Optional[IncrementalUnroller] = None
        self._abstract_searcher_key: Optional[LocalizationAbstraction] = None
        self._extend_searcher: Optional[IncrementalUnroller] = None

        trace = self._depth_zero_trace()
        if trace is not None:
            return self._fail(0, trace)

        if self.options.cba_initial_visible == "property":
            visible = property_support_latches(self.model)
        else:
            visible = set()
        abstraction = LocalizationAbstraction(self.model, visible)
        self.stats.abstract_latches = abstraction.num_visible

        init_predicate = initial_states_predicate(self.model)
        columns: Dict[int, int] = {}

        k = 0
        while k < self.options.max_bound:
            self._share_sync(k + 1)
            k += 1
            self._current_bound = k
            self._check_budget()

            with self._bound_span(k):
                refined = self._refinement_loop(abstraction, k)
                if isinstance(refined, VerificationResult):
                    return refined
                abstraction, proof, unroller = refined
                self.stats.abstract_latches = abstraction.num_visible
                # The abstract model over-approximates the concrete one,
                # so an abstract bound-k refutation is a concrete "no
                # counterexample up to k" fact — exportable as-is.
                self._share_publish_depth(k)

                abstract_model = abstraction.abstract_model
                with self.tracer.span("itp_extract"):
                    elements_abs = compute_serial_sequence(self, abstract_model,
                                                           k, proof, unroller)
                    elements = self._translate_elements(abstraction,
                                                        elements_abs)

                outcome = self._update_columns(columns, elements, k,
                                               init_predicate)
            if outcome is not None:
                return outcome
        return self._unknown(self.options.max_bound,
                             "bound limit reached without convergence")

    # ------------------------------------------------------------------ #
    # Import policy
    # ------------------------------------------------------------------ #
    def _share_apply(self, lemma: Lemma) -> bool:
        """CBA imports nothing.

        This engine never runs the base counterexample searcher: failures
        are found on the abstract model and concretised through the EXTEND
        unroller, whose refutations drive refinement choices.  Installing
        foreign clauses there would perturb UNSAT cores — and with them
        which latches get refined — so the conservative contract (which
        must reproduce the solo trajectory exactly) accepts nothing.
        """
        return False

    # ------------------------------------------------------------------ #
    # Abstraction-refinement loop for one bound
    # ------------------------------------------------------------------ #
    def _abstract_search(self, abstraction: LocalizationAbstraction
                         ) -> IncrementalUnroller:
        """Persistent incremental BMC search over the current abstract model.

        Refinement replaces the abstract model, so the searcher is rebuilt
        whenever the abstraction object changes; within one abstraction it
        carries learned clauses across spurious-counterexample iterations
        and across bounds (the paper never re-proves smaller bounds after a
        refinement, so deepening stays strictly monotonic).
        """
        if self._abstract_searcher_key is not abstraction:
            self._abstract_searcher = IncrementalUnroller(
                abstraction.abstract_model, check_kind=self.options.bmc_check)
            self._abstract_searcher_key = abstraction
        return self._abstract_searcher

    def _extend_search(self) -> IncrementalUnroller:
        """The exact-mode concrete unroller shared by every EXTEND query."""
        if self._extend_searcher is None:
            self._extend_searcher = IncrementalUnroller(
                self.model, check_kind=BmcCheckKind.EXACT)
        return self._extend_searcher

    def _refinement_loop(self, abstraction: LocalizationAbstraction, k: int):
        """Iterate abstract check / EXTEND / REFINE until the bound-k abstract
        instance is unsatisfiable (returning the refutation) or a concrete
        counterexample is found (returning a FAIL result).

        The SAT-or-UNSAT question is answered on the persistent incremental
        searcher; the proof-logged fresh-solver check is only built once the
        abstract instance is known UNSAT, purely to record the refutation the
        serial sequence extraction needs (see repro.core.base).
        """
        incremental = self.options.incremental_cex_search
        while True:
            self._check_budget()
            # One refinement iteration per cooperative turn — an entire
            # abstract-check/EXTEND/REFINE cascade is several solver calls.
            self._share_yield()
            abstract_model = abstraction.abstract_model
            abstract_trace = None
            if incremental:
                with self.tracer.span("cex_search"):
                    searcher = self._abstract_search(abstraction)
                    searcher.extend_to(k)
                    if self._solve(searcher.solver, searcher.assumptions()) \
                            is SatResult.SAT:
                        abstract_trace = searcher.extract_trace()
            if abstract_trace is None:
                with self.tracer.span("refutation"):
                    unroller = build_check(self.options.bmc_check,
                                           abstract_model, k,
                                           proof_logging=True)
                    result = self._solve(unroller.solver)
                if result is SatResult.UNSAT:
                    return abstraction, self._reduced_proof(unroller.solver), unroller
                if incremental:  # pragma: no cover - defensive
                    raise RuntimeError(
                        "incremental and monolithic abstract checks disagree")
                abstract_trace = unroller.extract_trace(k)
            self.stats.sat_calls += 1
            with self.tracer.span("extend"):
                extension = extend_counterexample(
                    self.model, abstraction, abstract_trace, k,
                    budget=self._sat_budget(),
                    searcher=self._extend_search() if incremental else None)
            if extension.is_real:
                return self._fail(k, extension.concrete_trace)
            if abstraction.is_total():
                # Cannot happen: with every latch visible the abstract model is
                # the concrete model, whose counterexamples always extend.
                raise RuntimeError("spurious counterexample on a total abstraction")
            latches = choose_refinement(abstraction, extension,
                                        self.options.cba_refine_batch)
            abstraction = abstraction.refine(latches)
            self.stats.refinements += 1
            if self.tracer.enabled:
                self.tracer.point("refine", latches=len(latches),
                                  visible=abstraction.num_visible)

    # ------------------------------------------------------------------ #
    # Abstract-to-concrete translation of sequence elements
    # ------------------------------------------------------------------ #
    def _translate_elements(self, abstraction: LocalizationAbstraction,
                            elements_abs: List[int]) -> List[int]:
        """Rename abstract-latch leaves to concrete latches in every element."""
        abstract_aig = abstraction.abstract_model.aig
        leaf_map = {abs_var: lit_from_var(conc_var)
                    for conc_var, abs_var in abstraction.latch_map.items()}
        mapper = LiteralMapper(abstract_aig, self.aig, leaf_map)
        translated: List[int] = []
        for index, element in enumerate(elements_abs):
            if element in (TRUE, FALSE):
                translated.append(element)
                continue
            translated.append(mapper.copy_lit(element))
        return translated
