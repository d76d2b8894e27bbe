"""Unbounded model checking with interpolation sequences (Fig. 2).

This is the ITPSEQVERIF procedure: at every bound ``k`` one exact-k (or
assume-k, per Section III) BMC check is made; a satisfiable answer is a real
counterexample, an unsatisfiable one yields — from its single refutation —
the whole interpolation sequence I^k_0..k+1 (Eq. (2)).

The sequence elements are accumulated into the matrix columns

    ℐⱼ = ⋀_{i ≥ j} Iⁱⱼ

(the column-based conjunction of Section II-C), each column being an
over-approximation of the states reachable in ``j`` steps that excludes
states reaching a failure within ``k - j`` steps.  The columns drive the
same fixed-point test used by standard interpolation: ℐⱼ ⇒ Rⱼ₋₁ proves the
property.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..aig.aig import TRUE
from ..bmc.checks import build_check
from ..itp.sequence import extract_sequence
from ..sat.types import SatResult
from .base import UmcEngine, initial_states_predicate
from .result import VerificationResult

__all__ = ["ItpSeqEngine"]


class ItpSeqEngine(UmcEngine):
    """Parallel interpolation sequences (procedure ITPSEQVERIF of Fig. 2)."""

    name = "itpseq"

    def _run(self) -> VerificationResult:
        trace = self._depth_zero_trace()
        if trace is not None:
            return self._fail(0, trace)

        init_predicate = initial_states_predicate(self.model)
        columns: Dict[int, int] = {}

        k = 0
        while k < self.options.max_bound:
            # Lemma exchange happens at the bound boundary (the replay key).
            self._share_sync(k + 1)
            k += 1
            self._current_bound = k
            self._check_budget()

            with self._bound_span(k):
                # Counterexample search on the persistent incremental solver;
                # on a group-proof run its UNSAT trace, stripped, *is* the
                # refutation, and the fresh proof-logged solve is skipped.
                trace = self._search_counterexample(k)
                if trace is not None:
                    return self._fail(k, trace)

                proof = self._group_refutation(k)
                if proof is not None:
                    cut_unroller = self._cex_searcher.unroller
                else:
                    # Fresh-solver fallback/reference path: search, refutation
                    # and extraction are separate cooperative turns — one
                    # bound as a single turn overshoots the turnstile's
                    # progress clock on small instances.
                    self._share_yield()
                    with self.tracer.span("refutation"):
                        unroller = build_check(self.options.bmc_check,
                                               self.model, k,
                                               proof_logging=True)
                        sat = self._solve(unroller.solver) is SatResult.SAT
                    if sat:
                        # The proof-logged solver saw no foreign clause: its
                        # model is a genuine counterexample.  If the
                        # share-aware search skipped or refuted this bound,
                        # the imports were wrong — retract them (the verdict
                        # stands either way).
                        self._share_check_disagreement(k)
                        return self._fail(k, unroller.extract_trace(k))
                    self._share_publish_depth(k)

                    self._share_yield()
                    proof = self._reduced_proof(unroller.solver)
                    cut_unroller = unroller
                with self.tracer.span("itp_extract"):
                    cut_maps = {j: cut_unroller.cut_var_map(j)
                                for j in range(1, k + 1)}
                    sequence = extract_sequence(proof, k + 1, cut_maps,
                                                self.aig,
                                                system=self.options.itp_system)
                    self.stats.itp_steps_replayed += sequence.steps_replayed
                    elements = list(sequence.elements)
                    for j in range(1, k + 1):
                        elements[j] = self._register_interpolant(self.aig,
                                                                 elements[j])

                outcome = self._update_columns(columns, elements, k,
                                               init_predicate)
            if outcome is not None:
                return outcome
        return self._unknown(self.options.max_bound,
                             "bound limit reached without convergence")

    # ------------------------------------------------------------------ #
    # Matrix column update and fixed-point detection (shared with CBA)
    # ------------------------------------------------------------------ #
    def _update_columns(self, columns: Dict[int, int], elements, k: int,
                        init_predicate: int) -> Optional[VerificationResult]:
        """Run the j-loop of Fig. 2 for the freshly extracted sequence.

        ``columns`` maps j -> ℐⱼ (AIG literal, over this engine's AIG) and is
        updated in place; returns a PASS result when a fixed point is found.
        """
        # Everything a containment check from here on can mention is S₀,
        # the columns (strengthening conjoins, so their old cones stay
        # live as fanins) and this bound's sequence elements.  What is
        # *not* reachable from these roots — chiefly the R-accumulation
        # OR spines of earlier bounds, rebuilt from scratch below every
        # time — is dead weight on the persistent checker: shed those
        # clause groups before growing the formula further.
        self._shed_fixpoint_groups(
            [init_predicate]
            + [columns[j] for j in sorted(columns)]
            + list(elements[1:k + 1]))
        reached = init_predicate  # R_{j-1}
        for j in range(1, k):
            # One column check per cooperative turn (same rationale as the
            # itp engine's per-refinement yield: keep turns solver-sized).
            self._share_yield()
            columns[j] = self.aig.add_and(columns.get(j, TRUE), elements[j])
            if self._implies(columns[j], reached):
                return self._pass(k, j)
            reached = self.aig.op_or(reached, columns[j])
        columns[k] = elements[k]
        if self._implies(columns[k], reached):
            return self._pass(k, k)
        return None
