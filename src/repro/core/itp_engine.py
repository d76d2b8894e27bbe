"""Standard interpolation-based model checking (McMillan CAV'03, Fig. 1).

The engine follows the paper's Fig. 1 pseudo-code literally:

* the outer loop fixes the BMC bound ``k`` and builds the **bound-k** check
  (the B term forbids a failure at *any* frame 1..k, Eq. (1)) — this is the
  formulation standard interpolation requires for correctness, and the very
  requirement Section III identifies as its computational weakness;
* the inner loop replaces the initial states first by S₀ and then by each
  extracted interpolant, producing the over-approximate forward traversal
  R₀, R₁, …; a fixed point (Iⱼ ⇒ Rⱼ₋₁) proves the property, a satisfiable
  check aborts the traversal and increases ``k``.

The counterexample returned on failure always comes from the first inner
iteration (initial states = S₀), so it is a genuine concrete trace.
"""

from __future__ import annotations

from typing import Optional

from ..bmc.checks import BmcCheckKind, build_bound_check
from ..bmc.unroll import Unroller
from ..itp.craig import InterpolantBuilder
from ..sat.types import SatResult
from .base import UmcEngine, initial_states_predicate
from .result import VerificationResult

__all__ = ["ItpEngine"]


class ItpEngine(UmcEngine):
    """McMillan-style interpolation (procedure ITPVERIF of Fig. 1)."""

    name = "itp"

    def _cex_check_kind(self) -> BmcCheckKind:
        """Fig. 1 requires bound-k checks; when the searcher doubles as the
        refutation check (group proof) it must unroll that formulation —
        otherwise it keeps the cheaper configured search kind, since its
        answer is then only SAT-or-UNSAT."""
        if self._group_proof_active():
            return BmcCheckKind.BOUND
        return self.options.bmc_check

    def _run(self) -> VerificationResult:
        trace = self._depth_zero_trace()
        if trace is not None:
            return self._fail(0, trace)

        init_predicate = initial_states_predicate(self.model)

        k = 0
        while k < self.options.max_bound:
            # Bound boundary: the replayable import point.
            self._share_sync(k + 1)
            k += 1
            self._current_bound = k
            self._check_budget()
            with self._bound_span(k):
                outcome = self._traverse_at_bound(k, init_predicate)
            if outcome is not None:
                return outcome
        return self._unknown(self.options.max_bound,
                             "bound limit reached without convergence")

    # ------------------------------------------------------------------ #
    # One outer iteration (fixed k)
    # ------------------------------------------------------------------ #
    def _traverse_at_bound(self, k: int, init_predicate: int
                           ) -> Optional[VerificationResult]:
        """Run the inner over-approximate traversal for one bound ``k``.

        Returns a result to report, or ``None`` to continue with ``k + 1``.
        """
        # Counterexample search runs on the persistent incremental solver:
        # a SAT answer there is a real counterexample at exactly this bound
        # (shallower depths were refuted at earlier iterations).
        trace = self._search_counterexample(k)
        if trace is not None:
            return self._fail(k, trace)

        # On a group-proof run the searcher unrolls bound-k itself
        # (_cex_check_kind), so its stripped UNSAT trace is the first inner
        # iteration's refutation and the fresh solve below is skipped; the
        # rebuilds with interpolant initial states (j ≥ 2) always run fresh.
        group_proof = self._group_refutation(k)
        unroller: Optional[Unroller] = None
        if group_proof is None:
            self._share_yield()
            # Build the proof-logged bound-k check on a fresh solver.  After
            # an UNSAT incremental search the solve is guaranteed UNSAT and
            # runs only to record the labelled refutation interpolation
            # needs (see repro.core.base); with incremental search disabled
            # it also answers the SAT-or-UNSAT question.
            with self.tracer.span("refutation"):
                unroller = self._build_check(k, init_formula=None)
                sat = self._solve(unroller.solver) is SatResult.SAT
            if sat:
                # The proof-logged bound check saw no foreign clause, so its
                # counterexample is genuine; any imports that skipped or
                # steered the incremental search past it get retracted.
                depth = self._failure_depth(unroller, k)
                self._share_check_disagreement(depth)
                return self._fail(depth, unroller.extract_trace(depth))
            # The bound-k check forbids a failure at any frame 1..k, so its
            # refutation is exactly a "no counterexample up to k" fact.
            self._share_publish_depth(k)

        reached = init_predicate  # R_{j-1}
        current_init = None       # interpolant used as the next initial states

        j = 0
        while True:
            j += 1
            # One refinement step per cooperative turn: without this the
            # whole inner loop (often the entire run, at k=1) would occupy
            # a single turnstile turn and starve the progress clock.
            self._share_yield()
            if group_proof is not None:
                proof = group_proof
                cut_map = self._cex_searcher.unroller.cut_var_map(1)
                group_proof = None
            else:
                proof = self._reduced_proof(unroller.solver)
                cut_map = unroller.cut_var_map(1)
            with self.tracer.span("itp_extract"):
                builder = InterpolantBuilder(self.aig, cut_map,
                                             system=self.options.itp_system)
                itp = builder.extract(proof, a_partitions=[1])
                self.stats.itp_steps_replayed += builder.steps_replayed
                itp = self._register_interpolant(self.aig, itp)

            if self._implies(itp, reached):
                return self._pass(k, j)
            reached = self.aig.op_or(reached, itp)
            current_init = itp

            with self.tracer.span("refutation"):
                unroller = self._build_check(k, init_formula=current_init)
                sat = self._solve(unroller.solver) is SatResult.SAT
            if sat:
                # Spurious (the initial set is an over-approximation): retry
                # with a longer unrolling.
                return None

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _build_check(self, k: int, init_formula: Optional[int]) -> Unroller:
        if init_formula is None:
            initial = None
        else:
            def initial(unroller: Unroller, formula=init_formula) -> None:
                unroller.assert_formula(formula, frame=0, partition=1)
        return build_bound_check(self.model, k, proof_logging=True, initial=initial)

    def _failure_depth(self, unroller: Unroller, k: int) -> int:
        """Find the first frame whose bad literal is asserted in the SAT model."""
        model_values = unroller.solver.model()
        for frame in range(1, k + 1):
            # Re-deriving the literal is cheap: the cone is already encoded, so
            # the encoder returns the cached CNF literal without new clauses.
            lit = unroller.bad_literal(frame, partition=k + 1)
            value = model_values.get(abs(lit), False)
            if (lit > 0) == value:
                return frame
        return k
