"""Serial interpolation sequences (Definition 3 and Fig. 4).

A serial sequence replaces the first ``n_s = ⌊alpha_s · n⌋`` elements of the
parallel computation by a chain of standard interpolation steps,

    Iⱼ = ITP(Iⱼ₋₁ ∧ Aⱼ, ⋀_{i>j} Aᵢ)            (Eq. (3))

each of which needs its own SAT call (the B term shrinks as j grows), and
computes the remaining elements in parallel from one additional refutation
of ``I_{n_s} ∧ Γ_{n_s+1..n}``.  The extra SAT effort buys the *cumulative*
abstraction effect of standard interpolation — the saturation the paper
credits for convergence at shorter depths (Section IV-B/C).

The verification loop around the sequence is identical to Fig. 2 and is
inherited from :class:`ItpSeqEngine`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..aig.aig import FALSE, TRUE, Aig
from ..aig.model import Model
from ..bmc.checks import build_check
from ..bmc.unroll import Unroller
from ..itp.craig import InterpolantBuilder
from ..itp.sequence import extract_sequence
from ..sat.proof import ResolutionProof
from ..sat.types import SatResult
from .base import UmcEngine
from .itpseq_engine import ItpSeqEngine
from .result import VerificationResult

__all__ = ["SerialItpSeqEngine", "compute_serial_sequence"]


def compute_serial_sequence(
    engine: UmcEngine,
    model: Model,
    k: int,
    base_proof: ResolutionProof,
    base_unroller: Unroller,
) -> List[int]:
    """Compute the (partially) serial sequence of Fig. 4 for a bound ``k``.

    ``base_proof`` / ``base_unroller`` come from the already-solved
    (unsatisfiable) depth-``k`` BMC check on ``model``; its cut-1 interpolant
    seeds the serial chain, so the first serial element costs no extra SAT
    call.  Elements are materialised in ``model.aig`` and returned as the
    full list I₀..I_{k+1} (with I₀ = ⊤ and I_{k+1} = ⊥).

    The function is deliberately engine-agnostic: the serial+CBA engine
    calls it with an *abstract* model, the plain serial engine with the
    concrete one.
    """
    options = engine.options
    aig = model.aig
    n = k + 1                                   # number of partitions in Γ
    n_serial = min(int(options.alpha_s * n), k)  # number of serially-built cuts

    elements: List[int] = [TRUE] + [FALSE] * k + [FALSE]

    if n_serial == 0:
        # Fully parallel: just Eq. (2) on the base proof.
        cut_maps = {j: base_unroller.cut_var_map(j) for j in range(1, k + 1)}
        parallel = extract_sequence(base_proof, n, cut_maps, aig,
                                    system=options.itp_system)
        engine.stats.itp_steps_replayed += parallel.steps_replayed
        for j in range(1, k + 1):
            elements[j] = engine._register_interpolant(aig, parallel.element(j))
        return elements

    # Serial element 1 = ITP(A₁, A₂..Aₙ): extract it from the base refutation.
    builder = InterpolantBuilder(aig, base_unroller.cut_var_map(1),
                                 system=options.itp_system)
    elements[1] = engine._register_interpolant(
        aig, builder.extract(base_proof, a_partitions=[1]))
    engine.stats.itp_steps_replayed += builder.steps_replayed

    # Serial elements 2..n_serial: one SAT call each on a shortened unrolling
    # whose frame 0 is constrained to the previous element (Eq. (3)).
    for j in range(2, n_serial + 1):
        # One serial step per cooperative turn: a bound's whole chain of
        # k+1 proof-logged solves in a single turn would overshoot the
        # turnstile's progress clock by an entire bound.
        engine._share_yield()
        suffix_depth = k - j + 1
        unroller = _build_suffix_check(engine, model, elements[j - 1], suffix_depth)
        result = engine._solve(unroller.solver)
        if result is not SatResult.UNSAT:
            # Guaranteed unreachable by the Craig property of I_{j-1}; guard
            # against it anyway so a bug surfaces loudly instead of silently.
            raise RuntimeError("serial interpolation step unexpectedly satisfiable")
        step_builder = InterpolantBuilder(aig, unroller.cut_var_map(1),
                                          system=options.itp_system)
        elements[j] = engine._register_interpolant(
            aig, step_builder.extract(engine._reduced_proof(unroller.solver),
                                      a_partitions=[1]))
        engine.stats.itp_steps_replayed += step_builder.steps_replayed

    # Remaining elements n_serial+1 .. k: parallel extraction from one more
    # refutation of I_{n_serial} ∧ Γ_{n_serial+1..n}.
    if n_serial < k:
        engine._share_yield()
        suffix_depth = k - n_serial
        unroller = _build_suffix_check(engine, model, elements[n_serial], suffix_depth)
        result = engine._solve(unroller.solver)
        if result is not SatResult.UNSAT:
            raise RuntimeError("parallel remainder of the serial sequence "
                               "unexpectedly satisfiable")
        cut_maps = {j: unroller.cut_var_map(j) for j in range(1, suffix_depth + 1)}
        remainder = extract_sequence(engine._reduced_proof(unroller.solver),
                                     suffix_depth + 1,
                                     cut_maps, aig, system=options.itp_system)
        engine.stats.itp_steps_replayed += remainder.steps_replayed
        for offset in range(1, suffix_depth + 1):
            elements[n_serial + offset] = engine._register_interpolant(
                aig, remainder.element(offset))
    return elements


def _build_suffix_check(engine: UmcEngine, model: Model, init_formula: int,
                        depth: int) -> Unroller:
    """Build the BMC check for a suffix Γ, with frame 0 constrained to a predicate.

    Under the assume-k formulation the original partition A_j also carries
    the p(V^{j-1}) constraint (Section III); the re-indexed frame 0 of the
    suffix plays the role of frame j-1, so that constraint is re-asserted
    here in partition 1.  Without it the suffix would be weaker than the B
    term the previous interpolant was extracted against, and the
    "guaranteed unsatisfiable" property of Definition 3 would be lost.
    """
    def initial(unroller: Unroller, formula=init_formula) -> None:
        unroller.assert_formula(formula, frame=0, partition=1)

    from ..bmc.checks import BmcCheckKind

    unroller = build_check(engine.options.bmc_check, model, depth,
                           proof_logging=True, initial=initial)
    if engine.options.bmc_check is BmcCheckKind.ASSUME:
        unroller.assert_property(0, partition=1)
    return unroller


class SerialItpSeqEngine(ItpSeqEngine):
    """Serial interpolation sequences (SITPSEQ of Fig. 4 inside Fig. 2's loop)."""

    name = "sitpseq"

    def _run(self) -> VerificationResult:
        trace = self._depth_zero_trace()
        if trace is not None:
            return self._fail(0, trace)

        from .base import initial_states_predicate

        init_predicate = initial_states_predicate(self.model)
        columns: Dict[int, int] = {}

        k = 0
        while k < self.options.max_bound:
            # Same bound-boundary lemma exchange as the parallel engine
            # (see ItpSeqEngine._run).
            self._share_sync(k + 1)
            k += 1
            self._current_bound = k
            self._check_budget()

            with self._bound_span(k):
                # Incremental counterexample search first; on a group-proof
                # run its stripped UNSAT trace seeds the serial chain, so
                # only the suffix checks of Fig. 4 build fresh solvers
                # (base.py).
                trace = self._search_counterexample(k)
                if trace is not None:
                    return self._fail(k, trace)

                proof = self._group_refutation(k)
                if proof is not None:
                    cut_unroller = self._cex_searcher.unroller
                else:
                    # Separate turns for search / refutation / extraction, as
                    # in the parallel engine.
                    self._share_yield()
                    with self.tracer.span("refutation"):
                        unroller = build_check(self.options.bmc_check,
                                               self.model, k,
                                               proof_logging=True)
                        sat = self._solve(unroller.solver) is SatResult.SAT
                    if sat:
                        # Lemma-free proof-logged check is authoritative; see
                        # ItpSeqEngine._run.
                        self._share_check_disagreement(k)
                        return self._fail(k, unroller.extract_trace(k))
                    self._share_publish_depth(k)

                    self._share_yield()
                    proof = self._reduced_proof(unroller.solver)
                    cut_unroller = unroller
                with self.tracer.span("itp_extract"):
                    elements = compute_serial_sequence(self, self.model, k,
                                                       proof, cut_unroller)
                outcome = self._update_columns(columns, elements, k,
                                               init_predicate)
            if outcome is not None:
                return outcome
        return self._unknown(self.options.max_bound,
                             "bound limit reached without convergence")
