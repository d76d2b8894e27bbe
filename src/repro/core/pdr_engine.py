"""IC3/PDR as a fifth UMC engine: unbounded proofs without unrolling.

Where the four interpolation engines refute a length-k unrolling and read
an over-approximate image sequence out of the refutation proof, PDR
(Bradley VMCAI'11; Eén/Mishchenko/Brayton FMCAD'11) never unrolls: it
keeps relative-inductive frames F_0..F_k over **one** copy of the
transition relation and strengthens them cube by cube until either a frame
equals its successor (an inductive invariant — PASS at arbitrary depth) or
a chain of proof obligations reaches the initial states (FAIL, with the
chain converting into a concrete trace).

Contract with the rest of the system:

* same :class:`VerificationResult` / :class:`EngineStats` packaging as the
  other engines, with the depth pair reported analogously to Section IV-B:
  ``k_fp`` is the number of frames built when the run stopped and ``j_fp``
  the frame index at which the fixpoint F_j = F_{j+1} appeared (0 for
  failures, per the paper's convention);
* counterexamples are reconstructed from the obligation chain and replayed
  on the concrete model before being reported (``options.validate_traces``);
* **every** SAT query of a run — bad-state checks, relative induction,
  lifting, clause pushing — executes on the *single* persistent solver
  inside the engine's :class:`~repro.pdr.frames.FrameSequence`, so the
  solver count is independent of the frame count and
  ``engine.stats.sat_calls`` equals that solver's
  ``SolverStats.solve_calls``.  This engine never touches the proof-logging
  path (PDR needs no interpolants), so unlike its four siblings it builds
  no fresh solver per bound at all.

Knobs (:class:`~repro.core.options.EngineOptions`): ``pdr_gen_budget``
bounds the failed literal-drop attempts per generalization,
``pdr_push_period`` runs the clause-pushing phase only every N frame
openings (1 = after every frame, the default and the standard algorithm).
"""

from __future__ import annotations

from typing import Optional

from ..bmc.cex import Trace
from ..pdr.frames import FrameSequence
from ..pdr.generalize import generalize
from ..pdr.obligations import ObligationQueue, ProofObligation
from ..share.lemma import MAX_FRAME_CUBE_LITS, FrameLemma, Lemma
from .base import UmcEngine
from .result import VerificationResult

__all__ = ["PdrEngine"]


class PdrEngine(UmcEngine):
    """Property-directed reachability (IC3) on one persistent solver."""

    name = "pdr"

    stat_groups = ("solver", "preprocess", "pdr", "share")

    def __init__(self, model, options=None, tracer=None, share=None) -> None:
        super().__init__(model, options, tracer=tracer, share=share)
        #: The frame sequence of the most recent run (inspection/testing).
        self.frames: Optional[FrameSequence] = None

    def _run(self) -> VerificationResult:
        frames = FrameSequence(self.model, solve=self._solve,
                               tracer=self.tracer)
        self.frames = frames
        self._current_bound = 0

        # Depth-0 check: an initial state that violates p outright.
        with self.tracer.span("cex_search"):
            witness = frames.bad_state(0)
        if witness is not None:
            state, inputs = witness
            return self._fail(0, Trace(initial_state=state, inputs=[inputs],
                                       depth=0))

        k = frames.add_level()
        while k <= self.options.max_bound:
            # Frame opening is PDR's share boundary: foreign lemmas are
            # imported here (and only here), keyed by k in the share log.
            self._share_sync(k)
            self._current_bound = k
            with self._bound_span(k):
                with self.tracer.span("strengthen"):
                    trace = self._strengthen(frames, k)
                if trace is not None:
                    return self._fail(trace.depth, trace)
                # F_k is clear of bad states and F_i ⊇ Reach≤i, so no
                # counterexample of length ≤ k exists.
                self._share_publish_depth(k)
                if (k % self.options.pdr_push_period == 0
                        or k == self.options.max_bound):
                    with self.tracer.span("propagate"):
                        fixpoint = frames.propagate()
                    self.stats.clauses_pushed = frames.clauses_pushed
                    if fixpoint is not None:
                        return self._pass(k, fixpoint)
            k = frames.add_level()
        return self._unknown(self.options.max_bound,
                             "frame limit reached without convergence")

    # ------------------------------------------------------------------ #
    # Strengthening: clear every bad state out of the top frame
    # ------------------------------------------------------------------ #
    def _strengthen(self, frames: FrameSequence, k: int) -> Optional[Trace]:
        """Block all bad states in F_k; return a trace if one is reachable."""
        while True:
            witness = frames.bad_state(k)
            if witness is None:
                return None
            state, inputs = witness
            cube = frames.lift_bad(state, inputs)
            obligation = ProofObligation(cube=cube, level=k, state=state,
                                         inputs=inputs, succ=None)
            if frames.intersects_initial(cube):
                # Cannot happen after the depth-0 check (lifting preserves
                # the violation for every state of the cube), but a trace is
                # the right answer if it ever does.
                return self._build_trace(frames, obligation)
            trace = self._block(frames, obligation, k)
            if trace is not None:
                return trace

    def _block(self, frames: FrameSequence, root: ProofObligation,
               k: int) -> Optional[Trace]:
        """Discharge one bad cube via the proof-obligation queue."""
        queue = ObligationQueue()
        queue.push(root)
        while queue:
            # One obligation per cooperative turn: a frame's whole queue in
            # a single turn would starve the turnstile's progress clock.
            self._share_yield()
            obligation = queue.pop()
            if self.tracer.enabled:
                self.tracer.point("obligation_pop", level=obligation.level,
                                  cube_size=len(obligation.cube))
            answer = frames.check_obligation(obligation.cube, obligation.level)
            if answer[0] == "blocked":
                cube, level = self._generalize_and_push(
                    frames, answer[1], obligation.level, k)
                if frames.add_blocked_cube(cube, level):
                    self.stats.blocked_cubes += 1
                    self._share_publish_frame(cube, level)
                if level < k:
                    # Chase the same cube at the next frame: either it gets
                    # blocked there too, or it uncovers a deeper obligation
                    # chain — how PDR finds counterexamples beyond k quickly.
                    queue.push(obligation.at_level(level + 1))
            else:
                _, pred_state, pred_inputs = answer
                pred_cube = frames.lift_predecessor(pred_state, pred_inputs,
                                                    obligation.cube)
                predecessor = ProofObligation(
                    cube=pred_cube, level=obligation.level - 1,
                    state=pred_state, inputs=pred_inputs, succ=obligation)
                if predecessor.level == 0 or frames.intersects_initial(pred_cube):
                    # Reached S₀ (the level-0 query ran with the S₀ group
                    # active) or a cube that contains an initial state: the
                    # chain is a complete counterexample.
                    return self._build_trace(frames, predecessor)
                queue.push(predecessor)
                queue.push(obligation)
        return None

    def _generalize_and_push(self, frames: FrameSequence, cube, level: int,
                             k: int):
        """Generalize a blocked cube, then push its clause as far as it holds."""
        with self.tracer.span("generalize"):
            cube = generalize(frames, cube, level, self.options.pdr_gen_budget)
            while level < k:
                answer = frames.check_obligation(cube, level + 1)
                if answer[0] != "blocked":
                    break
                cube = answer[1]
                level += 1
        return cube, level

    # ------------------------------------------------------------------ #
    # Cooperative lemma sharing: PDR exports, never imports
    # ------------------------------------------------------------------ #
    def _share_apply(self, lemma: Lemma) -> bool:
        """PDR imports nothing; its blocked cubes only feed other engines.

        Conservative sharing must reproduce the solo trajectory exactly,
        and *any* foreign clause in the frames changes which proof
        obligations arise (depth facts are useless here anyway: F_k
        already over-approximates).
        """
        return False

    def _share_publish_frame(self, cube, level: int) -> None:
        """Export one freshly blocked cube (small cubes only — the cap
        keeps the bus free of weak, expensive-to-assume clauses)."""
        if self.share is None or len(cube) > MAX_FRAME_CUBE_LITS:
            return
        wire = tuple(sorted((var, bool(value)) for var, value in cube.items()))
        self._share_publish(FrameLemma(cube=wire, level=level))

    # ------------------------------------------------------------------ #
    # Counterexample reconstruction
    # ------------------------------------------------------------------ #
    def _build_trace(self, frames: FrameSequence,
                     obligation: ProofObligation) -> Trace:
        """Convert a completed obligation chain into a concrete trace.

        Lifting guarantees every state of an obligation's cube reaches the
        successor cube under the recorded inputs (or violates p, for the
        last link), so replaying from *any* initial state inside the first
        cube walks the whole chain; with lifting disabled the cubes are the
        full witness states and the replay is exact.
        """
        chain = obligation.chain()
        first = chain[0]
        if frames.intersects_initial(first.state):
            initial = dict(first.state)
        else:
            initial = frames.initial_state_in(first.cube)
        return Trace(initial_state=initial,
                     inputs=[link.inputs for link in chain],
                     depth=len(chain) - 1)
