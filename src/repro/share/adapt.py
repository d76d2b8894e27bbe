"""Import-side lemma validation.

A foreign lemma is installed into a solver only after three checks, all
deterministic and none of them costing a single SAT clause:

1. **Fingerprint** — the bus-wide model fingerprint must match the
   importing engine's reduced model (checked once at attach time;
   see :func:`repro.share.lemma.model_fingerprint`).
2. **Syntax / initiation** — a :class:`FrameLemma` must name latch
   variables of the model and must exclude every initial state (a cube
   consistent with S₀ claims an initial state unreachable — instantly
   false).
3. **Simulation refutation** — a capped number of seeded bit-parallel
   simulation rounds from reset (:func:`repro.aig.simulate.random_stimulus_rounds`,
   64 lanes per round) actively tries to *refute* the lemma: a reachable
   state inside a frame cube or a bad state at or below a claimed safe
   depth rejects the lemma.

Rejection is cheap and silent by design: sharing is an optimisation, so a
suspect lemma is simply not imported (the ``lemmas_retracted`` counter and
a ``share_reject`` trace point record it).  Validation is deliberately
*deterministic* — same seed, same rounds, same verdict on any machine —
so replayed runs accept exactly what the original run accepted.

Validation is defence in depth, not the soundness story: even a malicious
lemma that survives it can only flip the proof-free counterexample
searcher from SAT to UNSAT, and every engine then runs its proof-logged
check, whose SAT answer produces the genuine counterexample regardless
(and triggers retraction of every foreign clause group — see
:meth:`repro.core.base.UmcEngine._share_check_disagreement`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..aig.model import Model
from ..aig.simulate import lit_value, random_stimulus_rounds
from .lemma import DepthLemma, FrameLemma, Lemma

__all__ = ["ImportValidator", "SIM_VALIDATION_STEPS", "SIM_VALIDATION_WIDTH"]

#: Simulation-refutation caps: rounds simulated from reset and lanes per
#: round.  Deterministic (fixed seed 0) and machine-independent.
SIM_VALIDATION_STEPS = 24
SIM_VALIDATION_WIDTH = 64

_MASK = (1 << SIM_VALIDATION_WIDTH) - 1


class ImportValidator:
    """Per-engine validator for foreign lemmas over one reduced model."""

    def __init__(self, model: Model, steps: int = SIM_VALIDATION_STEPS,
                 width: int = SIM_VALIDATION_WIDTH, seed: int = 0) -> None:
        self.model = model
        self.steps = steps
        self.width = width
        self.seed = seed
        self._mask = (1 << width) - 1
        self._latch_vars = set(model.latch_vars)
        self._init_cube = model.initial_cube().as_dict()
        self._rounds: Optional[List[Dict[int, int]]] = None

    def prepare(self) -> None:
        """Precompute the simulation rounds (call while the AIG is pristine:
        engines grow their private AIGs with interpolant cones later, and
        simulating those would be pure waste)."""
        if self._rounds is None:
            # steps + 1 value maps: states at times 0..steps inclusive.
            self._rounds = random_stimulus_rounds(
                self.model.aig, self.steps + 1, width=self.width,
                seed=self.seed)

    @property
    def rounds(self) -> List[Dict[int, int]]:
        self.prepare()
        assert self._rounds is not None
        return self._rounds

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def reject_reason(self, lemma: Lemma) -> Optional[str]:
        """``None`` when the lemma survives validation, else a reason."""
        if isinstance(lemma, DepthLemma):
            return self._check_depth(lemma)
        if isinstance(lemma, FrameLemma):
            return self._check_frame(lemma)
        return f"unknown lemma type {type(lemma).__name__}"

    # ------------------------------------------------------------------ #
    # Per-kind checks
    # ------------------------------------------------------------------ #
    def _check_depth(self, lemma: DepthLemma) -> Optional[str]:
        if lemma.depth < 0:
            return "negative depth"
        bad = self.model.bad_literal
        horizon = min(lemma.depth, self.steps)
        for time, values in enumerate(self.rounds[:horizon + 1]):
            if lit_value(values, bad, self.width):
                return f"bad state simulated at depth {time} <= {lemma.depth}"
        return None

    def _check_frame(self, lemma: FrameLemma) -> Optional[str]:
        if lemma.level < 0:
            return "negative frame level"
        if not lemma.cube:
            return "empty cube claims no state is reachable"
        seen = set()
        for var, _value in lemma.cube:
            if var not in self._latch_vars:
                return f"cube names non-latch variable {var}"
            if var in seen:
                return f"cube repeats variable {var}"
            seen.add(var)
        # Initiation: a cube consistent with S₀ contains an initial state,
        # which is trivially reachable in 0 <= level steps.
        if all(self._init_cube.get(var, value) == value
               for var, value in lemma.cube):
            return "cube intersects the initial states"
        horizon = min(lemma.level, self.steps)
        for time, values in enumerate(self.rounds[:horizon + 1]):
            hit = self._mask
            for var, value in lemma.cube:
                word = values[var]
                hit &= word if value else (~word & self._mask)
                if not hit:
                    break
            if hit:
                return (f"cube simulated reachable at depth {time} "
                        f"<= {lemma.level}")
        return None
