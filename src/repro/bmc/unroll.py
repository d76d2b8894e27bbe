"""Time-frame expansion of a sequential model into CNF.

The :class:`Unroller` owns the mapping between AIG objects and CNF
variables per time frame and routes every emitted clause into the SAT
solver tagged with its Γ-partition label:

* partition ``1``   — the initial-state constraint S₀(V⁰) together with the
  first transition T(V⁰, V¹)  (the ``A₁`` term of Section II-C);
* partition ``i``   — the transition T(Vⁱ⁻¹, Vⁱ) for 2 ≤ i ≤ k;
* partition ``k+1`` — the property term (¬p(Vᵏ) for exact/assume checks,
  the disjunction of ¬p over all frames for bound checks).

Keeping this labelling in the proof is what allows a *single* refutation to
yield a whole interpolation sequence (Eq. (2) of the paper): the cut-``j``
interpolant is extracted by treating partitions 1..j as the A side.

Latch instances at frame ``f`` get dedicated CNF variables tied to the
next-state cones of frame ``f-1`` with two equivalence clauses, so the
variables shared between a prefix and a suffix of the partition are exactly
the state variables at the cut — which makes every extracted interpolant a
predicate over latch variables, as the algorithms require.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..aig.aig import lit_from_var, lit_negate
from ..aig.model import Model
from ..cnf.tseitin import TseitinEncoder
from ..sat.solver import CdclSolver
from .cex import Trace

__all__ = ["Unroller"]


class _Frame:
    """Per-time-frame CNF bookkeeping."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.encoder: Optional[TseitinEncoder] = None
        self.latch_vars: Dict[int, int] = {}
        self.input_vars: Dict[int, int] = {}


class Unroller:
    """Unrolls a model's transition relation into a partition-labelled CNF."""

    def __init__(self, model: Model, solver: CdclSolver) -> None:
        self.model = model
        self.solver = solver
        self._frames: List[_Frame] = []

    # ------------------------------------------------------------------ #
    # Frame and variable management
    # ------------------------------------------------------------------ #
    def frame(self, index: int) -> _Frame:
        """Return (creating if needed) the bookkeeping record for a frame."""
        while len(self._frames) <= index:
            frame = _Frame(len(self._frames))
            aig = self.model.aig
            for var in self.model.latch_vars:
                frame.latch_vars[var] = self.solver.new_var()
            for var in self.model.input_vars:
                frame.input_vars[var] = self.solver.new_var()
            frame.encoder = TseitinEncoder(aig, self.solver, allocate_leaves=False)
            for var, cnf_var in frame.latch_vars.items():
                frame.encoder.declare_leaf(var, cnf_var)
            for var, cnf_var in frame.input_vars.items():
                frame.encoder.declare_leaf(var, cnf_var)
            self._frames.append(frame)
        return self._frames[index]

    @property
    def num_frames(self) -> int:
        return len(self._frames)

    def latch_cnf_var(self, frame: int, latch_var: int) -> int:
        """CNF variable of a latch instance at a frame."""
        return self.frame(frame).latch_vars[latch_var]

    def input_cnf_var(self, frame: int, input_var: int) -> int:
        """CNF variable of a primary-input instance at a frame."""
        return self.frame(frame).input_vars[input_var]

    def cut_var_map(self, frame: int) -> Dict[int, int]:
        """Map CNF latch variables at ``frame`` to model AIG latch literals.

        This is the ``global variable -> AIG literal`` dictionary the
        interpolant builders need for the cut at this frame.
        """
        return {cnf_var: lit_from_var(latch_var)
                for latch_var, cnf_var in self.frame(frame).latch_vars.items()}

    def _encode(self, frame: int, aig_lit: int, partition: Optional[int]) -> int:
        """Encode an AIG literal's cone at a frame; return the DIMACS literal."""
        encoder = self.frame(frame).encoder
        assert encoder is not None
        encoder.partition = partition
        return encoder.literal(aig_lit)

    def _add_clause(self, clause: Sequence[int], partition: Optional[int]) -> None:
        self.solver.add_clause(list(clause), partition=partition)

    # ------------------------------------------------------------------ #
    # Constraint emission
    # ------------------------------------------------------------------ #
    def assert_initial_state(self, partition: int = 1) -> None:
        """Constrain frame 0 to the model's initial states (S₀)."""
        for latch in self.model.latches:
            if latch.init is None:
                continue
            cnf_var = self.latch_cnf_var(0, latch.var)
            self._add_clause([cnf_var if latch.init else -cnf_var], partition)

    def assert_state_cube(self, state: Mapping[int, bool], frame: int,
                          partition: Optional[int]) -> None:
        """Constrain a frame to a (partial) latch valuation."""
        for latch_var, value in state.items():
            cnf_var = self.latch_cnf_var(frame, latch_var)
            self._add_clause([cnf_var if value else -cnf_var], partition)

    def assert_input_values(self, values: Mapping[int, bool], frame: int,
                            partition: Optional[int]) -> None:
        """Constrain a frame's primary inputs to concrete values."""
        for input_var, value in values.items():
            cnf_var = self.input_cnf_var(frame, input_var)
            self._add_clause([cnf_var if value else -cnf_var], partition)

    def add_transition(self, from_frame: int, partition: Optional[int],
                       include_constraints: bool = True) -> None:
        """Encode T(V^f, V^{f+1}) and (optionally) the frame-f invariant constraints.

        ``include_constraints=False`` is used by the incremental unroller,
        which asserts each frame's constraints exactly once on arrival rather
        than together with the outgoing transition.
        """
        next_frame = self.frame(from_frame + 1)
        for latch in self.model.latches:
            next_lit = self._encode(from_frame, latch.next, partition)
            latch_var_next = next_frame.latch_vars[latch.var]
            self._add_clause([-latch_var_next, next_lit], partition)
            self._add_clause([latch_var_next, -next_lit], partition)
        if include_constraints:
            for constraint in self.model.constraints:
                lit = self._encode(from_frame, constraint, partition)
                self._add_clause([lit], partition)

    def bad_literal(self, frame: int, partition: int) -> int:
        """Encode (without asserting) the bad literal at a frame."""
        return self._encode(frame, self.model.bad_literal, partition)

    def assert_bad(self, frame: int, partition: int) -> None:
        """Assert the bad literal (property violation) at a frame."""
        self._add_clause([self.bad_literal(frame, partition)], partition)

    def assert_property(self, frame: int, partition: int) -> None:
        """Assert that the property holds (no violation) at a frame."""
        self._add_clause([-self.bad_literal(frame, partition)], partition)

    def assert_constraints_at(self, frame: int, partition: int) -> None:
        """Assert the invariant constraints at a frame (used for the last frame)."""
        for constraint in self.model.constraints:
            lit = self._encode(frame, constraint, partition)
            self._add_clause([lit], partition)

    def constraint_literals(self, frame: int, partition: Optional[int]) -> List[int]:
        """Encode (without asserting) each invariant constraint at a frame.

        Callers that need the constraints retractable — e.g. PDR, whose
        bad-state queries must not force the violating state to have a
        constraint-satisfying successor — put the returned unit literals
        under an activation group instead of asserting them.
        """
        return [self._encode(frame, constraint, partition)
                for constraint in self.model.constraints]

    def assert_formula(self, aig_lit: int, frame: int, partition: Optional[int],
                       negate: bool = False) -> None:
        """Assert an arbitrary AIG predicate (e.g. an interpolant) at a frame.

        The predicate must be a cone over latch variables of the model's AIG;
        its leaves are bound to the frame's latch instances.
        """
        lit = self._encode(frame, aig_lit, partition)
        self._add_clause([-lit if negate else lit], partition)

    # ------------------------------------------------------------------ #
    # Witness extraction
    # ------------------------------------------------------------------ #
    def extract_trace(self, depth: int) -> Trace:
        """Build a :class:`Trace` from the solver's current model."""
        model_values = self.solver.model()

        def value(cnf_var: int) -> bool:
            return model_values.get(cnf_var, False)

        initial = {latch.var: value(self.latch_cnf_var(0, latch.var))
                   for latch in self.model.latches}
        inputs: List[Dict[int, bool]] = []
        for frame in range(depth + 1):
            if frame < self.num_frames:
                inputs.append({var: value(cnf)
                               for var, cnf in self.frame(frame).input_vars.items()})
            else:
                inputs.append({})
        return Trace(initial_state=initial, inputs=inputs, depth=depth)
