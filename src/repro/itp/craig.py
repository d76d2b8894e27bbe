"""Craig interpolant extraction from resolution refutations.

Two labelled interpolation systems are implemented:

* ``mcmillan`` — McMillan's original system (CAV'03): A-leaves contribute
  the disjunction of their global literals, B-leaves contribute ⊤;
  resolutions on A-local pivots take the disjunction of the premises'
  partial interpolants, all other pivots the conjunction.
* ``pudlak`` — the symmetric system (Pudlák / HKP): A-leaves contribute ⊥,
  B-leaves ⊤; A-local pivots disjoin, B-local pivots conjoin, and global
  pivots introduce a multiplexer on the pivot variable.

Interpolants are materialised as AND-inverter cones inside a caller-supplied
:class:`~repro.aig.aig.Aig`; the caller also supplies the mapping from
*global CNF variables* to AIG literals (for BMC unrollings these are the
latch instances at the cut time frame).  Structural hashing inside the AIG
gives the usual constant propagation and sharing, which keeps interpolants
compact relative to the proof size.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from ..aig.aig import FALSE, TRUE, Aig, lit_negate
from ..sat.proof import ProofError, ResolutionProof
from .labeling import VarClass, VariableClassification, classify_variables

__all__ = ["InterpolationError", "InterpolantBuilder", "ITP_SYSTEMS"]

ITP_SYSTEMS = ("mcmillan", "pudlak")


class InterpolationError(RuntimeError):
    """Raised when interpolant extraction is impossible or inconsistent."""


class InterpolantBuilder:
    """Extracts Craig interpolants from a refutation into an AIG.

    Parameters
    ----------
    aig:
        Destination AIG; partial interpolants become AND/OR cones in it.
    global_var_map:
        Mapping from CNF variable to AIG literal for every variable that may
        be classified *global*.  Variables missing from the map but found
        global trigger :class:`InterpolationError` — this is deliberate: for
        time-frame partitionings the global variables must be exactly the
        state cut, and anything else indicates a mis-labelled clause.
    system:
        ``"mcmillan"`` (default) or ``"pudlak"``.

    ``steps_replayed`` counts the resolution steps the builder's
    extractions replayed, over all of its :meth:`extract` calls.
    """

    def __init__(self, aig: Aig, global_var_map: Mapping[int, int],
                 system: str = "mcmillan") -> None:
        if system not in ITP_SYSTEMS:
            raise ValueError(f"unknown interpolation system {system!r}")
        self.aig = aig
        self.global_var_map = dict(global_var_map)
        self.system = system
        self.steps_replayed = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def extract(self, proof: ResolutionProof,
                a_partitions: Iterable[int],
                core_order: Optional[Sequence[int]] = None) -> int:
        """Return the AIG literal of ITP(A, B) for the given A-side partitions.

        The proof may be a raw solver trace or a reduced refutation from
        :func:`repro.sat.proof.reduce_proof` — extraction only walks the
        core DAG, so a trimmed proof with recycled pivots yields smaller
        partial-interpolant cones at no loss of validity.  ``core_order``
        lets callers extracting several cuts from one proof (sequence
        extraction) share a single core walk.
        """
        if not proof.is_refutation():
            raise InterpolationError("proof does not derive the empty clause")
        classes = classify_variables(proof, a_partitions)
        partial: Dict[int, int] = {}
        core = proof.core_ids() if core_order is None else core_order
        for cid in core:
            node = proof.node(cid)
            if node.is_original:
                partial[cid] = self._leaf_interpolant(node, classes)
            else:
                partial[cid] = self._replay_chain(proof, node, classes, partial)
        assert proof.empty_clause_id is not None
        return partial[proof.empty_clause_id]

    # ------------------------------------------------------------------ #
    # Leaf and resolution rules
    # ------------------------------------------------------------------ #
    def _aig_literal_for(self, cnf_lit: int) -> int:
        var = abs(cnf_lit)
        mapped = self.global_var_map.get(var)
        if mapped is None:
            raise InterpolationError(
                f"global CNF variable {var} has no AIG mapping; the partition "
                "labelling does not cut the formula on state variables")
        return lit_negate(mapped) if cnf_lit < 0 else mapped

    def _leaf_interpolant(self, node, classes: VariableClassification) -> int:
        is_a_clause = (node.partition is not None
                       and node.partition in classes.a_partitions)
        if self.system == "mcmillan":
            if not is_a_clause:
                return TRUE
            lits = [self._aig_literal_for(l) for l in node.clause.literals
                    if classes.is_global(abs(l))]
            return self.aig.op_or(*lits) if lits else FALSE
        # Pudlák / symmetric system.
        return FALSE if is_a_clause else TRUE

    def _resolve_interpolants(self, pivot_var: int, itp_pos: int, itp_neg: int,
                              classes: VariableClassification) -> int:
        """Combine premise interpolants for a resolution on ``pivot_var``.

        ``itp_pos`` belongs to the premise containing the positive pivot
        literal, ``itp_neg`` to the premise containing the negative one.
        """
        var_class = classes.var_class(pivot_var)
        if self.system == "mcmillan":
            if var_class is VarClass.A_LOCAL:
                return self.aig.op_or(itp_pos, itp_neg)
            return self.aig.add_and(itp_pos, itp_neg)
        # Pudlák.
        if var_class is VarClass.A_LOCAL:
            return self.aig.op_or(itp_pos, itp_neg)
        if var_class is VarClass.B_LOCAL:
            return self.aig.add_and(itp_pos, itp_neg)
        pivot_aig = self._aig_literal_for(pivot_var)
        # (pivot ∨ itp_pos) ∧ (¬pivot ∨ itp_neg)
        return self.aig.add_and(self.aig.op_or(pivot_aig, itp_pos),
                                self.aig.op_or(lit_negate(pivot_aig), itp_neg))

    def _replay_chain(self, proof: ResolutionProof, node,
                      classes: VariableClassification,
                      partial: Dict[int, int]) -> int:
        chain = node.chain
        self.steps_replayed += len(chain) - 1
        first_id = chain[0][1]
        current_itp = partial.get(first_id)
        if current_itp is None:
            raise InterpolationError(
                f"antecedent {first_id} missing a partial interpolant")
        for pivot, antecedent_id in chain[1:]:
            if pivot is None:
                raise ProofError("only the first chain entry may omit the pivot")
            antecedent = proof.node(antecedent_id)
            other_itp = partial.get(antecedent_id)
            if other_itp is None:
                raise InterpolationError(
                    f"antecedent {antecedent_id} missing a partial interpolant")
            if pivot in antecedent.clause.literals:
                itp_pos, itp_neg = other_itp, current_itp
            elif -pivot in antecedent.clause.literals:
                itp_pos, itp_neg = current_itp, other_itp
            else:
                raise InterpolationError(
                    f"pivot {pivot} does not occur in antecedent clause {antecedent_id}")
            current_itp = self._resolve_interpolants(pivot, itp_pos, itp_neg, classes)
        return current_itp
