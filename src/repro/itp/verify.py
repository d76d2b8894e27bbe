"""Semantic verification of extracted interpolants.

These helpers re-check, with independent SAT calls, that an extracted
interpolant satisfies the Craig conditions of Definition 1 (and, element by
element, the sequence conditions of Definition 2).  They are used by the
test-suite and are also handy for users debugging their own partitionings;
the verification cost is comparable to the original refutation, so the
engines never call them on the hot path.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..aig.aig import Aig, lit_negate
from ..cnf.tseitin import TseitinEncoder
from ..sat.proof import ResolutionProof
from ..sat.solver import CdclSolver
from ..sat.types import SatResult

__all__ = ["check_craig_conditions", "check_sequence_conditions", "itp_support_vars"]


def _encode_predicate(solver: CdclSolver, aig: Aig, root: int,
                      leaf_to_cnf: Mapping[int, int]) -> int:
    """Encode an AIG predicate into ``solver`` with the given leaf mapping."""
    encoder = TseitinEncoder(aig, solver, allocate_leaves=False)
    for aig_var, cnf_var in leaf_to_cnf.items():
        encoder.declare_leaf(aig_var, cnf_var)
    return encoder.literal(root)


def _side_clauses(proof: ResolutionProof, a_partitions: Iterable[int],
                  want_a: bool) -> Sequence[Sequence[int]]:
    a_set = set(a_partitions)
    selected = []
    for node in proof.original_nodes():
        in_a = node.partition is not None and node.partition in a_set
        if in_a == want_a:
            selected.append(list(node.clause.literals))
    return selected


def check_craig_conditions(
    proof: ResolutionProof,
    a_partitions: Iterable[int],
    itp_lit: int,
    aig: Aig,
    cut_var_map: Mapping[int, int],
) -> Tuple[bool, bool]:
    """Check ``A ⇒ I`` and ``I ∧ B ≡ ⊥`` by two fresh SAT calls.

    ``cut_var_map`` maps CNF variables (the proof's numbering) to AIG
    literals — the same dictionary handed to the interpolant builder.  It is
    inverted here to bind the interpolant's AIG leaves back onto the
    original CNF variables.

    Returns ``(a_implies_itp, itp_inconsistent_with_b)``.
    """
    a_list = list(a_partitions)
    # Invert cnf-var -> aig-literal into aig-var -> cnf-var (positive literals
    # only; a complemented mapping would indicate a mis-built cut map).
    leaf_to_cnf: Dict[int, int] = {}
    for cnf_var, aig_lit in cut_var_map.items():
        if aig_lit & 1:
            raise ValueError("cut variable maps must target positive AIG literals")
        leaf_to_cnf[aig_lit >> 1] = cnf_var

    # A ∧ ¬I must be unsatisfiable.
    solver_a = CdclSolver()
    max_var = max((abs(l) for clause in proof.original_nodes()
                   for l in clause.clause.literals), default=0)
    solver_a.ensure_var(max_var)
    for clause in _side_clauses(proof, a_list, want_a=True):
        solver_a.add_clause(clause)
    itp_in_a = _encode_predicate(solver_a, aig, itp_lit, leaf_to_cnf)
    solver_a.add_clause([-itp_in_a])
    a_implies = solver_a.solve() is SatResult.UNSAT

    # I ∧ B must be unsatisfiable.
    solver_b = CdclSolver()
    solver_b.ensure_var(max_var)
    for clause in _side_clauses(proof, a_list, want_a=False):
        solver_b.add_clause(clause)
    itp_in_b = _encode_predicate(solver_b, aig, itp_lit, leaf_to_cnf)
    solver_b.add_clause([itp_in_b])
    b_inconsistent = solver_b.solve() is SatResult.UNSAT

    return a_implies, b_inconsistent


def check_sequence_conditions(
    proof: ResolutionProof,
    elements: Sequence[int],
    cut_var_maps: Mapping[int, Mapping[int, int]],
    aig: Aig,
) -> bool:
    """Check the Definition 2 chain condition Iᵢ ∧ Aᵢ₊₁ ⇒ Iᵢ₊₁ for all i.

    ``elements`` is the full sequence (I₀ … Iₙ); partition ``i+1`` clauses
    are taken from the proof's original clauses.
    """
    n = len(elements) - 1
    originals = proof.original_nodes()
    max_var = max((abs(l) for node in originals
                   for l in node.clause.literals), default=0)
    by_partition: Dict[Optional[int], list] = {}
    for node in originals:
        by_partition.setdefault(node.partition, []).append(node.clause.literals)
    for i in range(n):
        solver = CdclSolver()
        solver.ensure_var(max_var)
        for literals in by_partition.get(i + 1, ()):
            solver.add_clause(list(literals))
        # Left element at cut i (skip I₀ = ⊤), negated right element at cut i+1
        # (skip Iₙ = ⊥, whose negation is a tautology).
        if i > 0:
            leaf_map = {lit >> 1: var for var, lit in cut_var_maps[i].items()}
            left = _encode_predicate(solver, aig, elements[i], leaf_map)
            solver.add_clause([left])
        if i + 1 < n:
            leaf_map = {lit >> 1: var for var, lit in cut_var_maps[i + 1].items()}
            right = _encode_predicate(solver, aig, elements[i + 1], leaf_map)
            solver.add_clause([-right])
        else:
            # Iₙ = ⊥: the condition degenerates to Iₙ₋₁ ∧ Aₙ ≡ ⊥, already
            # covered by the i = n-1 iteration's left/partition clauses; the
            # negated right side is simply omitted (¬⊥ = ⊤).
            pass
        if solver.solve() is not SatResult.UNSAT:
            return False
    return True


def itp_support_vars(aig: Aig, itp_lit: int) -> set:
    """Return the AIG leaf variables in the support of an interpolant cone."""
    inputs, latches = aig.support([itp_lit])
    return set(inputs) | set(latches)
