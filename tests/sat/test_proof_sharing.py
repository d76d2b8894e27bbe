"""Derived proofs share their input's leaves: that sharing must be invisible.

``reduce_proof`` and ``strip_activations`` hand the input proof's original
:class:`ProofNode` objects (and, for the reduction, its cached label masks)
to the proof they build instead of copying them.  These tests pin what
that must never change: the originals keep their ids, order, literals,
partition and group; the cached masks equal a fresh computation; and a
solver that keeps adding clauses to the input proof afterwards — the
sequence engines reduce the proofs of live solvers — changes neither the
derived proof's originals nor its masks.
"""

from repro.sat import CdclSolver, SatResult, strip_activations
from repro.sat.proof import ResolutionProof, reduce_proof


def _snapshot(proof):
    """Everything observable about a proof's originals and label masks."""
    originals = [(n.clause_id, n.clause.literals, n.partition, n.group)
                 for n in proof.original_nodes()]
    masks = proof.label_masks()
    return originals, dict(masks.bits), dict(masks.masks)


def _fresh_masks(proof):
    """The label masks of a new proof holding copies of ``proof``'s originals."""
    copy = ResolutionProof()
    for node in proof.original_nodes():
        copy.add_original(node.clause_id, node.clause, node.partition,
                          node.group)
    return copy.label_masks()


def _labelled_unsat_solver():
    """A pigeonhole refutation split over three partitions plus unlabelled units."""
    solver = CdclSolver(proof_logging=True)
    holes, pigeons = 3, 4
    var = {(p, h): solver.new_var() for p in range(pigeons)
           for h in range(holes)}
    spare = solver.new_var()
    solver.add_clause([spare])                          # unlabelled, off-core
    for p in range(pigeons):
        solver.add_clause([var[p, h] for h in range(holes)], partition=1)
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var[p1, h], -var[p2, h]],
                                  partition=2 + h % 2)
    return solver, spare


def test_reduced_proof_shares_originals_unchanged():
    solver, _ = _labelled_unsat_solver()
    assert solver.solve() is SatResult.UNSAT
    proof = solver.proof()
    before = _snapshot(proof)
    reduced, _ = reduce_proof(proof)
    assert _snapshot(reduced) == before
    # The very same nodes and cached masks, not copies.
    for mine, theirs in zip(reduced.original_nodes(), proof.original_nodes()):
        assert mine is theirs
    assert reduced.label_masks() is proof.label_masks()
    assert reduced.label_masks() == _fresh_masks(reduced)


def test_reduced_proof_computes_masks_when_input_has_none_cached():
    solver, _ = _labelled_unsat_solver()
    assert solver.solve() is SatResult.UNSAT
    reduced, _ = reduce_proof(solver.proof())
    assert reduced.label_masks() == _fresh_masks(reduced)


def test_adding_clauses_to_the_input_leaves_the_reduced_proof_alone():
    solver, spare = _labelled_unsat_solver()
    assert solver.solve() is SatResult.UNSAT
    proof = solver.proof()
    proof.label_masks()                      # cached, so the reduction shares it
    reduced, _ = reduce_proof(proof)
    before = _snapshot(reduced)
    # The live solver keeps growing the input proof: a new label on old
    # variables (their masks change in the input) and fresh variables.
    extra = solver.new_var()
    solver.add_clause([1, -extra], partition=4)
    solver.add_clause([spare, extra], partition=2)
    assert _snapshot(reduced) == before
    assert len(proof.original_nodes()) == len(reduced.original_nodes()) + 2
    # The input's own masks are recomputed, not the stale shared ones.
    grown = proof.label_masks()
    assert grown == _fresh_masks(proof)
    assert grown.masks[1] != reduced.label_masks().masks[1]
    assert proof.partitions() == {1, 2, 3, 4}
    assert reduced.partitions() == {1, 2, 3}


def test_stripped_proof_shares_untouched_originals():
    solver = CdclSolver(proof_logging=True)
    a, b, c = solver.new_var(), solver.new_var(), solver.new_var()
    solver.add_clause([a], partition=1)
    solver.add_clause([-a, b], partition=1)
    solver.add_clause([c, b])                           # unlabelled
    group = solver.new_group()
    solver.add_clause([-b], partition=2, group=group)
    assert solver.solve([solver.group_literal(group)]) is SatResult.UNSAT
    proof = solver.proof()
    stripped, _ = strip_activations(proof, {group}, set(),
                                    solver.last_refutation_root())
    by_id = {n.clause_id: n for n in proof.original_nodes()}
    for node in stripped.original_nodes():
        source = by_id[node.clause_id]
        if source.group == group:
            # Rebuilt: the activation literal is gone, the label stays.
            assert node is not source
            assert node.clause.literals == (-b,)
            assert (node.partition, node.group) == (2, None)
        else:
            assert node is source
    assert [n.clause_id for n in stripped.original_nodes()] == sorted(by_id)
    assert stripped.label_masks() == _fresh_masks(stripped)

    before = _snapshot(stripped)
    later = solver.new_group()
    solver.add_clause([-a, -c], partition=3, group=later)
    solver.add_clause([c], partition=3)
    assert _snapshot(stripped) == before
    assert proof.label_masks() == _fresh_masks(proof)
