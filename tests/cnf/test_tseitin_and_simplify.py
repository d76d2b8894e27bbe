"""Tests for the Tseitin encoder and the CNF simplifier.

The simplifier itself lives in :mod:`repro.preprocess.cnfsimp` (it is the
pipeline's CNF pass); the encoder-level behaviour it must respect is
covered here next to the Tseitin tests, while the pass-level behaviour
(variable elimination, reconstruction) is covered in
``tests/preprocess/test_cnfsimp.py``.
"""

import itertools

import pytest

from repro.aig import Aig, lit_negate, lit_var, lit_value, simulate_comb
from repro.cnf import Cnf, TseitinEncoder, encode_combinational
from repro.preprocess import simplify_cnf, unit_propagate
from repro.sat import CdclSolver, SatResult, brute_force_sat


def _build_example_aig():
    aig = Aig()
    a = aig.add_input("a")
    b = aig.add_input("b")
    c = aig.add_input("c")
    f = aig.op_or(aig.add_and(a, b), aig.op_xor(b, c))
    return aig, (a, b, c), f


def test_encode_combinational_equisatisfiable_with_simulation():
    aig, (a, b, c), f = _build_example_aig()
    cnf, roots, var_map = encode_combinational(aig, [f])
    root = roots[0]
    # For every input assignment, the CNF with inputs fixed must be SAT with
    # the root literal taking exactly the simulated value.
    for values in itertools.product([0, 1], repeat=3):
        solver = CdclSolver()
        for clause in cnf.clauses:
            solver.add_clause(list(clause.literals))
        for lit, value in zip((a, b, c), values):
            cnf_var = var_map[lit_var(lit)]
            solver.add_clause([cnf_var if value else -cnf_var])
        expected = lit_value(simulate_comb(aig, {lit_var(lit): v for lit, v
                                                 in zip((a, b, c), values)}), f)
        solver.add_clause([root if expected else -root])
        assert solver.solve() is SatResult.SAT
        # And forcing the opposite value must be UNSAT.
        solver2 = CdclSolver()
        for clause in cnf.clauses:
            solver2.add_clause(list(clause.literals))
        for lit, value in zip((a, b, c), values):
            cnf_var = var_map[lit_var(lit)]
            solver2.add_clause([cnf_var if value else -cnf_var])
        solver2.add_clause([-root if expected else root])
        assert solver2.solve() is SatResult.UNSAT


def test_encoder_caches_gates_across_roots():
    aig = Aig()
    a = aig.add_input()
    b = aig.add_input()
    g = aig.add_and(a, b)
    h = aig.op_or(g, a)
    cnf = Cnf()
    encoder = TseitinEncoder(aig, cnf)
    first = encoder.literal(g)
    clauses_after_first = len(cnf)
    second = encoder.literal(g)
    assert first == second
    assert len(cnf) == clauses_after_first
    encoder.literal(h)          # re-uses g's encoding
    assert len(cnf) > clauses_after_first


def test_encoder_constant_literals():
    aig = Aig()
    cnf = Cnf()
    encoder = TseitinEncoder(aig, cnf)
    false_lit = encoder.literal(0)
    true_lit = encoder.literal(1)
    assert false_lit == -true_lit
    solver = CdclSolver()
    for clause in cnf.clauses:
        solver.add_clause(list(clause.literals))
    solver.add_clause([true_lit])
    assert solver.solve() is SatResult.SAT
    solver.add_clause([false_lit])
    assert solver.solve() is SatResult.UNSAT


def test_encoder_without_leaf_allocation_requires_declaration():
    aig = Aig()
    a = aig.add_input()
    b = aig.add_input()
    g = aig.add_and(a, b)
    cnf = Cnf()
    encoder = TseitinEncoder(aig, cnf, allocate_leaves=False)
    with pytest.raises(KeyError):
        encoder.literal(g)
    encoder.declare_leaf(lit_var(a), cnf.new_var())
    encoder.declare_leaf(lit_var(b), cnf.new_var())
    assert encoder.literal(g) != 0
    assert encoder.has_var(lit_var(a))
    assert lit_var(a) in encoder.var_map()


def test_cnf_target_takes_gate_definitions_and_rejects_labels():
    cnf = Cnf()
    cnf.define_and(3, 1, -2)
    assert [clause.literals for clause in cnf.clauses] == [
        (1, -3), (-2, -3), (-1, 2, 3)]
    assert cnf.num_vars == 3
    with pytest.raises(ValueError):
        cnf.define_and(6, 4, 5, partition=1)
    with pytest.raises(ValueError):
        cnf.add_clause([4], group=7)
    assert len(cnf) == 3


def test_encoder_labels_solver_clauses_with_partition_and_group():
    aig = Aig()
    a = aig.add_input()
    b = aig.add_input()
    g = aig.add_and(a, lit_negate(b))
    solver = CdclSolver(proof_logging=True)
    encoder = TseitinEncoder(aig, solver)
    encoder.partition = 2
    encoder.group = solver.new_group()
    encoder.literal(g)
    encoder.literal(0)
    nodes = solver._proof.nodes_in_order()
    assert len(nodes) == 4
    assert {(node.partition, node.group) for node in nodes} == {(2, encoder.group)}
    assert all(-encoder.group in node.clause for node in nodes)


def test_negated_root_encoding():
    aig = Aig()
    a = aig.add_input()
    b = aig.add_input()
    g = aig.add_and(a, b)
    cnf, roots, var_map = encode_combinational(aig, [lit_negate(g)])
    assert roots[0] < 0


def test_unit_propagation_finds_implied_assignment():
    cnf = Cnf([[1], [-1, 2], [-2, 3], [3, 4]])
    assignment, conflict = unit_propagate(cnf)
    assert not conflict
    assert assignment == {1: True, 2: True, 3: True}


def test_unit_propagation_detects_conflict():
    cnf = Cnf([[1], [-1, 2], [-2], [3, 4]])
    _, conflict = unit_propagate(cnf)
    assert conflict


def test_simplify_cnf_removes_satisfied_clauses():
    cnf = Cnf([[1], [1, 2, 3], [-1, 2], [2, -3]])
    result = simplify_cnf(cnf)
    assert not result.conflict
    assert result.assignment[1] is True
    # [1] and [1,2,3] disappear; [-1,2] becomes [2] -> propagated too.
    assert result.assignment[2] is True
    assert all(1 not in c.variables() for c in result.cnf.clauses)
    assert result.stats.clauses_eliminated >= 3


def test_simplify_cnf_conflict_returns_none_formula():
    cnf = Cnf([[1], [-1]])
    result = simplify_cnf(cnf)
    assert result.conflict
    assert result.cnf is None


def test_simplify_preserves_satisfiability_on_random_formulas():
    import random
    rng = random.Random(3)
    for _ in range(20):
        clauses = []
        for _ in range(18):
            vs = rng.sample(range(1, 7), rng.randint(1, 3))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        cnf = Cnf(clauses)
        original_sat, _ = brute_force_sat(cnf)
        result = simplify_cnf(cnf)
        if result.conflict:
            assert original_sat is False
        else:
            simplified_sat, model = brute_force_sat(result.cnf) if len(result.cnf) else (True, {})
            assert simplified_sat == original_sat
            if simplified_sat:
                # The reconstructed assignment must satisfy the original.
                assert cnf.is_satisfied_by(result.extend_assignment(model or {}))
