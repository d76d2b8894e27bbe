"""``CdclSolver.define_and`` against the three ``add_clause`` calls it replaces.

A gate definition ``out <-> left & right`` is ``[-out, left]``,
``[-out, right]`` and ``[out, -left, -right]``.  ``define_and`` skips the
generic per-clause validation, so these tests pin down that everything the
solver or its proof can observe is the same as with the generic path: the
clause records (watch order included), the watch lists, the trail and the
reasons, the clause ids, the ``_ok`` flag, the proof nodes and the stats —
and that the answers of a later solve agree too.
"""

import random

import pytest

from repro.sat import CdclSolver, SatResult, SolverError

NUM_VARS = 8


def _define_by_clauses(solver, out, left, right, partition, group):
    solver.add_clause([-out, left], partition=partition, group=group)
    solver.add_clause([-out, right], partition=partition, group=group)
    solver.add_clause([out, -left, -right], partition=partition, group=group)


def _define_directly(solver, out, left, right, partition, group):
    solver.define_and(out, left, right, partition=partition, group=group)


def _cid(rec):
    return None if rec is None else rec.cid


def _snapshot(solver):
    proof = solver._proof
    return {
        "clauses": [(rec.cid, list(rec.lits), rec.learned, rec.deleted)
                    for rec in solver._clauses],
        "watches": [[rec.cid for rec in watch] for watch in solver._watches],
        "trail": list(solver._trail),
        "assign": list(solver._assign),
        "reasons": [_cid(rec) for rec in solver._reason],
        "next_cid": solver._next_cid,
        "ok": solver._ok,
        "num_vars": solver.num_vars,
        "groups": {g: [rec.cid for rec in recs]
                   for g, recs in solver._groups.items()},
        "proof": None if proof is None else [
            (node.clause_id, node.clause.literals, node.clause.is_tautology,
             node.partition, node.group, list(node.chain))
            for node in proof.nodes_in_order()],
        "stats": solver.stats.as_dict(),
    }


def _run(seed, proof_logging, grouped, define):
    """Build a random level-0 state, then add a few gates with ``define``.

    Variable 1 is pinned false like the encoder's constant; a random subset
    of the others is fixed by unit clauses, so fanins (and sometimes the
    output) arrive already true or false, and some gates arrive unit or
    conflicting.  Gates may also chain on earlier gates' outputs and name an
    output beyond the allocated variables.
    """
    rng = random.Random(seed)
    solver = CdclSolver(proof_logging=proof_logging)
    for _ in range(NUM_VARS):
        solver.new_var()
    solver.add_clause([-1])
    group = solver.new_group() if grouped else None
    for var in rng.sample(range(2, NUM_VARS + 1), rng.randint(0, 4)):
        solver.add_clause([var if rng.random() < 0.5 else -var],
                          partition=rng.choice([None, 1]))
    for _ in range(rng.randint(1, 4)):
        top = solver.num_vars + (2 if rng.random() < 0.2 else 0)
        out, left, right = rng.sample(range(1, top + 1), 3)
        if group is not None and group in (out, left, right):
            continue
        out, left, right = (lit if rng.random() < 0.5 else -lit
                            for lit in (out, left, right))
        define(solver, out, left, right, rng.choice([None, 1, 2]), group)
    before_solve = _snapshot(solver)
    assumptions = [group] if group is not None else []
    result = solver.solve(assumptions=assumptions)
    model = solver.model() if result is SatResult.SAT else None
    return before_solve, result, model, _snapshot(solver)


@pytest.mark.parametrize("proof_logging", [False, True])
@pytest.mark.parametrize("grouped", [False, True])
def test_define_and_matches_three_add_clause_calls(proof_logging, grouped):
    answers, refuted_on_arrival = set(), 0
    for seed in range(300):
        expected = _run(seed, proof_logging, grouped, _define_by_clauses)
        actual = _run(seed, proof_logging, grouped, _define_directly)
        assert actual == expected, f"seed {seed}"
        answers.add(expected[1])
        refuted_on_arrival += not expected[0]["ok"]
    # The random states reach both answers; without a group (whose -g
    # literal keeps every gate clause satisfiable at level 0) some gates
    # also arrive conflicting.
    assert answers == {SatResult.SAT, SatResult.UNSAT}
    assert refuted_on_arrival > 0 or grouped


def test_define_and_counts_three_clauses_with_consecutive_ids():
    solver = CdclSolver(proof_logging=True)
    a, b, out = solver.new_var(), solver.new_var(), solver.new_var()
    first = solver.add_clause([a, b])
    solver.define_and(out, a, -b, partition=3)
    assert solver.stats.clauses_added == 4
    nodes = solver._proof.nodes_in_order()[1:]
    assert [node.clause_id for node in nodes] == [first + 1, first + 2, first + 3]
    assert [node.clause.literals for node in nodes] == [
        (a, -out), (-b, -out), (-a, b, out)]
    assert {node.partition for node in nodes} == {3}


def test_define_and_rejects_decision_level_above_zero():
    solver = CdclSolver()
    a, b, out = solver.new_var(), solver.new_var(), solver.new_var()
    solver._new_decision_level()
    with pytest.raises(SolverError):
        solver.define_and(out, a, b)
    assert solver.stats.clauses_added == 0


@pytest.mark.parametrize("out, left, right", [
    (3, 1, 1), (3, 1, -1), (3, -2, 2), (1, 1, 2), (-2, 1, 2), (3, 0, 1)])
def test_define_and_rejects_shared_variables(out, left, right):
    solver = CdclSolver()
    for _ in range(3):
        solver.new_var()
    with pytest.raises(SolverError):
        solver.define_and(out, left, right)
    assert solver.stats.clauses_added == 0


def test_define_and_rejects_unknown_and_clashing_groups():
    solver = CdclSolver()
    a, b, out = solver.new_var(), solver.new_var(), solver.new_var()
    group = solver.new_group()
    with pytest.raises(SolverError):
        solver.define_and(out, a, b, group=group + 1)
    with pytest.raises(SolverError):
        solver.define_and(out, a, -group, group=group)
    solver.release_group(group)
    with pytest.raises(SolverError):
        solver.define_and(out, a, b, group=group)
