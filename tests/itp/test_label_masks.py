"""Mask-based variable classification against a set-based reference.

``classify_variables`` reads each variable's class off the proof's cached
label masks (:meth:`repro.sat.proof.ResolutionProof.label_masks`).  The
reference below is the direct reading of the definition instead: collect
the variables of the A-side and of the B-side original clauses, then
intersect.  The two must agree on every variable, for every A set —
prefixes, suffixes, non-contiguous sets, the empty set, every label — and
on every kind of refutation the engines extract from: raw solver traces,
activation-stripped incremental traces and reduced proofs.
"""

import itertools
import random

import pytest

from repro.bmc.checks import BmcCheckKind, build_check
from repro.bmc.incremental import IncrementalUnroller
from repro.circuits import quick_suite
from repro.itp import VarClass, classify_variables
from repro.sat import CdclSolver, SatResult
from repro.sat.proof import reduce_proof


def _reference_classes(proof, a_partitions):
    """Classify by scanning every original clause into two variable sets."""
    a_set = set(a_partitions)
    in_a, in_b = set(), set()
    for node in proof.original_nodes():
        in_a_side = node.partition is not None and node.partition in a_set
        (in_a if in_a_side else in_b).update(node.clause.variables())
    classes = {}
    for var in in_a | in_b:
        if var in in_a and var in in_b:
            classes[var] = VarClass.GLOBAL
        elif var in in_a:
            classes[var] = VarClass.A_LOCAL
        else:
            classes[var] = VarClass.B_LOCAL
    return classes


def _assert_matches_reference(proof, a_partitions):
    expected = _reference_classes(proof, a_partitions)
    classes = classify_variables(proof, a_partitions)
    assert len(classes) == len(expected)
    for var, var_class in expected.items():
        assert classes.var_class(var) is var_class, (var, a_partitions)
        assert classes.is_global(var) == (var_class is VarClass.GLOBAL)
    assert classes.globals() == {v for v, c in expected.items()
                                 if c is VarClass.GLOBAL}
    unknown = max(expected, default=0) + 1
    assert classes.var_class(unknown) is VarClass.B_LOCAL
    assert not classes.is_global(unknown)


def _a_sets(labels):
    """Prefixes, suffixes, non-contiguous sets, empty and every label."""
    ordered = sorted(labels)
    sets = [set(), set(ordered), set(ordered) | {None}]
    sets += [set(ordered[:i]) for i in range(1, len(ordered))]
    sets += [set(ordered[i:]) for i in range(1, len(ordered))]
    sets += [set(ordered[0::2]), set(ordered[1::2]),
             {ordered[0], ordered[-1]}, {ordered[0], 10 ** 6}]
    return sets


def _random_unsat_proofs(count, seed):
    rng = random.Random(seed)
    labels = (None, 1, 2, 3, 4)
    proofs = []
    while len(proofs) < count:
        solver = CdclSolver(proof_logging=True)
        for _ in range(10):
            solver.new_var()
        for _ in range(70):
            lits = rng.sample(range(1, 11), 3)
            solver.add_clause([l if rng.random() < 0.5 else -l for l in lits],
                              partition=rng.choice(labels))
        if solver.solve() is SatResult.UNSAT:
            proofs.append(solver.proof())
    return proofs


@pytest.mark.parametrize("seed", [3, 17])
def test_random_labelled_refutations_match_reference(seed):
    for proof in _random_unsat_proofs(6, seed):
        reduced, _ = reduce_proof(proof)
        assert None in {n.partition for n in proof.original_nodes()}
        for label_set in itertools.chain(
                _a_sets({1, 2, 3, 4}),
                (set(s) for r in range(5)
                 for s in itertools.combinations((1, 2, 3, 4), r))):
            _assert_matches_reference(proof, label_set)
            _assert_matches_reference(reduced, label_set)


_BMC_INSTANCES = [inst for inst in quick_suite()
                  if inst.name in ("ring04", "arb03", "traffic1", "modcnt06")]


@pytest.mark.parametrize("instance", _BMC_INSTANCES, ids=lambda i: i.name)
def test_bmc_refutations_match_reference(instance):
    model = instance.build()
    k = 3
    fresh = build_check(BmcCheckKind.ASSUME, model, k, proof_logging=True)
    assert fresh.solver.solve() is SatResult.UNSAT
    raw = fresh.solver.proof()

    searcher = IncrementalUnroller(instance.build(),
                                   check_kind=BmcCheckKind.ASSUME,
                                   proof_logging=True)
    searcher.extend_to(k)
    assert searcher.solve() is SatResult.UNSAT
    grouped = searcher.solver.proof()
    stripped, _ = searcher.refutation()

    proofs = [raw, reduce_proof(raw)[0], grouped, stripped,
              reduce_proof(stripped)[0]]
    for proof in proofs:
        labels = proof.partitions()
        assert labels == set(range(1, k + 2))
        for a_set in _a_sets(labels):
            _assert_matches_reference(proof, a_set)
