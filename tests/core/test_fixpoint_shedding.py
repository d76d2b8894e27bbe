"""Group shedding on the persistent fixpoint checker.

``shed_superseded`` may release exactly the clause groups no live root's
fanin cone observes; a shed cone must re-encode transparently on the next
check that mentions it, with unchanged answers.  Leaves are never owned by
groups, so forgetting one is a contract violation the encoder rejects.
"""

import pytest

from repro.aig import Aig
from repro.aig.aig import lit_var
from repro.cnf import Cnf
from repro.cnf.tseitin import TseitinEncoder
from repro.core.fixpoint import FixpointChecker
from repro.sat.types import SatResult


def _two_disjoint_cones():
    aig = Aig()
    xs = [aig.add_input(f"x{i}") for i in range(6)]
    left = aig.op_and(xs[0], xs[1], xs[2])
    right = aig.op_and(xs[3], xs[4], xs[5])
    return aig, xs, left, right


def test_shed_releases_only_dead_cones_and_answers_survive():
    aig, xs, left, right = _two_disjoint_cones()
    checker = FixpointChecker(aig)
    assert checker.implies(left, xs[0]) is SatResult.UNSAT
    assert checker.implies(right, xs[3]) is SatResult.UNSAT

    # Both cones live: nothing may be shed.
    assert checker.shed_superseded([left, right]) == 0
    assert checker.groups_shed == 0

    # Only the right cone stays live: exactly the left group dies.
    assert checker.shed_superseded([right]) == 1
    assert checker.groups_shed == 1

    # The shed cone re-encodes on demand with identical answers.
    assert checker.implies(left, xs[0]) is SatResult.UNSAT
    assert checker.implies(xs[0], left) is SatResult.SAT
    assert checker.implies(right, xs[3]) is SatResult.UNSAT

    # The re-encoded group is shed again once it dies again.
    assert checker.shed_superseded([right]) == 1
    assert checker.groups_shed == 2


def test_shed_keeps_groups_with_shared_live_fanins():
    """A group survives if *any* gate it owns is in a live cone."""
    aig = Aig()
    xs = [aig.add_input(f"x{i}") for i in range(4)]
    base = aig.op_and(xs[0], xs[1])
    wide = aig.op_and(base, xs[2], xs[3])     # base is a fanin of wide
    checker = FixpointChecker(aig)
    assert checker.implies(wide, base) is SatResult.UNSAT
    # wide's group owns base's gate too; keeping base alive keeps the group.
    assert checker.shed_superseded([base]) == 0
    assert checker.implies(base, xs[0]) is SatResult.UNSAT


def test_shedding_everything_resets_to_reencode_from_scratch():
    aig, xs, left, right = _two_disjoint_cones()
    checker = FixpointChecker(aig)
    assert checker.implies(left, right) is SatResult.SAT
    shed = checker.shed_superseded([])
    assert shed >= 1 and checker.groups_shed == shed
    # The constant pin is permanent (outside every group), so a fresh
    # check involving the constant still works after a full shed.
    assert checker.implies(left, 1) is SatResult.UNSAT
    assert checker.implies(left, right) is SatResult.SAT


def test_encoder_refuses_to_forget_leaves():
    aig = Aig()
    a = aig.add_input()
    latch = aig.add_latch(init=0)
    aig.set_latch_next(latch, a)
    encoder = TseitinEncoder(aig, Cnf(), allocate_leaves=True)
    encoder.literal(a)
    for leaf in (lit_var(a), lit_var(latch), 0):
        with pytest.raises(ValueError):
            encoder.forget([leaf])
