"""An independent oracle for the Tseitin clause stream.

The engines' trajectories (clause ids, watch order, proofs, interpolants)
depend on the exact order in which CNF variables are allocated and clauses
emitted.  ``_ReferenceEncoder`` is a deliberately naive restatement of that
order — recursive, one ``add_clause`` per clause, through the public AIG
queries only — and the encoder must reproduce its clause list and variable
map exactly on every quick-suite model, both into a ``Cnf`` container and
into a proof-logging solver.
"""

import pytest

from repro.aig.aig import lit_sign, lit_var
from repro.circuits.suite import quick_suite
from repro.cnf import Cnf, TseitinEncoder, encode_combinational
from repro.sat import CdclSolver


class _ReferenceEncoder:
    """Per-clause Tseitin encoding in the encoder's allocation order.

    A gate's undeclared leaf fanins get their variables first (left, then
    right), then its unencoded AND fanins are encoded (right, then left),
    then the gate's own variable is allocated and its three clauses emitted.
    The constant gets its variable and unit clause the first time a root
    mentions it.
    """

    def __init__(self, aig):
        self.aig = aig
        self.cnf = Cnf()
        self.var_map = {}
        self.const_var = None

    def literal(self, aig_lit):
        var = lit_var(aig_lit)
        if var == 0:
            if self.const_var is None:
                self.const_var = self.cnf.new_var()
                self.cnf.add_clause([-self.const_var])
            cnf_var = self.const_var
        else:
            cnf_var = self._encode(var)
        return -cnf_var if lit_sign(aig_lit) else cnf_var

    def _encode(self, var):
        if var in self.var_map:
            return self.var_map[var]
        if self.aig.node_kind(var) != "and":
            self.var_map[var] = self.cnf.new_var()
            return self.var_map[var]
        gate = self.aig.and_gate(var)
        fanins = [lit_var(gate.left), lit_var(gate.right)]
        for fanin in fanins:
            if fanin not in self.var_map and self.aig.node_kind(fanin) != "and":
                self.var_map[fanin] = self.cnf.new_var()
        for fanin in reversed(fanins):
            self._encode(fanin)
        out = self.cnf.new_var()
        self.var_map[var] = out
        left, right = self.literal(gate.left), self.literal(gate.right)
        self.cnf.add_clause([-out, left])
        self.cnf.add_clause([-out, right])
        self.cnf.add_clause([out, -left, -right])
        return out


def _roots(model):
    return [latch.next for latch in model.latches] + [model.bad_literal]


@pytest.mark.parametrize("instance", quick_suite(), ids=lambda inst: inst.name)
def test_encoder_reproduces_the_reference_clause_stream(instance):
    model = instance.build()
    roots = _roots(model)
    reference = _ReferenceEncoder(model.aig)
    expected_roots = [reference.literal(root) for root in roots]
    expected = [clause.literals for clause in reference.cnf.clauses]
    assert len(expected) >= 3

    cnf, root_lits, var_map = encode_combinational(model.aig, roots)
    assert [clause.literals for clause in cnf.clauses] == expected
    assert var_map == reference.var_map
    assert root_lits == expected_roots
    assert cnf.num_vars == reference.cnf.num_vars

    # The solver target receives the same stream: its proof records the
    # same clauses under consecutive ids, one clause_added per clause.
    solver = CdclSolver(proof_logging=True)
    encoder = TseitinEncoder(model.aig, solver)
    assert encoder.encode_roots(roots) == expected_roots
    assert encoder.var_map() == reference.var_map
    recorded = solver._proof.nodes_in_order()
    assert [node.clause.literals for node in recorded] == expected
    assert [node.clause_id for node in recorded] == list(range(len(expected)))
    assert solver.stats.clauses_added == len(expected)
    assert solver.num_vars == reference.cnf.num_vars
