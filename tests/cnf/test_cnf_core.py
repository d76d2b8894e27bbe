"""Unit tests for clause/CNF containers and DIMACS I/O."""

import io
import random

import pytest

from repro.cnf import (
    Clause,
    Cnf,
    DimacsError,
    dumps_dimacs,
    loads_dimacs,
    neg,
    var_of,
)


def test_literal_helpers():
    assert neg(3) == -3
    assert neg(-7) == 7
    assert var_of(-9) == 9
    assert var_of(4) == 4


def test_clause_normalisation_and_membership():
    clause = Clause([3, -1, 3, 2])
    assert len(clause) == 3
    assert -1 in clause
    assert 3 in clause
    assert 1 not in clause
    assert clause.variables() == {1, 2, 3}
    assert not clause.is_tautology


def test_clause_tautology_detection():
    assert Clause([1, -1, 2]).is_tautology
    assert not Clause([1, 2]).is_tautology


def test_clause_literal_order_is_by_variable_then_sign():
    rng = random.Random(7)
    tautologies = 0
    for _ in range(2000):
        lits = [rng.choice([1, -1]) * rng.randint(1, 6)
                for _ in range(rng.randint(0, 8))]
        clause = Clause(lits)
        assert clause.literals == tuple(
            sorted(set(lits), key=lambda x: (abs(x), x < 0)))
        assert clause.is_tautology == (len({abs(x) for x in lits})
                                       != len(set(lits)))
        tautologies += clause.is_tautology
    assert tautologies > 0


def test_clause_equality_and_hash():
    assert Clause([2, 1]) == Clause([1, 2, 2])
    assert hash(Clause([2, 1])) == hash(Clause([1, 2]))
    assert Clause([1]) != Clause([-1])


def test_clause_rejects_zero_literal():
    with pytest.raises(ValueError):
        Clause([1, 0])


def test_clause_resolution():
    c1 = Clause([1, 2])
    c2 = Clause([-1, 3])
    resolvent = c1.resolve(c2, 1)
    assert set(resolvent.literals) == {2, 3}
    # Order of operands must not matter.
    assert set(c2.resolve(c1, 1).literals) == {2, 3}


def test_clause_resolution_requires_opposite_signs():
    with pytest.raises(ValueError):
        Clause([1, 2]).resolve(Clause([1, 3]), 1)
    with pytest.raises(ValueError):
        Clause([1, 2]).resolve(Clause([-3]), 3)


def test_clause_satisfaction():
    clause = Clause([1, -2])
    assert clause.is_satisfied_by({1: True, 2: True})
    assert clause.is_satisfied_by({1: False, 2: False})
    assert not clause.is_satisfied_by({1: False, 2: True})


def test_cnf_construction_and_variables():
    cnf = Cnf([[1, -2], [2, 3]])
    assert len(cnf) == 2
    assert cnf.num_vars == 3
    assert cnf.variables() == {1, 2, 3}
    cnf.add_clause([5])
    assert cnf.num_vars == 5


def test_cnf_new_var_and_copy():
    cnf = Cnf(num_vars=2)
    assert cnf.new_var() == 3
    copy = cnf.copy()
    copy.add_clause([1, 2])
    assert len(cnf) == 0
    assert len(copy) == 1


def test_cnf_satisfaction():
    cnf = Cnf([[1, 2], [-1, 2]])
    assert cnf.is_satisfied_by({1: True, 2: True})
    assert not cnf.is_satisfied_by({1: True, 2: False})


def test_dimacs_roundtrip():
    cnf = Cnf([[1, -2], [2, 3, -4], [-1]])
    text = dumps_dimacs(cnf, comment="roundtrip test")
    parsed = loads_dimacs(text)
    assert [c.literals for c in parsed.clauses] == [c.literals for c in cnf.clauses]
    assert parsed.num_vars >= 4
    assert text.startswith("c roundtrip test")


def test_dimacs_parse_with_multiline_clauses_and_comments():
    text = """c a comment
p cnf 3 2
1 -2
0
2 3 0
"""
    cnf = loads_dimacs(text)
    assert len(cnf) == 2
    assert cnf.clauses[0] == Clause([1, -2])


def test_dimacs_bad_problem_line():
    with pytest.raises(DimacsError):
        loads_dimacs("p qbf 3 2\n1 0\n")


def test_dimacs_write_to_file(tmp_path):
    from repro.cnf import read_dimacs, write_dimacs

    cnf = Cnf([[1, 2], [-2]])
    path = str(tmp_path / "test.cnf")
    write_dimacs(cnf, path)
    parsed = read_dimacs(path)
    assert len(parsed) == 2
