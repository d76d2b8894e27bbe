"""Unit tests for the AIG data structure and literal helpers."""

import pytest

from repro.aig import (
    FALSE,
    TRUE,
    Aig,
    lit_from_var,
    lit_is_const,
    lit_negate,
    lit_sign,
    lit_var,
)


def test_literal_helpers():
    assert lit_from_var(3) == 6
    assert lit_from_var(3, sign=True) == 7
    assert lit_var(7) == 3
    assert lit_sign(7) is True
    assert lit_sign(6) is False
    assert lit_negate(6) == 7
    assert lit_negate(7) == 6
    assert lit_is_const(FALSE) and lit_is_const(TRUE)
    assert not lit_is_const(2)


def test_literal_helpers_reject_negative_var():
    with pytest.raises(ValueError):
        lit_from_var(-1)


def test_inputs_and_latches_creation():
    aig = Aig("t")
    a = aig.add_input("a")
    b = aig.add_input("b")
    latch = aig.add_latch(init=1, name="q")
    assert aig.num_inputs == 2
    assert aig.num_latches == 1
    assert lit_var(a) != lit_var(b)
    assert aig.latch(lit_var(latch)).init == 1
    assert aig.node_kind(lit_var(a)) == "input"
    assert aig.node_kind(lit_var(latch)) == "latch"


def test_and_gate_simplifications():
    aig = Aig()
    a = aig.add_input()
    b = aig.add_input()
    assert aig.add_and(a, FALSE) == FALSE
    assert aig.add_and(FALSE, a) == FALSE
    assert aig.add_and(a, TRUE) == a
    assert aig.add_and(TRUE, b) == b
    assert aig.add_and(a, a) == a
    assert aig.add_and(a, lit_negate(a)) == FALSE


def test_structural_hashing_reuses_gates():
    aig = Aig()
    a = aig.add_input()
    b = aig.add_input()
    g1 = aig.add_and(a, b)
    g2 = aig.add_and(b, a)
    assert g1 == g2
    assert aig.num_ands == 1


def test_or_xor_ite_construction():
    aig = Aig()
    a = aig.add_input()
    b = aig.add_input()
    c = aig.add_input()
    assert aig.op_or() == FALSE
    assert aig.op_and() == TRUE
    assert aig.op_or(a) == a
    xor = aig.op_xor(a, b)
    assert lit_var(xor) != 0
    ite = aig.op_ite(c, a, b)
    assert lit_var(ite) != 0
    assert aig.op_implies(a, a) == TRUE or aig.op_implies(a, a) != FALSE


def test_latch_next_assignment_and_errors():
    aig = Aig()
    latch = aig.add_latch(init=0)
    a = aig.add_input()
    aig.set_latch_next(latch, a)
    assert aig.latch(lit_var(latch)).next == a
    with pytest.raises(KeyError):
        aig.set_latch_next(a, latch)
    with pytest.raises(ValueError):
        aig.set_latch_next(lit_negate(latch), a)
    with pytest.raises(ValueError):
        aig.add_latch(init=2)


def test_bad_outputs_and_constraints():
    aig = Aig()
    a = aig.add_input()
    idx = aig.add_bad(a, "prop")
    aig.add_output(lit_negate(a), "out")
    aig.add_constraint(a)
    assert aig.bad == [a]
    assert aig.bad_name(idx) == "prop"
    assert aig.outputs == [lit_negate(a)]
    assert aig.constraints == [a]


def test_fanin_cone_and_support():
    aig = Aig()
    a = aig.add_input()
    b = aig.add_input()
    latch = aig.add_latch(init=0)
    g1 = aig.add_and(a, b)
    g2 = aig.add_and(g1, latch)
    cone = aig.fanin_cone([g2])
    assert lit_var(g1) in cone
    assert lit_var(g2) in cone
    ins, lats = aig.support([g2])
    assert set(ins) == {lit_var(a), lit_var(b)}
    assert set(lats) == {lit_var(latch)}
    # Cone of a literal not depending on the latch.
    ins2, lats2 = aig.support([g1])
    assert lats2 == []


def test_copy_is_independent():
    aig = Aig("orig")
    a = aig.add_input()
    copy = aig.copy()
    extra = lit_var(copy.add_input())
    assert aig.num_inputs == 1
    assert copy.num_inputs == 2
    assert copy.is_input(lit_var(a)) and copy.is_input(extra)
    assert not aig.is_input(extra)
    assert copy.name == "orig"


def test_stats_counts():
    aig = Aig()
    a = aig.add_input()
    b = aig.add_input()
    aig.add_and(a, b)
    aig.add_bad(a)
    stats = aig.stats()
    assert stats["inputs"] == 2
    assert stats["ands"] == 1
    assert stats["bad"] == 1


def test_check_lit_rejects_unknown_variable():
    aig = Aig()
    a = aig.add_input()
    with pytest.raises(ValueError):
        aig.add_and(a, 999)
