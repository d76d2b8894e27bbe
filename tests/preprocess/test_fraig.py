"""SAT sweeping (fraiging): merges, soundness, determinism, engine identity.

The heart of the contract: fraiging may only replace nodes by SAT-proven
equivalent literals, so every engine must return the *same verdict* (and
replayable counterexample) with the pass on and off — only the encoding
effort may change.  On the instances where fraiging finds nothing, the
runs must be indistinguishable (k_fp/j_fp included).
"""

import pytest

from repro.aig import Aig, Model
from repro.aig.aig import FALSE, lit_from_var, lit_negate, lit_var
from repro.aig.simulate import simulate_comb
from repro.bmc import BmcEngine
from repro.circuits import get_instance, quick_suite, redundant_suite
from repro.core import ENGINES, EngineOptions, run_engine
from repro.fuzz import generate
from repro.preprocess import (DEFAULT_PASSES, FraigConfig, FraigPass,
                              build_pipeline, find_equivalences)

#: The default pipeline with only the fraig stage removed.
_NO_FRAIG = tuple(name for name in DEFAULT_PASSES if name != "fraig")

#: The default passes that run before fraig.
_PRE_FRAIG = DEFAULT_PASSES[:DEFAULT_PASSES.index("fraig")]

#: Largest leaf count the exhaustive merge oracle enumerates (2**12 lanes).
_ORACLE_LEAVES = 12

_INSTANCES = quick_suite() + redundant_suite()


# --------------------------------------------------------------------- #
# The equivalence search itself
# --------------------------------------------------------------------- #
def test_fraig_merges_duplicated_matchers():
    model = get_instance("red_dup10").build()
    found = find_equivalences(model)
    assert found.merges and found.sat_confirms == len(found.merges)
    result = FraigPass().apply(model)
    assert result.stats.extra["fraig_merges"] == len(found.merges)
    assert result.stats.extra["fraig_sat_confirms"] == found.sat_confirms
    assert result.stats.extra["fraig_classes"] == found.classes
    # The three structurally different matcher copies collapse.
    assert result.model.aig.num_ands <= model.aig.num_ands - 12


def test_fraig_proves_constant_nodes():
    aig = Aig()
    a, b = aig.add_input(), aig.add_input()
    x = aig.add_and(a, b)
    y = aig.add_and(a, lit_negate(b))
    contradiction = aig.add_and(x, y)          # a & b & !b == FALSE
    latch = aig.add_latch(init=0)
    aig.set_latch_next(latch, aig.op_or(contradiction, a))
    aig.add_bad(contradiction)
    model = Model(aig, property_index=0)
    found = find_equivalences(model)
    assert found.merges.get(lit_var(contradiction)) == FALSE
    rebuilt = FraigPass().apply(model)
    assert rebuilt.model.bad_literal == FALSE


def test_fraig_merges_complemented_pairs():
    aig = Aig()
    a, b = aig.add_input(), aig.add_input()
    xor = aig.op_xor(a, b)
    # Structurally distinct XNOR: (a & b) | (!a & !b) == !(a ^ b).
    xnor = aig.op_or(aig.add_and(a, b),
                     aig.add_and(lit_negate(a), lit_negate(b)))
    latch = aig.add_latch(init=0)
    aig.set_latch_next(latch, aig.add_and(xor, xnor))  # never leaves 0
    aig.add_bad(aig.add_and(xor, xnor))
    model = Model(aig, property_index=0)
    found = find_equivalences(model)
    # One side of the complementary pair redirects to the other's negation
    # (or both cones collapse through a constant proof) — either way the
    # rebuilt property cone is the constant FALSE.
    assert found.merges
    rebuilt = FraigPass().apply(model)
    assert rebuilt.model.bad_literal == FALSE


def test_fraig_is_deterministic():
    model = get_instance("red_dup10").build()
    first = find_equivalences(model)
    second = find_equivalences(get_instance("red_dup10").build())
    assert first.merges == second.merges
    assert (first.classes, first.sat_confirms, first.sat_refutes,
            first.rounds) == (second.classes, second.sat_confirms,
                              second.sat_refutes, second.rounds)


def _pre_fraig_model(name):
    return build_pipeline(_PRE_FRAIG).run(get_instance(name).build()).model


@pytest.mark.parametrize("name, ceiling", [("indA1_ring12", 25),
                                           ("indA2_ring16", 100)])
def test_fraig_miter_refutations_stay_under_ceiling(name, ceiling):
    # Each counterexample is simulated with its distance-1 neighbours as
    # soon as it is found, so one refutation splits many class members at
    # once; the ceilings leave headroom over the measured 18 and 76.
    model = _pre_fraig_model(name)
    found = find_equivalences(model)
    assert not found.merges
    assert found.sat_refutes <= ceiling, found.sat_refutes
    extra = FraigPass().apply(model).stats.extra
    assert extra["fraig_sat_refutes"] == found.sat_refutes
    assert extra["fraig_rounds"] == found.rounds


def test_fraig_merges_on_pipelined_dup10_are_pinned():
    found = find_equivalences(_pre_fraig_model("red_dup10"))
    assert found.merges == {23: 42, 32: 42, 33: 43, 34: 43}
    assert found.sat_confirms == 4


def _oracle_merges(model):
    """The unique merge set, from exhaustive truth tables over the leaves.

    Every cone gate redirects to the earliest node of the fraig order
    (constant, leaves and cone gates by variable index) whose table equals
    its own or its complement, in the matching phase.
    """
    aig = model.aig
    roots = ([latch.next for latch in aig.latches]
             + [aig.bad[model.property_index]] + list(aig.constraints))
    gates = {v for v in aig.fanin_cone(roots) if aig.is_and(v)}
    inputs = sorted(aig.input_vars())
    latch_vars = sorted(latch.var for latch in aig.latches)
    leaves = inputs + latch_vars
    width = 1 << len(leaves)
    mask = (1 << width) - 1
    words = {var: sum(1 << row for row in range(width) if row >> bit & 1)
             for bit, var in enumerate(leaves)}
    tables = simulate_comb(aig, {var: words[var] for var in inputs},
                           {var: words[var] for var in latch_vars}, width)
    earliest = {}
    expected = {}
    for var in [0] + sorted(set(leaves) | gates):
        table = tables[var]
        if table in earliest:
            expected[var] = lit_from_var(earliest[table])
        elif ~table & mask in earliest:
            expected[var] = lit_negate(lit_from_var(earliest[~table & mask]))
        else:
            earliest[table] = var
    return {var: lit for var, lit in expected.items() if var in gates}


def _oracle_models():
    for instance in _INSTANCES:
        yield instance.name, instance.build()
    for seed in range(1, 51):
        yield f"fuzz_s{seed}", generate(seed)[0]


def test_fraig_merges_match_exhaustive_oracle():
    checked = 0
    for name, model in _oracle_models():
        pipelined = build_pipeline(_PRE_FRAIG).run(model).model
        for candidate in (model, pipelined):
            aig = candidate.aig
            if aig.num_inputs + aig.num_latches > _ORACLE_LEAVES:
                continue
            assert (find_equivalences(candidate).merges
                    == _oracle_merges(candidate)), name
            checked += 1
    # 30 raw models fit the limit (14 suite rows, 16 fuzz seeds) and 68
    # pipelined ones; 67 of the 98 have merges.
    assert checked >= 90, checked


def test_fraig_identity_when_nothing_merges():
    model = get_instance("ring04").build()
    result = FraigPass().apply(model)
    assert result.model is model            # identity pass, no rebuild
    assert result.stats.extra["fraig_merges"] == 0


def test_fraig_conflict_budget_abandons_soundly():
    model = get_instance("red_dup10").build()
    # A one-conflict budget abandons the hard miters instead of merging.
    found = find_equivalences(model, FraigConfig(conflict_limit=1))
    full = find_equivalences(get_instance("red_dup10").build())
    assert set(found.merges) <= set(full.merges)


# --------------------------------------------------------------------- #
# Engine identity: fraig on vs. off
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_engine_verdicts_identical_with_and_without_fraig(engine_name):
    for instance in _INSTANCES:
        bound = max(20, (instance.expected_depth or 0) + 5)
        on = run_engine(engine_name, instance.build(),
                        EngineOptions(max_bound=bound))
        off = run_engine(engine_name, instance.build(),
                         EngineOptions(max_bound=bound,
                                       preprocess_passes=_NO_FRAIG))
        assert on.verdict.value == instance.expected, (instance.name,
                                                       on.message)
        assert on.verdict == off.verdict, instance.name
        if instance.expected == "fail":
            assert on.k_fp == off.k_fp == instance.expected_depth
            # The reported trace is already lifted: it must replay on the
            # raw, unpreprocessed model.
            assert on.trace is not None
            assert on.trace.check(instance.build()), instance.name
        if on.stats.fraig_merges == 0:
            # Fraig found nothing: the runs must be indistinguishable.
            assert (on.k_fp, on.j_fp) == (off.k_fp, off.j_fp), instance.name


def test_bmc_depths_identical_with_and_without_fraig():
    for instance in redundant_suite():
        on = BmcEngine(instance.build()).run(max_depth=12)
        off = BmcEngine(instance.build(),
                        preprocess_passes=("coi", "sweep", "coi",
                                           "rewrite")).run(max_depth=12)
        assert on.status == off.status, instance.name
        assert on.depth == off.depth, instance.name
        if on.status == "fail":
            assert on.trace is not None
            assert on.trace.check(instance.build()), instance.name


def test_fraig_counters_surface_in_engine_stats():
    result = run_engine("itpseq", get_instance("red_dup10").build(),
                        EngineOptions(max_bound=20))
    assert result.verdict.value == "pass"
    # Fewer than the standalone pass finds: rewriting already normalised
    # part of the duplication before fraig ran.
    assert result.stats.fraig_merges >= 4
    assert result.stats.fraig_sat_confirms >= result.stats.fraig_merges
    assert result.stats.fraig_classes > 0
    assert result.stats.fraig_rounds > 0
    assert result.stats.fixpoint_groups_shed > 0


def test_fraig_reduces_itpseq_clause_additions_on_dup10():
    """Fraig still cuts clause additions substantially on the dup family.

    The original acceptance claim was >= 40%, measured when every bound
    paid a monolithic proof-logged re-encode — the very clauses fraig's
    node merges shrink.  Group-aware proof logging deleted that re-solve
    (EngineOptions.group_proof), so a large share of fraig's former
    savings no longer exists to be saved; the reduction on the remaining
    encoding work is ~34%.
    """
    on = run_engine("itpseq", get_instance("red_dup10").build(),
                    EngineOptions(max_bound=20))
    off = run_engine("itpseq", get_instance("red_dup10").build(),
                     EngineOptions(max_bound=20, preprocess_passes=_NO_FRAIG))
    assert on.stats.clauses_added <= 0.75 * off.stats.clauses_added, (
        on.stats.clauses_added, off.stats.clauses_added)


def test_pipeline_reports_fraig_pass_counters():
    pre = build_pipeline().run(get_instance("red_dup10").build())
    assert pre.fraig_merges > 0
    assert pre.fraig_sat_confirms == pre.fraig_merges
    fraig_stats = next(s for s in pre.passes if s.name == "fraig")
    assert fraig_stats.extra["fraig_merges"] == pre.fraig_merges
    assert fraig_stats.extra["fraig_sat_refutes"] == pre.fraig_sat_refutes
    assert fraig_stats.extra["fraig_rounds"] == pre.fraig_rounds > 0
