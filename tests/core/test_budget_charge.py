"""``UmcEngine._charge``: the one place a finished SAT call is accounted.

Every SAT call an engine makes — persistent searchers and unrollers via
``_solve``, one-shot containment checks via ``implies(on_stats=...)`` and
the persistent fixpoint checker — folds its counters through ``_charge``,
which also enforces the deterministic clause/propagation budgets and turns
an ``UNKNOWN`` answer into an exhausted budget.
"""

import pytest

from repro.circuits import get_instance, token_ring
from repro.core import EngineOptions, ItpSeqEngine, OutOfBudget, Verdict
from repro.core.portfolio import ENGINES, run_engine
from repro.obs import ListSink, Tracer
from repro.sat.types import SatResult, SolverStats


def _engine(tracer=None, **overrides):
    options = EngineOptions(max_bound=10, time_limit=None,
                            max_clauses=None, max_propagations=None)
    return ItpSeqEngine(token_ring(4), options.with_changes(**overrides),
                        tracer=tracer)


def _call(clauses=0, conflicts=0, propagations=0):
    return SolverStats(clauses_added=clauses, conflicts=conflicts,
                       propagations=propagations)


def test_charge_folds_each_call_into_the_run_counters():
    engine = _engine()
    engine._charge(_call(clauses=7, conflicts=3, propagations=40),
                   SatResult.SAT)
    engine._charge(_call(clauses=2, conflicts=9, propagations=5),
                   SatResult.UNSAT)
    engine._charge(_call(conflicts=1))
    stats = engine.stats
    assert (stats.clauses_added, stats.conflicts, stats.propagations) == (
        9, 13, 45)
    assert stats.max_call_conflicts == 9


def test_charge_turns_unknown_into_an_exhausted_budget():
    engine = _engine()
    engine._current_bound = 6
    with pytest.raises(OutOfBudget) as info:
        engine._charge(_call(clauses=1), SatResult.UNKNOWN)
    assert info.value.bound == 6
    # The call is still counted before the budget trips.
    assert engine.stats.clauses_added == 1


def test_charge_clause_budget_trips_only_once_exceeded():
    engine = _engine(max_clauses=10)
    engine._charge(_call(clauses=10), SatResult.SAT)  # at the limit: fine
    with pytest.raises(OutOfBudget):
        engine._charge(_call(clauses=1), SatResult.SAT)
    assert engine.stats.clauses_added == 11


def test_charge_propagation_budget_trips_only_once_exceeded():
    engine = _engine(max_propagations=100)
    engine._charge(_call(propagations=100), SatResult.UNSAT)
    with pytest.raises(OutOfBudget):
        engine._charge(_call(propagations=1), SatResult.UNSAT)
    assert engine.stats.propagations == 101


def test_charge_emits_a_sat_call_point_only_when_traced():
    untraced = _engine()
    untraced._charge(_call(clauses=4, conflicts=2, propagations=8))

    sink = ListSink()
    traced = _engine(tracer=Tracer(sink, wall_clock=False))
    traced._charge(_call(clauses=4, conflicts=2, propagations=8))
    points = [event for event in sink.events if event.name == "sat_call"]
    assert len(points) == 1
    assert points[0].attrs == {"conflicts": 2, "propagations": 8,
                               "clauses_added": 4}
    # Tracing observes the call; it does not change its accounting.
    assert traced.stats.as_dict() == untraced.stats.as_dict()


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_clause_budget_overflows_every_engine(name):
    model = get_instance("ring04").build
    options = EngineOptions(max_bound=20, time_limit=None,
                            max_propagations=None)
    solo = run_engine(name, model(), options=options)
    assert solo.verdict is Verdict.PASS
    budget = solo.stats.clauses_added // 2
    result = run_engine(name, model(),
                        options=options.with_changes(max_clauses=budget))
    assert result.verdict is Verdict.OVERFLOW
    # The budget trips on the first call that crosses it, never earlier.
    assert result.stats.clauses_added > budget


@pytest.mark.parametrize("incremental", [True, False],
                         ids=["fixpoint_checker", "one_shot"])
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_every_solver_call_is_charged_exactly_once(name, incremental):
    # Each charge emits one sat_call point, so the points must add up to
    # the run's counters: nothing folded twice, nothing missed — whether
    # containment runs on the persistent checker or on throwaway solvers.
    sink = ListSink()
    options = EngineOptions(max_bound=20, time_limit=None,
                            fixpoint_incremental=incremental)
    result = run_engine(name, get_instance("ring04").build(), options,
                        tracer=Tracer(sink, wall_clock=False))
    assert result.verdict is Verdict.PASS
    points = [event.attrs for event in sink.events
              if event.name == "sat_call"]
    assert points
    for counter in ("clauses_added", "conflicts", "propagations"):
        assert sum(point[counter] for point in points) == getattr(
            result.stats, counter), counter
    # A one-shot check the CNF simplifier decides runs no solver at all.
    assert len(points) <= result.stats.sat_calls
    if incremental:
        assert len(points) == result.stats.sat_calls
    elif result.stats.containment_checks:
        searches = result.stats.sat_calls - result.stats.containment_checks
        assert len(points) > searches  # throwaway solvers are charged too
