"""A hostile peer cannot poison a verdict — even past the validator.

The import validator normally refutes dishonest lemmas by simulation
(:mod:`tests.share.test_adapt`); here we disable it outright, simulating
a validation miss, and check the *second* line of defence: conservative
imports only ever touch the proof-free searcher, so the proof-logged
check finds the genuine counterexample anyway and
``_share_check_disagreement`` retracts every import wholesale.
"""

import pytest

from repro.circuits import get_instance
from repro.core import EngineOptions
from repro.core.portfolio import ENGINES, run_engine
from repro.share.bus import LocalShareBus
from repro.share.lemma import DepthLemma, FrameLemma


def _options(**overrides):
    base = EngineOptions(max_bound=25, time_limit=None,
                         max_clauses=2_000_000,
                         max_propagations=50_000_000)
    return base.with_changes(**overrides) if overrides else base


def _poisoned_engine(name, model, options):
    """An engine whose bus holds malicious lemmas and whose validator is off."""
    bus = LocalShareBus()
    engine = ENGINES[name](model, options=options, share=bus.port(name))
    # Simulate a validation miss: every delivery is taken at face value.
    engine._share_validator = None
    attacker = bus.port("evil")
    # The model fails at depth 5; "no counterexample up to 10" is a lie.
    attacker.publish(DepthLemma(depth=10))
    # A bogus frame clause for good measure (arbitrary unreachability claim).
    latch = model.latch_vars[0]
    attacker.publish(FrameLemma(cube=((latch, True),), level=8))
    return engine


#: Engines whose counterexample searcher takes foreign lemmas; PDR and CBA
#: import nothing under the conservative contract.
_IMPORTERS = {"itp", "itpseq", "sitpseq"}


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_malicious_lemmas_leave_every_engine_at_its_solo_answer(name):
    instance = get_instance("red_dead08bug")
    solo = run_engine(name, instance.build(), options=_options())
    assert solo.verdict.value == "fail"

    engine = _poisoned_engine(name, instance.build(), _options())
    result = engine.run()
    # The lie may silence a searcher at bounds <= 10, but the proof-logged
    # check (which never saw it) produces the genuine counterexample at
    # the solo depth.
    assert (result.verdict.value, result.k_fp) == (solo.verdict.value,
                                                   solo.k_fp)
    if name in _IMPORTERS:
        assert result.stats.lemmas_rx >= 2  # both lies were accepted...
        assert result.stats.lemmas_retracted >= 2  # ...and retracted
        assert engine._share_distrust
    else:
        assert result.stats.lemmas_rx == 0


def test_malicious_lemmas_rejected_with_validator_on():
    # Belt and braces: with the validator attached (the default), the same
    # lies never make it in at all, and the run matches solo exactly.
    instance = get_instance("red_dead08bug")
    model = instance.build()
    bus = LocalShareBus()
    engine = ENGINES["itpseq"](model, options=_options(),
                               share=bus.port("itpseq"))
    attacker = bus.port("evil")
    attacker.publish(DepthLemma(depth=10))
    attacker.publish(FrameLemma(cube=((model.latch_vars[0], True),), level=8))
    result = engine.run()
    assert (result.verdict.value, result.k_fp) == ("fail", 5)
    assert result.stats.lemmas_rx == 0
    assert result.stats.lemmas_retracted >= 1  # counted as rejects
