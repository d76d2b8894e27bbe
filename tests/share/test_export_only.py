"""PDR and the CBA engine only export lemmas; honest ones change nothing.

Under the conservative sharing contract a foreign clause in PDR's frames
would change which proof obligations arise, and CBA's abstraction loop
has no proof-free searcher to feed, so both engines refuse every delivery
— even a true one — and must run exactly as they would alone.
"""

import pytest

from repro.circuits import get_instance
from repro.core import EngineOptions
from repro.core.portfolio import ENGINES, run_engine
from repro.share.bus import LocalShareBus
from repro.share.lemma import MAX_FRAME_CUBE_LITS, DepthLemma, FrameLemma


def _options():
    return EngineOptions(max_bound=20, time_limit=None,
                         max_clauses=2_000_000, max_propagations=50_000_000)


@pytest.mark.parametrize("name", ["itpseqcba", "pdr"])
def test_export_only_engines_ignore_honest_lemmas(name):
    instance = get_instance("ring04")
    solo = run_engine(name, instance.build(), options=_options())
    assert solo.verdict.value == instance.expected == "pass"

    model = instance.build()
    bus = LocalShareBus()
    engine = ENGINES[name](model, options=_options(), share=bus.port(name))
    peer = bus.port("peer")
    latches = model.latch_vars
    # Both true on the token ring: it never fails, and two tokens are
    # never held at once.
    peer.publish(DepthLemma(depth=15))
    peer.publish(FrameLemma(cube=((latches[1], True), (latches[2], True)),
                            level=2))
    result = engine.run()

    assert result.stats.lemmas_rx == 0
    assert (result.verdict, result.k_fp, result.j_fp) == (
        solo.verdict, solo.k_fp, solo.j_fp)
    for counter in ("sat_calls", "clauses_added", "conflicts",
                    "propagations"):
        assert getattr(result.stats, counter) == getattr(
            solo.stats, counter), counter


def test_pdr_still_publishes_its_blocked_cubes():
    model = get_instance("ring04").build()
    bus = LocalShareBus()
    engine = ENGINES["pdr"](model, options=_options(), share=bus.port("pdr"))
    listener = bus.port("listener")
    result = engine.run()
    assert result.verdict.value == "pass"
    assert result.stats.lemmas_tx > 0
    received = [shared.lemma for shared in listener.inbox]
    assert len(received) == result.stats.lemmas_tx
    frames = [lemma for lemma in received if isinstance(lemma, FrameLemma)]
    assert frames
    assert all(isinstance(lemma, (FrameLemma, DepthLemma))
               for lemma in received)
    for lemma in frames:
        # Small, canonical (sorted) cubes over the model's latches only.
        assert len(lemma.cube) <= MAX_FRAME_CUBE_LITS
        assert list(lemma.cube) == sorted(lemma.cube)
        assert {var for var, _ in lemma.cube} <= set(model.latch_vars)
