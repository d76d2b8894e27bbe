#!/usr/bin/env python3
"""A cooperative race: six engines share lemmas instead of racing blind.

Run with:  python examples/cooperative_race.py

A blind race recomputes everything N times: every refuted depth and
every frame clause is private to its worker.  The cooperative race
publishes two kinds of typed facts over the share bus
(``repro.share.lemma``) — "no counterexample up to depth d" and
level-tagged PDR frame clauses — and every engine's proof-free
counterexample search imports them at its next bound boundary, so no
engine's answer changes.

This walkthrough uses the deterministic in-process runner
(``repro.share.cooperative_race``): same engines and the same turnstile
schedule with sharing on and off, so the clause-count delta you see is
the effect of the lemmas themselves, not scheduling luck.  It then
replays the recorded share log through a single engine, reproducing the
cooperative run's imports exactly — the determinism contract behind
``python -m repro ... --share-replay FILE``.
"""

import tempfile
from pathlib import Path

from repro.circuits import get_instance
from repro.core import EngineOptions
from repro.share import cooperative_race
from repro.share.log import read_share_log

# A counterexample instance: sharing shines on FAIL cells, where the UMC
# engines' refuted-depth facts let BMC skip straight to the failure depth.
INSTANCE = "mutexbug"


def main() -> None:
    instance = get_instance(INSTANCE)
    model = instance.build()
    options = EngineOptions(max_bound=30, time_limit=None)

    print(f"model: {model.name} ({model.num_latches} latches), "
          f"expected verdict: {instance.expected}")

    # -- Blind baseline: identical schedule, zero lemma traffic. ------------
    blind = cooperative_race(instance.build(), options=options, share=False)
    print(f"\nblind race:       {blind.result.verdict.value} via "
          f"{blind.winner}, {blind.clauses_total} clauses added in total")

    # -- Cooperative: same turnstile, lemmas delivered, log recorded. -------
    log_path = Path(tempfile.mkdtemp()) / "share.jsonl"
    coop = cooperative_race(instance.build(), options=options,
                            share=True, log_path=str(log_path))
    gain = 100.0 * (blind.clauses_total - coop.clauses_total) \
        / blind.clauses_total
    print(f"cooperative race: {coop.result.verdict.value} via "
          f"{coop.winner}, {coop.clauses_total} clauses added in total "
          f"({gain:+.1f}%)")

    # The determinism guarantee: sharing never changes the answer.
    assert coop.result.verdict == blind.result.verdict

    # -- Who shared what: the per-engine traffic ledger. --------------------
    print("\nper-engine lemma traffic (tx = published, rx = imported):")
    for name, result in sorted(coop.results.items()):
        stats = result.stats
        print(f"  {name:10s} {result.verdict.value:9s} "
              f"clauses={stats.clauses_added:6d} tx={stats.lemmas_tx:3d} "
              f"rx={stats.lemmas_rx:3d} "
              f"skipped_solves={stats.share_solves_skipped}")

    # -- The share log: every publication, hashed and sequenced. ------------
    data = read_share_log(str(log_path))
    published = [data.published[seq] for seq in sorted(data.published)]
    print(f"\nshare log: {len(published)} publications, "
          f"{len(data.accepted)} accept records at {log_path}")
    for shared in published[:5]:
        print(f"  seq={shared.seq:3d} source={shared.source:10s} "
              f"kind={shared.lemma.kind}")
    if len(published) > 5:
        print(f"  ... {len(published) - 5} more")

    print("\nNotes:")
    print(" * sharing has one contract, answer-preserving by "
          "construction: verdict, k_fp and j_fp are "
          "identical share-on vs share-off for every engine")
    print(" * the multi-process form is `python -m repro design.aag "
          "--engine portfolio --race --share [--share-log FILE]`; "
          "`--share-replay FILE` re-runs one engine with the logged "
          "imports, bit-identically")
    print(" * the committed cooperative-vs-blind table is "
          "benchmarks/results/race_sharing.txt — counterexample cells "
          "gain >= 25%, deep interpolation-won cells are documented as "
          "no-harm only")


if __name__ == "__main__":
    main()
