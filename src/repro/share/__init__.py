"""Cross-engine lemma sharing for the cooperative portfolio.

The racing portfolio (:mod:`repro.parallel.race`) used to run its members
blind: every PDR frame clause, every interpolant over-approximation and
every BMC-refuted depth was recomputed or thrown away N times per
instance.  This package turns the race cooperative:

* :mod:`repro.share.lemma` — the typed, pickle-safe wire format: PDR frame
  clauses tagged with their frame level (inductive reachability facts any
  engine's counterexample searcher may assume) and "no counterexample up
  to depth d" facts that let the other engines skip shallow
  counterexample searches;
* :mod:`repro.share.bus` — publish/subscribe plumbing: an in-process bus
  for the deterministic cooperative runner, plus the replay port that
  re-applies a recorded share log;
* :mod:`repro.share.log` — the replayable share log (every published lemma
  with a global sequence number and payload hash, every *accepted* import
  keyed by the engine's bound/obligation boundary);
* :mod:`repro.share.adapt` — import validation: model fingerprint check,
  syntactic initiation check against S₀, and seeded bit-parallel
  simulation refutation, so a malformed or malicious lemma is rejected
  before it ever reaches a solver;
* :mod:`repro.share.coop` — the deterministic cooperative race: every
  engine runs in lock step on a virtual work clock (its own deterministic
  propagation counter plus weighted clause additions), so winner, loser
  progress and the share log are byte-reproducible on any machine.

Determinism contract
--------------------
Imports are applied only at bound/obligation boundaries
(:meth:`repro.core.base.UmcEngine._share_sync`), every accepted lemma is
recorded in the share log, and ``--share-replay FILE`` re-runs any engine
with exactly the logged imports — so a run that consumed foreign lemmas
regenerates bit-identically from its log, on one process or many.

Soundness contract
------------------
There is one sharing contract, and it is *answer-preserving by
construction*: foreign lemmas only ever reach the proof-free incremental
counterexample searcher (sound reachability facts cannot cut a genuine
counterexample, and added constraints cannot create models), and depth
facts only skip solves whose answer they already decide.  The
proof-logged refutation checks never see a foreign lemma, so verdicts
*and* the (k, j) fixpoint pair are identical with sharing on, off, or
replayed.  PDR and CBA, whose trajectories any foreign clause would
perturb, export lemmas but import none.
"""

from .bus import LocalShareBus, ReplayShareBus, ShareCancelled, SharePort
from .coop import CoopOutcome, cooperative_race
from .lemma import (DepthLemma, FrameLemma, Lemma, SharedLemma,
                    lemma_from_wire, lemma_hash, model_fingerprint)
from .log import ShareLog, read_share_log

__all__ = [
    "DepthLemma", "FrameLemma", "Lemma", "SharedLemma",
    "lemma_from_wire", "lemma_hash", "model_fingerprint",
    "ShareLog", "read_share_log",
    "SharePort", "LocalShareBus", "ReplayShareBus", "ShareCancelled",
    "CoopOutcome", "cooperative_race",
]
