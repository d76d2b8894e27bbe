"""The typed, pickle-safe lemma wire format.

Two lemma kinds cross the portfolio's process and thread boundaries, each
a *sound fact about the shared reduced model* (every engine preprocesses
the same source model through the same deterministic pipeline, so the
reduced models — and hence their fingerprints — agree):

* :class:`DepthLemma` — "no counterexample of length ≤ depth exists".
  Published by any engine after refuting a bound in strict deepening
  order; lets every other engine skip counterexample searches whose
  answer is already known.
* :class:`FrameLemma` — a PDR frame clause: the cube intersects no state
  reachable in ≤ ``level`` steps, so the clause ¬cube may be assumed at
  any unrolling frame t ≤ level of a counterexample search.

Both only ever reach a receiver's proof-free counterexample searcher (the
conservative contract of :mod:`repro.share`).

Wire form
---------
Lemmas are frozen dataclasses of scalars and tuples — pickle-safe for the
worker pipes and JSON-safe for the share log (:meth:`to_wire` /
:func:`lemma_from_wire` round-trip).  Cubes name latch variables of the
reduced model, the common currency of every engine's private AIG.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from ..aig.model import Model

__all__ = ["Lemma", "DepthLemma", "FrameLemma", "SharedLemma",
           "lemma_hash", "lemma_from_wire", "model_fingerprint",
           "MAX_FRAME_CUBE_LITS"]

#: Publishing cap: frame clauses wider than this are kept private (wide
#: cubes are weak lemmas and expensive assumptions).
MAX_FRAME_CUBE_LITS = 12

#: Sorted (latch var, value) pairs — the wire form of a PDR cube.
WireCube = Tuple[Tuple[int, bool], ...]


@dataclass(frozen=True)
class DepthLemma:
    """No counterexample of length ≤ ``depth`` exists (for the shared model)."""

    depth: int

    kind = "depth"

    def to_wire(self) -> Dict[str, object]:
        return {"kind": self.kind, "depth": self.depth}


@dataclass(frozen=True)
class FrameLemma:
    """A PDR frame clause: ``cube`` ∩ Reach≤level = ∅.

    ``cube`` is a sorted tuple of (latch var, value) pairs over the reduced
    model; the clause ¬cube holds at every unrolling frame t ≤ ``level``.
    """

    cube: WireCube
    level: int

    kind = "frame"

    def to_wire(self) -> Dict[str, object]:
        return {"kind": self.kind, "level": self.level,
                "cube": [[var, int(val)] for var, val in self.cube]}


Lemma = Union[DepthLemma, FrameLemma]


@dataclass(frozen=True)
class SharedLemma:
    """A published lemma as delivered: global sequence number + provenance."""

    seq: int
    source: str
    lemma: Lemma


def lemma_from_wire(data: Dict[str, object]) -> Lemma:
    """Rebuild a lemma from its wire dict; raises ``ValueError`` on junk."""
    kind = data.get("kind")
    if kind == "depth":
        return DepthLemma(depth=int(data["depth"]))
    if kind == "frame":
        cube = tuple(sorted((int(var), bool(val)) for var, val in data["cube"]))
        return FrameLemma(cube=cube, level=int(data["level"]))
    raise ValueError(f"unknown lemma kind {kind!r}")


def lemma_hash(lemma: Lemma) -> str:
    """A short stable content hash of the lemma's canonical wire form."""
    payload = json.dumps(lemma.to_wire(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


# --------------------------------------------------------------------- #
# Model fingerprint
# --------------------------------------------------------------------- #
def model_fingerprint(model: Model) -> str:
    """A short structural hash of the (reduced) model.

    Covers inputs, latches (variable, init, next), AND gates, the checked
    bad literal and the invariant constraints — everything a lemma's
    semantics depends on.  Engines running the same deterministic
    preprocessing pipeline on the same source model produce identical
    reduced structures, so their fingerprints agree; a lemma arriving with
    a different fingerprint is about a *different* circuit and is rejected
    before validation even starts.
    """
    aig = model.aig
    parts: List[str] = [
        "i" + ",".join(str(v) for v in sorted(aig.input_vars())),
        "l" + ";".join(
            f"{latch.var}:{latch.init}:{latch.next}"
            for latch in sorted(aig.latches, key=lambda la: la.var)),
        "a" + ";".join(f"{g.var}:{g.left}:{g.right}"
                       for g in aig.iter_and_gates()),
        "b" + str(model.bad_literal),
        "c" + ",".join(str(c) for c in aig.constraints),
    ]
    digest = hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()
    return digest[:16]
