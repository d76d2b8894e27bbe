"""SAT sweeping (fraiging): merge combinationally equivalent AIG nodes.

Structural hashing only shares *syntactically* identical gates; two cones
computing the same function through different gate associations — or a
cone that is provably constant — survive every structural pass.  Fraiging
(the FRAIG "functionally reduced AIG" construction of Mishchenko et al.)
closes that gap with the classic simulate↔SAT refinement loop:

1. **Signature bucketing.**  Seeded 64-lane random simulation
   (:mod:`repro.aig.simulate`) assigns every node a signature — the tuple
   of its value words over all rounds.  Purely combinational rounds draw
   inputs *and* latch words at random; a sequential random-stimulus pass
   (:func:`~repro.aig.simulate.random_stimulus_rounds`) adds
   reachable-biased rounds.  Nodes are bucketed by *phase-canonical*
   signature (a word and its complement share a bucket), so candidate
   classes cover both ``a ≡ b`` and ``a ≡ ¬b``; the constant node is a
   class member like any other, which is how ``node ≡ FALSE/TRUE``
   conjectures arise.
2. **Incremental SAT confirmation.**  One persistent
   :class:`~repro.sat.solver.CdclSolver` carries the Tseitin encoding of
   every cone ever examined; each candidate pair gets a two-clause miter
   (``a ≠ b`` is satisfiable?) under a retractable activation-literal
   clause group (:meth:`~repro.sat.solver.CdclSolver.new_group`), released
   after the answer either way.  UNSAT proves the pair equivalent and
   records a merge.  SAT yields a counterexample leaf assignment that is
   simulated immediately, as one round of ``min(width, #leaves + 1)``
   lanes: lane 0 is the pattern, lane *i* the pattern with leaf *i−1*
   flipped (its distance-1 neighbours, after Mishchenko, Chatterjee,
   Jiang and Brayton, ICCAD'06).  Members of the class being swept that
   the new round separates from the representative skip their miter; the
   loop re-buckets on the refined signatures and re-sweeps until no
   candidate pair is left (classes only ever split, so it terminates).
   Simulating each counterexample at once, instead of batching a whole
   sweep's worth, cut the miter calls on ``indA2_ring16`` from 593 to 76.
   The refinement order cannot change the merges: every gate redirects to
   the earliest node whose function equals its own or its complement.
3. **Merged-model rebuild.**  Every SAT-proven node redirects to its class
   representative (the topologically earliest member, possibly
   complemented, possibly a constant); the observed cones are rewritten
   over representatives through
   :func:`~repro.preprocess.rebuild.rebuild_model`'s redirect support.
   The input/latch interface is untouched, so the returned
   :class:`~repro.preprocess.modelmap.ModelMap` keeps trace lift-back
   exact.

Merging is sound *sequentially* although the equivalence is proven
*combinationally*: latch leaves are free in the miter, so proven-equal
nodes agree in every state, reachable or not, and substituting one for the
other preserves the transition and property functions exactly — verdicts,
depths and counterexamples are unchanged, only the amount of logic every
engine pays for shrinks.

Everything is deterministic: a fixed seed, sorted iteration orders and the
deterministic solver make the pass — and therefore the committed benchmark
artefacts — byte-identical across machines and job counts.  The pass's own
SAT work happens on a private solver and is *not* charged to the engine's
clause/propagation budgets (preprocessing is charged wall-clock, like every
other pass); its effort is reported instead through the
``fraig_classes`` / ``fraig_merges`` / ``fraig_sat_confirms`` /
``fraig_sat_refutes`` / ``fraig_rounds`` counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..aig.aig import Aig, lit_from_var, lit_negate
from ..aig.model import Model
from ..aig.simulate import (random_leaf_words, random_stimulus_rounds,
                            simulate_comb)
from ..cnf.tseitin import TseitinEncoder
from ..sat.solver import CdclSolver
from ..sat.types import Budget, SatResult
from .modelmap import ModelMap
from .passes import Pass, PassResult
from .rebuild import rebuild_model

__all__ = ["FraigConfig", "FraigResult", "FraigPass", "find_equivalences"]


@dataclass(frozen=True)
class FraigConfig:
    """Tuning knobs of the fraiging pass (defaults match the artefacts)."""

    #: Seed of the random-pattern generator; fixed so artefacts reproduce.
    seed: int = 0xF4A16
    #: Purely combinational random rounds (inputs and latch words free).
    comb_rounds: int = 4
    #: Sequential random-stimulus cycles appended as reachable-biased rounds.
    seq_steps: int = 8
    #: Lanes per round (bits per simulation word).
    width: int = 64
    #: Per-miter conflict budget; an UNKNOWN abandons the pair (soundly —
    #: a missed merge only costs reduction, never correctness).
    conflict_limit: int = 10_000


@dataclass
class FraigResult:
    """What the equivalence search found."""

    #: AND variable -> replacement literal (over the same AIG).
    merges: Dict[int, int] = field(default_factory=dict)
    #: Candidate classes examined by the SAT stage, cumulative over
    #: refinement rounds.
    classes: int = 0
    #: Miter UNSAT answers (each one proved a merge).
    sat_confirms: int = 0
    #: Miter SAT answers (each one contributed a splitting pattern).
    sat_refutes: int = 0
    #: Simulation rounds evaluated (initial + counterexample feedback).
    rounds: int = 0


def find_equivalences(model: Model,
                      config: Optional[FraigConfig] = None) -> FraigResult:
    """Run the simulate↔SAT loop; return the proven merges and counters."""
    config = config or FraigConfig()
    aig = model.aig
    result = FraigResult()
    roots = ([latch.next for latch in aig.latches]
             + [aig.bad[model.property_index]] + list(aig.constraints))
    gates = sorted(v for v in aig.fanin_cone(roots) if aig.is_and(v))
    if not gates:
        return result
    inputs = sorted(aig.input_vars())
    latch_vars = sorted(latch.var for latch in aig.latches)
    # Bucketing order doubles as the representative rule: class members are
    # kept in this (topological: fanins precede fanouts) order and the
    # first one — the constant node, a leaf, or the earliest gate — is the
    # representative everything else redirects to.
    ordered = [0] + sorted(set(inputs) | set(latch_vars) | set(gates))
    gate_set = set(gates)

    sigs: Dict[int, List[int]] = {var: [] for var in ordered}
    masks: List[int] = []

    def append_round(values: Dict[int, int], width: int) -> None:
        masks.append((1 << width) - 1)
        for var in ordered:
            sigs[var].append(values[var])
        result.rounds += 1

    rng = random.Random(config.seed)
    for _ in range(config.comb_rounds):
        input_words = random_leaf_words(rng, inputs, config.width)
        state_words = random_leaf_words(rng, latch_vars, config.width)
        append_round(simulate_comb(aig, input_words, state_words,
                                   config.width), config.width)
    if aig.latches and config.seq_steps:
        for values in random_stimulus_rounds(aig, config.seq_steps,
                                             config.width, rng=rng):
            append_round(values, config.width)

    solver = CdclSolver()
    encoder = TseitinEncoder(aig, solver, allocate_leaves=True)
    abandoned: Set[Tuple[int, int]] = set()
    leaves = inputs + latch_vars
    cex_width = min(config.width, len(leaves) + 1)
    cex_mask = (1 << cex_width) - 1

    def simulate_counterexample(pattern: Dict[int, bool]) -> None:
        # Lane 0 replays the counterexample itself; lane i flips leaf i-1,
        # so one round also carries the pattern's distance-1 neighbours.
        words = {var: cex_mask if pattern.get(var) else 0 for var in leaves}
        for lane, var in enumerate(leaves[:cex_width - 1], start=1):
            words[var] ^= 1 << lane
        append_round(simulate_comb(aig,
                                   {var: words[var] for var in inputs},
                                   {var: words[var] for var in latch_vars},
                                   cex_width), cex_width)

    def still_matches(member: int, representative: int, same_phase: bool,
                      since: int) -> bool:
        # Whether the rounds appended since bucketing keep the pair in one
        # phase-canonical class.
        for index in range(since, len(masks)):
            word = sigs[representative][index]
            if not same_phase:
                word = ~word & masks[index]
            if sigs[member][index] != word:
                return False
        return True

    while True:
        # Bucket the unmerged nodes by phase-canonical signature.
        classes: Dict[Tuple[int, ...], List[int]] = {}
        phases: Dict[int, int] = {}
        for var in ordered:
            if var in result.merges:
                continue
            signature = sigs[var]
            phase = signature[0] & 1
            if phase:
                key = tuple(~word & mask
                            for word, mask in zip(signature, masks))
            else:
                key = tuple(signature)
            phases[var] = phase
            classes.setdefault(key, []).append(var)
        bucketed = len(masks)

        # SAT-confirm every candidate pair (representative vs. member).  A
        # counterexample is simulated as soon as it is found, and members
        # it has already split off the representative skip their miter;
        # the next bucketing starts from the refined signatures.
        for members in classes.values():
            representative = members[0]
            mergeable = [m for m in members[1:]
                         if m in gate_set
                         and (representative, m) not in abandoned]
            if not mergeable:
                continue
            result.classes += 1
            rep_lit = lit_from_var(representative)
            for member in mergeable:
                same_phase = phases[member] == phases[representative]
                if not still_matches(member, representative, same_phase,
                                     bucketed):
                    continue
                target = rep_lit if same_phase else lit_negate(rep_lit)
                member_cnf = encoder.literal(lit_from_var(member))
                target_cnf = encoder.literal(target)
                group = solver.new_group()
                solver.add_clause([member_cnf, target_cnf], group=group)
                solver.add_clause([-member_cnf, -target_cnf], group=group)
                answer = solver.solve(
                    assumptions=[group],
                    budget=Budget(max_conflicts=config.conflict_limit))
                solver.release_group(group)
                if answer is SatResult.UNSAT:
                    result.merges[member] = target
                    result.sat_confirms += 1
                elif answer is SatResult.SAT:
                    result.sat_refutes += 1
                    simulate_counterexample(_leaf_pattern(
                        solver, encoder, inputs, latch_vars))
                else:
                    abandoned.add((representative, member))
        # Every refuted pair now differs in lane 0 of its counterexample
        # round, so the partition strictly refines and the loop terminates.
        if len(masks) == bucketed:
            return result


def _leaf_pattern(solver: CdclSolver, encoder: TseitinEncoder,
                  inputs: Sequence[int],
                  latch_vars: Sequence[int]) -> Dict[int, bool]:
    """Read the miter model back as an AIG leaf assignment.

    Leaves outside the encoded cones have no CNF variable; they default to
    0, which is deterministic and irrelevant to the pair the model refutes.
    """
    pattern: Dict[int, bool] = {}
    for var in list(inputs) + list(latch_vars):
        if encoder.has_var(var):
            pattern[var] = solver.model_value(encoder.cnf_var(var))
    return pattern


class FraigPass(Pass):
    """Merge SAT-proven equivalent nodes onto class representatives."""

    name = "fraig"

    def __init__(self, config: Optional[FraigConfig] = None) -> None:
        self.config = config or FraigConfig()

    def apply(self, model: Model) -> PassResult:
        found = find_equivalences(model, self.config)
        extra = {
            "fraig_classes": found.classes,
            "fraig_merges": len(found.merges),
            "fraig_sat_confirms": found.sat_confirms,
            "fraig_sat_refutes": found.sat_refutes,
            "fraig_rounds": found.rounds,
        }
        if not found.merges:
            stats = self._stats(model, model)
            stats.extra = extra
            return PassResult(model, ModelMap.identity(model), stats)

        aig = model.aig
        result, model_map = rebuild_model(
            interface=model,
            src=aig,
            src_inputs=[(var, var) for var in aig.input_vars()],
            src_latches=[(latch, latch.var, latch.next)
                         for latch in aig.latches],
            src_bad=aig.bad[model.property_index],
            src_constraints=aig.constraints,
            redirects=found.merges)
        stats = self._stats(model, result)
        stats.extra = extra
        return PassResult(result, model_map, stats)
