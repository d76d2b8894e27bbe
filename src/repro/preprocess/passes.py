"""The pass protocol and the pipeline runner.

A *pass* maps a :class:`~repro.aig.model.Model` to a (usually smaller)
model plus the :class:`~repro.preprocess.modelmap.ModelMap` that lifts
reduced-model counterexamples back to the original variables, plus size
statistics.  A :class:`Pipeline` chains passes, composing the maps, so the
engines see exactly one reduced model and one original-to-final map.

Registered passes (see :data:`PASSES`):

``coi``
    Cone-of-influence reduction (:class:`~repro.preprocess.coi.CoiPass`).
``sweep``
    Ternary-simulation stuck-latch sweeping
    (:class:`~repro.preprocess.sweep.SweepPass`).
``rewrite``
    Two-level structural rewriting on the strashed AIG
    (:class:`~repro.preprocess.rewrite.RewritePass`).
``fraig``
    SAT sweeping: random-simulation signature bucketing plus incremental
    SAT confirmation merges functionally equivalent nodes structural
    passes cannot see (:class:`~repro.preprocess.fraig.FraigPass`).
``cnf``
    CNF-level bounded variable elimination + subsumption
    (:class:`CnfEliminationPass`).  This pass acts at *encoding time*: AIG
    surgery cannot express clause-level elimination, so the pass leaves the
    model untouched (identity map) and instead (a) measures the reduction
    on the model's transition-relation CNF for the pipeline report and (b)
    flags the pipeline result so the engines route their equisatisfiability
    queries — the containment checks of :func:`repro.core.base.implies` —
    through :func:`~repro.preprocess.cnfsimp.simplify_cnf`.

The default order ``coi, sweep, coi, rewrite, fraig, cnf`` runs COI twice
on purpose: sweeping substitutes constants, which routinely disconnects
more latches from the property cone; the second COI harvests them.
Fraiging runs after rewriting so its SAT effort is spent only on the
equivalences the cheap structural normalisation could not expose.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..aig.model import Model
from ..bmc.cex import Trace
from ..cnf.tseitin import encode_combinational
from .cnfsimp import CnfSimplifyConfig, simplify_cnf
from .modelmap import ModelMap

__all__ = ["PassStats", "PassResult", "Pass", "CnfEliminationPass",
           "PreprocessResult", "Pipeline", "PASSES", "DEFAULT_PASSES",
           "build_pipeline"]

_log = logging.getLogger("repro.preprocess")


@dataclass
class PassStats:
    """Model sizes before and after one pass (plus pass-specific extras)."""

    name: str
    inputs_before: int = 0
    inputs_after: int = 0
    latches_before: int = 0
    latches_after: int = 0
    ands_before: int = 0
    ands_after: int = 0
    #: Pass-specific counters (the CNF pass reports clause numbers here).
    extra: Dict[str, int] = field(default_factory=dict)

    @property
    def latches_removed(self) -> int:
        return self.latches_before - self.latches_after

    @property
    def ands_removed(self) -> int:
        return self.ands_before - self.ands_after

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "pass": self.name,
            "inputs": f"{self.inputs_before}->{self.inputs_after}",
            "latches": f"{self.latches_before}->{self.latches_after}",
            "ands": f"{self.ands_before}->{self.ands_after}",
        }
        row.update(self.extra)
        return row


@dataclass
class PassResult:
    """What one pass produced: the model, the lift-back map, the stats."""

    model: Model
    model_map: ModelMap
    stats: PassStats


class Pass:
    """Base class of the model-preprocessing passes."""

    name = "pass"

    def apply(self, model: Model) -> PassResult:  # pragma: no cover - abstract
        raise NotImplementedError

    def _stats(self, before: Model, after: Model) -> PassStats:
        b, a = before.stats(), after.stats()
        return PassStats(name=self.name,
                         inputs_before=b["inputs"], inputs_after=a["inputs"],
                         latches_before=b["latches"], latches_after=a["latches"],
                         ands_before=b["ands"], ands_after=a["ands"])


class CnfEliminationPass(Pass):
    """Bounded variable elimination + subsumption at the CNF level.

    See the module docstring: the model passes through unchanged; the pass
    arms encoding-time simplification for the engines' containment checks.
    With ``measure=True`` it additionally runs the simplifier over the
    model's transition-relation CNF (latch next-state cones, the property,
    the constraints — with the model-boundary variables frozen, since an
    unrolling constrains them externally) and reports the clause reduction
    in its :class:`PassStats`.  Measurement is off by default: inside an
    engine construction the numbers would be computed and thrown away, so
    only report-producing callers (the preprocessing benchmark, the
    walkthrough example) should ask for them.
    """

    name = "cnf"

    def __init__(self, config: Optional[CnfSimplifyConfig] = None,
                 measure: bool = False) -> None:
        self.config = config or CnfSimplifyConfig()
        self.measure = measure

    def apply(self, model: Model) -> PassResult:
        stats = self._stats(model, model)
        if self.measure:
            roots = ([latch.next for latch in model.latches]
                     + [model.bad_literal] + list(model.constraints))
            cnf, root_lits, var_map = encode_combinational(model.aig, roots)
            frozen = {var_map[v] for v in model.input_vars if v in var_map}
            frozen |= {var_map[v] for v in model.latch_vars if v in var_map}
            frozen |= {abs(lit) for lit in root_lits}
            reduction = simplify_cnf(cnf, frozen=frozen, config=self.config)
            stats.extra = {
                "cnf_clauses_before": reduction.stats.clauses_before,
                "cnf_clauses_after": reduction.stats.clauses_after,
                "cnf_vars_eliminated": reduction.stats.eliminated_vars,
            }
        return PassResult(model, ModelMap.identity(model), stats)


@dataclass
class PreprocessResult:
    """Everything a pipeline run produced."""

    original: Model
    model: Model
    model_map: ModelMap
    passes: List[PassStats]
    #: Set when the pipeline contained a ``cnf`` pass: the configuration the
    #: engines should use for encoding-time CNF simplification.
    cnf_simplify: Optional[CnfSimplifyConfig] = None

    def lift_trace(self, trace: Trace) -> Trace:
        """Lift a reduced-model counterexample back to the original model."""
        return self.model_map.lift_trace(trace, self.original)

    @property
    def inputs_removed(self) -> int:
        return self.original.num_inputs - self.model.num_inputs

    @property
    def latches_removed(self) -> int:
        return self.original.num_latches - self.model.num_latches

    @property
    def ands_removed(self) -> int:
        return self.original.aig.num_ands - self.model.aig.num_ands

    def _extra_total(self, key: str) -> int:
        return sum(stats.extra.get(key, 0) for stats in self.passes)

    @property
    def fraig_classes(self) -> int:
        """Equivalence-candidate classes the fraig pass(es) examined."""
        return self._extra_total("fraig_classes")

    @property
    def fraig_merges(self) -> int:
        """Nodes merged onto class representatives by fraiging."""
        return self._extra_total("fraig_merges")

    @property
    def fraig_sat_confirms(self) -> int:
        """Miter UNSAT answers that proved fraig merges."""
        return self._extra_total("fraig_sat_confirms")

    @property
    def fraig_sat_refutes(self) -> int:
        """Miter SAT answers whose counterexamples refined fraig classes."""
        return self._extra_total("fraig_sat_refutes")

    @property
    def fraig_rounds(self) -> int:
        """Simulation rounds fraiging evaluated (initial + counterexample)."""
        return self._extra_total("fraig_rounds")


class Pipeline:
    """Run a sequence of passes, composing models, maps and statistics."""

    def __init__(self, passes: Sequence[Pass]) -> None:
        self.passes = list(passes)

    def run(self, model: Model, tracer=None) -> PreprocessResult:
        from ..obs.tracer import NULL_TRACER

        tracer = tracer if tracer is not None else NULL_TRACER
        current = model
        model_map = ModelMap.identity(model)
        collected: List[PassStats] = []
        cnf_config: Optional[CnfSimplifyConfig] = None
        for pipeline_pass in self.passes:
            with tracer.span("pass:%s" % pipeline_pass.name):
                result = pipeline_pass.apply(current)
            collected.append(result.stats)
            _log.debug("pass %s: %d -> %d ands", pipeline_pass.name,
                       current.aig.num_ands, result.model.aig.num_ands)
            model_map = model_map.compose(result.model_map)
            current = result.model
            if isinstance(pipeline_pass, CnfEliminationPass):
                cnf_config = pipeline_pass.config
        if current.aig is model.aig:
            # Every pass was a no-op: hand out a private copy anyway, since
            # the engines materialise interpolants into the model they get.
            current = Model(model.aig.copy(), model.property_index,
                            name=model.name)
        return PreprocessResult(original=model, model=current,
                                model_map=model_map, passes=collected,
                                cnf_simplify=cnf_config)


#: Registry of pass name -> zero-argument factory.
def _factories():
    from .coi import CoiPass
    from .fraig import FraigPass
    from .rewrite import RewritePass
    from .sweep import SweepPass
    return {
        "coi": CoiPass,
        "sweep": SweepPass,
        "rewrite": RewritePass,
        "fraig": FraigPass,
        "cnf": CnfEliminationPass,
    }


PASSES = ("coi", "sweep", "rewrite", "fraig", "cnf")

#: The default pipeline order (see the module docstring for the double COI).
DEFAULT_PASSES = ("coi", "sweep", "coi", "rewrite", "fraig", "cnf")


def validate_pass_names(names: Sequence[str]) -> "tuple":
    """Normalise a pass-name sequence, raising ``ValueError`` on unknowns.

    The single validation point shared by :func:`build_pipeline` and
    ``EngineOptions`` — one rule, one error type, no drift.
    """
    selected = tuple(names)
    unknown = [n for n in selected if n not in PASSES]
    if unknown:
        raise ValueError(f"unknown preprocessing passes {unknown}; "
                         f"known: {sorted(PASSES)}")
    return selected


def build_pipeline(names: Optional[Sequence[str]] = None) -> Pipeline:
    """Build a pipeline from pass names (``None`` selects the default)."""
    factories = _factories()
    selected = DEFAULT_PASSES if names is None else validate_pass_names(names)
    return Pipeline([factories[name]() for name in selected])
