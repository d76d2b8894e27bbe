"""Shared machinery for the interpolation-based UMC engines.

All four engines (standard interpolation, parallel/serial interpolation
sequences, sequences + CBA) share:

* an engine-private copy of the model's AIG into which interpolants are
  materialised (so a run never mutates the caller's circuit) — by default
  the copy is first shrunk by the preprocessing pipeline
  (:mod:`repro.preprocess`), and counterexamples found on the reduced
  model are lifted back to the original variables before validation;
* the initial-state predicate S₀ as an AIG cone over latch variables;
* SAT-based implication / containment checks between AIG predicates —
  by default on a *persistent* per-run :class:`~repro.core.fixpoint.FixpointChecker`
  whose incremental Tseitin encoding pays for each accumulated cone once;
* the shared *interpolant lifecycle*: refutations are post-processed
  (core trimming + RecyclePivots, :meth:`UmcEngine._reduced_proof`) before
  extraction, and every freshly extracted interpolant cone is structurally
  compacted (:meth:`UmcEngine._register_interpolant`) before it enters the
  reachable-set accumulation;
* a shared *incremental counterexample search*
  (:meth:`UmcEngine._search_counterexample`): one persistent
  :class:`~repro.bmc.incremental.IncrementalUnroller` per engine run that
  extends frame by frame with the outer bound and carries learned clauses,
  activities and phases across bounds;
* resource accounting (wall-clock budget → *overflow*, per-call conflict
  budgets) and the uniform :class:`VerificationResult` packaging.

One solve per bound: the search *is* the refutation check
---------------------------------------------------------
Interpolant extraction needs a resolution refutation of the *monolithic*
partition-labelled formula S₀ ∧ Tᵏ ∧ B.  Historically the incremental
search could not provide one — its depth target lives under an assumed
activation literal, so every learned clause (and the "refutation")
carried that literal and refuted only the augmented formula — and the
engines paid **two SAT solves per bound**: the cheap incremental search
answered SAT-or-UNSAT, then a fresh proof-logging solver re-derived the
same UNSAT purely for the labelled refutation.

With ``EngineOptions.group_proof`` (the default) the split is gone.  The
persistent searcher runs with proof logging on and real Γ-partition
labels (:class:`~repro.bmc.incremental.IncrementalUnroller` labels its
permanent frames exactly as the monolithic builders do), and on UNSAT
:func:`repro.sat.proof.strip_activations` deletes the activation
literals from the recorded trace — sound because activation variables
are never resolution pivots, so stripping commutes with every recorded
step.  Clauses learned at earlier bounds enter later refutations as
derived chains over permanent labelled clauses, exactly the case the old
design could not label.  The fresh-solver path survives in three roles:

* **fallback** — a stripped chain can depend on a *released* earlier
  depth's group; :meth:`UmcEngine._group_refutation` then returns
  ``None`` (counted in ``proof_group_fallbacks``) and the engine builds
  the monolithic check as before;
* **reference** — ``--no-group-proof`` restores the two-solve split,
  and the identity tests pin verdicts and k_fp/j_fp bit-identical
  on-vs-off;
* **the checks the searcher cannot express** — serial sequence suffix
  checks (different initial predicate per step) and CBA's abstract
  models always build fresh proof-logged solvers.

Group proof is suspended while a share port is attached: foreign clauses
live in the searcher's solver, and a proof must never rest on them.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Dict, Iterable, List, Optional

from ..aig.aig import Aig, lit_is_const, lit_negate
from ..aig.model import Model
from ..aig.ops import cone_size
from ..bmc.cex import Trace
from ..bmc.checks import BmcCheckKind
from ..bmc.incremental import IncrementalUnroller
from ..cnf.cnf import Cnf
from ..cnf.tseitin import TseitinEncoder
from ..itp.compact import compact_cone
from ..obs.tracer import NULL_TRACER, NullTracer
from ..preprocess.cnfsimp import CnfSimplifyConfig, CnfSimplifyStats, simplify_cnf
from ..preprocess.passes import PreprocessResult, build_pipeline
from ..sat.proof import ActivationDependencyError, ResolutionProof, reduce_proof
from ..sat.solver import CdclSolver
from ..sat.types import Budget, SatResult, SolverStats
from ..share.adapt import ImportValidator
from ..share.bus import SharePort
from ..share.lemma import DepthLemma, FrameLemma, Lemma, model_fingerprint
from .fixpoint import FixpointChecker
from .options import EngineOptions
from .result import EngineStats, Verdict, VerificationResult

__all__ = ["OutOfBudget", "initial_states_predicate", "implies", "UmcEngine"]

_log = logging.getLogger("repro.core.base")


class OutOfBudget(RuntimeError):
    """Raised internally when the run exceeds its wall-clock or SAT budget."""

    def __init__(self, bound: Optional[int] = None) -> None:
        super().__init__("verification budget exhausted")
        self.bound = bound


def initial_states_predicate(model: Model) -> int:
    """Build S₀ as an AIG literal over the model's latch variables.

    Uninitialised latches contribute no constraint (they are free at time 0).
    """
    aig = model.aig
    terms = []
    for latch in model.latches:
        if latch.init is None:
            continue
        lit = latch.lit()
        terms.append(lit if latch.init else lit_negate(lit))
    return aig.op_and(*terms)


def implies(aig: Aig, antecedent: int, consequent: int,
            budget: Optional[Budget] = None,
            on_stats: Optional[Callable[[SolverStats], None]] = None,
            cnf_simplify: Optional[CnfSimplifyConfig] = None,
            on_reduction: Optional[Callable[[CnfSimplifyStats], None]] = None
            ) -> bool:
    """Decide ``antecedent ⇒ consequent`` for two predicates in the same AIG.

    Both predicates are interpreted over the same (free) leaf valuation, so
    the check encodes the cones with a shared Tseitin instance and asks
    whether ``antecedent ∧ ¬consequent`` is satisfiable.

    ``on_stats`` receives the throwaway solver's :class:`SolverStats` after
    the solve.  Engines use it to fold the containment-check work into
    their accounting: on interpolant-heavy runs the Tseitin encoding of the
    cones is a dominant cost, and leaving it uncounted would let a run
    evade every deterministic resource budget.

    ``cnf_simplify`` routes the encoded formula through the preprocessing
    pipeline's CNF pass (:func:`repro.preprocess.cnfsimp.simplify_cnf`)
    before the solver sees it.  This check is pure SAT-or-UNSAT — no proof,
    no model read-back — so equisatisfiability-only reductions (bounded
    variable elimination, subsumption) are sound here, and the clause
    counters then measure the reduced encoding.  ``on_reduction`` receives
    the :class:`~repro.preprocess.cnfsimp.CnfSimplifyStats` of each run.

    Simplification is gated on the *predicted* encoding size (3 clauses
    per AND gate in the two cones): beyond ``cnf_simplify.max_clause_count``
    the check streams clauses straight into the solver, paying neither the
    clause containers nor the quadratic-ish subsumption sweeps — on
    interpolant-heavy runs the late containment checks carry cones of
    hundreds of thousands of clauses, where a pure-Python simplifier costs
    multiples of the solve it is trying to shorten.
    """
    if cnf_simplify is not None:
        cone = aig.fanin_cone([antecedent, consequent])
        predicted = 3 * sum(1 for var in cone if aig.is_and(var)) + 2
        if predicted > cnf_simplify.max_clause_count:
            cnf_simplify = None
    if cnf_simplify is not None:
        cnf = Cnf()
        encoder = TseitinEncoder(aig, cnf, allocate_leaves=True)
        a_lit = encoder.literal(antecedent)
        c_lit = encoder.literal(consequent)
        cnf.add_clause([a_lit])
        cnf.add_clause([-c_lit])
        reduction = simplify_cnf(cnf, config=cnf_simplify)
        if on_reduction is not None:
            on_reduction(reduction.stats)
        if reduction.conflict:
            # Preprocessing alone refuted antecedent ∧ ¬consequent.  Such a
            # check contributes no *solver* counters (there is no solver) —
            # by design: the deterministic budgets bound solver work, the
            # counters measure the reduced encoding (here reduced to
            # nothing), and the simplifier's own effort is capped per call
            # by ``max_clause_count``, so a run cannot evade the budgets
            # unboundedly through this path.  The check still shows up in
            # ``sat_calls`` / ``containment_checks`` and its reduction in
            # ``pre_cnf_clauses_eliminated``.
            return True
        solver = CdclSolver()
        solver.ensure_var(reduction.cnf.num_vars)
        for clause in reduction.cnf.clauses:
            solver.add_clause(list(clause.literals))
    else:
        solver = CdclSolver()
        encoder = TseitinEncoder(aig, solver, allocate_leaves=True)
        a_lit = encoder.literal(antecedent)
        c_lit = encoder.literal(consequent)
        solver.add_clause([a_lit])
        solver.add_clause([-c_lit])
    result = solver.solve(budget=budget)
    if on_stats is not None:
        on_stats(solver.stats)
    if result is SatResult.UNKNOWN:
        raise OutOfBudget()
    return result is SatResult.UNSAT


class UmcEngine:
    """Base class: resource accounting and result packaging."""

    name = "umc"

    #: Statistic groups this engine can structurally populate — the CLI's
    #: grouped ``--stats`` rendering shows exactly these (see
    #: :meth:`repro.core.result.EngineStats.grouped`).
    stat_groups = ("solver", "preprocess", "lifecycle", "share")

    def __init__(self, model: Model, options: Optional[EngineOptions] = None,
                 tracer: Optional[NullTracer] = None,
                 share: Optional[SharePort] = None) -> None:
        self._source_model = model
        self.options = options or EngineOptions()
        #: The run's span tracer (default: the no-op NullTracer).  Counter
        #: deltas are sampled from the *live* ``self.stats`` — the sampler
        #: reads the attribute on every call, so ``run()`` replacing the
        #: stats object is transparent to open spans.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = EngineStats()
        self.tracer.bind_counters(self._counter_sample)
        #: Pipeline outcome when preprocessing ran (None otherwise); carries
        #: the ModelMap that lifts reduced-model traces back (see _fail).
        self.preprocess: Optional[PreprocessResult] = None
        #: Wall clock spent preprocessing at construction; charged against
        #: the run's time budget and reported time (see run()).
        self._preprocess_seconds = 0.0
        construction_started = time.monotonic()
        if self.options.preprocess:
            with self.tracer.span("preprocess", engine=self.name,
                                  model=model.name):
                pipeline = build_pipeline(self.options.preprocess_passes)
                self.preprocess = pipeline.run(model, tracer=self.tracer)
            # The pipeline hands out a private model (engines add
            # interpolant cones to the AIG, so it must never be shared).
            self.aig = self.preprocess.model.aig
            self.model = self.preprocess.model
        else:
            # No preprocessing: work on a private copy of the caller's AIG.
            self.aig = model.aig.copy()
            self.model = Model(self.aig, model.property_index, name=model.name)
        self._preprocess_seconds = time.monotonic() - construction_started
        self._start_time = 0.0
        self._current_bound: Optional[int] = None
        #: Persistent (proof-free) incremental BMC search over self.model.
        self._cex_searcher: Optional[IncrementalUnroller] = None
        #: Persistent incremental containment checker over self.aig (the
        #: R-accumulation fixpoint tests; see repro.core.fixpoint).
        self._fixpoint_checker: Optional[FixpointChecker] = None
        #: Share-bus endpoint for cooperative portfolio runs (None = solo;
        #: see the "Cooperative lemma sharing" section below).
        self.share: Optional[SharePort] = share
        self._share_validator: Optional[ImportValidator] = None
        #: Largest counterexample depth foreign DepthLemmas have ruled out.
        self._share_depth = -1
        self._share_published_depth = -1
        #: Accepted foreign frame clauses as [FrameLemma, installed_to]
        #: pairs — installed_to is the highest searcher frame the clause has
        #: been asserted at so far (-1 = not yet installed anywhere).
        self._share_frames: List[List] = []
        #: Dedicated activation-literal group holding every foreign clause
        #: in the cex searcher's solver, for wholesale retraction.
        self._share_group: Optional[int] = None
        self._share_distrust = False
        if self.share is not None:
            self._share_attach()

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def _counter_sample(self) -> Dict[str, int]:
        """The deterministic counters span deltas are computed from."""
        stats = self.stats
        return {"sat_calls": stats.sat_calls,
                "clauses_added": stats.clauses_added,
                "conflicts": stats.conflicts,
                "propagations": stats.propagations}

    def _bound_span(self, bound: int):
        """The per-bound structural span (mirrored as a DEBUG log line)."""
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("%s/%s: bound %d (clauses=%d propagations=%d)",
                       self.name, self.model.name, bound,
                       self.stats.clauses_added, self.stats.propagations)
        return self.tracer.span("bound", bound=bound)

    def _sat_call_point(self, call: SolverStats) -> None:
        """Per-SAT-call profile event; caller phase = the enclosing span."""
        self.tracer.point("sat_call", conflicts=call.conflicts,
                          propagations=call.propagations,
                          clauses_added=call.clauses_added)

    # ------------------------------------------------------------------ #
    # Resource handling
    # ------------------------------------------------------------------ #
    def _elapsed(self) -> float:
        return time.monotonic() - self._start_time

    def _remaining_time(self) -> Optional[float]:
        if self.options.time_limit is None:
            return None
        return self.options.time_limit - self._elapsed()

    def _check_budget(self) -> None:
        remaining = self._remaining_time()
        if remaining is not None and remaining <= 0:
            raise OutOfBudget(self._current_bound)

    def _sat_budget(self) -> Budget:
        return Budget(max_conflicts=self.options.conflict_limit,
                      max_time=self._remaining_time())

    def _solve(self, solver: CdclSolver, assumptions: Iterable[int] = ()) -> SatResult:
        """Run a SAT query under the remaining budget, updating statistics."""
        self._check_budget()
        started = time.monotonic()
        result = solver.solve(assumptions=list(assumptions), budget=self._sat_budget())
        self.stats.sat_calls += 1
        self.stats.sat_time += time.monotonic() - started
        self._charge(solver.last_call_stats, result)
        return result

    def _charge(self, call: SolverStats,
                result: Optional[SatResult] = None) -> None:
        """Fold one finished SAT call into the run's counters and budgets.

        The deterministic budgets: unlike the wall clock, cumulative
        solver counters trip at the same query on every machine, so
        resource-bounded runs (and their artefacts) stay reproducible.
        Clause additions bind on encoding-heavy runs, propagations on
        search-heavy ones; both are checked after every completed call —
        persistent solvers and the containment checks' throwaway solvers
        alike.  An ``UNKNOWN`` ``result`` (the per-call conflict or time
        budget ran out) is itself an exhausted budget.
        """
        stats = self.stats
        stats.clauses_added += call.clauses_added
        stats.conflicts += call.conflicts
        stats.propagations += call.propagations
        stats.max_call_conflicts = max(stats.max_call_conflicts,
                                       call.conflicts)
        if self.tracer.enabled:
            self._sat_call_point(call)
        if (result is SatResult.UNKNOWN
                or (self.options.max_clauses is not None
                    and stats.clauses_added > self.options.max_clauses)
                or (self.options.max_propagations is not None
                    and stats.propagations > self.options.max_propagations)):
            raise OutOfBudget(self._current_bound)

    def _implies(self, antecedent: int, consequent: int, aig: Optional[Aig] = None) -> bool:
        """Containment check counted in the engine statistics.

        With ``options.fixpoint_incremental`` (the default) checks over the
        engine's own AIG run on the persistent :class:`FixpointChecker`:
        only the gates no earlier check encoded are Tseitin-encoded, so the
        R-accumulation sequence pays for each interpolant cone once instead
        of once per remaining iteration.  Checks over a different AIG — or
        with the persistent path disabled — fall back to the one-shot
        throwaway-solver :func:`implies`, including its size-gated CNF
        simplification.

        Either way the solver's clause and propagation counters fold into
        the run's cumulative statistics: the Tseitin encoding of large
        interpolant cones is a real — on interpolant-heavy runs dominant —
        cost, and the deterministic budgets must see it or a blowing-up
        run would never trip them.
        """
        self._check_budget()
        self.stats.containment_checks += 1
        with self.tracer.span("containment"):
            if self.options.fixpoint_incremental and (aig is None or aig is self.aig):
                return self._implies_incremental(antecedent, consequent)
            started = time.monotonic()

            def account_reduction(simp_stats: CnfSimplifyStats) -> None:
                self.stats.pre_cnf_clauses_eliminated += simp_stats.clauses_eliminated

            cnf_config = self.preprocess.cnf_simplify if self.preprocess else None
            try:
                result = implies(aig or self.aig, antecedent, consequent,
                                 budget=self._sat_budget(),
                                 on_stats=self._charge,
                                 cnf_simplify=cnf_config,
                                 on_reduction=account_reduction)
            except OutOfBudget:
                raise OutOfBudget(self._current_bound)
            finally:
                self.stats.sat_time += time.monotonic() - started
                self.stats.sat_calls += 1
            return result

    def _implies_incremental(self, antecedent: int, consequent: int) -> bool:
        """One containment check on the run's persistent fixpoint solver."""
        if self._fixpoint_checker is None:
            self._fixpoint_checker = FixpointChecker(self.aig)
        checker = self._fixpoint_checker
        reused_before = checker.encodings_reused
        started = time.monotonic()
        try:
            result = checker.implies(antecedent, consequent,
                                     budget=self._sat_budget())
        finally:
            self.stats.sat_time += time.monotonic() - started
            self.stats.sat_calls += 1
        self.stats.fixpoint_encodings_reused += (checker.encodings_reused
                                                 - reused_before)
        # Per-call deltas (including the clauses the encoder streamed in
        # between solves) — same accounting as _solve on persistent solvers.
        self._charge(checker.solver.last_call_stats, result)
        return result is SatResult.UNSAT

    def _shed_fixpoint_groups(self, live_roots: Iterable[int]) -> None:
        """Shed fixpoint-checker clause groups no live root observes.

        The sequence engines call this once per outer iteration with every
        predicate a future containment check may mention (S₀, the current
        columns, the remaining matrix elements): column strengthening
        replaces ``columns[j]``'s cone wholesale, so the superseded cone's
        encoding groups would otherwise stay assumed — and their clauses
        watched — for the rest of the run.  See
        :meth:`repro.core.fixpoint.FixpointChecker.shed_superseded`; a
        no-op until the first incremental containment check exists.
        """
        if self._fixpoint_checker is None:
            return
        shed = self._fixpoint_checker.shed_superseded(live_roots)
        self.stats.fixpoint_groups_shed += shed
        if shed and self.tracer.enabled:
            self.tracer.point("group_shed", groups=shed)

    def _note_interpolant(self, aig: Aig, itp_lit: int) -> None:
        self.stats.itp_extractions += 1
        self.stats.itp_nodes += cone_size(aig, itp_lit)

    # ------------------------------------------------------------------ #
    # Interpolant lifecycle (proof trimming + cone compaction)
    # ------------------------------------------------------------------ #
    def _trim_proof(self, proof: ResolutionProof) -> ResolutionProof:
        """Post-process a refutation before interpolant extraction.

        With ``options.proof_reduce`` (the default) the trace gets core
        trimming plus the RecyclePivots redundant-pivot pass
        (:func:`repro.sat.proof.reduce_proof`), so every extraction
        replays a smaller derivation DAG.  The node reduction accumulates
        in ``stats.proof_nodes_trimmed``.
        """
        if not self.options.proof_reduce:
            return proof
        with self.tracer.span("proof_trim"):
            reduced, reduction = reduce_proof(proof)
        self.stats.proof_nodes_trimmed += reduction.nodes_trimmed
        if self.tracer.enabled:
            self.tracer.point("proof_trimmed",
                              nodes=reduction.nodes_trimmed)
        return reduced

    def _reduced_proof(self, solver: CdclSolver) -> ResolutionProof:
        """The refutation interpolation should extract from (fresh-solver path)."""
        return self._trim_proof(solver.proof())

    def _register_interpolant(self, aig: Aig, itp_lit: int) -> int:
        """Compact (if enabled) and account one freshly extracted interpolant.

        Returns the literal the engine should use from here on: with
        ``options.itp_compact`` the cone is rebuilt through the rewriting
        rules (:func:`repro.itp.compact.compact_cone`) before it is
        disjoined into R — the one place structural sharing compounds,
        since R's cone is re-encoded by every later containment check.
        """
        if self.options.itp_compact and not lit_is_const(itp_lit):
            with self.tracer.span("compact"):
                compaction = compact_cone(aig, itp_lit)
            self.stats.itp_ands_compacted += compaction.saved
            itp_lit = compaction.lit
        self._note_interpolant(aig, itp_lit)
        return itp_lit

    # ------------------------------------------------------------------ #
    # Incremental counterexample search (shared by every engine)
    # ------------------------------------------------------------------ #
    def _group_proof_active(self) -> bool:
        """Whether this run's searcher doubles as the refutation check.

        Requires the incremental search itself, and is suspended for
        share-attached runs: foreign clauses are asserted in the
        searcher's solver, and a refutation handed to interpolation must
        never rest on them (the conservative-sharing contract keeps
        proofs foreign-free).
        """
        return (self.options.group_proof
                and self.options.incremental_cex_search
                and self.share is None)

    def _cex_check_kind(self) -> BmcCheckKind:
        """The check formulation the persistent searcher unrolls."""
        return self.options.bmc_check

    def _cex_search_unroller(self) -> IncrementalUnroller:
        """The engine's persistent BMC search over ``self.model``.

        Proof-free unless the run reuses the search as its proof-logged
        refutation check (:meth:`_group_proof_active`).
        """
        if self._cex_searcher is None:
            self._cex_searcher = IncrementalUnroller(
                self.model, check_kind=self._cex_check_kind(),
                proof_logging=self._group_proof_active())
        return self._cex_searcher

    def _group_refutation(self, bound: int) -> Optional[ResolutionProof]:
        """The trimmed refutation of ``bound`` from the searcher's own trace.

        Valid right after :meth:`_search_counterexample` returned ``None``
        for ``bound`` on a group-proof run: the searcher's last answer is
        then the UNSAT this bound's refutation check would re-derive, so
        its stripped trace (:meth:`IncrementalUnroller.refutation`) *is*
        the labelled refutation of the monolithic S₀ ∧ Tᵏ ∧ B — and the
        fresh-solver solve is skipped (``proof_group_solves_saved``).

        Returns ``None`` when the group path is off, the searcher did not
        actually refute ``bound`` (disabled search, depth mismatch), or
        stripping rejected the trace because a chain depends on a released
        earlier-depth group — the caller then falls back to the fresh
        monolithic proof-logged check (``proof_group_fallbacks``).
        """
        if not self._group_proof_active() or self._cex_searcher is None:
            return None
        searcher = self._cex_searcher
        if not searcher.proof_logging or searcher.depth != bound:
            return None
        try:
            with self.tracer.span("proof_strip", bound=bound):
                proof, strip = searcher.refutation()
        except ActivationDependencyError:
            self.stats.proof_group_fallbacks += 1
            if self.tracer.enabled:
                self.tracer.point("group_proof_fallback", bound=bound)
            return None
        self.stats.proof_group_solves_saved += 1
        self.stats.proof_chains_stripped += strip.chains_stripped
        if self.tracer.enabled:
            self.tracer.point("group_proof", bound=bound,
                              chains_stripped=strip.chains_stripped,
                              literals_stripped=strip.literals_stripped)
        return self._trim_proof(proof)

    def _search_counterexample(self, bound: int) -> Optional[Trace]:
        """Look for a counterexample at ``bound`` on the persistent solver.

        Returns the trace on SAT, ``None`` on UNSAT.  Engines call this once
        per outer bound *before* building the proof-logged check: on UNSAT
        the refutation check is guaranteed UNSAT as well (the incremental
        formula is the monolithic one modulo activation literals), so the
        expensive proof-logged solve never has to hunt for a model.

        With ``options.incremental_cex_search`` disabled this is a no-op
        (``None``) and the proof-logged check answers SAT-or-UNSAT itself,
        as the seed implementation did.
        """
        if not self.options.incremental_cex_search:
            return None
        if self.share is not None and bound <= self._share_depth:
            # A foreign DepthLemma already covers this bound, so the search
            # would come back UNSAT.  Skip the solve *and* the searcher
            # extension: extend() tolerates deliberately skipped depths, and
            # the first uncovered bound extends straight through the gap.
            self.stats.share_solves_skipped += 1
            if self.tracer.enabled:
                self.tracer.point("share_skip", bound=bound)
            return None
        searcher = self._cex_search_unroller()
        with self.tracer.span("cex_search"):
            searcher.extend_to(bound)
            assumptions = searcher.assumptions()
            if self.share is not None:
                self._share_install_frames(searcher, bound)
                assumptions = assumptions + self._share_assumptions()
            if self._solve(searcher.solver, assumptions) is SatResult.SAT:
                return searcher.extract_trace()
        return None

    # ------------------------------------------------------------------ #
    # Cooperative lemma sharing
    # ------------------------------------------------------------------ #
    # The one sharing contract (conservative; no knob): foreign
    # facts only ever reach the *proof-free* counterexample searcher.  Sound
    # reachability facts cannot cut a genuine counterexample (they only
    # remove models the real system never visits), and the proof-logged
    # refutation checks never see a foreign clause — so interpolants, and
    # with them k_fp/j_fp, are identical to a solo run.  Even an unsound
    # lemma that slips past validation can only flip the searcher from SAT
    # to UNSAT; the proof-logged check then finds the genuine counterexample
    # anyway and _share_check_disagreement retracts every import.

    def _share_attach(self) -> None:
        """Join the bus: fingerprint handshake + validation precompute."""
        assert self.share is not None
        fingerprint = model_fingerprint(self.model)
        if not self.share.register_fingerprint(fingerprint):
            _log.warning("%s: share fingerprint mismatch on %s — sharing "
                         "disabled for this run", self.name, self.model.name)
            self.share = None
            return
        # Precompute the validation simulation now, while the AIG is still
        # the pristine reduced model (engines bloat their private AIGs with
        # interpolant cones later, and simulating those is pure waste).
        self._share_validator = ImportValidator(self.model)
        self._share_validator.prepare()

    def _share_sync(self, boundary: int) -> None:
        """Exchange lemmas with the bus at a bound/obligation boundary.

        Imports are applied *only* here, and every accepted batch is
        committed back keyed by ``boundary`` — which is exactly what makes
        a recorded run replayable (:mod:`repro.share.log`).  May raise
        :class:`repro.share.bus.ShareCancelled` when the surrounding race
        already ended.
        """
        if self.share is None:
            return
        delivered = self.share.sync(boundary)
        if not delivered:
            return
        accepted: List[int] = []
        for shared in delivered:
            reason: Optional[str] = None
            if self._share_distrust:
                reason = "imports distrusted after a disagreement"
            elif self._share_validator is not None:
                reason = self._share_validator.reject_reason(shared.lemma)
            if reason is not None:
                self.stats.lemmas_retracted += 1
                if self.tracer.enabled:
                    self.tracer.point("share_reject", seq=shared.seq,
                                      source=shared.source,
                                      kind=shared.lemma.kind, reason=reason)
                continue
            if not self._share_apply(shared.lemma):
                continue  # sound but not usable by this engine: not accepted
            accepted.append(shared.seq)
            self.stats.lemmas_rx += 1
            if self.tracer.enabled:
                self.tracer.point("share_rx", seq=shared.seq,
                                  source=shared.source, kind=shared.lemma.kind)
        if accepted:
            self.share.commit(boundary, accepted)

    def _share_yield(self) -> None:
        """Heartbeat between solves inside one boundary (no lemma traffic).

        Keeps the cooperative turnstile's work clock fair for
        engines whose boundaries span many solver calls; a no-op solo and
        on every non-cooperative port.  May raise
        :class:`~repro.share.bus.ShareCancelled` mid-boundary — exactly
        the point: a racing loser is preempted between solves, not only at
        its next import boundary.
        """
        if self.share is not None:
            self.share.yield_turn()

    def _share_apply(self, lemma: Lemma) -> bool:
        """Stage one validated foreign lemma; ``False`` = not usable here.

        Base policy (the conservative contract): depth facts gate the
        searcher's solves, frame clauses constrain its unrolling.
        """
        if isinstance(lemma, DepthLemma):
            self._share_depth = max(self._share_depth, lemma.depth)
            return True
        if isinstance(lemma, FrameLemma):
            self._share_frames.append([lemma, -1])
            return True
        return False

    def _share_install_frames(self, searcher: IncrementalUnroller,
                              bound: int) -> None:
        """Assert accepted frame clauses at every searcher frame ≤ level.

        All foreign clauses live in one dedicated activation-literal group
        of the searcher's solver, so a disagreement retracts the clauses
        *and* everything learned from them in one release.
        """
        latches = searcher.unroller.model.latch_vars
        for entry in self._share_frames:
            lemma, installed_to = entry
            if any(var not in latches for var, _ in lemma.cube):
                # A var this engine's reduced model does not latch (e.g. the
                # peer kept a cone preprocessing removed here, or the lemma
                # slipped past validation): quarantine, never install.
                entry[1] = self.options.max_bound
                continue
            top = min(bound, lemma.level)
            if installed_to >= top:
                continue
            if self._share_group is None:
                self._share_group = searcher.solver.new_group()
            for frame in range(installed_to + 1, top + 1):
                clause = []
                for var, value in lemma.cube:
                    cnf_var = searcher.unroller.latch_cnf_var(frame, var)
                    clause.append(-cnf_var if value else cnf_var)
                searcher.solver.add_clause(clause, group=self._share_group)
            entry[1] = top

    def _share_assumptions(self) -> List[int]:
        """Assumption literals activating the foreign clause group."""
        if self._share_group is None or self._cex_searcher is None:
            return []
        return [self._cex_searcher.solver.group_literal(self._share_group)]

    def _share_publish(self, lemma: Lemma) -> None:
        """Offer a lemma to the bus (no-op for solo runs)."""
        if self.share is None:
            return
        self.share.publish(lemma)
        self.stats.lemmas_tx += 1
        if self.tracer.enabled:
            self.tracer.point("share_tx", kind=lemma.kind)

    def _share_publish_depth(self, depth: int) -> None:
        """Publish "no counterexample of length ≤ depth", once per frontier.

        Callers guarantee coverage of every length up to ``depth``: engines
        deepen strictly (each bound refuted in turn), and any skipped
        bound was covered by the foreign DepthLemma that caused the skip.
        """
        if self.share is None or depth <= self._share_published_depth:
            return
        self._share_published_depth = depth
        self._share_publish(DepthLemma(depth))

    def _share_check_disagreement(self, bound: int) -> None:
        """Retract every foreign import after a searcher/proof-check split.

        Called when the proof-logged check found a model at a bound the
        share-aware searcher skipped or refuted.  The proof-logged solver
        saw no foreign clause, so its model is a genuine counterexample and
        the FAIL verdict stands regardless; the imports — which claimed the
        bound unreachable — are distrusted wholesale: the dedicated clause
        group is released (neutralising the clauses and everything learned
        from them) and all staged foreign facts are dropped.
        """
        if self.share is None:
            return
        influenced = bound <= self._share_depth or self._share_group is not None
        if not influenced:
            return
        retracted = (len(self._share_frames)
                     + (1 if self._share_depth >= 0 else 0))
        if self._share_group is not None and self._cex_searcher is not None:
            self._cex_searcher.solver.release_group(self._share_group)
        self._share_group = None
        self._share_frames = []
        self._share_depth = -1
        self._share_distrust = True
        self.stats.lemmas_retracted += retracted
        if self.tracer.enabled:
            self.tracer.point("share_retract", bound=bound, lemmas=retracted)
        _log.warning("%s: foreign lemmas disagreed with the proof-logged "
                     "check at bound %d — %d import(s) retracted",
                     self.name, bound, retracted)

    # ------------------------------------------------------------------ #
    # Depth-0 check
    # ------------------------------------------------------------------ #
    def _depth_zero_trace(self) -> Optional[Trace]:
        """Return a depth-0 counterexample if an initial state violates p.

        The paper's algorithms start from k = 1, so every engine performs
        this check once up front; it also seeds the persistent incremental
        searcher (unless incremental search is disabled, in which case a
        throwaway solver is used).
        """
        if self.options.incremental_cex_search:
            return self._search_counterexample(0)

        from ..bmc.unroll import Unroller  # local import avoids a cycle

        with self.tracer.span("cex_search"):
            solver = CdclSolver()
            unroller = Unroller(self.model, solver)
            unroller.assert_initial_state(partition=1)
            unroller.assert_bad(0, partition=1)
            if self.model.constraints:
                unroller.assert_constraints_at(0, partition=1)
            if self._solve(solver) is SatResult.SAT:
                return unroller.extract_trace(0)
        return None

    # ------------------------------------------------------------------ #
    # Result packaging
    # ------------------------------------------------------------------ #
    def run(self) -> VerificationResult:
        """Execute the engine and return a :class:`VerificationResult`.

        The wall clock spent preprocessing the model at construction is
        charged here — it counts against ``options.time_limit`` and shows
        up in ``result.time_seconds`` — so preprocess-on and preprocess-off
        runs compare on their true total cost.
        """
        self._start_time = time.monotonic() - self._preprocess_seconds
        self.stats = EngineStats()
        if self.preprocess is not None:
            self.stats.pre_inputs_removed = self.preprocess.inputs_removed
            self.stats.pre_latches_removed = self.preprocess.latches_removed
            self.stats.pre_ands_removed = self.preprocess.ands_removed
            self.stats.fraig_classes = self.preprocess.fraig_classes
            self.stats.fraig_merges = self.preprocess.fraig_merges
            self.stats.fraig_sat_confirms = self.preprocess.fraig_sat_confirms
            self.stats.fraig_sat_refutes = self.preprocess.fraig_sat_refutes
            self.stats.fraig_rounds = self.preprocess.fraig_rounds
        self._cex_searcher = None
        self._fixpoint_checker = None
        # Foreign-lemma state is per-run (the clause group lived in the
        # searcher's solver that was just dropped).
        self._share_group = None
        self._share_frames = []
        self._share_depth = -1
        self._share_published_depth = -1
        self._share_distrust = False
        _log.info("%s: run starting on %s", self.name, self.model.name)
        try:
            with self.tracer.span("run", engine=self.name,
                                  model=self.model.name):
                result = self._run()
        except OutOfBudget as exc:
            result = VerificationResult(
                verdict=Verdict.OVERFLOW, engine=self.name,
                model_name=self.model.name, k_fp=exc.bound or self._current_bound,
                j_fp=None, message="resource budget exhausted")
        result.time_seconds = self._elapsed()
        result.stats = self.stats
        if self.tracer.enabled:
            self.tracer.point("verdict", engine=self.name,
                              model=self.model.name,
                              verdict=result.verdict.value,
                              k_fp=result.k_fp, j_fp=result.j_fp)
        _log.info("%s: %s on %s (k_fp=%s, j_fp=%s, clauses=%d)",
                  self.name, result.verdict.value, self.model.name,
                  result.k_fp, result.j_fp, self.stats.clauses_added)
        return result

    def _run(self) -> VerificationResult:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Common result constructors
    # ------------------------------------------------------------------ #
    def _pass(self, k_fp: int, j_fp: int) -> VerificationResult:
        return VerificationResult(verdict=Verdict.PASS, engine=self.name,
                                  model_name=self.model.name, k_fp=k_fp, j_fp=j_fp)

    def _fail(self, k_fp: int, trace: Optional[Trace]) -> VerificationResult:
        if trace is not None and self.preprocess is not None:
            # The trace is over the reduced model's variables; lift it back
            # to the original inputs/latches so validation (and the caller)
            # see a counterexample of the *source* model.
            trace = self.preprocess.lift_trace(trace)
        if trace is not None and self.options.validate_traces:
            if not trace.check(self._source_model):
                raise RuntimeError(
                    f"{self.name} produced a counterexample that does not replay "
                    f"on the concrete model {self.model.name}")
        # The paper reports j_fp = 0 for failures.
        return VerificationResult(verdict=Verdict.FAIL, engine=self.name,
                                  model_name=self.model.name, k_fp=k_fp, j_fp=0,
                                  trace=trace)

    def _unknown(self, k_reached: int, message: str) -> VerificationResult:
        return VerificationResult(verdict=Verdict.UNKNOWN, engine=self.name,
                                  model_name=self.model.name, k_fp=k_reached,
                                  j_fp=None, message=message)
