"""A proof-logging CDCL SAT solver.

This is the substrate the whole reproduction rests on: ``pysat`` does not
expose resolution proofs or interpolants, so the solver is written from
scratch.  It implements the standard modern CDCL loop:

* two-watched-literal unit propagation;
* first-UIP conflict analysis with clause learning;
* VSIDS-style variable activities with exponential decay and phase saving;
* Luby restarts;
* learned-clause database reduction driven by clause activities;
* solving under assumptions (MiniSAT-style) for incremental queries;
* a first-class *incremental* interface: clauses may be added between
  :meth:`~CdclSolver.solve` calls (watches are repaired against the current
  level-0 assignment on the fly), one at a time through
  :meth:`~CdclSolver.add_clause` or, from the Tseitin encoder, one AND-gate
  definition of three clauses per :meth:`~CdclSolver.define_and` call;
  learned clauses, VSIDS activities and
  saved phases all survive across calls, activation-literal clause groups
  (:meth:`~CdclSolver.new_group` / :meth:`~CdclSolver.release_group`) allow
  retractable constraints, and every call leaves a per-call
  :class:`~repro.sat.types.SolverStats` snapshot in
  :attr:`~CdclSolver.last_call_stats`;
* optional *resolution proof recording* (:class:`~repro.sat.proof.ResolutionProof`),
  the feature interpolation requires — and it composes with clause groups:
  grouped clauses are recorded with their activation literal, partition
  label and group tag, an UNSAT answer under assumptions records a
  *final-conflict chain* resolving down to a clause of negated assumption
  literals (:meth:`~CdclSolver.last_refutation_root`), and
  :func:`repro.sat.proof.strip_activations` then removes the active
  groups' literals to yield a genuine refutation of the caller's formula.
  Chains that depend on a *released* group cannot be repaired and raise
  :class:`~repro.sat.proof.ActivationDependencyError` — callers fall back
  to a fresh monolithic solve (see :mod:`repro.core.base`).

Performance note: a pure-Python CDCL is roughly two to three orders of
magnitude slower than MiniSAT.  The engines therefore run on down-scaled
benchmark instances; the *relative* behaviour of the verification
algorithms, which is what the paper studies, is preserved.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..cnf.cnf import Clause
from .proof import ResolutionProof
from .types import Budget, BudgetExceeded, SatResult, SolverStats

__all__ = ["CdclSolver", "SolverError"]

_UNASSIGNED = -1


class SolverError(RuntimeError):
    """Raised on misuse of the solver API."""


class _ClauseRec:
    """Internal clause record."""

    __slots__ = ("cid", "lits", "learned", "activity", "deleted")

    def __init__(self, cid: int, lits: List[int], learned: bool) -> None:
        self.cid = cid
        self.lits = lits
        self.learned = learned
        self.activity = 0.0
        self.deleted = False


def _lit_index(lit: int) -> int:
    """Map a DIMACS literal to a dense index (positive -> 2v, negative -> 2v+1)."""
    return (abs(lit) << 1) | (lit < 0)


class CdclSolver:
    """Conflict-driven clause-learning SAT solver with optional proof logging.

    Parameters
    ----------
    proof_logging:
        When ``True`` every clause addition and every learned clause is
        recorded in a :class:`ResolutionProof`, available through
        :meth:`proof` after an UNSAT answer.  Under assumptions the trace
        roots at a final-conflict clause (:meth:`last_refutation_root`)
        instead of the empty clause; see :meth:`proof`.
    """

    def __init__(self, proof_logging: bool = False) -> None:
        self.proof_logging = proof_logging
        self.stats = SolverStats()

        self._num_vars = 0
        self._clauses: List[_ClauseRec] = []
        self._watches: List[List[_ClauseRec]] = [[], []]  # indexed by _lit_index
        self._assign: List[int] = [_UNASSIGNED]           # var -> 0/1/_UNASSIGNED
        self._level: List[int] = [0]
        self._reason: List[Optional[_ClauseRec]] = [None]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._queue_head = 0

        self._activity: List[float] = [0.0]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._phase: List[bool] = [False]

        self._clause_inc = 1.0
        self._clause_decay = 0.999
        self._learned_count = 0
        self._max_learned = 4000

        self._next_cid = 0
        self._proof = ResolutionProof() if proof_logging else None
        self._root_conflict = False      # empty clause / level-0 conflict seen
        self._ok = True

        self._model: Optional[Dict[int, bool]] = None
        self._conflict_assumptions: Optional[List[int]] = None
        self._last_result: Optional[SatResult] = None
        #: Proof id of the last UNSAT answer's root clause (see
        #: :meth:`last_refutation_root`).
        self._refutation_root: Optional[int] = None

        #: Clause groups: activation variable -> clause records of the group.
        self._groups: Dict[int, List[_ClauseRec]] = {}
        #: Every activation variable ever handed out (released ones stay:
        #: strip_activations must know which variables to reject chains on).
        self._group_vars: Set[int] = set()
        #: Counters attributable to the most recent :meth:`solve` call
        #: (including any clauses added since the preceding call ended).
        self.last_call_stats = SolverStats()
        self._stats_mark = SolverStats()

    # ------------------------------------------------------------------ #
    # Problem construction
    # ------------------------------------------------------------------ #
    def new_var(self) -> int:
        """Allocate and return a fresh variable (1-based)."""
        self._num_vars += 1
        self._assign.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._watches.append([])
        self._watches.append([])
        return self._num_vars

    def ensure_var(self, var: int) -> None:
        """Make sure ``var`` exists (allocating intermediate variables)."""
        while self._num_vars < var:
            self.new_var()

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return sum(1 for c in self._clauses if not c.deleted and not c.learned)

    def add_clause(self, literals: Iterable[int],
                   partition: Optional[int] = None,
                   group: Optional[int] = None) -> Optional[int]:
        """Add an input clause; return its proof clause id (or ``None``).

        ``partition`` tags the clause for interpolation (which member of the
        ``Gamma`` partition / which side of the (A, B) cut it belongs to).
        Clauses may be added only before :meth:`solve` is first called or
        between calls at decision level 0 — the watch positions are chosen
        against the current level-0 assignment, so clauses arriving already
        unit or conflicting are handled correctly.

        ``group`` attaches the clause to an activation-literal group from
        :meth:`new_group`: the group's negated activation literal is appended,
        so the clause only constrains solves that assume the activation
        literal, and the whole group can later be retracted with
        :meth:`release_group`.
        """
        if self._trail_lim:
            raise SolverError("clauses may only be added at decision level 0")
        lits = list(dict.fromkeys(literals))
        if lits:
            if 0 in lits:
                raise SolverError("0 is not a valid literal")
            top = max(max(lits), -min(lits))
            if top > self._num_vars:
                self.ensure_var(top)
        if group is not None:
            if group not in self._groups:
                raise SolverError(f"unknown or released clause group {group}")
            if -group not in lits:
                lits.append(-group)
        self.stats.clauses_added += 1
        cid = self._next_cid
        self._next_cid += 1
        if self._proof is not None:
            self._proof.add_original(cid, Clause(lits), partition, group)

        # Tautologies are recorded (for proof completeness) but never watched.
        if len(set(map(abs, lits))) != len(lits):
            return cid

        rec = _ClauseRec(cid, lits, learned=False)
        if group is not None:
            self._groups[group].append(rec)
        if not lits:
            self._clauses.append(rec)
            self._ok = False
            self._root_conflict = True
            if self._proof is not None and self._proof.empty_clause_id is None:
                # The input itself contains the empty clause; re-register it as
                # the refutation root by a trivial (single-antecedent) chain.
                empty_cid = self._next_cid
                self._next_cid += 1
                self._proof.add_derived(empty_cid, Clause([]), [(None, cid)])
            return cid

        if len(lits) == 1:
            self._clauses.append(rec)
            if not self._enqueue(lits[0], rec):
                self._handle_root_conflict(rec)
            return cid

        self._watch_input(rec)
        return cid

    def define_and(self, out: int, left: int, right: int,
                   partition: Optional[int] = None,
                   group: Optional[int] = None) -> None:
        """Add the Tseitin definition of ``out <-> left & right``.

        Records ``[-out, left]``, ``[-out, right]`` and
        ``[out, -left, -right]``, in that order, exactly as three
        :meth:`add_clause` calls with the same ``partition`` and ``group``
        would: consecutive clause ids, the same proof clauses and the same
        level-0 watch, unit and conflict handling.  What it skips is the
        per-clause revalidation, which a gate definition cannot need — its
        three literals are on three distinct variables, so none of its
        clauses has a duplicate literal or is a tautology.  Raises
        :class:`SolverError` above decision level 0 and when two of
        ``out``, ``left`` and ``right`` (or the group) share a variable.
        """
        if self._trail_lim:
            raise SolverError("clauses may only be added at decision level 0")
        out_var, left_var, right_var = abs(out), abs(left), abs(right)
        if (left_var == right_var or out_var == left_var
                or out_var == right_var or not (out_var and left_var and right_var)):
            raise SolverError(
                f"gate {out} = {left} & {right} needs three distinct nonzero variables")
        top = max(out_var, left_var, right_var)
        if top > self._num_vars:
            self.ensure_var(top)
        if group is None:
            recs = None
            clauses = ([-out, left], [-out, right], [out, -left, -right])
        else:
            recs = self._groups.get(group)
            if recs is None:
                raise SolverError(f"unknown or released clause group {group}")
            if group in (out_var, left_var, right_var):
                raise SolverError(
                    f"gate {out} = {left} & {right} uses group variable {group}")
            clauses = ([-out, left, -group], [-out, right, -group],
                       [out, -left, -right, -group])
        self.stats.clauses_added += 3
        proof = self._proof
        for lits in clauses:
            # One id at a time: a clause arriving conflicting takes the next
            # id for the derived empty clause, exactly as in add_clause.
            cid = self._next_cid
            self._next_cid = cid + 1
            if proof is not None:
                proof.add_original(cid, Clause._of_distinct(lits), partition,
                                   group)
            rec = _ClauseRec(cid, lits, False)
            if recs is not None:
                recs.append(rec)
            self._watch_input(rec)

    def _watch_input(self, rec: _ClauseRec) -> None:
        """Store an input clause of two or more distinct variables.

        Watch positions go on literals that are not already false under the
        current level-0 assignment; a clause that arrives already unit or
        conflicting (possible because earlier units assigned variables at
        level 0) is propagated or refuted instead of watched.
        """
        lits = rec.lits
        assign = self._assign
        # A literal is false exactly when its variable's value equals its
        # sign bit (unassigned variables hold _UNASSIGNED, never 0 or 1).
        first, second = lits[0], lits[1]
        if assign[abs(first)] != (first < 0) and assign[abs(second)] != (second < 0):
            self._clauses.append(rec)
            watches = self._watches
            watches[(abs(first) << 1) | (first < 0)].append(rec)
            watches[(abs(second) << 1) | (second < 0)].append(rec)
            return
        non_false = [i for i, lit in enumerate(lits)
                     if assign[abs(lit)] != (lit < 0)]
        if len(non_false) < 2:
            self._clauses.append(rec)
            if not non_false:
                self._handle_root_conflict(rec)
            else:
                only = lits[non_false[0]]
                if assign[abs(only)] == _UNASSIGNED:
                    self._enqueue(only, rec)
            return
        i0, i1 = non_false[0], non_false[1]
        lits[0], lits[i0] = lits[i0], lits[0]
        lits[1], lits[i1] = lits[i1], lits[1]
        self._attach(rec)

    # ------------------------------------------------------------------ #
    # Activation-literal clause groups (incremental retraction)
    # ------------------------------------------------------------------ #
    def new_group(self) -> int:
        """Open a clause group; returns its handle (the activation literal).

        Clauses added with ``group=handle`` get ``-handle`` appended, so they
        only bind when :meth:`solve` is passed ``handle`` among its
        assumptions (see :meth:`group_literal`).  With proof logging on,
        grouped clauses are recorded with their group tag and the activation
        literals of the still-active groups can later be stripped from the
        recorded trace (:func:`repro.sat.proof.strip_activations`), turning
        an UNSAT-under-assumptions answer into a genuine refutation of the
        caller's formula.
        """
        var = self.new_var()
        self._groups[var] = []
        self._group_vars.add(var)
        return var

    def group_literal(self, group: int) -> int:
        """The assumption literal that activates a group's clauses."""
        if group not in self._groups:
            raise SolverError(f"unknown or released clause group {group}")
        return group

    def release_group(self, group: int) -> None:
        """Permanently retract a group's clauses.

        The activation literal is asserted false (satisfying, and thereby
        neutralising, every clause of the group as well as any learned clause
        derived from them) and the group's input clauses are dropped from the
        watch lists.
        """
        if self._trail_lim:
            raise SolverError("groups may only be released at decision level 0")
        recs = self._groups.pop(group, None)
        if recs is None:
            raise SolverError(f"unknown or released clause group {group}")
        for rec in recs:
            rec.deleted = True
        self.add_clause([-group])

    def group_vars(self) -> Set[int]:
        """Every activation variable ever allocated, released ones included.

        :func:`repro.sat.proof.strip_activations` takes the complement of
        the assumed groups within this set as the variables a valid core
        must never touch.
        """
        return set(self._group_vars)

    def active_groups(self) -> Set[int]:
        """The activation variables of the currently open (unreleased) groups."""
        return set(self._groups)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(self, assumptions: Sequence[int] = (),
              budget: Optional[Budget] = None) -> SatResult:
        """Run the CDCL search.

        Returns :data:`SatResult.SAT`, :data:`SatResult.UNSAT` or
        :data:`SatResult.UNKNOWN` (budget exhausted).  After SAT,
        :meth:`model` returns a satisfying assignment.  After UNSAT with
        assumptions, :meth:`conflict_assumptions` returns the subset of
        assumptions responsible.  After UNSAT without assumptions and with
        proof logging enabled, :meth:`proof` returns a refutation.

        The call may be repeated: the clause database (including learned
        clauses), variable activities and saved phases persist, which is what
        makes incremental BMC deepening profitable.  After every call,
        :attr:`last_call_stats` holds the counter deltas attributable to it
        (clauses encoded since the previous call included).
        """
        try:
            return self._solve_main(assumptions, budget)
        finally:
            self.stats.solve_calls += 1
            self.last_call_stats = self.stats.diff(self._stats_mark)
            self._stats_mark = self.stats.copy()

    def _solve_main(self, assumptions: Sequence[int],
                    budget: Optional[Budget]) -> SatResult:
        self._model = None
        self._conflict_assumptions = None
        self._refutation_root = None
        budget = budget or Budget()
        start = time.monotonic()

        if not self._ok:
            self._last_result = SatResult.UNSAT
            self._conflict_assumptions = []
            if self._proof is not None:
                self._refutation_root = self._proof.empty_clause_id
            return SatResult.UNSAT

        # Top-level propagation of everything pending.
        conflict = self._propagate()
        if conflict is not None:
            self._handle_root_conflict(conflict)
            self._last_result = SatResult.UNSAT
            self._conflict_assumptions = []
            return SatResult.UNSAT

        assumption_list = list(assumptions)
        for lit in assumption_list:
            self.ensure_var(abs(lit))

        try:
            result = self._search(assumption_list, budget, start)
        except BudgetExceeded:
            result = SatResult.UNKNOWN
        finally:
            self._backtrack(0)
        self._last_result = result
        return result

    def model(self) -> Dict[int, bool]:
        """Return the satisfying assignment found by the last SAT answer."""
        if self._model is None:
            raise SolverError("no model available (last call was not SAT)")
        return dict(self._model)

    def model_value(self, lit: int) -> bool:
        """Evaluate a literal in the last model."""
        model = self.model()
        value = model.get(abs(lit), False)
        return value if lit > 0 else not value

    def conflict_assumptions(self) -> List[int]:
        """Return the failed-assumption subset from the last UNSAT answer."""
        if self._conflict_assumptions is None:
            raise SolverError("no assumption conflict available")
        return list(self._conflict_assumptions)

    def proof(self) -> ResolutionProof:
        """Return the recorded proof after an UNSAT answer.

        After an assumption-free UNSAT answer the proof is a refutation
        (it derives the empty clause).  After UNSAT *under assumptions*
        the recorded trace instead ends in a final-conflict clause over
        negated assumption literals — its id is
        :meth:`last_refutation_root` — and callers solving on
        activation-literal clause groups turn it into a genuine refutation
        with :func:`repro.sat.proof.strip_activations`.
        """
        if self._proof is None:
            raise SolverError("proof logging is disabled")
        if not self._proof.is_refutation() and self._refutation_root is None:
            raise SolverError("no refutation recorded (last answer was not "
                              "a proof-logged UNSAT)")
        return self._proof

    def last_refutation_root(self) -> Optional[int]:
        """Proof id of the clause that roots the last UNSAT answer's derivation.

        The empty clause for assumption-free answers; the final-conflict
        clause (every literal a negated assumption) for answers under
        assumptions.  ``None`` when the last answer was not UNSAT, when
        proof logging is off, or when the inconsistency lay among the
        assumption literals themselves (two complementary assumptions) —
        no input-clause derivation exists in that case.
        """
        return self._refutation_root

    # ------------------------------------------------------------------ #
    # CDCL core
    # ------------------------------------------------------------------ #
    def _search(self, assumptions: List[int], budget: Budget,
                start_time: float) -> SatResult:
        restart_count = 0
        conflicts_until_restart = self._luby(restart_count) * 100
        # Budgets are per call: on a persistent (incremental) solver the
        # lifetime counter keeps growing, so the limit applies to the delta.
        conflict_base = self.stats.conflicts

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                if self._decision_level() == 0:
                    self._handle_root_conflict(conflict)
                    self._conflict_assumptions = []
                    return SatResult.UNSAT
                learned, backjump_level, chain = self._analyze(conflict)
                self._backtrack(backjump_level)
                self._record_learned(learned, chain)
                self._decay_activities()

                if budget.max_conflicts is not None and \
                        self.stats.conflicts - conflict_base >= budget.max_conflicts:
                    raise BudgetExceeded()
                if budget.max_time is not None and \
                        time.monotonic() - start_time > budget.max_time:
                    raise BudgetExceeded()

                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restart_count += 1
                    self.stats.restarts += 1
                    conflicts_until_restart = self._luby(restart_count) * 100
                    self._backtrack(0)
                if self._learned_count >= self._max_learned:
                    self._reduce_db()
                continue

            # No conflict: extend assumptions, then decide.
            if self._decision_level() < len(assumptions):
                lit = assumptions[self._decision_level()]
                value = self._value(lit)
                if value == 1:
                    # Already satisfied; open an empty decision level to keep
                    # the level <-> assumption correspondence simple.
                    self._new_decision_level()
                    continue
                if value == 0:
                    self._conflict_assumptions = self._analyze_final(lit, assumptions)
                    # Recorded before _backtrack(0) wipes the reasons; reads
                    # the trail only, so the search trajectory is untouched.
                    self._record_assumption_refutation(lit, assumptions)
                    return SatResult.UNSAT
                self._new_decision_level()
                self._enqueue(lit, None)
                continue

            lit = self._pick_branch()
            if lit is None:
                self._model = {v: self._assign[v] == 1
                               for v in range(1, self._num_vars + 1)}
                return SatResult.SAT
            self.stats.decisions += 1
            self._new_decision_level()
            self._enqueue(lit, None)

    def _propagate(self) -> Optional[_ClauseRec]:
        """Unit propagation; return the conflicting clause or ``None``."""
        # _lit_index is inlined throughout this method: the watch-list lookups
        # sit on the hottest path of the whole system and the function-call
        # overhead is measurable (see benchmarks/test_bench_incremental.py).
        watches = self._watches
        while self._queue_head < len(self._trail):
            lit = self._trail[self._queue_head]
            self._queue_head += 1
            self.stats.propagations += 1
            false_lit = -lit
            false_idx = (abs(false_lit) << 1) | (false_lit < 0)
            watch_list = watches[false_idx]
            new_watch_list: List[_ClauseRec] = []
            conflict: Optional[_ClauseRec] = None
            i = 0
            while i < len(watch_list):
                rec = watch_list[i]
                i += 1
                if rec.deleted:
                    continue
                lits = rec.lits
                # Normalise: watched literals sit at positions 0 and 1.
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                other = lits[0]
                if self._value(other) == 1:
                    new_watch_list.append(rec)
                    continue
                # Look for a replacement watch.
                found = False
                for k in range(2, len(lits)):
                    if self._value(lits[k]) != 0:
                        lits[1], lits[k] = lits[k], lits[1]
                        new_watch = lits[1]
                        watches[(abs(new_watch) << 1) | (new_watch < 0)].append(rec)
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                new_watch_list.append(rec)
                if self._value(other) == 0:
                    conflict = rec
                    # Keep the remaining watchers.
                    new_watch_list.extend(
                        r for r in watch_list[i:] if not r.deleted)
                    self._queue_head = len(self._trail)
                    break
                self._enqueue(other, rec)
            watches[false_idx] = new_watch_list
            if conflict is not None:
                return conflict
        return None

    def _analyze(self, conflict: _ClauseRec) -> Tuple[List[int], int,
                                                      List[Tuple[Optional[int], int]]]:
        """First-UIP conflict analysis.

        Returns ``(learned_clause, backjump_level, proof_chain)``.
        """
        learned: List[int] = []
        seen: Set[int] = set()
        counter = 0
        current_level = self._decision_level()
        chain: List[Tuple[Optional[int], int]] = [(None, conflict.cid)]
        clause: Optional[_ClauseRec] = conflict
        trail_index = len(self._trail) - 1
        pivot_lit: Optional[int] = None

        while True:
            assert clause is not None
            self._bump_clause(clause)
            for lit in clause.lits:
                if pivot_lit is not None and lit == pivot_lit:
                    continue
                var = abs(lit)
                if var in seen:
                    continue
                # Literals falsified at level 0 are kept in the learned
                # clause: this keeps the recorded resolution chain an exact
                # derivation of the learned clause, which the interpolation
                # replay relies on.
                seen.add(var)
                self._bump_var(var)
                if self._level[var] == current_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Find the next literal to resolve on (most recent on the trail).
            while trail_index >= 0 and (abs(self._trail[trail_index]) not in seen
                                        or self._level[abs(self._trail[trail_index])]
                                        != current_level):
                trail_index -= 1
            if trail_index < 0:  # pragma: no cover - defensive
                raise SolverError("conflict analysis ran off the trail")
            pivot_var = abs(self._trail[trail_index])
            seen.discard(pivot_var)
            counter -= 1
            trail_index -= 1
            if counter <= 0:
                # First UIP reached: the asserting literal.
                uip_lit = -self._trail[trail_index + 1]
                learned.insert(0, uip_lit)
                break
            clause = self._reason[pivot_var]
            if clause is None:  # pragma: no cover - defensive
                raise SolverError("missing reason during conflict analysis")
            pivot_lit = self._trail[trail_index + 1]
            chain.append((pivot_var, clause.cid))

        # Reorder so the second literal has the highest decision level among
        # the non-asserting literals: after backjumping this keeps the second
        # watch unassigned as long as possible.
        if len(learned) > 2:
            best = max(range(1, len(learned)), key=lambda i: self._level[abs(learned[i])])
            learned[1], learned[best] = learned[best], learned[1]
        # Backjump level = highest level among the non-asserting literals.
        if len(learned) == 1:
            backjump = 0
        else:
            backjump = max(self._level[abs(l)] for l in learned[1:])
        self.stats.learned_clauses += 1
        self.stats.learned_literals += len(learned)
        return learned, backjump, chain

    def _analyze_final(self, failed_lit: int, assumptions: List[int]) -> List[int]:
        """Compute a subset of ``assumptions`` that together are inconsistent.

        ``failed_lit`` is the assumption found falsified; the returned set
        contains it plus the assumptions whose propagation forced it false.
        """
        assumption_set = set(assumptions)
        conflict_set: Set[int] = {failed_lit} if failed_lit in assumption_set else set()
        seen: Set[int] = set()
        queue = [abs(failed_lit)]
        while queue:
            var = queue.pop()
            if var in seen or self._level[var] == 0:
                continue
            seen.add(var)
            reason = self._reason[var]
            if reason is None:
                # A decision: under assumption solving every decision below
                # len(assumptions) levels is an assumption literal.
                true_lit = var if self._assign[var] == 1 else -var
                if true_lit in assumption_set:
                    conflict_set.add(true_lit)
                elif -true_lit in assumption_set:
                    conflict_set.add(-true_lit)
            else:
                for other in reason.lits:
                    queue.append(abs(other))
        return sorted(conflict_set, key=abs)

    def _record_assumption_refutation(self, failed_lit: int,
                                      assumptions: List[int]) -> None:
        """Record the final-conflict chain of an UNSAT-under-assumptions answer.

        Called when extending the assumptions found ``failed_lit`` already
        falsified.  Starting from its falsifying reason, every falsified
        literal that is not a negated assumption is resolved against its own
        reason (latest-assigned first, so each step only introduces literals
        assigned earlier), terminating in a clause whose literals are all
        negated assumptions — the assumption-level analogue of the empty
        clause, and the root :func:`repro.sat.proof.strip_activations`
        reduces to the empty clause when the assumptions are activation
        literals.  The walk only reads the trail and the reasons, so
        recording never perturbs the search trajectory.
        """
        if self._proof is None:
            return
        reason = self._reason[abs(failed_lit)]
        if reason is None:
            # The complement of ``failed_lit`` is itself an assumption
            # decision: the inconsistency lies among the assumption literals,
            # not the clauses — there is no input-clause derivation.
            return
        assumption_set = set(assumptions)
        position = {abs(lit): i for i, lit in enumerate(self._trail)}
        chain: List[Tuple[Optional[int], int]] = [(None, reason.cid)]
        current: Set[int] = set(reason.lits)
        guard = 0
        while True:
            guard += 1
            if guard > 10_000_000:  # pragma: no cover - defensive
                raise SolverError("runaway assumption-conflict analysis")
            pending = [lit for lit in current if -lit not in assumption_set]
            if not pending:
                break
            lit = max(pending, key=lambda l: position[abs(l)])
            var = abs(lit)
            lit_reason = self._reason[var]
            if lit_reason is None:  # pragma: no cover - defensive
                raise SolverError(f"falsified literal {lit} has no reason "
                                  "in the final conflict")
            chain.append((var, lit_reason.cid))
            current.discard(lit)
            current |= {other for other in lit_reason.lits if abs(other) != var}
        cid = self._next_cid
        self._next_cid += 1
        self._proof.add_derived(cid, Clause(sorted(current)), chain)
        self._refutation_root = cid

    def _record_learned(self, learned: List[int],
                        chain: List[Tuple[Optional[int], int]]) -> None:
        cid = self._next_cid
        self._next_cid += 1
        if self._proof is not None:
            self._proof.add_derived(cid, Clause(learned), chain)
        rec = _ClauseRec(cid, list(learned), learned=True)
        if len(learned) == 1:
            # Unit learned clause: asserting at level 0 after the backjump.
            self._enqueue(learned[0], rec)
            self._clauses.append(rec)
            return
        rec.activity = self._clause_inc
        self._attach(rec)
        self._learned_count += 1
        self._enqueue(learned[0], rec)

    def _handle_root_conflict(self, conflict: _ClauseRec) -> None:
        """Derive the empty clause from a conflict at decision level 0."""
        self._ok = False
        first = not self._root_conflict
        self._root_conflict = True
        if self._proof is None:
            return
        if first and self._proof.empty_clause_id is None:
            # Resolve the conflicting clause against level-0 reasons until
            # empty.
            chain: List[Tuple[Optional[int], int]] = [(None, conflict.cid)]
            current = {l for l in conflict.lits}
            guard = 0
            while current:
                guard += 1
                if guard > 10_000_000:  # pragma: no cover - defensive
                    raise SolverError("runaway final conflict analysis")
                lit = next(iter(current))
                var = abs(lit)
                reason = self._reason[var]
                if reason is None:
                    raise SolverError(
                        f"variable {var} falsified at level 0 without a reason")
                chain.append((var, reason.cid))
                current.discard(lit)
                current.discard(-lit)
                for other in reason.lits:
                    if abs(other) != var:
                        current.add(other)
                # Remove literals satisfied... none can be satisfied: all
                # level-0 reasons imply their head literal; the remaining
                # literals are the falsified tail literals, which must be
                # resolved away in turn.
            cid = self._next_cid
            self._next_cid += 1
            self._proof.add_derived(cid, Clause([]), chain)
        self._refutation_root = self._proof.empty_clause_id

    # ------------------------------------------------------------------ #
    # Assignment management
    # ------------------------------------------------------------------ #
    def _value(self, lit: int) -> int:
        """Return 1 (true), 0 (false) or _UNASSIGNED for a literal."""
        value = self._assign[abs(lit)]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value if lit > 0 else 1 - value

    def _enqueue(self, lit: int, reason: Optional[_ClauseRec]) -> bool:
        value = self._value(lit)
        if value == 1:
            return True
        if value == 0:
            return False
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else 0
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))
        self.stats.max_decision_level = max(self.stats.max_decision_level,
                                            self._decision_level())

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            self._assign[var] = _UNASSIGNED
            self._reason[var] = None
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._queue_head = min(self._queue_head, len(self._trail))

    # ------------------------------------------------------------------ #
    # Heuristics
    # ------------------------------------------------------------------ #
    def _pick_branch(self) -> Optional[int]:
        best_var = None
        best_act = -1.0
        for var in range(1, self._num_vars + 1):
            if self._assign[var] == _UNASSIGNED and self._activity[var] > best_act:
                best_act = self._activity[var]
                best_var = var
        if best_var is None:
            return None
        return best_var if self._phase[best_var] else -best_var

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _bump_clause(self, rec: _ClauseRec) -> None:
        if not rec.learned:
            return
        rec.activity += self._clause_inc
        if rec.activity > 1e20:
            for other in self._clauses:
                if other.learned:
                    other.activity *= 1e-20
            self._clause_inc *= 1e-20

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._clause_inc /= self._clause_decay

    def _reduce_db(self) -> None:
        """Remove the less active half of the learned clauses."""
        self.stats.db_reductions += 1
        locked = {id(self._reason[abs(lit)]) for lit in self._trail
                  if self._reason[abs(lit)] is not None}
        learned = [c for c in self._clauses
                   if c.learned and not c.deleted and len(c.lits) > 2]
        learned.sort(key=lambda c: c.activity)
        to_remove = learned[: len(learned) // 2]
        for rec in to_remove:
            if id(rec) in locked:
                continue
            rec.deleted = True
            self._learned_count -= 1
            self.stats.removed_clauses += 1
        self._max_learned = int(self._max_learned * 1.2)

    @staticmethod
    def _luby(index: int) -> int:
        """Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...

        ``index`` is 0-based.
        """
        i = index + 1
        while True:
            k = 1
            while (1 << k) - 1 < i:
                k += 1
            if (1 << k) - 1 == i:
                return 1 << (k - 1)
            i -= (1 << (k - 1)) - 1

    # ------------------------------------------------------------------ #
    # Watches
    # ------------------------------------------------------------------ #
    def _attach(self, rec: _ClauseRec) -> None:
        self._clauses.append(rec)
        self._watches[_lit_index(rec.lits[0])].append(rec)
        self._watches[_lit_index(rec.lits[1])].append(rec)
