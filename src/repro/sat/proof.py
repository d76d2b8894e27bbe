"""Resolution proof recording and checking.

The CDCL solver records, for every learned clause, the *regular input
resolution chain* that derives it: a starting clause followed by a sequence
of ``(pivot variable, antecedent clause)`` resolution steps.  When the
solver reaches a conflict at decision level 0 it performs one final analysis
that derives the empty clause, completing a refutation.

The proof is the object interpolation works on: :mod:`repro.itp.craig`
replays the chains bottom-up, attaching partial interpolants to every
clause.  Because the proof keeps the *original* clauses with their partition
labels (which time frame / which side of the (A, B) split they came from),
a single proof supports extraction of a whole interpolation sequence — the
key property the paper exploits (Section II-C, Eq. (2)).

The module also contains an independent proof checker used by the
test-suite: it re-performs every resolution step with the slow-but-obvious
:meth:`Clause.resolve` and confirms the final clause is empty.

Activation-literal clause groups and proofs
-------------------------------------------
A proof recorded on an *incremental* solver (activation-literal clause
groups, :meth:`repro.sat.solver.CdclSolver.new_group`) is a refutation of
the formula *under the assumed activation literals*, not of the caller's
formula: every clause of a group ``g`` carries the literal ``-g``, and so
does every derived clause that transitively used one.  The key structural
fact that makes such proofs salvageable is **literal-presence provenance**:
no clause ever contains the *positive* activation literal ``+g`` (grouped
input clauses only append ``-g``, and learned clauses inherit literals from
input clauses), so no resolution step ever pivots on an activation
variable, and a derived clause depends on group ``g`` exactly when ``-g``
appears among its literals.  :func:`strip_activations` exploits this:
deleting the active groups' ``-g`` literals from every clause commutes with
every recorded resolution step (the pivot is never ``g``), so the chains
replay unchanged and the stripped proof is a genuine refutation of the
caller's formula.  Clauses carrying a *released* (or foreign) group's
literal cannot be repaired that way — their group clauses are gone from
the formula — so a core that touches one is rejected with
:class:`ActivationDependencyError`, the clean fallback signal.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..cnf.cnf import Clause

_PARTITION = operator.attrgetter("partition")
_LITERALS = operator.attrgetter("clause.literals")

__all__ = ["ProofNode", "ResolutionProof", "LabelMasks", "ProofError",
           "ActivationDependencyError", "check_proof",
           "ProofReductionStats", "reduce_proof",
           "ActivationStripStats", "strip_activations"]


class ProofError(ValueError):
    """Raised when a recorded proof fails validation."""


class ActivationDependencyError(ProofError):
    """A refutation core depends on a released (or foreign) clause group.

    Raised by :func:`strip_activations` when the derivation of the root
    clause uses a clause whose activation group is no longer active: the
    group's input clauses are not part of the caller's formula any more, so
    no activation-free refutation can be reconstructed from this trace.
    Callers treat this as the clean signal to fall back to a fresh
    monolithic proof-logged solve.
    """


class ProofNode:
    """One clause in the proof DAG.

    ``chain`` is empty for original (root) clauses.  For derived clauses it
    lists the resolution steps: the derivation starts from clause
    ``chain[0][1]`` (whose pivot entry is ``None``) and successively resolves
    with ``chain[i][1]`` on pivot variable ``chain[i][0]``.

    ``partition`` is the partition label of an original clause (``None``
    for derived clauses).  ``group`` is the activation group of an original
    clause (``None`` for ungrouped clauses and for derived clauses); derived
    clauses need no explicit tag, since their group provenance is the
    presence of ``-g`` among their literals (see the module docstring).
    """

    __slots__ = ("clause_id", "clause", "chain", "partition", "group")

    def __init__(self, clause_id: int, clause: Clause,
                 chain: Optional[List[Tuple[Optional[int], int]]] = None,
                 partition: Optional[int] = None,
                 group: Optional[int] = None) -> None:
        self.clause_id = clause_id
        self.clause = clause
        self.chain: List[Tuple[Optional[int], int]] = [] if chain is None else chain
        self.partition = partition
        self.group = group

    def __repr__(self) -> str:
        return (f"ProofNode(clause_id={self.clause_id}, clause={self.clause!r}, "
                f"chain={self.chain!r}, partition={self.partition!r}, "
                f"group={self.group!r})")

    @property
    def is_original(self) -> bool:
        return not self.chain


class LabelMasks(NamedTuple):
    """Which partition labels the variables of a proof's originals occur under.

    Every label (``None`` included) owns one bit of ``bits``; ``masks`` maps
    each variable of an original clause to the union of the bits of the
    labels of the clauses it occurs in.  Locality under any (A, B) split is
    then two bit tests per variable (:mod:`repro.itp.labeling`).
    """

    bits: Dict[Optional[int], int]
    masks: Dict[int, int]


def _label_masks(originals: Sequence[ProofNode]) -> LabelMasks:
    """Compute the :class:`LabelMasks` of a list of original nodes.

    Solvers add a partition's clauses in runs, so the literals are gathered
    run by run; only variables shared between labels (the cut variables of
    a time-frame partitioning) take the per-variable path.
    """
    by_label: Dict[Optional[int], List[int]] = {}
    for label, run in itertools.groupby(originals, _PARTITION):
        literals = by_label.get(label)
        if literals is None:
            literals = by_label[label] = []
        literals.extend(itertools.chain.from_iterable(map(_LITERALS, run)))
    bits: Dict[Optional[int], int] = {}
    masks: Dict[int, int] = {}
    for label, literals in by_label.items():
        bit = bits[label] = 1 << len(bits)
        variables = set(map(abs, literals))
        shared = variables.intersection(masks)
        masks.update(dict.fromkeys(variables - shared, bit))
        for var in shared:
            masks[var] |= bit
    return LabelMasks(bits, masks)


class ResolutionProof:
    """A recorded resolution refutation (or partial derivation).

    Clause identifiers are dense integers assigned by the solver in creation
    order, which guarantees antecedents always have smaller identifiers than
    the clauses derived from them — the property the interpolation replay
    relies on to process nodes in one pass.

    Nodes are never modified once added, so proofs derived from this one
    (:func:`reduce_proof`) share its original nodes instead of copying them.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, ProofNode] = {}
        self._order: List[int] = []
        self._originals: List[ProofNode] = []
        self.empty_clause_id: Optional[int] = None
        #: ``(originals covered, masks)``: the cached :meth:`label_masks`.
        #: Never updated in place, so proofs sharing it stay unaffected
        #: when this one grows.
        self._labels: Optional[Tuple[int, LabelMasks]] = None

    # ------------------------------------------------------------------ #
    # Construction (called by the solver)
    # ------------------------------------------------------------------ #
    def add_original(self, clause_id: int, clause: Clause,
                     partition: Optional[int] = None,
                     group: Optional[int] = None) -> None:
        """Register an original (input) clause.

        ``group`` records the activation-literal group the clause belongs
        to, when the solver added it under one — the bookkeeping
        :func:`strip_activations` uses to tell a group's defining clauses
        apart from permanent ones.
        """
        if clause_id in self._nodes:
            raise ProofError(f"duplicate clause id {clause_id}")
        node = self._nodes[clause_id] = ProofNode(clause_id, clause, [],
                                                  partition, group)
        self._order.append(clause_id)
        self._originals.append(node)

    def _adopt(self, node: ProofNode) -> None:
        """Register another proof's original node, shared rather than copied."""
        if node.clause_id in self._nodes:
            raise ProofError(f"duplicate clause id {node.clause_id}")
        self._nodes[node.clause_id] = node
        self._order.append(node.clause_id)
        self._originals.append(node)

    def add_derived(self, clause_id: int, clause: Clause,
                    chain: Sequence[Tuple[Optional[int], int]]) -> None:
        """Register a derived clause with its resolution chain."""
        if clause_id in self._nodes:
            raise ProofError(f"duplicate clause id {clause_id}")
        if not chain:
            raise ProofError("derived clause requires a non-empty chain")
        if chain[0][0] is not None:
            raise ProofError("first chain entry must carry no pivot")
        for pivot, antecedent in chain:
            if antecedent not in self._nodes:
                raise ProofError(f"chain references unknown clause {antecedent}")
            if antecedent >= clause_id:
                raise ProofError("antecedent ids must precede the derived clause id")
        self._nodes[clause_id] = ProofNode(clause_id, clause, list(chain), None)
        self._order.append(clause_id)
        if len(clause) == 0:
            self.empty_clause_id = clause_id

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __contains__(self, clause_id: int) -> bool:
        return clause_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, clause_id: int) -> ProofNode:
        return self._nodes[clause_id]

    def nodes_in_order(self) -> List[ProofNode]:
        """All nodes in creation (topological) order."""
        return [self._nodes[cid] for cid in self._order]

    def original_nodes(self) -> List[ProofNode]:
        return list(self._originals)

    def derived_nodes(self) -> List[ProofNode]:
        return [n for n in self.nodes_in_order() if not n.is_original]

    def is_refutation(self) -> bool:
        """``True`` when the proof derives the empty clause."""
        return self.empty_clause_id is not None

    def partitions(self) -> Set[int]:
        """Return the set of partition labels used by original clauses."""
        return {p for p in self.label_masks().bits if p is not None}

    def label_masks(self) -> LabelMasks:
        """The partition labels every variable of the originals occurs under.

        Computed once and cached; adding originals later makes the next
        call compute a fresh one.
        """
        count = len(self._originals)
        if self._labels is None or self._labels[0] != count:
            self._labels = (count, _label_masks(self._originals))
        return self._labels[1]

    def _leaves(self) -> "ResolutionProof":
        """A new proof holding this proof's original nodes and label masks.

        The nodes and the cached masks are shared, not copied; derived
        clauses added to either proof afterwards stay its own.
        """
        leaves = ResolutionProof()
        leaves._originals = list(self._originals)
        leaves._nodes = {node.clause_id: node for node in self._originals}
        leaves._order = list(leaves._nodes)
        leaves._labels = self._labels
        return leaves

    # ------------------------------------------------------------------ #
    # Core DAG extraction
    # ------------------------------------------------------------------ #
    def core_ids(self, root_id: Optional[int] = None) -> List[int]:
        """Return the clause ids reachable from ``root_id`` (default: the empty clause).

        The result is in topological order (antecedents before consequents,
        since ids are creation-ordered) and is the *unsat core DAG*
        interpolation actually traverses; chains recorded for clauses that
        never feed the refutation are skipped.
        """
        if root_id is None:
            if self.empty_clause_id is None:
                raise ProofError("proof does not derive the empty clause")
            root_id = self.empty_clause_id
        nodes = self._nodes
        needed: Set[int] = {root_id}
        stack = [root_id]
        while stack:
            for _, antecedent in nodes[stack.pop()].chain:
                if antecedent not in needed:
                    needed.add(antecedent)
                    stack.append(antecedent)
        return sorted(needed)

    def core_original_clauses(self) -> List[ProofNode]:
        """Original clauses participating in the refutation."""
        core = set(self.core_ids())
        return [n for n in self.original_nodes() if n.clause_id in core]

    def stats(self) -> Dict[str, int]:
        core = self.core_ids() if self.is_refutation() else []
        return {
            "clauses": len(self._nodes),
            "original": len(self.original_nodes()),
            "derived": len(self.derived_nodes()),
            "core": len(core),
            "refutation": int(self.is_refutation()),
        }


def _resolve_chain(proof: ResolutionProof, node: ProofNode) -> Clause:
    """Replay one node's chain with explicit resolution; return the result."""
    current = proof.node(node.chain[0][1]).clause
    for pivot, antecedent_id in node.chain[1:]:
        if pivot is None:
            raise ProofError("only the first chain entry may omit the pivot")
        antecedent = proof.node(antecedent_id).clause
        current = current.resolve(antecedent, pivot)
    return current


# --------------------------------------------------------------------- #
# Proof post-processing (trimming + RecyclePivots)
# --------------------------------------------------------------------- #
@dataclass
class ProofReductionStats:
    """What :func:`reduce_proof` removed from a refutation.

    ``nodes_trimmed`` is the headline counter threaded into the engines'
    statistics: how many proof nodes the reduced refutation no longer
    carries (off-core derived clauses, plus chains that RecyclePivots
    collapsed into an alias for one of their premises).
    """

    nodes_before: int = 0
    nodes_after: int = 0
    steps_dropped: int = 0
    clauses_strengthened: int = 0

    @property
    def nodes_trimmed(self) -> int:
        return self.nodes_before - self.nodes_after


def _chain_pivot_literal(pivot: int, antecedent: Clause) -> Optional[int]:
    """The pivot literal as it occurs in the antecedent clause (or ``None``)."""
    if pivot in antecedent.literals:
        return pivot
    if -pivot in antecedent.literals:
        return -pivot
    return None


def _mark_recyclable(proof: ResolutionProof, derived_core: List["ProofNode"],
                     refcount: Dict[int, int]
                     ) -> Tuple[Dict[int, int], Dict[int, Set[int]]]:
    """RecyclePivots marking pass over the core's chains.

    Walks the derivation DAG from the empty clause towards the leaves,
    maintaining per (virtual) resolvent the set of *safe literals* — pivot
    literals guaranteed to be resolved away again on the (unique) path down
    to the root.  A resolution step whose pivot is already safe is
    redundant: the premise carrying the safe literal can replace the
    resolvent, because the extra literal it leaves behind dies downstream
    anyway.  Nodes referenced from more than one chain get an empty safe
    set (the paths below them diverge), the classic single-child
    restriction of RecyclePivots.

    Returns ``(start_at, dropped)``: for each chain, the step index the
    reconstruction should start from (0 = the recorded start clause) and
    the set of step indices to drop.
    """
    rl: Dict[int, Set[int]] = {}
    live: Set[int] = set()
    start_at: Dict[int, int] = {}
    dropped: Dict[int, Set[int]] = {}
    root_id = proof.empty_clause_id
    assert root_id is not None
    live.add(root_id)
    rl[root_id] = set()
    nodes = proof._nodes

    def note_antecedent(antecedent_id: int, contribution: Set[int]) -> None:
        if nodes[antecedent_id].chain:
            live.add(antecedent_id)
            if refcount.get(antecedent_id, 0) == 1:
                rl[antecedent_id] = contribution
            else:
                rl[antecedent_id] = set()

    for node in reversed(derived_core):
        cid = node.clause_id
        if cid not in live:
            continue  # every reference to this chain was recycled away
        safe = rl.get(cid, set()) if refcount.get(cid, 0) <= 1 else set()
        start = 0
        drops: Set[int] = set()
        chain = node.chain
        for index in range(len(chain) - 1, 0, -1):
            pivot, antecedent_id = chain[index]
            assert pivot is not None
            lit = _chain_pivot_literal(pivot, nodes[antecedent_id].clause)
            if lit is None:
                # Defensive: a malformed step; keep it, stop propagating.
                safe = set()
                continue
            if -lit in safe:
                # The prefix side's pivot literal survives harmlessly:
                # drop this step, keep resolving the prefix.
                drops.add(index)
                continue
            if lit in safe:
                # The antecedent side's pivot literal is safe below: the
                # whole prefix (steps 1..index) is bypassed and the chain
                # restarts at this antecedent.
                start = index
                note_antecedent(antecedent_id, set(safe))
                break
            note_antecedent(antecedent_id, safe | {lit})
            safe = safe | {-lit}
        if start == 0:
            note_antecedent(chain[0][1], safe)
        start_at[cid] = start
        dropped[cid] = drops
    return start_at, dropped


def reduce_proof(proof: ResolutionProof, recycle_pivots: bool = True
                 ) -> Tuple[ResolutionProof, ProofReductionStats]:
    """Return a reduced copy of a refutation, plus what the reduction did.

    Two post-processing passes over the recorded resolution trace:

    * **core trimming** — derived clauses whose chains never feed the empty
      clause are dropped (the solver records every learned clause, but a
      typical refutation uses a fraction of them);
    * **RecyclePivots** (``recycle_pivots=True``) — redundant-pivot
      elimination in the style of Bar-Ilan et al. (HVC'08): a resolution
      step whose pivot literal is resolved away again on every path below
      is bypassed, and a reconstruction replay propagates the resulting
      clause strengthenings through the remaining chains (a step whose
      pivot no longer occurs in the intermediate clause is skipped; an
      antecedent that lost its pivot literal subsumes the resolvent and
      replaces it).

    Every *original* clause is kept, with its partition label, even when it
    falls outside the core: interpolation classifies variable locality over
    the full (A, B) clause sets (see :mod:`repro.itp.labeling`), so keeping
    the leaves intact guarantees a reduced proof never changes a variable's
    class — only the derivation DAG above the leaves shrinks.  The leaves
    are shared with ``proof``, not copied: the reduced proof holds the same
    :class:`ProofNode` objects and the same cached
    :meth:`ResolutionProof.label_masks`, and clauses the solver adds to
    ``proof`` afterwards do not reach it.  The reduced
    proof replays exactly (reconstruction *is* a replay), so it satisfies
    :func:`check_proof`, and any interpolant extracted from it is a valid
    interpolant for the original (A, B) split.
    """
    if not proof.is_refutation():
        raise ProofError("only refutations can be reduced")
    root_id = proof.empty_clause_id
    assert root_id is not None
    core = proof.core_ids()
    derived_core = [node for node in map(proof.node, core) if node.chain]

    refcount: Dict[int, int] = {}
    for node in derived_core:
        for _, antecedent_id in node.chain:
            refcount[antecedent_id] = refcount.get(antecedent_id, 0) + 1

    stats = ProofReductionStats(nodes_before=len(proof))
    if recycle_pivots:
        start_at, dropped = _mark_recyclable(proof, derived_core, refcount)
    else:
        start_at = {n.clause_id: 0 for n in derived_core}
        dropped = {n.clause_id: set() for n in derived_core}

    # Reconstruction: replay every surviving chain front to back, applying
    # the marks and propagating clause strengthenings.  ``alias`` redirects
    # references to chains that collapsed into a single premise.
    alias: Dict[int, int] = {}
    new_clauses: Dict[int, Clause] = {}
    new_chains: Dict[int, List[Tuple[Optional[int], int]]] = {}

    def resolve_id(cid: int) -> int:
        while cid in alias:
            cid = alias[cid]
        return cid

    def clause_of(cid: int) -> Clause:
        if cid in new_clauses:
            return new_clauses[cid]
        return proof.node(cid).clause

    for node in derived_core:
        cid = node.clause_id
        if cid not in start_at:
            continue  # recycled away entirely (never referenced any more)
        chain = node.chain
        start = start_at[cid]
        drops = dropped[cid]
        if start == 0:
            begin_id = resolve_id(chain[0][1])
        else:
            begin_id = resolve_id(chain[start][1])
        current = set(clause_of(begin_id).literals)
        rebuilt: List[Tuple[Optional[int], int]] = [(None, begin_id)]
        for index in range(start + 1 if start else 1, len(chain)):
            if index in drops:
                stats.steps_dropped += 1
                continue
            pivot, antecedent_id = chain[index]
            assert pivot is not None
            antecedent_id = resolve_id(antecedent_id)
            c_pos, c_neg = pivot in current, -pivot in current
            if not c_pos and not c_neg:
                # An earlier strengthening already removed the pivot: the
                # intermediate clause subsumes the would-be resolvent.
                stats.steps_dropped += 1
                continue
            antecedent = clause_of(antecedent_id).literals
            d_pos, d_neg = pivot in antecedent, -pivot in antecedent
            if not d_pos and not d_neg:
                # The antecedent lost its pivot literal: it subsumes the
                # resolvent outright and replaces the whole prefix.
                current = set(antecedent)
                rebuilt = [(None, antecedent_id)]
                stats.steps_dropped += 1
                continue
            if (c_neg and d_pos) or (c_pos and d_neg):
                lit = pivot if (c_neg and d_pos) else -pivot
                current = ((current - {-lit})
                           | (set(antecedent) - {lit}))
                rebuilt.append((pivot, antecedent_id))
            else:
                # Same polarity on both sides (possible only through a
                # tautological ancestor): the original step removed the
                # complement, which the strengthened clause no longer
                # carries, so skipping preserves subsumption.
                stats.steps_dropped += 1
        if len(rebuilt) == 1 and cid != root_id:
            # The chain collapsed to a copy of its premise: alias it.
            alias[cid] = rebuilt[0][1]
            continue
        replayed = Clause(sorted(current))
        if len(replayed) < len(node.clause):
            stats.clauses_strengthened += 1
        new_clauses[cid] = replayed
        new_chains[cid] = rebuilt

    # Garbage-collect: only chains reachable from the root survive.
    needed: Set[int] = set()
    stack = [root_id]
    while stack:
        cid = stack.pop()
        if cid in needed or cid not in new_chains:
            continue
        needed.add(cid)
        stack.extend(aid for _, aid in new_chains[cid])

    reduced = proof._leaves()
    for node in derived_core:
        cid = node.clause_id
        if cid in needed:
            reduced.add_derived(cid, new_clauses[cid], new_chains[cid])
    if not reduced.is_refutation():
        raise ProofError("proof reduction failed to preserve the refutation")
    stats.nodes_after = len(reduced)
    return reduced, stats


# --------------------------------------------------------------------- #
# Activation-literal stripping (group-aware proofs)
# --------------------------------------------------------------------- #
@dataclass
class ActivationStripStats:
    """What :func:`strip_activations` did to a grouped refutation.

    ``chains_stripped`` is the headline counter threaded into the engines'
    statistics: how many derived clauses carried at least one active
    activation literal that the strip removed.
    """

    nodes_before: int = 0
    nodes_after: int = 0
    chains_stripped: int = 0
    literals_stripped: int = 0
    originals_dropped: int = 0


def strip_activations(proof: ResolutionProof, active_groups: Set[int],
                      other_groups: Set[int] = frozenset(),
                      root_id: Optional[int] = None
                      ) -> Tuple[ResolutionProof, ActivationStripStats]:
    """Turn a grouped refutation into an activation-free one.

    ``proof`` is the raw trace of an incremental solver whose UNSAT answer
    was obtained under the assumptions ``{g : g in active_groups}`` —
    either a recorded empty clause or (the usual incremental case) a
    final-conflict clause over negated activation literals, identified by
    ``root_id`` (default: the recorded empty clause).

    The transformation relies on literal-presence provenance (module
    docstring): activation variables are never resolution pivots, so
    deleting every active group's ``-g`` literal from every clause commutes
    with each recorded resolution step, and the chains are kept verbatim.
    Concretely:

    * original clauses of an *active* group lose their ``-g`` literal and
      keep their partition label — they become exactly the caller-level
      clauses (e.g. the depth target of a BMC check);
    * every other original clause is kept untouched, label included, even
      off-core: interpolation classifies variable locality over the full
      (A, B) clause sets, exactly the rationale of :func:`reduce_proof`.
      Like there, such a clause's :class:`ProofNode` is shared with
      ``proof``, not copied; only the active-group clauses above get new
      nodes;
    * original clauses of *released or foreign* groups — including the
      ``[-g]`` release units a retraction asserts — are dropped when they
      sit outside the root's core and rejected with
      :class:`ActivationDependencyError` when inside it (their group is no
      longer part of the caller's formula);
    * derived clauses outside the core are dropped; derived clauses inside
      it lose the active ``-g`` literals.  A core clause still carrying a
      released/foreign group's literal, a positive activation literal, or
      an activation-variable pivot is rejected — each would falsify the
      provenance invariant the strip is built on;
    * the root clause must strip to the empty clause (its literals are all
      negated active-group literals), completing the refutation.

    Returns the stripped proof and an :class:`ActivationStripStats`.
    """
    if root_id is None:
        root_id = proof.empty_clause_id
    if root_id is None:
        raise ProofError("no refutation root to strip")
    if root_id not in proof:
        raise ProofError(f"unknown refutation root {root_id}")
    active = set(active_groups)
    others = set(other_groups) - active
    strip_lits = {-g for g in active}
    stats = ActivationStripStats(nodes_before=len(proof))
    core = set(proof.core_ids(root_id))

    def is_release_unit(node: ProofNode) -> bool:
        lits = node.clause.literals
        return (node.group is None and len(lits) == 1
                and -lits[0] in others | active)

    stripped = ResolutionProof()
    for node in proof.nodes_in_order():
        cid = node.clause_id
        if node.is_original:
            if node.group in others or is_release_unit(node):
                if cid in core:
                    raise ActivationDependencyError(
                        f"core clause {cid} belongs to released/foreign "
                        f"group {node.group}")
                stats.originals_dropped += 1
                continue
            if node.group in active:
                lits = [l for l in node.clause.literals
                        if l not in strip_lits]
                stats.literals_stripped += len(node.clause) - len(lits)
                stripped.add_original(cid, Clause(lits), node.partition)
            else:
                stripped._adopt(node)
            continue
        if cid not in core:
            continue
        for pivot, _ in node.chain:
            if pivot in active or pivot in others:
                raise ActivationDependencyError(
                    f"core clause {cid} resolves on activation variable "
                    f"{pivot}")
        lits = []
        for lit in node.clause.literals:
            if lit in strip_lits:
                continue
            var = abs(lit)
            if var in others:
                raise ActivationDependencyError(
                    f"core clause {cid} depends on released/foreign "
                    f"group {var}")
            if var in active:
                # +g: no clause may ever contain a positive activation
                # literal (provenance invariant).
                raise ActivationDependencyError(
                    f"core clause {cid} carries positive activation "
                    f"literal {lit}")
            lits.append(lit)
        if len(lits) < len(node.clause):
            stats.chains_stripped += 1
            stats.literals_stripped += len(node.clause) - len(lits)
        if cid == root_id and lits:
            raise ProofError(
                f"refutation root {cid} strips to non-empty clause "
                f"{sorted(lits)}")
        stripped.add_derived(cid, Clause(lits), node.chain)
    if not stripped.is_refutation():
        raise ProofError("activation stripping failed to produce a refutation")
    stats.nodes_after = len(stripped)
    return stripped, stats


def check_proof(proof: ResolutionProof, require_refutation: bool = True) -> None:
    """Validate every recorded chain; raise :class:`ProofError` on failure.

    For each derived clause the chain is replayed with explicit binary
    resolution; the replayed clause must *subsume or equal* the recorded
    clause (the solver may record a clause with literals in a different
    order, but never a logically weaker one).
    """
    for node in proof.derived_nodes():
        replayed = _resolve_chain(proof, node)
        recorded = set(node.clause.literals)
        obtained = set(replayed.literals)
        if not obtained <= recorded and obtained != recorded:
            raise ProofError(
                f"clause {node.clause_id}: replayed {sorted(obtained)} is not contained "
                f"in recorded {sorted(recorded)}")
        if len(node.clause) == 0 and len(replayed) != 0:
            raise ProofError(
                f"clause {node.clause_id} recorded as empty but replays to {replayed}")
    if require_refutation and not proof.is_refutation():
        raise ProofError("proof does not derive the empty clause")
