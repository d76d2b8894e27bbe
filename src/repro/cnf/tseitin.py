"""Tseitin encoding of AIG cones into CNF.

The encoder maps AIG *variables* to CNF *variables* and AIG literals to
DIMACS literals.  AND gates are encoded with the standard three clauses::

    out -> left      (-out,  left)
    out -> right     (-out,  right)
    left & right -> out   (out, -left, -right)

The encoder is incremental: a single instance can be asked to encode several
cones; gates already encoded are not re-emitted.  Leaves (inputs and
latches) must be given CNF variables up front or are allocated on demand,
depending on the policy selected by the caller — the BMC unroller assigns
frame-specific variables, while the combinational checker lets the encoder
allocate freely.

The encoding goes straight into a *target*: the incremental SAT solver
(:class:`~repro.sat.solver.CdclSolver`) or a
:class:`~repro.cnf.cnf.Cnf` container.  Both offer ``new_var``,
``add_clause`` and ``define_and``; every AND gate costs one
``define_and(out, left, right, partition, group)`` call, and the constant's
unit clause one ``add_clause``.  The encoder's :attr:`TseitinEncoder.partition`
and :attr:`TseitinEncoder.group` label what it emits — the partition is the
mechanism the interpolation machinery relies on, the group the one the
fixpoint checker retracts clauses with — and a container rejects any label.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..aig.aig import Aig
from .cnf import Cnf

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from ..sat.solver import CdclSolver

__all__ = ["TseitinEncoder", "encode_combinational"]


class TseitinEncoder:
    """Incremental Tseitin encoder for one AIG.

    Parameters
    ----------
    aig:
        The circuit to encode.
    target:
        The :class:`~repro.sat.solver.CdclSolver` or
        :class:`~repro.cnf.cnf.Cnf` that receives the encoding: its
        ``new_var`` allocates CNF variables, its ``define_and`` takes each
        gate and its ``add_clause`` the constant's unit clause.
    allocate_leaves:
        When ``True`` missing leaf variables are allocated on demand; when
        ``False`` encoding a cone whose leaves were not declared raises
        ``KeyError`` (the safe default for time-frame encodings).
    """

    def __init__(
        self,
        aig: Aig,
        target: Union["CdclSolver", Cnf],
        allocate_leaves: bool = True,
    ) -> None:
        self.aig = aig
        self.target = target
        self._allocate_leaves = allocate_leaves
        self._var_map: Dict[int, int] = {}
        #: CNF variable reserved for the constant node.  A unit clause
        #: pinning it to false is emitted lazily the first time the constant
        #: is referenced.
        self._const_var: Optional[int] = None
        #: Partition label and clause group of everything emitted from now
        #: on (the caller sets them; ``None`` means unlabelled/ungrouped).
        self.partition: Optional[int] = None
        self.group: Optional[int] = None
        #: Optional observer invoked with the AIG variable each time an AND
        #: gate receives its CNF variable (i.e. its definitional clauses are
        #: emitted).  The fixpoint checker uses it to record which gates a
        #: retractable clause group owns, so the group can later be shed
        #: together with its :meth:`forget` of exactly those variables.
        self.on_gate: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------ #
    # Variable mapping
    # ------------------------------------------------------------------ #
    def declare_leaf(self, aig_var: int, cnf_var: int) -> None:
        """Pre-assign the CNF variable of an input/latch variable."""
        self._var_map[aig_var] = cnf_var

    def has_var(self, aig_var: int) -> bool:
        return aig_var in self._var_map

    def cnf_var(self, aig_var: int) -> int:
        """Return the CNF variable already assigned to ``aig_var``."""
        return self._var_map[aig_var]

    def var_map(self) -> Dict[int, int]:
        """Return a copy of the current AIG-var -> CNF-var mapping."""
        return dict(self._var_map)

    def forget(self, aig_vars: Iterable[int]) -> None:
        """Drop the CNF variables of some already-encoded AND gates.

        A forgotten gate is re-encoded — with a *fresh* CNF variable and
        fresh definitional clauses — the next time a cone containing it is
        requested.  The caller must ensure no still-active clause depends on
        the forgotten variables being *defined* (the fixpoint checker pairs
        every ``forget`` with releasing the clause group that owns exactly
        those gates' clauses).  Only AND gates may be forgotten: leaves keep
        their variables for the encoder's lifetime, so cones encoded before
        and after a forget still meet on the same leaf valuation.
        """
        for var in aig_vars:
            if self.aig.node_kind(var) != "and":
                raise ValueError(
                    f"refusing to forget leaf variable {var} "
                    f"({self.aig.node_kind(var)}): leaf CNF variables are "
                    "shared by every encoded cone")
            self._var_map.pop(var, None)

    def _const_false_var(self) -> int:
        if self._const_var is None:
            self._const_var = self.target.new_var()
            # Variable is forced false: the positive AIG literal 0 is FALSE.
            self.target.add_clause([-self._const_var], self.partition,
                                   self.group)
        return self._const_var

    def _leaf_var(self, aig_var: int) -> int:
        """Allocate the CNF variable of an undeclared input/latch."""
        kind = self.aig.node_kind(aig_var)
        if not self._allocate_leaves:
            raise KeyError(
                f"leaf variable {aig_var} ({kind}) has no CNF variable assigned")
        cnf_var = self.target.new_var()
        self._var_map[aig_var] = cnf_var
        return cnf_var

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def literal(self, aig_lit: int) -> int:
        """Encode (if needed) and return the DIMACS literal for an AIG literal."""
        var = aig_lit >> 1
        if var == 0:
            cnf_var = self._const_false_var()
        else:
            cnf_var = self._var_map.get(var)
            if cnf_var is None:
                cnf_var = self._encode_var(var)
        return -cnf_var if aig_lit & 1 else cnf_var

    def encode_roots(self, roots: Iterable[int]) -> List[int]:
        """Encode the cones of several AIG literals; return DIMACS literals."""
        return [self.literal(root) for root in roots]

    def _encode_var(self, aig_var: int) -> int:
        """Encode the cone of an AIG variable that has no CNF variable yet."""
        aig = self.aig
        if not aig.is_and(aig_var):
            return self._leaf_var(aig_var)

        # Iterative topological encoding of the AND cone rooted at aig_var.
        # ``Aig.add_and`` folds constant, equal and opposite fanins, so a
        # gate's two fanins are distinct non-constant variables.
        var_map = self._var_map
        new_var = self.target.new_var
        define_and = self.target.define_and
        partition, group = self.partition, self.group
        stack = [aig_var]
        while stack:
            var = stack[-1]
            if var in var_map:
                stack.pop()
                continue
            gate = aig.and_gate(var)
            left, right = gate.left, gate.right
            pending = False
            for fanin in (left >> 1, right >> 1):
                if fanin not in var_map:
                    if aig.is_and(fanin):
                        stack.append(fanin)
                        pending = True
                    else:
                        self._leaf_var(fanin)
            if pending:
                continue
            out = new_var()
            var_map[var] = out
            if self.on_gate is not None:
                self.on_gate(var)
            left_lit = var_map[left >> 1]
            right_lit = var_map[right >> 1]
            define_and(out, -left_lit if left & 1 else left_lit,
                       -right_lit if right & 1 else right_lit, partition, group)
            stack.pop()
        return var_map[aig_var]


def encode_combinational(
    aig: Aig,
    roots: Sequence[int],
) -> Tuple[Cnf, List[int], Dict[int, int]]:
    """Encode the combinational cones of ``roots`` into a standalone CNF.

    Returns ``(cnf, root_literals, var_map)`` where ``var_map`` maps AIG
    variables to CNF variables.  Intended for one-shot combinational checks
    (equivalence, containment) and for the test-suite.
    """
    cnf = Cnf()
    encoder = TseitinEncoder(aig, cnf, allocate_leaves=True)
    root_lits = encoder.encode_roots(roots)
    return cnf, root_lits, encoder.var_map()
