"""Variable locality classification for interpolation.

Given a refutation proof whose *original* clauses carry partition labels
(the Γ indices of the BMC unrolling), and a choice of which partitions form
the ``A`` side of the Craig split, every CNF variable is classified as:

* ``A_LOCAL`` — occurs only in A-side clauses;
* ``B_LOCAL`` — occurs only in B-side clauses;
* ``GLOBAL``  — occurs on both sides (these are the only variables allowed
  in the interpolant's support).

Classification is computed over *all* original clauses, not only over the
clauses participating in the refutation core: this keeps the labelling
consistent with the full (A, B) formulas, which is what Definition 1 in the
paper constrains the interpolant's support against.

The clauses are scanned once per proof, not once per split: the proof
caches, for every variable, the mask of the partition labels it occurs
under (:meth:`repro.sat.proof.ResolutionProof.label_masks`).  A split is
then just the mask of its A-side labels, and a lookup is two bit tests —
so the n-1 cuts of an interpolation sequence share one scan.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Set

from ..sat.proof import ResolutionProof

__all__ = ["VarClass", "VariableClassification", "classify_variables"]


class VarClass(enum.Enum):
    """Locality of a CNF variable with respect to an (A, B) split."""

    A_LOCAL = "a"
    B_LOCAL = "b"
    GLOBAL = "ab"


class VariableClassification:
    """Locality lookup for one (A, B) split of a proof's original clauses.

    ``masks`` maps each variable to the label bits it occurs under, and
    ``a_mask`` holds the bits of the A-side labels.
    """

    def __init__(self, masks: Dict[int, int], a_mask: int,
                 a_partitions: Set[int]) -> None:
        self._masks = masks
        self._a_mask = a_mask
        self._b_mask = ~a_mask
        self.a_partitions = set(a_partitions)

    def var_class(self, var: int) -> VarClass:
        """Return the class of ``var``; unknown variables default to B-local.

        Variables introduced only by derived clauses cannot exist in a valid
        resolution proof, but defaulting keeps the lookup total.
        """
        mask = self._masks.get(var, 0)
        if not mask & self._a_mask:
            return VarClass.B_LOCAL
        return VarClass.GLOBAL if mask & self._b_mask else VarClass.A_LOCAL

    def is_global(self, var: int) -> bool:
        mask = self._masks.get(var, 0)
        return bool(mask & self._a_mask and mask & self._b_mask)

    def globals(self) -> Set[int]:
        return {v for v in self._masks if self.is_global(v)}

    def __len__(self) -> int:
        return len(self._masks)


def classify_variables(proof: ResolutionProof,
                       a_partitions: Iterable[int]) -> VariableClassification:
    """Classify every variable of the proof's original clauses.

    ``a_partitions`` lists the partition labels forming the A side; every
    other labelled original clause belongs to B.  Original clauses with no
    partition label (``None``) are treated as B-side, which is the safe
    default for auxiliary constraints added outside the Γ split.
    """
    a_set = set(a_partitions)
    labels = proof.label_masks()
    a_mask = 0
    for label in a_set:
        if label is not None:
            a_mask |= labels.bits.get(label, 0)
    return VariableClassification(labels.masks, a_mask, a_set)
