"""Interpolation sequences (Definition 2 of the paper).

An interpolation sequence for an inconsistent partition Γ₁..ₙ is the ordered
set (I₀ = ⊤, I₁, …, Iₙ = ⊥) with Iᵢ ∧ Aᵢ₊₁ ⇒ Iᵢ₊₁ and each Iᵢ supported only
by the variables shared between the prefix and the suffix.

The *parallel* computation (Eq. (2) of the paper) extracts every element
from the same refutation proof Π by re-running a standard Craig extraction
with a different prefix/suffix split:

    Iⱼ = ITP(⋀_{i≤j} Aᵢ, ⋀_{i>j} Aᵢ)

which is exactly what :func:`extract_sequence` does — one
:class:`~repro.itp.craig.InterpolantBuilder` pass per cut, all over the same
proof.  The *serial* variant (Definition 3 / Fig. 4) needs fresh SAT calls
and therefore lives with the engines (:mod:`repro.core.sitpseq_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..aig.aig import FALSE, TRUE, Aig
from ..sat.proof import ResolutionProof
from .craig import InterpolantBuilder, InterpolationError

__all__ = ["InterpolationSequence", "extract_sequence"]


@dataclass
class InterpolationSequence:
    """A materialised interpolation sequence.

    ``elements[j]`` is the AIG literal of Iⱼ for j in 0..n; ``elements[0]``
    is ⊤ and ``elements[n]`` is ⊥ by construction.  ``steps_replayed`` is
    the number of resolution steps the extraction replayed, over all cuts.
    """

    elements: List[int]
    steps_replayed: int = 0

    @property
    def length(self) -> int:
        """The number of partitions n (the sequence has n+1 elements)."""
        return len(self.elements) - 1

    def element(self, j: int) -> int:
        return self.elements[j]

    def interior(self) -> List[int]:
        """The non-trivial elements I₁ … I_{n-1}."""
        return self.elements[1:-1]


def extract_sequence(
    proof: ResolutionProof,
    num_partitions: int,
    cut_var_maps: Mapping[int, Mapping[int, int]],
    aig: Aig,
    system: str = "mcmillan",
) -> InterpolationSequence:
    """Extract a parallel interpolation sequence from one refutation.

    Parameters
    ----------
    proof:
        Refutation of ⋀ᵢ Aᵢ whose original clauses are labelled with their
        partition index (1..``num_partitions``).
    num_partitions:
        The number n of partitions in Γ.
    cut_var_maps:
        For every cut ``j`` in 1..n-1, the mapping from global CNF variables
        (the state variables at the cut) to AIG literals.
    aig:
        Destination AIG for the interpolant cones.
    system:
        Interpolation system, per :class:`InterpolantBuilder`.

    Returns
    -------
    InterpolationSequence
        With I₀ = ⊤ and Iₙ = ⊥.
    """
    if num_partitions < 1:
        raise ValueError("need at least one partition")
    labels = proof.partitions()
    unknown = {p for p in labels if not 1 <= p <= num_partitions}
    if unknown:
        raise InterpolationError(
            f"proof contains partition labels outside 1..{num_partitions}: {unknown}")

    # One core walk and one labelling (the proof's cached label masks)
    # serve every cut: the refutation (reduced or raw) is shared, only the
    # (A, B) split moves.
    core_order = proof.core_ids()
    elements: List[int] = [TRUE]
    steps_replayed = 0
    for j in range(1, num_partitions):
        var_map = cut_var_maps.get(j)
        if var_map is None:
            raise InterpolationError(f"no cut variable map supplied for cut {j}")
        builder = InterpolantBuilder(aig, var_map, system=system)
        elements.append(builder.extract(proof, a_partitions=range(1, j + 1),
                                        core_order=core_order))
        steps_replayed += builder.steps_replayed
    elements.append(FALSE)
    return InterpolationSequence(elements, steps_replayed)
