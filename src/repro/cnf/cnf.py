"""Clause and CNF containers.

CNF literals follow the DIMACS convention: a positive integer ``v`` is the
variable ``v``, ``-v`` its negation.  Variable 0 does not exist.  This is
deliberately distinct from the AIG literal encoding (even/odd integers); the
Tseitin encoder owns the mapping between the two worlds.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["Clause", "Cnf", "neg", "var_of"]


def neg(lit: int) -> int:
    """Negate a DIMACS literal."""
    return -lit


def var_of(lit: int) -> int:
    """Return the variable of a DIMACS literal."""
    return abs(lit)


def _literal_order(lit: int) -> Tuple[int, bool]:
    """Clause literal order: by variable, the positive literal first."""
    return abs(lit), lit < 0


class Clause:
    """An immutable disjunction of DIMACS literals.

    Construction normalises the clause: duplicate literals are removed and
    the literals are sorted for deterministic hashing.  A clause containing
    both ``v`` and ``-v`` is a *tautology* (flagged, never simplified away
    silently so callers can decide what to do).
    """

    __slots__ = ("literals", "is_tautology")

    def __init__(self, literals: Iterable[int]) -> None:
        unique = sorted(set(literals), key=abs)
        if unique and unique[0] == 0:
            raise ValueError("0 is not a valid DIMACS literal")
        is_tautology = len(set(map(abs, unique))) != len(unique)
        if is_tautology:
            # ``key=abs`` leaves the order of ``v`` and ``-v`` to the set;
            # put the positive literal first.
            unique.sort(key=_literal_order)
        self.literals: Tuple[int, ...] = tuple(unique)
        self.is_tautology: bool = is_tautology

    @classmethod
    def _of_distinct(cls, literals: Sequence[int]) -> "Clause":
        """Build a clause whose literals are known to be on distinct variables.

        Skips the deduplication, 0 and tautology checks of the public
        constructor; the solver uses it for AND-gate definitions.
        """
        clause = cls.__new__(cls)
        clause.literals = tuple(sorted(literals, key=abs))
        clause.is_tautology = False
        return clause

    def __iter__(self) -> Iterator[int]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __contains__(self, lit: int) -> bool:
        return lit in self.literals

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Clause) and self.literals == other.literals

    def __hash__(self) -> int:
        return hash(self.literals)

    def __repr__(self) -> str:
        return f"Clause({list(self.literals)})"

    def variables(self) -> Set[int]:
        """Return the set of variables occurring in the clause."""
        return {abs(l) for l in self.literals}

    def resolve(self, other: "Clause", pivot_var: int) -> "Clause":
        """Binary resolution on ``pivot_var``; raises if the pivot is absent."""
        pos, negl = pivot_var, -pivot_var
        if pos in self.literals and negl in other.literals:
            first, second = self, other
        elif negl in self.literals and pos in other.literals:
            first, second = other, self
        else:
            raise ValueError(
                f"pivot variable {pivot_var} does not appear with opposite signs")
        merged = [l for l in first.literals if l != pos]
        merged += [l for l in second.literals if l != negl]
        return Clause(merged)

    def is_satisfied_by(self, assignment: Dict[int, bool]) -> bool:
        """Evaluate the clause under a (total) assignment."""
        return any(assignment.get(abs(l), False) == (l > 0) for l in self.literals)


class Cnf:
    """A conjunction of clauses plus variable bookkeeping."""

    def __init__(self, clauses: Optional[Iterable[Sequence[int]]] = None,
                 num_vars: int = 0) -> None:
        self.clauses: List[Clause] = []
        self.num_vars = num_vars
        if clauses is not None:
            for clause in clauses:
                self.add_clause(clause)

    def new_var(self) -> int:
        """Allocate a fresh variable."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Iterable[int],
                   partition: Optional[int] = None,
                   group: Optional[int] = None) -> Clause:
        """Add a clause (given as any iterable of DIMACS literals).

        ``partition`` and ``group`` exist so a :class:`Cnf` can stand in for
        a solver as a Tseitin target; a container has no labels, so anything
        but ``None`` is rejected rather than dropped.
        """
        _reject_labels(partition, group)
        clause = literals if isinstance(literals, Clause) else Clause(literals)
        for lit in clause:
            self.num_vars = max(self.num_vars, abs(lit))
        self.clauses.append(clause)
        return clause

    def define_and(self, out: int, left: int, right: int,
                   partition: Optional[int] = None,
                   group: Optional[int] = None) -> None:
        """Add the three Tseitin clauses of ``out <-> left & right``."""
        _reject_labels(partition, group)
        self.add_clause([-out, left])
        self.add_clause([-out, right])
        self.add_clause([out, -left, -right])

    def extend(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def variables(self) -> Set[int]:
        """Return the set of variables used by at least one clause."""
        result: Set[int] = set()
        for clause in self.clauses:
            result |= clause.variables()
        return result

    def is_satisfied_by(self, assignment: Dict[int, bool]) -> bool:
        """Evaluate the whole formula under a (total) assignment."""
        return all(clause.is_satisfied_by(assignment) for clause in self.clauses)

    def copy(self) -> "Cnf":
        other = Cnf(num_vars=self.num_vars)
        other.clauses = list(self.clauses)
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Cnf(vars={self.num_vars}, clauses={len(self.clauses)})"


def _reject_labels(partition: Optional[int], group: Optional[int]) -> None:
    if partition is not None or group is not None:
        raise ValueError("a Cnf container carries no partition or group labels")
