"""Variable-inclusion companions of a logic, as oracle combinators.

Given a consequence oracle for a base logic, two transforms produce new
oracles:

* the left companion accepts an inference when some premise subset whose
  variables all occur in the conclusion already entails it.  Because
  consequence is monotone, it is enough to test the single maximal
  admissible subset, the premises whose variables are contained in the
  conclusion's.

* the right companion accepts an inference when the base does and every
  conclusion variable occurs in the premises, or when the premises contain
  an antitheorem of the base, a set whose substitution instances entail
  every formula.  Again by monotonicity the containment clause reduces to
  the premise set itself being an antitheorem.

Transforms compose: a sequence string such as ``"rl"`` is read left to
right, so ``"rl"`` means the left companion of the right companion.  Each
right step consults antitheorems of the logic built so far, not of the
root base.

Antitheorem-hood of a finite set is decided through a fresh-variable query:
a set entails a variable foreign to it exactly when it entails everything
under every substitution.  Whether a tower has one at all is decided
exactly from its matrix leaves (:attr:`MatrixOracle.antitheorem_info`, by
generated subalgebras), which also give a variable-free antitheorem
(``closed_antitheorem``) when there is one.  For a fresh y, a left
companion tests ``Γ ⊢ y`` on Γ's variable-free premises alone, so it has
an antitheorem exactly when its base has a variable-free one, which needs
constants.  A right companion keeps its base's; a meet's witness is the
union of its parts', all in the one variable x.

The combinators keep no per-query state.  Every query to a tower passes
through each layer once and ends in queries to its matrix leaves; the
answer memo of :class:`vilogic.matrices.MatrixOracle` is the only one, and
it catches the sub-queries that repeat, the left-filtered premise sets and
the fresh-variable queries.  A layer above it would be asked each query of
an exhaustive comparison once, so a memo there could only miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .formulas import (
    MAX_NESTING,
    Formula,
    FormulaError,
    fresh_variable,
    var,
    vars_of_set,
)
from .matrices import (
    NONE_PROVEN,
    WITNESS,
    AntitheoremInfo,
    LogicOracle,
)

__all__ = [
    "AntitheoremWitness",
    "LeftVIOracle",
    "MeetOracle",
    "RightVIOracle",
    "canonicalize_sequence",
    "check_sequence",
    "derive_sequence",
    "intersect",
    "is_antitheorem",
]


def check_sequence(sequence: str) -> str:
    """Validate a transform sequence: at most ``MAX_NESTING`` steps l and r."""
    if any(step not in "lr" for step in sequence):
        raise FormulaError(
            f"transform sequence may only contain 'l' and 'r': {sequence!r}"
        )
    if len(sequence) > MAX_NESTING:
        raise FormulaError(f"transform sequence has {len(sequence)} steps, more than {MAX_NESTING}")
    return sequence


def is_antitheorem(oracle: LogicOracle, premises: Iterable[Formula]) -> bool:
    """Fresh-variable criterion: the set entails a variable it does not contain."""
    prems = frozenset(premises)
    return _entails_fresh(oracle, prems, vars_of_set(prems))


def _entails_fresh(
    oracle: LogicOracle, premises: frozenset[Formula], variables: frozenset[str]
) -> bool:
    """:func:`is_antitheorem` for premises whose variables are already known."""
    return oracle.entails(premises, _variable(fresh_variable(variables)))


@lru_cache(maxsize=None)
def _variable(name: str) -> Formula:
    # Fresh names are primed copies of one base name, so this stays small.
    return var(name)


@dataclass(frozen=True)
class AntitheoremWitness:
    """A finite formula set in one shared variable, claimed to be an antitheorem."""

    formulas: frozenset[Formula]

    def __post_init__(self):
        object.__setattr__(self, "formulas", frozenset(self.formulas))
        if not self.formulas:
            raise ValueError("an antitheorem witness cannot be empty")
        if len(vars_of_set(self.formulas)) != 1:
            raise ValueError("an antitheorem witness must use exactly one variable")

    def verify(self, oracle: LogicOracle) -> bool:
        return is_antitheorem(oracle, self.formulas)


class LeftVIOracle(LogicOracle):
    """Left variable-inclusion companion of a base oracle."""

    def __init__(self, base: LogicOracle):
        super().__init__(_step_label(base, "l"), base.signature)
        self.base = base

    def _entails(self, premises: frozenset[Formula], conclusion: Formula) -> bool:
        allowed = conclusion.variables
        kept = [p for p in premises if p.variables <= allowed]
        if len(kept) < len(premises):
            premises = frozenset(kept)
        return self.base.entails(premises, conclusion)

    @property
    def antitheorem_info(self) -> AntitheoremInfo:
        # Γ entails a fresh y here exactly when its variable-free premises
        # do in the base; adding x makes such a set a witness in x.
        closed = self.base.closed_antitheorem
        if closed is None:
            return AntitheoremInfo(NONE_PROVEN)
        return AntitheoremInfo(WITNESS, closed | {_variable("x")})

    @property
    def closed_antitheorem(self) -> frozenset[Formula] | None:
        return self.base.closed_antitheorem


class RightVIOracle(LogicOracle):
    """Right variable-inclusion companion of a base oracle."""

    def __init__(self, base: LogicOracle):
        super().__init__(_step_label(base, "r"), base.signature)
        self.base = base

    def _entails(self, premises: frozenset[Formula], conclusion: Formula) -> bool:
        variables = vars_of_set(premises)
        if conclusion.variables <= variables and self.base.entails(premises, conclusion):
            return True
        return _entails_fresh(self.base, premises, variables)

    @property
    def antitheorem_info(self) -> AntitheoremInfo:
        # A right step adds no antitheorems and keeps the base's: a fresh-variable
        # query succeeds only through the antitheorem clause, which defers to the base.
        return self.base.antitheorem_info

    @property
    def closed_antitheorem(self) -> frozenset[Formula] | None:
        return self.base.closed_antitheorem


class MeetOracle(LogicOracle):
    """Pointwise intersection of two oracles over one signature."""

    def __init__(self, first: LogicOracle, second: LogicOracle):
        if first.signature != second.signature:
            raise ValueError("intersection needs a shared signature")
        super().__init__(f"({first.label})&({second.label})", first.signature)
        self.first = first
        self.second = second

    def _entails(self, premises: frozenset[Formula], conclusion: Formula) -> bool:
        return self.first.entails(premises, conclusion) and self.second.entails(premises, conclusion)

    # An antitheorem of the meet is one of both parts, and a superset of an
    # antitheorem is one, so the parts' witnesses merge by union.
    @property
    def antitheorem_info(self) -> AntitheoremInfo:
        first, second = self.first.antitheorem_info, self.second.antitheorem_info
        if first.status == NONE_PROVEN or second.status == NONE_PROVEN:
            return AntitheoremInfo(NONE_PROVEN)
        return AntitheoremInfo(WITNESS, first.witness | second.witness)

    @property
    def closed_antitheorem(self) -> frozenset[Formula] | None:
        first, second = self.first.closed_antitheorem, self.second.closed_antitheorem
        return None if first is None or second is None else first | second


def _step_label(base: LogicOracle, step: str) -> str:
    if isinstance(base, (LeftVIOracle, RightVIOracle)):
        return base.label + step
    return f"{base.label}^{step}"


def intersect(first: LogicOracle, second: LogicOracle) -> LogicOracle:
    return MeetOracle(first, second)


def derive_sequence(base: LogicOracle, sequence: str) -> LogicOracle:
    """Fold a transform sequence over a base oracle, leftmost step first."""
    check_sequence(sequence)
    oracle = base
    for step in sequence:
        oracle = LeftVIOracle(oracle) if step == "l" else RightVIOracle(oracle)
    return oracle


def canonicalize_sequence(sequence: str, base_has_antitheorems: bool) -> str:
    """Shortest sequence provably inducing the same derived logic.

    Rewrites to a fixpoint: doubled steps collapse always; with antitheorems
    the four-step alternations fold down to ``lrl``; without antitheorems
    any sequence containing ``rl`` collapses to ``rl`` outright.  Whether
    the base has theorems does not matter here: theorems affect which
    inclusions are strict, not which sequences coincide.
    """
    check_sequence(sequence)
    current = sequence
    while True:
        previous = current
        current = current.replace("ll", "l").replace("rr", "r")
        if base_has_antitheorems:
            current = current.replace("rlrl", "lrl").replace("lrlr", "lrl")
        elif "rl" in current:
            current = "rl"
        if current == previous:
            return current
