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
under every substitution.  A left companion never has antitheorems provided
the base has a model that designates less than everything; when every base
matrix designates everything the claim does not apply and the companion
reports its antitheorem status as unknown.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .formulas import (
    FragmentSpec,
    Formula,
    FormulaError,
    enumerate_fragment,
    fresh_variable,
    substitute,
    var,
    vars_of_set,
)
from .matrices import (
    NONE_PROVEN,
    UNKNOWN,
    WITNESS,
    AntitheoremInfo,
    FiniteMatrix,
    LogicOracle,
)

__all__ = [
    "AntitheoremWitness",
    "LeftVIOracle",
    "MeetOracle",
    "RightVIOracle",
    "canonicalize_sequence",
    "check_sequence",
    "definitional_antitheorem_check",
    "derive_sequence",
    "explain_left_of_right",
    "find_antitheorem",
    "intersect",
    "is_antitheorem",
]


def check_sequence(sequence: str) -> str:
    """Validate a transform sequence: a string over the alphabet {l, r}."""
    if any(step not in "lr" for step in sequence):
        raise FormulaError(
            f"transform sequence may only contain 'l' and 'r': {sequence!r}"
        )
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


def definitional_antitheorem_check(
    oracle: LogicOracle,
    premises: Iterable[Formula],
    substitution_pool: Sequence[Formula],
    targets: Sequence[Formula],
) -> bool:
    """Bounded form of the definition: every substitution instance entails every target.

    Substitutions assign pool formulas to the premise variables in every
    combination.  Agreement of this check with :func:`is_antitheorem` is a
    test invariant, not something callers should pay for routinely.
    """
    prems = tuple(premises)
    names = sorted(vars_of_set(prems))
    for images in itertools.product(substitution_pool, repeat=len(names)):
        mapping = dict(zip(names, images))
        instance = [substitute(p, mapping) for p in prems]
        for target in targets:
            if not oracle.entails(instance, target):
                return False
    return True


def find_antitheorem(
    oracle: LogicOracle,
    depth: int = 2,
    variable: str = "x",
) -> frozenset[Formula] | None:
    """Bounded antitheorem search over single-variable formulas.

    Any antitheorem yields one in a single variable by substitution, and
    supersets of antitheorems are antitheorems, so the full candidate set
    decides existence at this depth.  Returns a greedily minimized witness,
    or None when the fragment holds none.
    """
    spec = FragmentSpec(variables=(variable,), max_depth=depth, max_premises=0)
    pool = list(enumerate_fragment(oracle.signature, spec))
    if not is_antitheorem(oracle, pool):
        return None
    witness = pool
    for candidate in pool:
        if len(witness) == 1:
            break
        trimmed = [f for f in witness if f != candidate]
        if is_antitheorem(oracle, trimmed):
            witness = trimmed
    return frozenset(witness)


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

    @property
    def variable(self) -> str:
        return next(iter(vars_of_set(self.formulas)))

    def verify(self, oracle: LogicOracle) -> bool:
        return is_antitheorem(oracle, self.formulas)


class LeftVIOracle(LogicOracle):
    """Left variable-inclusion companion of a base oracle."""

    def __init__(self, base: LogicOracle):
        super().__init__(_step_label(base, "l"), base.signature)
        self.base = base

    def _entails(self, premises: frozenset[Formula], conclusion: Formula) -> bool:
        allowed = conclusion.variables
        kept = frozenset(p for p in premises if p.variables <= allowed)
        return self.base.entails(kept, conclusion)

    def base_matrices(self) -> tuple[FiniteMatrix, ...]:
        return self.base.base_matrices()

    @property
    def antitheorem_info(self) -> AntitheoremInfo:
        if self.base.has_nontrivial_model:
            return AntitheoremInfo(NONE_PROVEN)
        return AntitheoremInfo(UNKNOWN)


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

    def base_matrices(self) -> tuple[FiniteMatrix, ...]:
        return self.base.base_matrices()

    @property
    def antitheorem_info(self) -> AntitheoremInfo:
        # The right companion adds no antitheorems and keeps the base's:
        # a fresh-variable query can only succeed through the antitheorem
        # clause, which defers to the base.
        return self.base.antitheorem_info


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

    def base_matrices(self) -> tuple[FiniteMatrix, ...]:
        merged = list(self.first.base_matrices())
        for m in self.second.base_matrices():
            if not any(m is seen for seen in merged):
                merged.append(m)
        return tuple(merged)

    @property
    def antitheorem_info(self) -> AntitheoremInfo:
        infos = (self.first.antitheorem_info, self.second.antitheorem_info)
        if any(i.status == NONE_PROVEN for i in infos):
            # an antitheorem of the meet is an antitheorem of both parts
            return AntitheoremInfo(NONE_PROVEN)
        if all(i.status == WITNESS for i in infos):
            shared = vars_of_set(infos[0].witness) | vars_of_set(infos[1].witness)
            if len(shared) == 1:
                return AntitheoremInfo(WITNESS, infos[0].witness | infos[1].witness)
        return AntitheoremInfo(UNKNOWN)


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


def explain_left_of_right(
    base: LogicOracle,
    premises: Iterable[Formula],
    conclusion: Formula,
) -> frozenset[Formula] | None:
    """For an inference accepted after an ``rl`` tower over an antitheorem-free
    base, exhibit a premise subset that base-entails the conclusion using
    exactly the conclusion's variables.  Returns None when no subset works.
    """
    prems = sorted(frozenset(premises), key=str)
    goal = conclusion.variables
    candidates = [p for p in prems if p.variables <= goal]
    for size in range(0, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if vars_of_set(combo) == goal and base.entails(combo, conclusion):
                return frozenset(combo)
    return None
