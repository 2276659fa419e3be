"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

import pytest
from hypothesis import strategies as st

from vilogic.formulas import (
    Formula,
    FragmentSpec,
    app,
    enumerate_fragment,
    fragment_subsets,
    substitute,
    var,
    vars_of_set,
)
from vilogic.lattice import Inference
from vilogic.matrices import (
    FiniteAlgebra,
    FiniteMatrix,
    LogicOracle,
    MatrixError,
    MatrixOracle,
    all_valuations,
    evaluate,
)
from vilogic.plonka import DirectSystem, FiniteSemilattice, trivial_matrix
from vilogic.presets import (
    b2_and_or_matrix,
    b2_matrix,
    b3_matrix,
    pwk_matrix,
)
from vilogic.transforms import is_antitheorem


_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect an acceptance verdict for the end-of-run summary."""
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.line(line)


def definitional_antitheorem_check(
    oracle: LogicOracle,
    premises: Iterable[Formula],
    substitution_pool: Sequence[Formula],
    targets: Sequence[Formula],
) -> bool:
    """Bounded form of the definition: every substitution instance entails every target.

    Substitutions assign pool formulas to the premise variables in every
    combination.  The tests check that it agrees with
    :func:`vilogic.transforms.is_antitheorem`.
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
    """Bounded antitheorem search over single-variable formulas: the
    reference that the exact ``antitheorem_info`` is checked against.

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


def tower_matrices(oracle: LogicOracle) -> list[FiniteMatrix]:
    """Every matrix at the leaves of a matrix, left, right and meet tower."""
    if isinstance(oracle, MatrixOracle):
        return list(oracle.matrices)
    if hasattr(oracle, "base"):
        return tower_matrices(oracle.base)
    return tower_matrices(oracle.first) + tower_matrices(oracle.second)


def class_row_reference(
    a: LogicOracle, b: LogicOracle, fragment: FragmentSpec, cap: int
) -> tuple[tuple[int, int], tuple[Inference, ...], tuple[Inference, ...]]:
    """The vector engine's counts and witnesses, by brute force at its
    granularity: ``((ab, ba), witnesses_ab, witnesses_ba)``.

    Formulas are grouped into classes by their variable set and their
    designation under every valuation of the fragment variables in every
    matrix of both towers; a class's representative is its first formula.
    Premise sets of representatives come by size, then in ``combinations``
    order, and both real oracles are asked about every representative
    conclusion.  Each disagreement counts once; the first ``cap`` of each
    way are kept in that order.
    """
    matrices = tower_matrices(a) + tower_matrices(b)
    representatives: dict[tuple, Formula] = {}
    for formula in enumerate_fragment(a.signature, fragment):
        key = (formula.variables,) + tuple(
            tuple(
                evaluate(m.algebra, formula, valuation) in m.designated
                for valuation in all_valuations(m.algebra, fragment.variables)
            )
            for m in matrices
        )
        representatives.setdefault(key, formula)
    reps = tuple(representatives.values())
    counts = [0, 0]
    witnesses: tuple[list, list] = ([], [])
    for premises in fragment_subsets(reps, fragment.max_premises):
        for conclusion in reps:
            in_a = a.entails(premises, conclusion)
            if in_a != b.entails(premises, conclusion):
                side = 0 if in_a else 1
                counts[side] += 1
                if len(witnesses[side]) < cap:
                    witnesses[side].append(Inference(premises, conclusion))
    return tuple(counts), tuple(witnesses[0]), tuple(witnesses[1])


def homomorphism_counterexample(
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    mapping: Mapping[str, str],
) -> tuple[str, tuple[str, ...]] | None:
    """First (connective, argument tuple) where ``mapping`` fails to commute.

    The plain reference for the hom checks of
    :func:`vilogic.plonka.validate_system`.
    """
    if source.signature != target.signature:
        raise MatrixError("homomorphism check needs a shared signature")
    if set(mapping) != set(source.elements):
        raise MatrixError("mapping domain must be exactly the source universe")
    target_universe = set(target.elements)
    if any(v not in target_universe for v in mapping.values()):
        raise MatrixError("mapping image leaves the target universe")
    for name, arity in source.signature.connectives:
        for args in itertools.product(source.elements, repeat=arity):
            pushed = tuple(mapping[a] for a in args)
            if mapping[source.tables[name][args]] != target.tables[name][pushed]:
                return name, args
    return None


def check_homomorphism(
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    mapping: Mapping[str, str],
) -> bool:
    return homomorphism_counterexample(source, target, mapping) is None


def chain_extension_system(
    bottom: FiniteMatrix,
    top_element: str,
    top_designated: bool,
    kind: str,
) -> DirectSystem:
    """The two-component system: ``bottom`` below a one-point component."""
    top = trivial_matrix(bottom.signature, top_element, top_designated)
    lattice = FiniteSemilattice(
        ("0", "1"),
        {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"},
    )
    homs = {("0", "1"): {e: top_element for e in bottom.algebra.elements}}
    return DirectSystem(lattice, {"0": bottom, "1": top}, homs, kind=kind)


def formula_strategy(variables=("x", "y", "z"), max_leaves=6):
    """Random formulas over the and/or/not signature."""
    leaves = st.sampled_from([var(v) for v in variables])

    def extend(children):
        return st.one_of(
            st.builds(lambda a, b: app("and", a, b), children, children),
            st.builds(lambda a, b: app("or", a, b), children, children),
            st.builds(lambda a: app("not", a), children),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@pytest.fixture(scope="session")
def cl_oracle():
    return MatrixOracle((b2_matrix(),), label="CL")


@pytest.fixture(scope="session")
def and_or_oracle():
    return MatrixOracle((b2_and_or_matrix(),), label="CL[and,or]")


@pytest.fixture(scope="session")
def pwk_oracle():
    return MatrixOracle((pwk_matrix(),), label="PWK")


@pytest.fixture(scope="session")
def b3_oracle():
    return MatrixOracle((b3_matrix(),), label="B3")
