"""Left/right transform semantics, explosive sets, and sequence rewriting."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilogic.formulas import FragmentSpec, enumerate_fragment, parse_formula, var
from vilogic.matrices import NONE_PROVEN, WITNESS, MatrixOracle
from vilogic.presets import FULL_SIGNATURE, b2_matrix, pi_term, sigma_set
from vilogic.transforms import (
    AntitheoremWitness,
    LeftVIOracle,
    MeetOracle,
    RightVIOracle,
    canonicalize_sequence,
    check_sequence,
    definitional_antitheorem_check,
    derive_sequence,
    explain_left_of_right,
    find_antitheorem,
    intersect,
    is_antitheorem,
)
from vilogic.lattice import compare, FragmentSpec as _FragmentSpec  # noqa: F401


def P(text):
    return parse_formula(text, FULL_SIGNATURE)


def test_left_keeps_only_premises_inside_conclusion_variables(cl_oracle):
    left = LeftVIOracle(cl_oracle)
    assert left.entails((P("x"),), P("and(x, or(x, y))"))
    assert not left.entails((P("and(x, or(x, y))"),), P("x"))


def test_right_requires_conclusion_variables_covered(cl_oracle):
    right = RightVIOracle(cl_oracle)
    assert right.entails((P("and(x, or(x, y))"),), P("x"))
    assert not right.entails((P("x"),), P("and(x, or(x, y))"))


def test_right_admits_explosive_premise_sets(cl_oracle):
    right = RightVIOracle(cl_oracle)
    assert right.entails((P("x"), P("not(x)")), P("and(y, z)"))


def test_left_drops_theorem_only_with_shared_variable(cl_oracle):
    left = LeftVIOracle(cl_oracle)
    assert left.entails((), P("or(x, not(x))"))
    assert left.entails((P("and(x, or(x, y))"),), P("or(x, not(x))"))


def test_transform_labels_compose(cl_oracle):
    tower = derive_sequence(cl_oracle, "rl")
    assert tower.label == "CL^rl"
    assert isinstance(tower, LeftVIOracle)
    assert isinstance(tower.base, RightVIOracle)


def test_derive_sequence_applies_leftmost_step_first(cl_oracle):
    """The sequence names inner-to-outer construction."""
    rl = derive_sequence(cl_oracle, "rl")
    sigma = tuple(sorted(sigma_set(), key=str))
    target = pi_term()
    assert rl.entails(sigma, target)
    lr = derive_sequence(cl_oracle, "lr")
    assert not lr.entails(sigma, target)


def test_meet_oracle_requires_both(cl_oracle):
    left = derive_sequence(cl_oracle, "l")
    right = derive_sequence(cl_oracle, "r")
    both = intersect(left, right)
    assert both.label == "(CL^l)&(CL^r)"
    assert both.entails((P("x"), P("not(x)")), pi_term())
    assert not both.entails((P("x"),), pi_term())


def test_check_sequence_rejects_other_letters():
    with pytest.raises(ValueError):
        check_sequence("lx")


def test_is_antitheorem_fresh_variable_criterion(cl_oracle, pwk_oracle):
    assert is_antitheorem(cl_oracle, (P("x"), P("not(x)")))
    assert is_antitheorem(cl_oracle, (P("and(x, not(x))"),))
    assert not is_antitheorem(pwk_oracle, (P("x"), P("not(x)")))
    assert not is_antitheorem(cl_oracle, (P("x"),))


def test_antitheorem_witness_verify(cl_oracle, pwk_oracle):
    witness = AntitheoremWitness(frozenset(sigma_set()))
    assert witness.verify(cl_oracle)
    assert not witness.verify(pwk_oracle)


def test_find_antitheorem_statuses(cl_oracle, pwk_oracle, b3_oracle):
    found = find_antitheorem(cl_oracle)
    assert found is not None
    assert is_antitheorem(cl_oracle, found)
    assert find_antitheorem(pwk_oracle) is None
    assert find_antitheorem(b3_oracle) is not None


def test_left_tower_has_no_antitheorems(cl_oracle):
    left = derive_sequence(cl_oracle, "l")
    assert left.antitheorem_info.status == NONE_PROVEN
    assert not is_antitheorem(left, (P("x"), P("not(x)")))


def test_right_tower_keeps_base_antitheorems(cl_oracle):
    right = derive_sequence(cl_oracle, "r")
    assert right.antitheorem_info.status == WITNESS
    assert is_antitheorem(right, (P("x"), P("not(x)")))


@settings(max_examples=40, deadline=None)
@given(
    st.sets(
        st.sampled_from(
            [
                P("x"),
                P("not(x)"),
                P("and(x, not(x))"),
                P("or(x, not(x))"),
                P("and(x, x)"),
            ]
        ),
        max_size=3,
    )
)
def test_fresh_variable_agrees_with_definitional_check(premises):
    oracle = MatrixOracle((b2_matrix(),), label="CL")
    spec = FragmentSpec(variables=("x",), max_depth=1, max_premises=1)
    pool = enumerate_fragment(FULL_SIGNATURE, spec)
    fresh = is_antitheorem(oracle, premises)
    definitional = definitional_antitheorem_check(oracle, premises, pool, pool)
    assert fresh == definitional


@pytest.mark.parametrize(
    "sequence,with_witness,without_witness",
    [
        ("", "", ""),
        ("l", "l", "l"),
        ("r", "r", "r"),
        ("ll", "l", "l"),
        ("rr", "r", "r"),
        ("lr", "lr", "lr"),
        ("rl", "rl", "rl"),
        ("rlr", "rlr", "rl"),
        ("lrl", "lrl", "rl"),
        ("rlrl", "lrl", "rl"),
        ("lrlr", "lrl", "rl"),
        ("rlrlr", "lrl", "rl"),
        ("llrrlrl", "lrl", "rl"),
    ],
)
def test_canonicalize_sequence_table(sequence, with_witness, without_witness):
    assert canonicalize_sequence(sequence, True) == with_witness
    assert canonicalize_sequence(sequence, False) == without_witness


def _all_sequences(max_length):
    for length in range(max_length + 1):
        for letters in itertools.product("lr", repeat=length):
            yield "".join(letters)


@pytest.mark.parametrize("base_name", ["cl", "and_or"])
def test_canonical_sequences_induce_equal_oracles(base_name, cl_oracle, and_or_oracle):
    """Rewriting a sequence never changes the derived relation (small fragment)."""
    oracle = cl_oracle if base_name == "cl" else and_or_oracle
    has_witness = oracle.antitheorem_info.status == WITNESS
    fragment = FragmentSpec(variables=("x", "y"), max_depth=1, max_premises=2)
    for sequence in _all_sequences(4):
        canonical = canonicalize_sequence(sequence, has_witness)
        if canonical == sequence:
            continue
        verdict = compare(
            derive_sequence(oracle, sequence),
            derive_sequence(oracle, canonical),
            fragment,
        )
        assert verdict.relation == "equal", (sequence, canonical, verdict.relation)


def test_explain_left_of_right_exhibits_subset(cl_oracle):
    rl = derive_sequence(cl_oracle, "rl")
    premises = (P("y"), P("and(x, or(x, y))"))
    conclusion = P("or(y, y)")
    assert rl.entails(premises, conclusion)
    subset = explain_left_of_right(cl_oracle, premises, conclusion)
    assert subset is not None
    assert subset <= frozenset(premises)
    for member in subset:
        assert member.variables <= conclusion.variables


def test_explain_left_of_right_none_when_unprovable(cl_oracle):
    assert explain_left_of_right(cl_oracle, (P("x"),), P("y")) is None
