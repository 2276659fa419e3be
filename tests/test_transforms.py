"""Left/right transform semantics, explosive sets, and sequence rewriting."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    definitional_antitheorem_check,
    explain_left_of_right,
    find_antitheorem,
    formula_strategy,
)

from vilogic.formulas import (
    MAX_NESTING,
    FragmentSpec,
    enumerate_fragment,
    fresh_variable,
    parse_formula,
    var,
    vars_of_set,
)
from vilogic.matrices import (
    NONE_PROVEN,
    WITNESS,
    AntitheoremInfo,
    FiniteMatrix,
    LogicOracle,
    MatrixOracle,
    all_valuations,
    evaluate,
    parse_matrix_text,
)
from vilogic.presets import (
    FULL_SIGNATURE,
    b2_matrix,
    b3_matrix,
    pi_term,
    pwk_matrix,
    sigma_set,
)
from vilogic.transforms import (
    AntitheoremWitness,
    LeftVIOracle,
    MeetOracle,
    RightVIOracle,
    canonicalize_sequence,
    check_sequence,
    derive_sequence,
    intersect,
    is_antitheorem,
)
from vilogic.lattice import build_lattice, compare, FragmentSpec as _FragmentSpec  # noqa: F401


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


def test_check_sequence_bounds_the_number_of_steps():
    assert check_sequence("lr" * (MAX_NESTING // 2)) == "lr" * (MAX_NESTING // 2)
    with pytest.raises(ValueError, match=f"more than {MAX_NESTING}"):
        check_sequence("l" * (MAX_NESTING + 1))


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


def _all_designated_oracle():
    algebra = b2_matrix().algebra
    return MatrixOracle((FiniteMatrix(algebra, frozenset(algebra.elements)),), label="T")


def test_left_tower_over_an_all_designated_base_has_witness_x(cl_oracle):
    # A matrix designating everything entails every inference, so every set
    # is an antitheorem there: its variable-free antitheorem is the empty
    # set, and the left tower's witness is {x}.
    everything = _all_designated_oracle()
    assert everything.closed_antitheorem == frozenset()
    for sequence in ("", "l", "rl", "lr"):
        tower = derive_sequence(everything, sequence)
        assert tower.antitheorem_info == AntitheoremInfo(WITNESS, frozenset({P("x")})), sequence
    assert is_antitheorem(derive_sequence(everything, "l"), ())
    # A meet with a constraining base has that base's matrix as a model,
    # whose and/or/not terms without variables do not exist.
    meet = intersect(everything, cl_oracle)
    assert meet.closed_antitheorem is None
    left = derive_sequence(meet, "l")
    assert left.antitheorem_info.status == NONE_PROVEN
    assert not is_antitheorem(left, (P("x"), P("not(x)")))


def _with_witness(text):
    """A CL oracle whose antitheorem analysis is pinned to the set ``{text}``."""
    oracle = MatrixOracle((b2_matrix(),), label="CL'")
    oracle.__dict__["antitheorem_info"] = AntitheoremInfo(WITNESS, frozenset({P(text)}))
    return oracle


def test_meet_antitheorem_info_merges_witnesses_in_x(cl_oracle):
    found = cl_oracle.antitheorem_info.witness
    # x is outside {1} at x = 0, and not(x) at x = 1.
    assert found == {P("x"), P("not(x)")}
    # Both sides have a witness in the one variable x: the meet has their union.
    info = intersect(cl_oracle, derive_sequence(cl_oracle, "r")).antitheorem_info
    assert info == AntitheoremInfo(WITNESS, found)
    meet = intersect(cl_oracle, _with_witness("and(x, not(x))"))
    info = meet.antitheorem_info
    assert info == AntitheoremInfo(WITNESS, found | {P("and(x, not(x))")})
    assert is_antitheorem(meet, info.witness)
    # The left tower over an all-designated base has the witness {x}.
    meet = intersect(derive_sequence(_all_designated_oracle(), "l"), cl_oracle)
    assert meet.antitheorem_info == AntitheoremInfo(WITNESS, found)
    assert is_antitheorem(meet, found)
    # A part without antitheorems leaves the meet without them.
    meet = intersect(cl_oracle, derive_sequence(cl_oracle, "l"))
    assert meet.antitheorem_info == AntitheoremInfo(NONE_PROVEN)


def test_antitheorem_statuses_accept_only_the_two_decided_ones():
    with pytest.raises(ValueError, match="bad antitheorem status"):
        AntitheoremInfo("unknown")
    with pytest.raises(NotImplementedError):
        LogicOracle("bare", FULL_SIGNATURE).antitheorem_info


# s cycles 0 -> 1 -> 2 -> 3 -> 0 and p is the left projection, a partition
# function: every element generates all four, so 3 is reached from each,
# but only by s(s(s(x))) from 0, past the old depth-2 search.
PROBE_BASE = """\
signature: s/1, p/2
elements: 0, 1, 2, 3
table s: 0->1  1->2  2->3  3->0
table p: 0,0->0  0,1->0  0,2->0  0,3->0  1,0->1  1,1->1  1,2->1  1,3->1  2,0->2  2,1->2  2,2->2  2,3->2  3,0->3  3,1->3  3,2->3  3,3->3
designated: 0, 1, 2
"""

# The constant c takes the undesignated 0, so {c} is a variable-free
# antitheorem and the left tower has {c, x}.
CONSTANT_BASE = """\
signature: c/0, n/1
elements: 0, 1
table c: ->0
table n: 0->0  1->1
designated: 1
"""


def test_probe_base_has_an_antitheorem_and_seven_towers():
    matrix = parse_matrix_text(PROBE_BASE)
    base = MatrixOracle((matrix,), label="probe")
    info = base.antitheorem_info
    assert info.status == WITNESS
    assert info.witness == {parse_formula(t, matrix.signature) for t in ("x", "s(x)", "s(s(x))", "s(s(s(x)))")}
    assert is_antitheorem(base, info.witness)
    assert find_antitheorem(base) is None  # the old bound missed it
    report = build_lattice(
        matrix,
        parse_formula("p(x, y)", matrix.signature),
        FragmentSpec(variables=("x", "y"), max_depth=3, max_premises=4),
    )
    assert report.base_antitheorems == WITNESS
    towers = [n.node_id for n in report.nodes if n.kind == "tower"]
    assert towers == ["base", "l", "r", "lr", "rl", "rlr", "lrl"]
    verdict = report.verdict("lrl", "rl")
    assert (verdict.relation, verdict.disagreements) == ("strictly-below", (0, 12))


def test_left_tower_over_a_constant_base_has_an_antitheorem():
    matrix = parse_matrix_text(CONSTANT_BASE)
    base = MatrixOracle((matrix,), label="c")
    c, x = parse_formula("c", matrix.signature), var("x")
    assert base.closed_antitheorem == {c}
    left = derive_sequence(base, "l")
    assert left.entails((c,), var("y"))
    assert left.antitheorem_info == AntitheoremInfo(WITNESS, frozenset({c, x}))
    assert is_antitheorem(left, left.antitheorem_info.witness)
    for sequence in ("rl", "lr", "lrl"):
        info = derive_sequence(base, sequence).antitheorem_info
        assert info.status == WITNESS and is_antitheorem(derive_sequence(base, sequence), info.witness)


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


def _plain_entails(matrices, premises, conclusion):
    """Matrix consequence by evaluating every formula under every valuation."""
    names = sorted(vars_of_set(premises) | conclusion.variables)
    for matrix in matrices:
        for valuation in all_valuations(matrix.algebra, names):
            holds = [evaluate(matrix.algebra, p, valuation) in matrix.designated for p in premises]
            if all(holds) and evaluate(matrix.algebra, conclusion, valuation) not in matrix.designated:
                return False
    return True


def _subsets(premises):
    return (
        frozenset(subset)
        for size in range(len(premises) + 1)
        for subset in itertools.combinations(premises, size)
    )


def _definitional(matrices, sequence, premises, conclusion):
    """Tower consequence straight from the definitions, with no cache and
    none of the monotonicity shortcuts: the last step of ``sequence`` is the
    outermost.

    * ``l``: some premise subset within the conclusion's variables entails
      it below;
    * ``r``: some premise subset entails it below and covers its variables,
      or some premise subset entails a variable foreign to it below (an
      antitheorem of the logic below).
    """
    if not sequence:
        return _plain_entails(matrices, premises, conclusion)
    below, step = sequence[:-1], sequence[-1]
    if step == "l":
        return any(
            vars_of_set(subset) <= conclusion.variables
            and _definitional(matrices, below, subset, conclusion)
            for subset in _subsets(premises)
        )
    return any(
        (
            conclusion.variables <= vars_of_set(subset)
            and _definitional(matrices, below, subset, conclusion)
        )
        or _definitional(matrices, below, subset, var(fresh_variable(vars_of_set(subset))))
        for subset in _subsets(premises)
    )


DEFINITIONAL_BASES = {
    "B3": (b3_matrix(),),
    "PWK": (pwk_matrix(),),
    "CL": (b2_matrix(),),
    "CL+B3": (b2_matrix(), b3_matrix()),
}
# One oracle per base for the whole test, so later examples are also
# answered from the leaf's answer memo.
DEFINITIONAL_ORACLES = {
    name: MatrixOracle(matrices, label=name) for name, matrices in DEFINITIONAL_BASES.items()
}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(DEFINITIONAL_BASES)),
    st.text(alphabet="lr", max_size=4),
    st.lists(formula_strategy(max_leaves=3), max_size=2),
    formula_strategy(max_leaves=3),
)
def test_towers_match_the_definitional_recursion(base, sequence, premises, conclusion):
    tower = derive_sequence(DEFINITIONAL_ORACLES[base], sequence)
    expected = _definitional(DEFINITIONAL_BASES[base], sequence, tuple(set(premises)), conclusion)
    assert tower.entails(premises, conclusion) == expected


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
