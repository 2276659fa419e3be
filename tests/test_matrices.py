"""Matrix evaluation, entailment, file round-trips, and homomorphism checks."""

from __future__ import annotations

import gc
import itertools
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilogic.formulas import (
    FragmentSpec,
    Signature,
    app,
    enumerate_fragment,
    fresh_variable,
    parse_formula,
    var,
    vars_of_set,
)
from vilogic.matrices import (
    NONE_PROVEN,
    WITNESS,
    FiniteAlgebra,
    FiniteMatrix,
    MatrixError,
    MatrixFormatError,
    MatrixOracle,
    _designation_masks,
    all_valuations,
    entails,
    evaluate,
    find_countermodel,
    format_matrix,
    has_theorem_in_fragment,
    is_theorem,
    load_matrix_file,
    parse_matrix_text,
)
import vilogic.matrices as matrices_module
from vilogic.plonka import canonical_chain_matrix
from vilogic.presets import (
    FULL_SIGNATURE,
    b2_and_or_matrix,
    b2_matrix,
    b3_matrix,
    pwk_matrix,
    wk_algebra,
)

from conftest import check_homomorphism, formula_strategy, homomorphism_counterexample


def P(text):
    return parse_formula(text, FULL_SIGNATURE)


def test_evaluate_classical_tables():
    algebra = b2_matrix().algebra
    assert evaluate(algebra, P("and(x, y)"), {"x": "1", "y": "0"}) == "0"
    assert evaluate(algebra, P("or(x, y)"), {"x": "1", "y": "0"}) == "1"
    assert evaluate(algebra, P("not(x)"), {"x": "0"}) == "1"


def test_evaluate_contagious_middle_value():
    algebra = wk_algebra()
    assert evaluate(algebra, P("and(x, y)"), {"x": "1", "y": "n"}) == "n"
    assert evaluate(algebra, P("or(x, y)"), {"x": "1", "y": "n"}) == "n"
    assert evaluate(algebra, P("or(x, not(x))"), {"x": "n"}) == "n"


def test_evaluate_rejects_unbound_variable():
    algebra = b2_matrix().algebra
    with pytest.raises(MatrixError):
        evaluate(algebra, P("and(x, y)"), {"x": "1"})


def test_all_valuations_count_and_order():
    algebra = b2_matrix().algebra
    vals = list(all_valuations(algebra, ("x", "y")))
    assert len(vals) == 4
    assert vals[0] == {"x": "0", "y": "0"}
    assert vals[-1] == {"x": "1", "y": "1"}


def test_entails_classical_basics():
    matrix = b2_matrix()
    assert entails([matrix], (P("x"), P("or(not(x), y)")), P("y"))
    assert not entails([matrix], (P("or(x, y)"),), P("x"))
    assert entails([matrix], (), P("or(x, not(x))"))


def test_entails_explosion_differs_across_matrices():
    explosive = (P("x"), P("not(x)"))
    assert entails([b2_matrix()], explosive, P("y"))
    assert not entails([pwk_matrix()], explosive, P("y"))


def test_find_countermodel_reports_first_valuation():
    counter = find_countermodel([pwk_matrix()], (P("x"), P("not(x)")), P("y"))
    assert counter is not None
    index, valuation = counter
    assert index == 0
    assert valuation == {"x": "n", "y": "0"}


def test_find_countermodel_none_for_valid_inference():
    assert find_countermodel([b2_matrix()], (P("and(x, y)"),), P("x")) is None


def test_matrix_constrains_flag():
    assert b2_matrix().constrains
    trivial = FiniteMatrix(b2_matrix().algebra, frozenset({"0", "1"}))
    assert not trivial.constrains


def test_evaluate_rejects_foreign_connective():
    matrix = b2_and_or_matrix()
    with pytest.raises(MatrixError):
        evaluate(matrix.algebra, P("not(x)"), {"x": "1"})


def test_format_parse_round_trip_is_exact():
    for matrix in (b2_matrix(), b2_and_or_matrix(), pwk_matrix(), b3_matrix()):
        text = format_matrix(matrix)
        again = parse_matrix_text(text)
        assert again == matrix
        assert format_matrix(again) == text


@pytest.mark.parametrize("name", ["a b", "a,b", "a#", "a->b", ""])
def test_format_refuses_element_names_the_parser_would_split(name):
    algebra = b2_matrix().algebra
    renamed = {"0": name, "1": "1"}
    tables = {
        table: {tuple(renamed[a] for a in args): renamed[out] for args, out in entries.items()}
        for table, entries in algebra.tables.items()
    }
    matrix = FiniteMatrix(
        FiniteAlgebra(algebra.signature, (name, "1"), tables), frozenset({"1"})
    )
    with pytest.raises(MatrixFormatError, match=re.escape(repr(name))):
        format_matrix(matrix)


def test_load_matrix_file(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text(format_matrix(b3_matrix()), encoding="utf-8")
    assert load_matrix_file(path) == b3_matrix()


def test_parse_matrix_reports_line_of_error():
    text = "signature: and/2\nelements: 0, 1\ntable and: 0,0->2\ndesignated: 1\n"
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix_text(text)
    assert exc.value.line == 3


def test_parse_matrix_requires_total_tables():
    text = "signature: not/1\nelements: 0, 1\ntable not: 0->1\ndesignated: 1\n"
    with pytest.raises(MatrixFormatError):
        parse_matrix_text(text)


def _b2_tables(**changes):
    """The two-element Boolean tables, with ``changes`` applied per connective
    (a dict of entries to set, where a value of None deletes the entry)."""
    tables = {name: dict(table) for name, table in b2_matrix().algebra.tables.items()}
    for name, edits in changes.items():
        for args, out in edits.items():
            if out is None:
                del tables[name][args]
            else:
                tables[name][args] = out
    return tables


@pytest.mark.parametrize(
    "elements, tables, message",
    [
        ((), {}, "algebra needs at least one element"),
        (("0", "1", "0"), _b2_tables(), "duplicate elements"),
        (
            ("0", "1"),
            {name: t for name, t in _b2_tables().items() if name != "not"},
            "tables ['and', 'or'] do not match signature ['and', 'not', 'or']",
        ),
        (("0", "1"), _b2_tables(**{"or": {("1", "1"): None}}), "table for 'or' has 3 entries, needs 4"),
        (
            ("0", "1"),
            _b2_tables(**{"and": {("0", "0"): None, ("0",): "0", ("1",): "1"}, "or": {("1", "1"): None}}),
            "table for 'and' has 5 entries, needs 4",
        ),
        (
            ("0", "1"),
            _b2_tables(**{"and": {("1", "1"): None, ("1",): "1"}, "not": {("0",): "2"}}),
            "table for 'and' has an entry of wrong arity: ('1',)",
        ),
        (
            ("0", "1"),
            _b2_tables(**{"and": {("0", "1"): "2", ("1", "0"): "3"}}),
            "table for 'and' mentions unknown elements: ('0', '1') -> 2",
        ),
        (
            ("0", "1"),
            _b2_tables(**{"or": {("1", "1"): None, ("1", "x"): "1"}, "not": {("0",): "2"}}),
            "table for 'or' mentions unknown elements: ('1', 'x') -> 1",
        ),
        (
            ("0", "1"),
            _b2_tables(**{"and": {("0", "1"): "2", ("1", "1"): None, (("1", "1", "1")): "1"}}),
            "table for 'and' mentions unknown elements: ('0', '1') -> 2",
        ),
    ],
    ids=[
        "no-elements", "duplicate-elements", "tables-not-signature", "missing-entry",
        "first-connective-counted-first", "wrong-arity", "unknown-value-first-entry",
        "unknown-argument", "first-bad-entry-in-table-order",
    ],
)
def test_algebra_construction_names_the_first_fault(elements, tables, message):
    """Connectives are checked in signature order: the entry count first, then
    each entry in table order, its arity before its elements."""
    with pytest.raises(MatrixError) as caught:
        FiniteAlgebra(FULL_SIGNATURE, elements, tables)
    assert str(caught.value) == message


def test_empty_designated_round_trips():
    matrix = FiniteMatrix(b2_matrix().algebra, frozenset())
    assert parse_matrix_text(format_matrix(matrix)) == matrix


def test_homomorphism_identity_passes():
    algebra = b2_matrix().algebra
    mapping = {e: e for e in algebra.elements}
    assert homomorphism_counterexample(algebra, algebra, mapping) is None
    assert check_homomorphism(algebra, algebra, mapping)


def test_homomorphism_collapse_into_trap_element():
    """Sending both classical values onto the contagious element is a hom."""
    wk = wk_algebra()
    b2 = b2_matrix().algebra
    mapping = {"0": "n", "1": "n"}
    assert homomorphism_counterexample(b2, wk, mapping) is None


def test_homomorphism_counterexample_names_operation():
    wk = wk_algebra()
    b2 = b2_matrix().algebra
    counter = homomorphism_counterexample(b2, wk, {"0": "0", "1": "n"})
    assert counter is not None
    name, args = counter
    assert name in {"and", "or", "not"}
    assert all(a in ("0", "1") for a in args)


def test_homomorphism_rejects_partial_mapping():
    algebra = b2_matrix().algebra
    with pytest.raises(MatrixError):
        homomorphism_counterexample(algebra, algebra, {"0": "0"})


def test_oracle_label_and_memoization(monkeypatch):
    oracle = MatrixOracle((b2_matrix(),), label="CL")
    assert oracle.label == "CL"
    inference = ((P("x"),), P("x"))
    assert oracle.entails(*inference)
    assert oracle._answers == {(frozenset(inference[0]), inference[1]): True}

    def evaluated_again(*args):
        raise AssertionError("a repeated query was evaluated again")

    monkeypatch.setattr(oracle, "_formula_masks", evaluated_again)
    assert oracle.entails(*inference)


def test_oracle_antitheorem_status_per_matrix():
    assert MatrixOracle((b2_matrix(),)).antitheorem_info.status == WITNESS
    assert MatrixOracle((pwk_matrix(),)).antitheorem_info.status == NONE_PROVEN
    assert MatrixOracle((b3_matrix(),)).antitheorem_info.status == WITNESS
    assert MatrixOracle((b2_and_or_matrix(),)).antitheorem_info.status == NONE_PROVEN


def test_is_theorem_and_fragment_search():
    oracle = MatrixOracle((b2_matrix(),))
    assert is_theorem(oracle, P("or(x, not(x))"))
    spec = FragmentSpec(variables=("x",), max_depth=2, max_premises=1)
    assert has_theorem_in_fragment(oracle, spec) == P("or(x, not(x))")
    and_or = MatrixOracle((b2_and_or_matrix(),))
    assert has_theorem_in_fragment(and_or, spec) is None


@settings(max_examples=60)
@given(formula_strategy(max_leaves=5))
def test_reflexivity_of_matrix_consequence(f):
    assert entails([b2_matrix()], (f,), f)
    assert entails([pwk_matrix()], (f,), f)


@settings(max_examples=60)
@given(formula_strategy(max_leaves=4), formula_strategy(max_leaves=4))
def test_monotonicity_of_matrix_consequence(f, extra):
    matrix = pwk_matrix()
    if entails([matrix], (f,), f):
        assert entails([matrix], (f, extra), f)


def test_multi_matrix_oracle_intersects_consequences():
    oracle = MatrixOracle((b2_matrix(), pwk_matrix()), label="both")
    assert oracle.entails((P("x"),), P("or(x, y)"))
    assert not oracle.entails((P("x"), P("not(x)")), P("y"))
    assert not oracle.entails((P("and(x, y)"),), P("x"))


# ---------------------------------------------------------------------------
# Designation masks against the per-valuation reference
# ---------------------------------------------------------------------------


def _constant_matrix():
    """The weak Kleene tables plus a 0-ary connective ``t`` naming 1."""
    algebra = wk_algebra()
    signature = Signature(FULL_SIGNATURE.connectives + (("t", 0),))
    tables = dict(algebra.tables, t={(): "1"})
    return FiniteMatrix(FiniteAlgebra(signature, algebra.elements, tables), frozenset({"1"}))


def _ternary_matrix():
    """B3's tables plus ``t`` naming 1 and a ternary ``ite``: its second
    argument when the first is designated, else its third."""
    matrix = b3_matrix()
    algebra = matrix.algebra
    signature = Signature(FULL_SIGNATURE.connectives + (("t", 0), ("ite", 3)))
    ite = {
        (a, b, c): b if a in matrix.designated else c
        for a, b, c in itertools.product(algebra.elements, repeat=3)
    }
    tables = dict(algebra.tables, t={(): "1"}, ite=ite)
    return FiniteMatrix(FiniteAlgebra(signature, algebra.elements, tables), matrix.designated)


_WK = wk_algebra()
DIFFERENTIAL_CLASSES = {
    "B3": (b3_matrix(),),
    "PWK": (pwk_matrix(),),
    "CL": (b2_matrix(),),
    "CL+B3": (b2_matrix(), b3_matrix()),
    "constant": (_constant_matrix(),),
    "ternary": (_ternary_matrix(),),
    "empty": (FiniteMatrix(_WK, frozenset()),),
    "full": (FiniteMatrix(_WK, frozenset(_WK.elements)),),
}


def reference_countermodel(matrices, premises, conclusion):
    """First countermodel found by evaluating every valuation in turn."""
    variables = sorted(vars_of_set((*premises, conclusion)))
    for index, matrix in enumerate(matrices):
        for valuation in all_valuations(matrix.algebra, variables):
            if all(evaluate(matrix.algebra, p, valuation) in matrix.designated for p in premises):
                if evaluate(matrix.algebra, conclusion, valuation) not in matrix.designated:
                    return index, valuation
    return None


_SHARED_ORACLES = {name: MatrixOracle(m) for name, m in DIFFERENTIAL_CLASSES.items()}


def _heads(formula):
    if formula.args is None:
        return set()
    return {formula.head}.union(*map(_heads, formula.args))


@st.composite
def inferences(draw):
    """0-3 premises and a conclusion over x, y, z in and/or/not; in half of
    the draws the constant t is a leaf too, in half the ternary ite is a
    connective too, and the conclusion may be a variable fresh to the
    premises, as in is_antitheorem."""
    leaves = [var("x"), var("y"), var("z")]
    if draw(st.booleans()):
        leaves.append(app("t"))
    ternary = draw(st.booleans())

    def extend(children):
        options = [
            st.builds(lambda a, b: app("and", a, b), children, children),
            st.builds(lambda a, b: app("or", a, b), children, children),
            st.builds(lambda a: app("not", a), children),
        ]
        if ternary:
            options.append(st.builds(lambda *abc: app("ite", *abc), children, children, children))
        return st.one_of(options)

    formulas = st.recursive(st.sampled_from(leaves), extend, max_leaves=5)
    premises = tuple(draw(st.lists(formulas, max_size=3)))
    conclusion = draw(st.one_of(formulas, st.none()))
    if conclusion is None:
        conclusion = var(fresh_variable(vars_of_set(premises)))
    return premises, conclusion


@settings(max_examples=100, deadline=None)
@given(inferences())
def test_masks_match_the_per_valuation_reference(inference):
    premises, conclusion = inference
    heads = set().union(*map(_heads, (*premises, conclusion)))
    for name, matrices in DIFFERENTIAL_CLASSES.items():
        if not heads <= set(matrices[0].signature.names):
            with pytest.raises(MatrixError):
                find_countermodel(matrices, premises, conclusion)
            continue
        expected = reference_countermodel(matrices, premises, conclusion)
        assert find_countermodel(matrices, premises, conclusion) == expected, name
        assert entails(matrices, premises, conclusion) == (expected is None), name
        assert MatrixOracle(matrices).entails(premises, conclusion) == (expected is None), name
        # Again through an oracle whose mask cache is already warm.
        assert _SHARED_ORACLES[name].entails(premises, conclusion) == (expected is None), name


PINNED_MATRICES = {
    "CL": b2_matrix(),
    "B3": b3_matrix(),
    "PWK": pwk_matrix(),
    **{
        f"chain[{seq or 'base'}]": canonical_chain_matrix(b2_matrix(), seq)
        for seq in ("", "l", "r", "lr", "rl", "rlr", "lrl")
    },
}


@pytest.mark.parametrize("name", list(PINNED_MATRICES))
def test_mask_bit_i_is_the_ith_valuation(name):
    # Bit i of a designation mask is the i-th valuation of all_valuations,
    # over variables the formula may leave unused.
    matrix = PINNED_MATRICES[name]
    variables = ("w", "x", "y")
    spec = FragmentSpec(variables=("x", "y"), max_depth=2, max_premises=0)
    for formula in enumerate_fragment(matrix.signature, spec)[::5]:
        (mask,) = _designation_masks((matrix,), formula, variables)
        for i, valuation in enumerate(all_valuations(matrix.algebra, variables)):
            designated = evaluate(matrix.algebra, formula, valuation) in matrix.designated
            assert (mask >> i & 1) == designated, (formula, valuation)
        assert mask >> i + 1 == 0


def test_masks_decide_inferences_without_variables():
    matrices = DIFFERENTIAL_CLASSES["constant"]
    t = app("t")
    assert find_countermodel(matrices, (), t) is None
    assert find_countermodel(matrices, (), app("not", t)) == (0, {})
    assert find_countermodel(matrices, (app("not", t),), app("not", t)) is None
    assert find_countermodel(matrices, (t,), var("x")) == (0, {"x": "0"})
    oracle = MatrixOracle(matrices)
    assert oracle.entails((), t)
    assert not oracle.entails((), app("not", t))


def test_masks_on_degenerate_designated_sets():
    empty = DIFFERENTIAL_CLASSES["empty"]
    full = DIFFERENTIAL_CLASSES["full"]
    assert find_countermodel(empty, (), P("or(x, not(x))")) == (0, {"x": "0"})
    assert find_countermodel(empty, (P("x"),), P("y")) is None
    assert find_countermodel(full, (), P("and(x, not(x))")) is None
    # The first failing matrix is reported, in class order.
    assert find_countermodel(empty + full, (), P("x")) == (0, {"x": "0"})
    assert find_countermodel(full + empty, (), P("x")) == (1, {"x": "0"})


def test_masks_reject_formulas_outside_the_signature():
    and_or = (b2_and_or_matrix(),)
    with pytest.raises(MatrixError):
        find_countermodel(and_or, (), P("not(x)"))
    with pytest.raises(MatrixError):
        MatrixOracle(and_or).entails((P("x"),), P("or(x, not(y))"))
    with pytest.raises(MatrixError):
        entails((b2_matrix(),), (app("and", var("x")),), var("x"))


def test_a_wide_valuation_grid_goes_with_its_query(monkeypatch):
    # A 20-variable query over two elements builds a 168 MB grid.  Kept in
    # a cache, it held that memory for the life of the process; it must be
    # freed with the query, while few-variable grids stay cached.
    built = []
    original = matrices_module._valuation_grid

    def spy(n, k):
        grid = original(n, k)
        built.append(((n, k), weakref.ref(grid)))
        return grid

    monkeypatch.setattr(matrices_module, "_valuation_grid", spy)
    names = [var(f"v{i}") for i in range(20)]
    assert entails([b2_matrix()], names, names[0])
    gc.collect()
    assert {shape for shape, _ in built} == {(2, 20)}
    assert all(ref() is None for _, ref in built)
    assert original(2, 3) is original(2, 3)
