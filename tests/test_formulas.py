"""Formula construction, parsing, substitution, and fragment enumeration."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilogic.formulas import (
    MAX_NESTING,
    ArityError,
    FormulaError,
    FragmentSpec,
    ParseError,
    Signature,
    app,
    enumerate_fragment,
    formula_sort_key,
    fragment_subsets,
    fresh_variable,
    parse_formula,
    substitute,
    var,
    vars_of_set,
)
from vilogic.presets import AND_OR_SIGNATURE, FULL_SIGNATURE

from conftest import formula_strategy


def test_variable_basics():
    x = var("x")
    assert x.is_variable
    assert x.depth == 0
    assert x.variables == frozenset({"x"})
    assert str(x) == "x"


def test_application_depth_and_variables():
    f = app("and", var("x"), app("or", var("x"), var("y")))
    assert f.depth == 2
    assert f.variables == frozenset({"x", "y"})
    assert str(f) == "and(x, or(x, y))"


def test_formulas_hash_and_compare_structurally():
    a = app("and", var("x"), var("y"))
    b = app("and", var("x"), var("y"))
    assert a == b
    assert hash(a) == hash(b)
    assert a != app("and", var("y"), var("x"))


def test_parse_round_trip_on_sample():
    text = "and(not(x), or(y, not(z)))"
    f = parse_formula(text, FULL_SIGNATURE)
    assert str(f) == text


@settings(max_examples=100)
@given(formula_strategy())
def test_parse_inverts_str(f):
    assert parse_formula(str(f), FULL_SIGNATURE) == f


def test_parse_rejects_wrong_arity():
    with pytest.raises(ArityError):
        parse_formula("not(x, y)", FULL_SIGNATURE)


def test_parse_rejects_unknown_connective():
    with pytest.raises(ParseError):
        parse_formula("xor(x, y)", FULL_SIGNATURE)


def test_parse_rejects_unbalanced_text():
    with pytest.raises(FormulaError):
        parse_formula("and(x, or(y, z)", FULL_SIGNATURE)


def test_parse_bounds_the_nesting_depth():
    def nested(depth):
        return "not(" * depth + "and(x, t)" + ")" * depth

    signature = Signature.of(("and", 2), ("not", 1), ("t", 0))
    # A constant is a connective too: and(x, t) has depth 2.
    assert parse_formula(nested(MAX_NESTING - 2), signature).depth == MAX_NESTING
    with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING}"):
        parse_formula(nested(MAX_NESTING - 1), signature)


def test_signature_lookup_and_order():
    sig = Signature.of(("and", 2), ("or", 2), ("not", 1))
    assert sig.arity("not") == 1
    assert [name for name, _ in sig.connectives] == ["and", "or", "not"]


@settings(max_examples=100)
@given(formula_strategy(), st.sampled_from(["x", "y", "z"]), formula_strategy())
def test_substitute_variable_law(f, name, image):
    """Variables after substitution are the images' variables, glued correctly."""
    result = substitute(f, {name: image})
    expected = frozenset()
    for v in f.variables:
        expected |= image.variables if v == name else frozenset({v})
    assert result.variables == expected


def test_substitute_missing_variables_stay():
    f = app("or", var("x"), var("y"))
    assert substitute(f, {"x": var("z")}) == app("or", var("z"), var("y"))


def test_substitute_composes_on_sample():
    f = app("and", var("x"), var("y"))
    step1 = substitute(f, {"x": app("not", var("y"))})
    step2 = substitute(step1, {"y": var("z")})
    assert step2 == app("and", app("not", var("z")), var("z"))


def test_fresh_variable_avoids_and_primes():
    assert fresh_variable({"x", "z"}) == "y"
    assert fresh_variable({"x", "y", "y'"}) == "y''"


def test_vars_of_set_union():
    fs = [var("x"), app("not", var("z"))]
    assert vars_of_set(fs) == frozenset({"x", "z"})


def _reference_fragment(signature, variables, max_depth):
    """Independent enumeration by depth layers, as a set."""
    layers = [{var(v) for v in variables}]
    for _ in range(max_depth):
        pool = set().union(*layers)
        new = set()
        for name, arity in signature.connectives:
            for args in itertools.product(pool, repeat=arity):
                candidate = app(name, *args)
                if candidate not in pool:
                    new.add(candidate)
        layers.append(new)
    return set().union(*layers)


@pytest.mark.parametrize(
    "signature,variables,depth",
    [
        (FULL_SIGNATURE, ("x",), 1),
        (FULL_SIGNATURE, ("x", "y"), 1),
        (FULL_SIGNATURE, ("x",), 2),
        (AND_OR_SIGNATURE, ("x", "y"), 2),
    ],
)
def test_enumerate_fragment_matches_reference(signature, variables, depth):
    spec = FragmentSpec(variables=variables, max_depth=depth, max_premises=2)
    got = enumerate_fragment(signature, spec)
    assert len(got) == len(set(got)), "enumeration must not repeat formulas"
    assert set(got) == _reference_fragment(signature, variables, depth)


def test_enumerate_fragment_depth_major_order():
    spec = FragmentSpec(variables=("x", "y"), max_depth=2, max_premises=2)
    fragment = enumerate_fragment(FULL_SIGNATURE, spec)
    depths = [f.depth for f in fragment]
    assert depths == sorted(depths)
    assert fragment[0] == var("x")
    assert fragment[1] == var("y")


def test_enumerate_fragment_order_is_stable():
    spec = FragmentSpec(variables=("x",), max_depth=1, max_premises=1)
    fragment = enumerate_fragment(FULL_SIGNATURE, spec)
    assert [str(f) for f in fragment] == [
        "x",
        "and(x, x)",
        "or(x, x)",
        "not(x)",
    ]


def test_fragment_default_size():
    fragment = enumerate_fragment(FULL_SIGNATURE, FragmentSpec())
    assert len(fragment) == 1179


def test_fragment_subsets_sizes_and_count():
    spec = FragmentSpec(variables=("x",), max_depth=1, max_premises=2)
    formulas = enumerate_fragment(FULL_SIGNATURE, spec)
    subsets = list(fragment_subsets(formulas, 2))
    n = len(formulas)
    assert len(subsets) == 1 + n + math.comb(n, 2)
    sizes = [len(s) for s in subsets]
    assert sizes == sorted(sizes)
    assert subsets[0] == ()
    assert subsets[1] == (formulas[0],)
    assert subsets[n + 1] == (formulas[0], formulas[1])


def test_formula_sort_key_orders_by_depth_first():
    deep = app("not", app("not", var("x")))
    shallow = var("z")
    assert formula_sort_key(shallow) < formula_sort_key(deep)


def test_fragment_spec_validation():
    with pytest.raises(FormulaError):
        FragmentSpec(variables=(), max_depth=1, max_premises=1)
