"""Comparison verdicts, lattice construction, and figure reproduction."""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vilogic.formulas import (
    Formula,
    FragmentSpec,
    Signature,
    enumerate_fragment,
    parse_formula,
    var,
    vars_of_set,
)
from vilogic.lattice import (
    DEFAULT_FRAGMENT,
    Inference,
    LatticeError,
    build_lattice,
    compare,
    no_verdict_cycles,
    reproduce_figure,
    witness_suite,
    _oracle_tree,
)
import vilogic.lattice as lattice_module
import vilogic.vector as vector_module
from vilogic.vector import _VectorContext
from vilogic.matrices import (
    WITNESS,
    FiniteAlgebra,
    FiniteMatrix,
    MatrixOracle,
    parse_matrix_text,
)
from vilogic.plonka import canonical_chain_matrix
from vilogic.presets import (
    FULL_SIGNATURE,
    b2_and_or_matrix,
    b2_matrix,
    b3_matrix,
    pi_term,
    pwk_matrix,
    sigma_set,
)
from vilogic.transforms import AntitheoremWitness, derive_sequence, intersect, is_antitheorem

from conftest import class_row_reference, find_antitheorem


def P(text):
    return parse_formula(text, FULL_SIGNATURE)


TINY = FragmentSpec(variables=("x", "y"), max_depth=1, max_premises=2)
CL = MatrixOracle((b2_matrix(),), label="CL")
REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs"


def test_inference_str_and_premise_dedup():
    inference = Inference((P("x"), P("not(x)"), P("x")), P("y"))
    assert inference.premises == (P("x"), P("not(x)"))
    assert str(inference) == "x, not(x) |- y"
    assert str(Inference((), P("or(x, not(x))"))) == "|- or(x, not(x))"


def test_compare_oracle_with_itself_is_equal():
    verdict = compare(derive_sequence(CL, "l"), derive_sequence(CL, "l"), TINY)
    assert verdict.relation == "equal"
    assert verdict.witnesses_ab == ()
    assert verdict.witnesses_ba == ()
    assert "equal on fragment" in verdict.relation_display


def test_compare_requires_shared_signature():
    and_or = MatrixOracle((b2_and_or_matrix(),), label="CL[and,or]")
    with pytest.raises(LatticeError):
        compare(CL, and_or, TINY)


def test_compare_rejects_unknown_engine():
    for engine in ("bogus", "classes", "auto"):
        with pytest.raises(LatticeError, match="unknown engine"):
            compare(CL, CL, TINY, engine=engine)


def test_one_step_towers_incomparable_with_exact_witnesses():
    frag = FragmentSpec(variables=("x", "y"), max_depth=2, max_premises=2)
    verdict = compare(derive_sequence(CL, "l"), derive_sequence(CL, "r"), frag)
    assert verdict.relation == "incomparable"
    assert verdict.witnesses_ab[0] == Inference((), P("or(x, not(x))"))
    assert verdict.witnesses_ba[0] == Inference((P("and(x, y)"),), P("x"))
    assert verdict.disagreements == (43, 464)
    assert verdict.engine == "vector"


def test_engines_agree_on_relation_and_first_witness():
    left = derive_sequence(CL, "l")
    right = derive_sequence(CL, "r")
    by_engine = {
        engine: compare(left, right, TINY, engine=engine)
        for engine in ("exhaustive", "vector")
    }
    relations = {v.relation for v in by_engine.values()}
    assert relations == {"incomparable"}
    firsts_ab = {v.witnesses_ab[0] for v in by_engine.values()}
    firsts_ba = {v.witnesses_ba[0] for v in by_engine.values()}
    assert len(firsts_ab) == 1
    assert len(firsts_ba) == 1
    assert by_engine["vector"].disagreements == class_row_reference(
        left, right, TINY, 0
    )[0]


CL_B3 = MatrixOracle((b2_matrix(), b3_matrix()), label="CL+B3")


@pytest.mark.parametrize(
    "spec",
    [
        FragmentSpec(variables=("x", "y"), max_depth=1, max_premises=3),
        # 12 classes use both variables: a full chunk of 8 and one of 4.
        FragmentSpec(variables=("x", "y"), max_depth=2, max_premises=2),
    ],
    ids=["depth-1", "depth-2"],
)
def test_vector_and_class_engines_count_alike_with_meet_towers(spec):
    # The class reference queries the real oracles once per class pattern,
    # so it checks the vector engine's counts, not only its first witnesses.
    # The exhaustive engine cannot: at depth 2 it would query every premise
    # set of up to 2 of all the fragment's formulas.
    towers = {seq: derive_sequence(CL_B3, seq) for seq in ("l", "r", "lr", "rl", "rlr")}
    towers["meet(l,r)"] = intersect(towers["l"], towers["r"])
    towers["meet(lr,rl)"] = intersect(towers["lr"], towers["rl"])
    pairs = [
        ("l", "r"),
        ("rlr", "meet(lr,rl)"),
        ("meet(l,r)", "lr"),
        ("meet(lr,rl)", "l"),
        ("r", "meet(l,r)"),
    ]
    separated = 0
    for a, b in pairs:
        vector = compare(towers[a], towers[b], spec, engine="vector")
        expected = class_row_reference(towers[a], towers[b], spec, 0)[0]
        assert vector.disagreements == expected, (a, b)
        separated += any(vector.disagreements)
    assert separated


def test_compare_rejects_negative_max_witnesses():
    left = derive_sequence(CL, "l")
    right = derive_sequence(CL, "r")
    with pytest.raises(LatticeError, match="max_witnesses"):
        compare(left, right, TINY, max_witnesses=-1)
    with pytest.raises(LatticeError, match="max_witnesses"):
        compare(left, right, TINY, engine="exhaustive", max_witnesses=-1)
    assert compare(left, right, TINY, max_witnesses=0).witnesses_ab == ()


def test_build_lattice_rejects_negative_max_witnesses():
    with pytest.raises(LatticeError, match="max_witnesses"):
        build_lattice(b2_matrix(), pi_term(), fragment=TINY, max_witnesses=-1)


@pytest.mark.parametrize(
    "a, b, relation",
    [
        (
            derive_sequence(CL, "rlr"),
            intersect(derive_sequence(CL, "lr"), derive_sequence(CL, "rl")),
            "equal",
        ),
        (derive_sequence(CL_B3, "l"), derive_sequence(CL_B3, "r"), "strictly-below"),
    ],
    ids=["CL-rlr-vs-meet(lr,rl)", "CL+B3-l-vs-r"],
)
def test_exhaustive_and_vector_engines_agree_beyond_tiny(a, b, relation):
    # Counts differ by design: the exhaustive engine counts raw inferences,
    # the vector engine class representatives.
    spec = FragmentSpec(variables=("x", "y", "z"), max_depth=1, max_premises=3)
    exhaustive = compare(a, b, spec, engine="exhaustive")
    vector = compare(a, b, spec, engine="vector")
    assert exhaustive.relation == vector.relation == relation
    assert exhaustive.witnesses_ab[:1] == vector.witnesses_ab[:1]
    assert exhaustive.witnesses_ba[:1] == vector.witnesses_ba[:1]


@st.composite
def random_matrices(draw):
    """A 2- or 3-element matrix over and/2, or/2, not/1: every table entry
    and the designated set drawn at random (empty and full sets included)."""
    elements = tuple(str(i) for i in range(draw(st.integers(2, 3))))
    value = st.sampled_from(elements)
    tables = {
        name: {args: draw(value) for args in itertools.product(elements, repeat=arity)}
        for name, arity in FULL_SIGNATURE.connectives
    }
    algebra = FiniteAlgebra(FULL_SIGNATURE, elements, tables)
    return FiniteMatrix(algebra, draw(st.frozensets(value)))


TOWERS_UP_TO_3 = st.text(alphabet="lr", max_size=3)


# ``above`` steps are taken over the meet, as in r(meet(lr,rl)), so the
# vector engine's tower walk meets a meet below a left or right step.
@settings(max_examples=120, deadline=None)
@given(
    random_matrices(),
    TOWERS_UP_TO_3,
    TOWERS_UP_TO_3,
    st.one_of(st.none(), TOWERS_UP_TO_3),
    st.text(alphabet="lr", max_size=2),
)
@example(b2_matrix(), "rl", "l", "r", "r")
@example(b3_matrix(), "rl", "lr", "rl", "r")
@example(pwk_matrix(), "rl", "", "r", "rl")
@example(b2_matrix(), "lr", "", "l", "r")
def test_engines_agree_on_random_matrices(matrix, first, second, meet_with, above):
    base = MatrixOracle((matrix,), label="M")
    a = derive_sequence(base, first)
    b = derive_sequence(base, second)
    if meet_with is not None:
        b = derive_sequence(intersect(b, derive_sequence(base, meet_with)), above)
    exhaustive = compare(a, b, TINY, engine="exhaustive")
    vector = compare(a, b, TINY, engine="vector")
    assert exhaustive.relation == vector.relation
    assert exhaustive.witnesses_ab[:1] == vector.witnesses_ab[:1]
    assert exhaustive.witnesses_ba[:1] == vector.witnesses_ba[:1]


def test_only_the_matrix_leaf_caches_answers():
    base = MatrixOracle((b2_matrix(),), label="CL")
    lr, rl = derive_sequence(base, "lr"), derive_sequence(base, "rl")
    meet = intersect(lr, rl)
    verdict = compare(lr, rl, TINY, engine="exhaustive")
    assert verdict.relation == "strictly-below"
    for witness in verdict.witnesses_ba:
        assert not meet.entails(witness.premises, witness.conclusion)
    for layer in (meet, lr, lr.base, rl, rl.base):
        held = [name for name, value in vars(layer).items() if isinstance(value, dict)]
        assert held == [], (layer, held)
    assert base._answers


class Opaque:
    """An oracle the vector engine cannot read: it only answers queries."""

    label = "opaque"
    signature = CL.signature

    def __init__(self, inner):
        self.inner = inner

    def entails(self, premises, conclusion):
        return self.inner.entails(premises, conclusion)


def test_exhaustive_engine_handles_opaque_oracles():
    meet = intersect(derive_sequence(CL, "l"), derive_sequence(CL, "r"))
    verdict = compare(Opaque(meet), meet, TINY, engine="exhaustive")
    assert verdict.engine == "exhaustive"
    assert verdict.relation == "equal"
    with pytest.raises(LatticeError, match="not Opaque$"):
        compare(Opaque(meet), meet, TINY)


def test_build_lattice_refuses_an_opaque_extra_pair():
    left = derive_sequence(CL, "l")
    with pytest.raises(LatticeError, match="not Opaque$"):
        build_lattice(
            b2_matrix(), pi_term(), fragment=TINY, extra_pairs=[(left, Opaque(left))]
        )


@pytest.mark.parametrize(
    "base, towers",
    [(b2_matrix(), b2_and_or_matrix()), (b2_and_or_matrix(), b2_matrix())],
    ids=["CL-lattice-and-or-pair", "and-or-lattice-CL-pair"],
)
def test_build_lattice_refuses_an_extra_pair_of_another_signature(base, towers):
    # One context serves every pair, with one signature.  Unchecked, a
    # mismatch raises a bare KeyError (and/or towers in a CL lattice) or
    # gives a verdict on the and/or formulas only (the other way round).
    oracle = MatrixOracle((towers,), label="other")
    extra = (derive_sequence(oracle, "l"), derive_sequence(oracle, "r"))
    with pytest.raises(LatticeError, match="must share a signature"):
        build_lattice(base, pi_term(), fragment=TINY, extra_pairs=[extra])


# Three elements whose formula classes split CL's at vars=x,y;depth=2.
SPLITTER = parse_matrix_text(
    """
    signature: and/2, or/2, not/1
    elements: 0, 1, 2
    table and: 0,0->0  0,1->2  0,2->0  1,0->1  1,1->0  1,2->1  2,0->1  2,1->1  2,2->2
    table or: 0,0->1  0,1->0  0,2->0  1,0->1  1,1->0  1,2->1  2,0->1  2,1->2  2,2->0
    table not: 0->2  1->1  2->1
    designated: 2
    """
)


def test_an_extra_pair_over_other_matrices_leaves_the_lattice_as_it_is():
    oracle = MatrixOracle((SPLITTER,), label="splitter")
    extra = (derive_sequence(oracle, "l"), derive_sequence(oracle, "r"))
    alone = build_lattice(b2_matrix(), pi_term(), XY2, base_label="CL")
    report = build_lattice(
        b2_matrix(), pi_term(), XY2, base_label="CL", extra_pairs=[extra]
    )
    assert report.to_json() == alone.to_json()
    assert report.extra_verdicts == (compare(*extra, XY2, max_witnesses=3),)


def test_extra_witnesses_merge_and_agreeing_extras_are_skipped():
    frag = FragmentSpec(variables=("x", "y"), max_depth=1, max_premises=1)
    gap = Inference((P("and(x, or(x, y))"),), P("x"))
    agreeing = Inference((P("x"),), P("x"))
    verdict = compare(
        derive_sequence(CL, "r"),
        derive_sequence(CL, "l"),
        frag,
        extra_witnesses=(gap, agreeing),
    )
    assert gap in verdict.witnesses_ab
    assert agreeing not in verdict.witnesses_ab
    assert agreeing not in verdict.witnesses_ba


@pytest.mark.parametrize("engine", ["exhaustive", "vector"])
def test_extra_witness_counts_only_outside_the_fragment(engine):
    left = derive_sequence(CL, "l")
    right = derive_sequence(CL, "r")
    plain = compare(left, right, TINY, engine=engine)
    inside = (
        Inference((P("and(x, y)"),), P("x")),
        Inference((P("y"), P("and(x, y)")), P("x")),
    )
    verdict = compare(left, right, TINY, extra_witnesses=inside, engine=engine)
    assert verdict.disagreements == plain.disagreements
    assert set(inside) <= set(verdict.witnesses_ba)
    ab, ba = plain.disagreements
    for outside in (
        # a premise beyond the fragment's depth
        Inference((P("and(x, or(x, y))"),), P("x")),
        # more premises than the fragment allows
        Inference((P("and(x, y)"), P("y"), P("or(x, y)")), P("x")),
    ):
        verdict = compare(left, right, TINY, extra_witnesses=(outside,), engine=engine)
        assert verdict.disagreements == (ab, ba + 1)
        assert outside in verdict.witnesses_ba


def test_verdict_render_and_json():
    verdict = compare(derive_sequence(CL, "l"), derive_sequence(CL, "r"), TINY)
    text = verdict.render()
    assert "compare CL^l vs CL^r" in text
    assert "vars=x,y;depth=1;premises=2" in text
    payload = json.loads(json.dumps(verdict.to_json()))
    assert payload["relation"] == "incomparable"
    assert payload["a"] == "CL^l"
    assert payload["b"] == "CL^r"


def test_no_verdict_cycles_detects_inconsistency():
    good = [
        compare(CL, derive_sequence(CL, "l"), TINY),
        compare(derive_sequence(CL, "l"), derive_sequence(CL, "lr"), TINY),
        compare(CL, derive_sequence(CL, "lr"), TINY),
    ]
    assert no_verdict_cycles(good)

    import dataclasses

    forged = dataclasses.replace(good[2], relation="strictly-below")
    assert not no_verdict_cycles([good[0], good[1], forged])


def test_build_lattice_on_explosive_base():
    report = build_lattice(b2_matrix(), pi_term(), fragment=TINY, base_label="CL")
    ids = [node.node_id for node in report.nodes]
    assert ids == [
        "base",
        "l",
        "r",
        "lr",
        "rl",
        "rlr",
        "lrl",
        "meet(l,r)",
        "meet(lr,rl)",
        "join(l,r)",
        "join(rl,lr)",
    ]
    assert not report.trivial_base
    assert report.base_antitheorems == "witness"
    assert report.verdict("l", "r").relation == "incomparable"
    assert report.verdict("r", "l").relation == "incomparable"
    assert ("l", "base") in report.hasse_edges
    assert ("r", "base") in report.hasse_edges
    assert ("l", "join(l,r)") in report.formal_edges
    text = report.render()
    assert "lattice over CL" in text
    assert "base antitheorems: witness" in text


def test_build_lattice_without_antitheorems_collapses_depth_two_towers():
    report = build_lattice(
        b2_and_or_matrix(), pi_term(), fragment=TINY, base_label="CL[and,or]"
    )
    ids = [node.node_id for node in report.nodes]
    assert ids == ["base", "l", "r", "lr", "rl", "meet(l,r)", "join(l,r)"]
    assert report.base_antitheorems == "none-proven"
    groups = {frozenset(group) for group in report.equal_groups}
    assert frozenset({"lr", "rl", "meet(l,r)"}) in groups
    meet_node = next(n for n in report.nodes if n.node_id == "meet(l,r)")
    assert meet_node.expected_equal == "lr"
    matched = [
        pair
        for pair in report.unresolved
        if {"lr", "meet(l,r)"} <= set(pair[:2])
    ]
    assert not matched


@pytest.mark.parametrize(
    "base, label",
    [(b2_matrix(), "CL"), (b2_and_or_matrix(), "CL[and,or]")],
    ids=["CL", "CL[and,or]"],
)
def test_build_lattice_verdicts_match_standalone_compare(base, label):
    report = build_lattice(base, pi_term(), base_label=label)
    oracle = MatrixOracle((base,), label=label)
    towers = {}
    for node in report.nodes:
        if node.kind == "tower":
            towers[node.node_id] = derive_sequence(oracle, node.sequence)
        elif node.kind == "meet":
            towers[node.node_id] = intersect(*(towers[p] for p in node.parts))
    for (id_a, id_b), index in report.pair_index.items():
        alone = compare(
            towers[id_a], towers[id_b], DEFAULT_FRAGMENT,
            engine="vector", max_witnesses=3,
        )
        assert report.verdicts[index].to_json() == alone.to_json(), (id_a, id_b)


def _boolean_ring_matrix():
    """Two elements, ``and`` as conjunction, ``or`` as exclusive or, ``not``
    as the identity.  Over x, y at depth 2 the formulas using both variables
    name exactly the 8 polynomials ax + by + cxy, so one mask holds exactly
    8 classes."""
    tables = {
        "and": {(a, b): str(int(a) & int(b)) for a in "01" for b in "01"},
        "or": {(a, b): str(int(a) ^ int(b)) for a in "01" for b in "01"},
        "not": {("0",): "0", ("1",): "1"},
    }
    algebra = FiniteAlgebra(FULL_SIGNATURE, ("0", "1"), tables)
    return FiniteMatrix(algebra, frozenset({"1"}))


def _constant_matrix():
    """CL plus a 0-ary connective ``t`` naming 1: its classes have mask 0."""
    algebra = b2_matrix().algebra
    signature = Signature(FULL_SIGNATURE.connectives + (("t", 0),))
    tables = dict(algebra.tables, t={(): "1"})
    return FiniteMatrix(
        FiniteAlgebra(signature, algebra.elements, tables), frozenset({"1"})
    )


XY2 = FragmentSpec(variables=("x", "y"), max_depth=2, max_premises=2)
XY2_3 = FragmentSpec(variables=("x", "y"), max_depth=2, max_premises=3)
XYZ1 = FragmentSpec(variables=("x", "y", "z"), max_depth=1, max_premises=2)
CHUNK_CASES = {
    # name: (matrices, fragment, mask group sizes)
    "CL": ((b2_matrix(),), XY2, [4, 4, 12]),
    "CL+B3": ((b2_matrix(), b3_matrix()), XY2, [4, 4, 12]),
    "chain-5": ((canonical_chain_matrix(b2_matrix(), "lrl"),), XYZ1, [2] * 6),
    "constant": ((_constant_matrix(),), TINY, [1, 2, 2, 2]),
    "ring": ((_boolean_ring_matrix(),), XY2, [2, 2, 8]),
    "CL[and,or]": ((b2_and_or_matrix(),), XY2, [1, 1, 4]),
}

StateSpace = vector_module._StateSpace


# The set reference for the state engine: every premise row as a tuple of
# class ids, in the engine's row order, and its component at a mask computed
# from its members: the AND of their designation rows inside the mask, per
# matrix, and the OR of their variable masks.


def _reference_rows(context):
    return [
        row
        for size in range(context.max_size + 1)
        for row in itertools.combinations(range(context.n_classes), size)
    ]


def _reference_component(context, row, vmask):
    masks = context.rep_mask.tolist()
    kept = [c for c in row if masks[c] | vmask == vmask]
    union = 0
    for c in kept:
        union |= masks[c]
    conj = tuple(
        tuple(np.logical_and.reduce(rows[kept], axis=0).tolist())
        for rows in context.rep_bools
    )
    return conj, union


def _engine_component(context, vmask, comp):
    comps = context.components(vmask)
    conj = []
    for m, rows in enumerate(context.rep_bools):
        # Packed word-column-major: component comp's words are entry comp
        # of each word column.
        words = np.array([column[comp] for column in comps.conj[m]])
        bits = np.unpackbits(words.view(np.uint8))[: rows.shape[1]]
        conj.append(tuple(bits.astype(bool).tolist()))
    return tuple(conj), int(comps.vmask[comp])


def _row_states(context, space):
    """Every premise row and the state it lands on, found by value: the
    state whose components at F, t and 0 equal the row's own."""
    for vmask in space.ids:
        values = [
            _engine_component(context, vmask, comp)
            for comp in range(len(context.components(vmask).vmask))
        ]
        assert len(set(values)) == len(values), vmask
    state_of = {}
    for state in range(len(space.keys)):
        value = tuple(
            _engine_component(context, vmask, int(ids[state]))
            for vmask, ids in space.ids.items()
        )
        assert state_of.setdefault(value, state) == state
    rows = _reference_rows(context)
    states = [
        state_of[tuple(_reference_component(context, row, vmask) for vmask in space.ids)]
        for row in rows
    ]
    return rows, states


PROJECTION_CASES = pytest.mark.parametrize(
    "matrices, fragment",
    [
        ((b2_matrix(),), XY2_3),
        ((b2_matrix(), b3_matrix()), XY2_3),
        # More premises than classes: rows stop at the class count.
        ((b2_matrix(),), FragmentSpec(variables=("x",), max_depth=1, max_premises=4)),
    ],
    ids=["CL", "CL+B3", "CL-few-classes"],
)
# Tiny odd blocks put block boundaries inside every level of the count DP
# and of the component build.  At 5 entries a block holds one frontier
# component and a few extensions; at 151 it holds several groups' rows.
TINY_SLICES = pytest.mark.parametrize("slice_rows", [5, 151])


@PROJECTION_CASES
def test_premise_rows_and_projections_match_a_set_reference(matrices, fragment):
    # For every conclusion mask t, every premise row lands on the state whose
    # components at F, t and 0 are the row's own; states and components are
    # distinct by value, every state is reached, and the counts per size
    # are the rows'.
    context = _VectorContext(FULL_SIGNATURE, fragment, matrices)
    n = context.n_classes
    assert context.n_premise_rows == sum(
        math.comb(n, size) for size in range(context.max_size + 1)
    )
    for tmask in sorted(set(context.rep_mask.tolist())):
        space = StateSpace(context, tmask)
        assert list(space.ids) == list(dict.fromkeys((context.full_mask, tmask, 0)))
        rows, states = _row_states(context, space)
        expected = np.zeros_like(space.counts)
        for row, state in zip(rows, states):
            expected[len(row), state] += 1
        assert np.array_equal(space.counts, expected), tmask
        assert space.counts.any(axis=0).all()


@TINY_SLICES
@PROJECTION_CASES
def test_sliced_projections_match_the_set_reference(
    monkeypatch, matrices, fragment, slice_rows
):
    monkeypatch.setattr(vector_module, "_GROW_BLOCK", slice_rows)
    test_premise_rows_and_projections_match_a_set_reference(matrices, fragment)


@PROJECTION_CASES
def test_sorted_last_level_sums_match_the_set_reference(monkeypatch, matrices, fragment):
    # These key spaces are small enough for the dense sum; with no dense
    # space allowed, every last size is summed by sorting instead.
    monkeypatch.setattr(vector_module, "_DENSE_KEYS", 0)
    test_premise_rows_and_projections_match_a_set_reference(matrices, fragment)


# The per-class tower walk on premise rows: one bool per row, one walk per
# conclusion class, on the rows' own components.


def _reference_arrays(context, rows, vmask):
    """Per row: its conjunction at vmask per matrix, as a (rows, valuations)
    bool array, and its premise mask."""
    masks = context.rep_mask.tolist()
    conj = [np.ones((len(rows), b.shape[1]), dtype=bool) for b in context.rep_bools]
    premise_mask = np.zeros(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        for c in row:
            if masks[c] | vmask == vmask:
                premise_mask[i] |= masks[c]
                for table, b in zip(conj, context.rep_bools):
                    table[i] &= b[c]
    return conj, premise_mask


def _reference_fresh(context, arrays, tree, vmask):
    tag = tree[0]
    if tag == "l":
        return _reference_fresh(context, arrays, tree[1], 0)
    if tag == "r":
        return _reference_fresh(context, arrays, tree[1], vmask)
    if tag == "meet":
        return _reference_fresh(context, arrays, tree[1][0], vmask) & _reference_fresh(
            context, arrays, tree[1][1], vmask
        )
    conj, _ = arrays(vmask)
    return np.logical_and.reduce([
        np.ones(len(conj[m]), dtype=bool)
        if context.all_designated[m] else ~conj[m].any(axis=1)
        for m in tree[1]
    ])


def _reference_walk(context, arrays, node, vmask, target, tmask):
    tag = node[0]
    if tag == "leaf":
        conj, _ = arrays(vmask)
        designated = [b[target] for b in context.rep_bools]
        return np.logical_and.reduce(
            [~(conj[m] & ~designated[m]).any(axis=1) for m in node[1]]
        )
    if tag == "l":
        return _reference_walk(context, arrays, node[1], vmask & tmask, target, tmask)
    if tag == "r":
        covered = (arrays(vmask)[1] & tmask) == tmask
        return (
            covered & _reference_walk(context, arrays, node[1], vmask, target, tmask)
        ) | _reference_fresh(context, arrays, node[1], vmask)
    return _reference_walk(
        context, arrays, node[1][0], vmask, target, tmask
    ) & _reference_walk(context, arrays, node[1][1], vmask, target, tmask)


@pytest.mark.parametrize("name", list(CHUNK_CASES))
def test_chunked_walk_matches_the_per_class_walk(name):
    matrices, fragment, group_sizes = CHUNK_CASES[name]
    base = MatrixOracle(matrices, label=name)
    oracles = [
        derive_sequence(base, "".join(seq))
        for length in range(4)
        for seq in itertools.product("lr", repeat=length)
    ]
    oracles.append(intersect(derive_sequence(base, "lr"), derive_sequence(base, "rl")))
    table = []
    trees = [_oracle_tree(oracle, table) for oracle in oracles]
    context = _VectorContext(base.signature, fragment, table)
    masks = context.rep_mask.tolist()

    chunks = context.chunks()
    assert sorted(c for chunk in chunks for c in chunk) == list(range(context.n_classes))
    groups: dict[int, list[tuple[int, ...]]] = {}
    for chunk in chunks:
        assert 1 <= len(chunk) <= 8 and list(chunk) == sorted(chunk)
        assert len({masks[c] for c in chunk}) == 1
        groups.setdefault(masks[chunk[0]], []).append(chunk)
    assert sorted(sum(map(len, g)) for g in groups.values()) == group_sizes
    for group in groups.values():
        # Only a group's last chunk may be short.
        assert all(len(chunk) == 8 for chunk in group[:-1])
    if name == "chain-5":
        assert len(context.rep_not_packed[0]) > 1  # word columns
    if name == "constant":
        assert 0 in groups

    rows = _reference_rows(context)
    cache: dict[int, tuple] = {}

    def arrays(vmask):
        if vmask not in cache:
            cache[vmask] = _reference_arrays(context, rows, vmask)
        return cache[vmask]

    for tmask, group in groups.items():
        space = StateSpace(context, tmask)
        _, states = _row_states(context, space)
        for chunk in group:
            memo = {}
            for tree in trees:
                bits = context._walk(tree, context.full_mask, chunk, space, memo)
                assert bits.dtype == np.uint8 and bits.shape == (len(space.keys),)
                per_row = bits[states]
                for bit, target in enumerate(chunk):
                    expected = _reference_walk(
                        context, arrays, tree, context.full_mask, target, tmask
                    )
                    got = (per_row >> bit) & 1 == 1
                    assert np.array_equal(got, expected), (tree, target)


@TINY_SLICES
@pytest.mark.parametrize("name", list(CHUNK_CASES))
def test_sliced_chunked_walk_matches_the_per_class_walk(monkeypatch, name, slice_rows):
    monkeypatch.setattr(vector_module, "_GROW_BLOCK", slice_rows)
    test_chunked_walk_matches_the_per_class_walk(name)


@pytest.mark.parametrize(
    "base, fragment, n_orbits",
    [
        (CL_B3, DEFAULT_FRAGMENT, 3),
        # Classes of mask 0, walked last.
        (MatrixOracle((_constant_matrix(),), label="constant"), TINY, 3),
        (CL, FragmentSpec(variables=("w", "x", "y", "z"), max_depth=2, max_premises=2), 4),
    ],
    ids=["CL+B3", "constant", "CL-4-vars"],
)
def test_vector_walk_projects_each_mask_once_and_retires_it(
    monkeypatch, base, fragment, n_orbits
):
    # A chunk of mask t reads only the masks F, t and 0, and every mask of
    # an orbit (masks with as many variables) is walked on the state space
    # of the orbit's first mask.  So there is one state space per orbit, in
    # order of first chunk, components are built once and only at F, at 0
    # and at each orbit's first mask, and each space is gone, without the
    # cyclic collector, before the next is built.
    oracles = [
        derive_sequence(base, "".join(seq))
        for length in range(4)
        for seq in itertools.product("lr", repeat=length)
    ]
    meet = intersect(derive_sequence(base, "lr"), derive_sequence(base, "rl"))
    pairs = [(oracle, meet) for oracle in oracles]
    spaces: list[weakref.ref] = []
    counted: list[int] = []
    contexts: list[_VectorContext] = []
    builds: list[int] = []
    original_init = StateSpace.__init__

    def init(self, context, tmask):
        assert all(ref() is None for ref in spaces), tmask
        original_init(self, context, tmask)
        spaces.append(weakref.ref(self))
        counted.append(tmask)
        contexts.append(context)

    monkeypatch.setattr(StateSpace, "__init__", init)
    for name in ("_full_components", "_restricted_components"):
        original = getattr(_VectorContext, name)

        def build(self, *args, _original=original):
            builds.append(args[0] if args else self.full_mask)
            return _original(self, *args)

        monkeypatch.setattr(_VectorContext, name, build)
    gc.disable()
    try:
        verdicts = lattice_module._vector_verdicts(pairs, fragment, 3)
        assert spaces[-1]() is None
    finally:
        gc.enable()
    context = contexts[0]
    assert len(verdicts) == len(pairs) and len(set(map(id, contexts))) == 1
    walked = list(dict.fromkeys(int(context.rep_mask[c[0]]) for c in context.chunks()))
    first_of_orbit = {}
    for tmask in walked:
        first_of_orbit.setdefault(tmask.bit_count(), tmask)
    assert counted == list(first_of_orbit.values())
    assert len(counted) == n_orbits < len(walked)
    assert sorted(builds) == sorted(set(counted) | {0, context.full_mask})


def _renaming_case(name):
    if name in CHUNK_CASES:
        matrices, fragment, _ = CHUNK_CASES[name]
        return matrices, fragment
    return {
        "CL+B3+PWK": ((b2_matrix(), b3_matrix(), pwk_matrix()), DEFAULT_FRAGMENT),
        "figure-3": (tuple(_figure_three_matrices()), DEFAULT_FRAGMENT),
        "CL-4-vars": (
            (b2_matrix(),),
            FragmentSpec(variables=("w", "x", "y", "z"), max_depth=2, max_premises=3),
        ),
    }[name]


def _orbits(context):
    """Each orbit's masks (as many variables), in order of first chunk."""
    orbits: dict[int, dict[int, list[tuple[int, ...]]]] = {}
    for chunk in context.chunks():
        tmask = int(context.rep_mask[chunk[0]])
        orbits.setdefault(tmask.bit_count(), {}).setdefault(tmask, []).append(chunk)
    return list(orbits.values())


@pytest.mark.parametrize(
    "name", [*CHUNK_CASES, "CL+B3+PWK", "figure-3", "CL-4-vars"]
)
def test_renamed_state_spaces_match_the_count_dp(name):
    # Every chunk of every mask t', walked as its image under the class
    # renaming σ onto its orbit's first mask t, on t's one state space,
    # gives what t''s own space gives with the identity order: the same
    # tally by size and the same witnesses, in real class ids, for every
    # pair's disagreements per side and for each tower's answers and
    # non-answers (all towers agree over the chain matrix).  On each mask's
    # first chunk, the sparsest of these also gives the same first rows
    # at every size.  The descent runs in class order, which σ does not
    # keep, so its rows check that the transitions are read through σ.
    # The "constant" case has classes of mask 0, and figure 3's context
    # mixes CL with seven chain matrices of 2-5 elements.
    matrices, fragment = _renaming_case(name)
    base = MatrixOracle(matrices, label=name)
    towers = {
        s: derive_sequence(base, s) for s in ("", "l", "r", "lr", "rl", "lrl", "rlr")
    }
    towers["meet"] = intersect(towers["lr"], towers["rl"])
    pairs = [("l", "r"), ("lr", "rl"), ("", "rl"), ("rlr", "meet"), ("lrl", "rlr")]
    if len(matrices) > 1:
        towers["first"] = derive_sequence(MatrixOracle(matrices[:1], label="1"), "l")
        pairs.append(("first", "l"))
    table = []
    trees = {key: _oracle_tree(oracle, table) for key, oracle in towers.items()}
    context = _VectorContext(base.signature, fragment, table)
    k = context.full_mask.bit_length()
    identity = np.arange(context.n_classes)
    sizes = range(context.max_size + 1)
    disagreements = 0
    for orbit in _orbits(context):
        shared = StateSpace(context, next(iter(orbit)))
        for tmask, group in orbit.items():
            own = StateSpace(context, tmask)
            sigma = context.renaming(vector_module._renaming(tmask, shared.tmask, k))
            assert sorted(sigma.tolist()) == identity.tolist()
            for real in group:
                image = tuple(sigma[list(real)].tolist())
                assert {int(context.rep_mask[c]) for c in image} == {shared.tmask}
                in_chunk = np.uint8((1 << len(real)) - 1)
                memos = {}, {}
                walks = ((image, shared, memos[0]), (real, own, memos[1]))
                got, expected = [
                    {
                        key: context._walk(tree, context.full_mask, chunk, space, memo)
                        & in_chunk
                        for key, tree in trees.items()
                    }
                    for chunk, space, memo in walks
                ]
                # Each tower's answers and non-answers, and each pair's
                # disagreements per side, on the shared space and on t''s.
                cases = []
                for key in trees:
                    cases.append((got[key], expected[key]))
                    cases.append((~got[key] & in_chunk, ~expected[key] & in_chunk))
                for a, b in pairs:
                    for side in a, b:
                        only = [(ans[a] ^ ans[b]) & ans[side] for ans in (got, expected)]
                        disagreements += int(only[0].any())
                        cases.append(tuple(only))
                vectors = {(g.tobytes(), o.tobytes()): (g, o) for g, o in cases}
                sparsest = None
                for only_got, only_own in vectors.values():
                    tally = shared.tally(only_got)
                    assert np.array_equal(tally, own.tally(only_own)), (tmask, real)
                    # As the engine does, search only the sizes with pairs.
                    found = np.flatnonzero(tally).tolist()
                    assert shared.witnesses(
                        only_got, real, found, 4, sigma
                    ) == own.witnesses(only_own, real, found, 4, identity)
                    if tally[-1] and (sparsest is None or tally[-1] < sparsest[0]):
                        sparsest = tally[-1], only_got != 0, only_own != 0
                if real != group[0] or sparsest is None:
                    continue
                # State ids are each space's own: compare members.
                _, bad_got, bad_own = sparsest
                for size in sizes:
                    rows = shared.first_rows(bad_got, size, 4, sigma)
                    own_rows = own.first_rows(bad_own, size, 4, identity)
                    assert [m for m, _ in rows] == [m for m, _ in own_rows], (tmask, size)
    assert disagreements or name == "chain-5"


def test_a_renaming_without_a_class_image_is_refused(monkeypatch):
    # A class missing from the index, or an index that gives two classes
    # one image, leaves a renaming that is no permutation of the classes:
    # refused, never walked.
    matrices, fragment, _ = CHUNK_CASES["CL"]
    context = _VectorContext(FULL_SIGNATURE, fragment, matrices)
    assert sorted(context.renaming([1, 0])) == list(range(context.n_classes))
    keys, ids = context._class_index
    monkeypatch.setattr(context, "_class_index", (keys[1:], ids[1:]))
    with pytest.raises(LatticeError, match="without image"):
        context.renaming([1, 0])
    shared = ids.copy()
    shared[1] = shared[0]
    monkeypatch.setattr(context, "_class_index", (keys, shared))
    with pytest.raises(LatticeError, match="no class permutation"):
        context.renaming([1, 0])


def test_vector_context_temporaries_stay_within_two_slices(monkeypatch):
    # Traced bytes that building components or an orbit's state space, or
    # searching its witnesses through a class renaming, allocates beyond
    # what is live when it returns.  Their work grows with the premise
    # rows, but it is done in blocks of ``_GROW_BLOCK`` entries: at
    # premises=4 (1.2 M rows), with blocks of 4096, the largest is 0.9 MB
    # (a state space's build), where one row-sized int64 array is 9.7 MB.
    # Figure 3's chain context, CL and six chain matrices at its own
    # fragment, has rows of 9 word columns (two for each 5-element matrix,
    # 65 bytes) where CL's are one byte: its component candidates take 7 MB
    # of columns, so building a whole level of them at once breaks the
    # bound too.
    monkeypatch.setattr(vector_module, "_GROW_BLOCK", 1 << 12)
    spec = FragmentSpec(variables=("x", "y", "z"), max_depth=2, max_premises=4)
    cl = _VectorContext(CL.signature, spec, (b2_matrix(),))
    chain = _VectorContext(CL.signature, DEFAULT_FRAGMENT, _figure_three_matrices())
    bound = 2 << 20
    assert cl.n_premise_rows * 8 > 4 * bound

    def temporaries(method, *args):
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = method(*args)
        live, peak = tracemalloc.get_traced_memory()
        return result, peak - max(before, live)

    tracemalloc.start()
    try:
        for context in (cl, chain):
            masks = sorted(set(context.rep_mask.tolist()) | {0})
            for vmask in sorted(masks, reverse=True):
                _, extra = temporaries(context.components, vmask)
                assert extra < bound, ("components", vmask, extra)
            k = context.full_mask.bit_length()
            for orbit in _orbits(context):
                space, extra = temporaries(StateSpace, context, next(iter(orbit)))
                assert extra < bound, ("states", space.tmask, extra)
                every = np.full(len(space.keys), 0xFF, dtype=np.uint8)
                sizes = range(context.max_size + 1)
                for tmask, group in orbit.items():
                    sigma = context.renaming(vector_module._renaming(tmask, space.tmask, k))
                    for real in group:
                        found, extra = temporaries(
                            space.witnesses, every, real, sizes, 5, sigma
                        )
                        assert extra < bound, ("witnesses", real, extra)
                        # Every (row, class) pair disagrees: the first rows
                        # are the empty set and the first four classes,
                        # each with the whole chunk.
                        first = [(), (0,), (1,), (2,), (3,)]
                        assert found == [
                            (len(row), row, c) for row in first for c in real
                        ]
    finally:
        tracemalloc.stop()
    comps = chain.components(chain.full_mask)
    assert [len(columns) for columns in comps.conj] == [1, 1, 1, 1, 1, 2, 2]
    row_bytes = sum(column.itemsize for columns in comps.conj for column in columns)
    assert len(comps.trans) * chain.n_classes * row_bytes > 3 * bound


# Tallies and witness searches on random disagreements over real state
# spaces, checked row by row against the set reference.

TALLY_CASES = {
    "CL": ((b2_matrix(),), XY2_3),
    "constant": ((_constant_matrix(),), FragmentSpec(("x", "y"), 1, 3)),
}


@functools.lru_cache(maxsize=None)
def _tally_context(name):
    matrices, fragment = TALLY_CASES[name]
    return _VectorContext(matrices[0].algebra.signature, fragment, matrices)


@functools.lru_cache(maxsize=None)
def _tally_space(name, tmask):
    context = _tally_context(name)
    space = StateSpace(context, tmask)
    return space, _row_states(context, space)


@st.composite
def tally_inputs(draw):
    """A context, one of its chunks and a disagreement density."""
    name = draw(st.sampled_from(sorted(TALLY_CASES)))
    chunk = draw(st.sampled_from(_tally_context(name).chunks()))
    density = draw(st.sampled_from([0.0, 0.005, 0.05, 0.3, 1.0]))
    return name, chunk, density, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(inputs=tally_inputs(), cap=st.integers(0, 6))
def test_whole_chunk_tally_matches_the_per_class_tally(inputs, cap):
    # Each state disagrees with the drawn density, on random bits of the
    # chunk.  The count is each row's disagreeing bits summed over the rows;
    # the witnesses are every pair of the first ``cap`` disagreeing rows, in
    # row order.
    name, chunk, density, seed = inputs
    context = _tally_context(name)
    space, (rows, states) = _tally_space(name, int(context.rep_mask[chunk[0]]))
    rng = np.random.default_rng(seed)
    in_chunk = np.uint8((1 << len(chunk)) - 1)
    only = rng.integers(0, 256, len(space.keys), dtype=np.uint8) & in_chunk
    only[rng.random(len(only)) >= density] = 0
    by_size = space.counts @ np.bitwise_count(only)
    assert int(by_size.sum()) == sum(int(only[state]).bit_count() for state in states)
    bad_rows = [(row, state) for row, state in zip(rows, states) if only[state]]
    sizes = np.flatnonzero(by_size).tolist()
    assert sizes == sorted({len(row) for row, _ in bad_rows})
    expected = [
        (len(row), row, target)
        for row, state in bad_rows[:cap]
        for bit, target in enumerate(chunk)
        if only[state] >> bit & 1
    ]
    identity = np.arange(context.n_classes)
    assert space.witnesses(only, chunk, sizes, cap, identity) == expected


# The designation table as it was built before formulas were evaluated in
# runs: one fancy index per formula.


def _reference_designation_bools(matrix, formulas, variables):
    algebra = matrix.algebra
    n = len(algebra.elements)
    k = len(variables)
    coords = np.indices((n,) * k).reshape(k, -1) if k else np.zeros((0, 1), dtype=np.int64)
    values = {}
    tables = algebra.index_tables
    for position, v in enumerate(variables):
        values[var(v)] = coords[position]
    designated = np.array([e in matrix.designated for e in algebra.elements])
    out = np.empty((len(formulas), coords.shape[1] if k else 1), dtype=bool)
    for row, formula in enumerate(formulas):
        if formula not in values:
            args = tuple(values[a] for a in formula.args)
            values[formula] = tables[formula.head][args]
        out[row] = designated[values[formula]]
    return out


DESIGNATION_MATRICES = {
    "CL": b2_matrix(),
    "B3": b3_matrix(),
    "PWK": pwk_matrix(),
    "constant": _constant_matrix(),
    **{
        f"chain[{seq or 'base'}]": canonical_chain_matrix(b2_matrix(), seq)
        for seq in ("", "l", "r", "lr", "rl", "rlr", "lrl")
    },
}


# The vector context's classes as they were built before it enumerated
# groups: every formula of ``enumerate_fragment``, its variable mask and its
# value row per matrix, evaluated one run of one depth and head at a time.


def _formula_values(matrices, formulas, variables):
    """Per matrix, the (n_formulas, n_valuations) element positions,
    valuations in product order.

    A run of consecutive formulas with one depth and one head takes one
    fancy index into the head's table, and a constant's run broadcasts its
    table value.  ``enumerate_fragment`` emits one run per depth and
    connective.  A formula's arguments must be variables or earlier
    formulas.  The runs' argument rows are found once, for every matrix.
    """
    k = len(variables)
    n_formulas = len(formulas)
    # One row per formula, then one per variable's coordinates.
    row = {var(v): n_formulas + i for i, v in enumerate(variables)}
    runs = []  # (start, stop, head, argument rows), head None for a variable
    start = 0
    for (_, head), run in itertools.groupby(formulas, lambda f: (f.depth, f.head)):
        run = list(run)
        stop = start + len(run)
        if run[0].is_variable:
            runs.append((start, stop, None, row[run[0]]))
        else:
            args = np.array([[row[a] for a in f.args] for f in run], dtype=np.intp)
            runs.append((start, stop, head, args.T))
        row.update(zip(run, range(start, stop)))
        start = stop
    out = []
    for matrix in matrices:
        n = len(matrix.algebra.elements)
        tables = matrix.algebra.index_tables
        values = np.empty((n_formulas + k, n**k), dtype=np.intp)
        values[n_formulas:] = np.indices((n,) * k).reshape(k, n**k)
        for start, stop, head, args in runs:
            if head is None:
                values[start:stop] = values[args]
            else:
                values[start:stop] = tables[head][tuple(values[column] for column in args)]
        out.append(values[:n_formulas])
    return out


def _designation_bools(matrices, formulas, variables):
    """Per matrix, the (n_formulas, n_valuations) designation table."""
    return [
        m.designated_bools[values]
        for m, values in zip(matrices, _formula_values(matrices, formulas, variables))
    ]


def _formula_masks(formulas, variables):
    position = {v: i for i, v in enumerate(variables)}
    return [sum(1 << position[v] for v in f.variables) for f in formulas]


def _first_positions(keys):
    """Per distinct key, the position of its first occurrence, ascending."""
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    return list(first.values())


def _assert_classes_match(context, formulas, masks, bools):
    """The context's classes are the per-formula build's: one per distinct
    (variable mask, designation rows), represented by its first formula, in
    the order of those formulas."""
    reps = _first_positions(
        (mask,) + tuple(b[i].tobytes() for b in bools) for i, mask in enumerate(masks)
    )
    assert context.n_formulas == len(formulas)
    assert context.n_classes == len(reps)
    assert [context.groups.formula(g) for g in context.rep_group.tolist()] == [
        formulas[i] for i in reps
    ]
    assert context.rep_mask.tolist() == [masks[i] for i in reps]
    assert len(context.rep_bools) == len(bools)
    for got, expected in zip(context.rep_bools, bools):
        assert got.dtype == bool and np.array_equal(got, expected[reps])


@pytest.mark.parametrize("name", list(DESIGNATION_MATRICES))
@pytest.mark.parametrize(
    "variables, depth",
    [(("x",), 3), (("x", "y"), 2), (("x", "y", "z"), 2), (("x", "y", "z", "w"), 2)],
)
def test_designation_bools_match_the_per_formula_build(name, variables, depth):
    matrix = DESIGNATION_MATRICES[name]
    spec = FragmentSpec(variables=variables, max_depth=depth, max_premises=1)
    formulas = enumerate_fragment(matrix.algebra.signature, spec)
    context = _VectorContext(matrix.algebra.signature, spec, (matrix,))
    _assert_classes_match(
        context,
        formulas,
        _formula_masks(formulas, variables),
        [_reference_designation_bools(matrix, formulas, variables)],
    )


# Random signatures with a constant, a unary, a binary and a ternary
# connective, each kept only where its fragment stays small.
ANY_CONNECTIVES = (("c", 0), ("n", 1), ("f", 2), ("t", 3))
ANY_SIGNATURES = [
    Signature(chosen)
    for size in range(1, len(ANY_CONNECTIVES) + 1)
    for chosen in itertools.combinations(ANY_CONNECTIVES, size)
]
GROUP_CASES = [(k, depth) for k in (1, 2) for depth in range(4)] + [(3, 2)]


@st.composite
def small_fragments(draw):
    """A signature and a fragment of at most 30,000 formulas over it."""
    k, depth = draw(st.sampled_from(GROUP_CASES))
    spec = FragmentSpec(("x", "y", "z")[:k], depth, 1)
    signature = draw(st.sampled_from(
        [s for s in ANY_SIGNATURES if vector_module._fragment_size(s, spec) <= 30_000]
    ))
    return signature, spec


@st.composite
def matrix_classes(draw):
    """A signature, a fragment, and 1-3 matrices of 1-3 elements over it:
    every table entry and designated set drawn at random."""
    signature, spec = draw(small_fragments())
    matrices = []
    for _ in range(draw(st.integers(1, 3))):
        elements = tuple(str(i) for i in range(draw(st.integers(1, 3))))
        value = st.sampled_from(elements)
        tables = {
            name: {args: draw(value) for args in itertools.product(elements, repeat=arity)}
            for name, arity in signature.connectives
        }
        algebra = FiniteAlgebra(signature, elements, tables)
        matrices.append(FiniteMatrix(algebra, draw(st.frozensets(value))))
    return signature, spec, matrices


@settings(max_examples=80, deadline=None)
@given(matrix_classes())
def test_groups_and_classes_match_the_per_formula_build(case):
    signature, spec, matrices = case
    formulas = enumerate_fragment(signature, spec)
    assert len(formulas) == vector_module._fragment_size(signature, spec)
    masks = _formula_masks(formulas, spec.variables)
    values = _formula_values(matrices, formulas, spec.variables)
    # A group is the formulas of one depth, mask and value row per matrix.
    group_of = [
        (f.depth, mask) + tuple(v[i].tobytes() for v in values)
        for i, (f, mask) in enumerate(zip(formulas, masks))
    ]
    firsts = _first_positions(group_of)
    groups = vector_module._fragment_groups(signature, spec, matrices)
    # The groups built are the first ones, through a whole level.
    built = len(groups.parents)
    assert 0 < built <= len(firsts)
    assert built == len(firsts) or formulas[firsts[built]].depth > formulas[firsts[built - 1]].depth
    assert [groups.formula(g) for g in range(built)] == [formulas[i] for i in firsts[:built]]
    assert groups.masks.tolist() == [masks[i] for i in firsts[:built]]
    for got, expected in zip(groups.values, values):
        assert np.array_equal(got, expected[firsts[:built]])
    # Every later group repeats the (mask, value rows) pair of a built one.
    pair = [key[1:] for key in group_of]
    built_pairs = {pair[i] for i in firsts[:built]}
    assert all(pair[i] in built_pairs for i in firsts[built:])

    context = _VectorContext(signature, spec, matrices)
    _assert_classes_match(
        context, formulas, masks, _designation_bools(matrices, formulas, spec.variables)
    )


def test_group_enumeration_stops_after_a_level_that_adds_no_pair():
    # Over CL in x the four term functions x, not(x), 0 and 1 are reached by
    # depth 2, so level 3 adds no (mask, value rows) pair: no deeper level
    # is built, and the classes and formula count are depth 12's.
    signature = b2_matrix().signature
    deep = FragmentSpec(("x",), 12, 1)
    groups = vector_module._fragment_groups(signature, deep, [b2_matrix()])
    shallow = vector_module._fragment_groups(signature, FragmentSpec(("x",), 3, 1), [b2_matrix()])
    assert groups.parents == shallow.parents
    assert max(groups.formula(g).depth for g in range(len(groups.parents))) == 3
    context = _VectorContext(signature, deep, [b2_matrix()])
    assert context.n_classes == 4
    assert context.n_formulas == vector_module._fragment_size(signature, deep)


TOWER_SEQUENCES = ["".join(s) for n in range(4) for s in itertools.product("lr", repeat=n)]


@settings(max_examples=60, deadline=None)
@given(matrix_classes())
def test_antitheorem_decision_holds_on_random_matrix_classes(case):
    """The base, every tower of at most three steps, meet(l,r) and
    meet(lr,rl): a witness is an antitheorem in x, and a tower said to have
    none has none in the depth-3 pool in x nor by the bounded search."""
    signature, _, matrices = case
    base = MatrixOracle(matrices)
    towers = {seq: derive_sequence(base, seq) for seq in TOWER_SEQUENCES}
    oracles = list(towers.values()) + [
        intersect(towers["l"], towers["r"]),
        intersect(towers["lr"], towers["rl"]),
    ]
    # One formula per group: the depth-3 pool up to formulas with one
    # variable set and one value row per matrix, which no tower tells apart.
    groups = vector_module._fragment_groups(signature, FragmentSpec(("x",), 3, 0), matrices)
    pool = [groups.formula(g) for g in range(len(groups.parents))]
    for oracle in oracles:
        info = oracle.antitheorem_info
        if info.status == WITNESS:
            assert AntitheoremWitness(info.witness).verify(oracle), oracle
        else:
            assert not is_antitheorem(oracle, pool), oracle
            assert find_antitheorem(oracle) is None, oracle
        closed = oracle.closed_antitheorem
        if closed is not None:
            assert not vars_of_set(closed) and is_antitheorem(oracle, closed), oracle


def _formulas_near(signature, variables):
    """Formulas inside and just outside a fragment: foreign variables and
    heads, wrong arities, variables named like connectives."""
    leaves = [var(v) for v in variables + ("w",)] + [
        var(name) for name, _ in signature.connectives
    ]
    leaves += [Formula(name, ()) for name, _ in ANY_CONNECTIVES + (("g", 0),)]

    def extend(children):
        return st.one_of([
            st.builds(lambda *args, name=name: Formula(name, args), *[children] * arity)
            for name, arity in ANY_CONNECTIVES + (("g", 1), ("n", 2), ("f", 1))
            if arity
        ])

    return st.recursive(st.sampled_from(leaves), extend, max_leaves=5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fragment_membership_matches_the_enumeration(data):
    signature, spec = data.draw(small_fragments())
    inside = frozenset(enumerate_fragment(signature, spec))
    assert all(lattice_module._in_fragment(f, signature, spec) for f in inside)
    for formula in data.draw(st.lists(_formulas_near(signature, spec.variables), max_size=20)):
        assert lattice_module._in_fragment(formula, signature, spec) == (formula in inside)


def test_a_mask_with_no_class_inside_expands_to_one_broadcast_value():
    # Over CL every class has a variable, so at mask 0 every premise row has
    # the empty set's component: one component that no class moves, read by
    # every state, and its answers are one value over all states.
    context = _VectorContext(CL.signature, TINY, (b2_matrix(),))
    zero = context.components(0)
    assert len(zero.vmask) == 1 and not zero.trans.any()
    for tmask in set(context.rep_mask.tolist()):
        space = StateSpace(context, tmask)
        assert len(space.keys) > 1 and not space.ids[0].any()
        fresh = context.fresh_answers(("leaf", (0,)), 0, space)
        assert fresh.shape == (len(space.keys),) and len(set(fresh.tolist())) == 1


def test_compare_at_four_premises_matches_pinned_scale_reference():
    spec = FragmentSpec(variables=("x", "y", "z"), max_depth=2, max_premises=4)
    expected = json.loads((REFS / "scale.json").read_text(encoding="utf-8"))[
        "vars=x,y,z;depth=2;premises=4"
    ]
    towers = {seq: derive_sequence(CL, seq) for seq in ("lr", "rl", "rlr")}
    towers["meet(lr,rl)"] = intersect(towers["lr"], towers["rl"])
    for a, b in (("lr", "rl"), ("rlr", "meet(lr,rl)")):
        verdict = compare(towers[a], towers[b], spec)
        assert verdict.to_json() == expected[f"{a} vs {b}"], (a, b)


def test_lr_against_rl_at_five_premises_keeps_the_witnesses_of_three_and_four():
    # 17.3 M premise rows; the row engine gave exactly this verdict in 3.7 s.
    spec = FragmentSpec(variables=("x", "y", "z"), max_depth=2, max_premises=5)
    refs = json.loads((REFS / "scale.json").read_text(encoding="utf-8"))
    verdict = compare(derive_sequence(CL, "lr"), derive_sequence(CL, "rl"), spec)
    assert verdict.relation == "incomparable"
    assert verdict.disagreements == (67_036_254, 1_934_436)
    got = verdict.to_json()
    for premises in (3, 4):
        pinned = refs[f"vars=x,y,z;depth=2;premises={premises}"]["lr vs rl"]
        for key in ("witnesses_only_in_a", "witnesses_only_in_b"):
            assert got[key] == pinned[key], (premises, key)


@settings(max_examples=25, deadline=None)
@given(
    st.one_of(st.sampled_from(sorted(CHUNK_CASES)), random_matrices()),
    st.integers(2, 3),
    TOWERS_UP_TO_3,
    TOWERS_UP_TO_3,
    st.one_of(st.none(), TOWERS_UP_TO_3),
    st.text(alphabet="lr", max_size=2),
)
@example("CL", 3, "lr", "rl", None, "")
@example("CL+B3", 3, "rl", "r", "l", "r")
@example("chain-5", 3, "l", "rl", "lr", "l")
@example("constant", 3, "rl", "lr", "rl", "r")
@example("ring", 3, "r", "l", None, "")
@example("CL[and,or]", 3, "lr", "", "l", "r")
@example("CL", 2, "rl", "", "l", "r")
@example("CL+B3", 2, "lr", "l", None, "")
@example("chain-5", 2, "r", "lr", "rl", "r")
@example("constant", 2, "l", "r", None, "")
@example("ring", 2, "rl", "lr", "r", "l")
@example("CL[and,or]", 2, "r", "rl", None, "")
def test_state_engine_matches_the_class_row_reference(
    case, premises, first, second, meet_with, above
):
    # Counts and every witness up to the cap, against the premise sets of
    # class representatives queried on the real oracles.
    if isinstance(case, str):
        matrices, fragment, _ = CHUNK_CASES[case]
    else:
        matrices, fragment = (case,), TINY
    fragment = replace(fragment, max_premises=premises)
    base = MatrixOracle(matrices, label="M")
    a = derive_sequence(base, first)
    b = derive_sequence(base, second)
    if meet_with is not None:
        b = derive_sequence(intersect(b, derive_sequence(base, meet_with)), above)
    verdict = compare(a, b, fragment, max_witnesses=8)
    counts, witnesses_ab, witnesses_ba = class_row_reference(a, b, fragment, 8)
    assert verdict.disagreements == counts
    assert verdict.witnesses_ab == witnesses_ab
    assert verdict.witnesses_ba == witnesses_ba


def test_more_premises_than_classes_counts_every_subset_exactly():
    # Rows stop at the class count: every subset of the 6 classes, 2**6 rows.
    spec = replace(TINY, max_premises=50)
    context = _VectorContext(CL.signature, spec, (b2_matrix(),))
    n = context.n_classes
    assert context.max_size == n and context.n_premise_rows == 2**n
    for tmask in set(context.rep_mask.tolist()):
        space = StateSpace(context, tmask)
        assert space.counts.sum(axis=1).tolist() == [math.comb(n, k) for k in range(n + 1)]
    a, b = derive_sequence(CL, "lr"), derive_sequence(CL, "rl")
    verdict = compare(a, b, spec, max_witnesses=8)
    counts, witnesses_ab, witnesses_ba = class_row_reference(a, b, spec, 8)
    assert verdict.disagreements == counts
    assert (verdict.witnesses_ab, verdict.witnesses_ba) == (witnesses_ab, witnesses_ba)
    # Over CL's 74 default classes, 2**74 rows: a chunk's pair count could
    # overflow 64 bits, so the fragment is refused up front.
    with pytest.raises(LatticeError, match="too many to count"):
        compare(a, b, FragmentSpec(max_premises=74))


@pytest.mark.parametrize(
    "variables, every, engine",
    [(("x",), 4, "vector"), (("x",), 4, "exhaustive"), (("x", "y"), 12, "vector")],
)
def test_a_huge_premise_bound_counts_as_every_subset(variables, every, engine):
    # Depth 1 over x has 4 formulas and over x, y 12, so premises=every
    # already holds every subset: a bound of 10**20 must give the same
    # verdict, without summing or enumerating 10**20 sizes.
    a, b = derive_sequence(CL, "l"), derive_sequence(CL, "r")
    spec = FragmentSpec(variables=variables, max_depth=1, max_premises=every)
    huge, bounded = (
        compare(a, b, replace(spec, max_premises=p), engine=engine) for p in (10**20, every)
    )
    assert replace(huge, fragment=spec) == bounded
    assert bounded.checked_premise_sets == 2**every


@pytest.mark.parametrize("name", ["chain-5", "CL"])
def test_interning_wide_rows_survives_a_hash_collision(monkeypatch, name):
    # With every row keyed 0, the first candidate that differs from the empty
    # set's component names it anyway: the build must catch that and number
    # the components by their bytes, as the real keys do.  Every row is
    # hashed: chain-5's are two words wide, CL's one byte.
    matrices, fragment, _ = CHUNK_CASES[name]
    context = _VectorContext(FULL_SIGNATURE, fragment, matrices)
    expected = context.components(context.full_mask)

    def colliding(conj, masks):
        return np.zeros(len(masks), dtype=np.uint64)

    assert context._grow_components(colliding) is None
    by_bytes = []
    original = vector_module._byte_keys

    def byte_keys(*args):
        by_bytes.append(args)
        return original(*args)

    monkeypatch.setattr(vector_module, "_row_keys", colliding)
    monkeypatch.setattr(vector_module, "_byte_keys", byte_keys)
    got = context._full_components()
    assert by_bytes
    assert np.array_equal(got.trans, expected.trans)
    assert np.array_equal(got.vmask, expected.vmask)
    assert all(np.array_equal(a, b) for a, b in zip(got.conj, expected.conj))

    # One block: known row (10, 5); candidates (7, 6), (10, 5), (7, 6).  By
    # bytes, the new row gets the next id and its first candidate holds it.
    def rows(*pairs):
        return np.array(pairs, dtype=np.uint64).view(np.dtype((np.void, 16))).ravel()

    index_block = vector_module._index_block
    index = (rows((10, 5)), np.zeros(1, dtype=np.int64))
    ids, first, index = index_block(index, rows((7, 6), (10, 5), (7, 6)), 1)
    assert ids.tolist() == [1, 0, 1] and first.tolist() == [0]
    ids, first, index = index_block(index, rows((10, 5), (1, 2), (7, 6)), 2)
    assert ids.tolist() == [0, 2, 1] and first.tolist() == [1]
    # The index ascends by bytes: (1, 2), (7, 6), (10, 5).
    assert index[1].tolist() == [2, 1, 0]


def _reference_full_components(context):
    """The full mask's components by a plain breadth-first search, keyed by
    value: per matrix, the conjunction's designation bits as an integer (bit
    v for valuation v), and the variable mask.  Level p adds every class to
    the components first found at level p - 1.  Returns every component's
    key in the order found, and each expanded component's row of keys
    after adding each class."""
    masks = context.rep_mask.tolist()
    bits = [
        [sum(1 << v for v in np.flatnonzero(row).tolist()) for row in rows]
        for rows in context.rep_bools
    ]
    empty = (tuple((1 << rows.shape[1]) - 1 for rows in context.rep_bools), 0)
    found = {empty: None}
    trans = {}
    frontier = [empty]
    for _ in range(context.max_size):
        level = []
        for conj, mask in frontier:
            row = []
            for c in range(context.n_classes):
                key = (tuple(a & b[c] for a, b in zip(conj, bits)), mask | masks[c])
                if key not in found:
                    found[key] = None
                    level.append(key)
                row.append(key)
            trans[(conj, mask)] = row
        frontier = level
    return list(found), trans


def _figure_three_matrices():
    table = [b2_matrix()]
    for seq in ("", "l", "r", "lr", "rl", "rlr", "lrl"):
        lattice_module._intern_matrix(canonical_chain_matrix(b2_matrix(), seq), table)
    return table


@pytest.mark.parametrize("block", [None, 5])
@pytest.mark.parametrize(
    "matrices",
    [(b2_matrix(),), (b2_matrix(), b3_matrix()), _figure_three_matrices()],
    ids=["CL", "CL+B3", "figure-3"],
)
def test_full_components_match_a_breadth_first_reference(monkeypatch, matrices, block):
    # Rows, variable masks and transitions equal the reference's; the ids
    # too, since both number components in the order first found.  Blocks
    # of 5 words round up to one frontier component each, so every level
    # spans many blocks.
    if block is not None:
        monkeypatch.setattr(vector_module, "_GROW_BLOCK", block)
    context = _VectorContext(FULL_SIGNATURE, XY2_3, matrices)
    comps = context.components(context.full_mask)
    keys = []
    for comp in range(len(comps.vmask)):
        conj, vmask = _engine_component(context, context.full_mask, comp)
        bits = tuple(sum(1 << v for v, b in enumerate(c) if b) for c in conj)
        keys.append((bits, vmask))
    found, trans = _reference_full_components(context)
    assert keys == found
    assert len(comps.trans) == len(trans)
    for comp, row in enumerate(comps.trans.tolist()):
        assert [keys[c] for c in row] == trans[keys[comp]], comp


def test_float_tallies_equal_the_integer_products(monkeypatch):
    # Every (pair, chunk, side) tally of figure 3 takes the float64 product,
    # and it equals the int64 one.
    tallies = []
    original = StateSpace.tally

    def tally(self, only):
        got = original(self, only)
        assert self.weights.dtype == np.float64
        expected = self.counts @ np.bitwise_count(only)
        assert np.array_equal(got, expected)
        tallies.append(int(expected.sum()))
        return got

    monkeypatch.setattr(StateSpace, "tally", tally)
    reproduce_figure(3)
    assert len(tallies) > 100 and any(tallies)


def test_a_context_past_the_float_guard_tallies_in_integers(monkeypatch):
    # TINY at premises=50 has 2**6 rows: a guard at 8 * 64 sends every tally
    # to the int64 counts, one above it to float64, and the verdicts agree
    # with the set reference either way.
    spec = replace(TINY, max_premises=50)
    a, b = derive_sequence(CL, "lr"), derive_sequence(CL, "rl")
    expected = class_row_reference(a, b, spec, 8)
    for guard, dtype in ((8 * 64, np.int64), (8 * 64 + 1, np.float64)):
        monkeypatch.setattr(vector_module, "_FLOAT_EXACT", guard)
        context = _VectorContext(CL.signature, spec, (b2_matrix(),))
        assert context.n_premise_rows == 64
        space = StateSpace(context, int(context.rep_mask[context.chunks()[0][0]]))
        assert space.weights.dtype == dtype
        assert (space.weights is space.counts) == (dtype == np.int64)
        verdict = compare(a, b, spec, max_witnesses=8)
        got = (verdict.disagreements, verdict.witnesses_ab, verdict.witnesses_ba)
        assert got == expected


def test_state_counts_that_miss_a_row_raise(monkeypatch):
    # A count that loses a row is refused on either path: the counting
    # pass over a small key space, and the sorted DP's group sums with no
    # dense key space allowed.  TINY's spaces are small enough for the
    # counting pass, and l against r disagrees, so its counts are read.
    original = StateSpace._dense_counts

    def lossy_pass(self):
        counts = original(self)
        counts[-1, -1] -= 1
        return counts

    monkeypatch.setattr(StateSpace, "_dense_counts", lossy_pass)
    with pytest.raises(LatticeError, match="premise rows of mask"):
        compare(derive_sequence(CL, "l"), derive_sequence(CL, "r"), TINY)
    monkeypatch.undo()

    original_sums = vector_module._group_sums

    def lossy(*args):
        keys, sums = original_sums(*args)
        sums[:1] -= 1
        return keys, sums

    monkeypatch.setattr(vector_module, "_DENSE_KEYS", 0)
    monkeypatch.setattr(vector_module, "_group_sums", lossy)
    with pytest.raises(LatticeError, match="premise rows of mask"):
        compare(derive_sequence(CL, "l"), derive_sequence(CL, "r"), TINY)


def _counted_space():
    """The first orbit's state space over CL, numbered for the counting
    pass."""
    matrices, fragment, _ = CHUNK_CASES["CL"]
    context = _VectorContext(FULL_SIGNATURE, fragment, matrices)
    space = StateSpace(context, int(context.rep_mask[context.chunks()[0][0]]))
    assert space.key_space * space.n_classes <= vector_module._DENSE_KEYS
    assert "counts" not in vars(space)
    return space


def test_a_corrupted_state_index_refuses_to_count():
    # The counting pass reads each last-size successor's id in the
    # numbering's index, which holds -1 for every key no row reaches.  Over
    # CL the last key is a state that only rows of the largest size reach:
    # with its entry lost, it is an unnumbered key to each of them.
    space = _counted_space()
    assert not space._inner[-1]
    space._index[space.keys[-1]] = -1
    with pytest.raises(LatticeError, match="unnumbered state"):
        space.counts


def test_a_key_the_numbering_dropped_refuses_to_count(monkeypatch):
    # A numbering pass that loses a reached key: the rows reaching it
    # land on an unnumbered key.  One that numbers a key no row reaches:
    # no size counts that state.
    original = StateSpace._number

    def dropping(self):
        keys = original(self)
        self._index[keys[-1]] = -1
        self._inner = self._inner[:-1]
        return keys[:-1]

    monkeypatch.setattr(StateSpace, "_number", dropping)
    with pytest.raises(LatticeError, match="unnumbered state"):
        _counted_space().counts

    def padding(self):
        keys = original(self)
        extra = int(np.flatnonzero(self._index < 0)[-1])
        at = np.searchsorted(keys, extra)
        keys = np.insert(keys, at, extra)
        self._inner = np.insert(self._inner, at, False)
        self._index[keys] = np.arange(len(keys), dtype=np.int32)
        return keys

    monkeypatch.setattr(StateSpace, "_number", padding)
    with pytest.raises(LatticeError, match="counts no row"):
        _counted_space().counts


@pytest.mark.parametrize("name", [*CHUNK_CASES, "figure-3", "CL-4-vars"])
def test_numbered_states_match_the_sorted_dp(monkeypatch, name):
    # On every orbit's first mask, the numbering and counting passes and
    # the sorted DP, each forced through ``_DENSE_KEYS``, give the same
    # keys, counts, component ids and root.  Figure 3's masks 1 and 3 and
    # every mask over four variables take the sorted DP by default.
    matrices, fragment = _renaming_case(name)
    context = _VectorContext(matrices[0].algebra.signature, fragment, matrices)
    for orbit in _orbits(context):
        tmask = next(iter(orbit))
        spaces = []
        for dense in (1 << 62, 0):
            monkeypatch.setattr(vector_module, "_DENSE_KEYS", dense)
            space = StateSpace(context, tmask)
            assert ("counts" in vars(space)) == (dense == 0)
            spaces.append(space)
        numbered, counted = spaces
        assert np.array_equal(numbered.keys, counted.keys), tmask
        assert np.array_equal(numbered.counts, counted.counts), tmask
        assert list(numbered.ids) == list(counted.ids)
        for vmask, ids in counted.ids.items():
            assert np.array_equal(numbered.ids[vmask], ids), (tmask, vmask)
        assert np.array_equal(numbered.root, counted.root), tmask


@pytest.mark.parametrize("a, b, passes", [("rlr", "meet", 0), ("lr", "rl", 3)])
def test_only_a_tally_counts_a_state_space(monkeypatch, a, b, passes):
    # Over CL at the default fragment each of the three orbits' spaces is
    # numbered for the counting pass.  Criterion 3's pair disagrees
    # nowhere, so no space is counted; lr and rl disagree on every orbit,
    # so each space is counted once.
    numbered, counted = [], []
    for name, calls in (("_number", numbered), ("_dense_counts", counted)):
        original = getattr(StateSpace, name)

        def hooked(self, _original=original, _calls=calls):
            _calls.append(self.tmask)
            return _original(self)

        monkeypatch.setattr(StateSpace, name, hooked)
    towers = {s: derive_sequence(CL, s) for s in ("lr", "rl", "rlr")}
    towers["meet"] = intersect(towers["lr"], towers["rl"])
    verdict = compare(towers[a], towers[b], DEFAULT_FRAGMENT)
    assert verdict.relation == ("equal" if passes == 0 else "incomparable")
    assert len(numbered) == len(set(numbered)) == 3
    assert len(counted) == len(set(counted)) == passes


@pytest.mark.parametrize("space", [1 << 62, 40], ids=["argsort", "packed-sort"])
def test_group_sums_equal_a_dict_reference_on_both_branches(space):
    # A key and its owner are packed into one int64 only while
    # space * len(counts) stays below 2**63; past that the keys are argsorted.
    rng = np.random.default_rng(18)
    counts = rng.integers(1, 1 << 40, size=7)
    keys = rng.integers(0, 40, size=200)
    owner = rng.integers(0, len(counts), size=200)
    assert (space * len(counts) >= 1 << 63) == (space == 1 << 62)
    expected: dict[int, int] = {}
    for key, who in zip(keys.tolist(), owner.tolist()):
        expected[key] = expected.get(key, 0) + int(counts[who])
    got_keys, sums = vector_module._group_sums(keys, owner, counts, space)
    assert got_keys.tolist() == sorted(expected)
    assert sums.tolist() == [expected[key] for key in sorted(expected)]


def _traced_peak(job):
    tracemalloc.start()
    try:
        result = job()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reproduce_figure_three_peaks_within_eleven_megabytes():
    # The row engine peaked at 8.8 MB traced here; its seven matrices give
    # 10,853 states per conclusion mask, one per premise row class pattern.
    report, peak = _traced_peak(lambda: reproduce_figure(3))
    assert report.lattice.verdicts
    assert peak <= 11e6, peak


@pytest.mark.parametrize(
    "a, b, relation", [("lr", "rl", "incomparable"), ("rlr", "meet", "equal")]
)
def test_six_premises_compare_within_32_megabytes(a, b, relation):
    # 2.0e8 premise rows, which the row engine cannot build; over CL the
    # states saturate at a few hundred to a thousand per conclusion mask.
    spec = FragmentSpec(variables=("x", "y", "z"), max_depth=2, max_premises=6)
    towers = {seq: derive_sequence(CL, seq) for seq in ("lr", "rl", "rlr")}
    towers["meet"] = intersect(towers["lr"], towers["rl"])
    verdict, peak = _traced_peak(lambda: compare(towers[a], towers[b], spec))
    assert verdict.relation == relation
    assert peak <= 32e6, peak


def test_depth_three_compare_over_three_variables_within_64_megabytes():
    # 2,781,264 formulas in 226 classes: building them as formulas took
    # about 1.7 GB, so the context enumerates their groups instead.
    spec = FragmentSpec(variables=("x", "y", "z"), max_depth=3, max_premises=2)
    rlr = derive_sequence(CL, "rlr")
    meet = intersect(derive_sequence(CL, "lr"), derive_sequence(CL, "rl"))
    verdict, peak = _traced_peak(lambda: compare(rlr, meet, spec))
    assert verdict.relation == "equal"
    assert verdict.checked_conclusions == 2_781_264
    assert peak < 64e6, peak


def test_fragment_size_is_exact_past_64_bits():
    # Over and, or and not, a formula of depth at most d is a variable or a
    # head over formulas of depth at most d - 1.
    total = 3
    for depth in range(1, 6):
        total = 3 + 2 * total**2 + total
        spec = FragmentSpec(variables=("x", "y", "z"), max_depth=depth, max_premises=1)
        assert vector_module._fragment_size(CL.signature, spec) == total
    assert total == 478_695_120_798_978_786_859_741_224 > 1 << 63


def test_fragment_size_stops_at_its_bit_bound(monkeypatch):
    # Over x, y and z the count has 89 bits at depth 5 and 177 at depth 6.
    monkeypatch.setattr(vector_module, "_COUNT_BITS", 100)
    spec = FragmentSpec(variables=("x", "y", "z"), max_depth=5, max_premises=1)
    assert vector_module._fragment_size(CL.signature, spec).bit_length() == 89
    with pytest.raises(LatticeError, match=r"passes 2\*\*100 at depth 6"):
        vector_module._fragment_size(CL.signature, replace(spec, max_depth=6))


def test_compare_builds_each_oracle_tree_once(monkeypatch):
    calls = []
    original = lattice_module._oracle_tree

    def counting(oracle, table):
        calls.append(oracle)
        return original(oracle, table)

    monkeypatch.setattr(lattice_module, "_oracle_tree", counting)
    left = derive_sequence(CL, "l")
    meet = intersect(derive_sequence(CL, "lr"), derive_sequence(CL, "rl"))
    verdict = compare(left, meet, TINY)
    assert verdict.engine == "vector"
    # One call per node: two for l (step, leaf), seven for the meet
    # (itself, and a step, a step and a leaf on each side).
    assert len(calls) == 2 + 7


def test_disagreements_on_hand_built_trees_match_compare():
    # The engine's entry point takes towers as data: l and r over CL, built
    # by hand, give compare's counts and witnesses for the real towers.
    trees = [(("l", ("leaf", (0,))), ("r", ("leaf", (0,))))]
    n_formulas, [(counts, only_l, only_r)] = vector_module.disagreements(
        CL.signature, DEFAULT_FRAGMENT, [b2_matrix()], trees, 5
    )
    verdict = compare(derive_sequence(CL, "l"), derive_sequence(CL, "r"))
    assert verdict.relation == "incomparable"
    assert counts == verdict.disagreements
    assert n_formulas == verdict.checked_conclusions
    for got, expected in ((only_l, verdict.witnesses_ab), (only_r, verdict.witnesses_ba)):
        assert [str(Inference(*w)) for w in got] == [str(w) for w in expected]


def test_target_answers_memo_is_freed_without_the_cyclic_collector():
    table = []
    tree = _oracle_tree(derive_sequence(CL, "rl"), table)
    context = _VectorContext(CL.signature, TINY, table)
    chunk = context.chunks()[0]
    space = StateSpace(context, int(context.rep_mask[chunk[0]]))
    gc.disable()
    try:
        memo = {}
        result = context._walk(tree, context.full_mask, chunk, space, memo)
        assert memo[(tree, context.full_mask)] is result
        ref = weakref.ref(result)
        del memo, result
        assert ref() is None
    finally:
        gc.enable()


def test_build_lattice_flags_trivial_base():
    from vilogic.matrices import FiniteAlgebra, FiniteMatrix, Signature

    sig = Signature.of(("and", 2), ("or", 2), ("not", 1))
    tables = {
        "and": {("t", "t"): "t"},
        "or": {("t", "t"): "t"},
        "not": {("t",): "t"},
    }
    everything = FiniteMatrix(FiniteAlgebra(sig, ("t",), tables), frozenset({"t"}))
    extra = (derive_sequence(CL, "l"), derive_sequence(CL, "r"))
    report = build_lattice(everything, pi_term(), fragment=TINY, extra_pairs=[extra])
    assert report.trivial_base
    alone = compare(*extra, TINY, max_witnesses=3)
    assert [v.to_json() for v in report.extra_verdicts] == [alone.to_json()]


def test_build_lattice_rejects_non_partition_term():
    with pytest.raises(LatticeError):
        build_lattice(b2_matrix(), P("or(x, y)"), fragment=TINY)


def test_lattice_report_json_round_trips():
    report = build_lattice(b2_and_or_matrix(), pi_term(), fragment=TINY)
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["base"] == "base"
    assert len(payload["nodes"]) == 7


def test_witness_suite_passes_on_classical_base():
    suite = witness_suite(b2_matrix(), pi_term(), sigma=sigma_set(), base_label="CL")
    assert suite.ok
    labels = [claim.label for claim in suite.claims]
    assert any("flows right, not left" in label for label in labels)
    assert any("flows left, not right" in label for label in labels)
    assert any("right-then-left only" in label for label in labels)
    assert any("left-then-right only" in label for label in labels)
    assert any("strictly exceeds the four-step tower" in label for label in labels)
    assert "PASS" in suite.render()


def test_witness_suite_requires_sigma_exactly_when_explosive():
    with pytest.raises(LatticeError):
        witness_suite(b2_matrix(), pi_term())
    with pytest.raises(LatticeError):
        witness_suite(b2_and_or_matrix(), pi_term(), sigma=(P("x"),))
    suite = witness_suite(b2_and_or_matrix(), pi_term())
    assert suite.ok


def test_witness_suite_rejects_non_explosive_sigma():
    with pytest.raises(LatticeError):
        witness_suite(b2_matrix(), pi_term(), sigma=(P("x"),))


def test_reproduce_figure_one_confirms_all_claims():
    report = reproduce_figure(1)
    assert report.ok
    assert all(claim.passed for claim in report.claims)
    assert report.lattice.base_antitheorems == "none-proven"
    text = report.render()
    assert "CONFIRMED" in text


def test_reproduce_figure_two_fails_only_on_meet_strictness():
    report = reproduce_figure(2)
    assert not report.ok
    failing = [claim.label for claim in report.claims if not claim.passed]
    assert failing == ["three-step tower strictly below the meet of the depth-2 towers"]


@pytest.mark.parametrize("figure", [1, 2, 3])
def test_reproduce_figure_json_matches_pinned_reference(figure):
    expected = (REFS / f"figure{figure}.json").read_text(encoding="utf-8")
    payload = reproduce_figure(figure).to_json()
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == expected


@pytest.mark.parametrize("figure", [2, 3])
def test_reproduce_figure_builds_one_vector_context(monkeypatch, figure):
    # One per matrix set: the lattice and the four-step claims over CL, and
    # figure 3's chain claims over CL and its chain matrices.
    built = []

    class Counting(_VectorContext):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(vector_module, "_VectorContext", Counting)
    reproduce_figure(figure)
    base = b2_matrix()
    chains = [
        canonical_chain_matrix(base, seq) for seq in ("", "l", "r", "lr", "rl", "rlr", "lrl")
    ]
    assert chains[0] == base  # the empty sequence's chain is CL itself
    expected = [[base]] if figure == 2 else [[base], [base, *chains[1:]]]
    assert [context.matrices for context in built] == expected


@pytest.mark.parametrize(
    "fragment",
    [XY2, FragmentSpec(variables=("x", "y", "z", "w"), max_depth=1, max_premises=2)],
    ids=["x,y-depth-2", "x,y,z,w-depth-1"],
)
def test_figure_three_lattice_is_the_lattice_without_chain_matrices(fragment):
    # The lattice pairs run on a vector context over CL alone, apart from
    # the chain matrices' (see build_lattice and reproduce_figure).
    alone = build_lattice(b2_matrix(), pi_term(), fragment, base_label="CL")
    assert reproduce_figure(3, fragment).lattice.to_json() == alone.to_json()


def test_reproduce_figure_rejects_unknown_figure():
    with pytest.raises(LatticeError):
        reproduce_figure(9)


def test_reproduction_report_json_round_trips():
    report = reproduce_figure(1)
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["figure"] == 1
    assert payload["ok"] is True
