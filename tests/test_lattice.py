"""Comparison verdicts, lattice construction, and figure reproduction."""

from __future__ import annotations

import gc
import itertools
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from vilogic.formulas import (
    FragmentSpec,
    Signature,
    enumerate_fragment,
    fragment_subsets,
    parse_formula,
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
    _VectorContext,
)
import vilogic.lattice as lattice_module
from vilogic.matrices import (
    FiniteAlgebra,
    FiniteMatrix,
    MatrixOracle,
    all_valuations,
    evaluate,
)
from vilogic.plonka import canonical_chain_matrix
from vilogic.presets import (
    FULL_SIGNATURE,
    b2_and_or_matrix,
    b2_matrix,
    b3_matrix,
    pi_term,
    sigma_set,
)
from vilogic.transforms import derive_sequence, intersect


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
    for engine in ("bogus", "classes"):
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


def _class_reference_counts(a, b, fragment, matrices):
    """(ab, ba) disagreements counted per class pattern, as the vector
    engine counts them, by direct evaluation and direct oracle queries.

    Formulas are keyed by their variable set and by their designation under
    every valuation of the fragment variables in every matrix; both oracles
    are asked once per representative premise set and conclusion.
    """
    representatives = {}
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
    for premises in fragment_subsets(reps, fragment.max_premises):
        for conclusion in reps:
            in_a = a.entails(premises, conclusion)
            if in_a != b.entails(premises, conclusion):
                counts[0 if in_a else 1] += 1
    return tuple(counts)


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
    assert by_engine["vector"].disagreements == _class_reference_counts(
        left, right, TINY, CL.matrices
    )


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
        expected = _class_reference_counts(towers[a], towers[b], spec, CL_B3.matrices)
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


def test_exhaustive_engine_handles_opaque_oracles():
    meet = intersect(derive_sequence(CL, "l"), derive_sequence(CL, "r"))

    class Opaque:
        label = "opaque"
        signature = CL.signature

        def entails(self, premises, conclusion):
            return meet.entails(premises, conclusion)

    verdict = compare(Opaque(), meet, TINY)
    assert verdict.engine == "exhaustive"
    assert verdict.relation == "equal"


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


@pytest.mark.parametrize(
    "matrices, fragment",
    [
        ((b2_matrix(),), DEFAULT_FRAGMENT),
        ((b2_matrix(), b3_matrix()), DEFAULT_FRAGMENT),
        # More premises than classes: rows stop at the class count.
        ((b2_matrix(),), FragmentSpec(variables=("x",), max_depth=1, max_premises=4)),
    ],
    ids=["CL", "CL+B3", "CL-few-classes"],
)
def test_premise_rows_and_projections_match_a_set_reference(matrices, fragment):
    context = _VectorContext(FULL_SIGNATURE, fragment, matrices)
    n = context.n_classes
    rows = []
    for offset, size, block in context.blocks:
        assert offset == len(rows)
        expected = list(itertools.combinations(range(n), size))
        assert block.dtype == np.min_scalar_type(n)
        assert [tuple(row) for row in block.tolist()] == expected
        rows.extend(expected)
    assert len(rows) == context.n_premise_rows
    assert rows[-1] == tuple(range(n - min(fragment.max_premises, n), n))

    masks = context.rep_mask.tolist()
    for vmask in range(context.full_mask + 1):
        inside = {c for c in range(n) if masks[c] | vmask == vmask}
        slots, inverse = context._projection(vmask)
        assert inverse.dtype == np.int32
        premise_mask = context._premise_mask(vmask).tolist()
        id_of: dict[tuple, int] = {}
        for row, row_id, row_mask in zip(rows, inverse.tolist(), premise_mask):
            kept = tuple(c for c in row if c in inside)
            # Rows share an id exactly when they keep the same members.
            assert id_of.setdefault(kept, row_id) == row_id
            bits = 0
            for c in kept:
                bits |= masks[c]
            assert row_mask == bits
        assert len(set(id_of.values())) == len(id_of) == slots.shape[1]
        for kept, row_id in id_of.items():
            decoded = tuple(c for c in slots[:, row_id].tolist() if c != n)
            assert decoded == kept


# The per-class tower walk the vector engine ran before it walked chunks of
# classes: one bool per premise row, one walk per conclusion class.


def _reference_leaf_real(context, matrix_ids, vmask, target):
    result = None
    for matrix_id in matrix_ids:
        conj = context._leaf_conjunction(matrix_id, vmask)
        _, inverse = context._projection(vmask)
        not_target = context.rep_not_packed[matrix_id][target]
        bad = (conj & not_target).any(axis=1)
        ok = (~bad).take(inverse)
        result = ok if result is None else (result & ok)
    return result


def _reference_fresh(context, tree, vmask):
    tag = tree[0]
    if tag == "l":
        return _reference_fresh(context, tree[1], 0)
    if tag == "r":
        return _reference_fresh(context, tree[1], vmask)
    if tag == "meet":
        return _reference_fresh(context, tree[1][0], vmask) & _reference_fresh(
            context, tree[1][1], vmask
        )
    result = None
    for matrix_id in tree[1]:
        if context.all_designated[matrix_id]:
            ok = np.ones(context.n_premise_rows, dtype=bool)
        else:
            conj = context._leaf_conjunction(matrix_id, vmask)
            _, inverse = context._projection(vmask)
            ok = (~conj.any(axis=1)).take(inverse)
        result = ok if result is None else (result & ok)
    return result


def _reference_walk(context, node, vmask, target, tmask, memo):
    key = (node, vmask)
    if key in memo:
        return memo[key]
    tag = node[0]
    if tag == "leaf":
        out = _reference_leaf_real(context, node[1], vmask, target)
    elif tag == "l":
        out = _reference_walk(context, node[1], vmask & tmask, target, tmask, memo)
    elif tag == "r":
        covered = (context._premise_mask(vmask) & tmask) == tmask
        out = (
            covered & _reference_walk(context, node[1], vmask, target, tmask, memo)
        ) | _reference_fresh(context, node[1], vmask)
    else:
        out = _reference_walk(
            context, node[1][0], vmask, target, tmask, memo
        ) & _reference_walk(context, node[1][1], vmask, target, tmask, memo)
    memo[key] = out
    return out


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
        assert context.rep_not_packed[0].shape[1] > 1
    if name == "constant":
        assert 0 in groups

    for chunk in chunks:
        tmask = masks[chunk[0]]
        memo = {}
        for tree in trees:
            bits = context.chunk_answers(tree, chunk, memo)
            assert bits.dtype == np.uint8 and bits.shape == (context.n_premise_rows,)
            for bit, target in enumerate(chunk):
                expected = _reference_walk(
                    context, tree, context.full_mask, target, tmask, {}
                )
                got = (bits >> bit) & 1 == 1
                assert np.array_equal(got, expected), (tree, target)


@pytest.mark.parametrize(
    "base, fragment",
    [
        (CL_B3, DEFAULT_FRAGMENT),
        # Classes of mask 0, walked last: their state must outlive the walk.
        (MatrixOracle((_constant_matrix(),), label="constant"), TINY),
    ],
    ids=["CL+B3", "constant"],
)
def test_vector_walk_projects_each_mask_once_and_retires_it(
    monkeypatch, base, fragment
):
    # A chunk of mask t reads only the full mask, t and 0, so once the walk
    # has left t nothing may keep t's arrays alive or build them again.
    oracles = [
        derive_sequence(base, "".join(seq))
        for length in range(4)
        for seq in itertools.product("lr", repeat=length)
    ]
    meet = intersect(derive_sequence(base, "lr"), derive_sequence(base, "rl"))
    pairs = [(oracle, meet) for oracle in oracles]
    arrays: dict[tuple, weakref.ref] = {}
    builds: dict[int, int] = {}
    walked: list[int] = []
    contexts: list[_VectorContext] = []

    def tracked(name, key_of, array_of):
        original = getattr(_VectorContext, name)

        def wrapper(self, *args):
            result = original(self, *args)
            key = (name,) + key_of(*args)
            seen = arrays.get(key)
            if seen is None or seen() is not array_of(result):
                if name == "_projection":
                    builds[key[1]] = builds.get(key[1], 0) + 1
                arrays[key] = weakref.ref(array_of(result))
            return result

        monkeypatch.setattr(_VectorContext, name, wrapper)

    tracked("_projection", lambda vmask: (vmask,), lambda r: r[1])
    tracked("_premise_mask", lambda vmask: (vmask,), lambda r: r)
    tracked("_leaf_conjunction", lambda m, vmask: (vmask, m), lambda r: r)
    original_answers = _VectorContext.chunk_answers

    def chunk_answers(self, tree, chunk, memo):
        result = original_answers(self, tree, chunk, memo)
        tmask = int(self.rep_mask[chunk[0]])
        if not walked or walked[-1] != tmask:
            walked.append(tmask)
            contexts.append(self)
        alive = {key[1] for key, ref in arrays.items() if ref() is not None}
        assert alive <= {0, self.full_mask, tmask}, (tmask, alive)
        return result

    monkeypatch.setattr(_VectorContext, "chunk_answers", chunk_answers)
    verdicts = lattice_module._vector_verdicts(
        pairs, lattice_module._tower_trees(pairs), fragment, 3
    )
    assert len(verdicts) == len(pairs) and len(set(map(id, contexts))) == 1
    # Every conclusion mask is walked in one stretch, every mask is
    # projected once, and afterwards only the full mask and 0 hold state.
    context = contexts[0]
    assert sorted(walked) == sorted(set(context.rep_mask.tolist()))
    assert builds == {vmask: 1 for vmask in range(context.full_mask + 1)}
    assert set(context._masks) == {0, context.full_mask}


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


def test_compare_auto_builds_each_oracle_tree_once(monkeypatch):
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


def test_target_answers_memo_is_freed_without_the_cyclic_collector():
    table = []
    tree = _oracle_tree(derive_sequence(CL, "rl"), table)
    context = _VectorContext(CL.signature, TINY, table)
    gc.disable()
    try:
        memo = {}
        result = context.chunk_answers(tree, context.chunks()[0], memo)
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
    built = []

    class Counting(_VectorContext):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(lattice_module, "_VectorContext", Counting)
    reproduce_figure(figure)
    assert len(built) == 1


@pytest.mark.parametrize(
    "fragment",
    [XY2, FragmentSpec(variables=("x", "y", "z", "w"), max_depth=1, max_premises=2)],
    ids=["x,y-depth-2", "x,y,z,w-depth-1"],
)
def test_figure_three_lattice_is_the_lattice_without_chain_matrices(fragment):
    # The chain matrices share figure 3's vector context with the lattice
    # pairs; they must not split a CL class (see reproduce_figure).
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
