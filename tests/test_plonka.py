"""Direct systems, sums, partition terms, decomposition, and chain matrices."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vilogic.formulas import FragmentSpec, enumerate_fragment, parse_formula
from vilogic.matrices import (
    FiniteAlgebra,
    FiniteMatrix,
    MatrixError,
    MatrixFormatError,
    MatrixOracle,
    Signature,
    evaluate,
    format_matrix,
)
import vilogic.plonka as plonka_module
from vilogic.plonka import (
    AxiomResult,
    DecompositionError,
    DirectSystem,
    FiniteSemilattice,
    InvalidSystemError,
    PartitionReport,
    RegularIdentityReport,
    SemilatticeError,
    SystemReport,
    canonical_chain_matrix,
    check_partition_function,
    check_regular_identity,
    decompose,
    decomposition_renaming,
    dump_system_files,
    load_system_file,
    partition_variables,
    plonka_sum,
    trivial_matrix,
    validate_system,
)
from vilogic.presets import (
    AND_OR_SIGNATURE,
    FULL_SIGNATURE,
    b2_algebra,
    b2_and_or_matrix,
    b2_matrix,
    b3_matrix,
    pi_term,
    pwk_matrix,
    wk_algebra,
)

from conftest import chain_extension_system, homomorphism_counterexample


def P(text):
    return parse_formula(text, FULL_SIGNATURE)


TWO_CHAIN = FiniteSemilattice(
    ("0", "1"),
    {
        ("0", "0"): "0",
        ("0", "1"): "1",
        ("1", "0"): "1",
        ("1", "1"): "1",
    },
)


def _two_component_system(kind, top_designated):
    top = trivial_matrix(FULL_SIGNATURE, "n", top_designated)
    return DirectSystem(
        semilattice=TWO_CHAIN,
        components={"0": b2_matrix(), "1": top},
        homs={("0", "1"): {"0": "n", "1": "n"}},
        kind=kind,
    )


def test_semilattice_validates_axioms():
    with pytest.raises(SemilatticeError):
        FiniteSemilattice(
            ("a", "b"),
            {
                ("a", "a"): "b",  # not idempotent
                ("a", "b"): "b",
                ("b", "a"): "b",
                ("b", "b"): "b",
            },
        )


def test_semilattice_join_and_order():
    assert TWO_CHAIN.join("0", "1") == "1"
    assert TWO_CHAIN.leq("0", "1")
    assert not TWO_CHAIN.leq("1", "0")


def test_validate_accepts_good_system():
    report = validate_system(_two_component_system("l", True))
    assert report.ok, report.render()


def test_validate_flags_bad_hom():
    system = DirectSystem(
        semilattice=TWO_CHAIN,
        components={"0": b2_matrix(), "1": trivial_matrix(FULL_SIGNATURE, "n", True)},
        homs={("0", "1"): {"0": "n", "1": "n"}, ("0", "0"): {"0": "1", "1": "0"}},
        kind="l",
    )
    report = validate_system(system)
    assert not report.ok
    assert any(v.code == "identity" for v in report.violations)


def test_validate_flags_missing_hom():
    system = DirectSystem(
        semilattice=TWO_CHAIN,
        components={"0": b2_matrix(), "1": trivial_matrix(FULL_SIGNATURE, "n", True)},
        homs={},
        kind="l",
    )
    report = validate_system(system)
    assert any(v.code == "missing-hom" for v in report.violations)


def test_validate_flags_kind_mismatches():
    undesignated_top = validate_system(_two_component_system("l", False))
    assert any(v.code == "l-designated" for v in undesignated_top.violations)
    designated_top = validate_system(_two_component_system("r", True))
    assert any(v.code == "r-reflection" for v in designated_top.violations)


def test_sum_of_l_kind_system_is_paraconsistent_matrix():
    total = plonka_sum(_two_component_system("l", True))
    renaming = {"0.0": "0", "0.1": "1", "1.n": "n"}
    expected = pwk_matrix()
    assert {renaming[e] for e in total.algebra.elements} == set(
        expected.algebra.elements
    )
    for name, table in total.algebra.tables.items():
        for args, value in table.items():
            mapped = tuple(renaming[a] for a in args)
            assert expected.algebra.tables[name][mapped] == renaming[value]
    assert {renaming[e] for e in total.designated} == set(expected.designated)


def test_sum_of_r_kind_system_matches_strict_matrix():
    total = plonka_sum(_two_component_system("r", False))
    renaming = {"0.0": "0", "0.1": "1", "1.n": "n"}
    expected = b3_matrix()
    assert {renaming[e] for e in total.designated} == set(expected.designated)
    for name, table in total.algebra.tables.items():
        for args, value in table.items():
            mapped = tuple(renaming[a] for a in args)
            assert expected.algebra.tables[name][mapped] == renaming[value]


def test_sum_rejects_invalid_system():
    bad = DirectSystem(
        semilattice=TWO_CHAIN,
        components={"0": b2_matrix(), "1": trivial_matrix(FULL_SIGNATURE, "n", True)},
        homs={("0", "1"): {"0": "n"}},
        kind="l",
    )
    with pytest.raises(Exception):
        plonka_sum(bad)


def test_sum_rejects_nullary_operations():
    sig = Signature.of(("top", 0))
    algebra = FiniteAlgebra(sig, ("1",), {"top": {(): "1"}})
    single = FiniteSemilattice(("0",), {("0", "0"): "0"})
    system = DirectSystem(
        semilattice=single,
        components={"0": FiniteMatrix(algebra, frozenset({"1"}))},
        homs={},
        kind="algebraic",
    )
    with pytest.raises(Exception):
        plonka_sum(system)


def test_partition_variables_by_first_occurrence():
    assert partition_variables(pi_term()) == ("x", "y")
    with pytest.raises(Exception):
        partition_variables(P("and(x, x)"))


def test_partition_function_passes_on_bundled_algebras():
    term = pi_term()
    for algebra in (b2_matrix().algebra, wk_algebra()):
        report = check_partition_function(algebra, term)
        assert report.passed, report.render()


def test_partition_function_oracle_modes():
    term = pi_term()
    matrix = b2_matrix()
    oracle = MatrixOracle((matrix,), label="CL")
    for mode in ("l", "r"):
        report = check_partition_function(
            matrix.algebra, term, oracle=oracle, mode=mode
        )
        assert report.passed, report.render()


def test_partition_function_failure_names_axioms():
    report = check_partition_function(b2_matrix().algebra, P("or(x, y)"))
    assert not report.passed
    failed = {r.name for r in report.results if not r.passed}
    assert failed == {
        "P5 absorption over and",
        "P4 distribution over not",
        "P5 absorption over not",
    }
    for result in report.results:
        if not result.passed:
            assert result.counterexample is not None


def test_decompose_contagious_algebra():
    system = decompose(wk_algebra(), pi_term())
    indices = system.semilattice.indices
    assert len(indices) == 2
    assert set(system.components["0"].algebra.elements) == {"0", "1"}
    assert set(system.components["1"].algebra.elements) == {"n"}
    assert system.hom("0", "1") == {"0": "n", "1": "n"}
    assert TWO_CHAIN.leq("0", "1")


def test_decompose_classical_algebra_is_single_component():
    system = decompose(b2_matrix().algebra, pi_term())
    assert len(system.semilattice.indices) == 1


def test_decompose_rejects_non_partition_term():
    with pytest.raises(DecompositionError):
        decompose(b2_matrix().algebra, P("or(x, y)"))


def test_sum_after_decompose_is_identity_up_to_renaming():
    for algebra in (
        wk_algebra(),
        b2_matrix().algebra,
        canonical_chain_matrix(b2_matrix(), "rlr").algebra,
        canonical_chain_matrix(b2_matrix(), "lrl").algebra,
    ):
        system = decompose(algebra, pi_term())
        total = plonka_sum(system)
        if isinstance(total, FiniteMatrix):
            total = total.algebra
        renaming = decomposition_renaming(system)
        assert set(renaming) == set(algebra.elements)
        for name, table in algebra.tables.items():
            for args, value in table.items():
                mapped = tuple(renaming[a] for a in args)
                assert total.tables[name][mapped] == renaming[value]


def test_regular_identity_checker():
    left = P("and(x, y)")
    right = P("and(y, x)")
    report = check_regular_identity(left, right, wk_algebra())
    assert report.regular
    assert report.holds


def test_irregular_identity_detected_and_fails_on_contagious_algebra():
    left = P("and(x, or(y, not(y)))")
    right = P("x")
    report_classical = check_regular_identity(left, right, b2_matrix().algebra)
    assert not report_classical.regular
    assert report_classical.holds
    report_wk = check_regular_identity(left, right, wk_algebra())
    assert not report_wk.holds
    assert report_wk.counterexample is not None
    lhs = evaluate(wk_algebra(), left, report_wk.counterexample)
    rhs = evaluate(wk_algebra(), right, report_wk.counterexample)
    assert lhs != rhs


CHAIN_SHAPES = {
    "": (2, {"1"}),
    "l": (3, {"1", "n"}),
    "r": (3, {"1"}),
    "lr": (4, {"1", "n"}),
    "rl": (4, {"1", "m"}),
    "rlr": (5, {"1", "m"}),
    "lrl": (5, {"1", "n", "p"}),
}


@pytest.mark.parametrize("sequence", sorted(CHAIN_SHAPES))
def test_canonical_chain_shapes(sequence):
    chain = canonical_chain_matrix(b2_matrix(), sequence)
    size, designated = CHAIN_SHAPES[sequence]
    assert len(chain.algebra.elements) == size
    assert set(chain.designated) == designated


def test_chain_l_step_matches_bundled_contagious_matrix():
    chain = canonical_chain_matrix(b2_matrix(), "l")
    expected = pwk_matrix()
    assert set(chain.algebra.elements) == set(expected.algebra.elements)
    assert chain.algebra.tables == expected.algebra.tables
    assert chain.designated == expected.designated


def test_chain_r_step_matches_bundled_strict_matrix():
    chain = canonical_chain_matrix(b2_matrix(), "r")
    expected = b3_matrix()
    assert set(chain.algebra.elements) == set(expected.algebra.elements)
    assert chain.algebra.tables == expected.algebra.tables
    assert chain.designated == expected.designated


def test_chain_partition_function_passes_everywhere():
    term = pi_term()
    for sequence in sorted(CHAIN_SHAPES):
        chain = canonical_chain_matrix(b2_matrix(), sequence)
        report = check_partition_function(chain.algebra, term)
        assert report.passed, (sequence, report.render())


def test_chain_extension_system_round_trip():
    system = chain_extension_system(b2_matrix(), "n", True, "l")
    assert validate_system(system).ok
    total = plonka_sum(system)
    assert isinstance(total, FiniteMatrix)
    assert len(total.algebra.elements) == 3


def test_system_files_round_trip(tmp_path):
    system = decompose(wk_algebra(), pi_term())
    path = dump_system_files(system, tmp_path, "wk")
    loaded = load_system_file(path)
    assert plonka_sum(loaded) == plonka_sum(system)
    assert validate_system(loaded).ok


def _one_component_system(index):
    lattice = FiniteSemilattice((index,), {(index, index): index})
    return DirectSystem(lattice, {index: b2_matrix()}, {}, kind="l")


@pytest.mark.parametrize("index", ["", "a b", "a\tb", "a,b", "i#", "a->b", "a:b", "a/b", "a\\b"])
def test_dump_refuses_an_index_the_system_file_cannot_hold(tmp_path, index):
    # Each of these used to dump and then fail to load (bad or missing join
    # entry), or to write a component outside the directory.
    with pytest.raises(MatrixFormatError, match="index"):
        dump_system_files(_one_component_system(index), tmp_path / "out", "sys")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("basename", ["", " ", "a b", "a,b", "a#b", "a->b", "a:b", "../esc", "a\\b"])
def test_dump_refuses_a_base_name_the_system_file_cannot_hold(tmp_path, basename):
    # These used to write files outside the directory ("../esc"), a
    # component line that loads as a comment ("a#b") or a system file that
    # cannot be loaded (" ").
    with pytest.raises(MatrixFormatError, match="base name"):
        dump_system_files(_one_component_system("0"), tmp_path / "out", basename)
    assert list(tmp_path.iterdir()) == []


def test_dump_round_trips_a_one_component_system(tmp_path):
    system = _one_component_system("top-1")
    loaded = load_system_file(dump_system_files(system, tmp_path, "sys"))
    assert loaded.semilattice.indices == ("top-1",)
    assert plonka_sum(loaded) == plonka_sum(system)


def test_system_file_parser_rejects_bad_join_table(tmp_path):
    path = tmp_path / "bad.dsys"
    path.write_text(
        "kind: algebraic\nsemilattice: 0,1->2\n", encoding="utf-8"
    )
    with pytest.raises(Exception):
        load_system_file(path)


def test_format_matrix_of_chain_is_stable():
    chain = canonical_chain_matrix(b2_matrix(), "rl")
    text = format_matrix(chain)
    assert "designated: 1, m" in text or "designated: m, 1" in text


# ---------------------------------------------------------------------------
# Reference implementation: the name-keyed loops the index-table code
# replaced, kept verbatim apart from the reference_ prefix.  The one change
# is in reference_validate_system, which skips the designation checks for
# homs already reported as not total or leaving their target, as the real
# one does (the loops used to raise KeyError there).
# ---------------------------------------------------------------------------


def reference_semilattice_error(indices, join_table):
    """The SemilatticeError message FiniteSemilattice should raise, or None."""
    if not indices:
        return "a semilattice needs at least one index"
    if len(set(indices)) != len(indices):
        return "duplicate semilattice indices"
    universe = set(indices)
    for pair, out in join_table.items():
        if len(pair) != 2 or set(pair) - universe or out not in universe:
            return f"bad join entry {pair} -> {out}"
    for i, j in itertools.product(indices, repeat=2):
        if (i, j) not in join_table:
            return f"missing join entry for ({i}, {j})"
    for i in indices:
        if join_table[(i, i)] != i:
            return f"join not idempotent at {i}"
    for i, j in itertools.product(indices, repeat=2):
        if join_table[(i, j)] != join_table[(j, i)]:
            return f"join not commutative at ({i}, {j})"
    for i, j, k in itertools.product(indices, repeat=3):
        left = join_table[(join_table[(i, j)], k)]
        right = join_table[(i, join_table[(j, k)])]
        if left != right:
            return f"join not associative at ({i}, {j}, {k})"
    return None


def reference_validate_system(system):
    report = SystemReport()
    lattice = system.semilattice
    indices = lattice.indices
    if set(system.components) != set(indices):
        report.add("components", "component keys do not match the semilattice indices")
        return report

    signature = system.signature
    for i in indices:
        if system.components[i].signature != signature:
            report.add("signature", f"component {i} uses a different signature")
    if not report.ok:
        return report
    seen = {}
    for i in indices:
        for e in system.components[i].algebra.elements:
            if e in seen:
                report.add("disjoint", f"element {e!r} appears in components {seen[e]} and {i}")
            else:
                seen[e] = i

    ordered_pairs = [(i, j) for i in indices for j in indices if i != j and lattice.leq(i, j)]
    for key in system.homs:
        i, j = key
        if i not in set(indices) or j not in set(indices):
            report.add("order", f"hom given for unknown index pair ({i}, {j})")
        elif i == j:
            ident = {e: e for e in system.components[i].algebra.elements}
            if dict(system.homs[key]) != ident:
                report.add("identity", f"explicit hom at ({i}, {i}) is not the identity")
        elif key not in ordered_pairs:
            report.add("order", f"hom given for unrelated pair ({i}, {j})")
    for i, j in ordered_pairs:
        if (i, j) not in system.homs:
            report.add("missing-hom", f"no homomorphism for {i} <= {j}")

    if not report.ok:
        return report

    partial = set()
    for i, j in ordered_pairs:
        mapping = system.homs[(i, j)]
        source = system.components[i].algebra
        target = system.components[j].algebra
        if set(mapping) != set(source.elements):
            report.add("hom-domain", f"hom {i}->{j} is not total on component {i}")
            partial.add((i, j))
            continue
        if any(v not in set(target.elements) for v in mapping.values()):
            report.add("hom-codomain", f"hom {i}->{j} leaves component {j}")
            partial.add((i, j))
            continue
        failure = homomorphism_counterexample(source, target, mapping)
        if failure is not None:
            name, args = failure
            report.add("hom-property", f"hom {i}->{j} fails to commute with {name} at {args}")

    for i, j, k in itertools.product(indices, repeat=3):
        if i == j or j == k:
            continue
        if lattice.leq(i, j) and lattice.leq(j, k):
            left = system.hom(i, k)
            via = system.hom(j, k)
            first = system.hom(i, j)
            for e in system.components[i].algebra.elements:
                if e in first and first[e] in via and left.get(e) != via[first[e]]:
                    report.add(
                        "composition",
                        f"hom {i}->{k} disagrees with {j}-composite at element {e!r}",
                    )
                    break

    if system.kind == "l":
        for i, j in ordered_pairs:
            if (i, j) in partial:
                continue
            mapping = system.homs[(i, j)]
            for e in system.components[i].designated:
                if mapping[e] not in system.components[j].designated:
                    report.add(
                        "l-designated",
                        f"hom {i}->{j} sends designated {e!r} outside the designated set",
                    )
    elif system.kind == "r":
        nonempty = [i for i in indices if system.components[i].designated]
        for i, j in itertools.product(nonempty, repeat=2):
            if lattice.join(i, j) not in nonempty:
                report.add(
                    "r-subsemilattice",
                    f"indices with designated elements are not join-closed at ({i}, {j})",
                )
        for i, j in ordered_pairs:
            if (i, j) in partial or not system.components[j].designated:
                continue
            mapping = system.homs[(i, j)]
            pulled = {e for e in system.components[i].algebra.elements
                      if mapping[e] in system.components[j].designated}
            if pulled != set(system.components[i].designated):
                report.add(
                    "r-reflection",
                    f"hom {i}->{j} does not reflect designation exactly "
                    f"(preimage {sorted(pulled)} vs designated "
                    f"{sorted(system.components[i].designated)})",
                )
    return report


def reference_plonka_sum(system):
    report = reference_validate_system(system)
    if not report.ok:
        raise InvalidSystemError(report)
    signature = system.signature
    for name, arity in signature.connectives:
        if arity == 0:
            raise MatrixError(f"the sum construction does not support 0-ary connective {name!r}")
    lattice = system.semilattice

    tag = {}
    component_of = {}
    elements = []
    for i in lattice.indices:
        for a in system.components[i].algebra.elements:
            tag[(i, a)] = f"{i}.{a}"
            component_of[f"{i}.{a}"] = (i, a)
            elements.append(f"{i}.{a}")

    tables = {}
    for name, arity in signature.connectives:
        table = {}
        for combo in itertools.product(elements, repeat=arity):
            pieces = [component_of[c] for c in combo]
            target = lattice.join_all(i for i, _ in pieces)
            pushed = tuple(system.hom(i, target)[a] for i, a in pieces)
            value = system.components[target].algebra.tables[name][pushed]
            table[combo] = tag[(target, value)]
        tables[name] = table
    algebra = FiniteAlgebra(signature, tuple(elements), tables)
    if system.kind == "algebraic":
        return algebra
    designated = frozenset(
        tag[(i, a)] for i in lattice.indices for a in system.components[i].designated
    )
    return FiniteMatrix(algebra, designated)


def reference_product_table(algebra, term):
    left, right = partition_variables(term)
    table = {}
    for a, b in itertools.product(algebra.elements, repeat=2):
        table[(a, b)] = evaluate(algebra, term, {left: a, right: b})
    return table


def reference_check_partition_function(algebra, term):
    """The five equational axioms (mode ``algebraic``)."""
    dot = reference_product_table(algebra, term)
    report = PartitionReport(term=term, mode="algebraic")
    elements = algebra.elements

    bad = next((a for a in elements if dot[(a, a)] != a), None)
    report.results.append(AxiomResult("P1 idempotence", bad is None, None if bad is None else (bad,)))

    bad3 = next(
        (
            (a, b, c)
            for a, b, c in itertools.product(elements, repeat=3)
            if dot[(a, dot[(b, c)])] != dot[(dot[(a, b)], c)]
        ),
        None,
    )
    report.results.append(AxiomResult("P2 associativity", bad3 is None, bad3))

    bad3 = next(
        (
            (a, b, c)
            for a, b, c in itertools.product(elements, repeat=3)
            if dot[(a, dot[(b, c)])] != dot[(a, dot[(c, b)])]
        ),
        None,
    )
    report.results.append(AxiomResult("P3 right commutation", bad3 is None, bad3))

    for name, arity in algebra.signature.connectives:
        if arity == 0:
            continue
        table = algebra.tables[name]
        failure = None
        for args in itertools.product(elements, repeat=arity):
            for b in elements:
                pushed = tuple(dot[(a, b)] for a in args)
                if dot[(table[args], b)] != table[pushed]:
                    failure = (name, args, b)
                    break
            if failure:
                break
        report.results.append(AxiomResult(f"P4 distribution over {name}", failure is None, failure))

        failure = None
        for args in itertools.product(elements, repeat=arity):
            for b in elements:
                folded = b
                for a in args:
                    folded = dot[(folded, a)]
                if dot[(b, table[args])] != folded:
                    failure = (name, args, b)
                    break
            if failure:
                break
        report.results.append(AxiomResult(f"P5 absorption over {name}", failure is None, failure))
    return report


def reference_subalgebra(algebra, keep):
    keep_set = set(keep)
    tables = {}
    for name, arity in algebra.signature.connectives:
        tables[name] = {
            args: out
            for args, out in algebra.tables[name].items()
            if set(args) <= keep_set and out in keep_set
        }
    return FiniteAlgebra(algebra.signature, tuple(keep), tables)


def reference_decompose(algebra, term):
    for name, arity in algebra.signature.connectives:
        if arity == 0:
            raise MatrixError(f"decomposition does not support 0-ary connective {name!r}")
    report = reference_check_partition_function(algebra, term)
    if not report.passed:
        raise DecompositionError(
            "term fails the partition axioms:\n" + report.render()
        )
    dot = reference_product_table(algebra, term)
    elements = algebra.elements

    def related(a, b):
        return dot[(a, b)] == a and dot[(b, a)] == b

    for a, b, c in itertools.product(elements, repeat=3):
        if related(a, b) and related(b, c) and not related(a, c):
            raise DecompositionError(f"component relation is not transitive at ({a}, {b}, {c})")

    classes = []
    for e in elements:
        for cls in classes:
            if related(cls[0], e):
                cls.append(e)
                break
        else:
            classes.append([e])
    index_of_element = {}
    names = [str(k) for k in range(len(classes))]
    for name, cls in zip(names, classes):
        for e in cls:
            index_of_element[e] = name
    members = dict(zip(names, classes))

    def below(i, j):
        return any(dot[(b, a)] == b for a in members[i] for b in members[j])

    for i, j in itertools.combinations(names, 2):
        if below(i, j) and below(j, i):
            raise DecompositionError(f"component order is not antisymmetric at ({i}, {j})")
    for i, j, k in itertools.product(names, repeat=3):
        if below(i, j) and below(j, k) and not below(i, k):
            raise DecompositionError(f"component order is not transitive at ({i}, {j}, {k})")

    join_table = {}
    for i, j in itertools.product(names, repeat=2):
        uppers = [k for k in names if below(i, k) and below(j, k)]
        least = [u for u in uppers if all(below(u, other) for other in uppers)]
        if len(least) != 1:
            raise DecompositionError(f"components have no unique join at ({i}, {j})")
        join_table[(i, j)] = least[0]
    lattice = FiniteSemilattice(tuple(names), join_table)

    for name, arity in algebra.signature.connectives:
        for cls_name in names:
            for args in itertools.product(members[cls_name], repeat=arity):
                out = algebra.tables[name][args]
                if index_of_element[out] != cls_name:
                    raise DecompositionError(
                        f"component {cls_name} is not closed under {name} at {args}"
                    )

    homs = {}
    for i, j in itertools.product(names, repeat=2):
        if i == j or not lattice.leq(i, j):
            continue
        anchor = members[j][0]
        mapping = {e: dot[(e, anchor)] for e in members[i]}
        for b in members[j][1:]:
            for e in members[i]:
                if dot[(e, b)] != mapping[e]:
                    raise DecompositionError(
                        f"hom {i}->{j} depends on the anchor choice at element {e!r}"
                    )
        for e, image in mapping.items():
            if index_of_element[image] != j:
                raise DecompositionError(f"hom {i}->{j} leaves component {j} at {e!r}")
        homs[(i, j)] = mapping

    component_matrices = {
        cls_name: FiniteMatrix(reference_subalgebra(algebra, members[cls_name]), frozenset())
        for cls_name in names
    }
    system = DirectSystem(lattice, component_matrices, homs, kind="algebraic")
    system_report = reference_validate_system(system)
    if not system_report.ok:
        raise DecompositionError("decomposition produced an invalid system:\n" + system_report.render())

    rebuilt = reference_plonka_sum(system)
    renaming = decomposition_renaming(system)
    for name, arity in algebra.signature.connectives:
        for args in itertools.product(algebra.elements, repeat=arity):
            tagged = tuple(renaming[a] for a in args)
            if renaming[algebra.tables[name][args]] != rebuilt.tables[name][tagged]:
                raise DecompositionError(f"sum of the decomposition disagrees at {name}{args}")
    return system


def reference_check_regular_identity(left, right, algebra):
    regular = left.variables == right.variables
    names = sorted(left.variables | right.variables)
    for values in itertools.product(algebra.elements, repeat=len(names)):
        valuation = dict(zip(names, values))
        if evaluate(algebra, left, valuation) != evaluate(algebra, right, valuation):
            return RegularIdentityReport(left, right, regular, False, valuation)
    return RegularIdentityReport(left, right, regular, True, None)


# ---------------------------------------------------------------------------
# Differential tests against the reference
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """A call's result, or the type and message of the MatrixError it raised."""
    try:
        return fn(*args)
    except MatrixError as exc:
        return type(exc).__name__, str(exc)


def _rows(report):
    return [(r.name, r.passed, r.counterexample) for r in report.results]


TWO_VARIABLE_TERMS = tuple(
    f
    for f in enumerate_fragment(FULL_SIGNATURE, FragmentSpec(("x", "y"), 2, 0))
    if f.variables == {"x", "y"}
)
IDENTITY_SIDES = enumerate_fragment(FULL_SIGNATURE, FragmentSpec(("x", "y", "z"), 1, 0))


CONSTANT_SIGNATURE = Signature(FULL_SIGNATURE.connectives + (("t", 0),))
# Sides of the constant t alone, which have no variables, and one mixing it with x.
CONSTANT_SIDES = tuple(
    parse_formula(text, CONSTANT_SIGNATURE)
    for text in ("t", "not(t)", "and(t, not(t))", "or(t, x)")
)


@st.composite
def random_algebras(draw, max_size=6, signatures=(FULL_SIGNATURE, AND_OR_SIGNATURE)):
    """An algebra with uniformly random tables over one of ``signatures``
    (by default and/or/not or and/or)."""
    signature = draw(st.sampled_from(signatures))
    size = draw(st.integers(1, max_size))
    elements = tuple(draw(st.permutations([f"e{k}" for k in range(size)])))
    tables = {}
    for name, arity in signature.connectives:
        outputs = draw(st.lists(st.sampled_from(elements), min_size=size**arity, max_size=size**arity))
        tables[name] = dict(zip(itertools.product(elements, repeat=arity), outputs))
    return FiniteAlgebra(signature, elements, tables)


def _union_closed(masks):
    family = set(masks)
    while True:
        closure = family | {s | t for s in family for t in family}
        if closure == family:
            return sorted(family, key=lambda s: (bin(s).count("1"), s))
        family = closure


@st.composite
def sum_algebras(draw):
    """The sum of copies of a small algebra below one-element components, in
    a random element order, sometimes with one table entry changed."""
    base = draw(st.sampled_from([b2_algebra(), b2_and_or_matrix().algebra, wk_algebra()]))
    masks = _union_closed(draw(st.lists(st.integers(1, 7), min_size=1, max_size=4)))
    copies = draw(st.integers(0, len(masks)))
    system = _copies_below_points(base, masks, masks[:copies])
    total = plonka_sum(system)
    elements = tuple(draw(st.permutations(total.elements)))
    tables = {name: dict(table) for name, table in total.tables.items()}
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(tables)))
        args = draw(st.sampled_from(sorted(tables[name])))
        tables[name][args] = draw(st.sampled_from(elements))
    return FiniteAlgebra(total.signature, elements, tables)


def _copies_below_points(base, masks, copied, kind="algebraic"):
    """Copies of ``base`` at the indices ``copied`` (a down-set of the
    union-closed ``masks``), one-element components at the others;
    homs are renamings between copies and constant maps into points."""
    names = {s: f"s{s}" for s in masks}
    components = {}
    for s in masks:
        n = names[s]
        if s in copied:
            ren = {e: f"{n}_{e}" for e in base.elements}
            tables = {
                op: {tuple(ren[a] for a in args): ren[v] for args, v in table.items()}
                for op, table in base.tables.items()
            }
            algebra = FiniteAlgebra(base.signature, tuple(ren[e] for e in base.elements), tables)
        else:
            e = f"{n}_t"
            algebra = FiniteAlgebra(
                base.signature, (e,),
                {op: {(e,) * arity: e} for op, arity in base.signature.connectives},
            )
        components[n] = FiniteMatrix(algebra, frozenset())
    homs = {}
    for s in masks:
        for t in masks:
            if s != t and s | t == t:
                source, target = names[s], names[t]
                if t in copied:
                    homs[(source, target)] = {f"{source}_{e}": f"{target}_{e}" for e in base.elements}
                else:
                    homs[(source, target)] = {
                        e: f"{target}_t" for e in components[source].algebra.elements
                    }
    join = {(names[s], names[t]): names[s | t] for s in masks for t in masks}
    lattice = FiniteSemilattice(tuple(names[s] for s in masks), join)
    return DirectSystem(lattice, components, homs, kind=kind)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(random_algebras(), sum_algebras()),
    st.one_of(st.just(pi_term()), st.sampled_from(TWO_VARIABLE_TERMS)),
)
def test_partition_check_and_decompose_match_reference(algebra, term):
    new = _outcome(check_partition_function, algebra, term)
    old = _outcome(reference_check_partition_function, algebra, term)
    if isinstance(new, PartitionReport):
        assert _rows(new) == _rows(old)
        assert new.render() == old.render()
    else:
        assert new == old
    system = _outcome(decompose, algebra, term)
    assert system == _outcome(reference_decompose, algebra, term)
    if isinstance(system, DirectSystem):
        # decompose leaves these to Płonka's theorem; the test keeps them.
        assert validate_system(system).ok
        renaming = decomposition_renaming(system)
        rebuilt = plonka_sum(system)
        for name, table in algebra.tables.items():
            for args, value in table.items():
                assert rebuilt.tables[name][tuple(renaming[a] for a in args)] == renaming[value]


@st.composite
def join_tables(draw):
    """A join table on 1-7 indices: a real semilattice with a few entries
    changed, a random commutative idempotent table, or a random table."""
    masks = _union_closed(draw(st.lists(st.integers(1, 7), min_size=1, max_size=3)))
    indices = tuple(draw(st.permutations([f"i{s}" for s in masks])))
    shape = draw(st.sampled_from(["semilattice", "commutative", "random"]))
    if shape == "semilattice":
        table = {(f"i{s}", f"i{t}"): f"i{s | t}" for s in masks for t in masks}
    else:
        table = {}
        for i, j in itertools.combinations_with_replacement(indices, 2):
            table[(i, j)] = i if i == j and shape == "commutative" else draw(st.sampled_from(indices))
            if shape == "commutative":
                table[(j, i)] = table[(i, j)]
        for i, j in itertools.product(indices, repeat=2):
            table.setdefault((i, j), draw(st.sampled_from(indices)))
    for _ in range(draw(st.integers(0, 2))):
        pair = draw(st.sampled_from(sorted(table)))
        table[pair] = draw(st.sampled_from(indices))
    if draw(st.integers(0, 9)) == 0:
        table[(indices[0], indices[-1])] = "stranger"
    if draw(st.integers(0, 9)) == 0:
        del table[draw(st.sampled_from(sorted(table)))]
    return indices, table


@settings(max_examples=150, deadline=None)
@given(join_tables())
def test_semilattice_laws_match_reference(case):
    indices, table = case
    expected = reference_semilattice_error(indices, table)
    if expected is None:
        FiniteSemilattice(indices, table)
    else:
        with pytest.raises(SemilatticeError) as excinfo:
            FiniteSemilattice(indices, table)
        assert str(excinfo.value) == expected


_WK_CONSTANT = FiniteAlgebra(
    CONSTANT_SIGNATURE, wk_algebra().elements, dict(wk_algebra().tables, t={(): "1"})
)
_SIDES = st.one_of(st.sampled_from(IDENTITY_SIDES), st.sampled_from(CONSTANT_SIDES))


# Constant sides over an algebra without ``t`` raise the same MatrixError
# on both paths.
@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        random_algebras(), sum_algebras(), random_algebras(signatures=(CONSTANT_SIGNATURE,))
    ),
    _SIDES,
    _SIDES,
)
@example(_WK_CONSTANT, CONSTANT_SIDES[0], CONSTANT_SIDES[1])
@example(_WK_CONSTANT, CONSTANT_SIDES[0], CONSTANT_SIDES[0])
@example(_WK_CONSTANT, CONSTANT_SIDES[2], CONSTANT_SIDES[1])
def test_regular_identity_matches_reference(algebra, left, right):
    new = _outcome(check_regular_identity, left, right, algebra)
    assert new == _outcome(reference_check_regular_identity, left, right, algebra)


HOM_DAMAGES = ("drop-key", "junk-image", "move-image", "junk-key", "rewire", "stray-hom", "drop-hom")


def _damage_homs(draw, components, homs, indices, count):
    """Apply ``count`` damages drawn from ``HOM_DAMAGES`` to ``homs`` in place,
    each to a hom into one of ``indices`` (a stray hom joins two of them)."""
    every = sorted({e for m in components.values() for e in m.algebra.elements})
    targets = set(indices)
    for _ in range(count):
        damage = draw(st.sampled_from(HOM_DAMAGES))
        into = sorted(pair for pair in homs if pair[1] in targets)
        if damage == "stray-hom" or not into:
            pair = (draw(st.sampled_from(indices)), draw(st.sampled_from(indices)))
        else:
            pair = draw(st.sampled_from(into))
        if damage in ("stray-hom", "rewire"):
            images = components[pair[1]].algebra.elements
            homs[pair] = {e: draw(st.sampled_from(images)) for e in components[pair[0]].algebra.elements}
            continue
        if pair not in homs:
            continue
        mapping = homs[pair]
        if damage == "drop-hom":
            del homs[pair]
        elif damage == "junk-key":
            mapping[draw(st.sampled_from(every + ["junk"]))] = draw(st.sampled_from(every + ["junk"]))
        elif mapping and damage == "drop-key":
            del mapping[draw(st.sampled_from(sorted(mapping)))]
        elif mapping:
            key = draw(st.sampled_from(sorted(mapping)))
            images = components[pair[1]].algebra.elements
            mapping[key] = "junk" if damage == "junk-image" else draw(st.sampled_from(images))


def _share_point_names(components, homs, indices):
    """Rename the element of the first two one-element components among
    ``indices`` to one shared name, in place."""
    points = [i for i in indices if len(components[i].algebra.elements) == 1]
    for i in points[:2]:
        old = components[i].algebra.elements[0]
        algebra = components[i].algebra
        tables = {op: {("shared",) * arity: "shared"} for op, arity in algebra.signature.connectives}
        components[i] = FiniteMatrix(
            FiniteAlgebra(algebra.signature, ("shared",), tables),
            frozenset({"shared"}) if old in components[i].designated else frozenset(),
        )
        for mapping in homs.values():
            for key, image in list(mapping.items()):
                if image == old:
                    mapping[key] = "shared"
                if key == old:
                    mapping["shared"] = mapping.pop(key)


def _designate_at_random(draw, system):
    """The components of ``system`` with random designated sets."""
    return {
        i: FiniteMatrix(m.algebra, frozenset(draw(st.sets(st.sampled_from(m.algebra.elements)))))
        for i, m in system.components.items()
    }


@st.composite
def damaged_systems(draw):
    """Copies-below-points systems of any kind with random designation and a
    few homs, components or elements damaged."""
    base = draw(st.sampled_from([b2_algebra(), b2_and_or_matrix().algebra, wk_algebra()]))
    masks = _union_closed(draw(st.lists(st.integers(1, 7), min_size=2, max_size=4)))
    copies = draw(st.integers(0, len(masks)))
    kind = draw(st.sampled_from(["algebraic", "l", "r"]))
    system = _copies_below_points(base, masks, masks[:copies], kind)
    components = _designate_at_random(draw, system)
    homs = {pair: dict(mapping) for pair, mapping in system.homs.items()}
    indices = system.semilattice.indices
    _damage_homs(draw, components, homs, indices, draw(st.integers(0, 3)))
    if draw(st.integers(0, 4)) == 0:
        # Two one-element components sharing their element name.
        _share_point_names(components, homs, indices)
    return DirectSystem(system.semilattice, components, homs, kind=kind)


@st.composite
def random_map_systems(draw):
    """Random algebras of 1-3 elements over a union-closed family, joined by
    random total maps: most maps fail to be homs or to compose."""
    masks = _union_closed(draw(st.lists(st.integers(1, 7), min_size=1, max_size=4)))
    signature = draw(st.sampled_from([FULL_SIGNATURE, AND_OR_SIGNATURE]))
    components = {}
    for s in masks:
        size = draw(st.integers(1, 3))
        elements = tuple(f"s{s}_{k}" for k in range(size))
        tables = {
            name: {
                args: draw(st.sampled_from(elements))
                for args in itertools.product(elements, repeat=arity)
            }
            for name, arity in signature.connectives
        }
        designated = frozenset(draw(st.sets(st.sampled_from(elements))))
        components[f"s{s}"] = FiniteMatrix(FiniteAlgebra(signature, elements, tables), designated)
    homs = {
        (f"s{s}", f"s{t}"): {
            e: draw(st.sampled_from(components[f"s{t}"].algebra.elements))
            for e in components[f"s{s}"].algebra.elements
        }
        for s in masks
        for t in masks
        if s != t and s | t == t
    }
    join = {(f"s{s}", f"s{t}"): f"s{s | t}" for s in masks for t in masks}
    lattice = FiniteSemilattice(tuple(f"s{s}" for s in masks), join)
    kind = draw(st.sampled_from(["algebraic", "l", "r"]))
    return DirectSystem(lattice, components, homs, kind=kind)


@settings(max_examples=200, deadline=None)
@given(st.one_of(damaged_systems(), random_map_systems()))
def test_validate_and_sum_match_reference(system):
    assert validate_system(system).render() == reference_validate_system(system).render()
    assert _outcome(plonka_sum, system) == _outcome(reference_plonka_sum, system)


@pytest.mark.parametrize(
    "pair, key, image, codes",
    [
        (("s1", "s3"), "s1_1", "junk", ["hom-codomain"]),
        (("s3", "s7"), "s3_0", None, ["hom-domain"]),
        (("s1", "s7"), "s1_0", None, ["hom-domain", "composition"]),
        (("s1", "s3"), "s1_0", "s3_1", ["hom-property", "composition"]),
    ],
    ids=["image-outside-middle", "middle-step-undefined", "direct-undefined", "wrong-image"],
)
def test_composition_of_partial_homs_matches_reference(pair, key, image, codes):
    """On the chain s1 < s3 < s7 of Boolean copies, a composite is compared
    only where both steps are defined; an undefined direct hom disagrees."""
    system = _copies_below_points(b2_algebra(), [1, 3, 7], [1, 3, 7])
    if image is None:
        del system.homs[pair][key]
    else:
        system.homs[pair][key] = image
    report = validate_system(system)
    assert [v.code for v in report.violations] == codes
    assert report.render() == reference_validate_system(system).render()


# ---------------------------------------------------------------------------
# Scale and memory
# ---------------------------------------------------------------------------


def _cube_system(copies, tower, base=b2_algebra(), kind="algebraic"):
    """Copies of ``base`` on the first ``copies`` of the 31 nonempty subsets
    of a five-element set (ordered by size, so a down-set), one-element
    components at the other subsets and on a chain of ``tower`` sets above
    them all.  With the Boolean base the sum has ``31 + tower + copies``
    elements."""
    cube = sorted(range(1, 32), key=lambda s: (bin(s).count("1"), s))
    masks = cube + [(1 << (6 + k)) - 1 for k in range(tower)]
    return _copies_below_points(base, masks, cube[:copies], kind)


@st.composite
def cube_systems(draw):
    """Systems of :func:`_cube_system`'s shape with 30-64 elements, copies of
    a Boolean, weak Kleene or constant-carrying algebra, with up to two
    damages at deep indices (from the middle of the copies up, or the upper
    half of the indices when there are none): a hom damage from
    ``HOM_DAMAGES`` to a hom into one of them, or two of them that are
    points sharing an element name."""
    base = draw(st.sampled_from([b2_algebra(), wk_algebra(), _WK_CONSTANT]))
    tower = draw(st.integers(0, 12))
    copies = draw(st.integers(0, min(31, (33 - tower) // (len(base.elements) - 1))))
    kind = draw(st.sampled_from(["algebraic", "l", "r"]))
    system = _cube_system(copies, tower, base, kind)
    components = dict(system.components)
    if kind != "algebraic":
        components = _designate_at_random(draw, system)
    homs = {pair: dict(mapping) for pair, mapping in system.homs.items()}
    indices = system.semilattice.indices
    deep = indices[(copies or len(indices)) // 2:]
    damages = draw(st.integers(0, 2))
    if damages and draw(st.integers(0, 4)) == 0:
        _share_point_names(components, homs, deep)
        damages -= 1
    _damage_homs(draw, components, homs, deep, damages)
    return DirectSystem(system.semilattice, components, homs, kind=kind)


_CONSTANT_CUBE = _cube_system(copies=6, tower=0, base=_WK_CONSTANT)


def _moved_image_cube():
    """The 64-element cube system with ``s3 -> s7`` sending ``s3_0`` to
    ``s7_1``: one failing hom, and failing triples through it."""
    system = _cube_system(copies=21, tower=12)
    system.homs[("s3", "s7")]["s3_0"] = "s7_1"
    return system


@settings(max_examples=50, deadline=None)
@given(cube_systems())
@example(_cube_system(copies=21, tower=12))
@example(_moved_image_cube())
@example(_CONSTANT_CUBE)
def test_validate_and_sum_match_reference_at_workload_scale(system):
    """The whole-system kernels at the benchmark's sizes, where one failing
    hom or triple sits among hundreds of passing ones."""
    assert validate_system(system).render() == reference_validate_system(system).render()
    total = _outcome(plonka_sum, system)
    assert total == _outcome(reference_plonka_sum, system)
    if not isinstance(total, tuple):
        # The index tables the sum seeds are the ones its tables give.
        algebra = total if isinstance(total, FiniteAlgebra) else total.algebra
        rebuilt = FiniteAlgebra(algebra.signature, algebra.elements, algebra.tables).index_tables
        for name, table in algebra.index_tables.items():
            assert table.dtype == rebuilt[name].dtype and np.array_equal(table, rebuilt[name])


def _swapped_images_chain():
    """Weak Kleene copies on the chain s1 < s3 < s7 < s15 with ``s1 -> s3``
    swapping the images of ``s1_n`` and ``s1_1``: every triple through it
    fails at its second element and again at its third."""
    system = _copies_below_points(wk_algebra(), [1, 3, 7, 15], [1, 3, 7, 15])
    system.homs[("s1", "s3")].update({"s1_n": "s3_1", "s1_1": "s3_n"})
    return system


@pytest.mark.parametrize("block", [1, 5, 300])
def test_blocked_kernels_match_reference(monkeypatch, block):
    """Blocks small enough to put each hom, or each (hom, element) entry of
    the composition check, in a block of its own."""
    systems = [_moved_image_cube(), _swapped_images_chain()]
    expected = [reference_validate_system(system).render() for system in systems]
    monkeypatch.setattr(plonka_module, "_BLOCK", block)
    assert [validate_system(system).render() for system in systems] == expected
    assert "at element 's1_n'" in expected[1]


def test_a_constant_passes_validation_and_stops_the_sum():
    assert validate_system(_CONSTANT_CUBE).ok
    with pytest.raises(MatrixError, match="0-ary connective 't'"):
        plonka_sum(_CONSTANT_CUBE)


def test_round_trip_at_48_elements_recovers_partition_and_tables():
    system = _cube_system(copies=17, tower=0)
    assert validate_system(system).ok
    total = plonka_sum(system)
    assert len(total.elements) == 48
    report = check_partition_function(total, pi_term())
    assert report.passed, report.render()

    parts = decompose(total, pi_term())
    assert len(parts.semilattice.indices) == 31
    expected = {
        frozenset(f"{i}.{e}" for e in m.algebra.elements) for i, m in system.components.items()
    }
    assert {frozenset(m.algebra.elements) for m in parts.components.values()} == expected
    renaming = decomposition_renaming(parts)
    resum = plonka_sum(parts)
    for name, table in total.tables.items():
        for args, value in table.items():
            assert resum.tables[name][tuple(renaming[a] for a in args)] == renaming[value]
    # Component order: class i lies below class j exactly when the masks nest.
    mask_of = {
        name: int(m.algebra.elements[0].split(".")[0][1:]) for name, m in parts.components.items()
    }
    for i, j in itertools.product(parts.semilattice.indices, repeat=2):
        assert parts.semilattice.leq(i, j) == (mask_of[i] | mask_of[j] == mask_of[j])


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_peak_over_result(fn, *args):
    """Traced peak of a call above what its result still holds on return."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
        del result
        return peak - held
    finally:
        tracemalloc.stop()


def test_memory_peaks_at_64_elements_stay_at_block_size():
    """No n**3 temporaries: an intp array of 64**3 entries alone is 2 MB."""
    system = _cube_system(copies=21, tower=12)
    assert len(plonka_sum(system).elements) == 64
    # A fresh sum for each call, so cached tables count where they are built.
    partition_peak = _traced_peak(check_partition_function, plonka_sum(system), pi_term())
    decompose_peak = _traced_peak(decompose, plonka_sum(system), pi_term())
    assert partition_peak <= 0.5 * 2**20, partition_peak
    assert decompose_peak <= 2 * 2**20, decompose_peak
    # The whole-system kernels hold one entry per hom and tuple within a
    # component, or per triple and element: about 8.5k at these 43 indices.
    validate_peak = _traced_peak(validate_system, system)
    assert validate_peak <= 0.5 * 2**20, validate_peak
    # The sum's own tables (about 0.75 MB of dicts and index arrays) are its
    # result; what it builds on the way must stay at block size.
    sum_peak = _traced_peak_over_result(plonka_sum, system)
    assert sum_peak <= 0.5 * 2**20, sum_peak


# ---------------------------------------------------------------------------
# Slab boundaries of the law checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", [8, 8 * 50], ids=["one-leading-argument", "partial-last-slab"])
def test_reference_properties_across_slab_boundaries(monkeypatch, block):
    """The law checks' reference properties on slabs of ``block // 8``
    entries: one leading argument per slab, and 50 entries, which leaves a
    partial last slab at many of the drawn sizes (4, 5, 8, 9 and 11
    elements for the cubic laws)."""
    monkeypatch.setattr(plonka_module, "_BLOCK", block)
    test_partition_check_and_decompose_match_reference()
    test_semilattice_laws_match_reference()
    test_regular_identity_matches_reference()


TERNARY_SIGNATURE = Signature(FULL_SIGNATURE.connectives + (("maj", 3),))


@settings(max_examples=100, deadline=None)
@given(
    random_algebras(max_size=4, signatures=(TERNARY_SIGNATURE,)),
    st.sampled_from(TWO_VARIABLE_TERMS),
    st.sampled_from([8, 8 * 50, 1 << 16]),
)
def test_ternary_partition_laws_match_reference(algebra, term, block):
    """P4 and P5 over a ternary connective, whose sides sum or fold three
    arguments, on slabs of one leading argument, a few, and the default."""
    old = _outcome(reference_check_partition_function, algebra, term)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plonka_module, "_BLOCK", block)
        new = _outcome(check_partition_function, algebra, term)
    assert _rows(new) == _rows(old)
    assert new.render() == old.render()


def test_first_failure_in_the_last_slab_at_64_elements():
    """A workload-style sum with one table entry changed at the last element:
    P4 and P5 over ``or`` first fail there, in the last slab of the default size."""
    total = plonka_sum(_cube_system(copies=21, tower=12))
    elements = total.elements
    tables = {name: dict(table) for name, table in total.tables.items()}
    tables["or"][(elements[-1], elements[0])] = elements[0]
    damaged = FiniteAlgebra(total.signature, elements, tables)
    new = check_partition_function(damaged, pi_term())
    old = reference_check_partition_function(damaged, pi_term())
    assert _rows(new) == _rows(old)
    assert new.render() == old.render()
    failed = [r for r in new.results if not r.passed]
    assert [r.name for r in failed] == ["P4 distribution over or", "P5 absorption over or"]
    assert all(r.counterexample[1][0] == elements[-1] for r in failed)


# ---------------------------------------------------------------------------
# Memory of the identity check and of validation at scale
# ---------------------------------------------------------------------------


def test_identity_check_memory_peak_at_64_elements_stays_at_slab_size():
    """A 3-variable identity over the 64-element sum runs over 64**3
    valuations, 2 MB as one intp array; slabs keep the peak far below."""
    system = _cube_system(copies=21, tower=12)
    left, right = P("and(x, or(y, z))"), P("or(and(x, y), and(x, z))")
    assert check_regular_identity(left, right, plonka_sum(system)).holds
    peak = _traced_peak(check_regular_identity, left, right, plonka_sum(system))
    assert peak <= 0.5 * 2**20, peak


def _point_chain(k):
    """One-element components ``c0 < c1 < ...`` on a chain of ``k`` indices."""
    names = [f"c{i}" for i in range(k)]
    components = {c: trivial_matrix(FULL_SIGNATURE, f"{c}_t", False) for c in names}
    join = {(a, b): names[max(i, j)] for i, a in enumerate(names) for j, b in enumerate(names)}
    homs = {(a, b): {f"{a}_t": f"{b}_t"} for i, a in enumerate(names) for b in names[i + 1:]}
    return DirectSystem(FiniteSemilattice(tuple(names), join), components, homs)


def test_validate_memory_on_a_300_component_chain():
    """Hom lookups search one sorted key per hom entry.  A dense table of
    (ordered pairs + 1) x (names + 1) entries would be 44,851 x 301 here,
    27 MB as uint16 on its own."""
    system = _point_chain(300)
    assert validate_system(system).ok
    peak = _traced_peak(validate_system, system)
    assert peak <= 16 * 2**20, peak
