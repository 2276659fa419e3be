"""Acceptance gate: one verdict line per numbered criterion.

Every criterion prints exactly one line of the form

    ACCEPTANCE criterion N: PASS/FAIL - detail

collected into the terminal summary by the conftest hook.  Each criterion
gathers its problems first and reports once, so a failure still yields its
line.  Expected values are frozen literals checked against independent
constructions; nothing here is read back from the code under test.
"""

from __future__ import annotations

import itertools
import time

from conftest import definitional_antitheorem_check, find_antitheorem, record_acceptance

from vilogic.formulas import (
    FragmentSpec,
    enumerate_fragment,
    parse_formula,
    substitute,
)
from vilogic.lattice import DEFAULT_FRAGMENT, compare, reproduce_figure
from vilogic.matrices import FiniteMatrix, MatrixOracle
from vilogic.plonka import (
    DirectSystem,
    FiniteSemilattice,
    canonical_chain_matrix,
    check_partition_function,
    check_regular_identity,
    decompose,
    decomposition_renaming,
    plonka_sum,
    trivial_matrix,
)
from vilogic.presets import (
    FULL_SIGNATURE,
    b2_and_or_matrix,
    b2_matrix,
    b3_matrix,
    pi_term,
    pwk_matrix,
    wk_algebra,
)
from vilogic.transforms import (
    derive_sequence,
    intersect,
    is_antitheorem,
)


def P(text):
    return parse_formula(text, FULL_SIGNATURE)


def _report(criterion: int, problems: list[str], detail: str) -> None:
    status = "PASS" if not problems else "FAIL"
    suffix = detail if not problems else problems[0]
    line = f"ACCEPTANCE criterion {criterion}: {status} - {suffix}"
    record_acceptance(line)
    print(line)
    assert not problems, "\n".join([line] + problems)


# --- criterion 1: contagious tables and their two-component sum -------------

CONTAGIOUS_AND = {
    ("0", "0"): "0", ("0", "1"): "0", ("0", "n"): "n",
    ("1", "0"): "0", ("1", "1"): "1", ("1", "n"): "n",
    ("n", "0"): "n", ("n", "1"): "n", ("n", "n"): "n",
}
CONTAGIOUS_OR = {
    ("0", "0"): "0", ("0", "1"): "1", ("0", "n"): "n",
    ("1", "0"): "1", ("1", "1"): "1", ("1", "n"): "n",
    ("n", "0"): "n", ("n", "1"): "n", ("n", "n"): "n",
}
CONTAGIOUS_NOT = {("0",): "1", ("1",): "0", ("n",): "n"}


def test_criterion_1_contagious_tables_and_sum():
    started = time.monotonic()
    problems: list[str] = []

    wk = wk_algebra()
    expected = {"and": CONTAGIOUS_AND, "or": CONTAGIOUS_OR, "not": CONTAGIOUS_NOT}
    entries = sum(len(t) for t in expected.values())
    if entries != 21:
        problems.append(f"expected literal table holds {entries} entries, not 21")
    for name, table in expected.items():
        if wk.tables[name] != table:
            problems.append(f"bundled contagious table {name} deviates from the literal")

    top = trivial_matrix(FULL_SIGNATURE, "n", True)
    chain = FiniteSemilattice(
        ("0", "1"),
        {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"},
    )
    system = DirectSystem(
        semilattice=chain,
        components={"0": b2_matrix(), "1": top},
        homs={("0", "1"): {"0": "n", "1": "n"}},
        kind="l",
    )
    total = plonka_sum(system)
    renaming = {"0.0": "0", "0.1": "1", "1.n": "n"}
    if set(renaming) != set(total.algebra.elements):
        problems.append("sum produced unexpected carrier elements")
    else:
        for name, table in expected.items():
            for args, value in total.algebra.tables[name].items():
                key = tuple(renaming[a] for a in args)
                if table[key] != renaming[value]:
                    problems.append(
                        f"sum disagrees with the literal {name} table at {key}"
                    )
                    break
    elapsed = time.monotonic() - started
    if elapsed >= 1.0:
        problems.append(f"criterion took {elapsed:.2f}s, budget is 1s")
    _report(
        1,
        problems,
        f"21 contagious table entries bit-exact; two-component sum matches them "
        f"up to renaming ({elapsed:.2f}s, budget 1s)",
    )


# --- criterion 2: step sequences versus their collapsed matrices ------------


def test_criterion_2_towers_match_collapsed_matrices():
    started = time.monotonic()
    problems: list[str] = []
    base = MatrixOracle((b2_matrix(),), label="CL")
    for sequence in ("l", "r", "lr", "rl", "rlr", "lrl"):
        tower = derive_sequence(base, sequence)
        collapsed = MatrixOracle(
            (canonical_chain_matrix(b2_matrix(), sequence),),
            label=f"chain-{sequence}",
        )
        verdict = compare(tower, collapsed, DEFAULT_FRAGMENT)
        if verdict.relation != "equal" or verdict.disagreements != (0, 0):
            problems.append(
                f"sequence {sequence}: {verdict.relation} with "
                f"{verdict.disagreements} disagreements"
            )
    elapsed = time.monotonic() - started
    if elapsed >= 300.0:
        problems.append(f"criterion took {elapsed:.1f}s, budget is 300s")
    _report(
        2,
        problems,
        f"6 step sequences equal their collapsed matrices with zero "
        f"disagreements over the default fragment ({elapsed:.1f}s, budget 300s)",
    )


# --- criterion 3: the full-signature lattice, and rlr against the meet ------


def test_criterion_3_full_base_lattice_shape():
    """Everything attainable in the depth-2/3/4 tower picture; no verdict line.

    The figure-2 claim of a strict gap between the three-step tower and the
    meet of the depth-2 towers is left out here: the two are provably equal.
    The test below asserts that equality and prints the criterion's verdict
    line.
    """
    report = reproduce_figure(2)
    by_label = {claim.label: claim.passed for claim in report.claims}
    assert by_label["base has an explosive premise set"]
    assert by_label["depth-2 towers are incomparable"]
    assert by_label["left-then-right strictly below the meet of the one-step towers"]
    assert by_label["right-then-left strictly below the meet of the one-step towers"]
    assert by_label["three-step tower strictly below left-then-right"]
    assert by_label["three-step tower strictly below right-then-left"]
    assert by_label["four-step tower strictly below the three-step tower"]
    assert by_label["four-step towers coincide"]
    assert by_label["four-step towers coincide after a left step"]
    assert by_label["four-step towers coincide after a right step"]
    assert by_label["extra right step is absorbed after four steps"]
    assert report.suite.ok

    base = MatrixOracle((b2_matrix(),), label="CL")
    towers = {
        s: derive_sequence(base, s) for s in ("lr", "rl", "rlr", "lrl", "lrlr", "rlrl")
    }
    pi = P("and(x, or(x, y))")
    sigma = (P("x"), P("not(x)"))

    assert towers["rl"].entails(sigma, pi)
    assert not towers["lr"].entails(sigma, pi)

    bundled_premises = (P("y"), P("and(not(x), or(not(x), z))"), P("and(x, or(x, z))"))
    bundled_conclusion = P("and(y, or(y, z))")
    assert towers["lr"].entails(bundled_premises, bundled_conclusion)
    assert not towers["rl"].entails(bundled_premises, bundled_conclusion)

    gap_premises = (P("and(y, or(y, z))"), P("x"), P("not(x)"))
    gap_conclusion = P("and(y, or(y, x))")
    assert towers["rlr"].entails(gap_premises, gap_conclusion)
    for four_step in ("lrl", "lrlr", "rlrl"):
        assert not towers[four_step].entails(gap_premises, gap_conclusion)


def test_criterion_3_rlr_strict_gap():
    """Where the three-step tower stands against the meet of the depth-2 towers.

    Over CL the two relations are equal, on every inference and not only on
    the fragment.  Write |-^s for ``derive_sequence(CL, s)``; steps read left
    to right, so ``rl`` is the left companion of the right companion.  Write
    & for intersection, and let V be the inferences (G, f) with Var f
    contained in Var G.

    1. Every and/or/not formula contains a variable.  Asked whether G
       entails a variable z foreign to G, a left companion keeps no premise,
       so |-^l asks CL whether the empty set entails z, and |-^rl asks |-^r
       the same; both say no.  So neither |-^l nor |-^rl has an antitheorem.
    2. Over a logic X without antitheorems a right step gives X & V, so
       |-^lr = |-^l & V and |-^rlr = |-^rl & V.
    3. |-^r is contained in |- (an antitheorem of CL entails every formula),
       and the left step is monotone, so |-^rl is contained in |-^l.
    4. Hence |-^lr & |-^rl = |-^l & V & |-^rl = |-^rl & V = |-^rlr.

    The test checks the verdict on the default fragment and the premise of
    step 1 through the fresh-variable criterion on the whole fragment as a
    premise set; the base itself, which has the antitheorem {x, not(x)},
    is the control that this check can say yes.
    """
    started = time.monotonic()
    problems: list[str] = []
    base = MatrixOracle((b2_matrix(),), label="CL")
    pool = enumerate_fragment(base.signature, DEFAULT_FRAGMENT)
    if not is_antitheorem(base, pool):
        problems.append("the base shows no antitheorem on the fragment pool")
    for sequence in ("l", "rl"):
        if is_antitheorem(derive_sequence(base, sequence), pool):
            problems.append(f"tower {sequence} has an antitheorem on the fragment pool")
    rlr = derive_sequence(base, "rlr")
    meet = intersect(derive_sequence(base, "lr"), derive_sequence(base, "rl"))
    verdict = compare(rlr, meet, DEFAULT_FRAGMENT)
    if verdict.relation != "equal" or verdict.disagreements != (0, 0):
        problems.append(
            f"three-step tower vs meet of depth-2 towers: {verdict.relation} "
            f"({verdict.disagreements[0]} vs {verdict.disagreements[1]} "
            f"one-sided inferences); the proved equality does not appear"
        )
    elapsed = time.monotonic() - started
    if elapsed >= 600.0:
        problems.append(f"criterion took {elapsed:.1f}s, budget is 600s")
    _report(
        3,
        problems,
        f"three-step tower equals the meet of the depth-2 towers, towers l and rl "
        f"have no antitheorem on {len(pool)} formulas while the base has one, "
        f"plus the surrounding lattice shape ({elapsed:.1f}s, budget 600s)",
    )


# --- criterion 4: the theorem-free base collapses the towers ----------------


def test_criterion_4_and_or_base_collapse():
    started = time.monotonic()
    problems: list[str] = []

    report = reproduce_figure(1)
    if not report.ok:
        failing = [c.label for c in report.claims if not c.passed]
        problems.append(f"basic reproduction failed: {failing}")
    statuses = {
        node.node_id: node.antitheorem_status
        for node in report.lattice.nodes
        if node.computed
    }
    wrong = {k: v for k, v in statuses.items() if v != "none-proven"}
    if wrong:
        problems.append(f"explosive sets reported where none should exist: {wrong}")

    base = MatrixOracle((b2_and_or_matrix(),), label="CL[and,or]")
    rl = derive_sequence(base, "rl")
    comparisons = 0
    for suffix in ("", "l", "r", "ll", "lr", "rl", "rr"):
        for stem in ("rl", "lrl"):
            other = derive_sequence(base, stem + suffix)
            verdict = compare(rl, other, DEFAULT_FRAGMENT)
            comparisons += 1
            if verdict.relation != "equal":
                problems.append(
                    f"rl vs {stem + suffix}: {verdict.relation}, expected equal"
                )
    if comparisons != 14:
        problems.append(f"ran {comparisons} collapse comparisons, expected 14")
    for sequence in ("l", "r", "lr", "rl"):
        if find_antitheorem(derive_sequence(base, sequence)) is not None:
            problems.append(f"tower {sequence} unexpectedly has an explosive set")

    elapsed = time.monotonic() - started
    if elapsed >= 300.0:
        problems.append(f"criterion took {elapsed:.1f}s, budget is 300s")
    _report(
        4,
        problems,
        f"one-step towers incomparable, two-step tower equals their meet, "
        f"14 collapse comparisons all equal, no explosive sets anywhere "
        f"({elapsed:.1f}s, budget 300s)",
    )


# --- criterion 5: partition terms, decomposition, and regular identities ----

REGULAR_IDENTITIES = [
    ("and(x, y)", "and(y, x)"),
    ("or(x, y)", "or(y, x)"),
    ("and(and(x, y), z)", "and(x, and(y, z))"),
    ("or(or(x, y), z)", "or(x, or(y, z))"),
    ("and(x, x)", "x"),
    ("or(x, x)", "x"),
    ("not(not(x))", "x"),
    ("not(and(x, y))", "or(not(x), not(y))"),
    ("not(or(x, y))", "and(not(x), not(y))"),
    ("and(x, or(y, z))", "or(and(x, y), and(x, z))"),
    ("or(x, and(y, z))", "and(or(x, y), or(x, z))"),
    ("and(x, and(y, z))", "and(y, and(x, z))"),
    ("or(x, or(y, z))", "or(y, or(x, z))"),
    ("and(x, or(x, y))", "and(x, or(y, x))"),
    ("or(x, and(x, y))", "or(x, and(y, x))"),
    ("not(not(not(x)))", "not(x)"),
    ("and(or(x, y), or(y, x))", "or(x, y)"),
    ("or(and(x, y), and(y, x))", "and(x, y)"),
    ("and(x, not(not(y)))", "and(x, y)"),
    ("or(x, not(not(y)))", "or(x, y)"),
    ("not(and(x, x))", "not(x)"),
    ("or(not(x), not(x))", "not(x)"),
]


def test_criterion_5_partition_terms_and_decomposition():
    started = time.monotonic()
    problems: list[str] = []
    term = pi_term()

    algebras = [("classical", b2_matrix().algebra), ("contagious", wk_algebra())]
    algebras += [
        (f"chain-{s or 'base'}", canonical_chain_matrix(b2_matrix(), s).algebra)
        for s in ("", "l", "r", "lr", "rl", "rlr", "lrl")
    ]
    for label, algebra in algebras:
        if not check_partition_function(algebra, term).passed:
            problems.append(f"partition term fails on {label}")

    system = decompose(wk_algebra(), term)
    if system.semilattice.indices != ("0", "1"):
        problems.append(f"decomposition indices {system.semilattice.indices}")
    elif (
        set(system.components["0"].algebra.elements) != {"0", "1"}
        or set(system.components["1"].algebra.elements) != {"n"}
        or system.hom("0", "1") != {"0": "n", "1": "n"}
    ):
        problems.append("decomposition components or connecting map deviate")

    for label, algebra in algebras:
        parts = decompose(algebra, term)
        total = plonka_sum(parts)
        total_algebra = total.algebra if isinstance(total, FiniteMatrix) else total
        renaming = decomposition_renaming(parts)
        for name, table in algebra.tables.items():
            for args, value in table.items():
                mapped = tuple(renaming[a] for a in args)
                if total_algebra.tables[name][mapped] != renaming[value]:
                    problems.append(f"sum after decomposition deviates on {label}")
                    break

    components = [m.algebra for m in system.components.values()]
    checked = 0
    for left_text, right_text in REGULAR_IDENTITIES:
        left, right = P(left_text), P(right_text)
        for algebra in components:
            outcome = check_regular_identity(left, right, algebra)
            if not (outcome.regular and outcome.holds):
                problems.append(
                    f"{left_text} = {right_text} not regular-and-valid in a component"
                )
        outcome = check_regular_identity(left, right, wk_algebra())
        if not outcome.holds:
            problems.append(f"{left_text} = {right_text} fails in the sum")
        checked += 1
    if checked < 20:
        problems.append(f"only {checked} regular identities checked, need 20")

    left, right = P("and(x, or(y, not(y)))"), P("x")
    classical = check_regular_identity(left, right, b2_matrix().algebra)
    contagious = check_regular_identity(left, right, wk_algebra())
    if classical.regular or not classical.holds:
        problems.append("irregular collapse law misbehaves classically")
    if contagious.holds:
        problems.append("irregular collapse law unexpectedly holds contagiously")
    instance = {"x": "1", "y": "n"}
    from vilogic.matrices import evaluate

    if not (
        evaluate(wk_algebra(), left, instance) == "n"
        and evaluate(wk_algebra(), right, instance) == "1"
    ):
        problems.append("named counterexample x=1, y=n does not separate the sides")

    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        problems.append(f"criterion took {elapsed:.1f}s, budget is 60s")
    _report(
        5,
        problems,
        f"partition term passes on 9 algebras, decomposition has the stated "
        f"shape, sums invert decompositions, {checked} regular identities "
        f"transfer, and the irregular law separates ({elapsed:.1f}s, budget 60s)",
    )


# --- criterion 6: explosive-set detection matches the definition ------------


def test_criterion_6_antitheorem_criteria_agree():
    started = time.monotonic()
    problems: list[str] = []

    pool = enumerate_fragment(
        FULL_SIGNATURE, FragmentSpec(variables=("x",), max_depth=2, max_premises=0)
    )
    targets = pool + enumerate_fragment(
        FULL_SIGNATURE, FragmentSpec(variables=("y",), max_depth=2, max_premises=0)
    )
    small = enumerate_fragment(
        FULL_SIGNATURE, FragmentSpec(variables=("x",), max_depth=1, max_premises=0)
    )
    premise_sets = [frozenset()]
    premise_sets += [frozenset({f}) for f in small]
    premise_sets += [frozenset(c) for c in itertools.combinations(small, 2)]
    named = [
        frozenset({P("x"), P("not(x)")}),
        frozenset({P("and(x, not(x))")}),
    ]
    premise_sets += named

    oracles = {
        "classical": MatrixOracle((b2_matrix(),), label="CL"),
        "contagious": MatrixOracle((pwk_matrix(),), label="PWK"),
        "strict": MatrixOracle((b3_matrix(),), label="B3"),
    }
    for label, oracle in oracles.items():
        for premises in premise_sets:
            fresh = is_antitheorem(oracle, premises)
            bounded = definitional_antitheorem_check(oracle, premises, pool, targets)
            if fresh != bounded:
                listed = ", ".join(sorted(str(f) for f in premises)) or "(empty)"
                problems.append(f"{label}: criteria disagree on {{{listed}}}")

    for premises in named:
        if not is_antitheorem(oracles["classical"], premises):
            listed = ", ".join(sorted(str(f) for f in premises))
            problems.append(f"{{{listed}}} not recognized as explosive classically")

    base = MatrixOracle((b2_matrix(),), label="CL")
    left_sequences = [
        "".join(s)
        for n in (1, 2, 3)
        for s in itertools.product("lr", repeat=n)
        if "l" in s
    ]
    for sequence in left_sequences:
        if find_antitheorem(derive_sequence(base, sequence)) is not None:
            problems.append(f"tower {sequence} has an explosive set despite a left step")
    if len(left_sequences) != 11:
        problems.append(f"scanned {len(left_sequences)} towers, expected 11")

    elapsed = time.monotonic() - started
    if elapsed >= 120.0:
        problems.append(f"criterion took {elapsed:.1f}s, budget is 120s")
    _report(
        6,
        problems,
        f"fresh-variable criterion matches the bounded definitional check on "
        f"{len(premise_sets)} premise sets for 3 matrices; both named explosive "
        f"sets confirmed; 11 left-containing towers explosion-free "
        f"({elapsed:.1f}s, budget 120s)",
    )


# --- criterion 7: structural laws and verdict coherence ----------------------


def _structural_problems(label, oracle) -> list[str]:
    problems: list[str] = []
    spec = FragmentSpec(variables=("x", "y", "z"), max_depth=2, max_premises=3)
    pool = enumerate_fragment(oracle.signature, spec)
    stride = max(1, len(pool) // 9)
    probe = list(pool[::stride][:9])
    premise_sets = [
        frozenset({probe[0]}),
        frozenset({probe[4]}),
        frozenset({probe[8]}),
        frozenset({probe[0], probe[5]}),
        frozenset({probe[2], probe[7]}),
        frozenset({probe[1], probe[3], probe[6]}),
    ]
    if "not" in oracle.signature:
        premise_sets.append(frozenset({P("x"), P("not(x)")}))

    for premises in premise_sets:
        for member in premises:
            if not oracle.entails(premises, member):
                problems.append(f"{label}: reflexivity fails on {sorted(map(str, premises))}")

    extras = (probe[0], probe[-1])
    mapping = {"x": probe[1], "y": probe[2], "z": probe[0]}
    for premises in premise_sets:
        for conclusion in probe:
            if not oracle.entails(premises, conclusion):
                continue
            for extra in extras:
                if not oracle.entails(premises | {extra}, conclusion):
                    problems.append(
                        f"{label}: monotonicity fails adding {extra} to "
                        f"{sorted(map(str, premises))} |- {conclusion}"
                    )
            image = [substitute(p, mapping) for p in premises]
            if not oracle.entails(image, substitute(conclusion, mapping)):
                problems.append(
                    f"{label}: substitution breaks "
                    f"{sorted(map(str, premises))} |- {conclusion}"
                )
    return problems


def test_criterion_7_structural_laws_and_verdict_coherence():
    started = time.monotonic()
    problems: list[str] = []

    base = MatrixOracle((b2_matrix(),), label="CL")
    oracles = {
        "single-matrix": base,
        "matrix-class": MatrixOracle((b2_matrix(), pwk_matrix()), label="CL+PWK"),
        "restricted-signature": MatrixOracle(
            (b2_and_or_matrix(),), label="CL[and,or]"
        ),
        "contagious": MatrixOracle((pwk_matrix(),), label="PWK"),
        "strict": MatrixOracle((b3_matrix(),), label="B3"),
        "collapsed-chain": MatrixOracle(
            (canonical_chain_matrix(b2_matrix(), "rl"),), label="chain-rl"
        ),
        "meet-of-towers": intersect(
            derive_sequence(base, "l"), derive_sequence(base, "r")
        ),
        "deep-meet": intersect(
            derive_sequence(base, "lr"), derive_sequence(base, "rl")
        ),
    }
    for sequence in ("l", "r", "lr", "rl", "rlr", "lrl"):
        oracles[f"tower-{sequence}"] = derive_sequence(base, sequence)
    for label, oracle in oracles.items():
        problems.extend(_structural_problems(label, oracle))

    report = reproduce_figure(2)
    lattice = report.lattice
    built: dict[str, object] = {}
    for node in lattice.nodes:
        if node.kind == "tower":
            built[node.node_id] = (
                derive_sequence(base, node.sequence) if node.sequence else base
            )
        elif node.kind == "meet":
            built[node.node_id] = intersect(
                built[node.parts[0]], built[node.parts[1]]
            )
    computed = [node.node_id for node in lattice.nodes if node.computed]
    revalidated = 0
    for id_a, id_b in itertools.combinations(computed, 2):
        verdict = lattice.verdict(id_a, id_b)
        for witness in verdict.witnesses_ab:
            ok_a = built[id_a].entails(witness.premises, witness.conclusion)
            ok_b = built[id_b].entails(witness.premises, witness.conclusion)
            if not ok_a or ok_b:
                problems.append(f"witness {witness} fails re-validation for {id_a}")
            revalidated += 1
        for witness in verdict.witnesses_ba:
            ok_a = built[id_a].entails(witness.premises, witness.conclusion)
            ok_b = built[id_b].entails(witness.premises, witness.conclusion)
            if ok_a or not ok_b:
                problems.append(f"witness {witness} fails re-validation for {id_b}")
            revalidated += 1
    if revalidated == 0:
        problems.append("no witnesses available to re-validate")

    from vilogic.lattice import no_verdict_cycles

    if not no_verdict_cycles(lattice.verdicts):
        problems.append("verdicts contain a strict cycle")

    def leq(i: str, j: str) -> bool:
        return lattice.verdict(i, j).relation in ("equal", "strictly-below")

    triples = 0
    for i, j, k in itertools.permutations(computed, 3):
        if not (leq(i, j) and leq(j, k)):
            continue
        triples += 1
        if not leq(i, k):
            problems.append(f"transitivity fails on ({i}, {j}, {k})")
        strict = "strictly-below" in (
            lattice.verdict(i, j).relation,
            lattice.verdict(j, k).relation,
        )
        if strict and lattice.verdict(i, k).relation != "strictly-below":
            problems.append(f"strictness lost on ({i}, {j}, {k})")
    if triples == 0:
        problems.append("no comparable triples found to check")

    elapsed = time.monotonic() - started
    _report(
        7,
        problems,
        f"reflexivity, monotonicity, and substitution hold for "
        f"{len(oracles)} oracles; {revalidated} witnesses re-validate; "
        f"verdicts are acyclic and transitive over {triples} comparable "
        f"triples ({elapsed:.1f}s, no budget)",
    )
