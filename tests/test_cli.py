"""End-to-end checks of the command-line interface, run in process."""

from __future__ import annotations

import json

import pytest

from vilogic.cli import main
from vilogic.matrices import format_matrix, load_matrix_file
from vilogic.plonka import trivial_matrix
from vilogic.presets import (
    b2_and_or_matrix,
    b2_matrix,
    b3_matrix,
    data_dir,
    pwk_matrix,
)

B2 = str(data_dir() / "b2.mat")
B2_AND_OR = str(data_dir() / "b2_and_or.mat")
WK_PWK = str(data_dir() / "wk_pwk.mat")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entails_plain_matrix_yes(capsys):
    code, out, err = run(
        capsys,
        "entails", "--matrix", B2, "--premises", "x, not(x)", "--conclusion", "y",
    )
    assert code == 0
    assert out == "YES\n"
    assert err == ""


def test_entails_tower_no_without_countermodel(capsys):
    code, out, _ = run(
        capsys,
        "entails", "--base", B2, "--seq", "l",
        "--premises", "x, not(x)", "--conclusion", "y",
    )
    assert code == 1
    assert out == "NO\n"


def test_entails_tower_readmits_explosion_after_right_left(capsys):
    code, out, _ = run(
        capsys,
        "entails", "--base", B2, "--seq", "rl",
        "--premises", "x, not(x)", "--conclusion", "and(x, or(x, y))",
    )
    assert code == 0
    assert out == "YES\n"


def test_entails_matrix_no_prints_countermodel(capsys):
    code, out, _ = run(
        capsys,
        "entails", "--matrix", WK_PWK,
        "--premises", "x, not(x)", "--conclusion", "y",
    )
    assert code == 1
    assert out == "NO\ncountermodel in matrix 0: x=n, y=0\n"


def test_entails_intersects_repeated_matrices(capsys):
    code, out, _ = run(
        capsys,
        "entails", "--matrix", B2, "--matrix", WK_PWK,
        "--premises", "x", "--conclusion", "or(x, y)",
    )
    assert code == 0
    assert out == "YES\n"


def test_derive_info_reports_canonical_form(capsys):
    code, out, _ = run(capsys, "derive-info", "--base", B2, "--seq", "rlrl")
    assert code == 0
    assert out.splitlines() == [
        "sequence: rlrl",
        "canonical equivalent: lrl",
        "base antitheorems: witness",
        "tower antitheorems: none-proven",
    ]


def test_check_partition_passes_on_partition_term(capsys):
    code, out, _ = run(
        capsys,
        "check-partition", "--matrix", B2, "--pi", "and(x, or(x, y))",
    )
    assert code == 0
    assert "FAIL" not in out


def test_check_partition_failure_names_broken_axioms(capsys):
    code, out, _ = run(
        capsys, "check-partition", "--matrix", B2, "--pi", "or(x, y)"
    )
    assert code == 1
    failing = [line.strip() for line in out.splitlines() if "FAIL" in line]
    assert failing == [
        "FAIL P5 absorption over and  at ('and', ('0', '1'), '0')",
        "FAIL P4 distribution over not  at ('not', ('0',), '1')",
        "FAIL P5 absorption over not  at ('not', ('0',), '0')",
    ]


def test_decompose_validate_sum_round_trip(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "decompose", "--matrix", WK_PWK, "--pi", "and(x, or(x, y))",
        "--out-dir", str(tmp_path), "--name", "wk",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "components: 2"
    assert lines[1] == "  0: {0, 1}"
    assert lines[2] == "  1: {n}"
    assert lines[-1] == "re-loaded system re-sums identically: ok"
    system_path = tmp_path / "wk.dsys"
    assert system_path.exists()

    code, out, _ = run(capsys, "validate-system", "--system", str(system_path))
    assert code == 0
    assert out == "system valid\n"

    out_matrix = tmp_path / "total.mat"
    code, out, _ = run(
        capsys, "sum", "--system", str(system_path), "--out", str(out_matrix)
    )
    assert code == 0
    total = load_matrix_file(out_matrix)
    assert set(total.algebra.elements) == {"0.0", "0.1", "1.n"}
    assert total.designated == frozenset()


def test_sum_to_stdout_mentions_algebraic_designation(capsys, tmp_path):
    run(
        capsys,
        "decompose", "--matrix", WK_PWK, "--pi", "and(x, or(x, y))",
        "--out-dir", str(tmp_path), "--name", "wk",
    )
    code, out, _ = run(capsys, "sum", "--system", str(tmp_path / "wk.dsys"))
    assert code == 0
    assert out.startswith("algebraic system; output matrix has an empty designated set")
    assert "elements: 0.0, 0.1, 1.n" in out


def test_compare_json_output(capsys):
    code, out, _ = run(
        capsys,
        "compare", "--base", B2, "--seq-a", "l", "--seq-b", "r",
        "--fragment", "vars=x,y;depth=1;premises=2", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == "b2^l"
    assert payload["b"] == "b2^r"
    assert payload["relation"] == "incomparable"
    assert payload["witnesses_only_in_a"][0] == "x |- or(x, y)"
    assert payload["witnesses_only_in_b"][0] == "and(x, y) |- x"
    assert payload["disagreements"] == [2, 18]


def test_compare_with_a_huge_premise_bound_counts_every_subset(capsys):
    # vars=x at depth 1 has 4 formulas: premises=4 already holds every
    # subset, so a bound past the formula count must change nothing else.
    outputs = []
    for premises in ("99999999999999999999", "4"):
        code, out, _ = run(
            capsys,
            "compare", "--base", B2, "--seq-a", "lr", "--seq-b", "rl",
            "--fragment", f"vars=x;depth=1;premises={premises}", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload.pop("fragment") == f"vars=x;depth=1;premises={premises}"
        outputs.append(payload)
    assert outputs[0] == outputs[1]
    assert outputs[0]["relation"] == "equal"
    code, out, _ = run(
        capsys,
        "compare", "--base", B2, "--seq-a", "lr", "--seq-b", "rl",
        "--fragment", "vars=x;depth=1;premises=99999999999999999999",
    )
    assert code == 0
    assert "grid: 16 premise sets x 4 conclusions" in out


def test_compare_meet_side_and_witness_injection(capsys):
    witness = (
        "y, and(not(x), or(not(x), z)), and(x, or(x, z)) |- and(y, or(y, z))"
    )
    code, out, _ = run(
        capsys,
        "compare", "--base", B2, "--seq-a", "l&r", "--seq-b", "rl",
        "--fragment", "vars=x,y;depth=1;premises=2", "--witness", witness,
    )
    assert code == 0
    assert "compare (b2^l)&(b2^r) vs b2^rl" in out
    assert "relation: strictly-above (fragment-relative)" in out
    assert witness in out


def test_meet_with_explicit_base_operand_reads_the_base(capsys):
    code, out, _ = run(
        capsys,
        "compare", "--base", B2, "--seq-a", "l & base", "--seq-b", "l",
        "--fragment", "vars=x,y;depth=1;premises=2",
    )
    assert code == 0
    assert "compare (b2^l)&(b2) vs b2^l" in out
    assert "relation: equal on fragment" in out


def test_compare_plain_matrix_sides(capsys):
    code, out, _ = run(
        capsys,
        "compare", "--matrix-a", B2, "--matrix-b", WK_PWK,
        "--fragment", "vars=x,y;depth=1;premises=2",
    )
    assert code == 0
    assert "relation:" in out


def test_reproduce_figure_one_confirms(capsys):
    code, out, _ = run(capsys, "reproduce", "--figure", "1")
    assert code == 0
    assert out.splitlines()[-1] == "overall: CONFIRMED"


def test_reproduce_figure_two_fails_as_json(capsys):
    code, out, _ = run(capsys, "reproduce", "--figure", "2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["figure"] == 2
    assert payload["ok"] is False
    failing = [c for c in payload["claims"] if not c["passed"]]
    assert len(failing) == 1


def test_missing_file_exits_two(capsys):
    code, out, err = run(
        capsys, "entails", "--matrix", "no/such/file.mat", "--conclusion", "x"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_bad_formula_exits_two(capsys):
    code, _, err = run(
        capsys,
        "entails", "--matrix", B2, "--premises", "x((", "--conclusion", "x",
    )
    assert code == 2
    assert "unbalanced" in err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("derive-info", "--base", B2, "--seq", "lx"), "'lx'"),
        (("entails", "--base", B2, "--seq", "q", "--conclusion", "x"), "'q'"),
        (
            ("compare", "--base", B2, "--seq-a", "l", "--seq-b", "r",
             "--fragment", "depth=abc"),
            "'depth'",
        ),
        (
            ("compare", "--base", B2, "--seq-a", "l", "--seq-b", "r",
             "--fragment", "vars=x,y;depth=1;premises=2;premises=3"),
            "'premises' given more than once",
        ),
        (
            ("reproduce", "--figure", "1",
             "--fragment", "vars=x,y;depth=1;vars=x"),
            "'vars' given more than once",
        ),
        (
            ("compare", "--base", B2, "--seq-a", "l&", "--seq-b", "r"),
            "operand 2 of meet 'l&' is empty",
        ),
        (
            ("compare", "--base", B2, "--seq-a", "l", "--seq-b", "&r"),
            "operand 1 of meet '&r' is empty",
        ),
        (
            ("entails", "--base", B2, "--seq", "l&&r", "--conclusion", "x"),
            "operand 2 of meet 'l&&r' is empty",
        ),
        (
            ("entails", "--matrix", B2, "--conclusion", "not(" * 500 + "x" + ")" * 500),
            "formula nested deeper than 100 connectives",
        ),
        (
            ("compare", "--base", B2, "--seq-a", "lr" * 600, "--seq-b", "l"),
            "transform sequence has 1200 steps, more than 100",
        ),
        (
            ("compare", "--base", B2, "--seq-a", "&".join(["l"] * 600), "--seq-b", "l"),
            "tower nests 600 steps and meets, more than 100",
        ),
    ],
    ids=[
        "derive-info-bad-seq",
        "entails-bad-seq",
        "compare-bad-depth",
        "compare-repeated-key",
        "reproduce-repeated-key",
        "compare-empty-meet-operand-right",
        "compare-empty-meet-operand-left",
        "entails-empty-meet-operand-middle",
        "entails-formula-nested-500-deep",
        "compare-sequence-of-1200-steps",
        "compare-600-meets",
    ],
)
def test_bad_input_exits_two_with_one_error_line(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize(
    "name, preset",
    [
        ("b2", b2_matrix),
        ("b2_and_or", b2_and_or_matrix),
        ("wk_pwk", pwk_matrix),
        ("wk_b3", b3_matrix),
    ],
)
def test_bundled_matrix_files_match_the_presets(name, preset):
    text = (data_dir() / f"{name}.mat").read_text(encoding="utf-8")
    assert text == format_matrix(preset())


@pytest.mark.parametrize("command", ["entails", "sum"])
def test_matrix_file_that_is_not_utf8_exits_two(capsys, tmp_path, command):
    # Read directly, and as a component of a direct system file.
    latin1 = tmp_path / "latin1.mat"
    latin1.write_bytes(b"# caf\xe9\n" + format_matrix(b2_matrix()).encode("ascii"))
    argv = ("entails", "--matrix", str(latin1), "--conclusion", "x")
    if command == "sum":
        top = trivial_matrix(b2_matrix().signature, "n", True)
        (tmp_path / "top.mat").write_text(format_matrix(top), encoding="utf-8")
        system = tmp_path / "latin1.dsys"
        system.write_text(
            "kind: l\n"
            "semilattice: 0,0->0  0,1->1  1,0->1  1,1->1\n"
            "component 0: latin1.mat\n"
            "component 1: top.mat\n"
            "hom 0 1: 0->n, 1->n\n",
            encoding="utf-8",
        )
        argv = ("sum", "--system", str(system))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {latin1}: byte 5 is not UTF-8 text\n"


def test_compare_has_no_engine_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "compare", "--base", B2, "--seq-a", "l", "--seq-b", "r",
            "--engine", "vector",
        ])
    assert excinfo.value.code == 2
    assert "--engine" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def _partial_hom_system(tmp_path, kind):
    """b2.mat below a designated one-element top.mat, with a hom 0 -> 1 that
    leaves element 1 unmapped."""
    (tmp_path / "b2.mat").write_text(format_matrix(load_matrix_file(B2)), encoding="utf-8")
    top = trivial_matrix(load_matrix_file(B2).signature, "n", True)
    (tmp_path / "top.mat").write_text(format_matrix(top), encoding="utf-8")
    path = tmp_path / f"partial_{kind}.dsys"
    path.write_text(
        f"kind: {kind}\n"
        "semilattice: 0,0->0  0,1->1  1,0->1  1,1->1\n"
        "component 0: b2.mat\n"
        "component 1: top.mat\n"
        "hom 0 1: 0->n\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("kind", ["l", "r"])
def test_validate_system_reports_partial_hom(capsys, tmp_path, kind):
    code, out, err = run(capsys, "validate-system", "--system", _partial_hom_system(tmp_path, kind))
    assert code == 1
    assert out == "[hom-domain] hom 0->1 is not total on component 0\n"
    assert err == ""


@pytest.mark.parametrize("kind", ["l", "r"])
def test_sum_refuses_partial_hom_with_one_error(capsys, tmp_path, kind):
    code, out, err = run(capsys, "sum", "--system", _partial_hom_system(tmp_path, kind))
    assert code == 2
    assert out == ""
    assert err == (
        "error: invalid direct system:\n"
        "[hom-domain] hom 0->1 is not total on component 0\n"
    )
