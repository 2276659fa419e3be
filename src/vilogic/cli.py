"""Command-line front end.

Subcommands cover the whole workbench: querying entailment against matrix
collections or transform towers, inspecting derived sequences, building and
splitting direct-system sums, checking partition terms, comparing oracles
over a finite fragment, and running the bundled reproduction reports.

Exit codes: 0 on success (YES answers, passing checks, confirmed reports),
1 when a query answers NO or a check or report fails, 2 on input errors,
and 141 when the reader of stdout closed it.
Output is deterministic byte for byte for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .formulas import MAX_NESTING, FormulaError, FragmentSpec, parse_formula
from .lattice import (
    DEFAULT_FRAGMENT,
    Inference,
    compare,
    reproduce_figure,
)
from .matrices import (
    FiniteAlgebra,
    FiniteMatrix,
    LogicOracle,
    MatrixError,
    MatrixOracle,
    WITNESS,
    find_countermodel,
    format_matrix,
    load_matrix_file,
)
from .plonka import (
    check_partition_function,
    decompose,
    dump_system_files,
    load_system_file,
    plonka_sum,
    validate_system,
)
from .transforms import canonicalize_sequence, derive_sequence, intersect

__all__ = ["main"]


def _split_formulas(text: str) -> list[str]:
    """Split a comma-separated formula list, respecting parentheses."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FormulaError(f"unbalanced parentheses in {text!r}")
        current.append(ch)
    if depth:
        raise FormulaError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(current))
    return [p for p in (part.strip() for part in parts) if p]


def _fragment_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise FormulaError(
            f"fragment key {key!r} needs an integer, got {value!r}"
        ) from None


def _parse_fragment(text: str) -> FragmentSpec:
    variables = DEFAULT_FRAGMENT.variables
    depth = DEFAULT_FRAGMENT.max_depth
    premises = DEFAULT_FRAGMENT.max_premises
    seen: set[str] = set()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise MatrixError(f"fragment key {key!r} given more than once")
        seen.add(key)
        if key == "vars":
            variables = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key == "depth":
            depth = _fragment_int(key, value)
        elif key == "premises":
            premises = _fragment_int(key, value)
        else:
            raise MatrixError(f"unknown fragment key {key!r}")
    return FragmentSpec(variables=variables, max_depth=depth, max_premises=premises)


def _tower(base_path: str, sequence: str) -> LogicOracle:
    """Oracle for a step sequence over a base matrix file.

    The sequence uses steps ``l`` and ``r``; the empty string or ``base``
    names the base consequence itself, and ``A&B`` takes the meet of two
    towers over the same base; an operand of ``&`` must not be empty.
    Steps and meets together nest at most ``MAX_NESTING`` deep.
    """
    matrix = load_matrix_file(base_path)
    oracle = MatrixOracle((matrix,), label=Path(base_path).stem)
    parts = [p.strip() for p in sequence.split("&")]
    if len(parts) > 1 and "" in parts:
        raise MatrixError(
            f"operand {parts.index('') + 1} of meet {sequence.strip()!r} is empty"
            " (write 'base' for the base)"
        )
    steps = ["" if p == "base" else p for p in parts]
    towers = [derive_sequence(oracle, p) for p in steps]
    nesting = len(steps) - 1 + max(map(len, steps))
    if nesting > MAX_NESTING:
        raise MatrixError(f"tower nests {nesting} steps and meets, more than {MAX_NESTING}")
    out = towers[0]
    for nxt in towers[1:]:
        out = intersect(out, nxt)
    return out


def _entails_oracle(args) -> tuple[LogicOracle, tuple[FiniteMatrix, ...] | None]:
    """Oracle for the entails command plus its matrices when matrix-backed."""
    if args.matrix:
        matrices = tuple(load_matrix_file(p) for p in args.matrix)
        label = ",".join(Path(p).stem for p in args.matrix)
        return MatrixOracle(matrices, label=label), matrices
    if args.base is None:
        raise MatrixError("give either --matrix or --base")
    oracle = _tower(args.base, args.seq or "")
    backed = isinstance(oracle, MatrixOracle)
    return oracle, oracle.matrices if backed else None


def _cmd_entails(args) -> int:
    oracle, matrices = _entails_oracle(args)
    signature = oracle.signature
    premises = tuple(
        parse_formula(text, signature) for text in _split_formulas(args.premises or "")
    )
    conclusion = parse_formula(args.conclusion, signature)
    if oracle.entails(premises, conclusion):
        print("YES")
        return 0
    print("NO")
    if matrices is not None:
        counter = find_countermodel(matrices, premises, conclusion)
        if counter is not None:
            index, valuation = counter
            assignment = ", ".join(f"{v}={valuation[v]}" for v in sorted(valuation))
            print(f"countermodel in matrix {index}: {assignment}")
    return 1


def _cmd_derive_info(args) -> int:
    matrix = load_matrix_file(args.base)
    base = MatrixOracle((matrix,), label=Path(args.base).stem)
    sequence = "" if args.seq.strip() == "base" else args.seq.strip()
    oracle = derive_sequence(base, sequence)
    base_info = base.antitheorem_info
    canonical = canonicalize_sequence(sequence, base_info.status == WITNESS)
    print(f"sequence: {sequence or 'base'}")
    print(f"canonical equivalent: {canonical or 'base'}")
    print(f"base antitheorems: {base_info.status}")
    print(f"tower antitheorems: {oracle.antitheorem_info.status}")
    return 0


def _cmd_sum(args) -> int:
    system = load_system_file(args.system)
    result = plonka_sum(system)
    if isinstance(result, FiniteAlgebra):
        matrix = FiniteMatrix(result, frozenset())
        print("algebraic system; output matrix has an empty designated set")
    else:
        matrix = result
    text = format_matrix(matrix)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"sum written to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_decompose(args) -> int:
    matrix = load_matrix_file(args.matrix)
    term = parse_formula(args.pi, matrix.algebra.signature)
    system = decompose(matrix.algebra, term)
    name = args.name or Path(args.matrix).stem
    path = dump_system_files(system, Path(args.out_dir), name)
    reloaded = load_system_file(path)
    if plonka_sum(reloaded) != plonka_sum(system):
        raise MatrixError("re-loaded system does not re-sum identically")
    indices = system.semilattice.indices
    print(f"components: {len(indices)}")
    for index in indices:
        component = system.components[index]
        elements = ", ".join(component.algebra.elements)
        print(f"  {index}: {{{elements}}}")
    print(f"system written to {path}")
    print("re-loaded system re-sums identically: ok")
    return 0


def _cmd_check_partition(args) -> int:
    matrix = load_matrix_file(args.matrix)
    term = parse_formula(args.pi, matrix.algebra.signature)
    oracle = None
    if args.mode != "algebraic":
        oracle = MatrixOracle((matrix,), label=Path(args.matrix).stem)
    report = check_partition_function(
        matrix.algebra, term, oracle=oracle, mode=args.mode
    )
    print(report.render())
    return 0 if report.passed else 1


def _cmd_validate_system(args) -> int:
    system = load_system_file(args.system)
    report = validate_system(system)
    print(report.render())
    return 0 if report.ok else 1


def _compare_oracle(base, seq, matrix_path, side: str) -> LogicOracle:
    if matrix_path:
        m = load_matrix_file(matrix_path)
        return MatrixOracle((m,), label=Path(matrix_path).stem)
    if base is None or seq is None:
        raise MatrixError(
            f"side {side}: give --matrix-{side}, or --base with --seq-{side}"
        )
    return _tower(base, seq)


def _cmd_compare(args) -> int:
    a = _compare_oracle(args.base, args.seq_a, args.matrix_a, "a")
    b = _compare_oracle(args.base, args.seq_b, args.matrix_b, "b")
    fragment = _parse_fragment(args.fragment) if args.fragment else DEFAULT_FRAGMENT
    extras = []
    for text in args.witness or ():
        left, sep, right = text.partition("|-")
        if not sep:
            raise MatrixError(f"witness {text!r} needs the form 'premises |- conclusion'")
        premises = tuple(
            parse_formula(p, a.signature) for p in _split_formulas(left)
        )
        extras.append(Inference(premises, parse_formula(right.strip(), a.signature)))
    verdict = compare(a, b, fragment, extra_witnesses=extras)
    if args.json:
        print(json.dumps(verdict.to_json(), indent=2, sort_keys=True))
    else:
        print(verdict.render())
    return 0


def _cmd_reproduce(args) -> int:
    fragment = _parse_fragment(args.fragment) if args.fragment else DEFAULT_FRAGMENT
    report = reproduce_figure(args.figure, fragment)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vilogic",
        description=(
            "workbench for finite-matrix consequence relations, "
            "variable-inclusion transforms, and direct-system sums"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entails", help="query one inference")
    p.add_argument("--matrix", action="append", help="matrix file (repeatable)")
    p.add_argument("--base", help="base matrix file for a transform tower")
    p.add_argument("--seq", default="", help="step sequence over the base (l/r)")
    p.add_argument("--premises", default="", help="comma-separated premise formulas")
    p.add_argument("--conclusion", required=True, help="conclusion formula")
    p.set_defaults(func=_cmd_entails)

    p = sub.add_parser("derive-info", help="canonical form and explosive-set status")
    p.add_argument("--base", required=True, help="base matrix file")
    p.add_argument("--seq", required=True, help="step sequence over the base (l/r)")
    p.set_defaults(func=_cmd_derive_info)

    p = sub.add_parser("sum", help="sum a direct system file into one matrix")
    p.add_argument("--system", required=True, help="system description file")
    p.add_argument("--out", help="output matrix file (default: stdout)")
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("decompose", help="split a matrix along a partition term")
    p.add_argument("--matrix", required=True, help="matrix file")
    p.add_argument("--pi", required=True, help="two-variable partition term")
    p.add_argument("--out-dir", required=True, help="directory for the system files")
    p.add_argument("--name", help="basename for the system files")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("check-partition", help="test the partition axioms for a term")
    p.add_argument("--matrix", required=True, help="matrix file")
    p.add_argument("--pi", required=True, help="two-variable term")
    p.add_argument(
        "--mode",
        choices=("algebraic", "l", "r"),
        default="algebraic",
        help="which side conditions to include",
    )
    p.set_defaults(func=_cmd_check_partition)

    p = sub.add_parser("validate-system", help="check a direct system file")
    p.add_argument("--system", required=True, help="system description file")
    p.set_defaults(func=_cmd_validate_system)

    p = sub.add_parser("compare", help="compare two oracles over a fragment")
    p.add_argument("--base", help="shared base matrix file for tower sides")
    p.add_argument("--seq-a", help="side a: step sequence (use & for meets)")
    p.add_argument("--seq-b", help="side b: step sequence (use & for meets)")
    p.add_argument("--matrix-a", help="side a: plain matrix file")
    p.add_argument("--matrix-b", help="side b: plain matrix file")
    p.add_argument("--fragment", help="vars=x,y,z;depth=2;premises=3")
    p.add_argument(
        "--witness",
        action="append",
        help="extra inference 'premises |- conclusion' (repeatable)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("reproduce", help="run a bundled reproduction report")
    p.add_argument("--figure", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--fragment", help="vars=x,y,z;depth=2;premises=3")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flushed here, so that a closed stdout is caught below and not at
        # interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (as ``| head`` does): not an input error.
        # Python's documented recipe: point stdout at devnull, so that the
        # flush at exit writes nowhere and prints nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a command it killed
    except (FormulaError, MatrixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
