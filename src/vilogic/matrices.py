"""Finite algebras, logical matrices, and entailment by designation masks.

A :class:`FiniteAlgebra` interprets every connective of a signature by a
total operation table over a finite element list.  A :class:`FiniteMatrix`
pairs an algebra with a designated subset.  Entailment from a class of
matrices quantifies over every valuation of the variables that actually
occur in the inference: the premises all land in the designated set only if
the conclusion does.

Formulas are evaluated on element positions, not one valuation at a time.
:attr:`FiniteAlgebra.index_tables` holds each connective as an
``(n,) * arity`` numpy array of positions, and :func:`_evaluate_indices`
reads a formula's value off those tables for whole arrays of argument
positions at once; the Płonka checks and the lattice's designation tables
use the same two.  Over the sorted variables of an inference, ``k`` of
them, a matrix of ``n`` elements has ``n ** k`` valuations, numbered in the
order of ``itertools.product(elements, repeat=k)``; bit ``i`` of a
formula's designation mask is set when the formula is designated under
valuation ``i``.  A premise set then holds exactly on the AND of its masks
(the full mask when it is empty), and the inference fails on whatever of
that lies outside the conclusion's mask; the lowest such bit is the first
countermodel in valuation order.

Matrices with an empty designated set designate nothing, so nothing is
entailed by the empty premise set there; matrices designating every element
impose no constraints at all.  Both degenerate shapes are legal inputs.

The module also defines :class:`LogicOracle`, the interface shared by
matrix-backed logics and the transform combinators layered on top of them,
plus the line-oriented matrix file format used by the command line tools.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .formulas import FragmentSpec, Formula, Signature, enumerate_fragment, var

__all__ = [
    "AntitheoremInfo",
    "FiniteAlgebra",
    "FiniteMatrix",
    "LogicOracle",
    "MatrixError",
    "MatrixFormatError",
    "MatrixOracle",
    "UnboundVariableError",
    "all_valuations",
    "entails",
    "evaluate",
    "find_countermodel",
    "format_matrix",
    "has_theorem_in_fragment",
    "is_theorem",
    "load_matrix_file",
    "parse_matrix_text",
]

Valuation = Mapping[str, str]
MatrixClass = tuple["FiniteMatrix", ...]


class MatrixError(ValueError):
    """Base class for algebra and matrix construction problems."""


class UnboundVariableError(MatrixError):
    """A formula variable has no value under the supplied valuation."""


class MatrixFormatError(MatrixError):
    """A matrix description file is malformed; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class FiniteAlgebra:
    """Total operation tables for a signature over a finite universe."""

    signature: Signature
    elements: tuple[str, ...]
    tables: Mapping[str, Mapping[tuple[str, ...], str]]

    def __post_init__(self):
        if not self.elements:
            raise MatrixError("algebra needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise MatrixError("duplicate elements")
        universe = set(self.elements)
        if set(self.tables) != set(self.signature.names):
            raise MatrixError(
                f"tables {sorted(self.tables)} do not match signature {sorted(self.signature.names)}"
            )
        for name, arity in self.signature.connectives:
            table = self.tables[name]
            expected = len(self.elements) ** arity
            if len(table) != expected:
                raise MatrixError(
                    f"table for {name!r} has {len(table)} entries, needs {expected}"
                )
            # One bulk check; only a table that fails it is walked entry by
            # entry, to name its first bad entry.
            if (
                set(map(len, table)) == {arity}
                and universe.issuperset(itertools.chain.from_iterable(table))
                and universe.issuperset(table.values())
            ):
                continue
            for args, out in table.items():
                if len(args) != arity:
                    raise MatrixError(f"table for {name!r} has an entry of wrong arity: {args}")
                if not universe.issuperset(args) or out not in universe:
                    raise MatrixError(f"table for {name!r} mentions unknown elements: {args} -> {out}")

    @cached_property
    def index_tables(self) -> dict[str, np.ndarray]:
        """Each connective's table as an ``(n,) * arity`` array of element positions."""
        elements = self.elements
        position = {e: p for p, e in enumerate(elements)}
        return {
            name: np.array(
                [position[self.tables[name][args]] for args in itertools.product(elements, repeat=arity)],
                dtype=np.intp,
            ).reshape((len(elements),) * arity)
            for name, arity in self.signature.connectives
        }


@dataclass(frozen=True)
class FiniteMatrix:
    """An algebra together with its designated elements."""

    algebra: FiniteAlgebra
    designated: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "designated", frozenset(self.designated))
        unknown = self.designated - set(self.algebra.elements)
        if unknown:
            raise MatrixError(f"designated elements not in the algebra: {sorted(unknown)}")

    @property
    def signature(self) -> Signature:
        return self.algebra.signature

    @property
    def constrains(self) -> bool:
        """False when every element is designated (the matrix rules nothing out)."""
        return self.designated != frozenset(self.algebra.elements)

    @cached_property
    def designated_bools(self) -> np.ndarray:
        """Per element position, whether that element is designated."""
        return np.array([e in self.designated for e in self.algebra.elements], dtype=bool)


def evaluate(algebra: FiniteAlgebra, formula: Formula, valuation: Valuation) -> str:
    """Value of ``formula`` in ``algebra`` under ``valuation``."""
    if formula.is_variable:
        try:
            return valuation[formula.head]
        except KeyError:
            raise UnboundVariableError(f"no value for variable {formula.head!r}") from None
    arity = algebra.signature.arity(formula.head)
    if arity is None or arity != len(formula.args):
        raise MatrixError(f"formula head {formula.head!r} does not fit the algebra signature")
    args = tuple(evaluate(algebra, a, valuation) for a in formula.args)
    return algebra.tables[formula.head][args]


def all_valuations(algebra: FiniteAlgebra, variables: Sequence[str]) -> Iterator[dict[str, str]]:
    """Every assignment of algebra elements to ``variables`` (one empty dict if none)."""
    names = tuple(variables)
    for values in itertools.product(algebra.elements, repeat=len(names)):
        yield dict(zip(names, values))


def _check_class(matrices: Sequence[FiniteMatrix]) -> tuple[FiniteMatrix, ...]:
    mats = tuple(matrices)
    if not mats:
        raise MatrixError("a matrix class needs at least one matrix")
    sig = mats[0].signature
    for m in mats[1:]:
        if m.signature != sig:
            raise MatrixError("matrices in one class must share a signature")
    return mats


def _evaluate_indices(
    tables: Mapping[str, np.ndarray], formula: Formula, valuation: Mapping[str, np.ndarray]
) -> np.ndarray:
    """:func:`evaluate` on arrays of element positions, broadcast together.

    ``tables`` are :attr:`FiniteAlgebra.index_tables`.  Heads are checked in
    the same pre-order as :func:`evaluate`, so a formula outside the
    signature raises the same error.  A formula of constants only comes out
    0-d.
    """
    if formula.args is None:
        return valuation[formula.head]
    table = tables.get(formula.head)
    if table is None or table.ndim != len(formula.args):
        raise MatrixError(f"formula head {formula.head!r} does not fit the algebra signature")
    return table[tuple(_evaluate_indices(tables, a, valuation) for a in formula.args)]


# Bytes one valuation grid may take.  The grid is the first array a wide
# query allocates, and each value array evaluated over it is the size of one
# of its k rows, so the grid bounds the query's memory to a small multiple.
# 1 GiB admits 22 variables over two elements (0.74 GB of grid) and refuses
# 23 (1.5 GB); 20 variables take 0.17 GB.
_GRID_BYTES = 1 << 30


# Bytes up to which a valuation grid is cached: the few-variable grids that
# group enumeration and the oracles ask for again and again (three
# variables over five elements take 3 KB; 13 over two, 0.85 MB).  A wider
# grid is built for its query and freed with it, not kept for the life of
# the process: cached, the grids of 19, 20 and 21 variables over two
# elements held 107, 267 and 603 MB of RSS.
_CACHED_GRID_BYTES = 1 << 20


def _valuation_grid(n: int, k: int) -> np.ndarray:
    """Row ``j`` is variable ``j``'s element position under each valuation of
    ``itertools.product(range(n), repeat=k)``.  Read-only: a grid of at most
    ``_CACHED_GRID_BYTES`` is shared by every caller.

    Raises :class:`MatrixError`, before allocating, when the grid's int64
    entries would pass ``_GRID_BYTES``."""
    size = n**k * k * 8
    if size > _GRID_BYTES:
        raise MatrixError(
            f"{k} variables over {n} elements give {n}^{k} valuations, more "
            f"than a {_GRID_BYTES >> 20} MiB valuation grid holds"
        )
    if size <= _CACHED_GRID_BYTES:
        return _cached_grid(n, k)
    return _grid(n, k)


def _grid(n: int, k: int) -> np.ndarray:
    grid = np.indices((n,) * k).reshape(k, n**k)
    grid.flags.writeable = False
    return grid


_cached_grid = lru_cache(maxsize=64)(_grid)


def _designation_masks(
    matrices: Sequence[FiniteMatrix], formula: Formula, variables: tuple[str, ...]
) -> tuple[int, ...]:
    """Per matrix, the valuations of ``variables`` that designate ``formula``.

    Bit ``i`` stands for the ``i``-th valuation of :func:`all_valuations`.
    """
    k = len(variables)
    out = []
    for matrix in matrices:
        n = len(matrix.algebra.elements)
        valuation = dict(zip(variables, _valuation_grid(n, k)))
        values = _evaluate_indices(matrix.algebra.index_tables, formula, valuation)
        bits = matrix.designated_bools[values]
        if bits.ndim == 0:  # a formula of constants only
            bits = np.full(n**k, bits)
        out.append(int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))
    return tuple(out)


def _query_variables(premises: Iterable[Formula], conclusion: Formula) -> tuple[str, ...]:
    """The sorted variables of an inference: the valuation space it is checked over."""
    return tuple(sorted(conclusion.variables.union(*(p.variables for p in premises))))


def _first_failure(
    matrices: Sequence[FiniteMatrix],
    premises: Sequence[tuple[int, ...]],
    conclusion: tuple[int, ...],
    k: int,
) -> tuple[int, int] | None:
    """First matrix with valuations designating every premise but not the conclusion.

    ``premises`` and ``conclusion`` hold designation masks per matrix over
    ``k`` variables.  Returns the matrix index and the mask of every such
    valuation, or None when the inference holds in every matrix.
    """
    for index, matrix in enumerate(matrices):
        held = (1 << len(matrix.algebra.elements) ** k) - 1
        for masks in premises:
            held &= masks[index]
        failing = held & ~conclusion[index]
        if failing:
            return index, failing
    return None


def _valuation_at(algebra: FiniteAlgebra, variables: Sequence[str], index: int) -> dict[str, str]:
    """The ``index``-th valuation of :func:`all_valuations`; the last variable varies fastest."""
    n = len(algebra.elements)
    values = []
    for _ in variables:
        index, digit = divmod(index, n)
        values.append(algebra.elements[digit])
    return dict(zip(variables, reversed(values)))


def entails(
    matrices: Sequence[FiniteMatrix],
    premises: Iterable[Formula],
    conclusion: Formula,
) -> bool:
    """Designation-preserving consequence over every matrix in the class."""
    return find_countermodel(matrices, premises, conclusion) is None


def find_countermodel(
    matrices: Sequence[FiniteMatrix],
    premises: Iterable[Formula],
    conclusion: Formula,
) -> tuple[int, dict[str, str]] | None:
    """First (matrix index, valuation) designating the premises but not the conclusion.

    Matrices are tried in order and valuations in :func:`all_valuations`
    order, over the sorted variables of the inference.
    """
    mats = _check_class(matrices)
    prems = tuple(premises)
    variables = _query_variables(prems, conclusion)
    failure = _first_failure(
        mats,
        [_designation_masks(mats, p, variables) for p in prems],
        _designation_masks(mats, conclusion, variables),
        len(variables),
    )
    if failure is None:
        return None
    index, failing = failure
    first = (failing & -failing).bit_length() - 1
    return index, _valuation_at(mats[index].algebra, variables, first)


NONE_PROVEN = "none-proven"
WITNESS = "witness"


@dataclass(frozen=True)
class AntitheoremInfo:
    """Whether an oracle has an antitheorem, decided exactly: by generated
    subalgebras at the matrix leaves (:attr:`MatrixOracle.antitheorem_info`).
    ``none-proven`` means no finite set entails a variable foreign to it;
    ``witness`` carries such a set, in the one variable ``x``."""

    status: str
    witness: frozenset[Formula] | None = None

    def __post_init__(self):
        if self.status not in (NONE_PROVEN, WITNESS):
            raise ValueError(f"bad antitheorem status {self.status!r}")
        if (self.status == WITNESS) != (self.witness is not None):
            raise ValueError("witness set must accompany exactly the witness status")


class LogicOracle:
    """A consequence relation answering finite entailment queries.

    Oracles are immutable after construction.  :meth:`entails` is the one
    public entry point: it freezes the premises and hands the query to
    :meth:`_entails`, which subclasses implement.  It keeps no answers
    itself; only :class:`MatrixOracle`, the leaf every tower ends in,
    remembers what it was asked, so a sub-query that a tower repeats is
    answered once per leaf.
    """

    label: str
    signature: Signature

    def __init__(self, label: str, signature: Signature):
        self.label = label
        self.signature = signature

    def entails(self, premises: Iterable[Formula], conclusion: Formula) -> bool:
        if not isinstance(premises, frozenset):
            premises = frozenset(premises)
        return self._entails(premises, conclusion)

    def _entails(self, premises: frozenset[Formula], conclusion: Formula) -> bool:
        raise NotImplementedError

    @property
    def antitheorem_info(self) -> AntitheoremInfo:
        raise NotImplementedError

    @property
    def closed_antitheorem(self) -> frozenset[Formula] | None:
        """A variable-free antitheorem (empty when all holds), or None."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class MatrixOracle(LogicOracle):
    """The consequence relation induced by a finite class of matrices.

    A query over the sorted variables ``v_1 .. v_k`` of its formulas is
    answered with designation masks: in a matrix of ``n`` elements, each
    formula is evaluated once on the grid of all ``n ** k`` valuations (in
    ``itertools.product(elements, repeat=k)`` order, ``v_k`` varying
    fastest) with :func:`_evaluate_indices`, and bit ``i`` of its mask is
    set when the value under the ``i``-th valuation is designated.  The
    inference holds when, in every matrix, the AND of the premise masks,
    started from the full mask of ``n ** k`` bits, has no bit outside the
    conclusion's mask.  The oracle caches two things: one mask per matrix
    for each (formula, variable tuple) it has seen, so a formula is
    evaluated once per valuation space however many queries it appears in,
    and the answer to each (premises, conclusion) it was asked.  The
    answers are the only query cache of a tower: the left filter, the right
    step's fresh-variable query and a meet's two sides all end in queries
    to their leaves, and those are what repeat.  Neither cache is bounded.
    """

    def __init__(self, matrices: Sequence[FiniteMatrix], label: str = "base"):
        mats = _check_class(matrices)
        super().__init__(label, mats[0].signature)
        self.matrices = mats
        # True when some matrix designates less than everything.
        self.has_nontrivial_model = any(m.constrains for m in mats)
        self._masks: dict[tuple[Formula, tuple[str, ...]], tuple[int, ...]] = {}
        self._answers: dict[tuple[frozenset[Formula], Formula], bool] = {}

    def _entails(self, premises: frozenset[Formula], conclusion: Formula) -> bool:
        key = (premises, conclusion)
        answer = self._answers.get(key)
        if answer is None:
            variables = _query_variables(premises, conclusion)
            masks = [self._formula_masks(p, variables) for p in premises]
            conclusion_masks = self._formula_masks(conclusion, variables)
            answer = self._answers[key] = (
                _first_failure(self.matrices, masks, conclusion_masks, len(variables)) is None
            )
        return answer

    def _formula_masks(self, formula: Formula, variables: tuple[str, ...]) -> tuple[int, ...]:
        key = (formula, variables)
        masks = self._masks.get(key)
        if masks is None:
            masks = self._masks[key] = _designation_masks(self.matrices, formula, variables)
        return masks

    @cached_property
    def antitheorem_info(self) -> AntitheoremInfo:
        """Exact: any antitheorem yields one in x by substitution, and a set
        in x is one exactly when no valuation into a constraining matrix
        designates all of it.  At x = e its members take values in the
        subalgebra that e generates, each taken by some formula in x, so one
        exists exactly when every element of every constraining matrix
        generates a subalgebra that leaves D."""
        found = _undesignated_terms(self.matrices, var("x"))
        return AntitheoremInfo(NONE_PROVEN) if found is None else AntitheoremInfo(WITNESS, found)

    @cached_property
    def closed_antitheorem(self) -> frozenset[Formula] | None:
        # The variable-free formulas take the values that the constants generate.
        return _undesignated_terms(self.matrices, None)


def _undesignated_terms(matrices: MatrixClass, x: Formula | None) -> frozenset[Formula] | None:
    """``x`` and, per constraining matrix and element e, the first formula in
    x found outside D at x = e (with ``x`` None, the first variable-free one
    per matrix), or None when some subalgebra searched lies inside D.  A
    round applies each connective once to every tuple with a member from the
    round before (constants while none is older), keeping the first formula
    found for each element."""
    found = set() if x is None else {x}
    for matrix in (m for m in matrices if m.constrains):
        for seed in [[(e, x)] for e in matrix.algebra.elements] if x is not None else [[]]:
            terms, old, new = dict(seed), [], seed
            while all(e in matrix.designated for e, _ in new):
                reached = []
                for name, arity in matrix.signature.connectives:
                    shapes = [[old] * i + [new] + [old + new] * (arity - i - 1) for i in range(arity)]
                    for shape in shapes or ([] if old else [[]]):
                        for args in itertools.product(*shape):
                            value = matrix.algebra.tables[name][tuple(e for e, _ in args)]
                            if value not in terms:
                                terms[value] = Formula(name, tuple(t for _, t in args))
                                reached.append((value, terms[value]))
                if not reached:
                    return None
                old, new = old + new, reached
            found.add(next(t for e, t in new if e not in matrix.designated))
    return frozenset(found)


def is_theorem(oracle: LogicOracle, formula: Formula) -> bool:
    return oracle.entails((), formula)


def has_theorem_in_fragment(oracle: LogicOracle, spec: FragmentSpec) -> Formula | None:
    """First enumerated fragment formula provable from no premises, if any."""
    for formula in enumerate_fragment(oracle.signature, spec):
        if is_theorem(oracle, formula):
            return formula
    return None


# ---------------------------------------------------------------------------
# Matrix description files
#
#   # comment lines and blank lines are ignored
#   signature: and/2, or/2, not/1
#   elements: 0, n, 1
#   table and: 0,0->0  0,n->n  ... (one entry per argument tuple)
#   designated: 1, n
# ---------------------------------------------------------------------------


def _split_csv(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(",")]
    return [p for p in parts if p]


def parse_matrix_text(text: str, *, source: str = "<string>") -> FiniteMatrix:
    signature_pairs: list[tuple[str, int]] | None = None
    elements: tuple[str, ...] | None = None
    designated: frozenset[str] | None = None
    tables: dict[str, dict[tuple[str, ...], str]] = {}
    table_lines: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise MatrixFormatError(f"expected 'key: value', got {line!r}", lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "signature":
            if signature_pairs is not None:
                raise MatrixFormatError("duplicate signature line", lineno)
            signature_pairs = []
            for item in _split_csv(value):
                name, slash, arity = item.partition("/")
                if not slash or not arity.strip().isdigit():
                    raise MatrixFormatError(f"bad connective declaration {item!r}", lineno)
                signature_pairs.append((name.strip(), int(arity)))
            if not signature_pairs:
                raise MatrixFormatError("empty signature", lineno)
        elif key == "elements":
            if elements is not None:
                raise MatrixFormatError("duplicate elements line", lineno)
            elements = tuple(_split_csv(value))
            if not elements:
                raise MatrixFormatError("empty element list", lineno)
        elif key == "designated":
            if designated is not None:
                raise MatrixFormatError("duplicate designated line", lineno)
            designated = frozenset(_split_csv(value))
        elif key == "table" or key.startswith("table "):
            name = key[len("table"):].strip()
            if not name:
                raise MatrixFormatError("table line without a connective name", lineno)
            if name in tables:
                raise MatrixFormatError(f"duplicate table for {name!r}", lineno)
            entries: dict[tuple[str, ...], str] = {}
            for chunk in value.split():
                lhs, arrow, rhs = chunk.partition("->")
                if not arrow or not rhs:
                    raise MatrixFormatError(f"bad table entry {chunk!r}", lineno)
                args = tuple(_split_csv(lhs))
                if args in entries:
                    raise MatrixFormatError(f"duplicate table entry for {lhs!r}", lineno)
                entries[args] = rhs.strip()
            tables[name] = entries
            table_lines[name] = lineno
        else:
            raise MatrixFormatError(f"unknown section {key!r}", lineno)

    if signature_pairs is None:
        raise MatrixFormatError(f"{source}: missing signature line")
    if elements is None:
        raise MatrixFormatError(f"{source}: missing elements line")
    if designated is None:
        raise MatrixFormatError(f"{source}: missing designated line")
    signature = Signature(tuple(signature_pairs))
    declared = set(signature.names)
    for name in tables:
        if name not in declared:
            raise MatrixFormatError(f"table for undeclared connective {name!r}", table_lines[name])
    for name, arity in signature.connectives:
        if name not in tables:
            raise MatrixFormatError(f"{source}: missing table for {name!r}")
        expected = len(elements) ** arity
        if len(tables[name]) != expected:
            raise MatrixFormatError(
                f"table for {name!r} has {len(tables[name])} entries, needs {expected}",
                table_lines[name],
            )
    try:
        algebra = FiniteAlgebra(signature, elements, tables)
        return FiniteMatrix(algebra, designated or frozenset())
    except MatrixError as exc:
        raise MatrixFormatError(f"{source}: {exc}") from exc


def _read_text(path) -> str:
    """A description file's text; bytes that are not UTF-8 are a format error."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: byte {exc.start} is not UTF-8 text") from None


def load_matrix_file(path) -> FiniteMatrix:
    return parse_matrix_text(_read_text(path), source=str(path))


def format_matrix(matrix: FiniteMatrix) -> str:
    """Canonical text form; parse and format round-trip byte-identically.

    An element name that the parser would split or drop (empty, or holding
    whitespace, ``,``, ``#`` or ``->``) is refused.
    """
    algebra = matrix.algebra
    for e in algebra.elements:
        if not e or any(c.isspace() for c in e) or any(s in e for s in (",", "#", "->")):
            raise MatrixFormatError(f"element {e!r} cannot be written to a matrix file")
    lines = []
    lines.append("signature: " + ", ".join(f"{n}/{a}" for n, a in algebra.signature.connectives))
    lines.append("elements: " + ", ".join(algebra.elements))
    for name, arity in algebra.signature.connectives:
        entries = []
        for args in itertools.product(algebra.elements, repeat=arity):
            entries.append(f"{','.join(args)}->{algebra.tables[name][args]}")
        lines.append(f"table {name}: " + "  ".join(entries))
    marked = ", ".join(e for e in algebra.elements if e in matrix.designated)
    lines.append(f"designated: {marked}" if marked else "designated:")
    return "\n".join(lines) + "\n"
