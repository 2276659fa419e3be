"""Finite algebras, logical matrices, and entailment by designation masks.

A :class:`FiniteAlgebra` interprets every connective of a signature by a
total operation table over a finite element list.  A :class:`FiniteMatrix`
pairs an algebra with a designated subset.  Entailment from a class of
matrices quantifies over every valuation of the variables that actually
occur in the inference: the premises all land in the designated set only if
the conclusion does.

Entailment is decided on integer bitmasks, not one valuation at a time.
Over the sorted variables of an inference, ``k`` of them, a matrix of ``n``
elements has ``n ** k`` valuations, numbered in the order of
``itertools.product(elements, repeat=k)``; bit ``i`` of a formula's
designation mask is set when the formula is designated under valuation
``i``.  The mask is built bottom-up from a bit-sliced value vector, one
integer per element, holding the valuations that give the formula that
element.  A premise set then holds exactly on the AND of its masks (the
full mask when it is empty), and the inference fails on whatever of that
lies outside the conclusion's mask; the lowest such bit is the first
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

from .formulas import FragmentSpec, Formula, Signature, enumerate_fragment

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
    "check_homomorphism",
    "entails",
    "evaluate",
    "find_countermodel",
    "format_matrix",
    "has_theorem_in_fragment",
    "homomorphism_counterexample",
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
            for args, out in table.items():
                if len(args) != arity:
                    raise MatrixError(f"table for {name!r} has an entry of wrong arity: {args}")
                if not universe.issuperset(args) or out not in universe:
                    raise MatrixError(f"table for {name!r} mentions unknown elements: {args} -> {out}")

    @cached_property
    def element_index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def operation(self, name: str, args: tuple[str, ...]) -> str:
        return self.tables[name][args]

    @cached_property
    def _flat_tables(self) -> dict[str, tuple[int, tuple[int, ...]]]:
        """Per connective, its arity and its outputs as element positions.

        The outputs run over argument tuples in ``itertools.product`` order,
        so the arguments at positions ``p_1 .. p_a`` select the entry
        ``sum(p_i * n ** (a - i))``.
        """
        return _build_flat_tables(self, self.element_index)


def _build_flat_tables(
    algebra: FiniteAlgebra, index: Mapping[str, int]
) -> dict[str, tuple[int, tuple[int, ...]]]:
    """:attr:`FiniteAlgebra._flat_tables` for the element positions ``index``,
    built without caching it on the algebra."""
    return {
        name: (
            arity,
            tuple(
                index[algebra.tables[name][args]]
                for args in itertools.product(algebra.elements, repeat=arity)
            ),
        )
        for name, arity in algebra.signature.connectives
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


@lru_cache(maxsize=64)
def _variable_slices(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Bit-sliced value vectors of ``k`` variables over ``n`` elements.

    Entry ``[j][e]`` has bit ``i`` set when the ``i``-th valuation of
    ``itertools.product(range(n), repeat=k)`` gives variable ``j`` the
    ``e``-th element.  Variable ``j`` holds each element for a block of
    ``n ** (k - 1 - j)`` consecutive valuations, and the ``n`` blocks repeat
    ``n ** j`` times, so each slice is one block shifted into place and
    copied by multiplying with a repunit.
    """
    out = []
    for j in range(k):
        block = n ** (k - 1 - j)
        period = block * n
        repunit = ((1 << period * n ** j) - 1) // ((1 << period) - 1)
        out.append(tuple((((1 << block) - 1) << block * e) * repunit for e in range(n)))
    return tuple(out)


def _value_slices(
    algebra: FiniteAlgebra,
    formula: Formula,
    variables: Mapping[str, Sequence[int]],
    full: int,
) -> Sequence[int]:
    """The bit-sliced value vector of ``formula``, built bottom-up.

    Entry ``e`` has bit ``i`` set when ``formula`` takes the ``e``-th element
    under the ``i``-th valuation; ``variables`` maps each variable to its
    slices and ``full`` has one bit per valuation.  A connective reads its
    flat table at the element positions of its arguments.
    """
    if formula.args is None:
        return variables[formula.head]
    entry = algebra._flat_tables.get(formula.head)
    if entry is None or entry[0] != len(formula.args):
        raise MatrixError(f"formula head {formula.head!r} does not fit the algebra signature")
    arity, table = entry
    args = [_value_slices(algebra, a, variables, full) for a in formula.args]
    n = len(algebra.elements)
    out = [0] * n
    if arity == 1:
        for e, bits in enumerate(args[0]):
            out[table[e]] |= bits
    elif arity == 2:
        right = args[1]
        for e, left in enumerate(args[0]):
            if left:
                row = e * n
                for f, bits in enumerate(right):
                    out[table[row + f]] |= left & bits
    else:
        # Any other arity, a constant included: its one empty argument
        # tuple holds under every valuation.
        for position, parts in enumerate(itertools.product(*args)):
            bits = full
            for part in parts:
                bits &= part
            out[table[position]] |= bits
    return out


def _designation_masks(
    matrices: Sequence[FiniteMatrix], formula: Formula, variables: tuple[str, ...]
) -> tuple[int, ...]:
    """Per matrix, the valuations of ``variables`` that designate ``formula``.

    Bit ``i`` stands for the ``i``-th valuation of :func:`all_valuations`.
    """
    k = len(variables)
    out = []
    for matrix in matrices:
        algebra = matrix.algebra
        n = len(algebra.elements)
        slices = dict(zip(variables, _variable_slices(n, k)))
        values = _value_slices(algebra, formula, slices, (1 << n**k) - 1)
        mask = 0
        for element, bits in zip(algebra.elements, values):
            if element in matrix.designated:
                mask |= bits
        out.append(mask)
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
UNKNOWN = "unknown"


@dataclass(frozen=True)
class AntitheoremInfo:
    """What an oracle knows about its antitheorems.

    ``none-proven`` means absence is established, ``witness`` carries a set
    whose substitution instances entail everything, ``unknown`` means the
    bounded analysis was inconclusive.
    """

    status: str
    witness: frozenset[Formula] | None = None

    def __post_init__(self):
        if self.status not in (NONE_PROVEN, WITNESS, UNKNOWN):
            raise ValueError(f"bad antitheorem status {self.status!r}")
        if (self.status == WITNESS) != (self.witness is not None):
            raise ValueError("witness set must accompany exactly the witness status")


class LogicOracle:
    """A consequence relation answering finite entailment queries.

    Oracles are immutable after construction and may cache answers; caching
    is keyed by the exact query so it never changes results.  Subclasses
    implement :meth:`_entails` on a normalized query.
    """

    label: str
    signature: Signature

    def __init__(self, label: str, signature: Signature):
        self.label = label
        self.signature = signature
        self._memo: dict[tuple[frozenset[Formula], Formula], bool] = {}

    def entails(self, premises: Iterable[Formula], conclusion: Formula) -> bool:
        key = (frozenset(premises), conclusion)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._entails(key[0], conclusion)
            self._memo[key] = cached
        return cached

    def _entails(self, premises: frozenset[Formula], conclusion: Formula) -> bool:
        raise NotImplementedError

    @property
    def antitheorem_info(self) -> AntitheoremInfo:
        return AntitheoremInfo(UNKNOWN)

    @property
    def has_nontrivial_model(self) -> bool:
        """True when some known matrix model designates less than everything."""
        return any(m.constrains for m in self.base_matrices())

    def base_matrices(self) -> tuple[FiniteMatrix, ...]:
        """Every matrix this oracle is ultimately built from."""
        return ()

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class MatrixOracle(LogicOracle):
    """The consequence relation induced by a finite class of matrices.

    A query over the sorted variables ``v_1 .. v_k`` of its formulas is
    answered with designation masks: in a matrix of ``n`` elements, bit ``i``
    of a formula's mask is set when the formula is designated under the
    ``i``-th valuation of ``itertools.product(elements, repeat=k)`` (``v_k``
    varies fastest).  The inference holds when, in every matrix, the AND of
    the premise masks, started from the full mask of ``n ** k`` bits, has no
    bit outside the conclusion's mask.  The oracle caches one mask per
    matrix for each (formula, variable tuple) it has seen, and nothing else,
    so a formula is evaluated once per valuation space however many queries
    it appears in.
    """

    def __init__(self, matrices: Sequence[FiniteMatrix], label: str = "base"):
        mats = _check_class(matrices)
        super().__init__(label, mats[0].signature)
        self.matrices = mats
        self._masks: dict[tuple[Formula, tuple[str, ...]], tuple[int, ...]] = {}

    def _entails(self, premises: frozenset[Formula], conclusion: Formula) -> bool:
        variables = _query_variables(premises, conclusion)
        masks = [self._formula_masks(p, variables) for p in premises]
        conclusion_masks = self._formula_masks(conclusion, variables)
        return _first_failure(self.matrices, masks, conclusion_masks, len(variables)) is None

    def _formula_masks(self, formula: Formula, variables: tuple[str, ...]) -> tuple[int, ...]:
        key = (formula, variables)
        masks = self._masks.get(key)
        if masks is None:
            masks = self._masks[key] = _designation_masks(self.matrices, formula, variables)
        return masks

    def base_matrices(self) -> tuple[FiniteMatrix, ...]:
        return self.matrices

    @cached_property
    def antitheorem_info(self) -> AntitheoremInfo:
        """Bounded antitheorem analysis.

        If some constraining matrix has a designated element closed under
        all operations, every premise set is satisfiable there and no
        antitheorem can exist.  Otherwise search single-variable candidate
        sets up to depth 2 with :func:`vilogic.transforms.find_antitheorem`;
        supersets of antitheorems are antitheorems, so testing the full
        candidate set decides the bounded question.
        """
        from .transforms import find_antitheorem

        for matrix in self.matrices:
            if matrix.constrains and self._trap_element(matrix):
                return AntitheoremInfo(NONE_PROVEN)
        found = find_antitheorem(self, depth=2)
        if found is not None:
            return AntitheoremInfo(WITNESS, found)
        return AntitheoremInfo(UNKNOWN)

    @staticmethod
    def _trap_element(matrix: FiniteMatrix) -> str | None:
        for e in matrix.designated:
            if all(
                matrix.algebra.tables[name][(e,) * arity] == e
                for name, arity in matrix.signature.connectives
            ):
                return e
        return None


def is_theorem(oracle: LogicOracle, formula: Formula) -> bool:
    return oracle.entails((), formula)


def has_theorem_in_fragment(oracle: LogicOracle, spec: FragmentSpec) -> Formula | None:
    """First enumerated fragment formula provable from no premises, if any."""
    for formula in enumerate_fragment(oracle.signature, spec):
        if is_theorem(oracle, formula):
            return formula
    return None


def homomorphism_counterexample(
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    mapping: Mapping[str, str],
) -> tuple[str, tuple[str, ...]] | None:
    """First (connective, argument tuple) where ``mapping`` fails to commute."""
    if source.signature != target.signature:
        raise MatrixError("homomorphism check needs a shared signature")
    if set(mapping) != set(source.elements):
        raise MatrixError("mapping domain must be exactly the source universe")
    target_universe = set(target.elements)
    if any(v not in target_universe for v in mapping.values()):
        raise MatrixError("mapping image leaves the target universe")
    for name, arity in source.signature.connectives:
        for args in itertools.product(source.elements, repeat=arity):
            pushed = tuple(mapping[a] for a in args)
            if mapping[source.tables[name][args]] != target.tables[name][pushed]:
                return name, args
    return None


def check_homomorphism(
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    mapping: Mapping[str, str],
) -> bool:
    return homomorphism_counterexample(source, target, mapping) is None


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


def load_matrix_file(path) -> FiniteMatrix:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_matrix_text(handle.read(), source=str(path))


def format_matrix(matrix: FiniteMatrix) -> str:
    """Canonical text form; parse and format round-trip byte-identically."""
    algebra = matrix.algebra
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
