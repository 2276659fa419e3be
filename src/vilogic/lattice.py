"""Fragment-exhaustive comparison of consequence oracles and lattice reports.

Everything here is fragment-relative: an "equal" verdict means no inference
inside the finite fragment separates the two oracles, never that the full
relations coincide.  Reports say "equal on fragment" throughout.

Every comparison is between towers: oracles built from matrix, left, right
and meet constructors.  Two engines give the same relation and the same
first witness each way.  Their counts can differ, because each engine counts
at its own granularity (see :class:`ComparisonVerdict`), and so can their
witness lists after the first:

``exhaustive``
    Queries both oracles on every premise subset and conclusion.  Simple and
    obviously correct, but only usable on tiny fragments.  It is the
    reference the tests check the vector engine against, and it is run only
    when asked for by name.

``vector``
    The default, and the engine of every lattice report; it refuses an
    oracle that is not a tower.  Groups formulas that no oracle built from
    the given matrices can tell apart (same variable set, same designation
    pattern in every matrix under every valuation of the fragment
    variables).  Two premise sets hitting the same groups get identical
    answers from every transform tower, so the first disagreement over group
    representatives is the first disagreement overall.  Towers are evaluated
    with numpy bit-set arithmetic instead of per-query oracle calls, and
    interpreted structurally: a left step intersects the premise projection
    mask with the conclusion's variable mask, a right step adds the
    variable-coverage test and the fresh-variable (explosive premise set)
    branch, and matrix leaves reduce to bit tests against per-valuation
    designation sets.  Premise rows are every combination of at most
    ``max_premises`` classes, built block by block with numpy.  Restricting
    the rows to a variable mask keeps exactly the rows whose members all lie
    inside it, so each row's projection is numbered by the colex rank of its
    kept members, with no sort and no hashing.  Arrays are as narrow as the
    input allows: class ids and variable masks in the smallest unsigned type
    that holds them, row indices in ``int32`` while the row count fits,
    valuation bit sets in one byte or whole ``uint64`` words.
    One run compares any number of pairs on one context.  Its outer loop
    runs over chunks of conclusion classes: classes with one variable mask,
    at most 8 to a chunk.  A left step meets the premise mask with the
    conclusion's mask, so every class of a chunk walks a tower through the
    same masks, and one walk carries one answer bit per class in a byte per
    premise row.  A leaf builds the chunk's bits on the distinct projected
    rows and expands them once; the right step's coverage test and
    fresh-variable branch do not depend on the class and act on all bits.
    One memo per chunk, shared by every pair run on the context, holds
    each subtree's answers, so a tower that appears in many pairs is still
    walked once per chunk.
    Memory: the premise blocks live for the whole run.  Each premise
    variable mask keeps, while chunks still read it, its projection (the
    distinct projected rows and one index per premise row), its expanded
    premise mask, its leaf conjunctions and its fresh answers; a mask's
    state is dropped after its last chunk.  The full mask keeps every row
    whole, so it has no projection and reads the blocks row by row; a mask
    with no class inside keeps no index, as every row projects to the
    empty row, and its expanded arrays are one value broadcast read-only
    over the rows.  Projections, expansions and the full mask's arrays are
    built in slices of ``_SLICE_ROWS`` rows, so their temporaries are
    bounded by the slice, not by the number of premise rows.

Witness selection is deterministic: premise subsets are enumerated by
ascending size then combination order, conclusions in fragment enumeration
order, and the vector engine reports the first structurally distinct
disagreements in exactly that order.  It tallies a chunk whole, per pair
and side: one popcount gives the number of disagreeing (row, class) pairs,
and a scan for the first nonzero rows gives at least the chunk's first
``max_witnesses`` pairs in (row, class) order.  The pairs of all chunks are
then sorted and capped, which leaves the first ``max_witnesses`` overall.
Every witness leaving this module is re-validated against the real oracles
before it is reported.
"""

from __future__ import annotations

import itertools
import math
from graphlib import CycleError, TopologicalSorter
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .formulas import (
    Formula,
    FragmentSpec,
    Signature,
    enumerate_fragment,
    fragment_subsets,
    var,
)
from .matrices import (
    NONE_PROVEN,
    WITNESS,
    FiniteMatrix,
    LogicOracle,
    MatrixError,
    MatrixOracle,
    _valuation_grid,
    has_theorem_in_fragment,
)
from .plonka import canonical_chain_matrix, check_partition_function
from .transforms import (
    AntitheoremWitness,
    LeftVIOracle,
    MeetOracle,
    RightVIOracle,
    canonicalize_sequence,
    derive_sequence,
    intersect,
)

__all__ = [
    "DEFAULT_FRAGMENT",
    "ClaimResult",
    "ComparisonVerdict",
    "Inference",
    "LatticeError",
    "LatticeNode",
    "LatticeReport",
    "ReproductionReport",
    "SuiteReport",
    "build_lattice",
    "compare",
    "no_verdict_cycles",
    "reproduce_figure",
    "witness_suite",
]

DEFAULT_FRAGMENT = FragmentSpec()


class LatticeError(MatrixError):
    """A comparison or report request is invalid or internally inconsistent."""


@dataclass(frozen=True)
class Inference:
    """A premise set and a conclusion, in display order."""

    premises: tuple[Formula, ...]
    conclusion: Formula

    def __post_init__(self):
        deduped = tuple(dict.fromkeys(self.premises))
        object.__setattr__(self, "premises", deduped)

    def __str__(self) -> str:
        left = ", ".join(str(p) for p in self.premises)
        return f"{left} |- {self.conclusion}" if left else f"|- {self.conclusion}"


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of one fragment comparison.

    ``relation`` reads left to right: ``strictly-below`` means every
    inference of the first oracle holds in the second but not conversely.
    ``witnesses_ab`` hold in the first oracle only, ``witnesses_ba`` in the
    second only; both are capped lists of the earliest structurally distinct
    disagreements.  ``disagreements`` counts (ab, ba) at the granularity the
    engine works at: raw inferences for ``exhaustive``, class patterns for
    ``vector``.  An extra witness adds to the count only when it lies
    outside the fragment.
    """

    label_a: str
    label_b: str
    relation: str
    witnesses_ab: tuple[Inference, ...]
    witnesses_ba: tuple[Inference, ...]
    fragment: FragmentSpec
    engine: str
    disagreements: tuple[int, int]
    checked_premise_sets: int
    checked_conclusions: int

    @property
    def relation_display(self) -> str:
        if self.relation == "equal":
            return "equal on fragment"
        return f"{self.relation} (fragment-relative)"

    def render(self) -> str:
        lines = [f"compare {self.label_a} vs {self.label_b}"]
        lines.append(f"  fragment: {_fragment_display(self.fragment)}")
        lines.append(f"  engine: {self.engine}")
        lines.append(
            f"  grid: {self.checked_premise_sets} premise sets x "
            f"{self.checked_conclusions} conclusions"
        )
        lines.append(f"  relation: {self.relation_display}")
        for label, witnesses, count in (
            (self.label_a, self.witnesses_ab, self.disagreements[0]),
            (self.label_b, self.witnesses_ba, self.disagreements[1]),
        ):
            if witnesses:
                lines.append(f"  only in {label} ({count} distinct, first shown):")
                for w in witnesses:
                    lines.append(f"    {w}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "a": self.label_a,
            "b": self.label_b,
            "relation": self.relation,
            "engine": self.engine,
            "witnesses_only_in_a": [str(w) for w in self.witnesses_ab],
            "witnesses_only_in_b": [str(w) for w in self.witnesses_ba],
            "disagreements": list(self.disagreements),
            "fragment": _fragment_display(self.fragment),
        }


def _fragment_display(spec: FragmentSpec) -> str:
    return (
        f"vars={','.join(spec.variables)};depth={spec.max_depth};"
        f"premises={spec.max_premises}"
    )


# ---------------------------------------------------------------------------
# Oracle structure extraction
# ---------------------------------------------------------------------------


def _intern_matrix(matrix: FiniteMatrix, table: list[FiniteMatrix]) -> int:
    for i, known in enumerate(table):
        if known == matrix:
            return i
    table.append(matrix)
    return len(table) - 1


def _oracle_tree(oracle: LogicOracle, table: list[FiniteMatrix]):
    """Nested structural key for a transform tower."""
    if isinstance(oracle, MatrixOracle):
        return ("leaf", tuple(_intern_matrix(m, table) for m in oracle.matrices))
    if isinstance(oracle, LeftVIOracle):
        return ("l", _oracle_tree(oracle.base, table))
    if isinstance(oracle, RightVIOracle):
        return ("r", _oracle_tree(oracle.base, table))
    if isinstance(oracle, MeetOracle):
        parts = (_oracle_tree(oracle.first, table), _oracle_tree(oracle.second, table))
        return ("meet", tuple(sorted(parts, key=repr)))
    raise LatticeError(f"the vector engine reads towers only, not {type(oracle).__name__}")


# ---------------------------------------------------------------------------
# Vectorized engine
# ---------------------------------------------------------------------------


def _variable_masks(formulas: Sequence[Formula], variables: Sequence[str]):
    position = {v: i for i, v in enumerate(variables)}
    out = []
    for f in formulas:
        mask = 0
        for v in f.variables:
            if v not in position:
                raise LatticeError(f"formula {f} uses variables outside the fragment")
            mask |= 1 << position[v]
        out.append(mask)
    return out


def _designation_bools(
    matrix: FiniteMatrix, formulas: Sequence[Formula], variables: Sequence[str]
) -> np.ndarray:
    """(n_formulas, n_valuations) designation table, valuations in product order.

    Element positions are evaluated one run at a time: a run of consecutive
    formulas with one depth and one head takes one fancy index into the
    head's table, and a constant's run broadcasts its table value.
    ``enumerate_fragment`` emits one run per depth and connective.  A
    formula's arguments must be variables or earlier formulas.
    """
    algebra = matrix.algebra
    n = len(algebra.elements)
    k = len(variables)
    tables = algebra.index_tables
    n_formulas = len(formulas)
    # One row per formula, then one per variable's coordinates.
    values = np.empty((n_formulas + k, n**k), dtype=np.intp)
    values[n_formulas:] = _valuation_grid(n, k)
    row = {var(v): n_formulas + i for i, v in enumerate(variables)}
    start = 0
    for (_, head), run in itertools.groupby(formulas, lambda f: (f.depth, f.head)):
        run = list(run)
        stop = start + len(run)
        if run[0].is_variable:
            values[start:stop] = values[row[run[0]]]
        else:
            args = np.array([[row[a] for a in f.args] for f in run], dtype=np.intp)
            values[start:stop] = tables[head][tuple(values[column] for column in args.T)]
        row.update(zip(run, range(start, stop)))
        start = stop
    return matrix.designated_bools[values[:n_formulas]]


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Bit rows packed into one byte, or beyond one byte into whole uint64 words.

    Bits past the end of a row are 0.
    """
    packed = np.packbits(bits, axis=1)
    if packed.shape[1] == 1:
        return packed
    padded = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
    return padded.view(np.uint64)


def _nonzero_rows(words: np.ndarray) -> np.ndarray:
    """Per packed row: is any bit set?

    Tested word column by word column: over the few words of a row that is
    several times faster than ``any(axis=1)``.
    """
    out = words[:, 0] != 0
    for column in words.T[1:]:
        out |= column != 0
    return out


def _appended_classes(rows: np.ndarray, n_classes: int, index_dtype):
    """Per row: the first class ``_next_block`` appends to it, and how many."""
    if rows.shape[1]:
        first = rows[:, -1].astype(index_dtype) + 1
    else:
        first = np.zeros(len(rows), dtype=index_dtype)
    return first, n_classes - first


def _next_block(rows: np.ndarray, n_classes: int, index_dtype) -> np.ndarray:
    """Premise rows one member longer than ``rows``, in combinations order.

    Each row is repeated once for every class above its last member, and
    that class is appended.  Rows are stored column by column, so that a
    slot is one contiguous array.
    """
    first, counts = _appended_classes(rows, n_classes, index_dtype)
    grown = np.empty(
        (int(counts.sum()), rows.shape[1] + 1), dtype=rows.dtype, order="F"
    )
    for j in range(rows.shape[1]):
        grown[:, j] = np.repeat(rows[:, j], counts)
    # Row t of group i gets class first[i] + (t - start of group i).
    shift = first - (np.cumsum(counts, dtype=index_dtype) - counts)
    grown[:, -1] = np.arange(len(grown), dtype=index_dtype) + np.repeat(shift, counts)
    return grown


def _byte_mask(bools: np.ndarray) -> np.ndarray:
    """0xFF where ``bools`` is True, 0x00 elsewhere: one answer for every bit."""
    return bools.view(np.uint8) * np.uint8(0xFF)


# Rows per slice of the vector engine's row-wise work: projecting, expanding
# and building the full mask's arrays write their output one slice at a time,
# so that their temporaries cover a slice, never the whole premise-row set.
_SLICE_ROWS = 1 << 18


def _slices(count: int) -> list[slice]:
    """``range(count)`` cut into slices of ``_SLICE_ROWS`` rows."""
    return [
        slice(lo, min(lo + _SLICE_ROWS, count)) for lo in range(0, count, _SLICE_ROWS)
    ]


@dataclass
class _MaskState:
    """What the walk caches for one premise variable mask, all built on
    first use: the projection ``(slots, inverse)`` (never for the full
    mask), the expanded premise mask, the leaf conjunction per matrix id and
    the fresh answers per subtree.  :meth:`_VectorContext.retire` drops all
    of it at once."""

    projection: tuple | None = None
    premise_mask: np.ndarray | None = None
    conjunctions: dict[int, np.ndarray] = field(default_factory=dict)
    fresh: dict[tuple, np.ndarray] = field(default_factory=dict)


class _VectorContext:
    """Shared numpy state for comparing towers over one matrix collection.

    Every array built for one premise variable mask lives in that mask's
    :class:`_MaskState`.  A chunk of conclusion classes with mask t reads
    only three masks: the full mask, where every walk starts; t, because a
    left step meets the premise mask with t and a right step keeps it, so
    from the full mask the walk only reaches t; and 0, because the fresh
    answers after a left step are read at mask 0.  :meth:`chunks` puts all
    chunks of one mask next to each other, so once the last chunk of mask
    t is walked no later chunk reads t's state again, unless t is the full
    mask or 0, and :meth:`retire` may drop it.

    Memory.  The premise ``blocks`` stay for the context's life.  Each
    mask has a row space: the distinct projected rows of its projection,
    or, for the full mask, the premise rows themselves.  Its leaf
    conjunctions hold one packed row per row of that space; its premise
    mask and each of its fresh answers hold one value per premise row.  A
    mask other than the full mask also keeps its projection: ``slots``, one
    column per distinct projected row, and ``inverse``, one index per
    premise row, except when no class lies inside the mask.  Then every row
    projects to the empty row and there is no ``inverse``: an answer is one
    value broadcast read-only over the rows, with no row-sized copy.  So
    the cached premise masks and answers may be read-only; the walk writes
    only into arrays it has just built.  The full mask keeps every row
    whole, so its projection is the identity and is never built: its
    conjunctions and premise mask are read from ``blocks`` row by row, and
    its leaves expand nothing.  Every temporary of a projection, an expansion or a
    row-space array covers one slice of ``_SLICE_ROWS`` rows (a projection
    slice covers at most ``max(_SLICE_ROWS, n_classes)`` rows), so the
    peak is the live state plus a few slices, never a second premise-row
    set.  The walk's own per-row answers are not sliced.
    """

    def __init__(
        self,
        signature: Signature,
        fragment: FragmentSpec,
        matrices: Sequence[FiniteMatrix],
    ):
        self.signature = signature
        self.fragment = fragment
        self.matrices = list(matrices)
        self.variables = fragment.variables
        self.k = len(self.variables)
        self.full_mask = (1 << self.k) - 1
        self.formulas = enumerate_fragment(signature, fragment)
        n = len(self.formulas)
        self.fmask = np.array(
            _variable_masks(self.formulas, self.variables), dtype=np.int64
        )
        self.des_bool = [
            _designation_bools(m, self.formulas, self.variables) for m in self.matrices
        ]
        packed = [_pack_rows(db) for db in self.des_bool]

        keys: dict[tuple, int] = {}
        class_of = np.empty(n, dtype=np.int64)
        for t in range(n):
            key = (int(self.fmask[t]),) + tuple(p[t].tobytes() for p in packed)
            class_of[t] = keys.setdefault(key, len(keys))
        self.class_of = class_of
        self.n_classes = len(keys)
        reps = np.full(self.n_classes, -1, dtype=np.int64)
        for t in range(n - 1, -1, -1):
            reps[class_of[t]] = t
        self.rep_index = reps
        self.rep_mask = self.fmask[reps].astype(np.min_scalar_type(self.full_mask))
        self.rep_not_packed = [_pack_rows(~db[reps]) for db in self.des_bool]
        self.all_designated = [not m.constrains for m in self.matrices]
        # Per-slot tables: class ``n_classes`` marks an empty slot and reads
        # as using no variable and as designated under every valuation.
        self._slot_mask = np.append(self.rep_mask, self.rep_mask.dtype.type(0))
        self._slot_des = [
            np.vstack([p[reps], np.full((1, p.shape[1]), ~p.dtype.type(0))])
            for p in packed
        ]

        self.max_size = min(fragment.max_premises, self.n_classes)
        self.n_premise_rows = sum(
            math.comb(self.n_classes, size) for size in range(self.max_size + 1)
        )
        self.index_dtype = (
            np.int32 if self.n_premise_rows <= np.iinfo(np.int32).max else np.int64
        )
        self.class_dtype = np.min_scalar_type(self.n_classes)
        rows = np.zeros((1, 0), dtype=self.class_dtype)
        blocks = [(0, 0, rows)]
        for size in range(1, self.max_size + 1):
            offset = blocks[-1][0] + len(rows)
            rows = _next_block(rows, self.n_classes, self.index_dtype)
            blocks.append((offset, size, rows))
        self.blocks = blocks
        self._masks: dict[int, _MaskState] = {}

    # -- per-mask state -----------------------------------------------------

    def _state(self, vmask: int) -> _MaskState:
        state = self._masks.get(vmask)
        if state is None:
            state = self._masks[vmask] = _MaskState()
        return state

    def retire(self, vmask: int) -> None:
        """Drop mask ``vmask``'s state once its last chunk is walked.

        The full mask and 0 stay, because every later chunk may read them.
        """
        if vmask not in (self.full_mask, 0):
            self._masks.pop(vmask, None)

    # -- projections --------------------------------------------------------

    def _projection(self, vmask: int):
        """Premise rows restricted to the classes whose variables lie in vmask.

        Never built for the full mask, whose projection is the identity.
        Returns ``(slots, inverse)``.  ``slots`` is a ``(max_size,
        n_distinct)`` array: column ``i`` lists the members of distinct
        projected row ``i`` in ascending order, padded with ``n_classes``.
        ``inverse`` maps every premise row to its distinct projected row.
        When no class lies in vmask, every row projects to the empty row,
        the only column of ``slots``, and ``inverse`` is None.

        Let I be the classes inside vmask.  A row C projects to C ∩ I, a
        subset of I with at most ``max_size`` members.  Every such subset is
        itself a premise row, kept whole by the projection, so the distinct
        projected rows are exactly the rows whose members all lie in I.
        Number them by size, then by colex rank: writing the members of
        C ∩ I as positions p_0 < p_1 < ... within I, the id is
        ``offset[m] + sum_j comb(p_j, j + 1)`` for m = |C ∩ I|, where
        ``offset[m]`` counts the subsets of I smaller than m.  The colex rank
        is a bijection from the m-subsets of I onto ``range(comb(|I|, m))``,
        so the ids are a bijection onto the distinct projected rows.  A row
        of block s is kept whole exactly when it keeps s members, that is
        when its id is at least ``offset[s]``.

        Block s is derived from block s - 1, not rebuilt slot by slot.  A
        row of block s is its prefix row in block s - 1 plus one class c
        above the prefix's last member (``_next_block``).  The members kept
        from the prefix come first in the row, so if the prefix keeps m
        members, the row keeps m + 1 and adds comb(pos_I(c), m + 1) to the
        rank when c lies in I, and is the prefix's projection otherwise.
        So the row's id is the prefix's id plus ``delta[m, c]``, which is
        ``comb(|I|, m) + comb(pos_I(c), m + 1)`` for c in I and 0 for c
        outside.  Nothing is sorted, and m is read back from the prefix's id
        as the number of ``offset[1:]`` entries at or below it.
        ``_next_block`` repeats each prefix row in place, so a slice of
        block s - 1 gives one contiguous slice of block s, at most
        ``n_classes`` times as long.  Prefixes are read in slices of
        ``_SLICE_ROWS // n_classes`` rows (at least one), so every
        temporary covers at most ``max(_SLICE_ROWS, n_classes)`` rows.
        """
        state = self._state(vmask)
        if state.projection is not None:
            return state.projection
        n = self.n_classes
        inside = (self.rep_mask | vmask) == vmask
        n_inside = int(inside.sum())
        sizes = [math.comb(n_inside, m) for m in range(self.max_size + 1)]
        slots = np.full((self.max_size, sum(sizes)), n, dtype=self.class_dtype)
        if not n_inside:
            state.projection = (slots, None)
            return state.projection
        offset = np.cumsum([0] + sizes)
        position = np.cumsum(inside) - 1
        delta = np.zeros((self.max_size, n), dtype=self.index_dtype)
        for m in range(self.max_size):
            delta[m, inside] = [
                sizes[m] + math.comb(int(p), m + 1) for p in position[inside]
            ]
        # One flat lookup ``delta[n * m + c]`` per row.
        delta = delta.ravel()
        inverse = np.empty(self.n_premise_rows, dtype=self.index_dtype)
        inverse[0] = 0
        stride = max(1, _SLICE_ROWS // n)
        pairs = zip(self.blocks, self.blocks[1:])
        for (before, _, prefixes), (start, size, rows) in pairs:
            lo = 0
            for head in range(0, len(prefixes), stride):
                prefix = prefixes[head:head + stride]
                _, counts = _appended_classes(prefix, n, self.index_dtype)
                hi = lo + int(counts.sum())
                ids = inverse[before + head:before + head + len(prefix)]
                kept = np.searchsorted(offset[1:], ids, side="right")
                cursor = np.repeat(kept * n, counts) + rows[lo:hi, -1]
                out = inverse[start + lo:start + hi]
                np.add(np.repeat(ids, counts), delta.take(cursor), out=out)
                whole = out >= offset[size]
                slots[:size, out[whole]] = rows[lo:hi][whole].T
                lo = hi
        state.projection = (slots, inverse)
        return state.projection

    # -- row spaces ---------------------------------------------------------
    #
    # A mask's leaf conjunctions and compact answers are indexed by its row
    # space: the premise rows for the full mask, the distinct projected rows
    # for any other mask.  ``_expand`` takes them to one value per premise row.

    def _row_count(self, vmask: int) -> int:
        if vmask == self.full_mask:
            return self.n_premise_rows
        return self._projection(vmask)[0].shape[1]

    def _members(self, vmask: int):
        """vmask's row space slice by slice: pairs ``(rows, members)``, where
        ``members[j]`` holds member j of every row in ``rows``.  A projection
        pads short rows with ``n_classes``; the full mask reads ``blocks``."""
        if vmask != self.full_mask:
            slots, _ = self._projection(vmask)
            for rows in _slices(slots.shape[1]):
                yield rows, slots[:, rows]
            return
        for start, _, block in self.blocks:
            for rows in _slices(len(block)):
                yield slice(start + rows.start, start + rows.stop), block[rows].T

    def _expand(self, compact: np.ndarray, vmask: int) -> np.ndarray:
        """One value per row of vmask's row space, to one per premise row."""
        if vmask == self.full_mask:
            return compact
        _, inverse = self._projection(vmask)
        if inverse is None:
            # Every row projects to the empty row: one value, broadcast
            # read-only over the rows, not a row-sized copy.
            return np.broadcast_to(compact[0], (self.n_premise_rows,))
        out = np.empty(self.n_premise_rows, dtype=compact.dtype)
        for rows in _slices(self.n_premise_rows):
            out[rows] = compact.take(inverse[rows])
        return out

    def _premise_mask(self, vmask: int) -> np.ndarray:
        """Variable mask of each projected premise row, expanded to full rows."""
        state = self._state(vmask)
        if state.premise_mask is not None:
            return state.premise_mask
        compact = np.zeros(self._row_count(vmask), dtype=self.rep_mask.dtype)
        for rows, members in self._members(vmask):
            piece = compact[rows]
            for column in members:
                piece |= self._slot_mask[column]
        state.premise_mask = self._expand(compact, vmask)
        return state.premise_mask

    def _leaf_conjunction(self, matrix_id: int, vmask: int) -> np.ndarray:
        """Per row of vmask's row space: valuations designating every member.

        Rows wider than a byte carry padding bits past the last valuation.
        Padding stays sound: it is 0 in every class's row, in both
        ``_slot_des`` and ``rep_not_packed``, so ``conj & rep_not`` never
        sees it.  An all-ones ``conj`` keeps padding ones only in the empty
        row, and that row is satisfiable anyway.
        """
        conjunctions = self._state(vmask).conjunctions
        cached = conjunctions.get(matrix_id)
        if cached is not None:
            return cached
        table = self._slot_des[matrix_id]
        out = np.empty((self._row_count(vmask), table.shape[1]), dtype=table.dtype)
        for rows, members in self._members(vmask):
            piece = out[rows]
            piece[:] = table[-1]
            for column in members:
                piece &= table[column]
        conjunctions[matrix_id] = out
        return out

    # -- tree evaluation -----------------------------------------------------

    def _leaf_real(
        self, matrix_ids: tuple[int, ...], vmask: int, chunk: tuple[int, ...]
    ) -> np.ndarray:
        """Bit i of each premise row: the leaf's answer for class ``chunk[i]``.

        In one matrix a row entails a class when every valuation that
        designates all the row's members designates the class too.  The
        bits are built and ANDed across the leaf's matrices on vmask's row
        space, then expanded to every premise row once.
        """
        tables = [
            (self._leaf_conjunction(m, vmask), self.rep_not_packed[m])
            for m in matrix_ids
        ]
        held = np.empty(len(tables[0][0]), dtype=np.uint8)
        for rows in _slices(len(held)):
            fails = np.zeros(rows.stop - rows.start, dtype=np.uint8)
            for conj, rep_not in tables:
                piece = conj[rows]
                for bit, target in enumerate(chunk):
                    bad = _nonzero_rows(piece & rep_not[target])
                    fails |= bad.view(np.uint8) << np.uint8(bit)
            np.invert(fails, out=held[rows])
        return self._expand(held, vmask)

    def _leaf_fresh(self, matrix_ids: tuple[int, ...], vmask: int):
        conjs = [
            self._leaf_conjunction(m, vmask)
            for m in matrix_ids
            if not self.all_designated[m]
        ]
        if not conjs:
            return np.full(self.n_premise_rows, 0xFF, dtype=np.uint8)
        ok = np.empty(len(conjs[0]), dtype=np.uint8)
        for rows in _slices(len(ok)):
            satisfiable = _nonzero_rows(conjs[0][rows])
            for conj in conjs[1:]:
                satisfiable |= _nonzero_rows(conj[rows])
            ok[rows] = _byte_mask(~satisfiable)
        return self._expand(ok, vmask)

    def fresh_answers(self, tree, vmask: int) -> np.ndarray:
        """Answers for a conclusion variable foreign to the whole fragment.

        One byte per premise row, 0xFF or 0x00, so it serves every class of
        a chunk at once.  The result is cached and may be a read-only
        broadcast (see :meth:`_expand`): never write into it.
        """
        fresh = self._state(vmask).fresh
        cached = fresh.get(tree)
        if cached is not None:
            return cached
        tag = tree[0]
        if tag == "leaf":
            out = self._leaf_fresh(tree[1], vmask)
        elif tag == "l":
            out = self.fresh_answers(tree[1], 0)
        elif tag == "r":
            out = self.fresh_answers(tree[1], vmask)
        else:
            out = self.fresh_answers(tree[1][0], vmask) & self.fresh_answers(
                tree[1][1], vmask
            )
        fresh[tree] = out
        return out

    def chunks(self) -> list[tuple[int, ...]]:
        """Conclusion classes grouped by variable mask, at most 8 per group.

        Classes ascend within a group.  Groups of one mask follow each
        other, and masks come in the order of their first class.  So a
        mask's chunks are walked in one stretch, after which only the full
        mask and 0 of its state are read again (see the class docstring).
        """
        by_mask: dict[int, list[int]] = {}
        for target, tmask in enumerate(self.rep_mask.tolist()):
            by_mask.setdefault(tmask, []).append(target)
        return [
            tuple(targets[i:i + 8])
            for targets in by_mask.values()
            for i in range(0, len(targets), 8)
        ]

    def chunk_answers(self, tree, chunk: tuple[int, ...], memo: dict) -> np.ndarray:
        """Answers of ``tree`` for a chunk of conclusion classes.

        One ``uint8`` per premise row; bit i answers class ``chunk[i]``, and
        bits past the chunk's length are meaningless.  ``chunk`` comes from
        :meth:`chunks`, so its classes share one variable mask.  ``memo``
        holds the answers of every (subtree, premise mask) walked for this
        chunk; pass the same dict for every tree walked for it.
        """
        return self._walk(tree, self.full_mask, chunk, self.chunk_mask(chunk), memo)

    def chunk_mask(self, chunk: tuple[int, ...]) -> int:
        """The variable mask that every class of ``chunk`` shares."""
        return int(self.rep_mask[chunk[0]])

    def _walk(
        self, node, vmask: int, chunk: tuple[int, ...], tmask: int, memo: dict
    ) -> np.ndarray:
        # A method, not a closure: a self-referencing nested function would
        # keep the memo's arrays alive until the cyclic collector runs.
        # Memoized and cached answers may be read-only broadcasts (see
        # ``_expand``), so each in-place step below writes into a new array.
        key = (node, vmask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        tag = node[0]
        if tag == "leaf":
            out = self._leaf_real(node[1], vmask, chunk)
        elif tag == "l":
            out = self._walk(node[1], vmask & tmask, chunk, tmask, memo)
        elif tag == "r":
            out = _byte_mask((self._premise_mask(vmask) & tmask) == tmask)
            out &= self._walk(node[1], vmask, chunk, tmask, memo)
            out |= self.fresh_answers(node[1], vmask)
        else:
            out = self._walk(node[1][0], vmask, chunk, tmask, memo) & self._walk(
                node[1][1], vmask, chunk, tmask, memo
            )
        memo[key] = out
        return out

    # -- decoding ------------------------------------------------------------

    def premise_formulas(self, row: int) -> tuple[Formula, ...]:
        for offset, size, combos in self.blocks:
            if row < offset + len(combos):
                ids = combos[row - offset]
                return tuple(
                    self.formulas[int(self.rep_index[c])] for c in ids
                )
        raise LatticeError(f"premise row {row} out of range")

    def conclusion_formula(self, target: int) -> Formula:
        return self.formulas[int(self.rep_index[target])]


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def _vector_verdicts(
    pairs: Sequence[tuple[LogicOracle, LogicOracle]],
    fragment: FragmentSpec,
    max_witnesses: int,
    extra_witnesses: Iterable[Inference] = (),
) -> list[ComparisonVerdict]:
    """Re-validated vector-engine verdicts for every pair, from one context.

    Every oracle must be a tower over one signature.  The context covers
    the matrices of all pairs.  The outer loop runs over chunks of
    conclusion classes, so a subtree is walked once per chunk however many
    pairs contain it.  After the last chunk of a mask, that mask's state is
    retired.
    Each chunk is tallied whole, per pair and side: the count of its
    disagreeing (row, class) pairs, and at least its first
    ``max_witnesses`` of them (see :func:`_tally`).  Each side's pairs are
    then sorted and capped.
    """
    if not pairs:
        return []
    table: list[FiniteMatrix] = []
    trees = [(_oracle_tree(a, table), _oracle_tree(b, table)) for a, b in pairs]
    signature = pairs[0][0].signature
    if any(oracle.signature != signature for pair in pairs for oracle in pair):
        raise LatticeError("compared oracles must share a signature")
    context = _VectorContext(signature, fragment, table)
    counts = [[0, 0] for _ in pairs]
    found: list[tuple[list, list]] = [([], []) for _ in pairs]
    for tmask, group in itertools.groupby(context.chunks(), context.chunk_mask):
        for chunk in group:
            memo: dict = {}
            in_chunk = np.uint8((1 << len(chunk)) - 1)
            for (tree_a, tree_b), count, sides in zip(trees, counts, found):
                ans_a = context.chunk_answers(tree_a, chunk, memo)
                ans_b = context.chunk_answers(tree_b, chunk, memo)
                for side, (mine, other) in enumerate(((ans_a, ans_b), (ans_b, ans_a))):
                    n_found, first = _tally(mine, other, in_chunk, chunk, max_witnesses)
                    count[side] += n_found
                    sides[side].extend(first)
        context.retire(tmask)
    return [
        _verdict(
            a, b, fragment, "vector",
            *(_decode_witnesses(context, side, max_witnesses) for side in sides),
            tuple(count), context.formulas, extra_witnesses,
        )
        for (a, b), count, sides in zip(pairs, counts, found)
    ]


def _popcount(bits: np.ndarray) -> int:
    """Set bits in a contiguous ``uint8`` array: whole ``uint64`` words,
    then the byte tail."""
    whole = len(bits) - len(bits) % 8
    total = int(np.bitwise_count(bits[:whole].view(np.uint64)).sum())
    if whole < len(bits):
        total += int(np.bitwise_count(bits[whole:]).sum())
    return total


def _tally(
    mine: np.ndarray,
    other: np.ndarray,
    in_chunk: np.uint8,
    chunk: tuple[int, ...],
    cap: int,
) -> tuple[int, list[tuple[int, int]]]:
    """The ``(row, class)`` pairs of ``chunk`` whose bit is set in ``mine``
    and clear in ``other``: how many there are, and at least the first
    ``cap`` of them in ``(row, class)`` order.

    Bits past the chunk's length are garbage, so ``in_chunk`` masks them
    before anything is counted.  The count is one popcount per slice.  The
    pairs are found by scanning for nonzero rows in a growing window and
    taking every set bit of each row found, until ``cap`` pairs are held.
    Classes ascend with their bits, so ``(row, bit)`` order is
    ``(row, class)`` order.

    A superset of the first ``cap`` pairs is all a caller needs: the
    caller sorts every tally's pairs and keeps the first ``cap``.  Each of
    those lies in some tally, and fewer than ``cap`` pairs of that tally
    come before it, so it is among that tally's own first ``cap``.

    Rows are read in slices of ``_SLICE_ROWS``, so the temporaries cover a
    slice, never the whole premise-row set.
    """
    count = 0
    pairs: list[tuple[int, int]] = []
    for rows in _slices(len(mine)):
        only = np.invert(other[rows])
        only &= mine[rows]
        only &= in_chunk
        found = _popcount(only)
        count += found
        # A dense disagreement ends within the first small window; one
        # flatnonzero over the whole slice would index every row of it.
        start, window = 0, 64
        while found and len(pairs) < cap and start < len(only):
            stop = min(start + window, len(only))
            # Each row found holds at least one pair.
            hits = np.flatnonzero(only[start:stop])[: cap - len(pairs)] + start
            for row, byte in zip(hits.tolist(), only[hits].tolist()):
                pairs.extend(
                    (rows.start + row, target)
                    for bit, target in enumerate(chunk)
                    if byte >> bit & 1
                )
                if len(pairs) >= cap:
                    break
            start, window = stop, 4 * window
    return count, pairs


def _decode_witnesses(
    context: _VectorContext, found: list[tuple[int, int]], cap: int
) -> list[Inference]:
    found.sort()
    return [
        Inference(context.premise_formulas(row), context.conclusion_formula(target))
        for row, target in found[:cap]
    ]


def _run_exhaustive_engine(
    a: LogicOracle, b: LogicOracle, fragment: FragmentSpec, max_witnesses: int
):
    formulas = enumerate_fragment(a.signature, fragment)
    witnesses_ab: list[Inference] = []
    witnesses_ba: list[Inference] = []
    count_ab = 0
    count_ba = 0
    for premises in fragment_subsets(formulas, fragment.max_premises):
        for conclusion in formulas:
            in_a = a.entails(premises, conclusion)
            in_b = b.entails(premises, conclusion)
            if in_a == in_b:
                continue
            inference = Inference(premises, conclusion)
            if in_a:
                count_ab += 1
                if len(witnesses_ab) < max_witnesses:
                    witnesses_ab.append(inference)
            else:
                count_ba += 1
                if len(witnesses_ba) < max_witnesses:
                    witnesses_ba.append(inference)
    return (witnesses_ab, witnesses_ba, (count_ab, count_ba)), formulas


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _revalidate(
    a: LogicOracle,
    b: LogicOracle,
    witnesses_ab: Sequence[Inference],
    witnesses_ba: Sequence[Inference],
):
    for w in witnesses_ab:
        if not a.entails(w.premises, w.conclusion) or b.entails(w.premises, w.conclusion):
            raise LatticeError(f"witness failed re-validation: {w}")
    for w in witnesses_ba:
        if a.entails(w.premises, w.conclusion) or not b.entails(w.premises, w.conclusion):
            raise LatticeError(f"witness failed re-validation: {w}")


def _relation(n_ab: int, n_ba: int) -> str:
    if n_ab and n_ba:
        return "incomparable"
    if n_ab:
        return "strictly-above"
    if n_ba:
        return "strictly-below"
    return "equal"


def _verdict(
    a: LogicOracle,
    b: LogicOracle,
    fragment: FragmentSpec,
    engine: str,
    witnesses_ab: list[Inference],
    witnesses_ba: list[Inference],
    counts: tuple[int, int],
    formulas: Sequence[Formula],
    extra_witnesses: Iterable[Inference],
) -> ComparisonVerdict:
    """Merge extras into an engine result, re-validate it, build the verdict.

    ``formulas`` is the engine's fragment.  A disagreeing extra is always
    shown, but counted only when it lies outside the fragment: the engine
    has already counted every fragment inference.
    """
    count_ab, count_ba = counts
    inside = None  # the fragment as a set, built for the first disagreeing extra
    for inference in extra_witnesses:
        in_a = a.entails(inference.premises, inference.conclusion)
        in_b = b.entails(inference.premises, inference.conclusion)
        if in_a == in_b:
            continue
        bucket = witnesses_ab if in_a else witnesses_ba
        if inference not in bucket:
            bucket.append(inference)
        if inside is None:
            inside = frozenset(formulas)
        outside = (
            len(inference.premises) > fragment.max_premises
            or not inside.issuperset(inference.premises)
            or inference.conclusion not in inside
        )
        if outside and in_a:
            count_ab += 1
        elif outside:
            count_ba += 1

    _revalidate(a, b, witnesses_ab, witnesses_ba)
    raw_sets = sum(
        math.comb(len(formulas), size) for size in range(0, fragment.max_premises + 1)
    )
    return ComparisonVerdict(
        label_a=a.label,
        label_b=b.label,
        relation=_relation(count_ab, count_ba),
        witnesses_ab=tuple(witnesses_ab),
        witnesses_ba=tuple(witnesses_ba),
        fragment=fragment,
        engine=engine,
        disagreements=(count_ab, count_ba),
        checked_premise_sets=raw_sets,
        checked_conclusions=len(formulas),
    )


def _check_max_witnesses(max_witnesses: int) -> None:
    if max_witnesses < 0:
        raise LatticeError(f"max_witnesses must be at least 0, got {max_witnesses}")


def compare(
    a: LogicOracle,
    b: LogicOracle,
    fragment: FragmentSpec = DEFAULT_FRAGMENT,
    extra_witnesses: Iterable[Inference] = (),
    engine: str = "vector",
    max_witnesses: int = 5,
) -> ComparisonVerdict:
    """Classify two oracles over every fragment inference plus extras.

    The relation reads ``a <relation> b``; see :class:`ComparisonVerdict`.
    ``extra_witnesses`` are checked against the real oracles and merged into
    the classification, so a strict gap witnessed only outside the fragment
    still shows up.  Every reported witness is re-validated with direct
    oracle calls before the verdict is returned.

    ``engine`` is ``"vector"``, for towers, or ``"exhaustive"``.
    """
    _check_max_witnesses(max_witnesses)
    if a.signature != b.signature:
        raise LatticeError("compared oracles must share a signature")
    if engine == "vector":
        return _vector_verdicts([(a, b)], fragment, max_witnesses, extra_witnesses)[0]
    if engine != "exhaustive":
        raise LatticeError(f"unknown engine {engine!r}")
    result, formulas = _run_exhaustive_engine(a, b, fragment, max_witnesses)
    return _verdict(a, b, fragment, engine, *result, formulas, extra_witnesses)


def no_verdict_cycles(verdicts: Iterable[ComparisonVerdict]) -> bool:
    """True when the strict parts of the verdicts form no directed cycle."""
    below: dict[str, set[str]] = {}
    for v in verdicts:
        if v.relation == "strictly-below":
            below.setdefault(v.label_b, set()).add(v.label_a)
        elif v.relation == "strictly-above":
            below.setdefault(v.label_a, set()).add(v.label_b)
    try:
        TopologicalSorter(below).prepare()
    except CycleError:
        return False
    return True


# ---------------------------------------------------------------------------
# Lattice reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeNode:
    node_id: str
    label: str
    kind: str  # "tower" | "meet" | "join"
    sequence: str | None
    parts: tuple[str, ...]
    canonical: str | None
    computed: bool
    antitheorem_status: str | None
    expected_equal: str | None = None


@dataclass
class LatticeReport:
    base_label: str
    fragment: FragmentSpec
    trivial_base: bool
    base_antitheorems: str
    nodes: tuple[LatticeNode, ...] = ()
    verdicts: tuple[ComparisonVerdict, ...] = ()
    pair_index: Mapping[tuple[str, str], int] = field(default_factory=dict)
    equal_groups: tuple[tuple[str, ...], ...] = ()
    hasse_edges: tuple[tuple[str, str], ...] = ()
    formal_edges: tuple[tuple[str, str], ...] = ()
    unresolved: tuple[tuple[str, str, str], ...] = ()
    # Verdicts of ``build_lattice``'s ``extra_pairs``; not rendered.
    extra_verdicts: tuple[ComparisonVerdict, ...] = ()

    def verdict(self, id_a: str, id_b: str) -> ComparisonVerdict:
        """Verdict for the ordered pair; flips a stored reversed verdict."""
        index = self.pair_index.get((id_a, id_b))
        if index is not None:
            return self.verdicts[index]
        index = self.pair_index.get((id_b, id_a))
        if index is None:
            raise LatticeError(f"no verdict stored for {id_a} vs {id_b}")
        return _flip(self.verdicts[index])

    def render(self) -> str:
        lines = [f"lattice over {self.base_label}"]
        lines.append(f"  fragment: {_fragment_display(self.fragment)}")
        lines.append(f"  base antitheorems: {self.base_antitheorems}")
        if self.trivial_base:
            lines.append("  base designates every value; no lattice claims made")
            return "\n".join(lines)
        lines.append("  nodes:")
        for node in self.nodes:
            bits = [f"    {node.node_id}: {node.label} [{node.kind}]"]
            if node.canonical is not None:
                bits.append(f"canonical={node.canonical or 'base'}")
            if not node.computed:
                bits.append("not computed (no construction available)")
            if node.antitheorem_status is not None:
                bits.append(f"antitheorems={node.antitheorem_status}")
            lines.append(" ".join(bits))
        lines.append("  equal on fragment:")
        for group in self.equal_groups:
            if len(group) > 1:
                lines.append("    " + " = ".join(group))
        lines.append("  strict covers (lower < upper):")
        for lo, hi in self.hasse_edges:
            lines.append(f"    {lo} < {hi}")
        if self.formal_edges:
            lines.append("  formal edges (join nodes, not computed):")
            for lo, hi in self.formal_edges:
                lines.append(f"    {lo} < {hi}")
        if self.unresolved:
            lines.append("  unresolved at this fragment scale:")
            for id_a, id_b, note in self.unresolved:
                lines.append(f"    {id_a} vs {id_b}: {note}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "base": self.base_label,
            "fragment": _fragment_display(self.fragment),
            "trivial_base": self.trivial_base,
            "base_antitheorems": self.base_antitheorems,
            "nodes": [
                {
                    "id": n.node_id,
                    "label": n.label,
                    "kind": n.kind,
                    "sequence": n.sequence,
                    "canonical": n.canonical,
                    "computed": n.computed,
                    "antitheorems": n.antitheorem_status,
                }
                for n in self.nodes
            ],
            "verdicts": [v.to_json() for v in self.verdicts],
            "equal_groups": [list(g) for g in self.equal_groups],
            "hasse_edges": [list(e) for e in self.hasse_edges],
            "formal_edges": [list(e) for e in self.formal_edges],
            "unresolved": [list(u) for u in self.unresolved],
        }


def _flip(verdict: ComparisonVerdict) -> ComparisonVerdict:
    flipped = {
        "strictly-below": "strictly-above",
        "strictly-above": "strictly-below",
    }.get(verdict.relation, verdict.relation)
    return replace(
        verdict,
        label_a=verdict.label_b,
        label_b=verdict.label_a,
        relation=flipped,
        witnesses_ab=verdict.witnesses_ba,
        witnesses_ba=verdict.witnesses_ab,
        disagreements=verdict.disagreements[::-1],
    )


def build_lattice(
    base: Sequence[FiniteMatrix] | FiniteMatrix,
    partition_term: Formula,
    fragment: FragmentSpec = DEFAULT_FRAGMENT,
    base_label: str = "base",
    max_witnesses: int = 3,
    extra_pairs: Sequence[tuple[LogicOracle, LogicOracle]] = (),
) -> LatticeReport:
    """Survey the transform towers over a base matrix collection.

    Requires ``partition_term`` to pass the partition axioms on every base
    algebra.  Detects whether the base has an explosive premise set; that
    choice fixes the node inventory: five towers without one, seven with,
    plus computed meet nodes and rendered-but-uncomputed join nodes.  Every
    node is a matrix, left, right or meet tower, so all computed pairs go
    through one vector-engine run on one context, and each tower is walked
    once per chunk of conclusion classes rather than once per pair.

    ``extra_pairs`` are tower pairs compared in that same run; their
    verdicts land in ``extra_verdicts``, which neither ``render`` nor
    ``to_json`` shows.  Their matrices join the context and may split its
    formula classes, which can change the lattice verdicts' class-pattern
    counts and witnesses, though never their relations.
    """
    _check_max_witnesses(max_witnesses)
    matrices = (base,) if isinstance(base, FiniteMatrix) else tuple(base)
    if not matrices:
        raise LatticeError("need at least one base matrix")
    for matrix in matrices:
        report = check_partition_function(matrix.algebra, partition_term)
        if not report.passed:
            raise LatticeError(
                "partition term fails on a base algebra:\n" + report.render()
            )
    extra_pairs = list(extra_pairs)
    base_oracle = MatrixOracle(matrices, label=base_label)
    if not base_oracle.has_nontrivial_model:
        return LatticeReport(
            base_label=base_label,
            fragment=fragment,
            trivial_base=True,
            base_antitheorems=NONE_PROVEN,
            extra_verdicts=tuple(_vector_verdicts(extra_pairs, fragment, max_witnesses)),
        )

    info = base_oracle.antitheorem_info
    has_antitheorems = info.status == WITNESS
    if has_antitheorems:
        sequences = ["", "l", "r", "lr", "rl", "rlr", "lrl"]
        meets = [("l", "r"), ("lr", "rl")]
        joins = [("l", "r"), ("rl", "lr")]
    else:
        sequences = ["", "l", "r", "lr", "rl"]
        meets = [("l", "r")]
        joins = [("l", "r")]

    oracles: dict[str, LogicOracle] = {}
    nodes: list[LatticeNode] = []
    for seq in sequences:
        node_id = seq or "base"
        oracle = derive_sequence(base_oracle, seq)
        oracles[node_id] = oracle
        nodes.append(
            LatticeNode(
                node_id=node_id,
                label=oracle.label,
                kind="tower",
                sequence=seq,
                parts=(),
                canonical=canonicalize_sequence(seq, has_antitheorems),
                computed=True,
                antitheorem_status=oracle.antitheorem_info.status,
            )
        )
    for left_id, right_id in meets:
        node_id = f"meet({left_id},{right_id})"
        oracle = intersect(oracles[left_id], oracles[right_id])
        oracles[node_id] = oracle
        expected = None
        if (left_id, right_id) == ("l", "r") and not has_antitheorems:
            expected = "lr"
        nodes.append(
            LatticeNode(
                node_id=node_id,
                label=oracle.label,
                kind="meet",
                sequence=None,
                parts=(left_id, right_id),
                canonical=None,
                computed=True,
                antitheorem_status=oracle.antitheorem_info.status,
                expected_equal=expected,
            )
        )
    formal_edges: list[tuple[str, str]] = []
    for left_id, right_id in joins:
        node_id = f"join({left_id},{right_id})"
        nodes.append(
            LatticeNode(
                node_id=node_id,
                label=f"join of {left_id} and {right_id}",
                kind="join",
                sequence=None,
                parts=(left_id, right_id),
                canonical=None,
                computed=False,
                antitheorem_status=None,
            )
        )
        formal_edges.append((left_id, node_id))
        formal_edges.append((right_id, node_id))

    computed_ids = [n.node_id for n in nodes if n.computed]
    pairs = [
        (id_a, id_b)
        for pos, id_a in enumerate(computed_ids)
        for id_b in computed_ids[pos + 1:]
    ]
    oracle_pairs = [(oracles[id_a], oracles[id_b]) for id_a, id_b in pairs]
    oracle_pairs += extra_pairs
    verdicts = _vector_verdicts(oracle_pairs, fragment, max_witnesses)
    extra_verdicts = verdicts[len(pairs):]
    verdicts = verdicts[:len(pairs)]
    pair_index = {pair: index for index, pair in enumerate(pairs)}
    if not no_verdict_cycles(verdicts):
        raise LatticeError("pairwise verdicts form a cycle; engine inconsistency")

    parent: dict[str, str] = {node_id: node_id for node_id in computed_ids}

    def find(node_id: str) -> str:
        while parent[node_id] != node_id:
            parent[node_id] = parent[parent[node_id]]
            node_id = parent[node_id]
        return node_id

    for (id_a, id_b), index in pair_index.items():
        if verdicts[index].relation == "equal":
            root_a, root_b = find(id_a), find(id_b)
            if root_a != root_b:
                keep, drop = sorted(
                    (root_a, root_b), key=computed_ids.index
                )
                parent[drop] = keep
    groups: dict[str, list[str]] = {}
    for node_id in computed_ids:
        groups.setdefault(find(node_id), []).append(node_id)
    equal_groups = tuple(tuple(groups[root]) for root in groups)
    representatives = list(groups)

    below = {
        (id_a, id_b) if v.relation == "strictly-below" else (id_b, id_a)
        for (id_a, id_b), v in zip(pairs, verdicts)
        if v.relation in ("strictly-below", "strictly-above")
    }

    hasse: list[tuple[str, str]] = []
    for lo in representatives:
        for hi in representatives:
            if lo == hi or (lo, hi) not in below:
                continue
            if any(
                (lo, mid) in below and (mid, hi) in below
                for mid in representatives
                if mid not in (lo, hi)
            ):
                continue
            hasse.append((lo, hi))

    node_by_id = {n.node_id: n for n in nodes}
    unresolved: list[tuple[str, str, str]] = []
    for (id_a, id_b), index in pair_index.items():
        if verdicts[index].relation != "equal":
            continue
        node_a, node_b = node_by_id[id_a], node_by_id[id_b]
        expected = (
            node_a.canonical is not None
            and node_a.canonical == node_b.canonical
        ) or (
            node_b.expected_equal is not None
            and find(node_b.expected_equal) == find(id_a)
        ) or (
            node_a.expected_equal is not None
            and find(node_a.expected_equal) == find(id_b)
        )
        if not expected:
            unresolved.append(
                (id_a, id_b, "equal on fragment; not forced by the rewrite rules")
            )

    return LatticeReport(
        base_label=base_label,
        fragment=fragment,
        trivial_base=False,
        base_antitheorems=info.status,
        nodes=tuple(nodes),
        verdicts=tuple(verdicts),
        pair_index=pair_index,
        equal_groups=equal_groups,
        hasse_edges=tuple(hasse),
        formal_edges=tuple(formal_edges),
        unresolved=tuple(unresolved),
        extra_verdicts=tuple(extra_verdicts),
    )


# ---------------------------------------------------------------------------
# Witness suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimResult:
    label: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"  {mark} {self.label}{suffix}"


@dataclass
class SuiteReport:
    base_label: str
    claims: tuple[ClaimResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.claims)

    def render(self) -> str:
        lines = [f"witness suite over {self.base_label}"]
        lines.extend(c.render() for c in self.claims)
        lines.append(f"  result: {'all claims hold' if self.ok else 'FAILURES present'}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "base": self.base_label,
            "claims": [
                {"label": c.label, "passed": c.passed, "detail": c.detail}
                for c in self.claims
            ],
            "ok": self.ok,
        }


def _apply_term(term: Formula, first: Formula, second: Formula) -> Formula:
    """Instantiate a two-variable term at the given arguments."""
    from .formulas import substitute
    from .plonka import partition_variables

    left_name, right_name = partition_variables(term)
    return substitute(term, {left_name: first, right_name: second})


def _claim(
    label: str,
    inference: Inference,
    checks: Sequence[tuple[LogicOracle, bool]],
) -> ClaimResult:
    details = []
    passed = True
    for oracle, expected in checks:
        got = oracle.entails(inference.premises, inference.conclusion)
        if got != expected:
            passed = False
        details.append(f"{oracle.label}: {'yes' if got else 'no'}")
    return ClaimResult(
        label=f"{label}: {inference}",
        passed=passed,
        detail="; ".join(details),
    )


def witness_suite(
    base: Sequence[FiniteMatrix] | FiniteMatrix,
    partition_term: Formula,
    sigma: AntitheoremWitness | Iterable[Formula] | None = None,
    base_label: str = "base",
) -> SuiteReport:
    """Evaluate the exact proof inferences against the towers they separate.

    ``sigma`` must be given exactly when the base logic has an explosive
    premise set; it is verified before use.  The suite instantiates every
    separation claim with the concrete partition term and sigma, queries the
    real oracles, and reports pass/fail per claim.
    """
    matrices = (base,) if isinstance(base, FiniteMatrix) else tuple(base)
    base_oracle = MatrixOracle(matrices, label=base_label)
    info = base_oracle.antitheorem_info
    if sigma is None and info.status == WITNESS:
        raise LatticeError(
            "base has an explosive premise set; pass it as sigma"
        )
    if sigma is not None:
        witness = (
            sigma
            if isinstance(sigma, AntitheoremWitness)
            else AntitheoremWitness(frozenset(sigma))
        )
        if info.status == NONE_PROVEN:
            raise LatticeError("base provably has no explosive premise sets")
        if not witness.verify(base_oracle):
            raise LatticeError("sigma fails the explosive-premise-set check")
    else:
        witness = None

    term = partition_term
    x, y = var("x"), var("y")
    z = var("z")
    pi_xy = _apply_term(term, x, y)
    towers = {
        seq: derive_sequence(base_oracle, seq)
        for seq in ("l", "r", "lr", "rl", "rlr", "rlrl")
    }
    claims: list[ClaimResult] = []

    claims.append(
        _claim(
            "bundled premise flows right, not left",
            Inference((pi_xy,), x),
            [(towers["r"], True), (towers["l"], False)],
        )
    )
    claims.append(
        _claim(
            "bare variable flows left, not right",
            Inference((x,), pi_xy),
            [(towers["l"], True), (towers["r"], False)],
        )
    )

    one_var = FragmentSpec(variables=("x",), max_depth=2, max_premises=1)
    theorem = has_theorem_in_fragment(base_oracle, one_var)
    if theorem is not None:
        claims.append(
            _claim(
                "theorems force the depth-2 towers apart",
                Inference((pi_xy,), theorem),
                [(towers["lr"], True), (towers["rl"], False)],
            )
        )

    if witness is not None:
        sigma_sorted = tuple(sorted(witness.formulas, key=str))
        forward = Inference(sigma_sorted, pi_xy)
        claims.append(
            _claim(
                "explosive set flows right-then-left only",
                forward,
                [(towers["rl"], True), (towers["lr"], False)],
            )
        )
        backward_premises = (y,) + tuple(
            _apply_term(term, member, z) for member in sigma_sorted
        )
        backward = Inference(backward_premises, _apply_term(term, y, z))
        claims.append(
            _claim(
                "bundled explosive instances flow left-then-right only",
                backward,
                [(towers["lr"], True), (towers["rl"], False)],
            )
        )
        meet = intersect(towers["l"], towers["r"])
        claims.append(
            _claim(
                "meet of the one-step towers exceeds left-then-right",
                forward,
                [(meet, True), (towers["lr"], False)],
            )
        )
        claims.append(
            _claim(
                "meet of the one-step towers exceeds right-then-left",
                backward,
                [(meet, True), (towers["rl"], False)],
            )
        )
        deep_premises = (_apply_term(term, y, z),) + sigma_sorted
        deep = Inference(deep_premises, _apply_term(term, y, x))
        claims.append(
            _claim(
                "three-step tower strictly exceeds the four-step tower",
                deep,
                [(towers["rlr"], True), (towers["rlrl"], False)],
            )
        )

    return SuiteReport(base_label=base_label, claims=tuple(claims))


# ---------------------------------------------------------------------------
# Bundled reproduction reports
# ---------------------------------------------------------------------------


@dataclass
class ReproductionReport:
    figure: int
    claims: tuple[ClaimResult, ...]
    lattice: LatticeReport
    suite: SuiteReport | None = None

    @property
    def ok(self) -> bool:
        suite_ok = self.suite.ok if self.suite is not None else True
        return suite_ok and all(c.passed for c in self.claims)

    def render(self) -> str:
        lines = [f"reproduction report, figure {self.figure}"]
        lines.append(self.lattice.render())
        if self.suite is not None:
            lines.append(self.suite.render())
        lines.append("claims:")
        lines.extend(c.render() for c in self.claims)
        lines.append(f"overall: {'CONFIRMED' if self.ok else 'FAILED'}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "figure": self.figure,
            "lattice": self.lattice.to_json(),
            "suite": self.suite.to_json() if self.suite is not None else None,
            "claims": [
                {"label": c.label, "passed": c.passed, "detail": c.detail}
                for c in self.claims
            ],
            "ok": self.ok,
        }


def _verdict_claim(
    report: LatticeReport, id_a: str, id_b: str, expected: str, label: str
) -> ClaimResult:
    verdict = report.verdict(id_a, id_b)
    return ClaimResult(
        label=label,
        passed=verdict.relation == expected,
        detail=f"{id_a} vs {id_b}: {verdict.relation_display}",
    )


def reproduce_figure(
    figure: int,
    fragment: FragmentSpec = DEFAULT_FRAGMENT,
) -> ReproductionReport:
    """Run one of the three bundled lattice reports.

    1: the two-connective base without explosive premise sets.
    2: the full three-connective base; separation claims for every tower
       pair.  Its claim of a strict gap between the three-step tower and the
       meet of the depth-2 towers is reported as failing: over this base the
       two relations are provably equal.
    3: the full base again, with each tower cross-checked against its chain
       matrix counterpart on the whole fragment.

    The extra equality claims of figures 2 and 3 (the four-step towers, and
    in figure 3 the chain matrices) are ``build_lattice``'s extra pairs, so
    one vector context serves the lattice and the claims.  The chain
    matrices leave the lattice verdicts unchanged.  A formula class is a
    variable set plus a designation pattern in every matrix.  Over CL, with
    two elements and {1} designated, the pattern is the term function.  Two
    formulas of one CL class therefore have the same variables and the same
    term function over CL, so they form a regular identity of CL.  A chain
    matrix is a Płonka sum of CL and one-element algebras, so every regular
    identity of CL holds in it, and the two formulas have one term function,
    hence one designation pattern, there too.  So the chain matrices split
    no CL class, and the lattice's counts and witnesses are those of CL
    alone.
    """
    from .presets import b2_and_or_matrix, b2_matrix, pi_term, sigma_set

    term = pi_term()
    if figure == 1:
        base = b2_and_or_matrix()
        report = build_lattice(base, term, fragment, base_label="CL[and,or]")
        suite = witness_suite(base, term, base_label="CL[and,or]")
        claims = [
            ClaimResult(
                "base has no explosive premise sets",
                report.base_antitheorems == NONE_PROVEN,
                f"status: {report.base_antitheorems}",
            ),
            _verdict_claim(
                report, "l", "r", "incomparable",
                "one-step towers are incomparable",
            ),
            _verdict_claim(
                report, "lr", "meet(l,r)", "equal",
                "left-then-right equals the meet of the one-step towers",
            ),
            _verdict_claim(
                report, "lr", "l", "strictly-below",
                "left-then-right sits strictly below left",
            ),
            _verdict_claim(
                report, "lr", "r", "strictly-below",
                "left-then-right sits strictly below right",
            ),
            _verdict_claim(
                report, "rl", "lr", "strictly-below",
                "right-then-left sits strictly below left-then-right",
            ),
        ]
        for upper in ("base", "l", "r", "lr", "meet(l,r)"):
            verdict = report.verdict("rl", upper)
            claims.append(
                ClaimResult(
                    f"right-then-left below every tower: vs {upper}",
                    verdict.relation in ("strictly-below", "equal"),
                    verdict.relation_display,
                )
            )
        for node in report.nodes:
            if node.computed and node.antitheorem_status != NONE_PROVEN:
                claims.append(
                    ClaimResult(
                        f"node {node.node_id} free of explosive premise sets",
                        False,
                        f"status: {node.antitheorem_status}",
                    )
                )
        return ReproductionReport(1, tuple(claims), report, suite)

    if figure in (2, 3):
        base = b2_matrix()
        base_oracle = MatrixOracle((base,), label="CL")
        checks = []  # (claim label, detail prefix, oracle pair)
        for left_seq, right_seq, label in (
            ("rlrl", "lrl", "four-step towers coincide"),
            ("rlrll", "lrll", "four-step towers coincide after a left step"),
            ("rlrlr", "lrlr", "four-step towers coincide after a right step"),
            ("lrlr", "lrl", "extra right step is absorbed after four steps"),
        ):
            towers = (
                derive_sequence(base_oracle, left_seq),
                derive_sequence(base_oracle, right_seq),
            )
            checks.append((label, f"{left_seq} vs {right_seq}: ", towers))
        if figure == 3:
            for seq in ("", "l", "r", "lr", "rl", "rlr", "lrl"):
                name = seq or "base"
                chain = canonical_chain_matrix(base, seq)
                chain_oracle = MatrixOracle((chain,), label=f"chain[{name}]")
                towers = (derive_sequence(base_oracle, seq), chain_oracle)
                checks.append((f"tower {name} matches its chain matrix", "", towers))
        report = build_lattice(
            base, term, fragment, base_label="CL",
            extra_pairs=[towers for _, _, towers in checks],
        )
        suite = witness_suite(base, term, sigma=sigma_set(), base_label="CL")
        claims = [
            ClaimResult(
                "base has an explosive premise set",
                report.base_antitheorems == WITNESS,
                f"status: {report.base_antitheorems}",
            ),
            _verdict_claim(
                report, "lr", "rl", "incomparable",
                "depth-2 towers are incomparable",
            ),
            _verdict_claim(
                report, "lr", "meet(l,r)", "strictly-below",
                "left-then-right strictly below the meet of the one-step towers",
            ),
            _verdict_claim(
                report, "rl", "meet(l,r)", "strictly-below",
                "right-then-left strictly below the meet of the one-step towers",
            ),
            _verdict_claim(
                report, "rlr", "lr", "strictly-below",
                "three-step tower strictly below left-then-right",
            ),
            _verdict_claim(
                report, "rlr", "rl", "strictly-below",
                "three-step tower strictly below right-then-left",
            ),
            _verdict_claim(
                report, "rlr", "meet(lr,rl)", "strictly-below",
                "three-step tower strictly below the meet of the depth-2 towers",
            ),
            _verdict_claim(
                report, "lrl", "rlr", "strictly-below",
                "four-step tower strictly below the three-step tower",
            ),
        ]
        claims.extend(
            ClaimResult(
                label, verdict.relation == "equal", prefix + verdict.relation_display
            )
            for (label, prefix, _), verdict in zip(checks, report.extra_verdicts)
        )
        return ReproductionReport(figure, tuple(claims), report, suite)

    raise LatticeError(f"no bundled report numbered {figure}")
