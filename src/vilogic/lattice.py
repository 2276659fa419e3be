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
    representatives is the first disagreement overall.  A premise row is a
    set of at most ``max_premises`` classes.  Towers are evaluated with
    numpy bit-set arithmetic instead of per-query oracle calls, and
    interpreted structurally: a left step intersects the premise projection
    mask with the conclusion's variable mask, a right step adds the
    variable-coverage test and the fresh-variable (explosive premise set)
    branch, and matrix leaves reduce to bit tests against per-valuation
    designation sets.
    One run compares any number of pairs on one context.  Its outer loop
    runs over chunks of at most 8 conclusion classes with one variable mask
    t.  A chunk reads a premise row at the masks F (full), t and 0 only,
    through its component at each: the AND of its members' designation
    rows there and the OR of their variable masks.  So the walk runs on the
    rows' states, the distinct component triples, with one answer bit per
    class in a byte per state, and a DP counts the rows on each state; over
    CL, 1.2 M rows at ``premises=4`` fall on at most 1,136 states.  The
    full mask's components are found breadth first from the empty set's,
    each block of candidates looked up in one sorted index of the known
    components' keys.  Every other mask I filters that one table: the sets
    on a full component all share its variable mask, so they lie inside I
    exactly when it does, and such a component is first reached at the
    same level at I as at F.  One memo per chunk, shared by every pair,
    holds each subtree's answers.

Witness selection is deterministic: premise subsets are enumerated by
ascending size then combination order, conclusions in fragment enumeration
order, and the vector engine reports the first structurally distinct
disagreements in exactly that order.  It tallies a chunk per pair and side
on its states: each state's rows times its disagreeing bits gives the
number of disagreeing (row, class) pairs, a float64 product while every
sum stays below 2**53 (so exact), an int64 one past that.  A descent
through the states finds the chunk's first ``max_witnesses`` disagreeing
rows in row order, which hold at least its first ``max_witnesses`` pairs.
The pairs of all chunks are then sorted and capped, which leaves the
first ``max_witnesses`` overall.  Every witness leaving this module is
re-validated against the real oracles before it is reported.
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
    matrices: Sequence[FiniteMatrix], formulas: Sequence[Formula], variables: Sequence[str]
) -> list[np.ndarray]:
    """Per matrix, the (n_formulas, n_valuations) designation table,
    valuations in product order.

    Element positions are evaluated one run at a time: a run of consecutive
    formulas with one depth and one head takes one fancy index into the
    head's table, and a constant's run broadcasts its table value.
    ``enumerate_fragment`` emits one run per depth and connective.  A
    formula's arguments must be variables or earlier formulas.  The runs'
    argument rows are found once, for every matrix.
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
        values[n_formulas:] = _valuation_grid(n, k)
        for start, stop, head, args in runs:
            if head is None:
                values[start:stop] = values[args]
            else:
                values[start:stop] = tables[head][tuple(values[column] for column in args)]
        out.append(matrix.designated_bools[values[:n_formulas]])
    return out


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


def _byte_mask(bools: np.ndarray) -> np.ndarray:
    """0xFF where ``bools`` is True, 0x00 elsewhere: one answer for every bit."""
    return bools.view(np.uint8) * np.uint8(0xFF)


_MIX = np.uint64(0x9E3779B97F4A7C15)


def _row_keys(conj: list[np.ndarray], masks: np.ndarray):
    """One ``uint64`` key per component row (``conj`` per matrix, ``masks``):
    its word columns mixed (xor, multiply, fold the high bits down), so
    equal rows get equal keys but distinct rows may share one."""
    key = np.zeros(len(masks), dtype=np.uint64)
    for column in [c[:, j] for c in conj for j in range(c.shape[1])] + [masks]:
        key ^= column
        key *= _MIX
        key ^= key >> np.uint64(29)
    return key


def _byte_keys(conj: list[np.ndarray], masks: np.ndarray):
    """One ``np.void`` key per row: its packed designation rows' bytes
    (``conj``, per matrix; padding bits are 0) and its variable mask, equal
    exactly when the rows are."""
    parts = [c.view(np.uint8) for c in conj]
    rows = np.hstack(parts + [masks.reshape(-1, 1).view(np.uint8)])
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


def _index_block(index: tuple[np.ndarray, np.ndarray], keys: np.ndarray, known: int):
    """Ids for a block of candidate ``keys`` against ``index``: the keys of
    the ``known`` components, ascending, and each one's id.

    A key not in the index gets the next free id, in the order of its first
    candidate.  Returns the candidates' ids, the first candidate holding each
    new id, and the index with the new keys merged in.
    """
    index_keys, index_ids = index
    order = np.argsort(keys)
    runs = np.append(_run_starts(keys[order]), len(keys))
    distinct = keys[order[runs[:-1]]]
    # Only the distinct keys, ascending: far faster than every candidate.
    at = np.searchsorted(index_keys, distinct)
    run_ids = index_ids.take(at, mode="clip")
    new = np.flatnonzero(index_keys.take(at, mode="clip") != distinct)
    first = np.minimum.reduceat(order, runs[:-1])[new]
    rank = np.argsort(first)
    run_ids[new[rank]] = np.arange(known, known + len(new))
    ids = np.empty(len(keys), dtype=np.int64)
    ids[order] = np.repeat(run_ids, np.diff(runs))
    merged = (
        np.insert(index_keys, at[new], distinct[new]),
        np.insert(index_ids, at[new], run_ids[new]),
    )
    return ids, first[rank], merged


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal sorted ``keys`` starts (``np.diff`` is slower)."""
    return np.flatnonzero(np.concatenate(([len(keys) > 0], keys[1:] != keys[:-1])))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, ascending.  Sorting beats ``np.unique``,
    whose hash table is slower on these integer keys and whose first call
    imports ``numpy.ma``."""
    values = np.sort(values)
    return values[_run_starts(values)]


def _group_sums(keys: np.ndarray, owner: np.ndarray, counts: np.ndarray, space: int):
    """The distinct ``keys`` (in ``range(space)``), ascending, each with the
    exact sum of ``counts[owner[i]]`` over its entries i.  A key and its
    owner are packed into one ``int64`` and sorted as values when they fit,
    several times faster than an argsort."""
    width = len(counts)
    if space * width < 1 << 63:
        keys, owner = np.divmod(np.sort(keys * width + owner), width)
    else:
        order = np.argsort(keys, kind="stable")
        keys, owner = keys[order], owner[order]
    starts = _run_starts(keys)
    if not len(starts):
        return keys, counts[:0]
    return keys[starts], np.add.reduceat(counts[owner], starts)


# Premise-row extensions (or component words) built at once: it bounds the
# temporaries of the count DP and the component build, not their work.
_GROW_BLOCK = 1 << 15
# The largest state-key space whose row counts are summed in one dense array
# (16 MB), when it is at most 4x the entries summed: sorting wins past that.
_DENSE_KEYS = 1 << 21
# float64 holds every integer below this exactly.
_FLOAT_EXACT = 1 << 53


@dataclass
class _Components:
    """What the walk reads of premise sets at one variable mask I: per
    component, the AND per matrix of the packed designation rows of the
    members inside I (``conj``) and the OR of their variable masks
    (``vmask``).  Component 0 is the empty set's.  ``trans[a, c]`` is a's
    component after adding class c (a itself for c outside I), for every
    component first reached with fewer than ``max_size`` members."""

    conj: list[np.ndarray]
    vmask: np.ndarray
    trans: np.ndarray


class _StateSpace:
    """The premise-row states that the chunks of one conclusion mask t read.

    A row's state key is the mixed-radix code of its component ids at the
    masks F, t and 0 (see :class:`_VectorContext`), but for a mask with one
    component.  ``keys`` holds every key a row reaches, ascending, and a
    state's id is its position there; ``ids[I]`` gives each state's
    component id at mask I, and ``counts[size, s]`` the exact number of
    rows of ``size`` members on state s.  A DP over (state, largest member)
    groups counts them: a group grows only by the classes above its largest
    member, as rows do in ``combinations`` order, so it counts each row
    once and touches no more entries than there are rows."""

    def __init__(self, context: "_VectorContext", tmask: int):
        self.tmask = tmask
        self.n_classes = n = context.n_classes
        masks = tuple(dict.fromkeys((context.full_mask, tmask, 0)))
        # A mask with one component (no class inside) adds nothing to a key.
        keyed = [m for m in masks if m == masks[0] or len(context.components(m).vmask) > 1]
        components = [context.components(vmask) for vmask in keyed]
        radix = [len(comps.vmask) for comps in components]
        place = [math.prod(radix[j + 1:]) for j in range(len(radix))]
        self.key_space = math.prod(radix)
        self.digits = list(zip(place, radix))
        if self.key_space * (n + 1) >= 1 << 63:
            raise LatticeError("too many premise-set components to number in 64 bits")
        # Per mask, each extended component's transitions as key shares.
        self.steps = [c.trans.astype(np.int64) * d for c, d in zip(components, place)]
        # Per size, the distinct state keys its rows reach and their counts.
        levels = [(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))]
        key, count = levels[0]
        last = np.full(1, -1, dtype=np.int64)
        for size in range(1, context.max_size + 1):
            if size == context.max_size:
                levels.append(self._grow(key, last, count, 1))
            else:
                groups, count = self._grow(key, last, count, n)
                key, last = np.divmod(groups, n)
                # Groups come sorted by state key: sum each run.
                starts = _run_starts(key)
                levels.append((key[starts], np.add.reduceat(count, starts)))
        self.keys = _distinct(np.concatenate([keys for keys, _ in levels]))
        self.counts = np.zeros((len(levels), len(self.keys)), dtype=np.int64)
        for size, (keys, counts) in enumerate(levels):
            self.counts[size, np.searchsorted(self.keys, keys)] = counts
        covered = int(self.counts.sum())
        if covered != context.n_premise_rows:
            raise LatticeError(
                f"state counts cover {covered} premise rows of mask {tmask}, "
                f"not {context.n_premise_rows}"
            )
        # Tally weights: a chunk marks at most 8 classes per row, so every
        # partial sum of a tally is at most 8 * rows, and a float64 product,
        # faster than an int64 one, is exact below 2**53.
        exact = 8 * context.n_premise_rows < _FLOAT_EXACT
        self.weights = self.counts.astype(np.float64) if exact else self.counts
        self.ids = dict.fromkeys(masks, np.zeros(len(self.keys), dtype=np.int64))
        self.ids.update(zip(keyed, self.decode(self.keys)))
        self.fresh: dict[tuple, np.ndarray] = {}
        # The empty set's state is 0; its states after adding each class.
        self.root = self._grown(np.zeros(1, dtype=np.intp))[0]

    def decode(self, keys: np.ndarray) -> list[np.ndarray]:
        """Per mask, the component ids of state ``keys``."""
        return [keys // place % radix for place, radix in self.digits]

    def _grow(self, key, last, count, stride: int):
        """Every group grown by each class above its largest member.

        Returns the distinct grown keys with their row counts.  A key is
        ``stride * state key + added class`` when ``stride`` is
        ``n_classes``, and the state key when it is 1.  Groups are grown
        ``_GROW_BLOCK`` rows at a time and the blocks' sums merged.
        """
        n = self.n_classes
        rows = [ids * n for ids in self.decode(key)]
        # A group's entries add the classes above its largest member, so its
        # run ends on class n - 1: entry e adds class e - ends[group] + n.
        reps = n - 1 - last
        ends = np.cumsum(reps)
        space = self.key_space * stride
        dense = None
        if stride == 1 and space <= min(_DENSE_KEYS, 4 * int(ends[-1])):
            dense = np.zeros(space, dtype=np.int64)
        parts = []
        lo = 0
        while lo < len(key):
            done = int(ends[lo - 1]) if lo else 0
            hi = max(int(np.searchsorted(ends, done + _GROW_BLOCK, side="right")), lo + 1)
            block = reps[lo:hi]
            added = np.arange(done, int(ends[hi - 1])) - np.repeat(ends[lo:hi] - n, block)
            grown = sum(
                step.take(np.repeat(row[lo:hi], block) + added)
                for row, step in zip(rows, self.steps)
            )
            if dense is not None:
                np.add.at(dense, grown, np.repeat(count[lo:hi], block))
            else:
                if stride != 1:
                    grown = grown * stride + added
                owner = np.repeat(np.arange(lo, hi), block)
                parts.append(_group_sums(grown, owner, count, space))
            lo = hi
        if dense is not None:
            keys = np.flatnonzero(dense)
            return keys, dense[keys]
        if len(parts) == 1:
            return parts[0]
        keys = np.concatenate([keys for keys, _ in parts])
        sums = np.concatenate([sums for _, sums in parts])
        return _group_sums(keys, np.arange(len(keys)), sums, space)

    def _grown(self, states: np.ndarray) -> np.ndarray:
        """Each of ``states`` after adding every class: a ``(len(states),
        n_classes)`` table of state ids."""
        ids = self.decode(self.keys[states])
        keys = sum(step[comp] for comp, step in zip(ids, self.steps))
        return np.searchsorted(self.keys, keys)

    def tally(self, only: np.ndarray) -> np.ndarray:
        """Per size, the (row, class) pairs marked by ``only``'s bits: each
        state's rows times its set bits, exact in either dtype."""
        return self.weights @ np.bitwise_count(only)

    def witnesses(self, only: np.ndarray, chunk: tuple[int, ...], sizes, cap: int):
        """``(size, members, class)`` for every bit of ``only`` set on the
        first ``cap`` rows of the given ascending sizes with any bit set."""
        rows: list[tuple[tuple[int, ...], int]] = []
        bad = only != 0
        for size in sizes:
            if len(rows) < cap:
                rows += self.first_rows(bad, size, cap - len(rows))
        return [
            (len(members), members, target)
            for members, state in rows
            for bit, target in enumerate(chunk)
            if only[state] >> bit & 1
        ]

    def first_rows(self, bad: np.ndarray, size: int, cap: int):
        """The first ``cap`` rows of ``size`` members, in ``combinations``
        order, on a state where ``bad`` holds: ``(members, state)`` pairs.
        ``reach[r][s]`` is the largest class c such that a set on state s
        can end on a bad state by adding c and then r - 1 classes above c;
        -1 when none can.  So a set with largest member m has a completion
        exactly when ``reach[r][s] > m``, and the descent, taking the
        smallest class that keeps one, never enters a dead branch.
        """
        if size == 0:
            return [((), 0)] if bad[0] else []
        n = self.n_classes
        classes = np.arange(n)
        reach = [np.where(bad, n, -1)]
        block = max(1, _GROW_BLOCK // n)
        for r in range(1, size):
            states = np.flatnonzero(self.counts[size - r])
            top = np.full(len(self.keys), -1)
            for lo in range(0, len(states), block):
                part = states[lo:lo + block]
                ok = reach[-1][self._grown(part)] > classes
                has = ok.any(axis=1)
                top[part[has]] = n - 1 - np.argmax(ok[has, ::-1], axis=1)
            reach.append(top)
        found: list[tuple[tuple[int, ...], int]] = []
        # Depth first, smallest class first: sets to extend, the next on top.
        # A loop, not a recursive closure, which would keep ``self`` alive
        # in a reference cycle until the cyclic collector runs.
        stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
        while stack and len(found) < cap:
            state, members = stack.pop()
            left = size - len(members)
            if not left:
                found.append((members, state))
                continue
            row = self._grown(np.array([state]))[0] if members else self.root
            start = members[-1] + 1 if members else 0
            keep = np.flatnonzero(reach[left - 1][row[start:]] > classes[start:]) + start
            # Each class kept leads to a row, so later ones are never reached.
            keep = keep[: cap - len(found)].tolist()
            stack.extend((int(row[c]), members + (c,)) for c in reversed(keep))
        return found


class _VectorContext:
    """Shared numpy state for comparing towers over one matrix collection.

    A chunk of conclusion classes with mask t reads premise rows at three
    variable masks only: the full mask F, where every walk starts; t,
    because a left step meets the premise mask with t and a right step
    keeps it; and 0, where the fresh answers after a left step are read.
    At each mask a row is read through its component there
    (:class:`_Components`), so the walk runs on the rows' states
    (:class:`_StateSpace`), never on rows.  Memory: every mask's components
    live for the context's life, and only the state space of the mask being
    walked is held; none of it grows with the number of premise rows.
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
        self.fmask = np.array(
            _variable_masks(self.formulas, self.variables), dtype=np.int64
        )
        self.des_bool = _designation_bools(self.matrices, self.formulas, self.variables)
        packed = [_pack_rows(db) for db in self.des_bool]

        # A class's formulas share their variable mask and designation rows,
        # so their byte keys.  Its first formula represents it, and classes
        # are numbered in that order.
        keys = _byte_keys(packed, self.fmask)
        order = np.argsort(keys, kind="stable")
        reps = np.sort(order[_run_starts(keys[order])])
        self.n_classes = len(reps)
        self.rep_index = reps
        self.rep_mask = self.fmask[reps].astype(np.min_scalar_type(self.full_mask))
        self.rep_packed = [p[reps] for p in packed]
        self.rep_not_packed = [_pack_rows(~db[reps]) for db in self.des_bool]
        self.all_designated = [not m.constrains for m in self.matrices]

        self.max_size = min(fragment.max_premises, self.n_classes)
        self.n_premise_rows = sum(
            math.comb(self.n_classes, size) for size in range(self.max_size + 1)
        )
        if self.n_premise_rows >= 1 << 60:  # a chunk's pairs must fit an int64
            raise LatticeError(f"{self.n_premise_rows} premise rows are too many to count")
        self._components: dict[int, _Components] = {}

    def components(self, vmask: int) -> _Components:
        """The components at ``vmask``, built on first use.  The full mask's
        are found breadth first by their rows, through one sorted index of
        their keys (:meth:`_grow_components`); any other mask's are the full
        components whose variable mask lies inside ``vmask``, in ascending
        full id, with transitions read off the full table.  The sets on a
        full component all share its variable mask, so they lie inside
        ``vmask`` exactly when it does; and such a component is first reached
        at the same level there as at F, so it has a ``trans`` row in both
        tables or in neither, and breadth-first ids keep its order."""
        cached = self._components.get(vmask)
        if cached is None:
            if vmask == self.full_mask:
                cached = self._full_components()
            else:
                cached = self._restricted_components(vmask)
            self._components[vmask] = cached
        return cached

    def _restricted_components(self, vmask: int) -> _Components:
        full = self.components(self.full_mask)
        ids = np.flatnonzero((full.vmask | vmask) == vmask)
        local = np.zeros(len(full.vmask), dtype=np.int32)
        local[ids] = np.arange(len(ids))
        rows = ids[ids < len(full.trans)]
        # A class inside vmask takes a kept component to a kept one, so
        # ``local`` is read only at kept ids.
        inside = (self.rep_mask | vmask) == vmask
        trans = np.where(inside, local[full.trans[rows]], local[rows, None])
        return _Components([c[ids] for c in full.conj], full.vmask[ids], trans)

    def _full_components(self) -> _Components:
        """The full mask's components, keyed by :func:`_row_keys`.  Every
        candidate is checked against the component its key names; when two
        distinct rows share a hash key, the build starts again keyed by
        whole row bytes (:func:`_byte_keys`), so no result rests on a hash."""
        for key_of in (_row_keys, _byte_keys):
            built = self._grow_components(key_of)
            if built is not None:
                return built
        raise LatticeError("a whole-byte component key named another row")

    def _grow_components(self, key_of) -> _Components | None:
        """The full mask's components, or None when a candidate's key names
        a component with another row.  Each block of candidates is looked
        up in one sorted index of the known components' keys, kept across
        blocks (:func:`_index_block`); new components are numbered in the
        order of their first candidate."""
        n = self.n_classes
        conj = [_pack_rows(np.ones((1, db.shape[1]), dtype=bool)) for db in self.des_bool]
        masks = np.zeros(1, dtype=self.rep_mask.dtype)
        index = (key_of(conj, masks), np.zeros(1, dtype=np.int64))
        trans = []
        # Frontier components grown at once, so that a block's rows hold
        # about ``_GROW_BLOCK`` words.  Each level's frontier is the id
        # range of the components the level before it found.
        words = sum(p.shape[1] for p in self.rep_packed) + 1
        step = max(1, _GROW_BLOCK // (words * max(1, n)))
        start, stop = 0, 1
        for _ in range(self.max_size):
            for lo in range(start, stop, step):
                block = slice(lo, min(lo + step, stop))
                grown = [
                    (c[block, None] & p).reshape(-1, p.shape[1])
                    for c, p in zip(conj, self.rep_packed)
                ]
                grown_mask = (masks[block, None] | self.rep_mask).ravel()
                keys = key_of(grown, grown_mask)
                ids, new, index = _index_block(index, keys, len(masks))
                # ``take`` on axis 0: fancy indexing of 2-D rows is far slower.
                conj = [
                    np.concatenate([c, g.take(new, axis=0)]) for c, g in zip(conj, grown)
                ]
                masks = np.concatenate([masks, grown_mask[new]])
                if not np.array_equal(masks[ids], grown_mask) or not all(
                    np.array_equal(c.take(ids, axis=0), g) for c, g in zip(conj, grown)
                ):
                    return None
                trans.append(ids.reshape(-1, n).astype(np.int32))
            start, stop = stop, len(masks)
        if not trans:
            trans.append(np.zeros((1, n), dtype=np.int32))
        return _Components(conj, masks, np.vstack(trans))

    # -- tree evaluation -----------------------------------------------------

    def _leaf_real(
        self, matrix_ids: tuple[int, ...], vmask: int, chunk: tuple[int, ...], space
    ) -> np.ndarray:
        """Bit i of each state: the leaf's answer for class ``chunk[i]``.

        In one matrix a set entails a class when every valuation that
        designates all its members designates the class too.  The bits are
        built and ANDed across the leaf's matrices on the components at
        vmask, then read for every state.

        Packed rows carry padding bits past the last valuation.  They are 0
        in every row, the empty set's component included, so they never
        change an answer or tell two components apart.
        """
        comps = self.components(vmask)
        fails = np.zeros(len(comps.vmask), dtype=np.uint8)
        for m in matrix_ids:
            conj, rep_not = comps.conj[m], self.rep_not_packed[m]
            for bit, target in enumerate(chunk):
                bad = _nonzero_rows(conj & rep_not[target])
                fails |= bad.view(np.uint8) << np.uint8(bit)
        return np.invert(fails).take(space.ids[vmask])

    def fresh_answers(self, tree, vmask: int, space: _StateSpace) -> np.ndarray:
        """Answers for a conclusion variable foreign to the whole fragment.

        One byte per state, 0xFF or 0x00, so it serves every class of a
        chunk at once.  The result is cached on ``space``: never write into
        it.
        """
        cached = space.fresh.get((tree, vmask))
        if cached is not None:
            return cached
        tag = tree[0]
        if tag == "leaf":
            comps = self.components(vmask)
            satisfiable = np.zeros(len(comps.vmask), dtype=bool)
            for m in tree[1]:
                if not self.all_designated[m]:
                    satisfiable |= _nonzero_rows(comps.conj[m])
            out = _byte_mask(~satisfiable).take(space.ids[vmask])
        elif tag == "l":
            out = self.fresh_answers(tree[1], 0, space)
        elif tag == "r":
            out = self.fresh_answers(tree[1], vmask, space)
        else:
            out = self.fresh_answers(tree[1][0], vmask, space) & self.fresh_answers(
                tree[1][1], vmask, space
            )
        space.fresh[(tree, vmask)] = out
        return out

    def chunks(self) -> list[tuple[int, ...]]:
        """Conclusion classes grouped by variable mask, at most 8 per group.

        Classes ascend within a group.  Groups of one mask follow each
        other, and masks come in the order of their first class, so one
        mask's state space serves all its chunks in one stretch.
        """
        by_mask: dict[int, list[int]] = {}
        for target, tmask in enumerate(self.rep_mask.tolist()):
            by_mask.setdefault(tmask, []).append(target)
        return [
            tuple(targets[i:i + 8])
            for targets in by_mask.values()
            for i in range(0, len(targets), 8)
        ]

    def chunk_answers(
        self, tree, chunk: tuple[int, ...], space: _StateSpace, memo: dict
    ) -> np.ndarray:
        """Answers of ``tree`` for a chunk of conclusion classes.

        One ``uint8`` per state of ``space``, the state space of the chunk's
        mask; bit i answers class ``chunk[i]``, and bits past the chunk's
        length are meaningless.  ``chunk`` comes from :meth:`chunks`, so its
        classes share one variable mask.  ``memo`` holds the answers of
        every (subtree, premise mask) walked for this chunk; pass the same
        dict for every tree walked for it.
        """
        return self._walk(tree, self.full_mask, chunk, space, memo)

    def chunk_mask(self, chunk: tuple[int, ...]) -> int:
        """The variable mask that every class of ``chunk`` shares."""
        return int(self.rep_mask[chunk[0]])

    def _walk(
        self, node, vmask: int, chunk: tuple[int, ...], space: _StateSpace, memo: dict
    ) -> np.ndarray:
        # A method, not a closure: a self-referencing nested function would
        # keep the memo's arrays alive until the cyclic collector runs.
        # Memoized and cached answers are shared, so each in-place step
        # below writes into a new array.
        key = (node, vmask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        tag = node[0]
        tmask = space.tmask
        if tag == "leaf":
            out = self._leaf_real(node[1], vmask, chunk, space)
        elif tag == "l":
            out = self._walk(node[1], vmask & tmask, chunk, space, memo)
        elif tag == "r":
            covered = (self.components(vmask).vmask & tmask) == tmask
            out = _byte_mask(covered).take(space.ids[vmask])
            out &= self._walk(node[1], vmask, chunk, space, memo)
            out |= self.fresh_answers(node[1], vmask, space)
        else:
            out = self._walk(node[1][0], vmask, chunk, space, memo) & self._walk(
                node[1][1], vmask, chunk, space, memo
            )
        memo[key] = out
        return out

    def representative(self, c: int) -> Formula:
        return self.formulas[int(self.rep_index[c])]


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
    pairs contain it.  Each chunk is tallied per pair and side
    (:meth:`_StateSpace.tally`: each state's rows times its disagreeing
    bits, exact in float64 below 2**53 pairs and in int64 past that), and
    its first ``max_witnesses`` disagreeing rows each give at least one
    pair, so they hold its first ``max_witnesses`` pairs.  Each side's pairs are
    sorted and capped, and once a side holds ``max_witnesses`` no chunk is
    searched past the size of its last.
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
        space = None  # the last mask's states go before the next are built
        space = _StateSpace(context, tmask)
        for chunk in group:
            memo: dict = {}
            # Witnesses per (disagreement bytes, sizes): pairs share them.
            searched: dict = {}
            in_chunk = np.uint8((1 << len(chunk)) - 1)
            for (tree_a, tree_b), count, sides in zip(trees, counts, found):
                ans_a = context.chunk_answers(tree_a, chunk, space, memo)
                ans_b = context.chunk_answers(tree_b, chunk, space, memo)
                differ = (ans_a ^ ans_b) & in_chunk
                if not differ.any():
                    continue
                for side, mine in enumerate((ans_a, ans_b)):
                    only = differ & mine
                    by_size = space.tally(only)
                    count[side] += int(by_size.sum())
                    sizes = np.flatnonzero(by_size).tolist()
                    if not (sizes and max_witnesses):
                        continue
                    held = sides[side]
                    if len(held) >= max_witnesses:
                        held.sort()
                        del held[max_witnesses:]
                        sizes = [size for size in sizes if size <= held[-1][0]]
                    key = (only.tobytes(), tuple(sizes))
                    if key not in searched:
                        searched[key] = space.witnesses(only, chunk, sizes, max_witnesses)
                    held += searched[key]
    return [
        _verdict(
            a, b, fragment, "vector",
            *(_decode_witnesses(context, side, max_witnesses) for side in sides),
            tuple(count), context.formulas, extra_witnesses,
        )
        for (a, b), count, sides in zip(pairs, counts, found)
    ]


def _decode_witnesses(
    context: _VectorContext, found: list[tuple[int, tuple, int]], cap: int
) -> list[Inference]:
    found.sort()
    rep = context.representative
    return [
        Inference(tuple(map(rep, members)), rep(target))
        for _, members, target in found[:cap]
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
    # ``comb`` is 0 past the formula count, so a huge bound sums no more.
    top = min(fragment.max_premises, len(formulas))
    raw_sets = sum(math.comb(len(formulas), size) for size in range(top + 1))
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
