"""The vector engine: where two towers disagree on a finite fragment.

A tower is data over one list of matrices: ``("leaf", matrix ids)``,
``("l", t)``, ``("r", t)`` or ``("meet", (t, t))``.  The one entry point,
:func:`disagreements`, counts the fragment inferences on which the two
towers of each pair disagree and lists the first of them each way.

Formulas that no tower built from the matrices can tell apart (same
variable set, same designation pattern in every matrix under every
valuation of the fragment variables) form a class, found without building
the fragment's formulas: groups, the formulas of one depth with one
variable set and one value row per matrix, are enumerated instead
(:func:`_fragment_groups`), and a class is represented by its first group,
whose first formula is rebuilt only for a witness.  Over CL, the 2,781,264
formulas of three variables at depth 3 fall into 315 groups and 226
classes.  Two premise sets hitting the same classes get identical answers
from every tower, so the first disagreement over class representatives is
the first disagreement overall.  A premise row is a set of at most
``max_premises`` classes.

Towers are evaluated with numpy bit-set arithmetic instead of per-query
oracle calls, and interpreted structurally: a left step intersects the
premise projection mask with the conclusion's variable mask, a right step
adds the variable-coverage test and the fresh-variable (explosive premise
set) branch, and matrix leaves reduce to bit tests against per-valuation
designation sets.  The outer loop runs over chunks of at most 8 conclusion
classes with one variable mask, so a subtree is walked once per chunk
however many pairs contain it, and one memo per chunk, shared by every
pair, holds each subtree's answers.  A chunk reads a premise row at three
masks only (:class:`_VectorContext`), through its component at each, so
the walk runs on the rows' states, the distinct component triples, with
one answer bit per class in a byte per state.  Over CL, 1.2 M rows at
``premises=4`` fall on at most 1,160 states.  Masks with as many variables
(an orbit) share one state space (:class:`_StateSpace`): 3 spaces instead
of 7 over three variables, 4 instead of 15 over four.

Witnesses come in premise-row order (ascending size, then combination
order), then conclusion order.  Each chunk is tallied per pair and side on
its states (:meth:`_StateSpace.tally`), and a descent through the states
finds its first ``max_witnesses`` disagreeing rows in row order, which
hold at least its first ``max_witnesses`` pairs.  The pairs of all chunks
are then sorted and capped, which leaves the first ``max_witnesses``
overall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .formulas import Formula, FragmentSpec, Signature, var
from .matrices import FiniteMatrix, MatrixError, _valuation_grid

__all__ = ["LatticeError", "disagreements"]


class LatticeError(MatrixError):
    """A comparison or report request is invalid or internally inconsistent."""


def _pack_rows(bits: np.ndarray) -> list[np.ndarray]:
    """Bit rows (``(rows, bits)``) packed word-column-major: one contiguous
    1-D column per word, column j holding word j of every row, so that an
    AND or a zero test over many rows runs down whole columns instead of a
    1-2 word inner axis.

    A row of at most 8 bits is one ``uint8`` word, a longer one whole
    ``uint64`` words; its bits past the last one (the padding, in its last
    word) are 0.  Every packed designation array of the engine, and every
    component row built from them, is such a list of columns.
    """
    packed = np.packbits(bits, axis=1)
    if packed.shape[1] > 1:
        packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
    return list(np.ascontiguousarray(packed.T))


def _nonzero_rows(words: list[np.ndarray]) -> np.ndarray:
    """Per packed row (``words``, its columns): is any bit set?"""
    out = words[0] != 0
    for column in words[1:]:
        out |= column != 0
    return out


def _byte_mask(bools: np.ndarray) -> np.ndarray:
    """0xFF where ``bools`` is True, 0x00 elsewhere: one answer for every bit."""
    return bools.view(np.uint8) * np.uint8(0xFF)


_MIX = np.uint64(0x9E3779B97F4A7C15)


def _row_keys(conj: list[list[np.ndarray]], masks: np.ndarray):
    """One ``uint64`` key per component row (``conj``, per matrix its word
    columns, and ``masks``): its words mixed column by column (xor,
    multiply, fold the high bits down), so equal rows get equal keys but
    distinct rows may share one."""
    key = np.zeros(len(masks), dtype=np.uint64)
    for column in [column for c in conj for column in c] + [masks]:
        key ^= column
        key *= _MIX
        key ^= key >> np.uint64(29)
    return key


def _byte_keys(columns: list, masks: np.ndarray):
    """One ``np.void`` key per row: the bytes of its entries in ``columns``
    (per array, its columns: a list as :func:`_pack_rows` returns, or the
    rows of a 2-D array; padding bits are 0) and of its variable mask,
    equal exactly when the rows are."""
    # Row-major bytes: a copy of word columns, none of a transposed
    # row-major array.
    parts = [np.ascontiguousarray(np.transpose(c)).view(np.uint8) for c in columns]
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


def _append(store: np.ndarray, size: int, new: np.ndarray) -> None:
    """Write ``new`` after the first ``size`` entries (along axis 0) of
    ``store``.  A store too short grows in place to twice its length, or
    as much as it needs: a reallocation, so the known entries are neither
    copied by numpy nor held twice.  No view of ``store`` may be alive."""
    end = size + len(new)
    if end > len(store):
        store.resize((max(end, 2 * len(store)),) + store.shape[1:], refcheck=False)
    store[size:end] = new


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


def _renamed_masks(masks: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Variable masks with bit i moved to bit ``perm[i]``."""
    out = np.zeros_like(masks)
    for i, j in enumerate(perm):
        out |= (masks >> i & 1) << j
    return out


def _renaming(source: int, target: int, k: int) -> list[int]:
    """A permutation of k variables taking mask ``source`` onto ``target``
    (of as many variables): the variables inside each, and those outside,
    matched in ascending order."""
    inside = [[i for i in range(k) if mask >> i & 1] for mask in (source, target)]
    outside = [[i for i in range(k) if not mask >> i & 1] for mask in (source, target)]
    perm = [0] * k
    for a, b in zip(inside[0] + outside[0], inside[1] + outside[1]):
        perm[a] = b
    return perm


# Premise-row extensions built at once, and a quarter of the column entries
# a component block holds: it bounds the temporaries of the count DP and the
# component build, not their work.
_GROW_BLOCK = 1 << 15
# The largest key space times classes whose state space is numbered first
# and counted later, each size's (state, largest member) counts summed in a
# dense int64 table (16 MB); past it the sorted DP numbers and counts at
# once.  There, the last size's counts are summed in one dense array when
# the key space fits this bound and is at most 4x the entries summed:
# sorting wins past that.  Both forks stay because each was measured (2-CPU
# machine): counting every space by the sorted DP took the scale workload
# from 0.034 to 0.044 s, and numbering every space in a bitmap took figure
# 3's traced peak from 5.0 to 15.5 MB on its 1,280,654-key space.
_DENSE_KEYS = 1 << 21
# float64 holds every integer below this exactly.
_FLOAT_EXACT = 1 << 53
# The largest formula count, in bits, that a fragment may have: about
# 315,000 decimal digits, which over one variable is depth 19.
_COUNT_BITS = 1 << 20


@dataclass
class _Groups:
    """A fragment's formulas, grouped without building them.

    A group is the formulas of one depth with one variable mask (``masks``)
    and one value row per matrix (``values``: element positions under every
    valuation of the fragment variables, in product order).  Groups are
    numbered in the order of their first formula in
    :func:`enumerate_fragment`, and ``parents[g]`` rebuilds g's first
    formula: a variable's name with ``None``, or a head with its arguments'
    groups.
    """

    values: list[np.ndarray]
    masks: np.ndarray
    parents: list[tuple[str, tuple[int, ...] | None]]

    def formula(self, g: int) -> Formula:
        head, args = self.parents[g]
        if args is None:
            return var(head)
        return Formula(head, tuple(self.formula(a) for a in args))


def _fragment_size(signature: Signature, fragment: FragmentSpec) -> int:
    """``len(enumerate_fragment(signature, fragment))`` by its level rule, in
    Python ints (over three variables it passes 2**63 at depth 5): level d
    adds, per connective of arity a, the a-tuples of formulas of depth below
    d with a member of depth d - 1, and each constant once at depth 1.

    A binary connective doubles the count's bit length at every level, and
    the time of a level grows with it, so a count past ``_COUNT_BITS`` bits
    is refused (:class:`LatticeError`) instead of computed."""
    below, total = 0, len(fragment.variables)  # formulas of depth < d - 1, < d
    for d in range(1, fragment.max_depth + 1):
        level = sum(
            total**arity - below**arity if arity else int(d == 1)
            for _, arity in signature.connectives
        )
        if not level:
            break
        below, total = total, total + level
        if total.bit_length() > _COUNT_BITS:
            raise LatticeError(
                f"the fragment's formula count passes 2**{_COUNT_BITS} at depth {d}"
            )
    return total


def _argument_tuples(arity: int, lo: int, hi: int, step: int):
    """Every ``arity``-tuple of group ids below ``hi`` with a member at or
    above ``lo``, in lexicographic order: ``(arity, m)`` blocks of at most
    ``step`` tuples.  The first such tuple is ``(0, ..., 0, lo)``."""
    total = hi**arity
    for start in range(lo, total, step):
        flat = np.arange(start, min(start + step, total))
        args = np.stack(np.unravel_index(flat, (hi,) * arity))
        args = args[:, (args >= lo).any(axis=0)]
        if args.shape[1]:
            yield args


def _fragment_groups(
    signature: Signature, fragment: FragmentSpec, matrices: Sequence[FiniteMatrix]
) -> _Groups:
    """The groups of ``enumerate_fragment(signature, fragment)``, level by level.

    Level d applies each connective, in signature order, to every tuple of
    groups whose deepest member has depth d - 1, in lexicographic order of
    group ids; constants enter at depth 1.  That is ``enumerate_fragment``'s
    rule on formulas, so a new group's first tuple gives its first formula,
    and numbering the level's new groups in the order of their first tuple
    follows their first formulas.  A block of tuples takes one fancy index
    per matrix into the head's table, and is looked up in one sorted index
    of the known groups' byte keys (:func:`_index_block`), whose mask column
    also carries the depth.  The loop stops after a level that adds no
    (mask, value rows) pair, whatever the depth: a connective's pair is a
    function of its arguments' pairs, so no later level could add one, and
    the groups left out split no class and represent none.
    """
    k = len(fragment.variables)
    dtypes = [np.min_scalar_type(len(m.algebra.elements) - 1) for m in matrices]
    tables = [
        {name: table.astype(dtype) for name, table in m.algebra.index_tables.items()}
        for m, dtype in zip(matrices, dtypes)
    ]
    values = [
        _valuation_grid(len(m.algebra.elements), k).astype(dtype)
        for m, dtype in zip(matrices, dtypes)
    ]
    masks = np.left_shift(1, np.arange(k, dtype=np.int64))
    parents: list[tuple[str, tuple[int, ...] | None]] = [
        (v, None) for v in fragment.variables
    ]
    # Value rows are row-major (a fancy index gathers whole rows), so their
    # byte keys read them transposed.
    keys = _byte_keys([v.T for v in values], masks)
    order = np.argsort(keys)
    index = (keys[order], order)
    # Tuples evaluated at once: a block's rows hold about ``_GROW_BLOCK`` words.
    step = max(1, 8 * _GROW_BLOCK // sum(v.shape[1] for v in values))
    lo = 0
    for depth in range(1, fragment.max_depth + 1):
        hi = len(masks)
        for name, arity in signature.connectives:
            if arity:
                blocks = _argument_tuples(arity, lo, hi, step)
            else:
                blocks = [np.zeros((0, 1), dtype=np.intp)] if depth == 1 else []
            for args in blocks:
                shape = (args.shape[1],)
                # A constant's one value is broadcast over every valuation.
                rows = [
                    np.ascontiguousarray(np.broadcast_to(
                        table[name][tuple(v[a] for a in args)], shape + v.shape[1:]
                    ))
                    for table, v in zip(tables, values)
                ]
                grown = np.bitwise_or.reduce(masks[args], axis=0)
                keys = _byte_keys([r.T for r in rows], grown + (depth << k))
                _, new, index = _index_block(index, keys, len(masks))
                values = [np.concatenate([v, r[new]]) for v, r in zip(values, rows)]
                masks = np.concatenate([masks, grown[new]])
                parents += [(name, tuple(args[:, j].tolist())) for j in new.tolist()]
        if depth < fragment.max_depth:
            pairs = _byte_keys([v.T for v in values], masks)
            known = np.sort(pairs[:hi])
            at = np.searchsorted(known, pairs[hi:])
            if (known.take(at, mode="clip") == pairs[hi:]).all():
                break
        lo = hi
    return _Groups(values, masks, parents)


@dataclass
class _Components:
    """What the walk reads of premise sets at one variable mask I: per
    component, the AND per matrix of the packed designation rows of the
    members inside I (``conj``, per matrix its word columns as
    :func:`_pack_rows` lays them out: ``conj[m][j][a]`` is word j of
    component a's row) and the OR of their variable masks (``vmask``).
    Component 0 is the empty set's.  ``trans[a, c]`` is a's component after
    adding class c (a itself for c outside I), for every component first
    reached with fewer than ``max_size`` members."""

    conj: list[list[np.ndarray]]
    vmask: np.ndarray
    trans: np.ndarray


class _StateSpace:
    """The premise-row states that the chunks of one conclusion mask t read.

    A row's state key is the mixed-radix code of its component ids at the
    masks F, t and 0 (see :class:`_VectorContext`), but for a mask with one
    component.  ``keys`` holds every key a row reaches, ascending, and a
    state's id is its position there; ``ids[I]`` gives each state's
    component id at mask I, and ``counts[size, s]`` the exact number of
    rows of ``size`` members on state s.  The walk reads only keys, ids
    and root; only a tally and the witness descent read counts.

    When ``key_space * n_classes`` fits ``_DENSE_KEYS``, the space is built
    in two passes.  The numbering pass (:meth:`_number`), run at once,
    finds the keys breadth first in a bitmap of the key space, which is all
    the walk needs.  The counting pass (:meth:`_dense_counts`) runs on the
    first read of ``counts`` or ``weights``: per size, a dense (state,
    largest member) table, grown through int32 indexes of the numbered
    keys, with no sort.  So a space whose chunks no pair disagrees on, such
    as every space of criterion 3's pair, is never counted.  It loses no
    check by that: the covered-rows check guards the counts, the
    multiplicities of the rows on the states, which nothing else reads;
    and both passes step by the same ``steps``, so a counted space's
    states are the ones numbered.  A count that reaches an unnumbered key,
    or leaves a numbered state that no size counts, raises.  A larger key
    space is numbered and counted at once by a DP over (state, largest
    member) groups sorted by key (:meth:`_sorted_counts`).

    One space serves every mask t' with as many variables as t.  Renaming
    the fragment's variables by a π with π(t') = t maps the fragment onto
    itself, so it permutes the classes (σ), and a premise set S' of t''s
    classes to σS', of the same size.  Towers are structural and a class
    holds formulas that no tower tells apart, so a tower answers (S', c')
    as it answers (σS', σc'): a chunk of t' is walked as its σ-image on
    t's states.  σ is a bijection on the premise sets of each size, so
    the tallies agree; and the descent, reading the transitions through σ
    (its ``order``), takes the smallest real class whose image keeps a
    completion, so it lists rows in real ``combinations`` order.
    """

    def __init__(self, context: "_VectorContext", tmask: int):
        self.tmask = tmask
        self.n_classes = n = context.n_classes
        self.max_size = context.max_size
        self.n_premise_rows = context.n_premise_rows
        masks = tuple(dict.fromkeys((context.full_mask, tmask, 0)))
        # A mask with one component (no class inside) adds nothing to a key.
        self.keyed = [
            m for m in masks if m == masks[0] or len(context.components(m).vmask) > 1
        ]
        components = [context.components(vmask) for vmask in self.keyed]
        radix = [len(comps.vmask) for comps in components]
        place = [math.prod(radix[j + 1:]) for j in range(len(radix))]
        self.key_space = math.prod(radix)
        self.digits = list(zip(place, radix))
        if self.key_space * (n + 1) >= 1 << 63:
            raise LatticeError("too many premise-set components to number in 64 bits")
        # Per mask, each extended component's transitions as key shares.
        self.steps = [c.trans.astype(np.int64) * d for c, d in zip(components, place)]
        if self.key_space * n <= _DENSE_KEYS:
            self.keys = keys = self._number()
        else:
            keys, counts = self._sorted_counts()
            self.keys, self.counts = keys, self._checked(counts)
        self.ids = dict.fromkeys(masks, np.zeros(len(keys), dtype=np.int64))
        self.ids.update(zip(self.keyed, self.decode(keys)))
        self.fresh: dict[tuple, np.ndarray] = {}
        # The empty set's state is 0; its states after adding each class.
        self.root = self._grown(np.zeros(1, dtype=np.intp))[0]

    @cached_property
    def counts(self) -> np.ndarray:
        """``counts[size, s]``: the rows of ``size`` members on state s."""
        return self._checked(self._dense_counts())

    @cached_property
    def weights(self) -> np.ndarray:
        """The counts as tally weights.  A chunk marks at most 8 classes
        per row, so every partial sum of a tally is at most 8 * rows, and a
        float64 product, faster than an int64 one, is exact below 2**53."""
        if 8 * self.n_premise_rows < _FLOAT_EXACT:
            return self.counts.astype(np.float64)
        return self.counts

    def _checked(self, counts: np.ndarray) -> np.ndarray:
        """``counts`` once they cover every premise row and count every
        state at some size."""
        covered = int(counts.sum())
        if covered != self.n_premise_rows:
            raise LatticeError(
                f"state counts cover {covered} premise rows of mask {self.tmask}, "
                f"not {self.n_premise_rows}"
            )
        if not counts.any(axis=0).all():
            raise LatticeError(f"a numbered state of mask {self.tmask} counts no row")
        return counts

    def decode(self, keys: np.ndarray) -> list[np.ndarray]:
        """Per mask, the component ids of state ``keys``."""
        return [keys // place % radix for place, radix in self.digits]

    def _successors(self, keys: np.ndarray) -> np.ndarray:
        """The state key of each of ``keys`` after adding each class: a
        ``(len(keys), n_classes)`` table."""
        return sum(step[comp] for comp, step in zip(self.decode(keys), self.steps))

    def _number(self) -> np.ndarray:
        """Every state key a row reaches, ascending.  Sets ``_index``, each
        key's state id (-1 for a key no row reaches), and ``_inner``, a mask
        of the states that rows of fewer than ``max_size`` members reach.

        Breadth first from the empty set's key 0: level r marks, in a
        bitmap of the key space, the successors of the keys first reached
        at level r - 1.  A key's successors do not depend on the level, so
        each key is grown once, at its first level; and a key of level r is
        reached by at most r classes, so it has transitions while r is
        below ``max_size``.  Adding a member again keeps the state, so the
        keys reached by at most r additions are exactly the states of the
        rows of at most r members.
        """
        seen = np.zeros(self.key_space, dtype=bool)
        seen[0] = True
        inner = seen
        frontier = np.zeros(1, dtype=np.int64)
        block = max(1, _GROW_BLOCK // max(1, self.n_classes))
        for _ in range(self.max_size):
            inner = seen.copy()
            reached = np.zeros_like(seen)
            for lo in range(0, len(frontier), block):
                reached[self._successors(frontier[lo:lo + block])] = True
            reached &= ~seen
            seen |= reached
            frontier = np.flatnonzero(reached)
        keys = np.flatnonzero(seen)
        self._index = np.full(self.key_space, -1, dtype=np.int32)
        self._index[keys] = np.arange(len(keys), dtype=np.int32)
        self._inner = inner[keys]
        return keys

    def _dense_counts(self) -> np.ndarray:
        """The counting pass over the numbered states, size by size.

        ``last[j, c]`` is the number of rows of the current size, below
        ``max_size``, on the j-th inner state (``_inner``) whose largest
        member is c.  A row grows only by the classes above its largest
        member, as rows do in ``combinations`` order, so each state adds,
        for each class c, its rows with largest member below c (a prefix
        sum over ``last``) at (its successor by c, c): each row is counted
        once, and nothing is sorted.  A successor's row in the next table is
        read in an int32 index of the inner keys, and at the last size its
        state id in ``_index``; a successor either index holds no id for
        raises.
        """
        n, keys = self.n_classes, self.keys
        inner = keys[self._inner]
        counts = np.zeros((self.max_size + 1, len(keys)), dtype=np.int64)
        counts[0, 0] = 1
        at_inner = np.full(self.key_space, -1, dtype=np.int32)
        at_inner[inner] = np.arange(len(inner), dtype=np.int32)
        classes = np.arange(n)
        block = max(1, _GROW_BLOCK // max(1, n))
        # Rows of ``last`` with rows of the current size: the empty set's.
        active = np.zeros(1, dtype=np.intp)
        for size in range(1, self.max_size + 1):
            final = size == self.max_size
            index = self._index if final else at_inner
            grown = np.zeros(len(keys) if final else len(inner) * n, dtype=np.int64)
            for lo in range(0, len(active), block):
                part = active[lo:lo + block]
                if size == 1:
                    # The empty set has no largest member: it adds every class.
                    below = np.ones((1, n), dtype=np.int64)
                else:
                    below = last[part]
                    below = np.cumsum(below, axis=1) - below
                succ = index[self._successors(inner[part])]
                if (succ < 0).any():
                    raise LatticeError(
                        f"a premise row of mask {self.tmask} reaches an unnumbered state"
                    )
                at = below != 0
                np.add.at(grown, (succ if final else succ * n + classes)[at], below[at])
            if final:
                counts[size] = grown
            else:
                last = grown.reshape(len(inner), n)
                sums = last.sum(axis=1)
                counts[size, self._inner] = sums
                active = np.flatnonzero(sums)
        return counts

    def _sorted_counts(self):
        """The state keys and their counts per size, by a DP over (state,
        largest member) groups sorted by key; a group grows only by the
        classes above its largest member, so it counts each row once and
        touches no more entries than there are rows."""
        n = self.n_classes
        # Per size, the distinct state keys its rows reach and their counts.
        levels = [(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))]
        key, count = levels[0]
        last = np.full(1, -1, dtype=np.int64)
        for size in range(1, self.max_size + 1):
            if size == self.max_size:
                levels.append(self._grow(key, last, count, 1))
            else:
                groups, count = self._grow(key, last, count, n)
                key, last = np.divmod(groups, n)
                # Groups come sorted by state key: sum each run.
                starts = _run_starts(key)
                levels.append((key[starts], np.add.reduceat(count, starts)))
        keys = _distinct(np.concatenate([keys for keys, _ in levels]))
        counts = np.zeros((len(levels), len(keys)), dtype=np.int64)
        for size, (level_keys, level_counts) in enumerate(levels):
            counts[size, np.searchsorted(keys, level_keys)] = level_counts
        return keys, counts

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
        return np.searchsorted(self.keys, self._successors(self.keys[states]))

    def tally(self, only: np.ndarray) -> np.ndarray:
        """Per size, the (row, class) pairs marked by ``only``'s bits: each
        state's rows times its set bits, exact in either dtype."""
        return self.weights @ np.bitwise_count(only)

    def witnesses(self, only: np.ndarray, real: tuple[int, ...], sizes, cap: int, order):
        """``(size, members, class)`` for every bit of ``only`` set on the
        first ``cap`` rows of the given ascending sizes with any bit set.
        Bit i of ``only`` answers class ``real[i]``, and ``order[c]`` is the
        class of this space that real class c is walked as (σ in the class
        docstring): members and classes come back as real ids."""
        rows: list[tuple[tuple[int, ...], int]] = []
        bad = only != 0
        for size in sizes:
            if len(rows) < cap:
                rows += self.first_rows(bad, size, cap - len(rows), order)
        return [
            (len(members), members, target)
            for members, state in rows
            for bit, target in enumerate(real)
            if only[state] >> bit & 1
        ]

    def first_rows(self, bad: np.ndarray, size: int, cap: int, order: np.ndarray):
        """The first ``cap`` rows of ``size`` real members, in
        ``combinations`` order, whose σ-images (``order``) land on a state
        where ``bad`` holds: ``(members, state)`` pairs.  The transitions
        are read through ``order``, so column c adds real class c.
        ``reach[r][s]`` is the largest real class c such that a set on
        state s can end on a bad state by adding c and then r - 1 classes
        above c; -1 when none can.  So a set with largest member m has a
        completion exactly when ``reach[r][s] > m``, and the descent, taking
        the smallest class that keeps one, never enters a dead branch.
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
                ok = reach[-1][self._grown(part)[:, order]] > classes
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
            row = (self._grown(np.array([state]))[0] if members else self.root)[order]
            start = members[-1] + 1 if members else 0
            keep = np.flatnonzero(reach[left - 1][row[start:]] > classes[start:]) + start
            # Each class kept leads to a row, so later ones are never reached.
            keep = keep[: cap - len(found)].tolist()
            stack.extend((int(row[c]), members + (c,)) for c in reversed(keep))
        return found


class _VectorContext:
    """Shared numpy state for comparing towers over one matrix collection.

    Its classes come from the fragment's groups (:func:`_fragment_groups`):
    a group's designation rows are its value rows read through each
    matrix's designated set, the groups with equal rows and variable mask
    form a class, and the first of them represents it.  ``rep_bools`` holds
    each class's designation rows per matrix, and ``n_formulas`` the
    fragment's formula count (:func:`_fragment_size`).

    A chunk of conclusion classes with mask t reads premise rows at three
    variable masks only, each through its component there
    (:class:`_Components`): the full mask F, where every walk starts; t,
    because a left step meets the premise mask with t and a right step
    keeps it; and 0, where the fresh answers after a left step are read.
    Memory: the components of F, 0
    and each orbit's first mask live for the context's life, and only the
    state space of the orbit being walked is held; none of it grows with
    the number of premise rows.
    """

    def __init__(
        self,
        signature: Signature,
        fragment: FragmentSpec,
        matrices: Sequence[FiniteMatrix],
    ):
        self.matrices = list(matrices)
        self.full_mask = (1 << len(fragment.variables)) - 1
        # Counted first: a count past its bound stops a depth that no group
        # enumeration could finish.
        self.n_formulas = _fragment_size(signature, fragment)
        self.groups = _fragment_groups(signature, fragment, self.matrices)
        bools = [m.designated_bools[v] for m, v in zip(self.matrices, self.groups.values)]
        packed = [_pack_rows(b) for b in bools]

        # A class's groups share their variable mask and designation rows,
        # so their byte keys.  Its first group, which holds its first
        # formula, represents it, and classes are numbered in that order.
        keys = _byte_keys(packed, self.groups.masks)
        order = np.argsort(keys, kind="stable")
        reps = np.sort(order[_run_starts(keys[order])])
        self.n_classes = len(reps)
        self.rep_group = reps
        # The classes' byte keys, ascending, and each one's class: exact
        # lookups of a renamed class (:meth:`renaming`).
        by_key = np.argsort(keys[reps])
        self._class_index = (keys[reps][by_key], by_key)
        self.rep_mask = self.groups.masks[reps].astype(np.min_scalar_type(self.full_mask))
        self.rep_bools = [b[reps] for b in bools]
        self.rep_packed = [_pack_rows(b) for b in self.rep_bools]
        self.rep_not_packed = [_pack_rows(~b) for b in self.rep_bools]
        self.all_designated = [not m.constrains for m in self.matrices]

        self.max_size = min(fragment.max_premises, self.n_classes)
        self.n_premise_rows = sum(
            math.comb(self.n_classes, size) for size in range(self.max_size + 1)
        )
        if self.n_premise_rows >= 1 << 60:  # a chunk's pairs must fit an int64
            raise LatticeError(f"{self.n_premise_rows} premise rows are too many to count")
        self._components: dict[int, _Components] = {}

    def components(self, vmask: int) -> _Components:
        """The components at ``vmask``, built on first use: the full mask's
        breadth first (:meth:`_full_components`), any other mask's as the
        full components whose variable mask lies inside ``vmask``, in
        ascending full id, with transitions read off the full table.  The
        sets on a full component all share its variable mask, so they lie
        inside ``vmask`` exactly when it does; and such a component is first
        reached at the same level there as at F, so it has a ``trans`` row
        in both tables or in neither, and breadth-first ids keep its order."""
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
        conj = [[column.take(ids) for column in c] for c in full.conj]
        return _Components(conj, full.vmask[ids], trans)

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
        order of their first candidate, and appended to stores that grow in
        place (:func:`_append`), so no block copies the known ones again."""
        n = self.n_classes
        # Stores that grow in place: per matrix its word columns, the
        # masks, and the transitions of the components grown so far.
        conj = [
            [column.copy() for column in _pack_rows(np.ones((1, b.shape[1]), dtype=bool))]
            for b in self.rep_bools
        ]
        masks = np.zeros(1, dtype=self.rep_mask.dtype)
        trans = np.zeros((0, n), dtype=np.int32)
        columns = [c for cs in conj for c in cs] + [masks]
        index = (key_of(conj, masks), np.zeros(1, dtype=np.int64))
        # Frontier components grown at once: a block's candidate columns,
        # its keys included, hold about 4 * ``_GROW_BLOCK`` entries (1 MB of
        # words), so each numpy call runs down thousands of candidates.
        # Each level's frontier is the id range of the components the level
        # before it found.
        step = max(1, 4 * _GROW_BLOCK // ((len(columns) + 1) * max(1, n)))
        size, start, stop = 1, 0, 1
        for _ in range(self.max_size):
            for lo in range(start, stop, step):
                hi = min(lo + step, stop)
                # Per word column: the block's components times the classes.
                grown = [
                    [np.bitwise_and.outer(c[lo:hi], p).ravel() for c, p in zip(cs, ps)]
                    for cs, ps in zip(conj, self.rep_packed)
                ]
                grown_mask = np.bitwise_or.outer(masks[lo:hi], self.rep_mask).ravel()
                ids, new, index = _index_block(index, key_of(grown, grown_mask), size)
                candidates = [g for gs in grown for g in gs] + [grown_mask]
                for c, g in zip(columns, candidates):
                    _append(c, size, g.take(new))
                size += len(new)
                if not all(np.array_equal(c.take(ids), g) for c, g in zip(columns, candidates)):
                    return None
                _append(trans, lo, ids.reshape(-1, n))
            start, stop = stop, size
        for c in columns:
            c.resize(size, refcheck=False)
        # With no level grown (no premises), one row of the zeros that
        # ``resize`` fills in.
        trans.resize((max(1, start), n), refcheck=False)
        return _Components(conj, masks, trans)

    def renaming(self, perm: Sequence[int]) -> np.ndarray:
        """Each class's image when variable i is renamed to ``perm[i]`` (σ
        in :class:`_StateSpace`), looked up by its renamed rows: each
        designation row's valuation axes permuted, and each mask's bits.
        A class left without an image, or two classes sharing one, raises
        :class:`LatticeError`.
        """
        k = len(perm)
        axes = tuple(1 + np.argsort(perm))
        rows = [
            _pack_rows(
                b.reshape((len(b),) + (len(m.algebra.elements),) * k)
                .transpose((0,) + axes)
                .reshape(b.shape)
            )
            for b, m in zip(self.rep_bools, self.matrices)
        ]
        masks = self.groups.masks[self.rep_group]
        keys = _byte_keys(rows, _renamed_masks(masks, perm))
        index_keys, index_ids = self._class_index
        at = np.searchsorted(index_keys, keys)
        if not np.array_equal(index_keys.take(at, mode="clip"), keys):
            raise LatticeError(f"renaming variables by {perm} leaves a class without image")
        sigma = index_ids[at]
        if not np.array_equal(np.sort(sigma), np.arange(self.n_classes)):
            raise LatticeError(f"renaming variables by {perm} is no class permutation")
        return sigma

    # -- tree evaluation -----------------------------------------------------

    def _leaf_real(
        self, matrix_ids: tuple[int, ...], vmask: int, chunk: tuple[int, ...], space
    ) -> np.ndarray:
        """Bit i of each state: the leaf's answer for class ``chunk[i]``.

        In one matrix a set entails a class when every valuation that
        designates all its members designates the class too.  The bits are
        built and ANDed across the leaf's matrices on the components at
        vmask, then read for every state.

        One scalar AND per word column per target: ``conj`` and
        ``rep_not_packed`` are laid out as :func:`_pack_rows` says, so a
        word of every component is one contiguous column, and a component
        fails a target when any of its words meets the target's
        undesignated word.  The padding bits of a row's last word are 0
        in every row, the empty set's component included, so they never
        change an answer or tell two components apart.
        """
        comps = self.components(vmask)
        fails = np.zeros(len(comps.vmask), dtype=np.uint8)
        for m in matrix_ids:
            conj, rep_not = comps.conj[m], self.rep_not_packed[m]
            met = np.empty_like(conj[0])
            for bit, target in enumerate(chunk):
                np.bitwise_and(conj[0], rep_not[0][target], out=met)
                for column, words in zip(conj[1:], rep_not[1:]):
                    met |= column & words[target]
                fails |= (met != 0).view(np.uint8) << np.uint8(bit)
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
        other, and masks come in the order of their first class, so their
        orbits (masks with as many variables) come in a fixed order too.
        """
        by_mask: dict[int, list[int]] = {}
        for target, tmask in enumerate(self.rep_mask.tolist()):
            by_mask.setdefault(tmask, []).append(target)
        return [
            tuple(targets[i:i + 8])
            for targets in by_mask.values()
            for i in range(0, len(targets), 8)
        ]

    def _walk(
        self, node, vmask: int, chunk: tuple[int, ...], space: _StateSpace, memo: dict
    ) -> np.ndarray:
        """Answers of tree ``node`` for a chunk of conclusion classes, with
        premises read at ``vmask`` (the full mask at the root).

        One ``uint8`` per state of ``space``, whose mask every class of
        ``chunk`` has; bit i answers class ``chunk[i]``, and bits past the
        chunk's length are meaningless.  ``memo`` holds the answers of
        every (subtree, premise mask) walked for this chunk; pass the same
        dict for every tree walked for it.
        """
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


def disagreements(
    signature: Signature,
    fragment: FragmentSpec,
    matrices: Sequence[FiniteMatrix],
    trees: Sequence[tuple[tuple, tuple]],
    max_witnesses: int,
) -> tuple[int, list[tuple[tuple[int, int], list, list]]]:
    """The fragment's formula count, and for each pair of ``trees`` over
    ``matrices``: its disagreement counts in class patterns (first tree
    only, second only), then its first ``max_witnesses`` witnesses each way
    as ``(premises, conclusion)`` formula tuples.

    Orbits come in the order of their first chunk, and a chunk of a mask
    other than its orbit's first is walked as its σ-image on that mask's
    space (:class:`_StateSpace`), its witnesses read back through σ.  Once
    a side holds ``max_witnesses``, no chunk is searched past the size of
    its last.
    """
    context = _VectorContext(signature, fragment, matrices)
    counts = [[0, 0] for _ in trees]
    found: list[tuple[list, list]] = [([], []) for _ in trees]
    k = context.full_mask.bit_length()
    orbits: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for real in context.chunks():
        tmask = int(context.rep_mask[real[0]])
        orbits.setdefault(tmask.bit_count(), []).append((tmask, real))
    for orbit in orbits.values():
        space = None  # the last orbit's states go before the next are built
        space = _StateSpace(context, orbit[0][0])
        sigmas = {
            tmask: context.renaming(_renaming(tmask, space.tmask, k))
            for tmask in dict.fromkeys(tmask for tmask, _ in orbit)
        }
        for tmask, real in orbit:
            sigma = sigmas[tmask]
            chunk = tuple(sigma[list(real)].tolist())
            memo: dict = {}
            # Witnesses per (disagreement bytes, sizes): pairs share them.
            searched: dict = {}
            in_chunk = np.uint8((1 << len(chunk)) - 1)
            for (tree_a, tree_b), count, sides in zip(trees, counts, found):
                ans_a = context._walk(tree_a, context.full_mask, chunk, space, memo)
                ans_b = context._walk(tree_b, context.full_mask, chunk, space, memo)
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
                        searched[key] = space.witnesses(
                            only, real, sizes, max_witnesses, sigma
                        )
                    held += searched[key]
    return context.n_formulas, [
        (tuple(count), *(_decode_witnesses(context, side, max_witnesses) for side in sides))
        for count, sides in zip(counts, found)
    ]


def _decode_witnesses(
    context: _VectorContext, found: list[tuple[int, tuple, int]], cap: int
) -> list[tuple[tuple[Formula, ...], Formula]]:
    found.sort()
    formula = context.groups.formula
    rep = context.rep_group.tolist()
    return [
        (tuple(formula(rep[c]) for c in members), formula(rep[target]))
        for _, members, target in found[:cap]
    ]
