"""Sums and decompositions of algebras over a semilattice of indices.

A direct system consists of component algebras indexed by a finite join
semilattice and homomorphisms along the order, identity at each index and
closed under composition.  Its sum interprets an operation by pushing all
arguments into the join of their component indices and applying the table
there.  Matrix-level systems come in two kinds: ``l`` systems require the
homomorphisms to preserve designation, ``r`` systems require the indices
with nonempty filters to form a sub-semilattice and designation to be
reflected exactly along homomorphisms into them.  ``algebraic`` systems
ignore designation.

A binary term is a partition function for an algebra when the derived
product ``a*b`` is idempotent, associative, right-commuting, and commutes
with every operation in the two ways checked here.  Such a term induces a
decomposition: elements with ``a*b = a`` and ``b*a = b`` share a component,
the join of two components holds the product of their members, and
``x -> x*b`` gives the homomorphisms.  By Płonka's theorem the sum of this
decomposition is the algebra up to the canonical renaming; the proof is in
:func:`decompose`.

Signatures with 0-ary connectives are rejected by the sum and the
decomposition: a constant would need a home component below all others,
which the plain construction does not provide.

A direct system is validated and summed on one :class:`_SystemIndex`,
built once per call from the hom and table dicts.  The hom laws and the
composition law take a fixed number of array operations per connective
over the whole system (per block of ``_BLOCK`` entries), whatever the
number of components, and the sum's tables, which also seed its
``index_tables``, come from the same index.

The partition and identity checks work on element-index tables: numpy
arrays of element positions, ``FiniteAlgebra.index_tables``, a k-ary table
having shape ``(n,) * k``, and formulas are evaluated on them with
``matrices._evaluate_indices``.  A check over the argument tuples of
``itertools.product`` is split into C-ordered slabs of consecutive leading
arguments, as many as fit in ``_BLOCK // 8`` entries (at least one), so the
first True of the first failing slab (``argmax``) is the counterexample the
product loop would meet first, and the cubic partition laws never build an
``n ** 3`` array.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .formulas import Formula, Signature, var
from .matrices import (
    FiniteAlgebra,
    FiniteMatrix,
    LogicOracle,
    MatrixError,
    MatrixFormatError,
    _evaluate_indices,
    _read_text,
    format_matrix,
    load_matrix_file,
)
from .transforms import check_sequence

__all__ = [
    "AxiomResult",
    "DirectSystem",
    "FiniteSemilattice",
    "InvalidSystemError",
    "PartitionReport",
    "RegularIdentityReport",
    "SemilatticeError",
    "SystemReport",
    "Violation",
    "canonical_chain_matrix",
    "check_partition_function",
    "check_regular_identity",
    "decompose",
    "decomposition_renaming",
    "dump_system_files",
    "load_system_file",
    "plonka_sum",
    "trivial_matrix",
    "validate_system",
]


class SemilatticeError(MatrixError):
    """The join table breaks a semilattice law."""


class InvalidSystemError(MatrixError):
    """A direct system failed validation; carries the report."""

    def __init__(self, report: "SystemReport"):
        super().__init__("invalid direct system:\n" + report.render())
        self.report = report


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """Position of the first True of ``mask`` in C order, or None."""
    flat = mask.reshape(-1)
    if not flat.any():
        return None
    return tuple(int(p) for p in np.unravel_index(int(flat.argmax()), mask.shape))


def _first_in_blocks(
    n: int, per: int, block: Callable[[slice], Sequence[np.ndarray]]
) -> list[tuple[int, ...] | None]:
    """First failing index tuple of each of some checks over one
    ``itertools.product`` order, from one slab loop (``n`` >= 1).

    ``block(s)`` gives each check's C-ordered failure mask of the tuples
    whose leading argument lies in the slice ``s`` of ``range(n)``, ``per``
    tuples per leading argument.  Slabs of as many leading arguments as fit
    in ``_BLOCK // 8`` entries (at least one) are built one at a time, in
    order, until every check has failed, so the first True of a check's
    first failing slab is its first failure.
    """
    step = max(1, _BLOCK // 8 // per)
    hits: list[tuple[int, ...] | None] = []
    for start in range(0, n, step):
        masks = block(slice(start, start + step))
        hits = hits or [None] * len(masks)
        for c, mask in enumerate(masks):
            hit = None if hits[c] is not None else _first(mask)
            if hit is not None:
                hits[c] = (start + hit[0], *hit[1:])
        if None not in hits:
            break
    return hits


def _join_index(lattice: "FiniteSemilattice") -> np.ndarray:
    """The join table as index positions: ``[p, q]`` is the join's position."""
    position = {i: p for p, i in enumerate(lattice.indices)}
    return np.array(
        [[position[lattice.join_table[(i, j)]] for j in lattice.indices] for i in lattice.indices],
        dtype=np.intp,
    )


@dataclass(frozen=True)
class FiniteSemilattice:
    """A finite join semilattice given by its total join table."""

    indices: tuple[str, ...]
    join_table: Mapping[tuple[str, str], str]

    def __post_init__(self):
        if not self.indices:
            raise SemilatticeError("a semilattice needs at least one index")
        if len(set(self.indices)) != len(self.indices):
            raise SemilatticeError("duplicate semilattice indices")
        universe = set(self.indices)
        for pair, out in self.join_table.items():
            if len(pair) != 2 or set(pair) - universe or out not in universe:
                raise SemilatticeError(f"bad join entry {pair} -> {out}")
        for i, j in itertools.product(self.indices, repeat=2):
            if (i, j) not in self.join_table:
                raise SemilatticeError(f"missing join entry for ({i}, {j})")
        join = _join_index(self)
        positions = np.arange(len(self.indices))
        hit = _first(join[positions, positions] != positions)
        if hit is not None:
            raise SemilatticeError(f"join not idempotent at {self.indices[hit[0]]}")
        hit = _first(join != join.T)
        if hit is not None:
            i, j = (self.indices[p] for p in hit)
            raise SemilatticeError(f"join not commutative at ({i}, {j})")
        (hit,) = _first_in_blocks(
            len(join), len(join) ** 2, lambda s: (join[join[s]] != np.take(join[s], join, axis=1),)
        )
        if hit is not None:
            i, j, k = (self.indices[p] for p in hit)
            raise SemilatticeError(f"join not associative at ({i}, {j}, {k})")

    def join(self, i: str, j: str) -> str:
        return self.join_table[(i, j)]

    def join_all(self, items: Iterable[str]) -> str:
        result = None
        for item in items:
            result = item if result is None else self.join(result, item)
        if result is None:
            raise SemilatticeError("join of no indices is undefined")
        return result

    def leq(self, i: str, j: str) -> bool:
        return self.join(i, j) == j


@dataclass(frozen=True)
class DirectSystem:
    """Component matrices over a semilattice with connecting homomorphisms.

    ``homs`` maps pairs ``(i, j)`` with ``i`` strictly below ``j`` to element
    maps; identities are implied.  ``kind`` is ``l``, ``r``, or
    ``algebraic`` (designated sets ignored).
    """

    semilattice: FiniteSemilattice
    components: Mapping[str, FiniteMatrix]
    homs: Mapping[tuple[str, str], Mapping[str, str]]
    kind: str = "algebraic"

    def __post_init__(self):
        if self.kind not in ("l", "r", "algebraic"):
            raise MatrixError(f"unknown system kind {self.kind!r}")

    def hom(self, i: str, j: str) -> Mapping[str, str]:
        if i == j:
            return {e: e for e in self.components[i].algebra.elements}
        return self.homs[(i, j)]

    @property
    def signature(self) -> Signature:
        first = next(iter(self.components.values()))
        return first.signature


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass
class SystemReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str):
        self.violations.append(Violation(code, message))

    def render(self) -> str:
        if self.ok:
            return "system valid"
        return "\n".join(f"[{v.code}] {v.message}" for v in self.violations)


def validate_system(system: DirectSystem) -> SystemReport:
    """Check every structural requirement; report all violations found.

    The hom laws and the composition of homs are checked on one
    :class:`_SystemIndex` of the whole system; designation is compared only
    along homs that are total maps into their target component.
    """
    return _validate(system)[0]


def _validate(system: DirectSystem) -> tuple[SystemReport, "_SystemIndex | None"]:
    """The report and the index it was checked on (None if it stopped earlier)."""
    report = SystemReport()
    lattice = system.semilattice
    indices = lattice.indices
    if set(system.components) != set(indices):
        report.add("components", "component keys do not match the semilattice indices")
        return report, None

    signature = system.signature
    for i in indices:
        if system.components[i].signature != signature:
            report.add("signature", f"component {i} uses a different signature")
    if not report.ok:
        return report, None
    seen: dict[str, str] = {}
    for i in indices:
        for e in system.components[i].algebra.elements:
            if e in seen:
                report.add("disjoint", f"element {e!r} appears in components {seen[e]} and {i}")
            else:
                seen[e] = i

    position = {i: p for p, i in enumerate(indices)}
    join = _join_index(lattice)
    positions = np.arange(len(indices))
    strictly_below = (join == positions[None, :]) & (positions[:, None] != positions[None, :])
    ordered_pairs = [(indices[p], indices[q]) for p, q in zip(*np.nonzero(strictly_below))]
    for key in system.homs:
        i, j = key
        if i not in position or j not in position:
            report.add("order", f"hom given for unknown index pair ({i}, {j})")
        elif i == j:
            ident = {e: e for e in system.components[i].algebra.elements}
            if dict(system.homs[key]) != ident:
                report.add("identity", f"explicit hom at ({i}, {i}) is not the identity")
        elif not strictly_below[position[i], position[j]]:
            report.add("order", f"hom given for unrelated pair ({i}, {j})")
    for i, j in ordered_pairs:
        if (i, j) not in system.homs:
            report.add("missing-hom", f"no homomorphism for {i} <= {j}")

    if not report.ok:
        return report, None

    index = _SystemIndex(system, join, strictly_below)
    # Designation and the hom laws are only checked along homs that are maps
    # between the components; a partial one is already reported.
    total_pairs = list(itertools.compress(ordered_pairs, index.total))
    failures = index.hom_failures(np.flatnonzero(index.total))
    for row, (i, j) in enumerate(ordered_pairs):
        if not index.on_source[row]:
            report.add("hom-domain", f"hom {i}->{j} is not total on component {i}")
        elif not index.total[row]:
            report.add("hom-codomain", f"hom {i}->{j} leaves component {j}")
        elif row in failures:
            name, args = failures[row]
            report.add("hom-property", f"hom {i}->{j} fails to commute with {name} at {args}")

    for i, j, k, e in index.composition_violations():
        report.add("composition", f"hom {i}->{k} disagrees with {j}-composite at element {e!r}")

    if system.kind == "l":
        for i, j in total_pairs:
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
        for i, j in total_pairs:
            if not system.components[j].designated:
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
    return report, index


def _segments(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run and place within it of every slot, when run ``r`` has ``counts[r]`` slots."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


# Entries the hom check holds at once (the composition check a sixteenth of
# them), and eight times the entries of a law check's slab (it bounds
# memory, not work).
_BLOCK = 1 << 16


def _blocks(counts: np.ndarray, size: int) -> list[slice]:
    """Consecutive runs in blocks of at most ``size`` slots, or one run."""
    cuts = [0, *(np.flatnonzero(np.diff((np.cumsum(counts) - 1) // size)) + 1).tolist(), len(counts)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


class _SystemIndex:
    """A direct system as flat arrays over all of its components at once.

    Elements get global ids in the sum's element order; ``offsets`` and
    ``sizes`` give each component's run.  Row ``r`` is the hom ``source[r]
    -> target[r]``, ordered pairs in ``itertools.product`` order, and
    ``row_of[p, q]`` is the row of ``p -> q`` for ``p < q``.  Name ids (of every element
    name, hom key and image) are mapped along a row by :meth:`along`, which
    searches the sorted ``(row, name)`` keys of the hom entries; a name
    without an entry, ``undefined`` included, maps to ``undefined``, so
    partial homs compose exactly as name lookups do.  ``row``, ``element``
    (with its position ``local`` in its component) and ``image`` hold one
    entry per hom and element of its source, a row's entries from
    ``first[r]`` on.  ``pushed[g, q]`` is the global id of element ``g``'s
    image in component ``q``, ``n`` if none.  ``on_source`` marks the homs
    defined on exactly their source and ``total`` those that also land in
    their target.  ``tables[name]`` holds
    the connective's values (global ids) on the tuples within one
    component, per component in ``itertools.product`` order, and the start
    of each component's run.
    """

    def __init__(self, system: DirectSystem, join: np.ndarray, strictly_below: np.ndarray):
        indices = system.semilattice.indices
        algebras = [system.components[i].algebra for i in indices]
        self.indices = indices
        self.join = join
        self.strictly_below = strictly_below
        self.connectives = system.signature.connectives
        self.sizes = np.array([len(a.elements) for a in algebras])
        self.offsets = np.cumsum(self.sizes) - self.sizes
        self.elements = [e for a in algebras for e in a.elements]
        n = len(self.elements)
        count = len(indices)
        self.component_of = np.repeat(np.arange(count), self.sizes)
        self.source, self.target = np.nonzero(strictly_below)

        lengths, keys, images = [], [], []
        for p, q in zip(self.source.tolist(), self.target.tolist()):
            mapping = system.homs[(indices[p], indices[q])]
            lengths.append(len(mapping))
            keys.extend(mapping)
            images.extend(mapping.values())
        names = dict.fromkeys(itertools.chain(self.elements, keys, images))
        ids = dict(zip(names, itertools.count()))
        self.name_ids = np.array(list(map(ids.__getitem__, self.elements)), dtype=np.intp)
        self.undefined = undefined = len(ids)
        # One sorted key per hom entry, and a last one above every key looked up.
        rows = np.repeat(np.arange(len(lengths)), lengths)
        keys = rows * (undefined + 1) + np.array(list(map(ids.__getitem__, keys)), dtype=np.intp)
        order = np.argsort(keys)
        self.keys = np.append(keys[order], (len(lengths) + 1) * (undefined + 1))
        images = np.array(list(map(ids.__getitem__, images)), dtype=np.min_scalar_type(undefined))
        self.images = np.append(images[order], images.dtype.type(undefined))
        self.row_of = np.zeros((count, count), dtype=np.intp)
        self.row_of[self.source, self.target] = np.arange(len(self.source))

        self.row, self.local = _segments(self.sizes[self.source])
        self.first = np.cumsum(self.sizes[self.source]) - self.sizes[self.source]
        self.element = self.offsets[self.source][self.row] + self.local
        self.image = self.along(self.row * (undefined + 1) + self.name_ids[self.element])
        # The element of each image's name in the hom's target, n if none.
        where = np.full((count, undefined + 1), n, dtype=np.intp)
        where[self.component_of, self.name_ids] = np.arange(n)
        landed = where[self.target[self.row], self.image]
        self.pushed = np.full((n, count), n, dtype=np.intp)
        self.pushed[self.element, self.target[self.row]] = landed
        self.pushed[np.arange(n), self.component_of] = np.arange(n)
        # Keys are distinct, so as many keys as elements, each one mapped, is equality.
        unmapped = np.bincount(self.row[self.image == undefined], minlength=len(self.source))
        self.on_source = (np.array(lengths, dtype=np.intp) == self.sizes[self.source]) & (unmapped == 0)
        outside = np.bincount(self.row[landed == n], minlength=len(self.source))
        self.total = self.on_source & (outside == 0)

        at = [dict(zip(a.elements, itertools.count(o))) for a, o in zip(algebras, self.offsets.tolist())]
        self.tables = {}
        for name, arity in self.connectives:
            values: list[int] = []
            for algebra, position in zip(algebras, at):
                cells = itertools.product(algebra.elements, repeat=arity)
                values.extend(map(position.__getitem__, map(algebra.tables[name].__getitem__, cells)))
            counts = self.sizes**arity
            self.tables[name] = (np.array(values, dtype=np.intp), np.cumsum(counts) - counts)

    def along(self, key: np.ndarray) -> np.ndarray:
        """Name id of the image at each ``row * (undefined + 1) + name`` key, or ``undefined``."""
        at = np.searchsorted(self.keys, key)
        image = self.images[at]
        image[self.keys[at] != key] = self.undefined
        return image

    def apply(self, name: str, component: np.ndarray, args: Sequence[np.ndarray]) -> np.ndarray:
        """Global id of ``name`` applied within ``component`` to its elements ``args``."""
        values, starts = self.tables[name]
        entry = 0
        for arg in args:
            entry = entry * self.sizes[component] + (arg - self.offsets[component])
        return values[starts[component] + entry]

    def hom_failures(self, rows: np.ndarray) -> dict[int, tuple[str, tuple[str, ...]]]:
        """Per row whose hom fails to commute, its first (connective, argument tuple).

        The homs of ``rows``, maps between their components, are checked
        with one entry per hom and source tuple of a connective; the failure
        is the first in ``itertools.product`` order, the one that the plain
        reference ``homomorphism_counterexample`` in ``tests/conftest.py`` names.
        """
        failures = {}
        widest = max((arity for _, arity in self.connectives), default=0)
        for block in _blocks(self.sizes[self.source[rows]] ** widest, _BLOCK):
            source, target = self.source[rows[block]], self.target[rows[block]]
            pending = np.ones(len(source), dtype=bool)
            for name, arity in self.connectives:
                values, starts = self.tables[name]
                owner, local = _segments(self.sizes[source] ** arity)
                p, q = source[owner], target[owner]
                size = self.sizes[p]
                args = [self.offsets[p] + local // size ** (arity - 1 - d) % size for d in range(arity)]
                image = self.pushed[values[starts[p] + local], q]
                bad = (image != self.apply(name, q, [self.pushed[a, q] for a in args])) & pending[owner]
                hits = np.flatnonzero(bad)
                failing, first = np.unique(owner[hits], return_index=True)
                for t, h in zip(failing.tolist(), hits[first].tolist()):
                    failures[int(rows[block][t])] = (name, tuple(self.elements[a[h]] for a in args))
                pending[failing] = False
        return failures

    def composition_violations(self) -> list[tuple[str, str, str, str]]:
        """``(i, j, k, e)`` per triple ``i < j < k`` whose homs fail to compose.

        ``e`` is the first element of component ``i`` that both ``i->j`` and
        ``j->k`` map and where ``i->k`` disagrees with the composite (or is
        undefined); triples come in ``itertools.product`` order.
        """
        row, element, count = self.row, self.element, len(self.indices)
        above = self.strictly_below.sum(axis=1)
        found = []
        # An entry (hom, element, k) holds up to five intp temporaries at
        # once (via's key and search, ``entry`` and ``k``), so a block holds
        # a sixteenth of ``_BLOCK`` entries.
        for block in _blocks(above[self.target[row]], max(1, _BLOCK >> 4)):
            # One entry per hom i->j, element of i and k above j, in (i, j, element, k) order.
            entry, k = np.nonzero(self.strictly_below[self.target[row[block]]])
            entry += block.start
            via = self.along(
                self.row_of[self.target[row][entry], k] * (self.undefined + 1) + self.image[entry]
            )
            # Element e's own entry of the hom i->k.
            direct = self.image[self.first[self.row_of[self.source[row][entry], k]] + self.local[entry]]
            # An undefined first step leaves via undefined too.
            hits = np.flatnonzero((via != self.undefined) & (direct != via))
            found.append((entry[hits], k[hits]))
        entry, k = (np.concatenate(part) for part in zip(*found))
        # The first hit of a triple is at its first failing element.
        at = np.unique(row[entry] * count + k, return_index=True)[1]
        ij, name_of = row[entry[at]], self.indices.__getitem__
        return list(zip(map(name_of, self.source[ij]), map(name_of, self.target[ij]),
                        map(name_of, k[at]), map(self.elements.__getitem__, element[entry[at]])))


def _reject_constants(signature: Signature, what: str):
    for name, arity in signature.connectives:
        if arity == 0:
            raise MatrixError(f"{what} does not support 0-ary connective {name!r}")


def plonka_sum(system: DirectSystem) -> FiniteMatrix | FiniteAlgebra:
    """Sum a validated direct system over its semilattice.

    Elements are tagged ``"i.a"``.  Returns a matrix whose designated set is
    the union of the component filters, or a bare algebra for ``algebraic``
    systems.  The tables are computed on the :class:`_SystemIndex` that
    validation built: each argument tuple's target component by joins, its
    arguments pushed there, and the value from that component's table.
    They are the sum's index tables too, and seed its ``index_tables``.
    """
    report, index = _validate(system)
    if not report.ok:
        raise InvalidSystemError(report)
    signature = system.signature
    _reject_constants(signature, "the sum construction")
    indices = system.semilattice.indices
    elements = [f"{i}.{a}" for i in indices for a in system.components[i].algebra.elements]
    everything = np.arange(len(elements))
    tables: dict[str, dict[tuple[str, ...], str]] = {}
    index_tables = {}
    for name, arity in signature.connectives:
        args = np.ix_(*(everything,) * arity)
        target = index.component_of[args[0]]
        for arg in args[1:]:
            target = index.join[target, index.component_of[arg]]
        values = index.apply(name, target, [index.pushed[arg, target] for arg in args])
        index_tables[name] = values
        tables[name] = dict(
            zip(
                itertools.product(elements, repeat=arity),
                map(elements.__getitem__, values.reshape(-1).tolist()),
            )
        )
    algebra = FiniteAlgebra(signature, tuple(elements), tables)
    vars(algebra)["index_tables"] = index_tables
    if system.kind == "algebraic":
        return algebra
    designated = frozenset(
        f"{i}.{a}" for i in indices for a in system.components[i].designated
    )
    return FiniteMatrix(algebra, designated)


# ---------------------------------------------------------------------------
# Partition functions and decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomResult:
    name: str
    passed: bool
    counterexample: tuple | None = None


@dataclass
class PartitionReport:
    term: Formula
    mode: str
    results: list[AxiomResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [f"partition term {self.term} (mode {self.mode})"]
        for r in self.results:
            mark = "ok  " if r.passed else "FAIL"
            extra = "" if r.counterexample is None else f"  at {r.counterexample}"
            lines.append(f"  {mark} {r.name}{extra}")
        return "\n".join(lines)


def partition_variables(term: Formula) -> tuple[str, str]:
    """The two variables of a partition term, in order of first occurrence."""
    order: list[str] = []

    def walk(f: Formula):
        if f.is_variable:
            if f.head not in order:
                order.append(f.head)
        else:
            for a in f.args:
                walk(a)

    walk(term)
    if len(order) != 2:
        raise MatrixError(f"partition term must use exactly two variables, got {order}")
    return order[0], order[1]


def _product_table(algebra: FiniteAlgebra, term: Formula) -> np.ndarray:
    """``[a, b]`` is the position of ``a*b``, evaluated bottom-up on index tables."""
    left, right = partition_variables(term)
    positions = np.arange(len(algebra.elements))
    valuation = {left: positions[:, None], right: positions[None, :]}
    return _evaluate_indices(algebra.index_tables, term, valuation)


def check_partition_function(
    algebra: FiniteAlgebra,
    term: Formula,
    oracle: LogicOracle | None = None,
    mode: str = "algebraic",
) -> PartitionReport:
    """Check the partition-function axioms of ``term`` over ``algebra``.

    Always checks the five equational axioms (0-ary connectives are outside
    their scope and are skipped).  In mode ``l`` the oracle must accept
    ``x`` entails ``x*y``; in mode ``r`` it must accept ``x, y`` entails
    ``x*y`` and ``x*y`` entails ``x``.

    The product ``a*b`` is one ``(n, n)`` index table and the axioms are
    checked on index tables.  Each counterexample is the first failure in
    ``itertools.product`` order over the axiom's arguments: P2 and P3 run
    over ``(a, b, c)``, P4 and P5 over the connective's arguments and then
    ``b``.  Each check runs on slabs of leading arguments of at most
    ``_BLOCK // 8`` entries (one leading argument when that alone is more),
    P2 and P3 on one loop that shares its ``a*(b*c)``, and each other side
    of an axiom is one row gather or one take per slab.
    """
    if mode not in ("algebraic", "l", "r"):
        raise MatrixError(f"unknown partition check mode {mode!r}")
    if mode != "algebraic" and oracle is None:
        raise MatrixError(f"mode {mode!r} needs an oracle")
    dot = _product_table(algebra, term)
    report = PartitionReport(term=term, mode=mode)
    elements = algebra.elements
    n = len(elements)
    positions = np.arange(n)

    bad = _first(dot[positions, positions] != positions)
    report.results.append(
        AxiomResult("P1 idempotence", bad is None, None if bad is None else (elements[bad[0]],))
    )

    def triple(hit):
        return None if hit is None else tuple(elements[p] for p in hit)

    # Over (a, b, c), a slab of rows a: a*(b*c), which P2 and P3 share,
    # takes each row at dot[b, c], (a*b)*c gathers row a*b, and a*(c*b)
    # takes each row at dot[c, b].
    flat, transposed = dot.reshape(-1), np.ascontiguousarray(dot.T)

    def associativity(s):
        a_bc = np.take(dot[s], dot, axis=1)
        return a_bc != dot[dot[s]], a_bc != np.take(dot[s], transposed, axis=1)

    hits = _first_in_blocks(n, n * n, associativity)
    for label, bad3 in zip(("P2 associativity", "P3 right commutation"), map(triple, hits)):
        report.results.append(AxiomResult(label, bad3 is None, bad3))

    tables = algebra.index_tables
    for name, arity in algebra.signature.connectives:
        if arity == 0:
            continue
        table = tables[name]
        values = table.reshape(-1)
        # On the axes (a_1 .. a_k, b), shapes[d] holds an (n, n) table over
        # (a_d, b).  f(a_1*b .. a_k*b) is the table's flat entry at the sum
        # of the weights, and args[d - 1] holds a_d's positions.
        shapes = [(1,) * d + (n,) + (1,) * (arity - 1 - d) + (n,) for d in range(arity)]
        weights = [(dot * n ** (arity - 1 - d)).reshape(shape) for d, shape in enumerate(shapes)]
        args = [positions.reshape(shape[:-1] + (1,)) for shape in shapes[1:]]
        first_factor = transposed.reshape(shapes[0])

        def distribution(s):
            pushed = weights[0][s]
            for weight in weights[1:]:
                pushed = pushed + weight
            return (dot[table[s]] != np.take(values, pushed),)

        def absorption(s):
            folded = first_factor[s]  # b*a_1, then times each later argument
            for arg in args:
                folded = np.take(flat, folded * n + arg)
            return (transposed[table[s]] != folded,)

        for label, block in (("P4 distribution", distribution), ("P5 absorption", absorption)):
            (hit,) = _first_in_blocks(n, n**arity, block)
            failure = None
            if hit is not None:
                failure = (name, tuple(elements[p] for p in hit[:-1]), elements[hit[-1]])
            report.results.append(AxiomResult(f"{label} over {name}", failure is None, failure))

    if mode == "l":
        left, right = partition_variables(term)
        ok = oracle.entails((var(left),), term)
        report.results.append(AxiomResult("oracle: x entails x*y", ok))
    elif mode == "r":
        left, right = partition_variables(term)
        ok = oracle.entails((var(left), var(right)), term)
        report.results.append(AxiomResult("oracle: x, y entail x*y", ok))
        ok = oracle.entails((term,), var(left))
        report.results.append(AxiomResult("oracle: x*y entails x", ok))
    return report


class DecompositionError(MatrixError):
    """The algebra does not decompose along the given term."""


def decompose(algebra: FiniteAlgebra, term: Formula) -> DirectSystem:
    """Split ``algebra`` along a partition term into a direct system.

    Components are the classes of ``a ~ b`` iff ``a*b = a`` and ``b*a = b``,
    indexed "0", "1", ... by their first member's position in the input
    element order.  The join of classes ``i`` and ``j`` is the class of
    ``a_i*a_j`` for their first members, the order is ``i <= j`` iff
    ``i v j = j``, and the hom ``i -> j`` is ``x -> x*a_j``.  Past errors in
    the term itself, only a 0-ary connective or a failed partition axiom
    raises.

    By Płonka's theorem, once P1-P5 hold (:func:`check_partition_function`)
    this is a valid system whose sum is the algebra under
    :func:`decomposition_renaming`, so none of it is checked again.  The
    proof, writing ``xyz`` for ``(x*y)*z``: P1-P3 give ``xyx = x(yx) =
    x(xy) = xxy = xy`` and ``xyz = x(yz) = x(zy) = xzy``.

    - ``~`` is transitive by P2: ``a*c = (ab)c = a(bc) = ab = a``, and
      ``c*a = c`` likewise.  It is reflexive by P1.
    - Say ``i <= j`` when ``b*a = b`` for some ``a`` in ``i``, ``b`` in
      ``j``.  By P2 it then holds for all of them: ``b*a' = (ba)a' =
      b(aa') = b`` and ``b'*a' = (b'b)a' = b'(ba') = b'``.  So the order is
      antisymmetric by the definition of ``~``, and transitive by P2:
      ``c*a = (cb)a = c(ba) = c``.
    - Unique joins: ``a*b`` lies above ``a`` (``aba = ab``) and ``b``
      (``abb = ab``, P2 and P1), and below every ``c`` above both
      (``c(ab) = cab = cb = c``, P2), for any members ``a``, ``b``.
    - Closure: for ``e = f(a_1 .. a_k)``, P5 and P1 give ``e = e*e = e a_1
      .. a_k``, so ``e*a_m = e`` (move ``a_m`` next to itself, P3), and
      ``c*e = c a_1 .. a_k = c`` for ``c`` above every ``a_m`` (P5).  So
      ``e`` lies in the join of its arguments' classes, their own class
      when they share one.
    - Homs: the image does not depend on the anchor, for ``x*b = xbb' =
      xb'b = x*b'`` when ``b ~ b'`` (P2, P3); ``x*b`` lies in ``i v j =
      j``; the map commutes with every connective by P4; and ``(xb)c =
      x(bc) = x*c`` for ``c`` in ``k >= j`` (P2, as ``bc`` lies in ``k``),
      so homs compose.  These are the laws :func:`validate_system` checks.
    - Re-sum: the sum sends ``f(a_1 .. a_k)``, with ``c`` in the join of
      the arguments' classes, to ``f(a_1 c .. a_k c) = e*c`` (P4), which is
      ``e`` as ``e ~ c``.

    Past the partition check, the largest array is the ``(n, n)`` product.
    """
    _reject_constants(algebra.signature, "decomposition")
    report = check_partition_function(algebra, term)
    if not report.passed:
        raise DecompositionError(
            "term fails the partition axioms:\n" + report.render()
        )
    dot = _product_table(algebra, term)
    elements = algebra.elements
    positions = np.arange(len(elements))
    absorbs = dot == positions[:, None]  # a*b = a
    # A class is named by its first member, in order of that member.
    first_member = (absorbs & absorbs.T).argmax(axis=1)
    anchors = np.nonzero(first_member == positions)[0]
    class_of = np.searchsorted(anchors, first_member)
    count = len(anchors)
    names = [str(c) for c in range(count)]
    join = class_of[dot[np.ix_(anchors, anchors)]]
    lattice = FiniteSemilattice(
        tuple(names),
        {(names[i], names[j]): names[join[i, j]] for i in range(count) for j in range(count)},
    )

    member_positions = [np.nonzero(class_of == c)[0].tolist() for c in range(count)]
    images = dot[:, anchors].tolist()  # [e][j]: e*anchor_j
    strictly = (join == np.arange(count)[None, :]) & ~np.eye(count, dtype=bool)
    homs = {
        (names[i], names[j]): {elements[e]: elements[images[e][j]] for e in member_positions[i]}
        for i, j in zip(*np.nonzero(strictly))
    }
    components = {
        name: FiniteMatrix(_subalgebra(algebra, [elements[p] for p in own]), frozenset())
        for name, own in zip(names, member_positions)
    }
    return DirectSystem(lattice, components, homs, kind="algebraic")


def decomposition_renaming(system: DirectSystem) -> dict[str, str]:
    """Original element -> tagged sum element, for decompositions."""
    renaming = {}
    for i, matrix in system.components.items():
        for e in matrix.algebra.elements:
            renaming[e] = f"{i}.{e}"
    return renaming


def _subalgebra(algebra: FiniteAlgebra, keep: Sequence[str]) -> FiniteAlgebra:
    """The restriction of ``algebra`` to ``keep``, which must be closed."""
    tables = {
        name: {
            args: algebra.tables[name][args]
            for args in itertools.product(keep, repeat=arity)
        }
        for name, arity in algebra.signature.connectives
    }
    return FiniteAlgebra(algebra.signature, tuple(keep), tables)


@dataclass(frozen=True)
class RegularIdentityReport:
    left: Formula
    right: Formula
    regular: bool
    holds: bool
    counterexample: Mapping[str, str] | None = None


def check_regular_identity(
    left: Formula, right: Formula, algebra: FiniteAlgebra
) -> RegularIdentityReport:
    """Evaluate an identity: regular means both sides use the same variables.

    Both sides are evaluated on index tables over the valuations of the
    sorted variables, in slabs of values of the first variable of at most
    ``_BLOCK // 8`` valuations (one value when its ``n ** (k - 1)``
    valuations are more).  The counterexample is the first failing
    valuation in ``itertools.product`` order.  With no variables the one
    empty valuation is a slab of its own.
    """
    regular = left.variables == right.variables
    names = sorted(left.variables | right.variables)
    elements = algebra.elements
    tables = algebra.index_tables
    # With no variables, one leading position stands for the empty valuation.
    grids = np.ix_(*(np.arange(len(elements)),) * len(names)) or (np.zeros(1, dtype=np.intp),)

    def differs(s):
        slab = (grids[0][s], *grids[1:])
        valuation = dict(zip(names, slab))
        lhs = _evaluate_indices(tables, left, valuation)
        rhs = _evaluate_indices(tables, right, valuation)
        return (np.broadcast_to(lhs != rhs, np.broadcast_shapes(*(g.shape for g in slab))),)

    (hit,) = _first_in_blocks(len(grids[0]), len(elements) ** (len(grids) - 1), differs)
    if hit is None:
        return RegularIdentityReport(left, right, regular, True, None)
    valuation = {v: elements[p] for v, p in zip(names, hit)}
    return RegularIdentityReport(left, right, regular, False, valuation)


# ---------------------------------------------------------------------------
# Chain matrices
# ---------------------------------------------------------------------------

_PREFERRED_TOPS = ("n", "m", "p", "q")


def _fresh_element(taken: set[str], count: int) -> str:
    if count < len(_PREFERRED_TOPS) and _PREFERRED_TOPS[count] not in taken:
        return _PREFERRED_TOPS[count]
    k = 1
    while f"t{k}" in taken:
        k += 1
    return f"t{k}"


def trivial_matrix(signature: Signature, element: str, designated: bool) -> FiniteMatrix:
    """A one-element matrix; every operation returns the element."""
    tables = {
        name: {(element,) * arity: element}
        for name, arity in signature.connectives
    }
    algebra = FiniteAlgebra(signature, (element,), tables)
    return FiniteMatrix(algebra, frozenset({element}) if designated else frozenset())


def _append_top(matrix: FiniteMatrix, element: str, designated: bool) -> FiniteMatrix:
    """One more element strictly above everything; it absorbs every operation."""
    algebra = matrix.algebra
    elements = algebra.elements + (element,)
    tables = {}
    for name, arity in algebra.signature.connectives:
        table = {}
        for args in itertools.product(elements, repeat=arity):
            if element in args:
                table[args] = element
            else:
                table[args] = algebra.tables[name][args]
        tables[name] = table
    marked = matrix.designated | ({element} if designated else frozenset())
    return FiniteMatrix(FiniteAlgebra(algebra.signature, elements, tables), marked)


def canonical_chain_matrix(base: FiniteMatrix, sequence: str) -> FiniteMatrix:
    """Fold a transform sequence into a chain of one-point extensions.

    Each step stacks a fresh trivial component strictly above everything
    built so far; the new element is designated exactly for an ``l`` step.
    The result is the sum of the corresponding chain system, built directly
    so element names stay short.
    """
    check_sequence(sequence)
    _reject_constants(base.signature, "the chain construction")
    matrix = base
    taken = set(base.algebra.elements)
    for count, step in enumerate(sequence):
        element = _fresh_element(taken, count)
        taken.add(element)
        matrix = _append_top(matrix, element, designated=(step == "l"))
    return matrix


# ---------------------------------------------------------------------------
# Direct system files
#
#   kind: l
#   semilattice: 0,0->0  0,1->1  1,0->1  1,1->1
#   component 0: b2.mat
#   component 1: top.mat
#   hom 0 1: 0->n, 1->n
# ---------------------------------------------------------------------------


def load_system_file(path) -> DirectSystem:
    path = Path(path)
    kind: str | None = None
    join_entries: dict[tuple[str, str], str] | None = None
    component_files: dict[str, str] = {}
    hom_entries: dict[tuple[str, str], dict[str, str]] = {}

    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise MatrixFormatError(f"expected 'key: value', got {line!r}", lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "kind":
            if kind is not None:
                raise MatrixFormatError("duplicate kind line", lineno)
            kind = value
        elif key == "semilattice":
            if join_entries is not None:
                raise MatrixFormatError("duplicate semilattice line", lineno)
            join_entries = {}
            for chunk in value.split():
                lhs, arrow, rhs = chunk.partition("->")
                pair = tuple(p.strip() for p in lhs.split(","))
                if not arrow or len(pair) != 2 or not rhs:
                    raise MatrixFormatError(f"bad join entry {chunk!r}", lineno)
                join_entries[pair] = rhs.strip()
        elif key.startswith("component "):
            name = key[len("component "):].strip()
            if name in component_files:
                raise MatrixFormatError(f"duplicate component {name!r}", lineno)
            component_files[name] = value
        elif key.startswith("hom "):
            parts = key.split()
            if len(parts) != 3:
                raise MatrixFormatError("hom lines look like 'hom i j: a->b, ...'", lineno)
            pair = (parts[1], parts[2])
            if pair in hom_entries:
                raise MatrixFormatError(f"duplicate hom {pair}", lineno)
            mapping = {}
            for item in value.split(","):
                item = item.strip()
                if not item:
                    continue
                lhs, arrow, rhs = item.partition("->")
                if not arrow:
                    raise MatrixFormatError(f"bad hom entry {item!r}", lineno)
                mapping[lhs.strip()] = rhs.strip()
            hom_entries[pair] = mapping
        else:
            raise MatrixFormatError(f"unknown section {key!r}", lineno)

    if kind is None:
        raise MatrixFormatError(f"{path}: missing kind line")
    if join_entries is None:
        raise MatrixFormatError(f"{path}: missing semilattice line")
    if not component_files:
        raise MatrixFormatError(f"{path}: no components")
    indices = sorted({i for pair in join_entries for i in pair} | set(component_files))
    try:
        lattice = FiniteSemilattice(tuple(indices), join_entries)
    except SemilatticeError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc
    components = {}
    for name, rel in component_files.items():
        components[name] = load_matrix_file(path.parent / rel)
    return DirectSystem(lattice, components, hom_entries, kind=kind)


def dump_system_files(system: DirectSystem, directory, basename: str) -> Path:
    """Write a system and its component matrices; returns the system path.

    An index and the base name must read back as one token of every line
    they appear on and name a file beside the system file, so either is
    refused before anything is written if it is empty or holds whitespace,
    ``,``, ``#``, ``->``, ``:`` or a path separator.
    """
    for what, name in [("base name", basename)] + [("index", i) for i in system.semilattice.indices]:
        if not name or any(c.isspace() for c in name) or any(
            s in name for s in (",", "#", "->", ":", "/", "\\")
        ):
            raise MatrixFormatError(f"{what} {name!r} cannot be written to a system file")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [f"kind: {system.kind}"]
    entries = []
    for i, j in itertools.product(system.semilattice.indices, repeat=2):
        entries.append(f"{i},{j}->{system.semilattice.join(i, j)}")
    lines.append("semilattice: " + "  ".join(entries))
    for i in system.semilattice.indices:
        filename = f"{basename}_c{i}.mat"
        (directory / filename).write_text(
            format_matrix(system.components[i]), encoding="utf-8"
        )
        lines.append(f"component {i}: {filename}")
    for (i, j), mapping in sorted(system.homs.items()):
        body = ", ".join(f"{a}->{b}" for a, b in sorted(mapping.items()))
        lines.append(f"hom {i} {j}: {body}")
    out = directory / f"{basename}.dsys"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out
