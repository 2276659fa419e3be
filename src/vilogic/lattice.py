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
    oracle that is not a tower.  It works on classes of formulas that no
    tower over the given matrices can tell apart, never on the fragment's
    formulas, and evaluates towers structurally with numpy bit sets; see
    :mod:`vilogic.vector`.

Witness selection is deterministic: premise subsets are enumerated by
ascending size then combination order, conclusions in fragment enumeration
order, and the vector engine reports the first structurally distinct
disagreements in exactly that order.  Every witness leaving this module is
re-validated against the real oracles before it is reported.
"""

from __future__ import annotations

import math
from graphlib import CycleError, TopologicalSorter
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from .formulas import (
    Formula,
    FragmentSpec,
    Signature,
    enumerate_fragment,
    fragment_subsets,
    substitute,
    var,
)
from .matrices import (
    NONE_PROVEN,
    WITNESS,
    FiniteMatrix,
    LogicOracle,
    MatrixOracle,
    has_theorem_in_fragment,
)
from .plonka import canonical_chain_matrix, check_partition_function, partition_variables
from .presets import b2_and_or_matrix, b2_matrix, pi_term, sigma_set
from .transforms import (
    AntitheoremWitness,
    LeftVIOracle,
    MeetOracle,
    RightVIOracle,
    canonicalize_sequence,
    derive_sequence,
    intersect,
)
from .vector import LatticeError, disagreements

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
            f"  grid: {_count_display(self.checked_premise_sets)} premise sets x "
            f"{_count_display(self.checked_conclusions)} conclusions"
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


def _count_display(n: int) -> str:
    """``n`` in decimal, or ``~10^N`` (N = floor(log10 n), from its top bits and
    ``bit_length()``) past ``sys.get_int_max_str_digits()``."""
    try:
        return str(n)
    except ValueError:
        shift = n.bit_length() - 64
        return f"~10^{math.floor(math.log10(n >> shift) + shift * math.log10(2))}"


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
# Engines
# ---------------------------------------------------------------------------


def _vector_verdicts(
    pairs: Sequence[tuple[LogicOracle, LogicOracle]],
    fragment: FragmentSpec,
    max_witnesses: int,
    extra_witnesses: Iterable[Inference] = (),
) -> list[ComparisonVerdict]:
    """Re-validated vector-engine verdicts for every pair, from one run of
    :func:`vector.disagreements` over the matrices of all pairs.  Every
    oracle must be a tower over one signature."""
    if not pairs:
        return []
    table: list[FiniteMatrix] = []
    trees = [(_oracle_tree(a, table), _oracle_tree(b, table)) for a, b in pairs]
    signature = pairs[0][0].signature
    if any(oracle.signature != signature for pair in pairs for oracle in pair):
        raise LatticeError("compared oracles must share a signature")
    n_formulas, results = disagreements(signature, fragment, table, trees, max_witnesses)
    return [
        _verdict(
            a, b, fragment, "vector",
            *([Inference(*w) for w in side] for side in witnesses),
            counts, n_formulas, extra_witnesses,
        )
        for (a, b), (counts, *witnesses) in zip(pairs, results)
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
    return witnesses_ab, witnesses_ba, (count_ab, count_ba), len(formulas)


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


def _in_fragment(formula: Formula, signature: Signature, fragment: FragmentSpec) -> bool:
    """Whether ``formula`` is one of ``enumerate_fragment(signature,
    fragment)``: no deeper than its depth bound, and built from its
    variables and the signature's heads at their arities."""
    if formula.depth > fragment.max_depth:
        return False
    stack = [formula]
    while stack:
        f = stack.pop()
        if f.is_variable:
            if f.head not in fragment.variables:
                return False
        elif signature.arity(f.head) != len(f.args):
            return False
        else:
            stack.extend(f.args)
    return True


def _verdict(
    a: LogicOracle,
    b: LogicOracle,
    fragment: FragmentSpec,
    engine: str,
    witnesses_ab: list[Inference],
    witnesses_ba: list[Inference],
    counts: tuple[int, int],
    n_formulas: int,
    extra_witnesses: Iterable[Inference],
) -> ComparisonVerdict:
    """Merge extras into an engine result, re-validate it, build the verdict.

    ``n_formulas`` counts the engine's fragment.  A disagreeing extra is
    always shown, but counted only when it lies outside the fragment: the
    engine has already counted every fragment inference.
    """
    count_ab, count_ba = counts
    for inference in extra_witnesses:
        in_a = a.entails(inference.premises, inference.conclusion)
        in_b = b.entails(inference.premises, inference.conclusion)
        if in_a == in_b:
            continue
        bucket = witnesses_ab if in_a else witnesses_ba
        if inference not in bucket:
            bucket.append(inference)
        outside = len(inference.premises) > fragment.max_premises or not all(
            _in_fragment(f, a.signature, fragment)
            for f in inference.premises + (inference.conclusion,)
        )
        if outside and in_a:
            count_ab += 1
        elif outside:
            count_ba += 1

    _revalidate(a, b, witnesses_ab, witnesses_ba)
    # ``comb`` is 0 past the formula count, so a huge bound sums no more.
    top = min(fragment.max_premises, n_formulas)
    raw_sets = sum(math.comb(n_formulas, size) for size in range(top + 1))
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
        checked_conclusions=n_formulas,
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
    result = _run_exhaustive_engine(a, b, fragment, max_witnesses)
    return _verdict(a, b, fragment, engine, *result, extra_witnesses)


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
    # Verdicts of ``build_lattice``'s ``extra_pairs``, in their order; not
    # rendered.
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


def _reads_only(pair: tuple[LogicOracle, LogicOracle], matrices: Sequence[FiniteMatrix]) -> bool:
    """Whether both towers of ``pair`` read only ``matrices``."""
    table = list(matrices)
    for oracle in pair:
        _oracle_tree(oracle, table)
    return len(table) == len(matrices)


def _split_verdicts(
    pairs: list[tuple[LogicOracle, LogicOracle]],
    extra_pairs: list[tuple[LogicOracle, LogicOracle]],
    matrices: Sequence[FiniteMatrix],
    fragment: FragmentSpec,
    max_witnesses: int,
) -> tuple[list[ComparisonVerdict], tuple[ComparisonVerdict, ...]]:
    """Verdicts of ``pairs`` (over ``matrices``) and of ``extra_pairs``, from
    one run over ``pairs`` and the extras that read only ``matrices``, then
    one run over the other extras."""
    on_base = [_reads_only(pair, matrices) for pair in extra_pairs]
    shared = [pair for pair, flag in zip(extra_pairs, on_base) if flag]
    verdicts = _vector_verdicts(pairs + shared, fragment, max_witnesses)
    shared_verdicts = iter(verdicts[len(pairs):])
    apart = iter(_vector_verdicts(
        [pair for pair, flag in zip(extra_pairs, on_base) if not flag],
        fragment, max_witnesses,
    ))
    extra = tuple(next(shared_verdicts if flag else apart) for flag in on_base)
    return verdicts[:len(pairs)], extra


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
    algebra.  Decides exactly whether the base has an explosive premise set
    (:attr:`MatrixOracle.antitheorem_info`, by the subalgebra that each
    element generates); that fixes the node inventory: five towers without
    one, seven with, plus computed meet nodes and rendered-but-uncomputed
    join nodes.  Every node is a matrix, left, right or meet tower, so all
    computed pairs go through one vector-engine run on one context, over the
    base's matrices, and each tower is walked once per chunk of conclusion
    classes, not once per pair.

    ``extra_pairs`` are tower pairs over the base's signature; their
    verdicts land in ``extra_verdicts``, in the caller's order, and neither
    ``render`` nor ``to_json`` shows them.  A pair whose towers read only
    the base's matrices joins the lattice run, whose context it leaves
    unchanged.  The others share a second run of their own, so no extra
    matrix can split a class of the base's context: the lattice verdicts,
    counts and witnesses are those of ``build_lattice`` without extras.
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
    # Checked here: a pair over other matrices runs apart from the lattice
    # pairs, where ``_vector_verdicts`` checks it only against itself.
    if any(o.signature != base_oracle.signature for pair in extra_pairs for o in pair):
        raise LatticeError("compared oracles must share a signature")
    if not base_oracle.has_nontrivial_model:
        return LatticeReport(
            base_label=base_label,
            fragment=fragment,
            trivial_base=True,
            base_antitheorems=NONE_PROVEN,
            extra_verdicts=_split_verdicts(
                [], extra_pairs, matrices, fragment, max_witnesses
            )[1],
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
    verdicts, extra_verdicts = _split_verdicts(
        [(oracles[id_a], oracles[id_b]) for id_a, id_b in pairs],
        extra_pairs, matrices, fragment, max_witnesses,
    )
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
        extra_verdicts=extra_verdicts,
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
    in figure 3 the chain matrices) are ``build_lattice``'s extra pairs.  The
    four-step towers read only CL, so they share the lattice's vector context
    over CL; figure 3's chain pairs share a second one, over CL and the seven
    chain matrices.  Both contexts have the same formula classes, so each
    claim reads as it would beside the others.  A formula class is a
    variable set plus a designation pattern in every matrix.  Over CL, with
    two elements and {1} designated, the pattern is the term function.  Two
    formulas of one CL class therefore have the same variables and the same
    term function over CL, so they form a regular identity of CL.  A chain
    matrix is a Płonka sum of CL and one-element algebras, so every regular
    identity of CL holds in it, and the two formulas have one term function,
    hence one designation pattern, there too.  So the chain matrices split
    no CL class.
    """
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
