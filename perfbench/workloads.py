"""The four benchmark workloads and their seeded inputs.

Each workload is a class whose constructor is the set-up (import, seeded
input generation, oracle and matrix construction, reference loading) and
whose ``run_pass`` does one pass of the work.  A run repeats passes until
its time is up.  Inputs for pass ``p`` come from ``random.Random`` seeded
with the run seed, the workload name and ``p``, so a seed fixes every input
and a different seed changes them without changing their size.

Every job goes through ``vilogic``'s public functions, looked up on the
module at call time so that traced runs see the wrapped versions.  Every
output is checked against ``refs/`` or, where the answer follows from the
construction (Plonka sums of Boolean algebras), against that construction.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import vilogic as V
from vilogic import presets

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"

B2_FILE = ROOT / "src" / "vilogic" / "data" / "b2.mat"
CLI = [sys.executable, "-m", "vilogic.cli"]
CLI_COMPARE = ["compare", "--base", str(B2_FILE), "--seq-a", "lr", "--seq-b", "rl", "--json"]

CONNECTIVES = (("and", 2), ("or", 2), ("not", 1))

# Inputs are generated for this many passes; a longer run reuses them in turn.
INPUT_PASSES = 8


def pass_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


# ---------------------------------------------------------------------------
# Formula trees, generated here so that inputs do not depend on the code
# under test.  A tree is a variable name or a tuple (connective, *args).
# ---------------------------------------------------------------------------


def formula_trees(variables, max_depth):
    """Every formula over ``variables`` up to ``max_depth``, as trees."""
    depth = {v: 0 for v in variables}
    trees = list(variables)
    for d in range(1, max_depth + 1):
        level = []
        for name, arity in CONNECTIVES:
            for args in itertools.product(trees, repeat=arity):
                if max(depth[a] for a in args) == d - 1:
                    level.append((name, *args))
        for t in level:
            depth[t] = d
        trees.extend(level)
    return trees


def render(tree) -> str:
    if isinstance(tree, str):
        return tree
    return f"{tree[0]}({', '.join(render(a) for a in tree[1:])})"


def tree_vars(tree) -> frozenset:
    if isinstance(tree, str):
        return frozenset((tree,))
    return frozenset().union(*(tree_vars(a) for a in tree[1:]))


def boolean_value(tree, valuation) -> bool:
    if isinstance(tree, str):
        return valuation[tree]
    args = [boolean_value(a, valuation) for a in tree[1:]]
    if tree[0] == "and":
        return args[0] and args[1]
    if tree[0] == "or":
        return args[0] or args[1]
    return not args[0]


def truth_table(tree, variables) -> tuple:
    return tuple(
        boolean_value(tree, dict(zip(variables, values)))
        for values in itertools.product((False, True), repeat=len(variables))
    )


def parse(text: str) -> V.Formula:
    return V.parse_formula(text, presets.FULL_SIGNATURE)


@functools.lru_cache(maxsize=None)
def default_pool() -> tuple[str, ...]:
    """The 1179 formulas of the default fragment, sorted by their text."""
    return tuple(sorted(render(t) for t in formula_trees(("x", "y", "z"), 2)))


def load_ref(name: str):
    return json.loads((REFS / name).read_text(encoding="utf-8"))


def fragment(text: str) -> V.FragmentSpec:
    fields = dict(part.split("=") for part in text.split(";"))
    return V.FragmentSpec(
        variables=tuple(fields["vars"].split(",")),
        max_depth=int(fields["depth"]),
        max_premises=int(fields["premises"]),
    )


class Recorder:
    """Counts jobs, keeps their times by kind and notes failed jobs.

    A job fails when it raises (``MemoryError`` under the address-space
    limit included) or when its check returns a message.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.job_id = 0

    def next_job(self):
        self.job_id += 1
        if self.tracer is not None:
            self.tracer.job = self.job_id

    def job(self, kind, fn, check):
        """Time ``fn()``, then pass its result to ``check``; returns the result or None."""
        self.next_job()
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed job is counted, not a harness crash
            self.raised(kind, exc)
            return None
        self.times.setdefault(kind, []).append(time.perf_counter() - start)
        self.attempted += 1
        problem = check(out)
        if problem:
            self.failed += 1
            self.note(kind, problem)
        return out

    def raised(self, kind, exc):
        if isinstance(exc, MemoryError):
            self.fail(kind, "MemoryError under the address-space limit")
        else:
            self.fail(kind, f"{type(exc).__name__}: {exc}")

    def fail(self, kind, message):
        self.attempted += 1
        self.failed += 1
        self.note(kind, message)

    def note(self, kind, message):
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {message}")


def median_of(times: dict, kind: str):
    values = times.get(kind)
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


class Reproduce:
    """The three bundled reports and a CLI compare, in a seeded order."""

    name = "reproduce"
    SIZES = {
        "full": ("fig1", "fig2", "fig3", "cli"),
        "tiny": ("fig1", "cli"),
    }

    def __init__(self, seed: int, size: str = "full"):
        jobs = self.SIZES[size]
        self.orders = [
            pass_rng(seed, self.name, p).sample(jobs, len(jobs))
            for p in range(INPUT_PASSES)
        ]
        self.expected = {
            f"fig{n}": (REFS / f"figure{n}.json").read_text(encoding="utf-8")
            for n in (1, 2, 3)
        }
        self.expected["cli"] = (REFS / "cli_compare.json").read_text(encoding="utf-8")

    def inputs(self):
        return self.orders

    def run_pass(self, index: int, rec: Recorder):
        for job in self.orders[index % INPUT_PASSES]:
            expected = self.expected[job]
            if job == "cli":
                rec.job("cli", lambda: run_cli(CLI_COMPARE), lambda out: check_cli(out, expected))
            else:
                n = int(job[3:])
                rec.job(
                    job,
                    lambda: report_bytes(V.reproduce_figure(n)),
                    lambda out: None if out == expected else f"figure {n} output differs from refs",
                )

    @staticmethod
    def summary(times):
        return {
            "fig1_s": (median_of(times, "fig1"), "s"),
            "fig2_s": (median_of(times, "fig2"), "s"),
            "fig3_s": (median_of(times, "fig3"), "s"),
            "cli_compare_s": (median_of(times, "cli"), "s"),
        }


def report_bytes(report) -> str:
    """What ``vilogic reproduce --figure n --json`` prints for a report."""
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


def run_cli(args):
    return subprocess.run(CLI + list(args), cwd=ROOT, capture_output=True, text=True, timeout=120)


def check_cli(done, expected):
    if done.returncode != 0:
        return f"exit {done.returncode}: {done.stderr.strip()[-200:]}"
    return None if done.stdout == expected else "CLI compare output differs from refs"


# ---------------------------------------------------------------------------
# scale
# ---------------------------------------------------------------------------


def tower(base: V.LogicOracle, spec: str) -> V.LogicOracle:
    """A tower named by its step sequence, or the meet ``meet(s,t)``."""
    if spec.startswith("meet("):
        left, right = spec[5:-1].split(",")
        return V.intersect(V.derive_sequence(base, left), V.derive_sequence(base, right))
    return V.derive_sequence(base, spec)


class Scale:
    """One large comparison at a time: lr against rl, then criterion 3's pair.

    The seed picks which side of each pair is ``a``.  The call order is
    fixed because the process's peak memory depends on it: with lr against
    rl first, the larger comparison that follows peaks about 10% higher than
    it does in a fresh process, and the benchmark reports that higher peak
    on every seed.
    """

    name = "scale"
    PAIRS = (("lr", "rl"), ("rlr", "meet(lr,rl)"))
    SIZES = {
        "full": "vars=x,y,z;depth=2;premises=4",
        "tiny": "vars=x,y,z;depth=2;premises=3",
    }

    def __init__(self, seed: int, size: str = "full"):
        self.fragment_text = self.SIZES[size]
        self.fragment = fragment(self.fragment_text)
        self.plans = []
        for p in range(INPUT_PASSES):
            rng = pass_rng(seed, self.name, p)
            self.plans.append([pair if rng.random() < 0.5 else pair[::-1] for pair in self.PAIRS])
        self.expected = load_ref("scale.json")[self.fragment_text]

    def inputs(self):
        return self.plans

    def run_pass(self, index: int, rec: Recorder):
        for a, b in self.plans[index % INPUT_PASSES]:
            expected = self.expected[f"{a} vs {b}"]
            rec.job(
                "compare",
                lambda: self.compare(a, b),
                lambda v: None if v.to_json() == expected
                else f"{a} vs {b}: got {v.relation} {v.disagreements}",
            )

    def compare(self, a, b):
        base = V.MatrixOracle((presets.b2_matrix(),), label="CL")
        return V.compare(tower(base, a), tower(base, b), self.fragment)

    @staticmethod
    def summary(times):
        return {"compare_s": (median_of(times, "compare"), "s")}


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

BASES = (("B3", presets.b3_matrix), ("PWK", presets.pwk_matrix), ("CL", presets.b2_matrix))
EXHAUSTIVE_BASES = ("CL", "B3")
TOWERS = tuple(
    "".join(steps) for n in range(4) for steps in itertools.product("lr", repeat=n)
) + ("meet(lr,rl)",)
# The query bank: queries made from this fixed seed, with answers pinned in
# refs/oracle_bank.json.  A run draws its queries from the bank, so every
# answer of every seed is checked.
BANK_SEED = 20190308
BANK_SIZE = 40000


def fresh_oracles() -> list[V.LogicOracle]:
    """Every tower of length <= 3 and meet(lr,rl), over B3, PWK and CL."""
    out = []
    for label, make in BASES:
        base = V.MatrixOracle((make(),), label=label)
        out.extend(tower(base, spec) for spec in TOWERS)
    return out


def compare_lr_rl(label: str, spec: V.FragmentSpec, engine: str) -> V.ComparisonVerdict:
    """lr against rl over a fresh base oracle."""
    base = V.MatrixOracle((dict(BASES)[label](),), label=label)
    return V.compare(tower(base, "lr"), tower(base, "rl"), spec, engine=engine)


def oracle_bank():
    """(oracle index, premise pool indices, conclusion pool index) per query."""
    rng = random.Random(BANK_SEED)
    n_oracles = len(BASES) * len(TOWERS)
    n_pool = len(default_pool())
    bank = []
    for _ in range(BANK_SIZE):
        oracle = rng.randrange(n_oracles)
        premises = tuple(sorted(rng.sample(range(n_pool), rng.randrange(4))))
        bank.append((oracle, premises, rng.randrange(n_pool)))
    return bank


def bank_digest(bank) -> str:
    pool = default_pool()
    h = hashlib.sha256()
    for oracle, premises, conclusion in bank:
        h.update(f"{oracle}|{','.join(pool[i] for i in premises)}|{pool[conclusion]}\n".encode())
    return h.hexdigest()


class Oracle:
    """Direct entailment queries on fresh towers, and exhaustive compares."""

    name = "oracle"
    SIZES = {
        "full": (15000, 5000, "vars=x,y,z;depth=1;premises=3"),
        "tiny": (300, 100, "vars=x,y;depth=1;premises=2"),
    }

    def __init__(self, seed: int, size: str = "full"):
        n_distinct, n_repeat, self.fragment_text = self.SIZES[size]
        ref = load_ref("oracle_bank.json")
        bank = oracle_bank()
        if bank_digest(bank) != ref["digest"]:
            raise RuntimeError("query bank differs from the one refs/oracle_bank.json was pinned on")
        answers = bytes.fromhex(ref["answers"])
        pool = [parse(text) for text in default_pool()]
        self.streams = []
        for p in range(INPUT_PASSES):
            rng = pass_rng(seed, self.name, p)
            distinct = iter(rng.sample(range(BANK_SIZE), n_distinct))
            total = n_distinct + n_repeat
            repeats = set(rng.sample(range(1, total), n_repeat))
            picks = []
            for i in range(total):
                picks.append(picks[rng.randrange(i)] if i in repeats else next(distinct))
            stream = []
            for q in picks:
                oracle, premises, conclusion = bank[q]
                expected = bool(answers[q >> 3] >> (q & 7) & 1)
                stream.append((oracle, tuple(pool[i] for i in premises), pool[conclusion], expected))
            self.streams.append((stream, rng.sample(EXHAUSTIVE_BASES, len(EXHAUSTIVE_BASES))))
        self.fragment = fragment(self.fragment_text)
        self.expected = load_ref("exhaustive.json")[self.fragment_text]
        # The exhaustive engine must agree with the vector engine on the
        # relation and the first witness each way.
        self.vector = {
            label: compare_lr_rl(label, self.fragment, "vector") for label in EXHAUSTIVE_BASES
        }

    def inputs(self):
        return [
            ([(o, tuple(map(str, ps)), str(c)) for o, ps, c, _ in stream], order)
            for stream, order in self.streams
        ]

    def run_pass(self, index: int, rec: Recorder):
        stream, order = self.streams[index % INPUT_PASSES]
        oracles = fresh_oracles()
        latencies = rec.times.setdefault("query", [])
        tracer = rec.tracer
        clock = time.perf_counter_ns
        answered = wrong = 0
        for oracle, premises, conclusion, expected in stream:
            if tracer is not None:
                rec.next_job()
            start = clock()
            try:
                answer = oracles[oracle].entails(premises, conclusion)
            except Exception as exc:  # a failed query is counted, as in Recorder.job
                rec.raised("query", exc)
                continue
            latencies.append((clock() - start) / 1000.0)
            answered += 1
            if answer != expected:
                wrong += 1
                rec.note("query", f"{oracles[oracle].label}: {premises} |- {conclusion} gave {answer}")
        rec.attempted += answered
        rec.failed += wrong
        for label in order:
            rec.job(
                "exhaustive",
                lambda: compare_lr_rl(label, self.fragment, "exhaustive"),
                lambda v: self.check_exhaustive(label, v),
            )

    def check_exhaustive(self, label, verdict):
        if verdict.to_json() != self.expected[label]:
            return f"{label}: got {verdict.relation} {verdict.disagreements}"
        vector = self.vector[label]
        if (
            verdict.relation != vector.relation
            or verdict.witnesses_ab[:1] != vector.witnesses_ab[:1]
            or verdict.witnesses_ba[:1] != vector.witnesses_ba[:1]
        ):
            return f"{label}: exhaustive and vector engines disagree"
        return None

    @staticmethod
    def summary(times):
        queries = sorted(times.get("query", ()))
        out = {"exhaustive_s": (median_of(times, "exhaustive"), "s")}
        if queries:
            out["query_us.p50"] = (statistics.median(queries), "us")
            out["query_us.p99"] = (queries[min(len(queries) - 1, int(0.99 * len(queries)))], "us")
            out["query_us.samples"] = (len(queries), "count")
        return out


# ---------------------------------------------------------------------------
# plonka
# ---------------------------------------------------------------------------


def random_system(rng: random.Random, n_elements: int):
    """A direct system of Boolean algebras and one-element algebras.

    The semilattice is a union-closed family of index sets (bitmasks); a
    third of the element budget goes to renamed copies of the two-element
    Boolean algebra on a down-set of the family, the rest to one-element
    components above them.  Homomorphisms are identities between copies and
    constant maps into one-element components.  Returns the system and its
    partition of the sum's elements, one block per index.
    """
    n_boolean = n_elements // 3
    n_indices = n_elements - n_boolean
    family: set[int] = set()
    ground = 6
    while len(family) < n_indices:
        if family and (rng.random() < 0.25 or ground >= 12):
            candidate = functools.reduce(int.__or__, family) | (1 << ground)
            ground += 1
        else:
            candidate = rng.randrange(1, 1 << 6)
        closure = family | {candidate} | {candidate | s for s in family}
        if len(closure) <= n_indices:
            family = closure
    masks = sorted(family, key=lambda s: (bin(s).count("1"), s))
    boolean: set[int] = set()
    while len(boolean) < n_boolean:
        ready = [
            s for s in masks
            if s not in boolean and all(t in boolean for t in masks if t != s and t & s == t)
        ]
        boolean.add(rng.choice(ready))

    b2 = presets.b2_algebra()
    names = {s: f"s{s}" for s in masks}
    components = {}
    for s in masks:
        n = names[s]
        if s in boolean:
            ren = {e: f"{n}_{e}" for e in b2.elements}
            tables = {
                op: {tuple(ren[a] for a in args): ren[v] for args, v in table.items()}
                for op, table in b2.tables.items()
            }
            algebra = V.FiniteAlgebra(b2.signature, tuple(ren[e] for e in b2.elements), tables)
        else:
            e = f"{n}_t"
            tables = {op: {(e,) * arity: e} for op, arity in b2.signature.connectives}
            algebra = V.FiniteAlgebra(b2.signature, (e,), tables)
        components[n] = V.FiniteMatrix(algebra, frozenset())
    homs = {}
    for s in masks:
        for t in masks:
            if s != t and s | t == t:
                source, target = names[s], names[t]
                if t in boolean:  # then s is Boolean too: the Boolean indices are a down-set
                    homs[(source, target)] = {f"{source}_{e}": f"{target}_{e}" for e in b2.elements}
                else:
                    homs[(source, target)] = {
                        e: f"{target}_t" for e in components[source].algebra.elements
                    }
    join = {(names[s], names[t]): names[s | t] for s in masks for t in masks}
    lattice = V.FiniteSemilattice(tuple(names[s] for s in masks), join)
    system = V.DirectSystem(lattice, components, homs, kind="algebraic")
    # The sum tags element a of component i as "i.a".
    partition = {
        frozenset(f"{n}.{e}" for e in m.algebra.elements) for n, m in components.items()
    }
    return system, partition


def identity_pool():
    """Formulas in x, y up to depth 2, their Boolean truth tables, and the
    groups of two or more formulas that share a table."""
    trees = formula_trees(("x", "y"), 2)
    tables = {t: truth_table(t, ("x", "y")) for t in trees}
    by_table: dict[tuple, list] = {}
    for t in trees:
        by_table.setdefault(tables[t], []).append(t)
    return trees, tables, [group for group in by_table.values() if len(group) > 1]


def identity_expected(left, right, tables) -> tuple[bool, bool]:
    """(regular, holds) in a Plonka sum of Boolean and one-element algebras.

    The sum satisfies exactly the regular identities of its components when
    its semilattice has two comparable indices with the Boolean one below, as
    every generated system does.
    """
    regular = tree_vars(left) == tree_vars(right)
    return regular, regular and tables[left] == tables[right]


class Plonka:
    """Round trips through validate, sum, decompose and re-sum, and identities."""

    name = "plonka"
    SIZES = {"full": ((32, 48, 64), 12), "tiny": ((8, 12), 4)}

    def __init__(self, seed: int, size: str = "full"):
        sizes, n_identities = self.SIZES[size]
        self.term = presets.pi_term()
        trees, tables, groups = identity_pool()
        self.plans = []
        for p in range(INPUT_PASSES):
            rng = pass_rng(seed, self.name, p)
            systems = [random_system(rng, n) for n in sizes]
            identities = []
            for k in range(n_identities):
                if k % 2:
                    left, right = rng.sample(rng.choice(groups), 2)
                else:
                    left, right = rng.sample(trees, 2)
                identities.append(
                    (parse(render(left)), parse(render(right)), identity_expected(left, right, tables))
                )
            self.plans.append((rng.sample(systems, len(systems)), identities))

    def inputs(self):
        return [
            ([sorted(map(sorted, partition)) for _, partition in systems],
             [(str(a), str(b)) for a, b, _ in identities])
            for systems, identities in self.plans
        ]

    def run_pass(self, index: int, rec: Recorder):
        systems, identities = self.plans[index % INPUT_PASSES]
        largest = None
        for system, partition in systems:

            def job():
                report = V.validate_system(system)
                total = V.plonka_sum(system)
                parts = V.decompose(total, self.term)
                return report, total, parts, V.plonka_sum(parts)

            out = rec.job("roundtrip", job, lambda out: check_roundtrip(out, partition))
            if out is not None and (largest is None or len(out[1].elements) > len(largest.elements)):
                largest = out[1]
        if largest is None:
            for _ in identities:
                rec.fail("identity", "no sum to check identities on")
            return
        for left, right, (regular, holds) in identities:
            rec.job(
                "identity",
                lambda: V.check_regular_identity(left, right, largest),
                lambda r: None
                if (r.regular, r.holds) == (regular, holds)
                else f"{r.left} = {r.right}: got {(r.regular, r.holds)}",
            )

    @staticmethod
    def summary(times):
        return {"roundtrip_s": (median_of(times, "roundtrip"), "s")}


def check_roundtrip(out, partition):
    report, total, parts, resum = out
    if not report.ok:
        return "generated system rejected: " + report.render()
    found = {frozenset(m.algebra.elements) for m in parts.components.values()}
    if found != partition:
        return "decomposition partition differs from the generated one"
    renaming = {
        e: f"{i}.{e}" for i, m in parts.components.items() for e in m.algebra.elements
    }
    for op, table in total.tables.items():
        for args, value in table.items():
            if resum.tables[op][tuple(renaming[a] for a in args)] != renaming[value]:
                return f"re-sum differs from the sum at {op}{args}"
    return None


WORKLOADS = {w.name: w for w in (Reproduce, Scale, Oracle, Plonka)}
