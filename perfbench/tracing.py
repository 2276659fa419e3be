"""Spans around vilogic's public functions, for the traced run only.

``Tracer.install`` replaces each function in ``FUNCTIONS`` under every
``vilogic`` module name it is bound to (``lattice`` imports
``enumerate_fragment`` and ``canonical_chain_matrix``, the package
re-exports nearly everything), and ``LogicOracle.entails`` on the class.
Nothing under ``src/`` is edited.  Spans (name, start, end, parent, job)
go into flat arrays, are written out with ``save`` at the end of the run,
and the per-layer metrics are derived from the span tree: a span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import resource
import sys
import time
from array import array

import numpy as np

# A traced run starts no new pass once this many spans are held.
SPAN_LIMIT = 3_000_000

FUNCTIONS = (
    ("formulas.enumerate", "vilogic.formulas", "enumerate_fragment"),
    ("matrices.entails", "vilogic.matrices", "entails"),
    ("transforms.is_antitheorem", "vilogic.transforms", "is_antitheorem"),
    ("lattice.compare", "vilogic.lattice", "compare"),
    ("lattice.build_lattice", "vilogic.lattice", "build_lattice"),
    ("lattice.witness_suite", "vilogic.lattice", "witness_suite"),
    ("plonka.validate", "vilogic.plonka", "validate_system"),
    ("plonka.sum", "vilogic.plonka", "plonka_sum"),
    ("plonka.partition_check", "vilogic.plonka", "check_partition_function"),
    ("plonka.decompose", "vilogic.plonka", "decompose"),
    ("plonka.chain_matrix", "vilogic.plonka", "canonical_chain_matrix"),
)
ORACLE_ENTAILS = "matrices.oracle_entails"
MARK = "__perfbench_span__"


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vilogic_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "vilogic" or n.startswith("vilogic."))
    ]


def installed_wrappers() -> list[str]:
    """Names of vilogic attributes that are currently span wrappers."""
    found = [
        f"{m.__name__}.{attr}"
        for m in vilogic_modules()
        for attr, value in vars(m).items()
        if hasattr(value, MARK)
    ]
    oracle = sys.modules["vilogic.matrices"].LogicOracle
    if hasattr(oracle.entails, MARK):
        found.append("vilogic.matrices.LogicOracle.entails")
    return found


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in FUNCTIONS] + [ORACLE_ENTAILS]
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.jobs = array("q")
        self.stack: list[int] = []
        self.job = 0
        self.formulas = 0
        self.sum_elements = 0
        self.vector_compares: list[int] = []
        self.rss_growth: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.start)

    def span(self, name_id, fn, args, kwargs):
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.jobs.append(self.job)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            self.stack.pop()

    def _wrapper(self, span_name, fn):
        name_id = self.names.index(span_name)
        if span_name == "formulas.enumerate":
            def wrapper(*args, **kwargs):
                out = self.span(name_id, fn, args, kwargs)
                self.formulas += len(out)
                return out
        elif span_name == "plonka.sum":
            def wrapper(*args, **kwargs):
                out = self.span(name_id, fn, args, kwargs)
                self.sum_elements += len(getattr(out, "algebra", out).elements)
                return out
        elif span_name == "lattice.compare":
            def wrapper(*args, **kwargs):
                engine = kwargs.get("engine", args[4] if len(args) > 4 else "auto")
                if engine != "exhaustive":
                    self.vector_compares.append(len(self.start))
                before = maxrss_mb()
                try:
                    return self.span(name_id, fn, args, kwargs)
                finally:
                    self.rss_growth.append(maxrss_mb() - before)
        else:
            def wrapper(*args, **kwargs):
                return self.span(name_id, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        setattr(wrapper, MARK, span_name)
        return wrapper

    def install(self):
        modules = vilogic_modules()
        for span_name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrapper(span_name, original)
            for m in modules:
                if vars(m).get(attr) is original:
                    self._patched.append((m, attr, original))
                    setattr(m, attr, wrapper)
        oracle = sys.modules["vilogic.matrices"].LogicOracle
        original = vars(oracle)["entails"]
        self._patched.append((oracle, "entails", original))
        oracle.entails = self._wrapper(ORACLE_ENTAILS, original)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.uint8),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.jobs, dtype=np.int64),
        )

    def save(self, path):
        name, start, end, parent, job = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end,
                 parent=parent, job=job)

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass, as (value, unit), derived from the span tree."""
        name, start, end, parent, _ = self.arrays()
        n = len(name)
        duration = end - start
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=duration[child], minlength=n)
        n_children = np.bincount(parent[child], minlength=n)
        self_time = duration - child_time

        def calls(span_name):
            count = np.count_nonzero(name == self.names.index(span_name))
            return int(count) / passes, "count"

        def self_s(span_name):
            return float(self_time[name == self.names.index(span_name)].sum()) / passes, "s"

        entails = name == self.names.index(ORACLE_ENTAILS)
        n_entails = int(np.count_nonzero(entails))
        hits = int(np.count_nonzero(entails & (n_children == 0)))
        vector_compare = np.zeros(n, dtype=bool)
        vector_compare[np.asarray(self.vector_compares, dtype=np.int64)] = True
        under_compare = child & vector_compare[np.where(child, parent, 0)]
        return {
            "formulas.enumerate.calls": calls("formulas.enumerate"),
            "formulas.enumerate.self_s": self_s("formulas.enumerate"),
            "formulas.enumerate.formulas": (self.formulas / passes, "count"),
            "matrices.oracle_entails.calls": calls(ORACLE_ENTAILS),
            "matrices.oracle_entails.self_s": self_s(ORACLE_ENTAILS),
            "matrices.memo_hit_ratio": (hits / n_entails if n_entails else 0.0, "ratio"),
            "matrices.entails.calls": calls("matrices.entails"),
            "matrices.entails.self_s": self_s("matrices.entails"),
            "transforms.is_antitheorem.calls": calls("transforms.is_antitheorem"),
            "transforms.is_antitheorem.self_s": self_s("transforms.is_antitheorem"),
            "lattice.compare.calls": calls("lattice.compare"),
            "lattice.compare.self_s": self_s("lattice.compare"),
            "lattice.compare.revalidations":
                (int(np.count_nonzero(entails & under_compare)) / passes, "count"),
            "lattice.compare.rss_growth_mb": (max(self.rss_growth, default=0.0), "MB"),
            "lattice.build_lattice.self_s": self_s("lattice.build_lattice"),
            "lattice.witness_suite.self_s": self_s("lattice.witness_suite"),
            "plonka.validate.self_s": self_s("plonka.validate"),
            "plonka.sum.self_s": self_s("plonka.sum"),
            "plonka.partition_check.self_s": self_s("plonka.partition_check"),
            "plonka.decompose.self_s": self_s("plonka.decompose"),
            "plonka.sum.elements": (self.sum_elements / passes, "count"),
            "plonka.chain_matrix.calls": calls("plonka.chain_matrix"),
        }
