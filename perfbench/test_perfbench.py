"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

Kept out of the package's own test run (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import procs  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

BENCHMARK = json.loads((procs.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=procs.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_tiny_run_has_no_errors(name):
    done = bench("--workload", name, "--seed", 3, "--seconds", 1, "--trace", 0, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert any(line.split()[:2] == ["error_rate", "0"] for line in done.stdout.splitlines())
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_tiny_run_reports_every_layer_metric():
    done = bench("--workload", "scale", "--seed", 3, "--seconds", 2, "--trace", 1, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["lattice.compare.calls"]["value"] == 2
    assert metrics["lattice.compare.self_s"]["value"] > metrics["formulas.enumerate.self_s"]["value"]


def test_flipped_reference_relation_is_an_error():
    workload = W.Scale(5, "tiny")
    a, b = workload.plans[0][0]
    key = f"{a} vs {b}"
    flipped = dict(workload.expected[key])
    flipped["relation"] = "equal" if flipped["relation"] != "equal" else "incomparable"
    workload.expected = {**workload.expected, key: flipped}
    rec = W.Recorder()
    workload.run_pass(0, rec)
    assert (rec.attempted, rec.failed) == (2, 1)
    assert rec.errors and key.split(" vs ")[0] in rec.errors[0]


def test_memory_error_is_a_failed_job():
    rec = W.Recorder()

    def too_big():
        raise MemoryError

    assert rec.job("compare", too_big, lambda out: None) is None
    assert (rec.attempted, rec.failed) == (1, 1)
    assert "MemoryError" in rec.errors[0]


def test_query_that_raises_is_a_failed_job(monkeypatch):
    workload = W.Oracle(2, "tiny")

    class Broken:
        label = "broken"

        def entails(self, premises, conclusion):
            raise ValueError("boom")

    monkeypatch.setattr(W, "fresh_oracles", lambda: [Broken()] * len(W.BASES) * len(W.TOWERS))
    rec = W.Recorder()
    workload.run_pass(0, rec)
    queries = len(workload.streams[0][0])
    assert (rec.attempted, rec.failed) == (queries + len(W.EXHAUSTIVE_BASES), queries)
    assert rec.errors[0] == "query: ValueError: boom"


def input_size(name, inputs):
    if name == "oracle":
        return [(len(stream), len(order)) for stream, order in inputs]
    if name == "plonka":
        return [(sorted(sum(map(len, p)) for p in systems), len(ids)) for systems, ids in inputs]
    return [len(plan) for plan in inputs]


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_seed_fixes_inputs_and_not_their_size(name):
    cls = W.WORKLOADS[name]
    first, again, other = (cls(seed, "tiny").inputs() for seed in (7, 7, 8))
    assert first == again
    assert first != other
    assert input_size(name, first) == input_size(name, other)


def test_wrappers_cover_every_binding_and_come_off():
    assert tracing.installed_wrappers() == []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = set(tracing.installed_wrappers())
    finally:
        tracer.uninstall()
    assert {
        "vilogic.formulas.enumerate_fragment",
        "vilogic.lattice.enumerate_fragment",
        "vilogic.matrices.enumerate_fragment",
        "vilogic.transforms.enumerate_fragment",
        "vilogic.lattice.canonical_chain_matrix",
        "vilogic.lattice.check_partition_function",
        "vilogic.plonka.validate_system",
        "vilogic.compare",
        "vilogic.matrices.LogicOracle.entails",
    } <= installed
    assert tracing.installed_wrappers() == []


def test_self_time_comes_from_the_span_tree():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        W.Scale(1, "tiny").run_pass(0, W.Recorder(tracer))
    finally:
        tracer.uninstall()
    name, start, end, parent, _ = tracer.arrays()
    layers = tracer.layer_metrics(1)
    compare = name == tracer.names.index("lattice.compare")
    assert layers["lattice.compare.self_s"][0] < float((end - start)[compare].sum())
    assert layers["formulas.enumerate.calls"][0] >= 2
    assert (parent[name == tracer.names.index("formulas.enumerate")] >= 0).all()


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(procs.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "scale", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
