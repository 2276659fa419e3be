"""vilogic benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: reproduce, scale, oracle, plonka (see workloads.py and the
README).  The workload runs in a child process under an address-space
limit.  With ``--trace 0``, set-up is measured in six extra set-up-only
children and in the measuring child, and ``setup_s`` is their median.  With
``--trace 1`` the time is split between an untraced child and a traced one;
only the traced run installs span wrappers, and the difference of their
pass times is ``trace.overhead_s``.  Every child scales its times to a
reference host speed with ``speed.SpeedGauge``; the median probe time,
``probe_ms`` on the provenance line, tells runs made while the host was
fast from runs made while it was slow.

Prints every metric by name and unit, then, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones
with ``--trace 1``.  Exits 2 without a result when ``src/vilogic`` is
missing and 1 when a child ends without a result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from procs import OUT, ROOT, HarnessError, child_env, git_sha, nproc, run_child

WORKLOADS = ("reproduce", "scale", "oracle", "plonka")
SETUP_SAMPLES = 6
CLI_STARTUP_SAMPLES = 3
WORKER = "perfbench/worker.py"


def worker(args, phase, trace, seconds):
    return run_child([
        WORKER, "--workload", args.workload, "--seed", args.seed, "--seconds", seconds,
        "--trace", trace, "--phase", phase, "--size", args.size,
    ])


def cli_startup_s() -> float:
    """Median wall time of a CLI invocation that does no work."""
    times = []
    for _ in range(CLI_STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "vilogic.cli", "--help"], cwd=ROOT,
                       env=child_env(), capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(setups, run):
    failed, attempted = run["failed"], run["attempted"]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (statistics.median(run["pass_s"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    shown = dict(metrics)
    shown["setup_raw_s"] = (statistics.median(s["setup_raw_s"] for s in setups), "s (as measured)")
    shown["wall_raw_s"] = (statistics.median(run["pass_raw_s"]), "s (as measured)")
    shown["error_rate"] = (failed / attempted if attempted else 1.0, f"ratio ({failed} failed / {attempted} attempted)")
    for name, (value, unit) in run["metrics"].items():
        shown[name] = (value, unit)
    return metrics, shown


def per_layer(workload, plain, traced):
    plain_wall = statistics.median(plain["pass_s"])
    traced_wall = statistics.median(traced["pass_s"])
    metrics = {name: tuple(pair) for name, pair in traced["layers"].items()}
    startup = cli_startup_s() if workload == "reproduce" else 0.0
    cli_compare = plain["metrics"].get("cli_compare_s", (None,))[0]
    metrics["cli.startup_s"] = (startup, "s")
    metrics["cli.compare.work_s"] = (cli_compare - startup if cli_compare else 0.0, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    shown = dict(metrics)
    shown["matrices.memo_hit_ratio"] = (
        metrics["matrices.memo_hit_ratio"][0],
        f"ratio (of {metrics['matrices.oracle_entails.calls'][0]:g} oracle_entails calls per pass)",
    )
    shown["trace.wall_raw_s"] = (statistics.median(traced["pass_raw_s"]), "s (as measured, like the self times)")
    shown["trace.passes"] = (traced["passes"], f"count ({traced['spans']} spans)")
    return metrics, shown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vilogic" / "__init__.py").is_file():
        print(f"perfbench: no vilogic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setups = []
    try:
        if args.trace:
            plain = worker(args, "run", 0, args.seconds / 2)
            traced = worker(args, "run", 1, args.seconds / 2)
            runs = [plain, traced]
            metrics, shown = per_layer(args.workload, plain, traced)
        else:
            setups = [worker(args, "setup", 0, args.seconds) for _ in range(SETUP_SAMPLES)]
            runs = [worker(args, "run", 0, args.seconds)]
            metrics, shown = end_to_end(setups + runs, runs[0])
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git": git_sha(),
        "python": runs[0]["python"], "numpy": runs[0]["numpy"], "nproc": nproc(),
        "passes": [r["passes"] for r in runs],
        "probe_ms": round(statistics.median(r["probe_ms"] for r in setups + runs), 3),
    }
    print(" ".join(f"{k}={v}" for k, v in provenance.items()))
    for name, (value, unit) in shown.items():
        print(f"  {name:34} {'n/a' if value is None else f'{value:.6g}':>12}  {unit}")
    errors = [e for r in runs for e in r["errors"]]
    for e in errors:
        print(f"  error: {e}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**provenance, **result, "shown": shown, "errors": errors,
                    "setup_samples": setups, "runs": runs}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
