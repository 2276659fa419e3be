"""Scaling ladder: criterion 3's pair, ``rlr`` against ``meet(lr,rl)`` over CL.

    python3 perfbench/ladder.py

A one-off command, not a benchmark workload and not part of the repeated
runs.  It reproduces the ROADMAP's Baseline scaling table at four fragment
sizes.  Each point runs in its own child process under an address-space
limit, so a point that needs more memory than the limit reads "over
budget" instead of being killed by the kernel.  Prints formulas, time,
peak RSS and outcome per point.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from procs import MEM_LIMIT_MB, ROOT, HarnessError, run_child

POINTS = (
    ("default", "vars=x,y,z;depth=2;premises=3"),
    ("premises=4", "vars=x,y,z;depth=2;premises=4"),
    ("4 variables", "vars=x,y,z,w;depth=2;premises=3"),
    ("premises=5", "vars=x,y,z;depth=2;premises=5"),
)


def point(fragment_text: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import vilogic as V
    from vilogic import presets

    import tracing
    import workloads as W

    spec = W.fragment(fragment_text)
    out = {"formulas": len(V.enumerate_fragment(presets.FULL_SIGNATURE, spec))}
    base = V.MatrixOracle((presets.b2_matrix(),), label="CL")
    start = time.perf_counter()
    try:
        verdict = V.compare(W.tower(base, "rlr"), W.tower(base, "meet(lr,rl)"), spec)
        out["outcome"] = verdict.relation
    except MemoryError:
        out["outcome"] = "over budget"
    out["seconds"] = time.perf_counter() - start
    out["peak_rss_mb"] = tracing.maxrss_mb()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--point", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point is not None:
        print(json.dumps(point(args.point)))
        return 0

    print(f"rlr vs meet(lr,rl) over CL, vector engine, address-space limit {MEM_LIMIT_MB} MB")
    print(f"{'point':12} {'fragment':34} {'formulas':>8} {'time_s':>8} {'peak_rss_mb':>11}  outcome")
    for name, text in POINTS:
        try:
            r = run_child(["perfbench/ladder.py", "--point", text])
        except HarnessError as exc:
            print(f"{name:12} {text:34} {'':>8} {'':>8} {'':>11}  failed: {exc}")
            continue
        print(f"{name:12} {text:34} {r['formulas']:8d} {r['seconds']:8.2f} "
              f"{r['peak_rss_mb']:11.1f}  {r['outcome']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
