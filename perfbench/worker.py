"""One workload in one process: set-up, then passes until the time is up.

Started by ``run.py``; prints one JSON object as the last line of its
standard output.  With ``--phase setup`` it stops after set-up and reports
only the set-up time, measured from the parent's launch of this process.
Times are given both as measured (``*_raw_s``) and scaled to the reference
host speed of ``speed.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

from procs import LAUNCH_ENV, OUT, ROOT
from speed import SpeedGauge


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run"), default="run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    launched = float(os.environ.get(LAUNCH_ENV) or time.time())
    gauge = SpeedGauge()
    gauge.start()
    before_gauge = gauge.scale(time.time() - launched)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    result = {"setup_s": before_gauge + gauge.probe(), "setup_raw_s": time.time() - launched}
    if args.phase == "setup":
        gauge.stop()
        result["probe_ms"] = gauge.probe_ms()
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    elif tracing.installed_wrappers():
        raise RuntimeError(f"untraced run has span wrappers: {tracing.installed_wrappers()}")
    rec = workloads.Recorder(tracer)
    pass_s: list[float] = []
    pass_raw_s: list[float] = []
    started = time.perf_counter()
    while True:
        t0, s0 = time.perf_counter(), gauge.probe()
        workload.run_pass(len(pass_s), rec)
        pass_s.append(gauge.probe() - s0)
        pass_raw_s.append(time.perf_counter() - t0)
        if time.perf_counter() - started + statistics.median(pass_raw_s) > args.seconds:
            break
        if tracer is not None and len(tracer) > tracing.SPAN_LIMIT:
            break
    gauge.stop()
    if tracer is not None:
        tracer.uninstall()

    result.update(
        passes=len(pass_s),
        pass_s=pass_s,
        pass_raw_s=pass_raw_s,
        probe_ms=gauge.probe_ms(),
        attempted=rec.attempted,
        failed=rec.failed,
        errors=rec.errors,
        peak_rss_mb=tracing.maxrss_mb(),
        metrics=workload.summary(rec.times),
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(len(pass_s))
        result["spans"] = len(tracer)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
