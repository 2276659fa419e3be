"""Child processes for the benchmark and the ladder.

Each child gets ``src/`` on its path, numpy's thread pools capped at the
machine's CPU count, and an address-space limit (``RLIMIT_AS``) set on the
child alone, so that a job too large for memory raises ``MemoryError``
inside the child instead of drawing the kernel's out-of-memory killer.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
LAUNCH_ENV = "PERFBENCH_LAUNCH"
MEM_LIMIT_MB = 2560
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(RuntimeError):
    """A child process ended without a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_VARS:
        env[name] = str(nproc())
    return env


def run_child(args):
    """Run ``python3 <args>`` under the limit; returns the JSON of its last stdout line."""
    limit = MEM_LIMIT_MB * 1024 * 1024

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = child_env()
    env[LAUNCH_ENV] = repr(time.time())
    try:
        done = subprocess.run(
            [sys.executable, *map(str, args)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, preexec_fn=limit_address_space,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{args[0]} timed out after {CHILD_TIMEOUT_S:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise HarnessError(
            f"{args[0]} exited with {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def git_sha() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"
