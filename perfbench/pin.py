"""Write the pinned references in refs/ from the sources in src/.

Run it only at a commit whose outputs are known to be right; every later
run is checked against what it writes:

    python3 perfbench/pin.py

Figures 2 and 3 report ``"ok": false`` (the documented criterion-3
failure); their bytes are pinned as they are.
"""

from __future__ import annotations

import json
import os
import sys

from procs import ROOT, child_env

sys.path.insert(0, str(ROOT / "src"))
import vilogic as V  # noqa: E402
from vilogic import presets  # noqa: E402

import workloads as W  # noqa: E402


def write_json(name, data):
    text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    (W.REFS / name).write_text(text, encoding="utf-8")


def main() -> int:
    os.environ.update(child_env())
    W.REFS.mkdir(exist_ok=True)
    for n in (1, 2, 3):
        (W.REFS / f"figure{n}.json").write_text(W.report_bytes(V.reproduce_figure(n)), encoding="utf-8")
    done = W.run_cli(W.CLI_COMPARE)
    if done.returncode != 0:
        raise SystemExit(f"CLI compare failed: {done.stderr}")
    (W.REFS / "cli_compare.json").write_text(done.stdout, encoding="utf-8")

    scale = {}
    for text in W.Scale.SIZES.values():
        entries = scale[text] = {}
        for pair in W.Scale.PAIRS:
            for a, b in (pair, pair[::-1]):
                base = V.MatrixOracle((presets.b2_matrix(),), label="CL")
                verdict = V.compare(W.tower(base, a), W.tower(base, b), W.fragment(text))
                entries[f"{a} vs {b}"] = verdict.to_json()
    write_json("scale.json", scale)

    bank = W.oracle_bank()
    pool = [W.parse(text) for text in W.default_pool()]
    oracles = W.fresh_oracles()
    bits = bytearray((len(bank) + 7) // 8)
    for q, (oracle, premises, conclusion) in enumerate(bank):
        if oracles[oracle].entails([pool[i] for i in premises], pool[conclusion]):
            bits[q >> 3] |= 1 << (q & 7)
    write_json("oracle_bank.json", {
        "seed": W.BANK_SEED,
        "size": len(bank),
        "digest": W.bank_digest(bank),
        "answers": bits.hex(),
    })

    exhaustive = {}
    for _, _, text in W.Oracle.SIZES.values():
        exhaustive[text] = {
            label: W.compare_lr_rl(label, W.fragment(text), "exhaustive").to_json()
            for label in W.EXHAUSTIVE_BASES
        }
    write_json("exhaustive.json", exhaustive)
    return 0


if __name__ == "__main__":
    sys.exit(main())
