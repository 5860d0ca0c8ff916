"""Regenerate reference.json, the pinned outputs every run is checked against.

    python3 perfbench/make_reference.py

Run it only on code whose outputs are known good (the tier-1 tests pass
and the engines agree); a benchmark run then fails whenever an output
drifts from what is recorded here.  Deep-walk digests are pinned for
SEEDS; other seeds are still checked step by step for engine agreement.
"""

from __future__ import annotations

import json

from run import BENCH, WORKLOADS, spawn

SEEDS = range(32)


def main() -> None:
    ref = {}
    for size in ("full", "toy"):
        ref[size] = {}
        for w in WORKLOADS:
            if w == "deep-walk":
                ref[size][w] = {"digests": {str(seed): spawn(w, size, seed)["output"]["digest"] for seed in SEEDS}}
            else:
                rep = spawn(w, size, 0)
                ref[size][w] = {"ops": rep["ops"], "output": rep["output"]}
            print(size, w, "pinned", flush=True)
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
