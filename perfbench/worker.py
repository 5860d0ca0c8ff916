"""One repetition of a workload in a fresh interpreter.

Set-up time covers what the code under test does before the timed
section: the import of lscrystal from this checkout's `src/` (with the
benchmark's workloads module) and building the inputs.  Interpreter
start-up is left out: it does not depend on the code under test and is
most of the noise of a fresh process.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-run-id", type=int, default=-1, help="trace with this run id; -1 = untraced")
    ap.add_argument("--spans", help="CSV file the traced run appends its spans to")
    args = ap.parse_args()

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import lscrystal

    if not Path(lscrystal.__file__).resolve().is_relative_to(SRC):
        print(f"lscrystal imported from {lscrystal.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    inputs = workloads.build(args.workload, args.size, args.seed)
    setup_s = perf_counter() - t0
    out = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace_run_id >= 0:
            from tracer import Tracer

            tracer = Tracer(args.trace_run_id)
            tracer.install()
        out.update(workloads.run(args.workload, inputs))
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = tracer.summary()
            if args.spans:
                tracer.write_spans(args.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
