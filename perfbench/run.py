"""lscrystal benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload equivalence --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Every repetition is a fresh interpreter
(see worker.py), started one after another from this process, so the
package's lru caches start cold each time, as they do for a CLI user.
Repetitions, all on the same inputs, are started until `--seconds` have
passed.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates an
untraced and a traced repetition on the same inputs and reports the
per-layer metrics of the traced ones (see tracer.py) together with
trace.overhead_ratio, traced over untraced wall time.

Every repetition's output is checked against the pinned reference
(reference.json); any mismatch makes the run fail.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics, with
the metrics that BENCHMARK.json lists.  The full results, with the
machine and per-metric sample counts, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("equivalence", "oracle", "deep-walk")
SETUP_SAMPLES = 61
PROBES_PER_REP = 6
WORKER_TIMEOUT_S = 150

STRINGS = ("paths.epsilon", "paths.phi", "paths.e_max", "paths.f_max")
GENERIC_OPS = ("paths.f_generic", "paths.e_generic")


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(trace: dict) -> dict:
    """The per-layer table of one traced repetition, named by module."""
    funcs = trace["funcs"]

    def calls(*names):
        return sum(funcs.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(funcs.get(n, {}).get("self_s", 0.0) for n in names)

    def module_self(mod):
        return sum(v["self_s"] for n, v in funcs.items() if n.startswith(mod + "."))

    def hit_ratio(label):
        c = trace["caches"].get(label, {"hits": 0, "misses": 0})
        n = c["hits"] + c["misses"]
        return c["hits"] / n if n else None

    m = {}
    for fn in ("f_explicit", "e_explicit", "validate_explicit"):
        m[f"explicit.{fn}.calls"] = calls(f"explicit.{fn}")
        m[f"explicit.{fn}.self_s"] = self_s(f"explicit.{fn}")
    m["explicit.partial_sums.self_s"] = self_s("explicit.partial_sums")
    convert = ("explicit.to_ls_path", "explicit.from_ls_path")
    m["explicit.convert.calls"] = calls(*convert)
    m["explicit.convert.self_s"] = self_s(*convert)
    m["explicit.ExplicitPath.constructed"] = calls("explicit.ExplicitPath")
    m["explicit.ExplicitPath.init_s"] = self_s("explicit.ExplicitPath")
    m["explicit.enumerate_explicit.self_s"] = self_s("explicit.enumerate_explicit")
    m["explicit.enumerate_explicit.forms"] = funcs.get("explicit.enumerate_explicit", {}).get("size", 0)
    m["explicit.self_s"] = module_self("explicit")
    for fn in ("f_generic", "e_generic"):
        m[f"paths.{fn}.calls"] = calls(f"paths.{fn}")
        m[f"paths.{fn}.self_s"] = self_s(f"paths.{fn}")
    m["paths.LSPath.constructed"] = calls("paths.LSPath")
    m["paths.LSPath.init_s"] = self_s("paths.LSPath")
    m["paths.strings.calls"] = calls(*STRINGS)
    m["paths.strings.op_calls"] = sum(n for p, c, n in trace["edges"] if p in STRINGS and c in GENERIC_OPS)
    m["paths.strings.self_s"] = self_s(*STRINGS)
    m["paths.self_s"] = module_self("paths")
    m["oracle.sigma_chain_exists.calls"] = calls("oracle.sigma_chain_exists")
    m["oracle.sigma_chain_exists.hit_ratio"] = hit_ratio("oracle.sigma_chain_exists")
    for fn in ("sigma_chain_lengths", "dist", "enumerate_ls_paths"):
        m[f"oracle.{fn}.calls"] = calls(f"oracle.{fn}")
        m[f"oracle.{fn}.self_s"] = self_s(f"oracle.{fn}")
    m["oracle.enumerate_ls_paths.paths"] = funcs.get("oracle.enumerate_ls_paths", {}).get("size", 0)
    for name, v in sorted(funcs.items()):
        if name.startswith("oracle.check_") and v["calls"]:
            m[f"{name}.wall_s"] = v["total_s"]
    m["oracle.self_s"] = module_self("oracle")
    for fn in ("pq_table", "orbit_weight"):
        m[f"weyl.{fn}.calls"] = calls(f"weyl.{fn}")
        m[f"weyl.{fn}.hit_ratio"] = hit_ratio(f"weyl.{fn}")
    m["weyl.self_s"] = module_self("weyl")
    m["cli.main.self_s"] = module_self("cli")
    return m


# ---------------------------------------------------------------------------
# repetitions


def spawn(workload: str, size: str, seed: int, *, setup_only=False, trace_run_id=-1, spans=None) -> dict:
    """Run one repetition in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, "-s", str(BENCH / "worker.py"), "--workload", workload, "--size", size]
    cmd += ["--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_run_id >= 0:
        cmd += ["--trace-run-id", str(trace_run_id)]
        if spans:
            cmd += ["--spans", str(spans)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # a fixed string-hash seed keeps set and dict layouts, and so the work
    # done, the same from one interpreter to the next
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} repetition exceeded {WORKER_TIMEOUT_S} s") from err
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError) as err:
        raise BenchError(f"{workload} repetition printed no result:\n{proc.stderr[-2000:]}") from err


def judge(workload: str, rep: dict, ref: dict, seed: int) -> tuple[int, int, str | None]:
    """(attempted, failed, reason) for one repetition against the reference."""
    out = rep["output"]
    if workload == "deep-walk":
        attempted, failed = rep["ops"], rep["failed"]
        if failed:
            return attempted, failed, f"engines disagree: {out['first_failure']}"
        pinned = ref["digests"].get(str(seed))
        if pinned is not None and out["digest"] != pinned:
            return attempted, attempted, f"walk digest {out['digest']} != pinned {pinned}"
        return attempted, 0, None
    attempted = ref["ops"]
    if out != ref["output"] or rep["ops"] != ref["ops"]:
        return attempted, attempted, f"output differs from the pinned reference: {json.dumps(out)[:400]}"
    return attempted, 0, None


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lscrystal").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def measure(args, size: str, ref: dict) -> dict:
    """Run repetitions until the time is up; return metrics and verdicts."""
    w, seed = args.workload, args.seed
    spawn(w, size, seed, setup_only=True)  # untimed warm-up: bytecode cache, page cache
    deadline = perf_counter() + args.seconds
    reps, traced, failures, setups = [], [], [], []
    attempted = failed = 0
    spans = None
    if args.trace:
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        spans = OUT / "trace" / f"{w}-seed{seed}.csv"
        spans.unlink(missing_ok=True)
    while not reps or perf_counter() < deadline:
        batch = [spawn(w, size, seed)]
        if args.trace:
            batch.append(spawn(w, size, seed, trace_run_id=len(reps), spans=spans))
        for rep in batch:
            a, f, why = judge(w, rep, ref, seed)
            attempted, failed = attempted + a, failed + f
            if why:
                failures.append({"repetition": len(reps), "traced": "trace" in rep, "reason": why})
        reps.append(batch[0])
        if args.trace:
            traced.append(batch[1])
        else:
            # set-up samples spread over the run, not bunched at its end
            setups.append(batch[0]["setup_s"])
            setups += [spawn(w, size, seed, setup_only=True)["setup_s"] for _ in range(PROBES_PER_REP)]

    metrics, samples = {}, {}
    if args.trace:
        tables = [layer_metrics(r["trace"]) for r in traced]
        for name in tables[0]:
            vals = [t[name] for t in tables if t[name] is not None]
            if vals:
                # median_low keeps counts whole: it is always one of the values
                metrics[name], samples[name] = statistics.median_low(vals), len(vals)
        ratios = [t["wall_s"] / u["wall_s"] for u, t in zip(reps, traced)]
        metrics["trace.overhead_ratio"] = statistics.median(ratios)
        samples["trace.overhead_ratio"] = len(ratios)
        extra = {
            "spans_total": [r["trace"]["spans_total"] for r in traced],
            "spans_kept": [r["trace"]["spans_kept"] for r in traced],
            "spans_file": str(spans.relative_to(ROOT)),
            "traced_wall_s": [r["wall_s"] for r in traced],
        }
    else:
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(w, size, seed, setup_only=True)["setup_s"])
        walls = [r["wall_s"] for r in reps]
        # an op is a walk step (both engines, both conversions) on
        # deep-walk; elsewhere it is the repetition's timed section, the
        # smallest unit that can be timed without tracing.  Percentiles
        # are taken within each repetition and their median reported, so
        # one repetition caught in a burst of machine noise moves neither.
        lat_us = [[s * 1e6 for s in r.get("lat_s", [r["wall_s"]])] for r in reps]
        p50 = [percentile(lat, 0.50) for lat in lat_us]
        p99 = [percentile(lat, 0.99) for lat in lat_us]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "ops_per_s": statistics.median(r["ops"] / r["wall_s"] for r in reps),
            "op_p50_us": statistics.median(p50),
            "op_p99_us": statistics.median(p99),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "failed_ratio": failed / attempted,
        }
        samples = {
            "setup_s": len(setups),
            "wall_s": len(walls),
            "ops_per_s": len(walls),
            "op_p50_us": sum(map(len, lat_us)),
            "op_p99_us": sum(map(len, lat_us)),
            "peak_rss_mb": len(reps),
            "failed_ratio": attempted,
        }
        extra = {
            "wall_s": walls,
            "setup_s": setups,
            "ops": [r["ops"] for r in reps],
            "op_p50_us": p50,
            "op_p99_us": p99,
        }
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "repetitions": len(reps),
        "extra": extra,
    }


def main(argv=None, size: str = "full") -> int:
    """`size` "toy" gives the self-check's small inputs."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "lscrystal" / "__init__.py").is_file():
        print(f"error: no lscrystal sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        ref = json.loads((BENCH / "reference.json").read_text())[size][args.workload]
    except (OSError, ValueError, KeyError) as err:
        print(f"error: no BENCHMARK.json or pinned reference for {size}/{args.workload}: {err!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        res = measure(args, size, ref)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3

    correct = res["failed"] == 0
    info = machine()
    print(f"lscrystal benchmark  workload={args.workload} seed={args.seed} size={size} trace={args.trace}")
    print(f"machine: Python {info['python']}, nproc={info['nproc']}, {info['cpu_model']}")
    print(f"commit: {info['git_commit']}, src sha256 {info['src_sha256'][:16]}")
    kind = "untraced+traced pairs" if args.trace else "repetitions"
    print(f"{kind}: {res['repetitions']}, each repetition in a fresh interpreter")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    # metrics of the table that BENCHMARK.json does not list carry their
    # unit in their name (.calls, _s, _ratio)
    for name in sorted(res["metrics"]):
        print(f"  {name:44s} {res['metrics'][name]:>16.6g} {units.get(name, ''):6s} n={res['samples'][name]}")
    for fail in res["failures"]:
        print(f"FAIL repetition {fail['repetition']}{' (traced)' if fail['traced'] else ''}: {fail['reason']}")

    final = {n: {"value": res["metrics"][n], "unit": u} for n, u in units.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "machine": info,
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "metrics": {n: {"value": v, "samples": res["samples"][n]} for n, v in res["metrics"].items()},
        "repetitions": res["repetitions"],
        "raw": res["extra"],
    }
    result_file = OUT / f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
