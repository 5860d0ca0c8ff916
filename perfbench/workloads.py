"""The three benchmark workloads: inputs from a seed, one timed repetition.

`build` makes a repetition's inputs and `run` executes its timed
section.  `run` looks the package's functions up on their modules at
call time, so a tracer installed between the two sees every call.
Outputs are returned, not judged: run.py compares them with the pinned
reference.  Only the walk checks engine agreement itself, step by step,
because that check is part of each step's work.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from time import perf_counter

import lscrystal
from lscrystal import cli, explicit, oracle, paths

SIZES = {
    "full": {
        "equivalence": {"a": 3, "b": 3, "m_max": 5, "s_max": 3},
        "oracle": {"a": 3, "b": 3, "m_max": 5, "s_max": 3},
        "deep-walk": {"a": 2, "b": 5, "walks": 100, "steps": 256},
    },
    "toy": {
        "equivalence": {"a": 3, "b": 3, "m_max": 2, "s_max": 2},
        "oracle": {"a": 3, "b": 3, "m_max": 2, "s_max": 2},
        "deep-walk": {"a": 2, "b": 5, "walks": 4, "steps": 32},
    },
}
# everything `verify all` runs except equivalence, in its order
ORACLE_SELECTORS = ("classification", "connectedness", "straight", "axioms", "structure")


def build(workload: str, size: str, seed: int) -> dict:
    p = SIZES[size][workload]
    if workload == "equivalence":
        return {"gcm": lscrystal.GCM(p["a"], p["b"]), "m_max": p["m_max"], "s_max": p["s_max"]}
    if workload == "oracle":
        common = ["verify", "--a", str(p["a"]), "--b", str(p["b"])]
        common += ["--m-max", str(p["m_max"]), "--s-max", str(p["s_max"])]
        return {"argvs": [common + [sel] for sel in ORACLE_SELECTORS]}
    # deep-walk: the seed's walks, each drawn from its own generator
    walks = []
    for j in range(p["walks"]):
        rng = random.Random(f"{seed}:{j}")
        walks.append([(rng.random() < 0.5, rng.choice((1, 2))) for _ in range(p["steps"])])
    start = explicit.ExplicitPath(explicit.FORM_I, 0, 1, (0, 1))
    return {"gcm": lscrystal.GCM(p["a"], p["b"]), "walks": walks, "start": start}


def run(workload: str, inputs: dict) -> dict:
    return {"equivalence": _equivalence, "oracle": _oracle, "deep-walk": _deep_walk}[workload](inputs)


def _equivalence(inp: dict) -> dict:
    t0 = perf_counter()
    try:
        report = oracle.check_operator_equivalence(inp["gcm"], inp["m_max"], inp["s_max"])
        lines = report.to_json_lines()
    except Exception as err:  # a raising program is a failed repetition, not a crash
        return {"wall_s": perf_counter() - t0, "ops": 0, "output": {"error": repr(err)}}
    wall = perf_counter() - t0
    checked = sum(r.checked for r in report.results)
    return {"wall_s": wall, "ops": checked, "output": {"lines": lines, "all_passed": report.all_passed}}


def _oracle(inp: dict) -> dict:
    calls = []
    t0 = perf_counter()
    for argv in inp["argvs"]:
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                code = cli.main(argv)
        except Exception as err:
            code = repr(err)
        calls.append((code, buf.getvalue()))
    wall = perf_counter() - t0
    lines = [line for _, text in calls for line in text.splitlines()]
    ops = 0
    for line in lines:
        try:
            ops += int(json.loads(line).get("checked", 0))
        except (ValueError, AttributeError):
            pass
    return {"wall_s": wall, "ops": ops, "output": {"codes": [c for c, _ in calls], "lines": lines}}


def _path_key(ep) -> bytes:
    if ep is None:
        return b"null;"
    sig = ",".join(f"{t.numerator}/{t.denominator}" for t in ep.sigmas)
    return f"{ep.form}:{ep.m}:{ep.s}:{sig};".encode()


def _deep_walk(inp: dict) -> dict:
    gcm, start = inp["gcm"], inp["start"]
    fx, ex = explicit.f_explicit, explicit.e_explicit
    fg, eg = paths.f_generic, paths.e_generic
    to_ls, from_ls = explicit.to_ls_path, explicit.from_ls_path
    start_pi = to_ls(start)
    lat = []
    wall = 0.0
    failed = 0
    first_failure = None
    digest = hashlib.sha256()
    for w, walk in enumerate(inp["walks"]):
        ep, pi = start, start_pi
        visited = []
        t_walk = perf_counter()
        for k, (is_f, i) in enumerate(walk):
            t0 = perf_counter()
            try:
                if is_f:
                    closed, engine = fx(ep, i, gcm), fg(pi, i, gcm)
                else:
                    closed, engine = ex(ep, i, gcm), eg(pi, i, gcm)
                if closed is None or engine is None:
                    agree = closed is None and engine is None
                else:
                    agree = to_ls(closed) == engine and from_ls(engine) == closed
            except Exception as err:
                agree, closed = False, err
            lat.append(perf_counter() - t0)
            if not agree:
                failed += 1
                if first_failure is None:
                    first_failure = {"walk": w, "step": k, "op": f"{'f' if is_f else 'e'}{i}", "got": repr(closed)}
                break  # the walk cannot go on from a disputed path
            if closed is not None:
                ep, pi = closed, engine
            visited.append(closed)
        wall += perf_counter() - t_walk
        for ep in visited:
            digest.update(_path_key(ep))
        digest.update(b"|")
    return {
        "wall_s": wall,
        "ops": len(lat),
        "failed": failed,
        "lat_s": lat,
        "output": {"digest": digest.hexdigest(), "first_failure": first_failure},
    }
