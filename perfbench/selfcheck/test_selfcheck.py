"""Fast self-check of the benchmark itself, at toy size.

    python3 -m pytest -q perfbench/selfcheck

Runs every workload for about a second with and without tracing and
checks that every metric BENCHMARK.json lists is reported with its
unit, that output differing from a corrupted pinned reference is judged
a failure, and that the benchmark refuses to run where there are no
lscrystal sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
WORKDIR = BENCH / "out" / "selfcheck"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer metrics of the printed table that BENCHMARK.json does not list;
# the traced run must still report them on every workload, in its printed
# table and results file (as zero where a workload never exercises them)
TABLE_ONLY_METRICS = (
    "explicit.f_explicit.self_s",
    "explicit.e_explicit.self_s",
    "explicit.partial_sums.self_s",
    "explicit.enumerate_explicit.self_s",
    "paths.strings.self_s",
    "oracle.sigma_chain_lengths.self_s",
    "oracle.dist.self_s",
    "oracle.enumerate_ls_paths.self_s",
    "weyl.pq_table.hit_ratio",
    "weyl.orbit_weight.hit_ratio",
    "cli.main.self_s",
)
CHECK_FAMILIES = {
    "equivalence": ("operator_equivalence",),
    "oracle": ("classification", "connectedness", "straight_through_lambda", "crystal_axioms", "structure"),
    "deep-walk": (),
}


def toy(workload: str, trace: int, capsys) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)], size="toy")
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int)
    return code, last


def results_file(workload: str, trace: int) -> dict:
    return json.loads((BENCH / "out" / f"{workload}-toy-seed0-trace{trace}.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, capsys):
    code, last = toy(workload, 0, capsys)
    assert code == 0 and last["correct"] and last["failed"] == 0
    assert {n: m["unit"] for n, m in last["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())
    record = results_file(workload, 0)
    assert record["metrics"]["failed_ratio"]["value"] == 0
    assert all(record["metrics"][m["name"]]["samples"] >= 1 for m in SPEC["end_to_end"])
    assert record["metrics"]["setup_s"]["samples"] >= run.SETUP_SAMPLES
    for key in ("python", "nproc", "cpu_model", "git_commit", "src_sha256"):
        assert record["machine"][key]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, capsys):
    code, last = toy(workload, 1, capsys)
    assert code == 0 and last["correct"]
    assert {n: m["unit"] for n, m in last["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert last["metrics"]["trace.overhead_ratio"]["value"] > 0
    table = results_file(workload, 1)["metrics"]
    families = [f"oracle.check_{f}.wall_s" for f in CHECK_FAMILIES[workload]]
    for name in TABLE_ONLY_METRICS + tuple(families):
        assert name in table, name
    if workload == "oracle":
        assert table["oracle.sigma_chain_exists.hit_ratio"]["value"] > 0
        assert table["cli.main.self_s"]["value"] > 0
        assert table["paths.strings.op_calls"]["value"] >= table["paths.strings.calls"]["value"] > 0
    spans = (BENCH / "out" / "trace" / f"{workload}-seed0.csv").read_text().splitlines()
    assert spans[0] == "run,span,parent,name,start_s,end_s" and len(spans) > 1


def _corrupt(entry: dict, workload: str) -> None:
    if workload == "deep-walk":
        entry["digests"]["0"] = "0" * 64
    elif workload == "oracle":
        entry["output"]["lines"][0] = entry["output"]["lines"][0].replace('"pass"', '"fail"')
    else:
        entry["ops"] += 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_reference_is_a_failure(workload):
    ref = json.loads((BENCH / "reference.json").read_text())["toy"][workload]
    rep = run.spawn(workload, "toy", 0)
    assert run.judge(workload, rep, ref, 0)[1:] == (0, None)
    _corrupt(ref, workload)
    attempted, failed, reason = run.judge(workload, rep, ref, 0)
    assert failed == attempted > 0 and reason


def test_refuses_to_run_without_sources():
    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "equivalence", "--seed", "0", "--seconds", "1"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
