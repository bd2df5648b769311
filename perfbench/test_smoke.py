"""Smoke test of the benchmark itself, at tiny N.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once untraced and once traced with a few thousand
integers and small chunks, so each layer still does some work, and checks
that every metric is reported with its unit, that a wrong pinned digest
counts as a failed command, and that the benchmark refuses to run without
a source tree.
"""

import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import traced_cli
import workloads

TINY = {"dense-verify": 5_000, "gk-resume": 5_000, "sparse-sieve": 40_000}


def tiny(name, seed=7):
    return workloads.commands(name, seed, max_n=TINY[name], chunk_size=1_000)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_prints_with_its_unit(name, trace):
    result, lines = run.run_workload(name, 7, 0, trace, cmds=tiny(name))
    units = run.PER_LAYER if trace else run.END_TO_END
    assert (result["correct"], result["failed"]) == (True, 0), lines
    assert result["attempted"] >= len(tiny(name))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric, unit in units.items():
        value = result["metrics"][metric]["value"]
        assert isinstance(value, (int, float)), (metric, value)
        assert any(line.split()[:1] == [metric] and line.endswith(f" {unit}") for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif name == "gk-resume":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["scanner.checkpoint_writes"] == 5 and m["scanner.chunks"] == 5
        assert m["core.sieve_builds"] >= 2  # one per pool worker
        assert m["cli.render_bytes"] > 0 and m["classify.chunk_s"] > 0


def test_missing_boundary_reports_its_metrics_as_missing(tmp_path):
    tracer = traced_cli.Tracer(str(tmp_path / "spans.jsonl"), "gk-resume")
    tracer.patch([types.ModuleType("refactored")], "save_checkpoint", "scanner.save_checkpoint")
    tracer.dump()
    spans, missing = run.read_spans(tmp_path)
    metrics = run.per_layer_metrics([], [], missing, {False: [], True: []})
    assert (spans, missing) == ([], {"scanner.save_checkpoint"})
    for metric in ("scanner.checkpoint_write_s", "scanner.checkpoint_writes",
                   "scanner.checkpoint_bytes"):
        assert metrics[metric] is None


def test_wrong_pinned_digest_is_a_failure():
    cmds = tiny("dense-verify")
    pins = workloads.load_pins()
    pins["commands"][cmds[0].key] = {"exit": 0, "sha256": "0" * 64}
    result, lines = run.run_workload("dense-verify", 7, 0, False, cmds=cmds, pins=pins)
    assert result["correct"] is False
    assert result["failed"] == 1
    ratio = next(line for line in lines if line.split()[:1] == ["failed_ratio"])
    assert float(ratio.split()[1]) > 0


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench_tmp").exists()
    assert sorted(p.name for p in Path(tmp_path).iterdir()) == ["BENCHMARK.json", "perfbench"]
