"""Tests of the benchmark itself: metric presence, golden checks, inputs.

Run with ``python -m pytest perfbench/tests``.  The tiny passes take a
few seconds each.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import registry
from tracing import Span, self_times
from workloads import PAPER_MIX, check_artifacts, generate_jobs

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    line = proc.stdout.strip().splitlines()[-1]
    out = json.loads(line)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", registry.WORKLOADS)
def test_tiny_traced_pass_reports_every_metric(workload):
    proc = _run(ROOT, "--workload", workload, "--tiny", "--seconds", "1",
                "--trace", "1", "--seed", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = _last_json(proc)
    assert line["correct"] and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m.name: m.unit for m in registry.GATED_PER_LAYER
    }
    assert all(v["value"] > 0 for v in line["metrics"].values())
    result = json.loads(
        (ROOT / ".perfbench" / "results" / f"{workload}-seed5-trace1.json")
        .read_text()
    )
    for section, metrics in (("end_to_end", registry.END_TO_END),
                             ("per_layer", registry.PER_LAYER)):
        assert {k: v["unit"] for k, v in result[section].items()} == {
            m.name: m.unit for m in registry.applies(metrics, workload)
        }
    for key in ("cpu_model", "nproc", "python", "numpy", "calibration_s"):
        assert key in result["host"]
    assert result["self_time"]
    assert result["per_layer"]["trace.overhead_s"]["value"] > 0
    for name in ("wall_s", "setup_s"):
        assert result["end_to_end"][name]["value"] > 0


def test_untraced_pass_reports_gated_end_to_end_metrics():
    proc = _run(ROOT, "--workload", "service-mixed", "--tiny",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = _last_json(proc)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m.name: m.unit for m in registry.GATED_END_TO_END
    }
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_corrupted_or_missing_artifact_and_altered_golden_are_caught(tmp_path):
    written = {}
    for name in ("table1_parameters", "fig5_uniform.csv"):
        path = tmp_path / name
        path.write_text(f"{name} contents\n")
        written[name] = path
    golden = {
        name: hashlib.sha256(p.read_bytes()).hexdigest()
        for name, p in written.items()
    }
    assert check_artifacts(written, golden) == []

    corrupt = tmp_path / "copy.csv"
    corrupt.write_text(written["fig5_uniform.csv"].read_text() + "0\n")
    problems = check_artifacts({**written, "fig5_uniform.csv": corrupt}, golden)
    assert len(problems) == 1 and problems[0].startswith("fig5_uniform.csv")

    altered = {**golden, "table1_parameters": "0" * 64}
    assert len(check_artifacts(written, altered)) == 1
    assert len(check_artifacts({"table1_parameters": written[
        "table1_parameters"]}, golden)) == 1


def _checkout(tmp_path: Path, with_src: bool) -> Path:
    """A copy of the benchmark files, optionally linked to the program."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_src:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def test_altered_golden_fails_the_command(tmp_path):
    checkout = _checkout(tmp_path, with_src=True)
    goldens = checkout / "perfbench" / "goldens.json"
    data = json.loads(goldens.read_text())
    data["tiny"]["fig1_rwa"] = "0" * 64
    goldens.write_text(json.dumps(data))
    proc = _run(checkout, "--workload", "reproduce-j1", "--tiny",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    line = _last_json(proc)
    assert line["correct"] is False
    assert line["failed"] == 1 and line["attempted"] == 15
    assert "FAILED fig1_rwa" in proc.stdout


def test_checkout_without_program_exits_nonzero_without_result(tmp_path):
    checkout = _checkout(tmp_path, with_src=False)
    proc = _run(checkout, "--workload", "reproduce-j1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "service.job", 0.0, 10.0, None),
        Span(2, "service.execute", 1.0, 6.0, 1),
        Span(3, "cache.get_many", 2.0, 3.0, 2),
        Span(4, "cache.put_many", 5.0, 8.0, 2),  # overruns its parent
        Span(5, "service.finalize", 4.0, 7.0, 1),  # overlaps a sibling
    ]
    table = self_times(spans)
    # job: 10 - |[1,7]|; execute: 5 - |[2,3] + [5,6]|; finalize: 3.
    assert table["service"]["self_s"] == pytest.approx(4.0 + 3.0 + 3.0)
    assert table["cache"]["self_s"] == pytest.approx(4.0)
    assert table["service"]["spans"] == 3


def test_job_mix_is_seeded_and_replays_only_finished_work():
    warm, rounds = generate_jobs(7, PAPER_MIX)
    again_warm, again_rounds = generate_jobs(7, PAPER_MIX)
    assert (warm, rounds) == (again_warm, again_rounds)
    assert generate_jobs(8, PAPER_MIX)[1][0] != rounds[0]
    done = {j.spec for j in warm}
    fresh_seeds = [j.spec.seed for j in warm]
    for jobs in rounds:
        classes = [j.cls for j in jobs]
        assert classes.count("interactive") == PAPER_MIX.interactive
        assert classes.count("bulk") == PAPER_MIX.bulk
        assert classes.count("replay") == (
            PAPER_MIX.interactive_replays + PAPER_MIX.bulk_replays
        )
        for j in jobs:
            if j.cls == "replay":
                assert j.spec in done
        for j in jobs:
            if j.cls != "replay":
                done.add(j.spec)
                fresh_seeds.append(j.spec.seed)
    assert len(set(fresh_seeds)) == len(fresh_seeds)
