"""The benchmark's own tests: short mode end to end, the gate, the tracer.

Run from the repository root:  python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from chromabench import audit, groundtruth, metrics  # noqa: E402
from perfbench import bench, calibration, corpus, oracle, tracing, workloads  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        bench.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_mode_runs_gated_and_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {n: u for n, u, _ in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: oracle.sha256(p) for p in sorted(directory.iterdir()) if p.is_file()}


def test_inputs_depend_only_on_the_seed(tmp_path):
    w = workloads.SHORT_WORKLOADS["fullframe"]
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        corpus.write_scenes(tmp_path / name, seed, w.images, w.width, w.height, w.chart_scale,
                            w.block)
        corpus.write_audit_corpus(tmp_path / name / "csv", seed, 10)
    assert _digests(tmp_path / "a") == _digests(tmp_path / "b")
    assert _digests(tmp_path / "a" / "csv") == _digests(tmp_path / "b" / "csv")
    assert _digests(tmp_path / "a") != _digests(tmp_path / "c")


def test_gate_rejects_a_wrong_offset_and_a_wrong_winner(tmp_path):
    oracle.check_best_offset("best offset: 129 (median residual 0 deg)\n", 129)
    with pytest.raises(oracle.GateFailure):
        oracle.check_best_offset("best offset: 128 (median residual 0 deg)\n", 129)
    header = "image_id,R,G,B,patch_index,camera_id,black_level_subtracted\n"
    (tmp_path / "sub.csv").write_text(header + "a,100,200,300,18,c,true\n")
    (tmp_path / "raw.csv").write_text(header + "a,229,329,429,18,c,false\n")
    truth = {"a": np.array([100.0, 200.0, 300.0]) / np.linalg.norm([100, 200, 300])}
    err = oracle.check_ground_truths(tmp_path / "sub.csv", tmp_path / "raw.csv", truth,
                                     frozenset(), 129)
    assert err < 1e-6
    with pytest.raises(oracle.GateFailure, match="winner"):
        oracle.check_ground_truths(tmp_path / "sub.csv", tmp_path / "raw.csv", truth,
                                   frozenset({"a"}), 129)
    with pytest.raises(oracle.GateFailure, match="differ by"):
        oracle.check_ground_truths(tmp_path / "sub.csv", tmp_path / "raw.csv", truth,
                                   frozenset(), 128)


def test_tracer_wraps_names_where_they_are_looked_up_and_restores_them():
    records = [
        groundtruth.GroundTruthRecord(f"i{k}", (100.0 + k, 200.0, 300.0), 18, "c", True)
        for k in range(2)
    ]
    original = metrics.recovery_error
    tracer = tracing.Tracer()
    with tracer.installed():
        assert audit.recovery_error is not original
        assert metrics.recovery_error is not original
        with tracer.span("cli.diff_gt"):
            audit.diff_ground_truths(records, records, 0.25)
    assert audit.recovery_error is original and metrics.recovery_error is original
    summary = tracer.summary()
    assert summary["metrics.recovery_error"]["calls"] == 2
    assert summary["audit.diff_ground_truths"]["calls"] == 1
    stage = summary["cli.diff_gt"]
    assert 0.0 <= stage["self_s"] <= stage["s"]
    assert tracer.module_busy()["imagecore"] == 0.0


def test_calibration_uses_the_reference_samples_near_a_step_on_its_cpus():
    clock = calibration.Clock([0])
    ref = calibration.REFERENCE_S
    # (when, cpu, reference seconds)
    clock.samples = [(0.0, 0, 0.05), (0.0, 1, 0.2), (10.0, 0, 0.1), (10.0, 1, 0.1), (30.0, 0, 1.0)]
    # A 2 s step looks 2 s each way: only the samples at 10 s count.
    assert clock.calibrate(2.0, 9.0, 11.0, [0]) == pytest.approx(2.0 * ref / 0.1)
    # A 10 s step looks 10 s each way; the sample at 30 s is too far.
    assert clock.calibrate(10.0, 1.0, 11.0, [0]) == pytest.approx(10.0 * ref / 0.075)
    # A pool stage is calibrated against every CPU.
    assert clock.calibrate(10.0, 1.0, 11.0, [0, 1]) == pytest.approx(10.0 * ref / 0.1125)
