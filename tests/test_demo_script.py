"""The demo script runs on the library alone, without the test suite on its path.

Its seed-7, four-scene CSVs are committed under ``golden/demo_seed7``; every
CSV of a run must equal its copy byte for byte, and every file of its
``scenes/`` must have the SHA-256 listed in ``golden/demo_seed7/scenes.sha256``.
"""

import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "demo_seed7"


def test_demo_script_needs_only_the_library(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "run_synthetic_benchmark.py"),
            "--scenes",
            "4",
            "--seed",
            "7",
            "--out",
            str(tmp_path / "out"),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert "best offset: 129" in proc.stdout

    with open(tmp_path / "out" / "ranking_recovery.csv", newline="") as fh:
        ranks = {row["algorithm"]: row for row in csv.DictReader(fh)}
    gw, wp = ranks["grey-world"], ranks["white-patch"]
    sub, raw = "rank_errors_recovery_sub", "rank_errors_recovery_raw"
    assert int(gw[sub]) < int(wp[sub])
    assert int(wp[raw]) < int(gw[raw])

    written = sorted(path.name for path in (tmp_path / "out").glob("*.csv"))
    # The estimate command's own goldens, which the demo does not write.
    estimate_goldens = {"estimates_all_presets.csv", "estimates_sigma0_derivatives.csv"}
    demo_csvs = [p.name for p in GOLDEN.glob("*.csv") if p.name not in estimate_goldens]
    assert written == sorted(demo_csvs)
    for name in written:
        assert (tmp_path / "out" / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    scenes = tmp_path / "out" / "scenes"
    hashes = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in scenes.iterdir()
    }
    golden = {}
    for line in (GOLDEN / "scenes.sha256").read_text().splitlines():
        digest, name = line.split("  ")
        golden[name] = digest
    assert hashes == golden
