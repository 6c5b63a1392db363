#!/usr/bin/env python3
"""Full benchmark workflow on a synthetic corpus, end to end.

Renders chart scenes with a known non-neutral illuminant and a 129-count dark
offset, extracts two ground-truth sets (with and without the offset
subtracted), runs the statistical estimators, scores them with both angular
error metrics against both ground truths, ranks them, and audits the two
ground-truth sets against each other.  Everything lands under --out
(default ./bench_out), and the printed tables show how the choice of
ground-truth convention reshuffles the ranking.

Usage:
    python scripts/run_synthetic_benchmark.py [--out DIR] [--scenes N] [--seed S]
"""

import argparse
import shutil
from pathlib import Path

import numpy as np

from chromabench import audit, cli, synth
from chromabench.groundtruth import read_gt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="bench_out", help="output directory")
    parser.add_argument("--scenes", type=int, default=8, help="corpus size")
    parser.add_argument("--seed", type=int, default=7, help="corpus RNG seed")
    args = parser.parse_args()

    out = Path(args.out)
    if out.exists():
        shutil.rmtree(out)
    scenes = out / "scenes"
    scenes.mkdir(parents=True)

    rng = np.random.default_rng(args.seed)
    print(f"rendering {args.scenes} reversal-engineered scenes into {scenes} ...")
    truths = synth.write_reversal_corpus(scenes, rng, count=args.scenes)

    def run(argv):
        code = cli.main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"command failed ({code}): {argv}")

    gt_sub = out / "gt_subtracted.csv"
    gt_raw = out / "gt_unsubtracted.csv"
    run(["extract-gt", "--images", scenes, "--charts", scenes, "--out", gt_sub])
    run(["extract-gt", "--images", scenes, "--charts", scenes, "--out", gt_raw,
         "--no-black-subtract"])

    est = out / "estimates.csv"
    run(["estimate", "--images", scenes, "--algo", "grey-world", "--algo", "white-patch",
         "--algo", "shades-of-grey", "--algo", "grey-edge-1", "--out", est, "--mask-chart"])

    for metric in ("recovery", "reproduction"):
        for label, gt in (("sub", gt_sub), ("raw", gt_raw)):
            run(["evaluate", "--gt", gt, "--est", est, "--metric", metric,
                 "--out", out / f"errors_{metric}_{label}.csv"])
        print(f"\n=== {metric} error rankings: subtracted vs unsubtracted GT ===")
        run(["rank", "--errors", out / f"errors_{metric}_sub.csv",
             "--errors", out / f"errors_{metric}_raw.csv",
             "--stat", "median", "--out", out / f"ranking_{metric}.csv"])

    print("\n=== ground-truth audit: subtracted vs unsubtracted ===")
    run(["diff-gt", "--a", gt_sub, "--b", gt_raw, "--scan-offset",
         "--out", out / "gt_divergence.csv"])

    audit.emit_chromaticity_scatter(
        {"subtracted": read_gt(gt_sub), "unsubtracted": read_gt(gt_raw)},
        out / "chromaticity_scatter.csv",
    )
    print(f"\nscatter CSV for plotting: {out / 'chromaticity_scatter.csv'}")
    print(f"true illuminants were known for {len(truths)} scenes; outputs in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
