"""The two workloads, their stage lists, and their short-mode variants.

Each workload drives the same user workflow over its own inputs.  The pixel
workload extracts both ground-truth conventions, runs all six presets with
the chart masked, scores both metrics against both ground truths, ranks the
two conventions against each other and scans for the dark offset.  The audit
workload starts from CSVs and runs only the scoring and audit stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import corpus


@dataclass(frozen=True)
class Workload:
    name: str
    images: int
    width: int = 0  # 0: no pixels, the inputs are CSVs
    height: int = 0
    chart_scale: tuple[float, float] = (0.0, 0.0)
    block: int = 0
    setup_repeats: int = 3

    @property
    def has_pixels(self) -> bool:
        return self.width > 0


WORKLOADS = {
    w.name: w
    for w in (
        # A handful of sensor-size frames: estimators dominate, frames exceed L3.
        Workload("fullframe", 4, 2193, 1460, (0.55, 0.8), 24, setup_repeats=2),
        # Gehler-Shi-sized CSV corpus: metrics, audit and CSV parsing only.
        Workload("corpus-audit", 568, setup_repeats=9),
    )
}

# Same code paths on tiny inputs, for the benchmark's own tests.
SHORT_WORKLOADS = {
    "fullframe": Workload("fullframe", 2, 320, 240, (0.3, 0.35), 8, setup_repeats=2),
    "corpus-audit": Workload("corpus-audit", 24, setup_repeats=2),
}

METRICS = ("recovery", "reproduction")
CONVENTIONS = ("sub", "raw")


@dataclass(frozen=True)
class Stage:
    name: str
    kind: str  # extract_gt | estimate | estimate_jobs1 | evaluate | rank | diff_gt
    args: tuple[str, ...]
    ops: int  # per-image operations the stage attempts


@dataclass(frozen=True)
class Paths:
    inputs: Path  # scenes, or the audit CSVs
    out: Path
    gt_sub: Path
    gt_raw: Path
    estimates: Path

    def gt(self, convention: str) -> Path:
        return self.gt_sub if convention == "sub" else self.gt_raw

    @property
    def estimates_jobs1(self) -> Path:
        return self.out / "estimates_jobs1.csv"

    def errors(self, metric: str, convention: str) -> Path:
        return self.out / f"errors_{metric}_{convention}.csv"

    def ranking(self, metric: str) -> Path:
        return self.out / f"ranking_{metric}.csv"

    @property
    def diff(self) -> Path:
        return self.out / "gt_diff.csv"


def algorithms(w: Workload) -> tuple[str, ...]:
    return corpus.PRESET_ALGOS if w.has_pixels else corpus.PRESET_ALGOS + corpus.EXPLICIT_ALGOS


def paths_for(w: Workload, inputs: Path, out: Path) -> Paths:
    # The audit corpus's ground truths and estimates are inputs, not outputs.
    home = out if w.has_pixels else inputs
    return Paths(inputs, out, home / "gt_sub.csv", home / "gt_raw.csv", home / "estimates.csv")


def stages(w: Workload, p: Paths, jobs: int, in_process: bool = False,
           with_jobs1: bool = False) -> list[Stage]:
    """The workflow, in order.  In-process runs use --jobs 1 and estimate once.

    ``with_jobs1`` adds a --jobs 1 estimate stage to a pixel workload.
    """
    jobs_arg = ["--jobs", "1" if in_process else str(jobs)]
    rows = w.images * len(algorithms(w))
    out: list[Stage] = []
    if w.has_pixels:
        scenes = str(p.inputs)
        out.append(Stage("extract_gt_sub", "extract_gt",
                         ("extract-gt", "--images", scenes, "--charts", scenes,
                          "--out", str(p.gt_sub), *jobs_arg), w.images))
        out.append(Stage("extract_gt_raw", "extract_gt",
                         ("extract-gt", "--images", scenes, "--charts", scenes,
                          "--out", str(p.gt_raw), "--no-black-subtract", *jobs_arg),
                         w.images))
        algo_args = [a for name in algorithms(w) for a in ("--algo", name)]
        estimate = ("estimate", "--images", scenes, *algo_args, "--mask-chart")
        out.append(Stage("estimate", "estimate",
                         (*estimate, "--out", str(p.estimates), *jobs_arg), rows))
        if with_jobs1 and not in_process:
            out.append(Stage("estimate_jobs1", "estimate_jobs1",
                             (*estimate, "--out", str(p.estimates_jobs1), "--jobs", "1"),
                             rows))
    for metric in METRICS:
        for conv in CONVENTIONS:
            out.append(Stage(f"evaluate_{metric}_{conv}", "evaluate",
                             ("evaluate", "--gt", str(p.gt(conv)), "--est", str(p.estimates),
                              "--metric", metric, "--out", str(p.errors(metric, conv))),
                             rows))
    for metric in METRICS:
        errors = [a for conv in CONVENTIONS for a in ("--errors", str(p.errors(metric, conv)))]
        out.append(Stage(f"rank_{metric}", "rank",
                         ("rank", *errors, "--stat", "median", "--out", str(p.ranking(metric))),
                         1))
    out.append(Stage("diff_gt", "diff_gt",
                     ("diff-gt", "--a", str(p.gt_sub), "--b", str(p.gt_raw), "--scan-offset",
                      "--out", str(p.diff)), w.images))
    return out


def rank_labels(p: Paths, metric: str) -> list[str]:
    """The labels ``rank`` derives from the error file names."""
    return [p.errors(metric, conv).stem for conv in CONVENTIONS]
