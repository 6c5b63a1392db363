"""Ground-truth illuminant extraction from the achromatic chart row.

Per image: rectify the chart, sample a square inside every patch, rank the six
achromatic patches by mean brightness after discarding any patch containing a
saturated sample, then take the per-channel median of the winner and subtract
the camera black level.  Keeping a single winning patch index guarantees that
R, G and B always come from the same patch.

Saturation is judged on raw (pre-subtraction) counts: the threshold is stated
against 12-bit digital counts.  A patch is disqualified if ANY single sample
in any channel exceeds the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import chartgeom
from ._util import fmt9, read_csv, write_csv
from .chartgeom import ACHROMATIC_INDICES, ChartLayout
from .imagecore import CameraProfile, LinearImage, clipped

__all__ = [
    "GT_FIELDS",
    "GroundTruthRecord",
    "PatchStats",
    "compute_ground_truth",
    "patch_stats",
    "read_gt",
    "records_by_id",
    "select_achromatic_patch",
    "write_gt",
]

GT_FIELDS = (
    "image_id",
    "R",
    "G",
    "B",
    "patch_index",
    "camera_id",
    "black_level_subtracted",
)


@dataclass(frozen=True)
class PatchStats:
    """Per-patch sample statistics in raw digital counts."""

    patch_index: int
    median_rgb: tuple[float, float, float]
    max_sample: float
    brightness: float  # mean over all samples and all three channels


@dataclass(frozen=True)
class GroundTruthRecord:
    """Reference illuminant for one image, in unnormalized digital counts."""

    image_id: str
    illuminant: tuple[float, float, float]
    patch_index: int
    camera_id: str
    black_level_subtracted: bool

    def __post_init__(self) -> None:
        if self.patch_index not in ACHROMATIC_INDICES:
            raise ValueError(
                f"patch_index {self.patch_index} outside achromatic row 18..23"
            )
        illum = tuple(float(v) for v in self.illuminant)
        if len(illum) != 3:
            raise ValueError("illuminant must be an RGB triple")
        if not all(np.isfinite(v) and v > 0 for v in illum):
            raise ValueError("illuminant components must be finite and > 0")
        object.__setattr__(self, "illuminant", illum)


def patch_stats(samples, patch_index: int) -> PatchStats:
    """Channel-wise medians plus brightness/max over a patch sample square.

    Even sample counts take the mean of the two middle order statistics.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
        raise ValueError("samples must be a nonempty (N, 3) array")
    med = np.median(arr, axis=0)
    return PatchStats(
        patch_index=int(patch_index),
        median_rgb=(float(med[0]), float(med[1]), float(med[2])),
        max_sample=float(arr.max()),
        brightness=float(arr.mean()),
    )


def select_achromatic_patch(
    stats: Sequence[PatchStats], saturation_level: float
) -> int:
    """Index of the brightest achromatic patch with no saturated sample.

    Patches whose maximum single count exceeds ``saturation_level`` are
    discarded; ties in brightness go to the lower index (the whiter patch).
    """
    pool = list(stats)
    if not pool:
        raise ValueError("no patch statistics given")
    for s in pool:
        if s.patch_index not in ACHROMATIC_INDICES:
            raise ValueError(f"patch {s.patch_index} is not in the achromatic row")
    survivors = [s for s in pool if not clipped(s.max_sample, saturation_level)]
    if not survivors:
        raise ValueError("no valid achromatic patch: all saturated")
    best = min(survivors, key=lambda s: (-s.brightness, s.patch_index))
    return best.patch_index


def compute_ground_truth(
    img: LinearImage,
    layout: ChartLayout,
    camera: CameraProfile,
    image_id: str = "",
    subtract_black: bool = True,
) -> GroundTruthRecord:
    """Full extraction pipeline for one image.

    rectify -> patch grid -> sample all 24 squares -> per-patch stats ->
    pick the brightest unsaturated achromatic patch on raw counts -> take its
    channel medians -> subtract the camera black level (clamped at zero).
    """
    rect = chartgeom.rectify_chart(img.data, layout.corners)
    grid = layout.grid()
    stats = [
        patch_stats(chartgeom.sample_patch(rect, grid.centers[i], grid.half_size), i)
        for i in range(len(grid.centers))
    ]
    achromatic = [stats[i] for i in ACHROMATIC_INDICES]
    winner = select_achromatic_patch(achromatic, camera.saturation_level)
    med = np.asarray(stats[winner].median_rgb, dtype=np.float64)
    level = camera.black_level if subtract_black else 0.0
    illum = np.maximum(med - level, 0.0)
    if np.any(illum <= 0):
        raise ValueError("degenerate ground truth: zero channel after subtraction")
    return GroundTruthRecord(
        image_id=image_id,
        illuminant=(float(illum[0]), float(illum[1]), float(illum[2])),
        patch_index=winner,
        camera_id=camera.camera_id,
        black_level_subtracted=subtract_black,
    )


def records_by_id(records: Iterable[GroundTruthRecord]) -> dict[str, GroundTruthRecord]:
    out: dict[str, GroundTruthRecord] = {}
    for rec in records:
        if rec.image_id in out:
            raise ValueError(f"duplicate image_id: {rec.image_id}")
        out[rec.image_id] = rec
    return out


def write_gt(records: Iterable[GroundTruthRecord], path: str | Path) -> None:
    """Write the ground-truth CSV, rows sorted by image_id."""
    by_id = records_by_id(records)
    write_csv(path, GT_FIELDS, (_gt_row(by_id[image_id]) for image_id in sorted(by_id)))


def _gt_row(rec: GroundTruthRecord) -> list:
    return [
        rec.image_id,
        *(fmt9(v) for v in rec.illuminant),
        rec.patch_index,
        rec.camera_id,
        "true" if rec.black_level_subtracted else "false",
    ]


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1"):
        return True
    if low in ("false", "0"):
        return False
    raise ValueError(f"bad boolean: {text!r}")


def _gt_record(row: dict[str, str]) -> GroundTruthRecord:
    return GroundTruthRecord(
        image_id=row["image_id"],
        illuminant=(float(row["R"]), float(row["G"]), float(row["B"])),
        patch_index=int(row["patch_index"]),
        camera_id=row["camera_id"],
        black_level_subtracted=_parse_bool(row["black_level_subtracted"]),
    )


def read_gt(path: str | Path) -> list[GroundTruthRecord]:
    """Read a ground-truth CSV; extra columns are ignored, repeated ids rejected."""
    records = read_csv(path, GT_FIELDS, _gt_record)
    try:
        records_by_id(records)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return records
