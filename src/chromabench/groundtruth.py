"""Ground-truth illuminant extraction from the achromatic chart row.

Per image, in two steps:

* :func:`measure`, on pixels.  Sample a square inside every patch straight
  from the frame (laid out on the canonical rectified view of the chart) and
  reduce the six achromatic squares, in one call, to three arrays:
  per-channel medians, the largest single count and the mean brightness of
  each patch.
* :func:`decide`, without pixels.  The winner is the brightest patch whose
  largest count is not clipped; its channel medians, less the camera black
  level (``subtract_black_level``, estimation's rule) when the caller's
  convention subtracts it, are the illuminant.  Keeping a single winning
  patch guarantees that R, G and B always come from the same patch.  Every
  parameter is required, so no caller inherits a convention unstated.

``extract-gt`` measures in its workers and decides in the parent process.

Saturation is judged on raw (pre-subtraction) counts: the threshold is stated
against 12-bit digital counts.  A patch is disqualified if ANY single sample
in any channel exceeds the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import chartgeom
from ._util import fmt9, read_csv, real_array, whole, write_csv
from .chartgeom import ACHROMATIC_INDICES, ChartLayout
from .imagecore import CameraProfile, clipped, subtract_black_level

__all__ = [
    "GT_FIELDS",
    "GroundTruthRecord",
    "decide",
    "measure",
    "read_gt",
    "records_by_id",
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


@dataclass(frozen=True, slots=True)
class GroundTruthRecord:
    """Reference illuminant for one image, in unnormalized digital counts."""

    image_id: str
    illuminant: tuple[float, float, float]
    patch_index: int
    camera_id: str
    black_level_subtracted: bool

    def __post_init__(self) -> None:
        for name, value in (("image_id", self.image_id), ("camera_id", self.camera_id)):
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        flag = self.black_level_subtracted
        if not isinstance(flag, bool):
            raise ValueError(f"black_level_subtracted must be a bool, got {flag!r}")
        low, high = ACHROMATIC_INDICES[0], ACHROMATIC_INDICES[-1]
        object.__setattr__(self, "patch_index", whole(self.patch_index, "patch_index", low, high))
        illum = real_array(self.illuminant, "illuminant", (3,), gt=0)
        object.__setattr__(self, "illuminant", tuple(illum.tolist()))


def measure(data: np.ndarray, layout: ChartLayout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channel medians (6, 3), largest count (6,) and brightness (6,) of the achromatic row.

    ``data`` is an (H, W, 3) frame of raw counts.  Brightness is the mean of
    a sample square's counts; an even sample count takes the mean of the two
    middle order statistics as the median.
    """
    row = chartgeom.sample_patches(data, layout)[list(ACHROMATIC_INDICES)]
    flat = row.reshape(len(row), -1)
    return np.median(row, axis=1), flat.max(axis=1), flat.mean(axis=1)


def decide(stats, camera: CameraProfile, subtract_black: bool, image_id: str) -> GroundTruthRecord:
    """The record of one image from :func:`measure`'s arrays, without pixels.

    The brightest patch whose largest count is not clipped wins, ties going to
    the whiter patch; its channel medians, less the camera black level when
    ``subtract_black``, are the illuminant.
    """
    medians, peaks, brightness = stats
    usable = ~clipped(peaks, camera.saturation_level)
    if not usable.any():
        raise ValueError("no valid achromatic patch: all saturated")
    k = int(np.argmax(np.where(usable, brightness, -np.inf)))
    illum = subtract_black_level(medians[k], camera.black_level if subtract_black else 0.0)
    if np.any(illum <= 0):
        raise ValueError("degenerate ground truth: zero channel after subtraction")
    return GroundTruthRecord(
        image_id=image_id,
        illuminant=(float(illum[0]), float(illum[1]), float(illum[2])),
        patch_index=ACHROMATIC_INDICES[k],
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


# A file holds one ground-truth convention: rows with and without the black
# level subtracted would be scored as one population.
_MIXED_CONVENTIONS = "black_level_subtracted mixes true and false; one file holds one convention"


def write_gt(records: Iterable[GroundTruthRecord], path: str | Path) -> None:
    """Write the ground-truth CSV, rows sorted by image_id; one convention per file."""
    by_id = records_by_id(records)
    if len({rec.black_level_subtracted for rec in by_id.values()}) > 1:
        raise ValueError(f"{path}: {_MIXED_CONVENTIONS}")
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
    """Read a ground-truth CSV; extra columns are ignored, repeated ids and a
    row whose ``black_level_subtracted`` differs from the first row's rejected."""
    seen: set[str] = set()
    conventions: set[bool] = set()

    def parse(row: dict[str, str]) -> GroundTruthRecord:
        rec = _gt_record(row)
        if rec.image_id in seen:
            raise ValueError(f"duplicate image_id: {rec.image_id}")
        seen.add(rec.image_id)
        conventions.add(rec.black_level_subtracted)
        if len(conventions) > 1:
            raise ValueError(_MIXED_CONVENTIONS)
        return rec

    return read_csv(path, GT_FIELDS, parse)
