"""Ground-truth forensics: set comparison, offset hypotheses, provenance checks.

Two reference sets that claim to describe the same corpus can disagree for
mundane reasons (bad chart coordinates, channels drawn from different
patches) or for one big systematic one: a constant dark offset that one set
subtracted and the other did not.  This module measures per-image angular
divergence, flags outliers, tests the "b is a plus a constant offset"
hypothesis directly, and checks legacy files for same-patch violations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from ._util import MissingColumns, fmt9, read_csv, write_csv
from .groundtruth import GroundTruthRecord, records_by_id
from .metrics import error_angles, recovery_error

__all__ = [
    "DivergenceReport",
    "OffsetFit",
    "check_same_patch",
    "diff_ground_truths",
    "emit_chromaticity_scatter",
    "explain_offset",
    "scan_offset",
]

DEFAULT_OUTLIER_THRESHOLD_DEG = 0.25

# A ground-truth set: records as ``read_gt`` returns them, image ids unique.
GTSet = Iterable[GroundTruthRecord]


def _aligned(a: GTSet, b: GTSet) -> tuple[dict, dict, list[str]]:
    """Both sets as id -> record maps, plus their sorted common ids (nonempty)."""
    map_a = records_by_id(a)
    map_b = records_by_id(b)
    common = sorted(set(map_a) & set(map_b))
    if not common:
        raise ValueError("no common images between the two sets")
    return map_a, map_b, common


@dataclass(frozen=True)
class DivergenceReport:
    """Per-image angular differences between two ground-truth sets."""

    angles_deg: dict[str, float]
    outliers: tuple[str, ...]
    threshold_deg: float
    only_in_a: tuple[str, ...]
    only_in_b: tuple[str, ...]

    @property
    def matched(self) -> int:
        return len(self.angles_deg)

    @property
    def median_deg(self) -> float:
        return float(np.median(list(self.angles_deg.values())))

    @property
    def max_deg(self) -> float:
        return float(max(self.angles_deg.values()))


def diff_ground_truths(
    a: GTSet,
    b: GTSet,
    outlier_threshold_deg: float = DEFAULT_OUTLIER_THRESHOLD_DEG,
) -> DivergenceReport:
    """Compare two sets image by image; intensity differences are invisible."""
    if not 0.0 <= outlier_threshold_deg < math.inf:  # also rejects NaN
        raise ValueError(
            f"outlier threshold must be finite and >= 0, got {outlier_threshold_deg!r}"
        )
    map_a, map_b, common = _aligned(a, b)
    angles = {
        image_id: recovery_error(map_a[image_id].illuminant, map_b[image_id].illuminant)
        for image_id in common
    }
    outliers = tuple(i for i in common if angles[i] > outlier_threshold_deg)
    return DivergenceReport(
        angles_deg=angles,
        outliers=outliers,
        threshold_deg=float(outlier_threshold_deg),
        only_in_a=tuple(sorted(set(map_a) - set(map_b))),
        only_in_b=tuple(sorted(set(map_b) - set(map_a))),
    )


@dataclass(frozen=True)
class OffsetFit:
    """How well "b = a + offset per channel" explains the divergence."""

    offset: float
    fraction_within: float  # fraction of images within 0.1 degrees
    median_residual_deg: float


_WITHIN_DEG = 0.1


def _stacked(a: GTSet, b: GTSet) -> tuple[np.ndarray, np.ndarray]:
    """Illuminants of the common images, in id order, as two (n, 3) arrays."""
    map_a, map_b, common = _aligned(a, b)
    return (
        np.array([map_a[image_id].illuminant for image_id in common], dtype=np.float64),
        np.array([map_b[image_id].illuminant for image_id in common], dtype=np.float64),
    )


def _offset_fit(illum_a: np.ndarray, illum_b: np.ndarray, offset: float) -> OffsetFit:
    residuals, problems = error_angles("recovery", illum_a + offset, illum_b)
    if problems:
        raise ValueError(problems[min(problems)])
    return OffsetFit(
        offset=float(offset),
        fraction_within=float(np.mean(residuals <= _WITHIN_DEG)),
        median_residual_deg=float(np.median(residuals)),
    )


def explain_offset(a: GTSet, b: GTSet, offset: float) -> OffsetFit:
    """Residual angles between (a + offset) and b over the common images."""
    if not math.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset!r}")
    return _offset_fit(*_stacked(a, b), offset)


def scan_offset(a: GTSet, b: GTSet) -> OffsetFit:
    """Sweep the integer offsets 0..512 and return the fit with the smallest
    median residual.  Ties go to the smaller offset.
    """
    stacked = _stacked(a, b)
    fits = (_offset_fit(*stacked, float(offset)) for offset in range(513))
    # min keeps the first of equal keys, i.e. the smallest offset.
    return min(fits, key=lambda fit: fit.median_residual_deg)


_PER_CHANNEL_COLS = ("patch_index_R", "patch_index_G", "patch_index_B")


def check_same_patch(path: str | Path) -> list[str]:
    """Image ids whose R, G and B were drawn from different patches.

    Requires the extended CSV columns patch_index_R/G/B; files without the
    annotations are skipped with a warning (legacy sets predate them).
    """

    def parse(row: dict[str, str]) -> tuple[str, set[int]]:
        return row["image_id"], {int(row[c]) for c in _PER_CHANNEL_COLS}

    try:
        rows = read_csv(path, ("image_id", *_PER_CHANNEL_COLS), parse)
    except MissingColumns as exc:
        if exc.missing == {"image_id"}:
            raise
        warnings.warn(
            f"{path}: no per-channel patch annotations; same-patch check skipped",
            stacklevel=2,
        )
        return []
    return sorted(image_id for image_id, indices in rows if len(indices) > 1)


def emit_chromaticity_scatter(sets: dict[str, GTSet], path: str | Path) -> None:
    """Write "set_name,image_id,r,g" rows for external plotting, where
    (r, g) = (R, G) / (R + G + B).

    Sets are emitted in name order, each sorted by image_id.
    """
    if not sets:
        raise ValueError("no ground-truth sets given")
    rows = []
    for set_name in sorted(sets):
        for image_id, rec in sorted(records_by_id(sets[set_name]).items()):
            r, g, b = rec.illuminant
            total = r + g + b
            rows.append([set_name, image_id, fmt9(r / total), fmt9(g / total)])
    write_csv(path, ["set_name", "image_id", "r", "g"], rows)
