"""Ground-truth forensics: set comparison, offset hypotheses, provenance checks.

Two reference sets that claim to describe the same corpus can disagree for
mundane reasons (bad chart coordinates, channels drawn from different
patches) or for one big systematic one: a constant dark offset that one set
subtracted and the other did not.  This module measures per-image angular
divergence, flags outliers, tests the "b is a plus a constant offset"
hypothesis directly, and checks legacy files for same-patch violations.

The offset scan screens, then scores exactly.  Both passes work in blocks
of offsets: each block stacks ``a + offset`` for its offsets into one table
of about ``_SCAN_ROWS`` rows, so temporaries stay bounded on large sets.
The screen takes every offset's median residual from the angle kernel's own
norm and dot terms with the vectorised ``np.arctan2``; the exact pass scores
only the offsets within ``_SCREEN_MARGIN_DEG`` of the smallest screened
median through ``error_angles`` and its ``math.atan2``, so every reported
number is the exhaustive exact scan's.
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
from .metrics import _cross_norms_and_dots, error_angles, recovery_error

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

# The dark offsets ``scan_offset`` tries, in counts.
SCAN_OFFSETS = range(513)

# Residual rows per ``error_angles`` call in an offset scan: bounds the
# temporaries, and with them peak memory, on large sets.
_SCAN_ROWS = 4096

# How far above the smallest screened median an offset's screened median may
# lie and still be scored exactly.  ``np.arctan2`` and ``math.atan2`` differ
# by at most an ulp or so, about 3e-14 degrees at 180, and a median moves no
# more than its elements do, so the exact minimiser's screened median lies
# within twice that of the smallest; 1e-9 covers it more than 10**4 times.
_SCREEN_MARGIN_DEG = 1e-9


def _stacked(a: GTSet, b: GTSet) -> tuple[np.ndarray, np.ndarray]:
    """Illuminants of the common images, in id order, as two (n, 3) arrays."""
    map_a, map_b, common = _aligned(a, b)
    return (
        np.array([map_a[image_id].illuminant for image_id in common], dtype=np.float64),
        np.array([map_b[image_id].illuminant for image_id in common], dtype=np.float64),
    )


def _shifted_blocks(illum_a: np.ndarray, illum_b: np.ndarray, offsets: np.ndarray):
    """Per block of ``offsets``: the block, its (a + offset) rows and the b rows they match.

    A block holds as many offsets as fit in about ``_SCAN_ROWS`` residual
    rows (at least one), so its temporaries stay bounded however many
    offsets are scored.
    """
    per_block = max(1, _SCAN_ROWS // len(illum_a))
    for start in range(0, len(offsets), per_block):
        block = offsets[start : start + per_block]
        shifted = (illum_a + block[:, None, None]).reshape(-1, 3)
        yield block, shifted, np.tile(illum_b, (len(block), 1))


def _offset_fits(illum_a: np.ndarray, illum_b: np.ndarray, offsets) -> list[OffsetFit]:
    """The fit of each offset, in order, scored a block of offsets at a time.

    Each block is one ``error_angles`` call.  An invalid row raises the
    message of the first offset that has one, at its first such image.
    """
    count = len(illum_a)
    fits = []
    for block, shifted, tiled_b in _shifted_blocks(
        illum_a, illum_b, np.asarray(offsets, dtype=np.float64)
    ):
        residuals, problems = error_angles("recovery", shifted, tiled_b)
        if problems:
            raise ValueError(problems[min(problems)])
        residuals = residuals.reshape(len(block), count)
        within = np.mean(residuals <= _WITHIN_DEG, axis=1)
        medians = np.median(residuals, axis=1)
        fits += map(OffsetFit, block.tolist(), within.tolist(), medians.tolist())
    return fits


def _screened_medians(illum_a: np.ndarray, illum_b: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each offset's median residual, in degrees, with ``np.arctan2`` in place
    of the kernel's ``math.atan2``.

    The norm and dot terms are the kernel's own, so each residual is within
    an ulp or so of its exact value, and each median within as much of the
    exact median.  The rows are not checked: a scan's sets are ground-truth
    records, whose components are finite and > 0, and its offsets are >= 0.
    """
    count = len(illum_a)
    medians = []
    for block, shifted, tiled_b in _shifted_blocks(illum_a, illum_b, offsets):
        degrees = np.degrees(np.arctan2(*_cross_norms_and_dots(shifted, tiled_b)))
        medians.append(np.median(degrees.reshape(len(block), count), axis=1))
    return np.concatenate(medians)


def explain_offset(a: GTSet, b: GTSet, offset: float) -> OffsetFit:
    """Residual angles between (a + offset) and b over the common images."""
    if not math.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset!r}")
    (fit,) = _offset_fits(*_stacked(a, b), [offset])
    return fit


def scan_offset(a: GTSet, b: GTSet) -> OffsetFit:
    """Sweep the integer offsets ``SCAN_OFFSETS`` (0..512) and return the fit
    with the smallest median residual.  Ties go to the smaller offset.

    A screening pass takes every offset's median with ``np.arctan2``; the
    exact pass then scores, as ``explain_offset`` does, only the offsets whose
    screened median is within ``_SCREEN_MARGIN_DEG`` of the smallest.  The
    exact minimiser, and every offset tied with it, is among them, so the
    result is the exhaustive exact scan's.  Where every offset ties, as on
    neutral sets, every offset is scored exactly.
    """
    illum_a, illum_b = _stacked(a, b)
    offsets = np.asarray(SCAN_OFFSETS, dtype=np.float64)
    medians = _screened_medians(illum_a, illum_b, offsets)
    candidates = offsets[medians <= medians.min() + _SCREEN_MARGIN_DEG]
    fits = _offset_fits(illum_a, illum_b, candidates)
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
