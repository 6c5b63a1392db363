"""Seeded benchmark inputs, built only through chromabench's public API.

Pixel workloads render chart scenes with ``chromabench.synth`` and write them
with ``synth.write_scene``.  The audit workload writes ground-truth and
estimate CSVs with the library's own writers and renders no pixels.  The
scene writer returns the truth the oracle checks outputs against; the audit
corpus carries its truth in its input CSVs.  The CLI under test only ever
sees the files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chromabench import estimators, groundtruth, synth

BLACK_LEVEL = 129.0
SATURATION_LEVEL = 3300.0
NOISE_SIGMA = 2.0
WHITE_REFLECTANCE = float(synth.DEFAULT_REFLECTANCES[18][0])

PRESET_ALGOS = tuple(estimators.PRESETS)
# Six explicit (n, p, sigma) points of the same framework, beside the presets.
EXPLICIT_ALGOS = (
    "n=0,p=2,sigma=0",
    "n=0,p=4,sigma=1",
    "n=1,p=1,sigma=1",
    "n=1,p=2,sigma=3",
    "n=2,p=1,sigma=1",
    "n=2,p=4,sigma=3",
)


@dataclass(frozen=True)
class PixelTruth:
    """What the renderer knows about a scene corpus."""

    illuminants: dict[str, np.ndarray]  # image id -> unit true illuminant
    white_clipped: frozenset[str]  # ids whose white patch is past saturation


def _white_target(rng: np.random.Generator, clipped: bool) -> np.ndarray:
    """Linear counts of the white patch: non-neutral, optionally past saturation.

    Unclipped scenes keep every chart and background sample below the
    saturation level with a wide noise margin; clipped ones push the white
    patch's largest channel past it while patch 19 stays clear of it.
    """
    while True:
        v = rng.uniform(700.0, 2900.0, size=3)
        if v.max() / v.min() >= 1.3:
            break
    if clipped:
        v *= rng.uniform(3450.0, 3750.0) / v.max()
    return v


def _pose(rng: np.random.Generator, width: int, height: int, scale: tuple[float, float]):
    """Projective chart pose: scaled, rotated, corner-jittered, inside the frame."""
    s = rng.uniform(*scale)
    theta = math.radians(rng.uniform(-10.0, 10.0))
    w = (synth.CHART_W - 1) * s
    h = (synth.CHART_H - 1) * s
    base = np.array([[-w / 2, -h / 2], [w / 2, -h / 2], [w / 2, h / 2], [-w / 2, h / 2]])
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    corners = base @ rot.T + rng.uniform(-0.04, 0.04, size=(4, 2)) * w
    lo = -corners.min(axis=0) + 2.0
    hi = np.array([width - 1, height - 1]) - corners.max(axis=0) - 2.0
    return synth.pose_from_corners(corners + rng.uniform(lo, hi))


def _background(rng: np.random.Generator, width: int, height: int, block: int) -> np.ndarray:
    """Blocky reflectance texture with per-pixel grain, for edges and variety."""
    rows = -(-height // block)
    cols = -(-width // block)
    coarse = rng.uniform(0.05, 0.9, size=(rows, cols, 3))
    field = np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)[:height, :width]
    field += rng.uniform(-0.05, 0.05, size=field.shape)
    return np.clip(field, 0.0, 0.95)


def write_scenes(
    out_dir: Path,
    seed: int,
    count: int,
    width: int,
    height: int,
    chart_scale: tuple[float, float],
    block: int,
) -> PixelTruth:
    """Render ``count`` scenes from ``seed``; every other one clips its white patch."""
    rng = np.random.default_rng(seed)
    illuminants: dict[str, np.ndarray] = {}
    clipped: set[str] = set()
    for i in range(count):
        image_id = f"img{i:03d}"
        is_clipped = i % 2 == 1
        v = _white_target(rng, is_clipped)
        spec = synth.SceneSpec(
            illuminant=tuple(v / np.linalg.norm(v)),
            pose=_pose(rng, width, height, chart_scale),
            width=width,
            height=height,
            exposure=float(np.linalg.norm(v)) / WHITE_REFLECTANCE,
            background=_background(rng, width, height, block),
            black_level=BLACK_LEVEL,
            noise_sigma=NOISE_SIGMA,
            bit_depth=12,
            rng_seed=int(rng.integers(0, 2**31)),
            saturation_level=SATURATION_LEVEL,
        )
        scene = synth.render(spec)
        synth.write_scene(scene, out_dir, image_id)
        illuminants[image_id] = np.asarray(scene.true_illuminant)
        if is_clipped:
            clipped.add(image_id)
    return PixelTruth(illuminants, frozenset(clipped))


def write_audit_corpus(out_dir: Path, seed: int, count: int) -> None:
    """Two ground-truth conventions and twelve algorithms' estimates, as CSVs.

    The unsubtracted set is the subtracted one plus ``BLACK_LEVEL`` counts in
    every channel, as a dark offset left in would make it.  Half the
    algorithms aim between the two conventions, so rankings differ between
    them, which is the paper's finding.
    """
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    offset = int(BLACK_LEVEL)
    ids = tuple(f"img{i:03d}" for i in range(count))
    sub, raw = [], []
    counts = {}
    for image_id in ids:
        v = np.rint(rng.uniform([2000, 1200, 600], [2800, 1800, 1000]))
        winner = 19 if rng.random() < 0.1 else 18
        counts[image_id] = v
        for records, rgb, subtracted in ((sub, v, True), (raw, v + offset, False)):
            records.append(
                groundtruth.GroundTruthRecord(
                    image_id=image_id,
                    illuminant=tuple(rgb),
                    patch_index=winner,
                    camera_id="synthcam",
                    black_level_subtracted=subtracted,
                )
            )
    groundtruth.write_gt(sub, out_dir / "gt_sub.csv")
    groundtruth.write_gt(raw, out_dir / "gt_raw.csv")

    specs = [estimators.spec_from_string(t) for t in PRESET_ALGOS + EXPLICIT_ALGOS]
    rows = []
    for k, spec in enumerate(specs):
        spread = 0.02 + 0.01 * k
        lean = 0.8 if k % 2 else 0.0
        for image_id in ids:
            v = counts[image_id]
            true_dir = v / np.linalg.norm(v)
            raw_dir = (v + offset) / np.linalg.norm(v + offset)
            aim = (1.0 - lean) * true_dir + lean * raw_dir
            rgb = np.maximum(aim + rng.normal(0.0, spread, size=3), 1e-3)
            est = estimators.IlluminantEstimate(
                image_id=image_id,
                algorithm=spec.name,
                rgb=tuple(rgb / np.linalg.norm(rgb)),
            )
            rows.append((est, spec))
    estimators.write_estimates(rows, out_dir / "estimates.csv")
