"""Scene constructions shared by pipeline, CLI and acceptance tests.

The renderer quantizes to integer counts, so test scenes pick an integer
white-patch target vector v and derive (illuminant, exposure) from it:
illuminant = v / |v| and exposure = |v| / white_reflectance.  The rendered
white patch then lands exactly on v and the extracted ground truth is
parallel to the true illuminant up to float rounding.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from chromabench import synth
from chromabench.chartgeom import CANONICAL_CORNERS

# Achromatic ramp of exact binary fractions: products with integer exposures
# stay exactly representable, which the saturation boundary tests rely on.
EXACT_ACHROMATIC = (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625)


def exact_reflectance_table() -> np.ndarray:
    table = synth.DEFAULT_REFLECTANCES.copy()
    for i, r in enumerate(EXACT_ACHROMATIC):
        table[18 + i] = (r, r, r)
    return table


def translation_pose(dx: float = 20.0, dy: float = 40.0) -> np.ndarray:
    """Exact integer translation: rectification copies counts bit-for-bit."""
    return synth.pose_from_corners(CANONICAL_CORNERS + np.array([dx, dy]))


def grayworld_image(
    illuminant,
    size: tuple[int, int] = (64, 64),
    rng_seed: int = 0,
    exposure: float = 1000.0,
) -> np.ndarray:
    """Chartless uint16 counts whose channel means are exactly parallel to the illuminant.

    Reflectances are drawn i.i.d. then shifted per channel so the mean is
    0.5 in every channel.  Their product with the illuminant and the
    exposure is rounded to counts so that each channel sums to
    ``round(0.5 * exposure * illuminant * pixels)``: floors first, then one
    count more for the pixels with the largest remainders.  The grey-world
    estimator must recover the illuminant almost exactly.  An in-memory
    oracle, not a corpus file.
    """
    illum = np.asarray(illuminant, dtype=np.float64)
    width, height = size
    rng = np.random.default_rng(rng_seed)
    reflectance = rng.uniform(0.2, 0.8, size=(height, width, 3))
    reflectance += 0.5 - reflectance.mean(axis=(0, 1))
    exact = (illum[None, None, :] * reflectance * exposure).reshape(-1, 3)
    counts = np.floor(exact)
    short = np.round(0.5 * exposure * illum * len(exact)) - counts.sum(axis=0)
    for c in range(3):
        counts[np.argsort(counts[:, c] - exact[:, c])[: int(short[c])], c] += 1
    return counts.astype(np.uint16).reshape(height, width, 3)


def scene_for_target(
    white_counts,
    pose: np.ndarray,
    black_level: float = 0.0,
    noise_sigma: float = 0.0,
    rng_seed: int = 0,
    width: int = 640,
    height: int = 480,
) -> tuple[synth.SceneSpec, np.ndarray]:
    """SceneSpec whose white patch renders exactly to the integer target."""
    v = np.asarray(white_counts, dtype=np.float64)
    truth = v / np.linalg.norm(v)
    spec = synth.SceneSpec(
        illuminant=tuple(truth),
        pose=pose,
        width=width,
        height=height,
        exposure=float(np.linalg.norm(v)) / synth.WHITE_REFLECTANCE,
        black_level=black_level,
        noise_sigma=noise_sigma,
        rng_seed=rng_seed,
    )
    return spec, truth


def write_corpus(
    out_dir: Path,
    rng: np.random.Generator,
    count: int,
    black_levels: tuple[float, ...] = (0.0, 129.0),
    noise_sigma: float = 0.0,
    counts_range: tuple[int, int] = (1400, 2900),
    prefix: str = "img",
) -> dict[str, np.ndarray]:
    """Render `count` random scenes; returns image_id -> unit true illuminant."""
    truths: dict[str, np.ndarray] = {}
    for i in range(count):
        v = rng.integers(*counts_range, size=3).astype(np.float64)
        spec, truth = scene_for_target(
            v,
            synth.random_pose(rng),
            black_level=black_levels[i % len(black_levels)],
            noise_sigma=noise_sigma,
            rng_seed=int(rng.integers(0, 2**31)),
        )
        image_id = f"{prefix}{i:03d}"
        synth.write_scene(synth.render(spec), out_dir, image_id)
        truths[image_id] = truth
    return truths


def write_nonneutral_corpus(
    out_dir: Path,
    rng: np.random.Generator,
    count: int,
    black_level: float = 129.0,
    prefix: str = "img",
) -> dict[str, np.ndarray]:
    """Strongly non-neutral illuminants so a constant offset visibly rotates them."""
    truths: dict[str, np.ndarray] = {}
    for i in range(count):
        v = np.array(
            [
                rng.integers(2000, 2800),
                rng.integers(1200, 1800),
                rng.integers(600, 1000),
            ],
            dtype=np.float64,
        )
        spec, truth = scene_for_target(
            v,
            synth.random_pose(rng),
            black_level=black_level,
            rng_seed=int(rng.integers(0, 2**31)),
        )
        image_id = f"{prefix}{i:03d}"
        synth.write_scene(synth.render(spec), out_dir, image_id)
        truths[image_id] = truth
    return truths

