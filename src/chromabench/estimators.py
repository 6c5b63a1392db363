"""Statistical illuminant estimators under a unified (n, p, sigma) framework.

A single pipeline covers the classic family: Gaussian-smooth the image with
scale sigma, take the per-channel derivative magnitude of order n, then pool
each channel with a Minkowski norm p and normalize the pooled RGB to unit
length.  The familiar names are parameter presets:

    grey-world           n=0, p=1,   sigma=0     (channel means)
    white-patch          n=0, p=inf, sigma=0     (channel maxima)
    shades-of-grey       n=0, p,     sigma=0
    general-grey-world   n=0, p,     sigma
    grey-edge-1          n=1, p,     sigma
    grey-edge-2          n=2, p,     sigma

Derivatives use central differences on the smoothed image with reflect
padding; the second-order magnitude is the Frobenius norm of the Hessian,
sqrt(fxx^2 + 2*fxy^2 + fyy^2).  Pooling is ((1/N) * sum v^p)^(1/p) so that
p = 1 is exactly the mean; p = inf is the maximum.  Estimates are invariant
to exposure scaling by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import fmt9, read_csv, write_csv
from .imagecore import LinearImage, clipped, normalize_estimate

__all__ = [
    "EstimatorSpec",
    "IlluminantEstimate",
    "PRESETS",
    "chart_region_mask",
    "derivative_magnitude",
    "estimate",
    "gaussian_smooth",
    "minkowski_pool",
    "read_estimates",
    "saturation_mask",
    "spec_from_string",
    "write_estimates",
]

_D1 = np.array([-0.5, 0.0, 0.5])  # central difference, d/dx
_D2 = np.array([1.0, -2.0, 1.0])  # second central difference


@dataclass(frozen=True)
class EstimatorSpec:
    """One statistical estimator: derivative order, Minkowski norm, smoothing."""

    name: str
    n: int
    p: float
    sigma: float

    def __post_init__(self) -> None:
        if self.n not in (0, 1, 2):
            raise ValueError("derivative order n must be 0, 1 or 2")
        if not (self.p >= 1.0):  # also rejects NaN
            raise ValueError("Minkowski norm p must be >= 1 (or inf)")
        if not (0.0 <= self.sigma < math.inf):  # also rejects NaN
            raise ValueError("sigma must be finite and >= 0")


@dataclass(frozen=True)
class IlluminantEstimate:
    """Unit-norm illuminant direction estimated for one image."""

    image_id: str
    algorithm: str
    rgb: tuple[float, float, float]

    def __post_init__(self) -> None:
        rgb = tuple(float(v) for v in self.rgb)
        if len(rgb) != 3 or any(not np.isfinite(v) or v < 0 for v in rgb):
            raise ValueError("estimate must be a finite nonnegative RGB triple")
        if abs(math.sqrt(sum(v * v for v in rgb)) - 1.0) > 1e-12:
            raise ValueError("estimate must have unit Euclidean norm")
        object.__setattr__(self, "rgb", rgb)


PRESETS: dict[str, EstimatorSpec] = {
    "grey-world": EstimatorSpec("grey-world", 0, 1.0, 0.0),
    "white-patch": EstimatorSpec("white-patch", 0, math.inf, 0.0),
    "shades-of-grey": EstimatorSpec("shades-of-grey", 0, 6.0, 0.0),
    "general-grey-world": EstimatorSpec("general-grey-world", 0, 6.0, 2.0),
    "grey-edge-1": EstimatorSpec("grey-edge-1", 1, 6.0, 2.0),
    "grey-edge-2": EstimatorSpec("grey-edge-2", 2, 6.0, 2.0),
}


_FAMILY_BY_ORDER = {0: "grey-world", 1: "grey-edge-1", 2: "grey-edge-2"}


def spec_from_string(text: str) -> EstimatorSpec:
    """Resolve a preset name or an explicit "n=...,p=...,sigma=..." spec.

    Explicit specs get a synthesized label, e.g. "grey-edge-1(p=5,s=2)".
    """
    text = text.strip()
    if text in PRESETS:
        return PRESETS[text]
    if "=" not in text:
        raise ValueError(f"unknown estimator: {text!r}")
    n, p, sigma = 0, 1.0, 0.0
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"bad estimator spec fragment: {part!r}")
        key = key.strip()
        value = value.strip()
        if key == "n":
            n = int(value)
        elif key == "p":
            p = math.inf if value.lower() == "inf" else float(value)
        elif key == "sigma":
            sigma = float(value)
        else:
            raise ValueError(f"unknown estimator parameter: {key!r}")
    name = f"{_FAMILY_BY_ORDER[n]}(p={p:g},s={sigma:g})" if n in _FAMILY_BY_ORDER else ""
    return EstimatorSpec(name, n, p, sigma)


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = int(math.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    weights = np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))
    return weights / weights.sum()


def _correlate_axis(data: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    # scipy's "mirror" mode is reflect-about-edge-sample padding, matching
    # np.pad(mode="reflect"); used consistently for smoothing and derivatives.
    from scipy import ndimage  # slower to import than the package; only estimation needs it

    return ndimage.correlate1d(data, weights, axis=axis, mode="mirror")


def gaussian_smooth(data: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of (H, W, 3) data; sigma = 0 returns the input unchanged.

    Kernel radius is ceil(3*sigma); weights are the sampled Gaussian
    normalized to sum 1, so constants pass through exactly.  A radius past
    the longer image side is rejected before any kernel is built.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return data
    height, width = data.shape[:2]
    if 3.0 * sigma > max(height, width):
        raise ValueError(
            f"sigma={sigma:g} is too large for a {width}x{height} image "
            "(3*sigma must not exceed the longer side)"
        )
    kernel = _gaussian_kernel(sigma)
    out = _correlate_axis(data, kernel, axis=1)
    return _correlate_axis(out, kernel, axis=0)


def derivative_magnitude(data: np.ndarray, n: int, sigma: float) -> np.ndarray:
    """Per-channel derivative-magnitude response of order n after smoothing.

    n=0: the smoothed image itself.
    n=1: sqrt(fx^2 + fy^2) with central differences.
    n=2: sqrt(fxx^2 + 2*fxy^2 + fyy^2), the Hessian Frobenius norm.
    """
    if n not in (0, 1, 2):
        raise ValueError("derivative order n must be 0, 1 or 2")
    a = gaussian_smooth(data, sigma)
    if n == 0:
        return a
    if n == 1:
        fx = _correlate_axis(a, _D1, axis=1)
        fy = _correlate_axis(a, _D1, axis=0)
        return np.sqrt(fx * fx + fy * fy)
    fxx = _correlate_axis(a, _D2, axis=1)
    fyy = _correlate_axis(a, _D2, axis=0)
    fxy = _correlate_axis(_correlate_axis(a, _D1, axis=1), _D1, axis=0)
    return np.sqrt(fxx * fxx + 2.0 * fxy * fxy + fyy * fyy)


def minkowski_pool(values, p: float) -> float:
    """((1/N) * sum v^p)^(1/p) over all values; p = inf is the max.

    Large p is computed on values scaled by their maximum so arbitrary count
    magnitudes cannot overflow; p = 1 is the exact arithmetic mean.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("empty mask: no values to pool")
    if np.any(v < 0):
        raise ValueError("minkowski_pool requires nonnegative values")
    if math.isinf(p):
        return float(v.max())
    if p < 1.0:
        raise ValueError("Minkowski norm p must be >= 1")
    if p == 1.0:
        return float(v.mean())
    vmax = float(v.max())
    if vmax == 0.0:
        return 0.0
    scaled = v / vmax
    return vmax * float(np.mean(scaled ** p) ** (1.0 / p))


def estimate(
    img: LinearImage,
    spec: EstimatorSpec,
    mask: np.ndarray | None = None,
    image_id: str = "",
) -> IlluminantEstimate:
    """Run one estimator on an image; optional boolean mask selects pixels."""
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (img.height, img.width):
            raise ValueError("mask dimensions must match the image")
    response = derivative_magnitude(img.data, spec.n, spec.sigma)
    # One channel at a time, so one gathered copy lives at once; one (K, 3)
    # row gather sliced into columns is about twice as slow on a full frame.
    channels = (response[:, :, c] for c in range(3))
    if mask is not None:
        channels = (channel[mask] for channel in channels)
    pooled = np.array([minkowski_pool(channel, spec.p) for channel in channels])
    if np.any(pooled == 0.0):
        raise ValueError("degenerate estimate: zero channel under mask")
    rgb = normalize_estimate(pooled)
    return IlluminantEstimate(image_id=image_id, algorithm=spec.name, rgb=tuple(rgb))


def saturation_mask(img: LinearImage, saturation_level: float) -> np.ndarray:
    """True where no channel is clipped (the rule ground truth also uses)."""
    return ~np.any(clipped(img.data, saturation_level), axis=2)


def chart_region_mask(
    height: int, width: int, corners, dilate_px: int = 5
) -> np.ndarray:
    """True outside the chart quadrilateral dilated by ``dilate_px`` pixels.

    Keeps the reference target from leaking into scene statistics.
    """
    corners = np.asarray(corners, dtype=np.float64)
    if corners.shape != (4, 2):
        raise ValueError("expected 4 corner points")
    # Map the output-rectangle convention onto the quad and test the unit box:
    # cheaper here to use half-plane tests with consistent winding.
    area2 = 0.0
    for i in range(4):
        x0, y0 = corners[i]
        x1, y1 = corners[(i + 1) % 4]
        area2 += x0 * y1 - x1 * y0
    orientation = 1.0 if area2 > 0 else -1.0
    ys, xs = np.mgrid[0:height, 0:width]
    inside = np.ones((height, width), dtype=bool)
    for i in range(4):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % 4]
        cross = (bx - ax) * (ys - ay) - (by - ay) * (xs - ax)
        inside &= orientation * cross >= 0
    if dilate_px > 0:
        from scipy import ndimage

        size = 2 * dilate_px + 1
        inside = ndimage.binary_dilation(inside, structure=np.ones((size, size), bool))
    return ~inside


EST_FIELDS = ("image_id", "algorithm", "n", "p", "sigma", "R", "G", "B")


def write_estimates(
    rows: list[tuple[IlluminantEstimate, EstimatorSpec | None]], path: str | Path
) -> None:
    """Write the estimates CSV; p = inf is serialized as "inf"."""
    write_csv(path, EST_FIELDS, (_estimate_row(est, spec) for est, spec in rows))


def _estimate_row(est: IlluminantEstimate, spec: EstimatorSpec | None) -> list[str]:
    if spec is None:
        params = ["", "", ""]
    else:
        p_txt = "inf" if math.isinf(spec.p) else fmt9(spec.p)
        params = [str(spec.n), p_txt, fmt9(spec.sigma)]
    return [est.image_id, est.algorithm, *params, *(fmt9(v) for v in est.rgb)]


def read_estimates(path: str | Path) -> list[IlluminantEstimate]:
    """Read an estimates CSV, re-normalizing each vector to unit length.

    Nine-digit serialization perturbs the norm in the tenth digit; the stored
    quantity is a direction, so normalization restores the invariant without
    changing any angle.  A repeated (image_id, algorithm) pair is an error.
    """
    seen: set[tuple[str, str]] = set()

    def parse(row: dict[str, str]) -> IlluminantEstimate:
        key = (row["image_id"], row["algorithm"])
        if key in seen:
            raise ValueError(
                f"duplicate estimate for image {key[0]!r}, algorithm {key[1]!r}"
            )
        seen.add(key)
        rgb = normalize_estimate((float(row["R"]), float(row["G"]), float(row["B"])))
        return IlluminantEstimate(image_id=key[0], algorithm=key[1], rgb=tuple(rgb))

    return read_csv(path, EST_FIELDS, parse)
