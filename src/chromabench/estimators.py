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

`estimate_many` runs a list of specs on one (H, W, 3) array of raw counts
(native uint16 from ``imagecore.load_counts``, or float) and shares their
work: one blur per (sigma, channel), one derivative per (n, sigma, channel),
and one masked gather per channel of each response, pooled for every p that
asks for it.  It works one channel at a time in buffers it owns: it
linearises the channel into a fresh float64 array with
``imagecore.subtract_black_level``, blurs that array in place through one
axis temporary, takes every order, n = 0 too, in row stripes of it, and lets
the last finite p > 1 of a gather scale the gather in place.  So beside the
counts the engine holds under one float64 frame at its peak (a channel and
its blur temporary, or a channel, its gather and stripe temporaries, each a
third of a frame or less) whatever the frame size.  `estimate` is its
one-spec case.
`chart_region_mask` tests and dilates only the chart's bounding box plus
its margin; the rest of the frame is kept.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import fmt9, read_csv, write_csv
from .chartgeom import ChartLayout
from .imagecore import check_counts, clipped, normalize_estimate, subtract_black_level

__all__ = [
    "CHART_MARGIN_PX",
    "EstimatorSpec",
    "IlluminantEstimate",
    "PRESETS",
    "chart_region_mask",
    "estimate",
    "estimate_many",
    "gaussian_smooth",
    "minkowski_pool",
    "read_estimates",
    "saturation_mask",
    "spec_from_string",
    "write_estimates",
]

# How far past the chart quadrilateral `chart_region_mask` masks.
CHART_MARGIN_PX = 5

# Rows per stripe of the derivative pass in `estimate_many`: each stripe
# temporary of one channel is 1.1 MB on a 2193-pixel-wide frame, against
# 77 MB for the (H, W, 3) frame.
_STRIPE_ROWS = 64


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
    seen: set[str] = set()
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"bad estimator spec fragment: {part!r}")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ValueError(f"estimator spec repeats {key!r}")
        seen.add(key)
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


def _correlate_axis(
    data: np.ndarray, weights: np.ndarray, axis: int, output: np.ndarray | None = None
) -> np.ndarray:
    # scipy's "mirror" mode is reflect-about-edge-sample padding, matching
    # np.pad(mode="reflect"); `_difference` pads the derivatives the same way.
    from scipy import ndimage  # slower to import than the package; only estimation needs it

    return ndimage.correlate1d(data, weights, axis=axis, output=output, mode="mirror")


def _smoothing_kernel(shape: tuple[int, ...], sigma: float) -> np.ndarray | None:
    """The blur kernel for data of ``shape`` at ``sigma``; None for sigma = 0."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return None
    height, width = shape[:2]
    if 3.0 * sigma > max(height, width):
        raise ValueError(
            f"sigma={sigma:g} is too large for a {width}x{height} image "
            "(3*sigma must not exceed the longer side)"
        )
    return _gaussian_kernel(sigma)


def gaussian_smooth(data: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of (H, W) or (H, W, 3) data over its first two axes.

    sigma = 0 returns the input unchanged.

    Kernel radius is ceil(3*sigma); weights are the sampled Gaussian
    normalized to sum 1, so constants pass through exactly.  A radius past
    the longer image side is rejected before any kernel is built.
    """
    kernel = _smoothing_kernel(data.shape, sigma)
    if kernel is None:
        return data
    out = _correlate_axis(data, kernel, axis=1)
    return _correlate_axis(out, kernel, axis=0)


def _smooth_in_place(channel: np.ndarray, sigma: float) -> None:
    """:func:`gaussian_smooth` of an (H, W) float64 array the engine owns, written back into it.

    The axis-1 pass goes into one temporary and the axis-0 pass from it into
    ``channel``, so input and output are never the same array; the values
    are gaussian_smooth's bit for bit.
    """
    kernel = _smoothing_kernel(channel.shape, sigma)
    if kernel is not None:
        _correlate_axis(_correlate_axis(channel, kernel, axis=1), kernel, axis=0, output=channel)


def _derivative(a: np.ndarray, n: int) -> np.ndarray:
    """The order-n magnitude of smoothed data: a itself, |gradient| or |Hessian|."""
    if n == 0:
        return a
    if n == 1:
        fx = _difference(a, 1, axis=1)
        fy = _difference(a, 1, axis=0)
        return np.sqrt(fx * fx + fy * fy)
    fxx = _difference(a, 2, axis=1)
    fyy = _difference(a, 2, axis=0)
    fxy = _difference(_difference(a, 1, axis=1), 1, axis=0)
    return np.sqrt(fxx * fxx + 2.0 * fxy * fxy + fyy * fyy)


def _difference(a: np.ndarray, order: int, axis: int) -> np.ndarray:
    """The first (order 1) or second (order 2) central difference along axis 0 or 1.

    The 3-tap stencils [-0.5, 0, 0.5] and [1, -2, 1] in the order
    ``scipy.ndimage.correlate1d`` accumulates them, (a[i-1] - a[i+1]) * -0.5
    and (a[i-1] + a[i+1]) + a[i] * -2.0, with its "mirror" edges: index -1
    reads index 1, index L reads L - 2, and a length-1 axis reads itself.
    So the derivative magnitudes match correlate1d's bit for bit, on 2-D
    and 3-D arrays alike.
    """
    a = np.moveaxis(a, axis, 0)
    out = np.empty_like(a)
    length = a.shape[0]
    m = 1 if length > 1 else 0  # offset of each edge row's mirror neighbour
    first, last = a[m : m + 1], a[length - 1 - m : length - m]
    for dst, before, mid, after in (
        (out[1:-1], a[:-2], a[1:-1], a[2:]),
        (out[:1], first, a[:1], first),
        (out[-1:], last, a[-1:], last),
    ):
        if order == 1:
            np.subtract(before, after, out=dst)
            dst *= -0.5
        else:
            np.add(before, after, out=dst)
            dst += mid * -2.0
    return np.moveaxis(out, 0, axis)


def minkowski_pool(values, p: float) -> float:
    """((1/N) * sum v^p)^(1/p) over all values; p = inf is the max.

    Large p is computed on values scaled by their maximum so arbitrary count
    magnitudes cannot overflow; p = 1 is the exact arithmetic mean.
    """
    return _pool(np.asarray(values, dtype=np.float64).ravel(), p, scale_in_place=False)


def _pool(v: np.ndarray, p: float, scale_in_place: bool) -> float:
    """:func:`minkowski_pool` of a flat float64 array; ``scale_in_place`` lets
    a finite p > 1 scale and raise ``v`` itself rather than a copy of it."""
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
    scaled = np.divide(v, vmax, out=v if scale_in_place else None)
    scaled **= p
    return vmax * float(np.mean(scaled) ** (1.0 / p))


def estimate(
    data: np.ndarray,
    spec: EstimatorSpec,
    mask: np.ndarray | None = None,
    image_id: str = "",
) -> IlluminantEstimate:
    """Run one estimator on (H, W, 3) counts; optional boolean mask selects pixels."""
    (result,) = estimate_many(data, [spec], mask, image_id)
    if isinstance(result, ValueError):
        raise result
    return result


def estimate_many(
    counts: np.ndarray,
    specs: Sequence[EstimatorSpec],
    mask: np.ndarray | None = None,
    image_id: str = "",
    black_level: float = 0.0,
) -> list[IlluminantEstimate | ValueError]:
    """Run several estimators on (H, W, 3) raw counts, sharing the work they have in common.

    The work goes one channel at a time: each channel is linearised once per
    sigma (``counts - black_level``, clamped at zero, by
    :func:`imagecore.subtract_black_level`) and smoothed, each derivative
    order is taken once per (n, sigma) from that, and the response is
    gathered under the mask once and pooled for every p that asks for it.
    The result holds, in spec order, each spec's estimate or the ValueError
    that :func:`estimate` would raise for it alone (the first channel's, if
    several fail), so one spec's failure (a sigma too large for the frame,
    say) leaves the others standing.  Counts or a mask of the wrong shape,
    and float counts with a negative or non-finite sample, raise before any
    work is done.  Neither the counts nor the mask is written to.
    """
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.shape[2] != 3:
        raise ValueError("image data must have shape (H, W, 3)")
    if counts.dtype.kind != "u":  # unsigned counts cannot be negative
        counts = np.asarray(counts, dtype=np.float64)
        check_counts(counts)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != counts.shape[:2]:
            raise ValueError("mask dimensions must match the image")
    groups: dict[float, dict[int, list[int]]] = {}  # sigma -> n -> spec indices
    for i, spec in enumerate(specs):
        groups.setdefault(spec.sigma, {}).setdefault(spec.n, []).append(i)
    pooled: list = [[] for _ in specs]  # per spec: its pooled channels, or its first error
    for sigma, by_order in groups.items():
        for c in range(3):
            channel = subtract_black_level(counts[:, :, c], black_level)
            try:
                _smooth_in_place(channel, sigma)
            except ValueError as exc:  # the frame's size decides it, so every channel fails
                for members in by_order.values():
                    for i in members:
                        pooled[i] = exc
                break
            for n, members in by_order.items():
                _pool_members(_gather(channel, n, mask), members, specs, pooled)
            del channel  # before the next channel is linearised
    return [_finish(channels, spec, image_id) for channels, spec in zip(pooled, specs)]


def _pool_members(
    values: np.ndarray, members: list[int], specs: Sequence[EstimatorSpec], pooled: list
) -> None:
    """Pool one gathered response for every spec in ``members``.

    The specs with p = 1 or p = inf only read the gather, so they go first;
    the last one with a finite p > 1 may then scale the gather in place,
    since no spec reads it after that.
    """
    order = sorted(members, key=lambda i: 1.0 < specs[i].p < math.inf)
    for i in order:
        if isinstance(pooled[i], list):
            try:
                pooled[i].append(_pool(values, specs[i].p, scale_in_place=i == order[-1]))
            except ValueError as exc:
                pooled[i] = exc


def _gather(smoothed: np.ndarray, n: int, mask: np.ndarray | None) -> np.ndarray:
    """The order-n response of one smoothed (H, W) channel, masked in row order.

    The response is taken in full-width stripes of ``_STRIPE_ROWS`` rows (for
    n = 0, the smoothed rows themselves), each differentiated with one row of
    context above and below and copied into one array, so no full-frame
    response or temporary exists.  At the frame's top and bottom edges a
    stripe has no context row, and the derivative's own mirror padding
    supplies the frame's mirror row, so every kept row equals the whole-frame
    derivative's bit for bit.
    """
    height, width = smoothed.shape
    out = np.empty(width * height if mask is None else int(np.count_nonzero(mask)))
    end = 0
    for r0 in range(0, height, _STRIPE_ROWS):
        r1 = min(r0 + _STRIPE_ROWS, height)
        lo = max(r0 - 1, 0)
        response = _derivative(smoothed[lo : r1 + 1], n)[r0 - lo : r1 - lo]
        values = response.ravel() if mask is None else response[mask[r0:r1]]
        out[end : end + values.size] = values
        end += values.size
    return out


def _finish(
    channels: list[float] | ValueError, spec: EstimatorSpec, image_id: str
) -> IlluminantEstimate | ValueError:
    if isinstance(channels, ValueError):
        return channels
    try:
        if 0.0 in channels:
            raise ValueError("degenerate estimate: zero channel under mask")
        rgb = normalize_estimate(channels)
        return IlluminantEstimate(image_id=image_id, algorithm=spec.name, rgb=tuple(rgb))
    except ValueError as exc:
        return exc


def saturation_mask(counts: np.ndarray, saturation_level: float) -> np.ndarray:
    """True where no channel of the raw (H, W, 3) counts is clipped (ground truth's rule too)."""
    return ~np.any(clipped(counts, saturation_level), axis=2)


def chart_region_mask(height: int, width: int, layout: ChartLayout) -> np.ndarray:
    """True outside the chart quadrilateral dilated by ``CHART_MARGIN_PX`` pixels.

    Keeps the reference target from leaking into scene statistics.  A chart
    outside the frame fails here as in :func:`chartgeom.sample_patches`.
    Only the quad's bounding box plus the margin, clipped to the frame, is
    tested and dilated; no pixel past it can be inside or within the margin.
    """
    layout.check_in_frame(height, width)
    corners = layout.corners
    margin = CHART_MARGIN_PX
    x0, y0 = np.maximum(np.floor(corners.min(axis=0)).astype(int) - margin, 0)
    x1, y1 = np.minimum(np.floor(corners.max(axis=0)).astype(int) + margin + 1, (width, height))
    # Half-plane tests with the quad's winding; a convex quad winds the way
    # its first turn does.
    (ax, ay), (bx, by), (cx, cy) = corners[:3]
    orientation = 1.0 if (bx - ax) * (cy - by) - (by - ay) * (cx - bx) > 0 else -1.0
    ys = np.arange(y0, y1)[:, None]
    xs = np.arange(x0, x1)[None, :]
    inside = np.ones((y1 - y0, x1 - x0), dtype=bool)
    for i in range(4):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % 4]
        cross = (bx - ax) * (ys - ay) - (by - ay) * (xs - ax)
        inside &= orientation * cross >= 0
    from scipy import ndimage

    # A square dilation is separable; the frame edge counts as outside.
    for axis in (0, 1):
        inside = ndimage.maximum_filter1d(
            inside, 2 * margin + 1, axis=axis, mode="constant", cval=0
        )
    keep = np.ones((height, width), dtype=bool)
    keep[y0:y1, x0:x1] = ~inside
    return keep


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
