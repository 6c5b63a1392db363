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

Derivatives use central differences on the smoothed image; the
second-order magnitude is the Frobenius norm of the Hessian,
sqrt(fxx^2 + 2*fxy^2 + fyy^2).  Pooling is ((1/N) * sum v^p)^(1/p) so that
p = 1 is exactly the mean; p = inf is the maximum.  Estimates are invariant
to exposure scaling by construction.

The blur goes through `_correlate`: mirror-edged 1-D correlation along one
axis, equal bit for bit to ``scipy.ndimage.correlate1d(mode="mirror")``,
which the tests keep as its reference.  The two 3-tap difference stencils
are direct differences of slices along their axis, with the same mirror
edges, and give correlate1d's magnitudes bit for bit.  The module needs
numpy only.

`estimate_many` is the one way in: it runs a list of specs on one native
uint16 (H, W, 3) array of raw counts, as ``imagecore.load_counts`` returns
it, and shares their work: one blur per (sigma, channel), one derivative per
(n, sigma, channel), and one masked gather per channel of each response,
pooled for every p that asks for it.  It works one channel at a time in buffers it owns: it
linearises the channel into a fresh float64 array with
``imagecore.subtract_black_level``, blurs that array in place through one
axis temporary, takes every order, n = 0 too, in row stripes of it, and lets
the last finite p > 1 of a gather scale the gather in place.  So beside the
counts the engine holds under one float64 frame at its peak (a channel and
its blur temporary, or a channel, its gather and stripe temporaries, each a
third of a frame or less) whatever the frame size.  Like
``metrics.error_angles`` it returns an (N, 3) array and the problems,
row index -> message; it finds a sigma too large or an empty mask first.
`chart_region_mask` tests and dilates only the chart's bounding box plus
its margin; the rest of the frame is kept.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._util import fmt9, read_csv, real, real_array, whole, write_csv
from .chartgeom import ChartLayout
from .imagecore import clipped, subtract_black_level
from .metrics import normalize_rows

__all__ = [
    "CHART_MARGIN_PX",
    "EstimatorSpec",
    "IlluminantEstimate",
    "PRESETS",
    "chart_region_mask",
    "estimate_many",
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

# Rows per stripe of `_correlate`, the blur's correlation: 16 rows of a
# 2193-pixel-wide channel are 0.28 MB, so a stripe and its temporaries stay
# in cache.
_STENCIL_ROWS = 16


@dataclass(frozen=True)
class EstimatorSpec:
    """One statistical estimator: derivative order, Minkowski norm, smoothing."""

    name: str
    n: int
    p: float
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", whole(self.n, "n", 0, 2))
        # p = inf pools the maximum (white-patch); any other p is a finite number >= 1.
        if not (isinstance(self.p, float) and self.p == math.inf):
            object.__setattr__(self, "p", real(self.p, "p", ge=1))
        object.__setattr__(self, "sigma", real(self.sigma, "sigma", ge=0))


@dataclass(frozen=True, slots=True)
class IlluminantEstimate:
    """Unit-norm illuminant direction estimated for one image."""

    image_id: str
    algorithm: str
    rgb: tuple[float, float, float]

    def __post_init__(self) -> None:
        rgb = tuple(real_array(self.rgb, "rgb", (3,), ge=0).tolist())
        if abs(math.hypot(*rgb) - 1.0) > 1e-12:
            raise ValueError("rgb must have unit Euclidean norm")
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
    params: dict[str, object] = {"n": 0, "p": 1.0, "sigma": 0.0}
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
        if key not in params:
            raise ValueError(f"unknown estimator parameter: {key!r}")
        try:
            params[key] = int(value) if key == "n" else float(value)
        except ValueError:
            params[key] = value  # EstimatorSpec refuses the text, naming the parameter
    spec = EstimatorSpec("", **params)
    name = f"{_FAMILY_BY_ORDER[spec.n]}(p={fmt9(spec.p)},s={fmt9(spec.sigma)})"
    return replace(spec, name=name)


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = int(math.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    weights = np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))
    return weights / weights.sum()


def _smooth_in_place(channel: np.ndarray, sigma: float) -> None:
    """Separable Gaussian blur of a float64 channel the engine owns, written back into it.

    sigma = 0 leaves the channel as it is.  The kernel radius is
    ceil(3*sigma) and its weights are the sampled Gaussian normalized to sum
    1, so constants pass through exactly; ``estimate_many`` keeps the radius
    within the longer side.  The axis-1 pass goes into one temporary and the
    axis-0 pass from it into ``channel``, so input and output are never the
    same array.
    """
    if sigma == 0:
        return
    kernel = _gaussian_kernel(sigma)
    _correlate(_correlate(channel, kernel, axis=1), kernel, axis=0, out=channel)


def _correlate(
    a: np.ndarray, weights: np.ndarray, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Correlate float64 (H, W) or (H, W, 3) data with an odd symmetric kernel along axis 0 or 1.

    The blur's Gaussian goes through it.  The sums run in the order
    ``scipy.ndimage.correlate1d`` runs them for a symmetric kernel, a[i] *
    w[R] and then, for j from R down to 1, + (a[i-j] + a[i+j]) * w[R-j],
    with its "mirror" edges: index k is read mod 2L - 2 and folded back into
    the axis, and a length-1 axis reads itself.  So the values are
    correlate1d's bit for bit.

    The work goes in stripes of ``_STENCIL_ROWS`` rows, so each stripe and
    its temporaries stay in cache through the 3R + 1 passes.  Along axis 1 a
    stripe is gathered transposed, with its mirror columns, so the kernel
    slides down contiguous rows, and the result is written back transposed.
    ``out`` must not overlap ``a``.
    """
    if out is None:
        out = np.empty_like(a)
    radius = len(weights) // 2
    height, width = a.shape[:2]
    columns = _mirror(-radius, width + radius, width) if axis == 1 else None
    for r0 in range(0, height, _STENCIL_ROWS):
        r1 = min(r0 + _STENCIL_ROWS, height)
        if axis == 1:
            window = np.moveaxis(a[r0:r1], 1, 0)[columns]
            out[r0:r1] = np.moveaxis(_slide(window, weights), 0, 1)
        elif radius <= r0 and r1 + radius <= height:
            _slide(a[r0 - radius : r1 + radius], weights, out[r0:r1])
        else:
            _slide(a[_mirror(r0 - radius, r1 + radius, height)], weights, out[r0:r1])
    return out


def _mirror(start: int, stop: int, length: int) -> np.ndarray:
    """Indices start..stop-1 of an axis of ``length``, mirrored into it as correlate1d does."""
    period = max(2 * length - 2, 1)  # a length-1 axis reads index 0 throughout
    k = np.arange(start, stop) % period
    return np.where(k < length, k, period - k)


def _slide(window: np.ndarray, weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The kernel applied down axis 0 of ``window``, which has R rows of context each side."""
    radius = len(weights) // 2
    rows = len(window) - 2 * radius
    out = np.multiply(window[radius : radius + rows], weights[radius], out=out)
    term = np.empty_like(out)
    for j in range(radius, 0, -1):
        lo, hi = radius - j, radius + j
        np.add(window[lo : lo + rows], window[hi : hi + rows], out=term)
        term *= weights[radius - j]
        out += term
    return out


def _derivative(a: np.ndarray, n: int) -> np.ndarray:
    """The order-n magnitude of smoothed data: a itself, |gradient| or |Hessian|.

    The magnitude is taken in the derivatives' own buffers, in the order
    sqrt(fx*fx + fy*fy) and sqrt(fxx*fxx + (2.0*fxy)*fxy + fyy*fyy).
    """
    if n == 0:
        return a
    if n == 1:
        fx = _first_difference(a, axis=1)
        fy = _first_difference(a, axis=0)
        fx *= fx
        fy *= fy
        fx += fy
        return np.sqrt(fx, out=fx)
    centre = np.multiply(a, -2.0)
    fxx = _second_difference(a, centre, axis=1)
    fyy = _second_difference(a, centre, axis=0)
    fx = _first_difference(a, axis=1, out=centre)  # centre is spent once fyy is taken
    fxy = _first_difference(fx, axis=0)
    fxx *= fxx
    np.multiply(fxy, 2.0, out=fx)
    fx *= fxy
    fxx += fx
    fyy *= fyy
    fxx += fyy
    return np.sqrt(fxx, out=fxx)


def _first_difference(a: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """(a[i-1] - a[i+1]) * -0.5 along axis 0 or 1, with correlate1d's mirror edges.

    ``correlate1d`` with [-0.5, 0, 0.5] also adds the centre tap a[i] * 0.0.
    On finite input that tap can only change the sign of a zero result, and
    every caller squares this difference (fxy, a difference of differences,
    is squared too), so it is left out: the magnitudes are the same bits.
    """
    out = _neighbours(np.subtract, a, axis, out)
    out *= -0.5
    return out


def _second_difference(a: np.ndarray, centre: np.ndarray, axis: int) -> np.ndarray:
    """(a[i-1] + a[i+1]) + a[i] * -2.0 along axis 0 or 1, with correlate1d's mirror edges.

    ``centre`` is a * -2.0, shared by both axes.  This is correlate1d's sum
    with [1, -2, 1], a[i] * -2.0 + (a[i-1] + a[i+1]) * 1.0, without its
    exact ``* 1.0`` and with the (commutative) addition's operands swapped,
    so the same bits.
    """
    out = _neighbours(np.add, a, axis)
    out += centre
    return out


def _neighbours(
    combine: np.ufunc, a: np.ndarray, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """combine(a[i-1], a[i+1]) along axis 0 or 1, straight from slices of ``a``.

    The edges are correlate1d's "mirror" ones: index -1 reads 1, index L
    reads L - 2, and a length-1 axis reads itself.  ``out`` must not overlap ``a``.
    """
    if out is None:
        out = np.empty_like(a)
    src, dst = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
    if len(src) == 1:
        combine(src, src, out=dst)
    else:
        combine(src[:-2], src[2:], out=dst[1:-1])
        combine(src[1], src[1], out=dst[0])
        combine(src[-2], src[-2], out=dst[-1])
    return out


def _pool(v: np.ndarray, p: float, scale_in_place: bool) -> float:
    """((1/N) * sum v^p)^(1/p) of a flat nonnegative float64 array; p = inf is the max.

    Large p is computed on values scaled by their maximum so arbitrary count
    magnitudes cannot overflow; p = 1 is the exact arithmetic mean.
    ``scale_in_place`` lets a finite p > 1 scale and raise ``v`` itself
    rather than a copy of it.
    ``estimate_many`` never pools an empty gather.
    """
    if math.isinf(p):
        return float(v.max())
    if p == 1.0:
        return float(v.mean())
    vmax = float(v.max())
    if vmax == 0.0:
        return 0.0
    scaled = np.divide(v, vmax, out=v if scale_in_place else None)
    scaled **= p
    return vmax * float(np.mean(scaled) ** (1.0 / p))


def estimate_many(
    counts: np.ndarray,
    specs: Sequence[EstimatorSpec],
    mask: np.ndarray | None,
    black_level: float,
) -> tuple[np.ndarray, dict[int, str]]:
    """Run several estimators on uint16 (H, W, 3) raw counts, sharing their common work.

    Returns a (len(specs), 3) float64 array whose row i is spec i's unit
    estimate, and the problems: spec index -> message, for rows left NaN.
    Before any channel is linearised, a spec fails whose 3*sigma is past the
    longer side, and then every other spec if the mask keeps no pixel.  The
    rest run one channel at a time: each channel is linearised once per
    sigma (``counts - black_level``, clamped at zero, by
    :func:`imagecore.subtract_black_level`) and smoothed, each derivative
    order is taken once per (n, sigma) from that, and the response is
    gathered under the mask once and pooled for every p that asks for it.
    Counts of another dtype or shape, and a mask of the wrong shape, raise
    before any work is done.  Neither the counts nor the mask is written to.
    """
    if counts.dtype != np.uint16 or counts.ndim != 3 or counts.shape[2] != 3:
        raise ValueError("counts must be a uint16 (H, W, 3) array")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != counts.shape[:2]:
            raise ValueError("mask dimensions must match the image")
    height, width = counts.shape[:2]
    empty = counts.size == 0 if mask is None else not mask.any()
    problems: dict[int, str] = {}
    groups: dict[float, dict[int, list[int]]] = {}  # sigma -> n -> spec indices
    for i, spec in enumerate(specs):
        if 3.0 * spec.sigma > max(height, width):
            problems[i] = (
                f"sigma={spec.sigma:g} is too large for a {width}x{height} image "
                "(3*sigma must not exceed the longer side)"
            )
        elif empty:
            problems[i] = "empty mask: no values to pool"
        else:
            groups.setdefault(spec.sigma, {}).setdefault(spec.n, []).append(i)
    rgb = np.full((len(specs), 3), np.nan)
    for sigma, by_order in groups.items():
        for c in range(3):
            channel = subtract_black_level(counts[:, :, c], black_level)
            _smooth_in_place(channel, sigma)
            for n, members in by_order.items():
                values = _gather(channel, n, mask)
                # p = 1 and p = inf only read the gather, so they go first; the
                # last finite p > 1 may then scale it in place.
                order = sorted(members, key=lambda j: 1.0 < specs[j].p < math.inf)
                for i in order:
                    rgb[i, c] = _pool(values, specs[i].p, scale_in_place=i == order[-1])
                del values  # before the next response is gathered
            del channel  # before the next channel is linearised
    for i in np.flatnonzero((rgb == 0.0).any(axis=1)).tolist():
        problems[i] = "degenerate estimate: zero channel under mask"
        rgb[i] = np.nan
    ok = ~np.isnan(rgb).any(axis=1)
    rgb[ok] = normalize_rows(rgb[ok])
    return rgb, problems


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


def saturation_mask(counts: np.ndarray, saturation_level: float) -> np.ndarray:
    """True where no channel of the raw (H, W, 3) counts is clipped (ground truth's rule too).

    Built one channel at a time: reducing an (H, W, 3) boolean over its
    short last axis is about six times slower on a full frame.
    """
    keep = ~clipped(counts[:, :, 0], saturation_level)
    for c in (1, 2):
        keep &= ~clipped(counts[:, :, c], saturation_level)
    return keep


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
    # A square dilation is separable: shifted ORs along each axis, with the
    # frame edge counting as outside.
    for axis in (0, 1):
        line = np.moveaxis(inside, axis, 0)
        grown = line.copy()
        for shift in range(1, margin + 1):
            grown[shift:] |= line[:-shift]
            grown[:-shift] |= line[shift:]
        inside = np.moveaxis(grown, 0, axis)
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


def read_estimates(path: str | Path) -> tuple[list[tuple[str, str]], np.ndarray]:
    """Read an estimates CSV as its (image_id, algorithm) keys, in file order,
    and an (N, 3) float64 array whose row i is key i's RGB at unit length.

    Nine-digit serialization perturbs the norm in the tenth digit; the stored
    quantity is a direction, so normalization restores the invariant without
    changing any angle.  Each row is checked as it is parsed (finite, >= 0,
    not all zero; a repeated (image_id, algorithm) pair is an error), and the
    rows' floats then make one (N, 3) array for one ``metrics.normalize_rows``
    call, so a row of any finite magnitude keeps its direction.
    """
    seen: set[tuple[str, str]] = set()
    components: list[float] = []  # R, G, B of every row, in file order

    def parse(row: dict[str, str]) -> tuple[str, str]:
        key = (row["image_id"], row["algorithm"])
        if key in seen:
            raise ValueError(
                f"duplicate estimate for image {key[0]!r}, algorithm {key[1]!r}"
            )
        seen.add(key)
        rgb = (float(row["R"]), float(row["G"]), float(row["B"]))
        if not all(0.0 <= v < math.inf for v in rgb):  # also rejects NaN
            raise ValueError("components must be finite and >= 0")
        if not any(rgb):
            raise ValueError("degenerate illuminant: zero vector")
        components.extend(rgb)
        return key

    keys = read_csv(path, EST_FIELDS, parse)
    return keys, normalize_rows(np.array(components, dtype=np.float64).reshape(-1, 3))
