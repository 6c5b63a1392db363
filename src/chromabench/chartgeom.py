"""Chart geometry: 4-point homography, patch grid, patch sampling.

The 24-patch chart is handled in a canonical orientation: 4 rows x 6 columns,
patch indices 0..23 row-major from the top-left, achromatic row at the bottom
(white = 18 at bottom-left, black = 23 at bottom-right).  Corner coordinates
for each photographed chart come from a small text file (see
:func:`read_chart_file`), which replaces interactive corner clicking so that
batch runs are reproducible.

Coordinates are pixel-center based: an image of width W spans x in [0, W-1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._util import fmt9

__all__ = [
    "ACHROMATIC_INDICES",
    "CANONICAL_CORNERS",
    "CELL",
    "CHART_COLS",
    "CHART_ROWS",
    "ChartLayout",
    "DEFAULT_HALF_SIZE",
    "DEFAULT_RECT_SIZE",
    "apply_homography",
    "default_corner_patch_centers",
    "fit_homography",
    "format_chart",
    "patch_centers",
    "read_chart_file",
    "sample_patches",
]

CHART_ROWS = 4
CHART_COLS = 6
ACHROMATIC_INDICES = tuple(range(18, 24))

# The canonical rectified view, which synth also draws the chart on:
# 100x100-pixel patch cells, pixel centers at integers.  Sample squares of
# 31x31 rectified pixels stay well inside a cell.
CELL = 100
DEFAULT_RECT_SIZE = (CHART_COLS * CELL, CHART_ROWS * CELL)
_W, _H = DEFAULT_RECT_SIZE
CANONICAL_CORNERS = np.array(
    [[0, 0], [_W - 1, 0], [_W - 1, _H - 1], [0, _H - 1]], dtype=np.float64
)
CANONICAL_CORNERS.setflags(write=False)
DEFAULT_HALF_SIZE = 15


def _as_points(pts, n: int) -> np.ndarray:
    arr = np.asarray(pts, dtype=np.float64)
    if arr.shape != (n, 2):
        raise ValueError(f"expected {n} (x, y) points, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must be finite")
    return arr


def _check_no_collinear_triple(pts: np.ndarray) -> None:
    # Relative test: triangle area against the squared span of the points.
    span = float(np.ptp(pts, axis=0).max())
    if span == 0.0:
        raise ValueError("degenerate correspondence: coincident points")
    tol = 1e-12 * span * span
    idx = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for i, j, k in idx:
        a, b, c = pts[i], pts[j], pts[k]
        area2 = abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        if area2 <= tol:
            raise ValueError("degenerate correspondence: three points collinear")


def fit_homography(src, dst) -> np.ndarray:
    """Fit the 3x3 projective map sending the 4 src points onto the 4 dst points.

    Exactly four correspondences, so the 8 unknowns (H normalized with
    H[2][2] = 1) come from a direct 8x8 linear solve; no least squares.
    """
    src = _as_points(src, 4)
    dst = _as_points(dst, 4)
    _check_no_collinear_triple(src)
    _check_no_collinear_triple(dst)

    A = np.zeros((8, 8))
    b = np.zeros(8)
    for i, ((x, y), (u, v)) in enumerate(zip(src, dst)):
        A[2 * i] = [x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y]
        b[2 * i] = u
        A[2 * i + 1] = [0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y]
        b[2 * i + 1] = v
    try:
        h = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("degenerate correspondence: singular system") from exc
    H = np.array(
        [[h[0], h[1], h[2]], [h[3], h[4], h[5]], [h[6], h[7], 1.0]], dtype=np.float64
    )
    if np.linalg.det(H) == 0.0:
        raise ValueError("degenerate correspondence: singular homography")
    return H


def apply_homography(H, pts) -> np.ndarray:
    """Project (N, 2) points through H, as (N, 2)."""
    pts = np.asarray(pts, dtype=np.float64)
    hom = np.hstack([pts, np.ones((len(pts), 1))]) @ np.asarray(H, dtype=np.float64).T
    w = hom[:, 2]
    if np.any(w == 0.0):
        raise ValueError("point maps to infinity under homography")
    return hom[:, :2] / w[:, None]


def _bilinear_sample(data: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample (H, W, 3) data at float positions, clamped into [0, W-1]x[0, H-1].

    A point that rounding put an ulp past an edge reads the edge pixel.  The
    float64 weights widen integer counts exactly, so uint16 counts give the
    samples their float64 copy would.
    """
    h, w = data.shape[:2]
    xc = np.clip(xs, 0, w - 1)
    yc = np.clip(ys, 0, h - 1)
    x0 = np.floor(xc).astype(np.intp)
    y0 = np.floor(yc).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xc - x0)[..., None]
    fy = (yc - y0)[..., None]
    return (
        data[y0, x0] * (1.0 - fx) * (1.0 - fy)
        + data[y0, x1] * fx * (1.0 - fy)
        + data[y1, x0] * (1.0 - fx) * fy
        + data[y1, x1] * fx * fy
    )


def default_corner_patch_centers() -> np.ndarray:
    """Centers of patches 0, 5, 23 and 18: their cells' centers on the canonical view."""
    return CELL * np.array(
        [
            [0.5, 0.5],  # patch 0 (top-left)
            [CHART_COLS - 0.5, 0.5],  # patch 5 (top-right)
            [CHART_COLS - 0.5, CHART_ROWS - 0.5],  # patch 23
            [0.5, CHART_ROWS - 0.5],  # patch 18 (white)
        ]
    )


def patch_centers(corner_patch_centers, half_size: int = DEFAULT_HALF_SIZE) -> np.ndarray:
    """Replicate 4 corner-patch centers over the full 6x4 grid, as (24, 2).

    Inputs are the centers of patches 0, 5, 23 and 18 (in that order) in
    rectified coordinates; the center of patch (row r, col c) is the bilinear
    blend with weights (c/5, r/3).  Centers are row-major in patch order.
    """
    pts = _as_points(corner_patch_centers, 4)
    for i in range(4):
        for j in range(i + 1, 4):
            if np.all(pts[i] == pts[j]):
                raise ValueError("degenerate corner-patch centers (coincident)")
    p0, p5, p23, p18 = pts
    centers = np.zeros((CHART_ROWS * CHART_COLS, 2))
    for r in range(CHART_ROWS):
        v = r / (CHART_ROWS - 1)
        for c in range(CHART_COLS):
            u = c / (CHART_COLS - 1)
            top = (1.0 - u) * p0 + u * p5
            bottom = (1.0 - u) * p18 + u * p23
            centers[r * CHART_COLS + c] = (1.0 - v) * top + v * bottom
    if half_size < 0:
        raise ValueError("half_size must be >= 0")
    # No two sample squares may touch, so every pair of centers must be at
    # least 2*(half_size+1) apart along x or y (Chebyshev distance); on a
    # sheared grid the Euclidean distance overstates that gap.
    gaps = np.abs(centers[:, None] - centers[None]).max(-1)
    np.fill_diagonal(gaps, np.inf)
    if gaps.min() < 2.0 * (half_size + 1):
        raise ValueError("sample squares overlap adjacent patches")
    return centers


@dataclass(frozen=True, eq=False)
class ChartLayout:
    """Per-image chart annotation: source corners and the sample grid on the canonical view.

    Everything that does not depend on the frame is checked where the layout
    is made: the corners are finite, no three collinear, and a convex
    quadrilateral, and the sample grid is valid (:func:`patch_centers`), its
    24 centers snapped to rectified pixels and every square inside the view.
    The snapped centers are kept, read-only, as ``centers``.  Whether the
    corners fit a given frame is :meth:`check_in_frame`.
    """

    corners: np.ndarray  # (4, 2) source-pixel coordinates, TL TR BR BL
    corner_patch_centers: np.ndarray = field(default_factory=default_corner_patch_centers)
    half_size: int = DEFAULT_HALF_SIZE
    centers: np.ndarray = field(init=False, repr=False)  # (24, 2), snapped

    def __post_init__(self) -> None:
        corners = _as_points(self.corners, 4)
        _check_no_collinear_triple(corners)
        # Convexity: the same turn direction at every corner.
        edges = np.roll(corners, -1, axis=0) - corners
        following = np.roll(edges, -1, axis=0)
        turns = edges[:, 0] * following[:, 1] - edges[:, 1] * following[:, 0]
        if not (np.all(turns > 0) or np.all(turns < 0)):
            raise ValueError("chart corners must form a convex quadrilateral")
        cpc = _as_points(self.corner_patch_centers, 4)
        half = self.half_size
        centers = np.rint(patch_centers(cpc, half))
        if np.any(centers - half < 0) or np.any(centers + half > CANONICAL_CORNERS[2]):
            raise ValueError("sample square exceeds image bounds")
        checked = {"corners": corners, "corner_patch_centers": cpc, "centers": centers}
        for name, value in checked.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def check_in_frame(self, height: int, width: int) -> None:
        """Reject corners outside the pixel-center span of a height x width frame."""
        x, y = self.corners[:, 0], self.corners[:, 1]
        if np.any(x < 0) or np.any(x > width - 1) or np.any(y < 0) or np.any(y > height - 1):
            raise ValueError("chart corners must lie inside the image")


def sample_patches(data: np.ndarray, layout: ChartLayout) -> np.ndarray:
    """The closed sample square of every patch, as (24, (2h+1)**2, 3) RGB rows.

    Squares are laid out on the canonical rectified view
    (``DEFAULT_RECT_SIZE``) around the layout's patch centers, snapped to the
    nearest rectified pixel.  Only their own pixels are mapped through the
    rectified-view -> corners homography and sampled bilinearly from the
    (H, W, 3) source, so each square holds the values a full warp of the
    chart would hold there, in row-major order.  ``data`` may be raw uint16
    counts or float; the samples are float64.
    """
    layout.check_in_frame(*data.shape[:2])
    centers, half = layout.centers, layout.half_size
    side = np.arange(-half, half + 1, dtype=np.float64)
    us = centers[:, None, None, 0] + side[None, None, :]
    vs = centers[:, None, None, 1] + side[None, :, None]
    pts = np.stack(np.broadcast_arrays(us, vs), axis=-1).reshape(-1, 2)
    # Fitting the view's corners -> chart corners gives the view-to-source map directly.
    src = apply_homography(fit_homography(CANONICAL_CORNERS, layout.corners), pts)
    samples = _bilinear_sample(data, src[:, 0], src[:, 1])
    return samples.reshape(len(centers), side.size**2, 3)


def _parse_numbers(text: str, n: int, what: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != n:
        raise ValueError(f"malformed chart file: {what} needs {n} numbers")
    try:
        values = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"malformed chart file: bad number in {what}") from exc
    if not np.all(np.isfinite(values)):
        raise ValueError(f"malformed chart file: {what} must be finite")
    return values


def read_chart_file(path: str | Path) -> ChartLayout:
    """Parse a '.chart' annotation file.

    Line format (one key per line, each at most once, later lines optional;
    a missing line takes :class:`ChartLayout`'s default)::

        corners: x0 y0 x1 y1 x2 y2 x3 y3
        corner_patch_centers: u0 v0 u1 v1 u2 v2 u3 v3
        half_size: N
    """
    fields: dict = {}
    for raw_line in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise ValueError(f"malformed chart file: {line!r}")
        key = key.strip()
        if key in fields:
            raise ValueError(f"malformed chart file: repeated key {key!r}")
        if key in ("corners", "corner_patch_centers"):
            fields[key] = _parse_numbers(rest, 8, key).reshape(4, 2)
        elif key == "half_size":
            value = float(_parse_numbers(rest, 1, key)[0])
            if not value.is_integer():
                raise ValueError("malformed chart file: half_size must be an integer")
            fields[key] = int(value)
        else:
            raise ValueError(f"malformed chart file: unknown key {key!r}")
    if "corners" not in fields:
        raise ValueError("malformed chart file: missing corners")
    return ChartLayout(**fields)


def format_chart(layout: ChartLayout) -> str:
    """The '.chart' text of a layout, in the line format :func:`read_chart_file` parses."""
    return (
        f"corners: {' '.join(fmt9(v) for v in layout.corners.ravel())}\n"
        f"corner_patch_centers: {' '.join(fmt9(v) for v in layout.corner_patch_centers.ravel())}\n"
        f"half_size: {layout.half_size}\n"
    )
