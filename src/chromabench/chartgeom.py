"""Chart geometry: 4-point homography, perspective rectification, patch grid.

The 24-patch chart is handled in a canonical orientation: 4 rows x 6 columns,
patch indices 0..23 row-major from the top-left, achromatic row at the bottom
(white = 18 at bottom-left, black = 23 at bottom-right).  Corner coordinates
for each photographed chart come from a small text file (see
:func:`read_chart_file`), which replaces interactive corner clicking so that
batch runs are reproducible.

Coordinates are pixel-center based: an image of width W spans x in [0, W-1].
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import atomic_write_text, fmt9

__all__ = [
    "ACHROMATIC_INDICES",
    "BLACK_INDEX",
    "CHART_COLS",
    "CHART_ROWS",
    "ChartLayout",
    "DEFAULT_HALF_SIZE",
    "DEFAULT_RECT_SIZE",
    "PatchGrid",
    "WHITE_INDEX",
    "apply_homography",
    "default_corner_patch_centers",
    "fit_homography",
    "format_chart",
    "patch_centers",
    "read_chart_file",
    "rectify_chart",
    "sample_patch",
    "write_chart_file",
]

CHART_ROWS = 4
CHART_COLS = 6
ACHROMATIC_INDICES = tuple(range(18, 24))
WHITE_INDEX = 18
BLACK_INDEX = 23

# Rectified-view defaults: 100x100-pixel patch cells, sample squares of
# 31x31 rectified pixels stay well inside a cell.
DEFAULT_RECT_SIZE = (600, 400)
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
    """Project (N, 2) points through H. Returns (N, 2); a single point maps to (2,)."""
    H = np.asarray(H, dtype=np.float64)
    pts_in = np.asarray(pts, dtype=np.float64)
    single = pts_in.ndim == 1
    pts2 = np.atleast_2d(pts_in)
    ones = np.ones((pts2.shape[0], 1))
    hom = np.hstack([pts2, ones]) @ H.T
    w = hom[:, 2]
    if np.any(w == 0.0):
        raise ValueError("point maps to infinity under homography")
    out = hom[:, :2] / w[:, None]
    return out[0] if single else out


def _bilinear_sample(data: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample (H, W, 3) data at float positions; outside [0, W-1]x[0, H-1] -> 0."""
    h, w = data.shape[:2]
    inside = (xs >= 0) & (xs <= w - 1) & (ys >= 0) & (ys <= h - 1)
    xc = np.clip(xs, 0, w - 1)
    yc = np.clip(ys, 0, h - 1)
    x0 = np.floor(xc).astype(np.intp)
    y0 = np.floor(yc).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xc - x0)[..., None]
    fy = (yc - y0)[..., None]
    out = (
        data[y0, x0] * (1.0 - fx) * (1.0 - fy)
        + data[y0, x1] * fx * (1.0 - fy)
        + data[y1, x0] * (1.0 - fx) * fy
        + data[y1, x1] * fx * fy
    )
    out[~inside] = 0.0
    return out


def _validate_corners(corners: np.ndarray, width: int, height: int) -> None:
    _check_no_collinear_triple(corners)
    # Convexity: consistent turn direction around the quadrilateral.
    cross = []
    for i in range(4):
        a = corners[i]
        b = corners[(i + 1) % 4]
        c = corners[(i + 2) % 4]
        cross.append(
            (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        )
    cross_arr = np.asarray(cross)
    if not (np.all(cross_arr > 0) or np.all(cross_arr < 0)):
        raise ValueError("chart corners must form a convex quadrilateral")
    if (
        np.any(corners[:, 0] < 0)
        or np.any(corners[:, 0] > width - 1)
        or np.any(corners[:, 1] < 0)
        or np.any(corners[:, 1] > height - 1)
    ):
        raise ValueError("chart corners must lie inside the image")


def rectify_chart(
    data: np.ndarray,
    corners,
    out_w: int = DEFAULT_RECT_SIZE[0],
    out_h: int = DEFAULT_RECT_SIZE[1],
) -> np.ndarray:
    """Warp the chart quadrilateral of (H, W, 3) data to an (out_h, out_w, 3) view.

    The corners (top-left, top-right, bottom-right, bottom-left in canonical
    chart orientation) are mapped to the output rectangle corners; every
    output pixel is a bilinear sample of the source, zero outside the source.
    """
    if out_w < CHART_COLS or out_h < CHART_ROWS:
        raise ValueError("output size too small for the patch grid")
    corners = _as_points(corners, 4)
    _validate_corners(corners, data.shape[1], data.shape[0])
    rect = np.array(
        [[0, 0], [out_w - 1, 0], [out_w - 1, out_h - 1], [0, out_h - 1]],
        dtype=np.float64,
    )
    # Fitting rect -> corners gives the output-to-source map directly
    # (the inverse of the source-to-rect homography).
    H = fit_homography(rect, corners)
    us, vs = np.meshgrid(np.arange(out_w), np.arange(out_h))
    pts = np.stack([us.ravel(), vs.ravel()], axis=1).astype(np.float64)
    src = apply_homography(H, pts)
    return _bilinear_sample(data, src[:, 0], src[:, 1]).reshape(out_h, out_w, 3)


def default_corner_patch_centers() -> np.ndarray:
    """Centers of patches 0, 5, 23 and 18 on the canonical rectified grid."""
    cw = DEFAULT_RECT_SIZE[0] / CHART_COLS
    ch = DEFAULT_RECT_SIZE[1] / CHART_ROWS
    return np.array(
        [
            [0.5 * cw, 0.5 * ch],  # patch 0 (top-left)
            [(CHART_COLS - 0.5) * cw, 0.5 * ch],  # patch 5 (top-right)
            [(CHART_COLS - 0.5) * cw, (CHART_ROWS - 0.5) * ch],  # patch 23
            [0.5 * cw, (CHART_ROWS - 0.5) * ch],  # patch 18 (white)
        ]
    )


@dataclass(frozen=True, eq=False)
class PatchGrid:
    """24 sample-square centers (row-major patch order) in rectified pixels."""

    centers: np.ndarray  # (24, 2)
    half_size: int

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.shape != (CHART_ROWS * CHART_COLS, 2):
            raise ValueError("patch grid needs 24 centers")
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        if self.half_size < 0:
            raise ValueError("half_size must be >= 0")


def patch_centers(corner_patch_centers, half_size: int = DEFAULT_HALF_SIZE) -> PatchGrid:
    """Replicate 4 corner-patch centers over the full 6x4 grid.

    Inputs are the centers of patches 0, 5, 23 and 18 (in that order) in
    rectified coordinates; the center of patch (row r, col c) is the bilinear
    blend with weights (c/5, r/3).
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
    grid = PatchGrid(centers, half_size)
    # Neighbouring sample squares must not touch: grid spacing below
    # 2*(half_size+1) means the squares bleed into adjacent patches.
    min_gap = 2.0 * (half_size + 1)
    for r in range(CHART_ROWS):
        for c in range(CHART_COLS):
            here = centers[r * CHART_COLS + c]
            if c + 1 < CHART_COLS:
                right = centers[r * CHART_COLS + c + 1]
                if np.linalg.norm(right - here) < min_gap:
                    raise ValueError("sample squares overlap adjacent patches")
            if r + 1 < CHART_ROWS:
                below = centers[(r + 1) * CHART_COLS + c]
                if np.linalg.norm(below - here) < min_gap:
                    raise ValueError("sample squares overlap adjacent patches")
    return grid


def sample_patch(data: np.ndarray, center, half_size: int) -> np.ndarray:
    """All pixels of the closed square around a patch center, as (N, 3) RGB rows.

    Fractional centers are snapped to the nearest pixel so the sample always
    holds exactly (2*half_size + 1)**2 pixels, in row-major order.
    """
    if half_size < 0:
        raise ValueError("half_size must be >= 0")
    cx, cy = np.asarray(center, dtype=np.float64)
    ix = int(round(float(cx)))
    iy = int(round(float(cy)))
    x0, x1 = ix - half_size, ix + half_size
    y0, y1 = iy - half_size, iy + half_size
    if x0 < 0 or y0 < 0 or x1 >= data.shape[1] or y1 >= data.shape[0]:
        raise ValueError("sample square exceeds image bounds")
    block = data[y0 : y1 + 1, x0 : x1 + 1]
    return block.reshape(-1, 3).copy()


@dataclass(frozen=True, eq=False)
class ChartLayout:
    """Per-image chart annotation: source corners plus optional grid overrides."""

    corners: np.ndarray  # (4, 2) source-pixel coordinates, TL TR BR BL
    corner_patch_centers: np.ndarray | None = None  # (4, 2) rectified coords
    half_size: int | None = None

    def __post_init__(self) -> None:
        corners = _as_points(self.corners, 4)
        corners.setflags(write=False)
        object.__setattr__(self, "corners", corners)
        if self.corner_patch_centers is not None:
            cpc = _as_points(self.corner_patch_centers, 4)
            cpc.setflags(write=False)
            object.__setattr__(self, "corner_patch_centers", cpc)

    def grid(self) -> PatchGrid:
        """Patch grid for this chart, falling back to canonical defaults."""
        cpc = self.corner_patch_centers
        if cpc is None:
            cpc = default_corner_patch_centers()
        half = self.half_size if self.half_size is not None else DEFAULT_HALF_SIZE
        return patch_centers(cpc, half)


def _parse_numbers(text: str, n: int, what: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != n:
        raise ValueError(f"malformed chart file: {what} needs {n} numbers")
    try:
        return np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"malformed chart file: bad number in {what}") from exc


def read_chart_file(path: str | Path) -> ChartLayout:
    """Parse a '.chart' annotation file.

    Line format (one key per line, later lines optional)::

        corners: x0 y0 x1 y1 x2 y2 x3 y3
        corner_patch_centers: u0 v0 u1 v1 u2 v2 u3 v3
        half_size: N
    """
    corners = None
    cpc = None
    half = None
    for raw_line in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise ValueError(f"malformed chart file: {line!r}")
        key = key.strip()
        if key == "corners":
            corners = _parse_numbers(rest, 8, "corners").reshape(4, 2)
        elif key == "corner_patch_centers":
            cpc = _parse_numbers(rest, 8, "corner_patch_centers").reshape(4, 2)
        elif key == "half_size":
            value = float(_parse_numbers(rest, 1, "half_size")[0])
            if not value.is_integer():
                raise ValueError("malformed chart file: half_size must be an integer")
            half = int(value)
        else:
            raise ValueError(f"malformed chart file: unknown key {key!r}")
    if corners is None:
        raise ValueError("malformed chart file: missing corners")
    return ChartLayout(corners, cpc, half)


def format_chart(layout: ChartLayout) -> str:
    """The '.chart' text of a layout, in the line format :func:`read_chart_file` parses."""
    lines = ["corners: " + " ".join(fmt9(v) for v in layout.corners.ravel())]
    if layout.corner_patch_centers is not None:
        lines.append(
            "corner_patch_centers: "
            + " ".join(fmt9(v) for v in layout.corner_patch_centers.ravel())
        )
    if layout.half_size is not None:
        lines.append(f"half_size: {layout.half_size}")
    return "\n".join(lines) + "\n"


def write_chart_file(layout: ChartLayout, path: str | Path) -> None:
    atomic_write_text(path, format_chart(layout))
