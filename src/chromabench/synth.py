"""Synthetic chart scenes with known illuminants, for end-to-end verification.

The renderer makes the ground-truth definition literally true by
construction: sensor response = illuminant x reflectance x exposure, plus an
optional dark offset and Gaussian noise, quantized to integer digital counts
and clipped to the sensor range.  A 24-patch chart (achromatic bottom row,
white at bottom-left) is placed in the frame under an arbitrary projective
pose, and the matching corner annotation and camera sidecar content are
emitted so rendered scenes feed straight back into the extraction pipeline.

Reflectance defaults are invented flat-spectrum values for a synthetic chart,
not measurements of any physical target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._util import atomic_write_text, real, real_array, whole
from .chartgeom import (
    ACHROMATIC_INDICES,
    CANONICAL_CORNERS,
    CELL,
    CHART_COLS,
    CHART_ROWS,
    DEFAULT_RECT_SIZE,
    ChartLayout,
    apply_homography,
    fit_homography,
    format_chart,
)
from .imagecore import CameraProfile, save_image

__all__ = [
    "CHART_H",
    "CHART_W",
    "DEFAULT_REFLECTANCES",
    "RenderedScene",
    "SceneSpec",
    "WHITE_REFLECTANCE",
    "check_image_id",
    "default_pose",
    "pose_from_corners",
    "random_pose",
    "render",
    "write_reversal_corpus",
    "write_scene",
]

# The chart is drawn on chartgeom's canonical view, CELL-pixel cells with
# pixel centers at integers, and placed in the frame by a pose.
CHART_W, CHART_H = DEFAULT_RECT_SIZE

# Rows 0-2: chromatic patches (synthetic colors). Row 3: achromatic ramp,
# white -> black, strictly decreasing, equal across channels.
DEFAULT_REFLECTANCES = np.array(
    [
        [0.45, 0.32, 0.27],
        [0.77, 0.58, 0.50],
        [0.37, 0.48, 0.61],
        [0.35, 0.42, 0.26],
        [0.52, 0.50, 0.69],
        [0.40, 0.74, 0.67],
        [0.84, 0.49, 0.17],
        [0.29, 0.36, 0.64],
        [0.76, 0.35, 0.39],
        [0.36, 0.24, 0.42],
        [0.62, 0.73, 0.25],
        [0.88, 0.63, 0.18],
        [0.22, 0.24, 0.59],
        [0.29, 0.58, 0.27],
        [0.69, 0.19, 0.23],
        [0.91, 0.78, 0.12],
        [0.73, 0.33, 0.58],
        [0.13, 0.53, 0.66],
        [0.90, 0.90, 0.90],
        [0.59, 0.59, 0.59],
        [0.36, 0.36, 0.36],
        [0.20, 0.20, 0.20],
        [0.09, 0.09, 0.09],
        [0.03, 0.03, 0.03],
    ]
)
WHITE_REFLECTANCE = float(DEFAULT_REFLECTANCES[ACHROMATIC_INDICES[0]][0])

# Rows per in-place finishing pass in render; bounds its noise temporary.
_STRIPE_ROWS = 64


def pose_from_corners(corners) -> np.ndarray:
    """Homography placing the canonical chart onto the given image corners."""
    return fit_homography(CANONICAL_CORNERS, corners)


def default_pose(width: int, height: int, scale: float = 0.5) -> np.ndarray:
    """Axis-aligned centered placement at the given scale."""
    w = (CHART_W - 1) * scale
    h = (CHART_H - 1) * scale
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    corners = np.array(
        [
            [cx - w / 2, cy - h / 2],
            [cx + w / 2, cy - h / 2],
            [cx + w / 2, cy + h / 2],
            [cx - w / 2, cy + h / 2],
        ]
    )
    return pose_from_corners(corners)


def random_pose(
    rng: np.random.Generator,
    width: int = 640,
    height: int = 480,
    scale_range: tuple[float, float] = (0.45, 0.60),
    max_rot_deg: float = 12.0,
    jitter: float = 8.0,
) -> np.ndarray:
    """Mildly projective pose: scaled/rotated chart with jittered corners."""
    s = rng.uniform(*scale_range)
    theta = math.radians(rng.uniform(-max_rot_deg, max_rot_deg))
    w = (CHART_W - 1) * s
    h = (CHART_H - 1) * s
    base = np.array([[-w / 2, -h / 2], [w / 2, -h / 2], [w / 2, h / 2], [-w / 2, h / 2]])
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    center = np.array([(width - 1) / 2.0, (height - 1) / 2.0])
    corners = base @ rot.T + center + rng.uniform(-jitter, jitter, size=(4, 2))
    return pose_from_corners(corners)


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """Everything needed to render one scene deterministically, every field checked here:
    arrays kept as read-only float64 copies, the camera fields as given, in ``camera``."""

    illuminant: tuple[float, float, float] = (1.0, 1.0, 1.0)
    pose: np.ndarray | None = None  # canonical chart -> image; None = centered
    width: int = 640
    height: int = 480
    exposure: float = 2000.0
    reflectance_table: np.ndarray = field(default_factory=lambda: DEFAULT_REFLECTANCES)
    background: np.ndarray | tuple[float, float, float] = (0.35, 0.35, 0.35)
    black_level: float = 0.0
    noise_sigma: float = 0.0
    bit_depth: int = 12
    clip_level: float | None = None  # None = 2**bit_depth - 1
    rng_seed: int = 0
    camera_id: str = "synthcam"
    saturation_level: float = 3300.0
    camera: CameraProfile = field(init=False, repr=False)

    def __post_init__(self) -> None:
        width, height = whole(self.width, "width", 8), whole(self.height, "height", 8)
        profile = (self.camera_id, self.black_level, self.saturation_level, self.bit_depth)
        camera = CameraProfile(*profile)
        top, clip = 2**camera.bit_depth - 1, self.clip_level
        coerced = {
            "illuminant": tuple(real_array(self.illuminant, "illuminant", (3,), gt=0).tolist()),
            "width": width, "height": height, "camera": camera,
            "exposure": real(self.exposure, "exposure", gt=0),
            "noise_sigma": real(self.noise_sigma, "noise_sigma", ge=0),
            "rng_seed": whole(self.rng_seed, "rng_seed", 0),
            "reflectance_table": real_array(
                self.reflectance_table, "reflectance_table", DEFAULT_REFLECTANCES.shape, ge=0, le=1
            ),
            "pose": None if self.pose is None else real_array(self.pose, "pose", (3, 3)),
            "background": real_array(
                self.background, "background", (3,), (height, width, 3), ge=0, le=1
            ),
            "clip_level": float(top) if clip is None else real(clip, "clip_level", gt=0, le=top),
        }
        achromatic = coerced["reflectance_table"][list(ACHROMATIC_INDICES)]
        if not np.all(achromatic[:, 0:1] == achromatic):
            raise ValueError("achromatic-row reflectances must be gray (R=G=B)")
        if not np.all(np.diff(achromatic[:, 0]) < 0):
            raise ValueError("achromatic-row reflectances must strictly decrease")
        for name, value in coerced.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class RenderedScene:
    """Rendered uint16 counts with their sidecar content, known illuminant and chart file."""

    counts: np.ndarray
    camera: CameraProfile
    true_illuminant: tuple[float, float, float]
    chart_text: str


def _footprint_box(pose: np.ndarray, height: int, width: int) -> tuple[int, int, int, int]:
    """Row and column bounds (y0, y1, x0, x1) of the pixels that can show the chart.

    A pixel shows the chart when its inverse image lies in the canonical
    rectangle [0, CHART_W] x [0, CHART_H].  With every corner of that
    rectangle on one side of the pose's horizon, the rectangle maps onto the
    convex quad of its corners' images, so the quad's bounding box, padded by
    a pixel against rounding, holds every such pixel.  Otherwise the box is
    the whole frame.
    """
    rect = np.array(
        [[0, 0, 1], [CHART_W, 0, 1], [CHART_W, CHART_H, 1], [0, CHART_H, 1]],
        dtype=np.float64,
    )
    hom = rect @ pose.T
    w = hom[:, 2]
    if not (np.all(w > 0) or np.all(w < 0)):
        return 0, height, 0, width
    x, y = hom[:, 0] / w, hom[:, 1] / w
    return (
        int(max(np.floor(y.min()) - 1, 0)),
        int(min(np.ceil(y.max()) + 2, height)),
        int(max(np.floor(x.min()) - 1, 0)),
        int(min(np.ceil(x.max()) + 2, width)),
    )


def render(spec: SceneSpec) -> RenderedScene:
    """Render a chart scene to uint16 digital counts, deterministically.

    Per channel: count = clip(round(illuminant * reflectance * exposure
    + black_level + noise), 0, clip_level).  The clip level is at most
    2**bit_depth - 1, so the whole counts convert to uint16 exactly.

    Only the chart's footprint box is mapped through the inverse pose; the
    float64 work frame is then finished in place, _STRIPE_ROWS rows at a
    time, with the noise drawn stripe by stripe from one generator, and
    converted to uint16 once, at the end.  So the work frame is the one
    float64 frame-size array, and the counts equal the whole-frame
    formula's bit for bit.
    """
    pose = spec.pose if spec.pose is not None else default_pose(spec.width, spec.height)
    layout = ChartLayout(apply_homography(pose, CANONICAL_CORNERS))
    layout.check_in_frame(spec.height, spec.width)

    counts = np.empty((spec.height, spec.width, 3))
    counts[...] = spec.background

    y0, y1, x0, x1 = _footprint_box(pose, spec.height, spec.width)
    xs, ys = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1))
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
    q = apply_homography(np.linalg.inv(pose), pts)
    qx = q[:, 0].reshape(y1 - y0, x1 - x0)
    qy = q[:, 1].reshape(y1 - y0, x1 - x0)
    inside = (qx >= 0) & (qx < CHART_W) & (qy >= 0) & (qy < CHART_H)
    col = np.clip(np.floor(qx / CELL).astype(int), 0, CHART_COLS - 1)
    row = np.clip(np.floor(qy / CELL).astype(int), 0, CHART_ROWS - 1)
    patch_idx = row * CHART_COLS + col
    counts[y0:y1, x0:x1][inside] = spec.reflectance_table[patch_idx[inside]]

    illum = np.asarray(spec.illuminant)
    rng = np.random.default_rng(spec.rng_seed) if spec.noise_sigma > 0 else None
    for start in range(0, spec.height, _STRIPE_ROWS):
        stripe = counts[start : start + _STRIPE_ROWS]
        stripe *= illum
        stripe *= spec.exposure
        stripe += spec.black_level
        if rng is not None:
            stripe += rng.normal(0.0, spec.noise_sigma, size=stripe.shape)
        np.rint(stripe, out=stripe)
        np.clip(stripe, 0.0, spec.clip_level, out=stripe)

    return RenderedScene(
        counts=counts.astype(np.uint16),
        camera=spec.camera,
        true_illuminant=spec.illuminant,
        chart_text=format_chart(layout),
    )


def check_image_id(image_id: str) -> None:
    """Reject an ``image_id`` that is not a plain file name.

    A plain name keeps a scene's files in its output directory.  :func:`write_scene`
    and the ``synth`` command check it, the command before it renders anything.
    """
    if image_id in ("", ".", "..") or "/" in image_id or "\\" in image_id:
        raise ValueError(f"image_id must be a plain file name, got {image_id!r}")


def write_scene(scene: RenderedScene, out_dir: str | Path, image_id: str) -> Path:
    """Write <id>.ppm, <id>.meta.json and <id>.chart; returns the image path.

    ``image_id`` must pass :func:`check_image_id`.
    """
    check_image_id(image_id)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    image_path = out_dir / f"{image_id}.ppm"
    save_image(scene.counts, scene.camera, image_path)
    atomic_write_text(out_dir / f"{image_id}.chart", scene.chart_text)
    return image_path


def write_reversal_corpus(
    out_dir: str | Path, rng: np.random.Generator, count: int
) -> dict[str, np.ndarray]:
    """Scenes engineered so estimator rankings flip between GT conventions.

    The background mean is aligned with the true illuminant (grey-world wins
    against the subtracted ground truth) while a bright highlight square is
    aimed at the direction of the unsubtracted ground truth (white-patch wins
    against that one).  Returns image_id -> unit true illuminant.
    """
    width, height = 640, 480
    truths: dict[str, np.ndarray] = {}
    for i in range(count):
        v = np.array(
            [rng.integers(850, 950), rng.integers(540, 620), rng.integers(290, 350)],
            dtype=np.float64,
        )
        truth = v / np.linalg.norm(v)
        exposure = float(np.linalg.norm(v)) / WHITE_REFLECTANCE
        shifted = v + 129.0
        aim = shifted / shifted.max()
        # Highlight intensity: above the background's per-channel maximum but
        # within reflectance <= 1 and clear of the saturation threshold.
        limit = ((v / WHITE_REFLECTANCE) / aim).min()
        floor = ((0.5 * v / WHITE_REFLECTANCE) / aim).max()
        assert floor < limit
        intensity = 0.5 * (floor + limit)
        background = rng.uniform(0.1, 0.5, size=(height, width, 3))
        background += 0.3 - background.mean(axis=(0, 1))
        background[20:50, 20:50, :] = intensity * aim * WHITE_REFLECTANCE / v
        spec = SceneSpec(
            illuminant=tuple(truth),
            pose=random_pose(rng, width, height, scale_range=(0.45, 0.55), jitter=6.0),
            width=width,
            height=height,
            exposure=exposure,
            background=background,
            black_level=129.0,
            rng_seed=int(rng.integers(0, 2**31)),
        )
        image_id = f"rev{i:03d}"
        write_scene(render(spec), out_dir, image_id)
        truths[image_id] = truth
    return truths
