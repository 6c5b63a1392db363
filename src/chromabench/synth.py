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

from ._util import atomic_write_text
from .chartgeom import (
    CHART_COLS,
    CHART_ROWS,
    DEFAULT_HALF_SIZE,
    DEFAULT_RECT_SIZE,
    ChartLayout,
    apply_homography,
    default_corner_patch_centers,
    fit_homography,
    format_chart,
)
from .imagecore import CameraProfile, LinearImage, save_image

__all__ = [
    "CANONICAL_CORNERS",
    "CHART_H",
    "CHART_W",
    "DEFAULT_REFLECTANCES",
    "RenderedScene",
    "SceneSpec",
    "WHITE_REFLECTANCE",
    "default_pose",
    "make_grayworld_scene",
    "pose_from_corners",
    "random_pose",
    "render",
    "write_reversal_corpus",
    "write_scene",
]

# Canonical chart raster: the rectified view itself (100x100-pixel cells),
# pixel centers at integers.
CHART_W, CHART_H = DEFAULT_RECT_SIZE
CELL = CHART_W // CHART_COLS
CANONICAL_CORNERS = np.array(
    [[0, 0], [CHART_W - 1, 0], [CHART_W - 1, CHART_H - 1], [0, CHART_H - 1]],
    dtype=np.float64,
)

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
WHITE_REFLECTANCE = float(DEFAULT_REFLECTANCES[18][0])


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
    """Everything needed to render one scene deterministically."""

    illuminant: tuple[float, float, float] = (1.0, 1.0, 1.0)
    pose: np.ndarray | None = None  # canonical chart -> image; None = centered
    width: int = 640
    height: int = 480
    exposure: float = 2000.0
    reflectance_table: np.ndarray = field(
        default_factory=lambda: DEFAULT_REFLECTANCES.copy()
    )
    background: np.ndarray | tuple[float, float, float] = (0.35, 0.35, 0.35)
    black_level: float = 0.0
    noise_sigma: float = 0.0
    bit_depth: int = 12
    clip_level: float | None = None  # None = 2**bit_depth - 1
    rng_seed: int = 0
    camera_id: str = "synthcam"
    saturation_level: float = 3300.0

    def __post_init__(self) -> None:
        illum = tuple(float(v) for v in self.illuminant)
        if len(illum) != 3 or any(v <= 0 for v in illum):
            raise ValueError("illuminant must be positive in every channel")
        object.__setattr__(self, "illuminant", illum)
        if self.width < 8 or self.height < 8:
            raise ValueError("image too small")
        if self.exposure <= 0:
            raise ValueError("exposure must be > 0")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.black_level < 0:
            raise ValueError("black_level must be >= 0")
        table = np.asarray(self.reflectance_table, dtype=np.float64)
        if table.shape != (CHART_ROWS * CHART_COLS, 3):
            raise ValueError("reflectance_table must be 24 RGB triples")
        if np.any(table < 0) or np.any(table > 1):
            raise ValueError("reflectances must lie in [0, 1]")
        achromatic = table[18:24]
        if not np.all(achromatic[:, 0:1] == achromatic):
            raise ValueError("achromatic-row reflectances must be gray (R=G=B)")
        if not np.all(np.diff(achromatic[:, 0]) < 0):
            raise ValueError("achromatic-row reflectances must strictly decrease")
        table.setflags(write=False)
        object.__setattr__(self, "reflectance_table", table)
        if self.pose is not None:
            pose = np.asarray(self.pose, dtype=np.float64)
            if pose.shape != (3, 3):
                raise ValueError("pose must be a 3x3 matrix")
            pose.setflags(write=False)
            object.__setattr__(self, "pose", pose)
        bg = np.asarray(self.background, dtype=np.float64)
        if bg.shape not in ((3,), (self.height, self.width, 3)):
            raise ValueError(
                "background must be an RGB triple or a (height, width, 3) field"
            )
        if np.any(bg < 0) or np.any(bg > 1):
            raise ValueError("background reflectance must lie in [0, 1]")
        bg.setflags(write=False)
        object.__setattr__(self, "background", bg)
        clip = self.clip_level
        if clip is None:
            clip = float(2 ** self.bit_depth - 1)
        if not 0 < clip <= 2 ** self.bit_depth - 1:
            raise ValueError("clip_level must be in (0, 2**bit_depth - 1]")
        object.__setattr__(self, "clip_level", float(clip))


@dataclass(frozen=True, eq=False)
class RenderedScene:
    """A rendered image with its known illuminant and companion-file content."""

    image: LinearImage
    true_illuminant: tuple[float, float, float]
    chart_text: str | None
    camera: CameraProfile


def render(spec: SceneSpec) -> RenderedScene:
    """Render a chart scene to integer digital counts, deterministically.

    Per channel: count = clip(round(illuminant * reflectance * exposure
    + black_level + noise), 0, clip_level).  Rounding to whole counts keeps
    rendered scenes exactly representable in the 16-bit image format.
    """
    pose = spec.pose if spec.pose is not None else default_pose(spec.width, spec.height)
    corners = apply_homography(pose, CANONICAL_CORNERS)
    if (
        np.any(corners[:, 0] < 0)
        or np.any(corners[:, 0] > spec.width - 1)
        or np.any(corners[:, 1] < 0)
        or np.any(corners[:, 1] > spec.height - 1)
    ):
        raise ValueError("chart pose places the chart outside the image")

    if spec.background.shape == (3,):
        reflectance = np.broadcast_to(
            spec.background, (spec.height, spec.width, 3)
        ).copy()
    else:
        reflectance = spec.background.copy()

    xs, ys = np.meshgrid(np.arange(spec.width), np.arange(spec.height))
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
    inv = np.linalg.inv(pose)
    q = apply_homography(inv, pts)
    qx = q[:, 0].reshape(spec.height, spec.width)
    qy = q[:, 1].reshape(spec.height, spec.width)
    inside = (qx >= 0) & (qx < CHART_W) & (qy >= 0) & (qy < CHART_H)
    col = np.clip(np.floor(qx / CELL).astype(int), 0, CHART_COLS - 1)
    row = np.clip(np.floor(qy / CELL).astype(int), 0, CHART_ROWS - 1)
    patch_idx = row * CHART_COLS + col
    reflectance[inside] = spec.reflectance_table[patch_idx[inside]]

    illum = np.asarray(spec.illuminant)
    linear = illum[None, None, :] * reflectance * spec.exposure
    signal = linear + spec.black_level
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.rng_seed)
        signal = signal + rng.normal(0.0, spec.noise_sigma, size=signal.shape)
    counts = np.clip(np.rint(signal), 0.0, spec.clip_level)

    camera = CameraProfile(
        camera_id=spec.camera_id,
        black_level=spec.black_level,
        saturation_level=spec.saturation_level,
    )
    image = LinearImage(counts, bit_depth=spec.bit_depth, camera=camera)
    return RenderedScene(
        image=image,
        true_illuminant=spec.illuminant,
        chart_text=format_chart(
            ChartLayout(corners, default_corner_patch_centers(), DEFAULT_HALF_SIZE)
        ),
        camera=camera,
    )


def make_grayworld_scene(
    illuminant,
    size: tuple[int, int] = (64, 64),
    rng_seed: int = 0,
    exposure: float = 1000.0,
) -> RenderedScene:
    """Chartless scene whose spatial mean reflectance is exactly neutral.

    Reflectances are drawn i.i.d. then shifted per channel so the mean is
    equal across channels, which makes the image mean parallel to the
    illuminant; the grey-world estimator must recover it almost exactly.
    Values are left unquantized, so these scenes are in-memory oracles rather
    than serializable corpora.
    """
    illum = np.asarray(illuminant, dtype=np.float64)
    if illum.shape != (3,) or np.any(illum <= 0):
        raise ValueError("illuminant must be positive in every channel")
    width, height = size
    rng = np.random.default_rng(rng_seed)
    reflectance = rng.uniform(0.2, 0.8, size=(height, width, 3))
    reflectance += 0.5 - reflectance.mean(axis=(0, 1))
    data = illum[None, None, :] * reflectance * exposure
    camera = CameraProfile(camera_id="synthcam", black_level=0.0)
    image = LinearImage(data, bit_depth=12, camera=camera)
    return RenderedScene(
        image=image,
        true_illuminant=(float(illum[0]), float(illum[1]), float(illum[2])),
        chart_text=None,
        camera=camera,
    )


def write_scene(scene: RenderedScene, out_dir: str | Path, image_id: str) -> Path:
    """Write <id>.ppm, <id>.meta.json and <id>.chart; returns the image path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    image_path = out_dir / f"{image_id}.ppm"
    save_image(scene.image, image_path)
    if scene.chart_text is not None:
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
