"""Linear image data model, 16-bit binary PPM I/O, and black-level arithmetic.

Images are stored as (H, W, 3) float64 arrays of nonnegative digital counts in
R, G, B order.  Sources are integer sensor counts, but everything downstream
(warping, smoothing, Minkowski pooling) needs real arithmetic, so the arrays
are double precision from the start.  A :class:`LinearImage` is validated and
frozen where counts enter (``load_image``, ``synth.render``,
``subtract_black_level``); the stages below it take and return plain arrays.

On-disk format: binary PPM ("P6", maxval 65535, big-endian 16-bit samples,
linear values) plus a JSON sidecar ``<basename>.meta.json`` carrying
``camera_id``, ``black_level``, ``bit_depth`` and ``saturation_level``.
Unknown sidecar fields are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import atomic_write_bytes, atomic_write_text

__all__ = [
    "CameraProfile",
    "LinearImage",
    "clipped",
    "load_image",
    "normalize_estimate",
    "save_image",
    "sidecar_path",
    "subtract_black_level",
]


@dataclass(frozen=True)
class CameraProfile:
    """Per-camera metadata: dark offset and linear-range ceiling, in counts.

    The black level is a single scalar applied to all three channels.
    """

    camera_id: str
    black_level: float = 0.0
    saturation_level: float = 3300.0

    def __post_init__(self) -> None:
        if self.black_level < 0:
            raise ValueError("black_level must be >= 0")
        if not self.saturation_level > self.black_level:
            raise ValueError("saturation_level must exceed black_level")


@dataclass(frozen=True, eq=False)
class LinearImage:
    """Demosaiced linear image: (H, W, 3) nonnegative float64 digital counts."""

    data: np.ndarray
    bit_depth: int = 12
    camera: CameraProfile | None = None

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if data.ndim != 3 or data.shape[2] != 3:
            raise ValueError("image data must have shape (H, W, 3)")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("image must be at least 1x1")
        if not np.all(np.isfinite(data)):
            raise ValueError("image contains non-finite values")
        if np.any(data < 0):
            raise ValueError("image contains negative digital counts")
        if self.bit_depth < 1:
            raise ValueError("bit_depth must be >= 1")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def sidecar_path(image_path: str | Path) -> Path:
    """Metadata companion of an image file: same basename, '.meta.json'."""
    p = Path(image_path)
    return p.with_name(p.stem + ".meta.json")


def _parse_ppm_header(raw: bytes) -> tuple[int, int, int, int]:
    """Return (width, height, maxval, data_offset); accepts '#' comments."""
    if raw[:2] != b"P6":
        raise ValueError("malformed header: not a binary 'P6' PPM")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(raw) and raw[pos : pos + 1].isdigit():
            pos += 1
        if pos == start:
            raise ValueError("malformed header: expected integer field")
        fields.append(int(raw[start:pos]))
    if pos >= len(raw) or not raw[pos : pos + 1].isspace():
        raise ValueError("malformed header: missing whitespace before samples")
    pos += 1
    width, height, maxval = fields
    return width, height, maxval, pos


def load_image(path: str | Path) -> LinearImage:
    """Read a 16-bit binary PPM and its metadata sidecar.

    Raises if the header is malformed, if any sample exceeds the sidecar's
    bit depth, or if the sidecar is missing.
    """
    path = Path(path)
    meta_file = sidecar_path(path)
    if not meta_file.exists():
        raise FileNotFoundError(f"missing sidecar: {meta_file}")
    meta = json.loads(meta_file.read_text(encoding="utf-8"))
    bit_depth = int(meta.get("bit_depth", 12))
    camera = CameraProfile(
        camera_id=str(meta.get("camera_id", "unknown")),
        black_level=float(meta.get("black_level", 0.0)),
        saturation_level=float(meta.get("saturation_level", 3300.0)),
    )

    raw = path.read_bytes()
    width, height, maxval, offset = _parse_ppm_header(raw)
    if width < 1 or height < 1:
        raise ValueError("malformed header: empty image")
    if maxval != 65535:
        raise ValueError(f"malformed header: maxval must be 65535, got {maxval}")
    count = width * height * 3
    if len(raw) - offset < count * 2:
        raise ValueError("malformed file: truncated sample data")
    samples = np.frombuffer(raw, dtype=">u2", count=count, offset=offset)
    data = samples.reshape(height, width, 3).astype(np.float64)
    limit = 2 ** bit_depth - 1
    if data.max(initial=0.0) > limit:
        raise ValueError(
            f"value exceeds bit depth: {int(data.max())} > {limit} ({bit_depth}-bit)"
        )
    return LinearImage(data, bit_depth=bit_depth, camera=camera)


def save_image(img: LinearImage, path: str | Path) -> None:
    """Write image + sidecar. Samples must be integer-valued counts <= 65535."""
    path = Path(path)
    data = img.data
    if np.any(data != np.floor(data)):
        raise ValueError("non-integer sample values; PPM stores integer counts")
    if data.max(initial=0.0) > 65535:
        raise ValueError("sample value exceeds 16-bit PPM range")
    header = f"P6\n{img.width} {img.height}\n65535\n".encode("ascii")
    payload = header + data.astype(">u2").tobytes()
    atomic_write_bytes(path, payload)

    cam = img.camera or CameraProfile("unknown")
    meta = {
        "camera_id": cam.camera_id,
        "black_level": cam.black_level,
        "bit_depth": img.bit_depth,
        "saturation_level": cam.saturation_level,
    }
    atomic_write_text(sidecar_path(path), json.dumps(meta, indent=2) + "\n")


def subtract_black_level(img: LinearImage, level: float) -> LinearImage:
    """Subtract a scalar dark offset from every sample, clamping at zero."""
    if level < 0:
        raise ValueError("black level must be >= 0")
    data = np.maximum(img.data - float(level), 0.0)
    return LinearImage(data, bit_depth=img.bit_depth, camera=img.camera)


def clipped(counts, level: float):
    """True where a raw count is past the clipping level: strictly ``counts > level``.

    The one clipping rule, shared by ground-truth patch selection and the
    estimators' saturation mask; a count exactly at the level is kept.
    """
    return counts > level


def normalize_estimate(v) -> np.ndarray:
    """Scale an RGB vector to unit Euclidean norm, preserving direction."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError("expected an RGB triple")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError("components must be finite and >= 0")
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("degenerate illuminant: zero vector")
    return v / n
