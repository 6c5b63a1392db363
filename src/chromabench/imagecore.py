"""Raw sensor counts: 16-bit binary PPM I/O, black-level and clipping rules.

A frame is a C-contiguous native uint16 (H, W, 3) array of digital counts in
R, G, B order, with its camera's ``CameraProfile``, which carries the
sensor's bit depth.  ``synth.render`` makes one, ``save_image`` writes it and
``load_counts`` reads it back bit for bit, so integer counts never pass
through a float frame on their way to disk.  The clipping test, patch
sampling and the estimators read the counts as they are; a channel becomes
float64 only where ``subtract_black_level`` linearises it (widening 16-bit
integers to float64 is exact).  ``save_image`` and
``estimators.estimate_many`` refuse any other array with one message.

On-disk format: binary PPM ("P6", maxval 65535, big-endian 16-bit samples,
linear values) plus a JSON sidecar ``<basename>.meta.json`` carrying
``camera_id``, ``black_level``, ``bit_depth`` and ``saturation_level``.
Unknown sidecar fields are ignored.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import atomic_write_bytes, atomic_write_text

__all__ = [
    "CameraProfile",
    "clipped",
    "load_counts",
    "save_image",
    "sidecar_path",
    "subtract_black_level",
]


@dataclass(frozen=True)
class CameraProfile:
    """Per-camera metadata: dark offset and linear-range ceiling in counts, and bit depth.

    The black level is a single scalar applied to all three channels.  Both
    levels must be finite real numbers other than bools, for a sidecar and a
    scene spec alike.
    """

    camera_id: str
    black_level: float = 0.0
    saturation_level: float = 3300.0
    bit_depth: int = 12

    def __post_init__(self) -> None:
        if not isinstance(self.camera_id, str):
            raise ValueError(f"camera_id must be a string, got {self.camera_id!r}")
        # The PPM stores 16-bit samples.
        depth = self.bit_depth
        integral = isinstance(depth, (int, np.integer)) and not isinstance(depth, bool)
        if not (integral and 1 <= depth <= 16):
            raise ValueError("bit_depth must be an integer in 1..16")
        object.__setattr__(self, "bit_depth", int(depth))
        for name in ("black_level", "saturation_level"):
            value = getattr(self, name)
            # JSON true and false arrive as Python bools, which are numbers to math.
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            # An infinite saturation level would switch clipping off unnoticed.
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer past the float range
                finite = False
            if not finite:
                raise ValueError(f"{name} must be finite")
        if self.black_level < 0:
            raise ValueError("black_level must be >= 0")
        if not self.saturation_level > self.black_level:
            raise ValueError("saturation_level must exceed black_level")


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


def _check_bit_depth(counts: np.ndarray, bit_depth: int) -> None:
    """Raise if a count exceeds ``2**bit_depth - 1``."""
    limit = 2 ** bit_depth - 1
    peak = int(counts.max(initial=0))
    if peak > limit:
        raise ValueError(f"value exceeds bit depth: {peak} > {limit} ({bit_depth}-bit)")


def load_counts(path: str | Path) -> tuple[np.ndarray, CameraProfile]:
    """Read a 16-bit binary PPM and its metadata sidecar as raw counts.

    Returns the samples as a C-contiguous native uint16 (H, W, 3) array,
    with the sidecar's camera profile (``CameraProfile``'s defaults for the
    fields it leaves out).  Raises if the header is malformed, if the
    sidecar is missing, not valid JSON or not a JSON object, if its
    ``bit_depth`` is not a whole number, if ``CameraProfile`` refuses the
    fields (a level that is not a finite number, say), or if any sample
    exceeds the bit depth.
    """
    path = Path(path)
    meta_file = sidecar_path(path)
    if not meta_file.exists():
        raise FileNotFoundError(f"missing sidecar: {meta_file}")
    try:
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_file}: sidecar is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_file}: sidecar must be a JSON object")
    fields = {}
    if "bit_depth" in meta:
        depth = meta["bit_depth"]
        # JSON true and false arrive as Python bools, which are ints.
        whole = isinstance(depth, int) or (isinstance(depth, float) and depth.is_integer())
        if isinstance(depth, bool) or not whole:
            raise ValueError(f"bit_depth must be a whole number, got {depth!r}")
        fields["bit_depth"] = int(depth)
    for name in ("black_level", "saturation_level"):
        if name in meta:
            fields[name] = meta[name]
    camera = CameraProfile(meta.get("camera_id", "unknown"), **fields)

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
    counts = samples.astype(np.uint16).reshape(height, width, 3)
    _check_bit_depth(counts, camera.bit_depth)
    return counts, camera


def save_image(counts: np.ndarray, camera: CameraProfile, path: str | Path) -> None:
    """Write uint16 (H, W, 3) counts as a PPM and ``camera`` as its sidecar.

    Raises, with :func:`load_counts`'s message, on a count above
    ``2**camera.bit_depth - 1``, which it would reject.
    """
    if counts.dtype != np.uint16 or counts.ndim != 3 or counts.shape[2] != 3:
        raise ValueError("counts must be a uint16 (H, W, 3) array")
    height, width = counts.shape[:2]
    if height < 1 or width < 1:
        raise ValueError("image must be at least 1x1")
    _check_bit_depth(counts, camera.bit_depth)
    # The sidecar text first: a level json cannot write must fail before the PPM exists.
    meta = {
        "camera_id": camera.camera_id,
        "black_level": camera.black_level,
        "bit_depth": camera.bit_depth,
        "saturation_level": camera.saturation_level,
    }
    sidecar = json.dumps(meta, indent=2) + "\n"
    path = Path(path)
    header = f"P6\n{width} {height}\n65535\n".encode("ascii")
    atomic_write_bytes(path, header + counts.astype(">u2").tobytes())
    atomic_write_text(sidecar_path(path), sidecar)


def subtract_black_level(counts, level: float) -> np.ndarray:
    """The one dark-offset rule: a new float64 array of ``counts - level`` clamped at zero.

    Estimation applies it to one channel of the raw counts at a time, ground
    truth to a patch's medians.  Integer counts widen to float64 exactly, so
    the result does not depend on whether they arrive as uint16 or float64.
    """
    if level < 0:
        raise ValueError("black level must be >= 0")
    out = np.subtract(counts, float(level), dtype=np.float64)
    return np.maximum(out, 0.0, out=out)


def clipped(counts, level: float):
    """True where a raw count is past the clipping level: strictly ``counts > level``.

    The one clipping rule, shared by ground-truth patch selection and the
    estimators' saturation mask; a count exactly at the level is kept.
    """
    return counts > level

