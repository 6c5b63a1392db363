import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chromabench.imagecore import (
    CameraProfile,
    load_counts,
    save_image,
    sidecar_path,
    subtract_black_level,
)


def write_ppm(path, samples, width, height, meta=None):
    header = f"P6\n{width} {height}\n65535\n".encode()
    path.write_bytes(header + struct.pack(f">{len(samples)}H", *samples))
    sidecar = sidecar_path(path)
    payload = {"camera_id": "cam", "black_level": 0, "bit_depth": 12, "saturation_level": 3300}
    payload.update(meta or {})
    sidecar.write_text(json.dumps(payload))


def test_load_reads_samples_exactly(tmp_path):
    p = tmp_path / "one.ppm"
    write_ppm(p, [100, 200, 300], 1, 1)
    counts, camera = load_counts(p)
    assert counts.shape == (1, 1, 3)
    assert camera.bit_depth == 12
    assert counts.tolist() == [[[100, 200, 300]]]
    assert camera.camera_id == "cam"


def test_load_rejects_sample_over_bit_depth(tmp_path):
    p = tmp_path / "hot.ppm"
    write_ppm(p, [5000, 0, 0], 1, 1)
    with pytest.raises(ValueError, match=r"^value exceeds bit depth: 5000 > 4095 \(12-bit\)$"):
        load_counts(p)


def test_load_counts_keeps_native_uint16(tmp_path):
    rng = np.random.default_rng(4)
    samples = rng.integers(0, 4096, size=5 * 7 * 3)
    p = tmp_path / "c.ppm"
    write_ppm(p, samples.tolist(), 7, 5, meta={"black_level": 129, "bit_depth": 12})
    counts, camera = load_counts(p)
    assert counts.dtype == np.uint16 and counts.dtype.isnative
    assert counts.flags.c_contiguous and counts.shape == (5, 7, 3)
    assert counts.ravel().tolist() == samples.tolist()
    assert camera == CameraProfile("cam", 129.0, 3300.0, 12)


def test_load_rejects_infinite_saturation_level(tmp_path):
    # Python's json parses the bare token Infinity; clipping must not silently switch off.
    p = tmp_path / "inf.ppm"
    write_ppm(p, [1, 2, 3], 1, 1)
    sidecar_path(p).write_text('{"saturation_level": Infinity}')
    with pytest.raises(ValueError, match="saturation_level must be finite"):
        load_counts(p)


@pytest.mark.parametrize("bit_depth", [12.7, "12", None, [12]])
def test_load_rejects_bit_depth_that_is_not_a_whole_number(tmp_path, bit_depth):
    p = tmp_path / "frac.ppm"
    write_ppm(p, [1, 2, 3], 1, 1, meta={"bit_depth": bit_depth})
    with pytest.raises(ValueError, match="bit_depth must be a whole number"):
        load_counts(p)


@pytest.mark.parametrize("bit_depth", [0, 17, 2000])
def test_load_rejects_bit_depth_outside_1_to_16(tmp_path, bit_depth):
    # The PPM holds 16-bit samples; 2000 used to fail as "int too large to convert to float".
    p = tmp_path / "deep.ppm"
    write_ppm(p, [1, 2, 3], 1, 1, meta={"bit_depth": bit_depth})
    with pytest.raises(ValueError, match=r"^bit_depth must be an integer in 1\.\.16$"):
        load_counts(p)


@pytest.mark.parametrize(
    "sidecar, message",
    [
        ("[12]", r"/meta\.meta\.json: sidecar must be a JSON object$"),
        ('"cam"', r"/meta\.meta\.json: sidecar must be a JSON object$"),
        ('{"bit_depth": true}', r"^bit_depth must be a whole number, got True$"),
        ('{"black_level": true}', r"^black_level must be a number, got True$"),
        ('{"black_level": "129"}', r"^black_level must be a number, got '129'$"),
        ('{"saturation_level": false}', r"^saturation_level must be a number, got False$"),
        ('{"saturation_level": null}', r"^saturation_level must be a number, got None$"),
        ('{"black_level": 1%s}' % ("0" * 400), r"^black_level must be finite$"),
        ('{"bit_depth": 12,\n', r"/meta\.meta\.json: sidecar is not valid JSON: Expecting "),
        # A camera_id of null once became the camera "None", 5 the camera "5".
        ('{"camera_id": null}', r"^camera_id must be a string, got None$"),
        ('{"camera_id": 5}', r"^camera_id must be a string, got 5$"),
        ('{"camera_id": [1, 2]}', r"^camera_id must be a string, got \[1, 2\]$"),
    ],
    ids=[
        "list", "text", "bool-depth", "bool-black", "text-black", "bool-sat", "null-sat", "huge",
        "truncated", "null-camera", "number-camera", "list-camera",
    ],
)
def test_load_rejects_a_malformed_sidecar(tmp_path, sidecar, message):
    p = tmp_path / "meta.ppm"
    write_ppm(p, [1, 2, 3], 1, 1)
    sidecar_path(p).write_text(sidecar)
    with pytest.raises(ValueError, match=message):
        load_counts(p)


@pytest.mark.parametrize("bit_depth", [0, 17, 12.0, True])
def test_save_rejects_bit_depth_that_is_not_an_integer_in_1_to_16(tmp_path, bit_depth):
    with pytest.raises(ValueError, match=r"^bit_depth must be an integer in 1\.\.16$"):
        camera = CameraProfile("c", bit_depth=bit_depth)
        save_image(np.ones((1, 1, 3), np.uint16), camera, tmp_path / "x.ppm")
    assert list(tmp_path.iterdir()) == []


def test_save_rejects_counts_that_load_counts_would_reject_as_over_bit_depth(tmp_path):
    cam = CameraProfile("cam")
    with pytest.raises(ValueError, match=r"^value exceeds bit depth: 5000 > 4095 \(12-bit\)$"):
        save_image(np.full((2, 2, 3), 5000, dtype=np.uint16), cam, tmp_path / "hot.ppm")
    assert list(tmp_path.iterdir()) == []
    save_image(np.full((2, 2, 3), 4095, dtype=np.uint16), cam, tmp_path / "top.ppm")
    assert load_counts(tmp_path / "top.ppm")[0].max() == 4095


def test_save_writes_neither_file_when_the_sidecar_cannot_be_written(tmp_path):
    # A numpy float32 level is not JSON; the PPM used to be on disk before that was found.
    camera = CameraProfile("cam", np.float32(0.0))
    with pytest.raises(TypeError, match="float32 is not JSON serializable"):
        save_image(np.ones((1, 1, 3), np.uint16), camera, tmp_path / "x.ppm")
    assert list(tmp_path.iterdir()) == []


def test_load_accepts_integral_float_bit_depth(tmp_path):
    p = tmp_path / "twelve.ppm"
    write_ppm(p, [1, 2, 3], 1, 1, meta={"bit_depth": 12.0})
    assert load_counts(p)[1].bit_depth == 12


def test_load_requires_sidecar(tmp_path):
    p = tmp_path / "orphan.ppm"
    header = b"P6\n1 1\n65535\n"
    p.write_bytes(header + struct.pack(">3H", 1, 2, 3))
    with pytest.raises(FileNotFoundError, match="missing sidecar"):
        load_counts(p)


@pytest.mark.parametrize(
    "raw",
    [
        b"P5\n1 1\n65535\n\x00\x00",
        b"P6\n1 1\n255\n\x00\x00\x00\x00\x00\x00",
        b"P6\n1 1\n65535\n\x00\x00",  # truncated samples
        b"P6\nx 1\n65535\n",
    ],
)
def test_load_rejects_malformed_files(tmp_path, raw):
    p = tmp_path / "bad.ppm"
    p.write_bytes(raw)
    sidecar_path(p).write_text("{}")
    with pytest.raises(ValueError, match="malformed"):
        load_counts(p)


def test_header_comments_are_skipped(tmp_path):
    p = tmp_path / "c.ppm"
    raw = b"P6\n# a comment\n2 1\n# another\n65535\n" + struct.pack(">6H", 1, 2, 3, 4, 5, 6)
    p.write_bytes(raw)
    sidecar_path(p).write_text("{}")
    counts, _ = load_counts(p)
    assert counts.tolist() == [[[1, 2, 3], [4, 5, 6]]]


def test_a_comment_that_moves_the_samples_to_an_odd_offset_reads_the_same(tmp_path):
    samples = struct.pack(">6H", 1, 2, 3, 4000, 65535 >> 4, 6)
    offsets, reads = set(), []
    for comment in (b"", b"#x\n", b"# odd\n"):
        header = b"P6\n" + comment + b"2 1\n65535\n"
        offsets.add(len(header) % 2)
        p = tmp_path / f"c{len(reads)}.ppm"
        p.write_bytes(header + samples)
        sidecar_path(p).write_text("{}")
        counts, _ = load_counts(p)
        assert counts.dtype == np.uint16 and counts.flags.aligned
        reads.append(counts.tobytes())
    assert offsets == {0, 1}
    assert reads == [np.array([1, 2, 3, 4000, 4095, 6], dtype=np.uint16).tobytes()] * 3


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(
        dtype=np.uint16,
        shape=st.tuples(st.integers(1, 8), st.integers(1, 8), st.just(3)),
        elements=st.integers(0, 4095),
    )
)
def test_save_load_round_trip_bit_exact(tmp_path_factory, arr):
    tmp = tmp_path_factory.mktemp("rt")
    camera = CameraProfile("cam", 129.0)
    save_image(arr, camera, tmp / "img.ppm")
    back, back_camera = load_counts(tmp / "img.ppm")
    assert back.tobytes() == arr.tobytes()
    assert back_camera == camera and back_camera.bit_depth == 12


def test_save_rejects_non_integer_samples(tmp_path):
    # Counts are uint16 by type, so a float frame is rejected whatever its values.
    for data in (np.full((1, 1, 3), 1.5), np.full((1, 1, 3), 1.0)):
        with pytest.raises(ValueError, match=r"^counts must be a uint16 \(H, W, 3\) array$"):
            save_image(data, CameraProfile("cam"), tmp_path / "x.ppm")
    assert list(tmp_path.iterdir()) == []


def test_sidecar_ignores_unknown_fields(tmp_path):
    p = tmp_path / "u.ppm"
    write_ppm(p, [1, 2, 3], 1, 1, meta={"future_field": [1, 2], "black_level": 7})
    assert load_counts(p)[1].black_level == 7.0


def test_subtract_black_level_reference_case():
    out = subtract_black_level(np.full((1, 1, 3), 329.0), 129)
    assert out.tolist() == [[[200.0, 200.0, 200.0]]]


def test_subtract_zero_is_identity():
    data = np.arange(12, dtype=float).reshape(2, 2, 3)
    assert np.array_equal(subtract_black_level(data, 0), data)


def test_subtract_clamps_at_zero():
    assert subtract_black_level(np.full((1, 1, 3), 100.0), 129).tolist() == [[[0.0, 0.0, 0.0]]]


def test_subtract_widens_uint16_counts_as_float64_and_leaves_them_unchanged():
    counts = np.array([[[0, 128, 129], [130, 4095, 65535]]], dtype=np.uint16)
    before = counts.tobytes()
    for level in (0, 129, 129.5):
        out = subtract_black_level(counts, level)
        assert out.dtype == np.float64
        assert out.tobytes() == subtract_black_level(counts.astype(np.float64), level).tobytes()
    assert counts.tobytes() == before
    data = counts.astype(np.float64)
    before = data.tobytes()
    subtract_black_level(data, 129)
    subtract_black_level(data[:, :, 1], 129)
    assert data.tobytes() == before


def test_subtract_rejects_negative_level():
    with pytest.raises(ValueError):
        subtract_black_level(np.zeros((1, 1, 3)), -1)


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=(3, 3, 3),
        elements=st.floats(0, 4095, allow_nan=False),
    ),
    st.floats(0, 500, allow_nan=False),
)
def test_subtract_is_monotone_and_nonnegative(arr, level):
    out = subtract_black_level(arr, level)
    assert np.all(out <= arr)
    assert np.all(out >= 0)


def test_save_rejects_a_frame_that_is_not_uint16_h_w_3(tmp_path):
    # Negative and non-finite samples cannot reach the file: uint16 holds neither.
    cases = [
        (np.zeros((0, 1, 3), dtype=np.uint16), r"^image must be at least 1x1$"),
        (np.zeros((1, 1, 4), dtype=np.uint16), r"^counts must be a uint16 \(H, W, 3\) array$"),
        (np.zeros((2, 3), dtype=np.uint16), r"^counts must be a uint16 \(H, W, 3\) array$"),
        (np.full((1, 1, 3), -1, dtype=np.int16), r"^counts must be a uint16 \(H, W, 3\) array$"),
    ]
    for data, message in cases:
        with pytest.raises(ValueError, match=message):
            save_image(data, CameraProfile("cam"), tmp_path / "x.ppm")
    assert list(tmp_path.iterdir()) == []


def test_camera_profile_invariants():
    with pytest.raises(ValueError):
        CameraProfile("c", black_level=-1)
    with pytest.raises(ValueError):
        CameraProfile("c", black_level=100, saturation_level=100)
    for field in ("black_level", "saturation_level"):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                CameraProfile("c", **{field: bad})
    # A bool is refused with load_counts's message for a sidecar's JSON true or false.
    for field in ("black_level", "saturation_level"):
        for bad in (True, False):
            with pytest.raises(ValueError, match=f"^{field} must be a number, got {bad}$"):
                CameraProfile("c", **{field: bad})
    assert CameraProfile("c").saturation_level == 3300.0
    # numpy integers pass and are stored as int, which the sidecar's JSON writes as a number.
    camera = CameraProfile("c", bit_depth=np.int64(16))
    assert camera.bit_depth == 16 and type(camera.bit_depth) is int
    assert CameraProfile("c", 0.0, 3300.0).bit_depth == 12
