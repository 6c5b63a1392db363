import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chromabench.imagecore import (
    CameraProfile,
    LinearImage,
    load_counts,
    load_image,
    normalize_estimate,
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
    img = load_image(p)
    assert img.width == 1 and img.height == 1
    assert img.bit_depth == 12
    assert img.data.tolist() == [[[100.0, 200.0, 300.0]]]
    assert img.camera.camera_id == "cam"


def test_load_rejects_sample_over_bit_depth(tmp_path):
    p = tmp_path / "hot.ppm"
    write_ppm(p, [5000, 0, 0], 1, 1)
    with pytest.raises(ValueError, match="exceeds bit depth"):
        load_image(p)
    with pytest.raises(ValueError, match=r"^value exceeds bit depth: 5000 > 4095 \(12-bit\)$"):
        load_counts(p)


def test_load_counts_keeps_native_uint16_that_load_image_widens(tmp_path):
    rng = np.random.default_rng(4)
    samples = rng.integers(0, 4096, size=5 * 7 * 3)
    p = tmp_path / "c.ppm"
    write_ppm(p, samples.tolist(), 7, 5, meta={"black_level": 129, "bit_depth": 12})
    counts, camera, bit_depth = load_counts(p)
    assert counts.dtype == np.uint16 and counts.dtype.isnative
    assert counts.flags.c_contiguous and counts.shape == (5, 7, 3)
    assert counts.ravel().tolist() == samples.tolist()
    assert (camera, bit_depth) == (CameraProfile("cam", 129.0, 3300.0), 12)
    img = load_image(p)
    assert img.data.tobytes() == counts.astype(np.float64).tobytes()
    assert (img.camera, img.bit_depth) == (camera, bit_depth)


def test_load_rejects_infinite_saturation_level(tmp_path):
    # Python's json parses the bare token Infinity; clipping must not silently switch off.
    p = tmp_path / "inf.ppm"
    write_ppm(p, [1, 2, 3], 1, 1)
    sidecar_path(p).write_text('{"saturation_level": Infinity}')
    with pytest.raises(ValueError, match="saturation_level must be finite"):
        load_image(p)


@pytest.mark.parametrize("bit_depth", [12.7, "12", None, [12]])
def test_load_rejects_bit_depth_that_is_not_a_whole_number(tmp_path, bit_depth):
    p = tmp_path / "frac.ppm"
    write_ppm(p, [1, 2, 3], 1, 1, meta={"bit_depth": bit_depth})
    with pytest.raises(ValueError, match="bit_depth must be a whole number"):
        load_image(p)


@pytest.mark.parametrize("bit_depth", [0, 17, 2000])
def test_load_rejects_bit_depth_outside_1_to_16(tmp_path, bit_depth):
    # The PPM holds 16-bit samples; 2000 used to fail as "int too large to convert to float".
    p = tmp_path / "deep.ppm"
    write_ppm(p, [1, 2, 3], 1, 1, meta={"bit_depth": bit_depth})
    with pytest.raises(ValueError, match=r"^bit_depth must be an integer in 1\.\.16$"):
        load_image(p)


@pytest.mark.parametrize("bit_depth", [0, 17, 12.0])
def test_linear_image_rejects_bit_depth_that_is_not_an_integer_in_1_to_16(bit_depth):
    with pytest.raises(ValueError, match=r"^bit_depth must be an integer in 1\.\.16$"):
        LinearImage(np.ones((1, 1, 3)), bit_depth=bit_depth)


def test_load_accepts_integral_float_bit_depth(tmp_path):
    p = tmp_path / "twelve.ppm"
    write_ppm(p, [1, 2, 3], 1, 1, meta={"bit_depth": 12.0})
    assert load_image(p).bit_depth == 12


def test_load_requires_sidecar(tmp_path):
    p = tmp_path / "orphan.ppm"
    header = b"P6\n1 1\n65535\n"
    p.write_bytes(header + struct.pack(">3H", 1, 2, 3))
    with pytest.raises(FileNotFoundError, match="missing sidecar"):
        load_image(p)


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
        load_image(p)


def test_header_comments_are_skipped(tmp_path):
    p = tmp_path / "c.ppm"
    raw = b"P6\n# a comment\n2 1\n# another\n65535\n" + struct.pack(">6H", 1, 2, 3, 4, 5, 6)
    p.write_bytes(raw)
    sidecar_path(p).write_text("{}")
    img = load_image(p)
    assert img.data.tolist() == [[[1, 2, 3], [4, 5, 6]]]


def test_a_comment_that_moves_the_samples_to_an_odd_offset_reads_the_same(tmp_path):
    samples = struct.pack(">6H", 1, 2, 3, 4000, 65535 >> 4, 6)
    offsets, reads = set(), []
    for comment in (b"", b"#x\n", b"# odd\n"):
        header = b"P6\n" + comment + b"2 1\n65535\n"
        offsets.add(len(header) % 2)
        p = tmp_path / f"c{len(reads)}.ppm"
        p.write_bytes(header + samples)
        sidecar_path(p).write_text("{}")
        counts, _, _ = load_counts(p)
        assert counts.dtype == np.uint16 and counts.flags.aligned
        reads.append(counts.tobytes())
    assert offsets == {0, 1}
    assert reads == [np.array([1, 2, 3, 4000, 4095, 6], dtype=np.uint16).tobytes()] * 3


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(
        dtype=np.int64,
        shape=st.tuples(st.integers(1, 8), st.integers(1, 8), st.just(3)),
        elements=st.integers(0, 4095),
    )
)
def test_save_load_round_trip_bit_exact(tmp_path_factory, arr):
    tmp = tmp_path_factory.mktemp("rt")
    img = LinearImage(arr.astype(float), bit_depth=12, camera=CameraProfile("cam", 129.0))
    save_image(img, tmp / "img.ppm")
    back = load_image(tmp / "img.ppm")
    assert np.array_equal(back.data, img.data)
    assert back.bit_depth == img.bit_depth
    assert back.camera == img.camera


def test_save_rejects_non_integer_samples(tmp_path):
    img = LinearImage(np.full((1, 1, 3), 1.5))
    with pytest.raises(ValueError, match="non-integer"):
        save_image(img, tmp_path / "x.ppm")


def test_sidecar_ignores_unknown_fields(tmp_path):
    p = tmp_path / "u.ppm"
    write_ppm(p, [1, 2, 3], 1, 1, meta={"future_field": [1, 2], "black_level": 7})
    assert load_image(p).camera.black_level == 7.0


def test_subtract_black_level_reference_case():
    img = LinearImage(np.full((1, 1, 3), 329.0))
    assert subtract_black_level(img.data, 129).tolist() == [[[200.0, 200.0, 200.0]]]


def test_subtract_zero_is_identity():
    img = LinearImage(np.arange(12, dtype=float).reshape(2, 2, 3))
    assert np.array_equal(subtract_black_level(img.data, 0), img.data)


def test_subtract_clamps_at_zero():
    img = LinearImage(np.full((1, 1, 3), 100.0))
    assert subtract_black_level(img.data, 129).tolist() == [[[0.0, 0.0, 0.0]]]


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
    img = LinearImage(np.zeros((1, 1, 3)))
    with pytest.raises(ValueError):
        subtract_black_level(img.data, -1)


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
    img = LinearImage(arr)
    out = subtract_black_level(img.data, level)
    assert np.all(out <= img.data)
    assert np.all(out >= 0)


def test_normalize_fixtures():
    np.testing.assert_allclose(
        normalize_estimate((1, 1, 1)), np.full(3, 1 / np.sqrt(3)), rtol=0, atol=1e-15
    )
    assert normalize_estimate((2, 0, 0)).tolist() == [1.0, 0.0, 0.0]
    # |(1, 2, 2)| = 3, so the result is exactly the division by 3
    assert np.array_equal(normalize_estimate((1, 2, 2)), np.array([1, 2, 2]) / 3.0)


def test_normalize_rejects_zero_vector():
    with pytest.raises(ValueError, match="degenerate illuminant"):
        normalize_estimate((0, 0, 0))


@given(
    st.tuples(
        st.floats(0, 1e6, allow_nan=False),
        st.floats(0, 1e6, allow_nan=False),
        st.floats(0, 1e6, allow_nan=False),
    ).filter(lambda v: any(x > 1e-9 for x in v))
)
def test_normalize_returns_unit_vectors(v):
    assert abs(np.linalg.norm(normalize_estimate(v)) - 1.0) <= 1e-12


def test_linear_image_invariants():
    with pytest.raises(ValueError):
        LinearImage(np.zeros((0, 1, 3)))
    with pytest.raises(ValueError):
        LinearImage(np.zeros((1, 1, 4)))
    with pytest.raises(ValueError):
        LinearImage(np.full((1, 1, 3), -1.0))
    with pytest.raises(ValueError):
        LinearImage(np.full((1, 1, 3), np.nan))
    img = LinearImage(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        img.data[0, 0, 0] = 1.0  # stored array is read-only


def test_camera_profile_invariants():
    with pytest.raises(ValueError):
        CameraProfile("c", black_level=-1)
    with pytest.raises(ValueError):
        CameraProfile("c", black_level=100, saturation_level=100)
    for field in ("black_level", "saturation_level"):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                CameraProfile("c", **{field: bad})
    assert CameraProfile("c").saturation_level == 3300.0
