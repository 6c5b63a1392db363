import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabench import synth
from chromabench.chartgeom import (
    CANONICAL_CORNERS,
    DEFAULT_RECT_SIZE,
    ChartLayout,
    _bilinear_sample,
    apply_homography,
    default_corner_patch_centers,
    fit_homography,
    format_chart,
    patch_centers,
    read_chart_file,
    sample_patches,
)

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def dlt_null_space_oracle(src, dst):
    """Independent route: 9-unknown homogeneous system solved by SVD."""
    rows = []
    for (x, y), (u, v) in zip(src, dst):
        rows.append([x, y, 1, 0, 0, 0, -u * x, -u * y, -u])
        rows.append([0, 0, 0, x, y, 1, -v * x, -v * y, -v])
    _, _, vt = np.linalg.svd(np.asarray(rows, dtype=float))
    h = vt[-1]
    return (h / h[8]).reshape(3, 3)


def test_identity_is_exact():
    assert np.array_equal(fit_homography(UNIT_SQUARE, UNIT_SQUARE), np.eye(3))


def test_translation_is_exact():
    dst = [(x + 5, y + 3) for x, y in UNIT_SQUARE]
    expected = np.array([[1, 0, 5], [0, 1, 3], [0, 0, 1]], dtype=float)
    assert np.array_equal(fit_homography(UNIT_SQUARE, dst), expected)


def test_projective_case_matches_null_space_oracle():
    dst = [(0, 0), (1, 0), (2, 2), (0, 1)]
    H = fit_homography(UNIT_SQUARE, dst)
    oracle = dlt_null_space_oracle(UNIT_SQUARE, dst)
    np.testing.assert_allclose(H, oracle, atol=1e-12)
    proj = apply_homography(H, UNIT_SQUARE)
    assert np.abs(proj - np.asarray(dst, float)).max() < 1e-9


def test_collinear_points_are_rejected():
    bad = [(0, 0), (1, 1), (2, 2), (0, 1)]
    with pytest.raises(ValueError, match="degenerate correspondence"):
        fit_homography(bad, UNIT_SQUARE)
    with pytest.raises(ValueError, match="degenerate correspondence"):
        fit_homography(UNIT_SQUARE, bad)


def quad_strategy(x_lo, x_hi):
    coord = st.floats(x_lo, x_hi, allow_nan=False)
    # One point per quadrant cell keeps the quadrilateral far from degenerate.
    return st.tuples(coord, coord, coord, coord, coord, coord, coord, coord).map(
        lambda t: np.array(
            [
                [t[0] * 0.4, t[1] * 0.4],
                [600 + t[2] * 0.4, t[3] * 0.4],
                [600 + t[4] * 0.4, 600 + t[5] * 0.4],
                [t[6] * 0.4, 600 + t[7] * 0.4],
            ]
        )
    )


@settings(max_examples=60, deadline=None)
@given(quad_strategy(0, 1000), quad_strategy(0, 1000), quad_strategy(0, 1000))
def test_composition_agrees_on_the_four_points(qa, qb, qc):
    h_ab = fit_homography(qa, qb)
    h_bc = fit_homography(qb, qc)
    h_ac = fit_homography(qa, qc)
    via = apply_homography(h_bc, apply_homography(h_ab, qa))
    direct = apply_homography(h_ac, qa)
    assert np.abs(via - direct).max() < 1e-9


# The canonical rectified view as a frame: its corners make the view -> frame
# homography exactly the identity, so samples are plain slices of the frame.
VIEW_W, VIEW_H = DEFAULT_RECT_SIZE
VIEW_CORNERS = [(0, 0), (VIEW_W - 1, 0), (VIEW_W - 1, VIEW_H - 1), (0, VIEW_H - 1)]


def rectify_then_slice(data, layout):
    """Reference: warp the whole rectified view, then slice each sample square."""
    rect = np.array(VIEW_CORNERS, dtype=np.float64)
    us, vs = np.meshgrid(np.arange(VIEW_W), np.arange(VIEW_H))
    pts = np.stack([us.ravel(), vs.ravel()], axis=1).astype(np.float64)
    src = apply_homography(fit_homography(rect, layout.corners), pts)
    view = _bilinear_sample(data, src[:, 0], src[:, 1]).reshape(VIEW_H, VIEW_W, 3)
    half = layout.half_size
    squares = []
    for cx, cy in patch_centers(layout.corner_patch_centers, half):
        ix, iy = int(round(float(cx))), int(round(float(cy)))
        block = view[iy - half : iy + half + 1, ix - half : ix + half + 1]
        squares.append(block.reshape(-1, 3))
    return np.stack(squares)


def test_sample_patches_match_rectify_then_slice():
    rng = np.random.default_rng(11)
    for _ in range(4):
        data = rng.uniform(0, 4095, size=(480, 640, 3))
        pose = synth.random_pose(rng, 640, 480)
        corners = apply_homography(pose, CANONICAL_CORNERS)
        cpc = default_corner_patch_centers() + rng.uniform(-4, 4, size=(4, 2))
        for layout in (
            ChartLayout(corners),
            ChartLayout(corners, corner_patch_centers=cpc),
            ChartLayout(corners, half_size=int(rng.integers(0, 30))),
            ChartLayout(corners, cpc, half_size=7),
        ):
            got = sample_patches(data, layout)
            assert got.tobytes() == rectify_then_slice(data, layout).tobytes()


def view_slices(data, half):
    centers = np.rint(patch_centers(default_corner_patch_centers(), half)).astype(int)
    return np.stack(
        [data[y - half : y + half + 1, x - half : x + half + 1].reshape(-1, 3) for x, y in centers]
    )


def test_rectify_with_image_corners_is_identity(rng=np.random.default_rng(5)):
    data = rng.integers(0, 4095, size=(VIEW_H, VIEW_W, 3)).astype(float)
    samples = sample_patches(data, ChartLayout(VIEW_CORNERS))
    assert isinstance(samples, np.ndarray) and samples.shape == (24, 31 * 31, 3)
    assert np.array_equal(samples, view_slices(data, 15))


def test_rectify_constant_image_is_constant():
    corners = [(25, 14), (640, 30), (622, 433), (36, 445)]
    samples = sample_patches(np.full((460, 660, 3), 7.0), ChartLayout(corners))
    assert samples.shape == (24, 961, 3)
    np.testing.assert_allclose(samples, 7.0, atol=1e-9)


def test_a_square_on_the_frame_edge_reads_the_edge_pixels(tmp_path):
    # Corners on the last row and squares reaching the view's edge: rounding
    # maps some edge points an ulp below the frame, and those read the edge
    # row, not zero.
    path = tmp_path / "edge.chart"
    path.write_text(
        "corners: 25 14 640 30 622 459 36 459\n"
        "corner_patch_centers: 15 15 584 15 584 384 15 384\n"
        "half_size: 15\n"
    )
    samples = sample_patches(np.full((460, 660, 3), 1000, dtype=np.uint16), read_chart_file(path))
    assert samples.shape == (24, 961, 3)
    np.testing.assert_allclose(samples, 1000.0, atol=1e-9)


def test_rectify_rejects_corners_outside_image():
    corners = [(0, 0), (VIEW_W, 0), (VIEW_W, VIEW_H - 1), (0, VIEW_H - 1)]
    with pytest.raises(ValueError, match="inside the image"):
        sample_patches(np.zeros((VIEW_H, VIEW_W, 3)), ChartLayout(corners))


def test_rectify_rejects_nonconvex_corners():
    corners = [(0, 0), (VIEW_W - 1, 0), (100, 100), (0, VIEW_H - 1)]
    with pytest.raises(ValueError, match="convex"):
        sample_patches(np.zeros((VIEW_H, VIEW_W, 3)), ChartLayout(corners))


def test_patch_centers_uniform_lattice():
    corners = [(0, 0), (500, 0), (500, 300), (0, 300)]
    centers = patch_centers(corners, half_size=15)
    # column step 100 px, so patch 1 sits 100 px right of patch 0
    np.testing.assert_allclose(centers[1] - centers[0], [100, 0], atol=1e-12)
    np.testing.assert_allclose(centers[6] - centers[0], [0, 100], atol=1e-12)


def test_patch_centers_reproduce_corner_inputs_exactly():
    corners = np.array([(3.5, 2.25), (503.5, 12.0), (523.0, 310.5), (13.25, 300.0)])
    centers = patch_centers(corners, half_size=15)
    assert np.array_equal(centers[0], corners[0])
    assert np.array_equal(centers[5], corners[1])
    assert np.array_equal(centers[23], corners[2])
    assert np.array_equal(centers[18], corners[3])


def test_patch_centers_interior_bilinear_blend():
    p0, p5, p23, p18 = (0.0, 0.0), (50.0, 5.0), (55.0, 35.0), (5.0, 30.0)
    centers = patch_centers([p0, p5, p23, p18], half_size=1)
    u, v = 2 / 5, 1 / 3  # patch (row 1, col 2)
    top = [(1 - u) * p0[0] + u * p5[0], (1 - u) * p0[1] + u * p5[1]]
    bottom = [(1 - u) * p18[0] + u * p23[0], (1 - u) * p18[1] + u * p23[1]]
    expected = [(1 - v) * top[0] + v * bottom[0], (1 - v) * top[1] + v * bottom[1]]
    np.testing.assert_allclose(centers[1 * 6 + 2], expected, atol=1e-12)


def test_patch_centers_mixed_differences_are_uniform():
    # A bilinear lattice with uniform spacing has one mixed second difference
    # shared by every 2x2 block of centers.
    corners = np.array([(10.0, 20.0), (400.0, 60.0), (430.0, 310.0), (30.0, 280.0)])
    c = patch_centers(corners, half_size=15).reshape(4, 6, 2)
    blocks = c[1:, 1:] + c[:-1, :-1] - c[1:, :-1] - c[:-1, 1:]
    np.testing.assert_allclose(
        blocks, np.broadcast_to(blocks[0, 0], blocks.shape), atol=1e-9
    )


def test_patch_centers_rejects_coincident_corners():
    with pytest.raises(ValueError, match="degenerate"):
        patch_centers([(0, 0), (0, 0), (10, 10), (0, 10)], half_size=1)


def test_patch_centers_rejects_overlapping_squares():
    corners = [(0, 0), (50, 0), (50, 30), (0, 30)]  # 10 px spacing
    with pytest.raises(ValueError, match="overlap"):
        patch_centers(corners, half_size=15)
    # A sheared grid: column neighbours 24 px apart along x and along y are
    # 34 px apart, yet 31 px squares there share a 7 px corner.  23 px
    # squares leave a one-pixel gap; 25 px ones touch.
    sheared = [(50, 20), (170, 140), (470, 140), (350, 20)]
    for half_size in (15, 12):
        with pytest.raises(ValueError, match="^sample squares overlap adjacent patches$"):
            patch_centers(sheared, half_size)
    patch_centers(sheared, half_size=11)


def test_sample_patch_half_zero_is_center_pixel():
    data = np.arange(VIEW_H * VIEW_W * 3, dtype=float).reshape(VIEW_H, VIEW_W, 3)
    samples = sample_patches(data, ChartLayout(VIEW_CORNERS, half_size=0))
    assert samples.shape == (24, 1, 3)
    centers = np.rint(patch_centers(default_corner_patch_centers(), 0)).astype(int)
    assert samples[:, 0].tolist() == [data[y, x].tolist() for x, y in centers]


def test_sample_patch_constant_field():
    samples = sample_patches(np.full((VIEW_H, VIEW_W, 3), 3.0), ChartLayout(VIEW_CORNERS, half_size=1))
    assert samples.shape == (24, 9, 3)
    assert np.all(samples == 3.0)


def test_sample_patch_row_major_order():
    ys, xs = np.mgrid[0:VIEW_H, 0:VIEW_W]
    data = np.repeat((1000.0 * ys + xs)[..., None], 3, axis=2)
    samples = sample_patches(data, ChartLayout(VIEW_CORNERS, half_size=1))
    # patch 0 is centred on (50, 50): rows y = 49, 50, 51, each x = 49, 50, 51
    expected = [1000.0 * y + x for y in (49, 50, 51) for x in (49, 50, 51)]
    assert samples[0, :, 0].tolist() == expected
    assert np.array_equal(samples, view_slices(data, 1))


def test_sample_patch_snaps_fractional_center():
    data = np.random.default_rng(3).uniform(0, 4095, size=(VIEW_H, VIEW_W, 3))
    shifted = default_corner_patch_centers() + np.array([0.2, -0.2])
    snapped = sample_patches(data, ChartLayout(VIEW_CORNERS, shifted, half_size=2))
    assert np.array_equal(snapped, sample_patches(data, ChartLayout(VIEW_CORNERS, half_size=2)))


def test_sample_patch_rejects_out_of_bounds():
    cpc = [(10, 10), (VIEW_W - 10, 10), (VIEW_W - 10, VIEW_H - 10), (10, VIEW_H - 10)]
    with pytest.raises(ValueError, match="sample square exceeds image bounds"):
        sample_patches(np.zeros((VIEW_H, VIEW_W, 3)), ChartLayout(VIEW_CORNERS, cpc, half_size=15))


def test_sample_patches_reject_a_negative_half_size():
    with pytest.raises(ValueError, match=r"^half_size must be an integer in 0\.\.199$"):
        patch_centers(default_corner_patch_centers(), -1)
    with pytest.raises(ValueError, match=r"^half_size must be an integer in 0\.\.199$"):
        sample_patches(np.zeros((VIEW_H, VIEW_W, 3)), ChartLayout(VIEW_CORNERS, half_size=-1))


def test_chart_file_round_trip(tmp_path):
    layout = ChartLayout(
        corners=np.array([(1.5, 2), (100, 3), (99, 80), (2, 78)], dtype=float),
        corner_patch_centers=default_corner_patch_centers(),
        half_size=11,
    )
    path = tmp_path / "img.chart"
    path.write_text(format_chart(layout))
    back = read_chart_file(path)
    assert np.array_equal(back.corners, layout.corners)
    assert np.array_equal(back.corner_patch_centers, layout.corner_patch_centers)
    assert back.half_size == 11


def test_chart_file_optional_lines_default(tmp_path):
    # A corners-only file and one that states the defaults are one layout,
    # and either writes back as the three lines synth writes.
    scene = synth.render(synth.SceneSpec(pose=synth.random_pose(np.random.default_rng(7))))
    corners_only, explicit = tmp_path / "min.chart", tmp_path / "full.chart"
    corners_only.write_text(scene.chart_text.splitlines()[0] + "\n")
    explicit.write_text(scene.chart_text)
    short, full = read_chart_file(corners_only), read_chart_file(explicit)
    assert np.array_equal(short.corner_patch_centers, default_corner_patch_centers())
    assert short.half_size == full.half_size == 15
    for name in ("corners", "corner_patch_centers", "centers"):
        assert np.array_equal(getattr(short, name), getattr(full, name)), name
    assert scene.chart_text.count("\n") == 3
    assert format_chart(short) == format_chart(full) == scene.chart_text
    data = scene.counts
    assert sample_patches(data, short).tobytes() == sample_patches(data, full).tobytes()
    np.testing.assert_allclose(default_corner_patch_centers()[3], [50.0, 350.0])


def test_layout_grid_is_resolved_once_and_read_only():
    layout = ChartLayout(VIEW_CORNERS, half_size=2)
    assert np.array_equal(layout.centers, np.rint(patch_centers(default_corner_patch_centers(), 2)))
    for name in ("corners", "corner_patch_centers", "centers"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(layout, name)[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        layout.centers = np.zeros((24, 2))
    with pytest.raises(TypeError):
        ChartLayout(VIEW_CORNERS, centers=np.zeros((24, 2)))


def test_layout_leaves_the_callers_arrays_writable():
    mine = np.array(VIEW_CORNERS, dtype=np.float64)
    cpc = default_corner_patch_centers()
    layout = ChartLayout(mine, cpc)
    assert mine.flags.writeable and cpc.flags.writeable
    assert not np.shares_memory(layout.corners, mine)
    assert not np.shares_memory(layout.corner_patch_centers, cpc)
    before = layout.corners.copy()
    mine[0, 0] = 7.0
    assert np.array_equal(layout.corners, before)


@pytest.mark.parametrize("half_size", [2.5, 2.0, True, False, "2", None])
def test_layout_refuses_a_half_size_that_is_not_an_integer(half_size):
    with pytest.raises(ValueError, match=r"^half_size must be an integer in 0\.\.199$"):
        ChartLayout(VIEW_CORNERS, half_size=half_size)


def test_layout_takes_a_numpy_integer_half_size():
    layout = ChartLayout(VIEW_CORNERS, half_size=np.int64(2))
    samples = sample_patches(np.ones((VIEW_H, VIEW_W, 3)), layout)
    assert samples.shape == (24, 25, 3)


# A non-finite number names its line's field; these used to fail later, as
# "points must be finite".
NON_FINITE = {
    "corners: nan 0 99 0 99 49 0 49\n": "corners",
    "corners: 0 0 1e400 0 99 49 0 49\n": "corners",
    "corners: 0 0 99 0 99 49 0 49\ncorner_patch_centers: nan 50 550 50 550 350 50 350\n":
        "corner_patch_centers",
    "corners: 0 0 99 0 99 49 0 49\ncorner_patch_centers: 50 50 550 50 550 350 50 inf\n":
        "corner_patch_centers",
}


@pytest.mark.parametrize(
    "content",
    [
        "corners: 1 2 3\n",
        "corners: a b c d e f g h\n",
        "mystery: 1\n",
        "half_size: 3\n",  # corners missing
        "corners: 0 0 99 0 99 49 0 49\nhalf_size: 2.7\n",
        "corners: 0 0 99 0 99 49 0 49\nhalf_size: nan\n",
        "corners: 0 0 99 0 99 49 0 49\nhalf_size: inf\n",
        *NON_FINITE,
    ],
)
def test_chart_file_malformed(tmp_path, content):
    path = tmp_path / "bad.chart"
    path.write_text(content)
    with pytest.raises(ValueError, match="malformed chart file") as info:
        read_chart_file(path)
    if content in NON_FINITE:
        assert str(info.value) == f"malformed chart file: {NON_FINITE[content]} must be finite"


@pytest.mark.parametrize(
    "content, message",
    [
        ("corners: 0 0 99 0 0 49 99 49\n", "chart corners must form a convex quadrilateral"),
        ("corners: 0 0 50 0 99 0 0 49\n", "degenerate correspondence: three points collinear"),
        ("corners: 0 0 99 0 99 49 0 49\ncorners: 1 1 98 1 98 48 1 48\n",
         "malformed chart file: repeated key 'corners'"),
        ("corners: 0 0 99 0 99 49 0 49\nhalf_size: 3\nhalf_size: 4\n",
         "malformed chart file: repeated key 'half_size'"),
        ("corners: 0 0 99 0 99 49 0 49\nhalf_size: -1\n", "half_size must be an integer in 0..199"),
        ("corners: 0 0 99 0 99 49 0 49\nhalf_size: 60\n",
         "sample squares overlap adjacent patches"),
    ],
    ids=["bow-tie", "collinear", "repeated-corners", "repeated-half-size", "negative-half-size",
         "overlapping-squares"],
)
def test_chart_file_rejected_where_it_is_read(tmp_path, content, message):
    # Checked on reading, before any frame is known, so every command that
    # reads a .chart file rejects the same files with the same message.
    path = tmp_path / "bad.chart"
    path.write_text(content)
    with pytest.raises(ValueError) as info:
        read_chart_file(path)
    assert str(info.value) == message

