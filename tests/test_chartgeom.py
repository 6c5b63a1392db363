import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabench.chartgeom import (
    ChartLayout,
    apply_homography,
    default_corner_patch_centers,
    fit_homography,
    patch_centers,
    read_chart_file,
    rectify_chart,
    sample_patch,
    write_chart_file,
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


def test_rectify_with_image_corners_is_identity(rng=np.random.default_rng(5)):
    data = rng.integers(0, 4095, size=(6, 9, 3)).astype(float)
    corners = [(0, 0), (8, 0), (8, 5), (0, 5)]
    out = rectify_chart(data, corners, out_w=9, out_h=6)
    assert isinstance(out, np.ndarray) and out.shape == (6, 9, 3)
    np.testing.assert_allclose(out, data, atol=1e-9)


def test_rectify_constant_image_is_constant():
    corners = [(5, 4), (44, 6), (42, 33), (6, 35)]
    out = rectify_chart(np.full((40, 50, 3), 7.0), corners, out_w=30, out_h=20)
    assert out.shape == (20, 30, 3)
    np.testing.assert_allclose(out, 7.0, atol=1e-9)


def test_rectify_rejects_corners_outside_image():
    with pytest.raises(ValueError, match="inside the image"):
        rectify_chart(np.zeros((10, 10, 3)), [(0, 0), (20, 0), (20, 9), (0, 9)], 10, 10)


def test_rectify_rejects_nonconvex_corners():
    with pytest.raises(ValueError, match="convex"):
        rectify_chart(np.zeros((20, 20, 3)), [(0, 0), (19, 0), (5, 5), (0, 19)], 10, 10)


def test_patch_centers_uniform_lattice():
    corners = [(0, 0), (500, 0), (500, 300), (0, 300)]
    grid = patch_centers(corners, half_size=15)
    # column step 100 px, so patch 1 sits 100 px right of patch 0
    np.testing.assert_allclose(grid.centers[1] - grid.centers[0], [100, 0], atol=1e-12)
    np.testing.assert_allclose(grid.centers[6] - grid.centers[0], [0, 100], atol=1e-12)


def test_patch_centers_reproduce_corner_inputs_exactly():
    corners = np.array([(3.5, 2.25), (503.5, 12.0), (523.0, 310.5), (13.25, 300.0)])
    grid = patch_centers(corners, half_size=15)
    assert np.array_equal(grid.centers[0], corners[0])
    assert np.array_equal(grid.centers[5], corners[1])
    assert np.array_equal(grid.centers[23], corners[2])
    assert np.array_equal(grid.centers[18], corners[3])


def test_patch_centers_interior_bilinear_blend():
    p0, p5, p23, p18 = (0.0, 0.0), (50.0, 5.0), (55.0, 35.0), (5.0, 30.0)
    grid = patch_centers([p0, p5, p23, p18], half_size=1)
    u, v = 2 / 5, 1 / 3  # patch (row 1, col 2)
    top = [(1 - u) * p0[0] + u * p5[0], (1 - u) * p0[1] + u * p5[1]]
    bottom = [(1 - u) * p18[0] + u * p23[0], (1 - u) * p18[1] + u * p23[1]]
    expected = [(1 - v) * top[0] + v * bottom[0], (1 - v) * top[1] + v * bottom[1]]
    np.testing.assert_allclose(grid.centers[1 * 6 + 2], expected, atol=1e-12)


def test_patch_centers_mixed_differences_are_uniform():
    # A bilinear lattice with uniform spacing has one mixed second difference
    # shared by every 2x2 block of centers.
    corners = np.array([(10.0, 20.0), (400.0, 60.0), (430.0, 310.0), (30.0, 280.0)])
    c = patch_centers(corners, half_size=15).centers.reshape(4, 6, 2)
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


def test_sample_patch_half_zero_is_center_pixel():
    data = np.arange(27, dtype=float).reshape(3, 3, 3)
    assert sample_patch(data, (1, 1), 0).tolist() == [data[1, 1].tolist()]


def test_sample_patch_constant_field():
    samples = sample_patch(np.full((5, 5, 3), 3.0), (2, 2), 1)
    assert samples.shape == (9, 3)
    assert np.all(samples == 3.0)


def test_sample_patch_row_major_order():
    values = np.arange(1, 10, dtype=float)
    data = np.repeat(values.reshape(3, 3, 1), 3, axis=2)
    samples = sample_patch(data, (1, 1), 1)
    assert samples[:, 0].tolist() == values.tolist()


def test_sample_patch_snaps_fractional_center():
    data = np.arange(27, dtype=float).reshape(3, 3, 3)
    assert np.array_equal(sample_patch(data, (1.2, 0.8), 0), sample_patch(data, (1, 1), 0))


def test_sample_patch_rejects_out_of_bounds():
    with pytest.raises(ValueError, match="bounds"):
        sample_patch(np.zeros((3, 3, 3)), (0, 0), 1)


def test_chart_file_round_trip(tmp_path):
    layout = ChartLayout(
        corners=np.array([(1.5, 2), (100, 3), (99, 80), (2, 78)], dtype=float),
        corner_patch_centers=default_corner_patch_centers(),
        half_size=11,
    )
    path = tmp_path / "img.chart"
    write_chart_file(layout, path)
    back = read_chart_file(path)
    assert np.array_equal(back.corners, layout.corners)
    assert np.array_equal(back.corner_patch_centers, layout.corner_patch_centers)
    assert back.half_size == 11


def test_chart_file_optional_lines_default(tmp_path):
    path = tmp_path / "min.chart"
    path.write_text("corners: 0 0 99 0 99 49 0 49\n")
    layout = read_chart_file(path)
    assert layout.corner_patch_centers is None
    assert layout.half_size is None
    grid = layout.grid()
    np.testing.assert_allclose(grid.centers[18], [50.0, 350.0])
    assert grid.half_size == 15


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
    ],
)
def test_chart_file_malformed(tmp_path, content):
    path = tmp_path / "bad.chart"
    path.write_text(content)
    with pytest.raises(ValueError, match="malformed chart file"):
        read_chart_file(path)

