import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromabench.estimators import (
    EstimatorSpec,
    IlluminantEstimate,
    PRESETS,
    chart_region_mask,
    derivative_magnitude,
    estimate,
    gaussian_smooth,
    minkowski_pool,
    read_estimates,
    saturation_mask,
    spec_from_string,
    write_estimates,
)
from chromabench.imagecore import LinearImage
from chromabench.metrics import recovery_error

RNG = np.random.default_rng(99)


def random_image(rng, h=16, w=16, lo=1.0, hi=4000.0):
    return LinearImage(rng.uniform(lo, hi, size=(h, w, 3)))


# --- smoothing ---------------------------------------------------------------


def test_sigma_zero_is_identity():
    data = random_image(RNG).data
    assert gaussian_smooth(data, 0.0) is data


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.5])
def test_constant_image_is_preserved(sigma):
    out = gaussian_smooth(np.full((12, 15, 3), 42.0), sigma)
    assert out.shape == (12, 15, 3)
    np.testing.assert_allclose(out, 42.0, atol=1e-12)


def test_impulse_center_matches_kernel_formula():
    sigma = 2.0
    data = np.zeros((21, 21, 3))
    data[10, 10, :] = 1.0
    out = gaussian_smooth(data, sigma)
    # independent kernel evaluation
    radius = math.ceil(3 * sigma)
    k = np.exp(-np.arange(-radius, radius + 1) ** 2 / (2 * sigma**2))
    k /= k.sum()
    center_weight = k[radius] ** 2
    np.testing.assert_allclose(out[10, 10], center_weight, atol=1e-12)
    # mass is preserved away from borders
    np.testing.assert_allclose(out[:, :, 0].sum(), 1.0, atol=1e-12)


def test_smooth_rejects_negative_sigma():
    with pytest.raises(ValueError):
        gaussian_smooth(np.zeros((2, 2, 3)), -1.0)


def test_smooth_rejects_sigma_past_the_longer_side():
    data = np.ones((4, 3, 3))
    np.testing.assert_allclose(gaussian_smooth(data, 4.0 / 3.0), 1.0)  # 3*sigma == 4
    for sigma in (1.34, 1e6, 1e300):
        with pytest.raises(ValueError, match=r"sigma=\S+ is too large for a 3x4 image"):
            gaussian_smooth(data, sigma)


# --- derivatives -------------------------------------------------------------


def ramp_image(slope_x=3.0, size=20):
    xs = np.arange(size, dtype=float)
    data = np.repeat((slope_x * xs + 5.0)[None, :, None], size, axis=0)
    return np.repeat(data, 3, axis=2)


def test_gradient_of_constant_is_zero():
    out = derivative_magnitude(np.full((10, 10, 3), 9.0), 1, 0.0)
    assert out.shape == (10, 10, 3)
    assert np.all(out == 0.0)


def test_first_order_on_ramp_is_slope():
    out = derivative_magnitude(ramp_image(3.0), 1, 0.0)
    np.testing.assert_allclose(out[1:-1, 1:-1], 3.0, atol=1e-12)


def test_second_order_on_ramp_is_zero():
    out = derivative_magnitude(ramp_image(3.0), 2, 0.0)
    np.testing.assert_allclose(out[2:-2, 2:-2], 0.0, atol=1e-9)


def test_bad_order_rejected():
    with pytest.raises(ValueError):
        derivative_magnitude(ramp_image(), 3, 0.0)


# --- pooling -----------------------------------------------------------------


def test_pool_p2_fixture():
    assert minkowski_pool([0.0, 2.0], 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)


@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=50))
def test_pool_p1_is_the_mean(values):
    assert minkowski_pool(values, 1.0) == np.mean(values)


def test_pool_infinity_is_the_max():
    assert minkowski_pool([1.0, 5.0, 3.0], math.inf) == 5.0


def test_pool_rejects_p_below_one():
    with pytest.raises(ValueError):
        minkowski_pool([1.0], 0.5)


@given(
    st.lists(st.floats(0.001, 4095, allow_nan=False), min_size=1, max_size=40),
    st.floats(1.0, 150.0),
)
def test_pool_never_overflows_and_bounds(values, p):
    out = minkowski_pool(values, p)
    assert np.isfinite(out)
    assert min(values) - 1e-9 <= out <= max(values) + 1e-9


# --- estimates ---------------------------------------------------------------


def test_grey_world_on_constant_color():
    img = LinearImage(np.tile(np.array([2.0, 4.0, 6.0]), (8, 8, 1)))
    est = estimate(img, PRESETS["grey-world"])
    expected = np.array([2.0, 4.0, 6.0]) / math.sqrt(56.0)
    np.testing.assert_allclose(est.rgb, expected, atol=1e-12)


def test_white_patch_takes_channel_maxima():
    data = np.zeros((1, 3, 3))
    data[0, 0] = [1, 0, 0]
    data[0, 1] = [0, 2, 0]
    data[0, 2] = [0, 0, 3]
    est = estimate(LinearImage(data), PRESETS["white-patch"])
    expected = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    np.testing.assert_allclose(est.rgb, expected, atol=1e-12)


def test_shades_of_grey_p1_equals_grey_world():
    img = random_image(RNG)
    a = estimate(img, EstimatorSpec("sog-p1", 0, 1.0, 0.0))
    b = estimate(img, PRESETS["grey-world"])
    assert a.rgb == b.rgb


def test_grey_world_matches_channel_means():
    for seed in range(10):
        img = random_image(np.random.default_rng(seed))
        est = estimate(img, PRESETS["grey-world"])
        means = img.data.mean(axis=(0, 1))
        np.testing.assert_allclose(est.rgb, means / np.linalg.norm(means), atol=1e-12)


def test_exposure_invariance():
    img = random_image(RNG, lo=1.0, hi=50.0)
    for alpha in (0.1, 3.0, 77.0):
        scaled = LinearImage(img.data * alpha)
        for spec in PRESETS.values():
            a = estimate(img, spec)
            b = estimate(scaled, spec)
            assert recovery_error(a.rgb, b.rgb) < 1e-9


def test_shades_of_grey_approaches_white_patch():
    for seed in range(5):
        img = random_image(np.random.default_rng(seed), h=32, w=32)
        sog = estimate(img, EstimatorSpec("sog100", 0, 100.0, 0.0))
        wp = estimate(img, PRESETS["white-patch"])
        assert recovery_error(sog.rgb, wp.rgb) < 0.5


def test_rectangular_mask_equals_crop():
    img = random_image(RNG, h=12, w=14)
    mask = np.zeros((12, 14), dtype=bool)
    mask[3:9, 2:11] = True
    cropped = LinearImage(img.data[3:9, 2:11])
    for name in ("grey-world", "white-patch", "shades-of-grey"):
        masked = estimate(img, PRESETS[name], mask)
        plain = estimate(cropped, PRESETS[name])
        assert masked.rgb == plain.rgb


def test_degenerate_zero_channel_rejected():
    data = np.ones((4, 4, 3))
    data[:, :, 2] = 0.0
    with pytest.raises(ValueError, match="degenerate estimate"):
        estimate(LinearImage(data), PRESETS["grey-world"])


def test_estimate_empty_mask_rejected():
    img = random_image(RNG, h=4, w=4)
    with pytest.raises(ValueError, match="empty mask"):
        estimate(img, PRESETS["grey-world"], np.zeros((4, 4), bool))


def test_estimate_mask_selects_pixels():
    data = np.ones((2, 2, 3))
    data[1, 1] = [100.0, 1.0, 1.0]
    img = LinearImage(data)
    assert estimate(img, PRESETS["white-patch"]).rgb[0] > 0.99
    mask = np.ones((2, 2), dtype=bool)
    mask[1, 1] = False  # leave the brightest pixel out
    masked = estimate(img, PRESETS["white-patch"], mask)
    np.testing.assert_allclose(masked.rgb, np.ones(3) / math.sqrt(3.0), atol=1e-12)


def test_mask_dimension_mismatch_rejected():
    img = random_image(RNG, h=4, w=4)
    with pytest.raises(ValueError, match="mask dimensions"):
        estimate(img, PRESETS["grey-world"], np.ones((3, 3), bool))


# --- specs -------------------------------------------------------------------


def test_preset_catalog():
    def params(name):
        spec = PRESETS[name]
        return (spec.n, spec.p, spec.sigma)

    assert params("grey-world") == (0, 1.0, 0.0)
    assert params("white-patch") == (0, math.inf, 0.0)
    assert PRESETS["grey-edge-1"].n == 1
    assert PRESETS["grey-edge-2"].n == 2
    assert all(name == spec.name for name, spec in PRESETS.items())


def test_spec_from_string_presets_and_custom():
    assert spec_from_string("grey-world") == PRESETS["grey-world"]
    custom = spec_from_string("n=1,p=5,sigma=2")
    assert (custom.n, custom.p, custom.sigma) == (1, 5.0, 2.0)
    assert custom.name == "grey-edge-1(p=5,s=2)"
    inf_spec = spec_from_string("n=0,p=inf,sigma=0")
    assert math.isinf(inf_spec.p)
    assert inf_spec.name == "grey-world(p=inf,s=0)"
    with pytest.raises(ValueError, match="unknown estimator"):
        spec_from_string("bogus")
    with pytest.raises(ValueError):
        spec_from_string("n=5,p=1,sigma=0")


def test_spec_validation():
    with pytest.raises(ValueError):
        EstimatorSpec("x", 0, 0.5, 0.0)
    with pytest.raises(ValueError):
        EstimatorSpec("x", 0, 1.0, -1.0)
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma"):
            EstimatorSpec("x", 0, 1.0, sigma)
        with pytest.raises(ValueError, match="sigma"):
            spec_from_string(f"n=1,p=6,sigma={sigma}")


# --- masks -------------------------------------------------------------------


def test_saturation_mask_uses_raw_threshold():
    # The strict rule ground truth uses: a count at the level is kept.
    data = np.full((2, 2, 3), 100.0)
    data[0, 0, 1] = 3300.0
    data[1, 1, 2] = 3301.0
    mask = saturation_mask(LinearImage(data), 3300.0)
    assert mask[0, 0] and not mask[1, 1] and mask.sum() == 3


def test_chart_mask_excludes_dilated_quad():
    corners = [(10, 10), (20, 10), (20, 20), (10, 20)]
    mask = chart_region_mask(40, 40, corners, dilate_px=5)
    assert not mask[15, 15]  # inside the quad
    assert not mask[15, 24]  # within the 5 px dilation
    assert mask[15, 30]  # clear of it
    assert mask[0, 0]


# --- estimates CSV -----------------------------------------------------------


def test_estimates_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    rows = []
    for i in range(20):
        v = rng.uniform(0.01, 5.0, size=3)
        v /= np.linalg.norm(v)
        spec = PRESETS["grey-world"] if i % 2 else None
        rows.append(
            (IlluminantEstimate(image_id=f"im{i:02d}", algorithm="alg", rgb=tuple(v)), spec)
        )
    path = tmp_path / "est.csv"
    write_estimates(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == "image_id,algorithm,n,p,sigma,R,G,B"
    back = read_estimates(path)
    assert [e.image_id for e in back] == [r[0].image_id for r in rows]
    for (orig, _), parsed in zip(rows, back):
        # 9-significant-digit serialization; read re-normalizes the direction
        np.testing.assert_allclose(parsed.rgb, orig.rgb, rtol=5e-9, atol=1e-12)
        assert recovery_error(parsed.rgb, orig.rgb) < 1e-6


def test_estimates_csv_serializes_inf(tmp_path):
    est = estimate(random_image(RNG, 2, 2), PRESETS["white-patch"], image_id="a")
    path = tmp_path / "est.csv"
    write_estimates([(est, PRESETS["white-patch"])], path)
    assert ",inf," in path.read_text().splitlines()[1]
