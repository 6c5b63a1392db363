import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from chromabench import estimators
from chromabench.chartgeom import ChartLayout
from chromabench.estimators import (
    EstimatorSpec,
    IlluminantEstimate,
    PRESETS,
    chart_region_mask,
    estimate,
    estimate_many,
    gaussian_smooth,
    minkowski_pool,
    read_estimates,
    saturation_mask,
    spec_from_string,
    write_estimates,
)
from chromabench.imagecore import clipped, normalize_estimate, subtract_black_level
from chromabench.metrics import recovery_error

RNG = np.random.default_rng(99)


def random_image(rng, h=16, w=16, lo=1.0, hi=4000.0):
    return rng.uniform(lo, hi, size=(h, w, 3))


# --- smoothing ---------------------------------------------------------------


def test_sigma_zero_is_identity():
    data = random_image(RNG)
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
    out = estimators._derivative(np.full((10, 10, 3), 9.0), 1)
    assert out.shape == (10, 10, 3)
    assert np.all(out == 0.0)


def test_first_order_on_ramp_is_slope():
    out = estimators._derivative(ramp_image(3.0), 1)
    np.testing.assert_allclose(out[1:-1, 1:-1], 3.0, atol=1e-12)


def test_second_order_on_ramp_is_zero():
    out = estimators._derivative(ramp_image(3.0), 2)
    np.testing.assert_allclose(out[2:-2, 2:-2], 0.0, atol=1e-9)


def test_bad_order_rejected():
    # Orders are checked once, where a spec is made; the engine trusts them.
    for n in (-1, 3):
        with pytest.raises(ValueError, match=r"^derivative order n must be 0, 1 or 2$"):
            EstimatorSpec("x", n, 1.0, 0.0)


def reference_derivative(a, n):
    """The order-n magnitude through scipy's correlate1d with "mirror" edges."""

    def correlate(x, weights, axis):
        return ndimage.correlate1d(x, np.array(weights), axis=axis, mode="mirror")

    d1, d2 = [-0.5, 0.0, 0.5], [1.0, -2.0, 1.0]
    if n == 1:
        fx = correlate(a, d1, axis=1)
        fy = correlate(a, d1, axis=0)
        return np.sqrt(fx * fx + fy * fy)
    fxx = correlate(a, d2, axis=1)
    fyy = correlate(a, d2, axis=0)
    fxy = correlate(correlate(a, d1, axis=1), d1, axis=0)
    return np.sqrt(fxx * fxx + 2.0 * fxy * fxy + fyy * fyy)


stencil_inputs = st.tuples(st.integers(1, 9), st.integers(1, 9), st.booleans()).flatmap(
    lambda hwc: hnp.arrays(
        np.float64,
        hwc[:2] + ((3,) if hwc[2] else ()),
        elements=st.floats(-1e9, 1e9, width=64)
        | st.sampled_from([0.0, -0.0, 1.0, -1.0]),  # ties between neighbours, signed zeros
    )
)


@given(stencil_inputs)
@example(np.array([[-0.0]]))
@example(np.array([[3.0, -0.0, -2.5, 0.0]]))
@example(np.array([[1.0], [-0.0], [0.0], [-4.0]]))
@example(np.array([[[-1.0, 0.0, -0.0]]]))
@settings(max_examples=500)
def test_sliced_stencils_match_correlate1d_bit_for_bit(a):
    for n in (1, 2):
        assert estimators._derivative(a, n).tobytes() == reference_derivative(a, n).tobytes()


correlate_inputs = st.tuples(st.integers(1, 24), st.integers(1, 24), st.booleans()).flatmap(
    lambda hwc: hnp.arrays(
        np.float64,
        hwc[:2] + ((3,) if hwc[2] else ()),
        elements=st.floats(-1e9, 1e9, width=64) | st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    )
)


@given(correlate_inputs, st.floats(0.3, 8.0), st.sampled_from([1, 2, 3, 5, 16, 40]))
@example(np.array([[-0.0]]), 0.5, 1)  # 1x1: every index reads itself
@example(np.array([[3.0, -0.0, -2.5, 0.0, 7.0]]), 2.0, 1)  # 1xk, a radius past the width
@example(np.array([[1.0], [-0.0], [0.0], [-4.0]]), 8.0, 2)  # kx1, a radius past the height
@example(-np.arange(60.0).reshape(4, 5, 3), 1.2, 3)  # (H, W, 3)
@settings(max_examples=300, deadline=None)
def test_correlate_and_gaussian_smooth_match_correlate1d_bit_for_bit(a, sigma, stencil_rows):
    """`_correlate` and the blur through it are correlate1d's "mirror" correlation, to the bit."""
    kernel = estimators._gaussian_kernel(sigma)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimators, "_STENCIL_ROWS", stencil_rows)
        for weights in (estimators._FIRST_DIFFERENCE, estimators._SECOND_DIFFERENCE, kernel):
            for axis in (0, 1):
                expected = ndimage.correlate1d(a, weights, axis=axis, mode="mirror")
                assert estimators._correlate(a, weights, axis).tobytes() == expected.tobytes()
        if 3.0 * sigma > max(a.shape[:2]):
            with pytest.raises(ValueError, match="too large"):
                gaussian_smooth(a, sigma)
        else:
            expected = ndimage.correlate1d(
                ndimage.correlate1d(a, kernel, axis=1, mode="mirror"), kernel, axis=0, mode="mirror"
            )
            assert gaussian_smooth(a, sigma).tobytes() == expected.tobytes()


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


@given(
    st.lists(st.floats(0, 4095, allow_nan=False), min_size=1, max_size=300),
    st.sampled_from([1.5, 2.0, 3.0, 6.0, 41.0]),
)
def test_pool_in_place_power_matches_the_plain_expression_bit_for_bit(values, p):
    v = np.asarray(values)
    vmax = float(v.max())
    expected = 0.0 if vmax == 0.0 else vmax * float(np.mean((v / vmax) ** p) ** (1.0 / p))
    assert minkowski_pool(values, p) == expected


# --- estimates ---------------------------------------------------------------


def test_grey_world_on_constant_color():
    img = np.tile(np.array([2.0, 4.0, 6.0]), (8, 8, 1))
    est = estimate(img, PRESETS["grey-world"])
    expected = np.array([2.0, 4.0, 6.0]) / math.sqrt(56.0)
    np.testing.assert_allclose(est.rgb, expected, atol=1e-12)


def test_white_patch_takes_channel_maxima():
    data = np.zeros((1, 3, 3))
    data[0, 0] = [1, 0, 0]
    data[0, 1] = [0, 2, 0]
    data[0, 2] = [0, 0, 3]
    est = estimate(data, PRESETS["white-patch"])
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
        means = img.mean(axis=(0, 1))
        np.testing.assert_allclose(est.rgb, means / np.linalg.norm(means), atol=1e-12)


def test_exposure_invariance():
    img = random_image(RNG, lo=1.0, hi=50.0)
    for alpha in (0.1, 3.0, 77.0):
        scaled = img * alpha
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
    cropped = img[3:9, 2:11]
    for name in ("grey-world", "white-patch", "shades-of-grey"):
        masked = estimate(img, PRESETS[name], mask)
        plain = estimate(cropped, PRESETS[name])
        assert masked.rgb == plain.rgb


def test_degenerate_zero_channel_rejected():
    data = np.ones((4, 4, 3))
    data[:, :, 2] = 0.0
    with pytest.raises(ValueError, match="degenerate estimate"):
        estimate(data, PRESETS["grey-world"])


def test_estimate_empty_mask_rejected():
    img = random_image(RNG, h=4, w=4)
    with pytest.raises(ValueError, match="empty mask"):
        estimate(img, PRESETS["grey-world"], np.zeros((4, 4), bool))


def test_estimate_mask_selects_pixels():
    data = np.ones((2, 2, 3))
    data[1, 1] = [100.0, 1.0, 1.0]
    assert estimate(data, PRESETS["white-patch"]).rgb[0] > 0.99
    mask = np.ones((2, 2), dtype=bool)
    mask[1, 1] = False  # leave the brightest pixel out
    masked = estimate(data, PRESETS["white-patch"], mask)
    np.testing.assert_allclose(masked.rgb, np.ones(3) / math.sqrt(3.0), atol=1e-12)


def test_mask_dimension_mismatch_rejected():
    img = random_image(RNG, h=4, w=4)
    with pytest.raises(ValueError, match="mask dimensions"):
        estimate(img, PRESETS["grey-world"], np.ones((3, 3), bool))


# --- several estimators in one pass ------------------------------------------


def whole_frame_estimate(data, spec, mask):
    """One spec on the whole frame: smooth, differentiate with correlate1d, gather, pool.

    Returns the estimate, or the message of the error the spec raises.
    """
    try:
        smoothed = gaussian_smooth(data, spec.sigma)
    except ValueError as exc:
        return str(exc)
    response = smoothed if spec.n == 0 else reference_derivative(smoothed, spec.n)
    channels = [response[:, :, c].ravel() if mask is None else response[:, :, c][mask] for c in range(3)]
    try:
        pooled = [minkowski_pool(channel, spec.p) for channel in channels]
    except ValueError as exc:
        return str(exc)
    if 0.0 in pooled:
        return "degenerate estimate: zero channel under mask"
    return tuple(float(v) for v in normalize_estimate(pooled))


def outcome(result):
    """An engine result as whole_frame_estimate reports it: the RGB, or the error message."""
    return str(result) if isinstance(result, ValueError) else result.rgb


engine_specs = st.lists(
    st.builds(
        "n={},p={},sigma={}".format,
        st.sampled_from([0, 1, 2]),
        st.sampled_from(["1", "6", "inf"]),
        st.sampled_from([0, 0.5, 2]),
    ).map(spec_from_string)
    | st.sampled_from(list(PRESETS.values())),
    min_size=1,
    max_size=8,
    unique_by=lambda spec: spec.name,
)


@given(engine_specs, st.integers(0, 2**32 - 1), st.booleans())
def test_estimate_many_matches_estimate_per_spec(specs, seed, masked):
    rng = np.random.default_rng(seed)
    img = random_image(rng, h=11, w=13)
    mask = rng.random((11, 13)) < 0.7 if masked else None
    if mask is not None:
        mask[5, 6] = True  # never empty
    results = estimate_many(img, specs, mask, image_id="im")
    assert len(results) == len(specs)
    for spec, result in zip(specs, results):
        one = estimate(img, spec, mask, image_id="im")
        assert (result.image_id, result.algorithm, result.rgb) == ("im", spec.name, one.rgb)
        assert one.rgb == whole_frame_estimate(img, spec, mask)


@given(
    st.integers(1, 40),
    st.integers(1, 20),
    st.sampled_from([0, 0.5, 1, 2, 3]),
    st.sampled_from([1, 2, 3, 7, 41]),
    st.sampled_from(["none", "pixels", "rows"]),
    st.integers(0, 2**32 - 1),
)
@example(1, 5, 0.5, 1, "none", 0)  # a one-row frame: its own mirror row
@example(2, 4, 1, 1, "rows", 1)  # one-row stripes, each edge the other's mirror
@example(40, 20, 3, 7, "rows", 2)
@settings(max_examples=200, deadline=None)
def test_striped_pass_matches_the_whole_frame_bit_for_bit(
    height, width, sigma, stripe_rows, mask_kind, seed
):
    rng = np.random.default_rng(seed)
    data = random_image(rng, h=height, w=width)
    mask = None
    if mask_kind != "none":
        mask = rng.random((height, width)) < 0.8
    if mask_kind == "rows":  # whole stripes with nothing to gather
        mask &= (rng.random(height) < 0.5)[:, None]
    specs = [
        spec_from_string(f"n={n},p={p},sigma={sigma}") for n in (0, 1, 2) for p in ("1", "6", "inf")
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimators, "_STRIPE_ROWS", stripe_rows)
        results = estimate_many(data, specs, mask)
        if 3.0 * sigma <= max(height, width):
            for c in range(3):
                smoothed = gaussian_smooth(data[:, :, c], sigma)
                for n in (0, 1, 2):
                    response = estimators._derivative(smoothed, n)
                    expected = response.ravel() if mask is None else response[mask]
                    gathered = estimators._gather(smoothed, n, mask)
                    assert gathered.tobytes() == expected.tobytes()
    for spec, result in zip(specs, results):
        expected = whole_frame_estimate(data, spec, mask)
        assert outcome(result) == expected


def test_estimate_many_peak_memory_stays_under_one_frame():
    rng = np.random.default_rng(5)
    img = random_image(rng, h=1024, w=96)
    mask = rng.random((1024, 96)) < 0.9
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        results = estimate_many(img, list(PRESETS.values()), mask)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert all(isinstance(r, IlluminantEstimate) for r in results)
    assert peak < 1.0 * img.nbytes


def test_estimate_many_shares_one_blur_per_sigma(monkeypatch):
    blurs = []
    smooth = estimators._smooth_in_place

    def recorded(channel, sigma):
        blurs.append((sigma, channel.shape))
        smooth(channel, sigma)

    monkeypatch.setattr(estimators, "_smooth_in_place", recorded)
    specs = list(PRESETS.values()) + [spec_from_string("n=1,p=2,sigma=1")]
    results = estimate_many(random_image(RNG, h=16, w=12), specs)
    assert all(isinstance(r, IlluminantEstimate) for r in results)
    assert blurs == [(sigma, (16, 12)) for sigma in (0.0, 2.0, 1.0) for _ in range(3)]


def test_estimate_many_fails_only_the_specs_whose_sigma_is_too_large():
    img = random_image(RNG, h=4, w=5)
    specs = [
        PRESETS["grey-world"],
        spec_from_string("n=1,p=6,sigma=3"),
        PRESETS["white-patch"],
        spec_from_string("n=0,p=1,sigma=3"),
    ]
    results = estimate_many(img, specs)
    for i in (1, 3):
        assert isinstance(results[i], ValueError)
        assert str(results[i]) == (
            "sigma=3 is too large for a 5x4 image (3*sigma must not exceed the longer side)"
        )
    for i in (0, 2):
        assert results[i].rgb == estimate(img, specs[i]).rgb


def test_estimate_many_empty_mask_fails_every_spec():
    img = random_image(RNG, h=6, w=6)
    specs = list(PRESETS.values())
    results = estimate_many(img, specs, np.zeros((6, 6), bool))
    assert [str(r) for r in results] == ["empty mask: no values to pool"] * len(specs)
    assert all(isinstance(r, ValueError) for r in results)


def test_estimate_many_zero_channel_fails_only_its_specs():
    data = random_image(RNG, h=8, w=8)
    data[:, :, 2] = 7.0  # no blue edges: every derivative spec is degenerate
    specs = [PRESETS["grey-edge-1"], PRESETS["grey-world"], PRESETS["grey-edge-2"]]
    results = estimate_many(data, specs)
    assert isinstance(results[1], IlluminantEstimate)
    for i in (0, 2):
        assert isinstance(results[i], ValueError)
        assert str(results[i]) == "degenerate estimate: zero channel under mask"


def test_estimate_many_checks_the_mask_before_smoothing(monkeypatch):
    def no_smoothing(channel, sigma):
        raise AssertionError("smoothed before the mask was checked")

    monkeypatch.setattr(estimators, "_smooth_in_place", no_smoothing)
    with pytest.raises(ValueError, match="mask dimensions must match the image"):
        estimate_many(random_image(RNG, h=4, w=4), list(PRESETS.values()), np.ones((4, 5), bool))
    for shape in ((4, 4), (4, 4, 4), (4, 4, 3, 1)):
        with pytest.raises(ValueError, match=r"image data must have shape \(H, W, 3\)"):
            estimate_many(np.ones(shape), list(PRESETS.values()))


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1.0, 129.0, 600.5]),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_uint16_counts_estimate_as_the_linear_float_frame(seed, black_level, masked):
    """Linearising inside the engine, a channel at a time, is the whole-frame subtraction."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4096, size=(14, 12, 3), dtype=np.uint16)
    mask = rng.random((14, 12)) < 0.8 if masked else None
    # Two finite p > 1 share each sigma's n = 0 gather, and two share n = 1's.
    specs = list(PRESETS.values()) + [
        spec_from_string(text) for text in ("n=0,p=2,sigma=0", "n=1,p=3,sigma=2", "n=0,p=4,sigma=2")
    ]
    linear = subtract_black_level(counts.astype(np.float64), black_level)
    got = estimate_many(counts, specs, mask, black_level=black_level)
    want = estimate_many(linear, specs, mask)
    assert [outcome(r) for r in got] == [outcome(r) for r in want]
    assert [outcome(r) for r in want] == [whole_frame_estimate(linear, spec, mask) for spec in specs]


@pytest.mark.parametrize(
    "bad, message",
    [
        (-1.0, "image contains negative digital counts"),
        (math.nan, "image contains non-finite values"),
        (math.inf, "image contains non-finite values"),
    ],
)
def test_estimate_many_rejects_a_bad_float_sample_for_every_spec(bad, message):
    data = random_image(RNG, h=10, w=10)
    data[4, 7, 1] = bad
    specs = list(PRESETS.values())
    with pytest.raises(ValueError, match=message):
        estimate_many(data, specs)
    for spec in specs:  # each spec alone, the derivative ones included
        with pytest.raises(ValueError, match=message):
            estimate(data, spec)
    if math.isfinite(bad):  # signed integer counts are checked too
        with pytest.raises(ValueError, match=message):
            estimate_many(data.astype(np.int32), specs)


def test_estimate_many_leaves_the_counts_and_mask_unchanged():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 4096, size=(30, 20, 3), dtype=np.uint16)
    data = counts.astype(np.float64)
    mask = rng.random((30, 20)) < 0.8
    specs = list(PRESETS.values()) + [spec_from_string("n=1,p=3,sigma=1")]
    for image, level in ((counts, 129.0), (data, 0.0)):
        before = (image.tobytes(), mask.tobytes())
        results = estimate_many(image, specs, mask, black_level=level)
        assert all(isinstance(r, IlluminantEstimate) for r in results)
        assert (image.tobytes(), mask.tobytes()) == before


def test_smoothing_and_pooling_leave_their_argument_unchanged():
    data = random_image(RNG, h=12, w=9)
    for sigma in (0.0, 1.0):
        before = data.tobytes()
        gaussian_smooth(data, sigma)
        gaussian_smooth(data[:, :, 0], sigma)
        assert data.tobytes() == before
    values = data.ravel()
    for p in (1.0, 2.0, 6.0, math.inf):
        before = values.tobytes()
        minkowski_pool(values, p)
        assert values.tobytes() == before


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


def test_spec_from_string_rejects_a_repeated_parameter():
    for text in ("n=1,p=2,n=2", "n=1, sigma=1 ,p=2,sigma=1"):
        with pytest.raises(ValueError, match="estimator spec repeats"):
            spec_from_string(text)


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
    mask = saturation_mask(data, 3300.0)
    assert mask[0, 0] and not mask[1, 1] and mask.sum() == 3


@given(
    hnp.arrays(np.uint16, st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(3))),
    st.integers(0, 2**32 - 1),
)
def test_saturation_mask_on_uint16_counts_is_the_float_masks(counts, seed):
    rng = np.random.default_rng(seed)
    sample = float(counts.flat[rng.integers(counts.size)])
    data = counts.astype(np.float64)
    # A level equal to a sample keeps that sample under `>`; a fractional one
    # falls between two counts.
    for level in (sample, sample + 0.5, sample - 0.25, 3300.0):
        got = saturation_mask(counts, level)
        assert got.tobytes() == saturation_mask(data, level).tobytes()
    assert saturation_mask(counts, sample)[np.all(counts <= sample, axis=2)].all()


@given(
    st.integers(1, 16),
    st.tuples(st.integers(1, 7), st.integers(1, 7)),
    st.integers(0, 2**32 - 1),
)
def test_saturation_mask_is_the_any_channel_rule(bit_depth, shape, seed):
    # The per-channel ANDs give the booleans of one reduction over all three
    # channels, on counts at, just below and just above the level, at 0 and
    # at the bit depth's maximum.
    top = 2**bit_depth - 1
    rng = np.random.default_rng(seed)
    level = int(rng.integers(0, top + 1))
    values = np.clip([0, level - 1, level, level + 1, top], 0, top)
    counts = rng.choice(values, size=(*shape, 3)).astype(np.uint16)
    for data in (counts, counts.astype(np.float64)):
        expected = ~np.any(clipped(data, float(level)), axis=2)
        assert saturation_mask(data, float(level)).tobytes() == expected.tobytes()


def test_chart_mask_excludes_dilated_quad():
    layout = ChartLayout([(10, 10), (20, 10), (20, 20), (10, 20)])
    mask = chart_region_mask(40, 40, layout)
    assert not mask[15, 15]  # inside the quad
    assert not mask[15, 24]  # within the 5 px dilation
    assert mask[15, 30]  # clear of it
    assert mask[0, 0]


def test_chart_mask_is_the_same_for_both_windings():
    corners = np.array([(12.5, 6), (33, 9.25), (30, 27), (7, 22.5)])
    clockwise = chart_region_mask(36, 40, ChartLayout(corners))
    counter = chart_region_mask(36, 40, ChartLayout(corners[::-1]))
    assert np.array_equal(clockwise, counter) and not clockwise[15, 20]


def test_chart_mask_rejects_a_chart_outside_the_frame():
    layout = ChartLayout([(10, 10), (40, 10), (40, 20), (10, 20)])
    with pytest.raises(ValueError, match="chart corners must lie inside the image"):
        chart_region_mask(40, 40, layout)


def reference_chart_mask(height, width, corners):
    """The chart mask over the whole frame: half-plane tests, then an 11x11 dilation."""
    (ax, ay), (bx, by), (cx, cy) = corners[:3]
    orientation = 1.0 if (bx - ax) * (cy - by) - (by - ay) * (cx - bx) > 0 else -1.0
    ys, xs = np.mgrid[0:height, 0:width]
    inside = np.ones((height, width), dtype=bool)
    for i in range(4):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % 4]
        inside &= orientation * ((bx - ax) * (ys - ay) - (by - ay) * (xs - ax)) >= 0
    return ~ndimage.binary_dilation(inside, structure=np.ones((11, 11), bool))


def random_convex_quads(rng, height, width, count):
    """Seeded convex quads, one corner in each quarter of a random box in the frame.

    Half the box sides lie within the 5 px margin of the frame edge, and half
    the corners sit on the box corner itself, so the margin often reaches it.
    """

    def inset(span):
        return rng.uniform(0, min(4.0, span / 4) if rng.random() < 0.5 else span / 4)

    def jitter(half):
        return rng.uniform(0, half) if rng.random() < 0.5 else 0.0

    quads = []
    while len(quads) < count:
        x0, y0 = inset(width - 1), inset(height - 1)
        x1, y1 = width - 1 - inset(width - 1), height - 1 - inset(height - 1)
        mx, my = (x1 - x0) / 2, (y1 - y0) / 2
        corners = np.array([
            (x0 + jitter(mx), y0 + jitter(my)),
            (x1 - jitter(mx), y0 + jitter(my)),
            (x1 - jitter(mx), y1 - jitter(my)),
            (x0 + jitter(mx), y1 - jitter(my)),
        ])
        if rng.random() < 0.5:
            corners = np.round(corners)  # a corner on a pixel center is inside
        try:
            ChartLayout(corners)
        except ValueError:
            continue  # not convex, or three corners collinear
        quads.append(corners)
    return quads


@pytest.mark.parametrize("height, width", [(60, 80), (41, 37), (7, 9)])
def test_chart_mask_matches_a_full_frame_dilation(height, width):
    rng = np.random.default_rng(height * 1000 + width)
    quads = random_convex_quads(rng, height, width, 40)
    near = np.array([[q[:, 0].min() < 5, q[:, 1].min() < 5,
                      q[:, 0].max() > width - 6, q[:, 1].max() > height - 6] for q in quads])
    assert near.any(axis=0).all()  # the margin reaches every frame edge at least once
    for corners in quads:
        for wound in (corners, corners[::-1]):
            expected = reference_chart_mask(height, width, wound)
            assert np.array_equal(chart_region_mask(height, width, ChartLayout(wound)), expected)


def test_chart_mask_on_a_tiny_frame():
    layout = ChartLayout([(0, 0), (3, 0.5), (3, 2), (0.5, 2)])
    expected = reference_chart_mask(3, 4, layout.corners)
    assert np.array_equal(chart_region_mask(3, 4, layout), expected) and not expected.any()


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
