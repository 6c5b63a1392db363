import dataclasses
import math
import pickle
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
    estimate_many,
    read_estimates,
    saturation_mask,
    spec_from_string,
    write_estimates,
)
from chromabench.imagecore import clipped
from chromabench.metrics import recovery_error

RNG = np.random.default_rng(99)


def random_image(rng, h=16, w=16, lo=1, hi=4000):
    """Raw uint16 (h, w, 3) counts drawn uniformly from lo..hi-1."""
    return rng.integers(lo, hi, size=(h, w, 3), dtype=np.uint16)


def estimate_one(counts, spec, mask=None):
    """One spec through the engine, as its unit RGB tuple; its problem is raised as a ValueError."""
    rgb, problems = estimate_many(counts, [spec], mask, 0.0)
    if problems:
        raise ValueError(problems[0])
    return tuple(rgb[0].tolist())


def smoothed(a, sigma):
    """A float64 copy of ``a`` blurred by the engine's in-place blur."""
    out = np.array(a, dtype=np.float64)
    estimators._smooth_in_place(out, sigma)
    return out


# --- smoothing ---------------------------------------------------------------


def test_sigma_zero_is_identity():
    channel = random_image(RNG)[:, :, 0].astype(np.float64)
    before = channel.tobytes()
    estimators._smooth_in_place(channel, 0.0)
    assert channel.tobytes() == before


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.5])
def test_constant_image_is_preserved(sigma):
    out = smoothed(np.full((12, 15), 42.0), sigma)
    assert out.shape == (12, 15)
    np.testing.assert_allclose(out, 42.0, atol=1e-12)


def test_impulse_center_matches_kernel_formula():
    sigma = 2.0
    data = np.zeros((21, 21))
    data[10, 10] = 1.0
    out = smoothed(data, sigma)
    # independent kernel evaluation
    radius = math.ceil(3 * sigma)
    k = np.exp(-np.arange(-radius, radius + 1) ** 2 / (2 * sigma**2))
    k /= k.sum()
    center_weight = k[radius] ** 2
    np.testing.assert_allclose(out[10, 10], center_weight, atol=1e-12)
    # mass is preserved away from borders
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)


def test_smooth_rejects_negative_sigma():
    # A spec is the only way a sigma reaches the blur, and specs refuse one below 0.
    with pytest.raises(ValueError, match="^sigma must be >= 0$"):
        EstimatorSpec("x", 1, 6.0, -1.0)
    with pytest.raises(ValueError, match="^sigma must be >= 0$"):
        spec_from_string("n=1,p=6,sigma=-0.5")


def test_smooth_rejects_sigma_past_the_longer_side():
    # The engine refuses the spec before it builds a kernel or blurs a channel.
    data = np.ones((4, 3, 3), dtype=np.uint16)
    np.testing.assert_allclose(smoothed(data[:, :, 0], 4.0 / 3.0), 1.0)  # 3*sigma == 4
    np.testing.assert_allclose(estimate_one(data, EstimatorSpec("x", 0, 1.0, 4.0 / 3.0)), 3**-0.5)
    for sigma in (1.34, 1e6, 1e300):
        with pytest.raises(ValueError, match=r"sigma=\S+ is too large for a 3x4 image"):
            estimate_one(data, EstimatorSpec("x", 0, 1.0, sigma))


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
        with pytest.raises(ValueError, match=r"^n must be an integer in 0\.\.2$"):
            EstimatorSpec("x", n, 1.0, 0.0)


def reference_blur(a, sigma):
    """The separable Gaussian blur through correlate1d, with a kernel of its own.

    Radius ceil(3*sigma), the sampled Gaussian normalized to sum 1.
    """
    radius = math.ceil(3 * sigma)
    # sigma * sigma, not sigma**2: libm's pow is not correctly rounded for
    # every sigma (3.1305814935315714 squares 1 ulp high through it).
    k = np.exp(-np.arange(-radius, radius + 1) ** 2 / (2 * (sigma * sigma)))
    k /= k.sum()
    return ndimage.correlate1d(ndimage.correlate1d(a, k, axis=1, mode="mirror"), k, axis=0, mode="mirror")


# The central-difference stencils of the first and second derivative.
_FIRST_DIFFERENCE = np.array([-0.5, 0.0, 0.5])
_SECOND_DIFFERENCE = np.array([1.0, -2.0, 1.0])


def reference_derivative(a, n):
    """The order-n magnitude through scipy's correlate1d with "mirror" edges."""

    def correlate(x, weights, axis):
        return ndimage.correlate1d(x, weights, axis=axis, mode="mirror")

    d1, d2 = _FIRST_DIFFERENCE, _SECOND_DIFFERENCE
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
@example(np.array([[-0.0, 0.0]]))  # length-2 axes: each edge reads the other element
@example(np.array([[0.0], [-0.0]]))
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
@example(np.array([[0.0] + [1.0] * 9]), 3.1305814935315714, 1)  # sigma**2 != sigma * sigma
@settings(max_examples=300, deadline=None)
def test_correlate_and_gaussian_smooth_match_correlate1d_bit_for_bit(a, sigma, stencil_rows):
    """`_correlate` and the blur through it are correlate1d's "mirror" correlation, to the bit."""
    kernel = estimators._gaussian_kernel(sigma)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimators, "_STENCIL_ROWS", stencil_rows)
        for weights in (_SECOND_DIFFERENCE, kernel):
            for axis in (0, 1):
                expected = ndimage.correlate1d(a, weights, axis=axis, mode="mirror")
                assert estimators._correlate(a, weights, axis).tobytes() == expected.tobytes()
        assert smoothed(a, sigma).tobytes() == reference_blur(a, sigma).tobytes()


# --- pooling -----------------------------------------------------------------


def pool(values, p):
    """The engine's pool of a copy of ``values``."""
    return estimators._pool(np.array(values, dtype=np.float64), p, scale_in_place=False)


def reference_pool(v, p):
    """((1/N) * sum v^p)^(1/p) of a nonempty float64 array as a plain expression; p = inf is the max."""
    if math.isinf(p):
        return float(v.max())
    if p == 1.0:
        return float(v.mean())
    vmax = float(v.max())
    return 0.0 if vmax == 0.0 else vmax * float(np.mean((v / vmax) ** p) ** (1.0 / p))


def test_pool_p2_fixture():
    assert pool([0.0, 2.0], 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)


@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=50))
def test_pool_p1_is_the_mean(values):
    assert pool(values, 1.0) == np.mean(values)


def test_pool_infinity_is_the_max():
    assert pool([1.0, 5.0, 3.0], math.inf) == 5.0


def test_pool_rejects_p_below_one():
    # A spec is the only way a p reaches the pool, and specs refuse one below 1.
    cases = {"n=0,p=0.5,sigma=0": ">= 1", "n=1,p=-1,sigma=2": ">= 1", "n=0,p=nan,sigma=0": "finite"}
    for text, rule in cases.items():
        with pytest.raises(ValueError, match=f"^p must be {rule}$"):
            spec_from_string(text)


@given(
    st.lists(st.floats(0.001, 4095, allow_nan=False), min_size=1, max_size=40),
    st.floats(1.0, 150.0),
)
def test_pool_never_overflows_and_bounds(values, p):
    out = pool(values, p)
    assert np.isfinite(out)
    assert min(values) - 1e-9 <= out <= max(values) + 1e-9


@given(
    st.lists(st.floats(0, 4095, allow_nan=False), min_size=1, max_size=300),
    st.sampled_from([1.5, 2.0, 3.0, 6.0, 41.0]),
)
def test_pool_in_place_power_matches_the_plain_expression_bit_for_bit(values, p):
    expected = reference_pool(np.asarray(values), p)
    assert pool(values, p) == expected
    scaled = np.array(values)
    assert estimators._pool(scaled, p, scale_in_place=True) == expected


def test_pool_leaves_its_argument_unchanged_unless_it_may_scale_it():
    values = random_image(RNG, h=12, w=9).astype(np.float64).ravel()
    before = values.tobytes()
    for p in (1.0, 2.0, 6.0, math.inf):
        estimators._pool(values, p, scale_in_place=False)
        assert values.tobytes() == before
    for p in (1.0, math.inf):  # nothing to scale
        estimators._pool(values, p, scale_in_place=True)
        assert values.tobytes() == before


# --- estimates ---------------------------------------------------------------


def test_grey_world_on_constant_color():
    img = np.tile(np.array([2, 4, 6], dtype=np.uint16), (8, 8, 1))
    est = estimate_one(img, PRESETS["grey-world"])
    expected = np.array([2.0, 4.0, 6.0]) / math.sqrt(56.0)
    np.testing.assert_allclose(est, expected, atol=1e-12)


def test_white_patch_takes_channel_maxima():
    data = np.zeros((1, 3, 3), dtype=np.uint16)
    data[0, 0] = [1, 0, 0]
    data[0, 1] = [0, 2, 0]
    data[0, 2] = [0, 0, 3]
    est = estimate_one(data, PRESETS["white-patch"])
    expected = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    np.testing.assert_allclose(est, expected, atol=1e-12)


def test_shades_of_grey_p1_equals_grey_world():
    img = random_image(RNG)
    a = estimate_one(img, EstimatorSpec("sog-p1", 0, 1.0, 0.0))
    b = estimate_one(img, PRESETS["grey-world"])
    assert a == b


def test_grey_world_matches_channel_means():
    for seed in range(10):
        img = random_image(np.random.default_rng(seed))
        est = estimate_one(img, PRESETS["grey-world"])
        means = img.mean(axis=(0, 1))
        np.testing.assert_allclose(est, means / np.linalg.norm(means), atol=1e-12)


def test_exposure_invariance():
    # Factors 0.1, 3 and 77 on multiples of 10 up to 840: every scaled count is exact in uint16.
    img = random_image(RNG, lo=1, hi=85) * 10
    for scaled in (img // 10, img * 3, img * 77):
        for spec in PRESETS.values():
            a = estimate_one(img, spec)
            b = estimate_one(scaled, spec)
            assert recovery_error(a, b) < 1e-9


def test_shades_of_grey_approaches_white_patch():
    for seed in range(5):
        img = random_image(np.random.default_rng(seed), h=32, w=32)
        sog = estimate_one(img, EstimatorSpec("sog100", 0, 100.0, 0.0))
        wp = estimate_one(img, PRESETS["white-patch"])
        assert recovery_error(sog, wp) < 0.5


def test_rectangular_mask_equals_crop():
    img = random_image(RNG, h=12, w=14)
    mask = np.zeros((12, 14), dtype=bool)
    mask[3:9, 2:11] = True
    cropped = img[3:9, 2:11]
    for name in ("grey-world", "white-patch", "shades-of-grey"):
        masked = estimate_one(img, PRESETS[name], mask)
        plain = estimate_one(cropped, PRESETS[name])
        assert masked == plain


def test_degenerate_zero_channel_rejected():
    data = np.ones((4, 4, 3), dtype=np.uint16)
    data[:, :, 2] = 0
    with pytest.raises(ValueError, match="degenerate estimate"):
        estimate_one(data, PRESETS["grey-world"])


def test_estimate_empty_mask_rejected():
    img = random_image(RNG, h=4, w=4)
    with pytest.raises(ValueError, match="empty mask"):
        estimate_one(img, PRESETS["grey-world"], np.zeros((4, 4), bool))


def test_estimate_mask_selects_pixels():
    data = np.ones((2, 2, 3), dtype=np.uint16)
    data[1, 1] = [100, 1, 1]
    assert estimate_one(data, PRESETS["white-patch"])[0] > 0.99
    mask = np.ones((2, 2), dtype=bool)
    mask[1, 1] = False  # leave the brightest pixel out
    masked = estimate_one(data, PRESETS["white-patch"], mask)
    np.testing.assert_allclose(masked, np.ones(3) / math.sqrt(3.0), atol=1e-12)


def test_mask_dimension_mismatch_rejected():
    img = random_image(RNG, h=4, w=4)
    with pytest.raises(ValueError, match="mask dimensions"):
        estimate_one(img, PRESETS["grey-world"], np.ones((3, 3), bool))


# --- several estimators in one pass ------------------------------------------


def whole_frame_estimate(counts, spec, mask, black_level=0.0):
    """One spec on the whole frame through scipy and plain numpy, independent of the engine.

    Linearise, blur and differentiate with correlate1d, gather, pool with the
    plain expression.  Returns the estimate, or the message of the error the
    spec raises.
    """
    height, width = counts.shape[:2]
    if 3.0 * spec.sigma > max(height, width):
        return (
            f"sigma={spec.sigma:g} is too large for a {width}x{height} image "
            "(3*sigma must not exceed the longer side)"
        )
    linear = np.maximum(counts.astype(np.float64) - black_level, 0.0)
    blurred = linear if spec.sigma == 0 else reference_blur(linear, spec.sigma)
    response = blurred if spec.n == 0 else reference_derivative(blurred, spec.n)
    channels = [response[:, :, c].ravel() if mask is None else response[:, :, c][mask] for c in range(3)]
    if channels[0].size == 0:
        return "empty mask: no values to pool"
    pooled = [reference_pool(channel, spec.p) for channel in channels]
    if 0.0 in pooled:
        return "degenerate estimate: zero channel under mask"
    return tuple((np.array(pooled) / np.linalg.norm(pooled)).tolist())


def outcomes(rgb, problems):
    """The engine's results as whole_frame_estimate reports them: each row's RGB, or its problem."""
    return [problems[i] if i in problems else tuple(row) for i, row in enumerate(rgb.tolist())]


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
    rgb, problems = estimate_many(img, specs, mask, 0.0)
    assert (rgb.shape, problems) == ((len(specs), 3), {})
    for spec, row in zip(specs, rgb.tolist()):
        one = estimate_one(img, spec, mask)
        assert tuple(row) == one
        assert one == whole_frame_estimate(img, spec, mask)


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
        results = outcomes(*estimate_many(data, specs, mask, 0.0))
        if 3.0 * sigma <= max(height, width):
            for c in range(3):
                channel = smoothed(data[:, :, c], sigma)
                for n in (0, 1, 2):
                    response = estimators._derivative(channel, n)
                    expected = response.ravel() if mask is None else response[mask]
                    gathered = estimators._gather(channel, n, mask)
                    assert gathered.tobytes() == expected.tobytes()
    for spec, result in zip(specs, results):
        expected = whole_frame_estimate(data, spec, mask)
        assert result == expected


def test_estimate_many_peak_memory_stays_under_one_frame():
    rng = np.random.default_rng(5)
    img = random_image(rng, h=1024, w=96)
    mask = rng.random((1024, 96)) < 0.9
    float64_frame = img.size * 8  # one float64 (H, W, 3) frame, four times the counts
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rgb, problems = estimate_many(img, list(PRESETS.values()), mask, 0.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert problems == {} and np.isfinite(rgb).all()
    assert peak < 1.0 * float64_frame


def test_estimate_many_shares_one_blur_per_sigma(monkeypatch):
    blurs = []
    smooth = estimators._smooth_in_place

    def recorded(channel, sigma):
        blurs.append((sigma, channel.shape))
        smooth(channel, sigma)

    monkeypatch.setattr(estimators, "_smooth_in_place", recorded)
    specs = list(PRESETS.values()) + [spec_from_string("n=1,p=2,sigma=1")]
    rgb, problems = estimate_many(random_image(RNG, h=16, w=12), specs, None, 0.0)
    assert problems == {} and np.isfinite(rgb).all()
    assert blurs == [(sigma, (16, 12)) for sigma in (0.0, 2.0, 1.0) for _ in range(3)]


def test_estimate_many_fails_only_the_specs_whose_sigma_is_too_large():
    img = random_image(RNG, h=4, w=5)
    specs = [
        PRESETS["grey-world"],
        spec_from_string("n=1,p=6,sigma=3"),
        PRESETS["white-patch"],
        spec_from_string("n=0,p=1,sigma=3"),
    ]
    rgb, problems = estimate_many(img, specs, None, 0.0)
    too_large = "sigma=3 is too large for a 5x4 image (3*sigma must not exceed the longer side)"
    assert problems == {1: too_large, 3: too_large}
    assert np.isnan(rgb[[1, 3]]).all()
    for i in (0, 2):
        assert tuple(rgb[i].tolist()) == estimate_one(img, specs[i])


def test_estimate_many_empty_mask_fails_every_spec():
    img = random_image(RNG, h=6, w=6)
    specs = list(PRESETS.values())
    for counts, mask in ((img, np.zeros((6, 6), bool)), (img[:0], None)):  # a frame with no rows
        rgb, problems = estimate_many(counts, specs, mask, 0.0)
        assert problems == dict.fromkeys(range(len(specs)), "empty mask: no values to pool")
        assert rgb.shape == (len(specs), 3) and np.isnan(rgb).all()


def test_a_frames_failures_cost_no_work(monkeypatch):
    calls = []
    smooth, gather = estimators._smooth_in_place, estimators._gather

    def recorded_smooth(channel, sigma):
        calls.append(("blur", sigma))
        smooth(channel, sigma)

    def recorded_gather(channel, n, mask):
        calls.append(("gather", n))
        return gather(channel, n, mask)

    monkeypatch.setattr(estimators, "_smooth_in_place", recorded_smooth)
    monkeypatch.setattr(estimators, "_gather", recorded_gather)
    img = random_image(RNG, h=6, w=5)
    too_large = spec_from_string("n=1,p=6,sigma=2.5")  # 7.5 > 6
    specs = [PRESETS["grey-world"], too_large, PRESETS["grey-edge-1"]]
    # An empty mask fails every spec before any blur or gather; the size rule comes first.
    rgb, problems = estimate_many(img, specs, np.zeros((6, 5), bool), 0.0)
    assert calls == []
    assert problems == {
        0: "empty mask: no values to pool",
        1: "sigma=2.5 is too large for a 5x6 image (3*sigma must not exceed the longer side)",
        2: "empty mask: no values to pool",
    }
    # A sigma too large for the frame is never blurred; the other specs run.
    rgb, problems = estimate_many(img, specs, None, 0.0)
    assert list(problems) == [1]
    assert calls == [step for _ in range(3) for step in (("blur", 0.0), ("gather", 0))] + [
        step for _ in range(3) for step in (("blur", 2.0), ("gather", 1))
    ]
    assert np.isfinite(rgb[[0, 2]]).all() and np.isnan(rgb[1]).all()


def test_estimate_many_zero_channel_fails_only_its_specs():
    data = random_image(RNG, h=8, w=8)
    data[:, :, 2] = 7  # no blue edges: every derivative spec is degenerate
    specs = [PRESETS["grey-edge-1"], PRESETS["grey-world"], PRESETS["grey-edge-2"]]
    rgb, problems = estimate_many(data, specs, None, 0.0)
    degenerate = "degenerate estimate: zero channel under mask"
    assert problems == {0: degenerate, 2: degenerate}
    assert np.isfinite(rgb[1]).all() and np.isnan(rgb[[0, 2]]).all()


def no_smoothing(channel, sigma):
    raise AssertionError("smoothed before the input was checked")


def test_estimate_many_checks_the_mask_before_smoothing(monkeypatch):
    monkeypatch.setattr(estimators, "_smooth_in_place", no_smoothing)
    with pytest.raises(ValueError, match="mask dimensions must match the image"):
        estimate_many(
            random_image(RNG, h=4, w=4), list(PRESETS.values()), np.ones((4, 5), bool), 0.0
        )


def test_estimate_many_takes_only_uint16_h_w_3_counts(monkeypatch):
    # Float, signed, narrower and byte-swapped counts, and any other shape, are
    # refused with save_image's message before any channel is smoothed.
    monkeypatch.setattr(estimators, "_smooth_in_place", no_smoothing)
    frames = [np.ones((4, 4, 3), dtype) for dtype in (np.float64, np.int32, np.uint8, ">u2")]
    frames += [np.ones(shape, np.uint16) for shape in ((4, 4), (4, 4, 4), (4, 4, 3, 1))]
    for counts in frames:
        with pytest.raises(ValueError, match=r"^counts must be a uint16 \(H, W, 3\) array$"):
            estimate_many(counts, list(PRESETS.values()), None, 0.0)


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
    got = estimate_many(counts, specs, mask, black_level)
    want = [whole_frame_estimate(counts, spec, mask, black_level) for spec in specs]
    assert outcomes(*got) == want


def test_estimate_many_leaves_the_counts_and_mask_unchanged():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 4096, size=(30, 20, 3), dtype=np.uint16)
    mask = rng.random((30, 20)) < 0.8
    specs = list(PRESETS.values()) + [spec_from_string("n=1,p=3,sigma=1")]
    for level in (129.0, 0.0):
        before = (counts.tobytes(), mask.tobytes())
        rgb, problems = estimate_many(counts, specs, mask, level)
        assert problems == {} and np.isfinite(rgb).all()
        assert (counts.tobytes(), mask.tobytes()) == before


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


def test_spec_labels_keep_their_parameters(tmp_path):
    # A label carries p and sigma as the CSV's p and sigma columns do, to nine
    # significant digits, so specs that differ past the sixth digit stay apart.
    texts = ["n=1,p=5,sigma=2", "n=1,p=5.0000001,sigma=2", "n=0,p=1234567,sigma=0.125"]
    specs = [spec_from_string(text) for text in texts]
    assert [spec.name for spec in specs] == [
        "grey-edge-1(p=5,s=2)",
        "grey-edge-1(p=5.0000001,s=2)",
        "grey-world(p=1234567,s=0.125)",
    ]
    estimate = IlluminantEstimate("im", "x", (0.6, 0.8, 0.0))
    path = tmp_path / "est.csv"
    write_estimates([(estimate, spec) for spec in specs], path)
    for spec, line in zip(specs, path.read_text().splitlines()[1:]):
        p, sigma = line.split(",")[3:5]
        assert spec.name.endswith(f"(p={p},s={sigma})")


def test_spec_from_string_rejects_a_repeated_parameter():
    for text in ("n=1,p=2,n=2", "n=1, sigma=1 ,p=2,sigma=1"):
        with pytest.raises(ValueError, match="estimator spec repeats"):
            spec_from_string(text)


def test_spec_validation():
    # EstimatorSpec's own refusals are in test_util's test of every record field.
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^sigma must be finite$"):
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
    keys, rgb = read_estimates(path)
    assert keys == [(r[0].image_id, r[0].algorithm) for r in rows]  # file order
    assert rgb.dtype == np.float64 and rgb.shape == (len(rows), 3)
    for (orig, _), line, parsed in zip(rows, path.read_text().splitlines()[1:], rgb):
        # 9-significant-digit serialization; read re-normalizes the direction
        np.testing.assert_allclose(parsed, orig.rgb, rtol=5e-9, atol=1e-12)
        assert recovery_error(parsed, orig.rgb) < 1e-6
        v = np.array([float(c) for c in line.split(",")[5:]])
        assert parsed.tobytes() == (v / np.linalg.norm(v)).tobytes()


def test_estimates_csv_serializes_inf(tmp_path):
    rgb, _ = estimate_many(random_image(RNG, 2, 2), [PRESETS["white-patch"]], None, 0.0)
    est = IlluminantEstimate("a", "white-patch", tuple(rgb[0].tolist()))
    path = tmp_path / "est.csv"
    write_estimates([(est, PRESETS["white-patch"])], path)
    assert ",inf," in path.read_text().splitlines()[1]


def test_an_estimate_survives_a_pickle_round_trip_and_stays_frozen():
    # ``estimate --jobs 2`` returns estimates from its pool workers by pickle.
    est = IlluminantEstimate("im", "alg", (0.6, 0.8, 0.0))
    back = pickle.loads(pickle.dumps(est))
    assert back == est and back.rgb == (0.6, 0.8, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        back.rgb = (1.0, 0.0, 0.0)
    assert not hasattr(est, "__dict__")  # slots: no per-record dict
