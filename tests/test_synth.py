import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthcases
from chromabench import synth
from chromabench.chartgeom import (
    CANONICAL_CORNERS,
    CELL,
    CHART_COLS,
    CHART_ROWS,
    DEFAULT_HALF_SIZE,
    ChartLayout,
    apply_homography,
    default_corner_patch_centers,
    format_chart,
    read_chart_file,
)
from chromabench.estimators import PRESETS, estimate_many
from chromabench.groundtruth import decide, measure
from chromabench.imagecore import CameraProfile, load_counts
from chromabench.metrics import recovery_error


def test_render_formula_readout_exact():
    # Exact-arithmetic construction: binary-fraction reflectances, integer
    # exposure, translation pose; the white region equals the formula exactly.
    spec = synth.SceneSpec(
        illuminant=(1.0, 0.5, 0.25),
        exposure=4000.0,
        pose=synthcases.translation_pose(),
        reflectance_table=synthcases.exact_reflectance_table(),
    )
    scene = synth.render(spec)
    # white patch (index 18) center in image coords: (50 + 20, 350 + 40)
    region = scene.counts[380:400, 60:80]
    expected = np.array([1.0, 0.5, 0.25]) * 0.5 * 4000.0
    assert np.all(region == expected)


def test_black_level_is_a_floor():
    spec = synth.SceneSpec(black_level=129.0, exposure=1500.0)
    scene = synth.render(spec)
    assert scene.counts.min() >= 129


def test_noise_free_scene_is_deterministic():
    spec = synth.SceneSpec(illuminant=(0.7, 0.6, 0.5), noise_sigma=3.0, rng_seed=7)
    a = synth.render(spec)
    b = synth.render(spec)
    assert np.array_equal(a.counts, b.counts)
    assert a.chart_text == b.chart_text


def test_different_seeds_differ():
    base = dict(illuminant=(0.7, 0.6, 0.5), noise_sigma=3.0)
    a = synth.render(synth.SceneSpec(rng_seed=1, **base))
    b = synth.render(synth.SceneSpec(rng_seed=2, **base))
    assert not np.array_equal(a.counts, b.counts)


def test_exposure_escalation_never_unclips():
    table = synthcases.exact_reflectance_table()
    low_spec = synth.SceneSpec(exposure=7000.0, reflectance_table=table)
    high_spec = synth.SceneSpec(exposure=9000.0, reflectance_table=table)
    clipped_low = synth.render(low_spec).counts >= low_spec.clip_level
    clipped_high = synth.render(high_spec).counts >= high_spec.clip_level
    assert clipped_low.sum() > 0
    assert np.all(clipped_high[clipped_low])


def test_saturating_exposure_moves_selection_to_second_gray(tmp_path):
    # White clips above 4095 while the second gray stays linear.
    spec = synth.SceneSpec(
        illuminant=(1.0, 1.0, 1.0),
        exposure=9000.0,
        pose=synthcases.translation_pose(),
        reflectance_table=synthcases.exact_reflectance_table(),
    )
    scene = synth.render(spec)
    synth.write_scene(scene, tmp_path, "clip")
    counts, camera = load_counts(tmp_path / "clip.ppm")
    layout = read_chart_file(tmp_path / "clip.chart")
    record = decide(measure(counts, layout), camera, True, "clip")
    assert record.patch_index == 19
    np.testing.assert_allclose(record.illuminant, 0.25 * 9000.0)


def test_pose_outside_frame_rejected():
    pose = synth.pose_from_corners(CANONICAL_CORNERS + np.array([300.0, 0.0]))
    with pytest.raises(ValueError, match="inside the image"):
        synth.render(synth.SceneSpec(pose=pose))


def test_spec_validation():
    # The refusals that test_util's test of every record field makes are not repeated here.
    table = synth.DEFAULT_REFLECTANCES.copy()
    table[18] = (0.9, 0.8, 0.9)  # not gray
    with pytest.raises(ValueError, match="gray"):
        synth.SceneSpec(reflectance_table=table)
    table = synth.DEFAULT_REFLECTANCES.copy()
    table[19] = table[18]  # not strictly decreasing
    with pytest.raises(ValueError, match="decrease"):
        synth.SceneSpec(reflectance_table=table)
    with pytest.raises(ValueError, match="^illuminant must be > 0$"):
        synth.SceneSpec(illuminant=(1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="^background must be >= 0 and <= 1$"):
        synth.SceneSpec(background=(1.5, 0.5, 0.5))
    field = np.full((480, 640, 3), 0.5)
    field[7, 11, 2] = float("nan")
    with pytest.raises(ValueError, match="^background must be finite$"):
        synth.SceneSpec(background=field)
    with pytest.raises(ValueError, match=r"^background must be an array of shape \(3,\) or \(480, 640, 3\)"):
        synth.SceneSpec(background=field[:, :-1])
    for name, bad in (("width", 7), ("height", np.int64(4))):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 8$"):
            synth.SceneSpec(**{name: bad})
    assert synth.SceneSpec(width=np.int64(8), height=8, bit_depth=16).bit_depth == 16
    # The camera's rules hold where the spec is made, not first in render.
    with pytest.raises(ValueError, match="^saturation_level must exceed black_level$"):
        synth.SceneSpec(black_level=4000, saturation_level=3300)
    for bad in (None, 5):
        with pytest.raises(ValueError, match="^camera_id must be a string, got "):
            synth.SceneSpec(camera_id=bad)
    with pytest.raises(ValueError, match="^rng_seed must be an integer >= 0$"):
        synth.SceneSpec(rng_seed=-1)
    assert synth.SceneSpec(rng_seed=np.int64(0)).rng_seed == 0
    for clip in (0, 4096):
        with pytest.raises(ValueError, match="^clip_level must be > 0 and <= 4095$"):
            synth.SceneSpec(clip_level=clip)


def test_spec_refuses_an_integer_past_the_float_range_as_it_refuses_a_nan():
    # These said "int too large to convert to float", naming no field.  Every
    # scalar and (3,) field is in test_util's test of every record field; here
    # a (height, width, 3) field given as nested lists.
    huge = 10**400
    field = [[[0.5, 0.5, 0.5]] * 640] * 479 + [[[0.5, -huge, 0.5]] * 640]
    with pytest.raises(ValueError, match="^background must be finite$"):
        synth.SceneSpec(background=field)


def test_spec_leaves_the_callers_arrays_writable():
    table = synth.DEFAULT_REFLECTANCES.copy()
    background = np.full((480, 640, 3), 0.5)
    pose = synth.default_pose(640, 480)
    spec = synth.SceneSpec(pose=pose, reflectance_table=table, background=background)
    for name, mine in (("reflectance_table", table), ("background", background), ("pose", pose)):
        kept = getattr(spec, name)
        assert mine.flags.writeable and not kept.flags.writeable, name
        assert not np.shares_memory(kept, mine), name
        before = kept.copy()
        mine[0] = 0.25
        assert np.array_equal(kept, before), name


def test_spec_builds_the_camera_its_scene_carries():
    spec = synth.SceneSpec(
        black_level=129, saturation_level=3500.0, bit_depth=np.int64(14), camera_id="c"
    )
    assert spec.camera == CameraProfile("c", 129, 3500.0, 14)
    assert synth.render(spec).camera is spec.camera


def _render_full_frame(spec: synth.SceneSpec) -> synth.RenderedScene:
    """The whole-frame renderer that `synth.render` replaced, kept as its reference.

    Every pixel center of the frame goes through the inverse pose, and the
    counts come from one out-of-place expression over the whole frame.
    """
    pose = spec.pose if spec.pose is not None else synth.default_pose(spec.width, spec.height)
    layout = ChartLayout(
        apply_homography(pose, CANONICAL_CORNERS),
        default_corner_patch_centers(),
        DEFAULT_HALF_SIZE,
    )
    layout.check_in_frame(spec.height, spec.width)

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
    inside = (qx >= 0) & (qx < synth.CHART_W) & (qy >= 0) & (qy < synth.CHART_H)
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
        bit_depth=spec.bit_depth,
    )
    return synth.RenderedScene(
        counts=counts.astype(np.uint16),
        camera=camera,
        true_illuminant=spec.illuminant,
        chart_text=format_chart(layout),
    )


def _test_pose(rng, kind, width, height):
    """A chart pose of the given kind that fits a width x height frame."""
    if kind == "random":
        fit = min((width - 1) / (synth.CHART_W - 1), (height - 1) / (synth.CHART_H - 1))
        return synth.random_pose(
            rng, width, height, scale_range=(0.3 * fit, 0.7 * fit),
            jitter=0.05 * min(width, height),
        )
    frame = np.array([[0, 0], [width - 1, 0], [width - 1, height - 1], [0, height - 1]])
    inward = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    if kind == "edges":  # every side of the chart within 2 px of the frame's
        corners = frame + inward * rng.uniform(0.0, 2.0, size=(4, 2))
    else:  # strongly projective: each corner anywhere in its own third of the frame
        corners = frame + inward * rng.uniform(0.0, 1.0 / 3.0, size=(4, 2)) * (width - 1, height - 1)
    return synth.pose_from_corners(corners)


@pytest.mark.parametrize("height", [8, 63, 64, 65, 200])
@pytest.mark.parametrize("stripe_rows", [1, 7, 64])
@given(
    st.integers(8, 90),
    st.sampled_from(["random", "projective", "edges"]),
    st.booleans(),
    st.sampled_from([0.0, 0.7, 25.0]),
    st.sampled_from([None, 900.0]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=12, deadline=None)
def test_render_matches_the_full_frame_renderer_bit_for_bit(
    height, stripe_rows, width, pose_kind, field_background, noise_sigma, clip_level, seed
):
    rng = np.random.default_rng(seed)
    spec = synth.SceneSpec(
        illuminant=tuple(rng.uniform(0.2, 1.0, size=3)),
        pose=_test_pose(rng, pose_kind, width, height),
        width=width,
        height=height,
        exposure=float(rng.uniform(500.0, 4000.0)),
        background=(
            rng.uniform(0.0, 1.0, size=(height, width, 3))
            if field_background
            else tuple(rng.uniform(0.0, 1.0, size=3))
        ),
        black_level=float(rng.choice([0.0, 129.0])),
        noise_sigma=noise_sigma,
        clip_level=clip_level,
        rng_seed=int(rng.integers(0, 2**31)),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "_STRIPE_ROWS", stripe_rows)
        try:
            scene = synth.render(spec)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                _render_full_frame(spec)
            return
    expected = _render_full_frame(spec)
    assert scene.counts.dtype == np.uint16 and scene.counts.flags.c_contiguous
    assert scene.counts.tobytes() == expected.counts.tobytes()
    assert scene.chart_text == expected.chart_text
    assert scene.camera == expected.camera


def test_render_matches_the_full_frame_renderer_past_a_horizon_inside_the_chart():
    # The left edge is 1 px and the right 700 px, so the pose's horizon
    # crosses the canonical raster between x = CHART_W - 1 and CHART_W, and
    # the chart's image is not its corners' quad: the whole frame is mapped.
    corners = [[20.0, 400.0], [780.0, 50.0], [780.0, 750.0], [20.0, 401.0]]
    spec = synth.SceneSpec(pose=synth.pose_from_corners(corners), width=800, height=800)
    scene = synth.render(spec)
    assert scene.counts.tobytes() == _render_full_frame(spec).counts.tobytes()


def test_render_peak_memory_stays_under_two_frames():
    rng = np.random.default_rng(3)
    width, height = 1024, 768
    spec = synth.SceneSpec(
        illuminant=(0.8, 0.6, 0.4),
        pose=synth.random_pose(rng, width, height),
        width=width,
        height=height,
        background=rng.uniform(0.05, 0.9, size=(height, width, 3)),
        black_level=129.0,
        noise_sigma=2.0,
        rng_seed=11,
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        scene = synth.render(spec)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * height * width * 3 * 8  # two float64 frames


def test_round_trip_recovers_parallel_illuminant(tmp_path):
    rng = np.random.default_rng(17)
    for i, black in enumerate((0.0, 129.0)):
        spec, truth = synthcases.scene_for_target(
            rng.integers(1500, 2800, size=3).astype(float),
            synth.random_pose(rng),
            black_level=black,
            rng_seed=i,
        )
        scene = synth.render(spec)
        synth.write_scene(scene, tmp_path, f"rt{i}")
        counts, camera = load_counts(tmp_path / f"rt{i}.ppm")
        layout = read_chart_file(tmp_path / f"rt{i}.chart")
        record = decide(measure(counts, layout), camera, True, f"rt{i}")
        assert recovery_error(record.illuminant, truth) < 1e-6


def test_grayworld_scene_mean_is_parallel_to_illuminant():
    illum = np.array([0.8, 0.55, 0.3])
    img = synthcases.grayworld_image(illum, size=(48, 40), rng_seed=5)
    means = img.mean(axis=(0, 1))
    ratios = means / illum
    assert np.ptp(ratios) / ratios.mean() < 1e-12


def test_grayworld_scene_neutral_illuminant_gives_neutral_mean():
    img = synthcases.grayworld_image((1.0, 1.0, 1.0), rng_seed=3)
    means = img.mean(axis=(0, 1))
    assert np.ptp(means) / means.mean() < 1e-12


def test_grey_world_estimator_nails_grayworld_scene():
    illum = (0.9, 0.6, 0.35)
    rgb, problems = estimate_many(
        synthcases.grayworld_image(illum, rng_seed=11), [PRESETS["grey-world"]], None, 0.0
    )
    assert problems == {}
    assert recovery_error(rgb[0], illum) < 1e-6


def test_written_scene_files(tmp_path):
    scene = synth.render(synth.SceneSpec(rng_seed=2))
    path = synth.write_scene(scene, tmp_path, "files")
    assert path.exists()
    assert (tmp_path / "files.meta.json").exists()
    assert (tmp_path / "files.chart").exists()
    layout = read_chart_file(tmp_path / "files.chart")
    assert layout.half_size == 15
    assert layout.corner_patch_centers is not None
    written = (tmp_path / "files.chart").read_text(encoding="utf-8")
    assert written == scene.chart_text == format_chart(layout)
