import numpy as np
import pytest

import synthcases
from chromabench import synth
from chromabench.chartgeom import format_chart, read_chart_file
from chromabench.estimators import PRESETS, estimate
from chromabench.groundtruth import compute_ground_truth
from chromabench.imagecore import load_image
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
    region = scene.image.data[380:400, 60:80]
    expected = np.array([1.0, 0.5, 0.25]) * 0.5 * 4000.0
    assert np.all(region == expected)


def test_black_level_is_a_floor():
    spec = synth.SceneSpec(black_level=129.0, exposure=1500.0)
    scene = synth.render(spec)
    assert scene.image.data.min() >= 129.0


def test_noise_free_scene_is_deterministic():
    spec = synth.SceneSpec(illuminant=(0.7, 0.6, 0.5), noise_sigma=3.0, rng_seed=7)
    a = synth.render(spec)
    b = synth.render(spec)
    assert np.array_equal(a.image.data, b.image.data)
    assert a.chart_text == b.chart_text


def test_different_seeds_differ():
    base = dict(illuminant=(0.7, 0.6, 0.5), noise_sigma=3.0)
    a = synth.render(synth.SceneSpec(rng_seed=1, **base))
    b = synth.render(synth.SceneSpec(rng_seed=2, **base))
    assert not np.array_equal(a.image.data, b.image.data)


def test_exposure_escalation_never_unclips():
    table = synthcases.exact_reflectance_table()
    low_spec = synth.SceneSpec(exposure=7000.0, reflectance_table=table)
    high_spec = synth.SceneSpec(exposure=9000.0, reflectance_table=table)
    clipped_low = synth.render(low_spec).image.data >= low_spec.clip_level
    clipped_high = synth.render(high_spec).image.data >= high_spec.clip_level
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
    img = load_image(tmp_path / "clip.ppm")
    layout = read_chart_file(tmp_path / "clip.chart")
    record = compute_ground_truth(img, layout, img.camera, image_id="clip")
    assert record.patch_index == 19
    np.testing.assert_allclose(record.illuminant, 0.25 * 9000.0)


def test_pose_outside_frame_rejected():
    pose = synth.pose_from_corners(synth.CANONICAL_CORNERS + np.array([300.0, 0.0]))
    with pytest.raises(ValueError, match="outside"):
        synth.render(synth.SceneSpec(pose=pose))


def test_spec_validation():
    table = synth.DEFAULT_REFLECTANCES.copy()
    table[18] = (0.9, 0.8, 0.9)  # not gray
    with pytest.raises(ValueError, match="gray"):
        synth.SceneSpec(reflectance_table=table)
    table = synth.DEFAULT_REFLECTANCES.copy()
    table[19] = table[18]  # not strictly decreasing
    with pytest.raises(ValueError, match="decrease"):
        synth.SceneSpec(reflectance_table=table)
    with pytest.raises(ValueError, match="illuminant"):
        synth.SceneSpec(illuminant=(1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        synth.SceneSpec(background=(1.5, 0.5, 0.5))


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
        img = load_image(tmp_path / f"rt{i}.ppm")
        layout = read_chart_file(tmp_path / f"rt{i}.chart")
        record = compute_ground_truth(img, layout, img.camera, image_id=f"rt{i}")
        assert recovery_error(record.illuminant, truth) < 1e-6


def test_grayworld_scene_mean_is_parallel_to_illuminant():
    illum = np.array([0.8, 0.55, 0.3])
    scene = synth.make_grayworld_scene(illum, size=(48, 40), rng_seed=5)
    means = scene.image.data.mean(axis=(0, 1))
    ratios = means / illum
    assert np.ptp(ratios) / ratios.mean() < 1e-12


def test_grayworld_scene_neutral_illuminant_gives_neutral_mean():
    scene = synth.make_grayworld_scene((1.0, 1.0, 1.0), rng_seed=3)
    means = scene.image.data.mean(axis=(0, 1))
    assert np.ptp(means) / means.mean() < 1e-12


def test_grey_world_estimator_nails_grayworld_scene():
    scene = synth.make_grayworld_scene((0.9, 0.6, 0.35), rng_seed=11)
    est = estimate(scene.image, PRESETS["grey-world"])
    assert recovery_error(est.rgb, scene.true_illuminant) < 1e-6


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
