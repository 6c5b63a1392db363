import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthcases
from chromabench import synth
from chromabench.chartgeom import read_chart_file
from chromabench.groundtruth import (
    GroundTruthRecord,
    PatchStats,
    compute_ground_truth,
    patch_stats,
    read_gt,
    records_by_id,
    select_achromatic_patch,
    write_gt,
)
from chromabench.imagecore import CameraProfile, load_image
from chromabench.metrics import recovery_error


def rgb_samples(r_values, g=None, b=None):
    r = np.asarray(r_values, dtype=float)
    g = r if g is None else np.asarray(g, dtype=float)
    b = r if b is None else np.asarray(b, dtype=float)
    return np.stack([r, g, b], axis=1)


def test_patch_stats_singleton():
    stats = patch_stats([[1.0, 2.0, 3.0]], 18)
    assert stats.median_rgb == (1.0, 2.0, 3.0)
    assert stats.brightness == 2.0
    assert stats.max_sample == 3.0


def test_patch_stats_median_robust_to_outlier():
    stats = patch_stats(rgb_samples([1, 2, 100]), 18)
    assert stats.median_rgb[0] == 2.0


def test_patch_stats_even_count_averages_middle_two():
    stats = patch_stats(rgb_samples([1, 2, 3, 10]), 18)
    assert stats.median_rgb[0] == 2.5


def test_patch_stats_rejects_empty():
    with pytest.raises(ValueError):
        patch_stats(np.zeros((0, 3)), 18)


def make_stats(index, brightness, max_sample):
    v = float(brightness)
    return PatchStats(index, (v, v, v), float(max_sample), v)


def test_saturated_white_patch_is_skipped():
    stats = [make_stats(18, 3000, 3301)] + [
        make_stats(18 + i, 3000 - 400 * i, 3000 - 400 * i) for i in range(1, 6)
    ]
    assert select_achromatic_patch(stats, 3300) == 19


def test_brightest_unsaturated_patch_wins():
    stats = [make_stats(18 + i, 3000 - 400 * i, 3000 - 400 * i) for i in range(6)]
    assert select_achromatic_patch(stats, 3300) == 18


def test_all_saturated_is_an_error():
    stats = [make_stats(18 + i, 3000, 4000) for i in range(6)]
    with pytest.raises(ValueError, match="no valid achromatic patch"):
        select_achromatic_patch(stats, 3300)


def test_brightness_tie_goes_to_whiter_patch():
    stats = [make_stats(20, 1000, 1000), make_stats(19, 1000, 1000)]
    assert select_achromatic_patch(stats, 3300) == 19


def test_exact_threshold_is_not_saturated():
    # "no count above the threshold" is a strict inequality
    stats = [make_stats(18, 3000, 3300), make_stats(19, 2000, 2000)]
    assert select_achromatic_patch(stats, 3300) == 18


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(1, 4000), min_size=6, max_size=6),
    st.lists(st.floats(1, 4100), min_size=6, max_size=6),
    st.floats(500, 4000),
    st.floats(0, 200),
)
def test_raising_saturation_never_picks_dimmer(bright, peaks, level, bump):
    stats = [
        make_stats(18 + i, bright[i], max(bright[i], peaks[i])) for i in range(6)
    ]
    try:
        low = select_achromatic_patch(stats, level)
    except ValueError:
        return  # nothing valid at the lower level; nothing to compare
    high = select_achromatic_patch(stats, level + bump)
    brightness = {s.patch_index: s.brightness for s in stats}
    assert brightness[high] >= brightness[low]


@given(st.permutations(range(6)))
def test_selection_is_order_invariant(order):
    stats = [make_stats(18 + i, 1000 + 37 * i, 1200 + 11 * i) for i in range(6)]
    base = select_achromatic_patch(stats, 3300)
    shuffled = [stats[i] for i in order]
    assert select_achromatic_patch(shuffled, 3300) == base


def render_and_load(tmp_path, spec, image_id):
    synth.write_scene(synth.render(spec), tmp_path, image_id)
    img = load_image(tmp_path / f"{image_id}.ppm")
    layout = read_chart_file(tmp_path / f"{image_id}.chart")
    return img, layout


def test_pipeline_recovers_known_illuminant(tmp_path):
    rng = np.random.default_rng(21)
    spec, truth = synthcases.scene_for_target(
        (2400, 1700, 1100), synth.random_pose(rng)
    )
    img, layout = render_and_load(tmp_path, spec, "a")
    rec = compute_ground_truth(img, layout, img.camera, image_id="a")
    assert recovery_error(rec.illuminant, truth) < 1e-6
    assert rec.patch_index == 18
    assert rec.black_level_subtracted


def test_black_level_cancels_exactly(tmp_path):
    rng = np.random.default_rng(22)
    pose = synth.random_pose(rng)
    spec0, truth = synthcases.scene_for_target((2400, 1700, 1100), pose)
    spec129, _ = synthcases.scene_for_target((2400, 1700, 1100), pose, black_level=129.0)
    img0, layout0 = render_and_load(tmp_path, spec0, "zero")
    img129, layout129 = render_and_load(tmp_path, spec129, "offset")
    rec0 = compute_ground_truth(img0, layout0, img0.camera, image_id="zero")
    rec129 = compute_ground_truth(img129, layout129, img129.camera, image_id="offset")
    assert recovery_error(rec0.illuminant, rec129.illuminant) < 1e-6
    assert recovery_error(rec129.illuminant, truth) < 1e-6


def test_skipping_subtraction_shifts_by_exactly_129(tmp_path):
    rng = np.random.default_rng(23)
    spec, _ = synthcases.scene_for_target(
        (2400, 1700, 1100), synth.random_pose(rng), black_level=129.0
    )
    img, layout = render_and_load(tmp_path, spec, "s")
    subtracted = compute_ground_truth(img, layout, img.camera, image_id="s")
    raw = compute_ground_truth(
        img, layout, img.camera, image_id="s", subtract_black=False
    )
    diff = np.asarray(raw.illuminant) - np.asarray(subtracted.illuminant)
    assert diff.tolist() == [129.0, 129.0, 129.0]
    assert not raw.black_level_subtracted


def test_record_rejects_non_achromatic_patch():
    with pytest.raises(ValueError, match="achromatic"):
        GroundTruthRecord("x", (1, 1, 1), 7, "cam", True)
    with pytest.raises(ValueError, match="> 0"):
        GroundTruthRecord("x", (0, 1, 1), 18, "cam", True)


def sample_records():
    return [
        GroundTruthRecord("b", (1800.0, 1350.5, 900.25), 18, "cam", True),
        GroundTruthRecord("a", (2000.0, 1500.0, 1000.0), 19, "cam", False),
    ]


def test_gt_round_trip_and_sorting(tmp_path):
    path = tmp_path / "gt.csv"
    write_gt(sample_records(), path)
    back = read_gt(path)
    assert [r.image_id for r in back] == ["a", "b"]  # sorted on write
    assert records_by_id(back) == records_by_id(sample_records())
    text = path.read_text()
    assert text.splitlines()[0] == "image_id,R,G,B,patch_index,camera_id,black_level_subtracted"
    assert "\r" not in text


def test_write_rejects_duplicate_ids(tmp_path):
    rec = sample_records()[0]
    with pytest.raises(ValueError, match="duplicate"):
        write_gt([rec, rec], tmp_path / "gt.csv")


def test_read_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "gt.csv"
    write_gt(sample_records(), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[-1]]) + "\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_gt(path)


def test_read_rejects_non_achromatic_patch_index(tmp_path):
    path = tmp_path / "gt.csv"
    path.write_text(
        "image_id,R,G,B,patch_index,camera_id,black_level_subtracted\n"
        "x,1,1,1,7,cam,true\n"
    )
    with pytest.raises(ValueError, match="achromatic"):
        read_gt(path)


def test_read_rejects_malformed_rows(tmp_path):
    path = tmp_path / "gt.csv"
    path.write_text(
        "image_id,R,G,B,patch_index,camera_id,black_level_subtracted\n"
        "x,1,one,1,18,cam,true\n"
    )
    with pytest.raises(ValueError, match="line 2"):
        read_gt(path)


def test_saturated_white_patch_in_rendered_scene(tmp_path):
    # White patch lands exactly on 3301 counts: the gray ramp uses exact
    # binary fractions and the translation pose copies counts bit-for-bit,
    # so the strict-inequality boundary is exercised without float slack.
    spec = synth.SceneSpec(
        illuminant=(1.0, 1.0, 1.0),
        exposure=6602.0,
        pose=synthcases.translation_pose(),
        reflectance_table=synthcases.exact_reflectance_table(),
        rng_seed=0,
    )
    img, layout = render_and_load(tmp_path, spec, "sat")
    strict = CameraProfile("cam", 0.0, saturation_level=3300.0)
    loose = CameraProfile("cam", 0.0, saturation_level=3301.0)
    assert compute_ground_truth(img, layout, strict).patch_index == 19
    assert compute_ground_truth(img, layout, loose).patch_index == 18
