import pickle
import re
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import synthcases
from chromabench import chartgeom, synth
from chromabench.chartgeom import ACHROMATIC_INDICES, read_chart_file
from chromabench.groundtruth import (
    GroundTruthRecord,
    decide,
    measure,
    read_gt,
    records_by_id,
    write_gt,
)
from chromabench.imagecore import CameraProfile, load_counts
from chromabench.metrics import recovery_error


def rgb_samples(r_values, g=None, b=None):
    """One (1, N, 3) sample square."""
    r = np.asarray(r_values, dtype=float)
    g = r if g is None else np.asarray(g, dtype=float)
    b = r if b is None else np.asarray(b, dtype=float)
    return np.stack([r, g, b], axis=1)[None]


def measure_squares(squares):
    """``measure`` over achromatic sample squares given as a (6 or 1, N, 3) array."""
    squares = np.asarray(squares, dtype=float)
    samples = np.zeros((24,) + squares.shape[1:])
    samples[list(ACHROMATIC_INDICES)] = squares
    with mock.patch.object(chartgeom, "sample_patches", return_value=samples):
        return measure(None, None)


def test_patch_stats_singleton():
    medians, peaks, brightness = measure_squares([[[1.0, 2.0, 3.0]]])
    assert medians.tolist() == [[1.0, 2.0, 3.0]] * 6
    assert brightness.tolist() == [2.0] * 6
    assert peaks.tolist() == [3.0] * 6


def test_patch_stats_median_robust_to_outlier():
    medians, _, _ = measure_squares(rgb_samples([1, 2, 100]))
    assert medians[0, 0] == 2.0


def test_patch_stats_even_count_averages_middle_two():
    medians, _, _ = measure_squares(rgb_samples([1, 2, 3, 10]))
    assert medians[0, 0] == 2.5


def pick(peaks, brightness, level):
    """Position in the row of the patch ``decide`` takes, at saturation ``level``."""
    stats = (np.ones((len(peaks), 3)), peaks, brightness)
    record = decide(stats, CameraProfile("cam", 0.0, level), True, "x")
    return record.patch_index - ACHROMATIC_INDICES[0]


def make_row(peaks, brightness):
    """(peaks, brightness) float arrays, one entry per achromatic position."""
    return np.asarray(peaks, dtype=float), np.asarray(brightness, dtype=float)


def test_saturated_white_patch_is_skipped():
    ramp = [3000 - 400 * i for i in range(6)]
    peaks, brightness = make_row([3301] + ramp[1:], ramp)
    assert pick(peaks, brightness, 3300) == 1


def test_brightest_unsaturated_patch_wins():
    ramp = [3000 - 400 * i for i in range(6)]
    assert pick(*make_row(ramp, ramp), 3300) == 0


def test_all_saturated_is_an_error():
    peaks, brightness = make_row([4000] * 6, [3000] * 6)
    with pytest.raises(ValueError, match="no valid achromatic patch: all saturated"):
        pick(peaks, brightness, 3300)


def test_brightness_tie_goes_to_whiter_patch():
    peaks, brightness = make_row([900, 1000, 1000], [900, 1000, 1000])
    assert pick(peaks, brightness, 3300) == 1


def test_exact_threshold_is_not_saturated():
    # "no count above the threshold" is a strict inequality
    peaks, brightness = make_row([3300, 2000], [3000, 2000])
    assert pick(peaks, brightness, 3300) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(1, 4000), min_size=6, max_size=6),
    st.lists(st.floats(1, 4100), min_size=6, max_size=6),
    st.floats(500, 4000),
    st.floats(0, 200),
)
def test_raising_saturation_never_picks_dimmer(bright, peaks, level, bump):
    peaks, brightness = make_row(np.maximum(bright, peaks), bright)
    try:
        low = pick(peaks, brightness, level)
    except ValueError:
        return  # nothing valid at the lower level; nothing to compare
    high = pick(peaks, brightness, level + bump)
    assert brightness[high] >= brightness[low]


@given(st.permutations(range(6)))
def test_selection_is_order_invariant(order):
    # Distinct brightnesses; the level clips the two brightest rows.
    peaks, brightness = make_row(
        [1200 + 11 * i for i in range(6)], [1000 + 37 * i for i in range(6)]
    )
    base = pick(peaks, brightness, 1240)
    assert base == 3
    moved = pick(peaks[order], brightness[order], 1240)
    assert order[moved] == base


def reference_ground_truth(samples, camera, subtract_black=True):
    """The per-patch algorithm: median, max and mean per square, then the
    brightest unclipped patch by (-brightness, patch index)."""
    stats = [
        (i, np.median(samples[i], axis=0), samples[i].max(), samples[i].mean())
        for i in ACHROMATIC_INDICES
    ]
    survivors = [s for s in stats if not s[2] > camera.saturation_level]
    if not survivors:
        return "no valid achromatic patch: all saturated"
    index, median, _, _ = min(survivors, key=lambda s: (-s[3], s[0]))
    illum = np.maximum(median - (camera.black_level if subtract_black else 0.0), 0.0)
    if np.any(illum <= 0):
        return "degenerate ground truth: zero channel after subtraction"
    return tuple(float(v) for v in illum), index


def ground_truth_outcome(data, layout, camera, subtract_black=True):
    try:
        rec = decide(measure(data, layout), camera, subtract_black, "")
    except ValueError as exc:
        return str(exc)
    return rec.illuminant, rec.patch_index


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.just(6), st.integers(1, 9), st.just(3)),
        elements=st.integers(0, 12).map(float),
    ),
    st.integers(4, 13),  # above the black level, as CameraProfile requires
    st.sampled_from([0.0, 3.0]),
    st.booleans(),
)
def test_compute_ground_truth_matches_per_patch_reference(row, level, black, subtract):
    # Small integer counts make brightness ties and clipped peaks common.
    samples = np.zeros((24,) + row.shape[1:])
    samples[list(ACHROMATIC_INDICES)] = row
    camera = CameraProfile("cam", black, saturation_level=float(level))
    with mock.patch.object(chartgeom, "sample_patches", return_value=samples):
        got = ground_truth_outcome(None, None, camera, subtract)
    assert got == reference_ground_truth(samples, camera, subtract)


def render_and_load(tmp_path, spec, image_id):
    synth.write_scene(synth.render(spec), tmp_path, image_id)
    counts, camera = load_counts(tmp_path / f"{image_id}.ppm")
    layout = read_chart_file(tmp_path / f"{image_id}.chart")
    return counts, camera, layout


def test_pipeline_recovers_known_illuminant(tmp_path):
    rng = np.random.default_rng(21)
    spec, truth = synthcases.scene_for_target(
        (2400, 1700, 1100), synth.random_pose(rng)
    )
    counts, camera, layout = render_and_load(tmp_path, spec, "a")
    rec = decide(measure(counts, layout), camera, True, "a")
    assert recovery_error(rec.illuminant, truth) < 1e-6
    assert rec.patch_index == 18
    assert rec.black_level_subtracted


def test_black_level_cancels_exactly(tmp_path):
    rng = np.random.default_rng(22)
    pose = synth.random_pose(rng)
    spec0, truth = synthcases.scene_for_target((2400, 1700, 1100), pose)
    spec129, _ = synthcases.scene_for_target((2400, 1700, 1100), pose, black_level=129.0)
    counts0, camera0, layout0 = render_and_load(tmp_path, spec0, "zero")
    counts129, camera129, layout129 = render_and_load(tmp_path, spec129, "offset")
    rec0 = decide(measure(counts0, layout0), camera0, True, "zero")
    rec129 = decide(measure(counts129, layout129), camera129, True, "offset")
    assert recovery_error(rec0.illuminant, rec129.illuminant) < 1e-6
    assert recovery_error(rec129.illuminant, truth) < 1e-6


def test_skipping_subtraction_shifts_by_exactly_129(tmp_path):
    rng = np.random.default_rng(23)
    spec, _ = synthcases.scene_for_target(
        (2400, 1700, 1100), synth.random_pose(rng), black_level=129.0
    )
    counts, camera, layout = render_and_load(tmp_path, spec, "s")
    stats = measure(counts, layout)
    subtracted = decide(stats, camera, True, "s")
    raw = decide(stats, camera, False, "s")
    diff = np.asarray(raw.illuminant) - np.asarray(subtracted.illuminant)
    assert diff.tolist() == [129.0, 129.0, 129.0]
    assert not raw.black_level_subtracted


def test_record_rejects_non_achromatic_patch():
    with pytest.raises(ValueError, match=r"^patch_index must be an integer in 18\.\.23$"):
        GroundTruthRecord("x", (1, 1, 1), 7, "cam", True)
    with pytest.raises(ValueError, match="^illuminant must be > 0$"):
        GroundTruthRecord("x", (0, 1, 1), 18, "cam", True)


@pytest.mark.parametrize(
    "field, value, message",
    [
        # write_gt wrote 18.0, which read_gt then refused as "invalid literal for int()".
        ("patch_index", 18.0, r"patch_index must be an integer in 18\.\.23"),
        ("image_id", 5, "image_id must be a string, got 5"),
        ("camera_id", None, "camera_id must be a string, got None"),
        ("black_level_subtracted", 1, "black_level_subtracted must be a bool, got 1"),
        ("black_level_subtracted", "false", "black_level_subtracted must be a bool, got 'false'"),
    ],
    ids=["float-patch", "number-image", "null-camera", "number-flag", "text-flag"],
)
def test_record_refuses_a_field_of_the_wrong_type(tmp_path, field, value, message):
    fields = dict(image_id="x", illuminant=(1, 1, 1), patch_index=18, camera_id="cam",
                  black_level_subtracted=True)
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_gt([GroundTruthRecord(**{**fields, field: value})], tmp_path / "gt.csv")
    assert not (tmp_path / "gt.csv").exists()


def test_a_record_survives_a_pickle_round_trip_and_stays_frozen():
    rec = GroundTruthRecord("x", (1800.0, 1350.5, 900.25), 19, "cam", False)
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and back.illuminant == (1800.0, 1350.5, 900.25)
    with pytest.raises(FrozenInstanceError):
        back.patch_index = 18
    assert not hasattr(rec, "__dict__")  # slots: no per-record dict


def sample_records():
    return [
        GroundTruthRecord("b", (1800.0, 1350.5, 900.25), 18, "cam", True),
        GroundTruthRecord("a", (2000.0, 1500.0, 1000.0), 19, "cam", True),
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
    with pytest.raises(ValueError, match=r"gt\.csv: line 4: duplicate image_id: b"):
        read_gt(path)


def test_one_convention_per_gt_file(tmp_path):
    path = tmp_path / "gt.csv"
    mixed = sample_records() + [GroundTruthRecord("c", (2129.0, 1629.0, 1129.0), 18, "cam", False)]
    with pytest.raises(ValueError, match="black_level_subtracted mixes true and false"):
        write_gt(mixed, path)
    assert not path.exists()
    for flag in (True, False):
        write_gt([replace(rec, black_level_subtracted=flag) for rec in mixed], path)
        assert {rec.black_level_subtracted for rec in read_gt(path)} == {flag}
    with open(path, "a") as fh:  # a fourth row, subtracted, after three that are not
        fh.write("d,2000,1500,1000,18,cam,true\n")
    message = f"{path}: line 5: black_level_subtracted mixes true and false"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        read_gt(path)


def test_read_rejects_non_achromatic_patch_index(tmp_path):
    path = tmp_path / "gt.csv"
    path.write_text(
        "image_id,R,G,B,patch_index,camera_id,black_level_subtracted\n"
        "x,1,1,1,7,cam,true\n"
    )
    with pytest.raises(ValueError, match=r"line 2: patch_index must be an integer in 18\.\.23$"):
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
    counts, _, layout = render_and_load(tmp_path, spec, "sat")
    strict = CameraProfile("cam", 0.0, saturation_level=3300.0)
    loose = CameraProfile("cam", 0.0, saturation_level=3301.0)
    stats = measure(counts, layout)
    assert decide(stats, strict, True, "sat").patch_index == 19
    assert decide(stats, loose, True, "sat").patch_index == 18


@pytest.mark.parametrize(
    "white, black, noise",
    [
        ((2400, 1700, 1100), 0.0, 0.0),  # nothing clipped
        ((2400, 1700, 1100), 129.0, 40.0),
        ((4000, 3000, 2000), 0.0, 0.0),  # white patch clipped
        ((5200, 4800, 4400), 129.0, 40.0),  # white and the next patch clipped
    ],
)
def test_rendered_ground_truth_matches_per_patch_reference(tmp_path, white, black, noise):
    rng = np.random.default_rng(31)
    spec, _ = synthcases.scene_for_target(
        white, synth.random_pose(rng), black_level=black, noise_sigma=noise, rng_seed=5
    )
    counts, camera, layout = render_and_load(tmp_path, spec, "r")
    samples = chartgeom.sample_patches(counts, layout)
    for subtract in (True, False):
        got = ground_truth_outcome(counts, layout, camera, subtract)
        assert got == reference_ground_truth(samples, camera, subtract)
        # The counts widened to a float64 frame give the same record exactly.
        widened = counts.astype(np.float64)
        assert ground_truth_outcome(widened, layout, camera, subtract) == got
