import numpy as np
import pytest

from chromabench.audit import (
    check_same_patch,
    diff_ground_truths,
    emit_chromaticity_scatter,
    explain_offset,
    scan_offset,
)
from chromabench.groundtruth import GroundTruthRecord
from chromabench.metrics import recovery_error

GT_HEADER = "image_id,R,G,B,patch_index,camera_id,black_level_subtracted"


def make_set(vectors, camera="cam", subtracted=True):
    return [
        GroundTruthRecord(f"img{i:03d}", tuple(v), 18, camera, subtracted)
        for i, v in enumerate(vectors)
    ]


def nonneutral_vectors(count, rng):
    return [
        (
            float(rng.uniform(1500, 2500)),
            float(rng.uniform(900, 1500)),
            float(rng.uniform(400, 800)),
        )
        for _ in range(count)
    ]


# --- diff --------------------------------------------------------------------


def test_diff_with_itself_is_zero():
    a = make_set(nonneutral_vectors(8, np.random.default_rng(0)))
    report = diff_ground_truths(a, a)
    assert all(v == 0.0 for v in report.angles_deg.values())
    assert report.outliers == ()
    assert report.matched == 8


def test_diff_is_blind_to_intensity():
    rng = np.random.default_rng(1)
    vecs = nonneutral_vectors(6, rng)
    a = make_set(vecs)
    b = make_set([(2 * r, 2 * g, 2 * bl) for r, g, bl in vecs])
    report = diff_ground_truths(a, b)
    assert max(report.angles_deg.values()) < 1e-9
    assert report.outliers == ()


def rotate_in_plane(v, other, degrees):
    """Rotate v by `degrees` in the plane spanned by v and `other`."""
    v = np.asarray(v, dtype=float)
    u = v / np.linalg.norm(v)
    w = np.asarray(other, dtype=float)
    w = w - (w @ u) * u
    w /= np.linalg.norm(w)
    theta = np.radians(degrees)
    return np.linalg.norm(v) * (np.cos(theta) * u + np.sin(theta) * w)


def test_diff_flags_exactly_the_perturbed_images():
    rng = np.random.default_rng(2)
    vecs = nonneutral_vectors(10, rng)
    a = make_set(vecs)
    perturbed = list(a)
    for i in (1, 4, 7):
        rotated = rotate_in_plane(vecs[i], (1.0, 1.0, 1.0), 5.0)
        assert np.all(rotated > 0)
        perturbed[i] = GroundTruthRecord(f"img{i:03d}", tuple(rotated), 18, "cam", True)
    report = diff_ground_truths(a, perturbed, outlier_threshold_deg=0.25)
    assert report.outliers == ("img001", "img004", "img007")
    for image_id in report.outliers:
        assert report.angles_deg[image_id] == pytest.approx(5.0, abs=1e-9)


def test_diff_is_symmetric():
    rng = np.random.default_rng(3)
    a = make_set(nonneutral_vectors(5, rng))
    b = make_set(nonneutral_vectors(5, rng))
    fwd = diff_ground_truths(a, b)
    rev = diff_ground_truths(b, a)
    assert fwd.angles_deg == rev.angles_deg


def test_diff_reports_unmatched_ids():
    a = make_set(nonneutral_vectors(4, np.random.default_rng(4)))
    b = a[1:] + [GroundTruthRecord("zzz", (1000.0, 900.0, 800.0), 18, "cam", True)]
    report = diff_ground_truths(a, b)
    assert report.only_in_a == ("img000",)
    assert report.only_in_b == ("zzz",)


def test_diff_requires_overlap():
    a = make_set(nonneutral_vectors(2, np.random.default_rng(5)))
    b = [GroundTruthRecord("other", (1.0, 1.0, 1.0), 18, "cam", True)]
    with pytest.raises(ValueError, match="common"):
        diff_ground_truths(a, b)


# --- offset hypothesis -------------------------------------------------------


def offset_pair(rng, offset=129.0, count=8):
    vecs = nonneutral_vectors(count, rng)
    a = make_set(vecs, subtracted=True)
    b = make_set(
        [(r + offset, g + offset, bl + offset) for r, g, bl in vecs], subtracted=False
    )
    return a, b


def test_true_offset_explains_everything():
    a, b = offset_pair(np.random.default_rng(6))
    fit = explain_offset(a, b, 129.0)
    assert fit.fraction_within == 1.0
    assert fit.median_residual_deg == 0.0


def test_zero_offset_does_not_explain_nonneutral_sets():
    a, b = offset_pair(np.random.default_rng(7))
    fit = explain_offset(a, b, 0.0)
    assert fit.fraction_within < 1.0
    assert fit.median_residual_deg > 0.5


def test_scan_recovers_the_construction_offset():
    a, b = offset_pair(np.random.default_rng(8))
    best = scan_offset(a, b)
    assert best.offset == 129.0
    assert best.median_residual_deg == 0.0


def test_offset_is_identifiable_within_ten_counts():
    a, b = offset_pair(np.random.default_rng(9))
    true_fit = explain_offset(a, b, 129.0)
    for wrong in (109.0, 119.0, 139.0, 149.0):
        assert (
            explain_offset(a, b, wrong).median_residual_deg
            > true_fit.median_residual_deg
        )


def test_offset_on_matching_sets_reintroduces_error():
    a = make_set(nonneutral_vectors(6, np.random.default_rng(10)))
    fit = explain_offset(a, a, 129.0)
    assert fit.median_residual_deg > 0.0


def brute_force_scan(a, b):
    # First offset with the smallest median residual, one explain_offset per offset.
    fits = [explain_offset(a, b, float(offset)) for offset in range(513)]
    best = min(fit.median_residual_deg for fit in fits)
    return next(fit for fit in fits if fit.median_residual_deg == best)


@pytest.mark.parametrize("seed, offset", [(11, 37.0), (12, 0.0), (13, 59.0)])
def test_scan_matches_a_brute_force_argmin(seed, offset):
    rng = np.random.default_rng(seed)
    a, b = offset_pair(rng, offset=offset, count=7)
    noisy = make_set(
        [tuple(np.asarray(r.illuminant) + rng.normal(0.0, 3.0, 3)) for r in b]
    )
    for other in (b, noisy):
        assert scan_offset(a, other) == brute_force_scan(a, other)


def test_scan_tie_goes_to_the_smallest_offset():
    # Neutral sets stay parallel under any offset: every fit has residual 0.
    neutral = make_set([(v, v, v) for v in (300.0, 800.0, 1500.0)])
    best = scan_offset(neutral, neutral)
    assert best == brute_force_scan(neutral, neutral)
    assert best.offset == 0.0 and best.median_residual_deg == 0.0


@pytest.mark.parametrize("offset", [float("nan"), float("inf"), -float("inf")])
def test_explain_offset_rejects_a_non_finite_offset(offset):
    a, b = offset_pair(np.random.default_rng(15))
    with pytest.raises(ValueError, match=f"offset must be finite, got {offset!r}"):
        explain_offset(a, b, offset)


def test_offset_that_zeroes_an_illuminant_raises_the_metric_error():
    a = make_set([(900.0, 700.0, 500.0), (10.0, 10.0, 10.0), (1200.0, 1000.0, 800.0)])
    with pytest.raises(ValueError, match="^zero vector has no direction$"):
        recovery_error(np.asarray(a[1].illuminant) - 10.0, a[1].illuminant)
    with pytest.raises(ValueError, match="^zero vector has no direction$"):
        explain_offset(a, a, -10.0)


# --- same-patch check --------------------------------------------------------


def extended_csv(tmp_path, rows):
    path = tmp_path / "ext.csv"
    header = GT_HEADER + ",patch_index_R,patch_index_G,patch_index_B"
    lines = [header]
    for image_id, (pr, pg, pb) in rows:
        lines.append(f"{image_id},1000,900,800,18,cam,true,{pr},{pg},{pb}")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_same_patch_clean_file(tmp_path):
    path = extended_csv(tmp_path, [("a", (18, 18, 18)), ("b", (19, 19, 19))])
    assert check_same_patch(path) == []


def test_same_patch_single_violation(tmp_path):
    path = extended_csv(tmp_path, [("a", (18, 18, 19))])
    assert check_same_patch(path) == ["a"]


def test_same_patch_three_crafted_violations(tmp_path):
    rows = [(f"ok{i}", (18, 18, 18)) for i in range(5)]
    rows += [("bad1", (18, 19, 18)), ("bad2", (20, 20, 21)), ("bad3", (18, 19, 20))]
    path = extended_csv(tmp_path, rows)
    assert check_same_patch(path) == ["bad1", "bad2", "bad3"]


def test_same_patch_names_the_line_of_a_bad_index(tmp_path):
    # Line 3 is blank, so the bad patch_index_R of image b is on line 4.
    path = extended_csv(tmp_path, [("a", (18, 18, 18)), ("b", ("x", 18, 18))])
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines[:2], "", lines[2]]) + "\n")
    with pytest.raises(ValueError, match=r"ext\.csv: line 4: invalid literal"):
        check_same_patch(path)


def test_same_patch_legacy_file_warns_and_skips(tmp_path):
    path = tmp_path / "legacy.csv"
    path.write_text(GT_HEADER + "\n" + "a,1000,900,800,18,cam,true\n")
    with pytest.warns(UserWarning, match="skipped"):
        assert check_same_patch(path) == []


def test_same_patch_annotated_file_needs_image_ids(tmp_path):
    path = tmp_path / "ext.csv"
    path.write_text("patch_index_R,patch_index_G,patch_index_B\n18,18,18\n")
    with pytest.raises(ValueError, match=r"ext\.csv: missing columns \['image_id'\]"):
        check_same_patch(path)


# --- scatter export ----------------------------------------------------------


def test_scatter_single_neutral_record(tmp_path):
    a = [GroundTruthRecord("one", (1.0, 1.0, 1.0), 18, "cam", True)]
    path = tmp_path / "scatter.csv"
    emit_chromaticity_scatter({"rec": a}, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "set_name,image_id,r,g"
    name, image_id, r, g = lines[1].split(",")
    assert (name, image_id) == ("rec", "one")
    assert float(r) == pytest.approx(1 / 3, abs=1e-9)
    assert float(g) == pytest.approx(1 / 3, abs=1e-9)


def test_scatter_grouping_and_scale_invariance(tmp_path):
    rng = np.random.default_rng(11)
    vecs = nonneutral_vectors(4, rng)
    a = make_set(vecs)
    doubled = make_set([(2 * r, 2 * g, 2 * b) for r, g, b in vecs])
    path = tmp_path / "scatter.csv"
    emit_chromaticity_scatter({"b-set": doubled, "a-set": a}, path)
    lines = path.read_text().splitlines()[1:]
    names = [line.split(",")[0] for line in lines]
    assert names == ["a-set"] * 4 + ["b-set"] * 4  # sorted set order
    a_cols = [line.split(",")[2:] for line in lines[:4]]
    b_cols = [line.split(",")[2:] for line in lines[4:]]
    assert a_cols == b_cols  # identical chromaticities after scaling
