"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The corpus-level criteria drive the real CLI entry points over
freshly rendered synthetic scenes.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import synthcases
from chromabench import audit, cli, estimators, synth
from chromabench._util import fmt9
from chromabench.chartgeom import apply_homography, fit_homography
from chromabench.estimators import (
    EstimatorSpec,
    IlluminantEstimate,
    PRESETS,
    estimate_many,
    read_estimates,
    write_estimates,
)
from chromabench.groundtruth import (
    GroundTruthRecord,
    decide,
    measure,
    read_gt,
    records_by_id,
    write_gt,
)
from chromabench.imagecore import CameraProfile, load_counts, save_image
from chromabench.metrics import (
    recovery_error,
    reproduction_error,
    summarize,
)
from chromabench.chartgeom import read_chart_file


def _pass(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def run_cli(argv) -> int:
    return cli.main([str(a) for a in argv])


def test_end_to_end_round_trip(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(2024)

    clean = tmp_path / "clean"
    clean.mkdir()
    truths = synthcases.write_corpus(clean, rng, count=20, black_levels=(0.0, 129.0))
    gt_clean = tmp_path / "gt_clean.csv"
    assert run_cli(["extract-gt", "--images", clean, "--charts", clean,
                    "--out", gt_clean, "--jobs", "2"]) == 0
    records = records_by_id(read_gt(gt_clean))
    worst_clean = max(
        recovery_error(records[i].illuminant, truth) for i, truth in truths.items()
    )
    assert worst_clean < 1e-6

    noisy = tmp_path / "noisy"
    noisy.mkdir()
    truths_n = synthcases.write_corpus(
        noisy, rng, count=20, black_levels=(0.0, 129.0), noise_sigma=8.0
    )
    gt_noisy = tmp_path / "gt_noisy.csv"
    assert run_cli(["extract-gt", "--images", noisy, "--charts", noisy,
                    "--out", gt_noisy, "--jobs", "2"]) == 0
    records_n = records_by_id(read_gt(gt_noisy))
    worst_noisy = max(
        recovery_error(records_n[i].illuminant, truth) for i, truth in truths_n.items()
    )
    assert worst_noisy < 0.3

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _pass(
        f"end-to-end round-trip (clean {worst_clean:.2e} deg, "
        f"noisy {worst_noisy:.3f} deg, {elapsed:.1f} s)"
    )


def test_saturation_rule_boundary(tmp_path):
    # White patch renders to exactly 3301 counts (exact binary reflectances,
    # integer exposure, translation pose), probing the strict inequality.
    spec = synth.SceneSpec(
        illuminant=(1.0, 1.0, 1.0),
        exposure=6602.0,
        pose=synthcases.translation_pose(),
        reflectance_table=synthcases.exact_reflectance_table(),
    )
    synth.write_scene(synth.render(spec), tmp_path, "boundary")
    counts, _ = load_counts(tmp_path / "boundary.ppm")
    layout = read_chart_file(tmp_path / "boundary.chart")
    stats = measure(counts, layout)
    at_3300 = decide(stats, CameraProfile("cam", 0.0, 3300.0), True, "boundary")
    at_3301 = decide(stats, CameraProfile("cam", 0.0, 3301.0), True, "boundary")
    assert at_3300.patch_index == 19
    assert at_3301.patch_index == 18
    _pass("saturation rule strict boundary (3301 vs thresholds 3300/3301)")


def test_black_level_divergence(tmp_path, capsys):
    rng = np.random.default_rng(77)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    synthcases.write_nonneutral_corpus(corpus, rng, count=8, black_level=129.0)
    gt_sub = tmp_path / "sub.csv"
    gt_raw = tmp_path / "raw.csv"
    assert run_cli(["extract-gt", "--images", corpus, "--charts", corpus,
                    "--out", gt_sub, "--jobs", "2"]) == 0
    assert run_cli(["extract-gt", "--images", corpus, "--charts", corpus,
                    "--out", gt_raw, "--no-black-subtract", "--jobs", "2"]) == 0

    report_csv = tmp_path / "report.csv"
    assert run_cli(["diff-gt", "--a", gt_sub, "--b", gt_raw,
                    "--scan-offset", "--out", report_csv]) == 0
    printed = capsys.readouterr().out
    assert "best offset: 129 " in printed

    rows = report_csv.read_text().splitlines()[1:]
    assert len(rows) == 8
    assert all(line.endswith(",true") for line in rows)  # every image diverges

    best = audit.scan_offset(read_gt(gt_sub), read_gt(gt_raw))
    assert best.offset == 129.0
    assert best.median_residual_deg == 0.0
    _pass("black-level divergence (all flagged at 0.25 deg; scan finds 129 exactly)")


def test_ranking_reversal(tmp_path):
    rng = np.random.default_rng(4096)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    synth.write_reversal_corpus(corpus, rng, count=6)
    gt_sub = tmp_path / "sub.csv"
    gt_raw = tmp_path / "raw.csv"
    est_csv = tmp_path / "est.csv"
    assert run_cli(["extract-gt", "--images", corpus, "--charts", corpus,
                    "--out", gt_sub, "--jobs", "2"]) == 0
    assert run_cli(["extract-gt", "--images", corpus, "--charts", corpus,
                    "--out", gt_raw, "--no-black-subtract", "--jobs", "2"]) == 0
    assert run_cli(["estimate", "--images", corpus, "--algo", "grey-world",
                    "--algo", "white-patch", "--algo", "grey-edge-1",
                    "--out", est_csv, "--mask-chart", "--jobs", "2"]) == 0
    for name, gt in (("sub", gt_sub), ("raw", gt_raw)):
        assert run_cli(["evaluate", "--gt", gt, "--est", est_csv,
                        "--metric", "recovery", "--out", tmp_path / f"err_{name}.csv"]) == 0
    cmp_csv = tmp_path / "cmp.csv"
    assert run_cli(["rank", "--errors", tmp_path / "err_sub.csv",
                    "--errors", tmp_path / "err_raw.csv",
                    "--stat", "median", "--out", cmp_csv]) == 0

    lines = cmp_csv.read_text().splitlines()
    assert lines[0] == "algorithm,rank_err_sub,median_err_sub,rank_err_raw,median_err_raw"
    ranks = {
        parts[0]: (int(parts[1]), int(parts[3]))
        for parts in (line.split(",") for line in lines[1:])
    }
    algos = list(ranks)
    swapped = [
        (a, b)
        for i, a in enumerate(algos)
        for b in algos[i + 1 :]
        if (ranks[a][0] - ranks[b][0]) * (ranks[a][1] - ranks[b][1]) < 0
    ]
    assert swapped, f"no rank reversal in {ranks}"
    _pass(f"ranking reversal across GT conventions (swapped pairs: {swapped})")


def test_metric_identities():
    rng = np.random.default_rng(9)
    e = rng.uniform(1e-3, 1e3, size=(10_000, 3))
    g = rng.uniform(1e-3, 1e3, size=(10_000, 3))
    alphas = rng.uniform(1e-3, 1e3, size=10_000)
    betas = rng.uniform(1e-3, 1e3, size=10_000)
    for i in range(10_000):
        base = recovery_error(e[i], g[i])
        assert abs(recovery_error(alphas[i] * e[i], betas[i] * g[i]) - base) < 1e-9
        assert recovery_error(g[i], e[i]) == base  # symmetry, exact
        dual = recovery_error(g[i] / e[i], (1.0, 1.0, 1.0))
        assert abs(reproduction_error(e[i], g[i]) - dual) < 1e-9
    assert recovery_error((1, 2, 3), (1, 2, 3)) == 0.0
    assert reproduction_error((0.2, 0.5, 0.9), (0.2, 0.5, 0.9)) == 0.0
    assert recovery_error((1, 1, 1), (1, 2, 1)) == pytest.approx(19.4712, abs=1e-3)
    _pass("metric identities on 10,000 random pairs")


def test_estimator_properties():
    rng = np.random.default_rng(123)

    def estimate(counts, spec):
        rgb, problems = estimate_many(counts, [spec], None, 0.0)
        assert problems == {}
        return rgb[0]

    worst_gw = 0.0
    for _ in range(100):
        img = rng.integers(1, 4001, size=(16, 16, 3), dtype=np.uint16)
        est = estimate(img, PRESETS["grey-world"])
        means = img.mean(axis=(0, 1))
        worst_gw = max(
            worst_gw, float(np.abs(est - means / np.linalg.norm(means)).max())
        )
    assert worst_gw < 1e-12

    worst_sog = 0.0
    for _ in range(100):
        img = rng.integers(1, 4001, size=(32, 32, 3), dtype=np.uint16)
        sog = estimate(img, EstimatorSpec("sog100", 0, 100.0, 0.0))
        wp = estimate(img, PRESETS["white-patch"])
        worst_sog = max(worst_sog, recovery_error(sog, wp))
    assert worst_sog < 0.5

    worst_expo = 0.0
    for _ in range(10):
        # Factors 0.1, 3 and 77 on multiples of 10 up to 840: every scaled count is exact.
        img = rng.integers(1, 85, size=(16, 16, 3), dtype=np.uint16) * 10
        for scaled in (img // 10, img * 3, img * 77):
            for spec in PRESETS.values():
                worst_expo = max(
                    worst_expo,
                    recovery_error(estimate(img, spec), estimate(scaled, spec)),
                )
    assert worst_expo < 1e-9

    xs = np.arange(24, dtype=float)
    plane = 3.0 * xs[None, :] + 2.0 * xs[:, None] + 7.0
    ramp = np.repeat(plane[:, :, None], 3, axis=2)
    second = estimators._derivative(ramp, 2)
    worst_ramp = float(np.abs(second[2:-2, 2:-2]).max())
    assert worst_ramp < 1e-9

    _pass(
        f"estimator properties (grey-world {worst_gw:.1e}, "
        f"p100-vs-max {worst_sog:.3f} deg, exposure {worst_expo:.1e} deg, "
        f"ramp {worst_ramp:.1e})"
    )


def test_statistics_oracle():
    import test_metrics as tm

    rng = np.random.default_rng(31415)
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        errors = rng.uniform(0.0, 180.0, size=n).tolist()
        summary = summarize(errors)
        oracle = tm.brute_force_summary(errors)
        for key in ("mean", "median", "trimean", "q95", "best25", "worst25"):
            assert getattr(summary, key) == pytest.approx(oracle[key], abs=1e-12)
    fixture = summarize(np.arange(100, dtype=float))
    assert fixture.q95 == 94.05
    _pass("summary statistics vs brute force on 1000 arrays; q95 fixture exact")


def test_homography_acceptance():
    unit = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert np.array_equal(fit_homography(unit, unit), np.eye(3))
    shifted = [(x + 5, y + 3) for x, y in unit]
    assert np.array_equal(
        fit_homography(unit, shifted),
        np.array([[1, 0, 5], [0, 1, 3], [0, 0, 1]], dtype=float),
    )

    rng = np.random.default_rng(271828)

    def random_quad():
        # one corner per quadrant cell: never close to degenerate
        return np.array(
            [
                [rng.uniform(0, 400), rng.uniform(0, 400)],
                [rng.uniform(600, 1000), rng.uniform(0, 400)],
                [rng.uniform(600, 1000), rng.uniform(600, 1000)],
                [rng.uniform(0, 400), rng.uniform(600, 1000)],
            ]
        )

    worst = 0.0
    for _ in range(1000):
        src, dst = random_quad(), random_quad()
        proj = apply_homography(fit_homography(src, dst), src)
        worst = max(worst, float(np.abs(proj - dst).max()))
    assert worst < 1e-9
    _pass(f"homography reprojection on 1000 random quads (worst {worst:.2e} px)")


def test_format_round_trips(tmp_path):
    rng = np.random.default_rng(55555)

    # PPM: bit-exact for integer counts
    for i in range(20):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)), 3)
        counts = rng.integers(0, 4096, size=shape).astype(np.uint16)
        camera = CameraProfile("cam", float(rng.integers(0, 200)))
        save_image(counts, camera, tmp_path / f"rt{i}.ppm")
        back, back_camera = load_counts(tmp_path / f"rt{i}.ppm")
        assert np.array_equal(back, counts)
        assert back_camera == camera

    # Ground-truth CSV, one convention per file: exact round trip and byte-stable rewrite
    subtracted = [
        GroundTruthRecord(
            f"im{i:03d}",
            tuple(float(fmt9(v)) for v in rng.uniform(1.0, 4000.0, size=3)),
            int(rng.integers(18, 24)),
            "cam",
            True,
        )
        for i in range(50)
    ]
    for records in (subtracted, [replace(r, black_level_subtracted=False) for r in subtracted]):
        gt_path = tmp_path / "gt.csv"
        write_gt(records, gt_path)
        parsed = read_gt(gt_path)
        assert records_by_id(parsed) == records_by_id(records)
        rewritten = tmp_path / "gt2.csv"
        write_gt(parsed, rewritten)
        assert rewritten.read_bytes() == gt_path.read_bytes()

    # Estimates CSV: 9-significant-digit agreement, direction preserved
    rows = []
    for i in range(50):
        v = rng.uniform(0.01, 5.0, size=3)
        v /= np.linalg.norm(v)
        rows.append(
            (IlluminantEstimate(f"im{i:03d}", "alg", tuple(v)), PRESETS["grey-world"])
        )
    est_path = tmp_path / "est.csv"
    write_estimates(rows, est_path)
    keys, rgb = read_estimates(est_path)
    assert keys == [(orig.image_id, orig.algorithm) for orig, _ in rows]
    for (orig, _), parsed_rgb in zip(rows, rgb):
        # quantization is half a unit in the 9th digit; the read-side
        # renormalization adds a common factor of the same order
        np.testing.assert_allclose(parsed_rgb, orig.rgb, rtol=5e-9, atol=1e-12)
        assert recovery_error(parsed_rgb, orig.rgb) < 1e-6

    # Golden stability: same corpus, repeated runs and different --jobs
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    synthcases.write_corpus(corpus, np.random.default_rng(8), count=4)
    payloads = {"gt": [], "est": []}
    for run_idx, jobs in enumerate(("1", "2", "1")):
        gt_out = tmp_path / f"stable_gt_{run_idx}.csv"
        est_out = tmp_path / f"stable_est_{run_idx}.csv"
        assert run_cli(["extract-gt", "--images", corpus, "--charts", corpus,
                        "--out", gt_out, "--jobs", jobs]) == 0
        assert run_cli(["estimate", "--images", corpus, "--algo", "grey-world",
                        "--algo", "white-patch", "--out", est_out, "--jobs", jobs]) == 0
        payloads["gt"].append(gt_out.read_bytes())
        payloads["est"].append(est_out.read_bytes())
    assert payloads["gt"][0] == payloads["gt"][1] == payloads["gt"][2]
    assert payloads["est"][0] == payloads["est"][1] == payloads["est"][2]

    _pass("format round-trips and byte-stable outputs across runs and --jobs")


def test_audit_fixtures(tmp_path):
    header = (
        "image_id,R,G,B,patch_index,camera_id,black_level_subtracted,"
        "patch_index_R,patch_index_G,patch_index_B"
    )
    rows = [f"ok{i},1000,900,800,18,cam,true,18,18,18" for i in range(7)]
    rows += [
        "viol1,1000,900,800,18,cam,true,18,18,19",
        "viol2,1000,900,800,19,cam,true,19,20,19",
        "viol3,1000,900,800,20,cam,true,21,20,22",
    ]
    path = tmp_path / "ext.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    assert audit.check_same_patch(path) == ["viol1", "viol2", "viol3"]

    rng = np.random.default_rng(66)
    records = [
        GroundTruthRecord(
            f"im{i}", tuple(rng.uniform(500.0, 3000.0, size=3)), 18, "cam", True
        )
        for i in range(12)
    ]
    report = audit.diff_ground_truths(records, records)
    assert all(v == 0.0 for v in report.angles_deg.values())
    assert report.outliers == ()
    _pass("audit fixtures (3 crafted violations flagged; self-diff is zero)")
