import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import synthcases
from chromabench import cli, synth
from chromabench.groundtruth import read_gt, records_by_id
from chromabench.imagecore import CameraProfile, LinearImage, save_image
from chromabench.metrics import recovery_error


def run(argv):
    return cli.main([str(a) for a in argv])


def write_scene_json(path, **fields):
    path.write_text(json.dumps(fields))
    return path


# --- synth -------------------------------------------------------------------


def test_synth_default_spec_closes_the_loop(tmp_path, capsys):
    spec = write_scene_json(tmp_path / "scene.json")
    out = tmp_path / "scenes"
    assert run(["synth", "--spec", spec, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("true_illuminant:")
    for suffix in (".ppm", ".meta.json", ".chart"):
        assert (out / f"scene{suffix}").exists()
    gt = tmp_path / "gt.csv"
    assert run(["extract-gt", "--images", out, "--charts", out, "--out", gt, "--jobs", "1"]) == 0
    assert len(read_gt(gt)) == 1


def test_synth_is_deterministic(tmp_path):
    spec = write_scene_json(
        tmp_path / "scene.json", illuminant=[0.8, 0.7, 0.5], noise_sigma=4.0, rng_seed=9
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["synth", "--spec", spec, "--out", out_a]) == 0
    assert run(["synth", "--spec", spec, "--out", out_b]) == 0
    assert (out_a / "scene.ppm").read_bytes() == (out_b / "scene.ppm").read_bytes()
    assert (out_a / "scene.chart").read_bytes() == (out_b / "scene.chart").read_bytes()


def test_synth_pose_outside_frame_exits_1(tmp_path, capsys):
    corners = (synth.CANONICAL_CORNERS + np.array([300.0, 0.0])).ravel().tolist()
    spec = write_scene_json(tmp_path / "scene.json", corners=corners)
    assert run(["synth", "--spec", spec, "--out", tmp_path / "o"]) == 1
    assert "outside" in capsys.readouterr().err


def test_synth_unknown_field_exits_1(tmp_path, capsys):
    spec = write_scene_json(tmp_path / "scene.json", exposur=5.0)
    assert run(["synth", "--spec", spec, "--out", tmp_path / "o"]) == 1
    assert "unknown scene spec fields" in capsys.readouterr().err


def test_synth_pose_with_corners_exits_1(tmp_path, capsys):
    spec = write_scene_json(
        tmp_path / "scene.json",
        pose=synth.default_pose(640, 480).tolist(),
        corners=synth.CANONICAL_CORNERS.ravel().tolist(),
    )
    assert run(["synth", "--spec", spec, "--out", tmp_path / "o"]) == 1
    assert "not both" in capsys.readouterr().err


def test_synth_json_sets_every_scene_field(tmp_path):
    table = synth.DEFAULT_REFLECTANCES.copy()
    table[0] = (0.6, 0.2, 0.1)
    ramp = (0.8, 0.5, 0.3, 0.15, 0.07, 0.02)
    fields = dict(
        illuminant=(0.9, 0.6, 0.4),
        pose=synth.pose_from_corners(
            synth.CANONICAL_CORNERS * 0.8 + np.array([40.0, 30.0])
        ),
        width=700,
        height=500,
        exposure=1800.0,
        reflectance_table=table,
        background=(0.3, 0.4, 0.2),
        black_level=64.0,
        noise_sigma=2.5,
        bit_depth=12,
        clip_level=4000.0,
        rng_seed=3,
        camera_id="cam-x",
        saturation_level=3500.0,
    )
    assert set(fields) == {f.name for f in dataclasses.fields(synth.SceneSpec)}
    payload = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in fields.items()}
    spec = write_scene_json(
        tmp_path / "scene.json", image_id="full", achromatic_reflectances=ramp, **payload
    )
    assert run(["synth", "--spec", spec, "--out", tmp_path / "cli"]) == 0

    table[18:24] = np.array(ramp)[:, None]
    expected = synth.render(synth.SceneSpec(**{**fields, "reflectance_table": table}))
    synth.write_scene(expected, tmp_path / "lib", "full")
    for suffix in (".ppm", ".meta.json", ".chart"):
        name = f"full{suffix}"
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


# --- extract-gt --------------------------------------------------------------


@pytest.fixture()
def small_corpus(tmp_path):
    rng = np.random.default_rng(31)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    truths = synthcases.write_corpus(corpus, rng, count=5)
    return corpus, truths


def test_extract_gt_recovers_truth(small_corpus, tmp_path):
    corpus, truths = small_corpus
    gt = tmp_path / "gt.csv"
    assert run(["extract-gt", "--images", corpus, "--charts", corpus, "--out", gt, "--jobs", "1"]) == 0
    records = records_by_id(read_gt(gt))
    assert len(records) == 5
    for image_id, truth in truths.items():
        assert recovery_error(records[image_id].illuminant, truth) < 1e-6


def test_extract_gt_partial_failure(small_corpus, tmp_path, capsys):
    corpus, _ = small_corpus
    (corpus / "img002.chart").unlink()
    gt = tmp_path / "gt.csv"
    assert run(["extract-gt", "--images", corpus, "--charts", corpus, "--out", gt, "--jobs", "1"]) == 2
    assert len(read_gt(gt)) == 4
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "img002" in err


def test_extract_gt_no_black_subtract_differs_by_offset(tmp_path):
    rng = np.random.default_rng(33)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    synthcases.write_corpus(corpus, rng, count=3, black_levels=(129.0,))
    sub, raw = tmp_path / "sub.csv", tmp_path / "raw.csv"
    assert run(["extract-gt", "--images", corpus, "--charts", corpus, "--out", sub, "--jobs", "1"]) == 0
    assert run(
        ["extract-gt", "--images", corpus, "--charts", corpus, "--out", raw,
         "--no-black-subtract", "--jobs", "1"]
    ) == 0
    for rec_sub, rec_raw in zip(read_gt(sub), read_gt(raw)):
        diff = np.asarray(rec_raw.illuminant) - np.asarray(rec_sub.illuminant)
        assert diff.tolist() == [129.0, 129.0, 129.0]
        assert rec_sub.black_level_subtracted and not rec_raw.black_level_subtracted


def test_extract_gt_byte_stable_across_jobs(small_corpus, tmp_path):
    corpus, _ = small_corpus
    outs = []
    for jobs in ("1", "2", "1"):
        out = tmp_path / f"gt{len(outs)}.csv"
        assert run(["extract-gt", "--images", corpus, "--charts", corpus, "--out", out, "--jobs", jobs]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_jobs_env_fallback(small_corpus, tmp_path, monkeypatch):
    corpus, _ = small_corpus
    monkeypatch.setenv(cli.JOBS_ENV_VAR, "2")
    out = tmp_path / "gt.csv"
    assert run(["extract-gt", "--images", corpus, "--charts", corpus, "--out", out]) == 0
    monkeypatch.setenv(cli.JOBS_ENV_VAR, "zero")
    assert run(["extract-gt", "--images", corpus, "--charts", corpus, "--out", out]) == 1


def test_extract_gt_missing_dir_exits_1(tmp_path, capsys):
    assert run(["extract-gt", "--images", tmp_path / "nope", "--charts", tmp_path, "--out", tmp_path / "gt.csv"]) == 1
    assert "error" in capsys.readouterr().err


# --- estimate ----------------------------------------------------------------


def constant_color_corpus(tmp_path, colors):
    corpus = tmp_path / "flat"
    corpus.mkdir()
    for i, color in enumerate(colors):
        data = np.tile(np.asarray(color, dtype=float), (16, 16, 1))
        img = LinearImage(data, camera=CameraProfile(f"cam{i}", 0.0))
        save_image(img, corpus / f"flat{i}.ppm")
    return corpus


def test_estimate_grey_world_on_constant_scenes(tmp_path):
    colors = [(800, 400, 200), (300, 600, 900)]
    corpus = constant_color_corpus(tmp_path, colors)
    est_csv = tmp_path / "est.csv"
    assert run(["estimate", "--images", corpus, "--algo", "grey-world", "--out", est_csv, "--jobs", "1"]) == 0
    from chromabench.estimators import read_estimates

    rows = read_estimates(est_csv)
    assert len(rows) == 2
    for row, color in zip(rows, colors):
        assert recovery_error(row.rgb, color) < 1e-6


def test_estimate_custom_spec_label(tmp_path):
    corpus = constant_color_corpus(tmp_path, [(500, 400, 300)])
    est_csv = tmp_path / "est.csv"
    assert run(
        ["estimate", "--images", corpus, "--algo", "n=1,p=5,sigma=2", "--out", est_csv, "--jobs", "1"]
    ) == 2  # constant image: first-order response is all zero -> degenerate
    assert run(
        ["estimate", "--images", corpus, "--algo", "grey-world", "--algo", "n=0,p=4,sigma=0",
         "--out", est_csv, "--jobs", "1"]
    ) == 0
    text = est_csv.read_text()
    assert "grey-world(p=4,s=0)" in text


def test_estimate_unknown_algo_exits_1(tmp_path, capsys):
    corpus = constant_color_corpus(tmp_path, [(500, 400, 300)])
    assert run(["estimate", "--images", corpus, "--algo", "nope", "--out", tmp_path / "e.csv"]) == 1
    assert "unknown estimator" in capsys.readouterr().err


def test_estimate_repeated_algo_exits_1(tmp_path, capsys):
    corpus = constant_color_corpus(tmp_path, [(500, 400, 300)])
    out = tmp_path / "e.csv"
    argv = ["estimate", "--images", corpus, "--algo", "grey-world", "--algo", "white-patch",
            "--algo", "grey-world", "--out", out, "--jobs", "1"]
    assert run(argv) == 1
    assert "--algo repeats grey-world" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_mask_chart_ignores_chart_pixels(tmp_path):
    # Scene whose background is neutral but whose chart patches are colorful:
    # masking the chart must pull grey-world back to the illuminant.
    rng = np.random.default_rng(41)
    corpus = tmp_path / "masked"
    corpus.mkdir()
    spec, truth = synthcases.scene_for_target((2000, 1600, 1200), synth.random_pose(rng))
    synth.write_scene(synth.render(spec), corpus, "scene")
    est_m = tmp_path / "masked.csv"
    est_u = tmp_path / "unmasked.csv"
    assert run(["estimate", "--images", corpus, "--algo", "grey-world", "--out", est_m,
                "--mask-chart", "--jobs", "1"]) == 0
    assert run(["estimate", "--images", corpus, "--algo", "grey-world", "--out", est_u, "--jobs", "1"]) == 0
    from chromabench.estimators import read_estimates

    masked = read_estimates(est_m)[0]
    unmasked = read_estimates(est_u)[0]
    assert recovery_error(masked.rgb, truth) < recovery_error(unmasked.rgb, truth)


# --- evaluate ----------------------------------------------------------------


GT_HEADER = "image_id,R,G,B,patch_index,camera_id,black_level_subtracted"
EST_HEADER = "image_id,algorithm,n,p,sigma,R,G,B"


def test_evaluate_perfect_estimates_score_zero(tmp_path):
    gt = tmp_path / "gt.csv"
    est = tmp_path / "est.csv"
    gt.write_text(GT_HEADER + "\na,1000,800,600,18,cam,true\n")
    v = np.array([1000.0, 800.0, 600.0])
    v /= np.linalg.norm(v)
    est.write_text(EST_HEADER + f"\na,alg,0,1,0,{float(v[0])!r},{float(v[1])!r},{float(v[2])!r}\n")
    out = tmp_path / "err.csv"
    assert run(["evaluate", "--gt", gt, "--est", est, "--metric", "recovery", "--out", out]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[3]) < 1e-6


def test_evaluate_reference_angle(tmp_path):
    gt = tmp_path / "gt.csv"
    est = tmp_path / "est.csv"
    gt.write_text(GT_HEADER + "\na,1,2,1,18,cam,true\n")
    u = np.ones(3) / math.sqrt(3)
    est.write_text(EST_HEADER + f"\na,alg,0,1,0,{float(u[0])!r},{float(u[1])!r},{float(u[2])!r}\n")
    out = tmp_path / "err.csv"
    assert run(["evaluate", "--gt", gt, "--est", est, "--out", out]) == 0
    assert float(out.read_text().splitlines()[1].split(",")[3]) == pytest.approx(
        19.4712, abs=1e-3
    )


def test_evaluate_isolates_bad_rows(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    est = tmp_path / "est.csv"
    gt.write_text(GT_HEADER + "\na,1000,800,600,18,cam,true\nb,900,900,900,18,cam,true\n")
    est.write_text(
        EST_HEADER + "\n"
        "a,alg,0,1,0,1,0,0\n"  # zero channels: reproduction must fail here
        f"b,alg,0,1,0,{1/math.sqrt(3)!r},{1/math.sqrt(3)!r},{1/math.sqrt(3)!r}\n"
    )
    out = tmp_path / "err.csv"
    assert run(["evaluate", "--gt", gt, "--est", est, "--metric", "reproduction", "--out", out]) == 2
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header + the good row
    assert lines[1].startswith("b,alg,reproduction,")
    assert "zero channel" in capsys.readouterr().err


def test_evaluate_reproduction_keeps_row_order_of_failures(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    est = tmp_path / "est.csv"
    gt.write_text(GT_HEADER + "\na,1000,800,600,18,cam,true\nb,900,900,900,18,cam,true\n")
    est.write_text(
        EST_HEADER + "\n"
        "a,gw,0,1,0,1,0,0\n"
        "zz,gw,0,1,0,0.6,0.8,0\n"
        "b,gw,0,1,0,0.6,0,0.8\n"
        "b,wp,0,1,0,0.48,0.6,0.64\n"
        "a,wp,0,1,0,0,0.6,0.8\n"
        "a,sog,0,1,0,0.64,0.6,0.48\n"
    )
    out = tmp_path / "err.csv"
    assert run(["evaluate", "--gt", gt, "--est", est, "--metric", "reproduction", "--out", out]) == 2
    # The CSV and log of the one-pair-at-a-time implementation, byte for byte.
    assert out.read_text() == (
        "image_id,algorithm,metric,degrees\n"
        "b,wp,reproduction,7.24195278\n"
        "a,sog,reproduction,5.46142196\n"
    )
    assert capsys.readouterr().err.splitlines() == [
        "error: a: gw: division by zero channel in estimate",
        "error: zz: missing from ground truth; skipped",
        "error: b: gw: division by zero channel in estimate",
        "error: a: wp: division by zero channel in estimate",
    ]


def test_evaluate_rejects_a_subnormal_estimate_channel_without_a_warning(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    est = tmp_path / "est.csv"
    gt.write_text(GT_HEADER + "\na,1000,800,600,18,cam,true\n")
    est.write_text(EST_HEADER + "\na,gw,0,1,0,1e-320,0.6,0.8\na,wp,0,1,0,0.48,0.6,0.64\n")
    out = tmp_path / "err.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise here
        code = run(["evaluate", "--gt", gt, "--est", est, "--metric", "reproduction", "--out", out])
    assert code == 2
    assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == ["wp"]
    assert capsys.readouterr().err.splitlines() == [
        "error: a: gw: estimate channel R is too small: reference/estimate overflows"
    ]


def test_evaluate_skips_images_missing_from_gt(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    est = tmp_path / "est.csv"
    gt.write_text(GT_HEADER + "\na,1000,800,600,18,cam,true\n")
    u = 1 / math.sqrt(3)
    est.write_text(EST_HEADER + f"\na,alg,0,1,0,{u!r},{u!r},{u!r}\nzz,alg,0,1,0,{u!r},{u!r},{u!r}\n")
    out = tmp_path / "err.csv"
    assert run(["evaluate", "--gt", gt, "--est", est, "--out", out]) == 2
    assert "missing from ground truth" in capsys.readouterr().err


def test_evaluate_rejects_duplicate_estimates(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    est = tmp_path / "est.csv"
    gt.write_text(GT_HEADER + "\na,1000,800,600,18,cam,true\n")
    u = 1 / math.sqrt(3)
    est.write_text(EST_HEADER + "\n" + f"a,alg,0,1,0,{u!r},{u!r},{u!r}\n" * 2)
    out = tmp_path / "err.csv"
    assert run(["evaluate", "--gt", gt, "--est", est, "--out", out]) == 1
    assert f"{est}: line 3: duplicate estimate" in capsys.readouterr().err
    assert not out.exists()


# --- rank --------------------------------------------------------------------


def write_errors(path, rows):
    lines = ["image_id,algorithm,metric,degrees"]
    lines += [f"{i},{algo},recovery,{deg}" for i, algo, deg in rows]
    path.write_text("\n".join(lines) + "\n")


def test_rank_single_file(tmp_path):
    err = tmp_path / "err.csv"
    write_errors(
        err,
        [("a", "A", 3.0), ("b", "A", 5.0), ("a", "B", 1.0), ("b", "B", 2.0)],
    )
    out = tmp_path / "rank.csv"
    assert run(["rank", "--errors", err, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,algorithm,mean,median,trimean,q95,best25,worst25"
    assert lines[1].startswith("1,B,")
    assert lines[2].startswith("2,A,")


def test_rank_comparison_shows_reversal(tmp_path):
    err1, err2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_errors(err1, [("a", "A", 1.0), ("a", "B", 4.0), ("a", "C", 9.0)])
    write_errors(err2, [("a", "A", 6.0), ("a", "B", 2.0), ("a", "C", 9.0)])
    out = tmp_path / "cmp.csv"
    assert run(["rank", "--errors", err1, "--errors", err2, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "algorithm,rank_one,median_one,rank_two,median_two"
    table = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert table["A"][1] == "1" and table["A"][3] == "2"
    assert table["B"][1] == "2" and table["B"][3] == "1"
    assert (tmp_path / "cmp.one.csv").exists()
    assert (tmp_path / "cmp.two.csv").exists()


def test_rank_warns_on_differing_algorithms(tmp_path, capsys):
    err1, err2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_errors(err1, [("a", "A", 1.0), ("a", "B", 2.0)])
    write_errors(err2, [("a", "A", 2.0), ("a", "EXTRA", 1.0)])
    out = tmp_path / "cmp.csv"
    assert run(["rank", "--errors", err1, "--errors", err2, "--out", out]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err and "EXTRA" in captured.err
    assert out.read_text().splitlines()[1].startswith("A,")


def test_rank_compares_only_the_images_every_input_scores(tmp_path, capsys):
    # one.csv scores A and B on images a and b, two.csv on image a only.  Over
    # all rows, one.csv ranks B first by mean and two.csv ranks A first: a
    # reversal made only by the different populations.
    err1, err2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_errors(err1, [("a", "A", 1.0), ("b", "A", 9.0), ("a", "B", 4.0), ("b", "B", 3.0)])
    write_errors(err2, [("a", "A", 1.0), ("a", "B", 4.0)])
    out = tmp_path / "cmp.csv"
    assert run(["rank", "--errors", err1, "--errors", err2, "--stat", "mean", "--out", out]) == 0
    err = capsys.readouterr().err
    assert "warning: image sets differ across algorithms and inputs" in err
    assert "(dropped: b)" in err
    assert out.read_text().splitlines()[1:] == ["A,1,1,1,1", "B,2,4,2,4"]


def test_rank_within_one_file_uses_the_shared_images(tmp_path, capsys):
    err = tmp_path / "err.csv"
    write_errors(err, [("a", "A", 1.0), ("b", "A", 9.0), ("a", "B", 4.0), ("c", "B", 3.0)])
    out = tmp_path / "rank.csv"
    assert run(["rank", "--errors", err, "--stat", "mean", "--out", out]) == 0
    assert "(dropped: b, c)" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert lines[1].startswith("1,A,1,") and lines[2].startswith("2,B,4,")


def test_rank_without_a_shared_image_exits_1(tmp_path, capsys):
    err1, err2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_errors(err1, [("a", "A", 1.0)])
    write_errors(err2, [("b", "A", 2.0)])
    out = tmp_path / "cmp.csv"
    assert run(["rank", "--errors", err1, "--errors", err2, "--out", out]) == 1
    assert "no image is common to all algorithms and inputs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        ("a,A,recovery,1\nb,A,recovery,2\na,A,recovery,3\n", "line 4: duplicate error"),
        ("a,A,recovery,1\nb,A,reproduction,2\n", "line 3: metric 'reproduction' mixed"),
        ("a,A,recovery,abc\n", "line 2: could not convert string to float"),
        ("a,A,recovery,nan\n", "line 2: degrees must be finite"),
    ],
    ids=["duplicate", "mixed-metric", "not-a-number", "nan"],
)
def test_rank_rejects_malformed_errors(tmp_path, capsys, rows, message):
    err = tmp_path / "err.csv"
    err.write_text("image_id,algorithm,metric,degrees\n" + rows)
    out = tmp_path / "rank.csv"
    assert run(["rank", "--errors", err, "--out", out]) == 1
    assert f"{err}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_rank_usage_error_exit_code(tmp_path):
    assert run(["rank", "--errors", tmp_path / "missing.csv", "--out", tmp_path / "o.csv",
                "--stat", "bogus"]) == 1


# --- diff-gt -----------------------------------------------------------------


def test_diff_gt_identical_files(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    gt.write_text(GT_HEADER + "\na,1000,800,600,18,cam,true\nb,900,850,800,18,cam,true\n")
    out = tmp_path / "report.csv"
    assert run(["diff-gt", "--a", gt, "--b", gt, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "outliers (> 0.25 deg): 0" in printed
    assert all(line.endswith("false") for line in out.read_text().splitlines()[1:])


def test_diff_gt_scan_recovers_offset(tmp_path, capsys):
    rng = np.random.default_rng(55)
    rows_a, rows_b = [], []
    for i in range(5):
        v = rng.uniform(500, 2500, size=3).round(1)
        rows_a.append(f"im{i},{float(v[0])!r},{float(v[1])!r},{float(v[2])!r},18,cam,true")
        w = v + 129.0
        rows_b.append(f"im{i},{float(w[0])!r},{float(w[1])!r},{float(w[2])!r},18,cam,false")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(GT_HEADER + "\n" + "\n".join(rows_a) + "\n")
    b.write_text(GT_HEADER + "\n" + "\n".join(rows_b) + "\n")
    out = tmp_path / "report.csv"
    assert run(["diff-gt", "--a", a, "--b", b, "--scan-offset", "--offset", "129", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "best offset: 129 " in printed
    assert "100.0% within 0.1 deg" in printed


@pytest.mark.parametrize("offset", ["nan", "inf", "-inf"])
def test_diff_gt_rejects_a_non_finite_offset_before_writing(tmp_path, capsys, offset):
    gt = tmp_path / "gt.csv"
    gt.write_text(GT_HEADER + "\na,1000,800,600,18,cam,true\n")
    out = tmp_path / "report.csv"
    assert run(["diff-gt", "--a", gt, "--b", gt, f"--offset={offset}", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --offset must be finite, got {float(offset)!r}" in captured.err
    assert not out.exists()


def test_diff_gt_flags_perturbed_rows(tmp_path, capsys):
    base = [(1800.0, 1200.0, 700.0)] * 6
    rows_a = [f"im{i},{r},{g},{b},18,cam,true" for i, (r, g, b) in enumerate(base)]
    rows_b = list(rows_a)
    for i in (1, 3, 4):
        rows_b[i] = f"im{i},1800.0,1260.0,700.0,18,cam,true"  # rotated away
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(GT_HEADER + "\n" + "\n".join(rows_a) + "\n")
    b.write_text(GT_HEADER + "\n" + "\n".join(rows_b) + "\n")
    out = tmp_path / "report.csv"
    assert run(["diff-gt", "--a", a, "--b", b, "--out", out]) == 0
    flagged = [
        line.split(",")[0]
        for line in out.read_text().splitlines()[1:]
        if line.endswith("true")
    ]
    assert flagged == ["im1", "im3", "im4"]


def test_diff_gt_no_overlap_exits_1(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(GT_HEADER + "\nx,1,1,1,18,cam,true\n")
    b.write_text(GT_HEADER + "\ny,1,1,1,18,cam,true\n")
    assert run(["diff-gt", "--a", a, "--b", b, "--out", tmp_path / "r.csv"]) == 1
    assert "common" in capsys.readouterr().err


# --- parser ------------------------------------------------------------------


def test_unknown_flag_exits_1(capsys):
    assert run(["extract-gt", "--bogus"]) == 1


def test_missing_subcommand_exits_1(capsys):
    assert run([]) == 1


def test_cli_import_leaves_scipy_ndimage_to_estimate():
    # Every command runs in a fresh interpreter; scipy.ndimage would be most of
    # the start-up time of evaluate, rank and diff-gt, which never use it.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, chromabench.cli; print('scipy.ndimage' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout.strip() == "False", proc.stderr
