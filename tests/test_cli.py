import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import synthcases
from chromabench import cli, synth
from chromabench._util import fmt9
from chromabench.chartgeom import ACHROMATIC_INDICES, CANONICAL_CORNERS, read_chart_file
from chromabench.estimators import PRESETS, IlluminantEstimate, read_estimates, write_estimates
from chromabench.groundtruth import GroundTruthRecord, read_gt, records_by_id, write_gt
from chromabench.imagecore import CameraProfile, save_image
from chromabench.metrics import recovery_error, reproduction_error

GOLDEN = Path(__file__).resolve().parent / "golden" / "demo_seed7"


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
    corners = (CANONICAL_CORNERS + np.array([300.0, 0.0])).ravel().tolist()
    spec = write_scene_json(tmp_path / "scene.json", corners=corners)
    assert run(["synth", "--spec", spec, "--out", tmp_path / "o"]) == 1
    assert "inside the image" in capsys.readouterr().err


def test_synth_unknown_field_exits_1(tmp_path, capsys):
    spec = write_scene_json(tmp_path / "scene.json", exposur=5.0)
    assert run(["synth", "--spec", spec, "--out", tmp_path / "o"]) == 1
    assert "unknown scene spec fields" in capsys.readouterr().err
    # "camera" is the profile SceneSpec builds from its flat fields, not a spec field.
    spec = write_scene_json(tmp_path / "scene.json", camera=5.0)
    assert run(["synth", "--spec", spec, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == "error: unknown scene spec fields: ['camera']\n"


def test_synth_nan_noise_sigma_exits_1(tmp_path, capsys):
    # Python's json reads NaN; a NaN sigma must not render a noise-free scene.
    spec = tmp_path / "scene.json"
    spec.write_text('{"noise_sigma": NaN}')
    assert run(["synth", "--spec", spec, "--out", tmp_path / "o"]) == 1
    assert "invalid scene spec" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


HUGE = 10**400  # an integer JSON literal past the float range
NAN = float("nan")  # Python's json writes and reads it as NaN
INF = float("1e400")  # a JSON 1e400 reads as this; Python's json writes it as Infinity


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("width", 640.5, "width must be an integer >= 8", id="width-640.5"),
        ("bit_depth", 2000, "bit_depth must be an integer in 1..16"),
        ("camera_id", None, "camera_id must be a string, got None"),
        # A JSON true reached the sidecar, whose level extract-gt then refused.
        ("black_level", True, "black_level must be a number, got True"),
        ("saturation_level", True, "saturation_level must be a number, got True"),
        # A null image_id wrote None.ppm, None.meta.json and None.chart.
        ("image_id", None, "image_id must be a string, got None"),
        ("image_id", 5, "image_id must be a string, got 5"),
        # These ended in "must be real number, not str" and, past the float
        # range, in an OverflowError traceback.
        ("saturation_level", "3300", "saturation_level must be a number, got '3300'"),
        pytest.param("black_level", HUGE, "black_level must be finite", id="huge-black_level"),
        pytest.param(
            "saturation_level", HUGE, "saturation_level must be finite", id="huge-saturation_level"
        ),
        # Past the float range these named no field: "int too large to convert to float".
        # Each now gets the message a NaN in the field gets.
        pytest.param("exposure", HUGE, "exposure must be finite", id="huge-exposure"),
        pytest.param("noise_sigma", HUGE, "noise_sigma must be finite", id="huge-noise_sigma"),
        pytest.param("illuminant", [1, HUGE, 1], "illuminant must be finite", id="huge-illuminant"),
        pytest.param("background", [0.1, HUGE, 0.1], "background must be finite", id="huge-background"),
        pytest.param(
            "corners", [HUGE, 0, 1, 0, 1, 1, 0, 1], "corners must be finite", id="huge-corners"
        ),
        # A NaN corner named no field either: "points must be finite".
        pytest.param(
            "corners", [NAN, 0, 1, 0, 1, 1, 0, 1], "corners must be finite", id="nan-corners"
        ),
        # A non-finite pose was refused only by the homography, as "points must be
        # finite" or "degenerate correspondence: coincident points".
        *(
            pytest.param(
                "pose", [[1, 0, 0], [0, 1, 0], [0, 0, bad]], "pose must be finite", id=f"{name}-pose"
            )
            for name, bad in (("nan", NAN), ("inf", INF), ("huge", HUGE))
        ),
        pytest.param(
            "achromatic_reflectances", [HUGE, 0.5, 0.4, 0.3, 0.2, 0.1],
            "achromatic_reflectances must be finite", id="huge-achromatic_reflectances",
        ),
        pytest.param(
            "reflectance_table", [[0.5, 0.5, HUGE]] * 24, "reflectance_table must be finite",
            id="huge-reflectance_table",
        ),
        # A JSON true in these was read as 1.0, and the scene rendered with exit 0.
        *(
            pytest.param(field, value, f"{field} must be {what}, got True", id=f"true-{field}")
            for field, value, what in (
                ("exposure", True, "a number"),
                ("noise_sigma", True, "a number"),
                ("clip_level", True, "a number"),
                ("illuminant", [1, True, 1], "an array of numbers"),
                ("background", [True, 0.3, 0.3], "an array of numbers"),
                ("pose", [[True, 0, 0], [0, 1, 0], [0, 0, 1]], "an array of numbers"),
                ("corners", [True, 0, 599, 0, 599, 399, 0, 399], "an array of numbers"),
                ("achromatic_reflectances", [True, 0.5, 0.4, 0.3, 0.2, 0.1], "an array of numbers"),
            )
        ),
        # These rendered too, or named no field: "must be real number, not str",
        # "'<' not supported ..." and "could not convert string to float".
        pytest.param(
            "illuminant", ["1", 1, 1], "illuminant must be an array of numbers, got '1'",
            id="text-illuminant",
        ),
        pytest.param("exposure", "2000", "exposure must be a number, got '2000'", id="text-exposure"),
        pytest.param("noise_sigma", None, "noise_sigma must be a number, got None", id="null-noise_sigma"),
        pytest.param("clip_level", "x", "clip_level must be a number, got 'x'", id="text-clip_level"),
        pytest.param(
            "reflectance_table", "abc", "reflectance_table must be an array of numbers, got 'abc'",
            id="text-reflectance_table",
        ),
    ],
)
def test_synth_non_integer_or_out_of_range_size_exits_1(tmp_path, capsys, field, value, message):
    spec = write_scene_json(tmp_path / "scene.json", **{field: value})
    assert run(["synth", "--spec", spec, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == f"error: invalid scene spec: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("noise_sigma", [0.0, 1.0])
@pytest.mark.parametrize("rng_seed", ["a", 1.5, -1, True])
def test_synth_rng_seed_that_is_not_a_non_negative_integer_exits_1(
    tmp_path, capsys, noise_sigma, rng_seed
):
    # With noise it used to end in numpy's TypeError; without, the seed went unchecked.
    spec = write_scene_json(tmp_path / "scene.json", noise_sigma=noise_sigma, rng_seed=rng_seed)
    assert run(["synth", "--spec", spec, "--out", tmp_path / "o"]) == 1
    message = "error: invalid scene spec: rng_seed must be an integer >= 0\n"
    assert capsys.readouterr().err == message
    assert not (tmp_path / "o").exists()


def test_synth_black_level_at_or_above_saturation_is_refused_as_a_spec(
    tmp_path, capsys, monkeypatch
):
    # The camera's rule is checked where the spec is made, before any render.
    def no_render(spec):
        raise AssertionError("rendered an invalid camera")

    monkeypatch.setattr(synth, "render", no_render)
    spec = write_scene_json(tmp_path / "scene.json", black_level=4000, saturation_level=3300)
    assert run(["synth", "--spec", spec, "--out", tmp_path / "o"]) == 1
    message = "error: invalid scene spec: saturation_level must exceed black_level\n"
    assert capsys.readouterr().err == message
    assert not (tmp_path / "o").exists()


def test_synth_keeps_the_type_of_an_int_level_in_the_sidecar(tmp_path):
    # The sidecar writes a level as the spec gave it: 129, not 129.0.
    spec = write_scene_json(tmp_path / "scene.json", black_level=129, saturation_level=3300.0)
    assert run(["synth", "--spec", spec, "--out", tmp_path / "o"]) == 0
    sidecar = (tmp_path / "o" / "scene.meta.json").read_text()
    assert '"black_level": 129,' in sidecar and '"saturation_level": 3300.0\n' in sidecar


@pytest.mark.parametrize("image_id", ["../escaped", "", ".", "..", "a/b", "a\\b", "/abs"])
def test_synth_image_id_that_is_not_a_plain_file_name_exits_1(
    tmp_path, capsys, monkeypatch, image_id
):
    # "../escaped" used to write escaped.ppm, .meta.json and .chart beside --out,
    # and the id is checked before the frame is rendered.
    def no_render(spec):
        raise AssertionError("rendered before the image_id was checked")

    monkeypatch.setattr(synth, "render", no_render)
    spec = write_scene_json(tmp_path / "scene.json", image_id=image_id)
    assert run(["synth", "--spec", spec, "--out", tmp_path / "run" / "o"]) == 1
    message = f"error: image_id must be a plain file name, got {image_id!r}\n"
    assert capsys.readouterr().err == message
    assert [p.name for p in tmp_path.rglob("*")] == ["scene.json"]


def test_synth_pose_with_corners_exits_1(tmp_path, capsys):
    spec = write_scene_json(
        tmp_path / "scene.json",
        pose=synth.default_pose(640, 480).tolist(),
        corners=CANONICAL_CORNERS.ravel().tolist(),
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
            CANONICAL_CORNERS * 0.8 + np.array([40.0, 30.0])
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
    assert set(fields) == {f.name for f in dataclasses.fields(synth.SceneSpec) if f.init}
    payload = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in fields.items()}
    spec = write_scene_json(
        tmp_path / "scene.json", image_id="full", achromatic_reflectances=ramp, **payload
    )
    assert run(["synth", "--spec", spec, "--out", tmp_path / "cli"]) == 0

    table[list(ACHROMATIC_INDICES)] = np.array(ramp)[:, None]
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


def test_extract_gt_logs_decide_and_measure_failures_in_image_order_at_any_jobs(
    small_corpus, tmp_path, capsys
):
    # img001 fails in the parent's decide step (a saturation level of 140 clips
    # every patch), img003 in a worker's measure step (its chart is gone).
    corpus, _ = small_corpus
    sidecar = corpus / "img001.meta.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "saturation_level": 140}))
    (corpus / "img003.chart").unlink()
    runs = []
    for jobs in ("1", "2"):
        gt = tmp_path / f"gt{jobs}.csv"
        assert run(["extract-gt", "--images", corpus, "--out", gt, "--jobs", jobs]) == 2
        runs.append((gt.read_bytes(), capsys.readouterr().err))
    assert runs[0] == runs[1]
    assert [r.image_id for r in read_gt(tmp_path / "gt1.csv")] == ["img000", "img002", "img004"]
    assert runs[0][1].splitlines() == [
        "error: img001: no valid achromatic patch: all saturated",
        f"error: img003: [Errno 2] No such file or directory: '{corpus / 'img003.chart'}'",
    ]


@pytest.mark.parametrize("bit_depth", [0, 17, 2000])
def test_extract_gt_rejects_a_sidecar_bit_depth_outside_1_to_16(small_corpus, tmp_path, capsys, bit_depth):
    corpus, _ = small_corpus
    sidecar = corpus / "img002.meta.json"
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "bit_depth": bit_depth}))
    gt = tmp_path / "gt.csv"
    assert run(["extract-gt", "--images", corpus, "--charts", corpus, "--out", gt, "--jobs", "1"]) == 2
    assert capsys.readouterr().err == "error: img002: bit_depth must be an integer in 1..16\n"
    assert [r.image_id for r in read_gt(gt)] == ["img000", "img001", "img003", "img004"]


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


def test_extract_gt_charts_default_to_the_images_dir(small_corpus, tmp_path):
    corpus, _ = small_corpus
    beside, named = tmp_path / "beside.csv", tmp_path / "named.csv"
    assert run(["extract-gt", "--images", corpus, "--out", beside, "--jobs", "1"]) == 0
    assert run(["extract-gt", "--images", corpus, "--charts", corpus, "--out", named, "--jobs", "1"]) == 0
    assert beside.read_bytes() == named.read_bytes()


def test_estimate_byte_stable_across_jobs(small_corpus, tmp_path, capsys):
    corpus, _ = small_corpus
    (corpus / "img002.chart").unlink()  # fails under --mask-chart
    algos = [a for name in (*PRESETS, "n=1,p=2,sigma=1") for a in ("--algo", name)]
    out = tmp_path / "est.csv"
    runs = []
    for jobs in ("1", "2", "1"):
        argv = ["estimate", "--images", corpus, *algos, "--mask-chart", "--out", out, "--jobs", jobs]
        assert run(argv) == 2
        captured = capsys.readouterr()
        runs.append((out.read_bytes(), captured.out, captured.err))
    assert runs[0] == runs[1] == runs[2]
    # The chartless image fails whole; the explicit spec's sigma=1 blur stays
    # inside the masked margin of the flat scenes, so it is degenerate on the rest.
    errors = runs[0][2].splitlines()
    assert errors[2].startswith("error: img002: [Errno 2] No such file or directory")
    assert errors[:2] + errors[3:] == [
        f"error: img00{i}: grey-edge-1(p=2,s=1): degenerate estimate: zero channel under mask"
        for i in (0, 1, 3, 4)
    ]


def test_worker_pool_is_capped_at_the_image_count(tmp_path, monkeypatch):
    class RecordingPool:  # runs tasks in-process; starts no worker
        sizes = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    synthcases.write_corpus(corpus, np.random.default_rng(32), count=2)
    # cli imports the pool class only when it starts more than one worker.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    gt = tmp_path / "gt.csv"
    assert run(["extract-gt", "--images", corpus, "--charts", corpus, "--out", gt, "--jobs", "6"]) == 0
    assert RecordingPool.sizes == [2]
    assert len(read_gt(gt)) == 2


def test_jobs_default_counts_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cli._resolve_jobs(None) == 1


def test_jobs_below_one_exits_1(small_corpus, tmp_path, capsys):
    corpus, _ = small_corpus
    out = tmp_path / "gt.csv"
    assert run(["extract-gt", "--images", corpus, "--charts", corpus, "--out", out, "--jobs", "0"]) == 1
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_extract_gt_missing_dir_exits_1(tmp_path, capsys):
    assert run(["extract-gt", "--images", tmp_path / "nope", "--charts", tmp_path, "--out", tmp_path / "gt.csv"]) == 1
    assert "error" in capsys.readouterr().err


# --- estimate ----------------------------------------------------------------


def constant_color_corpus(tmp_path, colors):
    corpus = tmp_path / "flat"
    corpus.mkdir()
    for i, color in enumerate(colors):
        counts = np.tile(np.asarray(color, dtype=np.uint16), (16, 16, 1))
        save_image(counts, CameraProfile(f"cam{i}", 0.0), corpus / f"flat{i}.ppm")
    return corpus


def test_estimate_grey_world_on_constant_scenes(tmp_path):
    colors = [(800, 400, 200), (300, 600, 900)]
    corpus = constant_color_corpus(tmp_path, colors)
    est_csv = tmp_path / "est.csv"
    assert run(["estimate", "--images", corpus, "--algo", "grey-world", "--out", est_csv, "--jobs", "1"]) == 0
    keys, rgb = read_estimates(est_csv)
    assert keys == [("flat0", "grey-world"), ("flat1", "grey-world")]
    for row, color in zip(rgb, colors):
        assert recovery_error(row, color) < 1e-6


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


def test_estimate_specs_that_differ_past_six_digits_are_not_repeats(tmp_path):
    corpus = constant_color_corpus(tmp_path, [(500, 400, 300)])
    out = tmp_path / "e.csv"
    argv = ["estimate", "--images", corpus, "--algo", "n=0,p=5,sigma=2",
            "--algo", "n=0,p=5.0000001,sigma=2", "--out", out, "--jobs", "1"]
    assert run(argv) == 0
    rows = [row[1:4] for row in csv.reader(out.read_text().splitlines()[1:])]
    assert rows == [["grey-world(p=5,s=2)", "0", "5"], ["grey-world(p=5.0000001,s=2)", "0", "5.0000001"]]


def test_estimate_repeated_spec_parameter_exits_1(tmp_path, capsys):
    corpus = constant_color_corpus(tmp_path, [(500, 400, 300)])
    out = tmp_path / "e.csv"
    argv = ["estimate", "--images", corpus, "--algo", "n=1,p=2,n=2", "--out", out, "--jobs", "1"]
    assert run(argv) == 1
    assert "estimator spec repeats 'n'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "algo, message",
    [
        # These said "invalid literal for int() with base 10: '1.0'" and "could
        # not convert string to float", naming no parameter.
        ("n=1.0", "n must be an integer in 0..2"),
        ("p=abc", "p must be a number, got 'abc'"),
        ("sigma=x", "sigma must be a number, got 'x'"),
    ],
    ids=["n", "p", "sigma"],
)
def test_estimate_names_the_bad_algo_parameter(tmp_path, capsys, algo, message):
    corpus = constant_color_corpus(tmp_path, [(500, 400, 300)])
    out = tmp_path / "e.csv"
    assert run(["estimate", "--images", corpus, "--algo", algo, "--out", out, "--jobs", "1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
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
    _, (masked,) = read_estimates(est_m)
    _, (unmasked,) = read_estimates(est_u)
    assert recovery_error(masked, truth) < recovery_error(unmasked, truth)


GRID_LINES = {
    "negative-half-size": "half_size: -1",
    "overlapping-squares": "half_size: 60",
    "square-off-the-view": "corner_patch_centers: 5 5 595 5 595 395 5 395",
    # Column neighbours 24 px apart along x and y: 34 px apart, but their
    # 31 px squares overlap by 7 px.
    "sheared-overlap": "half_size: 15\ncorner_patch_centers: 50 20 170 140 470 140 350 20",
}


def bad_chart_text(good, case):
    corners = good.corners.copy()
    if case == "bow-tie":
        corners = corners[[0, 1, 3, 2]]
    elif case == "outside":
        corners[:, 0] += 640.0
    elif case == "collinear":
        corners[1] = (corners[0] + corners[2]) / 2.0
    text = "corners: " + " ".join(repr(float(v)) for v in corners.ravel()) + "\n"
    if case == "repeated-key":
        return text + text
    if case in GRID_LINES:
        text += GRID_LINES[case] + "\n"
    return text


@pytest.mark.parametrize(
    "case", ["bow-tie", "outside", "collinear", "repeated-key", *GRID_LINES]
)
def test_both_pixel_commands_reject_the_same_chart_file(tmp_path, capsys, case):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    synthcases.write_corpus(corpus, np.random.default_rng(43), count=2)
    chart = corpus / "img001.chart"
    chart.write_text(bad_chart_text(read_chart_file(chart), case))
    gt, est = tmp_path / "gt.csv", tmp_path / "est.csv"
    assert run(["extract-gt", "--images", corpus, "--charts", corpus, "--out", gt, "--jobs", "1"]) == 2
    extract_err = capsys.readouterr().err
    assert run(["estimate", "--images", corpus, "--algo", "grey-world", "--out", est,
                "--mask-chart", "--jobs", "1"]) == 2
    estimate_err = capsys.readouterr().err
    assert extract_err.startswith("error: img001: ") and extract_err.count("\n") == 1
    assert estimate_err == extract_err
    if case in ("overlapping-squares", "sheared-overlap"):
        assert extract_err == "error: img001: sample squares overlap adjacent patches\n"
    keys, _ = read_estimates(est)
    assert [image_id for image_id, _ in keys] == ["img000"]


def seed7_scenes(tmp_path):
    """The seed-7 demo's four scenes, rendered as the demo script renders them."""
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    synth.write_reversal_corpus(scenes, np.random.default_rng(7), count=4)
    pinned = dict(
        reversed(line.split("  ")) for line in (GOLDEN / "scenes.sha256").read_text().splitlines()
    )
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in scenes.iterdir()} == pinned
    return scenes


def test_estimate_all_presets_matches_golden(tmp_path):
    scenes = seed7_scenes(tmp_path)
    algos = [a for name in (*PRESETS, "n=2,p=4,sigma=3") for a in ("--algo", name)]
    out = tmp_path / "estimates_all_presets.csv"
    argv = ["estimate", "--images", scenes, *algos, "--mask-chart", "--out", out, "--jobs", "1"]
    assert run(argv) == 0
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


def test_estimate_unblurred_derivatives_match_golden(tmp_path):
    # On raw counts (sigma = 0) neighbour differences are exact and often zero.
    scenes = seed7_scenes(tmp_path)
    specs = ("n=1,p=2,sigma=0", "n=2,p=1,sigma=0", "n=1,p=inf,sigma=0", "n=2,p=6,sigma=0.5")
    algos = [a for spec in specs for a in ("--algo", spec)]
    out = tmp_path / "estimates_sigma0_derivatives.csv"
    argv = ["estimate", "--images", scenes, *algos, "--mask-chart", "--out", out, "--jobs", "1"]
    assert run(argv) == 0
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


def test_estimate_worker_peak_memory_stays_under_one_and_a_half_frames(tmp_path):
    """Load, masks, linearisation and all six presets of one image, traced."""
    spec = synth.SceneSpec(illuminant=(0.8, 0.6, 0.4), black_level=129.0, noise_sigma=4.0, rng_seed=1)
    path = synth.write_scene(synth.render(spec), tmp_path, "scene")
    task = ("scene", str(path), str(tmp_path / "scene.chart"), list(PRESETS.values()), True)
    frame_bytes = spec.height * spec.width * 3 * 8  # one float64 (H, W, 3) frame
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        image_id, rows, errors = cli._estimate_one(task)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (image_id, len(rows), errors) == ("scene", len(PRESETS), [])
    assert peak < 1.5 * frame_bytes


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


def test_evaluate_scores_a_tiny_estimate_channel_without_a_warning(tmp_path, capsys):
    # The ratio reference/estimate is about 1e163: finite, but its squared
    # cross norm with the neutral direction overflows without row scaling.
    gt = tmp_path / "gt.csv"
    est = tmp_path / "est.csv"
    gt.write_text(GT_HEADER + "\na,1000,800,600,18,cam,true\n")
    est.write_text(EST_HEADER + "\na,gw,0,1,0,1e-160,0.6,0.8\n")
    out = tmp_path / "err.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise here
        code = run(["evaluate", "--gt", gt, "--est", est, "--metric", "reproduction", "--out", out])
    assert code == 0
    assert out.read_text().splitlines()[1:] == ["a,gw,reproduction,54.7356103"]
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize(
    "bad_row, message",
    [
        pytest.param("a,alg,0,1,0,nan,0.6,0.8", "components must be finite and >= 0", id="nan"),
        pytest.param("a,alg,0,1,0,0.6,inf,0.8", "components must be finite and >= 0", id="inf"),
        pytest.param("a,alg,0,1,0,0.6,0.8,-1", "components must be finite and >= 0", id="negative"),
        pytest.param("a,alg,0,1,0,0,0,-0.0", "degenerate illuminant: zero vector", id="zero"),
        pytest.param("a,alg,0,1,0,0.6,0.8", "row has 7 fields, header has 8", id="short"),
        # An unquoted explicit-spec label used to be read with its columns shifted.
        pytest.param(
            "a,grey-edge-1(p=5,s=2),1,5,2,0.5,0.6,0.7", "row has 9 fields, header has 8", id="long"
        ),
        pytest.param(
            "b,alg,0,1,0,0.6,0,0.8", "duplicate estimate for image 'b', algorithm 'alg'", id="repeat"
        ),
    ],
)
def test_evaluate_names_the_file_line_and_reason_of_a_bad_estimate_row(
    tmp_path, capsys, bad_row, message
):
    gt, est, out = tmp_path / "gt.csv", tmp_path / "est.csv", tmp_path / "err.csv"
    gt.write_text(GT_HEADER + "\na,1000,800,600,18,cam,true\nb,900,900,900,18,cam,true\n")
    # The blank line counts: the bad row is on line 4 of the file.
    est.write_text(EST_HEADER + "\nb,alg,0,1,0,0.6,0.8,0\n\n" + bad_row + "\n")
    assert run(["evaluate", "--gt", gt, "--est", est, "--out", out]) == 1
    assert capsys.readouterr() == ("", f"error: {est}: line 4: {message}\n")
    assert not out.exists()


def test_evaluate_and_rank_name_a_file_the_csv_reader_cannot_read(tmp_path, capsys):
    # A stray quote runs a field past the csv module's 128 KB field limit; its
    # csv.Error, which is no ValueError, ended evaluate in a traceback.
    gt, est, out = tmp_path / "gt.csv", tmp_path / "est.csv", tmp_path / "err.csv"
    gt.write_text(GT_HEADER + "\na,1000,800,600,18,cam,true\n")
    rows = "".join(f"a,alg{i},0,1,0,0.6,0.8,0.1\n" for i in range(6000))
    est.write_text(EST_HEADER + '\na,x,0,1,0,0.6,0.8,0.1\n"' + rows)
    assert est.stat().st_size > 128 * 1024
    assert run(["evaluate", "--gt", gt, "--est", est, "--out", out]) == 1
    message = f"error: {est}: line 3: field larger than field limit (131072)\n"
    assert capsys.readouterr() == ("", message)
    assert not out.exists()
    # A byte that is not UTF-8 was reported without the file's name.
    err = tmp_path / "errors.csv"
    err.write_bytes(b"image_id,algorithm,metric,degrees\na,A,recovery,\xff\n")
    assert run(["rank", "--errors", err, "--out", out]) == 1
    message = f"error: {err}: line 2: not UTF-8 text: byte 0xff: invalid start byte\n"
    assert capsys.readouterr() == ("", message)
    assert not out.exists()


def test_evaluate_scores_estimate_rows_of_any_finite_magnitude(tmp_path, capsys):
    # These rows were refused: a norm that underflowed ("estimate must have unit
    # Euclidean norm"), a vector whose norm read as zero, and a squared norm
    # that overflowed with a RuntimeWarning.
    gt, est, out = tmp_path / "gt.csv", tmp_path / "est.csv", tmp_path / "err.csv"
    gt.write_text(GT_HEADER + "\na,1000,800,600,18,cam,true\n")
    tiny, huge = (f"{0.6 * 2.0**k!r},{0.8 * 2.0**k!r},0" for k in (-1000, 1000))
    est.write_text(
        EST_HEADER + "\na,x,,,,1e-160,1e-160,0\na,y,,,,3e-170,0,0\na,z,,,,1e200,1e200,1e200\n"
        f"a,tiny,,,,{tiny}\na,huge,,,,{huge}\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["evaluate", "--gt", gt, "--est", est, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[1:] == [
        f"a,{algo},recovery,{fmt9(recovery_error(direction, (1000, 800, 600)))}"
        for algo, direction in (
            ("x", (1, 1, 0)), ("y", (1, 0, 0)), ("z", (1, 1, 1)), ("tiny", (3, 4, 0)), ("huge", (3, 4, 0))
        )
    ]


def test_evaluate_scores_the_table_without_making_an_estimate_record(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("evaluate made an IlluminantEstimate")

    monkeypatch.setattr(IlluminantEstimate, "__post_init__", refuse)
    out = tmp_path / "errors_recovery_sub.csv"
    argv = ["evaluate", "--gt", GOLDEN / "gt_subtracted.csv", "--est", GOLDEN / "estimates.csv",
            "--metric", "recovery", "--out", out]
    assert run(argv) == 0
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


def test_evaluate_at_corpus_scale_matches_a_per_row_reference(tmp_path, capsys):
    # 568 images x 12 algorithms, the size of the ColorChecker set: the batched
    # reader's error CSV equals, byte for byte, one built a row at a time.
    rng = np.random.default_rng(71)
    ids = [f"im{i:03d}" for i in range(568)]
    gt, est, out = tmp_path / "gt.csv", tmp_path / "est.csv", tmp_path / "err.csv"
    write_gt(
        [GroundTruthRecord(i, tuple(rng.uniform(50.0, 3000.0, 3)), 18, "cam", True) for i in ids],
        gt,
    )
    rows = []
    for algo in range(12):
        for image_id in ids:
            v = rng.uniform(0.0, 1.0, 3)
            if rng.random() < 0.01:
                v[rng.integers(3)] = 0.0  # no reproduction error for a zero channel
            estimate = IlluminantEstimate(image_id, f"algo{algo:02d}", tuple(v / np.linalg.norm(v)))
            rows.append((estimate, None))
    write_estimates(rows, est)
    references = {rec.image_id: rec.illuminant for rec in read_gt(gt)}
    for metric, error in (("recovery", recovery_error), ("reproduction", reproduction_error)):
        expected = ["image_id,algorithm,metric,degrees"]
        for line in est.read_text().splitlines()[1:]:
            image_id, algorithm, *_, r, g, b = line.split(",")
            v = np.array([float(r), float(g), float(b)])
            try:
                degrees = error(v / np.linalg.norm(v), references[image_id])
            except ValueError:
                continue
            expected.append(f"{image_id},{algorithm},{metric},{fmt9(degrees)}")
        code = run(["evaluate", "--gt", gt, "--est", est, "--metric", metric, "--out", out])
        capsys.readouterr()
        assert code == (0 if len(expected) == len(rows) + 1 else 2)
        assert out.read_text() == "\n".join(expected) + "\n"
    assert len(expected) < len(rows) + 1  # the zero channels failed reproduction


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


@pytest.mark.parametrize("stat", ["mean", "median", "trimean", "q95", "best25", "worst25"])
def test_rank_stdout_matches_golden(tmp_path, capsys, stat):
    # The demo's two recovery-error tables, ranked under each --stat; the
    # committed stdout has the temp directory replaced by "<tmp>".
    inputs = [tmp_path / f"errors_recovery_{c}.csv" for c in ("sub", "raw")]
    for path in inputs:
        path.write_bytes((GOLDEN / path.name).read_bytes())
    out = tmp_path / "ranking_recovery.csv"
    argv = ["rank", "--errors", inputs[0], "--errors", inputs[1], "--stat", stat, "--out", out]
    assert run(argv) == 0
    printed = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    assert printed == (GOLDEN / f"rank_recovery.{stat}.stdout").read_text()
    if stat == "median":
        for name in ("ranking_recovery.csv", *(f"ranking_recovery.{p.stem}.csv" for p in inputs)):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


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
        ("a,A,recovery,1\nb,A,recovery,-5\n", "line 3: degrees must be finite and within [0, 180]"),
        ("a,A,recovery,400\n", "line 2: degrees must be finite and within [0, 180]"),
    ],
    ids=["duplicate", "mixed-metric", "not-a-number", "nan", "negative", "past-180"],
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


def test_diff_gt_failed_offset_fit_leaves_no_output(tmp_path, capsys):
    # An offset of -10 zeroes the first illuminant: the fit fails before any report.
    gt = tmp_path / "gt.csv"
    gt.write_text(GT_HEADER + "\na,10,10,10,18,cam,true\nb,20,20,20,18,cam,true\n")
    out = tmp_path / "report.csv"
    assert run(["diff-gt", "--a", gt, "--b", gt, "--offset", "-10", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: zero vector has no direction" in captured.err
    assert not out.exists()


def test_diff_gt_stdout_matches_golden(tmp_path, capsys):
    # The demo's two ground truths; the committed stdout has the temp
    # directory replaced by "<tmp>".
    inputs = [tmp_path / f"gt_{c}.csv" for c in ("subtracted", "unsubtracted")]
    for path in inputs:
        path.write_bytes((GOLDEN / path.name).read_bytes())
    out = tmp_path / "gt_divergence.csv"
    argv = ["diff-gt", "--a", inputs[0], "--b", inputs[1], "--offset", "129", "--scan-offset",
            "--out", out]
    assert run(argv) == 0
    printed = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    assert printed == (GOLDEN / "diff_gt.stdout").read_text()
    assert out.read_bytes() == (GOLDEN / "gt_divergence.csv").read_bytes()


def shifted_gt(path, source, counts):
    """``source`` with ``counts`` added to every R, G and B, as a GT CSV at ``path``."""
    with open(source, newline="") as f:
        rows = list(csv.reader(f))
    with open(path, "w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(rows[0])
        out.writerows([r[0], *(repr(float(v) + counts) for v in r[1:4]), *r[4:]] for r in rows[1:])
    return path


# The stdout of a scan whose best offset is the top of the range: the lines
# any other best offset prints, since the edge warning goes to stderr.
SCAN_EDGE_STDOUT = """\
matched images:   4
only in A:        0
only in B:        0
median angle:     10.692213 deg
max angle:        11.166379 deg
outliers (> 0.25 deg): 4 -> rev000, rev001, rev002, rev003
best offset: 512 (median residual 0.880968 deg, 0.0% within 0.1 deg)
wrote per-image report to <tmp>/report.csv
"""


def test_diff_gt_warns_when_the_best_offset_is_the_top_of_the_scan(tmp_path, capsys):
    # 600 counts lie past the scanned 0..512, so the scan stops at 512.
    gt_a = GOLDEN / "gt_subtracted.csv"
    gt_b = shifted_gt(tmp_path / "gt_600.csv", gt_a, 600)
    out = tmp_path / "report.csv"
    assert run(["diff-gt", "--a", gt_a, "--b", gt_b, "--scan-offset", "--out", out]) == 0
    captured = capsys.readouterr()
    assert captured.out.replace(str(tmp_path), "<tmp>") == SCAN_EDGE_STDOUT
    assert captured.err == (
        "warning: best offset 512 is the top of the scanned range 0..512; "
        "the true offset may lie past it\n"
    )
    # An offset inside the range is found exactly, with no warning.
    gt_b = shifted_gt(tmp_path / "gt_511.csv", gt_a, 511)
    assert run(["diff-gt", "--a", gt_a, "--b", gt_b, "--scan-offset", "--out", out]) == 0
    captured = capsys.readouterr()
    assert "best offset: 511 (median residual 0.000000 deg" in captured.out
    assert captured.err == ""


def test_diff_gt_warns_when_the_scan_stops_at_zero_with_a_residual(tmp_path, capsys):
    # Swapped sets: --a has the dark offset left in, so adding any offset to it
    # only moves it further from --b, and the scan stops at 0.
    out = tmp_path / "report.csv"
    argv = ["diff-gt", "--b", GOLDEN / "gt_subtracted.csv", "--scan-offset", "--out", out]
    assert run([*argv, "--a", GOLDEN / "gt_unsubtracted.csv"]) == 0
    captured = capsys.readouterr()
    assert "best offset: 0 (median residual 3.661592 deg, 0.0% within 0.1 deg)\n" in captured.out
    assert captured.err == (
        "warning: best offset 0 is the bottom of the scanned range 0..512 and leaves a "
        "median residual of 3.661592 deg; --a may be the set with the offset left in "
        "(swap --a and --b)\n"
    )
    # A set against itself: offset 0 explains it exactly, with no warning.
    assert run([*argv, "--a", GOLDEN / "gt_subtracted.csv"]) == 0
    captured = capsys.readouterr()
    assert "best offset: 0 (median residual 0.000000 deg, 100.0% within 0.1 deg)\n" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "-0.5"])
def test_diff_gt_rejects_a_bad_threshold_before_writing(tmp_path, capsys, threshold):
    gt = tmp_path / "gt.csv"
    gt.write_text(GT_HEADER + "\na,1000,800,600,18,cam,true\n")
    out = tmp_path / "report.csv"
    assert run(["diff-gt", "--a", gt, "--b", gt, f"--threshold={threshold}", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (
        f"error: outlier threshold must be finite and >= 0, got {float(threshold)!r}"
        in captured.err
    )
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


def test_evaluate_and_diff_gt_reject_a_gt_file_that_mixes_conventions(tmp_path, capsys):
    gt, est = tmp_path / "gt.csv", tmp_path / "est.csv"
    gt.write_text(GT_HEADER + "\na,1000,800,600,18,cam,true\nb,1129,929,729,18,cam,false\n")
    u = 1 / math.sqrt(3)
    est.write_text(EST_HEADER + "\n" + "".join(f"{i},alg,0,1,0,{u!r},{u!r},{u!r}\n" for i in "ab"))
    out = tmp_path / "out.csv"
    message = f"{gt}: line 3: black_level_subtracted mixes true and false"
    assert run(["evaluate", "--gt", gt, "--est", est, "--out", out]) == 1
    assert message in capsys.readouterr().err
    assert run(["diff-gt", "--a", gt, "--b", gt, "--scan-offset", "--out", out]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_diff_gt_no_overlap_exits_1(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(GT_HEADER + "\nx,1,1,1,18,cam,true\n")
    b.write_text(GT_HEADER + "\ny,1,1,1,18,cam,true\n")
    assert run(["diff-gt", "--a", a, "--b", b, "--out", tmp_path / "r.csv"]) == 1
    assert "common" in capsys.readouterr().err


# --- input order -------------------------------------------------------------
# Row order in an input CSV carries no meaning: rank and diff-gt give the same
# bytes for any order, and evaluate keeps its one row per estimate in estimate
# order.  A few seeded shuffles of each input keep these cheap.

ORDERS = (None, 1, 2, 3)  # as written, then three seeded shuffles


def write_shuffled(path, header, rows, seed):
    order = range(len(rows)) if seed is None else np.random.default_rng(seed).permutation(len(rows))
    path.write_text("\n".join([header] + [rows[k] for k in order]) + "\n")
    return [rows[k] for k in order]


def run_captured(argv, capsys, outputs):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, [path.read_bytes() for path in outputs]


def test_rank_output_does_not_depend_on_row_order(tmp_path, capsys):
    rng = np.random.default_rng(61)
    header = "image_id,algorithm,metric,degrees"
    tables = {
        name: [
            f"im{i:02d},{algo},recovery,{fmt9(rng.uniform(0.0, 20.0))}"
            for algo in ("A", "B", "C", "D")
            for i in range(12)
            if (name, algo, i) != ("two", "C", 5)  # one image not shared
        ]
        for name in ("one", "two")
    }
    paths = [tmp_path / f"{name}.csv" for name in tables]
    out = tmp_path / "cmp.csv"
    argv = ["rank", "--errors", paths[0], "--errors", paths[1], "--stat", "mean", "--out", out]
    outputs = [out, tmp_path / "cmp.one.csv", tmp_path / "cmp.two.csv"]
    results = []
    for seed in ORDERS:
        for path, rows in zip(paths, tables.values()):
            write_shuffled(path, header, rows, seed)
        results.append(run_captured(argv, capsys, outputs))
    assert results[0][0] == 0 and "(dropped: im05)" in results[0][2]
    assert all(result == results[0] for result in results[1:])


def test_diff_gt_scan_does_not_depend_on_row_order(tmp_path, capsys):
    rng = np.random.default_rng(62)
    rows_a, rows_b = [], []
    for i in range(24):
        v = rng.uniform(300.0, 2500.0, size=3)
        w = v + 129.0 + (rng.normal(0.0, 30.0, size=3) if i % 5 == 0 else 0.0)
        if i != 3:
            rows_a.append(f"im{i:02d},{','.join(fmt9(c) for c in v)},18,cam,true")
        if i != 7:
            rows_b.append(f"im{i:02d},{','.join(fmt9(c) for c in w)},18,cam,false")
    a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "report.csv"
    argv = ["diff-gt", "--a", a, "--b", b, "--scan-offset", "--out", out]
    results = []
    for seed in ORDERS:
        write_shuffled(a, GT_HEADER, rows_a, seed)
        write_shuffled(b, GT_HEADER, rows_b, seed)
        results.append(run_captured(argv, capsys, [out]))
    assert results[0][0] == 0 and "best offset: 129 " in results[0][1]
    assert all(result == results[0] for result in results[1:])


def test_evaluate_rows_follow_the_estimate_order(tmp_path, capsys):
    rng = np.random.default_rng(63)
    gt_rows = [f"im{i},{','.join(fmt9(c) for c in rng.uniform(300, 2500, 3))},18,cam,true"
               for i in range(8)]
    gt = tmp_path / "gt.csv"
    gt.write_text(GT_HEADER + "\n" + "\n".join(gt_rows) + "\n")
    est_rows = []
    for i in range(10):  # im8 and im9 are missing from the ground truth
        for algo in ("A", "B"):
            v = rng.uniform(0.1, 1.0, 3)
            if (i, algo) == (2, "B"):
                v[1] = 0.0  # no reproduction error for a zero channel
            v /= np.linalg.norm(v)
            est_rows.append(f"im{i},{algo},,,,{','.join(fmt9(c) for c in v)}")
    est, out = tmp_path / "est.csv", tmp_path / "err.csv"
    argv = ["evaluate", "--gt", gt, "--est", est, "--metric", "reproduction", "--out", out]
    runs = []
    for seed in ORDERS:
        shuffled = write_shuffled(est, EST_HEADER, est_rows, seed)
        runs.append((shuffled, run_captured(argv, capsys, [out])))

    def key(row):
        return tuple(row.split(",")[:2])

    _, (code, printed, err, (written,)) = runs[0]
    assert code == 2 and printed.startswith("wrote 15 reproduction errors")
    scored = {key(row): row for row in written.decode().splitlines()[1:]}
    failed = [key(row) for row in est_rows if key(row) not in scored]
    assert len(failed) == len(err.splitlines()) == 5
    logged = dict(zip(failed, err.splitlines()))
    for rows, (code_s, printed_s, err_s, (written_s,)) in runs[1:]:
        assert (code_s, printed_s) == (code, printed)
        assert written_s.decode().splitlines()[1:] == [scored[key(r)] for r in rows if key(r) in scored]
        assert err_s.splitlines() == [logged[key(r)] for r in rows if key(r) in logged]


# --- parser ------------------------------------------------------------------


def test_unknown_flag_exits_1(capsys):
    assert run(["extract-gt", "--bogus"]) == 1


def test_missing_subcommand_exits_1(capsys):
    assert run([]) == 1


def test_cli_and_estimate_many_import_no_scipy():
    # The library's runtime is numpy alone; scipy is only the tests' reference.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    script = (
        "import sys, numpy as np, chromabench.cli\n"
        "from chromabench import estimators\n"
        "from chromabench.chartgeom import ChartLayout\n"
        "mask = estimators.chart_region_mask(40, 48, ChartLayout([(10, 10), (30, 10), (30, 25), (10, 25)]))\n"
        "counts = np.random.default_rng(1).integers(1, 4000, (40, 48, 3)).astype(np.uint16)\n"
        "spec = estimators.spec_from_string('n=2,p=6,sigma=2')\n"
        "rgb, problems = estimators.estimate_many(counts, [spec], mask, 0.0)\n"
        "assert problems == {} and np.isfinite(rgb).all(), problems\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.stdout.strip() == "[]", proc.stderr


# A fresh interpreter runs cli.main(argv) (or only imports cli, for no argv)
# and writes its exit code and every module name then loaded to argv[1].
_MODULES_PROBE = (
    "import sys\n"
    "from chromabench import cli\n"
    "code = cli.main(sys.argv[2:]) if sys.argv[2:] else 0\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write('\\n'.join([str(code), *sorted(sys.modules)]))\n"
)


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    synthcases.write_corpus(corpus, np.random.default_rng(33), count=2)
    spec = write_scene_json(tmp_path / "scene.json")
    gt, est, err = tmp_path / "gt.csv", tmp_path / "est.csv", tmp_path / "err.csv"
    commands = {
        "import": [],
        "synth": ["synth", "--spec", spec, "--out", tmp_path / "scene"],
        "extract-gt": ["extract-gt", "--images", corpus, "--out", gt, "--jobs", "1"],
        "extract-gt --jobs 2": ["extract-gt", "--images", corpus, "--out", gt, "--jobs", "2"],
        "estimate": ["estimate", "--images", corpus, "--algo", "grey-edge-1", "--mask-chart",
                     "--out", est, "--jobs", "1"],
        "estimate --jobs 2": ["estimate", "--images", corpus, "--algo", "grey-edge-1",
                              "--mask-chart", "--out", est, "--jobs", "2"],
        "evaluate": ["evaluate", "--gt", gt, "--est", est, "--out", err],
        "rank": ["rank", "--errors", err, "--out", tmp_path / "rank.csv"],
        "diff-gt": ["diff-gt", "--a", gt, "--b", gt, "--scan-offset", "--out", tmp_path / "d.csv"],
    }
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    listing = tmp_path / "modules.txt"
    loaded = {}
    for name, argv in commands.items():
        proc = subprocess.run(
            [sys.executable, "-c", _MODULES_PROBE, listing, *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, *modules = listing.read_text().splitlines()
        assert code == "0", (name, proc.stderr)
        loaded[name] = set(modules)

    def loading(module):
        return {name for name, modules in loaded.items() if module in modules}

    assert not {m for m in loaded["import"] if m.split(".")[0] == "numpy"}
    assert {m for m in loaded["rank"] if m.split(".")[0] == "chromabench"} == {
        "chromabench", "chromabench.cli", "chromabench._util", "chromabench.metrics"
    }
    assert loading("chromabench.synth") == {"synth"}
    assert loading("chromabench.audit") == {"diff-gt"}
    assert loading("concurrent.futures.process") == {"extract-gt --jobs 2", "estimate --jobs 2"}
