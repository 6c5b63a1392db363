"""Batch command-line front end.

Subcommands cover the full benchmark workflow:

    synth       render a synthetic chart scene from a JSON spec
    extract-gt  compute per-image ground-truth illuminants from chart scenes
    estimate    run statistical estimators over an image directory
    evaluate    score estimates against a ground truth (recovery/reproduction)
    rank        rank algorithms by a summary statistic; compare across GTs
    diff-gt     compare two ground-truth sets, with offset-hypothesis tools

Exit codes: 0 success, 1 usage/config error, 2 partial data failure (some
images failed; successes were still written).  Output files are written
atomically and are byte-stable for fixed inputs regardless of --jobs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import audit, chartgeom, estimators, groundtruth, imagecore, metrics, synth
from ._util import fmt9, write_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2

JOBS_ENV_VAR = "CHROMABENCH_JOBS"


class CliError(Exception):
    """Configuration or input error that should terminate with exit code 1."""


def _resolve_jobs(arg_jobs: int | None) -> int:
    if arg_jobs is not None:
        jobs = arg_jobs
    elif os.environ.get(JOBS_ENV_VAR):
        try:
            jobs = int(os.environ[JOBS_ENV_VAR])
        except ValueError as exc:
            raise CliError(f"bad {JOBS_ENV_VAR} value: {os.environ[JOBS_ENV_VAR]!r}") from exc
    else:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise CliError("--jobs must be >= 1")
    return jobs


def _discover_images(images_dir: str) -> list[tuple[str, Path]]:
    root = Path(images_dir)
    if not root.is_dir():
        raise CliError(f"not a directory: {images_dir}")
    found = sorted(root.glob("*.ppm"))
    if not found:
        raise CliError(f"no .ppm images in {images_dir}")
    return [(p.stem, p) for p in found]


def _log_error(image_id: str, message: str) -> None:
    print(f"error: {image_id}: {message}", file=sys.stderr)


def _run_per_image(worker, tasks: list, jobs: int) -> tuple[list, int]:
    """Results of ``worker`` over ``tasks`` in task order, and the failure count.

    A worker returns (image_id, results, error messages); each message is logged.
    """
    if jobs == 1 or len(tasks) <= 1:
        outcomes = [worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(worker, tasks))
    results, failures = [], 0
    for image_id, image_results, errors in outcomes:
        results.extend(image_results)
        for message in errors:
            _log_error(image_id, message)
        failures += len(errors)
    return results, failures


# ---------------------------------------------------------------------------
# extract-gt


def _extract_one(task):
    image_id, image_path, chart_path, subtract_black = task
    try:
        img = imagecore.load_image(image_path)
        layout = chartgeom.read_chart_file(chart_path)
        record = groundtruth.compute_ground_truth(
            img, layout, img.camera, image_id=image_id, subtract_black=subtract_black
        )
        return image_id, [record], []
    except Exception as exc:  # noqa: BLE001 - per-image failures must not kill the run
        return image_id, [], [str(exc)]


def cmd_extract_gt(args) -> int:
    jobs = _resolve_jobs(args.jobs)
    images = _discover_images(args.images)
    charts_dir = Path(args.charts)
    tasks = [
        (image_id, str(path), str(charts_dir / f"{image_id}.chart"), not args.no_black_subtract)
        for image_id, path in images
    ]
    records, failures = _run_per_image(_extract_one, tasks, jobs)
    groundtruth.write_gt(records, args.out)
    print(f"wrote {len(records)} ground-truth records to {args.out}")
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def _estimate_one(task):
    image_id, image_path, chart_path, specs, mask_chart, sat_mask = task
    rows = []
    errors = []
    try:
        img = imagecore.load_image(image_path)
        mask = np.ones((img.height, img.width), dtype=bool)
        if sat_mask:
            # Clipping is judged on raw counts, before the dark offset is removed.
            mask &= estimators.saturation_mask(img, img.camera.saturation_level)
        if mask_chart:
            layout = chartgeom.read_chart_file(chart_path)
            mask &= estimators.chart_region_mask(
                img.height, img.width, layout.corners, dilate_px=5
            )
        linear = imagecore.subtract_black_level(img, img.camera.black_level)
    except Exception as exc:  # noqa: BLE001
        return image_id, [], [f"{exc}"]
    for spec in specs:
        try:
            est = estimators.estimate(linear, spec, mask, image_id=image_id)
            rows.append((est, spec))
        except Exception as exc:  # noqa: BLE001
            errors.append(f"{spec.name}: {exc}")
    return image_id, rows, errors


def cmd_estimate(args) -> int:
    jobs = _resolve_jobs(args.jobs)
    specs = [estimators.spec_from_string(text) for text in args.algo]
    names = [spec.name for spec in specs]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise CliError(f"--algo repeats {', '.join(repeated)}")
    images = _discover_images(args.images)
    charts_dir = Path(args.charts) if args.charts else Path(args.images)
    tasks = [
        (
            image_id,
            str(path),
            str(charts_dir / f"{image_id}.chart"),
            specs,
            args.mask_chart,
            not args.no_sat_mask,
        )
        for image_id, path in images
    ]
    import scipy.ndimage  # noqa: F401 - once, before the pool forks, not once per worker

    rows, failures = _run_per_image(_estimate_one, tasks, jobs)
    estimators.write_estimates(rows, args.out)
    print(f"wrote {len(rows)} estimates to {args.out}")
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    gt_map = groundtruth.records_by_id(groundtruth.read_gt(args.gt))
    ests = estimators.read_estimates(args.est)
    if not ests:
        raise CliError(f"no estimates in {args.est}")
    matched = [est for est in ests if est.image_id in gt_map]
    degrees, problems = metrics.error_angles(
        args.metric,
        np.reshape([est.rgb for est in matched], (len(matched), 3)),
        np.reshape([gt_map[est.image_id].illuminant for est in matched], (len(matched), 3)),
    )
    scores = iter(enumerate(degrees))  # one per matched estimate, in order
    rows = []
    failures = 0
    for est in ests:
        if est.image_id not in gt_map:
            failures += 1
            _log_error(est.image_id, "missing from ground truth; skipped")
            continue
        i, angle = next(scores)
        if i in problems:
            failures += 1
            _log_error(est.image_id, f"{est.algorithm}: {problems[i]}")
            continue
        rows.append((est.image_id, est.algorithm, args.metric, fmt9(angle)))
    if not rows:
        raise CliError("no estimate could be scored against this ground truth")
    write_csv(args.out, metrics.ERROR_FIELDS, rows)
    print(f"wrote {len(rows)} {args.metric} errors to {args.out}")
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# rank


def _labels_for(paths: list[str]) -> list[str]:
    labels = []
    for path in paths:
        stem = Path(path).stem
        label = stem
        i = 2
        while label in labels:
            label = f"{stem}-{i}"
            i += 1
        labels.append(label)
    return labels


def _common(sets: list[set[str]], what: str, across: str) -> set[str]:
    """Names in every set; warns about the others and fails when none is left."""
    common = set.intersection(*sets)
    dropped = set.union(*sets) - common
    if dropped:
        print(
            f"warning: {what} sets differ across {across}; ranking the "
            f"intersection (dropped: {', '.join(sorted(dropped))})",
            file=sys.stderr,
        )
    if not common:
        raise CliError(f"no {what} is common to all {across}")
    return common


def cmd_rank(args) -> int:
    labels = _labels_for(args.errors)
    per_file = {label: metrics.read_errors(path) for label, path in zip(labels, args.errors)}
    algorithms = _common([set(by_algo) for by_algo in per_file.values()], "algorithm", "inputs")
    # Summaries compare only over one population (Hordley and Finlayson 2006):
    # every ranked algorithm in every file is scored on the same images.
    images = _common(
        [set(by_algo[a]) for by_algo in per_file.values() for a in algorithms],
        "image",
        "algorithms and inputs",
    )

    out = Path(args.out)
    tables: dict[str, metrics.RankingTable] = {}
    for label in labels:
        summaries = {
            algo: metrics.summarize([d for i, d in by_image.items() if i in images])
            for algo, by_image in per_file[label].items()
            if algo in algorithms
        }
        tables[label] = metrics.rank(summaries, key=args.stat)
        # One input writes its ranking to --out; several write one file each beside it.
        path = out if len(labels) == 1 else out.with_name(
            f"{out.stem}.{label}{out.suffix or '.csv'}"
        )
        metrics.write_ranking_csv(tables[label], path)
        print(metrics.format_ranking_text(tables[label], title=f"[{label}] by {args.stat}"))
        print(f"wrote ranking to {path}")
    if len(labels) == 1:
        return EXIT_OK

    # Side-by-side comparison, ordered by the first input's ranking.
    rank_of = {
        label: {row.algorithm: row for row in tables[label].rows} for label in labels
    }
    header = ["algorithm"]
    for label in labels:
        header += [f"rank_{label}", f"{args.stat}_{label}"]
    rows = []
    for first in tables[labels[0]].rows:
        row_out = [first.algorithm]
        for label in labels:
            row = rank_of[label][first.algorithm]
            row_out += [str(row.rank), fmt9(metrics.summary_stat(row.summary, args.stat))]
        rows.append(row_out)
    write_csv(out, header, rows)

    print(metrics.format_table(header, rows, title="rank comparison:"))
    print(f"wrote comparison to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# diff-gt


def cmd_diff_gt(args) -> int:
    if args.offset is not None and not math.isfinite(args.offset):
        raise CliError(f"--offset must be finite, got {args.offset!r}")
    set_a = groundtruth.records_by_id(groundtruth.read_gt(args.a))
    set_b = groundtruth.records_by_id(groundtruth.read_gt(args.b))
    report = audit.diff_ground_truths(set_a, set_b, args.threshold)

    rows = (
        [image_id, fmt9(angle), "true" if angle > report.threshold_deg else "false"]
        for image_id, angle in sorted(report.angles_deg.items())
    )
    write_csv(args.out, ["image_id", "degrees", "outlier"], rows)

    print(f"matched images:   {report.matched}")
    print(f"only in A:        {len(report.only_in_a)}")
    print(f"only in B:        {len(report.only_in_b)}")
    print(f"median angle:     {report.median_deg:.6f} deg")
    print(f"max angle:        {report.max_deg:.6f} deg")
    print(
        f"outliers (> {report.threshold_deg:g} deg): {len(report.outliers)}"
        + (f" -> {', '.join(report.outliers)}" if report.outliers else "")
    )
    if args.offset is not None:
        fit = audit.explain_offset(set_a, set_b, args.offset)
        print(
            f"offset {fit.offset:g}: {100.0 * fit.fraction_within:.1f}% within 0.1 deg, "
            f"median residual {fit.median_residual_deg:.6f} deg"
        )
    if args.scan_offset:
        best = audit.scan_offset(set_a, set_b)
        print(
            f"best offset: {best.offset:g} "
            f"(median residual {best.median_residual_deg:.6f} deg, "
            f"{100.0 * best.fraction_within:.1f}% within 0.1 deg)"
        )
    print(f"wrote per-image report to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth


# Keys a JSON scene spec may carry besides the SceneSpec fields.
_JSON_ONLY_KEYS = {"image_id", "corners", "achromatic_reflectances"}


def _scene_from_json(payload: dict) -> tuple[synth.SceneSpec, str]:
    spec_fields = {f.name for f in dataclasses.fields(synth.SceneSpec)}
    unknown = set(payload) - spec_fields - _JSON_ONLY_KEYS
    if unknown:
        raise CliError(f"unknown scene spec fields: {sorted(unknown)}")
    if "pose" in payload and "corners" in payload:
        raise CliError("give either 'pose' or 'corners', not both")
    kwargs = {key: value for key, value in payload.items() if key in spec_fields}
    if "corners" in payload:
        corners = np.asarray(payload["corners"], dtype=np.float64).reshape(4, 2)
        kwargs["pose"] = synth.pose_from_corners(corners)
    if "achromatic_reflectances" in payload:
        ramp = np.asarray(payload["achromatic_reflectances"], dtype=np.float64)
        if ramp.shape != (6,):
            raise CliError("achromatic_reflectances must be 6 values")
        table = np.array(
            kwargs.get("reflectance_table", synth.DEFAULT_REFLECTANCES), dtype=np.float64
        )
        table[18:24] = ramp[:, None]
        kwargs["reflectance_table"] = table
    try:
        spec = synth.SceneSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid scene spec: {exc}") from exc
    return spec, str(payload.get("image_id", "scene"))


def cmd_synth(args) -> int:
    try:
        payload = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read scene spec: {exc}") from exc
    if not isinstance(payload, dict):
        raise CliError("scene spec must be a JSON object")
    spec, image_id = _scene_from_json(payload)
    scene = synth.render(spec)
    path = synth.write_scene(scene, args.out, image_id)
    illum = scene.true_illuminant
    print(f"true_illuminant: {fmt9(illum[0])} {fmt9(illum[1])} {fmt9(illum[2])}")
    print(f"wrote {path}, sidecar and chart file")
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chromabench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-gt", help="compute ground-truth illuminants")
    p.add_argument("--images", required=True, help="directory of .ppm images")
    p.add_argument("--charts", required=True, help="directory of .chart files")
    p.add_argument("--out", required=True, help="output ground-truth CSV")
    p.add_argument(
        "--no-black-subtract",
        action="store_true",
        help="skip black-level subtraction (legacy-style ground truth)",
    )
    p.add_argument("--jobs", type=int, default=None, help="parallel workers")
    p.set_defaults(func=cmd_extract_gt)

    p = sub.add_parser("estimate", help="run illuminant estimators")
    p.add_argument("--images", required=True, help="directory of .ppm images")
    p.add_argument(
        "--algo",
        action="append",
        required=True,
        help='preset name or "n=...,p=...,sigma=..." (repeatable)',
    )
    p.add_argument("--out", required=True, help="output estimates CSV")
    p.add_argument(
        "--charts", default=None, help=".chart directory (default: --images)"
    )
    p.add_argument(
        "--mask-chart",
        action="store_true",
        help="exclude the chart quadrilateral (dilated 5 px) from pooling",
    )
    p.add_argument(
        "--no-sat-mask",
        action="store_true",
        help="keep saturated pixels instead of masking them out",
    )
    p.add_argument("--jobs", type=int, default=None, help="parallel workers")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="score estimates against a ground truth")
    p.add_argument("--gt", required=True, help="ground-truth CSV")
    p.add_argument("--est", required=True, help="estimates CSV")
    p.add_argument(
        "--metric",
        choices=metrics.METRICS,
        default="recovery",
        help="angular error type",
    )
    p.add_argument("--out", required=True, help="output per-image error CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="rank algorithms; compare across GT sets")
    p.add_argument(
        "--errors", action="append", required=True, help="error CSV (repeatable)"
    )
    p.add_argument("--stat", choices=metrics.STAT_KEYS, default="median")
    p.add_argument("--out", required=True, help="output ranking/comparison CSV")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("diff-gt", help="compare two ground-truth sets")
    p.add_argument("--a", required=True, help="first ground-truth CSV")
    p.add_argument("--b", required=True, help="second ground-truth CSV")
    p.add_argument(
        "--threshold",
        type=float,
        default=audit.DEFAULT_OUTLIER_THRESHOLD_DEG,
        help="outlier threshold in degrees",
    )
    p.add_argument(
        "--offset", type=float, default=None, help="test 'b = a + offset' fit"
    )
    p.add_argument(
        "--scan-offset",
        action="store_true",
        help="sweep integer offsets 0..512 and report the best fit",
    )
    p.add_argument("--out", required=True, help="output per-image report CSV")
    p.set_defaults(func=cmd_diff_gt)

    p = sub.add_parser("synth", help="render a synthetic chart scene")
    p.add_argument("--spec", required=True, help="scene spec JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
