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

Each command imports only the library modules it runs, so a process loads
(and, with no cached bytecode, compiles) those and no others.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from ._util import fmt9, write_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2


class CliError(Exception):
    """Configuration or input error that should terminate with exit code 1."""


def _resolve_jobs(arg_jobs: int | None) -> int:
    """--jobs, or by default the CPUs this process may run on, not every CPU of the machine."""
    if arg_jobs is not None:
        jobs = arg_jobs
    elif hasattr(os, "sched_getaffinity"):
        jobs = len(os.sched_getaffinity(0))
    else:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise CliError("--jobs must be >= 1")
    return jobs


def _image_tasks(args, *extra) -> list[tuple]:
    """One (image_id, image path, chart path, *extra) task per --images .ppm, by name."""
    root = Path(args.images)
    if not root.is_dir():
        raise CliError(f"not a directory: {args.images}")
    found = sorted(root.glob("*.ppm"))
    if not found:
        raise CliError(f"no .ppm images in {args.images}")
    charts_dir = Path(args.charts or args.images)
    return [(p.stem, str(p), str(charts_dir / f"{p.stem}.chart"), *extra) for p in found]


def _log_error(image_id: str, message: str) -> None:
    print(f"error: {image_id}: {message}", file=sys.stderr)


def _run_per_image(
    worker, tasks: list, jobs: int, finish=lambda image_id, result: result
) -> tuple[list, int]:
    """Results of ``worker`` over ``tasks`` in task order, and the failure count.

    A worker returns (image_id, results, error messages).  ``finish(image_id,
    result)`` maps each result in this process.  Each message, and each
    ValueError ``finish`` raises, is logged in task order.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1:
        outcomes = [worker(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(worker, tasks))
    results, failures = [], 0
    for image_id, image_results, errors in outcomes:
        try:
            results.extend([finish(image_id, result) for result in image_results])
        except ValueError as exc:
            errors = [*errors, str(exc)]
        for message in errors:
            _log_error(image_id, message)
        failures += len(errors)
    return results, failures


# ---------------------------------------------------------------------------
# extract-gt


def _extract_one(task):
    from . import chartgeom, groundtruth, imagecore

    image_id, image_path, chart_path = task
    try:
        counts, camera = imagecore.load_counts(image_path)
        layout = chartgeom.read_chart_file(chart_path)
        return image_id, [(groundtruth.measure(counts, layout), camera)], []
    except Exception as exc:  # noqa: BLE001 - per-image failures must not kill the run
        return image_id, [], [str(exc)]


def cmd_extract_gt(args) -> int:
    # The workers' modules too: imported before the pool forks, so no worker
    # imports them again.
    from . import chartgeom, groundtruth, imagecore  # noqa: F401

    jobs = _resolve_jobs(args.jobs)
    tasks = _image_tasks(args)
    subtract_black = not args.no_black_subtract

    def decide(image_id, measured):  # in this process, in image order
        return groundtruth.decide(*measured, subtract_black, image_id)

    records, failures = _run_per_image(_extract_one, tasks, jobs, decide)
    groundtruth.write_gt(records, args.out)
    print(f"wrote {len(records)} ground-truth records to {args.out}")
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def _estimate_one(task):
    from . import chartgeom, estimators, imagecore

    image_id, image_path, chart_path, specs, mask_chart = task
    try:
        counts, camera = imagecore.load_counts(image_path)
        # Clipping is judged on raw counts, before the dark offset is removed.
        mask = estimators.saturation_mask(counts, camera.saturation_level)
        if mask_chart:
            layout = chartgeom.read_chart_file(chart_path)
            # A new array, not `mask &=`: on a full frame the in-place form
            # left the worker's heap laid out 8.6 MB higher in peak RSS.
            mask = estimators.chart_region_mask(*counts.shape[:2], layout) & mask
        rgb, problems = estimators.estimate_many(counts, specs, mask, camera.black_level)
    except Exception as exc:  # noqa: BLE001
        return image_id, [], [f"{exc}"]
    rows = [
        (estimators.IlluminantEstimate(image_id, spec.name, tuple(rgb[i].tolist())), spec)
        for i, spec in enumerate(specs)
        if i not in problems
    ]
    return image_id, rows, [f"{specs[i].name}: {problems[i]}" for i in sorted(problems)]


def cmd_estimate(args) -> int:
    # The workers' modules too, as in cmd_extract_gt.
    from . import chartgeom, estimators, imagecore  # noqa: F401

    jobs = _resolve_jobs(args.jobs)
    specs = [estimators.spec_from_string(text) for text in args.algo]
    names = [spec.name for spec in specs]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise CliError(f"--algo repeats {', '.join(repeated)}")
    tasks = _image_tasks(args, specs, args.mask_chart)
    rows, failures = _run_per_image(_estimate_one, tasks, jobs)
    estimators.write_estimates(rows, args.out)
    print(f"wrote {len(rows)} estimates to {args.out}")
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    from . import estimators, groundtruth, metrics

    # read_gt rejects a repeated image id, so each id names one illuminant.
    references = {rec.image_id: rec.illuminant for rec in groundtruth.read_gt(args.gt)}
    keys, rgb = estimators.read_estimates(args.est)
    if not keys:
        raise CliError(f"no estimates in {args.est}")
    absent = (float("nan"),) * 3  # the reference of an image the ground truth lacks
    degrees, problems = metrics.error_angles(
        args.metric, rgb, [references.get(image_id, absent) for image_id, _ in keys]
    )
    rows, failures = [], 0
    for i, ((image_id, algorithm), angle) in enumerate(zip(keys, degrees.tolist())):
        if image_id not in references:
            failures += 1
            _log_error(image_id, "missing from ground truth; skipped")
        elif i in problems:
            failures += 1
            _log_error(image_id, f"{algorithm}: {problems[i]}")
        else:
            rows.append((image_id, algorithm, args.metric, fmt9(angle)))
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
    from . import metrics

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
    ranked: dict[str, list[tuple[str, metrics.ErrorSummary]]] = {}
    for label in labels:
        summaries = {
            algo: metrics.summarize([d for i, d in by_image.items() if i in images])
            for algo, by_image in per_file[label].items()
            if algo in algorithms
        }
        ranked[label] = metrics.rank(summaries, key=args.stat)
        # One input writes its ranking to --out; several write one file each beside it.
        path = out if len(labels) == 1 else out.with_name(
            f"{out.stem}.{label}{out.suffix or '.csv'}"
        )
        metrics.write_ranking_csv(ranked[label], path)
        print(metrics.format_ranking_text(ranked[label], title=f"[{label}] by {args.stat}"))
        print(f"wrote ranking to {path}")
    if len(labels) == 1:
        return EXIT_OK

    # Side-by-side comparison, ordered by the first input's ranking.
    cells = {
        label: {
            algo: [str(k), fmt9(getattr(summary, args.stat))]
            for k, (algo, summary) in enumerate(ranked[label], 1)
        }
        for label in labels
    }
    header = ["algorithm"]
    for label in labels:
        header += [f"rank_{label}", f"{args.stat}_{label}"]
    rows = [
        [algo, *(cell for label in labels for cell in cells[label][algo])]
        for algo, _ in ranked[labels[0]]
    ]
    write_csv(out, header, rows)

    print(metrics.format_table(header, rows, title="rank comparison:"))
    print(f"wrote comparison to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# diff-gt


def cmd_diff_gt(args) -> int:
    import math

    from . import audit, groundtruth

    if args.offset is not None and not math.isfinite(args.offset):
        raise CliError(f"--offset must be finite, got {args.offset!r}")
    set_a = groundtruth.read_gt(args.a)
    set_b = groundtruth.read_gt(args.b)
    threshold = audit.DEFAULT_OUTLIER_THRESHOLD_DEG if args.threshold is None else args.threshold
    report = audit.diff_ground_truths(set_a, set_b, threshold)
    # Every fit that can fail runs before anything is written or printed.
    fit = None if args.offset is None else audit.explain_offset(set_a, set_b, args.offset)
    best = audit.scan_offset(set_a, set_b) if args.scan_offset else None

    outliers = set(report.outliers)
    rows = (
        [image_id, fmt9(angle), "true" if image_id in outliers else "false"]
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
    if fit is not None:
        print(
            f"offset {fit.offset:g}: {100.0 * fit.fraction_within:.1f}% within 0.1 deg, "
            f"median residual {fit.median_residual_deg:.6f} deg"
        )
    if best is not None:
        print(
            f"best offset: {best.offset:g} "
            f"(median residual {best.median_residual_deg:.6f} deg, "
            f"{100.0 * best.fraction_within:.1f}% within 0.1 deg)"
        )
        lo, hi = audit.SCAN_OFFSETS[0], audit.SCAN_OFFSETS[-1]
        if best.offset == hi:
            print(
                f"warning: best offset {hi} is the top of the scanned range {lo}..{hi}; "
                "the true offset may lie past it",
                file=sys.stderr,
            )
        elif best.offset == lo and best.median_residual_deg > 0.1:
            print(
                f"warning: best offset {lo} is the bottom of the scanned range {lo}..{hi} "
                f"and leaves a median residual of {best.median_residual_deg:.6f} deg; "
                "--a may be the set with the offset left in (swap --a and --b)",
                file=sys.stderr,
            )
    print(f"wrote per-image report to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth


# Keys a JSON scene spec may carry besides the SceneSpec fields.
_JSON_ONLY_KEYS = {"image_id", "corners", "achromatic_reflectances"}


def _scene_from_json(payload: dict) -> tuple[synth.SceneSpec, str]:
    import dataclasses

    from . import chartgeom, synth
    from ._util import real_array

    spec_fields = {f.name for f in dataclasses.fields(synth.SceneSpec) if f.init}
    unknown = set(payload) - spec_fields - _JSON_ONLY_KEYS
    if unknown:
        raise CliError(f"unknown scene spec fields: {sorted(unknown)}")
    if "pose" in payload and "corners" in payload:
        raise CliError("give either 'pose' or 'corners', not both")
    kwargs = {key: value for key, value in payload.items() if key in spec_fields}
    try:
        if "corners" in payload:
            corners = real_array(payload["corners"], "corners", (8,), (4, 2))
            kwargs["pose"] = synth.pose_from_corners(corners.reshape(4, 2))
        if "achromatic_reflectances" in payload:
            row = list(chartgeom.ACHROMATIC_INDICES)
            name = "achromatic_reflectances"
            ramp = real_array(payload[name], name, (len(row),))
            table = kwargs.get("reflectance_table", synth.DEFAULT_REFLECTANCES)
            table = real_array(table, "reflectance_table", synth.DEFAULT_REFLECTANCES.shape).copy()
            table[row] = ramp[:, None]
            kwargs["reflectance_table"] = table
        spec = synth.SceneSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid scene spec: {exc}") from exc
    image_id = payload.get("image_id", "scene")
    if not isinstance(image_id, str):
        raise CliError(f"invalid scene spec: image_id must be a string, got {image_id!r}")
    synth.check_image_id(image_id)
    return spec, image_id


def cmd_synth(args) -> int:
    import json

    from . import synth

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
    from . import metrics

    parser = _Parser(prog="chromabench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-gt", help="compute ground-truth illuminants")
    p.add_argument("--images", required=True, help="directory of .ppm images")
    p.add_argument(
        "--charts", default=None, help=".chart directory (default: --images)"
    )
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
        default=None,  # audit.DEFAULT_OUTLIER_THRESHOLD_DEG; audit loads only for diff-gt
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
