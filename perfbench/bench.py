"""Benchmark run: setup, CLI stages, oracle gate, traced pass, result record.

Setup renders (or writes) the workload's inputs from ``--seed`` through the
public ``chromabench.synth`` API and the CSV writers, several times, and
keeps the last copy.  The workflow then runs as CLI processes, one after
another, once in full and then stage by stage again until ``--seconds`` have
been measured.  Each stage's time is the median of its runs, calibrated
against the machine's speed (``calibration.py``).  Every output CSV is
checked against the setup's truth; a failed check makes the run fail.
``--trace 1`` adds an untraced and a traced in-process pass at --jobs 1 and
reports per-layer metrics instead.  The last stdout line is one JSON object;
the full record goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy
from chromabench import cli, estimators

from . import calibration, corpus, oracle, stages, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
OFFSET = int(corpus.BLACK_LEVEL)  # what diff-gt --scan-offset must find

LIMITS = (
    "Inputs are in the page cache: setup has just written them and dropping "
    "caches is not allowed here.  No system-wide tracing: per-layer numbers "
    "come from in-process spans at --jobs 1 only."
)
LOAD_MODEL = (
    "Closed loop, one client: each CLI stage starts when the previous one has "
    "exited.  Parallelism is only the CLI's own --jobs worker processes."
)

# Name, unit, better.  BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("score_s", "s", "lower"),
    ("audit_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("imagecore.load_image.s", "s", "lower"),
    ("imagecore.load_image.bytes", "bytes", "lower"),
    ("imagecore.subtract_black_level.s", "s", "lower"),
    ("imagecore.save_image.s", "s", "lower"),
    ("imagecore.busy_s", "s", "lower"),
    ("chartgeom.rectify_chart.s", "s", "lower"),
    ("chartgeom.read_chart_file.s", "s", "lower"),
    ("chartgeom.sample_patch.calls", "count", "lower"),
    ("chartgeom.busy_s", "s", "lower"),
    ("groundtruth.compute_ground_truth.self_s", "s", "lower"),
    ("groundtruth.patch_stats.s", "s", "lower"),
    ("groundtruth.read_gt.s", "s", "lower"),
    ("groundtruth.white_rejected", "count", "lower"),
    ("groundtruth.busy_s", "s", "lower"),
    ("estimators.chart_region_mask.s", "s", "lower"),
    ("estimators.saturation_mask.s", "s", "lower"),
    ("estimators.gaussian_smooth.s", "s", "lower"),
    ("estimators.gaussian_smooth.calls", "count", "lower"),
    ("estimators.derivative_magnitude.self_s", "s", "lower"),
    ("estimators.minkowski_pool.s", "s", "lower"),
    ("estimators.minkowski_pool.calls", "count", "lower"),
    ("estimators.estimate.self_s", "s", "lower"),
    ("estimators.kept_fraction", "ratio", "higher"),
    ("estimators.read_estimates.s", "s", "lower"),
    ("estimators.busy_s", "s", "lower"),
    ("estimators.share_of_estimate_stage", "ratio", "higher"),
    ("metrics.recovery_error.calls", "count", "lower"),
    ("metrics.recovery_error.s", "s", "lower"),
    ("metrics.reproduction_error.s", "s", "lower"),
    ("metrics.summarize.s", "s", "lower"),
    ("metrics.rank.s", "s", "lower"),
    ("metrics.busy_s", "s", "lower"),
    ("audit.explain_offset.calls", "count", "lower"),
    ("audit.scan_offset.self_s", "s", "lower"),
    ("audit.diff_ground_truths.s", "s", "lower"),
    ("audit.busy_s", "s", "lower"),
    ("synth.render.s", "s", "lower"),
    ("synth.write_scene.self_s", "s", "lower"),
    ("synth.busy_s", "s", "lower"),
    ("cli.extract_gt.self_s", "s", "lower"),
    ("cli.estimate.self_s", "s", "lower"),
    ("cli.evaluate.self_s", "s", "lower"),
    ("cli.rank.self_s", "s", "lower"),
    ("cli.diff_gt.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.estimate.peak_rss_mb", "MB", "lower"),
    ("cli.estimate.parallel_efficiency", "ratio", "higher"),
    ("extract_gt_s_per_image", "s/image", "lower"),
    ("estimate_s_per_image", "s/image", "lower"),
    ("estimate_s_per_image_jobs1", "s/image", "lower"),
    ("gt_oracle_err_deg", "deg", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

IMPORT_REPEATS = 3


def spread(values: list[float]) -> dict:
    """Median, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if ordered else None,
           "samples": list(values)}
    if n >= 11:
        out["p_hi_q"] = round(100.0 * (n - 10) / n, 2)
        out["p_hi"] = ordered[n - 11]
    else:
        out["p_hi_q"] = out["p_hi"] = None  # fewer than eleven samples
    return out


def machine_record(seed: int) -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text(encoding="utf-8")
        except OSError:
            return ""

    model = next(
        (ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo").splitlines()
         if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
        or "unknown",
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "seed": seed,
        "limits": LIMITS,
        "load_model": LOAD_MODEL,
    }


class Bench:
    """One benchmark run of one workload: setup, CLI stages, gate, optional trace."""

    def __init__(self, workload, seed: int, work: Path, launcher: stages.Launcher):
        self.w = workload
        self.seed = seed
        self.work = work
        self.launcher = launcher
        cpus = os.sched_getaffinity(0)
        self.nproc = len(cpus)
        # Stages without a worker pool run pinned to one CPU, the one their
        # calibration reference runs on.
        self.pin = [max(cpus)]
        self.truth = None
        self.inputs: Path | None = None
        self.setups = 0
        self.setup_steps: list[tuple[float, float, float]] = []  # (wall, start, end)
        self.attempted = 0
        self.failed = 0
        self.clock = calibration.Clock(cpus)
        self.clock.sample()

    # -- setup ---------------------------------------------------------------

    def _setup_once(self, dest: Path) -> corpus.PixelTruth | None:
        w = self.w
        if w.has_pixels:
            return corpus.write_scenes(
                dest, self.seed, w.images, w.width, w.height, w.chart_scale, w.block
            )
        return corpus.write_audit_corpus(dest, self.seed, w.images)

    def setup(self, repeats: int, keep: bool, tracer=None) -> None:
        """Render or write the inputs ``repeats`` times, each into a fresh directory.

        With ``keep`` the last copy becomes the workflow's input; otherwise
        every copy is only timed and removed.
        """
        for _ in range(repeats):
            dest = self.work / f"inputs{self.setups}"
            self.setups += 1
            ctx = tracer.installed() if tracer is not None else contextlib.nullcontext()
            with ctx:
                start = time.perf_counter()
                truth = self._setup_once(dest)
                end = time.perf_counter()
            self.clock.sample()
            self.setup_steps.append((end - start, start, end))
            if not keep:
                shutil.rmtree(dest)
                continue
            if self.inputs is not None:
                shutil.rmtree(self.inputs)
            self.inputs, self.truth = dest, truth

    def calibrated(self, measured: dict) -> list[float]:
        """Calibrate every stage sample in place; return the calibrated setup times."""
        for st in measured["stages"].values():
            st["calibrated_s"] = [
                self.clock.calibrate(wall, start, end, st["cpus"])
                for wall, (start, end) in zip(st["wall_s"], st["spans"])
            ]
        return [self.clock.calibrate(*step) for step in self.setup_steps]

    # -- CLI stages ----------------------------------------------------------

    def measure(self, seconds: float, with_jobs1: bool) -> dict:
        """The workflow once, then its stages again while they fit in ``seconds``.

        The first round runs in workflow order and is gated against the
        setup's truth.  After it, of the stages whose fastest run so far would
        still end within ``seconds`` of the start, the one with the fewest
        samples runs next, the longest first among equals.  So every stage gets
        a second sample before any gets a third, a long stage is not the one
        the deadline cuts, and the run's length does not grow when the machine
        is slow.  Every later run of a stage rewrites the same
        files, and at the end they must hash as they did after the first round.
        Every sample is kept with its wall time and when it ran, for
        ``calibrated``.
        """
        out = self.work / "out"
        logs = out / "logs"
        logs.mkdir(parents=True)
        paths = workloads.paths_for(self.w, self.inputs, out)
        todo = workloads.stages(self.w, paths, self.nproc, with_jobs1=with_jobs1)
        runs: dict[str, list[stages.StageResult]] = {s.name: [] for s in todo}
        spans: dict[str, list[tuple[float, float]]] = {s.name: [] for s in todo}

        def run(stage) -> None:
            began = time.perf_counter()
            result = stages.run_stage(stage.name, list(stage.args), logs, self.launcher,
                                      self._cpus(stage))
            spans[stage.name].append((began, time.perf_counter()))
            self.clock.sample()
            runs[stage.name].append(result)
            self.attempted += stage.ops
            self.failed += max(result.error_lines, 1 if result.exit_code == 2 else 0)
            if stage.kind == "diff_gt":
                oracle.check_best_offset(result.stdout, OFFSET)

        start = time.perf_counter()
        for stage in todo:
            run(stage)
        gate = self.gate(paths)
        while True:
            left = seconds - (time.perf_counter() - start)
            fits = [s for s in todo if min(r.wall_s for r in runs[s.name]) <= left]
            if not fits:
                break
            run(min(fits, key=lambda s: (len(runs[s.name]), -runs[s.name][0].wall_s)))
        oracle.check(_hashes(out) == gate["sha256"], "outputs changed when stages were rerun")
        shutil.rmtree(out)
        return {
            "measured_s": time.perf_counter() - start,
            "stages": {
                s.name: {
                    "kind": s.kind,
                    "wall_s": [r.wall_s for r in runs[s.name]],
                    "spans": spans[s.name],
                    "cpus": self._cpus(s),
                    "peak_rss_mb": max(r.peak_rss_mb for r in runs[s.name]),
                    "exit_codes": [r.exit_code for r in runs[s.name]],
                }
                for s in todo
            },
            "gate": gate,
        }

    def _cpus(self, stage) -> list[int] | None:
        """The CPU a stage without a worker pool is pinned to; None for all of them."""
        return None if "--jobs" in stage.args else self.pin

    def gate(self, paths) -> dict:
        """Oracle checks on the outputs of one complete round; raises GateFailure."""
        w = self.w
        algos = [_algo_name(a) for a in workloads.algorithms(w)]
        gate = {}
        if w.has_pixels:
            gate["gt_oracle_err_deg"] = oracle.check_ground_truths(
                paths.gt_sub, paths.gt_raw, self.truth.illuminants,
                self.truth.white_clipped, OFFSET,
            )
            oracle.check_estimates(paths.estimates, self.truth.illuminants, algos)
            if paths.estimates_jobs1.exists():
                oracle.check(
                    oracle.sha256(paths.estimates) == oracle.sha256(paths.estimates_jobs1),
                    "estimates at --jobs 1 and --jobs N are not byte-identical",
                )
        for metric in workloads.METRICS:
            for conv in workloads.CONVENTIONS:
                oracle.check_errors(paths.errors(metric, conv), paths.estimates,
                                    paths.gt(conv), metric)
            oracle.check_rank_comparison(paths.ranking(metric),
                                         workloads.rank_labels(paths, metric), algos)
        gate["sha256"] = _hashes(paths.out)
        return gate

    # -- in-process passes -----------------------------------------------------

    def in_process_pass(self, label: str, tracer=None) -> tuple[float, dict[str, str]]:
        """The same workflow in this process at --jobs 1; returns wall and hashes."""
        out = self.work / label
        out.mkdir()
        paths = workloads.paths_for(self.w, self.inputs, out)
        todo = workloads.stages(self.w, paths, 1, in_process=True)
        diff_stdout = ""
        ctx = tracer.installed() if tracer is not None else contextlib.nullcontext()
        with ctx:
            start = time.perf_counter()
            for stage in todo:
                buf, err = io.StringIO(), io.StringIO()
                span = (tracer.span(f"cli.{stage.kind}") if tracer is not None
                        else contextlib.nullcontext())
                with span, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                    code = cli.main(list(stage.args))
                oracle.check(code == 0, f"in-process {stage.name} exited {code}: "
                                        f"{err.getvalue()[-2000:]}")
                if stage.kind == "diff_gt":
                    diff_stdout = buf.getvalue()
            wall = time.perf_counter() - start
        oracle.check_best_offset(diff_stdout, OFFSET)
        hashes = _hashes(out)
        shutil.rmtree(out)
        return wall, hashes


def _algo_name(text: str) -> str:
    return estimators.spec_from_string(text).name


def _hashes(out: Path) -> dict[str, str]:
    return {str(f.relative_to(out)): oracle.sha256(f) for f in sorted(out.glob("*.csv"))}


def end_to_end(w, measured: dict, setup_times: list[float], attempted: int,
               failed: int) -> dict:
    """Each stage's median calibrated time, summed per metric; setup is the median."""
    stage_s = {name: statistics.median(st["calibrated_s"])
               for name, st in measured["stages"].items()}
    kinds = {name: st["kind"] for name, st in measured["stages"].items()}

    def total(wanted, per_image=False):
        t = sum(v for name, v in stage_s.items() if kinds[name] in wanted)
        return t / w.images if per_image else t

    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(stage_s.values()),
        "score_s": total({"evaluate", "rank"}),
        "audit_s": total({"diff_gt"}),
        "peak_rss_mb": max(st["peak_rss_mb"] for st in measured["stages"].values()),
        "failed_frac": failed / attempted,
    }
    if w.has_pixels:
        values["extract_gt_s_per_image"] = total({"extract_gt"}, per_image=True)
        values["estimate_s_per_image"] = total({"estimate"}, per_image=True)
        values["gt_oracle_err_deg"] = measured["gate"]["gt_oracle_err_deg"]
    if "estimate_jobs1" in kinds.values():
        values["estimate_s_per_image_jobs1"] = total({"estimate_jobs1"}, per_image=True)
    return values


def per_layer(bench: Bench, tracer, summary: dict, traced_wall: float, untraced_wall: float,
              import_times: list[float], measured: dict) -> dict[str, float]:
    spans = tracer.summary()
    busy = tracer.module_busy()
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        head, _, field = name.rpartition(".")
        if field in ("s", "self_s", "calls"):
            # 0 when the workload never enters the function.
            out[name] = float(spans.get(head, {}).get(field, 0.0))
    for module, seconds in busy.items():
        out[f"{module}.busy_s"] = seconds
    frame = tracer.counters["estimators.frame_pixels"]
    stage = spans.get("cli.estimate", {}).get("s", 0.0)
    out.update({
        "imagecore.load_image.bytes": tracer.counters["imagecore.load_image.bytes"],
        "groundtruth.white_rejected": float(len(tracer.white_rejected)),
        "estimators.kept_fraction": tracer.counters["estimators.kept_pixels"] / frame
        if frame else 0.0,
        "estimators.share_of_estimate_stage": tracer.inside("estimators", "cli.estimate") / stage
        if stage else 0.0,
        "cli.import_s": statistics.median(import_times),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    estimate = measured["stages"].get("estimate")
    out["cli.estimate.peak_rss_mb"] = estimate["peak_rss_mb"] if estimate else 0.0
    jobs1 = summary.get("estimate_s_per_image_jobs1", 0.0)
    jobsn = summary.get("estimate_s_per_image", 0.0)
    out["cli.estimate.parallel_efficiency"] = (
        jobs1 / (bench.nproc * jobsn) if jobs1 and jobsn else 0.0
    )
    for name in ("extract_gt_s_per_image", "estimate_s_per_image", "estimate_s_per_image_jobs1",
                 "gt_oracle_err_deg", "failed_frac"):
        out[name] = float(summary.get(name) or 0.0)
    missing = [n for n, _, _ in PER_LAYER if n not in out]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return {n: out[n] for n, _, _ in PER_LAYER}


def per_image_spans(tracer) -> dict:
    return {
        name: spread(tracer.durations(name))
        for name in ("cli.extract_one", "cli.estimate_one", "synth.render")
        if tracer.durations(name)
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="rerun CLI stages until this much time has passed "
                             "(the whole workflow runs at least once)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="tiny inputs through the same code path, for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    table = workloads.SHORT_WORKLOADS if args.short else workloads.WORKLOADS
    w = table[args.workload]
    work = STATE_DIR / f"work-{w.name}-{args.seed}-{os.getpid()}"
    results_dir = STATE_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}{'-short' if args.short else ''}"
    record = {
        "machine": machine_record(args.seed),
        "workload": {"name": w.name, "images": w.images, "width": w.width, "height": w.height,
                     "short": args.short, "seconds": args.seconds},
    }
    env = stages.cli_env(SRC)
    launcher = stages.Launcher(env)  # before setup grows this process
    bench = Bench(w, args.seed, work, launcher)
    try:
        work.mkdir(parents=True)
        tracer = tracing.Tracer() if args.trace else None
        # Setup samples are taken before and after the stages, so that a slow
        # or fast spell of a shared machine does not decide the median alone.
        before = 1 if args.trace else (w.setup_repeats + 1) // 2
        bench.setup(before, keep=True, tracer=tracer)
        # A traced run makes one CLI round, which also times estimate at
        # --jobs 1, and spends its time on the in-process passes.
        if args.trace:
            measured = bench.measure(0.0, with_jobs1=True)
        else:
            measured = bench.measure(args.seconds, with_jobs1=False)
        if not args.trace:
            bench.setup(w.setup_repeats - before, keep=False)
        setup_times = bench.calibrated(measured)
        summary = end_to_end(w, measured, setup_times, bench.attempted, bench.failed)
        oracle.check(summary["failed_frac"] == 0.0,
                     f"failed_frac is {summary['failed_frac']}, must be 0")
        record.update(setup_wall_s=[step[0] for step in bench.setup_steps], setup_s=setup_times,
                      cli=measured, speed=bench.clock.speed, references=bench.clock.samples,
                      end_to_end=summary)
        if args.trace:
            untraced, plain = bench.in_process_pass("inproc_untraced")
            traced, traced_hashes = bench.in_process_pass("inproc_traced", tracer)
            for name, digest in {**plain, **traced_hashes}.items():
                oracle.check(digest == measured["gate"]["sha256"].get(name),
                             f"in-process {name} differs from the CLI's --jobs N output")
            import_times = stages.import_seconds(env, IMPORT_REPEATS)
            layers = per_layer(bench, tracer, summary, traced, untraced, import_times, measured)
            record.update(per_layer=layers, per_image_spans=per_image_spans(tracer),
                          spans=str((results_dir / f"{tag}.spans.csv").relative_to(ROOT)))
            tracer.write(results_dir / f"{tag}.spans.csv")
            metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in PER_LAYER}
        else:
            metrics = {n: {"value": summary[n], "unit": u} for n, u, _ in END_TO_END}
        correct = True
    except oracle.GateFailure as exc:
        print(f"ORACLE GATE FAILED: {exc}", file=sys.stderr)
        record["gate_failure"] = str(exc)
        metrics, correct = {}, False
    except stages.StageFailed as exc:
        print(f"STAGE FAILED: {exc}", file=sys.stderr)
        record["stage_failure"] = str(exc)
        metrics, correct = {}, False
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    record["correct"] = correct
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n",
                                             encoding="utf-8")
    units = {n: u for n, u, _ in END_TO_END + PER_LAYER}
    for name, st in record.get("cli", {}).get("stages", {}).items():
        value = spread(st["calibrated_s"])
        high = "" if value["p_hi"] is None else f"  p{value['p_hi_q']:g} {value['p_hi']!r}"
        print(f"stage {name:26s} s  median {value['median']:.4f}  n={value['n']}{high}  "
              f"(wall median {statistics.median(st['wall_s']):.4f})")
    if "speed" in record:
        print(f"machine speed {record['speed']:.3f} of the reference ({calibration.REFERENCE_S} s)")
    for name, value in record.get("end_to_end", {}).items():
        print(f"{name:28s} {units[name]:8s} {value!r}")
    for name, value in record.get("per_layer", {}).items():
        print(f"{name:44s} {units[name]:8s} {value!r}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1

