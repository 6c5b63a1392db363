"""Run chromabench CLI stages as child processes, timed from outside.

Each stage is one ``python -m chromabench.cli`` process that starts when the
previous one has exited (a closed loop with one client).  Wall time is taken
around process start and reap, so it includes interpreter start-up.  Peak
resident set size comes from ``wait4``, which folds in the pool workers the
stage itself reaped.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_ERROR_LINE = re.compile(r"^error: ", re.MULTILINE)


class StageFailed(RuntimeError):
    """A stage exited with a usage error or a signal: the run is invalid."""


@dataclass(frozen=True)
class StageResult:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str

    @property
    def error_lines(self) -> int:
        """Per-image failures the CLI reported on stderr."""
        return len(_ERROR_LINE.findall(self.stderr))


def cli_env(src_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    return env


class Launcher:
    """A small helper process that starts and reaps every stage.

    On Linux a process's peak RSS includes the memory of the process that
    forked it, up to its exec.  Stages are therefore started from this
    helper, which is launched before setup grows the benchmark process, so
    each stage's ``ru_maxrss`` measures the stage and its pool workers only.
    """

    def __init__(self, env: dict[str, str]):
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _LAUNCHER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path,
            cpus=None) -> tuple[float, float, int]:
        """(wall seconds, peak RSS MB, exit code) of one child process, pinned to ``cpus``."""
        cpus = sorted(cpus) if cpus else None
        self._proc.stdin.write(json.dumps([argv, str(stdout), str(stderr), cpus]) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise StageFailed("stage launcher exited")
        wall, maxrss_kb, code = json.loads(reply)
        return wall, maxrss_kb / 1024.0, code

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


# Reads [argv, stdout path, stderr path, cpus or null] lines; answers
# [wall_s, maxrss_kb, code].  The child inherits the CPUs it is pinned to.
_LAUNCHER = """
import json, os, subprocess, sys, time
every_cpu = os.sched_getaffinity(0)
for line in sys.stdin:
    argv, out_path, err_path, cpus = json.loads(line)
    os.sched_setaffinity(0, cpus or every_cpu)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss, code]), flush=True)
"""


def run_stage(name: str, args: list, log_dir: Path, launcher: Launcher,
              cpus=None) -> StageResult:
    """Run one CLI stage to completion; exit code 2 is kept for the failure count."""
    argv = [sys.executable, "-m", "chromabench.cli", *[str(a) for a in args]]
    out_path = log_dir / f"{name}.stdout"
    err_path = log_dir / f"{name}.stderr"
    wall, peak_rss_mb, code = launcher.run(argv, out_path, err_path, cpus)
    result = StageResult(
        wall_s=wall,
        peak_rss_mb=peak_rss_mb,
        exit_code=code,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )
    if code not in (0, 2):
        raise StageFailed(f"stage {name} exited {code}: {result.stderr.strip()[-2000:]}")
    return result


def import_seconds(env: dict[str, str], repeats: int) -> list[float]:
    """Wall time of a fresh interpreter that imports ``chromabench.cli``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import chromabench.cli"], env=env, check=True
        )
        times.append(time.perf_counter() - start)
    return times
