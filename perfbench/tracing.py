"""In-process span tracer over chromabench's public functions.

The tracer replaces each public function on every module attribute through
which it is looked up (``audit`` imports ``recovery_error`` by name, so the
wrapper goes into ``audit`` as well as ``metrics``) and puts the originals
back afterwards.  Spans are named after the defining module, carry start,
end, parent span and image id, are held in memory and written once.  The
library itself is never edited.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MODULES = (
    "imagecore",
    "chartgeom",
    "groundtruth",
    "estimators",
    "metrics",
    "audit",
    "synth",
    "cli",
)

# cli's per-image workers are private, but they are where an image id is known.
_WORKERS = {"_extract_one": "cli.extract_one", "_estimate_one": "cli.estimate_one"}
# Entry points the benchmark spans itself, as one span per CLI stage.
_NOT_WRAPPED = {"main", "build_parser"}


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder; ``install`` wraps the library, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.image: list[str | None] = []
        self.outermost: list[bool] = []  # no ancestor span of the same name
        self.module_top: list[bool] = []  # no ancestor span of the same module
        self.counters: dict[str, float] = defaultdict(float)
        self.white_rejected: set[str] = set()
        self._stack: list[int] = []
        self._active_names: dict[str, int] = defaultdict(int)
        self._active_modules: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, image_id: str | None) -> int:
        idx = len(self.name)
        parent = self._stack[-1] if self._stack else -1
        if image_id is None and parent >= 0:
            image_id = self.image[parent]
        module = _module_of(name)
        self.name.append(name)
        self.parent.append(parent)
        self.image.append(image_id)
        self.outermost.append(self._active_names[name] == 0)
        self.module_top.append(self._active_modules[module] == 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._active_names[name] += 1
        self._active_modules[module] += 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        name = self.name[idx]
        self._active_names[name] -= 1
        self._active_modules[_module_of(name)] -= 1
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def span(self, name: str, image_id: str | None = None):
        idx = self._open(name, image_id)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    def _wrap(self, fn, name: str, image_of=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            image_id = image_of(args) if image_of is not None else None
            idx = tracer._open(name, image_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, time.perf_counter())
            if after is not None:
                after(args, kwargs, result, tracer.image[idx])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- counters recorded at the same boundaries --------------------------

    def _count_load(self, args, kwargs, result, image_id) -> None:
        path = args[0] if args else kwargs["path"]
        self.counters["imagecore.load_image.bytes"] += os.path.getsize(path)

    def _count_winner(self, args, kwargs, result, image_id) -> None:
        if result.patch_index != 18:
            self.white_rejected.add(result.image_id)

    def _count_kept(self, args, kwargs, result, image_id) -> None:
        img = args[0] if args else kwargs["img"]
        mask = args[2] if len(args) > 2 else kwargs.get("mask")
        frame = img.height * img.width
        self.counters["estimators.frame_pixels"] += frame
        self.counters["estimators.kept_pixels"] += (
            frame if mask is None else int(np.count_nonzero(mask))
        )

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"chromabench.{m}") for m in MODULES}
        hooks = {
            "imagecore.load_image": self._count_load,
            "groundtruth.compute_ground_truth": self._count_winner,
            "estimators.estimate": self._count_kept,
        }
        wrappers: dict[int, object] = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("chromabench."):
                    continue
                home = value.__module__.rsplit(".", 1)[1]
                if home not in modules or attr in _NOT_WRAPPED:
                    continue
                if attr in _WORKERS and home == "cli":
                    name, image_of = _WORKERS[attr], (lambda args: args[0][0])
                elif attr.startswith("_") or attr.startswith("cmd_"):
                    continue
                else:
                    name, image_of = f"{home}.{value.__name__}", None
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, name, image_of, hooks.get(name))
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def arrays(self):
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive busy ``s``, ``self_s`` and ``calls``."""
        dur, self_time = self.arrays()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for i, name in enumerate(self.name):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += float(self_time[i])
            if self.outermost[i]:
                entry["s"] += float(dur[i])
        return dict(out)

    def module_busy(self) -> dict[str, float]:
        """Per module: time inside any of its spans, nested ones counted once."""
        dur, _ = self.arrays()
        busy = {m: 0.0 for m in MODULES}
        for i, name in enumerate(self.name):
            if self.module_top[i]:
                busy[_module_of(name)] += float(dur[i])
        return busy

    def inside(self, module: str, ancestor: str) -> float:
        """Busy time of ``module`` spans that run under an ``ancestor`` span."""
        dur, _ = self.arrays()
        total = 0.0
        for i, name in enumerate(self.name):
            if not self.module_top[i] or _module_of(name) != module:
                continue
            j = self.parent[i]
            while j >= 0 and self.name[j] != ancestor:
                j = self.parent[j]
            if j >= 0:
                total += float(dur[i])
        return total

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.name, self.start, self.end) if n == name]

    def write(self, path: Path) -> None:
        """All spans as one CSV, written once at the end of the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "image_id"])
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.name)):
                writer.writerow(
                    [
                        i,
                        self.name[i],
                        f"{self.start[i] - t0:.9f}",
                        f"{self.end[i] - t0:.9f}",
                        self.parent[i],
                        self.image[i] or "",
                    ]
                )
