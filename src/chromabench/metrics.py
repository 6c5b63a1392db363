"""Angular error metrics, corpus summary statistics, and algorithm ranking.

Recovery error is the angle between the estimated and reference illuminant
RGB vectors (intensity-blind).  Reproduction error is the angle between the
channel-wise ratio reference/estimate and the neutral (1, 1, 1) direction,
i.e. how far from white a white surface lands after correcting with the
estimate.

Every angle comes from one row-wise kernel, ``angles_deg(u, v)`` on (N, 3)
float64 arrays: atan2(|u x v|, u.v), which is exact at zero for parallel
inputs and equivalent to the arccos form elsewhere.  ``error_angles`` scores
whole tables through it, reporting each invalid row with the message the
one-pair functions ``recovery_error`` and ``reproduction_error`` raise; those
two are its one-row case.  The kernel takes the row norm and the row dot
product as batched row matmuls, which run the same BLAS dot as ``np.dot`` on
one pair, and applies ``math.atan2`` per element (``np.arctan2`` differs from
it in the last bit on some inputs), so a row's angle does not depend on the
batch it is computed in.

Quantiles interpolate linearly between order statistics at position (n-1)*q;
that convention is pinned so summaries are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._util import fmt9, read_csv, write_csv

__all__ = [
    "ERROR_FIELDS",
    "ErrorSummary",
    "METRICS",
    "RankRow",
    "RankingTable",
    "STAT_KEYS",
    "angles_deg",
    "error_angles",
    "format_ranking_text",
    "format_table",
    "rank",
    "read_errors",
    "recovery_error",
    "reproduction_error",
    "summarize",
    "summary_stat",
    "write_ranking_csv",
]

STAT_KEYS = ("mean", "median", "trimean", "q95", "best25", "worst25")

METRICS = ("recovery", "reproduction")

# Columns of the per-image error table that ``evaluate`` writes.
ERROR_FIELDS = ("image_id", "algorithm", "metric", "degrees")


def _as_vec3(v, what: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (3,):
        raise ValueError(f"{what} must be an RGB triple")
    return arr


# Rows per kernel pass: bounds the temporaries, and with them peak memory,
# on long tables such as a corpus of estimates.
_ROWS_PER_PASS = 1024


def angles_deg(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Angle in degrees between matching rows of two (N, 3) float64 arrays.

    atan2 formulation: exactly 0 for identical/parallel rows and well
    conditioned near 0 and 180 where arccos of a rounded cosine is not.
    The caller validates the rows; a zero row gives 0 or 90, not an error.
    """
    # Contiguous rows keep the matmuls on the BLAS dot that np.dot uses.
    u = np.ascontiguousarray(u, dtype=np.float64)
    v = np.ascontiguousarray(v, dtype=np.float64)
    degrees = np.empty(len(u))
    for start in range(0, len(u), _ROWS_PER_PASS):
        rows = slice(start, start + _ROWS_PER_PASS)
        cross = np.cross(u[rows], v[rows])
        norms = np.sqrt((cross[:, None, :] @ cross[:, :, None]).ravel())
        dots = (u[rows, None, :] @ v[rows, :, None]).ravel()
        radians = map(math.atan2, norms.tolist(), dots.tolist())
        degrees[rows] = np.degrees(np.fromiter(radians, np.float64, len(dots)))
    return degrees


def error_angles(
    metric: str, estimates, references
) -> tuple[np.ndarray, dict[int, str]]:
    """Per-row ``metric`` error in degrees of (N, 3) estimates against references.

    Rows that cannot be scored get a NaN angle and an entry in the returned
    problems, index -> the message ``recovery_error`` or
    ``reproduction_error`` raises for that pair.
    """
    e = np.asarray(estimates, dtype=np.float64)
    g = np.asarray(references, dtype=np.float64)
    if e.ndim != 2 or e.shape[1] != 3 or g.shape != e.shape:
        raise ValueError("estimates and references must be (N, 3) arrays of one shape")
    # (row is invalid, message) in the order the one-pair functions check them.
    checks = [
        (~np.isfinite(e).all(axis=1), "estimate must be finite"),
        (~np.isfinite(g).all(axis=1), "reference must be finite"),
    ]
    if metric == "recovery":
        u, v = e, g
        checks.append((~(e.any(axis=1) & g.any(axis=1)), "zero vector has no direction"))
    elif metric == "reproduction":
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = g / e
        v = np.ones_like(u)
        too_small = "estimate channel {} is too small: reference/estimate overflows"
        checks += [
            ((e == 0.0).any(axis=1), "division by zero channel in estimate"),
            ((e < 0.0).any(axis=1), "estimate channels must be positive"),
            # The first overflowing channel names the row's problem.
            *((~np.isfinite(u[:, c]), too_small.format(rgb)) for c, rgb in enumerate("RGB")),
            (~u.any(axis=1), "zero vector has no direction"),
        ]
    else:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    problems: dict[int, str] = {}
    for bad, message in checks:
        for i in np.flatnonzero(bad).tolist():
            problems.setdefault(i, message)
    if not problems:
        return angles_deg(u, v), problems
    ok = np.ones(len(e), dtype=bool)
    ok[list(problems)] = False
    degrees = np.full(len(e), np.nan)
    degrees[ok] = angles_deg(u[ok], v[ok])
    return degrees, problems


def _one_pair(metric: str, e, g) -> float:
    e = _as_vec3(e, "estimate")
    g = _as_vec3(g, "reference")
    (degrees,), problems = error_angles(metric, e[None], g[None])
    if problems:
        raise ValueError(problems[0])
    return float(degrees)


def recovery_error(e, g) -> float:
    """Angle in degrees between estimate and reference directions."""
    return _one_pair("recovery", e, g)


def reproduction_error(e, g) -> float:
    """Angle in degrees between the ratio g/e and the neutral direction."""
    return _one_pair("reproduction", e, g)


@dataclass(frozen=True)
class ErrorSummary:
    """Summary statistics (degrees) over a corpus of angular errors."""

    mean: float
    median: float
    trimean: float
    q95: float
    best25_mean: float
    worst25_mean: float
    count: int


def summarize(errors: Sequence[float]) -> ErrorSummary:
    """Mean/median/trimean/95%-quantile plus best-25% and worst-25% means."""
    arr = np.asarray(errors, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a nonempty 1-D list of errors")
    if not np.all(np.isfinite(arr)):
        raise ValueError("errors must be finite")
    ordered = np.sort(arr)
    q25, q50, q75, q95 = np.quantile(ordered, [0.25, 0.5, 0.75, 0.95], method="linear")
    k = math.ceil(arr.size / 4)
    return ErrorSummary(
        mean=float(ordered.mean()),
        median=float(q50),
        trimean=float((q25 + 2.0 * q50 + q75) / 4.0),
        q95=float(q95),
        best25_mean=float(ordered[:k].mean()),
        worst25_mean=float(ordered[-k:].mean()),
        count=int(arr.size),
    )


_STAT_ATTR = {
    "mean": "mean",
    "median": "median",
    "trimean": "trimean",
    "q95": "q95",
    "best25": "best25_mean",
    "worst25": "worst25_mean",
}


def summary_stat(summary: ErrorSummary, key: str) -> float:
    if key not in _STAT_ATTR:
        raise ValueError(f"unknown statistic {key!r}; choose from {STAT_KEYS}")
    return getattr(summary, _STAT_ATTR[key])


@dataclass(frozen=True)
class RankRow:
    rank: int
    algorithm: str
    summary: ErrorSummary


@dataclass(frozen=True)
class RankingTable:
    rows: tuple[RankRow, ...]
    key: str


def rank(summaries: Mapping[str, ErrorSummary], key: str = "median") -> RankingTable:
    """Ascending ranking by the chosen statistic; ties by mean, then name."""
    if not summaries:
        raise ValueError("no summaries to rank")
    if key not in _STAT_ATTR:
        raise ValueError(f"unknown statistic {key!r}; choose from {STAT_KEYS}")
    ordered = sorted(
        summaries.items(),
        key=lambda kv: (summary_stat(kv[1], key), kv[1].mean, kv[0]),
    )
    rows = tuple(
        RankRow(rank=i + 1, algorithm=name, summary=summary)
        for i, (name, summary) in enumerate(ordered)
    )
    return RankingTable(rows=rows, key=key)


def read_errors(path: str | Path) -> dict[str, dict[str, float]]:
    """Error table as algorithm -> image_id -> degrees, both levels in file order.

    A repeated (image_id, algorithm) pair, a second metric value or a
    non-finite angle is an error naming the file and line, since such rows
    would otherwise be summarized as one population.
    """
    by_algo: dict[str, dict[str, float]] = {}
    metric = None

    def add(row: dict[str, str]) -> None:
        nonlocal metric
        if metric is None:
            metric = row["metric"]
        elif row["metric"] != metric:
            raise ValueError(f"metric {row['metric']!r} mixed with {metric!r}")
        degrees = float(row["degrees"])
        if not math.isfinite(degrees):
            raise ValueError(f"degrees must be finite, got {row['degrees']!r}")
        per_image = by_algo.setdefault(row["algorithm"], {})
        if row["image_id"] in per_image:
            raise ValueError(
                f"duplicate error for image {row['image_id']!r}, "
                f"algorithm {row['algorithm']!r}"
            )
        per_image[row["image_id"]] = degrees

    read_csv(path, ERROR_FIELDS, add)
    if not by_algo:
        raise ValueError(f"{path}: no error rows")
    return by_algo


def write_ranking_csv(table: RankingTable, path: str | Path) -> None:
    rows = (
        [row.rank, row.algorithm, *(fmt9(summary_stat(row.summary, k)) for k in STAT_KEYS)]
        for row in table.rows
    )
    write_csv(path, ["rank", "algorithm", *STAT_KEYS], rows)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = ""
) -> str:
    """Aligned plain-text table: left-justified columns, two spaces apart."""
    widths = [max([len(h)] + [len(r[i]) for r in rows]) for i, h in enumerate(headers)]
    lines = [title] if title else []
    for r in [headers, *rows]:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def format_ranking_text(table: RankingTable, title: str = "") -> str:
    """Aligned plain-text rendering of a ranking table."""
    headers = ["rank", "algorithm"] + list(STAT_KEYS)
    body = [
        [str(row.rank), row.algorithm]
        + [f"{summary_stat(row.summary, k):.4f}" for k in STAT_KEYS]
        for row in table.rows
    ]
    return format_table(headers, body, title)
