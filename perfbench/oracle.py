"""Correctness gate: every output CSV is checked against what setup knows.

The checks re-derive each answer independently (plain ``csv`` parsing and a
vectorised angle kernel, not the library's readers or metric functions), so
a wrong library result cannot vouch for itself.
"""

from __future__ import annotations

import csv
import hashlib
import re
from pathlib import Path

import numpy as np

# Largest allowed angle between an extracted subtracted ground truth and the
# renderer's true illuminant.  Chart noise and 9-digit CSV rounding keep the
# measured error near 0.01 deg; 0.05 deg leaves room and still catches a
# wrong patch, channel or offset, each of which costs degrees.
GT_TOL_DEG = 0.05
# Estimates are statistical, so they only have to land near the truth.
EST_TOL_DEG = 15.0
# Recomputed angular errors must agree with the CLI's to this many degrees.
ERROR_TOL_DEG = 1e-6
# The 9-significant-digit CSV format leaves about 1e-5 counts of slack.
OFFSET_TOL = 1e-4

_BEST_OFFSET = re.compile(r"^best offset: (\S+) ", re.MULTILINE)


class GateFailure(AssertionError):
    """An output disagrees with the oracle; the run must not count."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def angles_deg(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise angle between (N, 3) arrays, atan2 form (exact at 0)."""
    cross = np.linalg.norm(np.cross(u, v), axis=1)
    dot = np.einsum("ij,ij->i", u, v)
    return np.degrees(np.arctan2(cross, dot))


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_gt_table(path: Path) -> dict[str, tuple[np.ndarray, int]]:
    """image id -> (RGB, winning patch), parsed without the library."""
    out = {}
    for row in _rows(path):
        check(row["image_id"] not in out, f"{path}: duplicate {row['image_id']}")
        rgb = np.array([float(row[c]) for c in "RGB"])
        out[row["image_id"]] = (rgb, int(row["patch_index"]))
    return out


def read_est_table(path: Path) -> dict[tuple[str, str], np.ndarray]:
    """(image id, algorithm) -> RGB, parsed without the library."""
    out = {}
    for row in _rows(path):
        key = (row["image_id"], row["algorithm"])
        check(key not in out, f"{path}: duplicate estimate row {key}")
        out[key] = np.array([float(row[c]) for c in "RGB"])
    return out


def check_ground_truths(
    gt_sub: Path,
    gt_raw: Path,
    illuminants: dict[str, np.ndarray],
    white_clipped: frozenset[str],
    offset: float,
) -> float:
    """Gate both extracted conventions; returns gt_oracle_err_deg."""
    sub = read_gt_table(gt_sub)
    raw = read_gt_table(gt_raw)
    ids = sorted(illuminants)
    check(sorted(sub) == ids, f"{gt_sub}: image set differs from the rendered corpus")
    check(sorted(raw) == ids, f"{gt_raw}: image set differs from the rendered corpus")
    for image_id in ids:
        expected = 19 if image_id in white_clipped else 18
        for label, table in (("subtracted", sub), ("unsubtracted", raw)):
            got = table[image_id][1]
            check(got == expected, f"{label} {image_id}: winner {got}, expected {expected}")
        gap = raw[image_id][0] - sub[image_id][0]
        check(
            bool(np.all(np.abs(gap - offset) <= OFFSET_TOL)),
            f"{image_id}: conventions differ by {gap}, expected {offset} per channel",
        )
    errors = angles_deg(
        np.array([sub[i][0] for i in ids]), np.array([illuminants[i] for i in ids])
    )
    worst = float(errors.max())
    check(worst <= GT_TOL_DEG, f"gt_oracle_err_deg {worst:.6f} > tolerance {GT_TOL_DEG}")
    return worst


def check_estimates(
    path: Path, illuminants: dict[str, np.ndarray], algorithms: list[str]
) -> None:
    table = read_est_table(path)
    expected = {(i, a) for i in illuminants for a in algorithms}
    check(set(table) == expected, f"{path}: rows are not one per image and algorithm")
    keys = sorted(table)
    est = np.array([table[k] for k in keys])
    check(
        bool(np.all(np.abs(np.linalg.norm(est, axis=1) - 1.0) <= 1e-8)),
        f"{path}: an estimate is not unit length",
    )
    errors = angles_deg(est, np.array([illuminants[i] for i, _ in keys]))
    worst = int(errors.argmax())
    check(
        float(errors[worst]) <= EST_TOL_DEG,
        f"{path}: {keys[worst]} is {errors[worst]:.2f} deg from the true illuminant",
    )


def check_errors(errors_csv: Path, est_csv: Path, gt_csv: Path, metric: str) -> None:
    """Every evaluate row matches an independent recomputation."""
    gt = read_gt_table(gt_csv)
    est = read_est_table(est_csv)
    rows = _rows(errors_csv)
    check(len(rows) == len(est), f"{errors_csv}: {len(rows)} rows for {len(est)} estimates")
    keys = [(r["image_id"], r["algorithm"]) for r in rows]
    check(set(keys) == set(est), f"{errors_csv}: rows do not match the estimates")
    check(all(r["metric"] == metric for r in rows), f"{errors_csv}: wrong metric column")
    e = np.array([est[k] for k in keys])
    g = np.array([gt[k[0]][0] for k in keys])
    if metric == "recovery":
        expected = angles_deg(e, g)
    else:
        expected = angles_deg(g / e, np.ones_like(e))
    got = np.array([float(r["degrees"]) for r in rows])
    diff = float(np.max(np.abs(got - expected)))
    check(diff <= ERROR_TOL_DEG, f"{errors_csv}: angles off by up to {diff:.3g} deg")


def check_rank_comparison(path: Path, labels: list[str], algorithms: list[str]) -> None:
    """Both conventions rank the same algorithms, each a permutation of 1..k."""
    rows = _rows(path)
    check(
        sorted(r["algorithm"] for r in rows) == sorted(algorithms),
        f"{path}: compared algorithms differ from those estimated",
    )
    for label in labels:
        ranks = sorted(int(r[f"rank_{label}"]) for r in rows)
        check(ranks == list(range(1, len(algorithms) + 1)), f"{path}: bad ranks for {label}")


def check_best_offset(stdout: str, offset: int) -> None:
    found = _BEST_OFFSET.findall(stdout)
    check(len(found) == 1, "diff-gt printed no best offset")
    check(float(found[0]) == offset, f"scan found offset {found[0]}, rendered {offset}")
