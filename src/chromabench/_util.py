"""Shared plumbing: float formatting, atomic writes, the one CSV dialect (which
``write_csv`` writes and ``read_csv`` reads row by row on ``csv.reader``) and
the field rules every record's ``__post_init__`` checks its numbers with.

Three coercers, each refusing with a ValueError of one form, ``<field> must
be ...``, the field named by the caller: :func:`real` (a finite number, not a
bool, optionally bounded by ``gt``, ``ge`` and ``le``; returned as a float),
:func:`whole` (an int, not a bool or a float, in ``lo..hi``) and
:func:`real_array` (a finite float64 array of one of the given shapes, every
element a number, with the same bounds; returned as a read-only copy, so the
caller's array is never shared or frozen).  An integer past the float range
reads as +-inf, so it is refused as "must be finite", as a NaN is.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import os
from pathlib import Path
from typing import Callable, Iterable, Sequence


def fmt9(x: float) -> str:
    """Format a float with 9 significant digits (the CSV convention)."""
    return format(float(x), ".9g")


def atomic_write_bytes(path: str | os.PathLike, payload: bytes) -> None:
    """Write bytes via a temp file + rename so readers never see partial files."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """UTF-8, LF line endings, atomic replace."""
    atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Every CSV the package writes: UTF-8, LF line endings, parent directory created."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, buf.getvalue())


class MissingColumns(ValueError):
    """A CSV table lacks required columns; ``missing`` names them."""

    def __init__(self, path: str | os.PathLike, missing: set[str]) -> None:
        super().__init__(f"{path}: missing columns {sorted(missing)}")
        self.missing = missing


def read_csv(path: str | os.PathLike, required: Iterable[str], parse: Callable) -> list:
    """``parse`` applied to every row (a column -> text dict) of a CSV table.

    The first row is the header; blank rows are skipped, and of repeated
    header names the last column wins.  Extra columns are ignored.  A missing
    ``required`` column raises MissingColumns.  Every other fault is a
    ValueError naming the file: a row whose field count differs from the
    header's or that ``parse`` refuses (with the line the row ends on), a row
    csv cannot split (the line it starts on), or a byte that is not UTF-8.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        end = 0  # the line on which the last row read ends
        try:
            header = next(reader, [])
            end = reader.line_num
            missing = set(required) - set(header)
            if missing:
                raise MissingColumns(path, missing)
            parsed = []
            for fields in reader:
                end = reader.line_num
                if not fields:
                    continue
                try:
                    if len(fields) != len(header):
                        raise ValueError(f"row has {len(fields)} fields, header has {len(header)}")
                    parsed.append(parse(dict(zip(header, fields))))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}: line {end}: {exc}") from exc
        except csv.Error as exc:
            raise ValueError(f"{path}: line {end + 1}: {exc}") from None
        except UnicodeDecodeError as exc:
            # The decoder reads ahead of csv.reader: place the bad byte in the whole file.
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
            line = data.count(b"\n", 0, exc.start) + 1
            fault = f"byte 0x{exc.object[exc.start]:02x}: {exc.reason}"
            raise ValueError(f"{path}: line {line}: not UTF-8 text: {fault}") from None
    return parsed


def _check_span(lo: float, hi: float, name: str, gt, ge, le) -> None:
    """Raise unless a field whose values span [lo, hi] is finite and within the bounds given."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} must be finite")
    low_ok = (gt is None or lo > gt) and (ge is None or lo >= ge)
    if not (low_ok and (le is None or hi <= le)):
        rules = [f"{op} {b}" for op, b in ((">", gt), (">=", ge), ("<=", le)) if b is not None]
        raise ValueError(f"{name} must be " + " and ".join(rules))


def _float(value, name: str, what: str) -> float:
    if isinstance(value, float):  # a Python or numpy float
        return float(value)
    # JSON true and false arrive as Python bools, which are numbers to math.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        return math.inf if value > 0 else -math.inf


def real(value, name: str, *, gt=None, ge=None, le=None) -> float:
    """``value`` as a finite float within the bounds given, or a ValueError naming ``name``."""
    x = _float(value, name, "a number")
    _check_span(x, x, name, gt, ge, le)
    return x


def whole(value, name: str, lo: int, hi: int | None = None) -> int:
    """``value`` as an int in ``lo..hi`` (no upper bound if ``hi`` is None), or a ValueError."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and lo <= value and (hi is None or value <= hi)):
        span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an integer {span}")
    return int(value)


def _floats(value, name: str):
    """``value``'s elements as nested lists of floats; a bool or a non-number is refused."""
    if isinstance(value, (list, tuple)):
        return [v if isinstance(v, float) else _floats(v, name) for v in value]
    if hasattr(value, "tolist"):  # a numpy array or scalar, as Python lists and numbers
        return _floats(value.tolist(), name)
    return _float(value, name, "an array of numbers")


def real_array(value, name: str, *shapes: tuple, gt=None, ge=None, le=None):
    """``value`` as a new read-only float64 array of one of ``shapes``, finite and
    within the bounds given, or a ValueError naming ``name``."""
    import numpy as np  # here, so that importing the command line loads no numpy

    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        arr = value.astype(np.float64)  # always a copy
    else:
        nested = _floats(value, name)
        try:
            arr = np.array(nested, dtype=np.float64)
        except ValueError:  # rows of different lengths
            arr = None
    if arr is None or arr.shape not in shapes:
        want = " or ".join(map(str, shapes))
        got = "rows of different lengths" if arr is None else arr.shape
        raise ValueError(f"{name} must be an array of shape {want}, got {got}")
    if arr.size > 64:  # a NaN makes both extremes NaN, an infinity one of them infinite
        lo, hi = float(arr.min()), float(arr.max())
    else:  # in Python, faster than numpy's reductions on the few numbers of a record
        flat = arr.ravel().tolist()
        lo, hi = (min(flat), max(flat)) if all(map(math.isfinite, flat)) else (math.nan, math.nan)
    _check_span(lo, hi, name, gt, ge, le)
    arr.setflags(write=False)
    return arr
