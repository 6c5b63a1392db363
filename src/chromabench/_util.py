"""Shared plumbing: float formatting, atomic writes and the one CSV dialect."""

from __future__ import annotations

import csv
import io
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

    Extra columns are ignored.  A missing ``required`` column raises
    MissingColumns; a row with more or fewer fields than the header, or a
    TypeError/ValueError raised by ``parse``, becomes a ValueError.  Both
    name the file (the latter also the line on which the row ends).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or ()
        missing = set(required) - set(header)
        if missing:
            raise MissingColumns(path, missing)
        parsed = []
        for row in reader:
            # DictReader files a long row's extra fields under None and fills
            # a short row's missing ones with None.
            if None in row or row[header[-1]] is None:
                width = len(header) + len(row.get(None, ())) - list(row.values()).count(None)
                reason = f"row has {width} fields, header has {len(header)}"
                raise ValueError(f"{path}: line {reader.line_num}: {reason}")
            try:
                parsed.append(parse(row))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    return parsed
