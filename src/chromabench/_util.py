"""Shared plumbing: float formatting, atomic writes and the one CSV dialect,
which ``write_csv`` writes and ``read_csv`` reads row by row on ``csv.reader``."""

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
