"""The package's one CSV dialect: ``write_csv`` and ``read_csv``."""

import ast
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chromabench
from chromabench._util import MissingColumns, read_csv, write_csv

HEADER = ("image_id", "algorithm", "note")

# Commas, quotes, embedded newlines and non-ASCII text; "\r" is left out
# because the property below checks that output line endings are LF only.
CELL = st.text(
    alphabet=st.one_of(
        st.sampled_from([",", '"', "\n", " ", "é", "漢", "😀"]),
        st.characters(blacklist_characters="\r", blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
ROWS = st.lists(st.lists(CELL, min_size=len(HEADER), max_size=len(HEADER)), max_size=8)


@given(rows=ROWS)
def test_csv_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(path, HEADER, rows)
    payload = path.read_bytes()
    assert payload.endswith(b"\n") and b"\r" not in payload
    assert read_csv(path, HEADER, lambda row: [row[k] for k in HEADER]) == rows


def test_write_csv_creates_parent_directory(tmp_path):
    path = tmp_path / "new" / "dir" / "t.csv"
    write_csv(path, ["x"], [[1], [2.5]])
    assert path.read_bytes() == b"x\n1\n2.5\n"


def test_read_csv_errors_name_file_and_line(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x"], [["1"], ["oops"]])
    with pytest.raises(ValueError, match=r"t\.csv: line 3: could not convert"):
        read_csv(path, ["x"], lambda row: float(row["x"]))
    with pytest.raises(MissingColumns, match=r"t\.csv: missing columns \['y'\]") as info:
        read_csv(path, ["x", "y"], dict)
    assert info.value.missing == {"y"}


@pytest.mark.parametrize("row, fields", [("1,2,3", 3), ("1,2,,", 4), ("1", 1)])
def test_read_csv_refuses_a_row_whose_field_count_differs_from_the_header(tmp_path, row, fields):
    path = tmp_path / "t.csv"
    path.write_text("x,y\n1,2\n" + row + "\n")
    message = rf"t\.csv: line 3: row has {fields} fields, header has 2$"
    with pytest.raises(ValueError, match=message):
        read_csv(path, ["x"], dict)
    # Empty cells are fields: a row of the header's width reads as it is.
    path.write_text("x,y\n,\n")
    assert read_csv(path, ["x"], dict) == [{"x": "", "y": ""}]


def test_read_csv_names_the_line_a_bad_row_ends_on_after_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y\n1,2\n\n\n1,2,3\n")
    with pytest.raises(ValueError, match=r"t\.csv: line 5: row has 3 fields, header has 2$"):
        read_csv(path, ["x"], dict)


def test_read_csv_names_the_line_a_multi_line_row_ends_on(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('x,y\n1,"two\nlines"\noops,2\n')
    with pytest.raises(ValueError, match=r"t\.csv: line 4: could not convert"):
        read_csv(path, ["x"], lambda row: float(row["x"]))
    path.write_text('x,y\n1,"two\nlines"\n')
    assert read_csv(path, ["x"], dict) == [{"x": "1", "y": "two\nlines"}]


def test_read_csv_gives_a_repeated_header_name_its_last_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y,x\n1,2,3\n")
    assert read_csv(path, ["x"], dict) == [{"x": "3", "y": "2"}]


def test_read_csv_reads_a_header_only_file_as_no_rows_and_refuses_an_empty_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y\n")
    assert read_csv(path, ["x"], dict) == []
    path.write_text("")
    with pytest.raises(MissingColumns, match=r"t\.csv: missing columns \['x'\]"):
        read_csv(path, ["x"], dict)


def test_read_csv_names_the_line_where_an_unclosed_quote_starts(tmp_path):
    # The quote runs its field on through the rest of a table of over 128 KB,
    # past the csv module's field size limit (whose csv.Error is no ValueError).
    path = tmp_path / "t.csv"
    path.write_text('x,y\n1,2\n"' + "img00000,0.5\n" * 12000)
    assert path.stat().st_size > 128 * 1024
    with pytest.raises(ValueError, match=r"t\.csv: line 3: field larger than field limit"):
        read_csv(path, ["x"], dict)


def test_read_csv_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"x,y\n1,\xff\n")
    with pytest.raises(
        ValueError, match=r"t\.csv: line 2: not UTF-8 text: byte 0xff: invalid start byte$"
    ):
        read_csv(path, ["x"], dict)


def test_read_csv_names_the_line_of_a_bad_byte_past_the_decoders_read_ahead(tmp_path):
    # The decoder reads 8 KB ahead of csv.reader, so neither the reader's line
    # nor the decoder's offset in its chunk is the bad byte's line.
    path = tmp_path / "t.csv"
    path.write_bytes(b"x,y\n" + b"img0000,0.5\n" * 1499 + b"img0000,\xff\n" + b"img0000,0.5\n" * 10)
    assert path.stat().st_size > 8 * 1024
    with pytest.raises(
        ValueError, match=r"t\.csv: line 1501: not UTF-8 text: byte 0xff: invalid start byte$"
    ):
        read_csv(path, ["x"], dict)


def test_only_util_constructs_a_csv_reader():
    # read_csv is the package's one reader: no other module builds a
    # csv.reader or csv.DictReader of its own.
    readers = {"reader", "DictReader"}
    offenders = []
    for path in sorted(Path(chromabench.__file__).parent.glob("*.py")):
        if path.name == "_util.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "csv"
                and node.attr in readers
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "csv"
                and any(alias.name in readers for alias in node.names)
            )
            if named:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
