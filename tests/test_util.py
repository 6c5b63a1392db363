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
