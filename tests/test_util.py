"""The package's one CSV dialect (``write_csv`` and ``read_csv``) and the field
rules of every record (``real``, ``whole`` and ``real_array``)."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import chromabench
from chromabench import synth
from chromabench._util import MissingColumns, read_csv, real, real_array, whole, write_csv
from chromabench.chartgeom import CANONICAL_CORNERS, ChartLayout, default_corner_patch_centers
from chromabench.estimators import EstimatorSpec, IlluminantEstimate
from chromabench.groundtruth import GroundTruthRecord
from chromabench.imagecore import CameraProfile

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


# --- field rules -------------------------------------------------------------

HUGE = 10**400  # an integer past the float range

# Each record, with valid values for the fields that have no default.
RECORDS = {
    CameraProfile: {"camera_id": "c"},
    synth.SceneSpec: {},
    ChartLayout: {"corners": CANONICAL_CORNERS},
    EstimatorSpec: {"name": "x", "n": 1, "p": 6.0, "sigma": 2.0},
    IlluminantEstimate: {"image_id": "i", "algorithm": "a", "rgb": (0.6, 0.8, 0.0)},
    GroundTruthRecord: {"image_id": "i", "illuminant": (1.0, 1.0, 1.0), "patch_index": 18,
                        "camera_id": "c", "black_level_subtracted": True},
}
NOT_NUMBERS = {"camera_id", "image_id", "algorithm", "name", "black_level_subtracted"}

# Every numeric field of every record: (record, field, coercer, a valid value).
FIELDS = [
    (CameraProfile, "black_level", real, 0.0),
    (CameraProfile, "saturation_level", real, 3300.0),
    (CameraProfile, "bit_depth", whole, 12),
    (synth.SceneSpec, "illuminant", real_array, (1.0, 1.0, 1.0)),
    (synth.SceneSpec, "pose", real_array, synth.default_pose(640, 480).tolist()),
    (synth.SceneSpec, "width", whole, 640),
    (synth.SceneSpec, "height", whole, 480),
    (synth.SceneSpec, "exposure", real, 2000.0),
    (synth.SceneSpec, "reflectance_table", real_array, synth.DEFAULT_REFLECTANCES.tolist()),
    (synth.SceneSpec, "background", real_array, (0.35, 0.35, 0.35)),
    (synth.SceneSpec, "black_level", real, 0.0),
    (synth.SceneSpec, "noise_sigma", real, 0.0),
    (synth.SceneSpec, "bit_depth", whole, 12),
    (synth.SceneSpec, "clip_level", real, 4000.0),
    (synth.SceneSpec, "rng_seed", whole, 0),
    (synth.SceneSpec, "saturation_level", real, 3300.0),
    (ChartLayout, "corners", real_array, CANONICAL_CORNERS.tolist()),
    (ChartLayout, "corner_patch_centers", real_array, default_corner_patch_centers().tolist()),
    (ChartLayout, "half_size", whole, 15),
    (EstimatorSpec, "n", whole, 1),
    (EstimatorSpec, "p", real, 6.0),
    (EstimatorSpec, "sigma", real, 2.0),
    (IlluminantEstimate, "rgb", real_array, (0.6, 0.8, 0.0)),
    (GroundTruthRecord, "illuminant", real_array, (1.0, 1.0, 1.0)),
    (GroundTruthRecord, "patch_index", whole, 18),
]


def _with_first(valid, bad):
    """``valid`` as nested lists, its first number replaced by ``bad``."""
    head, *rest = valid
    return [_with_first(head, bad) if isinstance(head, (list, tuple)) else bad, *rest]


def _bad_values(record, field, coercer, valid):
    """A bool, NaN, +-inf, 10**400, a string and a wrong shape, as the field holds them."""
    bads = {"bool": True, "nan": float("nan"), "inf": np.inf, "-inf": -np.inf, "huge": HUGE,
            "text": "1"}
    if (record, field) == (EstimatorSpec, "p"):
        del bads["inf"]  # p = inf is the maximum, white-patch's pool
    if field in ("width", "height", "rng_seed"):
        bads["huge"] = -HUGE  # no upper bound: a huge integer is one of these
    if coercer is whole:
        bads["float"] = float(valid)  # a whole-valued float is not an integer
    if coercer is real_array:
        return {**{k: _with_first(valid, v) for k, v in bads.items()}, "shape": valid[:-1]}
    return {**bads, "shape": [valid]}


CASES = [
    pytest.param(record, field, bad, id=f"{record.__name__}.{field}-{kind}")
    for record, field, coercer, valid in FIELDS
    for kind, bad in _bad_values(record, field, coercer, valid).items()
]


def test_every_numeric_field_is_listed_with_a_valid_value():
    # A record field that is added joins FIELDS, and so the test below, or this fails.
    listed = {(record, field) for record, field, _, _ in FIELDS}
    for record in RECORDS:
        for f in dataclasses.fields(record):
            assert not f.init or f.name in NOT_NUMBERS or (record, f.name) in listed, f.name
    for record, field, _, valid in FIELDS:
        record(**{**RECORDS[record], field: valid})


@pytest.mark.parametrize("record, field, bad", CASES)
def test_every_record_refuses_a_bad_number_naming_the_field(record, field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        record(**{**RECORDS[record], field: bad})


def test_coercers_return_plain_values_and_read_only_copies():
    assert type(real(np.float32(0.5), "x")) is float and real(3, "x", gt=0, le=3) == 3.0
    assert type(whole(np.int64(3), "n", 0, 5)) is int
    mine = np.arange(6.0).reshape(3, 2)
    for value in (mine, mine.tolist(), mine.astype(np.int32), [np.array([0, 1]), (2, 3), [4, 5]]):
        arr = real_array(value, "a", (2, 3), (3, 2))
        assert arr.dtype == np.float64 and not arr.flags.writeable
        assert np.array_equal(arr, mine) and not np.shares_memory(arr, mine)
    assert mine.flags.writeable


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: real(True, "x"), "x must be a number, got True"),
        (lambda: real(-1, "x", ge=0), "x must be >= 0"),
        (lambda: real(2, "x", gt=0, le=1), "x must be > 0 and <= 1"),
        (lambda: whole(2.0, "n", 0, 5), "n must be an integer in 0..5"),
        (lambda: whole(-1, "n", 0), "n must be an integer >= 0"),
        (lambda: real_array([1, np.bool_(True)], "a", (2,)), "a must be an array of numbers, got True"),
        (lambda: real_array([[1, 2], [3]], "a", (2, 2)),
         "a must be an array of shape (2, 2), got rows of different lengths"),
        (lambda: real_array(np.zeros(3), "a", (2,), (4, 3)),
         "a must be an array of shape (2,) or (4, 3), got (3,)"),
        (lambda: real_array(np.full(100, 2.0), "a", (100,), ge=0, le=1), "a must be >= 0 and <= 1"),
        (lambda: real_array(np.full(100, np.nan), "a", (100,), ge=0, le=1), "a must be finite"),
    ],
)
def test_coercer_messages_take_one_form(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_an_integer_past_the_float_range_reads_as_an_infinity():
    # It is refused as "must be finite", as a NaN is, and not by a bound or
    # with an OverflowError ("int too large to convert to float").
    with pytest.raises(ValueError, match="^x must be finite$"):
        real(-HUGE, "x", ge=0)
    with pytest.raises(ValueError, match="^x must be finite$"):
        real_array([[1, -HUGE], [HUGE, 2]], "x", (2, 2), ge=0)
