"""Fuzzing of ``pyrsample stack`` against the CLI error contract.

Generated per-chip detection files mix well-formed records with missing,
mistyped, NaN, infinite and out-of-range fields. Every case must either exit
0 and write a valid detection file, or exit 1 with exactly one JSON error
line on stderr and no output file. An id, canvas side or category id that
is a fraction or a boolean always exits 1. A traceback, a numpy warning or
any other stderr line fails the test.
"""
import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pyrsample.cli import main

COCO = {
    "images": [
        {"id": 1, "width": 640, "height": 480, "file_name": "a.jpg"},
        {"id": 2, "width": 500, "height": 375, "file_name": "b.jpg"},
    ],
    "annotations": [
        {"id": 1, "image_id": 1, "category_id": 1, "bbox": [100, 100, 15, 15], "iscrowd": 0},
        {"id": 2, "image_id": 2, "category_id": 2, "bbox": [50, 60, 40, 40], "iscrowd": 0},
    ],
    "categories": [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}],
}

special = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 5e-324, 2**70, -(2**70)]
)
junk = st.one_of(
    special,
    special,
    special,
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(0, 5), max_size=5),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def mostly(valid):
    """Usually a well-formed value, sometimes junk."""
    return st.one_of(valid, valid, valid, junk)


coord = st.floats(min_value=-50.0, max_value=1600.0, allow_nan=False)
bbox = mostly(
    st.lists(coord, min_size=4, max_size=4)
) | st.lists(st.one_of(coord, junk), min_size=3, max_size=5)
fields = {
    "bbox": bbox,
    "score": mostly(st.floats(0.0, 1.0)) | st.floats(-1.0, 2.0),
    "category_id": mostly(st.integers(1, 3)),
}
entry = st.fixed_dictionaries(fields) | st.fixed_dictionaries({}, optional=fields)
chip = st.tuples(coord, coord, coord, coord).map(
    lambda t: [min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3])]
)
record_fields = {
    "image_id": mostly(st.sampled_from([1, 2])) | st.integers(3, 5),
    "scale_id": mostly(st.sampled_from([0, 1, 2])),
    "canvas": mostly(
        st.fixed_dictionaries({"width": st.integers(1, 2000), "height": st.integers(1, 2000)})
    ),
    "chip": st.none() | mostly(chip),
    "detections": mostly(st.lists(entry, max_size=8)),
}
record = st.fixed_dictionaries(record_fields) | st.fixed_dictionaries({}, optional=record_fields)
records = st.lists(record, min_size=1, max_size=4)
detection_file = st.one_of(records, records, records, junk)
policy = st.sampled_from(["hard", "gaussian", "linear"])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _is_valid_output(text: str) -> bool:
    """The text is strict JSON (no NaN or Infinity) holding COCO-results
    records sorted by image id, then by descending score."""
    keys = {"image_id", "category_id", "bbox", "score"}
    try:
        records = json.loads(text, parse_constant=_reject_constant)
    except ValueError:
        return False
    if not isinstance(records, list):
        return False
    for rec in records:
        if set(rec) != keys or len(rec["bbox"]) != 4 or not 0.0 <= rec["score"] <= 1.0:
            return False
    order = [(rec["image_id"], -rec["score"]) for rec in records]
    return order == sorted(order)


def _not_integral(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())


def _has_non_integral_id(data) -> bool:
    """Some record's image id, scale id, canvas side or detection category id
    is a fraction, a non-finite float or a boolean."""
    for rec in data if isinstance(data, list) else []:
        if not isinstance(rec, dict):
            continue
        canvas = rec.get("canvas")
        canvas = canvas if isinstance(canvas, dict) else {}
        entries = rec.get("detections")
        entries = entries if isinstance(entries, list) else []
        values = [rec.get("image_id"), rec.get("scale_id"), canvas.get("width"),
                  canvas.get("height")]
        values += [e.get("category_id") for e in entries if isinstance(e, dict)]
        if any(map(_not_integral, values)):
            return True
    return False


GOOD = {"image_id": 2, "scale_id": 0, "canvas": {"width": 500, "height": 375}, "chip": None,
        "detections": [{"bbox": [10, 10, 150, 150], "score": 0.6, "category_id": 1}]}


def _with(path, value):
    record = json.loads(json.dumps(GOOD))
    holder = record
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return [record]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(detection_file, policy)
@example(_with(("image_id",), float("inf")), "hard")
@example(_with(("canvas", "width"), float("-inf")), "hard")
@example(_with(("detections", 0, "category_id"), float("inf")), "gaussian")
@example(_with(("detections", 0, "bbox"), [1e308, 0, 1e308, 10]), "gaussian")
@example(_with(("detections", 0, "bbox"), "1234"), "hard")
@example(_with(("chip",), [0, 0, 500, float("nan")]), "linear")
@example(_with(("image_id",), 1.9), "gaussian")
@example(_with(("detections", 0, "category_id"), 2.7), "hard")
@example(_with(("scale_id",), True), "linear")
@example([{"image_id": 1, "scale_id": 0, "canvas": {"width": 320, "height": 240}, "chip": None,
           "detections": [{"bbox": [0, 0, 1e308, 1e-300], "score": 0.6, "category_id": 1}]}],
         "gaussian")
def test_stack_exits_cleanly_on_any_input(data, mode):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "ann.json").write_text(json.dumps(COCO))
        (tmp / "cfg.json").write_text(json.dumps({"profile": "coco-default", "merge": {"mode": mode}}))
        (tmp / "dets.json").write_text(json.dumps(data))
        out = tmp / "merged.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(["stack", "--config", str(tmp / "cfg.json"),
                           "--annotations", str(tmp / "ann.json"),
                           "--detections", str(tmp / "dets.json"), "--out", str(out)])
        if rc == 0:
            assert not _has_non_integral_id(data)
            assert stderr.getvalue() == ""
            assert _is_valid_output(out.read_text())
        else:
            assert rc == 1
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1
            error = json.loads(lines[0])["error"]
            assert error["type"] and error["message"]
            assert not out.exists()
