"""Fuzzing of ``load_dataset`` through the CLI error contract, and against
the per-entry loader oracle.

Generated COCO annotation files and proposal files mix well-formed entries
with missing, mistyped, NaN, infinite, huge and out-of-range fields, and
sometimes replace a whole section or file with junk. Each case runs through
``chips negative`` (annotations and proposals) and ``stats areafractions``
(annotations). Every run must either exit 0 and write its output, or exit 1
with exactly one JSON error line on stderr and no output file. A traceback,
a numpy warning or any other stderr line fails the test.

The same annotation files, and files of clean entries with edge-case
coordinates, load with the columnar loader exactly as with
``load_dataset_oracle``: the same boxes bit for bit, or the same error.
"""
import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from pyrsample.cli import main
from pyrsample.dataset import DatasetError, load_dataset

from oracles import load_dataset_oracle

special = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 5e-324, 2**70, -(2**70)]
)
other_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(0, 5), max_size=5),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
junk = st.one_of(special, special, other_junk)
# Image sizes also take zero, negative values and the first side past the
# loader's bound.
size_junk = st.one_of(special, st.sampled_from([0, -3, 2**32]), other_junk)


def mostly(valid, bad=junk, one_in=6):
    """``valid``, except that one draw in ``one_in`` comes from ``bad``.

    (``st.one_of`` would flatten a nested ``one_of`` such as ``junk`` into
    its branches and so pick junk far more often than intended.)
    """
    return st.integers(1, one_in).flatmap(lambda k: bad if k == 1 else valid)


def entries(fields):
    """A list of entries with all fields, or with any subset of them."""
    entry = st.fixed_dictionaries(fields) | st.fixed_dictionaries({}, optional=fields)
    return mostly(st.lists(entry, max_size=6))


coord = st.floats(min_value=-50.0, max_value=900.0, allow_nan=False)
extent = st.floats(min_value=0.0, max_value=400.0)
clean_bbox = st.lists(coord, min_size=2, max_size=2).flatmap(
    lambda xy: st.lists(extent, min_size=2, max_size=2).map(lambda wh: xy + wh)
)
bbox = mostly(clean_bbox) | st.lists(st.one_of(coord, junk), min_size=3, max_size=5)
image_id = mostly(st.sampled_from([1, 2])) | st.integers(3, 5)

# Well-formed files: images 1 and 2, entries that reference them.
clean_image_fields = {
    "width": st.integers(1, 700),
    "height": st.integers(1, 700),
    "file_name": st.text(max_size=8),
}
clean_annotation_fields = {
    "id": st.integers(1, 9),
    "image_id": st.sampled_from([1, 2]),
    "category_id": st.integers(0, 3),
    "bbox": clean_bbox,
    "iscrowd": st.sampled_from([0, 1]),
}
clean_category_fields = {"id": st.integers(1, 3), "name": st.text(max_size=4)}
clean_proposal_fields = {
    "image_id": st.sampled_from([1, 2]),
    "bbox": clean_bbox,
    "score": st.floats(0.0, 1.0),
}
clean_annotation_file = st.fixed_dictionaries({
    "images": st.tuples(
        *(st.fixed_dictionaries({"id": st.just(i), **clean_image_fields}) for i in (1, 2))
    ).map(list),
    "annotations": st.lists(st.fixed_dictionaries(clean_annotation_fields), max_size=6),
    "categories": st.lists(st.fixed_dictionaries(clean_category_fields), max_size=3),
})
clean_proposal_file = st.lists(st.fixed_dictionaries(clean_proposal_fields), max_size=40)

# Malformed files: any field, entry, section or the whole file may be junk.
image_fields = {
    "id": mostly(st.sampled_from([1, 2, 3])),
    "width": mostly(st.integers(1, 700), size_junk),
    "height": mostly(st.integers(1, 700), size_junk),
    "file_name": mostly(st.text(max_size=8)),
}
annotation_fields = {
    "id": mostly(st.integers(1, 9)),
    "image_id": image_id,
    "category_id": mostly(st.integers(-1, 3)),
    "bbox": bbox,
    "iscrowd": mostly(st.sampled_from([0, 1])),
}
category_fields = {"id": mostly(st.integers(1, 3)), "name": mostly(st.text(max_size=4))}
sections = {
    "images": entries(image_fields),
    "annotations": entries(annotation_fields),
    "categories": entries(category_fields),
}
proposal_fields = {
    "image_id": image_id,
    "bbox": bbox,
    "score": mostly(st.floats(0.0, 1.0)) | st.floats(-1.0, 2.0),
}
annotation_file = mostly(
    clean_annotation_file,
    st.one_of(
        st.fixed_dictionaries(sections), st.fixed_dictionaries({}, optional=sections), junk
    ),
    one_in=2,
)
proposal_file = mostly(clean_proposal_file, entries(proposal_fields) | junk, one_in=2)

GOOD = {
    "images": [{"id": 1, "width": 640, "height": 480, "file_name": "a.jpg"}],
    "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [100, 100, 15, 15]}],
    "categories": [{"id": 1, "name": "a"}],
}
GOOD_PROPOSALS = [{"image_id": 1, "bbox": [300, 200, 40, 40], "score": 0.5}]


def _with(section, position, key, value):
    data = json.loads(json.dumps(GOOD))
    data[section][position][key] = value
    return data


def _run(argv: list[str], out: Path) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
    if rc == 0:
        assert stderr.getvalue() == ""
        assert out.exists()
    else:
        assert rc == 1
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] and error["message"]
        assert not out.exists()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(annotation_file, proposal_file)
@example(_with("images", 0, "id", float("inf")), GOOD_PROPOSALS)
@example(_with("categories", 0, "id", float("inf")), GOOD_PROPOSALS)
@example({**GOOD, "categories": [{"name": "a"}]}, GOOD_PROPOSALS)
@example({**GOOD, "annotations": 7}, GOOD_PROPOSALS)
@example(GOOD, [{"image_id": float("inf"), "bbox": [1, 1, 5, 5], "score": 0.5}])
@example(GOOD, [{"image_id": 1, "bbox": [1e308, 1, 1e308, 5], "score": 0.5}])
@example(GOOD, [{"image_id": 1, "bbox": [1, 1, 5, 5], "score": float("nan")}])
@example(_with("images", 0, "width", 1e308), GOOD_PROPOSALS)
@example(_with("images", 0, "height", 2**32 - 1), GOOD_PROPOSALS)
def test_loaders_exit_cleanly_on_any_input(annotations, proposals):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ann, props = tmp / "ann.json", tmp / "props.json"
        ann.write_text(json.dumps(annotations))
        props.write_text(json.dumps(proposals))
        neg, fractions = tmp / "neg.json", tmp / "fractions.json"
        _run(["chips", "negative", "--annotations", str(ann), "--proposals", str(props),
              "--out", str(neg)], neg)
        _run(["stats", "areafractions", "--annotations", str(ann), "--out", str(fractions)],
             fractions)


# Every integer field of the annotation and proposal files, by section.
INTEGER_FIELDS = [("images", "id"), ("images", "width"), ("images", "height"),
                  ("annotations", "image_id"), ("annotations", "category_id"),
                  ("categories", "id"), ("proposals", "image_id")]
not_an_integer = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: not v.is_integer()),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(INTEGER_FIELDS), not_an_integer)
@example(("images", "width"), 640.9)
@example(("annotations", "image_id"), 1.9)
@example(("annotations", "category_id"), True)
def test_a_fraction_or_boolean_in_an_integer_field_exits_1(field, value):
    section, key = field
    annotations, proposals = json.loads(json.dumps(GOOD)), json.loads(json.dumps(GOOD_PROPOSALS))
    (proposals if section == "proposals" else annotations[section])[0][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ann, props, out = tmp / "ann.json", tmp / "props.json", tmp / "neg.json"
        ann.write_text(json.dumps(annotations))
        props.write_text(json.dumps(proposals))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = main(["chips", "negative", "--annotations", str(ann), "--proposals", str(props),
                       "--out", str(out)])
        assert rc == 1 and not out.exists()
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "DatasetStructureError"
    assert f"{key} must be an integer: {value!r}" in error["message"]


# Clean files whose corners hit the clamp's edge cases: -0.0, the canvas
# edge, the smallest subnormal, and x + w overflowing to inf.
edge_value = st.sampled_from([-0.0, 0.0, 5e-324, 1.0, 640.0, 1e308, -1e308])
edge_corner = st.one_of(edge_value, coord)
edge_extent = st.one_of(edge_value.filter(lambda v: not v < 0), extent)
edge_bbox = st.tuples(edge_corner, edge_corner, edge_extent, edge_extent).map(list)
edge_annotation_file = st.fixed_dictionaries({
    "images": st.lists(
        st.fixed_dictionaries({"id": st.integers(1, 4), **clean_image_fields}),
        min_size=1, max_size=4, unique_by=lambda image: image["id"],
    ),
    "annotations": st.lists(
        st.fixed_dictionaries({**clean_annotation_fields, "image_id": st.integers(1, 4),
                               "bbox": edge_bbox}),
        max_size=12,
    ),
})


# Many annotations interleaved over three images, so that grouping them by
# image must keep file order.
INTERLEAVED = {
    "images": [{"id": i, "width": 640, "height": 480} for i in (3, 1, 2)],
    "annotations": [
        {"id": k, "image_id": 1 + k * 7 % 3, "category_id": k % 5,
         "bbox": [k, 2 * k, 10 + k % 4, 5], "iscrowd": k % 2}
        for k in range(64)
    ],
}


def _outcome(load, path):
    try:
        return load(path), None
    except DatasetError as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(annotation_file | edge_annotation_file)
@example(INTERLEAVED)
@example({**GOOD, "images": [*GOOD["images"], {"id": 1, "width": 5, "height": 5}]})
@example(_with("annotations", 0, "category_id", -3))
@example(_with("annotations", 0, "category_id", 2**70))
@example(_with("annotations", 0, "bbox", [-0.0, 1e308, 1e308, 5]))
@example(_with("annotations", 0, "bbox", "1234"))
@example(_with("annotations", 0, "image_id", 2**70))
@example(_with("annotations", 0, "iscrowd", "0"))
@example(_with("annotations", 0, "iscrowd", 1.0))
def test_columnar_loader_matches_the_per_entry_oracle(annotations):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ann.json"
        path.write_text(json.dumps(annotations))
        index, error = _outcome(load_dataset, path)
        want, want_error = _outcome(load_dataset_oracle, path)
    assert error == want_error
    if want is None:
        return
    sizes, gts, categories, clamp_warnings = want
    assert list(index.images) == list(sizes)
    assert index.sizes() == sizes
    assert list(index.annotations) == list(gts)
    for image_id, expected in gts.items():
        got = index.annotations[image_id]
        boxes = np.array([g.box.as_tuple() for g in expected], dtype=np.float64).reshape(-1, 4)
        assert got.boxes.tobytes() == boxes.tobytes()
        assert got.class_ids.tolist() == [g.class_id for g in expected]
        assert got.crowd.tolist() == [g.is_crowd for g in expected]
    assert index.categories == categories
    assert index.clamp_warnings == clamp_warnings
