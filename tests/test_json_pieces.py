"""Large JSON-array inputs decoded in pieces, in forked children.

``serialization.read_json_array`` cuts a proposal file into one piece per
available CPU, each of at least ``MIN_PIECE_CHARS`` characters. These tests set both bounds down, so that
files of a few hundred characters split into two to four pieces, and check
that:
- the split path and the one-piece path give equal columns and
  byte-identical output files, whatever the layout and wherever the first
  element's opening text appears again in the file;
- a piece that fails, a child that fails and a fork that fails all fall
  back to the one-process path, which names any error as before;
- no child outlives a call.
"""
import contextlib
import io
import json
import os
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrsample import serialization as ser
from pyrsample.cli import main
from pyrsample.dataset import _proposal_columns, load_dataset

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="files are only split on Linux with os.fork",
)

COCO = {
    "images": [{"id": 1, "width": 640, "height": 480}, {"id": 2, "width": 500, "height": 375}],
    "annotations": [
        {"id": 1, "image_id": 1, "category_id": 1, "bbox": [100, 100, 15, 15]},
        {"id": 2, "image_id": 2, "category_id": 2, "bbox": [50, 60, 300, 200]},
    ],
    "categories": [{"id": 1}, {"id": 2}],
}


@contextlib.contextmanager
def pieces(split: bool, min_chars: int = 64, cpus: int = 4):
    """Files of ``min_chars`` characters per piece split on ``cpus`` CPUs;
    with ``split`` false, no file splits."""
    with mock.patch.object(ser, "MIN_PIECE_CHARS", min_chars if split else 1 << 62), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
        yield


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard error of one command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


# Text that holds, as a string value or as a nested object, the opening
# text of an element up to its first colon, in each layout.
TRICKY_TEXT = st.sampled_from(
    ['', ', {"image_id": 7, "bbox": [1, 2, 3, 4]}', ',{"image_id":', ', {"bbox":',
     '\n  {\n    "bbox":', "],[{", '"]}, {"'])
NESTED = st.sampled_from(
    [{"image_id": 1, "bbox": [0, 0, 1, 1]},
     [{"image_id": 2, "bbox": [1]}, {"image_id": 3}],
     [{"bbox": [1, 2]}, {"bbox": [3, 4]}, {"score": 1}],
     [{"category_id": 1}, {"category_id": 2}]])
LAYOUTS = st.sampled_from(
    [{}, {"separators": (",", ":")}, {"indent": 2}, {"indent": "\t", "sort_keys": True},
     {"sort_keys": True}, {"indent": 0, "separators": (" ,", " :  ")}])
COORD = st.floats(0.0, 700.0)
PROPOSAL = st.fixed_dictionaries(
    {"image_id": st.sampled_from([1, 2]),
     "bbox": st.lists(COORD, min_size=4, max_size=4),
     "score": st.floats(0.0, 1.0)},
    optional={"note": TRICKY_TEXT, "extra": NESTED},
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(PROPOSAL, min_size=1, max_size=30), LAYOUTS)
def test_proposal_pieces_give_the_whole_file_columns_and_output(proposals, layout):
    with tempfile.TemporaryDirectory() as tmp:
        ann, props = Path(tmp) / "ann.json", Path(tmp) / "props.json"
        ann.write_text(json.dumps(COCO))
        props.write_text(json.dumps(proposals, **layout))
        got = {}
        for split in (True, False):
            out = Path(tmp) / f"neg-{split}.json"
            with pieces(split):
                index = load_dataset(ann, props)
                assert run(["chips", "negative", "--annotations", str(ann),
                            "--proposals", str(props), "--out", str(out)]) == (0, "")
            got[split] = (index.proposal_set.boxes.tobytes(), index.proposal_set.scores.tobytes(),
                          index.proposal_offsets.tolist(), out.read_bytes())
        assert got[True] == got[False]
        assert no_child_left()


def proposal_text(n: int, **layout) -> str:
    return json.dumps([{"image_id": 1 + k % 2, "bbox": [k % 50, 2.5, 30, 40], "score": 0.5}
                       for k in range(n)], **layout)


@pytest.mark.parametrize("layout", [{}, {"separators": (",", ":")}, {"indent": 2}],
                         ids=["default", "compact", "indented"])
@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_a_file_is_cut_at_element_commas_into_one_piece_per_cpu(layout, cpus):
    text = proposal_text(200, **layout)
    with pieces(True, min_chars=len(text) // cpus, cpus=cpus):
        spans = ser._piece_spans(text)
    assert len(spans) == cpus
    assert text[spans[0][0]] == "[" and text[spans[-1][1]] == "]"
    assert all(text[end] == "," for _, end in spans[:-1])
    assert [start for start, _ in spans[1:]] == [end for _, end in spans[:-1]]
    elements = [e for span in spans for e in json.loads("[" + text[span[0] + 1:span[1]] + "]")]
    assert elements == json.loads(text)


@pytest.mark.parametrize(
    "min_chars, cpus", [(1 << 20, 4), (64, 1)], ids=["pieces-too-small", "one-cpu"])
def test_a_file_stays_whole_below_two_pieces(min_chars, cpus):
    text = proposal_text(200)
    with pieces(True, min_chars=min_chars, cpus=cpus):
        assert ser._piece_spans(text) == []


def test_a_file_stays_whole_without_fork():
    text = proposal_text(200)
    with pieces(True), mock.patch.object(ser.sys, "platform", "darwin"):
        assert ser._piece_spans(text) == []


@pytest.mark.parametrize(
    "text", ["[, " + proposal_text(40)[1:], proposal_text(40)[:-1] + ", ]",
             proposal_text(40)[:-1] + ",, " + proposal_text(40)[1:]],
    ids=["leading-comma", "trailing-comma", "double-comma"])
def test_a_misplaced_comma_exits_1_as_json_does(tmp_path, text):
    ann, path = tmp_path / "ann.json", tmp_path / "input.json"
    ann.write_text(json.dumps(COCO))
    path.write_text(text)
    argv = ["chips", "negative", "--proposals", str(path),
            "--annotations", str(ann), "--out", str(tmp_path / "out.json")]
    errors = []
    for split in (True, False):
        with pieces(split):
            rc, err = run(argv)
        assert rc == 1 and len(err.splitlines()) == 1
        errors.append(json.loads(err)["error"])
    assert errors[0] == errors[1]
    assert errors[0]["message"].startswith(f"malformed JSON in {path}: ")
    assert not (tmp_path / "out.json").exists()
    assert no_child_left()


def test_an_empty_piece_is_refused(tmp_path):
    # Each piece decodes, but the middle one holds no element: joined by
    # their commas, the pieces are not JSON.
    text = '[{"a": 1}, , {"a": 2}]'
    path = tmp_path / "x.json"
    path.write_text(text)
    spans = [(0, 9), (9, 11), (11, 21)]
    with pieces(True, min_chars=1), mock.patch.object(ser, "_piece_spans", lambda _: spans):
        assert ser.read_json_array(path, list) is None
    assert no_child_left()


@pytest.fixture
def proposals_file(tmp_path):
    path = tmp_path / "props.json"
    path.write_text(proposal_text(400))
    return path


def test_a_file_too_small_to_cut_is_left_to_the_caller(proposals_file, monkeypatch):
    opened = []
    monkeypatch.setattr(ser, "open", lambda *args, **kwargs: opened.append(args), raising=False)
    assert ser.read_json_array(proposals_file, _proposal_columns) is None
    assert opened == []


def test_a_split_read_leaves_no_child(proposals_file):
    with pieces(True, min_chars=len(proposals_file.read_text()) // 4):
        got = ser.read_json_array(proposals_file, _proposal_columns)
    assert len(got) == 4
    assert no_child_left()
    ids, boxes, scores = zip(*got)
    want_ids, want_boxes, want_scores = _proposal_columns(json.loads(proposals_file.read_text()))
    assert sum(ids, []) == want_ids
    assert np.concatenate(boxes).tobytes() == want_boxes.tobytes()
    assert np.concatenate(scores).tobytes() == want_scores.tobytes()


@pytest.mark.parametrize("where", ["first", "last"])
def test_a_column_error_in_any_piece_gives_none(proposals_file, where):
    entries = json.loads(proposals_file.read_text())
    entries[0 if where == "first" else -1]["score"] = 2.0
    proposals_file.write_text(json.dumps(entries))
    with pieces(True):
        assert ser.read_json_array(proposals_file, _proposal_columns) is None
    assert no_child_left()


def test_a_child_that_exits_1_gives_none(proposals_file):
    parent = os.getpid()

    def build(entries):
        if os.getpid() != parent:
            raise ValueError("fails in a child only")
        return _proposal_columns(entries)

    with pieces(True):
        assert ser.read_json_array(proposals_file, build) is None
    assert no_child_left()


def test_a_failed_fork_gives_none(proposals_file, monkeypatch):
    def fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", fork)
    with pieces(True):
        assert ser.read_json_array(proposals_file, _proposal_columns) is None
    assert no_child_left()


def test_a_fork_that_warns_keeps_its_child(proposals_file, monkeypatch):
    # From Python 3.12, os.fork in a process with threads warns in the
    # parent once the child exists; with warnings as errors, that must
    # neither lose the child nor fail the read.
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            warnings.warn("this process is multi-threaded", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    with pieces(True), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ser.read_json_array(proposals_file, _proposal_columns)
    assert got is not None and len(got) == 4
    assert no_child_left()


def test_children_are_killed_when_the_first_piece_fails(proposals_file):
    # The children would take a minute; the first piece fails at once, and
    # the call kills and reaps them rather than wait.
    parent = os.getpid()

    def build(entries):
        if os.getpid() != parent:
            time.sleep(60)
        raise ValueError("the first piece fails")

    start = time.monotonic()
    with pieces(True):
        assert ser.read_json_array(proposals_file, build) is None
    assert time.monotonic() - start < 30
    assert no_child_left()


def test_a_failed_split_names_the_error_as_one_process_does(proposals_file, tmp_path):
    ann = tmp_path / "ann.json"
    ann.write_text(json.dumps(COCO))
    entries = json.loads(proposals_file.read_text())
    entries[-3]["bbox"] = [1, 2, 3, float("nan")]
    proposals_file.write_text(json.dumps(entries))
    argv = ["chips", "negative", "--annotations", str(ann), "--proposals", str(proposals_file),
            "--out", str(tmp_path / "neg.json")]
    outcomes = []
    for split in (True, False):
        with pieces(split):
            outcomes.append(run(argv))
    assert outcomes[0] == outcomes[1]
    assert f"{proposals_file}: entry 397: bbox is not finite" in outcomes[0][1]
    assert no_child_left()
