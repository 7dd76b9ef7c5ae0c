"""Wire formats: chip JSON, detection JSON, dense map files, report writers.

Chip records serialize as::

    {"image_id": int, "scale_id": int, "rect": [x1, y1, x2, y2],
     "kind": "positive"|"negative"|"focus",
     "covered_gt_ids": [int, ...],
     "cropped_gt": [[gt_id, [x1, y1, x2, y2]], ...]}

Detections use COCO-results records {image_id, category_id, bbox, score}
with bbox in [x, y, w, h]. Focus maps have a dense binary layout: magic
``FMAP``, cell grid width/height, stride, image width/height (all uint32
little-endian), a 2-byte dtype tag (``i1`` labels / ``f4`` probabilities),
then the row-major payload. All writers go through a temp-file + atomic
rename, so a failed run never leaves partial output.

Large JSON-array inputs decode on every available CPU (see
:func:`read_json_array`).
"""
from __future__ import annotations

import gc
import json
import os
import pickle
import re
import signal
import struct
import sys
import warnings
from contextlib import contextmanager
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .chips import ChipBatch, UncoverableBoxes
from .focus_labels import FocusMap
from .geometry import DetectionBatch, ImageSize

MAP_MAGIC = b"FMAP"
_HEADER = struct.Struct("<4s5I2s")
DTYPE_LABELS = b"i1"
DTYPE_PROBS = b"f4"
# The cells of each dtype tag, as the file holds them.
_CELL_DTYPES = {DTYPE_LABELS: np.dtype("i1"), DTYPE_PROBS: np.dtype("<f4")}


class FormatError(Exception):
    pass


@contextmanager
def gc_paused():
    """Hold the cyclic garbage collector off, then restore the state found.

    Hold it while a decoded JSON tree is alive: the tree holds no reference
    cycles, and reference counting frees it, yet its containers would
    otherwise trigger repeated collections that traverse all of them. The
    collector stays off on exit when it was off on entry, so uses nest."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def json_int(value, name: str) -> int:
    """A JSON integer field: an int, or a float with an integral value.

    Anything else, a fraction, JSON ``true``/``false``, a string or a
    non-finite number, raises ``ValueError`` naming ``name``; ``int()``
    would truncate a fraction and read ``true`` as 1."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer: {value!r}")


def json_number(value, name: str) -> float:
    """A JSON number field as a float: an int or a float.

    Anything else, JSON ``true``/``false``, a string or ``null``, raises
    ``ValueError`` naming ``name``; ``float()`` would read ``"0.5"`` and
    ``true``."""
    if type(value) is float or type(value) is int:
        return float(value)
    raise ValueError(f"{name} must be a number: {value!r}")


# What reading a malformed JSON entry raises.
_ENTRY_ERRORS = (KeyError, TypeError, ValueError, OverflowError)
_NUMBER_TYPES = {int, float}


def json_ints(values: list, name: str) -> list[int]:
    """``values`` read by :func:`json_int`; a ``{}`` in ``name`` becomes the
    position of the value that an error names."""
    if set(map(type, values)) <= {int}:
        return values
    return [value if type(value) is int else json_int(value, name.format(k))
            for k, value in enumerate(values)]


def json_numbers(values: list, name: str) -> np.ndarray:
    """``values`` read by :func:`json_number`, in order, as a float64 array;
    a ``{}`` in ``name`` becomes the position of the value that an error
    names."""
    if set(map(type, values)) <= _NUMBER_TYPES:
        return np.array(values, dtype=np.float64)
    return np.array([json_number(value, name.format(k)) for k, value in enumerate(values)])


def _number_row(row, width: int, name: str) -> np.ndarray:
    if type(row) is not list or len(row) != width:
        raise ValueError(f"{name} must be {width} numbers: {row!r}")
    return json_numbers(row, name)


def json_number_rows(rows: list, width: int, name: str) -> np.ndarray:
    """``rows``, each a JSON array of ``width`` numbers, as an (n, width)
    float64 array, each row read by :func:`json_numbers`. A row that is not
    an array of ``width`` values raises ``ValueError``. Errors name the
    first bad row, and a ``{}`` in ``name`` becomes its position."""
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}:
        values = list(chain.from_iterable(rows))
        if set(map(type, values)) <= _NUMBER_TYPES:
            return np.array(values, dtype=np.float64).reshape(-1, width)
    return np.array([_number_row(row, width, name.format(k)) for k, row in enumerate(rows)])


def _parse_error(parse, entries: list) -> Exception | None:
    """What ``parse(entries)`` raises of :data:`_ENTRY_ERRORS`, or None."""
    try:
        parse(entries)
    except _ENTRY_ERRORS as exc:
        return exc
    return None


def read_entries(entries: list, parse, error):
    """``(parse(entries), None)``; or, when ``parse`` fails, the parse of the
    entries before the first bad one and ``error(position, entry, problem)``
    for that entry, ``problem`` being the text of its own failure.

    ``parse`` builds columns from a list of entries and checks each entry on
    its own, so a run of entries fails exactly when it holds a bad entry.
    The first bad entry is then found by halving, which costs about one more
    full parse."""
    try:
        return parse(entries), None
    except _ENTRY_ERRORS as exc:
        if not entries:
            raise
        failure, lo, hi = exc, 0, len(entries)
    # entries[:lo] parse; entries[lo:hi] holds a bad entry, and failure is
    # the error of parsing them, or None once that is not known.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        failure = _parse_error(parse, entries[lo:mid])
        lo, hi = (lo, mid) if failure else (mid, hi)
    failure = failure or _parse_error(parse, entries[lo:hi])
    problem = f"missing key {failure}" if isinstance(failure, KeyError) else str(failure)
    return parse(entries[:lo]), error(lo, entries[lo], problem)


def load_json(path: str | Path, error: type[Exception]):
    """The JSON value of the UTF-8 file at ``path``. Text that is not UTF-8
    or not JSON raises ``error`` naming the file; a file that cannot be read
    raises ``OSError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise error(f"malformed JSON in {path}: {exc}") from exc


# The fewest characters a piece of a split JSON array holds. Forking a child
# and its copy-on-write faults cost 20-30 ms, so two pieces of a file below
# about 4 MB decode slower than the whole file in one process.
MIN_PIECE_CHARS = 2 << 20
_JSON_SPACE = " \t\n\r"
# An array's opening bracket, and its first element's opening text up to
# the element's first colon.
_ARRAY_OPEN = re.compile(r"[ \t\n\r]*(\[)[ \t\n\r]*(\{[^:]*:)")


def _piece_count(chars: int) -> int:
    """How many pieces a JSON array of ``chars`` characters is cut into: one
    per CPU in the process's affinity set, each of at least
    :data:`MIN_PIECE_CHARS` characters; below 2 it stays whole, as it
    always does off Linux or without ``os.fork``."""
    if not (sys.platform.startswith("linux") and hasattr(os, "fork")):
        return 1
    return min(len(os.sched_getaffinity(0)), chars // MIN_PIECE_CHARS)


def _piece_spans(text: str) -> list[tuple[int, int]]:
    """Where ``text``, a JSON array of objects, is cut into pieces: per
    piece, the position of the ``[`` or ``,`` before its first element and
    of the ``,`` or ``]`` after its last. Empty when the text stays whole.

    There are :func:`_piece_count` pieces. Each cut is the first ``,`` at or
    after an even share of the text that is followed, after JSON whitespace,
    by the first element's opening text up to its first ``:``. A cut may
    still land inside a string or a nested value; :func:`_piece_columns`
    refuses such a piece."""
    pieces = _piece_count(len(text))
    first = _ARRAY_OPEN.match(text) if pieces > 1 else None
    if first is None:
        return []
    close = len(text)
    while text[close - 1] in _JSON_SPACE:
        close -= 1
    if text[close - 1] != "]":
        return []
    cut = re.compile(f",[{_JSON_SPACE}]*{re.escape(first[2])}")
    ends = []
    for k in range(1, pieces):
        at = cut.search(text, max(k * len(text) // pieces, ends[-1] + 1 if ends else 0))
        if at is None:
            break
        ends.append(at.start())
    starts = [first.start(1), *ends]
    return list(zip(starts, [*ends, close - 1])) if ends else []


def _piece_columns(text: str, span: tuple[int, int], build):
    """``build`` of the elements of one piece of ``text`` (see
    :func:`_piece_spans`), decoded with the collector held off. Raises
    ``ValueError`` unless the piece is a non-empty JSON array."""
    start, end = span
    with gc_paused():
        entries = json.loads("[" + text[start + 1:end] + "]")
        if not entries:
            raise ValueError("a piece of a split JSON array holds no element")
        return build(entries)


def _fork_piece(text: str, span: tuple[int, int], build) -> tuple[int, int]:
    """Fork a child that writes the pickled :func:`_piece_columns` of one
    piece to a pipe and exits 0, or exits 1 when they fail; the child's pid
    and the pipe's read end."""
    read, write = os.pipe()
    try:
        # From Python 3.12 a fork in a process with threads (numpy's BLAS
        # pool) warns in the parent after the child exists; were warnings
        # errors, the parent would lose the pid. The child runs no BLAS.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pickle.dump(_piece_columns(text, span, build), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def _split_columns(text: str, spans: list[tuple[int, int]], build) -> list:
    """The :func:`_piece_columns` of every piece, in order: the first
    decoded here, each other one in a forked child. Raises when a fork
    fails, a piece fails or a child does not exit 0. Every child is reaped
    before this returns or raises, and killed first when it raises before
    every pipe is read to its end."""
    children, payloads, codes = [], [], []
    try:
        for span in spans[1:]:
            children.append(_fork_piece(text, span, build))
        first = _piece_columns(text, spans[0], build)
        for _, read in children:
            with open(read, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        for pid, read in children:
            if len(payloads) < len(children):
                os.kill(pid, signal.SIGKILL)
            os.close(read)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    if any(codes):
        raise ChildProcessError("a child decoding a piece did not exit 0")
    return [first, *map(pickle.loads, payloads)]


def read_json_array(path: str | Path, build) -> list | None:
    """``build``'s columns of the elements of the JSON array in the UTF-8
    file at ``path``, one value per piece of the file in file order; or
    None, and then the caller reads the file on its own one-process path,
    which names any error as it always has.

    ``build`` takes a list of elements and checks every one, as the
    ``parse`` of :func:`read_entries` does; it must call no traced function
    and no BLAS, since it also runs in forked children. A file of at least
    two pieces (:func:`_piece_spans`) is decoded on as many CPUs: each piece
    after the first in a child that sends its pickled columns back through
    a pipe, while this process decodes the first.

    Correctness never rests on where the cuts land. When every piece
    decodes as a non-empty array, the pieces joined by their commas are the
    file, so their elements are the file's elements in order. Anything else
    gives None: a file too small to cut, one that cannot be read or is not
    UTF-8, a failed fork, a piece that is not a non-empty array, a
    ``build`` error in any piece, or a child that exits with any code but
    0."""
    try:
        # A file's size in bytes bounds its length in characters, so a file
        # too small to cut is left to the caller unread.
        if _piece_count(os.path.getsize(path)) < 2:
            return None
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        spans = _piece_spans(text)
        return _split_columns(text, spans, build) if spans else None
    except Exception:
        return None


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` to a new temporary file next to ``path``, then
    rename it over ``path``. The temporary file is created with mode 0o666,
    so the umask applies as it does to a plain ``open``."""
    path = Path(path)
    while True:
        tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# Records as ``json.dumps(indent=2, sort_keys=True)`` lays them out inside
# a list: a COCO-results detection, a chip with one of its cropped boxes,
# and an uncoverable box. ``%r`` of an int or a finite float is what json
# writes.
_DETECTION_RECORD = (
    '  {\n    "bbox": [\n      %r,\n      %r,\n      %r,\n      %r\n    ],\n'
    '    "category_id": %r,\n    "image_id": %r,\n    "score": %r\n  }'
)
_CHIP_RECORD = (
    '  {\n    "covered_gt_ids": %s,\n    "cropped_gt": %s,\n    "image_id": %r,\n'
    '    "kind": %s,\n    "rect": [\n      %r,\n      %r,\n      %r,\n      %r\n    ],\n'
    '    "scale_id": %r\n  }'
)
_CROPPED_BOX = (
    "[\n        %r,\n        [\n          %r,\n          %r,\n          %r,\n"
    "          %r\n        ]\n      ]"
)
_DIAGNOSTIC_RECORD = (
    '  {\n    "gt_id": %r,\n    "image_id": %r,\n    "resized_box": [\n      %r,\n'
    '      %r,\n      %r,\n      %r\n    ],\n    "scale_id": %r\n  }'
)


def _json_array(texts: list[str]) -> str:
    """The list of record ``texts`` as ``json.dumps(indent=2)`` lays it out."""
    return "[\n" + ",\n".join(texts) + "\n]" if texts else "[]"


def _csr_lists(items: Iterable[str], offsets: np.ndarray) -> list[str]:
    """Per CSR row of ``offsets``, its ``items`` as a JSON list that is the
    value of a record field."""
    items, offsets = list(items), offsets.tolist()
    return [
        "[\n      " + ",\n      ".join(items[a:b]) + "\n    ]" if a < b else "[]"
        for a, b in zip(offsets, offsets[1:])
    ]


def _chips_json(chips: ChipBatch) -> str:
    """``json.dumps`` of the batch's rows as chip records, ``indent=2`` and
    ``sort_keys=True``, formatted from the columns with :data:`_CHIP_RECORD`.
    Raises ``ValueError`` unless every rect and cropped box is finite."""
    if not (np.isfinite(chips.rects).all() and np.isfinite(chips.cropped_boxes).all()):
        raise ValueError("a chip rect or cropped box is not finite")
    covered = _csr_lists(map(repr, chips.covered_ids.tolist()), chips.covered_offsets)
    crops = zip(chips.cropped_ids.tolist(), *chips.cropped_boxes.T.tolist())
    cropped = _csr_lists(map(_CROPPED_BOX.__mod__, crops), chips.cropped_offsets)
    return _json_array(list(map(
        _CHIP_RECORD.__mod__,
        zip(covered, cropped, chips.image_ids.tolist(), repeat(json.dumps(chips.kind)),
            *chips.rects.T.tolist(), chips.scale_ids.tolist()),
    )))


def _nested(text: str) -> str:
    """``json.dumps(indent=2)`` output re-indented as a value one level down."""
    return text.replace("\n", "\n  ")


def coco_bboxes(corners: np.ndarray) -> np.ndarray:
    """The COCO [x, y, w, h] rows of (n, 4) corner rows x1, y1, x2, y2."""
    return np.concatenate([corners[:, :2], corners[:, 2:] - corners[:, :2]], axis=1)


def save_detection_records(
    path: str | Path, per_image: Iterable[tuple[int, DetectionBatch]]
) -> None:
    """Write each image's detections, images in the given order, as the
    COCO-results records {image_id, category_id, bbox [x, y, w, h], score}:
    ``json.dumps(records, indent=2, sort_keys=True)`` plus a newline,
    formatted from the columns with :data:`_DETECTION_RECORD`. Raises
    ``ValueError`` unless every bbox value and score is finite."""
    texts = []
    for image_id, dets in per_image:
        xywh = coco_bboxes(dets.boxes)
        if not (np.isfinite(xywh).all() and np.isfinite(dets.scores).all()):
            raise ValueError(f"image {image_id}: a detection bbox or score is not finite")
        x, y, w, h = xywh.T.tolist()
        texts += map(
            _DETECTION_RECORD.__mod__,
            zip(x, y, w, h, dets.class_ids.tolist(), repeat(image_id), dets.scores.tolist()),
        )
    atomic_write_text(path, _json_array(texts) + "\n")


def save_chip_records(path: str | Path, chips: ChipBatch) -> None:
    """Write the chip records of the batch's rows, {image_id, scale_id, rect,
    kind, covered_gt_ids, cropped_gt}, as ``json.dumps(records, indent=2,
    sort_keys=True)`` plus a newline. Raises ``ValueError`` unless every
    rect and cropped box is finite."""
    atomic_write_text(path, _chips_json(chips) + "\n")


def save_negative_chip_records(path: str | Path, pool: ChipBatch, sampled: ChipBatch) -> None:
    """Write ``json.dumps({"pool": pool, "sampled": sampled}, indent=2,
    sort_keys=True)`` plus a newline, each batch as its chip records (see
    :func:`save_chip_records`)."""
    atomic_write_text(
        path,
        '{\n  "pool": %s,\n  "sampled": %s\n}\n'
        % (_nested(_chips_json(pool)), _nested(_chips_json(sampled))),
    )


def save_uncoverable_records(path: str | Path, uncoverable: UncoverableBoxes) -> None:
    """Write the ``--diagnostics`` records {gt_id, image_id, resized_box,
    scale_id} of the rows as ``json.dumps(records, indent=2,
    sort_keys=True)`` plus a newline, formatted from the columns with
    :data:`_DIAGNOSTIC_RECORD`. Raises ``ValueError`` unless every box is
    finite."""
    boxes = uncoverable.resized_boxes
    if not np.isfinite(boxes).all():
        raise ValueError("an uncoverable box is not finite")
    texts = map(
        _DIAGNOSTIC_RECORD.__mod__,
        zip(uncoverable.gt_ids.tolist(), uncoverable.image_ids.tolist(), *boxes.T.tolist(),
            uncoverable.scale_ids.tolist()),
    )
    atomic_write_text(path, _json_array(list(texts)) + "\n")


def _dtype_tag(m: FocusMap) -> bytes:
    """The ``.fmap`` dtype tag of a map: ``f4`` for float cells, ``i1`` for
    label cells."""
    return DTYPE_PROBS if m.cells.dtype.kind == "f" else DTYPE_LABELS


def write_map_binary(path: str | Path, m: FocusMap) -> None:
    dtype_tag = _dtype_tag(m)
    header = _HEADER.pack(
        MAP_MAGIC,
        m.cells.shape[1],
        m.cells.shape[0],
        m.stride,
        m.image.width,
        m.image.height,
        dtype_tag,
    )
    cells = np.ascontiguousarray(m.cells, dtype=_CELL_DTYPES[dtype_tag])
    atomic_write_bytes(path, header + cells.tobytes())


def read_map_binary(path: str | Path) -> FocusMap:
    """The map of a ``.fmap`` file, its cells the file's own int8 or
    float32 values, read in place from the file's bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated map file")
    magic, w_cells, h_cells, stride, img_w, img_h, dtype_tag = _HEADER.unpack_from(raw)
    if magic != MAP_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if stride == 0:
        raise FormatError(f"{path}: stride must be positive")
    dtype = _CELL_DTYPES.get(dtype_tag)
    if dtype is None:
        raise FormatError(f"{path}: unknown dtype tag {dtype_tag!r}")
    count, payload = w_cells * h_cells, len(raw) - _HEADER.size
    if payload != count * dtype.itemsize:
        raise FormatError(
            f"{path}: payload holds {payload} bytes, header says "
            f"{w_cells}x{h_cells} cells of {dtype.itemsize} bytes"
        )
    grid = np.frombuffer(raw, dtype, count, _HEADER.size).reshape(h_cells, w_cells)
    try:
        return FocusMap(cells=grid, stride=stride, image=ImageSize(img_w, img_h))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def map_to_debug_json(m: FocusMap) -> dict:
    return {
        "dtype": "probabilities" if _dtype_tag(m) == DTYPE_PROBS else "labels",
        "width_cells": int(m.cells.shape[1]),
        "height_cells": int(m.cells.shape[0]),
        "stride": m.stride,
        "image": {"width": m.image.width, "height": m.image.height},
        "cells": m.cells.tolist(),
    }


def write_curve(path: str | Path, comment: str, points: Iterable[tuple[float, float]]) -> None:
    """Two-column curve file loadable by gnuplot's ``plot "file"``."""
    lines = [f"# {comment}"]
    for x, y in points:
        lines.append(f"{x} {y}")
    atomic_write_text(path, "\n".join(lines) + "\n")
