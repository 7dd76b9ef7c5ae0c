"""Wire formats: chip JSON, detection JSON, dense map files, report writers.

Chip records serialize as::

    {"image_id": int, "scale_id": int, "rect": [x1, y1, x2, y2],
     "kind": "positive"|"negative"|"focus",
     "covered_gt_ids": [int, ...],
     "cropped_gt": [[gt_id, [x1, y1, x2, y2]], ...]}

Detections use COCO-results records {image_id, category_id, bbox, score}
with bbox in [x, y, w, h]. Label and probability maps have a dense binary
layout: magic ``FMAP``, cell grid width/height, stride, image width/height
(all uint32 little-endian), a 2-byte dtype tag (``i1`` labels / ``f4``
probabilities), then the row-major payload. All writers go through a
temp-file + atomic rename, so a failed run never leaves partial output.
"""
from __future__ import annotations

import json
import os
import struct
import tempfile
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .chips import Chip
from .focus_labels import LabelMap, ProbabilityMap
from .geometry import BoundingBox, DetectionBatch, ImageSize

MAP_MAGIC = b"FMAP"
_HEADER = struct.Struct("<4s5I2s")
DTYPE_LABELS = b"i1"
DTYPE_PROBS = b"f4"


class FormatError(Exception):
    pass


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


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
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


def _box_list(b: BoundingBox) -> list[float]:
    return [b.x1, b.y1, b.x2, b.y2]


def chip_to_record(chip: Chip, image_id: int) -> dict:
    return {
        "image_id": image_id,
        "scale_id": chip.scale_id,
        "rect": _box_list(chip.rect),
        "kind": chip.kind,
        "covered_gt_ids": list(chip.covered_gt_ids),
        "cropped_gt": [[gt_id, _box_list(box)] for gt_id, box in chip.cropped_gt],
    }


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
_CHIP_KEYS = {"covered_gt_ids", "cropped_gt", "image_id", "kind", "rect", "scale_id"}
_DIAGNOSTIC_KEYS = {"gt_id", "image_id", "resized_box", "scale_id"}
_LISTS = (list, tuple)


def _chip_text(record, numbers: list, strings: dict) -> str:
    """One chip record from :data:`_CHIP_RECORD`, its ``kind`` encoded once
    per value in ``strings``. Its numbers are added to ``numbers`` for the
    caller to check; raises ``TypeError`` or ``ValueError`` where the record
    does not fit."""
    if type(record) is not dict or record.keys() != _CHIP_KEYS:
        raise TypeError("not a chip record")
    rect, ids, cropped = record["rect"], record["covered_gt_ids"], record["cropped_gt"]
    kind = record["kind"]
    if not (type(rect) in _LISTS and type(ids) in _LISTS and type(cropped) in _LISTS
            and type(kind) is str):
        raise TypeError("not a chip record")
    numbers += rect
    numbers += ids
    numbers += (record["image_id"], record["scale_id"])
    covered = "[\n      " + ",\n      ".join(map(repr, ids)) + "\n    ]" if ids else "[]"
    crops = "[]"
    if cropped:
        texts = []
        for gt_id, box in cropped:
            if type(box) not in _LISTS:
                raise TypeError("not a cropped box")
            numbers.append(gt_id)
            numbers += box
            texts.append(_CROPPED_BOX % (gt_id, *box))
        crops = "[\n      " + ",\n      ".join(texts) + "\n    ]"
    text = strings.get(kind)
    if text is None:
        text = strings[kind] = json.dumps(kind)
    return _CHIP_RECORD % (
        covered, crops, record["image_id"], text, *rect, record["scale_id"]
    )


def _diagnostic_text(record, numbers: list, strings: dict) -> str:
    """One uncoverable-box record from :data:`_DIAGNOSTIC_RECORD`; see
    :func:`_chip_text`."""
    if type(record) is not dict or record.keys() != _DIAGNOSTIC_KEYS:
        raise TypeError("not a diagnostic record")
    box = record["resized_box"]
    if type(box) not in _LISTS:
        raise TypeError("not a diagnostic record")
    values = (record["gt_id"], record["image_id"], *box, record["scale_id"])
    numbers += values
    return _DIAGNOSTIC_RECORD % values


def _record_texts(records: list, text_of):
    """The records formatted by ``text_of``, one at a time; raises
    ``TypeError`` at the end unless every number was a plain int or float."""
    numbers: list = []
    strings: dict = {}
    for record in records:
        yield text_of(record, numbers, strings)
    if not set(map(type, numbers)) <= {int, float}:
        raise TypeError("not a plain number")


def _records_json(records: list, text_of) -> str:
    """``json.dumps(records, indent=2, sort_keys=True)``, formatted record by
    record with ``text_of`` where every record fits its template and every
    number is a plain finite int or float, which is several times faster;
    through ``json`` otherwise."""
    if not records:
        return "[]"
    try:
        # One expression, so that no part of the text outlives its use.
        text = "[\n" + ",\n".join(_record_texts(records, text_of)) + "\n]"
        if "inf" not in text and "nan" not in text:
            return text
    except (KeyError, TypeError, ValueError):
        pass
    return json.dumps(records, indent=2, sort_keys=True)


def _nested(text: str) -> str:
    """``json.dumps(indent=2)`` output re-indented as a value one level down."""
    return text.replace("\n", "\n  ")


def coco_xywh(corners: np.ndarray) -> np.ndarray:
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
        xywh = coco_xywh(dets.boxes)
        if not (np.isfinite(xywh).all() and np.isfinite(dets.scores).all()):
            raise ValueError(f"image {image_id}: a detection bbox or score is not finite")
        x, y, w, h = xywh.T.tolist()
        texts += map(
            _DETECTION_RECORD.__mod__,
            zip(x, y, w, h, dets.class_ids.tolist(), repeat(image_id), dets.scores.tolist()),
        )
    atomic_write_text(path, ("[\n" + ",\n".join(texts) + "\n]" if texts else "[]") + "\n")


def save_chip_records(path: str | Path, records: Sequence[dict]) -> None:
    """Write ``json.dumps(records, indent=2, sort_keys=True)`` plus a newline,
    from a template for plain chip records (see :func:`_records_json`)."""
    atomic_write_text(path, _records_json(list(records), _chip_text) + "\n")


def save_negative_chip_records(
    path: str | Path, pool: Sequence[dict], sampled: Sequence[dict]
) -> None:
    """Write ``json.dumps({"pool": pool, "sampled": sampled}, indent=2,
    sort_keys=True)`` plus a newline, from the chip-record template."""
    atomic_write_text(
        path,
        '{\n  "pool": %s,\n  "sampled": %s\n}\n'
        % (
            _nested(_records_json(list(pool), _chip_text)),
            _nested(_records_json(list(sampled), _chip_text)),
        ),
    )


def save_uncoverable_records(path: str | Path, records: Sequence[dict]) -> None:
    """Write the ``--diagnostics`` records {gt_id, image_id, resized_box,
    scale_id} as ``json.dumps(records, indent=2, sort_keys=True)`` plus a
    newline, from a template."""
    atomic_write_text(path, _records_json(list(records), _diagnostic_text) + "\n")


def write_map_binary(path: str | Path, m: LabelMap | ProbabilityMap) -> None:
    if isinstance(m, LabelMap):
        dtype_tag, dtype = DTYPE_LABELS, np.int8
    else:
        dtype_tag, dtype = DTYPE_PROBS, np.float32
    header = _HEADER.pack(
        MAP_MAGIC,
        m.cells.shape[1],
        m.cells.shape[0],
        m.stride,
        m.image.width,
        m.image.height,
        dtype_tag,
    )
    atomic_write_bytes(path, header + np.ascontiguousarray(m.cells, dtype=dtype).tobytes())


def read_map_binary(path: str | Path) -> LabelMap | ProbabilityMap:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated map file")
    magic, w_cells, h_cells, stride, img_w, img_h, dtype_tag = _HEADER.unpack_from(raw)
    if magic != MAP_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if stride == 0:
        raise FormatError(f"{path}: stride must be positive")
    payload = raw[_HEADER.size :]
    dtype = {DTYPE_LABELS: np.dtype(np.int8), DTYPE_PROBS: np.dtype(np.float32)}.get(dtype_tag)
    if dtype is None:
        raise FormatError(f"{path}: unknown dtype tag {dtype_tag!r}")
    if len(payload) != w_cells * h_cells * dtype.itemsize:
        raise FormatError(
            f"{path}: payload holds {len(payload)} bytes, header says "
            f"{w_cells}x{h_cells} cells of {dtype.itemsize} bytes"
        )
    grid = np.frombuffer(payload, dtype=dtype).reshape(h_cells, w_cells)
    try:
        image = ImageSize(img_w, img_h)
        if dtype_tag == DTYPE_LABELS:
            return LabelMap(cells=grid.astype(np.int8), stride=stride, image=image)
        return ProbabilityMap(cells=grid.astype(np.float64), stride=stride, image=image)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def map_to_debug_json(m: LabelMap | ProbabilityMap) -> dict:
    return {
        "dtype": "labels" if isinstance(m, LabelMap) else "probabilities",
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
