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
from typing import Iterable

import numpy as np

from .chips import ChipBatch, UncoverableBoxes
from .focus_labels import LabelMap, ProbabilityMap
from .geometry import DetectionBatch, ImageSize

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


def json_number(value, name: str) -> float:
    """A JSON number field as a float: an int or a float.

    Anything else, JSON ``true``/``false``, a string or ``null``, raises
    ``ValueError`` naming ``name``; ``float()`` would read ``"0.5"`` and
    ``true``."""
    if type(value) is float or type(value) is int:
        return float(value)
    raise ValueError(f"{name} must be a number: {value!r}")


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
