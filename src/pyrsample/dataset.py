"""COCO-format annotation ingestion and related file plumbing.

Annotations load into an in-memory index keyed by image id. Boxes arrive as
[x, y, w, h] and are converted to corner form; anything extending past its
image is clamped with a warning count rather than rejected, since real
crowd-sourced annotations routinely overshoot by a pixel or two.
"""
from __future__ import annotations

import json
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path

import numpy as np

from .chips import ProposalSet
from .geometry import BoundingBox, GroundTruthInstance, ImageSize

CLAMP_TOL = 1e-9


class DatasetError(Exception):
    """Base for ingestion failures."""


class DatasetParseError(DatasetError):
    """File could not be read or decoded."""


class DatasetStructureError(DatasetError):
    """File decoded but violates the expected schema."""


@dataclass
class ImageRecord:
    size: ImageSize
    file_stem: str


@dataclass
class DatasetIndex:
    """Everything the pipeline needs about a dataset, keyed by image id."""

    images: dict[int, ImageRecord]
    annotations: dict[int, list[GroundTruthInstance]]
    proposals: dict[int, ProposalSet] = field(default_factory=dict)
    categories: dict[int, str] = field(default_factory=dict)
    clamp_warnings: int = 0

    @property
    def image_ids(self) -> list[int]:
        return sorted(self.images)

    def sizes(self) -> dict[int, ImageSize]:
        return {iid: rec.size for iid, rec in self.images.items()}


def _read_json(path: str | Path) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DatasetParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetParseError(f"malformed JSON in {path}: {exc}") from exc


def _xywh(entry: dict) -> tuple[float, float, float, float]:
    """An entry's ``bbox`` as four finite floats with non-negative extent."""
    x, y, w, h = map(float, entry["bbox"])
    if not (isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h)):
        raise ValueError(f"bbox is not finite: {[x, y, w, h]}")
    if w < 0 or h < 0:
        raise ValueError(f"negative bbox extent: {[x, y, w, h]}")
    return x, y, w, h


def _section(data: dict, key: str, path: str | Path) -> list:
    """The list under ``key`` of a COCO annotation file (empty when absent)."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise DatasetStructureError(f"{path}: {key!r} must be a JSON array")
    return entries


def _entry_error(
    path: str | Path, position: int, entry: object, exc: Exception
) -> DatasetStructureError:
    """Error naming an annotation by its id, or a results entry by position."""
    if isinstance(entry, dict) and "id" in entry:
        name = f"annotation id {entry['id']!r}"
    else:
        name = f"entry {position}"
    problem = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return DatasetStructureError(f"{path}: {name}: {problem}")


def _clamped_box(
    x: float, y: float, w: float, h: float, size: ImageSize
) -> tuple[BoundingBox, bool]:
    x1, y1, x2, y2 = x, y, x + w, y + h
    cx1 = min(max(x1, 0.0), size.width)
    cy1 = min(max(y1, 0.0), size.height)
    cx2 = min(max(x2, 0.0), size.width)
    cy2 = min(max(y2, 0.0), size.height)
    clamped = (
        abs(cx1 - x1) > CLAMP_TOL
        or abs(cy1 - y1) > CLAMP_TOL
        or abs(cx2 - x2) > CLAMP_TOL
        or abs(cy2 - y2) > CLAMP_TOL
    )
    return BoundingBox(cx1, cy1, cx2, cy2), clamped


def load_dataset(
    annotation_path: str | Path,
    proposals_path: str | Path | None = None,
) -> DatasetIndex:
    """Build a DatasetIndex from a COCO-format annotation file and,
    optionally, a COCO-results proposal file.

    Raises DatasetParseError on unreadable or malformed JSON and
    DatasetStructureError when annotations or proposals reference image ids
    that do not exist, lack a required key, or have a negative or
    non-finite bbox.
    """
    data = _read_json(annotation_path)
    if not isinstance(data, dict) or "images" not in data:
        raise DatasetStructureError(f"{annotation_path}: not a COCO annotation file")

    images: dict[int, ImageRecord] = {}
    for entry in _section(data, "images", annotation_path):
        try:
            image_id = int(entry["id"])
            size = ImageSize(int(entry["width"]), int(entry["height"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DatasetStructureError(
                f"{annotation_path}: bad image entry {entry!r}: {exc}"
            ) from exc
        stem = Path(str(entry.get("file_name", image_id))).stem
        images[image_id] = ImageRecord(size=size, file_stem=stem)

    categories: dict[int, str] = {}
    for cat in _section(data, "categories", annotation_path):
        try:
            category_id = int(cat["id"])
            categories[category_id] = str(cat.get("name", cat["id"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DatasetStructureError(
                f"{annotation_path}: bad category entry {cat!r}: {exc}"
            ) from exc

    annotations: dict[int, list[GroundTruthInstance]] = {iid: [] for iid in images}
    clamped_count = 0
    dangling: list[int] = []
    for position, ann in enumerate(_section(data, "annotations", annotation_path)):
        try:
            image_id = int(ann["image_id"])
            x, y, w, h = _xywh(ann)
            class_id = int(ann["category_id"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _entry_error(annotation_path, position, ann, exc) from exc
        if image_id not in images:
            dangling.append(image_id)
            continue
        box, clamped = _clamped_box(x, y, w, h, images[image_id].size)
        if clamped:
            clamped_count += 1
        annotations[image_id].append(
            GroundTruthInstance(box=box, class_id=class_id, is_crowd=bool(ann.get("iscrowd", 0)))
        )
    if dangling:
        raise DatasetStructureError(
            f"{annotation_path}: annotations reference missing image ids "
            f"{sorted(set(dangling))[:20]}"
        )

    index = DatasetIndex(
        images=images,
        annotations=annotations,
        categories=categories,
        clamp_warnings=clamped_count,
    )
    if proposals_path is not None:
        index.proposals = load_proposals(proposals_path, index)
    return index


def load_proposals(path: str | Path, index: DatasetIndex) -> dict[int, ProposalSet]:
    """COCO-results-format proposals ([{image_id, bbox, score}, ...]).

    Each image's proposals keep their file order and are clamped to the
    image. A missing score counts as 1.0; a score outside [0, 1] is an error.
    """
    data = _read_json(path)
    if not isinstance(data, list):
        raise DatasetStructureError(f"{path}: results file must be a JSON array")
    rows_of: dict[int, list[int]] = {}
    bboxes = []
    scores = []
    for position, entry in enumerate(data):
        try:
            rows_of.setdefault(int(entry["image_id"]), []).append(position)
            bboxes.append(entry["bbox"])
            scores.append(float(entry.get("score", 1.0)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _entry_error(path, position, entry, exc) from exc
    if not data:
        return {}
    xywh = _bbox_array(path, data, bboxes)
    scores = np.array(scores, dtype=np.float64)
    problems = (
        (~np.isfinite(xywh).all(axis=1), "bbox is not finite", xywh),
        ((xywh[:, 2] < 0) | (xywh[:, 3] < 0), "negative bbox extent", xywh),
        (~((0.0 <= scores) & (scores <= 1.0)), "score not in [0, 1]", scores),
    )
    for bad, message, values in problems:
        if bad.any():
            k = int(bad.argmax())
            raise _entry_error(path, k, data[k], ValueError(f"{message}: {values[k].tolist()}"))
    dangling = [iid for iid in rows_of if iid not in index.images]
    if dangling:
        raise DatasetStructureError(
            f"{path}: proposals reference missing image ids {sorted(dangling)[:20]}"
        )
    # x + w may overflow to inf for finite inputs; the clamp brings it back.
    with np.errstate(over="ignore"):
        corners = np.concatenate([xywh[:, :2], xywh[:, :2] + xywh[:, 2:]], axis=1)
    out = {}
    for iid, rows in rows_of.items():
        size = index.images[iid].size
        limits = (size.width, size.height, size.width, size.height)
        boxes = np.minimum(np.maximum(corners[rows], 0.0), limits)
        out[iid] = ProposalSet(boxes=boxes, scores=scores[rows])
    return out


def _bbox_array(path: str | Path, data: list, bboxes: list) -> np.ndarray:
    """Every results entry's ``bbox`` as an (n, 4) float64 array; when one is
    not four numbers, the error names the first such entry."""
    try:
        xywh = np.array(bboxes, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        xywh = None
    if xywh is not None and xywh.shape == (len(bboxes), 4):
        return xywh
    rows = []
    for position, entry in enumerate(data):
        try:
            rows.append(_xywh(entry))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _entry_error(path, position, entry, exc) from exc
    return np.array(rows, dtype=np.float64)


def voc_to_coco(voc_dir: str | Path) -> dict:
    """Convert a directory of PASCAL-VOC XML annotations to a COCO-format dict.

    VOC stores 1-based inclusive pixel corners; these become 0-based
    [x, y, w, h] records. Image ids are assigned in sorted filename order.
    """
    voc_dir = Path(voc_dir)
    xml_files = sorted(voc_dir.glob("*.xml"))
    if not xml_files:
        raise DatasetStructureError(f"no VOC XML files found in {voc_dir}")
    images = []
    annotations = []
    class_names: dict[str, int] = {}
    ann_id = 1
    for image_id, xml_path in enumerate(xml_files, start=1):
        try:
            root = ET.parse(xml_path).getroot()
        except ET.ParseError as exc:
            raise DatasetParseError(f"malformed XML in {xml_path}: {exc}") from exc
        size = root.find("size")
        if size is None:
            raise DatasetStructureError(f"{xml_path}: missing <size>")
        width = int(size.findtext("width", "0"))
        height = int(size.findtext("height", "0"))
        filename = root.findtext("filename", xml_path.stem)
        images.append(
            {"id": image_id, "width": width, "height": height, "file_name": filename}
        )
        for obj in root.findall("object"):
            name = obj.findtext("name", "unknown")
            if name not in class_names:
                class_names[name] = len(class_names) + 1
            bnd = obj.find("bndbox")
            if bnd is None:
                continue
            xmin = float(bnd.findtext("xmin", "0")) - 1.0
            ymin = float(bnd.findtext("ymin", "0")) - 1.0
            xmax = float(bnd.findtext("xmax", "0"))
            ymax = float(bnd.findtext("ymax", "0"))
            annotations.append(
                {
                    "id": ann_id,
                    "image_id": image_id,
                    "category_id": class_names[name],
                    "bbox": [xmin, ymin, xmax - xmin, ymax - ymin],
                    "area": (xmax - xmin) * (ymax - ymin),
                    "iscrowd": 0,
                }
            )
            ann_id += 1
    categories = [
        {"id": cid, "name": name} for name, cid in sorted(class_names.items(), key=lambda t: t[1])
    ]
    return {"images": images, "annotations": annotations, "categories": categories}
