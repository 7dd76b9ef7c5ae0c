"""COCO-format annotation ingestion and related file plumbing.

Annotations load into an in-memory index keyed by image id. Boxes arrive as
[x, y, w, h] and are converted to corner form; anything extending past its
image is clamped with a warning count rather than rejected, since real
crowd-sourced annotations routinely overshoot by a pixel or two.
"""
from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path

import numpy as np

from .chips import ProposalSet
from .geometry import GroundTruthSet, ImageSize
from .serialization import json_int, json_number

CLAMP_TOL = 1e-9
# The largest image width or height: a ``.fmap`` header stores the canvas
# size as uint32.
MAX_IMAGE_SIDE = 2**32 - 1
# The largest image id and category id: both are int64 columns.
MAX_ID = 2**63 - 1


class DatasetError(Exception):
    """Base for ingestion failures."""


class DatasetParseError(DatasetError):
    """File could not be read or decoded."""


class DatasetStructureError(DatasetError):
    """File decoded but violates the expected schema."""


@dataclass
class ImageRecord:
    size: ImageSize


@dataclass
class DatasetIndex:
    """Everything the pipeline needs about a dataset, keyed by image id."""

    images: dict[int, ImageRecord]
    annotations: dict[int, GroundTruthSet]
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


def _ints(values, name: str) -> list[int]:
    """Each of ``values`` read by ``json_int``; a plain int is taken as it is."""
    return [value if type(value) is int else json_int(value, name) for value in values]


def _crowd_flag(value) -> bool:
    """An annotation's ``iscrowd``: 0 or 1 (an integer field, so 1.0 is 1),
    or ``false`` or ``true``. Anything else raises ``ValueError``; ``bool()``
    would read the text ``"0"`` as crowd."""
    if type(value) in (bool, int, float) and value in (0, 1):
        return bool(value)
    raise ValueError(f"iscrowd must be 0, 1, false or true: {value!r}")


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


def _annotation_rows(path: str | Path, entries: list) -> np.ndarray:
    """Every annotation's ``bbox`` as an (n, 4) float64 array; raises the
    error of the first annotation whose image id, bbox, category id or
    crowd flag is bad, checked in that order."""
    rows = []
    for position, entry in enumerate(entries):
        try:
            json_int(entry["image_id"], "image_id")
            rows.append(_xywh(entry))
            class_id = json_int(entry["category_id"], "category_id")
            if not 0 <= class_id <= MAX_ID:
                raise ValueError(f"category_id must be in [0, {MAX_ID}]: {class_id}")
            _crowd_flag(entry.get("iscrowd", 0))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _entry_error(path, position, entry, exc) from exc
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def _annotation_sets(
    path: str | Path, entries: list, images: dict[int, ImageRecord]
) -> tuple[dict[int, GroundTruthSet], int]:
    """Per image, in ``images`` order, its annotations in file order as a
    :class:`GroundTruthSet` with boxes clamped to the image, and the number
    of boxes that clamping moved by more than ``CLAMP_TOL``."""
    try:
        image_ids = _ints((ann["image_id"] for ann in entries), "image_id")
        class_ids = np.array(_ints((ann["category_id"] for ann in entries), "category_id"),
                             dtype=np.int64)
        crowd = np.array([_crowd_flag(ann.get("iscrowd", 0)) for ann in entries], dtype=bool)
        xywh = np.array([ann["bbox"] for ann in entries], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError):
        xywh = None
    if (
        xywh is None
        or xywh.shape != (len(entries), 4)
        or not np.isfinite(xywh).all()
        or (xywh[:, 2:] < 0).any()
        or (class_ids < 0).any()
    ):
        # Raises for the first bad entry, which exists whenever the columns
        # above could not all be built; otherwise each bbox is four numbers
        # that only float() reads (such as the string "1234").
        xywh = _annotation_rows(path, entries)
    code = {iid: k for k, iid in enumerate(images)}
    try:
        owners = np.fromiter(map(code.__getitem__, image_ids), dtype=np.intp, count=len(image_ids))
    except KeyError:
        missing = sorted({iid for iid in image_ids if iid not in code})
        raise DatasetStructureError(
            f"{path}: annotations reference missing image ids {missing[:20]}"
        ) from None
    sizes = [rec.size for rec in images.values()]
    limits = np.array([(s.width, s.height) * 2 for s in sizes], dtype=np.float64).reshape(-1, 4)
    limits = limits[owners]
    # Corners, then the clamp of Python's max(v, 0.0) and min(v, limit),
    # which keep v on ties, so -0.0 stays -0.0. x + w may overflow to inf
    # for finite inputs, and the clamp brings it back.
    with np.errstate(over="ignore"):
        corners = np.concatenate([xywh[:, :2], xywh[:, :2] + xywh[:, 2:]], axis=1)
    boxes = np.where(0.0 > corners, 0.0, corners)
    boxes = np.where(limits < boxes, limits, boxes)
    clamped = int((np.abs(boxes - corners) > CLAMP_TOL).any(axis=1).sum())
    order = np.argsort(owners, kind="stable")
    boxes, class_ids, crowd = boxes[order], class_ids[order], crowd[order]
    ends = np.cumsum(np.bincount(owners, minlength=len(images))).tolist()
    return {
        iid: GroundTruthSet(boxes[lo:hi], class_ids[lo:hi], crowd[lo:hi])
        for iid, lo, hi in zip(images, [0, *ends], ends)
    }, clamped


def load_dataset(
    annotation_path: str | Path,
    proposals_path: str | Path | None = None,
) -> DatasetIndex:
    """Build a DatasetIndex from a COCO-format annotation file and,
    optionally, a COCO-results proposal file.

    Raises DatasetParseError on unreadable or malformed JSON and
    DatasetStructureError when an integer field is not one (``json_int``),
    an image id repeats or is outside int64, an image is wider or taller
    than ``MAX_IMAGE_SIDE``, or annotations or proposals reference image
    ids that do not exist, lack a required key, have a negative or
    non-finite bbox, or (annotations) a category id outside [0, 2^63 - 1] or
    an ``iscrowd`` other than 0, 1, ``false`` or ``true``, or (proposals) a
    score that is not a JSON number (``json_number``).
    """
    data = _read_json(annotation_path)
    if not isinstance(data, dict) or "images" not in data:
        raise DatasetStructureError(f"{annotation_path}: not a COCO annotation file")

    images: dict[int, ImageRecord] = {}
    for entry in _section(data, "images", annotation_path):
        try:
            image_id = json_int(entry["id"], "id")
            if not -MAX_ID - 1 <= image_id <= MAX_ID:
                raise ValueError(f"id must be in [{-MAX_ID - 1}, {MAX_ID}]: {image_id}")
            size = ImageSize(json_int(entry["width"], "width"), json_int(entry["height"], "height"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DatasetStructureError(
                f"{annotation_path}: bad image entry {entry!r}: {exc}"
            ) from exc
        if image_id in images:
            raise DatasetStructureError(f"{annotation_path}: duplicate image id {image_id}")
        if max(size.width, size.height) > MAX_IMAGE_SIDE:
            raise DatasetStructureError(
                f"{annotation_path}: image id {image_id}: width and height must be at most "
                f"{MAX_IMAGE_SIDE}"
            )
        images[image_id] = ImageRecord(size=size)

    categories: dict[int, str] = {}
    for cat in _section(data, "categories", annotation_path):
        try:
            category_id = json_int(cat["id"], "id")
            categories[category_id] = str(cat.get("name", cat["id"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DatasetStructureError(
                f"{annotation_path}: bad category entry {cat!r}: {exc}"
            ) from exc

    annotations, clamped = _annotation_sets(
        annotation_path, _section(data, "annotations", annotation_path), images
    )
    index = DatasetIndex(
        images=images,
        annotations=annotations,
        categories=categories,
        clamp_warnings=clamped,
    )
    if proposals_path is not None:
        index.proposals = load_proposals(proposals_path, index)
    return index


def load_proposals(path: str | Path, index: DatasetIndex) -> dict[int, ProposalSet]:
    """COCO-results-format proposals ([{image_id, bbox, score}, ...]).

    Each image's proposals keep their file order and are clamped to the
    image; images come in order of their first proposal. A missing score
    counts as 1.0; a score outside [0, 1] is an error.
    """
    data = _read_json(path)
    if not isinstance(data, list):
        raise DatasetStructureError(f"{path}: results file must be a JSON array")
    if not data:
        return {}
    try:
        image_ids = _ints((entry["image_id"] for entry in data), "image_id")
        bboxes = [entry["bbox"] for entry in data]
        scores = np.array(
            [score if type(score) is float else json_number(score, "score")
             for score in (entry.get("score", 1.0) for entry in data)],
            dtype=np.float64,
        )
    except (KeyError, TypeError, ValueError, OverflowError):
        _raise_first_bad_entry(path, data)
        raise
    xywh = _bbox_array(path, data, bboxes)
    problems = (
        (~np.isfinite(xywh).all(axis=1), "bbox is not finite", xywh),
        ((xywh[:, 2] < 0) | (xywh[:, 3] < 0), "negative bbox extent", xywh),
        (~((0.0 <= scores) & (scores <= 1.0)), "score not in [0, 1]", scores),
    )
    for bad, message, values in problems:
        if bad.any():
            k = int(bad.argmax())
            raise _entry_error(path, k, data[k], ValueError(f"{message}: {values[k].tolist()}"))
    first_seen = dict.fromkeys(image_ids)
    dangling = [iid for iid in first_seen if iid not in index.images]
    if dangling:
        raise DatasetStructureError(
            f"{path}: proposals reference missing image ids {sorted(dangling)[:20]}"
        )
    code = {iid: k for k, iid in enumerate(first_seen)}
    codes = np.fromiter(map(code.__getitem__, image_ids), dtype=np.intp, count=len(image_ids))
    order = np.argsort(codes, kind="stable")
    codes, scores, boxes = codes[order], scores[order], xywh[order]
    # Corners, clamped to the image, in place: x + w may overflow to inf for
    # finite inputs, and the clamp brings it back.
    with np.errstate(over="ignore"):
        boxes[:, 2:] += boxes[:, :2]
    sizes = [index.images[iid].size for iid in first_seen]
    limits = np.array([(s.width, s.height) * 2 for s in sizes], dtype=np.float64)
    np.minimum(np.maximum(boxes, 0.0, out=boxes), limits[codes], out=boxes)
    cuts = np.cumsum(np.bincount(codes))[:-1]
    return {
        iid: ProposalSet(boxes=b, scores=sc)
        for iid, b, sc in zip(first_seen, np.split(boxes, cuts), np.split(scores, cuts))
    }


def _raise_first_bad_entry(path: str | Path, data: list) -> None:
    """Raise the error of the first results entry whose image id, bbox or
    score cannot be read, checked in that order."""
    for position, entry in enumerate(data):
        try:
            json_int(entry["image_id"], "image_id")
            entry["bbox"]
            json_number(entry.get("score", 1.0), "score")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _entry_error(path, position, entry, exc) from exc


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
