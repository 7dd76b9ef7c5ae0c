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
from pathlib import Path

import numpy as np

from .chips import ProposalSet
from .geometry import MAX_IMAGE_SIDE, GroundTruthSet, ImageSize
from .serialization import (
    _parse_error,
    gc_paused,
    json_ints,
    json_number_rows,
    json_numbers,
    read_entries,
)

CLAMP_TOL = 1e-9
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


def _crowd_flags(values: list) -> np.ndarray:
    """Annotations' ``iscrowd`` values as a bool array: each 0 or 1 (an
    integer field, so 1.0 is 1), or ``false`` or ``true``. Anything else
    raises ``ValueError`` naming the first such value; ``bool()`` would read
    the text ``"0"`` as crowd."""
    # A list or object value is unhashable, so the set of values is built
    # only once every value is known to be a number.
    if not (set(map(type, values)) <= {bool, int, float} and set(values) <= {0, 1}):
        bad = next(v for v in values if not (type(v) in (bool, int, float) and v in (0, 1)))
        raise ValueError(f"iscrowd must be 0, 1, false or true: {bad!r}")
    return np.array(values, dtype=bool)


def _section(data: dict, key: str, path: str | Path) -> list:
    """The list under ``key`` of a COCO annotation file (empty when absent)."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise DatasetStructureError(f"{path}: {key!r} must be a JSON array")
    return entries


def _require(ok: np.ndarray, message: str, values: np.ndarray) -> None:
    """Raise ``ValueError``: ``message`` and the first row of ``values`` not ``ok``."""
    if not ok.all():
        raise ValueError(f"{message}: {values[int(ok.argmin())].tolist()}")


def _bbox_rows(bboxes: list) -> np.ndarray:
    """The ``bbox`` of each entry as an (n, 4) float64 array of finite
    numbers with non-negative extent."""
    xywh = json_number_rows(bboxes, 4, "bbox")
    _require(np.isfinite(xywh).all(axis=1), "bbox is not finite", xywh)
    _require((xywh[:, 2] >= 0) & (xywh[:, 3] >= 0), "negative bbox extent", xywh)
    return xywh


def _annotation_columns(entries: list) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """The image ids, (n, 4) xywh boxes, category ids and crowd flags of
    annotation entries, each field checked in that order."""
    image_ids = json_ints([ann["image_id"] for ann in entries], "image_id")
    xywh = _bbox_rows([ann["bbox"] for ann in entries])
    class_ids = json_ints([ann["category_id"] for ann in entries], "category_id")
    bad = next((v for v in class_ids if not 0 <= v <= MAX_ID), None)
    if bad is not None:
        raise ValueError(f"category_id must be in [0, {MAX_ID}]: {bad}")
    crowd = _crowd_flags([ann.get("iscrowd", 0) for ann in entries])
    return image_ids, xywh, np.array(class_ids, dtype=np.int64), crowd


def _columns(path: str | Path, entries: list, parse):
    """``parse(entries)``; or raise the error of the first entry that it
    fails on, naming an annotation by its id and a results entry by its
    position."""
    columns, bad = read_entries(entries, parse, lambda *bad: bad)
    if bad is None:
        return columns
    position, entry, problem = bad
    has_id = isinstance(entry, dict) and "id" in entry
    name = f"annotation id {entry['id']!r}" if has_id else f"entry {position}"
    raise DatasetStructureError(f"{path}: {name}: {problem}")


def _clamped_corners(boxes: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Turn the (n, 4) xywh rows ``boxes`` into corners in place, and return
    them clamped to the (n, 4) ``limits`` (width, height, width, height) as
    Python's min(max(v, 0.0), limit) clamps them: v is kept on ties, so -0.0
    stays -0.0. A limit is at least 1, so clamping to it first gives the
    same result. x + w may overflow to inf for finite inputs, and the clamp
    brings it back."""
    with np.errstate(over="ignore"):
        boxes[:, 2:] += boxes[:, :2]
    clamped = np.minimum(boxes, limits)
    clamped[clamped < 0.0] = 0.0
    return clamped


def _annotation_sets(
    path: str | Path, entries: list, images: dict[int, ImageRecord]
) -> tuple[dict[int, GroundTruthSet], int]:
    """Per image, in ``images`` order, its annotations in file order as a
    :class:`GroundTruthSet` with boxes clamped to the image, and the number
    of boxes that clamping moved by more than ``CLAMP_TOL``."""
    image_ids, xywh, class_ids, crowd = _columns(path, entries, _annotation_columns)
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
    boxes = _clamped_corners(xywh, limits[owners])  # xywh now holds the corners
    clamped = int((np.abs(boxes - xywh) > CLAMP_TOL).any(axis=1).sum())
    order = np.argsort(owners, kind="stable")
    boxes, class_ids, crowd = boxes[order], class_ids[order], crowd[order]
    ends = np.cumsum(np.bincount(owners, minlength=len(images))).tolist()
    return {
        iid: GroundTruthSet(boxes[lo:hi], class_ids[lo:hi], crowd[lo:hi])
        for iid, lo, hi in zip(images, [0, *ends], ends)
    }, clamped


def _image_columns(entries: list) -> tuple[list[int], list[ImageSize]]:
    """The ids and sizes of image entries, each entry checked in the order
    id, id range, width, height, then a positive size."""
    image_ids = json_ints([entry["id"] for entry in entries], "id")
    bad = next((v for v in image_ids if not -MAX_ID - 1 <= v <= MAX_ID), None)
    if bad is not None:
        raise ValueError(f"id must be in [{-MAX_ID - 1}, {MAX_ID}]: {bad}")
    widths = json_ints([entry["width"] for entry in entries], "width")
    heights = json_ints([entry["height"] for entry in entries], "height")
    return image_ids, list(map(ImageSize, widths, heights))


def _category_columns(entries: list) -> tuple[list[int], list[str]]:
    """The ids and names of category entries; a category without a name is
    named by its id as written."""
    category_ids = json_ints([cat["id"] for cat in entries], "id")
    return category_ids, [str(cat.get("name", cat["id"])) for cat in entries]


def _section_columns(path: str | Path, data: dict, key: str, parse, kind: str):
    """``parse`` of the ``key`` section of an annotation file as
    :func:`read_entries` gives it: the columns of the entries before the
    first bad one, and a :class:`DatasetStructureError` naming that entry
    as a bad ``kind`` entry with its own error, or None."""
    def error(position, entry, problem):
        return DatasetStructureError(
            f"{path}: bad {kind} entry {entry!r}: {_parse_error(parse, [entry])}"
        )

    return read_entries(_section(data, key, path), parse, error)


def load_dataset(
    annotation_path: str | Path,
    proposals_path: str | Path | None = None,
) -> DatasetIndex:
    """Build a DatasetIndex from a COCO-format annotation file and,
    optionally, a COCO-results proposal file.

    Raises DatasetParseError on unreadable or malformed JSON, and
    DatasetStructureError naming the first entry that breaks the README's
    input rule: integer fields are read by ``json_int``, bbox and score
    values by ``json_number``, and each value must lie in its field's range.
    The cyclic garbage collector is held off while the decoded files are
    alive (see :func:`~pyrsample.serialization.gc_paused`).
    """
    with gc_paused():
        data = _read_json(annotation_path)
        if not isinstance(data, dict) or "images" not in data:
            raise DatasetStructureError(f"{annotation_path}: not a COCO annotation file")

        (image_ids, sizes), error = _section_columns(
            annotation_path, data, "images", _image_columns, "image"
        )
        images: dict[int, ImageRecord] = {}
        for image_id, size in zip(image_ids, sizes):
            if image_id in images:
                raise DatasetStructureError(f"{annotation_path}: duplicate image id {image_id}")
            if max(size.width, size.height) > MAX_IMAGE_SIDE:
                raise DatasetStructureError(
                    f"{annotation_path}: image id {image_id}: width and height must be at "
                    f"most {MAX_IMAGE_SIDE}"
                )
            images[image_id] = ImageRecord(size=size)
        if error is not None:
            raise error

        (category_ids, names), error = _section_columns(
            annotation_path, data, "categories", _category_columns, "category"
        )
        if error is not None:
            raise error

        annotations, clamped = _annotation_sets(
            annotation_path, _section(data, "annotations", annotation_path), images
        )
        index = DatasetIndex(
            images=images,
            annotations=annotations,
            categories=dict(zip(category_ids, names)),
            clamp_warnings=clamped,
        )
        if proposals_path is not None:
            index.proposals = load_proposals(proposals_path, index)
        return index


def _proposal_columns(entries: list) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The image ids, (n, 4) xywh boxes and scores of results entries, each
    checked in the order image id, bbox present, score a number, bbox four
    finite numbers with non-negative extent, score in [0, 1]."""
    image_ids = json_ints([entry["image_id"] for entry in entries], "image_id")
    bboxes = [entry["bbox"] for entry in entries]
    scores = json_numbers([entry.get("score", 1.0) for entry in entries], "score")
    xywh = _bbox_rows(bboxes)
    _require((0.0 <= scores) & (scores <= 1.0), "score not in [0, 1]", scores)
    return image_ids, xywh, scores


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
    image_ids, xywh, scores = _columns(path, data, _proposal_columns)
    first_seen = dict.fromkeys(image_ids)
    dangling = [iid for iid in first_seen if iid not in index.images]
    if dangling:
        raise DatasetStructureError(
            f"{path}: proposals reference missing image ids {sorted(dangling)[:20]}"
        )
    code = {iid: k for k, iid in enumerate(first_seen)}
    codes = np.fromiter(map(code.__getitem__, image_ids), dtype=np.intp, count=len(image_ids))
    order = np.argsort(codes, kind="stable")
    codes, scores, xywh = codes[order], scores[order], xywh[order]
    sizes = [index.images[iid].size for iid in first_seen]
    limits = np.array([(s.width, s.height) * 2 for s in sizes], dtype=np.float64)
    boxes = _clamped_corners(xywh, limits[codes])
    cuts = np.cumsum(np.bincount(codes))[:-1]
    return {
        iid: ProposalSet(boxes=b, scores=sc)
        for iid, b, sc in zip(first_seen, np.split(boxes, cuts), np.split(scores, cuts))
    }


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
