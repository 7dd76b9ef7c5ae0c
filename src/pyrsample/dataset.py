"""COCO-format annotation ingestion and related file plumbing.

Annotations load into run-wide columns, grouped by image. Boxes arrive as
[x, y, w, h] and are converted to corner form; anything extending past its
image is clamped with a warning count rather than rejected, since real
crowd-sourced annotations routinely overshoot by a pixel or two.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .chips import ProposalSet
from .geometry import MAX_IMAGE_SIDE, GroundTruthSet, csr_take
from .serialization import (
    _parse_error,
    gc_paused,
    json_ints,
    json_number_rows,
    json_numbers,
    load_json,
    read_entries,
    read_json_array,
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


class _ImageRows(Mapping):
    """A read-only mapping from image id to that image's rows of run-wide
    columns: ``image_ids[k]`` maps to ``rows[offsets[k]:offsets[k + 1]]``.
    Keys come in the order of ``image_ids``; a lookup is a binary search
    over the sorted ids."""

    def __init__(self, image_ids: np.ndarray, offsets: np.ndarray, rows):
        self._ids, self._offsets, self._rows = image_ids, offsets, rows
        self._order = np.argsort(image_ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return iter(self._ids.tolist())

    def __getitem__(self, image_id):
        if isinstance(image_id, (int, np.integer)) and -MAX_ID - 1 <= image_id <= MAX_ID:
            at = int(np.searchsorted(self._ids, image_id, sorter=self._order))
            if at < len(self._ids) and self._ids[self._order[at]] == image_id:
                k = self._order[at]
                return self._rows[self._offsets[k]:self._offsets[k + 1]]
        raise KeyError(image_id)


@dataclass(eq=False)
class DatasetIndex:
    """A dataset as run-wide columns, images in file order.

    Image k has id ``image_ids[k]`` and size ``sizes[k]``, (n, 2) int64
    (width, height). Its annotations are rows ``gt_offsets[k]:gt_offsets[k +
    1]`` of ``gt_set``, and its proposals rows ``proposal_offsets[k]:
    proposal_offsets[k + 1]`` of ``proposal_set``, each in file order; both
    offsets are (n + 1,) and start at 0. ``annotations`` and ``proposals``
    are read-only per-image views of these columns.
    """

    image_ids: np.ndarray
    sizes: np.ndarray
    gt_set: GroundTruthSet
    gt_offsets: np.ndarray
    proposal_set: ProposalSet
    proposal_offsets: np.ndarray
    categories: dict[int, str] = field(default_factory=dict)
    clamp_warnings: int = 0

    @cached_property
    def annotations(self) -> Mapping[int, GroundTruthSet]:
        """Image id to its ground truth, for every image in file order."""
        return _ImageRows(self.image_ids, self.gt_offsets, self.gt_set)

    @cached_property
    def proposals(self) -> Mapping[int, ProposalSet]:
        """Image id to its proposals, for every image in file order."""
        return _ImageRows(self.image_ids, self.proposal_offsets, self.proposal_set)

    def take(self, rows: np.ndarray) -> "DatasetIndex":
        """The images ``rows``, in that order, with their annotations and
        proposals."""
        gt_offsets, at = csr_take(self.gt_offsets, rows)
        proposal_offsets, cut = csr_take(self.proposal_offsets, rows)
        gt, proposals = self.gt_set, self.proposal_set
        return DatasetIndex(
            self.image_ids[rows], self.sizes[rows],
            GroundTruthSet(np.take(gt.boxes, at, axis=0), gt.class_ids[at], gt.crowd[at]),
            gt_offsets,
            ProposalSet(np.take(proposals.boxes, cut, axis=0), np.take(proposals.scores, cut)),
            proposal_offsets, self.categories, self.clamp_warnings,
        )


def _read_json(path: str | Path) -> object:
    try:
        return load_json(path, DatasetParseError)
    except OSError as exc:
        raise DatasetParseError(f"cannot read {path}: {exc}") from exc


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


def _id_rows(ids: np.ndarray, wanted: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The row in the unique int64 ``ids`` of each int of ``wanted``, and
    whether it is there, by one binary search over the sorted ids; an int
    past int64 is in no row."""
    try:
        query, fits = np.array(wanted, dtype=np.int64), True
    except OverflowError:
        fits = np.array([-MAX_ID - 1 <= v <= MAX_ID for v in wanted], dtype=bool)
        query = np.array([v if ok else 0 for v, ok in zip(wanted, fits.tolist())], dtype=np.int64)
    if not len(ids):
        return np.zeros(len(wanted), dtype=np.intp), np.zeros(len(wanted), dtype=bool)
    order = np.argsort(ids)
    rows = order[np.minimum(np.searchsorted(ids, query, sorter=order), len(order) - 1)]
    return rows, (ids[rows] == query) & fits


def _rows_of(path: str | Path, image_ids: np.ndarray, wanted: list, what: str) -> np.ndarray:
    """The row in ``image_ids`` of each id of ``wanted`` (:func:`_id_rows`).
    Raises ``DatasetStructureError`` naming ``what`` and the least 20 ids of
    ``wanted`` that are no image's."""
    rows, found = _id_rows(image_ids, wanted)
    if not found.all():
        missing = sorted(set(wanted).difference(image_ids.tolist()))
        raise DatasetStructureError(f"{path}: {what} reference missing image ids {missing[:20]}")
    return rows


def _grouped(
    rows: np.ndarray, xywh: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The order that groups the entries of image ``rows`` by image, in the
    order of the (n, 2) ``sizes`` and each image's entries in file order;
    the (n + 1,) offsets of the groups; and the entries' (m, 4) ``xywh``
    boxes in that order as corners, and as corners clamped to their image
    by :func:`_clamped_corners`."""
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(sizes)))])
    order = np.argsort(rows, kind="stable")
    # np.take gathers rows several times faster than indexing with an array.
    corners = np.take(xywh, order, axis=0)
    limits = np.repeat(np.tile(sizes.astype(np.float64), 2), np.diff(offsets), axis=0)
    return order, offsets, corners, _clamped_corners(corners, limits)


def _annotation_sets(
    path: str | Path, entries: list, image_ids: np.ndarray, sizes: np.ndarray
) -> tuple[GroundTruthSet, np.ndarray, int]:
    """Every annotation as one :class:`GroundTruthSet`, grouped by image in
    the order of ``image_ids`` and in file order within an image, with boxes
    clamped to the image; the (n + 1,) offsets of the images' rows; and the
    number of boxes that clamping moved by more than ``CLAMP_TOL``."""
    owner_ids, xywh, class_ids, crowd = _columns(path, entries, _annotation_columns)
    owners = _rows_of(path, image_ids, owner_ids, "annotations")
    order, offsets, corners, boxes = _grouped(owners, xywh, sizes)
    clamped = int((np.abs(boxes - corners) > CLAMP_TOL).any(axis=1).sum())
    return GroundTruthSet(boxes, class_ids[order], crowd[order]), offsets, clamped


def _image_columns(entries: list) -> tuple[list[int], list[int], list[int]]:
    """The ids, widths and heights of image entries, each entry checked in
    the order id, id range, width, height, then a positive size."""
    image_ids = json_ints([entry["id"] for entry in entries], "id")
    bad = next((v for v in image_ids if not -MAX_ID - 1 <= v <= MAX_ID), None)
    if bad is not None:
        raise ValueError(f"id must be in [{-MAX_ID - 1}, {MAX_ID}]: {bad}")
    widths = json_ints([entry["width"] for entry in entries], "width")
    heights = json_ints([entry["height"] for entry in entries], "height")
    if min(widths, default=1) < 1 or min(heights, default=1) < 1:
        w, h = next((w, h) for w, h in zip(widths, heights) if w < 1 or h < 1)
        raise ValueError(f"image size must be positive: {w}x{h}")
    return image_ids, widths, heights


def _image_table(
    path: str | Path, image_ids: list[int], widths: list[int], heights: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The image ids as an int64 array and the sizes as (n, 2) int64
    (width, height). Raises ``DatasetStructureError`` for the first image in
    file order whose id repeats an earlier one or whose width or height
    passes ``MAX_IMAGE_SIDE``, in that order of checks."""
    too_big = max(max(widths, default=0), max(heights, default=0)) > MAX_IMAGE_SIDE
    if too_big or len(set(image_ids)) < len(image_ids):
        seen = set()
        for image_id, width, height in zip(image_ids, widths, heights):
            if image_id in seen:
                raise DatasetStructureError(f"{path}: duplicate image id {image_id}")
            if max(width, height) > MAX_IMAGE_SIDE:
                raise DatasetStructureError(
                    f"{path}: image id {image_id}: width and height must be at most "
                    f"{MAX_IMAGE_SIDE}"
                )
            seen.add(image_id)
    # Ids are in int64 range, as _image_columns checks.
    return np.array(image_ids, dtype=np.int64), np.array([widths, heights], dtype=np.int64).T.copy()


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

        columns, error = _section_columns(
            annotation_path, data, "images", _image_columns, "image"
        )
        image_ids, sizes = _image_table(annotation_path, *columns)
        if error is not None:
            raise error

        (category_ids, names), error = _section_columns(
            annotation_path, data, "categories", _category_columns, "category"
        )
        if error is not None:
            raise error

        gt_set, gt_offsets, clamped = _annotation_sets(
            annotation_path, _section(data, "annotations", annotation_path), image_ids, sizes
        )
        no_proposals = np.zeros(len(image_ids) + 1, dtype=np.intp)
        index = DatasetIndex(
            image_ids, sizes, gt_set, gt_offsets,
            ProposalSet(np.zeros((0, 4)), np.zeros(0)), no_proposals,
            categories=dict(zip(category_ids, names)),
            clamp_warnings=clamped,
        )
        del data  # freed while the collector is off, so no collection walks it
        if proposals_path is not None:
            index.proposal_set, index.proposal_offsets = load_proposals(proposals_path, index)
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


def load_proposals(path: str | Path, index: DatasetIndex) -> tuple[ProposalSet, np.ndarray]:
    """COCO-results-format proposals ([{image_id, bbox, score}, ...]) over
    the images of ``index``: every proposal as one :class:`ProposalSet`,
    grouped by image in the index's order and in file order within an
    image, with boxes clamped to the image, and the (n + 1,) offsets of the
    images' rows. A missing score counts as 1.0; a score outside [0, 1] is
    an error.

    A large file is decoded in pieces on every available CPU
    (:func:`~pyrsample.serialization.read_json_array`). A file too small to
    cut, or one that fails that way, is read whole here, in one process,
    which names any error.
    """
    pieces = read_json_array(path, _proposal_columns)
    if pieces is None:
        data = _read_json(path)
        if not isinstance(data, list):
            raise DatasetStructureError(f"{path}: results file must be a JSON array")
        owner_ids, xywh, scores = _columns(path, data, _proposal_columns)
    else:
        ids, xywh, scores = zip(*pieces)
        owner_ids, xywh, scores = list(chain(*ids)), np.concatenate(xywh), np.concatenate(scores)
    owners = _rows_of(path, index.image_ids, owner_ids, "proposals")
    order, offsets, _, boxes = _grouped(owners, xywh, index.sizes)
    return ProposalSet(boxes, np.take(scores, order)), offsets


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
