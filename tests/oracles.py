"""Independent brute-force reference implementations used to check the
library. Everything here favors obviousness over speed and avoids the code
paths under test: per-cell loops, flood fill, literal piecewise rules,
exhaustive lattice re-scans.
"""
from __future__ import annotations

import json
import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from pyrsample.dataset import MAX_IMAGE_SIDE
from pyrsample.geometry import ImageSize, MaxSideTarget, ScaleSpec


@dataclass(frozen=True)
class BoundingBox:
    """The oracles' own box: one axis-aligned rectangle with corners
    (x1, y1) <= (x2, y2), compared by value. The library takes (n, 4)
    corner arrays instead (:func:`boxes_array`).

    Zero-area (degenerate) boxes are legal; they have IoU 0 against every
    box, including themselves.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(
                f"corners out of order: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def intersection(self, other: "BoundingBox") -> "BoundingBox | None":
        """Intersection rectangle, or None when the overlap has zero area."""
        x1, x2 = max(self.x1, other.x1), min(self.x2, other.x2)
        y1, y2 = max(self.y1, other.y1), min(self.y2, other.y2)
        return None if x2 <= x1 or y2 <= y1 else BoundingBox(x1, y1, x2, y2)

    def union_rect(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest rectangle enclosing both boxes."""
        return BoundingBox(min(self.x1, other.x1), min(self.y1, other.y1),
                           max(self.x2, other.x2), max(self.y2, other.y2))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def boxes_array(boxes: Iterable[BoundingBox]) -> np.ndarray:
    """The (n, 4) float64 corner array x1, y1, x2, y2 of ``boxes``."""
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


class Gt(NamedTuple):
    """A ground-truth box with its class and crowd flag, in the frame of its
    image: the oracles' one-row form of ground truth."""

    box: BoundingBox
    class_id: int
    is_crowd: bool = False


def resolve_oracle(spec: ScaleSpec, original: ImageSize) -> ImageSize:
    """The canvas of an original image at a pyramid level, one image at a
    time: an ``ImageSize`` target as it is; otherwise each side times the
    factor (``max_side`` over the longer side, or the float target),
    rounded by Python's ``round`` and at least 1. A factor that is not
    positive, or a canvas side that is not finite or passes
    ``MAX_IMAGE_SIDE``, raises ``ValueError``."""
    target = spec.target
    if isinstance(target, ImageSize):
        width, height = target.width, target.height
    else:
        if isinstance(target, MaxSideTarget):
            factor = target.max_side / max(original.width, original.height)
        else:
            factor = float(target)
        if not factor > 0:
            raise ValueError(f"scale factor must be positive: {factor}")
        sides = [original.width * factor, original.height * factor]
        if not all(math.isfinite(side) for side in sides):
            raise ValueError(f"canvas sides are not finite: {sides}")
        width, height = (max(1, round(side)) for side in sides)
    if max(width, height) > MAX_IMAGE_SIDE:
        raise ValueError(f"canvas side above {MAX_IMAGE_SIDE}: {width}x{height}")
    return ImageSize(width, height)


def rescale_box(b: BoundingBox, from_size: ImageSize, to_size: ImageSize) -> BoundingBox:
    """Map a box between canvases by independent per-axis factors."""
    fx = to_size.width / from_size.width
    fy = to_size.height / from_size.height
    return BoundingBox(b.x1 * fx, b.y1 * fy, b.x2 * fx, b.y2 * fy)


def clip_box(b: BoundingBox, size: ImageSize) -> BoundingBox:
    """Clamp the box to a canvas of the given size."""
    return BoundingBox(
        min(max(b.x1, 0.0), size.width),
        min(max(b.y1, 0.0), size.height),
        min(max(b.x2, 0.0), size.width),
        min(max(b.y2, 0.0), size.height),
    )


def iou_oracle(a: BoundingBox, b: BoundingBox) -> float:
    ix1, iy1 = max(a.x1, b.x1), max(a.y1, b.y1)
    ix2, iy2 = min(a.x2, b.x2), min(a.y2, b.y2)
    if ix2 <= ix1 or iy2 <= iy1:
        return 0.0
    inter = (ix2 - ix1) * (iy2 - iy1)
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def roi_label_oracle(
    roi: BoundingBox,
    gts: list[Gt],
    r_min: float,
    r_max: float,
) -> tuple[int, int]:
    """Literal piecewise evaluation of the per-RoI label rule.

    Returns (label, class id): (1, the matched ground-truth class) for
    foreground, (0, -1) for background and (-1, -1) for out-of-range. The
    match is the first ground-truth box with the highest IoU.
    """
    area = roi.area
    if area <= r_min or area >= r_max:
        return -1, -1
    best_iou, best_class = 0.0, None
    for gt in gts:
        overlap = iou_oracle(gt.box, roi)
        if overlap > best_iou:
            best_iou, best_class = overlap, gt.class_id
    if best_iou >= 0.5 and best_class is not None:
        return 1, best_class
    return 0, -1


def anchor_validity_oracle(
    anchor: BoundingBox,
    gts: list[Gt],
    r_min: float,
    r_max: float,
) -> bool:
    """True when the anchor is invalidated: its IoU with some ground-truth
    box whose area is outside the open range (r_min, r_max) exceeds 0.3."""
    for gt in gts:
        if r_min < gt.box.area < r_max:
            continue
        if iou_oracle(anchor, gt.box) > 0.3:
            return True
    return False


def focus_label_oracle(
    boxes: list[BoundingBox],
    image: ImageSize,
    stride: int,
    min_side: float,
    max_side: float,
    ignore_max_side: float,
) -> np.ndarray:
    """Per-cell brute force: test every block against every box."""
    h = math.ceil(image.height / stride)
    w = math.ceil(image.width / stride)
    out = np.zeros((h, w), dtype=np.int8)
    for i in range(h):
        for j in range(w):
            bx1, by1 = j * stride, i * stride
            bx2, by2 = bx1 + stride, by1 + stride
            label = 0
            for box in boxes:
                ix = min(bx2, box.x2) - max(bx1, box.x1)
                iy = min(by2, box.y2) - max(by1, box.y1)
                if ix <= 0 or iy <= 0:
                    continue
                side = math.sqrt(box.area)
                if min_side < side < max_side:
                    label = 1
                    break
                if side <= min_side or (max_side <= side <= ignore_max_side):
                    label = -1
            out[i, j] = label
    return out


def dilate_oracle(mask: np.ndarray, size: int) -> np.ndarray:
    """Per-pixel max filter over a size x size window."""
    r = size // 2
    h, w = mask.shape
    out = np.zeros((h, w), dtype=bool)
    src = mask.astype(bool)
    for i in range(h):
        for j in range(w):
            lo_i, hi_i = max(0, i - r), min(h, i + r + 1)
            lo_j, hi_j = max(0, j - r), min(w, j + r + 1)
            out[i, j] = src[lo_i:hi_i, lo_j:hi_j].any()
    return out


def flood_fill_components(mask: np.ndarray) -> list[set[tuple[int, int]]]:
    """8-connected components by BFS, ordered by first cell in scan order."""
    h, w = mask.shape
    seen = np.zeros((h, w), dtype=bool)
    comps = []
    for i in range(h):
        for j in range(w):
            if not mask[i, j] or seen[i, j]:
                continue
            comp = set()
            queue = deque([(i, j)])
            seen[i, j] = True
            while queue:
                ci, cj = queue.popleft()
                comp.add((ci, cj))
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        ni, nj = ci + di, cj + dj
                        if (
                            0 <= ni < h
                            and 0 <= nj < w
                            and mask[ni, nj]
                            and not seen[ni, nj]
                        ):
                            seen[ni, nj] = True
                            queue.append((ni, nj))
            comps.append(comp)
    return comps


def component_bounds_oracle(mask: np.ndarray) -> list[list[int]]:
    """Cell bounds min_col, min_row, max_col, max_row of each component of
    :func:`flood_fill_components`, in its order."""
    bounds = []
    for comp in flood_fill_components(mask):
        rows, cols = [i for i, _ in comp], [j for _, j in comp]
        bounds.append([min(cols), min(rows), max(cols), max(rows)])
    return bounds


def encloses_oracle(outer: BoundingBox, inner: BoundingBox) -> bool:
    return (
        outer.x1 <= inner.x1 <= inner.x2 <= outer.x2
        and outer.y1 <= inner.y1 <= inner.y2 <= outer.y2
    )


def distinct_oracle(owners: np.ndarray, values: np.ndarray):
    """The lexsort form of ``focus_spans._distinct``: per owner, the sorted
    distinct ``values``, their owners, and the index of each input into
    them."""
    order = np.lexsort((values, owners))
    v, o = values[order], owners[order]
    new = np.ones(len(v), dtype=bool)
    new[1:] = (v[1:] != v[:-1]) | (o[1:] != o[:-1])
    index = np.empty(len(v), dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    return v[new], o[new], index


def count_at_most_oracle(
    owners: np.ndarray, keys: np.ndarray, query_owners: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """The lexsort form of ``focus_spans._count_at_most``: for each i, the
    number of pairs (owners[j], keys[j]) at most (query_owners[i],
    queries[i]) in lexicographic order. Pairs and queries are sorted
    together, a pair before an equal query."""
    n = len(keys)
    is_query = np.repeat([False, True], [n, len(queries)])
    order = np.lexsort(
        (is_query, np.concatenate([keys, queries]), np.concatenate([owners, query_owners]))
    )
    keys_so_far = np.cumsum(~is_query[order])
    asked = is_query[order]
    out = np.empty(len(queries), dtype=np.intp)
    out[order[asked] - n] = keys_so_far[asked]
    return out


def greedy_cover_oracle(
    cells: list[BoundingBox], targets: list[BoundingBox]
) -> tuple[list[int], list[int]]:
    """Greedy max-cover simulation with plain lists and an exhaustive re-scan
    each round; cells must be in (row, col) order for the tie-break."""
    uncovered = set(range(len(targets)))
    available = list(range(len(cells)))
    picked = []
    while uncovered:
        best_cell, best_gain = None, 0
        for idx in available:
            gain = sum(1 for t in uncovered if encloses_oracle(cells[idx], targets[t]))
            if gain > best_gain:
                best_cell, best_gain = idx, gain
        if best_cell is None:
            break
        picked.append(best_cell)
        available.remove(best_cell)
        uncovered = {
            t for t in uncovered if not encloses_oracle(cells[best_cell], targets[t])
        }
    return picked, sorted(uncovered)


def chip_grid_oracle(width: int, height: int, size: int, stride: int) -> list[tuple]:
    """Enumerate expected grid rects by the stated placement rule."""

    def axis(extent):
        if extent <= size:
            return [0]
        xs = []
        x = 0
        while x + size <= extent:
            xs.append(x)
            x += stride
        if xs[-1] + size < extent:
            xs.append(extent - size)
        return xs

    rects = []
    for y in axis(height):
        for x in axis(width):
            rects.append((x, y, min(x + size, width), min(y + size, height)))
    return rects


def select_negative_chips_oracle(
    boxes: list[BoundingBox],
    positive_rects: list[tuple[int, BoundingBox]],
    pyramid: list[ScaleSpec],
    original: ImageSize,
    min_proposals: int,
    membership: str,
) -> list[tuple[int, tuple]]:
    """Negative-chip pool, one proposal at a time: (scale id, chip rect) in
    pick order. Per level each proposal is rescaled by the per-axis factors,
    kept when its area is strictly inside the effective range and no
    positive rect of the level encloses it; then every lattice cell is
    re-counted for each pick, the first highest count winning, while that
    count reaches ``min_proposals``."""

    def covers(cell: BoundingBox, box: BoundingBox) -> bool:
        if membership == "enclose":
            return encloses_oracle(cell, box)
        cx, cy = (box.x1 + box.x2) / 2.0, (box.y1 + box.y2) / 2.0
        return cell.x1 <= cx <= cell.x2 and cell.y1 <= cy <= cell.y2

    pool = []
    for spec in pyramid:
        canvas = resolve_oracle(spec, original)
        fx = canvas.width / original.width
        fy = canvas.height / original.height
        r_min, r_max = spec.effective_range
        rects = [rect for scale_id, rect in positive_rects if scale_id == spec.scale_id]
        remaining = []
        for b in boxes:
            box = BoundingBox(b.x1 * fx, b.y1 * fy, b.x2 * fx, b.y2 * fy)
            if r_min < box.area < r_max and not any(encloses_oracle(r, box) for r in rects):
                remaining.append(box)
        cells = [
            BoundingBox(*rect)
            for rect in chip_grid_oracle(
                canvas.width, canvas.height, spec.chip_size, spec.chip_stride
            )
        ]
        available = list(range(len(cells)))
        while True:
            best, best_gain = None, 0
            for idx in available:
                gain = sum(1 for box in remaining if covers(cells[idx], box))
                if gain > best_gain:
                    best, best_gain = idx, gain
            if best is None or best_gain < min_proposals:
                break
            pool.append((spec.scale_id, cells[best].as_tuple()))
            available.remove(best)
            remaining = [box for box in remaining if not covers(cells[best], box)]
    return pool


def hard_nms_oracle(
    boxes: list[BoundingBox], scores: list[float], threshold: float
) -> list[int]:
    """Classic hard suppression on one class; returns kept input indices."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    suppressed = set()
    for i in order:
        if i in suppressed:
            continue
        kept.append(i)
        for j in order:
            if j != i and j not in suppressed and iou_oracle(boxes[i], boxes[j]) > threshold:
                suppressed.add(j)
    return kept


def soft_nms_oracle(
    boxes: list[BoundingBox],
    scores: list[float],
    mode: str,
    iou_threshold: float = 0.5,
    sigma: float = 0.5,
    score_floor: float = 0.001,
) -> list[tuple[int, float]]:
    """Per-box (soft-)NMS on one class: (input index, final score) of every
    kept box, in pick order. Each round picks the highest pending score
    (lowest index on ties) and rescans every pending box: ``hard`` drops an
    IoU above the threshold, ``gaussian`` multiplies by exp(-iou^2 / sigma),
    ``linear`` by (1 - iou) above the threshold; a soft-rescored score under
    ``score_floor`` is dropped."""
    pending = [(i, boxes[i], scores[i]) for i in range(len(boxes))]
    kept: list[tuple[int, float]] = []
    while pending:
        best = min(range(len(pending)), key=lambda n: (-pending[n][2], pending[n][0]))
        index, box, score = pending.pop(best)
        kept.append((index, score))
        survivors = []
        for other_index, other, other_score in pending:
            overlap = iou_oracle(box, other)
            if mode == "hard":
                if overlap > iou_threshold:
                    continue
            elif mode == "gaussian":
                other_score = other_score * math.exp(-(overlap * overlap) / sigma)
            elif overlap > iou_threshold:  # linear
                other_score = other_score * (1.0 - overlap)
            if mode != "hard" and other_score < score_floor:
                continue
            survivors.append((other_index, other, other_score))
        pending = survivors
    return kept


def merge_overlapping_oracle(rects: list[BoundingBox]) -> list[BoundingBox]:
    """Restart-fixpoint merge: after every merge of an overlapping pair the
    pair scan starts over, until no two rectangles overlap."""
    merged = list(rects)
    changed = True
    while changed:
        changed = False
        for i in range(len(merged)):
            for j in range(i + 1, len(merged)):
                if merged[i].intersection(merged[j]) is not None:
                    merged[i] = merged[i].union_rect(merged[j])
                    del merged[j]
                    changed = True
                    break
            if changed:
                break
    return merged


def expand_to_min_size_oracle(rect: BoundingBox, min_side: float, image: ImageSize) -> BoundingBox:
    """Scalar growth per axis: to at least ``min_side`` around the centre,
    shifted inward at the canvas edge, or the full extent when too long."""

    def axis(lo: float, hi: float, limit: float) -> tuple[float, float]:
        target = max(min_side, hi - lo)
        if target >= limit:
            return 0.0, limit
        new_lo = min(max((lo + hi) / 2.0 - target / 2.0, 0.0), limit - target)
        return new_lo, new_lo + target

    x1, x2 = axis(rect.x1, rect.x2, float(image.width))
    y1, y2 = axis(rect.y1, rect.y2, float(image.height))
    return BoundingBox(x1, y1, x2, y2)


def component_chips_oracle(
    comps: list[set[tuple[int, int]]], stride: int, min_chip_size: int, image: ImageSize
) -> list[BoundingBox]:
    """Each component's enclosing pixel rectangle, clipped to the canvas and
    grown to the minimum side, merged by the restart fixpoint, then grown
    again, one rectangle at a time."""
    rects = []
    for comp in comps:
        rows = [i for i, _ in comp]
        cols = [j for _, j in comp]
        pixel = clip_box(
            BoundingBox(
                min(cols) * stride,
                min(rows) * stride,
                (max(cols) + 1) * stride,
                (max(rows) + 1) * stride,
            ),
            image,
        )
        rects.append(expand_to_min_size_oracle(pixel, min_chip_size, image))
    return [
        expand_to_min_size_oracle(r, min_chip_size, image) for r in merge_overlapping_oracle(rects)
    ]


def speedup_upper_bound_oracle(
    gts_by_image: dict,
    sizes_by_image: dict,
    pyramid: list[ScaleSpec],
    min_chip_sizes: list[int],
    stride: int = 32,
    min_side: float = 5.0,
    max_side: float = 64.0,
    ignore_max_side: float = 90.0,
    dilation: int = 3,
    process_coarsest_fully: bool = True,
) -> list[tuple[int, float]]:
    """The per-k loop: for every image and level, per-box rescaling, the
    per-cell label oracle, the max-filter dilation and flood fill, then for
    each k the chips rebuilt from the components and their areas added chip
    by chip."""
    processed = {k: 0.0 for k in min_chip_sizes}
    baseline_total = 0.0
    for image_id, gts in gts_by_image.items():
        original = sizes_by_image[image_id]
        for level, spec in enumerate(pyramid):
            canvas = resolve_oracle(spec, original)
            baseline_total += canvas.area
            if process_coarsest_fully and level == 0:
                for k in min_chip_sizes:
                    processed[k] += canvas.area
                continue
            resized = [rescale_box(g.box, original, canvas) for g in gts]
            labels = focus_label_oracle(
                resized, canvas, stride, min_side, max_side, ignore_max_side
            )
            comps = flood_fill_components(dilate_oracle(labels == 1, dilation))
            for k in min_chip_sizes:
                chips = component_chips_oracle(comps, stride, k, canvas)
                processed[k] += sum(chip.area for chip in chips)
    return [
        (k, math.inf if processed[k] == 0 else baseline_total / processed[k])
        for k in min_chip_sizes
    ]


def focus_pixel_stats_oracle(
    gts_by_image: dict,
    sizes_by_image: dict,
    pyramid: list[ScaleSpec],
    stride: int = 32,
    min_side: float = 5.0,
    max_side: float = 64.0,
    ignore_max_side: float = 90.0,
    dilation: int = 3,
) -> dict[int, tuple]:
    """Per level: (focus cells, total cells, dilated focus cells, mean
    projected area, mean canvas area) from the per-cell label oracle and the
    max-filter dilation, image by image."""
    out = {}
    for spec in pyramid:
        focus = total = dilated = 0
        projected = canvas_area = 0.0
        for image_id, gts in gts_by_image.items():
            original = sizes_by_image[image_id]
            canvas = resolve_oracle(spec, original)
            resized = [rescale_box(g.box, original, canvas) for g in gts]
            mask = focus_label_oracle(
                resized, canvas, stride, min_side, max_side, ignore_max_side
            ) == 1
            count = int(mask.sum())
            focus += count
            total += mask.size
            dilated += int(dilate_oracle(mask, dilation).sum())
            projected += count * stride * stride
            canvas_area += canvas.area
        n = len(gts_by_image)
        out[spec.scale_id] = (focus, total, dilated, projected / n, canvas_area / n)
    return out


def attach_gt_oracle(
    rect: BoundingBox, boxes: list[BoundingBox]
) -> tuple[tuple[int, ...], tuple[tuple[int, BoundingBox], ...]]:
    """Per pair: the boxes the chip encloses, and the intersection of every
    other box that overlaps it with positive area."""
    covered, cropped = [], []
    for gt_id, box in enumerate(boxes):
        if encloses_oracle(rect, box):
            covered.append(gt_id)
        elif rect.intersection(box) is not None:
            cropped.append((gt_id, rect.intersection(box)))
    return tuple(covered), tuple(cropped)


def strict_int(value, name: str) -> int:
    """A JSON integer field as every reader takes it: an int, or a float
    with an integral value. A fraction, a boolean, text, null or a
    non-finite number raises the readers' ``ValueError``."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer: {value!r}")
    return int(value)


def strict_number(value, name: str) -> float:
    """A JSON number field as every reader takes it: an int or a float, as a
    float. A boolean, text, null or any other value raises the readers'
    ``ValueError``; an int too large for a float raises ``OverflowError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number: {value!r}")
    return float(value)


def _oracle_xywh(bbox) -> tuple[float, float, float, float]:
    """An entry's ``bbox`` as the loaders read it: four JSON numbers, finite,
    with non-negative width and height, checked in that order."""
    if not isinstance(bbox, list) or len(bbox) != 4:
        raise ValueError(f"bbox must be 4 numbers: {bbox!r}")
    x, y, w, h = (strict_number(v, "bbox") for v in bbox)
    if not all(math.isfinite(v) for v in (x, y, w, h)):
        raise ValueError(f"bbox is not finite: {[x, y, w, h]}")
    if w < 0 or h < 0:
        raise ValueError(f"negative bbox extent: {[x, y, w, h]}")
    return x, y, w, h


def _oracle_json(path):
    from pyrsample.dataset import DatasetParseError

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DatasetParseError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatasetParseError(f"malformed JSON in {path}: {exc}") from exc


def _oracle_entry_error(path, position, entry, exc):
    """The loaders' error for a bad annotation or results entry."""
    from pyrsample.dataset import DatasetStructureError

    name = (
        f"annotation id {entry['id']!r}"
        if isinstance(entry, dict) and "id" in entry
        else f"entry {position}"
    )
    problem = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return DatasetStructureError(f"{path}: {name}: {problem}")


def load_dataset_oracle(path) -> tuple[dict, dict, dict, int]:
    """The per-entry COCO annotation loader: (image sizes in file order,
    per-image lists of :class:`Gt` in file order, categories,
    clamp warnings). Each bbox value goes through :func:`strict_number`, and
    each box is clamped with Python's ``min`` and ``max``. Raises the errors of
    ``load_dataset`` with the same messages."""
    from pyrsample.dataset import MAX_ID, MAX_IMAGE_SIDE, DatasetStructureError

    data = _oracle_json(path)
    if not isinstance(data, dict) or "images" not in data:
        raise DatasetStructureError(f"{path}: not a COCO annotation file")

    def section(key):
        entries = data.get(key, [])
        if not isinstance(entries, list):
            raise DatasetStructureError(f"{path}: {key!r} must be a JSON array")
        return entries

    sizes: dict[int, ImageSize] = {}
    for entry in section("images"):
        try:
            image_id = strict_int(entry["id"], "id")
            if not -MAX_ID - 1 <= image_id <= MAX_ID:
                raise ValueError(f"id must be in [{-MAX_ID - 1}, {MAX_ID}]: {image_id}")
            size = ImageSize(strict_int(entry["width"], "width"),
                             strict_int(entry["height"], "height"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DatasetStructureError(f"{path}: bad image entry {entry!r}: {exc}") from exc
        if image_id in sizes:
            raise DatasetStructureError(f"{path}: duplicate image id {image_id}")
        if max(size.width, size.height) > MAX_IMAGE_SIDE:
            raise DatasetStructureError(
                f"{path}: image id {image_id}: width and height must be at most "
                f"{MAX_IMAGE_SIDE}"
            )
        sizes[image_id] = size

    categories: dict[int, str] = {}
    for cat in section("categories"):
        try:
            categories[strict_int(cat["id"], "id")] = str(cat.get("name", cat["id"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DatasetStructureError(f"{path}: bad category entry {cat!r}: {exc}") from exc

    annotations: dict[int, list[Gt]] = {iid: [] for iid in sizes}
    clamp_warnings = 0
    dangling = []
    for position, ann in enumerate(section("annotations")):
        try:
            image_id = strict_int(ann["image_id"], "image_id")
            x, y, w, h = _oracle_xywh(ann["bbox"])
            class_id = strict_int(ann["category_id"], "category_id")
            if not 0 <= class_id <= MAX_ID:
                raise ValueError(f"category_id must be in [0, {MAX_ID}]: {class_id}")
            is_crowd = ann.get("iscrowd", 0)
            if is_crowd not in (False, True):  # 0, 1, 0.0, 1.0, false or true
                raise ValueError(f"iscrowd must be 0, 1, false or true: {is_crowd!r}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _oracle_entry_error(path, position, ann, exc) from exc
        if image_id not in sizes:
            dangling.append(image_id)
            continue
        size = sizes[image_id]
        corners = (x, y, x + w, y + h)
        limits = (size.width, size.height) * 2
        clamped = tuple(min(max(v, 0.0), limit) for v, limit in zip(corners, limits))
        if any(abs(c - v) > 1e-9 for c, v in zip(clamped, corners)):
            clamp_warnings += 1
        annotations[image_id].append(Gt(BoundingBox(*clamped), class_id, bool(is_crowd)))
    if dangling:
        raise DatasetStructureError(
            f"{path}: annotations reference missing image ids {sorted(set(dangling))[:20]}"
        )
    return sizes, annotations, categories, clamp_warnings


def load_proposals_oracle(path, sizes: dict) -> dict[int, tuple[list, list]]:
    """The per-entry COCO-results proposal loader over the image ``sizes`` of
    an annotation file: per image, in order of its first proposal, its
    clamped corner boxes and scores in file order. Each entry is checked in
    the order image id, bbox present, score a number (1.0 when absent),
    bbox, score in [0, 1]; each corner is clamped with ``max(v, 0.0)`` and
    then ``min(v, limit)``, which keep v on a tie, as for annotations.
    Raises the errors of ``load_proposals`` with the same messages."""
    from pyrsample.dataset import DatasetStructureError

    data = _oracle_json(path)
    if not isinstance(data, list):
        raise DatasetStructureError(f"{path}: results file must be a JSON array")
    rows = []
    for position, entry in enumerate(data):
        try:
            image_id = strict_int(entry["image_id"], "image_id")
            bbox = entry["bbox"]
            score = strict_number(entry.get("score", 1.0), "score")
            x, y, w, h = _oracle_xywh(bbox)
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"score not in [0, 1]: {score}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _oracle_entry_error(path, position, entry, exc) from exc
        rows.append((image_id, (x, y, x + w, y + h), score))
    dangling = sorted({image_id for image_id, _, _ in rows if image_id not in sizes})
    if dangling:
        raise DatasetStructureError(
            f"{path}: proposals reference missing image ids {dangling[:20]}"
        )
    proposals: dict[int, tuple[list, list]] = {}
    for image_id, corners, score in rows:
        size = sizes[image_id]
        limits = (size.width, size.height) * 2
        boxes, scores = proposals.setdefault(image_id, ([], []))
        boxes.append(tuple(min(max(v, 0.0), limit) for v, limit in zip(corners, limits)))
        scores.append(score)
    return proposals
