"""Greedy chip sampling over a resized image pyramid.

Positive chips are fixed-size sub-regions greedily chosen from a stride
lattice so that every valid ground-truth box at a level is completely
enclosed by at least one chip. Negative chips cover leftover region
proposals so background stays represented during training.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .geometry import (
    BoundingBox,
    GroundTruthInstance,
    ImageSize,
    ScaleSpec,
    boxes_array,
    rescale_boxes,
)
from .range_labels import valid_area_mask

POSITIVE = "positive"
NEGATIVE = "negative"
FOCUS = "focus"


@dataclass(frozen=True)
class Chip:
    """A rectangular sub-region pinned to one pyramid level.

    ``rect`` is in the resized frame of ``scale_id``. ``covered_gt_ids`` are
    indices of ground-truth boxes completely enclosed by the chip;
    ``cropped_gt`` holds (gt index, intersection rectangle) for boxes that
    only partially overlap. Both are in the chip's frame of reference.
    """

    rect: BoundingBox
    scale_id: int
    kind: str = POSITIVE
    covered_gt_ids: tuple[int, ...] = ()
    cropped_gt: tuple[tuple[int, BoundingBox], ...] = ()


@dataclass(eq=False)
class ProposalSet:
    """Scored region proposals in the original-image frame: ``boxes`` (n, 4)
    float64 corners x1, y1, x2, y2 and ``scores`` (n,) float64 in [0, 1].

    A sequence of :class:`BoundingBox` is accepted for ``boxes`` and stored
    as the array.
    """

    boxes: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.boxes, np.ndarray):
            self.boxes = boxes_array(self.boxes)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.boxes.shape != (len(self.scores), 4):
            raise ValueError("boxes must be (n, 4) with one score per box")
        if ((self.boxes[:, 2] < self.boxes[:, 0]) | (self.boxes[:, 3] < self.boxes[:, 1])).any():
            raise ValueError("proposal corners out of order")
        bad = ~((0.0 <= self.scores) & (self.scores <= 1.0))
        if bad.any():
            raise ValueError(f"proposal score out of range: {self.scores[bad.argmax()]}")


@dataclass(frozen=True)
class UncoverableGt:
    """A valid ground-truth box no lattice chip can enclose (larger than K)."""

    gt_id: int
    scale_id: int
    resized_box: BoundingBox


def _axis_origins(extent: int, size: int, stride: int) -> list[float]:
    """Chip origins along one axis: the stride lattice plus an edge-snapped
    final origin so the far canvas edge is always covered."""
    if extent <= size:
        return [0.0]
    origins = list(np.arange(0, extent - size + 1, stride, dtype=float))
    if origins[-1] + size < extent:
        origins.append(float(extent - size))
    return origins


def _lattice(
    canvas: ImageSize, spec: ScaleSpec, boxes: np.ndarray, membership: str
) -> tuple[np.ndarray, np.ndarray]:
    """The level's lattice cells as an (n_cells, 4) array in (row, col) order,
    and the boolean (n_cells, n_boxes) matrix of which cell covers which of
    the (n, 4) ``boxes``: by full closed enclosure, or by the box center
    (closed). Cells are ``chip_size`` square, clipped to the canvas along an
    axis shorter than a chip.

    Both tests split into a column part and a row part, so each is computed
    per axis and the matrix is their outer AND.
    """
    axes = []
    for extent, lo, hi in ((canvas.width, 0, 2), (canvas.height, 1, 3)):
        starts = np.asarray(_axis_origins(extent, spec.chip_size, spec.chip_stride))
        spans = np.stack([starts, np.minimum(starts + spec.chip_size, extent)], axis=1)
        if membership == "center":
            first = last = (boxes[:, lo] + boxes[:, hi]) / 2.0
        else:
            first, last = boxes[:, lo], boxes[:, hi]
        axes.append((spans, (spans[:, :1] <= first) & (spans[:, 1:] >= last)))
    (xs, in_x), (ys, in_y) = axes
    cells = np.empty((len(ys), len(xs), 4), dtype=float)
    cells[:, :, 0::2] = xs
    cells[:, :, 1::2] = ys[:, None]
    member = in_y[:, None, :] & in_x[None, :, :]
    return cells.reshape(-1, 4), member.reshape(len(ys) * len(xs), len(boxes))


def _enclosure_matrix(cells: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Boolean (n_cells, n_boxes): closed containment of box inside cell."""
    if cells.size == 0 or boxes.size == 0:
        return np.zeros((cells.shape[0], boxes.shape[0]), dtype=bool)
    return (
        (cells[:, None, 0] <= boxes[None, :, 0])
        & (cells[:, None, 1] <= boxes[None, :, 1])
        & (cells[:, None, 2] >= boxes[None, :, 2])
        & (cells[:, None, 3] >= boxes[None, :, 3])
    )


def _greedy_cover(member: np.ndarray, min_gain: int = 1) -> tuple[list[int], np.ndarray]:
    """Pick the cell covering the most uncovered columns of the boolean
    (n_cells, n_boxes) ``member`` while that count is at least ``min_gain``.

    Cells must be ordered by (row, col) origin so that np.argmax's
    first-maximum rule implements the deterministic tie-break. Each cell's
    count is kept up to date by subtracting the columns a pick covers, so a
    picked cell drops to 0 and is never picked twice. Returns the picked
    cell indices and the indices of the columns left uncovered.
    """
    gains = member.sum(axis=1)
    uncovered = np.ones(member.shape[1], dtype=bool)
    picked: list[int] = []
    while True:
        best = int(np.argmax(gains))
        if gains[best] < min_gain:
            break
        picked.append(best)
        newly = member[best] & uncovered
        uncovered &= ~newly
        gains -= member[:, newly].sum(axis=1)
    return picked, np.flatnonzero(uncovered)


def _attach_gt(
    rects: np.ndarray, boxes: np.ndarray
) -> list[tuple[tuple[int, ...], tuple[tuple[int, BoundingBox], ...]]]:
    """Per row of the (p, 4) chip corners ``rects``: the indices of the
    (n, 4) ``boxes`` the chip encloses (closed), and (index, intersection)
    for every other box that overlaps the chip with positive area, the test
    of :meth:`BoundingBox.intersection`.

    Both tests read the boxes clipped to each chip, computed for all pairs
    at once: a box is enclosed when clipping leaves it unchanged, and it
    overlaps when its clipped extent is positive on both axes.
    """
    clipped = np.concatenate(
        [np.maximum(rects[:, None, :2], boxes[:, :2]), np.minimum(rects[:, None, 2:], boxes[:, 2:])],
        axis=2,
    )
    covered = (clipped == boxes).all(axis=2).tolist()
    overlap = (clipped[..., 2:] > clipped[..., :2]).all(axis=2).tolist()
    return [
        (
            tuple(i for i, inside in enumerate(row) if inside),
            tuple(
                (i, BoundingBox(*corners[i]))
                for i, (inside, meets) in enumerate(zip(row, hits))
                if meets and not inside
            ),
        )
        for row, hits, corners in zip(covered, overlap, clipped.tolist())
    ]


def _level_boxes(
    boxes: np.ndarray, original: ImageSize, canvas: ImageSize, spec: ScaleSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 4) ``boxes`` rescaled from ``original`` to ``canvas``, with the
    mask of rows whose resized area is valid at ``spec``.

    The multiply and the area test are the IEEE operations of
    :func:`rescale_box` and :func:`classify_box_validity`.
    """
    resized = rescale_boxes(boxes, original, canvas)
    return resized, valid_area_mask(resized, spec)


def select_positive_chips(
    gts: list[GroundTruthInstance],
    pyramid: list[ScaleSpec],
    original: ImageSize,
) -> tuple[list[Chip], list[UncoverableGt]]:
    """Greedy positive-chip selection over all pyramid levels.

    Per level: resize the ground truth, keep the boxes whose resized area is
    valid there, then repeatedly take the lattice chip enclosing the most
    not-yet-covered valid boxes until all are covered. Ties go to the chip
    with the smallest (row, col) origin. Crowd boxes never count toward
    coverage but are still attached to chips for label assignment.

    Valid boxes too large for any lattice chip are returned as diagnostics
    rather than silently dropped.
    """
    chips: list[Chip] = []
    diagnostics: list[UncoverableGt] = []
    gt_boxes = boxes_array([gt.box for gt in gts])
    not_crowd = np.array([not gt.is_crowd for gt in gts], dtype=bool)
    for spec in pyramid:
        canvas = spec.resolve(original)
        resized, valid = _level_boxes(gt_boxes, original, canvas, spec)
        valid_ids = np.flatnonzero(valid & not_crowd)
        if not valid_ids.size:
            continue
        cells, member = _lattice(canvas, spec, resized[valid_ids], "enclose")
        picked, uncovered = _greedy_cover(member)
        rects = cells[picked]
        for corners, (covered, cropped) in zip(rects.tolist(), _attach_gt(rects, resized)):
            chips.append(
                Chip(
                    rect=BoundingBox(*corners),
                    scale_id=spec.scale_id,
                    kind=POSITIVE,
                    covered_gt_ids=covered,
                    cropped_gt=cropped,
                )
            )
        for gt_id in valid_ids[uncovered].tolist():
            diagnostics.append(
                UncoverableGt(
                    gt_id=gt_id,
                    scale_id=spec.scale_id,
                    resized_box=BoundingBox(*resized[gt_id].tolist()),
                )
            )
    return chips, diagnostics


def select_negative_chips(
    proposals: ProposalSet,
    positive: list[Chip],
    pyramid: list[ScaleSpec],
    original: ImageSize,
    min_proposals: int = 2,
    membership: str = "center",
) -> list[Chip]:
    """Pool of negative chips covering proposals missed by positive chips.

    Per level: proposals enclosed by any positive chip of that level are
    dropped, as are proposals whose resized area is outside the level's valid
    range. Lattice chips are then greedily selected while the best chip still
    covers at least ``min_proposals`` remaining proposals; each selection
    removes the proposals it covers. ``membership`` decides when a chip
    covers a proposal: by its center point (default) or by full enclosure.
    """
    if membership not in ("center", "enclose"):
        raise ValueError(f"unknown membership rule: {membership}")
    if min_proposals < 1:
        raise ValueError("min_proposals must be >= 1")
    pool: list[Chip] = []
    for spec in pyramid:
        canvas = spec.resolve(original)
        resized, valid = _level_boxes(proposals.boxes, original, canvas, spec)
        boxes = resized[valid]
        pos_rects = boxes_array([c.rect for c in positive if c.scale_id == spec.scale_id])
        boxes = boxes[~_enclosure_matrix(pos_rects, boxes).any(axis=0)]
        if len(boxes) < min_proposals:
            continue
        cells, member = _lattice(canvas, spec, boxes, membership)
        picked, _ = _greedy_cover(member, min_proposals)
        pool.extend(
            Chip(rect=BoundingBox(*rect), scale_id=spec.scale_id, kind=NEGATIVE)
            for rect in cells[picked].tolist()
        )
    return pool


def sample_negative_chips(pool: list[Chip], n_per_image: int, seed: int) -> list[Chip]:
    """Uniform sample without replacement; the whole pool when it is small."""
    if n_per_image < 0:
        raise ValueError("n_per_image must be >= 0")
    if len(pool) <= n_per_image:
        return list(pool)
    rng = random.Random(seed)
    return rng.sample(pool, n_per_image)
