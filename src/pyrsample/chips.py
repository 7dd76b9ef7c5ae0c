"""Greedy chip sampling over a resized image pyramid.

Positive chips are fixed-size sub-regions greedily chosen from a stride
lattice so that every valid ground-truth box at a level is completely
enclosed by at least one chip. Negative chips cover leftover region
proposals so background stays represented during training. Both come from
one greedy cover that runs for every image of a level at once, on the
lattice cells that hold some box, so its cost follows the boxes rather
than the canvas.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .focus_chips import _pair_blocks
from .focus_spans import _count_at_most, _distinct
from .geometry import (
    BoundingBox,
    GroundTruthInstance,
    GroundTruthSet,
    ImageSize,
    ScaleSpec,
    boxes_array,
    rescale_boxes,
    scale_factors,
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


def _lattice_size(extent: np.ndarray, size: int, stride: int) -> np.ndarray:
    """The number of lattice cells along an axis of each ``extent``:
    ceil(max(extent - size, 0) / stride) + 1, as floats."""
    return -(-np.maximum(extent - size, 0.0) // stride) + 1


def _cell_starts(k: np.ndarray, extent: np.ndarray, size: int, stride: int) -> np.ndarray:
    """The origin of lattice cell ``k`` along an axis of ``extent``: the
    stride lattice, with the last origin snapped so that the cell ends at the
    far canvas edge."""
    return np.minimum(k * stride, np.maximum(extent - size, 0.0))


def _axis_ranges(
    lo: np.ndarray, hi: np.ndarray, extent: np.ndarray, size: int, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per element, the first and last index of the lattice cells along one
    axis that cover [lo, hi]: cell k spans s_k to min(s_k + size, extent)
    and covers when s_k <= lo and hi <= its end. None do when first > last.

    Both ends of a cell never decrease with k, so the covering cells form
    one index range. Each bound is estimated in closed form and then moved
    by one step, comparing against the cells' own float corners, so
    membership is the same IEEE comparison as on an enumerated lattice.
    The estimate of ``last`` may be one too high (a tiny negative lo whose
    quotient rounds to zero) or one too low (the snapped last origin); that of
    ``first`` is never too high, since hi - size is exact and rounding is
    monotone, and one too low only past the canvas edge, where no cell
    covers.
    """
    n = _lattice_size(extent, size, stride)

    def start(k):
        return _cell_starts(k, extent, size, stride)

    def end(k):
        return np.minimum(start(k) + size, extent)

    last = np.clip(np.floor(lo / stride), -1, n - 1)
    last += (last + 1 < n) & (start(last + 1) <= lo)
    last -= (last >= 0) & (start(last) > lo)
    first = np.clip(np.ceil((hi - size) / stride), 0, n - 1)
    first += end(first) < hi
    return first.astype(np.int64), last.astype(np.int64)


def _cell_ranges(
    boxes: np.ndarray, canvas: np.ndarray, spec: ScaleSpec, membership: str
) -> tuple[np.ndarray, np.ndarray]:
    """The (m, 2) first and (m, 2) last (row, col) lattice indices of the
    cells that cover each of the (m, 4) ``boxes`` on its (m, 2) canvas
    (width, height): by full closed enclosure, or by the box center (closed).
    Cells are ``chip_size`` square, clipped to the canvas along an axis
    shorter than a chip."""
    if membership == "center":
        lo = hi = (boxes[:, [1, 0]] + boxes[:, [3, 2]]) / 2.0
    else:
        lo, hi = boxes[:, [1, 0]], boxes[:, [3, 2]]
    return _axis_ranges(lo, hi, canvas[:, ::-1], spec.chip_size, spec.chip_stride)


def _cell_rects(
    rows: np.ndarray, cols: np.ndarray, canvas: np.ndarray, spec: ScaleSpec
) -> np.ndarray:
    """The (p, 4) corners of lattice cells (row, col) on their (p, 2) canvas."""
    origin = _cell_starts(
        np.stack([cols, rows], axis=1), canvas, spec.chip_size, spec.chip_stride
    ).reshape(-1, 2)
    return np.concatenate([origin, np.minimum(origin + spec.chip_size, canvas)], axis=1)


# Candidate cells that the lockstep cover holds at once over a block of
# images, which bounds its temporaries; an image that alone needs more runs
# alone.
_COVER_BLOCK = 1 << 18


def _cover_blocks(n_rows: np.ndarray, n_cols: np.ndarray):
    """Blocks of image indices, in order of candidate rows, whose padded
    grids (images x most rows x most columns) hold about ``_COVER_BLOCK``
    cells."""
    order = np.lexsort((n_cols, n_rows))
    start, widest = 0, 0
    for k, (rows, cols) in enumerate(zip(n_rows[order].tolist(), n_cols[order].tolist())):
        if k > start and (k - start + 1) * rows * max(widest, cols) > _COVER_BLOCK:
            yield order[start:k]
            start, widest = k, 0
        widest = max(widest, cols)
    if start < len(order):
        yield order[start:]


def _rect_counts(img, r0, r1, c0, c1, shape) -> np.ndarray:
    """The int32 grids of ``shape`` (images, rows, cols) holding at each cell
    the number of half-open rectangles [r0, r1) x [c0, c1) of image ``img``
    over it: a 2-D difference array and its cumulative sums."""
    n, rows, cols = shape
    stride = cols + 1
    base = img * ((rows + 1) * stride)
    size = n * (rows + 1) * stride
    diff = np.bincount(
        np.concatenate([base + r0 * stride + c0, base + r1 * stride + c1]), minlength=size
    ) - np.bincount(
        np.concatenate([base + r0 * stride + c1, base + r1 * stride + c0]), minlength=size
    )
    diff = diff.reshape(n, rows + 1, stride)
    return np.cumsum(np.cumsum(diff, axis=1, dtype=np.int32), axis=2, dtype=np.int32)[
        :, :rows, :cols
    ]


def _lockstep_cover(
    first: np.ndarray, last: np.ndarray, owners: np.ndarray, min_gain: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The greedy cover of every image at once: the (owner, row, col)
    lattice cells picked, by owner and then in pick order.

    Box i of image ``owners[i]`` is covered by the cells of rows first[i, 0]
    to last[i, 0] and columns first[i, 1] to last[i, 1]. Per image, the cell
    covering the most uncovered boxes is picked, the first in (row, col)
    order on ties, while that count is at least ``min_gain``.

    The first best cell is the one at (max first row, max first column) over
    the boxes it covers, so only rows and columns where some box's range
    starts are candidates. Each image's gains live on its candidate grid,
    from a difference array of the boxes' index rectangles; every step takes
    a row-major argmax per image, drops the images whose best gain is below
    ``min_gain``, and subtracts the rectangles of the boxes just covered.
    Images go in blocks of padded grids (``_cover_blocks``).
    """
    keep = (first <= last).all(axis=1)
    first, last, owners = first[keep], last[keep], owners[keep]
    images, owners = np.unique(owners, return_inverse=True)
    n_images = len(images)
    # Candidate rows and columns of each image, and each box's half-open
    # range of them.
    axes = []
    for axis in (0, 1):
        values, value_owner, index = _distinct(owners, first[:, axis])
        count = np.bincount(value_owner, minlength=n_images)
        offset = np.cumsum(count) - count
        stop = _count_at_most(value_owner, values, owners, last[:, axis]) - offset[owners]
        axes.append((values, count, offset, index - offset[owners], stop))
    (row_values, n_rows, row_offset, r0, r1), (col_values, n_cols, col_offset, c0, c1) = axes
    blocks = list(_cover_blocks(n_rows, n_cols))
    block_of, slot = np.empty(n_images, dtype=np.intp), np.empty(n_images, dtype=np.intp)
    for b, block in enumerate(blocks):
        block_of[block], slot[block] = b, np.arange(len(block))
    # One column per box: its image's slot in the block and its candidate
    # rectangle, grouped by block.
    by_block = np.argsort(block_of[owners], kind="stable")
    cuts = np.searchsorted(block_of[owners][by_block], np.arange(len(blocks) + 1))
    columns = np.stack([slot[owners], r0, r1, c0, c1])[:, by_block]
    picks = [(np.zeros(0, dtype=np.int64),) * 3]
    for block, lo, hi in zip(blocks, cuts, cuts[1:]):
        rows, cols = int(n_rows[block].max()), int(n_cols[block].max())
        live = columns[:, lo:hi]
        gains = _rect_counts(*live, (len(block), rows, cols))
        alive = block
        while True:
            flat = gains.reshape(len(alive), -1)
            best = flat.argmax(axis=1)
            going = flat[np.arange(len(best)), best] >= min_gain
            if not going.all():
                gains, alive, best = gains[going], alive[going], best[going]
                live = live[:, going[live[0]]]
                live[0] = (np.cumsum(going) - 1)[live[0]]
            if not len(alive):
                break
            row, col = np.divmod(best, cols)
            picks.append((alive, row_values[row_offset[alive] + row],
                          col_values[col_offset[alive] + col]))
            at, top, bottom, left, right = live
            r, c = row[at], col[at]
            hit = (top <= r) & (r < bottom) & (left <= c) & (c < right)
            gains -= _rect_counts(*live[:, hit], gains.shape)
            live = live[:, ~hit]
    image, row, col = (np.concatenate(part) for part in zip(*picks))
    order = np.argsort(image, kind="stable")
    return images[image[order]], row[order], col[order]


def _level_boxes(
    boxes: list[np.ndarray], originals: list[ImageSize], spec: ScaleSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every image's (n_i, 4) ``boxes`` rescaled from its original size to
    its canvas at ``spec``, stacked: the boxes, their image indices, the
    mask of rows whose resized area is valid there, and each image's canvas
    as (n_images, 2) width, height.

    The multiply and the area test are the IEEE operations of
    :func:`~pyrsample.geometry.rescale_boxes` and :func:`classify_box_validity`.
    """
    canvases = [spec.resolve(original) for original in originals]
    scales = np.array([scale_factors(o, c) for o, c in zip(originals, canvases)]).reshape(-1, 4)
    owners = np.repeat(np.arange(len(boxes)), [len(b) for b in boxes])
    resized = np.concatenate([np.zeros((0, 4)), *boxes]) * scales[owners]
    canvas = np.array([(c.width, c.height) for c in canvases], dtype=np.float64)
    return resized, owners, valid_area_mask(resized, spec), canvas.reshape(-1, 2)


def _cover(
    boxes: np.ndarray,
    owners: np.ndarray,
    canvas: np.ndarray,
    spec: ScaleSpec,
    membership: str,
    min_gain: int,
) -> list[np.ndarray]:
    """Per image of ``canvas``, the (p, 4) corners of the cells the greedy
    cover of its rows of ``boxes`` picks, in pick order."""
    first, last = _cell_ranges(boxes, canvas[owners], spec, membership)
    image, row, col = _lockstep_cover(first, last, owners, min_gain)
    rects = _cell_rects(row, col, canvas[image], spec)
    return np.split(rects, np.searchsorted(image, np.arange(1, len(canvas))))


def positive_cover(
    boxes: list[np.ndarray],
    crowd: list[np.ndarray],
    originals: list[ImageSize],
    spec: ScaleSpec,
) -> list[np.ndarray]:
    """The positive chips of level ``spec`` for every image at once: per
    image, the (p, 4) corners of the lattice cells that the greedy cover of
    its valid non-crowd ground truth picks, in pick order.

    Image i's (n_i, 4) ``boxes`` and (n_i,) ``crowd`` flags are in the frame
    of ``originals[i]``.
    """
    resized, owners, valid, canvas = _level_boxes(boxes, originals, spec)
    keep = valid & ~np.concatenate([np.zeros(0, dtype=bool), *crowd])
    return _cover(resized[keep], owners[keep], canvas, spec, "enclose", 1)


def _enclosed(
    boxes: np.ndarray, owners: np.ndarray, rects: np.ndarray, rect_owners: np.ndarray
) -> np.ndarray:
    """Mask of the (m, 4) ``boxes`` that some rect of the same owner
    encloses (closed), compared in blocks of box-rect pairs."""
    order = np.argsort(rect_owners, kind="stable")
    rects, rect_owners = rects[order], rect_owners[order]
    first = np.searchsorted(rect_owners, owners)
    stop = np.searchsorted(rect_owners, owners, side="right")
    out = np.zeros(len(boxes), dtype=bool)
    for i, j in _pair_blocks(first, stop):
        inside = (rects[j, :2] <= boxes[i, :2]).all(axis=1)
        inside &= (rects[j, 2:] >= boxes[i, 2:]).all(axis=1)
        out[i[inside]] = True
    return out


def negative_cover(
    boxes: list[np.ndarray],
    originals: list[ImageSize],
    spec: ScaleSpec,
    positive: list[np.ndarray],
    min_proposals: int = 2,
    membership: str = "center",
) -> list[np.ndarray]:
    """The negative chips of level ``spec`` for every image at once: per
    image, the (p, 4) corners of the lattice cells picked, in pick order.

    Image i's (n_i, 4) proposal ``boxes`` are in the frame of
    ``originals[i]``; those whose resized area is outside the level's valid
    range, or that one of the (q_i, 4) ``positive`` chip corners of the
    image at this level encloses, are dropped. Cells are then greedily
    picked while the best one still covers at least ``min_proposals``
    remaining proposals, by ``membership``: the proposal's center or its
    full enclosure.
    """
    if membership not in ("center", "enclose"):
        raise ValueError(f"unknown membership rule: {membership}")
    if min_proposals < 1:
        raise ValueError("min_proposals must be >= 1")
    resized, owners, keep, canvas = _level_boxes(boxes, originals, spec)
    rect_owners = np.repeat(np.arange(len(positive)), [len(p) for p in positive])
    rects = np.concatenate([np.zeros((0, 4)), *positive])
    keep[keep] = ~_enclosed(resized[keep], owners[keep], rects, rect_owners)
    return _cover(resized[keep], owners[keep], canvas, spec, membership, min_proposals)


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


def select_positive_chips(
    gts: GroundTruthSet | list[GroundTruthInstance],
    pyramid: list[ScaleSpec],
    original: ImageSize,
    rects: list[np.ndarray] | None = None,
) -> tuple[list[Chip], list[UncoverableGt]]:
    """Greedy positive-chip selection over all pyramid levels.

    Per level: resize the ground truth, keep the boxes whose resized area is
    valid there, then repeatedly take the lattice chip enclosing the most
    not-yet-covered valid boxes until all are covered. Ties go to the chip
    with the smallest (row, col) origin. Crowd boxes never count toward
    coverage but are still attached to chips for label assignment.

    Valid boxes too large for any lattice chip are returned as diagnostics
    rather than silently dropped.

    ``rects`` gives, per level, the chip corners that :func:`positive_cover`
    picked for this image in a batch of images; by default the cover runs
    for this image alone.
    """
    gts = GroundTruthSet.of(gts)
    gt_boxes, crowd = gts.boxes, gts.crowd
    chips: list[Chip] = []
    diagnostics: list[UncoverableGt] = []
    for level, spec in enumerate(pyramid):
        if rects is None:
            picked = positive_cover([gt_boxes], [crowd], [original], spec)[0]
        else:
            picked = rects[level]
        resized = rescale_boxes(gt_boxes, original, spec.resolve(original))
        valid = valid_area_mask(resized, spec)
        enclosed = np.zeros(len(gt_boxes), dtype=bool)
        attached = _attach_gt(picked, resized) if len(picked) else []
        for corners, (covered, cropped) in zip(picked.tolist(), attached):
            enclosed[list(covered)] = True
            chips.append(
                Chip(
                    rect=BoundingBox(*corners),
                    scale_id=spec.scale_id,
                    kind=POSITIVE,
                    covered_gt_ids=covered,
                    cropped_gt=cropped,
                )
            )
        for gt_id in np.flatnonzero(valid & ~crowd & ~enclosed).tolist():
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
    pool: list[Chip] = []
    for spec in pyramid:
        pos_rects = boxes_array([c.rect for c in positive if c.scale_id == spec.scale_id])
        rects = negative_cover(
            [proposals.boxes], [original], spec, [pos_rects], min_proposals, membership
        )[0]
        pool.extend(
            Chip(rect=BoundingBox(*rect), scale_id=spec.scale_id, kind=NEGATIVE)
            for rect in rects.tolist()
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
