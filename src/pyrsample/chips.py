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
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby, repeat
from typing import NamedTuple

import numpy as np

from .focus_spans import _count_at_most, _distinct, _pair_blocks
from .geometry import GroundTruthSet, ScaleSpec, canvas_sizes, csr_take, level_boxes
from .range_labels import valid_area_mask

POSITIVE = "positive"
NEGATIVE = "negative"
FOCUS = "focus"


class ChipRow(NamedTuple):
    """One row of a :class:`ChipBatch`."""

    image_id: int
    scale_id: int
    kind: str
    rect: tuple[float, float, float, float]  # x1, y1, x2, y2
    covered_gt_ids: tuple[int, ...]
    cropped_gt: tuple[tuple[int, tuple[float, float, float, float]], ...]


class ChipBatch(Sequence):
    """Chips of one ``kind`` as columns: ``image_ids`` (p,) int64,
    ``scale_ids`` (p,) int64 and ``rects`` (p, 4) float64 corners x1, y1,
    x2, y2 in the resized frame of the chip's scale.

    Ground truth attached to a chip is held as CSR rows over gt ids, each
    the index of a box in its image's ground truth. Chip i covers the boxes
    it encloses, ``covered_ids[covered_offsets[i]:covered_offsets[i + 1]]``,
    and crops the boxes it only overlaps, ``cropped_ids`` over the same
    range of ``cropped_offsets``, with ``cropped_boxes`` (q, 4) the
    intersection of each with the chip. Both are in the resized frame of
    ``scale_id``, like ``rect``, not relative to the chip's origin.

    A batch is also a read-only sequence of :class:`ChipRow` tuples, built
    on access; a slice, a mask or an index array gives a batch. Without
    ``covered`` or ``cropped``, no chip holds any.
    """

    __slots__ = ("image_ids", "scale_ids", "rects", "kind", "covered_offsets", "covered_ids",
                 "cropped_offsets", "cropped_ids", "cropped_boxes")

    def __init__(
        self, image_ids: np.ndarray, scale_ids: np.ndarray, rects: np.ndarray, kind: str,
        covered: tuple | None = None, cropped: tuple | None = None,
    ) -> None:
        self.image_ids, self.scale_ids, self.rects, self.kind = image_ids, scale_ids, rects, kind
        empty = np.zeros(len(image_ids) + 1, dtype=np.intp), np.zeros(0, dtype=np.int64)
        self.covered_offsets, self.covered_ids = empty if covered is None else covered
        self.cropped_offsets, self.cropped_ids, self.cropped_boxes = (
            (*empty, np.zeros((0, 4))) if cropped is None else cropped
        )

    def __len__(self) -> int:
        return len(self.image_ids)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return next(iter(self[[key]]))
        rows = np.arange(len(self))[key]
        covered, at = csr_take(self.covered_offsets, rows)
        cropped, cut = csr_take(self.cropped_offsets, rows)
        return ChipBatch(
            self.image_ids[rows], self.scale_ids[rows], self.rects[rows], self.kind,
            (covered, self.covered_ids[at]),
            (cropped, self.cropped_ids[cut], self.cropped_boxes[cut]),
        )

    def __iter__(self):
        covered, at = self.covered_ids.tolist(), self.covered_offsets.tolist()
        cropped = list(zip(self.cropped_ids.tolist(), map(tuple, self.cropped_boxes.tolist())))
        cut = self.cropped_offsets.tolist()
        return map(
            ChipRow, self.image_ids.tolist(), self.scale_ids.tolist(), repeat(self.kind),
            map(tuple, self.rects.tolist()), (tuple(covered[a:b]) for a, b in zip(at, at[1:])),
            (tuple(cropped[a:b]) for a, b in zip(cut, cut[1:])),
        )


@dataclass(eq=False)
class ProposalSet:
    """Scored region proposals in the original-image frame: ``boxes`` (n, 4)
    float64 corners x1, y1, x2, y2 and ``scores`` (n,) float64 in [0, 1].
    As with :class:`~pyrsample.geometry.GroundTruthSet`, ``len`` is the row
    count, indexing with a slice, a mask or an index array gives a set, and
    a set is not iterable."""

    boxes: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        self.boxes = np.asarray(self.boxes, dtype=np.float64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.boxes.shape != (len(self.scores), 4):
            raise ValueError("boxes must be (n, 4) with one score per box")
        if ((self.boxes[:, 2] < self.boxes[:, 0]) | (self.boxes[:, 3] < self.boxes[:, 1])).any():
            raise ValueError("proposal corners out of order")
        bad = ~((0.0 <= self.scores) & (self.scores <= 1.0))
        if bad.any():
            raise ValueError(f"proposal score out of range: {self.scores[bad.argmax()]}")

    __iter__ = None

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, key) -> "ProposalSet":
        return ProposalSet(self.boxes[key], self.scores[key])


@dataclass(eq=False)
class UncoverableBoxes:
    """Valid ground-truth boxes no lattice chip can enclose (larger than K),
    as columns: ``image_ids``, ``gt_ids`` and ``scale_ids`` (n,) int64 and
    ``resized_boxes`` (n, 4) float64 corners in the resized frame of the
    scale."""

    image_ids: np.ndarray
    gt_ids: np.ndarray
    scale_ids: np.ndarray
    resized_boxes: np.ndarray

    def __len__(self) -> int:
        return len(self.gt_ids)


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
    # Counts are below 2^31, so one int64 key orders by rows, then columns.
    order = np.argsort(n_rows.astype(np.int64) << 32 | n_cols, kind="stable")
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
    over it: a 2-D difference array and its running sums along each row,
    then along each column.

    Every row of the difference array sums to 0, and so does every column of
    an image, so one running sum over the flat array is the per-row sums,
    and one down the columns of all images' rows stacked is the per-column
    sums.
    """
    n, rows, cols = shape
    stride = cols + 1
    base = img * ((rows + 1) * stride)
    diff = np.zeros(n * (rows + 1) * stride, dtype=np.int32)
    # An int32 value keeps np.add.at on its fast path; a Python int does not.
    for value, (a, b) in ((1, (c0, c1)), (-1, (c1, c0))):
        np.add.at(diff, np.concatenate([base + r0 * stride + a, base + r1 * stride + b]),
                  np.int32(value))
    np.cumsum(diff, out=diff)
    stacked = diff.reshape(-1, stride)
    np.cumsum(stacked, axis=0, out=stacked)
    return diff.reshape(n, rows + 1, stride)[:, :rows, :cols]


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
    boxes: np.ndarray, offsets: np.ndarray, sizes: np.ndarray, canvas: np.ndarray,
    spec: ScaleSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every image's rows of the run-wide (N, 4) ``boxes``, cut by the
    (n + 1,) ``offsets``, rescaled from its row of the (n, 2) ``sizes`` to
    its row of the (n, 2) ``canvas`` of level ``spec``: the boxes, their
    image indices, and the mask of rows whose resized area is valid there.

    The rescale is :func:`~pyrsample.geometry.level_boxes` and the area
    test :func:`~pyrsample.range_labels.valid_area_mask`.
    """
    resized, owners = level_boxes(boxes, offsets, sizes, np.arange(len(canvas)), canvas)
    return resized, owners, valid_area_mask(resized, spec)


def _cover(
    boxes: np.ndarray,
    owners: np.ndarray,
    canvas: np.ndarray,
    spec: ScaleSpec,
    membership: str,
    min_gain: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The greedy cover of each image of ``canvas`` over its rows of
    ``boxes``: the image index of every cell picked and its (p, 4) corners,
    by image and then in pick order."""
    first, last = _cell_ranges(boxes, canvas[owners], spec, membership)
    image, row, col = _lockstep_cover(first, last, owners, min_gain)
    return image, _cell_rects(row, col, canvas[image], spec)


def _positive_levels(
    gts: GroundTruthSet, offsets: np.ndarray, sizes: np.ndarray, pyramid: list[ScaleSpec]
):
    """Per level of ``pyramid``, the positive cover of every image at once:
    the rescaled ground truth and its image indices (``_level_boxes``), the
    mask of the rows a positive chip must enclose (valid there and not
    crowd), each image's (n, 2) float canvas, and the image index and
    (p, 4) corners of every cell that the greedy cover of those rows picks,
    by image and then in pick order.

    Image i's ground truth is rows ``offsets[i]:offsets[i + 1]`` of the
    run-wide ``gts``, in the frame of its row of the (n, 2) ``sizes``.
    """
    for spec in pyramid:
        canvas = canvas_sizes(spec, sizes).astype(np.float64)
        resized, owners, valid = _level_boxes(gts.boxes, offsets, sizes, canvas, spec)
        keep = valid & ~gts.crowd
        cover = _cover(resized[keep], owners[keep], canvas, spec, "enclose", 1)
        yield resized, owners, keep, canvas, cover


def _same_key_pairs(image: np.ndarray, owners: np.ndarray):
    """The index pairs (i, j) with image[i] == owners[j], both keys
    non-decreasing, by i and then j, in blocks (``_pair_blocks``)."""
    first, stop = np.searchsorted(owners, image), np.searchsorted(owners, image, side="right")
    return _pair_blocks(first, stop)


def _attach_gt(
    rects: np.ndarray, image: np.ndarray, boxes: np.ndarray, owners: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of a chip of the (p, 4) ``rects`` and a box of the (n, 4)
    ``boxes`` with the same key (``image`` and ``owners``, both
    non-decreasing) where the chip encloses the box (closed) or overlaps it
    with positive area: the chip index, the box index, whether the chip
    encloses the box, and the box clipped to the chip; by chip, then box.
    Clipping leaves an enclosed box unchanged, and a box overlaps when its
    clipped extent is positive on both axes."""
    parts = [(np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0, dtype=bool), np.zeros((0, 4)))]
    for i, j in _same_key_pairs(image, owners):
        clipped = np.concatenate(
            [np.maximum(rects[i, :2], boxes[j, :2]), np.minimum(rects[i, 2:], boxes[j, 2:])],
            axis=1,
        )
        inside = (clipped == boxes[j]).all(axis=1)
        meets = inside | (clipped[:, 2:] > clipped[:, :2]).all(axis=1)
        parts.append((i[meets], j[meets], inside[meets], clipped[meets]))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _enclosed(
    rects: np.ndarray, image: np.ndarray, boxes: np.ndarray, owners: np.ndarray
) -> np.ndarray:
    """Which of the (n, 4) ``boxes`` some chip of the (p, 4) ``rects`` with
    the same key (``image`` and ``owners``, both non-decreasing) encloses
    (closed). For finite boxes this is the ``inside`` of :func:`_attach_gt`,
    since max(r, b) == b exactly when r <= b, without the clipping."""
    enclosed = np.zeros(len(boxes), dtype=bool)
    for i, j in _same_key_pairs(image, owners):
        inside = (rects[i, :2] <= boxes[j, :2]) & (boxes[j, 2:] <= rects[i, 2:])
        enclosed[j[inside.all(axis=1)]] = True
    return enclosed


def _by_image(
    covers: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-level (image index, (p, 4) corners) ``covers`` stacked by image,
    then level, then pick order: the image indices, levels and corners."""
    level = np.repeat(np.arange(len(covers)), [len(image) for image, _ in covers])
    image = np.concatenate([np.zeros(0, dtype=np.intp), *(image for image, _ in covers)])
    rects = np.concatenate([np.zeros((0, 4)), *(rects for _, rects in covers)])
    order = np.argsort(image * len(covers) + level, kind="stable")
    return image[order], level[order], rects[order]


def select_positive_chips(
    gts: GroundTruthSet,
    offsets: np.ndarray,
    pyramid: list[ScaleSpec],
    sizes: np.ndarray,
    image_ids: np.ndarray,
) -> tuple[ChipBatch, UncoverableBoxes]:
    """Greedy positive-chip selection over all pyramid levels, for every
    image at once: image i, with id ``image_ids[i]`` and size ``sizes[i]``
    (width, height), has rows ``offsets[i]:offsets[i + 1]`` of the run-wide
    ground truth ``gts``; ``offsets`` runs from 0 to ``len(gts)``.

    Per level: resize the ground truth, keep the boxes whose resized area is
    valid there, then repeatedly take the lattice chip enclosing the most
    not-yet-covered valid boxes until all are covered. Ties go to the chip
    with the smallest (row, col) origin. Crowd boxes never count toward
    coverage but are still attached to chips for label assignment.

    Chips come by image, then level, then pick order. Valid boxes too large
    for any lattice chip are returned as diagnostics rather than silently
    dropped, by image, then level, then gt id.
    """
    n = len(pyramid)
    gt_ids = np.arange(len(gts)) - np.repeat(offsets[:-1], np.diff(offsets))
    covers = []
    # Per row of every level's boxes: its (image, level) key, gt id, resized
    # box and whether it must be covered.
    rows = [(np.zeros(0, dtype=np.intp), gt_ids[:0], np.zeros((0, 4)), np.zeros(0, dtype=bool))]
    levels = _positive_levels(gts, offsets, sizes, pyramid)
    for level, (resized, owners, keep, _, cover) in enumerate(levels):
        covers.append(cover)
        rows.append((owners * n + level, gt_ids, resized, keep))
    image, level, rects = _by_image(covers)
    key, gt, boxes, keep = (np.concatenate(column) for column in zip(*rows))
    order = np.argsort(key, kind="stable")  # by image, then level, then gt id, as the chips
    key, gt, boxes, keep = key[order], gt[order], boxes[order], keep[order]
    chip, box, inside, clipped = _attach_gt(rects, image * n + level, boxes, key)
    keep[box[inside]] = False
    gone = np.flatnonzero(keep)  # valid boxes no chip encloses
    ids = np.asarray(image_ids, dtype=np.int64)
    scale_ids = np.array([spec.scale_id for spec in pyramid], dtype=np.int64)
    bounds = np.arange(len(rects) + 1)
    chips = ChipBatch(
        ids[image], scale_ids[level], rects, POSITIVE,
        (np.searchsorted(chip[inside], bounds), gt[box[inside]]),
        (np.searchsorted(chip[~inside], bounds), gt[box[~inside]], clipped[~inside]),
    )
    return chips, UncoverableBoxes(
        ids[key[gone] // n], gt[gone], scale_ids[key[gone] % n], boxes[gone]
    )


def select_negative_chips(
    gts: GroundTruthSet,
    gt_offsets: np.ndarray,
    proposals: ProposalSet,
    proposal_offsets: np.ndarray,
    pyramid: list[ScaleSpec],
    sizes: np.ndarray,
    image_ids: np.ndarray,
    min_proposals: int = 2,
    membership: str = "center",
) -> ChipBatch:
    """Pool of negative chips for every image at once: image i, with id
    ``image_ids[i]`` and size ``sizes[i]``, has rows
    ``gt_offsets[i]:gt_offsets[i + 1]`` of the run-wide ground truth
    ``gts`` and rows ``proposal_offsets[i]:proposal_offsets[i + 1]`` of the
    run-wide ``proposals``.

    Per level, the proposals whose resized area is valid there and that no
    positive chip of the image at this level (those of
    :func:`select_positive_chips`) encloses are covered: cells are greedily
    picked while the best one still covers at least ``min_proposals`` of
    them, by ``membership``: the proposal's center or its full enclosure.
    Chips come by image, then level, then pick order.
    """
    if membership not in ("center", "enclose"):
        raise ValueError(f"unknown membership rule: {membership}")
    if min_proposals < 1:
        raise ValueError("min_proposals must be >= 1")
    covers = []
    levels = _positive_levels(gts, gt_offsets, sizes, pyramid)
    for spec, (*_, canvas, (chip_owners, chips)) in zip(pyramid, levels):
        resized, owners, keep = _level_boxes(proposals.boxes, proposal_offsets, sizes, canvas, spec)
        kept = np.flatnonzero(keep)
        keep[kept[_enclosed(chips, chip_owners, resized[kept], owners[kept])]] = False
        covers.append(_cover(resized[keep], owners[keep], canvas, spec, membership, min_proposals))
    image, level, rects = _by_image(covers)
    return ChipBatch(
        np.asarray(image_ids, dtype=np.int64)[image],
        np.array([spec.scale_id for spec in pyramid], dtype=np.int64)[level],
        rects,
        NEGATIVE,
    )


def sample_negative_chips(pool: ChipBatch, n_per_image: int, seed: int) -> ChipBatch:
    """Per image, a uniform sample of ``n_per_image`` of its chips without
    replacement, or all of them when it has no more; the chips of an image
    are consecutive rows of ``pool``. Image ``image_id`` draws with
    ``random.Random(seed + image_id)``."""
    if n_per_image < 0:
        raise ValueError("n_per_image must be >= 0")
    rows: list[int] = []
    for image_id, group in groupby(range(len(pool)), key=pool.image_ids.tolist().__getitem__):
        group = list(group)
        if len(group) > n_per_image:
            group = random.Random(seed + image_id).sample(group, n_per_image)
        rows += group
    return pool[np.array(rows, dtype=np.intp)]
