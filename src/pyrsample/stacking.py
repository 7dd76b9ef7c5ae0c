"""Cross-scale detection stacking: boundary pruning, projection, suppression.

Detections produced inside a zoomed-in chip can be fragments of larger
objects cut by the chip edge. Chip generation dilates around interesting
regions, so a genuine object never touches an interior chip border; anything
that does touch one is discarded. Surviving detections are projected back to
the original image frame and combined across scales with (soft-)NMS.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import BoundingBox, DetectionBatch, ImageSize

HARD = "hard"
GAUSSIAN = "gaussian"
LINEAR = "linear"

DEFAULT_BOUNDARY_EPS = 1.0


@dataclass(frozen=True)
class MergePolicy:
    """How detections are combined across scales.

    ``hard`` removes lower-scored boxes whose IoU with a kept box exceeds
    ``iou_threshold``. ``gaussian`` rescores every overlapping box by
    exp(-iou^2 / sigma); ``linear`` rescores by (1 - iou) when the IoU
    exceeds the threshold. Rescored boxes below ``score_floor`` are dropped.
    """

    mode: str = GAUSSIAN
    iou_threshold: float = 0.5
    sigma: float = 0.5
    score_floor: float = 0.001

    def __post_init__(self) -> None:
        if self.mode not in (HARD, GAUSSIAN, LINEAR):
            raise ValueError(f"unknown merge mode: {self.mode}")
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1): {self.iou_threshold}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive: {self.sigma}")
        if not 0.0 <= self.score_floor < 1.0:
            raise ValueError(f"score_floor must be in [0, 1): {self.score_floor}")


def prune_boundary_detections(
    dets: DetectionBatch,
    chip: BoundingBox,
    image: ImageSize,
    eps: float = DEFAULT_BOUNDARY_EPS,
    border_tol: float = 1e-6,
) -> DetectionBatch:
    """Drop detections flush against an interior chip edge.

    Detections and the chip rectangle share the resized-image frame. A chip
    edge that coincides with the image border is exempt: touching it never
    discards, so a detection may sit on one or even all shared borders as
    long as every chip edge it touches is a shared border. ``eps`` is the
    touch tolerance in pixels.
    """
    discard = np.zeros(len(dets), dtype=bool)
    edges = (
        (0, chip.x1, chip.x1 > border_tol),
        (1, chip.y1, chip.y1 > border_tol),
        (2, chip.x2, chip.x2 < image.width - border_tol),
        (3, chip.y2, chip.y2 < image.height - border_tol),
    )
    for column, edge, interior in edges:
        if interior:
            discard |= np.abs(dets.boxes[:, column] - edge) <= eps
    return dets[~discard]


def project_to_image(
    dets: DetectionBatch,
    from_canvas: ImageSize,
    chip_origin: tuple[float, float],
    original: ImageSize,
) -> DetectionBatch:
    """Map chip-local detections to original-image coordinates.

    Translates by the chip origin within the resized canvas, then rescales
    canvas -> original. Scores and classes are unchanged.
    """
    ox, oy = chip_origin
    fx = original.width / from_canvas.width
    fy = original.height / from_canvas.height
    boxes = (dets.boxes + (ox, oy, ox, oy)) * (fx, fy, fx, fy)
    return DetectionBatch(boxes, dets.scores, dets.class_ids)


def iou_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each row of the (m, 4) boxes ``a`` with the same row of ``b``,
    entry by entry the same float operations as :func:`pyrsample.geometry.iou`."""
    ix = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    iy = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = ix * iy
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a + area_b - inter
    overlap = np.zeros_like(inter)
    np.divide(inter, union, out=overlap, where=~((ix <= 0) | (iy <= 0) | (union <= 0)))
    return overlap


def _class_pairs(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every same-class pair, for rows grouped into
    consecutive classes of the given sizes: one size x size block per class,
    blocks in order, each row-major. Memory grows with the sum of squared
    class sizes, never with the square of the total."""
    per_row = np.repeat(sizes, sizes)
    rows = np.repeat(np.arange(len(per_row)), per_row)
    row_start = np.repeat(np.cumsum(per_row) - per_row, per_row)
    block_start = np.repeat(np.repeat(np.cumsum(sizes) - sizes, sizes), per_row)
    cols = block_start + np.arange(len(rows)) - row_start
    return rows, cols


def _rescore_factors(overlap: np.ndarray, policy: MergePolicy) -> np.ndarray:
    """Soft-NMS multiplier of each pair's overlap. A zero overlap gives
    exactly 1; the Gaussian uses ``math.exp``, not ``np.exp``, which can
    differ by an ulp."""
    if policy.mode == LINEAR:
        return np.where(overlap > policy.iou_threshold, 1.0 - overlap, 1.0)
    factor = np.ones_like(overlap)
    touching = overlap != 0.0
    o = overlap[touching]
    factor[touching] = list(map(math.exp, (-(o * o) / policy.sigma).tolist()))
    return factor


def _hard_block(survives: np.ndarray, scores: np.ndarray) -> list[int]:
    """Kept rows of one class under hard NMS, walked in (-score, row) order;
    ``survives[i, j]`` is False when keeping i suppresses j."""
    alive = np.ones(len(scores), dtype=bool)
    kept = []
    for i in np.lexsort((np.arange(len(scores)), -scores)).tolist():
        if alive[i]:
            kept.append(i)
            alive &= survives[i]
    return kept


def _soft_block(
    factor: np.ndarray, scores: np.ndarray, lonely: np.ndarray, floor: float
) -> tuple[list, list]:
    """Kept rows of one class and their final scores under soft-NMS.

    Pending rows stay in row order, so ``argmax`` (first maximum) picks the
    highest score with the lowest row, as the per-box loop does. After the
    first pick has dropped every score under ``floor``, a ``lonely`` row
    (rescored by no other row of its class) keeps its score for good, so it
    leaves the loop at once.
    """
    pending = np.arange(len(scores))
    live = scores
    kept, kept_scores = [], []
    while pending.size:
        best = int(live.argmax())
        row = pending[best]
        kept.append(row)
        kept_scores.append(live[best])
        live = live * factor[row, pending]
        stay = live >= floor
        stay[best] = False
        if len(kept) == 1:
            done = stay & lonely[pending]
            kept.extend(pending[done].tolist())
            kept_scores.extend(live[done].tolist())
            stay &= ~done
        pending = pending[stay]
        live = live[stay]
    return kept, kept_scores


def suppress(
    boxes: np.ndarray, scores: np.ndarray, class_ids: np.ndarray, policy: MergePolicy
) -> tuple[np.ndarray, np.ndarray]:
    """(Soft-)NMS of columnar detections, independently per class.

    Returns the kept positions and their final scores, sorted by final score
    with ties broken by position. The overlaps of every same-class pair are
    computed in one pass; each class then reads its own square block.
    """
    order = np.argsort(class_ids, kind="stable")
    ids = class_ids[order]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])  # [0] when empty
    sizes = np.diff(np.r_[starts, len(ids)])
    rows, cols = _class_pairs(sizes)
    grouped = boxes[order]
    overlap = iou_rows(grouped[rows], grouped[cols])
    if policy.mode == HARD:
        effect = ~(overlap > policy.iou_threshold)
    else:
        effect = _rescore_factors(overlap, policy)
        effect[rows == cols] = 1.0  # a pick never rescores itself
    grouped_scores = scores[order]
    positions, final = [], []
    offset = 0
    for start, size in zip(starts.tolist(), sizes.tolist()):
        block = effect[offset : offset + size * size].reshape(size, size)
        offset += size * size
        block_scores = grouped_scores[start : start + size]
        if size == 1:
            kept, kept_scores = [0], block_scores
        elif policy.mode == HARD:
            kept = _hard_block(block, block_scores)
            kept_scores = block_scores[kept]
        else:
            lonely = (block == 1.0).all(axis=1)
            kept, kept_scores = _soft_block(block, block_scores, lonely, policy.score_floor)
        positions.append(order[start + np.asarray(kept, dtype=np.intp)])
        final.append(np.asarray(kept_scores, dtype=np.float64))
    positions = np.concatenate(positions)
    final = np.concatenate(final)
    order = np.lexsort((positions, -final))
    return positions[order], final[order]


def merge_detections(per_scale: Sequence[DetectionBatch], policy: MergePolicy) -> DetectionBatch:
    """Combine per-scale detections (already in the original frame) class-wise.

    Suppression runs independently per class in descending score order; the
    output is one batch sorted by final score, ties broken by position in
    the concatenated input. Only the concatenated batch matters, not how it
    was split across scales.
    """
    flat = DetectionBatch.concat(per_scale)
    positions, scores = suppress(flat.boxes, flat.scores, flat.class_ids, policy)
    return DetectionBatch(flat.boxes[positions], scores, flat.class_ids[positions])
