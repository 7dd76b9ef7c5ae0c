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

from .geometry import DetectionBatch, ImageSize

HARD = "hard"
GAUSSIAN = "gaussian"
LINEAR = "linear"

DEFAULT_BOUNDARY_EPS = 1.0
# A chip edge this close to the image border, in pixels, is that border.
_BORDER_TOL = 1e-6


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


def _columns(value) -> np.ndarray:
    """The fields of one rectangle, size or point as float64 scalars, or of
    an (n, k) array as its k per-row columns."""
    if isinstance(value, ImageSize):
        value = (value.width, value.height)
    return np.asarray(value, dtype=np.float64).T


def prune_boundary_detections(
    dets: DetectionBatch,
    chip: tuple[float, float, float, float] | np.ndarray,
    image: ImageSize | np.ndarray,
    eps: float = DEFAULT_BOUNDARY_EPS,
) -> DetectionBatch:
    """Drop detections flush against an interior chip edge.

    Detections and the chip rectangle share the resized-image frame. A chip
    edge that coincides with the image border is exempt: touching it never
    discards, so a detection may sit on one or even all shared borders as
    long as every chip edge it touches is a shared border. ``eps`` is the
    touch tolerance in pixels. ``chip`` is one (x1, y1, x2, y2) rectangle
    or an (n, 4) array holding each row's chip; ``image`` is one
    :class:`ImageSize` or an (n, 2) array of each row's canvas width and
    height.
    """
    x1, y1, x2, y2 = _columns(chip)
    width, height = _columns(image)
    edges = (
        (0, x1, x1 > _BORDER_TOL),
        (1, y1, y1 > _BORDER_TOL),
        (2, x2, x2 < width - _BORDER_TOL),
        (3, y2, y2 < height - _BORDER_TOL),
    )
    discard = np.zeros(len(dets), dtype=bool)
    for column, edge, interior in edges:
        discard |= interior & (np.abs(dets.boxes[:, column] - edge) <= eps)
    return dets[~discard]


def project_to_image(
    dets: DetectionBatch,
    from_canvas: ImageSize | np.ndarray,
    chip_origin: tuple[float, float] | np.ndarray,
    original: ImageSize | np.ndarray,
) -> DetectionBatch:
    """Map chip-local detections to original-image coordinates.

    Translates by the chip origin within the resized canvas, then rescales
    canvas -> original. Scores and classes are unchanged. ``from_canvas``
    and ``original`` are each one :class:`ImageSize` or an (n, 2) array of
    per-row widths and heights; ``chip_origin`` is one (x, y) pair or an
    (n, 2) array.
    """
    ox, oy = _columns(chip_origin)
    (ow, oh), (cw, ch) = _columns(original), _columns(from_canvas)
    fx, fy = ow / cw, oh / ch
    offset = np.stack([ox, oy, ox, oy], axis=-1)
    boxes = (dets.boxes + offset) * np.stack([fx, fy, fx, fy], axis=-1)
    return DetectionBatch(boxes, dets.scores, dets.class_ids)


def iou_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each row of the (m, 4) boxes ``a`` with the same row of ``b``,
    in the same frame: 0 for boxes that do not overlap with positive area
    and whenever the union is degenerate (both boxes zero-area), 1 only for
    identical positive-area boxes. Entry by entry these are the float
    operations of the one-pair oracle ``iou_oracle`` in ``tests/oracles.py``."""
    ix = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    iy = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = ix * iy
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a + area_b - inter
    overlap = np.zeros(inter.shape)
    np.divide(inter, union, out=overlap, where=~((ix <= 0) | (iy <= 0) | (union <= 0)))
    return overlap


def _rescore_factors(overlap: np.ndarray, policy: MergePolicy) -> np.ndarray:
    """Soft-NMS multiplier of each overlap with a pick. A zero overlap gives
    exactly 1; the Gaussian uses ``math.exp``, not ``np.exp``, which can
    differ by an ulp."""
    if policy.mode == LINEAR:
        return np.where(overlap > policy.iou_threshold, 1.0 - overlap, 1.0)
    factor = np.ones_like(overlap)
    touching = overlap != 0.0
    o = overlap[touching]
    factor[touching] = list(map(math.exp, (-(o * o) / policy.sigma).tolist()))
    return factor


def suppress(
    boxes: np.ndarray, scores: np.ndarray, groups: np.ndarray, policy: MergePolicy
) -> tuple[np.ndarray, np.ndarray]:
    """(Soft-)NMS of columnar detections, independently per group.

    ``groups`` holds one integer key per row; rows with equal keys suppress
    each other. Returns the kept positions and their final scores, sorted
    by final score with ties broken by position.

    Every group runs in lockstep: each round picks every live group's best
    pending row, the first maximum in row order, and rescores (or, in hard
    mode, drops) only that group's pending rows against it; a rescored row
    under ``score_floor`` leaves. So there are as many rounds as the
    largest group has rows, and memory stays linear in the rows.
    """
    pending = np.argsort(groups, kind="stable")
    key = groups[pending]
    live = scores[pending]
    kept = [np.zeros(0, dtype=np.intp)]
    kept_scores = [np.zeros(0)]
    while pending.size:
        n = len(pending)
        first = np.empty(n, dtype=bool)  # the first pending row of each group
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        best = np.maximum.reduceat(live, starts)[group]
        pick = np.minimum.reduceat(np.where(live == best, np.arange(n), n), starts)
        kept.append(pending[pick])
        kept_scores.append(live[pick])
        overlap = iou_rows(boxes[pending[pick]][group], boxes[pending])
        if policy.mode == HARD:
            stay = ~(overlap > policy.iou_threshold)
        else:
            live = live * _rescore_factors(overlap, policy)
            stay = live >= policy.score_floor
        stay[pick] = False
        pending, key, live = pending[stay], key[stay], live[stay]
    positions = np.concatenate(kept)
    final = np.concatenate(kept_scores)
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
