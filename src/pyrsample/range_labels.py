"""Valid-range labeling of RoIs, anchors, and detections per pyramid level.

Each pyramid level trains and tests only on boxes whose area falls inside the
level's valid range; everything else is ignored rather than treated as
background. Areas are always measured in the resized frame of the level.
"""
from __future__ import annotations

import numpy as np

from .focus_spans import _pair_blocks
from .geometry import DetectionBatch, GroundTruthSet, ScaleSpec
from .stacking import iou_rows

IOU_FOREGROUND = 0.5
IOU_ANCHOR_INVALIDATE = 0.3

FOREGROUND = 1
BACKGROUND = 0
IGNORE = -1


def valid_area_mask(boxes: np.ndarray, spec: ScaleSpec) -> np.ndarray:
    """Rows of the (n, 4) ``boxes`` whose area lies strictly inside the
    level's effective range; an area equal to either endpoint is invalid.
    The boxes must already be in the resized frame of ``spec``."""
    r_min, r_max = spec.effective_range
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    return (r_min < area) & (area < r_max)


def _iou_blocks(boxes: np.ndarray, gt_boxes: np.ndarray):
    """The IoU of every row of the (n, 4) ``boxes`` with every row of the
    (m, 4) ``gt_boxes``, per block of rows of ``boxes`` holding about
    ``focus_chips._PAIR_BLOCK`` pairs: the row indices and their (rows, m) IoU matrix."""
    m = len(gt_boxes)
    for i, j in _pair_blocks(np.zeros(len(boxes), dtype=np.intp), np.full(len(boxes), m)):
        yield i[::m], iou_rows(gt_boxes[j], boxes[i]).reshape(-1, m)


def assign_roi_labels(
    rois: np.ndarray, gts: GroundTruthSet, spec: ScaleSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Label each row of the (n, 4) ``rois`` against one image's ground
    truth at one pyramid level, both in the level's resized frame.

    Returns (labels, class_ids): ``labels`` (n,) int8 holds 1 for
    foreground, 0 for background and -1 for ignore, and ``class_ids`` (n,)
    int64 the matched class of a foreground RoI and -1 elsewhere.
    Out-of-range RoIs are ignored. In-range RoIs become foreground when
    their best IoU against any ground-truth box reaches 0.5, matched to the
    lowest ground-truth index among the best, and background otherwise.
    With no ground truth, every in-range RoI is background.
    """
    valid = np.flatnonzero(valid_area_mask(rois, spec))
    labels = np.full(len(rois), IGNORE, dtype=np.int8)
    labels[valid] = BACKGROUND
    class_ids = np.full(len(rois), -1, dtype=np.int64)
    for rows, overlap in _iou_blocks(rois[valid], gts.boxes):
        best = overlap.argmax(axis=1)  # the first maximum of each row
        hit = overlap[np.arange(len(rows)), best] >= IOU_FOREGROUND
        labels[valid[rows[hit]]] = FOREGROUND
        class_ids[valid[rows[hit]]] = gts.class_ids[best[hit]]
    return labels, class_ids


def invalidate_anchors(anchors: np.ndarray, gts: GroundTruthSet, spec: ScaleSpec) -> np.ndarray:
    """Which rows of the (n, 4) ``anchors`` overlap an out-of-range
    ground-truth box, as an (n,) bool array.

    An anchor is invalidated (excluded from training) when its IoU with any
    invalid ground-truth box exceeds 0.3 strictly.
    """
    invalid = np.zeros(len(anchors), dtype=bool)
    for rows, overlap in _iou_blocks(anchors, gts.boxes[~valid_area_mask(gts.boxes, spec)]):
        invalid[rows] = (overlap > IOU_ANCHOR_INVALIDATE).any(axis=1)
    return invalid


def filter_detections_by_range(dets: DetectionBatch, spec: ScaleSpec) -> DetectionBatch:
    """Keep only detections whose area is valid at this level, order preserved."""
    return dets[valid_area_mask(dets.boxes, spec)]
