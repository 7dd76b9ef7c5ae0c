"""Valid-range labeling of RoIs, anchors, and detections per pyramid level.

Each pyramid level trains and tests only on boxes whose area falls inside the
level's valid range; everything else is ignored rather than treated as
background. Areas are always measured in the resized frame of the level.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import BoundingBox, DetectionBatch, GroundTruthInstance, ScaleSpec, iou

IOU_FOREGROUND = 0.5
IOU_ANCHOR_INVALIDATE = 0.3


class LabelKind(Enum):
    FOREGROUND = "foreground"
    BACKGROUND = "background"
    IGNORE = "ignore"


@dataclass(frozen=True)
class RoiLabel:
    """Training label for one RoI: a foreground class, background, or ignore.

    ``numeric`` follows the conventional encoding: the ground-truth class id
    for foreground, 0 for background, -1 for ignore.
    """

    kind: LabelKind
    class_id: int | None = None

    def __post_init__(self) -> None:
        if self.kind is LabelKind.FOREGROUND:
            if self.class_id is None or self.class_id < 0:
                raise ValueError("foreground label needs a valid class_id")
        elif self.class_id is not None:
            raise ValueError(f"{self.kind.value} label cannot carry a class_id")

    @classmethod
    def foreground(cls, class_id: int) -> "RoiLabel":
        return cls(LabelKind.FOREGROUND, class_id)

    @classmethod
    def background(cls) -> "RoiLabel":
        return cls(LabelKind.BACKGROUND)

    @classmethod
    def ignore(cls) -> "RoiLabel":
        return cls(LabelKind.IGNORE)

    @property
    def numeric(self) -> int:
        if self.kind is LabelKind.FOREGROUND:
            assert self.class_id is not None
            return self.class_id
        return 0 if self.kind is LabelKind.BACKGROUND else -1


class AnchorValidity(Enum):
    TRAIN = "train"
    INVALIDATED = "invalidated"


def classify_box_validity(box: BoundingBox, spec: ScaleSpec) -> bool:
    """True iff the box area lies strictly inside the level's valid range.

    Areas exactly equal to either endpoint are invalid. The box must already
    be in the resized frame of ``spec``.
    """
    r_min, r_max = spec.effective_range
    return r_min < box.area < r_max


def assign_roi_labels(
    rois: list[BoundingBox],
    gts: list[GroundTruthInstance],
    spec: ScaleSpec,
) -> list[RoiLabel]:
    """Label each RoI against the ground truth at one pyramid level.

    Out-of-range RoIs are ignored. In-range RoIs become foreground when their
    best IoU against any ground-truth box reaches 0.5 (ties broken by lowest
    ground-truth index), background otherwise. With no ground truth, every
    in-range RoI is background.
    """
    labels: list[RoiLabel] = []
    for roi in rois:
        if not classify_box_validity(roi, spec):
            labels.append(RoiLabel.ignore())
            continue
        best_iou = 0.0
        best_class: int | None = None
        for gt in gts:
            overlap = iou(gt.box, roi)
            if overlap > best_iou:
                best_iou = overlap
                best_class = gt.class_id
        if best_iou >= IOU_FOREGROUND and best_class is not None:
            labels.append(RoiLabel.foreground(best_class))
        else:
            labels.append(RoiLabel.background())
    return labels


def invalidate_anchors(
    anchors: list[BoundingBox],
    gts: list[GroundTruthInstance],
    spec: ScaleSpec,
) -> list[AnchorValidity]:
    """Flag anchors overlapping an out-of-range ground-truth box.

    An anchor is invalidated (excluded from training) when its IoU with any
    invalid ground-truth box exceeds 0.3 strictly.
    """
    invalid_gts = [gt for gt in gts if not classify_box_validity(gt.box, spec)]
    flags = []
    for anchor in anchors:
        invalid = any(iou(anchor, gt.box) > IOU_ANCHOR_INVALIDATE for gt in invalid_gts)
        flags.append(AnchorValidity.INVALIDATED if invalid else AnchorValidity.TRAIN)
    return flags


def valid_area_mask(boxes: np.ndarray, spec: ScaleSpec) -> np.ndarray:
    """Rows of the (n, 4) ``boxes`` that :func:`classify_box_validity` accepts."""
    r_min, r_max = spec.effective_range
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    return (r_min < area) & (area < r_max)


def filter_detections_by_range(dets: DetectionBatch, spec: ScaleSpec) -> DetectionBatch:
    """Keep only detections whose area is valid at this level, order preserved."""
    return dets[valid_area_mask(dets.boxes, spec)]
