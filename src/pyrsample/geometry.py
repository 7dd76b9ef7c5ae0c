"""Axis-aligned boxes, canvas sizes, and pyramid scale definitions.

Coordinates are continuous pixel values, always interpreted in the frame of a
stated canvas (the original image or a resized pyramid level). Integer grids
only appear at the feature-map level (see :mod:`pyrsample.focus_labels`).
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle with corners (x1, y1) <= (x2, y2).

    Zero-area (degenerate) boxes are legal inputs everywhere; they have IoU 0
    against every box, including themselves.
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
        x1 = max(self.x1, other.x1)
        x2 = min(self.x2, other.x2)
        if x2 <= x1:
            return None
        y1 = max(self.y1, other.y1)
        y2 = min(self.y2, other.y2)
        if y2 <= y1:
            return None
        return BoundingBox(x1, y1, x2, y2)

    def union_rect(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest rectangle enclosing both boxes."""
        return BoundingBox(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class ImageSize:
    """Canvas size in whole pixels."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image size must be positive: {self.width}x{self.height}")

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def max_side(self) -> int:
        return max(self.width, self.height)


@dataclass(frozen=True)
class MaxSideTarget:
    """Resize so the longer image side equals ``max_side`` pixels."""

    max_side: int

    def __post_init__(self) -> None:
        if self.max_side < 1:
            raise ValueError("max_side must be >= 1")


# A pyramid level's target resolution: an explicit size, a uniform scale
# factor relative to the original, or a cap on the longer side.
ScaleTarget = ImageSize | MaxSideTarget | float


class GroundTruthSet:
    """One image's ground truth as columns: ``boxes`` (n, 4) float64 corners
    x1, y1, x2, y2 in the original-image frame, ``class_ids`` (n,) int64 and
    ``crowd`` (n,) bool.

    The chip cover, the range labels, the focus path and the dataset
    statistics work on these arrays. ``len`` is the row count, and indexing
    with a slice, a mask or an index array gives a set; a set is not
    iterable.
    """

    __slots__ = ("boxes", "class_ids", "crowd")
    __iter__ = None

    def __init__(self, boxes: np.ndarray, class_ids: np.ndarray, crowd: np.ndarray) -> None:
        self.boxes = boxes
        self.class_ids = class_ids
        self.crowd = crowd

    def __len__(self) -> int:
        return len(self.class_ids)

    def __getitem__(self, key) -> "GroundTruthSet":
        return GroundTruthSet(self.boxes[key], self.class_ids[key], self.crowd[key])


class DetectionRow(NamedTuple):
    """One row of a :class:`DetectionBatch`."""

    box: tuple[float, float, float, float]  # x1, y1, x2, y2
    score: float
    class_id: int


class DetectionBatch(Sequence):
    """Detections as columns: ``boxes`` (n, 4) float64 corners x1, y1, x2, y2,
    ``scores`` (n,) float64 and ``class_ids`` (n,) int64, all in one frame.

    The kernels in :mod:`pyrsample.stacking` and :mod:`pyrsample.range_labels`
    take and return batches. A batch is also a read-only sequence of
    :class:`DetectionRow` tuples; indexing with a slice, a mask or an index
    array gives a batch.
    """

    __slots__ = ("boxes", "scores", "class_ids")

    def __init__(self, boxes: np.ndarray, scores: np.ndarray, class_ids: np.ndarray) -> None:
        self.boxes = boxes
        self.scores = scores
        self.class_ids = class_ids

    @classmethod
    def empty(cls) -> "DetectionBatch":
        return cls(np.zeros((0, 4)), np.zeros(0), np.zeros(0, dtype=np.int64))

    @classmethod
    def concat(cls, batches: Sequence["DetectionBatch"]) -> "DetectionBatch":
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls.empty()
        return cls(
            np.concatenate([b.boxes for b in batches]),
            np.concatenate([b.scores for b in batches]),
            np.concatenate([b.class_ids for b in batches]),
        )

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return DetectionRow(
                tuple(self.boxes[key].tolist()), float(self.scores[key]), int(self.class_ids[key])
            )
        return DetectionBatch(self.boxes[key], self.scores[key], self.class_ids[key])

    def __iter__(self):
        return map(
            DetectionRow._make,
            zip(map(tuple, self.boxes.tolist()), self.scores.tolist(), self.class_ids.tolist()),
        )


@dataclass(frozen=True)
class ScaleSpec:
    """One pyramid level: target resolution, valid area range, chip lattice.

    ``valid_range`` is an open interval of box areas (squared pixels) in the
    *resized* frame; ``math.inf`` means unbounded above. The ``absorb_*``
    flags widen the range so the extreme pyramid levels also take boxes that
    would otherwise fall outside every level's range: ``absorb_below`` widens
    to (0, r_max), ``absorb_above`` to (r_min, inf).
    """

    scale_id: int
    target: ScaleTarget
    valid_range: tuple[float, float] = (0.0, math.inf)
    chip_size: int = 512
    chip_stride: int = 32
    absorb_below: bool = False
    absorb_above: bool = False

    def __post_init__(self) -> None:
        r_min, r_max = self.valid_range
        if not (0 <= r_min < r_max):
            raise ValueError(f"invalid area range: {self.valid_range}")
        if not (self.chip_size >= self.chip_stride >= 1):
            raise ValueError(
                f"need chip_size >= chip_stride >= 1, got "
                f"K={self.chip_size}, d={self.chip_stride}"
            )

    @property
    def effective_range(self) -> tuple[float, float]:
        r_min, r_max = self.valid_range
        if self.absorb_below:
            r_min = 0.0
        if self.absorb_above:
            r_max = math.inf
        return r_min, r_max

    def resolve(self, original: ImageSize) -> ImageSize:
        """Resized canvas for an original image at this pyramid level."""
        if isinstance(self.target, ImageSize):
            return self.target
        if isinstance(self.target, MaxSideTarget):
            factor = self.target.max_side / original.max_side
        else:
            factor = float(self.target)
        if factor <= 0:
            raise ValueError(f"scale factor must be positive: {factor}")
        return ImageSize(
            max(1, round(original.width * factor)),
            max(1, round(original.height * factor)),
        )


def scale_factors(from_size: ImageSize, to_size: ImageSize) -> tuple[float, float, float, float]:
    """The per-corner factors (fx, fy, fx, fy) that map a box between
    canvases by independent per-axis factors, as the one-box oracle
    ``rescale_box`` in ``tests/oracles.py`` does."""
    fx = to_size.width / from_size.width
    fy = to_size.height / from_size.height
    return fx, fy, fx, fy


def rescale_boxes(boxes: np.ndarray, from_size: ImageSize, to_size: ImageSize) -> np.ndarray:
    """Every row of an (n, 4) corner array mapped between canvases, with the
    same IEEE operations as the oracle ``rescale_box`` in
    ``tests/oracles.py``."""
    return boxes * scale_factors(from_size, to_size)


def boxes_array(boxes: Iterable[BoundingBox]) -> np.ndarray:
    """The (n, 4) float64 corner array x1, y1, x2, y2 of ``boxes``."""
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)
