"""Axis-aligned boxes, canvas sizes, and pyramid scale definitions.

Coordinates are continuous pixel values, always interpreted in the frame of a
stated canvas (the original image or a resized pyramid level). Integer grids
only appear at the feature-map level (see :mod:`pyrsample.focus_labels`).
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import compress
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

    @property
    def center(self) -> tuple[float, float]:
        return (self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0

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

    def clip(self, size: "ImageSize") -> "BoundingBox":
        """Clamp the box to a canvas of the given size."""
        return BoundingBox(
            min(max(self.x1, 0.0), size.width),
            min(max(self.y1, 0.0), size.height),
            min(max(self.x2, 0.0), size.width),
            min(max(self.y2, 0.0), size.height),
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


@dataclass(frozen=True)
class GroundTruthInstance:
    """A ground-truth box with its class, in the original-image frame."""

    box: BoundingBox
    class_id: int
    is_crowd: bool = False

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise ValueError(f"class_id must be >= 0, got {self.class_id}")


@dataclass(frozen=True)
class Detection:
    """A scored, classified box in a stated frame.

    ``scale_id``/``chip`` record where the detection came from; ``chip`` is
    None for a full-image pass.
    """

    box: BoundingBox
    score: float
    class_id: int
    scale_id: int | None = None
    chip: BoundingBox | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score out of range: {self.score}")


class DetectionRow(NamedTuple):
    """One row of a :class:`DetectionBatch`."""

    box: tuple[float, float, float, float]  # x1, y1, x2, y2
    score: float
    class_id: int


class DetectionBatch(Sequence):
    """Detections as columns: ``boxes`` (n, 4) float64 corners x1, y1, x2, y2,
    ``scores`` (n,) float64 and ``class_ids`` (n,) int64, all in one frame.

    The kernels in :mod:`pyrsample.stacking` and :mod:`pyrsample.range_labels`
    work on these arrays. The batch is also a read-only sequence of
    :class:`DetectionRow` tuples; indexing with a slice, a mask or an index
    array gives a batch, and :meth:`to_detections` gives the dataclasses.
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
    def of(cls, dets: Iterable[Detection]) -> "DetectionBatch":
        """The columns of ``dets``; a batch is returned as it is."""
        if isinstance(dets, cls):
            return dets
        dets = list(dets)
        return cls(
            boxes_array(d.box for d in dets),
            np.array([d.score for d in dets], dtype=np.float64),
            np.array([d.class_id for d in dets], dtype=np.int64),
        )

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

    def to_detections(self) -> list[Detection]:
        return [Detection(BoundingBox(*row.box), row.score, row.class_id) for row in self]


def keep_rows(dets: Sequence[Detection], keep: np.ndarray) -> Sequence[Detection]:
    """The rows of ``dets`` where the boolean ``keep`` is set, in order: a
    batch for a batch, otherwise a list of the original objects."""
    if isinstance(dets, DetectionBatch):
        return dets[keep]
    return list(compress(dets, keep.tolist()))


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


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes in the same frame.

    Returns 0 for disjoint boxes and whenever the union is degenerate
    (both boxes zero-area), 1 only for identical positive-area boxes.
    """
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


def rescale_box(b: BoundingBox, from_size: ImageSize, to_size: ImageSize) -> BoundingBox:
    """Map a box between canvases by independent per-axis factors."""
    fx = to_size.width / from_size.width
    fy = to_size.height / from_size.height
    return BoundingBox(b.x1 * fx, b.y1 * fy, b.x2 * fx, b.y2 * fy)


def scale_factors(from_size: ImageSize, to_size: ImageSize) -> tuple[float, float, float, float]:
    """The per-corner factors (fx, fy, fx, fy) of :func:`rescale_box`."""
    fx = to_size.width / from_size.width
    fy = to_size.height / from_size.height
    return fx, fy, fx, fy


def rescale_boxes(boxes: np.ndarray, from_size: ImageSize, to_size: ImageSize) -> np.ndarray:
    """:func:`rescale_box` for every row of an (n, 4) corner array, with the
    same IEEE operations."""
    return boxes * scale_factors(from_size, to_size)


def boxes_array(boxes: Iterable[BoundingBox]) -> np.ndarray:
    """The (n, 4) float64 corner array x1, y1, x2, y2 of ``boxes``."""
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def encloses(chip: BoundingBox, b: BoundingBox) -> bool:
    """Closed containment: boundary contact counts as inside."""
    return (
        chip.x1 <= b.x1
        and chip.y1 <= b.y1
        and b.x2 <= chip.x2
        and b.y2 <= chip.y2
    )
