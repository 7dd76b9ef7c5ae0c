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

# The largest canvas width or height, original or resized: a ``.fmap``
# header stores the canvas size as uint32.
MAX_IMAGE_SIDE = 2**32 - 1


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
        """Resized canvas for an original image at this pyramid level: the
        one-row case of :func:`canvas_sizes`."""
        ((width, height),) = canvas_sizes(self, size_array([original])).tolist()
        return ImageSize(width, height)


def size_array(sizes: Iterable[ImageSize]) -> np.ndarray:
    """The (n, 2) int64 (width, height) rows of ``sizes``."""
    return np.array([(s.width, s.height) for s in sizes], dtype=np.int64).reshape(-1, 2)


def _check_side(spec: ScaleSpec, side: float) -> None:
    """Raise ``ValueError`` unless ``side``, a canvas side at level
    ``spec``, is at most ``MAX_IMAGE_SIDE``, which NaN never is."""
    if not side <= MAX_IMAGE_SIDE:
        raise ValueError(
            f"scale {spec.scale_id}: a canvas side of {side} pixels is not finite or passes "
            f"{MAX_IMAGE_SIDE}, the largest a .fmap header can hold"
        )


def canvas_sizes(spec: ScaleSpec, originals: np.ndarray) -> np.ndarray:
    """The (n, 2) int64 canvases (width, height) at level ``spec`` of the
    (n, 2) int64 original sizes ``originals``.

    An :class:`ImageSize` target is every canvas. Otherwise the factor is
    ``max_side / max(w, h)`` for a :class:`MaxSideTarget`, or the float
    target; each side is ``w * factor`` and ``h * factor`` in float64,
    rounded half to even (as ``round`` rounds) and at least 1. Raises
    ``ValueError`` for a factor that is not positive, and for a canvas side
    that is not finite or passes ``MAX_IMAGE_SIDE``, before any float is
    cast to an integer.
    """
    originals = np.asarray(originals, dtype=np.int64).reshape(-1, 2)
    target = spec.target
    if isinstance(target, ImageSize):
        _check_side(spec, target.max_side)
        return np.tile(np.array([target.width, target.height], dtype=np.int64), (len(originals), 1))
    if isinstance(target, MaxSideTarget):
        # max_side / m * m rounds to max_side for every side m below 2^32, so
        # this is the check of the longer canvas side, made before max_side
        # becomes a float.
        _check_side(spec, target.max_side)
        factor = target.max_side / originals.max(axis=1)
    else:
        factor = float(target)
        if factor <= 0:
            raise ValueError(f"scale factor must be positive: {factor}")
    with np.errstate(over="ignore", invalid="ignore"):
        sides = np.maximum(np.rint(originals * np.reshape(factor, (-1, 1))), 1.0)
    bad = ~(sides <= MAX_IMAGE_SIDE)
    if bad.any():
        _check_side(spec, sides[bad][0])
    return sides.astype(np.int64)


def csr_take(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The offsets of CSR ``rows`` taken in that order, and the index of each
    of their values in the values of ``offsets``."""
    first, counts = offsets[rows], offsets[rows + 1] - offsets[rows]
    taken = np.concatenate([[0], np.cumsum(counts)])
    return taken, np.repeat(first - taken[:-1], counts) + np.arange(taken[-1])


def level_boxes(
    boxes: np.ndarray, offsets: np.ndarray, originals: np.ndarray, images: np.ndarray,
    canvases: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every map's boxes rescaled to its canvas, stacked by map: the (n, 4)
    corners and the (n,) map index of each row.

    Image i's boxes are rows ``offsets[i]:offsets[i + 1]`` of the run-wide
    (N, 4) ``boxes``, in the frame of its row of the (n_images, 2) int
    ``originals``. Map k is image ``images[k]``'s boxes mapped to row k of
    the (m, 2) int ``canvases`` by independent per-axis factors, canvas /
    original, with the IEEE operations of the one-box oracle ``rescale_box``
    in ``tests/oracles.py``. An image may be the map of many levels.
    """
    images = np.asarray(images, dtype=np.intp)
    taken, at = csr_take(offsets, images)
    counts = np.diff(taken)
    factors = np.tile(np.asarray(canvases) / np.asarray(originals)[images], 2)
    # np.take and np.repeat move rows several times faster than indexing
    # with an array.
    resized = np.take(boxes, at, axis=0) * np.repeat(factors, counts, axis=0)
    return resized, np.repeat(np.arange(len(images)), counts)

