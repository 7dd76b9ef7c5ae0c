"""Focus-pixel label maps on the stride-s feature-map grid.

A feature-map cell is a positive focus label when its s-by-s pixel block
overlaps an object whose re-scaled side length sqrt(area) lies strictly
between ``min_side`` and ``max_side``. Blocks overlapping only objects that
are smaller than ``min_side`` or inside the [max_side, ignore_max_side]
transition band are ignored during training; everything else is background.
Positive labels take precedence when several objects overlap one block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .geometry import GroundTruthSet, ImageSize, ScaleSpec, rescale_boxes

DEFAULT_STRIDE = 32
DEFAULT_MIN_SIDE = 5.0
DEFAULT_MAX_SIDE = 64.0
DEFAULT_IGNORE_MAX_SIDE = 90.0

FOCUS = 1
BACKGROUND = 0
IGNORE = -1


def grid_shape(image: ImageSize, stride: int) -> tuple[int, int]:
    """(rows, columns) of the cell grid for an image at a feature-map stride."""
    return math.ceil(image.height / stride), math.ceil(image.width / stride)


def check_grid(cells: np.ndarray, image: ImageSize, stride: int) -> None:
    """Raise ``ValueError`` unless ``cells`` has the grid shape of ``image``
    at ``stride``."""
    expected = grid_shape(image, stride)
    if cells.shape != expected:
        raise ValueError(
            f"cell grid {cells.shape} does not match image "
            f"{image.width}x{image.height} at stride {stride} (expected {expected})"
        )


@dataclass
class LabelMap:
    """Stride-s grid of {1, 0, -1} focus labels for one resized image.

    ``cells`` is row-major with one row per cell row of the image; cell
    (i, j) corresponds to the pixel block [j*s, (j+1)*s) x [i*s, (i+1)*s).
    """

    cells: np.ndarray
    stride: int
    image: ImageSize
    min_side: float = DEFAULT_MIN_SIDE
    max_side: float = DEFAULT_MAX_SIDE
    ignore_max_side: float = DEFAULT_IGNORE_MAX_SIDE

    def __post_init__(self) -> None:
        check_grid(self.cells, self.image, self.stride)
        cells = self.cells
        if np.issubdtype(cells.dtype, np.integer):
            # For integers the set test is a range test, without a temporary.
            bad = cells.size > 0 and (cells.min() < IGNORE or cells.max() > FOCUS)
        else:
            bad = (~np.isin(cells, (FOCUS, BACKGROUND, IGNORE))).any()
        if bad:
            raise ValueError("label cells must be 1, 0 or -1")


@dataclass
class ProbabilityMap:
    """Real-valued [0, 1] map with the same geometry as a LabelMap."""

    cells: np.ndarray
    stride: int
    image: ImageSize

    def __post_init__(self) -> None:
        check_grid(self.cells, self.image, self.stride)
        # Written so that a NaN cell, which compares false both ways, fails.
        if self.cells.size and not (self.cells.min() >= 0.0 and self.cells.max() <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")


def probability_map_from_labels(label_map: LabelMap) -> ProbabilityMap:
    """Probability 1.0 on focus cells, 0.0 elsewhere (a perfect predictor)."""
    return ProbabilityMap(
        cells=(label_map.cells == FOCUS).astype(np.float64),
        stride=label_map.stride,
        image=label_map.image,
    )


# Flips the sign of the high corners, so that one floor serves both ends:
# ceil(x) is -floor(-x).
_LOW_HIGH = (1.0, 1.0, -1.0, -1.0)


def _cell_spans(
    corners: np.ndarray, stride: int, limits: np.ndarray | tuple[int, int, int, int]
) -> np.ndarray:
    """Per row of the (n, 4) pixel ``corners``, the half-open cell index
    ranges [j0, j1) x [i0, i1), as int rows j0, i0, j1, i1 clipped to
    ``limits`` (width, height, width, height) in cells, one row per box or
    one for all, whose blocks have positive-area overlap with the box; a
    range is empty where the box has no extent on its axis.

    Along an axis with pixel interval (lo, hi): j0 = floor(lo / stride),
    plus one when block j0 ends at or before lo, and j1 = ceil(hi / stride),
    minus one when block j1 - 1 starts at or after hi.
    """
    signed = corners * _LOW_HIGH
    ends = np.floor(signed / stride)
    ends += (ends + 1) * stride <= signed
    ends *= _LOW_HIGH
    ends[:, 2:][corners[:, 2:] <= corners[:, :2]] = 0
    return np.minimum(np.maximum(ends, 0), limits).astype(np.intp)


def focus_label_cells(
    boxes: np.ndarray,
    original: ImageSize,
    canvas: ImageSize,
    stride: int = DEFAULT_STRIDE,
    min_side: float = DEFAULT_MIN_SIDE,
    max_side: float = DEFAULT_MAX_SIDE,
    ignore_max_side: float = DEFAULT_IGNORE_MAX_SIDE,
) -> np.ndarray:
    """The {1, 0, -1} int8 label cells of ``canvas`` at ``stride`` for the
    (n, 4) corner array ``boxes`` of one image, given in the ``original``
    frame.

    The boxes are rescaled to the canvas with the IEEE operations of
    :func:`~pyrsample.geometry.rescale_boxes`, and the side thresholds apply to
    sqrt(area) there; see :func:`build_focus_label_map` for the rules.
    """
    if not (min_side < max_side < ignore_max_side):
        raise ValueError(
            f"thresholds must increase: {min_side}, {max_side}, {ignore_max_side}"
        )
    h, w = grid_shape(canvas, stride)
    cells = np.zeros((h, w), dtype=np.int8)
    if not len(boxes):
        return cells
    resized = rescale_boxes(boxes, original, canvas)
    extent = resized[:, 2:] - resized[:, :2]
    side = np.sqrt(extent[:, 0] * extent[:, 1])
    # Ignore sides are the rest of [0, ignore_max_side]: up to min_side and
    # from max_side on. Only marked boxes have finite corners for certain,
    # so only they are turned into cell ranges.
    marked = side <= ignore_max_side
    if not marked.any():
        return cells
    side = side[marked]
    focus = ((min_side < side) & (side < max_side)).tolist()
    spans = _cell_spans(resized[marked], stride, (w, h, w, h)).tolist()
    for (j0, i0, j1, i1), is_focus in zip(spans, focus):
        if not is_focus:
            cells[i0:i1, j0:j1] = IGNORE
    # Focus labels are painted last so they take precedence over ignores.
    for (j0, i0, j1, i1), is_focus in zip(spans, focus):
        if is_focus:
            cells[i0:i1, j0:j1] = FOCUS
    return cells


def build_focus_label_map(
    boxes: np.ndarray,
    image: ImageSize,
    stride: int = DEFAULT_STRIDE,
    min_side: float = DEFAULT_MIN_SIDE,
    max_side: float = DEFAULT_MAX_SIDE,
    ignore_max_side: float = DEFAULT_IGNORE_MAX_SIDE,
) -> LabelMap:
    """Rasterize the (n, 4) corner rows ``boxes`` into a {1, 0, -1} focus
    label map.

    Boxes must already be in the (re-scaled) frame the map describes; the
    side-length thresholds apply to sqrt(area) in that frame. A cell takes
    the label of an overlapping box per the side-length category, with focus
    (1) overriding ignore (-1) and ignore overriding background.

    Boundary convention: sides exactly equal to ``min_side``, ``max_side`` or
    ``ignore_max_side`` fall in the ignore band; sides beyond
    ``ignore_max_side`` are plain background and mark nothing.
    """
    return LabelMap(
        cells=focus_label_cells(
            boxes, image, image, stride, min_side, max_side, ignore_max_side
        ),
        stride=stride,
        image=image,
        min_side=min_side,
        max_side=max_side,
        ignore_max_side=ignore_max_side,
    )


@dataclass
class FocusPixelScaleStats:
    """Focus-cell statistics for one pyramid level over a dataset."""

    scale_id: int
    focus_cells: int
    total_cells: int
    focus_cells_dilated: int
    mean_projected_area: float
    mean_canvas_area: float
    n_images: int

    @property
    def fraction(self) -> float:
        return self.focus_cells / self.total_cells if self.total_cells else 0.0

    @property
    def fraction_dilated(self) -> float:
        return self.focus_cells_dilated / self.total_cells if self.total_cells else 0.0


def focus_pixel_stats(
    gts_by_image: Mapping[object, GroundTruthSet],
    sizes_by_image: Mapping[object, ImageSize],
    pyramid: list[ScaleSpec],
    stride: int = DEFAULT_STRIDE,
    min_side: float = DEFAULT_MIN_SIDE,
    max_side: float = DEFAULT_MAX_SIDE,
    ignore_max_side: float = DEFAULT_IGNORE_MAX_SIDE,
    dilation: int = 3,
) -> dict[int, FocusPixelScaleStats]:
    """Dataset-level focus-cell fractions per pyramid level.

    For each level: rescale every image's ground truth, take its focus mask,
    and accumulate focus-cell counts before and after binary dilation of the
    mask by a ``dilation`` x ``dilation`` square kernel (odd, >= 1). The
    projected area of an image's focus cells is their count times stride^2
    in the resized frame. The masks are never rasterized: counts are union
    areas of cell spans (see :mod:`pyrsample.focus_spans`).
    """
    from .focus_chips import check_kernel_size
    from .focus_spans import dilate_spans, focus_spans, image_blocks, union_cells

    check_kernel_size(dilation, "dilation")
    if not gts_by_image:
        raise ValueError("no images in dataset")
    missing = [k for k in gts_by_image if k not in sizes_by_image]
    if missing:
        raise ValueError(f"images without a recorded size: {missing[:5]}")
    boxes = [gts.boxes for gts in gts_by_image.values()]
    originals = [sizes_by_image[image_id] for image_id in gts_by_image]
    n = len(originals)
    stats: dict[int, FocusPixelScaleStats] = {}
    for spec in pyramid:
        maps = [(i, spec.resolve(original)) for i, original in enumerate(originals)]
        counts: list[int] = []
        total_cells = 0
        dilated = 0
        for lo, hi in image_blocks(boxes, 1):
            spans, owners, grids = focus_spans(
                boxes, originals, maps[lo:hi], stride, min_side, max_side, ignore_max_side
            )
            counts += union_cells(spans, owners, hi - lo).tolist()
            total_cells += sum(w * h for w, h in grids.tolist())
            grown = dilate_spans(spans, owners, grids, dilation)
            dilated += int(union_cells(grown, owners, hi - lo).sum())
        projected = 0.0
        canvas_area = 0.0
        for count, (_, canvas) in zip(counts, maps):
            projected += count * stride * stride
            canvas_area += canvas.area
        stats[spec.scale_id] = FocusPixelScaleStats(
            scale_id=spec.scale_id,
            focus_cells=sum(counts),
            total_cells=total_cells,
            focus_cells_dilated=dilated,
            mean_projected_area=projected / n,
            mean_canvas_area=canvas_area / n,
            n_images=n,
        )
    return stats
