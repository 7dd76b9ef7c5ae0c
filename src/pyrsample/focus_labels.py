"""Focus-pixel label maps on the stride-s feature-map grid.

A feature-map cell is a positive focus label when its s-by-s pixel block
overlaps an object whose re-scaled side length sqrt(area) lies strictly
between ``min_side`` and ``max_side``. Blocks overlapping only objects that
are smaller than ``min_side`` or inside the [max_side, ignore_max_side]
transition band are ignored during training; everything else is background.
Positive labels take precedence when several objects overlap one block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .focus_spans import (
    _cell_spans,
    _focus_rows,
    _grid_sides,
    check_kernel_size,
    dilated_focus_spans,
    union_cells,
)
from .geometry import (
    GroundTruthSet,
    ImageSize,
    ScaleSpec,
    _float_areas,
    _in_order_sum,
    pyramid_canvases,
    size_array,
)

DEFAULT_STRIDE = 32
DEFAULT_MIN_SIDE = 5.0
DEFAULT_MAX_SIDE = 64.0
DEFAULT_IGNORE_MAX_SIDE = 90.0
DEFAULT_DILATION = 3

# The most cells a dense label map may hold, so that the annotations cannot
# ask ``focus labels`` for an arbitrary allocation: 256 MiB of int8 cells.
MAX_MAP_CELLS = 1 << 28

FOCUS = 1
IGNORE = -1


def grid_shape(image: ImageSize, stride: int) -> tuple[int, int]:
    """(rows, columns) of the cell grid for an image at a feature-map stride,
    by :func:`~pyrsample.focus_spans._grid_sides` on its exact int sides."""
    return _grid_sides(image.height, stride), _grid_sides(image.width, stride)


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
class FocusMap:
    """Stride-s grid of one resized image: focus labels in training, or
    predicted probabilities at inference.

    ``cells`` is row-major with one row per cell row of the image; cell
    (i, j) corresponds to the pixel block [j*s, (j+1)*s) x [i*s, (i+1)*s).
    The cell dtype picks the value rule: bool or integer cells are labels
    in {1, 0, -1}, so a thresholded map is 0/1, and float cells are
    probabilities in [0, 1], NaN refused.
    """

    cells: np.ndarray
    stride: int
    image: ImageSize

    def __post_init__(self) -> None:
        check_grid(self.cells, self.image, self.stride)
        cells = self.cells
        if cells.dtype.kind == "f":
            # Written so that a NaN cell, which compares false both ways, fails.
            if cells.size and not (cells.min() >= 0.0 and cells.max() <= 1.0):
                raise ValueError("probabilities must lie in [0, 1]")
        elif cells.dtype.kind not in "biu":
            raise ValueError(f"map cells must be bool, integer or float: {cells.dtype}")
        elif cells.size and (cells.min() < IGNORE or cells.max() > FOCUS):
            raise ValueError("label cells must be 1, 0 or -1")


def focus_label_maps(
    boxes: np.ndarray, offsets: np.ndarray, originals: np.ndarray, images: np.ndarray,
    canvases: np.ndarray, stride: int, min_side: float, max_side: float, ignore_max_side: float,
) -> list[FocusMap]:
    """The focus label :class:`FocusMap` of every map, in map order.

    Map k is image ``images[k]``'s rows ``offsets[i]:offsets[i + 1]`` of
    the run-wide (N, 4) ``boxes``, in the frame of its row of the
    (n_images, 2) int ``originals``, rescaled to row k of the (m, 2) int
    ``canvases`` by :func:`~pyrsample.focus_spans._focus_rows`; see
    :func:`build_focus_label_map` for the rules. The cell spans of every
    marked row are painted in one loop over all maps, every ignore span
    before every focus span.
    """
    resized, owners, focus, marked = _focus_rows(
        boxes, offsets, originals, images, canvases, min_side, max_side, ignore_max_side
    )
    grids = _grid_sides(canvases, stride)
    cells = [np.zeros((h, w), dtype=np.int8) for w, h in grids.tolist()]
    # Only marked rows have finite corners for certain, so only they get
    # spans. Focus labels are painted last so they take precedence.
    rows = np.flatnonzero(marked)
    labels = np.where(focus[rows], FOCUS, IGNORE)
    order = np.argsort(labels, kind="stable")
    rows, labels = rows[order], labels[order]
    spans = _cell_spans(resized[rows], stride, np.tile(grids[owners[rows]], 2))
    for k, (j0, i0, j1, i1), label in zip(owners[rows].tolist(), spans.tolist(), labels.tolist()):
        cells[k][i0:i1, j0:j1] = label
    return [FocusMap(c, stride, ImageSize(w, h)) for c, (w, h) in zip(cells, canvases.tolist())]


def build_focus_label_map(
    boxes: np.ndarray,
    image: ImageSize,
    stride: int = DEFAULT_STRIDE,
    min_side: float = DEFAULT_MIN_SIDE,
    max_side: float = DEFAULT_MAX_SIDE,
    ignore_max_side: float = DEFAULT_IGNORE_MAX_SIDE,
) -> FocusMap:
    """Rasterize the (n, 4) corner rows ``boxes`` into a {1, 0, -1} focus
    label map.

    Boxes must already be in the (re-scaled) frame the map describes; the
    side-length thresholds apply to sqrt(area) in that frame. A cell takes
    the label of an overlapping box per the side-length category, with focus
    (1) overriding ignore (-1) and ignore overriding background.

    Boundary convention: sides exactly equal to ``min_side``, ``max_side`` or
    ``ignore_max_side`` fall in the ignore band; sides beyond
    ``ignore_max_side`` are plain background and mark nothing. This is the
    one-map case of :func:`focus_label_maps`.
    """
    (label_map,) = focus_label_maps(
        boxes, np.array([0, len(boxes)]), size_array([image]), np.zeros(1, dtype=np.intp),
        size_array([image]), stride, min_side, max_side, ignore_max_side,
    )
    return label_map


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
    gts: GroundTruthSet,
    offsets: np.ndarray,
    sizes: np.ndarray,
    pyramid: list[ScaleSpec],
    stride: int = DEFAULT_STRIDE,
    min_side: float = DEFAULT_MIN_SIDE,
    max_side: float = DEFAULT_MAX_SIDE,
    ignore_max_side: float = DEFAULT_IGNORE_MAX_SIDE,
    dilation: int = DEFAULT_DILATION,
) -> dict[int, FocusPixelScaleStats]:
    """Dataset-level focus-cell fractions per pyramid level.

    Image i has size ``sizes[i]`` (width, height) and the rows
    ``offsets[i]:offsets[i + 1]`` of the run-wide ground truth ``gts``.
    For each level: rescale every image's ground truth, take its focus mask,
    and accumulate focus-cell counts before and after binary dilation of the
    mask by a ``dilation`` x ``dilation`` square kernel (odd, >= 1). The
    projected area of an image's focus cells is their count times stride^2
    in the resized frame. The masks are never rasterized: counts are union
    areas of cell spans (see :mod:`pyrsample.focus_spans`).
    """
    check_kernel_size(dilation, "dilation")
    n = len(sizes)
    if not n:
        raise ValueError("no images in dataset")
    if len(offsets) != n + 1:
        raise ValueError(f"images without a recorded size: {len(offsets) - 1} with ground "
                         f"truth, {n} with a size")
    canvases = pyramid_canvases(pyramid, sizes)
    # Per block, the (maps,) focus, dilated and total cell counts of its
    # (image, level) maps.
    counts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for _, _, spans, grown, owners, grids in dilated_focus_spans(
        gts.boxes, offsets, sizes, canvases, np.arange(len(pyramid)), stride, min_side,
        max_side, ignore_max_side, dilation,
    ):
        # A grid side is below 2^32, so each product fits uint64.
        counts.append((union_cells(spans, owners, len(grids)),
                       union_cells(grown, owners, len(grids)),
                       np.prod(grids, axis=1, dtype=np.uint64)))
    focus, dilated, totals = (np.concatenate(c).reshape(n, -1) for c in zip(*counts))
    areas = _float_areas(canvases)
    cell_area = stride * stride
    stats: dict[int, FocusPixelScaleStats] = {}
    for level, spec in enumerate(pyramid):
        column = focus[:, level].tolist()
        # Both means add their terms one by one in image order.
        projected = float(np.cumsum([0.0, *(count * cell_area for count in column)])[-1])
        canvas_area = _in_order_sum(areas[:, level])
        stats[spec.scale_id] = FocusPixelScaleStats(
            scale_id=spec.scale_id,
            focus_cells=sum(column),
            total_cells=sum(totals[:, level].tolist()),
            focus_cells_dilated=sum(dilated[:, level].tolist()),
            mean_projected_area=projected / n,
            mean_canvas_area=canvas_area / n,
            n_images=n,
        )
    return stats
