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

from .geometry import GroundTruthSet, ImageSize, ScaleSpec, canvas_sizes, level_boxes, size_array

DEFAULT_STRIDE = 32
DEFAULT_MIN_SIDE = 5.0
DEFAULT_MAX_SIDE = 64.0
DEFAULT_IGNORE_MAX_SIDE = 90.0

# The most cells a dense label map may hold, so that the annotations cannot
# ask ``focus labels`` for an arbitrary allocation: 256 MiB of int8 cells.
MAX_MAP_CELLS = 1 << 28

FOCUS = 1
IGNORE = -1


def grid_shape(image: ImageSize, stride: int) -> tuple[int, int]:
    """(rows, columns) of the cell grid for an image at a feature-map stride:
    each side ceil-divided by the stride."""
    return -(-image.height // stride), -(-image.width // stride)


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


def _focus_rows(
    boxes: np.ndarray, offsets: np.ndarray, originals: np.ndarray, images: np.ndarray,
    canvases: np.ndarray, min_side: float, max_side: float, ignore_max_side: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The front end of the focus spans: every map's boxes rescaled to its
    canvas by :func:`~pyrsample.geometry.level_boxes`, their map indices,
    and per row whether it is focus, min_side < sqrt(area) < max_side
    there, and whether it is marked, sqrt(area) <= ignore_max_side. Marked
    rows that are not focus are ignore; only marked rows have finite
    corners for certain.
    """
    if not (min_side < max_side < ignore_max_side):
        raise ValueError(f"thresholds must increase: {min_side}, {max_side}, {ignore_max_side}")
    resized, owners = level_boxes(boxes, offsets, originals, images, canvases)
    extent = resized[:, 2:] - resized[:, :2]
    side = np.sqrt(extent[:, 0] * extent[:, 1])
    return resized, owners, (min_side < side) & (side < max_side), side <= ignore_max_side


def focus_label_maps(
    boxes: np.ndarray, offsets: np.ndarray, originals: np.ndarray, images: np.ndarray,
    canvases: np.ndarray, stride: int, min_side: float, max_side: float, ignore_max_side: float,
) -> list[FocusMap]:
    """The focus label :class:`FocusMap` of every map, in map order.

    Map k is image ``images[k]``'s rows ``offsets[i]:offsets[i + 1]`` of
    the run-wide (N, 4) ``boxes``, in the frame of its row of the
    (n_images, 2) int ``originals``, rescaled to row k of the (m, 2) int
    ``canvases`` by :func:`_focus_rows`; see :func:`build_focus_label_map`
    for the rules. The cell spans of every marked row are painted in one
    loop over all maps, every ignore span before every focus span.
    """
    resized, owners, focus, marked = _focus_rows(
        boxes, offsets, originals, images, canvases, min_side, max_side, ignore_max_side
    )
    grids = -(-canvases // stride)
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
    frame: the one-map case of :func:`focus_label_maps`.
    """
    (label_map,) = focus_label_maps(
        boxes, np.array([0, len(boxes)]), size_array([original]), np.zeros(1, dtype=np.intp),
        size_array([canvas]), stride, min_side, max_side, ignore_max_side,
    )
    return label_map.cells


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
    ``ignore_max_side`` are plain background and mark nothing.
    """
    cells = focus_label_cells(boxes, image, image, stride, min_side, max_side, ignore_max_side)
    return FocusMap(cells, stride, image)


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
    dilation: int = 3,
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
    from .focus_chips import check_kernel_size
    from .focus_spans import dilate_spans, focus_spans, image_blocks, union_cells

    check_kernel_size(dilation, "dilation")
    n = len(sizes)
    if not n:
        raise ValueError("no images in dataset")
    if len(offsets) != n + 1:
        raise ValueError(f"images without a recorded size: {len(offsets) - 1} with ground "
                         f"truth, {n} with a size")
    blocks = list(image_blocks(offsets, 1))
    cell_area = stride * stride
    stats: dict[int, FocusPixelScaleStats] = {}
    for spec in pyramid:
        canvases = canvas_sizes(spec, sizes)
        counts: list[int] = []
        total_cells = 0
        dilated = 0
        for lo, hi in blocks:
            spans, owners, grids = focus_spans(
                gts.boxes, offsets, sizes, np.arange(lo, hi), canvases[lo:hi], stride,
                min_side, max_side, ignore_max_side,
            )
            counts += union_cells(spans, owners, hi - lo).tolist()
            # A grid side is below 2^32, so each product fits uint64.
            total_cells += sum(np.prod(grids, axis=1, dtype=np.uint64).tolist())
            grown = dilate_spans(spans, owners, grids, dilation)
            dilated += sum(union_cells(grown, owners, hi - lo).tolist())
        # Both means add their terms one by one in image order. A canvas area
        # is a float64 product, which rounds as the exact int product does.
        projected = float(np.cumsum([0.0, *(count * cell_area for count in counts)])[-1])
        areas = canvases[:, 0] * canvases[:, 1].astype(np.float64)
        canvas_area = float(np.cumsum(np.append(0.0, areas))[-1])
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
