"""Chip generation from a focus map: threshold, dilate, connect, merge.

The pipeline turns a feature-map grid of probabilities or labels into a
small set of non-overlapping image rectangles: binarize at a threshold,
dilate so nothing interesting sits on a chip border, extract 8-connected
components, take each component's enclosing rectangle in pixel
coordinates, grow it to a minimum side, and merge rectangles until none
overlap. A thresholded map is kept only as its horizontal runs of set
cells, one-row spans that the span kernels of :mod:`pyrsample.focus_spans`
dilate and label for many maps at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .geometry import ImageSize
from .focus_labels import FocusMap


@dataclass(frozen=True)
class FocusParams:
    """Knobs for chip generation.

    ``threshold`` selects cells; ``dilation`` is the square structuring
    element size in cells (odd); ``min_chip_size`` is the minimum chip side
    in pixels. ``strict_threshold`` switches the comparison from >= to >.
    """

    threshold: float = 0.5
    dilation: int = 3
    min_chip_size: int = 64
    strict_threshold: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold out of range: {self.threshold}")
        check_kernel_size(self.dilation, "dilation")
        if self.min_chip_size < 1:
            raise ValueError(f"min_chip_size must be >= 1: {self.min_chip_size}")


def _set_cells(cells: np.ndarray, threshold: float, strict: bool) -> np.ndarray:
    """The bool mask of ``cells`` at or above ``threshold`` (above it when
    ``strict``). Float cells are compared in float64, so a float32 cell is
    never set by a threshold that rounds down to it."""
    if cells.dtype.kind == "f":
        cells = cells.astype(np.float64, copy=False)
    return cells > threshold if strict else cells >= threshold


def threshold_map(p: FocusMap, threshold: float, strict: bool = False) -> FocusMap:
    """Binarize a map into a 0/1 label map; the comparison is inclusive by
    default."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold out of range: {threshold}")
    cells = _set_cells(p.cells, threshold, strict)
    return FocusMap(cells=cells.astype(np.uint8), stride=p.stride, image=p.image)


def check_kernel_size(size: int, name: str = "kernel size") -> None:
    """Raise ``ValueError`` unless ``size`` is an odd square kernel side >= 1."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"{name} must be odd and >= 1: {size}")


def binary_dilate(mask: np.ndarray, size: int) -> np.ndarray:
    """Binary dilation by a size x size square kernel, borders clipped.

    A square max filter is separable: dilating every row by a 1 x size
    segment, then every column by a size x 1 segment, gives the same result.
    A shift by an axis' extent or more moves every cell off the map, so the
    shifts stop there.
    """
    check_kernel_size(size)
    out = mask.astype(bool)
    # Rows first, then columns through the transposed view of ``out``.
    for view in (out, out.T):
        src = view.copy()
        for d in range(1, min(size // 2, view.shape[1] - 1) + 1):
            view[:, d:] |= src[:, :-d]
            view[:, :-d] |= src[:, d:]
    return out


def dilate(bm: FocusMap, size: int) -> FocusMap:
    """Dilate a 0/1 map with a square size x size structuring element."""
    return FocusMap(
        cells=binary_dilate(bm.cells, size).astype(np.uint8),
        stride=bm.stride,
        image=bm.image,
    )


def _runs(mask: np.ndarray) -> np.ndarray:
    """The horizontal runs of 1-cells of a 2-D mask in scan order, as (r, 4)
    one-row spans j0, i, j1, i + 1 of half-open cell ranges."""
    h, w = mask.shape
    width = w + 2
    padded = np.zeros((h, width), dtype=bool)
    padded[:, 1:-1] = mask
    # Flat positions row * width + column + 1 of each run's first cell and of
    # the zero just past its last cell, alternating, in scan order.
    edges = np.flatnonzero(np.diff(padded.ravel())) + 1
    rows, first = np.divmod(edges[0::2], width)
    return np.column_stack([first - 1, rows, edges[1::2] - rows * width - 1, rows + 1])


def _join_runs(runs: np.ndarray, owners: np.ndarray, gap: int):
    """Runs of many masks in scan order, mask by mask, with the runs of one
    row that lie at most ``gap`` cells apart joined into one: the runs of
    each mask dilated along its rows by ``gap // 2`` cells per side, before
    they are widened. Returns the joined runs and their owners."""
    apart = np.ones(len(runs) + 1, dtype=bool)
    apart[1:-1] = ((runs[1:, 0] - runs[:-1, 2] > gap) | (runs[1:, 1] != runs[:-1, 1])
                   | (owners[1:] != owners[:-1]))
    first = apart[:-1]
    return np.column_stack([runs[first, :2], runs[apart[1:], 2:]]), owners[first]


def component_bounds(mask: np.ndarray) -> np.ndarray:
    """The (m, 4) int64 cell bounds min_col, min_row, max_col, max_row of
    the 8-connected components of the 1-cells of a 2-D mask, ordered by
    each component's first cell in scan order: the
    :func:`~pyrsample.focus_spans.span_components` of the mask's runs.
    """
    from .focus_spans import span_components

    runs = _runs(mask)
    return span_components(runs, np.zeros(len(runs), dtype=np.intp))[0]


def connected_components(bm: FocusMap) -> np.ndarray:
    """The :func:`component_bounds` of a 0/1 map's 1-cells."""
    return component_bounds(bm.cells)


def _grow(rects: np.ndarray, min_side: np.ndarray | float, limit: np.ndarray) -> np.ndarray:
    """The (..., 4) corner array ``rects`` grown symmetrically to ``min_side``
    per side within canvases of ``limit`` (width, height); ``min_side`` and
    ``limit`` broadcast against the rows.

    Per axis, [lo, hi] grows to at least ``min_side`` around its centre and
    is shifted inward at [0, limit], or becomes [0, limit] where that does
    not fit.
    """
    lo, hi = rects[..., :2], rects[..., 2:]
    target = np.maximum(min_side, hi - lo)
    new_lo = np.minimum(np.maximum((lo + hi) / 2.0 - target / 2.0, 0.0), limit - target)
    full = target >= limit
    return np.concatenate(
        [np.where(full, 0.0, new_lo), np.where(full, limit, new_lo + target)], axis=-1
    )


# Index pairs compared per block by the pairwise kernels, which bounds their
# temporaries.
_PAIR_BLOCK = 1 << 16


def _blocks(costs: np.ndarray, cap: int):
    """Consecutive ranges [i, end) of ``costs`` whose sum stays within
    ``cap``; an item that alone exceeds ``cap`` is a range of its own."""
    ends = np.cumsum(costs)
    i, done = 0, 0
    while i < len(costs):
        end = max(int(np.searchsorted(ends, done + cap, side="right")), i + 1)
        yield i, end
        i, done = end, int(ends[end - 1])


def _pair_blocks(first: np.ndarray, stop: np.ndarray):
    """The index pairs (i, j) with first[i] <= j < stop[i], as two arrays per
    block of about ``_PAIR_BLOCK`` pairs."""
    counts = np.maximum(stop - first, 0)
    for i, end in _blocks(counts, _PAIR_BLOCK):
        c = counts[i:end]
        total = int(c.sum())
        if total:
            offsets = np.repeat(first[i:end] - (np.cumsum(c) - c), c)
            yield np.repeat(np.arange(i, end), c), np.arange(total) + offsets


def _join(label: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``label`` with the classes of u[i] and v[i] joined, for every i.

    ``label`` maps each node to the least node of its class, and so does the
    result. Each round hooks the larger root of every linked pair onto the
    smaller one, then jumps every label to its root.
    """
    label = label.copy()
    while True:
        lu, lv = label[u], label[v]
        split = lu != lv
        if not split.any():
            return label
        u, v, lu, lv = u[split], v[split], lu[split], lv[split]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _merge(rects: np.ndarray, maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per map, the (m, 4) corner rows ``rects`` replaced by the enclosing
    rectangle of each group that overlapping rectangles join, until no two
    overlap: the (g, 4) group rectangles and the index of each group's
    first member, by map, then first member. ``maps`` holds each row's
    non-decreasing map index; rectangles that only share an edge do not
    overlap.

    Because rectangles only grow, the partition is unique. A group's
    rectangle is kept at its least member, its label; only a map where
    groups merged can hold a new overlap, so each round compares the groups
    of those maps alone.
    """
    lo, hi = rects[:, :2].copy(), rects[:, 2:].copy()
    rows = label = np.arange(len(rects))
    candidates = rows
    while True:
        on = maps[candidates]
        joined = label
        for i, j in _pair_blocks(
            np.arange(1, len(on) + 1), np.searchsorted(on, on, side="right")
        ):
            a, b = candidates[i], candidates[j]
            overlap = (np.minimum(hi[a], hi[b]) > np.maximum(lo[a], lo[b])).all(axis=1)
            if overlap.any():
                joined = _join(joined, a[overlap], b[overlap])
        if joined is label:
            break
        moved = np.flatnonzero(joined != label)
        label = joined
        np.minimum.at(lo, label[moved], lo[moved])
        np.maximum.at(hi, label[moved], hi[moved])
        merged = np.zeros(int(maps[-1]) + 1, dtype=bool)
        merged[maps[moved]] = True
        candidates = np.flatnonzero((label == rows) & merged[maps])
    roots = np.flatnonzero(label == rows)
    return np.concatenate([lo[roots], hi[roots]], axis=1), roots


def merge_overlapping(rects: np.ndarray) -> np.ndarray:
    """The (n, 4) corner rows ``rects`` with overlapping rectangles replaced
    by their joint enclosing rectangle until no two overlap; rectangles
    that only share an edge do not overlap.

    Groups are listed in the order of their first member in ``rects``, each
    as the enclosing rectangle of its members: the merge of
    :func:`chips_from_bounds` for one map.
    """
    merged, _ = _merge(rects, np.zeros(len(rects), dtype=np.intp))
    return merged


def generate_focus_chips(p: FocusMap, params: FocusParams, image: ImageSize) -> np.ndarray:
    """Enclosing chips for all above-threshold regions of a map.

    Returns (n, 4) corner rows in the image-pixel frame: cell (i, j)
    projects to the pixel block [j*s, (j+1)*s] x [i*s, (i+1)*s], clamped to
    the canvas. Every above-threshold cell ends up inside exactly one output
    chip; chips are pairwise non-overlapping and at least ``min_chip_size``
    per side (or the full canvas extent, whichever is smaller).
    """
    if (image.width, image.height) != (p.image.width, p.image.height):
        raise ValueError(
            f"map was built for {p.image.width}x{p.image.height}, "
            f"got image {image.width}x{image.height}"
        )
    chips, _ = chips_from_maps([p], params)
    return chips


# Cell runs that chips_from_maps holds at once, which bounds its
# temporaries; a map with more runs is a block of its own.
_RUN_BLOCK = 1 << 16


def chips_from_maps(
    maps: Iterable[FocusMap], params: FocusParams
) -> tuple[np.ndarray, np.ndarray]:
    """The focus chips of a sequence of maps: the (c, 4) chip corners in
    the pixel frame of each map's image, and the (c,) position in ``maps``
    of each chip's map, chips grouped by map in map order.

    The maps are read one at a time. Each map's cells are thresholded as
    :func:`threshold_map` does, and only the horizontal runs of set cells
    are kept. Consecutive maps whose runs make about ``_RUN_BLOCK`` rows
    are chipped as one block, so maps may differ in stride, grid and
    canvas. The chips of each map are those of :func:`generate_focus_chips`.
    """
    parts = [(np.zeros((0, 4)), np.zeros(0, dtype=np.intp))]
    # Per map of the current block: its runs, and its stride, grid and canvas.
    runs: list[np.ndarray] = []
    shapes: list[tuple[int, int, int, int, int]] = []
    held = first = 0
    for n, m in enumerate(maps):
        r = _runs(_set_cells(m.cells, params.threshold, params.strict_threshold))
        if runs and held + len(r) > _RUN_BLOCK:
            parts.append(_block_chips(runs, shapes, params, first))
            runs, shapes, held, first = [], [], 0, n
        runs.append(r)
        shapes.append((m.stride, *m.cells.shape[::-1], m.image.width, m.image.height))
        held += len(r)
    if runs:
        parts.append(_block_chips(runs, shapes, params, first))
    chips, owners = zip(*parts)
    return np.concatenate(chips), np.concatenate(owners)


def _block_chips(
    runs: list[np.ndarray],
    shapes: list[tuple[int, int, int, int, int]],
    params: FocusParams,
    first: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The focus chips of a block of maps that starts at map position
    ``first``, given as each map's runs and its stride, grid width and
    height and canvas width and height: the chip corners and each chip's
    map position.

    The runs are dilated and labelled as spans
    (:func:`~pyrsample.focus_spans.dilate_spans`,
    :func:`~pyrsample.focus_spans.span_components`), and every component
    goes through one :func:`chips_from_bounds` call with its map's stride.
    """
    from .focus_spans import dilate_spans, span_components

    on = np.repeat(np.arange(len(runs)), [len(r) for r in runs])
    stride, grid_w, grid_h, width, height = np.array(shapes, dtype=np.int64).T
    # Runs that the dilation makes overlap are joined first, so the spans
    # follow the dilated masks; their union is the same. A gap within a row
    # is narrower than the grid, so a radius capped at the widest grid
    # joins the same runs.
    radius = min(params.dilation // 2, int(grid_w.max()))
    joined, on = _join_runs(np.concatenate(runs), on, 2 * radius)
    grown = dilate_spans(joined, on, np.column_stack([grid_w, grid_h]), params.dilation)
    bounds, on = span_components(grown, on)
    rects, on = chips_from_bounds(bounds, on, np.column_stack([width, height]),
                                  stride[on][:, None], params.min_chip_size)
    return rects, on + first


def chips_from_components(
    bounds: np.ndarray, stride: int, min_chip_size: int, image: ImageSize
) -> np.ndarray:
    """The (n, 4) focus chip corners of one map's (m, 4) component cell
    bounds, as :func:`component_bounds` gives them: :func:`chips_from_bounds`
    for a single map.
    """
    chips, _ = chips_from_bounds(
        bounds, np.zeros(len(bounds), dtype=np.intp), np.array([[image.width, image.height]]),
        stride, min_chip_size,
    )
    return chips


def chips_from_bounds(
    bounds: np.ndarray,
    maps: np.ndarray,
    limits: np.ndarray,
    stride: int | np.ndarray,
    min_chip_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Focus chips of many maps: the (m, 4) chip corners and the (m,) map
    index of each chip.

    ``bounds`` holds cell bounds min_col, min_row, max_col, max_row per
    component, as :func:`component_bounds` gives them, with rows grouped by
    their non-decreasing map index ``maps``; ``limits`` holds each map's
    canvas (width, height), and ``stride`` is one for all rows or an (m, 1)
    array of each row's map stride. Each component's pixel rectangle,
    clipped to its canvas, is grown to ``min_chip_size``. Then, per map,
    rectangles that overlap are merged into their enclosing rectangle until
    none overlap (:func:`_merge`, the merge of :func:`merge_overlapping`),
    with groups in the order of their first member. Every group's rectangle
    is grown once more, as the per-rectangle pipeline did, so the outputs
    match it exactly.
    """
    limit = limits[maps]
    pixel = np.minimum((bounds + (0, 0, 1, 1)) * stride, limit[:, [0, 1, 0, 1]])
    limit = limit.astype(np.float64)
    grown = _grow(pixel.astype(np.float64), min_chip_size, limit)
    rects, roots = _merge(grown, maps)
    return _grow(rects, min_chip_size, limit[roots]), maps[roots]
