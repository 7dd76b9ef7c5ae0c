"""Chip generation from a probability map: threshold, dilate, connect, merge.

The pipeline turns a feature-map probability grid into a small set of
non-overlapping image rectangles: binarize at a threshold, dilate so nothing
interesting sits on a chip border, extract 8-connected components, take each
component's enclosing rectangle in pixel coordinates, grow it to a minimum
side, and merge rectangles until none overlap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BoundingBox, ImageSize
from .focus_labels import ProbabilityMap, check_grid


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


@dataclass
class BinaryMap:
    """{0, 1} grid with the geometry of its source probability map."""

    cells: np.ndarray
    stride: int
    image: ImageSize

    def __post_init__(self) -> None:
        check_grid(self.cells, self.image, self.stride)


def threshold_map(p: ProbabilityMap, threshold: float, strict: bool = False) -> BinaryMap:
    """Binarize a probability map; the comparison is inclusive by default."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold out of range: {threshold}")
    if strict:
        cells = p.cells > threshold
    else:
        cells = p.cells >= threshold
    return BinaryMap(cells=cells.astype(np.uint8), stride=p.stride, image=p.image)


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


def dilate(bm: BinaryMap, size: int) -> BinaryMap:
    """Dilate a binary map with a square size x size structuring element."""
    return BinaryMap(
        cells=binary_dilate(bm.cells, size).astype(np.uint8),
        stride=bm.stride,
        image=bm.image,
    )


def component_bounds(mask: np.ndarray) -> np.ndarray:
    """The (m, 4) int64 cell bounds min_col, min_row, max_col, max_row of
    the 8-connected components of the 1-cells of a 2-D mask, ordered by
    each component's first cell in scan order.

    Run-based labeling (He et al., IEEE TIP 2008): the horizontal runs of
    1-cells come from one ``np.diff`` over the zero-padded mask, and runs in
    adjacent rows whose column spans overlap or meet diagonally are joined
    by a union-find over runs. It is the dense reference for
    :func:`pyrsample.focus_spans.span_components`.
    """
    h, w = mask.shape
    width = w + 2
    padded = np.zeros((h, width), dtype=bool)
    padded[:, 1:-1] = mask
    # Flat positions row * width + column + 1 of each run's first cell and of
    # the zero just past its last cell, alternating, in scan order.
    edges = np.flatnonzero(np.diff(padded.ravel())) + 1
    if len(edges) == 0:
        return np.zeros((0, 4), dtype=np.int64)
    starts, ends = edges[0::2], edges[1::2]
    # Run b in the next row touches run a (8-connectivity) when its span
    # reaches a's span widened by one column. Positions increase along the
    # runs, so the runs touching a form the index range lo[a]:hi[a].
    lo = np.searchsorted(ends, starts + width, side="left").tolist()
    hi = np.searchsorted(starts, ends + width, side="right").tolist()
    rows = starts // width
    offsets = rows * width + 1
    first_cols = (starts - offsets).tolist()
    end_cols = (ends - offsets).tolist()
    rows = rows.tolist()

    # Union-find over runs.
    parent = list(range(len(rows)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(len(rows)):
        for b in range(lo[a], hi[a]):
            parent[find(b)] = find(a)

    # Runs are visited in scan order, so components come out ordered by their
    # first run and each one lists its runs row-major.
    runs: dict[int, list[int]] = {}
    for i in range(len(rows)):
        runs.setdefault(find(i), []).append(i)
    return np.array(
        [
            (
                min([first_cols[i] for i in members]),
                rows[members[0]],
                max([end_cols[i] for i in members]) - 1,
                rows[members[-1]],
            )
            for members in runs.values()
        ],
        dtype=np.int64,
    )


def connected_components(bm: BinaryMap) -> np.ndarray:
    """The :func:`component_bounds` of a binary map's 1-cells."""
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


def merge_overlapping(rects: list[BoundingBox]) -> list[BoundingBox]:
    """Replace overlapping rectangles by their joint enclosing rectangle until
    no two overlap; rectangles that only share an edge do not overlap.

    Rectangles are inserted one at a time into a pairwise non-overlapping
    list. An insert absorbs every kept rectangle it overlaps and, once grown,
    is tested again, so no pair scan restarts from the beginning. Because
    rectangles only grow, the resulting partition of the input is unique:
    groups are listed in the order of their first member in ``rects``, each
    as the enclosing rectangle of its members. :func:`chips_from_bounds`
    finds the same partition for many maps at once.
    """
    # Slots are in the order of each group's first member; an absorbed group
    # leaves None behind so that the other slots keep their order.
    merged: list[BoundingBox | None] = []
    for rect in rects:
        slot = len(merged)
        grown = True
        while grown:
            grown = False
            for k, other in enumerate(merged):
                if other is not None and rect.intersection(other) is not None:
                    rect = other.union_rect(rect)
                    merged[k] = None
                    slot = min(slot, k)
                    grown = True
        if slot == len(merged):
            merged.append(rect)
        else:
            merged[slot] = rect
    return [rect for rect in merged if rect is not None]


def generate_focus_chips(
    p: ProbabilityMap, params: FocusParams, image: ImageSize
) -> list[BoundingBox]:
    """Enclosing chips for all above-threshold regions of a probability map.

    Returns rectangles in the image-pixel frame: cell (i, j) projects to the
    pixel block [j*s, (j+1)*s] x [i*s, (i+1)*s], clamped to the canvas. Every
    above-threshold cell ends up inside exactly one output chip; chips are
    pairwise non-overlapping and at least ``min_chip_size`` per side (or the
    full canvas extent, whichever is smaller).
    """
    if (image.width, image.height) != (p.image.width, p.image.height):
        raise ValueError(
            f"map was built for {p.image.width}x{p.image.height}, "
            f"got image {image.width}x{image.height}"
        )
    bm = threshold_map(p, params.threshold, strict=params.strict_threshold)
    bm = dilate(bm, params.dilation)
    bounds = connected_components(bm)
    return chips_from_components(bounds, p.stride, params.min_chip_size, image)


def chips_from_components(
    bounds: np.ndarray, stride: int, min_chip_size: int, image: ImageSize
) -> list[BoundingBox]:
    """The focus chips of one map's (m, 4) component cell bounds, as
    :func:`component_bounds` gives them: :func:`chips_from_bounds` for a
    single map. The tail of :func:`generate_focus_chips`.
    """
    chips, _ = chips_from_bounds(
        bounds, np.zeros(len(bounds), dtype=np.intp), np.array([[image.width, image.height]]),
        stride, min_chip_size,
    )
    return [BoundingBox(*row) for row in chips.tolist()]


def chips_from_bounds(
    bounds: np.ndarray,
    maps: np.ndarray,
    limits: np.ndarray,
    stride: int,
    min_chip_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Focus chips of many maps: the (m, 4) chip corners and the (m,) map
    index of each chip.

    ``bounds`` holds cell bounds min_col, min_row, max_col, max_row per
    component, as :func:`component_bounds` gives them, with rows grouped by
    their non-decreasing map index ``maps``; ``limits`` holds each map's
    canvas (width, height). Each component's pixel rectangle, clipped to its
    canvas, is grown to ``min_chip_size``. Then, per map, rectangles that
    overlap are merged into their enclosing rectangle until none overlap:
    the partition of :func:`merge_overlapping`, with groups in the order of
    their first member. Every group's rectangle is grown once more, as the
    per-rectangle pipeline did, so the outputs match it exactly.
    """
    limit = limits[maps]
    pixel = np.minimum((bounds + (0, 0, 1, 1)) * stride, limit[:, [0, 1, 0, 1]])
    limit = limit.astype(np.float64)
    grown = _grow(pixel.astype(np.float64), min_chip_size, limit)
    # A group's enclosing rectangle is kept at its least member, its label.
    lo, hi = grown[:, :2].copy(), grown[:, 2:].copy()
    rows = label = np.arange(len(bounds))
    # Only a map where groups merged can hold a new overlap, so each round
    # compares the groups of those maps alone.
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
        merged = np.zeros(len(limits), dtype=bool)
        merged[maps[moved]] = True
        candidates = np.flatnonzero((label == rows) & merged[maps])
    roots = np.flatnonzero(label == rows)
    rects = np.concatenate([lo[roots], hi[roots]], axis=1)
    return _grow(rects, min_chip_size, limit[roots]), maps[roots]
