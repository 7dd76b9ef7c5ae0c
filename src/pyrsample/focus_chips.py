"""Chip generation from a probability map: threshold, dilate, connect, merge.

The pipeline turns a feature-map probability grid into a small set of
non-overlapping image rectangles: binarize at a threshold, dilate so nothing
interesting sits on a chip border, extract 8-connected components, take each
component's enclosing rectangle in pixel coordinates, grow it to a minimum
side, and merge rectangles until none overlap.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .geometry import BoundingBox, ImageSize
from .focus_labels import ProbabilityMap, grid_shape


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
        if self.dilation < 1 or self.dilation % 2 == 0:
            raise ValueError(f"dilation must be odd and >= 1: {self.dilation}")
        if self.min_chip_size < 1:
            raise ValueError(f"min_chip_size must be >= 1: {self.min_chip_size}")


@dataclass
class BinaryMap:
    """{0, 1} grid with the geometry of its source probability map."""

    cells: np.ndarray
    stride: int
    image: ImageSize

    def __post_init__(self) -> None:
        expected = grid_shape(self.image, self.stride)
        if self.cells.shape != expected:
            raise ValueError(
                f"cell grid {self.cells.shape} does not match image "
                f"{self.image.width}x{self.image.height} at stride {self.stride}"
            )


@dataclass
class ConnectedComponent:
    """One maximal 8-connected set of 1-cells and its cell-space bounds."""

    cells: list[tuple[int, int]]
    min_row: int
    min_col: int
    max_row: int
    max_col: int


def threshold_map(p: ProbabilityMap, threshold: float, strict: bool = False) -> BinaryMap:
    """Binarize a probability map; the comparison is inclusive by default."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold out of range: {threshold}")
    if strict:
        cells = p.cells > threshold
    else:
        cells = p.cells >= threshold
    return BinaryMap(cells=cells.astype(np.uint8), stride=p.stride, image=p.image)


def binary_dilate(mask: np.ndarray, size: int) -> np.ndarray:
    """Binary dilation by a size x size square kernel, borders clipped."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1: {size}")
    if size == 1:
        return mask.astype(bool).copy()
    r = size // 2
    src = mask.astype(bool)
    out = np.zeros_like(src)
    h, w = src.shape
    for dy in range(-r, r + 1):
        ys = slice(max(dy, 0), h + min(dy, 0))
        yd = slice(max(-dy, 0), h + min(-dy, 0))
        for dx in range(-r, r + 1):
            xs = slice(max(dx, 0), w + min(dx, 0))
            xd = slice(max(-dx, 0), w + min(-dx, 0))
            out[yd, xd] |= src[ys, xs]
    return out


def dilate(bm: BinaryMap, size: int) -> BinaryMap:
    """Dilate a binary map with a square size x size structuring element."""
    return BinaryMap(
        cells=binary_dilate(bm.cells, size).astype(np.uint8),
        stride=bm.stride,
        image=bm.image,
    )


def connected_components(bm: BinaryMap) -> list[ConnectedComponent]:
    """Partition 1-cells into maximal 8-connected components.

    Run-based labeling (He et al., IEEE TIP 2008): the horizontal runs of
    1-cells come from one ``np.diff`` over the zero-padded mask, runs in
    adjacent rows whose column spans overlap or meet diagonally are joined
    by a union-find over runs, and each component's cells and bounds are
    read off its runs. Components are ordered by their top-left-most cell in
    scan order; each component's ``cells`` are in row-major order.
    """
    h, w = bm.cells.shape
    width = w + 2
    padded = np.zeros((h, width), dtype=bool)
    padded[:, 1:-1] = bm.cells
    # Flat positions row * width + column + 1 of each run's first cell and of
    # the zero just past its last cell, alternating, in scan order.
    edges = np.flatnonzero(np.diff(padded.ravel())) + 1
    if len(edges) == 0:
        return []
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
    # first cell and each one lists its runs row-major.
    runs: dict[int, list[int]] = {}
    for i in range(len(rows)):
        runs.setdefault(find(i), []).append(i)
    components = []
    for members in runs.values():
        cells: list[tuple[int, int]] = []
        for i in members:
            cells.extend(zip(repeat(rows[i]), range(first_cols[i], end_cols[i])))
        components.append(
            ConnectedComponent(
                cells,
                rows[members[0]],
                min([first_cols[i] for i in members]),
                rows[members[-1]],
                max([end_cols[i] for i in members]) - 1,
            )
        )
    return components


def _expand_interval(lo: float, hi: float, min_len: float, limit: float) -> tuple[float, float]:
    """Grow [lo, hi] to at least min_len, centered, shifted inward at [0, limit]."""
    length = hi - lo
    target = max(min_len, length)
    if target >= limit:
        return 0.0, limit
    center = (lo + hi) / 2.0
    new_lo = center - target / 2.0
    new_lo = min(max(new_lo, 0.0), limit - target)
    return new_lo, new_lo + target


def expand_to_min_size(rect: BoundingBox, min_side: float, image: ImageSize) -> BoundingBox:
    """Symmetric growth of a rectangle to a minimum side within the canvas."""
    x1, x2 = _expand_interval(rect.x1, rect.x2, min_side, float(image.width))
    y1, y2 = _expand_interval(rect.y1, rect.y2, min_side, float(image.height))
    return BoundingBox(x1, y1, x2, y2)


def merge_overlapping(rects: list[BoundingBox]) -> list[BoundingBox]:
    """Replace overlapping rectangles by their joint enclosing rectangle until
    no two overlap; rectangles that only share an edge do not overlap.

    Rectangles are inserted one at a time into a pairwise non-overlapping
    list. An insert absorbs every kept rectangle it overlaps and, once grown,
    is tested again, so no pair scan restarts from the beginning. Because
    rectangles only grow, the resulting partition of the input is unique:
    groups are listed in the order of their first member in ``rects``, each
    as the enclosing rectangle of its members.
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
    comps = connected_components(bm)
    return chips_from_components(comps, p.stride, params.min_chip_size, image)


def chips_from_components(
    comps: list[ConnectedComponent], stride: int, min_chip_size: int, image: ImageSize
) -> list[BoundingBox]:
    """Enclose, grow to the minimum side, and merge component rectangles.

    The tail of :func:`generate_focus_chips`, split out so sweeps over the
    minimum chip size can reuse one component extraction.
    """
    if not comps:
        return []
    rects = []
    for comp in comps:
        pixel_rect = BoundingBox(
            comp.min_col * stride,
            comp.min_row * stride,
            (comp.max_col + 1) * stride,
            (comp.max_row + 1) * stride,
        ).clip(image)
        rects.append(expand_to_min_size(pixel_rect, min_chip_size, image))
    merged = merge_overlapping(rects)
    # Merging only grows rectangles, so this re-expansion is an identity
    # safeguard for the size guarantee.
    return [expand_to_min_size(r, min_chip_size, image) for r in merged]
