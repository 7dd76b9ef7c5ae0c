"""Ground-truth focus masks as cell spans, batched over many maps.

Focus labels are painted last, so a map's focus mask is exactly the union
of its focus boxes' cell spans, and ignore boxes never change it. Each
quantity the ground-truth statistics need follows from the spans, without
building a grid:

- dilation by a d x d square grows every span by d // 2 cells per side,
  clipped to the map's grid;
- an 8-connected component is the closure of spans that touch, i.e. whose
  half-open ranges satisfy j0 <= j1' and j0' <= j1 and i0 <= i1' and
  i0' <= i1; its bounds are (min j0, min i0, max j1 - 1, max i1 - 1);
- components come in scan order of their first cell: by map, then min row,
  then the least j0 among the spans on that row;
- cell counts are union areas, found by coordinate compression per map.

So nothing grows with the canvas area. A span is an int row j0, i0, j1, i1
of half-open cell ranges, as :func:`_cell_spans` gives it; every function
takes the spans of many maps at once, with the map index of each span.

It is the lowest focus module, and it imports none of the others.
"""
from __future__ import annotations

import numpy as np

from .geometry import level_boxes


def _grid_sides(sides, stride: int):
    """The cells along each of ``sides`` (an int or an int array) of a grid
    at a feature-map ``stride``: each side ceil-divided by the stride."""
    return -(-sides // stride)


def check_kernel_size(size: int, name: str = "kernel size") -> None:
    """Raise ``ValueError`` unless ``size`` is an odd square kernel side >= 1."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"{name} must be odd and >= 1: {size}")


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


def dilate_spans(
    spans: np.ndarray, owners: np.ndarray, grids: np.ndarray, dilation: int
) -> np.ndarray:
    """The spans of each map's focus mask dilated by a ``dilation`` x
    ``dilation`` square: every span grown by ``dilation // 2`` cells per side
    and clipped to its map's grid."""
    # A radius past the largest grid side gives the same clipped spans.
    radius = min(dilation // 2, int(grids.max(initial=0)))
    grown = spans + (-radius, -radius, radius, radius)
    return np.minimum(np.maximum(grown, 0), np.tile(grids[owners], 2))


def _packed(owners: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The int64 keys owner * 2^32 + value, which order the pairs (owner,
    value) lexicographically: owners in [0, 2^31) and values in [0, 2^32)."""
    return owners.astype(np.int64) << 32 | values.astype(np.int64)


def _distinct(owners: np.ndarray, values: np.ndarray):
    """Per owner, the sorted distinct ``values``: the distinct values, their
    owners, and the index of each input into them. Owners lie in [0, 2^31)
    and values in [0, 2^32)."""
    key = _packed(owners, values)
    order = np.argsort(key)
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    index = np.empty(len(key), dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    first = order[new]
    return values[first], owners[first], index


# Box rows, one per box and map, that the statistics rescale at once, which
# bounds the temporaries of a batch of images.
_ROW_BLOCK = 1 << 14


def dilated_focus_spans(
    boxes: np.ndarray, offsets: np.ndarray, originals: np.ndarray, canvases: np.ndarray,
    levels: np.ndarray, stride: int, min_side: float, max_side: float, ignore_max_side: float,
    dilation: int,
):
    """The focus spans of every (image, level) map, a block of images at a
    time. Per block [lo, hi) it yields (lo, hi, spans, dilated, owners,
    grids): the non-empty (s, 4) focus spans, the spans dilated by
    :func:`dilate_spans`, the (s,) map index of each span in map order, and
    each map's grid as (m, 2) (width, height) cells.

    Image i has the rows ``offsets[i]:offsets[i + 1]`` of the run-wide
    (N, 4) ``boxes``, in the frame of its row of the (n_images, 2) int
    ``originals``, and its canvas at every level in the (n_images,
    n_levels, 2) int ``canvases``. Map (i - lo) * len(levels) + j of a block
    is image i at level ``levels[j]``: its boxes rescaled to that canvas by
    :func:`~pyrsample.geometry.level_boxes`, on the canvas ceil-divided by
    ``stride``. Its focus boxes are those of
    :func:`~pyrsample.focus_labels.focus_label_maps`, by the one side rule
    of :func:`_focus_rows`. A block holds consecutive images whose boxes
    make about ``_ROW_BLOCK`` rows at all n_levels levels; an image counts
    one row more per level for its map.
    """
    for lo, hi in _blocks((np.diff(offsets) + 1) * canvases.shape[1], _ROW_BLOCK):
        block = canvases[lo:hi, levels].reshape(-1, 2)
        resized, owners, focus, _ = _focus_rows(
            boxes, offsets, originals, np.repeat(np.arange(lo, hi), len(levels)), block,
            min_side, max_side, ignore_max_side,
        )
        grids = _grid_sides(block, stride)
        owners = owners[focus]
        spans = _cell_spans(resized[focus], stride, np.tile(grids[owners], 2))
        keep = (spans[:, 2] > spans[:, 0]) & (spans[:, 3] > spans[:, 1])
        spans, owners = spans[keep], owners[keep]
        yield lo, hi, spans, dilate_spans(spans, owners, grids, dilation), owners, grids


# Elementary rectangles plus span-column pairs that union_cells holds at
# once, which bounds its temporaries; a map that alone needs more runs alone.
_CELL_BLOCK = 1 << 16


def union_cells(spans: np.ndarray, owners: np.ndarray, n_maps: int) -> np.ndarray:
    """The (n_maps,) uint64 count of cells in each map's union of spans.

    Per map, the distinct column and row edges of its spans cut the plane
    into elementary rectangles. Each span adds +1 at its first row edge and
    -1 at its last one, in every elementary column it covers; a cumulative
    sum along each column's row edges then holds the number of spans over
    each elementary rectangle, and the covered ones add their cell area.
    Maps are taken in blocks of about ``_CELL_BLOCK`` rectangles and
    span-column pairs. Edges are below 2^32, so every area and count is
    taken in uint64; a sum over maps may not fit it.
    """
    out = np.zeros(n_maps, dtype=np.uint64)
    m = len(spans)
    if not m:
        return out
    order = np.argsort(owners, kind="stable")
    spans = spans[order].astype(np.uint64)
    maps, seg = np.unique(owners[order], return_inverse=True)
    both = np.concatenate([seg, seg])
    xs, x_seg, xi = _distinct(both, np.concatenate([spans[:, 0], spans[:, 2]]))
    ys, y_seg, yi = _distinct(both, np.concatenate([spans[:, 1], spans[:, 3]]))
    nx, ny = np.bincount(x_seg), np.bincount(y_seg)
    x_first, y_first = np.cumsum(nx) - nx, np.cumsum(ny) - ny
    a = xi - x_first[both]
    b = yi - y_first[both]
    a0, b0, b1 = a[:m], b[:m], b[m:]
    width = a[m:] - a0
    first = np.searchsorted(seg, np.arange(len(maps) + 1))
    pairs = np.diff(np.concatenate([[0], np.cumsum(width)])[first])
    size = nx * ny
    for g, end in _blocks(size + pairs, _CELL_BLOCK):
        s = slice(first[g], first[end])
        # Map h's elementary rectangle (a, b) sits at base[h - g] + a * ny[h] + b.
        base = np.cumsum(size[g:end]) - size[g:end]
        w = width[s]
        span = np.repeat(np.arange(len(w)), w)
        column = a0[s][span] + np.arange(len(span)) - np.repeat(np.cumsum(w) - w, w)
        h = seg[s][span]
        start = base[h - g] + column * ny[h]
        total = int(size[g:end].sum())
        # Each +1 and its -1 share a column, so one running sum serves them all.
        cover = np.cumsum(
            np.bincount(start + b0[s][span], minlength=total)
            - np.bincount(start + b1[s][span], minlength=total)
        )
        cell = np.flatnonzero(cover)
        h = g + np.searchsorted(base, cell, side="right") - 1
        a, b = np.divmod(cell - base[h - g], ny[h])
        a += x_first[h]
        b += y_first[h]
        np.add.at(out, maps[h], (xs[a + 1] - xs[a]) * (ys[b + 1] - ys[b]))
    return out


def _count_at_most(
    owners: np.ndarray, keys: np.ndarray, query_owners: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """For each i, the number of pairs (owners[j], keys[j]) that are at most
    (query_owners[i], queries[i]) in lexicographic order. Owners lie in
    [0, 2^31), and keys and queries in [0, 2^32)."""
    return np.searchsorted(
        np.sort(_packed(owners, keys)), _packed(query_owners, queries), side="right"
    )


def span_components(spans: np.ndarray, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 8-connected components of each map's union of spans: (c, 4) int64
    cell bounds min_col, min_row, max_col, max_row and (c,) map indices,
    ordered by map, then by each component's first cell in scan order.
    """
    # Distinct spans sorted by (map, i0, j0), so each component's least span
    # holds its first cell in scan order. (Unlike np.unique with an axis,
    # lexsort does not import numpy.ma.)
    rows = np.column_stack([owners, spans[:, [1, 0, 3, 2]]])
    rows = rows[np.lexsort(rows.T[::-1])]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    owners, spans = rows[new, 0], rows[new][:, [2, 1, 4, 3]]
    n = len(spans)
    j0, i0, j1, i1 = spans.T
    # The spans of one map with one first row form a group, sorted by j0.
    # The spans that can touch span s from below lie in the groups from its
    # own to the last whose first row is at most its i1.
    first = np.ones(n, dtype=bool)
    first[1:] = (owners[1:] != owners[:-1]) | (i0[1:] != i0[:-1])
    group = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    group_stop = _count_at_most(owners[starts], i0[starts], owners, i1)
    # Keys group * width + column rank order (group, column) in int64, as
    # width is at most 2n. In group g, the candidates of span s run from lo,
    # the first span whose running max of j1 in the group reaches j0_s (none
    # before it ends at or after j0_s), to hi, past the last with
    # j0 <= j1_s. Both (span, group) and (span, candidate) pairs come in
    # blocks.
    _, rank = np.unique(np.concatenate([j0, j1]), return_inverse=True)
    width = int(rank.max(initial=0)) + 1
    starts_key = group * width + rank[:n]
    reach_key = np.maximum.accumulate(group * width + rank[n:])
    label = np.arange(n)
    for s, g in _pair_blocks(group, group_stop):
        lo = np.searchsorted(reach_key, g * width + rank[s], side="left")
        hi = np.searchsorted(starts_key, g * width + rank[n + s], side="right")
        for k, t in _pair_blocks(lo, hi):
            u = s[k]
            # Each touching pair is found from its lesser span.
            touch = (t > u) & (j1[t] >= j0[u])
            if touch.any():
                label = _join(label, u[touch], t[touch])
    lo, hi = spans[:, :2].copy(), spans[:, 2:].copy()
    moved = np.flatnonzero(label != np.arange(n))
    np.minimum.at(lo, label[moved], spans[moved, :2])
    np.maximum.at(hi, label[moved], spans[moved, 2:])
    roots = np.flatnonzero(label == np.arange(n))
    bounds = np.concatenate([lo[roots], hi[roots] - 1], axis=1).astype(np.int64)
    return bounds, owners[roots]
