"""The grid-free ground-truth focus path against the per-cell oracles:
spans, union counts, dilation, components and chips of many maps at once,
and the two statistics built on them."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pyrsample.focus_spans as focus_spans_module
from pyrsample import focus_chips
from pyrsample.costing import speedup_upper_bound
from pyrsample.focus_chips import binary_dilate, chips_from_bounds
from pyrsample.focus_labels import FOCUS, focus_label_cells, focus_pixel_stats
from pyrsample.focus_spans import dilate_spans, focus_spans, span_components, union_cells
from pyrsample.geometry import ImageSize, MaxSideTarget, ScaleSpec, size_array

from conftest import box_columns, gt_columns
from oracles import (
    BoundingBox,
    Gt,
    boxes_array,
    component_bounds_oracle,
    component_chips_oracle,
    count_at_most_oracle,
    distinct_oracle,
    flood_fill_components,
    focus_pixel_stats_oracle,
    resolve_oracle,
    speedup_upper_bound_oracle,
)

PYRAMIDS = [
    [ScaleSpec(scale_id=0, target=1.0)],
    [
        ScaleSpec(scale_id=0, target=0.5),
        ScaleSpec(scale_id=1, target=1.0),
        ScaleSpec(scale_id=2, target=1.667),
    ],
    [ScaleSpec(scale_id=0, target=MaxSideTarget(64)), ScaleSpec(scale_id=1, target=3.0)],
    [ScaleSpec(scale_id=0, target=ImageSize(40, 30)), ScaleSpec(scale_id=1, target=1.0)],
]
KS = [1, 7, 32, 64, 100, 256, 3000]

# Sides at and next to the focus thresholds 5, 64 and 90, zero, and long
# thin boxes whose spans cross many cells.
SIDES = st.one_of(
    st.sampled_from([0.0, 4.999, 5.0, 5.001, 20.0, 63.999, 64.0, 90.0, 300.0]),
    st.floats(0.0, 120.0),
)


@st.composite
def datasets(draw):
    stride = draw(st.sampled_from([8, 32]))
    gts, sizes = {}, {}
    for iid in range(draw(st.integers(1, 3))):
        w, h = draw(st.integers(1, 240)), draw(st.integers(1, 240))
        sizes[iid] = ImageSize(w, h)
        gts[iid] = []
        for _ in range(draw(st.integers(0, 7))):
            # Corners on the cell edges of a factor-1 level, or anywhere.
            x, y = (
                draw(st.one_of(
                    st.integers(0, extent // stride + 1).map(lambda i: float(i * stride)),
                    st.floats(0.0, float(extent)),
                ))
                for extent in (w, h)
            )
            bw = draw(SIDES)
            bh = draw(st.one_of(st.just(bw), SIDES, st.just(max(bw, 1.0) / 8.0)))
            gts[iid].append(Gt(BoundingBox(x, y, x + bw, y + bh), class_id=1))
    return gts, sizes, stride, draw(st.sampled_from(PYRAMIDS))


SETTINGS = dict(
    derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@settings(max_examples=200, **SETTINGS)
@given(
    data=datasets(),
    dilation=st.sampled_from([1, 3, 5, 7]),
    ks=st.lists(st.sampled_from(KS), min_size=1, max_size=4, unique=True),
    pair_block=st.sampled_from([focus_chips._PAIR_BLOCK, 1, 5]),
)
def test_batched_spans_match_dense_kernels_per_map(data, dilation, ks, pair_block):
    gts, sizes, stride, pyramid = data
    boxes = [boxes_array(g.box for g in gts[i]) for i in gts]
    originals = [sizes[i] for i in gts]
    maps = [(i, resolve_oracle(spec, o)) for spec in pyramid for i, o in enumerate(originals)]
    images = np.array([i for i, _ in maps], dtype=np.intp)
    canvases = np.array([(c.width, c.height) for _, c in maps]).reshape(-1, 2)
    spans, owners, grids = focus_spans(
        *box_columns(boxes), size_array(originals), images, canvases, stride, 5.0, 64.0, 90.0
    )
    dilated = dilate_spans(spans, owners, grids, dilation)
    counts = union_cells(spans, owners, len(maps))
    dilated_counts = union_cells(dilated, owners, len(maps))
    # Small pair blocks split the labelling's pair scans.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(focus_chips, "_PAIR_BLOCK", pair_block)
        bounds, comp_maps = span_components(dilated, owners)
    limits = np.array([(c.width, c.height) for _, c in maps])
    per_k = [chips_from_bounds(bounds, comp_maps, limits, stride, k) for k in ks]
    for m, (i, canvas) in enumerate(maps):
        mask = focus_label_cells(boxes[i], originals[i], canvas, stride) == FOCUS
        grown = binary_dilate(mask, dilation)
        assert tuple(grids[m]) == mask.shape[::-1]
        assert counts[m] == mask.sum()
        assert dilated_counts[m] == grown.sum()
        assert bounds[comp_maps == m].tolist() == component_bounds_oracle(grown)
        comps = flood_fill_components(grown)
        for k, (chips, chip_maps) in zip(ks, per_k):
            want = component_chips_oracle(comps, stride, k, canvas)
            assert chips[chip_maps == m].tolist() == [list(r.as_tuple()) for r in want]


@settings(max_examples=60, **SETTINGS)
@given(
    data=datasets(),
    dilation=st.sampled_from([1, 3, 5, 7]),
    ks=st.lists(st.sampled_from(KS), min_size=1, max_size=4, unique=True),
    coarsest_fully=st.booleans(),
    row_block=st.sampled_from([focus_spans_module._ROW_BLOCK, 1, 9]),
)
def test_statistics_match_per_cell_oracles(data, dilation, ks, coarsest_fully, row_block):
    gts, sizes, stride, pyramid = data
    kwargs = dict(stride=stride, dilation=dilation)
    # Small row blocks split the images over many blocks.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(focus_spans_module, "_ROW_BLOCK", row_block)
        got = speedup_upper_bound(
            *gt_columns(gts, sizes), pyramid, ks, process_coarsest_fully=coarsest_fully, **kwargs
        )
        stats = focus_pixel_stats(*gt_columns(gts, sizes), pyramid, **kwargs)
    assert got == speedup_upper_bound_oracle(
        gts, sizes, pyramid, ks, process_coarsest_fully=coarsest_fully, **kwargs
    )
    want = focus_pixel_stats_oracle(gts, sizes, pyramid, **kwargs)
    assert {
        sid: (s.focus_cells, s.total_cells, s.focus_cells_dilated, s.mean_projected_area,
              s.mean_canvas_area)
        for sid, s in stats.items()
    } == want


# Owners near 2^31 and values near 2^32, the top of the packed keys' ranges,
# and small ones, drawn from few choices so that keys repeat.
OWNERS = st.one_of(st.integers(0, 3), st.integers(2**31 - 3, 2**31 - 1))
VALUES = st.one_of(st.integers(0, 4), st.integers(2**32 - 3, 2**32 - 1))
PAIRS = st.lists(st.tuples(OWNERS, VALUES), max_size=40)


@settings(max_examples=300, **SETTINGS)
@given(pairs=PAIRS, queries=PAIRS, dtype=st.sampled_from([np.int64, np.uint64]))
@example(pairs=[], queries=[], dtype=np.int64)
@example(pairs=[(2**31 - 1, 2**32 - 1)] * 3 + [(0, 0)], queries=[(2**31 - 1, 2**32 - 1)],
         dtype=np.uint64)
def test_packed_keys_match_the_lexsort_forms(pairs, queries, dtype):
    # The cover passes int64 lattice indices and union_cells uint64 edges.
    owners = np.array([o for o, _ in pairs], dtype=np.intp)
    values = np.array([v for _, v in pairs], dtype=dtype)
    for got, want in zip(focus_spans_module._distinct(owners, values),
                         distinct_oracle(owners, values)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    query_owners = np.array([o for o, _ in queries], dtype=np.intp)
    query_values = np.array([v for _, v in queries], dtype=dtype)
    got = focus_spans_module._count_at_most(owners, values, query_owners, query_values)
    want = count_at_most_oracle(owners, values, query_owners, query_values)
    assert got.tolist() == want.tolist()


def _oracle_chips(bounds, stride, k, image):
    comps = [{(r0, c0), (r1, c1)} for c0, r0, c1, r1 in bounds]
    return [list(r.as_tuple()) for r in component_chips_oracle(comps, stride, k, image)]


@pytest.mark.parametrize("pair_block", [focus_chips._PAIR_BLOCK, 1, 5])
def test_merges_over_several_rounds_across_maps(monkeypatch, pair_block):
    monkeypatch.setattr(focus_chips, "_PAIR_BLOCK", pair_block)
    # Map 1: C misses A and absorbs B; the grown C then overlaps A, which
    # only a second round sees. Maps 0 and 2 keep their rectangles.
    by_map = [
        [(0, 0, 3, 3), (20, 20, 23, 23)],
        [(0, 0, 3, 3), (3, 6, 7, 9), (6, 2, 9, 7)],
        [(5, 5, 5, 5)],
    ]
    images = [ImageSize(40, 40), ImageSize(12, 12), ImageSize(9, 9)]
    bounds = np.array([b for rows in by_map for b in rows])
    maps = np.repeat(np.arange(3), [len(rows) for rows in by_map])
    limits = np.array([(im.width, im.height) for im in images])
    ks = [1, 4, 11]
    per_k = [chips_from_bounds(bounds, maps, limits, 1, k) for k in ks]
    chips, chip_maps = per_k[0]
    assert chips[chip_maps == 1].tolist() == [[0.0, 0.0, 10.0, 10.0]]
    for k, (chips, chip_maps) in zip(ks, per_k):
        for m, rows in enumerate(by_map):
            assert chips[chip_maps == m].tolist() == _oracle_chips(rows, 1, k, images[m])


@pytest.mark.parametrize("pair_block", [focus_chips._PAIR_BLOCK, 1, 5])
def test_random_bounds_of_many_maps_match_oracle(monkeypatch, pair_block):
    monkeypatch.setattr(focus_chips, "_PAIR_BLOCK", pair_block)
    rng = np.random.default_rng(23)
    for trial in range(40):
        stride = int(rng.choice([1, 8, 32]))
        by_map, images = [], []
        for _ in range(int(rng.integers(1, 6))):
            w, h = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            corners = rng.integers(0, [w, h], (int(rng.integers(0, 12)), 2))
            sides = rng.integers(0, 4, corners.shape)
            by_map.append([(c, r, c + dc, r + dr) for (c, r), (dc, dr) in
                           zip(corners.tolist(), sides.tolist())])
            # Canvases a little smaller than the grid clip the last cells.
            images.append(ImageSize(max(1, w * stride - int(rng.integers(0, stride))),
                                    max(1, h * stride - int(rng.integers(0, stride)))))
        bounds = np.array([b for rows in by_map for b in rows], dtype=np.int64).reshape(-1, 4)
        maps = np.repeat(np.arange(len(by_map)), [len(rows) for rows in by_map])
        limits = np.array([(im.width, im.height) for im in images])
        for k in KS:
            chips, chip_maps = chips_from_bounds(bounds, maps, limits, stride, k)
            for m, rows in enumerate(by_map):
                want = _oracle_chips(rows, stride, k, images[m])
                assert chips[chip_maps == m].tolist() == want, (trial, k, m)


@pytest.mark.parametrize("pair_block", [focus_chips._PAIR_BLOCK, 1, 5])
def test_components_of_random_nested_spans_match_flood_fill(monkeypatch, pair_block):
    # Many spans on small grids nest and overlap within one first row, so a
    # span often reaches a row's span past narrower ones that start after
    # it; spans come in no particular order.
    monkeypatch.setattr(focus_chips, "_PAIR_BLOCK", pair_block)
    rng = np.random.default_rng(41)
    for trial in range(150):
        n_maps = int(rng.integers(1, 5))
        grids = rng.integers(1, 13, (n_maps, 2))
        owners = rng.integers(0, n_maps, int(rng.integers(0, 30)))
        lo = rng.integers(0, grids[owners])
        hi = np.minimum(lo + 1 + rng.integers(0, 8, lo.shape) * rng.integers(0, 2, lo.shape),
                        grids[owners])
        spans = np.concatenate([lo, hi], axis=1).reshape(-1, 4)
        masks = [np.zeros((h, w), dtype=bool) for w, h in grids.tolist()]
        for (j0, i0, j1, i1), m in zip(spans.tolist(), owners.tolist()):
            masks[m][i0:i1, j0:j1] = True
        bounds, comp_maps = span_components(spans, owners)
        assert (np.diff(comp_maps) >= 0).all(), trial
        for m, mask in enumerate(masks):
            assert bounds[comp_maps == m].tolist() == component_bounds_oracle(mask), (trial, m)


def test_span_reaches_a_wide_span_past_narrow_ones():
    # Row 1 holds [0, 10) with [1, 2) and [3, 4) inside it; the span on
    # row 0 at columns 6-7 touches only the wide one.
    spans = np.array([[6, 0, 8, 1], [0, 1, 10, 2], [1, 1, 2, 2], [3, 1, 4, 2]])
    bounds, comp_maps = span_components(spans, np.zeros(4, dtype=np.intp))
    assert bounds.tolist() == [[0, 0, 9, 1]] and comp_maps.tolist() == [0]


@pytest.mark.parametrize("cell_block", [focus_spans_module._CELL_BLOCK, 1, 40])
def test_union_cells_of_unordered_maps_in_blocks(monkeypatch, cell_block):
    # Small blocks split the maps over many blocks; maps without spans and
    # spans listed out of map order must not shift any count.
    monkeypatch.setattr(focus_spans_module, "_CELL_BLOCK", cell_block)
    rng = np.random.default_rng(31)
    for trial in range(80):
        n_maps = int(rng.integers(1, 7))
        grids = rng.integers(1, 20, (n_maps, 2))
        owners = rng.integers(0, n_maps, int(rng.integers(0, 25)))
        lo = rng.integers(0, grids[owners])
        hi = np.minimum(lo + rng.integers(0, 6, lo.shape), grids[owners])
        spans = np.concatenate([lo, hi], axis=1).reshape(-1, 4)
        masks = [np.zeros((h, w), dtype=bool) for w, h in grids.tolist()]
        for (j0, i0, j1, i1), m in zip(spans.tolist(), owners.tolist()):
            masks[m][i0:i1, j0:j1] = True
        got = union_cells(spans, owners, n_maps).tolist()
        assert got == [int(mask.sum()) for mask in masks], trial


# 200 spans per map. On a diagonal, no two share an edge: 400 column and 400
# row edges, so 160,000 elementary rectangles per map. Nested in one row, they
# cover 40,200 span-column pairs per map.
_R = np.arange(200)
CROWDED = {
    "diagonal": (np.column_stack([3 * _R, 3 * _R, 3 * _R + 2, 3 * _R + 2]), 20, 800),
    "nested": (np.column_stack([_R, 0 * _R, 400 - _R, 0 * _R + 1]), 60, 400),
}


@pytest.mark.parametrize("layout", sorted(CROWDED))
def test_union_cells_holds_one_block_of_crowded_maps(layout):
    one, n_maps, cells = CROWDED[layout]
    spans = np.tile(one, (n_maps, 1))
    owners = np.repeat(np.arange(n_maps), len(one))
    tracemalloc.start()
    try:
        counts = union_cells(spans, owners, n_maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.tolist() == [cells] * n_maps
    # All maps at once take 30-95 MB of temporaries; a block of maps, or one
    # map that alone passes the block size, takes a few MB.
    assert peak < 16 * 2**20, peak


def test_statistics_hold_one_block_of_images():
    # 2000 images with 20 focus boxes each: 120,000 box rows over three
    # levels, which take tens of MB as one batch.
    pyramid = PYRAMIDS[1]
    sizes = {i: ImageSize(640, 480) for i in range(2000)}
    columns = gt_columns({
        i: [Gt(BoundingBox(x, x, x + 20.0, x + 20.0), class_id=1) for x in range(0, 600, 30)]
        for i in sizes
    }, sizes)
    peaks = []
    for run in (lambda: speedup_upper_bound(*columns, pyramid, [64, 256]),
                lambda: focus_pixel_stats(*columns, pyramid)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Blocks of images and of union cells take a few MB; one batch of all
    # images takes 16-25 MB.
    assert max(peaks) < 8 * 2**20, peaks


def test_huge_dilation_spans_equal_full_extent():
    boxes = [np.array([[40.0, 40.0, 60.0, 60.0]]), np.zeros((0, 4))]
    originals = np.array([[300, 100], [50, 50]])
    spans, owners, grids = focus_spans(
        *box_columns(boxes), originals, np.arange(2), originals, 32, 5.0, 64.0, 90.0
    )
    huge = dilate_spans(spans, owners, grids, 2 * 10**30 + 1)
    assert huge.tolist() == dilate_spans(spans, owners, grids, 2 * 10 + 1).tolist()
    assert huge.tolist() == [[0, 0, 10, 4]]
    assert union_cells(huge, owners, 2).tolist() == [40, 0]


def test_no_focus_anywhere():
    boxes = [np.array([[0.0, 0.0, 200.0, 200.0], [5.0, 5.0, 6.0, 6.0]])]
    originals = np.array([[300, 300]])
    spans, owners, grids = focus_spans(
        *box_columns(boxes), originals, np.arange(1), originals, 32, 5.0, 64.0, 90.0
    )
    assert spans.shape == (0, 4) and owners.shape == (0,)
    bounds, comp_maps = span_components(spans, owners)
    assert bounds.shape == (0, 4) and comp_maps.shape == (0,)
    assert union_cells(spans, owners, 1).tolist() == [0]


def test_thresholds_must_increase():
    with pytest.raises(ValueError):
        focus_spans(np.zeros((0, 4)), np.array([0, 0]), np.array([[10, 10]]), np.arange(1),
                    np.array([[10, 10]]), 32, 64.0, 5.0, 90.0)


def test_counts_past_int64_do_not_wrap():
    # One box over a 4294967295 x 4294967295 image at factor 1 and stride 1
    # makes (2^32 - 1)^2 focus cells, past 2^63; int64 counts read
    # -8589934591.
    side = 2**32 - 1
    sizes = {1: ImageSize(side, side)}
    columns = gt_columns({1: [Gt(BoundingBox(0.0, 0.0, side, side), 1, False)]}, sizes)
    (stats,) = focus_pixel_stats(*columns, [ScaleSpec(scale_id=0, target=1.0)], stride=1,
                                 max_side=1e12, ignore_max_side=2e12, dilation=1).values()
    assert stats.focus_cells == stats.focus_cells_dilated == stats.total_cells == side * side
    assert stats.fraction == stats.fraction_dilated == 1.0
    assert stats.mean_projected_area == float(side * side)
