import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pyrsample import focus_chips, focus_spans
from pyrsample.focus_chips import (
    FocusParams,
    chips_from_bounds,
    chips_from_maps,
    connected_components,
    dilate,
    generate_focus_chips,
    merge_overlapping,
    threshold_map,
)
from pyrsample.focus_labels import FocusMap
from pyrsample.geometry import ImageSize

from oracles import (
    BoundingBox,
    boxes_array,
    clip_box,
    component_bounds_oracle,
    component_chips_oracle,
    dilate_oracle,
    flood_fill_components,
    merge_overlapping_oracle,
)


def prob_map(cells, stride=32):
    cells = np.asarray(cells, dtype=np.float64)
    h, w = cells.shape
    return FocusMap(cells=cells, stride=stride, image=ImageSize(w * stride, h * stride))


def binary(cells, stride=32):
    cells = np.asarray(cells, dtype=np.uint8)
    h, w = cells.shape
    return FocusMap(cells=cells, stride=stride, image=ImageSize(w * stride, h * stride))


class TestFocusParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FocusParams(threshold=1.5)
        with pytest.raises(ValueError):
            FocusParams(dilation=2)
        with pytest.raises(ValueError):
            FocusParams(min_chip_size=0)


class TestThresholdMap:
    def test_zero_threshold_selects_everything(self):
        bm = threshold_map(prob_map(np.zeros((4, 4))), 0.0)
        assert bm.cells.all()

    def test_full_threshold_with_no_certain_cells(self):
        bm = threshold_map(prob_map(np.full((4, 4), 0.9)), 1.0)
        assert not bm.cells.any()

    def test_inclusive_comparison(self):
        bm = threshold_map(prob_map([[0.2, 0.5, 0.8]]), 0.5)
        assert bm.cells.tolist() == [[0, 1, 1]]

    def test_strict_mode(self):
        bm = threshold_map(prob_map([[0.2, 0.5, 0.8]]), 0.5, strict=True)
        assert bm.cells.tolist() == [[0, 0, 1]]

    def test_full_threshold_keeps_certainty_one(self):
        bm = threshold_map(prob_map([[1.0, 0.99]]), 1.0)
        assert bm.cells.tolist() == [[1, 0]]


class TestDilate:
    def test_identity_kernel(self):
        cells = np.zeros((6, 6), dtype=np.uint8)
        cells[2, 3] = 1
        out = dilate(binary(cells), 1)
        assert (out.cells == cells).all()

    def test_single_cell_becomes_block(self):
        cells = np.zeros((9, 9), dtype=np.uint8)
        cells[4, 4] = 1
        out = dilate(binary(cells), 3)
        expected = np.zeros((9, 9), dtype=np.uint8)
        expected[3:6, 3:6] = 1
        assert (out.cells == expected).all()

    def test_border_clipping(self):
        cells = np.zeros((4, 4), dtype=np.uint8)
        cells[0, 0] = 1
        out = dilate(binary(cells), 3)
        expected = np.zeros((4, 4), dtype=np.uint8)
        expected[0:2, 0:2] = 1
        assert (out.cells == expected).all()

    def test_distributes_over_union(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a = rng.random((12, 15)) < 0.15
            b = rng.random((12, 15)) < 0.15
            for d in (3, 5):
                left = dilate(binary((a | b).astype(np.uint8)), d).cells.astype(bool)
                right = dilate(binary(a.astype(np.uint8)), d).cells.astype(bool) | dilate(
                    binary(b.astype(np.uint8)), d
                ).cells.astype(bool)
                assert (left == right).all()

    def test_matches_max_filter_oracle(self):
        rng = np.random.default_rng(8)
        shapes = [(10, 14)] * 20 + [(1, 1), (1, 2), (1, 9), (9, 1), (2, 1), (3, 40), (40, 3)]
        for shape in shapes:
            mask = rng.random(shape) < 0.2
            for d in (1, 3, 5, 7):
                got = dilate(binary(mask.astype(np.uint8)), d).cells.astype(bool)
                assert (got == dilate_oracle(mask, d)).all()

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            dilate(binary(np.zeros((3, 3), dtype=np.uint8)), 4)

    def test_huge_kernel_stops_at_the_map_extent(self):
        # A radius past the grid is capped at it, so a huge kernel costs no
        # more than one that spans the map, and gives the same cells.
        mask = np.zeros((5, 7), dtype=np.uint8)
        mask[1, 2] = 1
        full = dilate(binary(mask), 2 * 7 + 1).cells
        assert full.all()
        for size in (2_000_000_001, 2 * 10**30 + 1):
            assert (dilate(binary(mask), size).cells == full).all()
        for column in (mask[:, :1], mask[:, 2:3]):
            assert (dilate(binary(column), 2_000_000_001).cells == column.any()).all()


class TestConnectedComponents:
    def test_empty_map(self):
        bounds = connected_components(binary(np.zeros((5, 5), dtype=np.uint8)))
        assert bounds.shape == (0, 4) and bounds.dtype == np.int64

    def test_diagonal_cells_join(self):
        cells = np.zeros((4, 4), dtype=np.uint8)
        cells[1, 1] = 1
        cells[2, 2] = 1
        assert connected_components(binary(cells)).tolist() == [[1, 1, 2, 2]]

    def test_zero_row_separates(self):
        cells = np.zeros((5, 3), dtype=np.uint8)
        cells[0, 1] = 1
        cells[4, 1] = 1
        assert connected_components(binary(cells)).tolist() == [[1, 0, 1, 0], [1, 4, 1, 4]]

    def test_matches_flood_fill_oracle(self):
        for mask in _oracle_masks():
            want = component_bounds_oracle(mask)
            assert connected_components(binary(mask.astype(np.uint8))).tolist() == want


def _spiral(n):
    """Square spiral of 1-cells with one-cell gaps between its turns."""
    mask = np.zeros((n, n), dtype=bool)
    top, left, bottom, right = 0, 0, n - 1, n - 1
    while top <= bottom and left <= right:
        mask[top, left : right + 1] = True
        mask[top : bottom + 1, right] = True
        if bottom > top + 1:
            mask[bottom, left : right + 1] = True
        if right > left + 2:
            mask[top + 2 : bottom + 1, left] = True
            mask[top + 2, left : right - 1] = True
        top, left, bottom, right = top + 2, left + 2, bottom - 2, right - 2
    return mask


def _oracle_masks():
    rng = np.random.default_rng(31)
    for _ in range(40):
        yield rng.random((rng.integers(2, 20), rng.integers(2, 20))) < 0.35
    # Larger maps across densities, up to 64x64.
    for density in (0.05, 0.2, 0.35, 0.5, 0.7, 0.9):
        for _ in range(3):
            yield rng.random((rng.integers(20, 65), rng.integers(20, 65))) < density
    # Shapes whose runs join only on a later row: nested U's and spirals.
    u = np.zeros((8, 11), dtype=bool)
    u[:, [0, 10]] = True
    u[-1, :] = True
    u[:6, [3, 7]] = True
    u[5, 3:8] = True
    yield u
    yield u[::-1]
    for n in (5, 9, 16, 31):
        yield _spiral(n)
        yield _spiral(n)[:, ::-1]
    # Runs that touch only diagonally at their ends, and near misses.
    yield np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], dtype=bool)
    yield np.array([[0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0]], dtype=bool)
    yield np.array([[1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1]], dtype=bool)
    yield np.array([[1, 0, 1, 0, 1], [0, 1, 0, 1, 0], [1, 0, 0, 0, 1]], dtype=bool)


def map_chips(bounds, stride, min_side, image):
    """The (n, 4) chips of one map's (n, 4) component ``bounds``."""
    maps = np.zeros(len(bounds), dtype=np.intp)
    limits = np.array([[image.width, image.height]])
    return chips_from_bounds(bounds, maps, limits, stride, min_side)[0]


def one_chip(bounds, stride, min_side, image):
    """The chips of one component with cell bounds (min_col, min_row,
    max_col, max_row) grown to ``min_side``."""
    return map_chips(np.array([bounds]), stride, min_side, image).tolist()


class TestExpandAndMerge:
    def test_expand_centered(self):
        # Cell (10, 10) at stride 10 is the pixel block [100, 110]^2.
        out = one_chip((10, 10, 10, 10), 10, 50, ImageSize(600, 600))
        assert out == [[80, 80, 130, 130]]

    def test_expand_shifts_inward_at_border(self):
        out = one_chip((0, 0, 0, 0), 10, 50, ImageSize(600, 600))
        assert out == [[0, 0, 50, 50]]

    def test_expand_clamps_to_canvas(self):
        out = one_chip((1, 1, 1, 1), 2, 100, ImageSize(60, 80))
        assert out == [[0, 0, 60, 80]]

    def test_merge_fixpoint(self):
        rects = np.array([[0, 0, 10, 10], [8, 0, 18, 10], [16, 0, 26, 10]], dtype=np.float64)
        assert merge_overlapping(rects).tolist() == [[0, 0, 26, 10]]

    def test_merge_keeps_disjoint(self):
        rects = np.array([[0, 0, 10, 10], [20, 20, 30, 30]], dtype=np.float64)
        assert merge_overlapping(rects).tolist() == rects.tolist()

    def test_touching_edges_do_not_merge(self):
        rects = np.array([[0, 0, 10, 10], [10, 0, 20, 10]], dtype=np.float64)
        assert merge_overlapping(rects).tolist() == rects.tolist()

    def test_grown_insert_absorbs_earlier_miss(self):
        # C misses A, absorbs B, and the grown C then overlaps A.
        rects = np.array([[0, 0, 2, 2], [1.5, 3, 4, 5], [3, 1, 5, 4]])
        assert merge_overlapping(rects).tolist() == [[0, 0, 5, 5]]

    def test_matches_restart_fixpoint_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(0, 30))
            # Integer corners on a small grid give chains and shared edges.
            grid = int(rng.choice([6, 20, 80]))
            corners = rng.integers(0, grid, (n, 2))
            sides = rng.integers(0, grid // 3 + 2, (n, 2))
            rects = [
                BoundingBox(float(x), float(y), float(x + w), float(y + h))
                for (x, y), (w, h) in zip(corners, sides)
            ]
            want = [list(r.as_tuple()) for r in merge_overlapping_oracle(rects)]
            assert merge_overlapping(boxes_array(rects)).tolist() == want


class TestChipsForSizes:
    @pytest.mark.parametrize("pair_block", [focus_spans._PAIR_BLOCK, 1, 5])
    def test_matches_rectangle_oracle(self, monkeypatch, pair_block):
        # Small pair blocks split the overlap test over many blocks.
        monkeypatch.setattr(focus_spans, "_PAIR_BLOCK", pair_block)
        rng = np.random.default_rng(17)
        ks = [1, 7, 32, 64, 100, 256, 3000]
        for trial in range(120):
            h, w = int(rng.integers(1, 24)), int(rng.integers(1, 24))
            mask = rng.random((h, w)) < float(rng.choice([0.03, 0.1, 0.3]))
            stride = int(rng.choice([8, 32]))
            # Canvases a little smaller than the grid clip the last cells.
            image = ImageSize(
                max(1, w * stride - int(rng.integers(0, stride))),
                max(1, h * stride - int(rng.integers(0, stride))),
            )
            comps = flood_fill_components(mask)
            bounds = connected_components(binary(mask))
            for k in ks:
                chips = map_chips(bounds, stride, k, image)
                want = component_chips_oracle(comps, stride, k, image)
                assert chips.tolist() == [list(r.as_tuple()) for r in want], (trial, k)


class TestGenerateFocusChips:
    def test_all_zero_map(self):
        chips = generate_focus_chips(prob_map(np.zeros((8, 8))), FocusParams(), ImageSize(256, 256))
        assert chips.shape == (0, 4)

    def test_single_cell_hand_trace(self):
        cells = np.zeros((10, 10))
        cells[4, 4] = 1.0
        pm = prob_map(cells, stride=32)
        chips = generate_focus_chips(
            pm, FocusParams(threshold=0.5, dilation=3, min_chip_size=8), pm.image
        )
        # dilated block spans cells (3..5, 3..5) -> pixels [96, 192] on both axes
        assert chips.tolist() == [[96, 96, 192, 192]]

    def test_min_size_merges_neighbors(self):
        cells = np.zeros((10, 10))
        cells[2, 2] = 1.0
        cells[2, 7] = 1.0
        pm = prob_map(cells, stride=32)
        chips = generate_focus_chips(
            pm, FocusParams(threshold=0.5, dilation=1, min_chip_size=200), pm.image
        )
        assert len(chips) == 1
        # the merged chip encloses both original blocks
        assert chips[0, 0] <= 64 and chips[0, 2] >= 256

    def test_mismatched_image_rejected(self):
        pm = prob_map(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            generate_focus_chips(pm, FocusParams(), ImageSize(100, 100))

    def _random_case(self, rng):
        h, w = int(rng.integers(3, 20)), int(rng.integers(3, 20))
        cells = (rng.random((h, w)) < 0.12).astype(float)
        stride = int(rng.choice([16, 32]))
        image = ImageSize(
            int(rng.integers((w - 1) * stride + 1, w * stride + 1)),
            int(rng.integers((h - 1) * stride + 1, h * stride + 1)),
        )
        pm = FocusMap(cells=cells, stride=stride, image=image)
        params = FocusParams(
            threshold=0.5,
            dilation=int(rng.choice([1, 3, 5])),
            min_chip_size=int(rng.choice([8, 64, 200])),
        )
        return pm, params, image

    def test_random_map_invariants(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            pm, params, image = self._random_case(rng)
            chips = [BoundingBox(*c) for c in generate_focus_chips(pm, params, image).tolist()]
            s = pm.stride
            margin = (params.dilation // 2) * s
            for i, j in zip(*np.nonzero(pm.cells >= params.threshold)):
                block = clip_box(BoundingBox(j * s, i * s, (j + 1) * s, (i + 1) * s), image)
                inside = [
                    c
                    for c in chips
                    if c.x1 <= block.x1 and c.y1 <= block.y1
                    and c.x2 >= block.x2 and c.y2 >= block.y2
                ]
                assert inside, "above-threshold cell not enclosed by any chip"
                chip = inside[0]
                assert chip.x1 <= max(0, j * s - margin) or chip.x1 == 0
                assert chip.y1 <= max(0, i * s - margin) or chip.y1 == 0
                assert chip.x2 >= min(image.width, (j + 1) * s + margin) or chip.x2 == image.width
                assert chip.y2 >= min(image.height, (i + 1) * s + margin) or chip.y2 == image.height
            for idx, a in enumerate(chips):
                assert a.width >= min(params.min_chip_size, image.width) - 1e-9
                assert a.height >= min(params.min_chip_size, image.height) - 1e-9
                assert 0 <= a.x1 <= a.x2 <= image.width
                assert 0 <= a.y1 <= a.y2 <= image.height
                for b in chips[idx + 1 :]:
                    assert a.intersection(b) is None

    def test_raising_threshold_never_adds_cells(self):
        rng = np.random.default_rng(13)
        cells = rng.random((10, 10))
        pm = prob_map(cells)
        prev = None
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            n = int((cells >= t).sum())
            if prev is not None:
                assert n <= prev
            prev = n

    def test_monotone_chip_area_without_merges(self):
        # single compact component: no merging happens, area grows with t lowered
        cells = np.zeros((12, 12))
        cells[4:6, 4:6] = 0.9
        cells[5, 6] = 0.4
        pm = prob_map(cells)
        low = generate_focus_chips(pm, FocusParams(threshold=0.3, dilation=1, min_chip_size=8), pm.image)
        high = generate_focus_chips(pm, FocusParams(threshold=0.8, dilation=1, min_chip_size=8), pm.image)
        def area(chips):
            return ((chips[:, 2] - chips[:, 0]) * (chips[:, 3] - chips[:, 1])).sum()

        assert area(high) <= area(low)


# Thresholds and probabilities at and next to each other. A float32 cell of
# 0.7 is 0.699999988...: a float32 comparison would set it at threshold 0.7.
THRESHOLDS = [0.0, 0.5, 0.7, 1.0]
PROBABILITIES = [0.0, 0.25, float(np.nextafter(0.5, 0.0)), 0.5, 0.7, 1.0]


@st.composite
def focus_maps(draw):
    """A label or probability map with a grid of up to 12 x 12 cells, mixed,
    all at the lowest value or all at the highest."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    stride = draw(st.sampled_from([1, 8, 32]))
    # Canvases up to one stride smaller than the grid clip the last cells.
    image = ImageSize(draw(st.integers((w - 1) * stride + 1, w * stride)),
                      draw(st.integers((h - 1) * stride + 1, h * stride)))
    labels = draw(st.booleans())
    values = [-1, 0, 1] if labels else PROBABILITIES
    fill = draw(st.sampled_from(["mixed", "lowest", "highest"]))
    if fill == "mixed":
        cells = draw(st.lists(st.sampled_from(values), min_size=h * w, max_size=h * w))
    else:
        cells = [values[0] if fill == "lowest" else values[-1]] * (h * w)
    if labels:
        return FocusMap(np.array(cells, dtype=np.int8).reshape(h, w), stride, image)
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return FocusMap(np.array(cells, dtype=dtype).reshape(h, w), stride, image)


@pytest.mark.parametrize("run_block", [focus_chips._RUN_BLOCK, 1, 5])
@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    maps=st.lists(focus_maps(), max_size=6),
    threshold=st.sampled_from(THRESHOLDS),
    strict=st.booleans(),
    # 25 and 2 * 10^9 + 1 are wider than any grid drawn.
    dilation=st.sampled_from([1, 3, 25, 2_000_000_001]),
    min_chip_size=st.sampled_from([1, 8, 64, 3000]),
    pair_block=st.sampled_from([focus_spans._PAIR_BLOCK, 1, 5]),
)
@example(maps=[FocusMap(np.full((2, 3), 0.7, dtype=np.float32), 8, ImageSize(24, 16)),
               FocusMap(np.ones((1, 1), dtype=np.int8), 8, ImageSize(8, 8))],
         threshold=0.7, strict=False, dilation=1, min_chip_size=1, pair_block=1)
def test_chips_of_many_maps_match_per_map_oracles(run_block, maps, threshold, strict, dilation,
                                                  min_chip_size, pair_block):
    # Small run blocks split the maps over many blocks, and small pair
    # blocks split the pair scans of labelling and merging.
    params = FocusParams(threshold=threshold, dilation=dilation, min_chip_size=min_chip_size,
                         strict_threshold=strict)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(focus_chips, "_RUN_BLOCK", run_block)
        patch.setattr(focus_spans, "_PAIR_BLOCK", pair_block)
        chips, owners = chips_from_maps(iter(maps), params)
    assert (np.diff(owners) >= 0).all()
    for n, m in enumerate(maps):
        # Each cell is compared as a Python float, that is in float64.
        mask = np.array([[float(c) > threshold if strict else float(c) >= threshold
                          for c in row] for row in m.cells.tolist()], dtype=bool)
        comps = flood_fill_components(dilate_oracle(mask, dilation))
        want = component_chips_oracle(comps, m.stride, min_chip_size, m.image)
        assert chips[owners == n].tolist() == [list(r.as_tuple()) for r in want], n


def _tall_maps(n_maps, rows):
    """All-set maps two cells wide, made one at a time: one run per row and
    one component each."""
    cells = np.ones((rows, 2))
    for _ in range(n_maps):
        yield FocusMap(cells, 8, ImageSize(16, 8 * rows))


def test_chips_from_maps_hold_one_block_of_runs():
    tracemalloc.start()
    try:
        chips, owners = chips_from_maps(_tall_maps(100, 4096), FocusParams(min_chip_size=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert owners.tolist() == list(range(100))
    assert chips.tolist() == [[0.0, 0.0, 16.0, 32768.0]] * 100
    # The 409,600 runs of all maps at once take about 125 MB of
    # temporaries; a block of about 2^16 runs takes about 26 MB.
    assert peak < 40 * 2**20, peak
