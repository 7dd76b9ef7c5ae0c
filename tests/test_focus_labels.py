import math
import warnings

import numpy as np
import pytest

from pyrsample.focus_labels import (
    FOCUS,
    IGNORE,
    LabelMap,
    ProbabilityMap,
    build_focus_label_map,
    focus_label_cells,
    focus_pixel_stats,
    grid_shape,
    probability_map_from_labels,
)
from pyrsample.geometry import BoundingBox, ImageSize, ScaleSpec, boxes_array

from conftest import gt_columns
from oracles import Gt, focus_label_oracle, rescale_box


def square(side, x=0.0, y=0.0):
    return BoundingBox(x, y, x + side, y + side)


IMG = ImageSize(320, 320)


def build(boxes, image=IMG, stride=32):
    return build_focus_label_map(boxes_array(boxes), image, stride=stride)


class TestGridGeometry:
    @pytest.mark.parametrize(
        "w,h,s", [(320, 320, 32), (321, 320, 32), (640, 427, 32), (1, 1, 32), (100, 99, 7)]
    )
    def test_ceil_shape(self, w, h, s):
        shape = grid_shape(ImageSize(w, h), s)
        assert shape == (math.ceil(h / s), math.ceil(w / s))
        lm = build([], ImageSize(w, h), stride=s)
        assert lm.cells.shape == shape

    def test_map_shape_validation(self):
        with pytest.raises(ValueError):
            LabelMap(cells=np.zeros((3, 3), dtype=np.int8), stride=32, image=IMG)
        with pytest.raises(ValueError):
            ProbabilityMap(cells=np.full((10, 10), 1.5), stride=32, image=IMG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5, 1.5])
    def test_probability_outside_unit_interval_rejected(self, bad):
        cells = np.full((10, 10), 0.5)
        cells[3, 4] = bad
        with pytest.raises(ValueError):
            ProbabilityMap(cells=cells, stride=32, image=IMG)

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int16, np.int64, np.uint8, np.uint64, np.float32, np.float64, bool]
    )
    def test_label_values_accepted_as_by_set_membership(self, dtype):
        image = ImageSize(96, 32)
        for values in ([-1, 0, 1], [0, 1, 1], [2, 0, 0], [-2, 0, 1], [127, 0, 0], [0.5, 0, 0]):
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cells = np.array([values], dtype=np.float64).astype(dtype)
            accepted = np.isin(cells, (FOCUS, 0, IGNORE)).all()
            if accepted:
                LabelMap(cells=cells, stride=32, image=image)
            else:
                with pytest.raises(ValueError):
                    LabelMap(cells=cells, stride=32, image=image)


class TestBuildFocusLabelMap:
    def test_focus_object_marks_blocks(self):
        lm = build([square(30, x=64, y=64)])
        assert lm.cells[2, 2] == FOCUS
        # sqrt(area)=30 lies in (5, 64)
        assert lm.cells[0, 0] == 0

    def test_untouched_blocks_zero(self):
        lm = build([square(30, x=0, y=0)])
        assert lm.cells[5, 5] == 0

    def test_precedence_focus_over_ignore(self):
        # one focus-sized and one ignore-band box over the same block
        lm = build([square(30, x=64, y=64), square(80, x=40, y=40)])
        assert lm.cells[2, 2] == FOCUS
        # a block the big box covers alone is ignored
        assert lm.cells[1, 1] == IGNORE

    def test_beyond_ignore_band_is_background(self):
        lm = build([square(100, x=0, y=0)])
        assert (lm.cells == 0).all()

    def test_tiny_object_ignored(self):
        lm = build([square(4, x=70, y=70)])
        assert lm.cells[2, 2] == IGNORE

    @pytest.mark.parametrize("side,expected", [(5, IGNORE), (64, IGNORE), (90, IGNORE),
                                               (90.5, 0), (5.5, FOCUS), (63.9, FOCUS)])
    def test_threshold_boundaries(self, side, expected):
        lm = build([square(side, x=96, y=96)])
        assert lm.cells[3, 3] == expected

    def test_empty_gts_all_zero(self):
        lm = build([])
        assert (lm.cells == 0).all()

    def test_zero_area_box_marks_nothing(self):
        lm = build([BoundingBox(50, 50, 50, 50)])
        assert (lm.cells == 0).all()

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ValueError):
            build_focus_label_map(
                boxes_array([]), IMG, min_side=64, max_side=5, ignore_max_side=90
            )

    def test_matches_per_cell_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            w = int(rng.integers(40, 500))
            h = int(rng.integers(40, 500))
            image = ImageSize(w, h)
            boxes = []
            for _ in range(rng.integers(0, 8)):
                bw = float(rng.uniform(0, 120))
                bh = float(rng.uniform(0, 120))
                x = float(rng.uniform(-10, max(-9.0, w - bw / 2)))
                y = float(rng.uniform(-10, max(-9.0, h - bh / 2)))
                boxes.append(BoundingBox(x, y, x + bw, y + bh))
            got = build(boxes, image).cells
            want = focus_label_oracle(boxes, image, 32, 5.0, 64.0, 90.0)
            assert (got == want).all()

    def test_kernel_matches_per_cell_oracle(self):
        rng = np.random.default_rng(22)
        for trial in range(300):
            original = ImageSize(int(rng.integers(1, 400)), int(rng.integers(1, 400)))
            if trial % 3 == 0:
                canvas = original
            else:
                factor = float(rng.choice([0.5, 1.3, 1.667, 3.0]))
                canvas = ImageSize(
                    max(1, round(original.width * factor)), max(1, round(original.height * factor))
                )
            stride = int(rng.choice([7, 16, 32]))
            boxes = []
            for _ in range(rng.integers(0, 10)):
                # Sides exactly at the thresholds, zero-width and zero-height
                # boxes, corners on cell borders, and boxes past the canvas.
                bw = float(rng.choice([0.0, 5.0, 64.0, 90.0, rng.uniform(0, 120)]))
                bh = float(rng.choice([0.0, bw, rng.uniform(0, 120)]))
                x = float(rng.choice([stride * rng.integers(-1, 14), rng.uniform(-20, 420)]))
                y = float(rng.choice([stride * rng.integers(-1, 14), rng.uniform(-20, 420)]))
                boxes.append(BoundingBox(x, y, x + bw, y + bh))
            got = focus_label_cells(boxes_array(boxes), original, canvas, stride)
            resized = [rescale_box(b, original, canvas) for b in boxes]
            want = focus_label_oracle(resized, canvas, stride, 5.0, 64.0, 90.0)
            assert got.dtype == np.int8
            assert (got == want).all(), trial

    def test_scale_sweep_crosses_breakpoints(self):
        # one object, swept across resize factors: its label tracks the
        # re-scaled side length through ignore/focus/ignore/background bands
        original = square(20, x=100, y=100)
        for factor, expected in [
            (0.2, IGNORE),   # side 4 <= 5
            (0.5, FOCUS),    # side 10
            (3.0, FOCUS),    # side 60
            (3.5, IGNORE),   # side 70 in [64, 90]
            (5.0, 0),        # side 100 beyond ignore band
        ]:
            image = ImageSize(1200, 1200)
            scaled = BoundingBox(*(v * factor for v in original.as_tuple()))
            lm = build([scaled], image)
            i = int(scaled.y1 // 32)
            j = int(scaled.x1 // 32)
            assert lm.cells[i, j] == expected, f"factor {factor}"


class TestProbabilityFromLabels:
    def test_perfect_predictor(self):
        lm = build([square(30, x=64, y=64), square(80, x=200, y=200)])
        pm = probability_map_from_labels(lm)
        assert pm.cells.max() == 1.0
        assert ((pm.cells == 1.0) == (lm.cells == FOCUS)).all()


class TestFocusPixelStats:
    def pyramid(self):
        return [ScaleSpec(scale_id=0, target=1.0)]

    def test_fully_covered_image(self):
        # one fm-block image fully covered by a focus-sized object
        columns = gt_columns({1: [Gt(square(63), class_id=1)]}, {1: ImageSize(64, 64)})
        stats = focus_pixel_stats(*columns, self.pyramid())
        assert stats[0].fraction == 1.0

    def test_dilation_never_decreases_fraction(self):
        rng = np.random.default_rng(9)
        gts = {}
        sizes = {}
        for iid in range(10):
            sizes[iid] = ImageSize(400, 300)
            gts[iid] = [
                Gt(square(float(rng.uniform(6, 63)),
                          float(rng.uniform(0, 300)),
                          float(rng.uniform(0, 200))), class_id=1)
                for _ in range(rng.integers(0, 5))
            ]
        columns = gt_columns(gts, sizes)
        plain = focus_pixel_stats(*columns, self.pyramid(), dilation=1)
        dilated = focus_pixel_stats(*columns, self.pyramid(), dilation=3)
        assert dilated[0].fraction_dilated >= plain[0].fraction

    def test_projected_area_counts_cells(self):
        columns = gt_columns({1: [Gt(square(30, x=64, y=64), class_id=1)]},
                             {1: ImageSize(320, 320)})
        stats = focus_pixel_stats(*columns, self.pyramid())
        n_cells = (stats[0].mean_projected_area / 32**2)
        assert n_cells == stats[0].focus_cells

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            focus_pixel_stats(*gt_columns({}, {}), self.pyramid())

    def test_missing_size_raises(self):
        # Offsets for two images, a size for one.
        gts, _, sizes = gt_columns({1: []}, {1: IMG})
        with pytest.raises(ValueError, match="without a recorded size"):
            focus_pixel_stats(gts, np.zeros(3, dtype=np.intp), sizes, self.pyramid())

    @pytest.mark.parametrize("dilation", [0, -3, 2])
    def test_bad_dilation_raises(self, dilation):
        columns = gt_columns({1: [Gt(square(30, x=64, y=64), class_id=1)]}, {1: IMG})
        with pytest.raises(ValueError):
            focus_pixel_stats(*columns, self.pyramid(), dilation=dilation)
