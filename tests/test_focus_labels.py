import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pyrsample import cli
from pyrsample.focus_labels import (
    FOCUS,
    IGNORE,
    FocusMap,
    build_focus_label_map,
    focus_label_maps,
    focus_pixel_stats,
    grid_shape,
)
from pyrsample.focus_chips import FocusParams, chips_from_maps
from pyrsample.geometry import ImageSize, ScaleSpec, size_array
from pyrsample.serialization import read_map_binary

from conftest import box_columns, gt_columns
from oracles import BoundingBox, Gt, boxes_array, clip_box, focus_label_oracle, rescale_box


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
            FocusMap(cells=np.zeros((3, 3), dtype=np.int8), stride=32, image=IMG)
        with pytest.raises(ValueError):
            FocusMap(cells=np.full((10, 10), 1.5), stride=32, image=IMG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5, 1.5])
    def test_probability_outside_unit_interval_rejected(self, bad):
        cells = np.full((10, 10), 0.5)
        cells[3, 4] = bad
        with pytest.raises(ValueError):
            FocusMap(cells=cells, stride=32, image=IMG)

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int16, np.int64, np.uint8, np.uint64, np.float32, np.float64, bool]
    )
    def test_label_values_accepted_as_by_set_membership(self, dtype):
        # The cell dtype picks the rule: bool and integer cells are labels,
        # accepted by membership in {1, 0, -1}; float cells are
        # probabilities, accepted in [0, 1].
        image = ImageSize(96, 32)
        for values in ([-1, 0, 1], [0, 1, 1], [2, 0, 0], [-2, 0, 1], [127, 0, 0], [0.5, 0, 0]):
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cells = np.array([values], dtype=np.float64).astype(dtype)
            if cells.dtype.kind == "f":
                accepted = ((0.0 <= cells) & (cells <= 1.0)).all()
            else:
                accepted = np.isin(cells, (FOCUS, 0, IGNORE)).all()
            if accepted:
                FocusMap(cells=cells, stride=32, image=image)
            else:
                with pytest.raises(ValueError):
                    FocusMap(cells=cells, stride=32, image=image)


# The config levels of the whole-run test, by scale id.
FACTORS = (0.5, 1.0, 1.667, 2.0)
# Box sides that are min_side, max_side or ignore_max_side at factor 1 or 2.
EDGE_SIDES = (0.0, 2.5, 5.0, 32.0, 45.0, 64.0, 90.0)


@st.composite
def label_run(draw):
    """A ``focus labels`` run: stride, scale id, block bound in cells, and
    images (id, width, height, xywh boxes) in file order. Ids come in any
    order, and the first image has no boxes."""
    stride = draw(st.sampled_from([1, 7, 32]))
    extent = max(40, 12 * stride)
    ids = draw(st.lists(st.integers(0, 10**9), min_size=2, max_size=6, unique=True))
    coordinate = st.builds(lambda k: float(stride * k), st.integers(-1, 14)) | st.floats(
        -20.0, extent + 20.0)
    images = []
    for k, image_id in enumerate(ids):
        w, h = draw(st.integers(1, extent)), draw(st.integers(1, extent))
        boxes = []
        for _ in range(draw(st.integers(0, 6)) if k else 0):
            bw = draw(st.sampled_from(EDGE_SIDES) | st.floats(0.0, 120.0))
            bh = draw(st.sampled_from([0.0, bw]) | st.floats(0.0, 120.0))
            boxes.append([draw(coordinate), draw(coordinate), bw, bh])
        images.append((image_id, w, h, boxes))
    return stride, draw(st.integers(0, len(FACTORS) - 1)), draw(st.integers(1, 3000)), images


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
            (label_map,) = focus_label_maps(
                *box_columns([boxes_array(boxes)]), size_array([original]),
                np.zeros(1, dtype=np.intp), size_array([canvas]), stride, 5.0, 64.0, 90.0,
            )
            got = label_map.cells
            resized = [rescale_box(b, original, canvas) for b in boxes]
            want = focus_label_oracle(resized, canvas, stride, 5.0, 64.0, 90.0)
            assert got.dtype == np.int8
            assert (got == want).all(), trial

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(run=label_run())
    @example(run=(1, 3, 1000, [
        (9, 12, 12, []),
        (2, 40, 30, [[3.0, 3.0, 2.5, 2.5], [30.0, -5.0, 32.0, 45.0], [50.0, 0.0, 9.0, 9.0]]),
        (5, 1, 1, [[0.0, 0.0, 1.0, 1.0]]),
    ]))
    def test_whole_run_maps_match_per_cell_oracle(self, run):
        stride, scale_id, block, images = run
        factor = FACTORS[scale_id]
        config = {"profile": "coco-default", "focus": {"stride": stride},
                  "pyramid": [{"scale_id": k, "target": {"factor": f}}
                              for k, f in enumerate(FACTORS)]}
        coco = {
            "images": [{"id": i, "width": w, "height": h} for i, w, h, _ in images],
            "annotations": [
                {"id": k, "image_id": i, "category_id": 1, "bbox": bbox}
                for k, (i, bbox) in enumerate([(i, b) for i, _, _, bs in images for b in bs])
            ],
            "categories": [{"id": 1, "name": "thing"}],
        }
        originals = [ImageSize(w, h) for _, w, h, _ in images]
        canvases = [ImageSize(max(1, round(w * factor)), max(1, round(h * factor)))
                    for _, w, h, _ in images]
        drawn = [[BoundingBox(x, y, x + bw, y + bh) for x, y, bw, bh in boxes]
                 for _, _, _, boxes in images]
        painted = []

        def painter(*args):
            maps = focus_label_maps(*args)
            painted.append([m.cells.size for m in maps])
            return maps

        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(cli, "_LABEL_BLOCK", block), \
                mock.patch.object(cli, "focus_label_maps", painter):
            tmp = Path(tmp)
            (tmp / "cfg.json").write_text(json.dumps(config))
            (tmp / "ann.json").write_text(json.dumps(coco))
            assert cli.main(["focus", "labels", "--config", str(tmp / "cfg.json"),
                             "--annotations", str(tmp / "ann.json"), "--scale", str(scale_id),
                             "--out", str(tmp / "maps")]) == 0
            written = {path.name: read_map_binary(path) for path in (tmp / "maps").iterdir()}
        assert sorted(written) == sorted(f"{i}_s{scale_id}.fmap" for i, _, _, _ in images)
        for (image_id, _, _, _), boxes, original, canvas in zip(
                images, drawn, originals, canvases):
            got = written[f"{image_id}_s{scale_id}.fmap"]
            # The loader clamps the boxes to their image.
            resized = [rescale_box(clip_box(b, original), original, canvas) for b in boxes]
            assert got.image == canvas and got.stride == stride
            assert (got.cells == focus_label_oracle(resized, canvas, stride, 5.0, 64.0, 90.0)).all()
        # Blocks come in ascending id order, each within the bound or one map.
        order = sorted(range(len(images)), key=lambda k: images[k][0])
        sizes = [grid_shape(canvases[k], stride) for k in order]
        assert [n for block_sizes in painted for n in block_sizes] == [h * w for h, w in sizes]
        assert all(sum(n) <= block or len(n) == 1 for n in painted)

        # The painter itself on the boxes as drawn, some past the canvas.
        boxes, offsets = box_columns([boxes_array(b) for b in drawn])
        maps = focus_label_maps(
            boxes, offsets, size_array(originals), np.arange(len(images))[::-1],
            size_array(canvases[::-1]), stride, 5.0, 64.0, 90.0,
        )
        for label_map, boxes, original, canvas in zip(
                maps, drawn[::-1], originals[::-1], canvases[::-1]):
            resized = [rescale_box(b, original, canvas) for b in boxes]
            want = focus_label_oracle(resized, canvas, stride, 5.0, 64.0, 90.0)
            assert label_map.cells.dtype == np.int8 and (label_map.cells == want).all()

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
        # A label map gives the chips of its perfect predictor, probability
        # 1 on focus cells and 0 elsewhere, at every threshold in (0, 1].
        lm = build([square(30, x=64, y=64), square(80, x=200, y=200), square(3, x=10, y=10)])
        assert (lm.cells == IGNORE).any() and (lm.cells == FOCUS).any()
        pm = FocusMap((lm.cells == FOCUS).astype(np.float64), lm.stride, lm.image)
        for threshold in (0.25, 1.0):
            for strict in (False, True):
                params = FocusParams(threshold=threshold, min_chip_size=8,
                                     strict_threshold=strict and threshold < 1.0)
                got = chips_from_maps([lm], params)[0]
                assert got.tolist() == chips_from_maps([pm], params)[0].tolist()
                assert len(got)


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
