import math

import numpy as np
import pytest

from pyrsample.costing import (
    FULL_IMAGE,
    CostReport,
    aggregate_cost_reports,
    pixels_processed,
    roi_scale_histogram,
    size_area_fractions,
    speedup_upper_bound,
)
from pyrsample.focus_chips import binary_dilate, chips_from_bounds, component_bounds
from pyrsample.focus_labels import FOCUS, focus_label_cells
from pyrsample.geometry import ImageSize, ScaleSpec

from conftest import gt_columns, gt_sets
from oracles import BoundingBox, Gt, boxes_array, resolve_oracle, speedup_upper_bound_oracle


def square(side, x=0.0, y=0.0):
    return BoundingBox(x, y, x + side, y + side)


def pyramid():
    return [
        ScaleSpec(scale_id=0, target=0.64),
        ScaleSpec(scale_id=1, target=1.667),
        ScaleSpec(scale_id=2, target=3.0),
    ]


ORIGINAL = ImageSize(640, 480)


class TestPixelsProcessed:
    def test_full_everywhere_speedup_one(self):
        report = pixels_processed(
            {0: FULL_IMAGE, 1: FULL_IMAGE, 2: FULL_IMAGE}, pyramid(), ORIGINAL
        )
        assert report.speedup == pytest.approx(1.0)
        assert report.processed_pixels == report.baseline_pixels

    def test_skipped_top_scale(self):
        specs = pyramid()
        report = pixels_processed(
            {0: FULL_IMAGE, 1: FULL_IMAGE, 2: boxes_array([])}, specs, ORIGINAL
        )
        areas = [resolve_oracle(s, ORIGINAL).area for s in specs]
        assert report.processed_pixels == pytest.approx(areas[0] + areas[1])
        assert report.speedup == pytest.approx(sum(areas) / (areas[0] + areas[1]))

    def test_chip_areas_summed(self):
        chips = boxes_array([square(100), square(50, x=200)])
        report = pixels_processed({0: chips}, pyramid(), ORIGINAL)
        assert report.per_scale_pixels[0] == pytest.approx(100**2 + 50**2)

    def test_published_resolution_pair(self):
        # mean processed side 1175 versus baseline side 1910 is a 2.64x area ratio
        report = CostReport(
            per_scale_pixels={0: 1175.0**2},
            baseline_per_scale={0: 1910.0**2},
        )
        assert report.speedup == pytest.approx(1910**2 / 1175**2)
        assert report.speedup == pytest.approx(2.64, abs=0.01)
        assert report.mean_processed_side == pytest.approx(1175.0)

    def test_unknown_marker_rejected(self):
        with pytest.raises(ValueError):
            pixels_processed({0: "everything"}, pyramid(), ORIGINAL)


class TestAggregate:
    def test_dataset_equals_mean_of_per_image(self):
        rng = np.random.default_rng(6)
        reports = []
        for _ in range(10):
            chips = boxes_array([square(float(rng.uniform(10, 300)))])
            reports.append(pixels_processed({0: chips, 1: FULL_IMAGE}, pyramid(), ORIGINAL))
        total = aggregate_cost_reports(reports)
        assert total.n_images == 10
        mean_processed = sum(r.processed_pixels for r in reports) / 10
        assert total.processed_pixels / total.n_images == pytest.approx(mean_processed)
        mean_baseline = sum(r.baseline_pixels for r in reports) / 10
        assert total.baseline_pixels / total.n_images == pytest.approx(mean_baseline)
        assert total.mean_processed_side == pytest.approx(math.sqrt(mean_processed))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_cost_reports([])


class TestSpeedupUpperBound:
    def _dataset_with_focus_at_every_scale(self):
        # side 15 px: re-scaled sides 9.6 / 25 / 45 are all in (5, 64)
        gts = gt_sets({1: [Gt(square(15, x=100, y=100), class_id=1)]})
        sizes = {1: ORIGINAL}
        return gts, sizes

    def test_huge_min_chip_gives_speedup_one(self):
        gts, sizes = self._dataset_with_focus_at_every_scale()
        curve = speedup_upper_bound(
            *gt_columns(gts, sizes), pyramid(), [10_000], process_coarsest_fully=True
        )
        assert curve[0][1] == pytest.approx(1.0)

    def test_tiny_focus_region_gives_large_speedup(self):
        gts, sizes = self._dataset_with_focus_at_every_scale()
        (_, speedup), = speedup_upper_bound(*gt_columns(gts, sizes), pyramid(), [64])
        assert speedup > 3.0

    def test_monotone_non_increasing_in_k(self):
        rng = np.random.default_rng(44)
        gts = {}
        sizes = {}
        for iid in range(8):
            sizes[iid] = ImageSize(int(rng.integers(300, 900)), int(rng.integers(300, 900)))
            gts[iid] = [
                Gt(
                    square(float(rng.uniform(6, 40)),
                           float(rng.uniform(0, 200)),
                           float(rng.uniform(0, 200))),
                    class_id=1,
                )
                for _ in range(rng.integers(0, 6))
            ]
        ks = [32, 64, 128, 256, 512, 1024]
        curve = speedup_upper_bound(*gt_columns(gts, sizes), pyramid(), ks)
        speeds = [s for _, s in curve]
        assert all(a >= b - 1e-12 for a, b in zip(speeds, speeds[1:]))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            speedup_upper_bound(*gt_columns({}, {}), pyramid(), [64])

    @pytest.mark.parametrize("ks", [[64, 64], [0], [-64], [64, 128, 64]])
    def test_repeated_or_non_positive_k_rejected(self, ks):
        gts, sizes = self._dataset_with_focus_at_every_scale()
        with pytest.raises(ValueError):
            speedup_upper_bound(*gt_columns(gts, sizes), pyramid(), ks)

    @pytest.mark.parametrize("dilation", [0, -3, 2, 4])
    def test_bad_dilation_rejected(self, dilation):
        gts, sizes = self._dataset_with_focus_at_every_scale()
        with pytest.raises(ValueError):
            speedup_upper_bound(*gt_columns(gts, sizes), pyramid(), [64], dilation=dilation)

    def test_matches_per_k_oracle(self):
        rng = np.random.default_rng(12)
        pyramids = [
            pyramid(),
            [ScaleSpec(scale_id=0, target=0.5), ScaleSpec(scale_id=1, target=1.3)],
        ]
        for trial in range(80):
            gts, sizes = {}, {}
            for iid in range(int(rng.integers(1, 4))):
                w, h = int(rng.integers(60, 420)), int(rng.integers(60, 420))
                sizes[iid] = ImageSize(w, h)
                gts[iid] = []
                for _ in range(int(rng.integers(0, 9))):
                    # Sides near the focus thresholds at the three scales, and
                    # corners on the cell lattice of the original frame.
                    bw = float(rng.choice([0.0, 3.0, 8.0, 20.0, 38.4, rng.uniform(0, 60)]))
                    bh = float(rng.choice([0.0, bw, rng.uniform(0, 60)]))
                    x = min(float(rng.choice([32.0 * rng.integers(0, 10), rng.uniform(0, w)])), w)
                    y = min(float(rng.choice([32.0 * rng.integers(0, 10), rng.uniform(0, h)])), h)
                    box = BoundingBox(x, y, min(x + bw, w), min(y + bh, h))
                    gts[iid].append(Gt(box, class_id=1))
            kwargs = dict(
                dilation=int(rng.choice([1, 3, 5])),
                process_coarsest_fully=bool(rng.integers(0, 2)),
            )
            ks = [int(k) for k in rng.choice([1, 7, 32, 64, 100, 256, 3000], 4, replace=False)]
            spec = pyramids[trial % 2]
            want = speedup_upper_bound_oracle(gts, sizes, spec, ks, **kwargs)
            assert speedup_upper_bound(*gt_columns(gts, sizes), spec, ks, **kwargs) == want, trial

    def test_gt_chips_respect_min_size(self):
        gts, sizes = self._dataset_with_focus_at_every_scale()
        canvas = resolve_oracle(pyramid()[2], sizes[1])
        focus = focus_label_cells(gts[1].boxes, sizes[1], canvas) == FOCUS
        bounds = component_bounds(binary_dilate(focus, 3))
        chips, _ = chips_from_bounds(
            bounds, np.zeros(len(bounds), dtype=np.intp),
            np.array([[canvas.width, canvas.height]]), 32, 64,
        )
        assert len(chips), "expected at least one chip at the finest scale"
        assert (chips[:, 2:] - chips[:, :2] >= 64).all()


class TestRoiScaleHistogram:
    def test_whole_image_object_is_point_mass_at_one(self):
        gts = {1: [Gt(square(100), class_id=1)]}
        sizes = {1: ImageSize(100, 100)}
        hist = roi_scale_histogram(*gt_columns(gts, sizes), n_bins=10)
        assert hist.fractions[-1] == 1.0
        assert hist.fractions[:-1].sum() == 0.0

    def test_two_equal_mass_bins(self):
        gts = {
            1: [
                Gt(square(10), class_id=1),
                Gt(square(50), class_id=1),
            ]
        }
        sizes = {1: ImageSize(100, 100)}
        hist = roi_scale_histogram(*gt_columns(gts, sizes), n_bins=10)
        nonzero = hist.fractions[hist.fractions > 0]
        assert len(nonzero) == 2 and (nonzero == 0.5).all()

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(3)
        gts = {}
        sizes = {}
        for iid in range(5):
            sizes[iid] = ImageSize(640, 480)
            gts[iid] = [
                Gt(square(float(rng.uniform(1, 400))), class_id=1)
                for _ in range(6)
            ]
        hist = roi_scale_histogram(*gt_columns(gts, sizes))
        assert hist.fractions.sum() == pytest.approx(1.0, abs=1e-9)
        assert hist.n_instances == 30

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            roi_scale_histogram(*gt_columns({1: []}, {1: ImageSize(10, 10)}))


class TestSizeAreaFractions:
    def test_all_small(self):
        gts = {1: [Gt(square(10), class_id=1) for _ in range(4)]}
        sizes = {1: ImageSize(640, 480)}
        bands = size_area_fractions(*gt_columns(gts, sizes))
        assert bands[0].name == "small" and bands[0].instance_fraction == 1.0
        assert bands[1].instance_fraction == 0.0

    def test_whole_image_large_box(self):
        gts = {1: [Gt(square(100), class_id=1)]}
        sizes = {1: ImageSize(100, 100)}
        bands = size_area_fractions(*gt_columns(gts, sizes))
        assert bands[2].name == "large"
        assert bands[2].area_fraction == pytest.approx(1.0)

    def test_instance_fractions_sum_to_one(self):
        rng = np.random.default_rng(12)
        gts = {
            1: [
                Gt(square(float(rng.uniform(1, 300))), class_id=1)
                for _ in range(50)
            ]
        }
        sizes = {1: ImageSize(1000, 1000)}
        bands = size_area_fractions(*gt_columns(gts, sizes))
        assert sum(b.instance_fraction for b in bands) == pytest.approx(1.0, abs=1e-9)

    def test_band_boundaries_half_open(self):
        gts = {
            1: [
                Gt(square(32), class_id=1),   # area == 32^2 -> medium
                Gt(square(96), class_id=1),   # area == 96^2 -> large
            ]
        }
        sizes = {1: ImageSize(640, 640)}
        bands = size_area_fractions(*gt_columns(gts, sizes))
        assert bands[0].n_instances == 0
        assert bands[1].n_instances == 1
        assert bands[2].n_instances == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            size_area_fractions(*gt_columns({}, {}))
