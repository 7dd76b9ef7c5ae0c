import math

import numpy as np
import pytest

from pyrsample.geometry import BoundingBox, DetectionRow, GroundTruthInstance, ScaleSpec
from pyrsample.range_labels import (
    AnchorValidity,
    LabelKind,
    RoiLabel,
    assign_roi_labels,
    classify_box_validity,
    filter_detections_by_range,
    invalidate_anchors,
)

from conftest import detection_batch
from oracles import roi_label_oracle


def square(side, x=0.0, y=0.0):
    return BoundingBox(x, y, x + side, y + side)


def spec_with_range(r_min, r_max):
    return ScaleSpec(scale_id=0, target=1.0, valid_range=(r_min, r_max))


MID_RANGE = spec_with_range(32.0**2, 150.0**2)


class TestClassifyBoxValidity:
    def test_in_range(self):
        assert classify_box_validity(square(60), MID_RANGE)

    def test_exactly_r_min_is_invalid(self):
        assert not classify_box_validity(square(32), MID_RANGE)

    def test_exactly_r_max_is_invalid(self):
        assert not classify_box_validity(square(150), MID_RANGE)

    def test_above_small_range(self):
        assert not classify_box_validity(square(90), spec_with_range(0.0, 80.0**2))

    def test_unbounded_above(self):
        assert classify_box_validity(square(5000), spec_with_range(120.0**2, math.inf))

    def test_absorb_flags(self):
        below = ScaleSpec(
            scale_id=0, target=1.0, valid_range=(32.0**2, 150.0**2), absorb_below=True
        )
        assert classify_box_validity(square(10), below)
        above = ScaleSpec(
            scale_id=0, target=1.0, valid_range=(32.0**2, 150.0**2), absorb_above=True
        )
        assert classify_box_validity(square(500), above)

    def test_monotone_in_range_width(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            side = rng.uniform(1, 200)
            r_min = rng.uniform(0, 150) ** 2
            r_max = r_min + rng.uniform(1, 150) ** 2
            narrow = spec_with_range(r_min, r_max)
            wide = spec_with_range(r_min / 2, r_max * 2)
            if classify_box_validity(square(side), narrow):
                assert classify_box_validity(square(side), wide)


class TestRoiLabel:
    def test_numeric_encoding(self):
        assert RoiLabel.foreground(7).numeric == 7
        assert RoiLabel.background().numeric == 0
        assert RoiLabel.ignore().numeric == -1

    def test_foreground_needs_class(self):
        with pytest.raises(ValueError):
            RoiLabel(LabelKind.FOREGROUND)
        with pytest.raises(ValueError):
            RoiLabel(LabelKind.BACKGROUND, class_id=3)


class TestAssignRoiLabels:
    def test_foreground_branch(self):
        # RoI of side 60; the nested class-3 box [0,0,60,42] gives IoU 0.7
        roi = square(60)
        gts = [GroundTruthInstance(BoundingBox(0, 0, 60, 42), class_id=3)]
        labels = assign_roi_labels([roi], gts, MID_RANGE)
        assert labels == [RoiLabel.foreground(3)]

    def test_out_of_range_is_ignore(self):
        roi = square(200)
        gts = [GroundTruthInstance(square(200), class_id=1)]
        labels = assign_roi_labels([roi], gts, MID_RANGE)
        assert labels == [RoiLabel.ignore()]
        assert labels[0].numeric == -1

    def test_low_iou_is_background(self):
        roi = square(60)
        gts = [GroundTruthInstance(square(60, x=50, y=0), class_id=1)]  # IoU ~ 1/11
        labels = assign_roi_labels([roi], gts, MID_RANGE)
        assert labels == [RoiLabel.background()]

    def test_empty_gts_all_background_in_range(self):
        labels = assign_roi_labels([square(60), square(10)], [], MID_RANGE)
        assert labels[0] == RoiLabel.background()
        assert labels[1] == RoiLabel.ignore()

    def test_tie_breaks_to_lowest_gt_index(self):
        roi = square(60)
        gts = [
            GroundTruthInstance(square(60), class_id=4),
            GroundTruthInstance(square(60), class_id=9),
        ]
        labels = assign_roi_labels([roi], gts, MID_RANGE)
        assert labels == [RoiLabel.foreground(4)]

    def test_boundary_areas_are_ignore(self):
        for side in (32.0, 150.0):
            labels = assign_roi_labels(
                [square(side)], [GroundTruthInstance(square(side), 1)], MID_RANGE
            )
            assert labels == [RoiLabel.ignore()]

    def test_matches_piecewise_oracle(self):
        rng = np.random.default_rng(42)
        spec = MID_RANGE
        r_min, r_max = spec.effective_range
        for _ in range(2000):
            roi = _random_box(rng)
            gts = [
                GroundTruthInstance(_random_box(rng), class_id=int(rng.integers(0, 5)))
                for _ in range(rng.integers(0, 4))
            ]
            got = assign_roi_labels([roi], gts, spec)[0].numeric
            want = roi_label_oracle(roi, gts, r_min, r_max)
            assert got == want


def _random_box(rng):
    x, y = rng.uniform(0, 200, 2)
    w, h = rng.uniform(0, 160, 2)
    return BoundingBox(x, y, x + w, y + h)


class TestInvalidateAnchors:
    def test_overlap_with_invalid_gt(self):
        # the 200-side gt is out of range; anchor IoU with it is 0.49
        gt = GroundTruthInstance(square(200), class_id=1)
        anchor = BoundingBox(0, 0, 140, 140)
        flags = invalidate_anchors([anchor], [gt], MID_RANGE)
        assert flags == [AnchorValidity.INVALIDATED]

    def test_no_invalid_gts(self):
        gt = GroundTruthInstance(square(60), class_id=1)
        anchors = [square(60), square(10, x=500)]
        flags = invalidate_anchors(anchors, [gt], MID_RANGE)
        assert flags == [AnchorValidity.TRAIN, AnchorValidity.TRAIN]

    def test_exactly_threshold_still_trains(self):
        gt = GroundTruthInstance(square(200), class_id=1)  # invalid at MID_RANGE
        # overlap exactly 0.3: intersection 200*x, union 200*200 + 200*x... use
        # a nested anchor: anchor area a inside gt, IoU = a / 200^2 = 0.3
        side = math.sqrt(0.3) * 200
        anchor = BoundingBox(0, 0, side, side)
        flags = invalidate_anchors([anchor], [gt], MID_RANGE)
        assert flags == [AnchorValidity.TRAIN]

    def test_strictly_above_threshold_invalidates(self):
        gt = GroundTruthInstance(square(200), class_id=1)
        side = math.sqrt(0.31) * 200
        anchor = BoundingBox(0, 0, side, side)
        flags = invalidate_anchors([anchor], [gt], MID_RANGE)
        assert flags == [AnchorValidity.INVALIDATED]


class TestFilterDetections:
    def test_all_in_range_unchanged(self):
        dets = detection_batch([(square(60).as_tuple(), 0.9, 1), (square(100).as_tuple(), 0.5, 2)])
        assert list(filter_detections_by_range(dets, MID_RANGE)) == list(dets)

    def test_removes_out_of_range(self):
        spec = spec_with_range(0.0, 80.0**2)
        dets = detection_batch([(square(90).as_tuple(), 0.9, 1)])
        assert list(filter_detections_by_range(dets, spec)) == []

    def test_subsequence_of_input(self):
        rng = np.random.default_rng(3)
        dets = [
            DetectionRow(
                _random_box(rng).as_tuple(), float(rng.uniform(0, 1)), int(rng.integers(0, 3))
            )
            for _ in range(50)
        ]
        kept = list(filter_detections_by_range(detection_batch(dets), MID_RANGE))
        valid = [d for d in dets if classify_box_validity(BoundingBox(*d.box), MID_RANGE)]
        assert kept == valid, "not the valid detections in input order"
