import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pyrsample import focus_chips
from pyrsample.geometry import DetectionRow, ScaleSpec
from pyrsample.range_labels import (
    assign_roi_labels,
    filter_detections_by_range,
    invalidate_anchors,
    valid_area_mask,
)

from conftest import detection_batch, gt_set
from oracles import BoundingBox, Gt, anchor_validity_oracle, boxes_array, roi_label_oracle


def square(side, x=0.0, y=0.0):
    return BoundingBox(x, y, x + side, y + side)


def spec_with_range(r_min, r_max):
    return ScaleSpec(scale_id=0, target=1.0, valid_range=(r_min, r_max))


MID_RANGE = spec_with_range(32.0**2, 150.0**2)


def valid(box, spec):
    """Whether :func:`valid_area_mask` keeps the one box."""
    return bool(valid_area_mask(boxes_array([box]), spec)[0])


def roi_labels(rois, gts, spec=MID_RANGE):
    """(label, class id) per RoI from :func:`assign_roi_labels`."""
    labels, class_ids = assign_roi_labels(boxes_array(rois), gt_set(gts), spec)
    assert labels.dtype == np.int8 and class_ids.dtype == np.int64
    return list(zip(labels.tolist(), class_ids.tolist()))


def anchor_flags(anchors, gts, spec=MID_RANGE):
    """Per anchor, whether :func:`invalidate_anchors` invalidates it."""
    flags = invalidate_anchors(boxes_array(anchors), gt_set(gts), spec)
    assert flags.dtype == bool
    return flags.tolist()


# Corners and sides on a unit grid, so that squares of side 2, 4 or 5 have
# areas exactly at the range endpoints below, or anywhere; zero sides too.
coords = st.one_of(st.integers(0, 24).map(float), st.floats(0.0, 24.0))
sides = st.one_of(st.sampled_from([0.0, 2.0, 4.0, 5.0, 10.0, 20.0]),
                  st.integers(0, 24).map(float), st.floats(0.0, 24.0))


@st.composite
def grid_boxes(draw):
    x, y, w = draw(coords), draw(coords), draw(sides)
    h = draw(st.one_of(st.just(w), sides))
    return BoundingBox(x, y, x + w, y + h)


@st.composite
def label_cases(draw):
    """A level's range, RoIs and one image's ground truth, classes from 0.
    Some gt boxes are copies of other gt boxes or of RoIs with another
    class, so IoU ties between gt boxes are common."""
    r_min = float(draw(st.sampled_from([0, 2, 4, 5])) ** 2)
    r_max = draw(st.sampled_from([r_min + 1.0, 100.0, 400.0, math.inf]))
    spec = ScaleSpec(scale_id=0, target=1.0, valid_range=(r_min, r_max),
                     absorb_below=draw(st.booleans()) and draw(st.booleans()),
                     absorb_above=draw(st.booleans()) and draw(st.booleans()))
    rois = draw(st.lists(grid_boxes(), max_size=8))
    classes = st.integers(0, 3)
    gts = [Gt(box, draw(classes), draw(st.booleans()))
           for box in draw(st.lists(grid_boxes(), max_size=6))]
    for _ in range(draw(st.integers(0, 3))):
        copies = [gt.box for gt in gts] + rois
        if copies:
            gts.insert(draw(st.integers(0, len(gts))),
                       Gt(draw(st.sampled_from(copies)), draw(classes)))
    return spec, rois, gts


# Pair blocks of the default size, and small enough to split the rows.
PAIR_BLOCKS = st.sampled_from([focus_chips._PAIR_BLOCK, 1, 5])


class TestClassifyBoxValidity:
    """:func:`valid_area_mask`, the open-interval area rule, box by box."""

    def test_in_range(self):
        assert valid(square(60), MID_RANGE)

    def test_exactly_r_min_is_invalid(self):
        assert not valid(square(32), MID_RANGE)

    def test_exactly_r_max_is_invalid(self):
        assert not valid(square(150), MID_RANGE)

    def test_above_small_range(self):
        assert not valid(square(90), spec_with_range(0.0, 80.0**2))

    def test_unbounded_above(self):
        assert valid(square(5000), spec_with_range(120.0**2, math.inf))

    def test_absorb_flags(self):
        below = ScaleSpec(
            scale_id=0, target=1.0, valid_range=(32.0**2, 150.0**2), absorb_below=True
        )
        assert valid(square(10), below)
        above = ScaleSpec(
            scale_id=0, target=1.0, valid_range=(32.0**2, 150.0**2), absorb_above=True
        )
        assert valid(square(500), above)

    def test_monotone_in_range_width(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            side = rng.uniform(1, 200)
            r_min = rng.uniform(0, 150) ** 2
            r_max = r_min + rng.uniform(1, 150) ** 2
            narrow = spec_with_range(r_min, r_max)
            wide = spec_with_range(r_min / 2, r_max * 2)
            if valid(square(side), narrow):
                assert valid(square(side), wide)


class TestRoiLabel:
    """The (label, class id) encoding: 1 with the class for foreground, 0
    with -1 for background, -1 with -1 for ignore."""

    def test_numeric_encoding(self):
        gts = [Gt(square(60), class_id=7)]
        rois = [square(60), square(60, x=500), square(10)]
        assert roi_labels(rois, gts) == [(1, 7), (0, -1), (-1, -1)]

    def test_foreground_needs_class(self):
        # Class 0 is a class: its foreground is not background.
        assert roi_labels([square(60)], [Gt(square(60), class_id=0)]) == [(1, 0)]
        assert roi_labels([square(60)], []) == [(0, -1)]


class TestAssignRoiLabels:
    def test_foreground_branch(self):
        # RoI of side 60; the nested class-3 box [0,0,60,42] gives IoU 0.7
        gts = [Gt(BoundingBox(0, 0, 60, 42), class_id=3)]
        assert roi_labels([square(60)], gts) == [(1, 3)]

    def test_out_of_range_is_ignore(self):
        assert roi_labels([square(200)], [Gt(square(200), class_id=1)]) == [(-1, -1)]

    def test_low_iou_is_background(self):
        gts = [Gt(square(60, x=50, y=0), class_id=1)]  # IoU ~ 1/11
        assert roi_labels([square(60)], gts) == [(0, -1)]

    def test_empty_gts_all_background_in_range(self):
        assert roi_labels([square(60), square(10)], []) == [(0, -1), (-1, -1)]
        assert roi_labels([], [Gt(square(60), class_id=1)]) == []

    def test_tie_breaks_to_lowest_gt_index(self):
        gts = [Gt(square(60), class_id=4), Gt(square(60), class_id=9)]
        assert roi_labels([square(60)], gts) == [(1, 4)]

    def test_boundary_areas_are_ignore(self):
        for side in (32.0, 150.0):
            assert roi_labels([square(side)], [Gt(square(side), 1)]) == [(-1, -1)]

    def test_matches_piecewise_oracle(self):
        rng = np.random.default_rng(42)
        spec = MID_RANGE
        r_min, r_max = spec.effective_range
        for _ in range(2000):
            rois = [_random_box(rng) for _ in range(rng.integers(0, 4))]
            gts = [
                Gt(_random_box(rng), class_id=int(rng.integers(0, 5)))
                for _ in range(rng.integers(0, 4))
            ]
            want = [roi_label_oracle(roi, gts, r_min, r_max) for roi in rois]
            assert roi_labels(rois, gts, spec) == want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(label_cases(), PAIR_BLOCKS)
    @example((MID_RANGE, [square(60)], [Gt(square(60), 0), Gt(square(60), 2)]), 1)
    @example((MID_RANGE, [square(60)], [Gt(BoundingBox(0, 0, 60, 30), 0)]), 1)  # IoU 0.5
    def test_matches_oracle_on_generated_cases(self, case, block):
        spec, rois, gts = case
        r_min, r_max = spec.effective_range
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(focus_chips, "_PAIR_BLOCK", block)
            got = roi_labels(rois, gts, spec)
        assert got == [roi_label_oracle(roi, gts, r_min, r_max) for roi in rois]


def _random_box(rng):
    x, y = rng.uniform(0, 200, 2)
    w, h = rng.uniform(0, 160, 2)
    return BoundingBox(x, y, x + w, y + h)


class TestInvalidateAnchors:
    def test_overlap_with_invalid_gt(self):
        # the 200-side gt is out of range; anchor IoU with it is 0.49
        gts = [Gt(square(200), class_id=1)]
        assert anchor_flags([BoundingBox(0, 0, 140, 140)], gts) == [True]

    def test_no_invalid_gts(self):
        gts = [Gt(square(60), class_id=1)]
        assert anchor_flags([square(60), square(10, x=500)], gts) == [False, False]

    def test_exactly_threshold_still_trains(self):
        gts = [Gt(square(200), class_id=1)]  # invalid at MID_RANGE
        # a nested anchor: anchor area a inside gt, IoU = a / 200^2 = 0.3
        side = math.sqrt(0.3) * 200
        assert anchor_flags([BoundingBox(0, 0, side, side)], gts) == [False]

    def test_strictly_above_threshold_invalidates(self):
        gts = [Gt(square(200), class_id=1)]
        side = math.sqrt(0.31) * 200
        assert anchor_flags([BoundingBox(0, 0, side, side)], gts) == [True]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(label_cases(), PAIR_BLOCKS)
    # IoU 0.3 and 0.305 with an out-of-range box, none with an in-range one
    @example((MID_RANGE, [BoundingBox(0, 0, 200, 60), BoundingBox(0, 0, 200, 61)],
              [Gt(square(200), 1), Gt(BoundingBox(0, 0, 200, 61), 2)]), 1)
    def test_matches_oracle_on_generated_cases(self, case, block):
        spec, anchors, gts = case
        r_min, r_max = spec.effective_range
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(focus_chips, "_PAIR_BLOCK", block)
            got = anchor_flags(anchors, gts, spec)
        assert got == [anchor_validity_oracle(anchor, gts, r_min, r_max) for anchor in anchors]


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
        want = [d for d in dets if valid(BoundingBox(*d.box), MID_RANGE)]
        assert kept == want, "not the valid detections in input order"
