import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrsample.geometry import (
    BoundingBox,
    DetectionBatch,
    DetectionRow,
    GroundTruthSet,
    ImageSize,
    MaxSideTarget,
    ScaleSpec,
    rescale_boxes,
)
from pyrsample.stacking import iou_rows

from conftest import detection_batch, gt_set
from oracles import clip_box, encloses_oracle, iou_oracle, rescale_box


def box(x1, y1, x2, y2):
    return BoundingBox(x1, y1, x2, y2)


# Quarter-pixel grid keeps the exact-equality invariants meaningful in
# floating point; sub-denormal coordinate differences are not interesting.
coords = st.integers(min_value=-2000, max_value=2000).map(lambda v: v / 4.0)


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return BoundingBox(x1, y1, x2, y2)


class TestBoundingBox:
    def test_rejects_misordered_corners(self):
        with pytest.raises(ValueError):
            BoundingBox(10, 0, 5, 10)
        with pytest.raises(ValueError):
            BoundingBox(0, 10, 10, 5)

    def test_zero_area_is_legal(self):
        b = box(5, 5, 5, 5)
        assert b.area == 0

    def test_area(self):
        b = box(0, 0, 10, 20)
        assert b.area == 200

    def test_intersection_and_union_rect(self):
        a, b = box(0, 0, 10, 10), box(5, 5, 15, 15)
        inter = a.intersection(b)
        assert inter == box(5, 5, 10, 10)
        assert a.union_rect(b) == box(0, 0, 15, 15)
        assert a.intersection(box(20, 20, 30, 30)) is None
        # edge contact has zero area
        assert a.intersection(box(10, 0, 20, 10)) is None

    def test_clip(self):
        assert clip_box(box(-5, -5, 20, 30), ImageSize(10, 10)) == box(0, 0, 10, 10)


def iou(a, b):
    """:func:`iou_rows` of one pair of boxes."""
    (value,) = iou_rows(np.array([a.as_tuple()]), np.array([b.as_tuple()])).tolist()
    return value


class TestIou:
    def test_identity(self):
        assert iou(box(0, 0, 10, 10), box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        # intersection 50, union 150
        assert iou(box(0, 0, 10, 10), box(5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_degenerate_boxes(self):
        z = box(5, 5, 5, 5)
        assert iou(z, z) == 0.0
        assert iou(z, box(0, 0, 10, 10)) == 0.0

    @given(st.lists(st.tuples(boxes(), boxes()), max_size=20))
    @settings(max_examples=300)
    def test_symmetric_and_matches_oracle(self, pairs):
        a = np.array([p.as_tuple() for p, _ in pairs]).reshape(-1, 4)
        b = np.array([q.as_tuple() for _, q in pairs]).reshape(-1, 4)
        want = [iou_oracle(p, q) for p, q in pairs]
        assert iou_rows(a, b).tolist() == want
        assert iou_rows(b, a).tolist() == want

    @given(boxes(), boxes())
    @settings(max_examples=300)
    def test_one_iff_equal_positive_area(self, a, b):
        if a.area > 0 and b.area > 0:
            assert (iou(a, b) == 1.0) == (a == b)
        else:
            assert iou(a, b) < 1.0


def rescaled(b, from_size, to_size):
    """:func:`rescale_boxes` of one box, checked bit for bit against the
    one-box oracle."""
    (row,) = rescale_boxes(np.array([b.as_tuple()]), from_size, to_size).tolist()
    assert row == list(rescale_box(b, from_size, to_size).as_tuple())
    return BoundingBox(*row)


class TestRescaleBox:
    def test_uniform_double(self):
        out = rescaled(box(10, 10, 20, 20), ImageSize(100, 100), ImageSize(200, 200))
        assert out == box(20, 20, 40, 40)

    def test_identity(self):
        size = ImageSize(123, 77)
        b = box(3, 4, 50, 60)
        assert rescaled(b, size, size) == b

    def test_per_axis_factors(self):
        out = rescaled(box(0, 0, 50, 25), ImageSize(100, 50), ImageSize(300, 100))
        assert out == box(0, 0, 150, 50)

    @given(boxes())
    @settings(max_examples=200)
    def test_composition(self, b):
        a_size, b_size, c_size = ImageSize(100, 80), ImageSize(333, 97), ImageSize(40, 640)
        via = rescaled(rescaled(b, a_size, b_size), b_size, c_size)
        direct = rescaled(b, a_size, c_size)
        for got, want in zip(via.as_tuple(), direct.as_tuple()):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestEncloses:
    def test_inside(self):
        assert encloses_oracle(box(0, 0, 512, 512), box(10, 10, 20, 20))

    def test_crossing_edge(self):
        assert not encloses_oracle(box(0, 0, 512, 512), box(500, 10, 520, 20))

    def test_boundary_contact_counts(self):
        c = box(0, 0, 512, 512)
        assert encloses_oracle(c, c)

    @given(boxes(), boxes())
    @settings(max_examples=300)
    def test_mutual_enclosure_is_equality(self, a, b):
        if encloses_oracle(a, b) and encloses_oracle(b, a):
            assert a == b


class TestScaleSpec:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ScaleSpec(scale_id=0, target=1.0, valid_range=(100.0, 100.0))
        with pytest.raises(ValueError):
            ScaleSpec(scale_id=0, target=1.0, chip_size=16, chip_stride=32)

    def test_resolve_factor(self):
        spec = ScaleSpec(scale_id=0, target=3.0)
        assert spec.resolve(ImageSize(640, 480)) == ImageSize(1920, 1440)

    def test_resolve_max_side(self):
        spec = ScaleSpec(scale_id=0, target=MaxSideTarget(512))
        assert spec.resolve(ImageSize(640, 480)) == ImageSize(512, 384)
        assert spec.resolve(ImageSize(480, 640)) == ImageSize(384, 512)

    def test_resolve_explicit(self):
        spec = ScaleSpec(scale_id=0, target=ImageSize(800, 600))
        assert spec.resolve(ImageSize(123, 456)) == ImageSize(800, 600)

    def test_absorb_flags_widen_range(self):
        spec = ScaleSpec(
            scale_id=0, target=1.0, valid_range=(32.0**2, 150.0**2),
            absorb_below=True, absorb_above=True,
        )
        assert spec.effective_range == (0.0, math.inf)

    def test_image_size_invariants(self):
        with pytest.raises(ValueError):
            ImageSize(0, 10)


class TestDetectionBatch:
    ROWS = [
        DetectionRow((0.0, 0.0, 10.0, 10.0), 0.9, 3),
        DetectionRow((5.0, 5.0, 6.5, 8.0), 0.25, 1),
        DetectionRow((1.0, 2.0, 1.0, 2.0), 0.0, 3),
    ]

    def test_columns_round_trip(self):
        batch = detection_batch(self.ROWS)
        assert batch.boxes.shape == (3, 4) and batch.class_ids.dtype.kind == "i"
        assert list(batch) == self.ROWS
        assert [batch[i] for i in range(len(batch))] == self.ROWS
        empty = DetectionBatch.empty()
        assert len(empty) == 0 and empty.boxes.shape == (0, 4) and list(empty) == []

    def test_rows_and_selection(self):
        batch = detection_batch(self.ROWS)
        assert batch[1] == DetectionRow((5.0, 5.0, 6.5, 8.0), 0.25, 1)
        assert [row.class_id for row in batch] == [3, 1, 3]
        picked = batch[batch.class_ids == 3]
        assert isinstance(picked, DetectionBatch)
        assert list(picked) == [self.ROWS[0], self.ROWS[2]]

    def test_concat_and_keep_rows(self):
        a, b = detection_batch(self.ROWS[:1]), detection_batch(self.ROWS[1:])
        assert list(DetectionBatch.concat([a, b])) == self.ROWS
        assert DetectionBatch.concat([a]) is a
        assert len(DetectionBatch.concat([])) == 0
        kept = detection_batch(self.ROWS)[np.array([True, False, True])]
        assert list(kept) == [self.ROWS[0], self.ROWS[2]]


class TestGroundTruthSet:
    ROWS = [
        (BoundingBox(0, 0, 10, 10), 3, False),
        (BoundingBox(5, 5, 6.5, 8), 1, True),
        (BoundingBox(1, 2, 1, 2), 0, False),
    ]

    @staticmethod
    def rows(gts):
        return list(zip(map(tuple, gts.boxes.tolist()), gts.class_ids.tolist(),
                        gts.crowd.tolist()))

    def test_columns_round_trip(self):
        gts = gt_set(self.ROWS)
        assert gts.boxes.shape == (3, 4) and gts.boxes.dtype == np.float64
        assert gts.class_ids.dtype == np.int64 and gts.crowd.dtype == bool
        assert len(gts) == 3
        assert self.rows(gts) == [(box.as_tuple(), c, crowd) for box, c, crowd in self.ROWS]
        with pytest.raises(TypeError):
            iter(gts)
        empty = gt_set([])
        assert len(empty) == 0 and empty.boxes.shape == (0, 4) and self.rows(empty) == []

    def test_selection_gives_a_set(self):
        gts = gt_set(self.ROWS)
        for key, want in [(~gts.crowd, [0, 2]), (slice(1, None), [1, 2]),
                          (np.array([2, 0]), [2, 0])]:
            picked = gts[key]
            assert isinstance(picked, GroundTruthSet)
            assert self.rows(picked) == [self.rows(gts)[k] for k in want]
