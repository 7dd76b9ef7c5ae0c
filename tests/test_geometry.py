import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pyrsample.geometry import (
    DetectionBatch,
    DetectionRow,
    GroundTruthSet,
    ImageSize,
    MaxSideTarget,
    ScaleSpec,
    canvas_sizes,
    level_boxes,
    size_array,
)
from pyrsample.stacking import iou_rows

from conftest import box_columns, detection_batch, gt_set
from oracles import BoundingBox, clip_box, encloses_oracle, iou_oracle, rescale_box, resolve_oracle


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
    """The oracles' own box type; the library takes (n, 4) corner arrays."""

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
    """:func:`level_boxes` of one box on one map, checked bit for bit
    against the one-box oracle."""
    resized, owners = level_boxes(
        np.array([b.as_tuple()]), np.array([0, 1]), size_array([from_size]),
        np.zeros(1, dtype=np.intp), size_array([to_size]),
    )
    assert owners.tolist() == [0]
    (row,) = resized.tolist()
    assert row == list(rescale_box(b, from_size, to_size).as_tuple())
    return BoundingBox(*row)


# Valid level targets: factors, longer-side caps and explicit sizes.
LEVEL_TARGETS = st.one_of(
    st.floats(0.01, 8.0),
    st.sampled_from([0.5, 1.0, 1.5, 1.667, 3.0]),
    st.builds(MaxSideTarget, st.integers(1, 3000)),
    st.builds(ImageSize, st.integers(1, 3000), st.integers(1, 3000)),
)
corner = st.one_of(coords, st.floats(-1e9, 1e9), st.sampled_from([-0.0, 0.0, 5e-324, 1e308]))


@st.composite
def corner_boxes(draw):
    x1, x2 = sorted((draw(corner), draw(corner)))
    y1, y2 = sorted((draw(corner), draw(corner)))
    return BoundingBox(x1, y1, x2, y2)


class TestLevelBoxes:
    """:func:`level_boxes` against the one-box oracle ``rescale_box``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        sizes=st.lists(st.tuples(st.integers(1, 3000), st.integers(1, 3000)), min_size=1,
                       max_size=5),
        image_boxes=st.lists(st.lists(corner_boxes(), max_size=4), min_size=5, max_size=5),
        targets=st.lists(LEVEL_TARGETS, min_size=1, max_size=3),
        extra=st.lists(st.integers(0, 4), max_size=6),
    )
    @example(sizes=[(640, 480), (480, 640)], image_boxes=[[box(10, 10, 20, 30)], [], [], [], []],
             targets=[MaxSideTarget(512), 2.0, ImageSize(100, 50)], extra=[1, 0, 0])
    def test_matches_the_oracle_bit_for_bit(self, sizes, image_boxes, targets, extra):
        originals = [ImageSize(w, h) for w, h in sizes]
        boxes = image_boxes[: len(sizes)]
        arrays = [np.array([b.as_tuple() for b in bs]).reshape(-1, 4) for bs in boxes]
        # Every image at every level, in level order, then images picked
        # again in any order; each map has its image's canvas at its level.
        maps = [(i, level) for level in range(len(targets)) for i in range(len(sizes))]
        maps += [(i % len(sizes), i % len(targets)) for i in extra]
        specs = [ScaleSpec(scale_id=k, target=t) for k, t in enumerate(targets)]
        canvases = [resolve_oracle(specs[level], originals[i]) for i, level in maps]
        images = np.array([i for i, _ in maps], dtype=np.intp)
        with np.errstate(over="ignore"):  # 1e308 may pass the largest float
            resized, owners = level_boxes(*box_columns(arrays), size_array(originals), images,
                                          size_array(canvases))
        want = [
            rescale_box(b, originals[i], canvas).as_tuple()
            for (i, _), canvas in zip(maps, canvases) for b in boxes[i]
        ]
        assert resized.dtype == np.float64 and resized.shape == (len(want), 4)
        assert resized.tobytes() == np.array(want, dtype=np.float64).reshape(-1, 4).tobytes()
        assert owners.tolist() == [k for k, (i, _) in enumerate(maps) for _ in boxes[i]]

    def test_no_maps_and_no_boxes(self):
        resized, owners = level_boxes(
            np.zeros((0, 4)), np.array([0, 0]), np.array([[10, 10]]), np.zeros(0, dtype=np.intp),
            np.zeros((0, 2), dtype=np.int64),
        )
        assert resized.shape == (0, 4) and owners.shape == (0,)
        resized, owners = level_boxes(
            np.zeros((0, 4)), np.array([0, 0, 0]), np.array([[10, 10], [3, 4]]),
            np.array([1, 0, 1]), np.array([[20, 20], [5, 5], [6, 8]]),
        )
        assert resized.shape == (0, 4) and owners.shape == (0,)


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


SIDES = st.one_of(st.integers(1, 2**32 - 1), st.integers(1, 2000),
                  st.sampled_from([1, 2, 5, 7, 2**31, 2**32 - 2, 2**32 - 1]))
TARGETS = st.one_of(
    st.floats(1e-12, 1e12),
    # Products that land on .5, factors that clamp a side to 1, and
    # factors that are not positive or finite.
    st.sampled_from([0.5, 1.5, 1.667, 3.0, 1.0, 2.0**-40, 1e300, 1e308, math.inf,
                     math.nan, 0.0, -1.0]),
    st.builds(MaxSideTarget, st.one_of(st.integers(1, 2**33), st.sampled_from(
        [2**32 - 2, 2**32 - 1, 2**32]))),
    st.builds(ImageSize, st.integers(1, 2**33), st.integers(1, 2**33)),
)


class TestCanvasSizes:
    """:func:`canvas_sizes` against the one-image oracle, and
    :meth:`ScaleSpec.resolve` as its one-row case."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(target=TARGETS, originals=st.lists(st.tuples(SIDES, SIDES), min_size=1, max_size=6))
    @example(target=0.5, originals=[(5, 7), (7, 5), (1, 1)])  # 2.5 and 3.5
    @example(target=1.5, originals=[(7, 3), (5, 1)])  # 10.5, 4.5, 7.5 and 1.5
    @example(target=MaxSideTarget(512), originals=[(640, 640), (480, 640), (640, 480)])
    @example(target=MaxSideTarget(3), originals=[(2**32 - 1, 1)])  # the short side clamps
    @example(target=1.0, originals=[(2**32 - 1, 2**32 - 1)])  # on the bound
    @example(target=1.0 + 2.0**-40, originals=[(2**32 - 1, 1)])  # just past it
    @example(target=MaxSideTarget(2**32 - 1), originals=[(3, 3), (1, 2)])
    @example(target=MaxSideTarget(2**32), originals=[(3, 3)])
    @example(target=ImageSize(2**32, 1), originals=[(3, 3)])
    @example(target=1e308, originals=[(2**32 - 1, 2)])  # overflows to inf
    def test_matches_the_oracle_row_by_row(self, target, originals):
        spec = ScaleSpec(scale_id=4, target=target)
        sizes = [ImageSize(w, h) for w, h in originals]
        try:
            want = [resolve_oracle(spec, size) for size in sizes]
        except ValueError:
            want = None
        # No float may reach an integer cast, or numpy warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is None:
                with pytest.raises(ValueError):
                    canvas_sizes(spec, np.array(originals))
                return
            got = canvas_sizes(spec, np.array(originals))
            assert got.dtype == np.int64 and got.shape == (len(originals), 2)
            assert got.tolist() == [[c.width, c.height] for c in want]
            assert [spec.resolve(size) for size in sizes] == want

    def test_no_images(self):
        for target in (2.0, MaxSideTarget(8), ImageSize(3, 4)):
            got = canvas_sizes(ScaleSpec(scale_id=0, target=target), np.zeros((0, 2)))
            assert got.shape == (0, 2) and got.dtype == np.int64

    def test_error_names_the_level_and_the_bound(self):
        spec = ScaleSpec(scale_id=7, target=1e300)
        with pytest.raises(ValueError, match=r"scale 7: .* 4294967295"):
            spec.resolve(ImageSize(640, 480))


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
