import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrsample import chips
from pyrsample.chips import (
    ChipBatch,
    ProposalSet,
    _attach_gt,
    _cell_ranges,
    _cell_rects,
    _enclosed,
    _lattice_size,
    _rect_counts,
    negative_cover,
    positive_cover,
    sample_negative_chips,
    select_negative_chips,
    select_positive_chips,
)
from pyrsample.geometry import GroundTruthSet, ImageSize, MaxSideTarget, ScaleSpec, size_array
from pyrsample.range_labels import assign_roi_labels, valid_area_mask

from conftest import box_columns, gt_columns, gt_set
from oracles import (
    BoundingBox,
    Gt,
    attach_gt_oracle,
    boxes_array,
    chip_grid_oracle,
    encloses_oracle,
    greedy_cover_oracle,
    resolve_oracle,
    rescale_box,
    select_negative_chips_oracle,
)


def square(side, x=0.0, y=0.0):
    return BoundingBox(x, y, x + side, y + side)


def flat_spec(scale_id=0, K=512, d=32, r=(0.0, math.inf)):
    return ScaleSpec(scale_id=scale_id, target=1.0, valid_range=r, chip_size=K, chip_stride=d)


def lattice_cells(w, h, K, d):
    """The lattice cells of a w x h canvas for chips of side K at stride d."""
    return chip_grid_oracle(w, h, K, d)


def kernel_lattice(w, h, K, d):
    """Every lattice cell of the cover kernel, in (row, col) order."""
    canvas = np.array([w, h], dtype=float)
    n_cols, n_rows = (int(n) for n in _lattice_size(canvas, K, d))
    rows, cols = np.divmod(np.arange(n_rows * n_cols), n_cols)
    rects = _cell_rects(rows, cols, np.tile(canvas, (len(rows), 1)), flat_spec(K=K, d=d))
    return [tuple(cell) for cell in rects.tolist()]


def grid_oracle(size, spec):
    """The lattice of :func:`chip_grid_oracle` as boxes."""
    rects = chip_grid_oracle(size.width, size.height, spec.chip_size, spec.chip_stride)
    return [BoundingBox(*rect) for rect in rects]


class TestBuildChipGrid:
    """The chip lattice: the placement rule of ``chip_grid_oracle``, and the
    cover kernel's cells against it."""

    def test_chip_equals_canvas(self):
        assert lattice_cells(512, 512, 512, 32) == [(0, 0, 512, 512)]

    def test_two_column_lattice(self):
        cells = lattice_cells(544, 512, 512, 32)
        assert [c[0] for c in cells] == [0, 32]
        assert all(x2 - x1 == 512 and y2 - y1 == 512 for x1, y1, x2, y2 in cells)

    def test_small_canvas_clips(self):
        assert lattice_cells(300, 300, 512, 32) == [(0, 0, 300, 300)]

    def test_edge_snap(self):
        assert [c[0] for c in lattice_cells(550, 512, 512, 32)] == [0, 32, 38]

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = int(rng.integers(40, 1400))
            h = int(rng.integers(40, 1400))
            K = int(rng.integers(32, 600))
            d = int(rng.integers(1, K + 1))
            assert kernel_lattice(w, h, K, d) == chip_grid_oracle(w, h, K, d)

    def test_far_edges_covered(self):
        cells = lattice_cells(1000, 700, 512, 32)
        assert max(c[2] for c in cells) == 1000
        assert max(c[3] for c in cells) == 700


def positive_chips(gts, pyramid, sizes, image_ids):
    """:func:`select_positive_chips` on per-image ground truth (sets or
    ``Gt`` rows) and ``ImageSize``s."""
    columns, offsets, size_rows = gt_columns(dict(enumerate(gts)), dict(enumerate(sizes)))
    return select_positive_chips(columns, offsets, pyramid, size_rows, image_ids)


def negative_chips(gts, proposals, pyramid, sizes, image_ids, **kwargs):
    """:func:`select_negative_chips` on per-image ground truth, per-image
    ``ProposalSet``s and ``ImageSize``s."""
    columns, offsets, size_rows = gt_columns(dict(enumerate(gts)), dict(enumerate(sizes)))
    boxes, proposal_offsets = box_columns([p.boxes for p in proposals])
    scores = np.concatenate([np.zeros(0), *(p.scores for p in proposals)])
    return select_negative_chips(columns, offsets, ProposalSet(boxes, scores), proposal_offsets,
                                 pyramid, size_rows, image_ids, **kwargs)


def select_one(gts, pyramid, size):
    """:func:`select_positive_chips` on one image, id 0, from its ``Gt`` rows."""
    return positive_chips([gts], pyramid, [size], [0])


def is_valid(box, spec):
    """Whether :func:`valid_area_mask` keeps the one box."""
    return bool(valid_area_mask(np.array([box.as_tuple()]), spec)[0])


def chip_box(chip):
    return BoundingBox(*chip.rect)


def random_scene(rng, size, n_max, side_max):
    """One to ``n_max - 1`` squares of side 4 to ``side_max`` inside ``size``."""
    gts = []
    for _ in range(rng.integers(1, n_max)):
        side = float(rng.uniform(4, side_max))
        x = float(rng.uniform(0, max(1, size.width - side)))
        y = float(rng.uniform(0, max(1, size.height - side)))
        gts.append(Gt(square(side, x, y), class_id=1))
    return gts


class TestSelectPositiveChips:
    def test_single_gt_single_chip(self):
        gts = [Gt(square(50, x=100, y=100), class_id=1)]
        chips, diag = select_one(gts, [flat_spec()], ImageSize(600, 600))
        assert len(chips) == 1 and not len(diag)
        assert encloses_oracle(chip_box(chips[0]), gts[0].box)
        assert chips[0].covered_gt_ids == (0,)

    def test_greedy_prefers_pair(self):
        # two boxes coverable together, one far away: greedy takes the pair first
        gts = [
            Gt(square(40, x=10, y=10), class_id=1),
            Gt(square(40, x=300, y=300), class_id=1),
            Gt(square(40, x=1200, y=10), class_id=1),
        ]
        chips, diag = select_one(gts, [flat_spec()], ImageSize(1400, 600))
        assert len(chips) == 2 and not len(diag)
        assert set(chips[0].covered_gt_ids) >= {0, 1}

    def test_every_valid_gt_covered(self):
        rng = np.random.default_rng(5)
        pyramid = [flat_spec(K=256, d=32)]
        sizes = [ImageSize(int(rng.integers(100, 900)), int(rng.integers(100, 900)))
                 for _ in range(30)]
        scenes = [random_scene(rng, size, 12, 200) for size in sizes]
        chips, diag = positive_chips(scenes, pyramid, sizes,
                                            range(30))
        flagged = set(zip(diag.image_ids.tolist(), diag.gt_ids.tolist()))
        for image_id, gts in enumerate(scenes):
            rects = [chip_box(c) for c in chips if c.image_id == image_id]
            for gt_id, gt in enumerate(gts):
                if is_valid(gt.box, pyramid[0]):
                    covered = any(encloses_oracle(rect, gt.box) for rect in rects)
                    assert covered or (image_id, gt_id) in flagged

    def test_attached_gt_matches_per_pair_oracle(self):
        rng = np.random.default_rng(31)
        pyramid = [
            flat_spec(K=128, d=32),
            ScaleSpec(scale_id=1, target=0.5, chip_size=64, chip_stride=16),
        ]
        sizes, scenes = [], []
        for _ in range(40):
            size = ImageSize(int(rng.integers(60, 500)), int(rng.integers(60, 500)))
            gts = []
            for _ in range(rng.integers(0, 12)):
                # Corners on the chip lattice, zero sides and boxes past the
                # canvas edge give boundary contact and empty overlaps.
                x = float(rng.choice([32.0 * rng.integers(0, 8), rng.uniform(0, size.width)]))
                y = float(rng.choice([32.0 * rng.integers(0, 8), rng.uniform(0, size.height)]))
                w = float(rng.choice([0.0, 32.0, 64.0, rng.uniform(1, 150)]))
                h = float(rng.choice([0.0, w, rng.uniform(1, 150)]))
                gts.append(Gt(BoundingBox(x, y, x + w, y + h), class_id=1,
                              is_crowd=bool(rng.random() < 0.2)))
            sizes.append(size)
            scenes.append(gts)
        image_ids = [3 * k + 1 for k in range(40)]
        chips, _ = positive_chips(scenes, pyramid, sizes, image_ids)
        assert len(chips) > 40
        for chip in chips:
            k = image_ids.index(chip.image_id)
            canvas = resolve_oracle(pyramid[chip.scale_id], sizes[k])
            resized = [rescale_box(g.box, sizes[k], canvas) for g in scenes[k]]
            covered, cropped = attach_gt_oracle(chip_box(chip), resized)
            assert chip.covered_gt_ids == covered
            assert chip.cropped_gt == tuple((gt_id, box.as_tuple()) for gt_id, box in cropped)

    def test_matches_greedy_simulation_oracle(self):
        rng = np.random.default_rng(99)
        spec = flat_spec(K=128, d=64)
        sizes = [ImageSize(int(rng.integers(100, 500)), int(rng.integers(100, 500)))
                 for _ in range(40)]
        scenes = [random_scene(rng, size, 9, 100) for size in sizes]
        chips, diag = positive_chips(scenes, [spec], sizes,
                                            range(40))
        assert chips.image_ids.tolist() == sorted(chips.image_ids.tolist())
        for image_id, (size, gts) in enumerate(zip(sizes, scenes)):
            grid = grid_oracle(size, spec)
            picked, uncovered = greedy_cover_oracle(grid, [g.box for g in gts])
            mine = chips[chips.image_ids == image_id]
            assert [chip_box(c) for c in mine] == [grid[i] for i in picked]
            assert diag.gt_ids[diag.image_ids == image_id].tolist() == uncovered

    def test_greedy_step_optimality(self):
        rng = np.random.default_rng(123)
        spec = flat_spec(K=128, d=32)
        size = ImageSize(400, 400)
        gts = []
        for _ in range(10):
            side = float(rng.uniform(4, 100))
            x = float(rng.uniform(0, size.width - side))
            y = float(rng.uniform(0, size.height - side))
            gts.append(Gt(square(side, x, y), class_id=1))
        chips, _ = select_one(gts, [spec], size)
        remaining = set(range(len(gts)))
        available = [tuple(c.as_tuple()) for c in grid_oracle(size, spec)]
        for chip in chips:
            rect = chip_box(chip)
            gain = sum(1 for t in remaining if encloses_oracle(rect, gts[t].box))
            best_other = max(
                sum(1 for t in remaining if encloses_oracle(BoundingBox(*cell), gts[t].box))
                for cell in available
            )
            assert gain == best_other
            remaining -= {t for t in remaining if encloses_oracle(rect, gts[t].box)}
            available.remove(chip.rect)

    def test_chip_shape_and_bounds(self):
        gts = [Gt(square(30, x=10, y=10), class_id=1)]
        size = ImageSize(400, 900)
        chips, _ = select_one(gts, [flat_spec(K=512, d=32)], ImageSize(400, 900))
        for chip in chips:
            r = chip_box(chip)
            assert 0 <= r.x1 <= r.x2 <= size.width
            assert 0 <= r.y1 <= r.y2 <= size.height
            # canvas narrower than K: clipped along x, full K along y
            assert r.width == 400 and r.height == 512

    def test_oversized_valid_gt_goes_to_diagnostics(self):
        gts = [Gt(square(600, x=0, y=0), class_id=1)]
        chips, diag = select_one(gts, [flat_spec(K=512, d=32)], ImageSize(800, 800))
        assert len(chips) == 0
        assert diag.gt_ids.tolist() == [0] and diag.scale_ids.tolist() == [0]
        assert diag.image_ids.tolist() == [0]
        assert diag.resized_boxes.tolist() == [[0, 0, 600, 600]]

    def test_crowd_boxes_not_covered_but_attached(self):
        gts = [
            Gt(square(700), class_id=1, is_crowd=True),
            Gt(square(40, x=650, y=650), class_id=2),
        ]
        chips, diag = select_one(gts, [flat_spec()], ImageSize(800, 800))
        assert not len(diag)
        assert len(chips) == 1
        # the crowd box is still recorded as cropped content of the chip
        assert chips[0].covered_gt_ids == (1,)
        assert [gt_id for gt_id, _ in chips[0].cropped_gt] == [0]

    def test_cropped_gt_is_intersection(self):
        gts = [
            Gt(square(40, x=100, y=100), class_id=1),
            Gt(BoundingBox(400, 100, 900, 200), class_id=2),
        ]
        chips, _ = select_one(gts, [flat_spec()], ImageSize(1000, 600))
        chip = chips[0]
        assert chip.cropped_gt
        for gt_id, cropped in chip.cropped_gt:
            # in the frame of the level, like the chip, not chip-local
            assert chip_box(chip).intersection(gts[gt_id].box) == BoundingBox(*cropped)

    def test_rescaling_between_frames(self):
        # a 40-px box at 3x becomes 120 px and must be covered in the resized frame
        spec = ScaleSpec(scale_id=2, target=3.0, valid_range=(0.0, math.inf),
                         chip_size=256, chip_stride=32)
        gts = [Gt(square(40, x=100, y=50), class_id=1)]
        chips, _ = select_one(gts, [spec], ImageSize(400, 300))
        assert len(chips) == 1
        assert encloses_oracle(chip_box(chips[0]), BoundingBox(300, 150, 420, 270))

    def test_determinism(self):
        rng = np.random.default_rng(1)
        gts = [
            Gt(square(float(rng.uniform(10, 80)),
                      float(rng.uniform(0, 500)),
                      float(rng.uniform(0, 500))), class_id=1)
            for _ in range(12)
        ]
        first, _ = select_one(gts, [flat_spec()], ImageSize(640, 640))
        second, _ = select_one(gts, [flat_spec()], ImageSize(640, 640))
        assert len(first) and list(first) == list(second)


def negative_one(proposals, gts, pyramid, size, **kwargs):
    """:func:`select_negative_chips` on one image, id 0, from its ``Gt`` rows."""
    return negative_chips([gts], [proposals], pyramid, [size], [0], **kwargs)


class TestSelectNegativeChips:
    def test_all_proposals_inside_positives(self):
        # One box makes the positive chip (0, 0, 512, 512), the whole canvas.
        gts = [Gt(square(30, x=200, y=200), class_id=1)]
        proposals = ProposalSet(
            boxes=boxes_array([square(30, x=10, y=10), square(40, x=100, y=100)]),
            scores=[0.9, 0.8],
        )
        pool = negative_one(proposals, gts, [flat_spec()], ImageSize(512, 512), min_proposals=1)
        assert len(pool) == 0
        assert len(negative_one(proposals, [], [flat_spec()], ImageSize(512, 512),
                                min_proposals=1)) == 1

    def test_cluster_covered_by_one_chip(self):
        proposals = ProposalSet(
            boxes=boxes_array([square(20, x=700, y=700), square(20, x=750, y=700),
                               square(20, x=700, y=760)]),
            scores=[0.5, 0.5, 0.5],
        )
        pool = negative_one(proposals, [], [flat_spec()], ImageSize(1600, 1600), min_proposals=2)
        assert len(pool) == 1
        assert pool[0].kind == "negative"

    def test_far_singletons_below_threshold(self):
        proposals = ProposalSet(
            boxes=boxes_array([square(20, x=10, y=10), square(20, x=1500, y=1500)]),
            scores=[0.5, 0.5],
        )
        pool = negative_one(proposals, [], [flat_spec()], ImageSize(2100, 2100), min_proposals=2)
        assert len(pool) == 0

    def test_selected_chips_cover_enough_eligible_proposals(self):
        rng = np.random.default_rng(17)
        spec = flat_spec(K=256, d=64)
        size = ImageSize(1200, 1200)
        boxes = []
        for _ in range(40):
            side = float(rng.uniform(10, 80))
            x = float(rng.uniform(0, size.width - side))
            y = float(rng.uniform(0, size.height - side))
            boxes.append(square(side, x, y))
        proposals = ProposalSet(boxes=boxes_array(boxes), scores=[0.5] * len(boxes))
        gts = [Gt(square(60, x=50, y=50), class_id=1)]
        positives, _ = select_one(gts, [spec], size)
        pool = negative_one(proposals, gts, [spec], size, min_proposals=3)
        assert len(pool)
        eligible = [
            b for b in boxes
            if is_valid(b, spec)
            and not any(encloses_oracle(chip_box(p), b) for p in positives)
        ]
        for chip in pool:
            x1, y1, x2, y2 = chip.rect
            n_inside = sum(
                1 for b in eligible
                if x1 <= (b.x1 + b.x2) / 2 <= x2 and y1 <= (b.y1 + b.y2) / 2 <= y2
            )
            assert n_inside >= 3

    def test_out_of_range_proposals_not_counted(self):
        spec = flat_spec(r=(0.0, 30.0**2))
        proposals = ProposalSet(
            boxes=boxes_array([square(100, x=10, y=10), square(100, x=60, y=60)]),
            scores=[0.5, 0.5],
        )
        pool = negative_one(proposals, [], [spec], ImageSize(1000, 1000), min_proposals=2)
        assert len(pool) == 0

    @pytest.mark.parametrize("block", range(4))
    def test_matches_per_proposal_oracle(self, block):
        # Per seed: every image of the case in one whole-run call against the
        # oracle image by image, its positives being the positive cover; and
        # each image's level covers against arbitrary positive rects.
        for seed in range(block * 100, block * 100 + 100):
            pyramid, images = _negative_case(seed)
            membership = ("center", "enclose")[seed % 2]
            min_proposals = 1 + seed // 2 % 3
            image_ids = [30 - 7 * k for k in range(len(images))]  # not sorted
            sizes = [original for original, _, _, _ in images]
            scenes = [gt_set(gts) for _, _, gts, _ in images]
            pool = negative_chips(
                scenes,
                [ProposalSet(boxes=boxes_array(b), scores=[0.5] * len(b)) for _, b, _, _ in images],
                pyramid, sizes, image_ids, min_proposals=min_proposals, membership=membership,
            )
            positives, _ = positive_chips(scenes, pyramid, sizes, image_ids)
            assert pool.kind == "negative"
            want = []
            for image_id, (original, boxes, _, positive) in zip(image_ids, images):
                mine = [(c.scale_id, chip_box(c)) for c in positives if c.image_id == image_id]
                want += [(image_id, *chip) for chip in select_negative_chips_oracle(
                    boxes, mine, pyramid, original, min_proposals, membership
                )]
                expected = select_negative_chips_oracle(
                    boxes, positive, pyramid, original, min_proposals, membership
                )
                got = []
                for spec in pyramid:
                    rects = np.array([r.as_tuple() for scale_id, r in positive
                                      if scale_id == spec.scale_id]).reshape(-1, 4)
                    _, cells = negative_cover(
                        boxes_array(boxes), np.array([0, len(boxes)]), size_array([original]), spec,
                        (np.zeros(len(rects), dtype=np.intp), rects), min_proposals, membership,
                    )
                    got += [(spec.scale_id, tuple(r)) for r in cells.tolist()]
                assert got == expected, seed
            assert [(c.image_id, c.scale_id, c.rect) for c in pool] == want, seed


def _negative_case(seed):
    """A seeded pyramid and one to three images for the oracle, each with
    its size, proposals, ground truth and arbitrary positive rects.

    Boxes sit on a 4-px grid of the original frame, so under the factors 0.5,
    1 and 2 their corners and centers land on chip borders and the canvas
    edge, and squares of side r/f have resized areas exactly at the range
    endpoints r^2. Zero-width and zero-height boxes and free floats are
    mixed in; the other targets give factors that are not powers of two.
    Positive rects are lattice cells or free rects, some at a scale id the
    pyramid does not have.
    """
    rng = random.Random(seed)
    size = rng.choice([32, 48, 64])
    stride = rng.choice([8, 16, size])
    r_lo, r_hi = rng.choice([(4, 24), (8, 32), (0, 16), (12, 12.5)])
    targets = [1.0, 0.5, 2.0, 0.75, ImageSize(100, 70), MaxSideTarget(150)]
    pyramid = [
        ScaleSpec(
            scale_id=scale_id,
            target=target,
            valid_range=(r_lo**2, r_hi**2 if rng.random() < 0.8 else math.inf),
            chip_size=size,
            chip_stride=stride,
            absorb_below=rng.random() < 0.2,
            absorb_above=rng.random() < 0.2,
        )
        for scale_id, target in enumerate(
            rng.sample(targets[:3], 1) + rng.sample(targets, rng.randint(0, 2))
        )
    ]

    def grid_box(w, h):
        kind = rng.choice(["grid", "grid", "edge", "endpoint", "zero", "float"])
        x1, y1 = rng.randrange(0, w + 1, 4), rng.randrange(0, h + 1, 4)
        bw, bh = rng.randrange(0, 48, 4), rng.randrange(0, 48, 4)
        if kind == "edge":
            x1 = rng.choice([0, max(0, w - bw)])
            y1 = rng.choice([0, max(0, h - bh)])
        elif kind == "endpoint":
            factor = rng.choice([1.0, 0.5, 2.0])
            bw = bh = rng.choice([r_lo, r_hi]) / factor
        elif kind == "zero":
            bw, bh = rng.choice([(0, bh), (bw, 0), (0, 0)])
        elif kind == "float":
            x1, y1 = rng.uniform(0, w), rng.uniform(0, h)
            bw, bh = rng.uniform(0, 40), rng.uniform(0, 40)
        return BoundingBox(x1, y1, min(x1 + bw, w), min(y1 + bh, h))

    images = []
    for _ in range(rng.randint(1, 3)):
        original = ImageSize(rng.choice([64, 96, 128, 160]), rng.choice([64, 96, 120, 160]))
        w, h = original.width, original.height
        boxes = [grid_box(w, h) for _ in range(rng.randint(0, 40))]
        gts = [Gt(grid_box(w, h), class_id=1, is_crowd=rng.random() < 0.2)
               for _ in range(rng.randint(0, 4))]
        positive = []
        for spec in pyramid + [ScaleSpec(scale_id=9, target=1.0)]:
            canvas = resolve_oracle(spec, original)
            cells = chip_grid_oracle(canvas.width, canvas.height, spec.chip_size,
                                     spec.chip_stride)
            for _ in range(rng.randint(0, 2)):
                if rng.random() < 0.7:
                    rect = BoundingBox(*rng.choice(cells))
                else:
                    x, y = rng.randrange(0, canvas.width, 4), rng.randrange(0, canvas.height, 4)
                    rect = BoundingBox(x, y, x + rng.randrange(8, 80, 4),
                                       y + rng.randrange(8, 80, 4))
                positive.append((spec.scale_id, rect))
        images.append((original, boxes, gts, positive))
    return pyramid, images


class TestProposalSet:
    def test_boxes_become_an_array(self):
        proposals = ProposalSet(boxes=[[0, 0, 10, 10], [2, 0, 6, 4]], scores=[0.5, 1])
        assert proposals.boxes.dtype == np.float64
        assert proposals.boxes.tolist() == [[0, 0, 10, 10], [2, 0, 6, 4]]
        assert proposals.scores.tolist() == [0.5, 1.0]

    @pytest.mark.parametrize(
        "boxes, scores",
        [([[0, 0, 1, 1]], [1.5]), ([[0, 0, 1, 1]], [float("nan")]),
         ([[2, 0, 1, 1]], [0.5]), ([[0, 0, 1, 1]], [0.5, 0.5]), ([[0, 0, 1]], [0.5])],
        ids=["score-above-1", "nan-score", "corners-out-of-order", "length-mismatch",
             "three-columns"],
    )
    def test_rejects(self, boxes, scores):
        with pytest.raises(ValueError):
            ProposalSet(boxes=np.array(boxes, dtype=float), scores=scores)


def negative_pool(counts: dict) -> ChipBatch:
    """A pool of ``counts[image_id]`` chips per image, in that order; chip k
    of an image has x1 = 32 k."""
    image_ids = np.repeat(list(counts), list(counts.values())).astype(np.int64)
    x = np.concatenate([np.zeros(0)] + [32.0 * np.arange(n) for n in counts.values()])
    rects = np.stack([x, 0 * x, x + 512, 0 * x + 512], axis=1)
    return ChipBatch(image_ids, np.zeros(len(x), dtype=np.int64), rects, "negative")


class TestSampleNegativeChips:
    def test_empty_pool(self):
        assert len(sample_negative_chips(negative_pool({}), 2, seed=0)) == 0

    def test_small_pool_returned_whole(self):
        pool = negative_pool({4: 2, 9: 5})
        assert list(sample_negative_chips(pool, 5, seed=3)) == list(pool)

    def test_determinism(self):
        pool = negative_pool({0: 5})
        a = sample_negative_chips(pool, 2, seed=123)
        b = sample_negative_chips(pool, 2, seed=123)
        assert list(a) == list(b) and len(a) == 2

    def test_matches_a_sample_of_each_image_rows(self):
        counts = {12: 7, 3: 2, 40: 30, 5: 3, 6: 0, 1: 9}
        pool = negative_pool(counts)
        rows = list(pool)
        for seed, k in [(0, 2), (17, 3), (5, 0), (9, 30)]:
            want = []
            for image_id in counts:
                mine = [row for row in rows if row.image_id == image_id]
                if len(mine) > k:
                    mine = random.Random(seed + image_id).sample(mine, k)
                want += mine
            assert list(sample_negative_chips(pool, k, seed=seed)) == want

    def test_uniform_within_3_sigma(self):
        # Image i draws with seed i: 10^5 independent draws in one call.
        draws = 100_000
        sampled = sample_negative_chips(negative_pool(dict.fromkeys(range(draws), 5)), 2, seed=0)
        counts = Counter(sampled.rects[:, 0].tolist())
        p = 2 / 5
        sigma = math.sqrt(draws * p * (1 - p))
        for i in range(5):
            assert abs(counts[32 * i] - draws * p) < 3 * sigma


class TestExcerptChipStatistics:
    def test_greedy_matches_frozen_reference_on_excerpt(self, excerpt_index):
        import json

        from pyrsample.config import coco_default
        from conftest import REFERENCE_PATH

        ref = json.loads(REFERENCE_PATH.read_text())["positive_chips"]
        pyramid = coco_default().pyramid
        index = excerpt_index
        image_ids = index.image_ids
        assert image_ids.tolist() == sorted(image_ids.tolist())
        chips, diag = select_positive_chips(
            index.gt_set, index.gt_offsets, pyramid, index.sizes, image_ids
        )
        mean = len(chips) / len(image_ids)
        assert mean == pytest.approx(ref["mean_per_image"], abs=1e-12)
        assert len(diag) == ref["n_uncoverable"]
        # with the default two sampled negatives this lands in the usual
        # handful-of-chips-per-image regime
        assert 1.0 <= mean <= 8.0


class TestAssignChipLabels:
    """Chip-local labeling: proposals and the ground truth retained in a
    512-px chip, in chip coordinates, go through ``assign_roi_labels``."""

    SPEC = ScaleSpec(scale_id=0, target=1.0, valid_range=(32.0**2, 150.0**2),
                     chip_size=512, chip_stride=32)

    def labels(self, rois, gts):
        labels, class_ids = assign_roi_labels(boxes_array(rois), gt_set(gts), self.SPEC)
        return list(zip(labels.tolist(), class_ids.tolist()))

    def test_cropped_gt_validates_small_proposal(self):
        # fragment of a large box, cropped to the chip: proposals matching it win
        cropped = Gt(BoundingBox(400, 0, 512, 120), class_id=6)
        proposal = BoundingBox(400, 0, 512, 100)  # IoU 100/120 > 0.5, area in range
        assert self.labels([proposal], [cropped]) == [(1, 6)]

    def test_out_of_range_proposal_ignored(self):
        assert self.labels([square(200)], []) == [(-1, -1)]

    def test_low_iou_background(self):
        gt = Gt(square(60, x=400, y=400), class_id=2)
        assert self.labels([square(60)], [gt]) == [(0, -1)]


# Cover-kernel cases: a level of side-K chips at stride d (which need not
# divide E - K) over a batch of small canvases, some at or below K. Corners
# sit on lattice lines, one ulp either side of them, on the canvas edge or
# anywhere, in the canvas frame; the target factor is a power of two, so the
# rescale back from the original frame is exact.
@st.composite
def cover_case(draw):
    K = draw(st.sampled_from([16, 24, 32]))
    d = draw(st.sampled_from([4, 8, 12, K]))
    factor = draw(st.sampled_from([1.0, 2.0, 0.5]))
    spec = ScaleSpec(scale_id=0, target=factor, valid_range=(0.0, math.inf),
                     chip_size=K, chip_stride=d)
    images = []
    for _ in range(draw(st.integers(1, 4))):
        w, h = (int(draw(st.integers(4, 80)) / factor) for _ in range(2))
        canvas = resolve_oracle(spec, ImageSize(w, h))

        def coord(extent):
            lines = sorted({0, extent, max(extent - K, 0), *range(0, extent + 1, d),
                            *range(K, extent + 1, d)})
            v = float(draw(st.sampled_from(lines)))
            kind = draw(st.sampled_from(["line", "below", "above", "free"]))
            if kind == "free":
                return draw(st.floats(0.0, float(extent)))
            return float(np.nextafter(v, {"line": v, "below": -1.0, "above": 1e9}[kind]))

        boxes = []
        for _ in range(draw(st.integers(0, 10))):
            xs = sorted(coord(canvas.width) for _ in range(2))
            ys = sorted(coord(canvas.height) for _ in range(2))
            boxes.append([xs[0] / factor, ys[0] / factor, xs[1] / factor, ys[1] / factor])
        crowd = [draw(st.sampled_from([False, False, False, True])) for _ in boxes]
        cells = chip_grid_oracle(canvas.width, canvas.height, K, d)
        positive = draw(st.lists(st.sampled_from(cells), max_size=2))
        images.append((ImageSize(w, h), np.array(boxes).reshape(-1, 4), crowd, positive))
    return spec, images


class TestCoverKernel:
    """The batched cover against the per-image oracles."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cover_case())
    def test_cell_ranges_match_enumerated_lattice(self, case):
        spec, images = case
        for size, boxes, _, _ in images:
            canvas = resolve_oracle(spec, size)
            resized = boxes * ((canvas.width / size.width, canvas.height / size.height) * 2)
            cells = np.array(chip_grid_oracle(canvas.width, canvas.height, spec.chip_size,
                                              spec.chip_stride), dtype=float)
            n_cols = len({c[0] for c in cells.tolist()})
            wh = np.tile([canvas.width, canvas.height], (len(resized), 1)).astype(float)
            for membership in ("enclose", "center"):
                first, last = _cell_ranges(resized, wh, spec, membership)
                if membership == "center":
                    lo = hi = (resized[:, :2] + resized[:, 2:]) / 2.0
                else:
                    lo, hi = resized[:, :2], resized[:, 2:]
                for b in range(len(resized)):
                    member = (cells[:, :2] <= lo[b]).all(1) & (cells[:, 2:] >= hi[b]).all(1)
                    rows, cols = np.divmod(np.flatnonzero(member), n_cols)
                    want = set(zip(rows.tolist(), cols.tolist()))
                    got = {(r, c) for r in range(first[b, 0], last[b, 0] + 1)
                           for c in range(first[b, 1], last[b, 1] + 1)}
                    assert got == want

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cover_case())
    def test_positive_cover_matches_greedy_oracle(self, case):
        spec, images = case
        boxes, offsets = box_columns([b for _, b, _, _ in images])
        crowd = np.concatenate([np.zeros(0, dtype=bool),
                                *(np.array(c, dtype=bool) for _, _, c, _ in images)])
        image, cells = positive_cover(
            GroundTruthSet(boxes, np.zeros(len(boxes), dtype=np.int64), crowd), offsets,
            size_array([size for size, _, _, _ in images]), spec,
        )
        assert np.array_equal(image, np.sort(image))
        for k, (size, boxes, crowd, _) in enumerate(images):
            rects = cells[image == k]
            canvas = resolve_oracle(spec, size)
            grid = [BoundingBox(*cell) for cell in chip_grid_oracle(
                canvas.width, canvas.height, spec.chip_size, spec.chip_stride)]
            resized = [rescale_box(BoundingBox(*b), size, canvas) for b in boxes.tolist()]
            targets = [box for box, is_crowd in zip(resized, crowd)
                       if is_valid(box, spec) and not is_crowd]
            picked, _ = greedy_cover_oracle(grid, targets)
            assert [tuple(r) for r in rects.tolist()] == [grid[i].as_tuple() for i in picked]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cover_case(), st.sampled_from(["center", "enclose"]), st.integers(1, 3))
    def test_negative_cover_matches_oracle(self, case, membership, min_gain):
        spec, images = case
        positives = [np.array(p, dtype=float).reshape(-1, 4) for _, _, _, p in images]
        owners = np.repeat(np.arange(len(images)), [len(p) for p in positives])
        image, cells = negative_cover(
            *box_columns([b for _, b, _, _ in images]),
            size_array([size for size, _, _, _ in images]), spec,
            (owners, np.concatenate(positives)), min_proposals=min_gain, membership=membership,
        )
        assert np.array_equal(image, np.sort(image))
        for k, (size, boxes, _, positive) in enumerate(images):
            rects = cells[image == k]
            want = select_negative_chips_oracle(
                [BoundingBox(*b) for b in boxes.tolist()],
                [(spec.scale_id, BoundingBox(*p)) for p in positive],
                [spec], size, min_gain, membership)
            assert [(spec.scale_id, tuple(r)) for r in rects.tolist()] == want

    def test_rect_counts_match_per_cell_counts(self):
        # Empty rectangle lists, 1 x 1 grids, empty rectangles, rectangles
        # that reach the far row or column edge, and many images at once.
        rng = np.random.default_rng(17)
        shapes = [(1, 1, 1), (3, 1, 1), (1, 1, 9), (1, 7, 1), (1, 5, 6), (60, 4, 3), (9, 12, 15)]
        for trial in range(120):
            n, rows, cols = shapes[trial % len(shapes)]
            m = [0, 1, 2, 40][trial % 4]
            img = rng.integers(0, n, m)
            r = np.sort(rng.integers(0, rows + 1, (m, 2)), axis=1)
            c = np.sort(rng.integers(0, cols + 1, (m, 2)), axis=1)
            far = rng.random(m) < 0.3
            r[far, 1], c[far, 1] = rows, cols
            want = np.zeros((n, rows, cols), dtype=np.int64)
            for i, r0, r1, c0, c1 in zip(img, r[:, 0], r[:, 1], c[:, 0], c[:, 1]):
                for row in range(r0, r1):
                    for col in range(c0, c1):
                        want[i, row, col] += 1
            got = _rect_counts(img, r[:, 0], r[:, 1], c[:, 0], c[:, 1], (n, rows, cols))
            assert got.dtype == np.int32 and got.shape == (n, rows, cols)
            assert got.tolist() == want.tolist(), trial

    def test_enclosure_filter_drops_what_attach_gt_encloses(self):
        # negative_cover drops the proposals a positive chip encloses by four
        # comparisons; the clip-and-compare ``inside`` of _attach_gt is the
        # reference. Canvases narrower than a chip clip it at the edge, many
        # proposals are flush with a chip edge, and zeros come in both signs.
        rng = np.random.default_rng(13)
        spec = flat_spec(K=64, d=16)
        dropped = kept = 0
        for _ in range(200):
            n_images = int(rng.integers(1, 5))
            canvas = rng.integers(24, 160, size=(n_images, 2)).astype(float)
            image = np.repeat(np.arange(n_images), rng.integers(0, 4, n_images))
            rects = _cell_rects(rng.integers(0, 8, len(image)), rng.integers(0, 8, len(image)),
                                canvas[image], spec)
            owners = np.repeat(np.arange(n_images), rng.integers(0, 12, n_images))
            corners = rng.integers(0, 161, size=(len(owners), 2, 2)).astype(float)
            boxes = np.concatenate([corners.min(axis=1), corners.max(axis=1)], axis=1)
            # Proposals that copy a chip of their image, or a chip with some
            # corners moved in or out by a pixel.
            for k in np.flatnonzero(rng.random(len(owners)) < 0.5):
                mine = rects[image == owners[k]]
                if len(mine):
                    boxes[k] = mine[rng.integers(len(mine))] + rng.integers(-1, 2, 4) * (
                        rng.random(4) < 0.3
                    )
            for a in (rects, boxes):
                a[(a == 0) & (rng.random(a.shape) < 0.5)] = -0.0
            _, box, inside, _ = _attach_gt(rects, image, boxes, owners)
            want = np.zeros(len(boxes), dtype=bool)
            want[box[inside]] = True
            assert np.array_equal(_enclosed(rects, image, boxes, owners), want)
            dropped, kept = dropped + want.sum(), kept + (~want).sum()
        assert dropped > 100 and kept > 100

    def test_one_image_calls_match_the_batch(self):
        rng = np.random.default_rng(8)
        pyramid = [flat_spec(K=64, d=24), flat_spec(scale_id=1, K=32, d=8, r=(0.0, 900.0))]
        sizes = [ImageSize(200, 150), ImageSize(64, 40), ImageSize(300, 90), ImageSize(90, 90)]
        gts = [gt_set([Gt(square(float(rng.uniform(4, 60)), float(rng.uniform(0, 140)),
                                 float(rng.uniform(0, 30))), class_id=1)
                       for _ in range(6)]) for _ in sizes]
        image_ids = [50, 7, 8, 1]
        chips, diagnostics = positive_chips(gts, pyramid, sizes, image_ids)
        assert len(chips) > len(sizes) and len(diagnostics)
        # The batch is the one-image batches one after another, in input order.
        alone = [positive_chips([image], pyramid, [size], [image_id])
                 for image, size, image_id in zip(gts, sizes, image_ids)]
        assert list(chips) == [row for batch, _ in alone for row in batch]
        for column in ("image_ids", "gt_ids", "scale_ids", "resized_boxes"):
            want = np.concatenate([getattr(missed, column) for _, missed in alone])
            assert np.array_equal(getattr(diagnostics, column), want)

    def test_blocks_do_not_change_the_cover(self, monkeypatch):
        # Many images of different grids, covered in one block and with
        # every image in a block of its own.
        rng = np.random.default_rng(21)
        spec = flat_spec(K=64, d=16)
        sizes = [ImageSize(int(rng.integers(30, 400)), int(rng.integers(30, 400)))
                 for _ in range(40)]
        boxes = []
        for size in sizes:
            xy = rng.uniform(0, [size.width, size.height], size=(int(rng.integers(0, 30)), 2))
            boxes.append(np.concatenate([xy, xy + rng.uniform(0, 40, size=xy.shape)], axis=1))
        none = (np.zeros(0, dtype=np.intp), np.zeros((0, 4)))
        columns = (*box_columns(boxes), size_array(sizes), spec, none)
        together = negative_cover(*columns, min_proposals=2)
        monkeypatch.setattr(chips, "_COVER_BLOCK", 1)
        alone = negative_cover(*columns, min_proposals=2)
        assert len(together[0]) > 40
        assert all(np.array_equal(a, b) for a, b in zip(together, alone))
