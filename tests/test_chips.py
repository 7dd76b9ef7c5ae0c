import math
import random
from collections import Counter

import numpy as np
import pytest

from pyrsample.chips import (
    Chip,
    ProposalSet,
    _lattice,
    sample_negative_chips,
    select_negative_chips,
    select_positive_chips,
)
from pyrsample.geometry import (
    BoundingBox,
    GroundTruthInstance,
    ImageSize,
    MaxSideTarget,
    ScaleSpec,
    encloses,
    rescale_box,
)
from pyrsample.range_labels import RoiLabel, assign_roi_labels, classify_box_validity

from oracles import (
    attach_gt_oracle,
    chip_grid_oracle,
    encloses_oracle,
    greedy_cover_oracle,
    select_negative_chips_oracle,
)


def square(side, x=0.0, y=0.0):
    return BoundingBox(x, y, x + side, y + side)


def flat_spec(scale_id=0, K=512, d=32, r=(0.0, math.inf)):
    return ScaleSpec(scale_id=scale_id, target=1.0, valid_range=r, chip_size=K, chip_stride=d)


def lattice_cells(w, h, K, d):
    """The lattice cells of a w x h canvas for chips of side K at stride d."""
    cells, _ = _lattice(ImageSize(w, h), flat_spec(K=K, d=d), np.zeros((0, 4)), "center")
    return [tuple(cell) for cell in cells.tolist()]


def grid_oracle(size, spec):
    """The lattice of :func:`chip_grid_oracle` as boxes."""
    rects = chip_grid_oracle(size.width, size.height, spec.chip_size, spec.chip_stride)
    return [BoundingBox(*rect) for rect in rects]


class TestBuildChipGrid:
    """The chip lattice of ``chips._lattice``."""

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
            assert lattice_cells(w, h, K, d) == chip_grid_oracle(w, h, K, d)

    def test_far_edges_covered(self):
        cells = lattice_cells(1000, 700, 512, 32)
        assert max(c[2] for c in cells) == 1000
        assert max(c[3] for c in cells) == 700


class TestSelectPositiveChips:
    def test_single_gt_single_chip(self):
        gts = [GroundTruthInstance(square(50, x=100, y=100), class_id=1)]
        chips, diag = select_positive_chips(gts, [flat_spec()], ImageSize(600, 600))
        assert len(chips) == 1 and not diag
        assert encloses(chips[0].rect, gts[0].box)
        assert chips[0].covered_gt_ids == (0,)

    def test_greedy_prefers_pair(self):
        # two boxes coverable together, one far away: greedy takes the pair first
        gts = [
            GroundTruthInstance(square(40, x=10, y=10), class_id=1),
            GroundTruthInstance(square(40, x=300, y=300), class_id=1),
            GroundTruthInstance(square(40, x=1200, y=10), class_id=1),
        ]
        chips, diag = select_positive_chips(gts, [flat_spec()], ImageSize(1400, 600))
        assert len(chips) == 2 and not diag
        assert set(chips[0].covered_gt_ids) >= {0, 1}

    def test_every_valid_gt_covered(self):
        rng = np.random.default_rng(5)
        pyramid = [flat_spec(K=256, d=32)]
        for _ in range(30):
            size = ImageSize(int(rng.integers(100, 900)), int(rng.integers(100, 900)))
            gts = []
            for _ in range(rng.integers(1, 12)):
                side = float(rng.uniform(4, 200))
                x = float(rng.uniform(0, max(1, size.width - side)))
                y = float(rng.uniform(0, max(1, size.height - side)))
                gts.append(GroundTruthInstance(square(side, x, y), class_id=1))
            chips, diag = select_positive_chips(gts, pyramid, size)
            flagged = {d.gt_id for d in diag}
            for gt_id, gt in enumerate(gts):
                if classify_box_validity(gt.box, pyramid[0]):
                    covered = any(
                        encloses(c.rect, gt.box) for c in chips
                    )
                    assert covered or gt_id in flagged

    def test_attached_gt_matches_per_pair_oracle(self):
        rng = np.random.default_rng(31)
        pyramid = [
            flat_spec(K=128, d=32),
            ScaleSpec(scale_id=1, target=0.5, chip_size=64, chip_stride=16),
        ]
        for _ in range(40):
            size = ImageSize(int(rng.integers(60, 500)), int(rng.integers(60, 500)))
            gts = []
            for _ in range(rng.integers(1, 12)):
                # Corners on the chip lattice, zero sides and boxes past the
                # canvas edge give boundary contact and empty overlaps.
                x = float(rng.choice([32.0 * rng.integers(0, 8), rng.uniform(0, size.width)]))
                y = float(rng.choice([32.0 * rng.integers(0, 8), rng.uniform(0, size.height)]))
                w = float(rng.choice([0.0, 32.0, 64.0, rng.uniform(1, 150)]))
                h = float(rng.choice([0.0, w, rng.uniform(1, 150)]))
                gts.append(GroundTruthInstance(BoundingBox(x, y, x + w, y + h), class_id=1,
                                               is_crowd=bool(rng.random() < 0.2)))
            chips, _ = select_positive_chips(gts, pyramid, size)
            for chip in chips:
                canvas = pyramid[chip.scale_id].resolve(size)
                resized = [rescale_box(g.box, size, canvas) for g in gts]
                want = attach_gt_oracle(chip.rect, resized)
                assert (chip.covered_gt_ids, chip.cropped_gt) == want

    def test_matches_greedy_simulation_oracle(self):
        rng = np.random.default_rng(99)
        spec = flat_spec(K=128, d=64)
        for _ in range(40):
            size = ImageSize(int(rng.integers(100, 500)), int(rng.integers(100, 500)))
            gts = []
            for _ in range(rng.integers(1, 9)):
                side = float(rng.uniform(4, 100))
                x = float(rng.uniform(0, max(1, size.width - side)))
                y = float(rng.uniform(0, max(1, size.height - side)))
                gts.append(GroundTruthInstance(square(side, x, y), class_id=1))
            chips, diag = select_positive_chips(gts, [spec], size)
            grid = grid_oracle(size, spec)
            picked, uncovered = greedy_cover_oracle(grid, [g.box for g in gts])
            assert [c.rect for c in chips] == [grid[i] for i in picked]
            assert sorted(d.gt_id for d in diag) == uncovered

    def test_greedy_step_optimality(self):
        rng = np.random.default_rng(123)
        spec = flat_spec(K=128, d=32)
        size = ImageSize(400, 400)
        gts = []
        for _ in range(10):
            side = float(rng.uniform(4, 100))
            x = float(rng.uniform(0, size.width - side))
            y = float(rng.uniform(0, size.height - side))
            gts.append(GroundTruthInstance(square(side, x, y), class_id=1))
        chips, _ = select_positive_chips(gts, [spec], size)
        remaining = set(range(len(gts)))
        available = [tuple(c.as_tuple()) for c in grid_oracle(size, spec)]
        for chip in chips:
            gain = sum(1 for t in remaining if encloses(chip.rect, gts[t].box))
            best_other = max(
                sum(1 for t in remaining if encloses_oracle(BoundingBox(*cell), gts[t].box))
                for cell in available
            )
            assert gain == best_other
            remaining -= {t for t in remaining if encloses(chip.rect, gts[t].box)}
            available.remove(tuple(chip.rect.as_tuple()))

    def test_chip_shape_and_bounds(self):
        gts = [GroundTruthInstance(square(30, x=10, y=10), class_id=1)]
        size = ImageSize(400, 900)
        chips, _ = select_positive_chips(gts, [flat_spec(K=512, d=32)], ImageSize(400, 900))
        for chip in chips:
            r = chip.rect
            assert 0 <= r.x1 <= r.x2 <= size.width
            assert 0 <= r.y1 <= r.y2 <= size.height
            # canvas narrower than K: clipped along x, full K along y
            assert r.width == 400 and r.height == 512

    def test_oversized_valid_gt_goes_to_diagnostics(self):
        gts = [GroundTruthInstance(square(600, x=0, y=0), class_id=1)]
        chips, diag = select_positive_chips(gts, [flat_spec(K=512, d=32)], ImageSize(800, 800))
        assert chips == []
        assert len(diag) == 1 and diag[0].gt_id == 0 and diag[0].scale_id == 0

    def test_crowd_boxes_not_covered_but_attached(self):
        gts = [
            GroundTruthInstance(square(700), class_id=1, is_crowd=True),
            GroundTruthInstance(square(40, x=650, y=650), class_id=2),
        ]
        chips, diag = select_positive_chips(gts, [flat_spec()], ImageSize(800, 800))
        assert not diag
        assert len(chips) == 1
        # the crowd box is still recorded as cropped content of the chip
        assert chips[0].covered_gt_ids == (1,)
        assert [gt_id for gt_id, _ in chips[0].cropped_gt] == [0]

    def test_cropped_gt_is_intersection(self):
        gts = [
            GroundTruthInstance(square(40, x=100, y=100), class_id=1),
            GroundTruthInstance(BoundingBox(400, 100, 900, 200), class_id=2),
        ]
        chips, _ = select_positive_chips(gts, [flat_spec()], ImageSize(1000, 600))
        chip = chips[0]
        for gt_id, cropped in chip.cropped_gt:
            inter = chip.rect.intersection(gts[gt_id].box)
            assert inter == cropped

    def test_rescaling_between_frames(self):
        # a 40-px box at 3x becomes 120 px and must be covered in the resized frame
        spec = ScaleSpec(scale_id=2, target=3.0, valid_range=(0.0, math.inf),
                         chip_size=256, chip_stride=32)
        gts = [GroundTruthInstance(square(40, x=100, y=50), class_id=1)]
        chips, _ = select_positive_chips(gts, [spec], ImageSize(400, 300))
        assert len(chips) == 1
        assert encloses(chips[0].rect, BoundingBox(300, 150, 420, 270))

    def test_determinism(self):
        rng = np.random.default_rng(1)
        gts = [
            GroundTruthInstance(square(float(rng.uniform(10, 80)),
                                       float(rng.uniform(0, 500)),
                                       float(rng.uniform(0, 500))), class_id=1)
            for _ in range(12)
        ]
        first = select_positive_chips(gts, [flat_spec()], ImageSize(640, 640))
        second = select_positive_chips(gts, [flat_spec()], ImageSize(640, 640))
        assert first == second


class TestSelectNegativeChips:
    def test_all_proposals_inside_positives(self):
        positives = [Chip(rect=BoundingBox(0, 0, 512, 512), scale_id=0)]
        proposals = ProposalSet(
            boxes=[square(30, x=10, y=10), square(40, x=100, y=100)], scores=[0.9, 0.8]
        )
        pool = select_negative_chips(
            proposals, positives, [flat_spec()], ImageSize(512, 512), min_proposals=1
        )
        assert pool == []

    def test_cluster_covered_by_one_chip(self):
        proposals = ProposalSet(
            boxes=[square(20, x=700, y=700), square(20, x=750, y=700),
                   square(20, x=700, y=760)],
            scores=[0.5, 0.5, 0.5],
        )
        pool = select_negative_chips(
            proposals, [], [flat_spec()], ImageSize(1600, 1600), min_proposals=2
        )
        assert len(pool) == 1
        assert pool[0].kind == "negative"

    def test_far_singletons_below_threshold(self):
        proposals = ProposalSet(
            boxes=[square(20, x=10, y=10), square(20, x=1500, y=1500)],
            scores=[0.5, 0.5],
        )
        pool = select_negative_chips(
            proposals, [], [flat_spec()], ImageSize(2100, 2100), min_proposals=2
        )
        assert pool == []

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
        proposals = ProposalSet(boxes=boxes, scores=[0.5] * len(boxes))
        gts = [GroundTruthInstance(square(60, x=50, y=50), class_id=1)]
        positives, _ = select_positive_chips(gts, [spec], size)
        pool = select_negative_chips(
            proposals, positives, [spec], size, min_proposals=3
        )
        eligible = [
            b for b in boxes
            if classify_box_validity(b, spec)
            and not any(encloses(p.rect, b) for p in positives)
        ]
        for chip in pool:
            n_inside = sum(
                1 for b in eligible
                if chip.rect.x1 <= (b.x1 + b.x2) / 2 <= chip.rect.x2
                and chip.rect.y1 <= (b.y1 + b.y2) / 2 <= chip.rect.y2
            )
            assert n_inside >= 3

    def test_out_of_range_proposals_not_counted(self):
        spec = flat_spec(r=(0.0, 30.0**2))
        proposals = ProposalSet(
            boxes=[square(100, x=10, y=10), square(100, x=60, y=60)], scores=[0.5, 0.5]
        )
        pool = select_negative_chips(
            proposals, [], [spec], ImageSize(1000, 1000), min_proposals=2
        )
        assert pool == []

    @pytest.mark.parametrize("block", range(4))
    def test_matches_per_proposal_oracle(self, block):
        for seed in range(block * 100, block * 100 + 100):
            boxes, positive, pyramid, original = _negative_case(seed)
            membership = ("center", "enclose")[seed % 2]
            min_proposals = 1 + seed // 2 % 3
            proposals = ProposalSet(boxes=boxes, scores=[0.5] * len(boxes))
            pool = select_negative_chips(
                proposals, positive, pyramid, original,
                min_proposals=min_proposals, membership=membership,
            )
            expected = select_negative_chips_oracle(
                boxes, [(c.scale_id, c.rect) for c in positive], pyramid, original,
                min_proposals, membership,
            )
            assert [(c.scale_id, c.rect.as_tuple()) for c in pool] == expected, seed
            assert all(c.kind == "negative" for c in pool)


def _negative_case(seed):
    """A seeded proposal set, pyramid and positive chips for the oracle.

    Boxes sit on a 4-px grid of the original frame, so under the factors 0.5,
    1 and 2 their corners and centers land on chip borders and the canvas
    edge, and squares of side r/f have resized areas exactly at the range
    endpoints r^2. Zero-width and zero-height boxes and free floats are
    mixed in; the other targets give factors that are not powers of two.
    """
    rng = random.Random(seed)
    original = ImageSize(rng.choice([64, 96, 128, 160]), rng.choice([64, 96, 120, 160]))
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
    w, h = original.width, original.height
    boxes = []
    for _ in range(rng.randint(0, 40)):
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
        boxes.append(BoundingBox(x1, y1, min(x1 + bw, w), min(y1 + bh, h)))
    positive = []
    for spec in pyramid + [ScaleSpec(scale_id=9, target=1.0)]:
        canvas = spec.resolve(original)
        cells = chip_grid_oracle(canvas.width, canvas.height, spec.chip_size, spec.chip_stride)
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.7:
                rect = BoundingBox(*rng.choice(cells))
            else:
                x, y = rng.randrange(0, canvas.width, 4), rng.randrange(0, canvas.height, 4)
                rect = BoundingBox(x, y, x + rng.randrange(8, 80, 4), y + rng.randrange(8, 80, 4))
            positive.append(Chip(rect=rect, scale_id=spec.scale_id))
    return boxes, positive, pyramid, original


class TestProposalSet:
    def test_boxes_become_an_array(self):
        proposals = ProposalSet(boxes=[square(10), square(4, x=2)], scores=[0.5, 1])
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


class TestSampleNegativeChips:
    def test_empty_pool(self):
        assert sample_negative_chips([], 2, seed=0) == []

    def test_small_pool_returned_whole(self):
        pool = [Chip(rect=square(512), scale_id=0, kind="negative")] * 2
        assert sample_negative_chips(pool, 5, seed=3) == pool

    def test_determinism(self):
        pool = [
            Chip(rect=square(512, x=32 * i), scale_id=0, kind="negative") for i in range(5)
        ]
        a = sample_negative_chips(pool, 2, seed=123)
        b = sample_negative_chips(pool, 2, seed=123)
        assert a == b and len(a) == 2

    def test_uniform_within_3_sigma(self):
        pool = [
            Chip(rect=square(512, x=32 * i), scale_id=0, kind="negative") for i in range(5)
        ]
        draws = 100_000
        counts = Counter()
        for seed in range(draws):
            for chip in sample_negative_chips(pool, 2, seed=seed):
                counts[chip.rect.x1] += 1
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
        total = 0
        uncoverable = 0
        for iid in excerpt_index.image_ids:
            chips, diag = select_positive_chips(
                excerpt_index.annotations[iid], pyramid, excerpt_index.images[iid].size
            )
            total += len(chips)
            uncoverable += len(diag)
        mean = total / len(excerpt_index.image_ids)
        assert mean == pytest.approx(ref["mean_per_image"], abs=1e-12)
        assert uncoverable == ref["n_uncoverable"]
        # with the default two sampled negatives this lands in the usual
        # handful-of-chips-per-image regime
        assert 1.0 <= mean <= 8.0


class TestAssignChipLabels:
    """Chip-local labeling: proposals and the ground truth retained in a
    512-px chip, in chip coordinates, go through ``assign_roi_labels``."""

    SPEC = ScaleSpec(scale_id=0, target=1.0, valid_range=(32.0**2, 150.0**2),
                     chip_size=512, chip_stride=32)

    def test_cropped_gt_validates_small_proposal(self):
        # fragment of a large box, cropped to the chip: proposals matching it win
        cropped = GroundTruthInstance(BoundingBox(400, 0, 512, 120), class_id=6)
        proposal = BoundingBox(400, 0, 512, 100)  # IoU 100/120 > 0.5, area in range
        labels = assign_roi_labels([proposal], [cropped], self.SPEC)
        assert labels == [RoiLabel.foreground(6)]

    def test_out_of_range_proposal_ignored(self):
        labels = assign_roi_labels([square(200)], [], self.SPEC)
        assert labels == [RoiLabel.ignore()]

    def test_low_iou_background(self):
        gt = GroundTruthInstance(square(60, x=400, y=400), class_id=2)
        labels = assign_roi_labels([square(60)], [gt], self.SPEC)
        assert labels == [RoiLabel.background()]
