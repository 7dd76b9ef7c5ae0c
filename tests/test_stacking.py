import math

import numpy as np
import pytest

from pyrsample.geometry import DetectionRow, ImageSize
from pyrsample.stacking import (
    MergePolicy,
    merge_detections,
    project_to_image,
    prune_boundary_detections,
    suppress,
)

from conftest import detection_batch
from oracles import BoundingBox, hard_nms_oracle, iou_oracle, soft_nms_oracle


def det(x1, y1, x2, y2, score=0.9, class_id=1):
    return DetectionRow((x1, y1, x2, y2), score, class_id)


def batch(*rows):
    return detection_batch(rows)


class TestMergePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            MergePolicy(mode="bogus")
        with pytest.raises(ValueError):
            MergePolicy(iou_threshold=0.0)
        with pytest.raises(ValueError):
            MergePolicy(sigma=0.0)
        with pytest.raises(ValueError):
            MergePolicy(score_floor=1.0)


class TestPruneBoundaryDetections:
    IMAGE = ImageSize(1000, 800)

    def test_truth_table(self):
        image = self.IMAGE
        interior_chip = (100, 100, 600, 600)
        left_border_chip = (0, 100, 500, 600)
        corner_chip = (0, 0, 500, 500)
        full_chip = (0, 0, 1000, 800)
        cases = [
            # 1. strictly inside an interior chip -> kept
            (interior_chip, det(200, 200, 300, 300), True),
            # 2. flush with an interior chip edge -> discarded
            (interior_chip, det(100, 200, 300, 300), False),
            # 3. chip's left edge on the image border, detection flush with
            #    that edge only -> kept
            (left_border_chip, det(0, 200, 300, 300), True),
            # 4. same chip, but the detection also touches an interior edge
            #    -> discarded
            (left_border_chip, det(0, 200, 500, 300), False),
            # 5. corner chip, detection flush with both shared borders -> kept
            (corner_chip, det(0, 0, 200, 200), True),
            # 6. corner chip, detection flush with one border and one
            #    interior edge -> discarded
            (corner_chip, det(0, 300, 200, 500), False),
            # 7. corner chip, detection touching nothing -> kept
            (corner_chip, det(50, 50, 200, 200), True),
            # 8. chip covers the whole image, detection flush with all four
            #    edges -> kept
            (full_chip, det(0, 0, 1000, 800), True),
        ]
        for idx, (chip, d, expect_kept) in enumerate(cases, 1):
            kept = prune_boundary_detections(batch(d), chip, image)
            assert (len(kept) == 1) == expect_kept, f"truth-table case {idx}"

    def test_epsilon_band(self):
        chip = (100, 100, 600, 600)
        nearly_flush = det(100.8, 200, 300, 300)
        assert list(prune_boundary_detections(batch(nearly_flush), chip, self.IMAGE)) == []
        clear = det(101.5, 200, 300, 300)
        assert list(prune_boundary_detections(batch(clear), chip, self.IMAGE, eps=1.0)) == [clear]
        assert list(prune_boundary_detections(batch(clear), chip, self.IMAGE, eps=2.0)) == []

    def test_subset_and_idempotent(self):
        rng = np.random.default_rng(2)
        chip = (64, 64, 564, 564)
        dets = []
        for _ in range(60):
            x1 = float(rng.uniform(60, 560))
            y1 = float(rng.uniform(60, 560))
            dets.append(det(x1, y1, x1 + float(rng.uniform(0, 40)), y1 + float(rng.uniform(0, 40))))
        once = prune_boundary_detections(batch(*dets), chip, self.IMAGE)
        assert all(d in dets for d in once)
        assert list(prune_boundary_detections(once, chip, self.IMAGE)) == list(once)


    def test_per_row_chips_equal_one_chip_at_a_time(self):
        rng = np.random.default_rng(3)
        chips = [(100, 100, 600, 600), (0, 100, 500, 600), (0, 0, 1000, 800),
                 (300.5, 0, 1000, 420)]
        sizes = [self.IMAGE, self.IMAGE, self.IMAGE, ImageSize(1000, 420)]
        which = rng.integers(0, len(chips), 400)
        x1 = np.where(rng.random(400) < 0.3, 100.0, rng.uniform(0, 900, 400))
        y1 = rng.uniform(0, 400, 400)
        dets = detection_batch(
            ((a, b, a + 50.0, b + 50.0), 0.5, k) for k, (a, b) in enumerate(zip(x1, y1)))
        chip_rows = np.array([chips[w] for w in which], dtype=float)
        size_rows = np.array([(sizes[w].width, sizes[w].height) for w in which], dtype=float)
        kept = prune_boundary_detections(dets, chip_rows, size_rows)
        one_by_one = np.concatenate([
            prune_boundary_detections(dets[which == w], chip, size).class_ids
            for w, (chip, size) in enumerate(zip(chips, sizes))])
        assert kept.class_ids.tolist() == sorted(one_by_one.tolist())
        assert 0 < len(kept) < len(dets)


class TestProjectToImage:
    def test_identity(self):
        d = det(10, 10, 20, 20)
        out = project_to_image(batch(d), ImageSize(100, 100), (0, 0), ImageSize(100, 100))
        assert list(out) == [d]

    def test_translate_then_rescale(self):
        # chip at (100, 50) in a 2x canvas of a 100x50 original
        d = det(0, 0, 10, 10)
        out = project_to_image(batch(d), ImageSize(200, 100), (100, 50), ImageSize(100, 50))
        assert out[0].box == (50, 25, 55, 30)
        assert out[0].score == d.score and out[0].class_id == d.class_id

    def test_per_row_frames_equal_one_frame_at_a_time(self):
        rng = np.random.default_rng(16)
        rows = [(ImageSize(int(rng.integers(50, 800)), int(rng.integers(50, 800))),
                 (float(rng.uniform(0, 30)), float(rng.uniform(0, 30))),
                 ImageSize(int(rng.integers(50, 800)), int(rng.integers(50, 800))))
                for _ in range(50)]
        dets = detection_batch(((1.0, 2.0, 3.5, 7.0), 0.5, k) for k in range(len(rows)))
        canvases = np.array([(c.width, c.height) for c, _, _ in rows], dtype=float)
        origins = np.array([o for _, o, _ in rows])
        originals = np.array([(s.width, s.height) for _, _, s in rows], dtype=float)
        out = project_to_image(dets, canvases, origins, originals)
        for k, (canvas, origin, original) in enumerate(rows):
            one = project_to_image(dets[k:k + 1], canvas, origin, original)
            assert out.boxes[k].tolist() == one.boxes[0].tolist()

    def test_composition_equals_direct(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            original = ImageSize(int(rng.integers(50, 800)), int(rng.integers(50, 800)))
            mid = ImageSize(int(rng.integers(50, 800)), int(rng.integers(50, 800)))
            x1 = float(rng.uniform(0, 40))
            y1 = float(rng.uniform(0, 40))
            d = det(x1, y1, x1 + 5, y1 + 5)
            inner_origin = (float(rng.uniform(0, 30)), float(rng.uniform(0, 30)))
            # project into mid frame, then mid -> original with no offset
            step = project_to_image(batch(d), mid, inner_origin, mid)
            composed = project_to_image(step, mid, (0, 0), original)
            direct = project_to_image(batch(d), mid, inner_origin, original)
            for a, b in zip(composed[0].box, direct[0].box):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


class TestMergeDetections:
    def test_single_detection_unchanged(self):
        d = det(0, 0, 10, 10, score=0.7)
        assert list(merge_detections([batch(d)], MergePolicy(mode="hard"))) == [d]

    def test_hard_nms_identical_boxes(self):
        a = det(0, 0, 10, 10, score=0.9)
        b = det(0, 0, 10, 10, score=0.8)
        out = merge_detections([batch(a), batch(b)], MergePolicy(mode="hard", iou_threshold=0.5))
        assert list(out) == [a]

    def test_gaussian_closed_form(self):
        # boxes with IoU 1/3; the lower-scored one is rescored
        a = det(0, 0, 10, 10, score=0.9)
        b = det(5, 0, 15, 10, score=0.8)
        out = merge_detections([batch(a, b)], MergePolicy(mode="gaussian", sigma=0.5))
        assert len(out) == 2
        assert out[0].score == 0.9
        assert out[1].score == pytest.approx(0.8 * math.exp(-((1 / 3) ** 2) / 0.5))

    def test_linear_rescoring_above_threshold_only(self):
        a = det(0, 0, 10, 10, score=0.9)
        b = det(5, 0, 15, 10, score=0.8)  # IoU 1/3 < 0.5: untouched
        c = det(0, 0, 10, 9, score=0.7)  # IoU 0.9 vs a: decayed
        out = merge_detections([batch(a, b, c)], MergePolicy(mode="linear", iou_threshold=0.5))
        scores = {round(d.score, 6) for d in out}
        assert 0.9 in scores and 0.8 in scores
        assert round(0.7 * (1 - 0.9), 6) in scores

    def test_score_floor_drops(self):
        a = det(0, 0, 10, 10, score=0.9)
        b = det(0, 0, 10, 10, score=0.8)
        out = merge_detections(
            [batch(a, b)], MergePolicy(mode="gaussian", sigma=0.01, score_floor=0.01)
        )
        assert list(out) == [a]

    def test_classes_do_not_suppress_each_other(self):
        a = det(0, 0, 10, 10, score=0.9, class_id=1)
        b = det(0, 0, 10, 10, score=0.8, class_id=2)
        out = merge_detections([batch(a, b)], MergePolicy(mode="hard", iou_threshold=0.5))
        assert len(out) == 2

    def test_hard_nms_matches_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            boxes, scores = _random_detections(rng)
            dets = batch(*(det(*b.as_tuple(), score=s) for b, s in zip(boxes, scores)))
            out = merge_detections([dets], MergePolicy(mode="hard", iou_threshold=0.4))
            kept = hard_nms_oracle(boxes, scores, 0.4)
            assert [d.score for d in out] == [scores[i] for i in kept]

    def test_no_kept_pair_overlaps_above_threshold(self):
        rng = np.random.default_rng(20)
        policy = MergePolicy(mode="hard", iou_threshold=0.45)
        for _ in range(50):
            boxes, scores = _random_detections(rng)
            dets = batch(*(det(*b.as_tuple(), score=s) for b, s in zip(boxes, scores)))
            out = list(merge_detections([dets], policy))
            for i, a in enumerate(out):
                for b in out[i + 1 :]:
                    assert iou_oracle(BoundingBox(*a.box), BoundingBox(*b.box)) <= 0.45

    def test_partition_invariance(self):
        rng = np.random.default_rng(30)
        boxes, scores = _random_detections(rng, n=12)
        dets = [det(*b.as_tuple(), score=s, class_id=i % 3) for i, (b, s) in enumerate(zip(boxes, scores))]
        policy = MergePolicy(mode="gaussian", sigma=0.5)
        whole = list(merge_detections([batch(*dets)], policy))
        parts = [batch(*dets[:5]), batch(*dets[5:9]), batch(*dets[9:])]
        split_a = list(merge_detections(parts, policy))
        split_b = list(merge_detections([batch(d) for d in dets], policy))
        assert whole == split_a == split_b

    def test_output_sorted_by_score(self):
        rng = np.random.default_rng(40)
        boxes, scores = _random_detections(rng, n=15)
        dets = [det(*b.as_tuple(), score=s, class_id=i % 2) for i, (b, s) in enumerate(zip(boxes, scores))]
        out = list(merge_detections([batch(*dets)], MergePolicy(mode="gaussian")))
        assert all(a.score >= b.score for a, b in zip(out, out[1:]))

    def test_sigma_to_zero_limit_is_any_overlap_suppression(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            boxes, scores = _random_detections(rng, integer_grid=True)
            dets = batch(*(det(*b.as_tuple(), score=s) for b, s in zip(boxes, scores)))
            soft = merge_detections(
                [dets], MergePolicy(mode="gaussian", sigma=1e-12, score_floor=0.001)
            )
            hard = merge_detections(
                [dets], MergePolicy(mode="hard", iou_threshold=1e-9)
            )
            assert [d.box for d in soft] == [d.box for d in hard]
            for s_det, h_det in zip(soft, hard):
                assert s_det.score == pytest.approx(h_det.score, abs=1e-12)


def _oracle_merge(boxes, scores, groups, policy):
    """(position, score) of every kept box by the per-box oracle, run group
    by group and sorted by final score, ties by position."""
    kept = []
    for group in sorted(set(groups)):
        members = [i for i, g in enumerate(groups) if g == group]
        for local, score in soft_nms_oracle(
            [boxes[i] for i in members],
            [scores[i] for i in members],
            policy.mode,
            policy.iou_threshold,
            policy.sigma,
            policy.score_floor,
        ):
            kept.append((members[local], score))
    kept.sort(key=lambda t: (-t[1], t[0]))
    return kept


def _mixed_set(rng, n, n_classes, floor):
    """Boxes on a coarse integer grid (exact repeats and shared edges), some
    zero-area; scores from a small pool (ties) that straddles ``floor``."""
    boxes, scores, classes = [], [], []
    pool = [0.9, 0.5, 0.5, floor, np.nextafter(floor, 0.0), np.nextafter(floor, 1.0), 0.0005]
    for _ in range(n):
        x1, y1 = float(rng.integers(0, 40)), float(rng.integers(0, 40))
        w, h = float(rng.integers(0, 20)), float(rng.integers(0, 20))
        if rng.random() < 0.5:
            x1 += float(rng.uniform(0, 1))
            w += float(rng.uniform(0, 1))
        boxes.append(BoundingBox(x1, y1, x1 + w, y1 + h))
        scores.append(float(pool[rng.integers(0, len(pool))] if rng.random() < 0.5 else rng.uniform(0, 1)))
        classes.append(int(rng.integers(0, n_classes)))
    return boxes, scores, classes


def _crowd(rng, n=300):
    """One dense class: jittered copies of three boxes."""
    centers = [(40.0, 40.0, 80.0, 90.0), (60.0, 50.0, 120.0, 100.0), (200.0, 10.0, 230.0, 60.0)]
    boxes, scores = [], []
    for _ in range(n):
        x1, y1, x2, y2 = centers[rng.integers(0, 3)]
        dx, dy = rng.normal(0, 4, 2)
        boxes.append(BoundingBox(x1 + dx, y1 + dy, x2 + dx + abs(rng.normal(0, 3)), y2 + dy))
        scores.append(float(rng.uniform(0.01, 1.0)))
    return boxes, scores, [7] * n


POLICIES = [
    MergePolicy(mode="hard", iou_threshold=0.5),
    MergePolicy(mode="hard", iou_threshold=0.1),
    MergePolicy(mode="gaussian", sigma=0.5, score_floor=0.001),
    MergePolicy(mode="gaussian", sigma=0.05, score_floor=0.3),
    MergePolicy(mode="gaussian", sigma=0.5, score_floor=0.0),
    MergePolicy(mode="linear", iou_threshold=0.3, score_floor=0.001),
    MergePolicy(mode="linear", iou_threshold=0.05, score_floor=0.2),
]


class TestSuppressMatchesOracle:
    """The array kernel against the per-box loop: same kept positions in the
    same order, bit-identical scores."""

    @staticmethod
    def _check(boxes, scores, classes, policy):
        columns = detection_batch(zip((b.as_tuple() for b in boxes), scores, classes))
        positions, final = suppress(columns.boxes, columns.scores, columns.class_ids, policy)
        got = list(zip(positions.tolist(), final.tolist()))
        assert got == _oracle_merge(boxes, scores, classes, policy)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: f"{p.mode}-{p.iou_threshold}-{p.sigma}-{p.score_floor}")
    def test_random_mixed_sets(self, policy):
        rng = np.random.default_rng(61)
        for _ in range(150):
            n = int(rng.integers(0, 40))
            self._check(*_mixed_set(rng, n, int(rng.integers(1, 5)), policy.score_floor), policy)

    @pytest.mark.parametrize("policy", POLICIES[::2], ids=lambda p: p.mode)
    def test_crowded_class(self, policy):
        rng = np.random.default_rng(62)
        crowd = _crowd(rng)
        others = _mixed_set(rng, 40, 3, policy.score_floor)
        boxes, scores, classes = (a + b for a, b in zip(others, crowd))
        self._check(boxes, scores, classes, policy)


def _multi_image_set(rng, n_images, policy, crowded):
    """Rows of several images, interleaved in random order: per image a mixed
    set, and the crowded class in image ``crowded``; about a tenth of the
    scores are 0.0. Returns boxes, scores, image ids and class ids."""
    boxes, scores, images, classes = [], [], [], []
    for image in range(n_images):
        n = int(rng.integers(0, 30))
        parts = [_mixed_set(rng, n, int(rng.integers(1, 4)), policy.score_floor)]
        if image == crowded:
            parts.append(_crowd(rng, n=120))
        for b, s, c in parts:
            boxes += b
            scores += [0.0 if rng.random() < 0.1 else v for v in s]
            classes += c
            images += [image * 7] * len(b)
    order = rng.permutation(len(boxes)).tolist()
    return ([boxes[i] for i in order], [scores[i] for i in order],
            [images[i] for i in order], [classes[i] for i in order])


class TestLockstepGroups:
    """``suppress`` over (image, class) groups equals the per-box oracles
    run image by image and class by class: same kept positions, bit-identical
    scores."""

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: f"{p.mode}-{p.iou_threshold}-{p.sigma}-{p.score_floor}")
    def test_image_class_groups(self, policy):
        rng = np.random.default_rng(63)
        for trial in range(40):
            n_images = int(rng.integers(1, 6))
            crowded = trial % 4 if trial % 4 < n_images else -1
            boxes, scores, images, classes = _multi_image_set(rng, n_images, policy, crowded)
            pairs = list(zip(images, classes))
            key = {pair: k for k, pair in enumerate(sorted(set(pairs)))}
            groups = np.array([key[pair] for pair in pairs], dtype=np.int64)
            columns = detection_batch(zip((b.as_tuple() for b in boxes), scores, classes))
            positions, final = suppress(columns.boxes, columns.scores, groups, policy)
            got = [(p, s.hex()) for p, s in zip(positions.tolist(), final.tolist())]
            want = [(p, s.hex()) for p, s in _oracle_merge(boxes, scores, pairs, policy)]
            assert got == want
            if policy.mode == "hard":
                for pair in set(pairs):
                    members = [i for i, p in enumerate(pairs) if p == pair]
                    kept = hard_nms_oracle([boxes[i] for i in members],
                                           [scores[i] for i in members], policy.iou_threshold)
                    assert sorted(members[i] for i in kept) == sorted(
                        p for p in positions.tolist() if pairs[p] == pair)


def _random_detections(rng, n=10, integer_grid=False):
    boxes = []
    scores = []
    for _ in range(n):
        if integer_grid:
            x1 = float(rng.integers(0, 80))
            y1 = float(rng.integers(0, 80))
            w = float(rng.integers(1, 30))
            h = float(rng.integers(1, 30))
        else:
            x1 = float(rng.uniform(0, 80))
            y1 = float(rng.uniform(0, 80))
            w = float(rng.uniform(1, 30))
            h = float(rng.uniform(1, 30))
        boxes.append(BoundingBox(x1, y1, x1 + w, y1 + h))
        scores.append(float(rng.uniform(0.05, 1.0)))
    return boxes, scores
