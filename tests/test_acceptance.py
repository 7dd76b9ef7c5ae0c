"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Dataset-level statistics run against the full val2017 annotation
file when one is available (see conftest.COCO_CANDIDATES / the
PYRSAMPLE_COCO_VAL2017 env var) and otherwise against the bundled 200-image
excerpt with reference values frozen at excerpt-creation time.
"""
from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pyrsample.chips import select_positive_chips
from pyrsample.config import coco_default
from pyrsample.costing import size_area_fractions, speedup_upper_bound
from pyrsample.dataset import load_dataset
from pyrsample.focus_chips import FocusParams, generate_focus_chips
from pyrsample.focus_labels import FocusMap, build_focus_label_map
from pyrsample.focus_labels import focus_pixel_stats
from pyrsample.geometry import DetectionRow, ImageSize, ScaleSpec
from pyrsample.range_labels import assign_roi_labels, invalidate_anchors
from pyrsample.stacking import MergePolicy, merge_detections, project_to_image, prune_boundary_detections

from conftest import EXCERPT_PATH, REFERENCE_PATH, detection_batch, gt_columns, gt_set
from oracles import (
    BoundingBox,
    Gt,
    anchor_validity_oracle,
    boxes_array,
    clip_box,
    focus_label_oracle,
    resolve_oracle,
    roi_label_oracle,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number} PASS: {title}")


def _load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def _dataset(coco_val2017_path):
    """(index, using_real_data) for the statistics criteria."""
    if coco_val2017_path is not None:
        return load_dataset(coco_val2017_path), True
    return load_dataset(EXCERPT_PATH), False


def test_criterion_1_coverage_guarantee():
    with criterion(1, "positive-chip coverage on 1000 synthetic scenes, < 30 s"):
        pyramid = coco_default().pyramid
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        n_valid_total = 0
        scenes, originals = [], []
        for _ in range(1000):
            w = int(rng.integers(100, 2001))
            h = int(rng.integers(100, 2001))
            gts = []
            for _ in range(int(rng.integers(1, 31))):
                side = float(np.exp(rng.uniform(np.log(2), np.log(min(w, h)))))
                aspect = float(np.exp(rng.uniform(-0.8, 0.8)))
                bw = min(side * aspect, w - 1.0)
                bh = min(side / aspect, h - 1.0)
                x = float(rng.uniform(0, w - bw))
                y = float(rng.uniform(0, h - bh))
                gts.append(Gt(BoundingBox(x, y, x + bw, y + bh), 1))
            scenes.append(gts)
            originals.append(ImageSize(w, h))
        gts, offsets, sizes = gt_columns(dict(enumerate(scenes)), dict(enumerate(originals)))
        chips, diagnostics = select_positive_chips(gts, offsets, pyramid, sizes, np.arange(1000))
        flagged = set(zip(diagnostics.image_ids.tolist(), diagnostics.scale_ids.tolist(),
                          diagnostics.gt_ids.tolist()))
        rects = {}
        for chip in chips:
            rects.setdefault((chip.image_id, chip.scale_id), []).append(chip.rect)
        # independent re-check with plain arithmetic
        for image_id, (gts, original) in enumerate(zip(scenes, originals)):
            for spec in pyramid:
                canvas = resolve_oracle(spec, original)
                fx = canvas.width / original.width
                fy = canvas.height / original.height
                r_min, r_max = spec.effective_range
                scale_chips = rects.get((image_id, spec.scale_id), [])
                for gt_id, gt in enumerate(gts):
                    bx1, by1 = gt.box.x1 * fx, gt.box.y1 * fy
                    bx2, by2 = gt.box.x2 * fx, gt.box.y2 * fy
                    if not (r_min < (bx2 - bx1) * (by2 - by1) < r_max):
                        continue
                    n_valid_total += 1
                    covered = any(
                        x1 <= bx1 and y1 <= by1 and bx2 <= x2 and by2 <= y2
                        for x1, y1, x2, y2 in scale_chips
                    )
                    assert covered or (image_id, spec.scale_id, gt_id) in flagged, (
                        f"valid box silently dropped at scale {spec.scale_id}"
                    )
        elapsed = time.perf_counter() - start
        assert n_valid_total > 10_000, "scene generator produced too few valid boxes"
        assert elapsed < 30.0, f"coverage run took {elapsed:.1f}s"
        print(f"  ({n_valid_total} valid boxes, {elapsed:.1f}s)", end=" ")


def test_criterion_2_label_oracle():
    with criterion(2, "RoI labels and anchor flags match the literal rules on 10^4 triples"):
        rng = np.random.default_rng(1002)
        for trial in range(10_000):
            r_min_side = int(rng.integers(0, 120))
            r_min = float(r_min_side**2)
            if rng.random() < 0.2:
                r_max = math.inf
            else:
                r_max = float(int(rng.integers(r_min_side + 1, 400)) ** 2)
            spec = ScaleSpec(scale_id=0, target=1.0, valid_range=(r_min, r_max))
            if trial % 5 == 0:
                # integer-sided RoI hitting the range boundary exactly
                side = r_min_side if (trial % 10 == 0 or math.isinf(r_max)) else int(math.sqrt(r_max))
                x = float(rng.integers(0, 50))
                y = float(rng.integers(0, 50))
                roi = BoundingBox(x, y, x + side, y + side)
            else:
                x, y = rng.uniform(0, 300, 2)
                roi = BoundingBox(x, y, x + float(rng.uniform(0, 250)), y + float(rng.uniform(0, 250)))
            gts = [
                Gt(
                    BoundingBox(
                        gx, gy, gx + float(rng.uniform(0, 250)), gy + float(rng.uniform(0, 250))
                    ),
                    class_id=int(rng.integers(1, 9)),
                )
                for gx, gy in rng.uniform(0, 300, (int(rng.integers(0, 4)), 2))
            ]
            labels, class_ids = assign_roi_labels(boxes_array([roi]), gt_set(gts), spec)
            got = (int(labels[0]), int(class_ids[0]))
            want = roi_label_oracle(roi, gts, r_min, r_max)
            assert got == want, f"trial {trial}: got {got}, oracle {want}"
            invalid = bool(invalidate_anchors(boxes_array([roi]), gt_set(gts), spec)[0])
            assert invalid == anchor_validity_oracle(roi, gts, r_min, r_max), f"trial {trial}"


def test_criterion_3_focus_label_oracle():
    with criterion(3, "focus label maps match per-cell brute force on 10^3 scenes"):
        rng = np.random.default_rng(1003)
        for trial in range(1000):
            stride = 16 if trial % 3 == 0 else 32
            max_dim = 320 if stride == 16 else 512
            image = ImageSize(int(rng.integers(48, max_dim)), int(rng.integers(48, max_dim)))
            boxes = []
            for _ in range(int(rng.integers(0, 6))):
                bw = float(rng.uniform(0, 110))
                bh = float(rng.uniform(0, 110))
                x = float(rng.uniform(-8, max(1.0, image.width - bw / 2)))
                y = float(rng.uniform(-8, max(1.0, image.height - bh / 2)))
                boxes.append(BoundingBox(x, y, x + bw, y + bh))
            if trial % 2 == 0:
                # force a precedence case: focus box overlapping an ignore box
                cx = float(rng.uniform(0, image.width * 0.6))
                cy = float(rng.uniform(0, image.height * 0.6))
                big = float(rng.uniform(64, 90))
                small = float(rng.uniform(6, 63))
                boxes.append(BoundingBox(cx, cy, cx + big, cy + big))
                boxes.append(BoundingBox(cx + 2, cy + 2, cx + 2 + small, cy + 2 + small))
            got = build_focus_label_map(boxes_array(boxes), image, stride).cells
            want = focus_label_oracle(boxes, image, stride, 5.0, 64.0, 90.0)
            assert (got == want).all(), f"trial {trial}"


def test_criterion_4_focus_chip_properties():
    with criterion(4, "chip-generation invariants hold on 10^3 random maps"):
        rng = np.random.default_rng(1004)
        for trial in range(1000):
            hc = int(rng.integers(3, 23))
            wc = int(rng.integers(3, 23))
            stride = 16 if trial % 4 == 0 else 32
            image = ImageSize(
                int(rng.integers((wc - 1) * stride + 1, wc * stride + 1)),
                int(rng.integers((hc - 1) * stride + 1, hc * stride + 1)),
            )
            cells = rng.random((hc, wc))
            pm = FocusMap(cells=cells, stride=stride, image=image)
            params = FocusParams(
                threshold=float(rng.uniform(0.55, 0.95)),
                dilation=int(rng.choice([1, 3, 5])),
                min_chip_size=int(rng.choice([8, 64, 200, 700])),
            )
            chips = [BoundingBox(*c) for c in generate_focus_chips(pm, params, image).tolist()]
            margin = (params.dilation // 2) * stride
            for i, j in zip(*np.nonzero(cells >= params.threshold)):
                block = clip_box(
                    BoundingBox(j * stride, i * stride, (j + 1) * stride, (i + 1) * stride),
                    image,
                )
                holder = [
                    c for c in chips
                    if c.x1 <= block.x1 and c.y1 <= block.y1
                    and c.x2 >= block.x2 and c.y2 >= block.y2
                ]
                assert len(holder) == 1, "above-threshold cell must sit in exactly one chip"
                chip = holder[0]
                assert chip.x1 <= j * stride - margin or chip.x1 == 0.0
                assert chip.y1 <= i * stride - margin or chip.y1 == 0.0
                assert chip.x2 >= (j + 1) * stride + margin or chip.x2 == image.width
                assert chip.y2 >= (i + 1) * stride + margin or chip.y2 == image.height
            for idx, a in enumerate(chips):
                assert a.width >= min(params.min_chip_size, image.width) - 1e-9
                assert a.height >= min(params.min_chip_size, image.height) - 1e-9
                for b in chips[idx + 1:]:
                    assert a.intersection(b) is None, "post-merge chips overlap"


def test_criterion_5_annotation_statistics(coco_val2017_path):
    with criterion(5, "dataset statistics (size bands, focus-cell fractions)"):
        start = time.perf_counter()
        index, real = _dataset(coco_val2017_path)
        cfg = coco_default()
        columns = (index.gt_set, index.gt_offsets, index.sizes)

        bands = {b.name: b for b in size_area_fractions(*columns)}
        # the published claim: ~40% of instances are small yet cover ~0.3% of area
        assert bands["small"].instance_fraction == pytest.approx(0.40, abs=0.03)
        assert bands["small"].area_fraction == pytest.approx(0.003, abs=0.002)

        stats = focus_pixel_stats(*columns, cfg.pyramid, dilation=3)
        finest = max(stats)
        middle = sorted(stats)[-2]
        if real:
            # published percentages for the finest and middle pyramid levels
            assert stats[finest].fraction == pytest.approx(0.04, abs=0.01)
            assert stats[middle].fraction == pytest.approx(0.11, abs=0.02)
            assert stats[finest].fraction_dilated == pytest.approx(0.07, abs=0.02)
            assert stats[middle].fraction_dilated == pytest.approx(0.18, abs=0.02)
        else:
            ref = _load_reference()
            assert index.image_ids.tolist() == list(range(1, ref["n_images"] + 1))
            for sid, s in stats.items():
                want = ref["focus_pixels"][str(sid)]
                assert s.fraction == pytest.approx(want["fraction"], abs=1e-12)
                assert s.fraction_dilated == pytest.approx(
                    want["fraction_dilated"], abs=1e-12
                )
                assert s.mean_projected_area == pytest.approx(
                    want["mean_projected_area"], rel=1e-9
                )
            for name, band in bands.items():
                want = ref["size_bands"][name]
                assert band.instance_fraction == pytest.approx(
                    want["instance_fraction"], abs=1e-12
                )
                assert band.area_fraction == pytest.approx(want["area_fraction"], abs=1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"statistics run took {elapsed:.0f}s"
        source = "val2017" if real else "bundled excerpt"
        print(f"  ({source}, {elapsed:.1f}s)", end=" ")


def test_criterion_6_speedup_upper_bound(coco_val2017_path):
    with criterion(6, "speed-up bound monotone in k; k=64 near the published 10x"):
        index, real = _dataset(coco_val2017_path)
        cfg = coco_default()
        ks = [32, 64, 128, 256, 512]
        curve = speedup_upper_bound(
            index.gt_set, index.gt_offsets, index.sizes, cfg.pyramid, ks, dilation=3
        )
        speeds = dict(curve)
        ordered = [speeds[k] for k in ks]
        assert all(a >= b - 1e-12 for a, b in zip(ordered, ordered[1:])), (
            f"speed-up not monotone: {ordered}"
        )
        assert speeds[64] == pytest.approx(10.0, rel=0.2), (
            f"k=64 speed-up {speeds[64]:.2f} outside 10x +-20%"
        )
        if not real:
            ref = _load_reference()
            for k in ks:
                assert speeds[k] == pytest.approx(ref["speedup"][str(k)], rel=1e-9)
        print(f"  (k=64 -> {speeds[64]:.2f}x)", end=" ")


def test_criterion_7_focus_stacking_frames():
    with criterion(7, "chip->image round trips within 1e-6; pruning truth table"):
        rng = np.random.default_rng(1007)
        for _ in range(1000):
            original = ImageSize(int(rng.integers(50, 1000)), int(rng.integers(50, 1000)))
            factor = float(rng.uniform(0.3, 4.0))
            spec = ScaleSpec(scale_id=0, target=factor)
            canvas = resolve_oracle(spec, original)
            fx = canvas.width / original.width
            fy = canvas.height / original.height
            bx1 = float(rng.uniform(0, original.width * 0.8))
            by1 = float(rng.uniform(0, original.height * 0.8))
            bx2 = bx1 + float(rng.uniform(0.1, original.width - bx1))
            by2 = by1 + float(rng.uniform(0.1, original.height - by1))
            origin = (float(rng.uniform(0, canvas.width / 2)), float(rng.uniform(0, canvas.height / 2)))
            chip_local = DetectionRow(
                (
                    bx1 * fx - origin[0], by1 * fy - origin[1],
                    bx2 * fx - origin[0], by2 * fy - origin[1],
                ),
                0.5,
                1,
            )
            (back,) = project_to_image(detection_batch([chip_local]), canvas, origin, original)
            for got, want in zip(back.box, (bx1, by1, bx2, by2)):
                assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

        image = ImageSize(1000, 800)
        interior = (100, 100, 600, 600)
        left = (0, 100, 500, 600)
        corner = (0, 0, 500, 500)
        full = (0, 0, 1000, 800)

        def d(x1, y1, x2, y2):
            return detection_batch([((x1, y1, x2, y2), 0.9, 1)])

        cases = [
            (interior, d(200, 200, 300, 300), True),
            (interior, d(100, 200, 300, 300), False),
            (left, d(0, 200, 300, 300), True),
            (left, d(0, 200, 500, 300), False),
            (corner, d(0, 0, 200, 200), True),
            (corner, d(0, 300, 200, 500), False),
            (corner, d(50, 50, 200, 200), True),
            (full, d(0, 0, 1000, 800), True),
        ]
        for idx, (chip, det, expect_kept) in enumerate(cases, 1):
            kept = prune_boundary_detections(det, chip, image)
            assert (len(kept) == 1) == expect_kept, f"truth-table case {idx}"


def test_criterion_8_soft_nms():
    with criterion(8, "soft-NMS closed forms and the sigma->0 hard-NMS limit"):
        a = ((0, 0, 10, 10), 0.9, 1)
        b = ((5, 0, 15, 10), 0.8, 1)  # IoU 1/3 vs a
        c = ((5, 0, 15, 9), 0.7, 1)

        out = merge_detections([detection_batch([a, b])], MergePolicy(mode="gaussian", sigma=0.5))
        assert out[0].score == 0.9
        assert out[1].score == pytest.approx(0.8 * math.exp(-((1 / 3) ** 2) / 0.5))

        # three boxes: c is decayed by both kept boxes in score order
        iou_ac = 45 / (100 + 90 - 45)
        iou_bc = 90 / (100 + 90 - 90)
        out = merge_detections(
            [detection_batch([a, b, c])], MergePolicy(mode="gaussian", sigma=0.5)
        )
        b_score = 0.8 * math.exp(-((1 / 3) ** 2) / 0.5)
        c_score = 0.7 * math.exp(-(iou_ac**2) / 0.5) * math.exp(-(iou_bc**2) / 0.5)
        assert [round(x.score, 12) for x in out] == [
            round(x, 12) for x in sorted([0.9, b_score, c_score], reverse=True)
        ]

        # linear mode only decays above the IoU threshold
        out = merge_detections(
            [detection_batch([a, b, c])], MergePolicy(mode="linear", iou_threshold=0.5)
        )
        scores = {round(x.score, 12) for x in out}
        assert round(0.8, 12) in scores  # IoU 1/3 below threshold
        assert round(0.7 * (1 - iou_bc), 12) in scores

        rng = np.random.default_rng(1008)
        for _ in range(1000):
            dets = []
            for _ in range(int(rng.integers(2, 12))):
                x1 = float(rng.integers(0, 60))
                y1 = float(rng.integers(0, 60))
                w = float(rng.integers(1, 25))
                h = float(rng.integers(1, 25))
                dets.append(((x1, y1, x1 + w, y1 + h), float(rng.uniform(0.05, 1.0)), 1))
            dets = detection_batch(dets)
            soft = merge_detections(
                [dets], MergePolicy(mode="gaussian", sigma=1e-12, score_floor=0.001)
            )
            hard = merge_detections([dets], MergePolicy(mode="hard", iou_threshold=1e-9))
            assert [x.box for x in soft] == [x.box for x in hard]
            for s_det, h_det in zip(soft, hard):
                assert s_det.score == pytest.approx(h_det.score, abs=1e-12)
