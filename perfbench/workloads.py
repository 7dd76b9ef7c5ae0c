"""Seeded inputs and command lists for the three benchmark workloads.

Every input is generated from the workload seed; the program only ever sees
the written files. Images and their ground truth come from ``sample_image``
in ``scripts/make_synthetic_excerpt.py`` (the distribution of the bundled
excerpt), imported rather than copied so both stay calibrated together.

Workloads and why they were chosen:

``train-chips``
    ``chips positive --diagnostics`` then ``chips negative --proposals`` over
    a COCO set with 300 RPN-like proposals per image. Exercises the greedy
    cover and enclosure matrices in ``chips``, proposal parsing in ``dataset``
    and validity tests in ``range_labels``; no focus maps and no NMS.
``focus-infer``
    ``focus chips`` over dense, noisy probability maps, then ``stack`` twice
    (gaussian soft-NMS and hard NMS) over per-chip detections. Every tenth
    image is crowded: one class holds a few hundred boxes, which exposes
    quadratic suppression.
``dataset-stats``
    The four ``stats`` reports over an annotation-only set. Exercises
    ``focus_labels`` rasterisation, ``focus_chips`` on sparse ground-truth
    maps (five chip sizes per map) and ``costing``; no chips and no NMS.
"""
from __future__ import annotations

import importlib.util
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pyrsample.config import coco_default

# Images per workload. dataset-stats would ideally use val2017's 5000 images;
# it is shrunk so a run holds several timed iterations within the run length.
N_IMAGES = {"train-chips": 300, "focus-infer": 100, "dataset-stats": 1000}

PROPOSALS_PER_IMAGE = 300
DET_CLASSES = 20
CROWD_EVERY = 10  # every tenth image is crowded
CROWD_BOXES = 300
FULL_PASS_DETS = 120
CHIP_DETS = 60
CHIPS_PER_LEVEL = 2
CHIP_SIDE = 320
# Share of chip detections put flush against a chip border. Chips hold 240 of
# the 390 detections of an average image, so about 10% of all are flush.
FLUSH_SHARE = 0.16
MAP_NOISE_CELLS = 0.02
STATS_KS = "32,64,128,256,512"

FMAP_HEADER = struct.Struct("<4s5I2s")


def load_sample_image(root: Path):
    """``sample_image`` and the class count from the excerpt generator script."""
    path = root / "scripts" / "make_synthetic_excerpt.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_excerpt", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sample_image, module.N_CLASSES


@dataclass
class Inputs:
    """One workload's generated input files for one seed, its commands and
    their output files, plus what the output checks need to know."""

    workload: str
    seed: int
    coco: dict
    prob_maps: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    commands: list[tuple[str, list[str]]] = field(default_factory=list)
    outputs: dict[str, list[Path]] = field(default_factory=dict)

    @property
    def n_images(self) -> int:
        return len(self.coco["images"])


def canvas_size(spec, width: int, height: int) -> tuple[int, int]:
    """Resized canvas of one pyramid level (max-side or factor targets)."""
    target = spec.target
    if hasattr(target, "max_side"):
        factor = target.max_side / max(width, height)
    else:
        factor = float(target)
    return max(1, round(width * factor)), max(1, round(height * factor))


def make_coco(root: Path, rng: np.random.Generator, n_images: int) -> dict:
    sample_image, n_classes = load_sample_image(root)
    images, annotations = [], []
    for image_id in range(1, n_images + 1):
        image, anns = sample_image(rng, image_id, ann_start=len(annotations) + 1)
        images.append(image)
        annotations.extend(anns)
    categories = [{"id": i, "name": f"category_{i:02d}"} for i in range(1, n_classes + 1)]
    return {"images": images, "annotations": annotations, "categories": categories}


def gt_by_image(coco: dict) -> dict[int, np.ndarray]:
    """Per-image (n, 6) arrays: x, y, w, h, category_id, iscrowd, in file order."""
    rows: dict[int, list] = {img["id"]: [] for img in coco["images"]}
    for ann in coco["annotations"]:
        rows[ann["image_id"]].append([*ann["bbox"], ann["category_id"], ann["iscrowd"]])
    return {iid: np.asarray(r, dtype=float).reshape(-1, 6) for iid, r in rows.items()}


def _random_boxes(rng, n, width, height, lo=8.0, hi_frac=0.9):
    """Log-uniform sides and log-normal aspect, placed inside the canvas (xywh)."""
    hi = max(lo + 1.0, hi_frac * min(width, height))
    side = lo * (hi / lo) ** rng.random(n)
    aspect = np.clip(np.exp(rng.normal(0.0, 0.4, n)), 1 / 3, 3.0)
    w = np.minimum(side * np.sqrt(aspect), 0.97 * width)
    h = np.minimum(side / np.sqrt(aspect), 0.97 * height)
    x = rng.random(n) * (width - w)
    y = rng.random(n) * (height - h)
    return np.stack([x, y, w, h], axis=1)


def _jitter(rng, boxes, width, height, scale=0.1):
    """Jittered copies of xywh boxes, clipped to the canvas."""
    out = boxes.copy()
    out[:, 0] += rng.normal(0.0, scale, len(out)) * boxes[:, 2]
    out[:, 1] += rng.normal(0.0, scale, len(out)) * boxes[:, 3]
    out[:, 2] *= np.exp(rng.normal(0.0, 1.5 * scale, len(out)))
    out[:, 3] *= np.exp(rng.normal(0.0, 1.5 * scale, len(out)))
    return _clip_xywh(out, width, height)


def _clip_xywh(boxes, width, height, min_side=1.0):
    x1 = np.clip(boxes[:, 0], 0.0, width - min_side)
    y1 = np.clip(boxes[:, 1], 0.0, height - min_side)
    x2 = np.clip(boxes[:, 0] + boxes[:, 2], x1 + min_side, width)
    y2 = np.clip(boxes[:, 1] + boxes[:, 3], y1 + min_side, height)
    return np.stack([x1, y1, x2 - x1, y2 - y1], axis=1)


def _bbox_list(row) -> list[float]:
    return [round(float(v), 2) for v in row]


def make_proposals(rng, coco: dict, gts: dict[int, np.ndarray]) -> list[dict]:
    """RPN-like proposals: jittered ground truth plus log-uniform random boxes."""
    out = []
    for image in coco["images"]:
        iid, w, h = image["id"], image["width"], image["height"]
        boxes = gts[iid][:, :4]
        n_jitter = min(PROPOSALS_PER_IMAGE // 2, 5 * len(boxes))
        parts = []
        if n_jitter:
            parts.append(_jitter(rng, boxes[rng.integers(0, len(boxes), n_jitter)], w, h))
        parts.append(_random_boxes(rng, PROPOSALS_PER_IMAGE - n_jitter, w, h))
        scores = rng.random(PROPOSALS_PER_IMAGE)
        for row, score in zip(np.concatenate(parts), scores):
            out.append({"image_id": iid, "bbox": _bbox_list(row), "score": round(float(score), 4)})
    return out


def focus_cells(boxes_xyxy: np.ndarray, width: int, height: int, stride: int,
                min_side: float, max_side: float) -> np.ndarray:
    """Cells whose pixel block overlaps a box with min_side < sqrt(area) < max_side."""
    grid = np.zeros((math.ceil(height / stride), math.ceil(width / stride)), dtype=bool)
    side = np.sqrt((boxes_xyxy[:, 2] - boxes_xyxy[:, 0]) * (boxes_xyxy[:, 3] - boxes_xyxy[:, 1]))
    for x1, y1, x2, y2 in boxes_xyxy[(side > min_side) & (side < max_side)]:
        grid[int(y1 // stride):math.ceil(y2 / stride), int(x1 // stride):math.ceil(x2 / stride)] = True
    return grid


def make_prob_map(rng, focus: np.ndarray) -> np.ndarray:
    """float32 map: low background, noise cells, a few blobs, high focus cells."""
    h, w = focus.shape
    p = rng.uniform(0.0, 0.35, (h, w))
    noise = rng.random((h, w)) < MAP_NOISE_CELLS
    p[noise] = rng.uniform(0.5, 0.95, int(noise.sum()))
    ii, jj = np.mgrid[0:h, 0:w]
    for _ in range(int(rng.integers(0, 4))):
        ci, cj = rng.uniform(0, h), rng.uniform(0, w)
        radius, peak = rng.uniform(0.8, 2.5), rng.uniform(0.6, 1.0)
        p = np.maximum(p, peak * np.exp(-((ii - ci) ** 2 + (jj - cj) ** 2) / (2 * radius**2)))
    p[focus] = rng.uniform(0.55, 1.0, int(focus.sum()))
    return p.astype(np.float32)


def write_fmap(path: Path, cells: np.ndarray, stride: int, width: int, height: int) -> None:
    header = FMAP_HEADER.pack(b"FMAP", cells.shape[1], cells.shape[0], stride, width, height, b"f4")
    path.write_bytes(header + np.ascontiguousarray(cells, dtype="<f4").tobytes())


def _det_entries(rng, boxes_xywh, classes) -> list[dict]:
    scores = rng.uniform(0.01, 1.0, len(boxes_xywh))
    return [
        {"bbox": _bbox_list(b), "score": round(float(s), 4), "category_id": int(c)}
        for b, s, c in zip(boxes_xywh, scores, classes)
    ]


def _gt_dets(rng, gt, fx, fy, width, height, n_total):
    """Jittered ground truth (two copies each, capped) plus random boxes, xywh."""
    boxes = gt[:, :4] * [fx, fy, fx, fy]
    classes = (gt[:, 4].astype(int) - 1) % DET_CLASSES + 1
    n_gt = min(len(boxes) * 2, n_total // 2)
    pick = rng.integers(0, len(boxes), n_gt) if len(boxes) else np.zeros(0, dtype=int)
    jittered = _jitter(rng, boxes[pick], width, height) if n_gt else np.zeros((0, 4))
    rand = _random_boxes(rng, n_total - n_gt, width, height, lo=6.0)
    rand_classes = rng.integers(1, DET_CLASSES + 1, n_total - n_gt)
    return np.concatenate([jittered, rand]), np.concatenate([classes[pick], rand_classes])


def make_detections(rng, coco: dict, gts: dict[int, np.ndarray]) -> list[dict]:
    """Per-chip detection records at three levels.

    Level 0 is a full pass (``chip`` null). Levels 1 and 2 hold chips placed on
    ground-truth objects, with chip-local detections of which a share sits
    flush against a chip border. Crowded images add one dense class at level 0.
    """
    pyramid = coco_default().pyramid
    records = []
    for image in coco["images"]:
        iid, w, h = image["id"], image["width"], image["height"]
        gt = gts[iid]
        spec0 = pyramid[0]
        cw, ch = canvas_size(spec0, w, h)
        boxes, classes = _gt_dets(rng, gt, cw / w, ch / h, cw, ch, FULL_PASS_DETS)
        if iid % CROWD_EVERY == 0:
            centers = _random_boxes(rng, 4, cw, ch, lo=40.0, hi_frac=0.5)
            crowd = centers[rng.integers(0, 4, CROWD_BOXES)]
            boxes = np.concatenate([boxes, _jitter(rng, crowd, cw, ch, scale=0.15)])
            classes = np.concatenate([classes, np.ones(CROWD_BOXES, dtype=int)])
        records.append({
            "image_id": iid, "scale_id": spec0.scale_id,
            "canvas": {"width": cw, "height": ch}, "chip": None,
            "detections": _det_entries(rng, boxes, classes),
        })
        for spec in pyramid[1:]:
            cw, ch = canvas_size(spec, w, h)
            fx, fy = cw / w, ch / h
            for _ in range(CHIPS_PER_LEVEL):
                if len(gt):
                    g = gt[rng.integers(0, len(gt))]
                    cx, cy = (g[0] + g[2] / 2) * fx, (g[1] + g[3] / 2) * fy
                else:
                    cx, cy = rng.uniform(0, cw), rng.uniform(0, ch)
                side_x, side_y = min(CHIP_SIDE, cw), min(CHIP_SIDE, ch)
                x1 = int(np.clip(cx - side_x / 2, 0, cw - side_x))
                y1 = int(np.clip(cy - side_y / 2, 0, ch - side_y))
                chip_w, chip_h = side_x, side_y
                local = gt * [fx, fy, fx, fy, 1, 1]
                local[:, 0] -= x1
                local[:, 1] -= y1
                cx_l = local[:, 0] + local[:, 2] / 2
                cy_l = local[:, 1] + local[:, 3] / 2
                local = local[(cx_l >= 0) & (cx_l <= chip_w) & (cy_l >= 0) & (cy_l <= chip_h)]
                boxes, classes = _gt_dets(rng, local, 1.0, 1.0, chip_w, chip_h, CHIP_DETS)
                flush = rng.random(len(boxes)) < FLUSH_SHARE
                side = rng.integers(0, 4, len(boxes))
                boxes[flush & (side == 0), 0] = 0.0
                boxes[flush & (side == 1), 1] = 0.0
                right = flush & (side == 2)
                boxes[right, 0] = chip_w - boxes[right, 2]
                bottom = flush & (side == 3)
                boxes[bottom, 1] = chip_h - boxes[bottom, 3]
                records.append({
                    "image_id": iid, "scale_id": spec.scale_id,
                    "canvas": {"width": cw, "height": ch},
                    "chip": [x1, y1, x1 + chip_w, y1 + chip_h],
                    "detections": _det_entries(rng, boxes, classes),
                })
    return records


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data))


def generate(root: Path, workload: str, seed: int, workdir: Path) -> Inputs:
    """Write one workload's inputs under ``workdir`` and list its commands."""
    if workload not in N_IMAGES:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(N_IMAGES)}")
    rng = np.random.default_rng([seed, sorted(N_IMAGES).index(workload)])
    cfg = coco_default()
    coco = make_coco(root, rng, N_IMAGES[workload])
    gts = gt_by_image(coco)
    inp, out = workdir / "inputs", workdir / "outputs"
    inp.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    ann = inp / "instances.json"
    _write_json(ann, coco)
    inputs = Inputs(workload, seed, coco)
    o = {name: out / f"{name}.json" for name in (
        "positive", "diagnostics", "negative", "focus_chips", "stack_gaussian",
        "stack_hard", "speedup", "focuspixels", "roiscale", "areafractions")}
    if workload == "train-chips":
        props = inp / "proposals.json"
        _write_json(props, make_proposals(rng, coco, gts))
        inputs.commands = [
            ("chips_positive", ["chips", "positive", "--annotations", str(ann),
                                "--out", str(o["positive"]), "--diagnostics", str(o["diagnostics"])]),
            ("chips_negative", ["chips", "negative", "--annotations", str(ann),
                                "--proposals", str(props), "--out", str(o["negative"])]),
        ]
        inputs.outputs = {"chips_positive": [o["positive"], o["diagnostics"]],
                          "chips_negative": [o["negative"]]}
    elif workload == "focus-infer":
        map_dir = inp / "probmaps"
        map_dir.mkdir()
        for image in coco["images"]:
            iid, w, h = image["id"], image["width"], image["height"]
            g = gts[iid]
            xyxy = np.stack([g[:, 0], g[:, 1], g[:, 0] + g[:, 2], g[:, 1] + g[:, 3]], axis=1)
            xyxy = np.clip(xyxy, 0, [w, h, w, h])
            for spec in cfg.pyramid[1:]:
                cw, ch = canvas_size(spec, w, h)
                focus = focus_cells(xyxy * [cw / w, ch / h, cw / w, ch / h], cw, ch,
                                    cfg.stride, cfg.focus_min_side, cfg.focus_max_side)
                prob = make_prob_map(rng, focus)
                inputs.prob_maps[(iid, spec.scale_id)] = prob
                write_fmap(map_dir / f"{iid}_s{spec.scale_id}.fmap", prob, cfg.stride, cw, ch)
        dets = inp / "detections.json"
        _write_json(dets, make_detections(rng, coco, gts))
        hard_cfg = inp / "hard.json"
        _write_json(hard_cfg, {"profile": "coco-default", "merge": {"mode": "hard"}})
        stack = ["stack", "--annotations", str(ann), "--detections", str(dets)]
        inputs.commands = [
            ("focus_chips", ["focus", "chips", "--probmaps", str(map_dir), "--out", str(o["focus_chips"])]),
            ("stack_gaussian", stack + ["--out", str(o["stack_gaussian"])]),
            ("stack_hard", stack + ["--config", str(hard_cfg), "--out", str(o["stack_hard"])]),
        ]
        inputs.outputs = {k: [o[k]] for k in ("focus_chips", "stack_gaussian", "stack_hard")}
    else:
        stats = ["--annotations", str(ann)]
        inputs.commands = [
            ("stats_speedup", ["stats", "speedup", *stats, "--k", STATS_KS, "--out", str(o["speedup"])]),
            ("stats_focuspixels", ["stats", "focuspixels", *stats, "--out", str(o["focuspixels"])]),
            ("stats_roiscale", ["stats", "roiscale", *stats, "--out", str(o["roiscale"])]),
            ("stats_areafractions", ["stats", "areafractions", *stats, "--out", str(o["areafractions"])]),
        ]
        inputs.outputs = {label: [o[label.split("_", 1)[1]]] for label, _ in inputs.commands}
    return inputs
