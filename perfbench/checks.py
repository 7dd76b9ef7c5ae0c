"""Output checks for every benchmark command, independent of the program.

Each check reads the files a command wrote and returns a list of problems
(empty when the output is correct). Geometry is recomputed here with numpy;
only parameters (pyramid, thresholds, merge policy) come from the program's
default profile. ``fingerprint`` gives a canonical digest of an output file
with floats rounded to 10 significant digits (1e-9 relative), so a justified
ulp-level change, such as in soft-NMS scores, does not change the digest.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from pyrsample.config import coco_default

from workloads import STATS_KS, Inputs, canvas_size, gt_by_image

TOL = 1e-6
MAX_PROBLEMS = 5


def _load(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _canonical(value):
    if isinstance(value, float):
        return float(f"{value:.9e}") if math.isfinite(value) else repr(value)
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    return value


def fingerprint(path: Path) -> str:
    text = json.dumps(_canonical(_load(path)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _effective_range(spec) -> tuple[float, float]:
    lo, hi = spec.valid_range
    return (0.0 if spec.absorb_below else lo, math.inf if spec.absorb_above else hi)


def _gt_xyxy(gt: np.ndarray, width: int, height: int) -> np.ndarray:
    """Corner boxes clamped to the image, as the loader does."""
    x1, y1 = gt[:, 0], gt[:, 1]
    x2, y2 = x1 + gt[:, 2], y1 + gt[:, 3]
    return np.stack([np.clip(x1, 0.0, width), np.clip(y1, 0.0, height),
                     np.clip(x2, 0.0, width), np.clip(y2, 0.0, height)], axis=1)


def _encloses(rects: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """(n_boxes,) True where some rect contains the box (closed)."""
    if len(rects) == 0 or len(boxes) == 0:
        return np.zeros(len(boxes), dtype=bool)
    return (
        (rects[:, None, 0] <= boxes[None, :, 0]) & (rects[:, None, 1] <= boxes[None, :, 1])
        & (rects[:, None, 2] >= boxes[None, :, 2]) & (rects[:, None, 3] >= boxes[None, :, 3])
    ).any(axis=0)


def check_positive(inputs: Inputs, chips_path: Path, diag_path: Path) -> list[str]:
    """Every valid non-crowd box is enclosed by a chip of its level or listed."""
    problems = []
    records, diags = _load(chips_path), _load(diag_path)
    listed = {(d["image_id"], d["gt_id"], d["scale_id"]) for d in diags}
    rects = defaultdict(list)
    for r in records:
        if r["kind"] != "positive":
            problems.append(f"chip of kind {r['kind']!r} in positive output")
        rects[(r["image_id"], r["scale_id"])].append(r["rect"])
    gts = gt_by_image(inputs.coco)
    for image in inputs.coco["images"]:
        iid, w, h = image["id"], image["width"], image["height"]
        boxes = _gt_xyxy(gts[iid], w, h)
        crowd = gts[iid][:, 5] > 0
        for spec in coco_default().pyramid:
            cw, ch = canvas_size(spec, w, h)
            scaled = boxes * [cw / w, ch / h, cw / w, ch / h]
            area = (scaled[:, 2] - scaled[:, 0]) * (scaled[:, 3] - scaled[:, 1])
            lo, hi = _effective_range(spec)
            valid = ~crowd & (area > lo) & (area < hi)
            level_rects = np.asarray(rects.get((iid, spec.scale_id), []), dtype=float).reshape(-1, 4)
            missed = valid & ~_encloses(level_rects, scaled)
            for gt_id in np.nonzero(missed)[0]:
                if (iid, int(gt_id), spec.scale_id) not in listed:
                    problems.append(
                        f"image {iid} gt {gt_id} valid at scale {spec.scale_id} "
                        "is in no positive chip and not in diagnostics")
    return problems


def check_negative(inputs: Inputs, path: Path) -> list[str]:
    """Sampled negatives are a subset of the pool, at most n per image."""
    data = _load(path)
    n_max = coco_default().n_negative_per_image

    def key(r):
        return (r["image_id"], r["scale_id"], tuple(r["rect"]), r["kind"])

    pool = {key(r) for r in data["pool"]}
    problems = [f"sampled chip {key(r)} not in pool" for r in data["sampled"] if key(r) not in pool]
    problems += [f"pool chip of kind {r['kind']!r}" for r in data["pool"] if r["kind"] != "negative"]
    per_image = defaultdict(int)
    for r in data["sampled"]:
        per_image[r["image_id"]] += 1
    problems += [f"image {i}: {n} sampled > {n_max}" for i, n in per_image.items() if n > n_max]
    return problems


def _dilate(mask: np.ndarray, size: int) -> np.ndarray:
    r = size // 2
    padded = np.pad(mask, r)
    out = np.zeros_like(mask)
    h, w = mask.shape
    for dy in range(size):
        for dx in range(size):
            out |= padded[dy:dy + h, dx:dx + w]
    return out


def check_focus_chips(inputs: Inputs, path: Path) -> list[str]:
    """Chips are pairwise disjoint, meet the minimum side, and contain every
    thresholded and dilated cell of their map."""
    problems = []
    cfg = coco_default()
    params, stride = cfg.focus_params, cfg.stride
    chips = defaultdict(list)
    for r in _load(path):
        if r["kind"] != "focus":
            problems.append(f"chip of kind {r['kind']!r} in focus output")
        chips[(r["image_id"], r["scale_id"])].append(r["rect"])
    sizes = {img["id"]: (img["width"], img["height"]) for img in inputs.coco["images"]}
    spec_by_id = {s.scale_id: s for s in cfg.pyramid}
    for (iid, sid), prob in inputs.prob_maps.items():
        cw, ch = canvas_size(spec_by_id[sid], *sizes[iid])
        rects = np.asarray(chips.pop((iid, sid), []), dtype=float).reshape(-1, 4)
        on = prob > params.threshold if params.strict_threshold else prob >= params.threshold
        ii, jj = np.nonzero(_dilate(on, params.dilation))
        blocks = np.stack([jj * stride, ii * stride,
                           np.minimum((jj + 1) * stride, cw), np.minimum((ii + 1) * stride, ch)],
                          axis=1).astype(float)
        uncovered = int((~_encloses(rects, blocks)).sum())
        if uncovered:
            problems.append(f"map {iid}_s{sid}: {uncovered} on-cells outside every chip")
        wd, ht = rects[:, 2] - rects[:, 0], rects[:, 3] - rects[:, 1]
        if ((wd < min(params.min_chip_size, cw) - TOL) | (ht < min(params.min_chip_size, ch) - TOL)).any():
            problems.append(f"map {iid}_s{sid}: chip below the minimum side")
        if ((rects[:, :2] < -TOL).any() or (rects[:, 2] > cw + TOL).any()
                or (rects[:, 3] > ch + TOL).any()):
            problems.append(f"map {iid}_s{sid}: chip outside the canvas")
        ix = np.minimum(rects[:, None, 2], rects[None, :, 2]) - np.maximum(rects[:, None, 0], rects[None, :, 0])
        iy = np.minimum(rects[:, None, 3], rects[None, :, 3]) - np.maximum(rects[:, None, 1], rects[None, :, 1])
        overlap = (ix > 0) & (iy > 0)
        np.fill_diagonal(overlap, False)
        if overlap.any():
            problems.append(f"map {iid}_s{sid}: {int(overlap.sum()) // 2} overlapping chip pairs")
    problems += [f"chips for unknown map {k}" for k in chips]
    return problems


def _iou_matrix(b: np.ndarray) -> np.ndarray:
    x1, y1, x2, y2 = b[:, 0], b[:, 1], b[:, 0] + b[:, 2], b[:, 1] + b[:, 3]
    ix = np.minimum(x2[:, None], x2[None]) - np.maximum(x1[:, None], x1[None])
    iy = np.minimum(y2[:, None], y2[None]) - np.maximum(y1[:, None], y1[None])
    inter = np.where((ix > 0) & (iy > 0), ix * iy, 0.0)
    area = b[:, 2] * b[:, 3]
    union = area[:, None] + area[None] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def check_stack(inputs: Inputs, path: Path, hard: bool) -> list[str]:
    """Per image sorted by score and at or above the score floor; for hard
    NMS no same-class pair of one image above the IoU threshold."""
    policy = coco_default().merge
    records = _load(path)
    if not records:
        return ["no merged detections"]
    problems = []
    ids = np.array([r["image_id"] for r in records])
    scores = np.array([r["score"] for r in records])
    if (np.diff(ids) < 0).any():
        problems.append("images not in ascending id order")
    if ((np.diff(ids) == 0) & (np.diff(scores) > 0)).any():
        problems.append("detections of an image not sorted by descending score")
    if (scores < policy.score_floor).any() or (scores > 1.0).any():
        problems.append(f"scores outside [{policy.score_floor}, 1]")
    images = {img["id"] for img in inputs.coco["images"]}
    if not set(ids.tolist()) <= images:
        problems.append("detection for an unknown image")
    if hard:
        groups = defaultdict(list)
        for r in records:
            groups[(r["image_id"], r["category_id"])].append(r["bbox"])
        for (iid, cls), boxes in groups.items():
            if len(boxes) < 2:
                continue
            iou = _iou_matrix(np.asarray(boxes, dtype=float))
            np.fill_diagonal(iou, 0.0)
            if (iou > policy.iou_threshold + 1e-9).any():
                problems.append(f"image {iid} class {cls}: kept pair above IoU {policy.iou_threshold}")
    return problems


def _n_annotations(inputs: Inputs) -> int:
    return len(inputs.coco["annotations"])


def check_speedup(inputs: Inputs, path: Path, ks: list[int]) -> list[str]:
    curve = _load(path)["curve"]
    if [k for k, _ in curve] != ks:
        return [f"speed-up curve has k values {[k for k, _ in curve]}, expected {ks}"]
    return [f"k={k}: speed-up {s} below 1" for k, s in curve if not s >= 1.0 - 1e-12]


def check_focuspixels(inputs: Inputs, path: Path) -> list[str]:
    """Fractions ordered in [0, 1]; mean canvas area recomputed exactly."""
    data = _load(path)
    problems = []
    sizes = [(img["width"], img["height"]) for img in inputs.coco["images"]]
    for spec in coco_default().pyramid:
        s = data.get(str(spec.scale_id))
        if s is None:
            problems.append(f"no focus-pixel stats for scale {spec.scale_id}")
            continue
        if not 0.0 <= s["fraction"] <= s["fraction_dilated"] <= 1.0:
            problems.append(f"scale {spec.scale_id}: fractions out of order")
        mean_area = sum(w * h for w, h in (canvas_size(spec, *wh) for wh in sizes)) / len(sizes)
        if s["mean_canvas_area"] != mean_area:
            problems.append(f"scale {spec.scale_id}: mean canvas area {s['mean_canvas_area']} != {mean_area}")
    return problems


def check_roiscale(inputs: Inputs, path: Path) -> list[str]:
    data = _load(path)
    problems = []
    if data["n_instances"] != _n_annotations(inputs):
        problems.append(f"roi scale counts {data['n_instances']} of {_n_annotations(inputs)} instances")
    if abs(sum(data["fractions"]) - 1.0) > 1e-9:
        problems.append("roi scale fractions do not sum to 1")
    if (np.diff(data["deciles"]) < 0).any():
        problems.append("roi scale deciles not increasing")
    return problems


def check_areafractions(inputs: Inputs, path: Path) -> list[str]:
    data = _load(path)
    problems = []
    if sum(b["n_instances"] for b in data.values()) != _n_annotations(inputs):
        problems.append("size bands do not partition the instances")
    if abs(sum(b["instance_fraction"] for b in data.values()) - 1.0) > 1e-9:
        problems.append("instance fractions do not sum to 1")
    return problems


def check_command(inputs: Inputs, label: str) -> list[str]:
    """Run the check belonging to one command label on its written outputs."""
    out = inputs.outputs[label]
    if label == "chips_positive":
        return check_positive(inputs, out[0], out[1])
    if label == "chips_negative":
        return check_negative(inputs, out[0])
    if label == "focus_chips":
        return check_focus_chips(inputs, out[0])
    if label in ("stack_gaussian", "stack_hard"):
        return check_stack(inputs, out[0], hard=label == "stack_hard")
    if label == "stats_speedup":
        argv = dict(inputs.commands)[label]
        return check_speedup(inputs, out[0], [int(k) for k in argv[argv.index("--k") + 1].split(",")])
    if label == "stats_focuspixels":
        return check_focuspixels(inputs, out[0])
    if label == "stats_roiscale":
        return check_roiscale(inputs, out[0])
    if label == "stats_areafractions":
        return check_areafractions(inputs, out[0])
    raise ValueError(f"no check for command {label!r}")


def excerpt_commands(root: Path, workdir: Path) -> list[tuple[str, list[str], Path]]:
    """Commands run once per invocation on the bundled excerpt."""
    excerpt = str(root / "src" / "pyrsample" / "data" / "excerpt_200.json")
    workdir.mkdir(parents=True, exist_ok=True)
    cmds = []
    for which in ("roiscale", "areafractions", "focuspixels", "speedup"):
        out = workdir / f"excerpt_{which}.json"
        argv = ["stats", which, "--annotations", excerpt, "--out", str(out)]
        if which == "speedup":
            argv += ["--k", STATS_KS]
        cmds.append((f"excerpt_{which}", argv, out))
    out = workdir / "excerpt_positive.json"
    argv = ["chips", "positive", "--annotations", excerpt, "--out", str(out),
            "--diagnostics", str(workdir / "excerpt_diagnostics.json")]
    cmds.append(("excerpt_positive", argv, out))
    return cmds


def check_excerpt(root: Path, label: str, out: Path) -> list[str]:
    """Exact equality with the frozen reference values of the bundled excerpt."""
    ref = _load(root / "tests" / "data" / "excerpt_reference.json")
    data = _load(out)
    if label == "excerpt_roiscale":
        # The frozen deciles come from the oracle's a*(1-f) + b*f interpolation
        # and numpy's differs from it by a few ulp, so the deciles and their
        # spread compare at 1e-12 relative; every other frozen value must
        # match exactly.
        got = data["deciles"] + [data["decile_spread"]]
        want = ref["roi_scale"]["deciles"] + [ref["roi_scale"]["decile_spread"]]
        if len(got) == len(want) and all(math.isclose(g, w, rel_tol=1e-12) for g, w in zip(got, want)):
            return []
        return [f"{label}: {got} != frozen reference {want}"]
    if label == "excerpt_areafractions":
        got = {k: {"area_fraction": v["area_fraction"], "instance_fraction": v["instance_fraction"]}
               for k, v in data.items()}
        want = ref["size_bands"]
    elif label == "excerpt_focuspixels":
        got, want = data, ref["focus_pixels"]
    elif label == "excerpt_speedup":
        got, want = {str(k): s for k, s in data["curve"]}, ref["speedup"]
    else:
        diags = _load(out.parent / "excerpt_diagnostics.json")
        got = {"mean_per_image": len(data) / ref["n_images"], "n_uncoverable": len(diags)}
        want = ref["positive_chips"]
    return [] if got == want else [f"{label}: {got} != frozen reference {want}"]
