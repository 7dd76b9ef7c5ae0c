"""Command-line interface composing the library into end-to-end runs.

Commands cover chip generation from annotations and proposals, focus label
map export, chip generation from probability maps, cross-scale stacking of
per-chip detections, dataset statistics, config validation, and a VOC to
COCO converter. Failures exit nonzero with a one-line JSON error record on
stderr; outputs are written atomically.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import serialization as ser
from .chips import (
    Chip,
    sample_negative_chips,
    select_negative_chips,
    select_positive_chips,
)
from .config import ConfigError, PipelineConfig, config_to_dict, load_config, validate_config
from .costing import (
    roi_scale_histogram,
    size_area_fractions,
    speedup_upper_bound,
)
from .dataset import DatasetError, DatasetIndex, load_dataset, voc_to_coco
from .focus_chips import FocusParams, generate_focus_chips
from .focus_labels import LabelMap, focus_label_cells, focus_pixel_stats
from .geometry import BoundingBox, DetectionBatch, ImageSize, boxes_array
from .range_labels import filter_detections_by_range
from .serialization import FormatError
from .stacking import merge_detections, project_to_image, prune_boundary_detections

WORKERS_ENV = "PYRSAMPLE_WORKERS"

_MAP_NAME = re.compile(r"^(?P<image_id>\d+)_s(?P<scale_id>\d+)\.fmap$")


def _workers() -> int:
    """Worker processes from ``PYRSAMPLE_WORKERS``, clamped to [1, cpu count]."""
    try:
        requested = int(os.environ.get(WORKERS_ENV, "1"))
    except ValueError:
        return 1
    return max(1, min(requested, os.cpu_count() or 1))


def _positive_worker(payload):
    image_id, gts, size, pyramid = payload
    chips, diagnostics = select_positive_chips(gts, pyramid, size)
    return image_id, chips, diagnostics


def _map_over_images(fn, payloads):
    n = _workers()
    if n <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, payloads, chunksize=8))


def cmd_chips_positive(args) -> int:
    cfg = load_config(args.config)
    index = load_dataset(args.annotations)
    payloads = [
        (iid, index.annotations[iid], index.images[iid].size, cfg.pyramid)
        for iid in index.image_ids
    ]
    records = []
    skipped = []
    for image_id, chips, diagnostics in _map_over_images(_positive_worker, payloads):
        records.extend(ser.chip_to_record(c, image_id) for c in chips)
        skipped.extend(
            {
                "image_id": image_id,
                "gt_id": d.gt_id,
                "scale_id": d.scale_id,
                "resized_box": list(d.resized_box.as_tuple()),
            }
            for d in diagnostics
        )
    ser.save_chip_records(args.out, records)
    if args.diagnostics:
        ser.save_uncoverable_records(args.diagnostics, skipped)
    print(f"wrote {len(records)} positive chips for {len(payloads)} images to {args.out}")
    if skipped:
        print(f"{len(skipped)} valid boxes fit no chip (see --diagnostics)", file=sys.stderr)
    return 0


def cmd_chips_negative(args) -> int:
    cfg = load_config(args.config)
    index = load_dataset(args.annotations, proposals_path=args.proposals)
    pool_records = []
    sampled_records = []
    for iid in index.image_ids:
        size = index.images[iid].size
        positives, _ = select_positive_chips(index.annotations[iid], cfg.pyramid, size)
        proposals = index.proposals.get(iid)
        if proposals is None or not len(proposals.boxes):
            continue
        pool = select_negative_chips(
            proposals,
            positives,
            cfg.pyramid,
            size,
            min_proposals=cfg.min_neg_proposals,
            membership=cfg.negative_membership,
        )
        sampled = sample_negative_chips(pool, cfg.n_negative_per_image, seed=cfg.seed + iid)
        pool_records.extend(ser.chip_to_record(c, iid) for c in pool)
        sampled_records.extend(ser.chip_to_record(c, iid) for c in sampled)
    ser.save_negative_chip_records(args.out, pool_records, sampled_records)
    print(
        f"wrote {len(pool_records)} pool / {len(sampled_records)} sampled negative chips "
        f"to {args.out}"
    )
    return 0


def _focus_labels_worker(payload):
    image_id, gts, original, spec, stride, thresholds = payload
    canvas = spec.resolve(original)
    cells = focus_label_cells(
        boxes_array(g.box for g in gts), original, canvas, stride, *thresholds
    )
    return image_id, LabelMap(cells, stride, canvas, *thresholds)


def cmd_focus_labels(args) -> int:
    cfg = load_config(args.config)
    index = load_dataset(args.annotations)
    by_id = {s.scale_id: s for s in cfg.pyramid}
    if args.scale not in by_id:
        raise ConfigError(f"scale {args.scale} not in pyramid {sorted(by_id)}")
    spec = by_id[args.scale]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    thresholds = (cfg.focus_min_side, cfg.focus_max_side, cfg.focus_ignore_max_side)
    payloads = [
        (iid, index.annotations[iid], index.images[iid].size, spec, cfg.stride, thresholds)
        for iid in index.image_ids
    ]
    for image_id, label_map in _map_over_images(_focus_labels_worker, payloads):
        path = out_dir / f"{image_id}_s{args.scale}.fmap"
        ser.write_map_binary(path, label_map)
        if args.json:
            ser.atomic_write_text(
                path.with_suffix(".json"),
                json.dumps(ser.map_to_debug_json(label_map), sort_keys=True) + "\n",
            )
    print(f"wrote {len(payloads)} label maps to {out_dir}")
    return 0


def cmd_focus_chips(args) -> int:
    cfg = load_config(args.config)
    params = FocusParams(
        threshold=args.threshold if args.threshold is not None else cfg.focus_params.threshold,
        dilation=args.dilation if args.dilation is not None else cfg.focus_params.dilation,
        min_chip_size=(
            args.min_chip_size
            if args.min_chip_size is not None
            else cfg.focus_params.min_chip_size
        ),
        strict_threshold=cfg.focus_params.strict_threshold,
    )
    prob_dir = Path(args.probmaps)
    records = []
    n_maps = 0
    for path in sorted(prob_dir.glob("*.fmap")):
        match = _MAP_NAME.match(path.name)
        if not match:
            continue
        image_id = int(match.group("image_id"))
        scale_id = int(match.group("scale_id"))
        prob = ser.read_map_binary(path)
        chips = generate_focus_chips(prob, params, prob.image)  # type: ignore[arg-type]
        n_maps += 1
        records.extend(
            ser.chip_to_record(Chip(rect=rect, scale_id=scale_id, kind="focus"), image_id)
            for rect in chips
        )
    ser.save_chip_records(args.out, records)
    print(f"wrote {len(records)} focus chips from {n_maps} maps to {args.out}")
    return 0


def _load_stack_records(path: Path) -> list[dict]:
    if path.is_dir():
        records = []
        for child in sorted(path.glob("*.json")):
            with open(child, "r", encoding="utf-8") as fh:
                part = json.load(fh)
            if not isinstance(part, list):
                raise FormatError(f"{child}: per-chip detection file must be a JSON array")
            records.extend(part)
        return records
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise FormatError(f"{path}: per-chip detection file must be a JSON array")
    return data


def _read_stack_record(record) -> tuple[int, int, ImageSize, BoundingBox, DetectionBatch]:
    """Image id, scale id, canvas, chip and the chip's detections, translated
    from chip-local to canvas coordinates, of one per-chip record."""
    image_id = int(record["image_id"])
    scale_id = int(record["scale_id"])
    canvas = ImageSize(int(record["canvas"]["width"]), int(record["canvas"]["height"]))
    if record.get("chip") is None:
        chip = BoundingBox(0.0, 0.0, canvas.width, canvas.height)
    else:
        corners = np.array(record["chip"], dtype=np.float64)
        if corners.shape != (4,) or not np.isfinite(corners).all():
            raise ValueError(f"chip must be four finite numbers: {record['chip']!r}")
        chip = BoundingBox(*corners.tolist())
    entries = record.get("detections", [])
    n = len(entries)
    if n == 0:
        return image_id, scale_id, canvas, chip, DetectionBatch.empty()
    xywh = np.array([entry["bbox"] for entry in entries], dtype=np.float64)
    scores = np.array([entry["score"] for entry in entries], dtype=np.float64)
    class_ids = np.array([int(entry["category_id"]) for entry in entries], dtype=np.int64)
    if xywh.shape != (n, 4) or scores.shape != (n,):
        raise ValueError("each detection needs a bbox [x, y, w, h] and one score")
    corners = np.concatenate([xywh[:, :2], xywh[:, :2] + xywh[:, 2:]], axis=1)
    problems = (
        (~np.isfinite(xywh).all(axis=1), "bbox coordinates must be finite"),
        ((corners[:, 2] < corners[:, 0]) | (corners[:, 3] < corners[:, 1]),
         "bbox width and height must be non-negative"),
        (~((0.0 <= scores) & (scores <= 1.0)), "score must be in [0, 1]"),
    )
    for bad, message in problems:
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(f"detection {k}: {message}: {entries[k]!r}")
    boxes = corners + (chip.x1, chip.y1, chip.x1, chip.y1)
    return image_id, scale_id, canvas, chip, DetectionBatch(boxes, scores, class_ids)


def _stack(records: list, cfg: PipelineConfig, index: DatasetIndex, source) -> list[dict]:
    """Prune, range-filter and project each per-chip record's detections,
    then merge them per image; COCO-results records, image by image."""
    by_scale = {s.scale_id: s for s in cfg.pyramid}
    per_image: dict[int, dict[int, list[DetectionBatch]]] = {}
    for position, record in enumerate(records):
        try:
            image_id, scale_id, canvas, chip, dets = _read_stack_record(record)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            problem = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise FormatError(f"{source}: record {position}: {problem}") from exc
        if image_id not in index.images:
            raise FormatError(f"detections reference unknown image id {image_id}")
        if scale_id not in by_scale:
            raise FormatError(f"detections reference unknown scale id {scale_id}")
        dets = prune_boundary_detections(dets, chip, canvas, eps=cfg.boundary_eps)
        dets = filter_detections_by_range(dets, by_scale[scale_id])
        dets = project_to_image(dets, canvas, (0.0, 0.0), index.images[image_id].size)
        per_image.setdefault(image_id, {}).setdefault(scale_id, []).append(dets)
    out_records = []
    for image_id in sorted(per_image):
        by_scale_id = per_image[image_id]
        groups = [batch for sid in sorted(by_scale_id) for batch in by_scale_id[sid]]
        out_records.extend(
            ser.detection_records(merge_detections(groups, cfg.merge), image_id)
        )
    return out_records


def cmd_stack(args) -> int:
    cfg = load_config(args.config)
    index = load_dataset(args.annotations)
    records = _load_stack_records(Path(args.detections))
    # Finite coordinates far outside any canvas can overflow to inf, which the
    # range filter then drops; numpy must not print a warning line for that.
    with np.errstate(over="ignore", invalid="ignore"):
        out_records = _stack(records, cfg, index, args.detections)
    ser.save_detection_records(args.out, out_records)
    print(f"wrote {len(out_records)} merged detections to {args.out}")
    return 0


def _stats_common(args) -> tuple[PipelineConfig, DatasetIndex, dict, dict]:
    cfg = load_config(args.config)
    index = load_dataset(args.annotations)
    return cfg, index, index.annotations, index.sizes()


def cmd_stats(args) -> int:
    cfg, index, gts, sizes = _stats_common(args)
    out = Path(args.out) if args.out else None
    dilation = cfg.focus_params.dilation if args.dilation is None else args.dilation
    if args.which == "roiscale":
        hist = roi_scale_histogram(gts, sizes, n_bins=args.bins)
        payload = {
            "n_instances": hist.n_instances,
            "deciles": [float(v) for v in hist.deciles],
            "decile_spread": hist.decile_spread,
            "bin_edges": [float(v) for v in hist.bin_edges],
            "fractions": [float(v) for v in hist.fractions],
        }
        if out:
            ser.atomic_write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        if args.curve:
            centers = [
                (float(a) + float(b)) / 2.0
                for a, b in zip(hist.bin_edges[:-1], hist.bin_edges[1:])
            ]
            ser.write_curve(
                args.curve,
                "relative-scale fraction-of-instances",
                zip(centers, (float(v) for v in hist.fractions)),
            )
        print(f"roi scale deciles: {[round(float(v), 4) for v in hist.deciles]}")
    elif args.which == "areafractions":
        bands = size_area_fractions(gts, sizes)
        payload = {
            band.name: {
                "instance_fraction": band.instance_fraction,
                "area_fraction": band.area_fraction,
                "n_instances": band.n_instances,
            }
            for band in bands
        }
        if out:
            ser.atomic_write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        for band in bands:
            print(
                f"{band.name}: {band.instance_fraction:.1%} of instances, "
                f"{band.area_fraction:.2%} of image area"
            )
    elif args.which == "focuspixels":
        stats = focus_pixel_stats(
            gts,
            sizes,
            cfg.pyramid,
            stride=cfg.stride,
            min_side=cfg.focus_min_side,
            max_side=cfg.focus_max_side,
            ignore_max_side=cfg.focus_ignore_max_side,
            dilation=dilation,
        )
        payload = {
            str(sid): {
                "fraction": s.fraction,
                "fraction_dilated": s.fraction_dilated,
                "mean_projected_area": s.mean_projected_area,
                "mean_canvas_area": s.mean_canvas_area,
            }
            for sid, s in stats.items()
        }
        if out:
            ser.atomic_write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        for sid, s in sorted(stats.items()):
            print(
                f"scale {sid}: {s.fraction:.2%} focus cells "
                f"({s.fraction_dilated:.2%} after {dilation}x{dilation} dilation)"
            )
    elif args.which == "speedup":
        ks = [int(v) for v in args.k.split(",")]
        curve = speedup_upper_bound(
            gts,
            sizes,
            cfg.pyramid,
            ks,
            stride=cfg.stride,
            min_side=cfg.focus_min_side,
            max_side=cfg.focus_max_side,
            ignore_max_side=cfg.focus_ignore_max_side,
            dilation=dilation,
            process_coarsest_fully=not args.chips_at_coarsest,
        )
        payload = {"curve": [[k, s] for k, s in curve]}
        if out:
            ser.atomic_write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        if args.curve:
            ser.write_curve(args.curve, "min-chip-size speedup", curve)
        for k, s in curve:
            print(f"k={k}: speedup {s:.2f}x")
    else:
        raise ConfigError(f"unknown stats report {args.which!r}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    warnings = validate_config(cfg)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"config ok: profile={cfg.profile}, {len(cfg.pyramid)} pyramid levels")
    return 0


def cmd_show_config(args) -> int:
    cfg = load_config(args.config)
    print(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True))
    return 0


def cmd_convert_voc(args) -> int:
    data = voc_to_coco(args.voc_dir)
    ser.atomic_write_text(args.out, json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(
        f"wrote {len(data['images'])} images / {len(data['annotations'])} annotations "
        f"to {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pyrsample",
        description="Scale-normalized image-pyramid sampling tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chips = sub.add_parser("chips", help="chip generation from annotations/proposals")
    chips_sub = chips.add_subparsers(dest="chips_command", required=True)
    pos = chips_sub.add_parser("positive", help="greedy positive chips per scale")
    pos.add_argument("--config", default=None)
    pos.add_argument("--annotations", required=True)
    pos.add_argument("--out", required=True)
    pos.add_argument("--diagnostics", default=None, help="JSON file for uncoverable boxes")
    pos.set_defaults(func=cmd_chips_positive)
    neg = chips_sub.add_parser("negative", help="proposal-driven negative chip pool")
    neg.add_argument("--config", default=None)
    neg.add_argument("--annotations", required=True)
    neg.add_argument("--proposals", required=True)
    neg.add_argument("--out", required=True)
    neg.set_defaults(func=cmd_chips_negative)

    focus = sub.add_parser("focus", help="focus label maps and focus chips")
    focus_sub = focus.add_subparsers(dest="focus_command", required=True)
    labels = focus_sub.add_parser("labels", help="write per-image label maps at one scale")
    labels.add_argument("--config", default=None)
    labels.add_argument("--annotations", required=True)
    labels.add_argument("--scale", type=int, required=True)
    labels.add_argument("--out", required=True, help="output directory")
    labels.add_argument("--json", action="store_true", help="also write JSON debug maps")
    labels.set_defaults(func=cmd_focus_labels)
    fchips = focus_sub.add_parser("chips", help="chips from probability maps")
    fchips.add_argument("--config", default=None)
    fchips.add_argument("--probmaps", required=True, help="directory of .fmap files")
    fchips.add_argument("--threshold", type=float, default=None)
    fchips.add_argument("--dilation", type=int, default=None)
    fchips.add_argument("--min-chip-size", type=int, default=None)
    fchips.add_argument("--out", required=True)
    fchips.set_defaults(func=cmd_focus_chips)

    stack = sub.add_parser("stack", help="prune, project, and merge per-chip detections")
    stack.add_argument("--config", default=None)
    stack.add_argument("--annotations", required=True)
    stack.add_argument("--detections", required=True, help="per-chip JSON file or directory")
    stack.add_argument("--out", required=True)
    stack.set_defaults(func=cmd_stack)

    stats = sub.add_parser("stats", help="annotation-only dataset statistics")
    stats.add_argument("which", choices=["roiscale", "areafractions", "focuspixels", "speedup"])
    stats.add_argument("--config", default=None)
    stats.add_argument("--annotations", required=True)
    stats.add_argument("--out", default=None)
    stats.add_argument("--curve", default=None, help="gnuplot-compatible curve output")
    stats.add_argument(
        "--bins", type=int, default=50, help="roi-scale histogram bins, 1 to 100000"
    )
    stats.add_argument(
        "--dilation",
        type=int,
        default=None,
        help="odd focus-mask dilation in cells (default: the config's focus dilation)",
    )
    stats.add_argument(
        "--k", default="64,128,256,512", help="comma-separated distinct chip sizes >= 1"
    )
    stats.add_argument(
        "--chips-at-coarsest",
        action="store_true",
        help="also generate chips at the coarsest scale instead of a full pass",
    )
    stats.set_defaults(func=cmd_stats)

    val = sub.add_parser("validate", help="check config invariants")
    val.add_argument("--config", default=None)
    val.set_defaults(func=cmd_validate)

    show = sub.add_parser("show-config", help="print the resolved config as JSON")
    show.add_argument("--config", default=None)
    show.set_defaults(func=cmd_show_config)

    convert = sub.add_parser("convert", help="dataset format converters")
    convert_sub = convert.add_subparsers(dest="convert_command", required=True)
    voc = convert_sub.add_parser("voc", help="PASCAL VOC XML directory to COCO JSON")
    voc.add_argument("--voc-dir", required=True)
    voc.add_argument("--out", required=True)
    voc.set_defaults(func=cmd_convert_voc)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, FormatError, ValueError, OSError, MemoryError) as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
