"""Command-line interface composing the library into end-to-end runs.

Commands cover chip generation from annotations and proposals, focus label
map export, chip generation from probability maps, cross-scale stacking of
per-chip detections, dataset statistics and config validation. Failures,
usage errors among them, exit nonzero with a one-line JSON error record on
stderr; outputs are written atomically.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import serialization as ser
from .chips import (
    FOCUS,
    ChipBatch,
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
from .dataset import MAX_ID, DatasetError, DatasetIndex, _id_rows, load_dataset
from .focus_chips import FocusParams, chips_from_maps
from .focus_labels import MAX_MAP_CELLS, focus_label_maps, focus_pixel_stats
from .focus_spans import _blocks, _grid_sides
from .geometry import DetectionBatch, ImageSize, canvas_sizes
from .range_labels import filter_detections_by_range
from .serialization import FormatError, json_ints, json_number_rows, json_numbers
from .stacking import project_to_image, prune_boundary_detections, suppress

# No command reads this variable; ``perfbench`` still clears it.
WORKERS_ENV = "PYRSAMPLE_WORKERS"

# The most label cells ``focus labels`` paints before writing them: 16 MiB
# of int8 cells. A map that alone holds more is painted alone.
_LABEL_BLOCK = 1 << 24

_MAP_NAME = re.compile(r"^(?P<image_id>-?[0-9]+)_s(?P<scale_id>-?[0-9]+)\.fmap$")


def _in_id_order(index: DatasetIndex, keep: np.ndarray | None = None) -> DatasetIndex:
    """The images of ``index`` in ascending id order; only those where the
    per-image mask ``keep`` is set, when it is given."""
    order = np.argsort(index.image_ids)
    return index.take(order if keep is None else order[keep[order]])


def cmd_chips_positive(args) -> int:
    cfg = load_config(args.config)
    index = _in_id_order(load_dataset(args.annotations))
    chips, uncoverable = select_positive_chips(
        index.gt_set, index.gt_offsets, cfg.pyramid, index.sizes, index.image_ids
    )
    ser.save_chip_records(args.out, chips)
    if args.diagnostics:
        ser.save_uncoverable_records(args.diagnostics, uncoverable)
    print(f"wrote {len(chips)} positive chips for {len(index.image_ids)} images to {args.out}")
    if len(uncoverable):
        print(f"{len(uncoverable)} valid boxes fit no chip (see --diagnostics)", file=sys.stderr)
    return 0


def cmd_chips_negative(args) -> int:
    cfg = load_config(args.config)
    index = load_dataset(args.annotations, proposals_path=args.proposals)
    index = _in_id_order(index, np.diff(index.proposal_offsets) > 0)
    pool = select_negative_chips(
        index.gt_set, index.gt_offsets, index.proposal_set, index.proposal_offsets,
        cfg.pyramid, index.sizes, index.image_ids, cfg.min_neg_proposals,
        cfg.negative_membership,
    )
    sampled = sample_negative_chips(pool, cfg.n_negative_per_image, seed=cfg.seed)
    ser.save_negative_chip_records(args.out, pool, sampled)
    print(f"wrote {len(pool)} pool / {len(sampled)} sampled negative chips to {args.out}")
    return 0


def cmd_focus_labels(args) -> int:
    cfg = load_config(args.config)
    index = _in_id_order(load_dataset(args.annotations))
    by_id = {s.scale_id: s for s in cfg.pyramid}
    if args.scale not in by_id:
        raise ConfigError(f"scale {args.scale} not in pyramid {sorted(by_id)}")
    canvases = canvas_sizes(by_id[args.scale], index.sizes)
    # A grid side is below 2^32, so each product fits uint64.
    cells = np.prod(_grid_sides(canvases, cfg.stride), axis=1, dtype=np.uint64)
    over = np.flatnonzero(cells > MAX_MAP_CELLS)
    if len(over):
        k = over[0]
        raise ValueError(
            f"image {index.image_ids[k]}: its label map at scale {args.scale} would hold "
            f"{cells[k]} cells, more than the {MAX_MAP_CELLS} a map may hold"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    thresholds = (cfg.focus_min_side, cfg.focus_max_side, cfg.focus_ignore_max_side)
    for lo, hi in _blocks(cells, _LABEL_BLOCK):
        maps = focus_label_maps(
            index.gt_set.boxes, index.gt_offsets, index.sizes, np.arange(lo, hi),
            canvases[lo:hi], cfg.stride, *thresholds,
        )
        for image_id, label_map in zip(index.image_ids[lo:hi].tolist(), maps):
            path = out_dir / f"{image_id}_s{args.scale}.fmap"
            ser.write_map_binary(path, label_map)
            if args.json:
                ser.atomic_write_text(
                    path.with_suffix(".json"),
                    json.dumps(ser.map_to_debug_json(label_map), sort_keys=True) + "\n",
                )
        del maps, label_map  # freed before the next block is painted
    print(f"wrote {len(cells)} label maps to {out_dir}")
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
    probmaps = Path(args.probmaps)
    if not probmaps.is_dir():
        raise FormatError(f"{args.probmaps}: --probmaps must name a directory of .fmap files")
    maps: dict[tuple[int, int], Path] = {}
    for path in sorted(probmaps.glob("*.fmap")):
        match = _MAP_NAME.match(path.name)
        if not match:
            raise FormatError(f"{path}: map file names must be <image_id>_s<scale_id>.fmap")
        key = (int(match["image_id"]), int(match["scale_id"]))
        if not -MAX_ID - 1 <= min(key) <= max(key) <= MAX_ID:
            raise FormatError(f"{path}: image and scale ids must be in [{-MAX_ID - 1}, {MAX_ID}]")
        if key in maps:
            raise FormatError(
                f"{maps[key]} and {path} are both the map of image {key[0]} at scale {key[1]}"
            )
        maps[key] = path
    rects, owners = chips_from_maps(map(ser.read_map_binary, maps.values()), params)
    keys = np.array(list(maps), dtype=np.int64).reshape(-1, 2)[owners]
    chips = ChipBatch(keys[:, 0], keys[:, 1], rects, FOCUS)
    ser.save_chip_records(args.out, chips)
    print(f"wrote {len(chips)} focus chips from {len(maps)} maps to {args.out}")
    return 0


def _load_stack_records(path: Path) -> list[dict]:
    """The records of a per-chip detection file, or of every ``*.json`` file
    of a directory in name order."""
    records = []
    for child in sorted(path.glob("*.json")) if path.is_dir() else [path]:
        part = ser.load_json(child, FormatError)
        if not isinstance(part, list):
            raise FormatError(f"{child}: per-chip detection file must be a JSON array")
        records.extend(part)
    return records


@dataclass(frozen=True)
class _StackRun:
    """Per-chip detection records as run-wide columns.

    Per record: image id, scale id, canvas (width, height) and chip
    corners, a chip of ``null`` being the whole canvas. Per detection, in
    record order and within a record in file order: the record position,
    the index in the record, and the box in the canvas frame, score and
    class.
    """

    image_ids: list[int]
    scale_ids: list[int]
    canvases: np.ndarray
    chips: np.ndarray
    record: np.ndarray
    index: np.ndarray
    dets: DetectionBatch


def _parse_stack_records(records: list) -> _StackRun:
    """The records as one :class:`_StackRun`. Each field is checked over
    all records in the order of one record's checks: ids, canvas, chip,
    then every detection's bbox, score and category id, then the detection
    values."""
    image_ids = json_ints([record["image_id"] for record in records], "image_id")
    scale_ids = json_ints([record["scale_id"] for record in records], "scale_id")
    canvas = [record["canvas"] for record in records]
    widths = json_ints([c["width"] for c in canvas], "canvas width")
    heights = json_ints([c["height"] for c in canvas], "canvas height")
    for width, height in zip(widths, heights):
        ImageSize(width, height)
    given = [record.get("chip") for record in records]
    rows = [[0, 0, w, h] if chip is None else chip for chip, w, h in zip(given, widths, heights)]
    chips = json_number_rows(rows, 4, "chip")
    x1, y1, x2, y2 = chips.T
    ordered = np.isfinite(chips).all(axis=1) & (x1 <= x2) & (y1 <= y2)
    if not ordered.all():
        raise ValueError("chip must be four finite numbers with x1 <= x2 and y1 <= y2: "
                         f"{given[ordered.argmin()]!r}")
    entries = [record.get("detections", []) for record in records]
    if not set(map(type, entries)) <= {list}:
        entry = next(e for e in entries if type(e) is not list)
        raise ValueError(f"detections must be a JSON array: {entry!r}")
    counts = np.array(list(map(len, entries)), dtype=np.intp)
    flat = list(chain.from_iterable(entries))
    if not set(map(type, flat)) <= {dict}:
        k, entry = next((k, e) for k, e in enumerate(flat) if type(e) is not dict)
        raise ValueError(f"detection {k} must be a JSON object: {entry!r}")
    boxes = json_number_rows([entry["bbox"] for entry in flat], 4, "detection {}: bbox")
    scores = json_numbers([entry["score"] for entry in flat], "detection {}: score")
    class_ids = json_ints([entry["category_id"] for entry in flat], "detection {}: category_id")
    class_ids = np.array(class_ids, dtype=np.int64)
    # Tested on the xywh columns: x + w can round a negative w away.
    problems = (
        (~np.isfinite(boxes).all(axis=1), "bbox coordinates must be finite"),
        ((boxes[:, 2] < 0) | (boxes[:, 3] < 0), "bbox width and height must be non-negative"),
        (~((0.0 <= scores) & (scores <= 1.0)), "score must be in [0, 1]"),
    )
    for bad, message in problems:
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(f"detection {k}: {message}: {flat[k]!r}")
    boxes[:, 2:] += boxes[:, :2]  # corners x1, y1, x2, y2
    record = np.repeat(np.arange(len(records)), counts)
    origin = chips[record, :2]
    boxes[:, :2] += origin  # to the canvas frame
    boxes[:, 2:] += origin
    index = np.arange(len(flat)) - np.repeat(np.cumsum(counts) - counts, counts)
    return _StackRun(
        image_ids, scale_ids, np.array([widths, heights], dtype=np.float64).T.reshape(-1, 2),
        chips, record, index, DetectionBatch(boxes, scores, class_ids),
    )


def _kept_rows(
    run: _StackRun, n_rows: int, scale: np.ndarray, by_scale: dict, eps: float
) -> np.ndarray:
    """Which of the first ``n_rows`` rows boundary pruning and the range
    filter of their record's level keep, grouped by level; ``scale`` holds
    each record's scale id."""
    rec = run.record[:n_rows]
    # Neither kernel reads class ids, so row numbers in their place come out
    # as the rows each one keeps.
    dets = DetectionBatch(run.dets.boxes[:n_rows], run.dets.scores[:n_rows],
                          np.arange(n_rows))
    kept = prune_boundary_detections(dets, run.chips[rec], run.canvases[rec], eps=eps)
    level = scale[run.record[kept.class_ids]]
    return np.concatenate([np.zeros(0, dtype=np.intp)] + [
        filter_detections_by_range(kept[level == scale_id], by_scale[scale_id]).class_ids
        for scale_id in np.unique(level).tolist()
    ])


def _stack(
    records: list, cfg: PipelineConfig, index: DatasetIndex, source
) -> list[tuple[int, DetectionBatch]]:
    """Prune, range-filter and project the detections of every per-chip
    record in one pass, then merge them per image and class; (image id,
    merged batch) by image id.

    The error raised is the one of the lowest record position with a
    problem, each record checked in order: parsing, its image and scale
    ids, then its boxes in the original image frame.
    """
    by_scale = {s.scale_id: s for s in cfg.pyramid}
    run, error = ser.read_entries(
        records, _parse_stack_records,
        lambda position, _, problem: FormatError(f"{source}: record {position}: {problem}"),
    )
    at, known_image = _id_rows(index.image_ids, run.image_ids)
    _, known_scale = _id_rows(np.array(list(by_scale), dtype=np.int64), run.scale_ids)
    unknown = ~(known_image & known_scale)
    n_ok = int(unknown.argmax()) if unknown.any() else len(unknown)
    if n_ok < len(unknown):
        what, value = (("image", run.image_ids[n_ok]) if not known_image[n_ok]
                       else ("scale", run.scale_ids[n_ok]))
        error = FormatError(f"detections reference unknown {what} id {value}")
    at = at[:n_ok]
    image_ids, image = np.unique(index.image_ids[at], return_inverse=True)
    image_ids = image_ids.tolist()
    scale = np.array(run.scale_ids[:n_ok], dtype=np.int64)
    originals = index.sizes[at].astype(np.float64)

    n_rows = int(np.searchsorted(run.record, n_ok))  # the rows of records before n_ok
    rows = _kept_rows(run, n_rows, scale, by_scale, cfg.boundary_eps)
    rec = run.record[rows]
    order = np.lexsort((rows, scale[rec], image[rec]))  # ties in the merge break in this order
    rows, rec = rows[order], rec[order]
    projected = project_to_image(run.dets[rows], run.canvases[rec], (0.0, 0.0), originals[rec])
    finite = np.isfinite(ser.coco_bboxes(projected.boxes)).all(axis=1)
    if not finite.all():
        row = rows[~finite].min()
        position, k = int(run.record[row]), int(run.index[row])
        raise FormatError(
            f"{source}: record {position}: detection {k}: bbox is not finite in the "
            f"original image frame: {records[position]['detections'][k]!r}"
        )
    if error is not None:
        raise error

    image = image[rec]
    classes, class_rank = np.unique(projected.class_ids, return_inverse=True)
    positions, scores = suppress(
        projected.boxes, projected.scores, image * len(classes) + class_rank, cfg.merge
    )
    order = np.argsort(image[positions], kind="stable")
    positions, scores = positions[order], scores[order]
    merged = DetectionBatch(projected.boxes[positions], scores, projected.class_ids[positions])
    bounds = np.searchsorted(image[positions], np.arange(len(image_ids) + 1)).tolist()
    return [(image_id, merged[a:b]) for image_id, a, b in zip(image_ids, bounds, bounds[1:])]


def cmd_stack(args) -> int:
    cfg = load_config(args.config)
    index = load_dataset(args.annotations)
    # Finite coordinates far outside any canvas can overflow to inf, which the
    # range filter then drops; numpy must not print a warning line for that.
    # Only _stack holds the JSON records, so they are freed before writing,
    # and the cyclic collector is held off while they are alive.
    with np.errstate(over="ignore", invalid="ignore"), ser.gc_paused():
        merged = _stack(_load_stack_records(Path(args.detections)), cfg, index, args.detections)
    ser.save_detection_records(args.out, merged)
    n_dets = sum(len(dets) for _, dets in merged)
    print(f"wrote {n_dets} merged detections to {args.out}")
    return 0


def _stats_columns(args) -> tuple[PipelineConfig, tuple]:
    """The config of a ``stats`` report and the ground truth, offsets and
    sizes of its annotation file."""
    cfg = load_config(args.config)
    index = load_dataset(args.annotations)
    return cfg, (index.gt_set, index.gt_offsets, index.sizes)


def _write_report(args, payload: dict) -> None:
    """A ``stats`` report's payload as JSON to ``--out``, when it is given."""
    if args.out:
        ser.atomic_write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_stats_roiscale(args) -> int:
    _, columns = _stats_columns(args)
    hist = roi_scale_histogram(*columns, n_bins=args.bins)
    _write_report(args, {
        "n_instances": hist.n_instances,
        "deciles": [float(v) for v in hist.deciles],
        "decile_spread": hist.decile_spread,
        "bin_edges": [float(v) for v in hist.bin_edges],
        "fractions": [float(v) for v in hist.fractions],
    })
    if args.curve:
        edges = hist.bin_edges.tolist()
        centers = [(a + b) / 2.0 for a, b in zip(edges[:-1], edges[1:])]
        ser.write_curve(args.curve, "relative-scale fraction-of-instances",
                        zip(centers, hist.fractions.tolist()))
    print(f"roi scale deciles: {[round(float(v), 4) for v in hist.deciles]}")
    return 0


def cmd_stats_areafractions(args) -> int:
    _, columns = _stats_columns(args)
    bands = size_area_fractions(*columns)
    _write_report(args, {
        band.name: {
            "instance_fraction": band.instance_fraction,
            "area_fraction": band.area_fraction,
            "n_instances": band.n_instances,
        }
        for band in bands
    })
    for band in bands:
        print(
            f"{band.name}: {band.instance_fraction:.1%} of instances, "
            f"{band.area_fraction:.2%} of image area"
        )
    return 0


def _focus_settings(cfg: PipelineConfig, args) -> dict:
    """The config's focus-map stride and thresholds, and the ``--dilation``
    of a report, or the config's focus dilation when it is not given."""
    dilation = cfg.focus_params.dilation if args.dilation is None else args.dilation
    return dict(stride=cfg.stride, min_side=cfg.focus_min_side, max_side=cfg.focus_max_side,
                ignore_max_side=cfg.focus_ignore_max_side, dilation=dilation)


def cmd_stats_focuspixels(args) -> int:
    cfg, columns = _stats_columns(args)
    focus = _focus_settings(cfg, args)
    stats = focus_pixel_stats(*columns, cfg.pyramid, **focus)
    _write_report(args, {
        str(sid): {
            "fraction": s.fraction,
            "fraction_dilated": s.fraction_dilated,
            "mean_projected_area": s.mean_projected_area,
            "mean_canvas_area": s.mean_canvas_area,
        }
        for sid, s in stats.items()
    })
    dilation = focus["dilation"]
    for sid, s in sorted(stats.items()):
        print(f"scale {sid}: {s.fraction:.2%} focus cells "
              f"({s.fraction_dilated:.2%} after {dilation}x{dilation} dilation)")
    return 0


def cmd_stats_speedup(args) -> int:
    cfg, columns = _stats_columns(args)
    curve = speedup_upper_bound(*columns, cfg.pyramid, args.k, **_focus_settings(cfg, args),
                                process_coarsest_fully=not args.chips_at_coarsest)
    _write_report(args, {"curve": [[k, s] for k, s in curve]})
    if args.curve:
        ser.write_curve(args.curve, "min-chip-size speedup", curve)
    for k, s in curve:
        print(f"k={k}: speedup {s:.2f}x")
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


class UsageError(Exception):
    """A command line that the parser does not accept."""


class _Parser(argparse.ArgumentParser):
    """An argument parser, and through its subparsers every nested one,
    whose usage errors raise :class:`UsageError` instead of printing the
    usage and exiting 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _int_list(text: str) -> list[int]:
    """The comma-separated integers of a flag such as ``--k``."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
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
    stats_sub = stats.add_subparsers(dest="stats_command", required=True)

    def report(name: str, func, summary: str) -> argparse.ArgumentParser:
        """A ``stats`` report's subparser, with the flags every report reads."""
        report_parser = stats_sub.add_parser(name, help=summary)
        report_parser.add_argument("--config", default=None)
        report_parser.add_argument("--annotations", required=True)
        report_parser.add_argument("--out", default=None)
        report_parser.set_defaults(func=func)
        return report_parser

    dilation_help = "odd focus-mask dilation in cells (default: the config's focus dilation)"
    curve_help = "gnuplot-compatible curve output"
    roiscale = report("roiscale", cmd_stats_roiscale, "object scale relative to its image")
    roiscale.add_argument(
        "--bins", type=int, default=50, help="roi-scale histogram bins, 1 to 100000"
    )
    roiscale.add_argument("--curve", default=None, help=curve_help)
    report("areafractions", cmd_stats_areafractions, "instance and area fractions per size band")
    focuspixels = report("focuspixels", cmd_stats_focuspixels, "focus-cell fractions per level")
    focuspixels.add_argument("--dilation", type=int, default=None, help=dilation_help)
    speedup = report("speedup", cmd_stats_speedup, "speed-up bound over minimum chip sizes")
    speedup.add_argument(
        "--k", type=_int_list, default="64,128,256,512",
        help="comma-separated distinct chip sizes >= 1",
    )
    speedup.add_argument("--dilation", type=int, default=None, help=dilation_help)
    speedup.add_argument("--curve", default=None, help=curve_help)
    speedup.add_argument(
        "--chips-at-coarsest",
        action="store_true",
        help="also generate chips at the coarsest scale instead of a full pass",
    )

    val = sub.add_parser("validate", help="check config invariants")
    val.add_argument("--config", default=None)
    val.set_defaults(func=cmd_validate)

    show = sub.add_parser("show-config", help="print the resolved config as JSON")
    show.add_argument("--config", default=None)
    show.set_defaults(func=cmd_show_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError, DatasetError, FormatError, ValueError, OSError,
            MemoryError) as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
