"""Span recording around the program's layers, installed from outside ``src/``.

``Tracer.install`` replaces every module-global binding of a traced function
inside the ``pyrsample`` package with a recording wrapper, so calls made
through any name the program looks up (``pyrsample.cli.load_dataset``,
``pyrsample.costing.connected_components``, a ``ser.save_chip_records``
attribute lookup, ...) are seen. ``uninstall`` restores the originals.

A span is (name, start, end, parent span, command id). Spans and counts stay
in memory and are written once by ``Tracer.dump``; ``load`` reads them back. Counts are computed from each
wrapped call's arguments and result; the time spent counting is recorded as
a ``trace.count`` child span so it is excluded from the caller's self time.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_load_dataset(c, args, kwargs, index):
    c["dataset.boxes_loaded"] += sum(len(v) for v in index.annotations.values())
    c["dataset.boxes_loaded"] += sum(len(p.boxes) for p in index.proposals.values())


def _count_positive(c, args, kwargs, result):
    chips, diagnostics = result
    c["chips.positive_chips"] += len(chips)
    c["chips.uncoverable"] += len(diagnostics)
    c["chips.gt_covered"] += sum(len(chip.covered_gt_ids) for chip in chips)


def _count_negative(c, args, kwargs, pool):
    c["chips.negative_pool"] += len(pool)


def _count_label_map(c, args, kwargs, label_map):
    c["focus_labels.maps"] += 1
    c["focus_labels.focus_cells"] += int((label_map.cells == 1).sum())
    c["focus_labels.cells"] += label_map.cells.size


def _count_components(c, args, kwargs, comps):
    c["focus_chips.maps"] += 1
    c["focus_chips.cells"] += int(_arg(args, kwargs, 0, "bm").cells.sum())
    c["focus_chips.components"] += len(comps)


def _count_merge_rects(c, args, kwargs, merged):
    c["focus_chips.rects_merged_in"] += len(_arg(args, kwargs, 0, "rects"))


def _count_chips_from_components(c, args, kwargs, chips):
    c["focus_chips.chips_out"] += len(chips)
    c["focus_chips.chip_pixels"] += sum(chip.area for chip in chips)
    c["focus_chips.canvas_pixels"] += _arg(args, kwargs, 3, "image").area


def _count_prune(c, args, kwargs, kept):
    n_in = len(_arg(args, kwargs, 0, "dets"))
    c["stacking.dets_in"] += n_in
    c["stacking.dets_pruned"] += n_in - len(kept)


def _count_range_filter(c, args, kwargs, kept):
    c["range_labels.dets_out_of_range"] += len(_arg(args, kwargs, 0, "dets")) - len(kept)


def _count_merge(c, args, kwargs, merged):
    per_class = defaultdict(int)
    for group in _arg(args, kwargs, 0, "per_scale"):
        for det in group:
            per_class[det.class_id] += 1
    c["stacking.dets_out"] += len(merged)
    c["stacking.class_group_sq"] += sum(n * n for n in per_class.values())


def _count_speedup(c, args, kwargs, curve):
    c["costing.speedup_k64_sum"] += dict(curve).get(64, 0.0)
    c["costing.speedup_calls"] += 1


def _count_read_map(c, args, kwargs, result):
    c["serialization.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_write_text(c, args, kwargs, result):
    # JSON writers emit ASCII, so characters equal bytes.
    c["serialization.bytes_written"] += len(_arg(args, kwargs, 1, "text"))


# Traced functions: span name -> (defining module, attribute, counter or None).
TRACED = {
    "dataset.load_dataset": ("pyrsample.dataset", "load_dataset", _count_load_dataset),
    "chips.select_positive_chips": ("pyrsample.chips", "select_positive_chips", _count_positive),
    "chips.select_negative_chips": ("pyrsample.chips", "select_negative_chips", _count_negative),
    "range_labels.filter_detections_by_range": (
        "pyrsample.range_labels", "filter_detections_by_range", _count_range_filter),
    "focus_labels.build_focus_label_map": (
        "pyrsample.focus_labels", "build_focus_label_map", _count_label_map),
    "focus_labels.focus_pixel_stats": ("pyrsample.focus_labels", "focus_pixel_stats", None),
    "focus_chips.threshold_map": ("pyrsample.focus_chips", "threshold_map", None),
    "focus_chips.dilate": ("pyrsample.focus_chips", "dilate", None),
    "focus_chips.connected_components": (
        "pyrsample.focus_chips", "connected_components", _count_components),
    "focus_chips.chips_from_components": (
        "pyrsample.focus_chips", "chips_from_components", _count_chips_from_components),
    "focus_chips.merge_overlapping": ("pyrsample.focus_chips", "merge_overlapping", _count_merge_rects),
    "focus_chips.generate_focus_chips": ("pyrsample.focus_chips", "generate_focus_chips", None),
    "stacking.prune_boundary_detections": (
        "pyrsample.stacking", "prune_boundary_detections", _count_prune),
    "stacking.project_to_image": ("pyrsample.stacking", "project_to_image", None),
    "stacking.merge_detections": ("pyrsample.stacking", "merge_detections", _count_merge),
    "costing.speedup_upper_bound": ("pyrsample.costing", "speedup_upper_bound", _count_speedup),
    "costing.roi_scale_histogram": ("pyrsample.costing", "roi_scale_histogram", None),
    "costing.size_area_fractions": ("pyrsample.costing", "size_area_fractions", None),
    "serialization.read_map_binary": ("pyrsample.serialization", "read_map_binary", _count_read_map),
    "serialization.save_chip_records": ("pyrsample.serialization", "save_chip_records", None),
    "serialization.save_detection_records": (
        "pyrsample.serialization", "save_detection_records", None),
    "serialization.atomic_write_text": (
        "pyrsample.serialization", "atomic_write_text", _count_write_text),
}

COUNT_SPAN = "trace.count"


class Tracer:
    """Spans and counts of one traced run, kept in memory until ``dump``."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index (-1 for none), command id].
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.commands: list[tuple[int, str]] = []  # command id -> (iteration, label)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._command = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._command])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def command(self, iteration: int, label: str):
        """One CLI command: a ``cli.<label>`` span whose command id tags every
        span and count recorded inside it."""
        self._command = len(self.commands)
        self.commands.append((iteration, label))
        idx = self._open(f"cli.{label}")
        try:
            yield
        finally:
            self._close(idx)
            self._command = -1

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                cidx = tracer._open(COUNT_SPAN)
                try:
                    counter(tracer.counts[tracer._command], args, kwargs, result)
                finally:
                    tracer._close(cidx)
            return result

        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every pyrsample module global bound to a traced function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pyrsample" or n.startswith("pyrsample."))]
        for name, (mod_name, attr, counter) in TRACED.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------
    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "command"],
            "commands": self.commands,
            "spans": self.spans,
            "counts": self.counts,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def load(path: Path) -> dict:
    """A dumped trace, with command ids as integers again."""
    payload = json.loads(path.read_text())
    payload["commands"] = [tuple(c) for c in payload["commands"]]
    payload["counts"] = {int(k): v for k, v in payload["counts"].items()}
    return payload


def self_times(span_list: list[list]) -> list[float]:
    """Per span: duration minus the time its child spans cover."""
    self_t = [end - start for _, start, end, _, _ in span_list]
    for _, start, end, parent, _ in span_list:
        if parent >= 0:
            self_t[parent] -= end - start
    return self_t
