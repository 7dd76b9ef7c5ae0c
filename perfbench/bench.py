"""Benchmark runner: seeded workloads through the pyrsample CLI.

A run generates the workload's inputs from the seed and checks the bundled
excerpt against its frozen reference values. Then ``timed_loop.py``, in a
process of its own with no worker pool, repeats the workload's commands
over the whole generated set until the run length is used up. Afterwards every command's
output is checked: the last round's files in full, and every earlier
round's output by its digest. A non-zero exit, an exception or a failed
check counts as a failed command.

``images_per_s`` is the image count over the median time of a round of the
workload's commands. ``setup_s`` is the median time to generate and write
the inputs, sampled several times before and several times after the timed
loop, so that it spans the run rather than a few seconds of it. Every
reported time is in nominal seconds: wall time rescaled by the reference
loop timed around it (``refclock.py``). The wall times are in the details
line printed before the result.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` the first half of the run is untraced and the second half is
traced, and the result holds the per-layer metrics, including the tracing
overhead between the two halves.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import pyrsample.cli as cli

import checks
import spans
import refclock
import workloads
from timed_loop import digest, run_command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"
WORK = ".perfbench_work"
# Set-up runs 3 to 12 times before the timed loop and as often after it,
# more when it is short; setup_s is the median of all of them.
SETUP_REPEATS = (3, 12)
SETUP_BUDGET_S = 3.0
# The timed loop must end this long after its run length, or the run fails.
LOOP_GRACE_S = 100.0

END_TO_END_UNITS = {"setup_s": "s", "images_per_s": "1/s", "peak_rss_mb": "MB"}

COMMAND_LABELS = (
    "chips_positive", "chips_negative", "focus_chips", "stack_gaussian", "stack_hard",
    "stats_speedup", "stats_focuspixels", "stats_roiscale", "stats_areafractions",
)

# Per-layer self-time metrics: metric -> (span name, command labels or None for all).
LAYER_TIMES = {
    "dataset.load_dataset_s": ("dataset.load_dataset", None),
    "chips.select_positive_chips_s": ("chips.select_positive_chips", None),
    "chips.select_negative_chips_s": ("chips.select_negative_chips", None),
    "range_labels.filter_detections_by_range_s": ("range_labels.filter_detections_by_range", None),
    "focus_labels.build_focus_label_map_s": ("focus_labels.build_focus_label_map", None),
    "focus_labels.focus_pixel_stats_s": ("focus_labels.focus_pixel_stats", None),
    **{f"focus_chips.{f}_s": (f"focus_chips.{f}", None) for f in (
        "threshold_map", "dilate", "connected_components", "chips_from_components",
        "merge_overlapping", "generate_focus_chips")},
    "stacking.prune_boundary_detections_s": ("stacking.prune_boundary_detections", None),
    "stacking.project_to_image_s": ("stacking.project_to_image", None),
    "stacking.merge_detections.gaussian_s": ("stacking.merge_detections", ("stack_gaussian",)),
    "stacking.merge_detections.hard_s": ("stacking.merge_detections", ("stack_hard",)),
    "costing.speedup_upper_bound_s": ("costing.speedup_upper_bound", None),
    "costing.roi_scale_histogram_s": ("costing.roi_scale_histogram", None),
    "costing.size_area_fractions_s": ("costing.size_area_fractions", None),
    **{f"serialization.{f}_s": (f"serialization.{f}", None) for f in (
        "read_map_binary", "save_chip_records", "save_detection_records", "atomic_write_text")},
    **{f"cli.{label}.self_s": (f"cli.{label}", None) for label in COMMAND_LABELS},
}

# Per-call duration percentiles: metric -> (span name, percentile).
LAYER_PERCENTILES = {
    "focus_chips.connected_components.p99_ms": ("focus_chips.connected_components", 99),
    "stacking.merge_detections.p50_ms": ("stacking.merge_detections", 50),
    "stacking.merge_detections.p99_ms": ("stacking.merge_detections", 99),
}

# Counts per round: metric -> (counter key, command labels or None, unit).
LAYER_COUNTS = {
    "dataset.boxes_loaded": ("dataset.boxes_loaded", None, "count"),
    "chips.positive_chips": ("chips.positive_chips", ("chips_positive",), "count"),
    "chips.uncoverable": ("chips.uncoverable", ("chips_positive",), "count"),
    "chips.negative_pool": ("chips.negative_pool", None, "count"),
    "focus_labels.maps": ("focus_labels.maps", None, "count"),
    **{f"focus_chips.{k}": (f"focus_chips.{k}", None, "count") for k in (
        "maps", "cells", "components", "rects_merged_in", "chips_out")},
    **{f"stacking.{k}": (f"stacking.{k}", None, "count") for k in (
        "dets_in", "dets_pruned", "dets_out", "class_group_sq")},
    "range_labels.dets_out_of_range": ("range_labels.dets_out_of_range", None, "count"),
    "serialization.bytes_read": ("serialization.bytes_read", None, "bytes"),
    "serialization.bytes_written": ("serialization.bytes_written", None, "bytes"),
}

# Ratios per round: metric -> (numerator key, denominator key, labels or None).
LAYER_RATIOS = {
    "chips.gt_per_chip": ("chips.gt_covered", "chips.positive_chips", ("chips_positive",)),
    "focus_labels.focus_cell_fraction": ("focus_labels.focus_cells", "focus_labels.cells", None),
    "focus_chips.chip_pixel_fraction": ("focus_chips.chip_pixels", "focus_chips.canvas_pixels", None),
    "stacking.keep_ratio": ("stacking.dets_out", "stacking.dets_in", None),
    "costing.speedup_k64": ("costing.speedup_k64_sum", "costing.speedup_calls", None),
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    names = {m: "s" for m in LAYER_TIMES}
    names.update({f"cli.{label}.wall_s": "s" for label in COMMAND_LABELS})
    names["chips.select_positive_chips_calls"] = "count"
    names.update({m: "ms" for m in LAYER_PERCENTILES})
    names.update({m: unit for m, (_, _, unit) in LAYER_COUNTS.items()})
    names.update({m: "ratio" for m in LAYER_RATIOS})
    names["trace.overhead_frac"] = "ratio"
    return names




class Outcome:
    """Attempted and failed commands, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[: checks.MAX_PROBLEMS])


def verify(inputs: workloads.Inputs, rounds: list[dict], outcome: Outcome) -> None:
    """Record every command of every round: its failure, or the check of the
    final output files that its own output must be identical to."""
    for i, (label, _) in enumerate(inputs.commands):
        paths = [str(p) for p in inputs.outputs[label]]
        final = digest(paths)
        problems = checks.check_command(inputs, label)
        for r in rounds:
            if r["failures"][i]:
                outcome.record(label, [r["failures"][i]])
            elif r["digests"][i] != final:
                outcome.record(label, ["output differs from the last round"])
            else:
                outcome.record(label, problems)


def output_fingerprints(inputs: workloads.Inputs) -> dict[str, str]:
    return {p.name: checks.fingerprint(p) for paths in inputs.outputs.values() for p in paths}


def compare_fingerprints(inputs: workloads.Inputs, outcome: Outcome) -> None:
    """Check the outputs against fingerprints recorded for this seed and size."""
    if not FINGERPRINTS.is_file():
        return
    entry = json.loads(FINGERPRINTS.read_text()).get(inputs.workload, {})
    recorded = entry.get("seeds", {}).get(str(inputs.seed))
    if entry.get("n_images") != inputs.n_images or recorded is None:
        return
    got = output_fingerprints(inputs)
    for name, want in sorted(recorded.items()):
        problems = [] if got.get(name) == want else [f"fingerprint {got.get(name)} != recorded {want}"]
        outcome.record(f"fingerprint {name}", problems)


def run_excerpt_checks(workdir: Path, outcome: Outcome) -> None:
    """Stats and positive chips on the bundled excerpt against its frozen values."""
    for label, argv, out in checks.excerpt_commands(ROOT, workdir / "excerpt"):
        _, failure = run_command(argv)
        outcome.record(label, [failure] if failure else checks.check_excerpt(ROOT, label, out))


def setup(workload: str, seed: int, workdir: Path, min_repeats: int, max_repeats: int):
    """Generate the inputs ``min_repeats`` times, and up to ``max_repeats``
    times while the total stays under ``SETUP_BUDGET_S``; returns the inputs,
    the wall times and the nominal times."""
    times: list[float] = []
    nominal: list[float] = []
    while len(times) < min_repeats or (
            len(times) < max_repeats and sum(times) < SETUP_BUDGET_S):
        shutil.rmtree(workdir, ignore_errors=True)
        before = refclock.sample()
        t0 = time.perf_counter()
        inputs = workloads.generate(ROOT, workload, seed, workdir)
        times.append(time.perf_counter() - t0)
        nominal.append(refclock.nominal(times[-1], before, refclock.sample()))
    return inputs, times, nominal


def timed_loop(inputs: workloads.Inputs, seconds: float, workdir: Path,
               trace_path: Path | None) -> dict:
    """Run the workload's commands in ``timed_loop.py``; returns its result."""
    plan = {
        "commands": [[label, argv, [str(p) for p in inputs.outputs[label]]]
                     for label, argv in inputs.commands],
        "seconds": seconds,
        "trace_path": None if trace_path is None else str(trace_path),
    }
    plan_path, result_path = workdir / "plan.json", workdir / "loop_result.json"
    plan_path.write_text(json.dumps(plan))
    env = {k: v for k, v in os.environ.items() if k != cli.WORKERS_ENV}
    proc = subprocess.run(
        [sys.executable, str(HERE / "timed_loop.py"), str(plan_path), str(result_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=seconds + LOOP_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"timed loop exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def command_nominal(r: dict) -> list[float]:
    """Nominal seconds of each command of a round."""
    ref = r["ref"]
    return [refclock.nominal(t, ref[i], ref[i + 1]) for i, t in enumerate(r["times"])]


def round_nominal(r: dict) -> float:
    return sum(command_nominal(r))


def layer_metrics(trace: dict, round_ids: list[int], scales: dict, overhead: float) -> dict:
    """Per-layer metrics per round (median over the traced rounds) from a
    trace written by ``spans.Tracer.dump``. Span times are multiplied by
    ``scales[(round, label)]``, their command's factor from wall to nominal
    seconds."""
    commands = trace["commands"]
    self_t = spans.self_times(trace["spans"])
    per = defaultdict(lambda: defaultdict(float))  # (round, label) -> span name -> self s
    wall = defaultdict(float)  # (round, label) -> command span seconds
    calls = defaultdict(int)  # (round, label) -> select_positive_chips calls
    durations = defaultdict(list)
    for (name, start, end, _, cmd), st in zip(trace["spans"], self_t):
        if cmd < 0:
            continue
        key = commands[cmd]
        scale = scales[key]
        per[key][name] += st * scale
        durations[name].append((end - start) * scale)
        if name == f"cli.{key[1]}":
            wall[key] += (end - start) * scale
        elif name == "chips.select_positive_chips":
            calls[key] += 1
    counts = defaultdict(lambda: defaultdict(float))
    for cmd, values in trace["counts"].items():
        if cmd >= 0:
            for k, v in values.items():
                counts[commands[cmd]][k] += v

    def over_rounds(table, pick, labels):
        return statistics.median(
            sum(pick(table[(it, label)]) for label in COMMAND_LABELS
                if labels is None or label in labels)
            for it in round_ids)

    m = {}
    for metric, (name, labels) in LAYER_TIMES.items():
        m[metric] = over_rounds(per, lambda d, n=name: d.get(n, 0.0), labels)
    for label in COMMAND_LABELS:
        m[f"cli.{label}.wall_s"] = over_rounds(wall, lambda v: v, (label,))
    m["chips.select_positive_chips_calls"] = over_rounds(calls, lambda v: v, None)
    for metric, (name, q) in LAYER_PERCENTILES.items():
        d = durations.get(name)
        m[metric] = float(np.percentile(d, q)) * 1000.0 if d else 0.0
    for metric, (key, labels, _) in LAYER_COUNTS.items():
        m[metric] = over_rounds(counts, lambda d, k=key: d.get(k, 0.0), labels)
    for metric, (num, den, labels) in LAYER_RATIOS.items():
        n = over_rounds(counts, lambda d, k=num: d.get(k, 0.0), labels)
        d = over_rounds(counts, lambda d, k=den: d.get(k, 0.0), labels)
        m[metric] = n / d if d else 0.0
    m["trace.overhead_frac"] = overhead
    units = per_layer_names()
    return {k: {"value": float(v), "unit": units[k]} for k, v in m.items()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result, info)."""
    os.environ.pop(cli.WORKERS_ENV, None)
    work_root = ROOT / WORK
    workdir = work_root / f"{workload}-seed{seed}-pid{os.getpid()}"
    outcome = Outcome()
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "python": platform.python_version(), "numpy": np.__version__,
    }
    repeats = (1, 1) if trace else SETUP_REPEATS
    try:
        inputs, setup_wall, setup_nominal = setup(workload, seed, workdir, *repeats)
        info.update(n_images=inputs.n_images)
        run_excerpt_checks(workdir, outcome)
        trace_path = work_root / "traces" / f"{workload}-seed{seed}.json" if trace else None
        loop = timed_loop(inputs, seconds, workdir, trace_path)
        verify(inputs, loop["rounds"], outcome)
        compare_fingerprints(inputs, outcome)
        info["fingerprints"] = output_fingerprints(inputs)
        if not trace:
            _, wall, nominal = setup(workload, seed, workdir / "again", *repeats)
            setup_wall += wall
            setup_nominal += nominal
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rounds = loop["rounds"]
    untraced = [r for r in rounds if not r["traced"]]
    untraced_s = statistics.median(round_nominal(r) for r in untraced)
    if trace:
        traced_ids = [i for i, r in enumerate(rounds) if r["traced"]]
        traced_s = statistics.median(round_nominal(rounds[i]) for i in traced_ids)
        scales = {(i, label): nominal / wall
                  for i, r in enumerate(rounds)
                  for (label, _), wall, nominal in zip(inputs.commands, r["times"], command_nominal(r))}
        metrics = layer_metrics(spans.load(trace_path), traced_ids, scales, traced_s / untraced_s - 1.0)
        info.update(traced_rounds=len(traced_ids), trace_file=str(trace_path.relative_to(ROOT)),
                    missing_spans=loop["missing_spans"])
    else:
        metrics = {
            "setup_s": statistics.median(setup_nominal),
            "images_per_s": inputs.n_images / untraced_s,
            # After the first round: a user runs each command once per process,
            # while later rounds reuse a heap the earlier ones fragmented.
            "peak_rss_mb": rounds[0]["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    info.update(
        rounds=len(untraced),
        commands={f"{label}_s": {"value": statistics.median(command_nominal(r)[i] for r in untraced),
                                 "unit": "s"}
                  for i, (label, _) in enumerate(inputs.commands)},
        setup_wall_s=setup_wall,
        round_wall_s=[sum(r["times"]) for r in rounds],
        round_nominal_s=[round_nominal(r) for r in rounds],
        round_peak_rss_mb=[r["peak_rss_mb"] for r in rounds],
        error_rate={"value": outcome.failed / outcome.attempted, "base": outcome.attempted},
        problems=outcome.problems[:10],
    )
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return result, info


def record_fingerprints(workload: str, seeds: list[int]) -> dict:
    """Fingerprints of every output for the given seeds at the default size."""
    os.environ.pop(cli.WORKERS_ENV, None)
    entry = {"n_images": workloads.N_IMAGES[workload], "seeds": {}}
    for seed in seeds:
        workdir = ROOT / WORK / f"record-{workload}-seed{seed}-pid{os.getpid()}"
        try:
            inputs = workloads.generate(ROOT, workload, seed, workdir)
            for label, argv in inputs.commands:
                _, failure = run_command(argv)
                problems = [failure] if failure else checks.check_command(inputs, label)
                if problems:
                    raise RuntimeError(f"{workload} seed {seed} {label}: {problems[:3]}")
            entry["seeds"][str(seed)] = output_fingerprints(inputs)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.N_IMAGES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0
