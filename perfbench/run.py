#!/usr/bin/env python3
"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload train-chips --seed 1 --seconds 30 --trace 0

Workloads: train-chips, focus-infer, dataset-stats (see perfbench/workloads.py).
The last line of standard output is the JSON result; the line before it
holds run details (machine, versions, image count, per-command times, wall
times, error rate with its base).
Exits 2 without a result when the program's sources are not next to it.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "pyrsample" / "cli.py").is_file():
        print(f"perfbench: no pyrsample sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import pyrsample

    if Path(pyrsample.__file__).resolve().parent != SRC / "pyrsample":
        print(f"perfbench: imported pyrsample from {pyrsample.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import bench

    sys.exit(bench.main())
