#!/usr/bin/env python3
"""Record the output fingerprints checked by the benchmark; run from the
repository root after a change that is meant to alter outputs:

    python3 perfbench/record_fingerprints.py 0 1 2 3

Runs every workload once per seed at its default size, checks the outputs,
and rewrites perfbench/fingerprints.json with their canonical digests.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import bench
    import workloads

    seeds = [int(s) for s in sys.argv[1:]] or [0]
    entries = {name: bench.record_fingerprints(name, seeds) for name in sorted(workloads.N_IMAGES)}
    bench.FINGERPRINTS.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(seeds)} seeds for {len(entries)} workloads in {bench.FINGERPRINTS}")
