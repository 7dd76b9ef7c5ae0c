"""Timed command loop, run in a process of its own by ``bench.py``:

    python3 perfbench/timed_loop.py PLAN.json RESULT.json

The plan lists CLI commands (label, argv, output files), the seconds to
measure and, when tracing, the file the spans go to. The loop repeats the
commands in order while another round fits in the time. Each command runs
in-process through ``pyrsample.cli.main``; its wall time, its failure (a
non-zero exit or an exception) and a digest of its output files are
recorded, and after each round the process's peak resident memory so far.
When tracing, the first half of the time is untraced and the second half
traced.

The generated inputs and the output checks stay in the parent process, so
this process holds only the program and the loop, and its peak resident
memory after the first round is what the program needs to run the
workload's commands once.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pyrsample.cli as cli  # noqa: E402

import refclock  # noqa: E402
import spans  # noqa: E402


def run_command(argv: list[str]) -> tuple[float, str | None]:
    """Run one CLI command in-process; returns wall seconds and a failure or None."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed command
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if rc != 0:
        return elapsed, f"exit {rc}: {err.getvalue().strip()[:300]}"
    return elapsed, None


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        try:
            h.update(Path(p).read_bytes())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def rounds(commands, seconds: float, tracer=None, first_round: int = 0) -> list[dict]:
    """Repeat the commands while another round fits in ``seconds`` (at least once)."""
    done = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        record = {"traced": tracer is not None, "times": [], "failures": [], "digests": [],
                  "ref": []}
        for label, argv, outputs in commands:
            record["ref"].append(refclock.sample())
            ctx = (tracer.command(first_round + len(done), label) if tracer
                   else contextlib.nullcontext())
            with ctx:
                elapsed, failure = run_command(argv)
            record["times"].append(elapsed)
            record["failures"].append(failure)
            record["digests"].append(digest(outputs))
        record["ref"].append(refclock.sample())
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done.append(record)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return done


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    os.environ.pop(cli.WORKERS_ENV, None)
    commands, seconds, trace_path = plan["commands"], plan["seconds"], plan.get("trace_path")
    result = {}
    if trace_path is None:
        done = rounds(commands, seconds)
    else:
        done = rounds(commands, seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            done += rounds(commands, seconds / 2, tracer, len(done))
        finally:
            tracer.uninstall()
        tracer.dump(Path(trace_path))
        result["missing_spans"] = tracer.missing
    result["rounds"] = done
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
