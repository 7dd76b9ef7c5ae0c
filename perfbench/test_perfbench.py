"""Tests of the benchmark itself: a tiny smoke run and injected wrong outputs."""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pyrsample import cli, dataset  # noqa: E402
from timed_loop import digest, run_command  # noqa: E402

TINY = 4
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    for name in workloads.N_IMAGES:
        monkeypatch.setitem(workloads.N_IMAGES, name, TINY)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_unit(tiny, capsys, workload, trace):
    assert bench.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                       "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, json.loads(lines[-2])["info"]["problems"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    info = json.loads(lines[-2])["info"]
    assert info["n_images"] == TINY and info["machine"]["nproc"] >= 1
    if trace:
        assert info["missing_spans"] == [] and info["traced_rounds"] >= 1


@pytest.fixture
def generated(tiny, tmp_path):
    """A tiny workload's inputs, after its commands ran and passed."""
    def make(workload):
        inputs = workloads.generate(bench.ROOT, workload, 5, tmp_path / workload)
        for label, argv in inputs.commands:
            assert run_command(argv)[1] is None
            assert checks.check_command(inputs, label) == []
        return inputs
    return make


def _edit(path, fn):
    data = json.loads(path.read_text())
    path.write_text(json.dumps(fn(data)))


def test_dropped_positive_chip_is_caught(generated):
    inputs = generated("train-chips")
    _edit(inputs.outputs["chips_positive"][0], lambda chips: chips[1:])
    assert checks.check_command(inputs, "chips_positive")


def test_sampled_negative_outside_pool_is_caught(generated):
    inputs = generated("train-chips")

    def move(data):
        data["sampled"][0]["rect"] = [r + 1.0 for r in data["sampled"][0]["rect"]]
        return data

    _edit(inputs.outputs["chips_negative"][0], move)
    assert checks.check_command(inputs, "chips_negative")


def test_dropped_focus_chip_is_caught(generated):
    inputs = generated("focus-infer")
    _edit(inputs.outputs["focus_chips"][0], lambda chips: chips[1:])
    assert checks.check_command(inputs, "focus_chips")


def test_unsorted_or_overlapping_detections_are_caught(generated):
    inputs = generated("focus-infer")
    path = inputs.outputs["stack_hard"][0]
    original = path.read_text()
    _edit(path, lambda dets: dets[:1] + dets)  # a duplicate overlaps at IoU 1
    assert any("IoU" in p for p in checks.check_command(inputs, "stack_hard"))
    path.write_text(original)
    _edit(path, lambda dets: dets[1::-1] + dets[2:])
    assert any("sorted" in p for p in checks.check_command(inputs, "stack_hard"))


def test_wrong_statistics_are_caught(generated):
    inputs = generated("dataset-stats")
    _edit(inputs.outputs["stats_roiscale"][0], lambda d: {**d, "n_instances": d["n_instances"] - 1})
    assert checks.check_command(inputs, "stats_roiscale")


def test_changed_output_between_rounds_is_caught(generated):
    inputs = generated("train-chips")
    finals = [digest([str(p) for p in inputs.outputs[label]]) for label, _ in inputs.commands]
    same = {"failures": [None, None], "digests": finals}
    outcome = bench.Outcome()
    bench.verify(inputs, [same, same], outcome)
    assert (outcome.attempted, outcome.failed) == (4, 0)
    changed = {"failures": [None, None], "digests": [finals[0], "0" * 64]}
    bench.verify(inputs, [changed, same], outcome)
    assert (outcome.attempted, outcome.failed) == (8, 1)
    assert outcome.problems == ["chips_negative: output differs from the last round"]


def test_tracer_counts_and_uninstalls(generated, tmp_path):
    inputs = generated("train-chips")
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.command(0, "chips_positive"):
            assert run_command(dict(inputs.commands)["chips_positive"])[1] is None
    finally:
        tracer.uninstall()
    assert cli.load_dataset is dataset.load_dataset
    tracer.dump(tmp_path / "trace.json")
    trace = spans.load(tmp_path / "trace.json")
    names = {span[0] for span in trace["spans"]}
    assert {"cli.chips_positive", "dataset.load_dataset", "chips.select_positive_chips"} <= names
    assert trace["counts"][0]["chips.positive_chips"] > 0
    assert all(t >= 0 for t in spans.self_times(trace["spans"]))
