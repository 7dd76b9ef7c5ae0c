"""Fuzzing of config loading through the CLI error contract.

Generated configs start from the JSON form of ``coco-default`` and make
any field, pyramid entry, scale target or section mistyped, null, NaN,
infinite, huge, missing or wrongly nested, and sometimes replace the whole
file with junk. Each case runs through ``validate``, ``show-config`` and
``stats areafractions``. Every run must either exit 0, or exit 1 with
exactly one JSON ``ConfigError`` line on stderr and no output file. A
traceback or any other stderr line fails the test; ``validate`` may print
its ``warning:`` lines on a run that exits 0.
"""
import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pyrsample.cli import main
from pyrsample.config import coco_default, config_to_dict

special = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 5e-324, 2**70, -(2**70), 0, -1]
)
other_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(0, 5), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
junk = st.one_of(special, special, other_junk)


def mostly(valid, bad=junk, one_in=6):
    """``valid``, except that one draw in ``one_in`` comes from ``bad``."""
    return st.integers(1, one_in).flatmap(lambda k: bad if k == 1 else valid)


def some_of(fields):
    """An object with all of ``fields``, or with any subset of them."""
    return st.fixed_dictionaries(fields) | st.fixed_dictionaries({}, optional=fields)


def plausible(default):
    """Values of the default's type, the default among them."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.just(default) | st.integers(-3, 600)
    if isinstance(default, float):
        return st.just(default) | st.floats(-1.0, 700.0)
    return st.sampled_from([default, "hard", "linear", "gaussian", "center", "enclose", "x"])


BASE = config_to_dict(coco_default())
SECTIONS = [name for name, value in BASE.items() if isinstance(value, dict)]

target = mostly(
    st.one_of(
        st.fixed_dictionaries({"factor": mostly(st.floats(0.1, 4.0))}),
        st.fixed_dictionaries({"max_side": mostly(st.integers(1, 2000))}),
        some_of({"width": mostly(st.integers(1, 2000)), "height": mostly(st.integers(1, 2000))}),
    )
)
valid_range = mostly(
    st.tuples(st.floats(0.0, 1e5), st.none() | st.floats(0.0, 1e6)).map(list)
    | st.lists(mostly(st.floats(0.0, 1e5)), max_size=3)
)
level = some_of({
    "scale_id": mostly(st.integers(0, 3)),
    "target": target,
    "valid_range": valid_range,
    "chip_size": mostly(st.integers(1, 600)),
    "chip_stride": mostly(st.integers(1, 600)),
    "absorb_below": mostly(st.booleans()),
    "absorb_above": mostly(st.booleans()),
})
pyramid = mostly(
    st.just(BASE["pyramid"]) | st.lists(mostly(level), max_size=4), one_in=5
)
section_values = {
    name: mostly(some_of({key: mostly(plausible(v)) for key, v in BASE[name].items()}))
    for name in SECTIONS
}
config = mostly(
    some_of({
        "profile": mostly(st.sampled_from(["coco-default", "custom"])),
        "pyramid": pyramid,
        **section_values,
    }),
    one_in=10,
)

ANNOTATIONS = {
    "images": [{"id": 1, "width": 640, "height": 480, "file_name": "a.jpg"}],
    "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [100, 100, 15, 15]}],
    "categories": [{"id": 1, "name": "a"}],
}


def _run(argv: list[str], out: Path | None = None) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
    lines = stderr.getvalue().splitlines()
    if rc == 0:
        assert all(line.startswith("warning: ") for line in lines), lines
        assert out is None or out.exists()
    else:
        assert rc == 1
        assert len(lines) == 1, lines
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ConfigError" and error["message"]
        assert out is None or not out.exists()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config)
# Each of these ended in a bare traceback before decoding went through
# per-type codecs: AttributeError, AttributeError, TypeError,
# OverflowError, KeyError and TypeError. A string is written verbatim.
@example([1, 2])
@example({"profile": "coco-default", "chips": []})
@example({"profile": "coco-default", "chips": {"seed": None}})
@example('{"profile": "coco-default", "chips": {"seed": 1e400}}')
@example({"pyramid": [{"scale_id": 0, "valid_range": [0.0, None]}]})
@example({"pyramid": [{"scale_id": 0, "target": 5}]})
@example({"profile": "coco-default", "stacking": {"boundary_eps": float("nan")}})
@example({"profile": "coco-default", "stacking": {"boundary_eps": float("inf")}})
def test_config_loading_exits_cleanly_on_any_input(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg, ann, out = tmp / "cfg.json", tmp / "ann.json", tmp / "fractions.json"
        cfg.write_text(data if isinstance(data, str) else json.dumps(data))
        ann.write_text(json.dumps(ANNOTATIONS))
        _run(["validate", "--config", str(cfg)])
        _run(["show-config", "--config", str(cfg)])
        _run(["stats", "areafractions", "--annotations", str(ann), "--config", str(cfg),
              "--out", str(out)], out)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0, "-1e400"])
@pytest.mark.parametrize("command", ["validate", "show-config", "stack"])
def test_bad_boundary_eps_is_one_config_error(tmp_path, capsys, eps, command):
    # NaN used to switch boundary pruning off, and inf dropped every
    # detection of an interior chip.
    cfg = tmp_path / "cfg.json"
    value = eps if isinstance(eps, str) else json.dumps(eps)
    cfg.write_text('{"profile": "coco-default", "stacking": {"boundary_eps": %s}}' % value)
    argv = [command, "--config", str(cfg)]
    if command == "stack":
        ann, dets = tmp_path / "ann.json", tmp_path / "dets.json"
        ann.write_text(json.dumps(ANNOTATIONS))
        dets.write_text("[]")
        argv += ["--annotations", str(ann), "--detections", str(dets),
                 "--out", str(tmp_path / "out.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.out == ""
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ConfigError" and "stacking.boundary_eps" in error["message"]


def test_zero_boundary_eps_is_accepted(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"profile": "coco-default", "stacking": {"boundary_eps": 0}}')
    assert main(["validate", "--config", str(cfg)]) == 0
