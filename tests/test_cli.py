import gc
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import pyrsample
from pyrsample import cli, serialization
from pyrsample.cli import main
from pyrsample.config import coco_default, config_to_dict
from pyrsample.focus_chips import FocusParams, generate_focus_chips
from pyrsample.focus_labels import FocusMap
from pyrsample.geometry import ImageSize
from pyrsample.serialization import read_map_binary, write_map_binary

from conftest import EXCERPT_PATH
from oracles import (
    BoundingBox,
    chip_grid_oracle,
    focus_pixel_stats_oracle,
    greedy_cover_oracle,
    load_dataset_oracle,
    load_proposals_oracle,
    rescale_box,
    resolve_oracle,
    select_negative_chips_oracle,
    speedup_upper_bound_oracle,
)


@pytest.fixture(autouse=True)
def collector_state_kept():
    """Every command leaves the cyclic collector as it found it, whether it
    succeeds or fails."""
    enabled = gc.isenabled()
    yield
    assert gc.isenabled() == enabled


@pytest.fixture
def small_coco(tmp_path):
    """Two images: one small object (focus at the fine scale) and one large."""
    data = {
        "images": [
            {"id": 1, "width": 640, "height": 480, "file_name": "a.jpg"},
            {"id": 2, "width": 500, "height": 375, "file_name": "b.jpg"},
        ],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [100, 100, 15, 15], "iscrowd": 0},
            {"id": 2, "image_id": 1, "category_id": 2, "bbox": [300, 200, 180, 180], "iscrowd": 0},
            {"id": 3, "image_id": 2, "category_id": 1, "bbox": [50, 60, 40, 40], "iscrowd": 0},
        ],
        "categories": [{"id": 1, "name": "small-thing"}, {"id": 2, "name": "big-thing"}],
    }
    path = tmp_path / "ann.json"
    path.write_text(json.dumps(data))
    return path


class TestValidate:
    def test_default_profile_ok(self, capsys):
        assert main(["validate"]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_runs_as_a_module(self):
        src = str(Path(pyrsample.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "pyrsample", "validate"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("config ok: profile=coco-default")

    def test_bad_config_fails_with_error_record(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pyramid": []}))
        assert main(["validate", "--config", str(cfg)]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "ConfigError"

    def test_show_config(self, capsys):
        assert main(["show-config"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["profile"] == "coco-default"
        assert len(data["pyramid"]) == 3
        # The text is frozen byte for byte.
        assert out == (Path(__file__).parent / "data" / "show_config_coco_default.json").read_text()

    def test_show_config_of_a_custom_profile(self, tmp_path, capsys):
        # A custom profile that gives only a pyramid takes every other value
        # from the library's defaults, which the default profile shows too.
        frozen = json.loads(
            (Path(__file__).parent / "data" / "show_config_coco_default.json").read_text())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": "mine", "pyramid": frozen["pyramid"]}))
        assert main(["show-config", "--config", str(cfg)]) == 0
        want = json.dumps({**frozen, "profile": "mine"}, indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("stride", [0, -32])
    @pytest.mark.parametrize(
        "argv",
        [["focus", "labels", "--scale", "1"], ["stats", "focuspixels"], ["stats", "speedup"]],
        ids=["focus-labels", "stats-focuspixels", "stats-speedup"],
    )
    def test_every_command_rejects_what_validate_rejects(
        self, small_coco, tmp_path, capsys, stride, argv
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": "coco-default", "focus": {"stride": stride}}))
        out = tmp_path / "out"
        rc = main([*argv, "--annotations", str(small_coco), "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ConfigError" and "stride" in error["message"]
        assert not out.exists()


    @pytest.mark.parametrize(
        "owner, key, argv",
        [
            ("pyramid[0]", "scale_id", "validate"),
            ("pyramid[0]", "scale_id", "chips positive"),
            ("pyramid[1]", "chip_size", "validate"),
            ("pyramid[1]", "chip_size", "chips positive"),
            ("focus", "stride", "validate"),
            ("focus", "stride", "stats focuspixels"),
            ("focus", "stride", "stats speedup"),
        ],
    )
    def test_integers_past_int64_are_refused(
        self, small_coco, tmp_path, capsys, owner, key, argv
    ):
        # A scale id or focus stride of 2^70 passed validate and then ended
        # the command in an OverflowError traceback.
        config = config_to_dict(coco_default())
        owners = {"pyramid[0]": config["pyramid"][0], "pyramid[1]": config["pyramid"][1],
                  "focus": config["focus"]}
        owners[owner][key] = 2**70
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.json"
        inputs = [] if argv == "validate" else ["--annotations", str(small_coco),
                                                "--out", str(out)]
        assert main([*argv.split(), "--config", str(cfg), *inputs]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {
            "type": "ConfigError",
            "message": f"{owner}.{key}: must be in [{-(2**63)}, {2**63 - 1}]: {2**70}",
        }
        assert not out.exists()


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


class TestErrorRecords:
    def test_missing_annotations(self, tmp_path, capsys):
        rc = main(
            ["chips", "positive", "--annotations", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "o.json")]
        )
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "DatasetParseError"
        assert not (tmp_path / "o.json").exists()

    def _only_error(self, capsys) -> dict:
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])["error"]

    @pytest.mark.parametrize("side", [1e308, 2**32])
    @pytest.mark.parametrize(
        "argv",
        [["chips", "positive"], ["chips", "negative", "--proposals", "{props}"],
         ["focus", "labels", "--scale", "1"], ["stack", "--detections", "{props}"],
         ["stats", "roiscale"], ["stats", "areafractions"], ["stats", "focuspixels"],
         ["stats", "speedup"]],
        ids=lambda argv: "-".join(a for a in argv if not a.startswith(("-", "{"))),
    )
    def test_image_too_large_for_the_map_header(self, small_coco, tmp_path, capsys, side,
                                                argv):
        # A .fmap header holds the canvas size as uint32; a 1e308-wide image
        # used to end stats roiscale, areafractions and speedup in an
        # OverflowError traceback.
        data = json.loads(small_coco.read_text())
        data["images"][1]["width"] = side
        small_coco.write_text(json.dumps(data))
        props = tmp_path / "props.json"
        props.write_text("[]")
        out = tmp_path / "out.json"
        argv = [a.replace("{props}", str(props)) for a in argv]
        assert main([*argv, "--annotations", str(small_coco), "--out", str(out)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "DatasetStructureError"
        assert "image id 2" in error["message"] and str(2**32 - 1) in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "factor, width, kind",
        # 1e300 fails the config's 640 x 480 probe. 2^22 passes it, with a
        # 2,684,354,560-pixel side, and fails on a 2000-pixel-wide image.
        [(1e300, 640, "ConfigError"), (2.0**22, 2000, "ValueError")],
        ids=["probe", "image"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["chips", "positive", "--diagnostics", "{diag}"], ["focus", "labels", "--scale", "0"],
         ["stats", "focuspixels"], ["stats", "speedup"]],
        ids=lambda argv: "-".join(a for a in argv if not a.startswith(("-", "{")) and a != "0"),
    )
    def test_canvas_side_past_the_map_header(self, tmp_path, capsys, factor, width, kind, argv):
        # A level whose canvas side passes 2^32 - 1 used to end stats
        # focuspixels and speedup in an OverflowError traceback, and chips
        # positive in exit 0 with a numpy warning and no chip for a valid box.
        ann, cfg, diag = tmp_path / "ann.json", tmp_path / "cfg.json", tmp_path / "diag.json"
        ann.write_text(json.dumps({
            "images": [{"id": 1, "width": width, "height": 480}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [100, 100, 15, 15]}],
            "categories": [{"id": 1, "name": "a"}],
        }))
        cfg.write_text(json.dumps({"pyramid": [{"scale_id": 0, "target": {"factor": factor}}]}))
        out = tmp_path / "out"
        argv = [a.replace("{diag}", str(diag)) for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([*argv, "--annotations", str(ann), "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        error = self._only_error(capsys)
        assert error["type"] == kind and str(2**32 - 1) in error["message"]
        assert not diag.exists()
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "bad",
        [{"bbox": [10, 10, 5, 5], "image_id": 1},
         {"bbox": [float("nan"), 10, 5, 5], "image_id": 1, "category_id": 1},
         {"bbox": [10, 10, 5, 5], "image_id": 1, "category_id": -3},
         {"bbox": [10, 10, 5, 5], "image_id": 1, "category_id": 2**70}],
        ids=["missing-category", "nan-bbox", "negative-category", "category-past-int64"],
    )
    def test_bad_annotation(self, small_coco, tmp_path, capsys, bad):
        data = json.loads(small_coco.read_text())
        data["annotations"].append({"id": 77, **bad})
        small_coco.write_text(json.dumps(data))
        rc = main(["stats", "areafractions", "--annotations", str(small_coco)])
        assert rc == 1
        error = self._only_error(capsys)
        assert error["type"] == "DatasetStructureError"
        assert "annotation id 77" in error["message"]

    def test_duplicate_image_id(self, small_coco, capsys):
        data = json.loads(small_coco.read_text())
        data["images"].append({"id": 2, "width": 10, "height": 10})
        small_coco.write_text(json.dumps(data))
        assert main(["stats", "areafractions", "--annotations", str(small_coco)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "DatasetStructureError"
        assert error["message"] == f"{small_coco}: duplicate image id 2"

    @pytest.mark.parametrize(
        "change",
        [("images", {"id": float("inf"), "width": 10, "height": 10}),
         ("categories", {"name": "no-id"}),
         ("categories", {"id": float("-inf")}),
         ("categories", 7),
         ("annotations", {"id": 78, "image_id": float("inf"), "category_id": 1,
                          "bbox": [1, 1, 2, 2]})],
        ids=["infinite-image-id", "category-without-id", "infinite-category-id",
             "category-not-a-list", "infinite-annotation-image-id"],
    )
    def test_bad_coco_entry(self, small_coco, capsys, change):
        key, value = change
        data = json.loads(small_coco.read_text())
        if isinstance(value, dict):
            data[key].append(value)
        else:
            data[key] = value
        small_coco.write_text(json.dumps(data))
        assert main(["stats", "areafractions", "--annotations", str(small_coco)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "DatasetStructureError"
        assert str(small_coco) in error["message"]

    @pytest.mark.parametrize(
        "entry",
        [{"image_id": float("inf"), "bbox": [1, 1, 5, 5], "score": 0.5},
         {"image_id": 1, "bbox": [1, 1, 5, 5], "score": 2.0},
         {"image_id": 1, "bbox": [1, 1, 5, 5], "score": float("nan")},
         {"image_id": 1, "bbox": [1, 1, 5], "score": 0.5}],
        ids=["infinite-image-id", "score-above-1", "nan-score", "short-bbox"],
    )
    def test_bad_proposal(self, small_coco, tmp_path, capsys, entry):
        props = tmp_path / "props.json"
        good = {"image_id": 2, "bbox": [10, 10, 5, 5], "score": 0.5}
        props.write_text(json.dumps([good, entry]))
        rc = main(["chips", "negative", "--annotations", str(small_coco),
                   "--proposals", str(props), "--out", str(tmp_path / "neg.json")])
        assert rc == 1
        error = self._only_error(capsys)
        assert error["type"] == "DatasetStructureError"
        assert f"{props}: entry 1:" in error["message"]
        assert not (tmp_path / "neg.json").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [("images", "width", 640.9), ("images", "height", True), ("images", "id", 1.5),
         ("annotations", "image_id", 1.9), ("annotations", "category_id", 1.5),
         ("annotations", "category_id", True), ("categories", "id", 1.5),
         ("categories", "id", "1"), ("proposals", "image_id", 1.9),
         ("proposals", "image_id", False)],
        ids=["fractional-width", "true-height", "fractional-image-id",
             "fractional-annotation-image-id", "fractional-category", "true-category",
             "fractional-category-entry-id", "text-category-entry-id",
             "fractional-proposal-image-id", "false-proposal-image-id"],
    )
    def test_integer_fields_are_strict(self, small_coco, tmp_path, capsys, section, key, value):
        # int() would read 640.9 as 640 and true as 1, and the run would exit 0.
        data = json.loads(small_coco.read_text())
        data["categories"][0]["id"] = 1
        proposals = [{"image_id": 1, "bbox": [300, 200, 40, 40], "score": 0.5}]
        entry = proposals[0] if section == "proposals" else data[section][0]
        entry[key] = value
        small_coco.write_text(json.dumps(data))
        props = tmp_path / "props.json"
        props.write_text(json.dumps(proposals))
        out = tmp_path / "chips.json"
        argv = ["chips", "negative", "--proposals", str(props)] if section == "proposals" \
            else ["chips", "positive"]
        assert main([*argv, "--annotations", str(small_coco), "--out", str(out)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "DatasetStructureError"
        assert f"{key} must be an integer: {value!r}" in error["message"]
        assert (str(props) if section == "proposals" else str(small_coco)) in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value, rule",
        [("annotations", "iscrowd", "0", "0, 1, false or true"),
         ("annotations", "iscrowd", 2, "0, 1, false or true"),
         ("proposals", "score", "0.5", "a number"), ("proposals", "score", True, "a number")],
        ids=["text-crowd", "two-crowd", "text-score", "true-score"],
    )
    def test_flag_and_score_fields_are_strict(self, small_coco, tmp_path, capsys, section, key,
                                              value, rule):
        # bool() would read "0" as crowd and float() would read "0.5" and true.
        data = json.loads(small_coco.read_text())
        proposals = [{"image_id": 1, "bbox": [300, 200, 40, 40], "score": 0.5}]
        (proposals if section == "proposals" else data[section])[0][key] = value
        small_coco.write_text(json.dumps(data))
        props = tmp_path / "props.json"
        props.write_text(json.dumps(proposals))
        out = tmp_path / "chips.json"
        argv = ["chips", "negative", "--proposals", str(props)] if section == "proposals" \
            else ["chips", "positive"]
        assert main([*argv, "--annotations", str(small_coco), "--out", str(out)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "DatasetStructureError"
        name = "entry 0" if section == "proposals" else "annotation id 1"
        source = props if section == "proposals" else small_coco
        assert error["message"] == f"{source}: {name}: {key} must be {rule}: {value!r}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, bbox, problem",
        [("annotations", ["100", "100", "15", "15"], "bbox must be a number: '100'"),
         ("annotations", [100, 100, True, 15], "bbox must be a number: True"),
         ("annotations", "1234", "bbox must be 4 numbers: '1234'"),
         ("proposals", ["10", "10", True, "50"], "bbox must be a number: '10'"),
         ("proposals", [10, 10, 50, False], "bbox must be a number: False")],
        ids=["text-annotation", "true-annotation", "text-annotation-bbox", "text-proposal",
             "false-proposal"],
    )
    def test_bbox_values_must_be_numbers(self, small_coco, tmp_path, capsys, section, bbox,
                                         problem):
        # float() and a numpy float array read "100" as 100, true as 1 and
        # the text "1234" as [1, 2, 3, 4], and the run would exit 0.
        data = json.loads(small_coco.read_text())
        proposals = [{"image_id": 1, "bbox": [300, 200, 40, 40], "score": 0.5},
                     {"image_id": 2, "bbox": [10, 10, 40, 40], "score": 0.5}]
        (proposals if section == "proposals" else data[section])[1]["bbox"] = bbox
        small_coco.write_text(json.dumps(data))
        props = tmp_path / "props.json"
        props.write_text(json.dumps(proposals))
        out = tmp_path / "chips.json"
        argv = ["chips", "negative", "--proposals", str(props)] if section == "proposals" \
            else ["chips", "positive"]
        assert main([*argv, "--annotations", str(small_coco), "--out", str(out)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "DatasetStructureError"
        name = "entry 1" if section == "proposals" else "annotation id 2"
        source = props if section == "proposals" else small_coco
        assert error["message"] == f"{source}: {name}: {problem}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "first, problem",
        [({"bbox": [10, 10, -5, 50]}, "negative bbox extent: [10.0, 10.0, -5.0, 50.0]"),
         ({"score": 1.5}, "score not in [0, 1]: 1.5")],
        ids=["negative-width", "score-above-1"],
    )
    def test_proposal_error_names_the_first_bad_entry(self, small_coco, tmp_path, capsys,
                                                      first, problem):
        # Running each check over the whole file named entry 1, whose bbox
        # is not finite, before entry 0.
        proposals = [{"image_id": 1, "bbox": [10, 10, 40, 50], "score": 0.5, **first},
                     {"image_id": 1, "bbox": [10, 10, float("inf"), 50], "score": 0.5}]
        props = tmp_path / "props.json"
        props.write_text(json.dumps(proposals))
        out = tmp_path / "neg.json"
        assert main(["chips", "negative", "--annotations", str(small_coco),
                     "--proposals", str(props), "--out", str(out)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "DatasetStructureError"
        assert error["message"] == f"{props}: entry 0: {problem}"
        assert not out.exists()

    def test_integral_floats_read_as_ints(self, small_coco, tmp_path):
        outs = []
        for name, as_float in (("ints", False), ("floats", True)):
            data = json.loads(small_coco.read_text())
            if as_float:
                for image in data["images"]:
                    image.update({k: float(image[k]) for k in ("id", "width", "height")})
                for ann in data["annotations"]:
                    ann.update({k: float(ann[k]) for k in ("image_id", "category_id")})
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            outs.append(tmp_path / f"{name}-chips.json")
            assert main(["chips", "positive", "--annotations", str(path), "--out",
                         str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("image_id", [2**63, -(2**63) - 1])
    def test_image_id_past_int64(self, small_coco, tmp_path, capsys, image_id):
        data = json.loads(small_coco.read_text())
        data["images"].append({"id": image_id, "width": 10, "height": 10})
        small_coco.write_text(json.dumps(data))
        out = tmp_path / "chips.json"
        assert main(["chips", "positive", "--annotations", str(small_coco),
                     "--out", str(out)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "DatasetStructureError" and str(image_id) in error["message"]
        assert not out.exists()

    def test_two_files_for_one_focus_map(self, tmp_path, capsys):
        # 7_s1.fmap and 007_s1.fmap both name image 7 at scale 1; their chips
        # would overlap.
        maps_dir = tmp_path / "pmaps"
        maps_dir.mkdir()
        cells = np.zeros((4, 4))
        cells[1, 1] = 0.9
        pm = FocusMap(cells=cells, stride=32, image=ImageSize(128, 128))
        for name in ("7_s1.fmap", "007_s1.fmap"):
            write_map_binary(maps_dir / name, pm)
        out = tmp_path / "fchips.json"
        assert main(["focus", "chips", "--probmaps", str(maps_dir), "--out", str(out)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "FormatError"
        assert str(maps_dir / "7_s1.fmap") in error["message"]
        assert str(maps_dir / "007_s1.fmap") in error["message"]
        assert not out.exists()

    def test_focus_map_ids_are_ascii_digits(self, tmp_path, capsys):
        # "\u0667" is ARABIC-INDIC DIGIT SEVEN, which \d matches and int() reads as 7.
        maps_dir = tmp_path / "pmaps"
        maps_dir.mkdir()
        cells = np.zeros((4, 4))
        cells[1, 1] = 0.9
        pm = FocusMap(cells=cells, stride=32, image=ImageSize(128, 128))
        for name in ("7_s1.fmap", "\u0667_s1.fmap"):
            write_map_binary(maps_dir / name, pm)
        out = tmp_path / "fchips.json"
        assert main(["focus", "chips", "--probmaps", str(maps_dir), "--out", str(out),
                     "--min-chip-size", "8"]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "FormatError"
        assert error["message"].startswith(f"{maps_dir / chr(0x667)}_s1.fmap: ")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["notes.fmap", "1_2.fmap", "1_s2_b.fmap", "+1_s2.fmap"])
    def test_focus_map_names_follow_one_pattern(self, tmp_path, capsys, name):
        # A map whose name holds no image and scale id used to be skipped.
        maps_dir = tmp_path / "pmaps"
        maps_dir.mkdir()
        pm = FocusMap(cells=np.full((4, 4), 0.9), stride=32, image=ImageSize(128, 128))
        for path in ("1_s1.fmap", name):
            write_map_binary(maps_dir / path, pm)
        out = tmp_path / "fchips.json"
        assert main(["focus", "chips", "--probmaps", str(maps_dir), "--out", str(out)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "FormatError"
        assert error["message"] == (
            f"{maps_dir / name}: map file names must be <image_id>_s<scale_id>.fmap")
        assert not out.exists()

    @pytest.mark.parametrize(
        "name", [f"{2**63}_s1.fmap", f"1_s{2**63}.fmap", f"{-(2**63) - 1}_s1.fmap"])
    def test_focus_map_ids_past_int64(self, tmp_path, capsys, name):
        maps_dir = tmp_path / "pmaps"
        maps_dir.mkdir()
        pm = FocusMap(cells=np.full((4, 4), 0.9), stride=32, image=ImageSize(128, 128))
        for path in (f"{-(2**63)}_s{2**63 - 1}.fmap", name):
            write_map_binary(maps_dir / path, pm)
        out = tmp_path / "fchips.json"
        assert main(["focus", "chips", "--probmaps", str(maps_dir), "--out", str(out)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "FormatError"
        assert error["message"] == (
            f"{maps_dir / name}: image and scale ids must be in [{-(2**63)}, {2**63 - 1}]")
        assert not out.exists()

    @pytest.mark.parametrize(
        "path",
        [("canvas",), ("image_id",), ("scale_id",),
         ("detections", 0, "bbox"), ("detections", 0, "score"),
         ("detections", 0, "category_id")],
        ids=lambda p: ".".join(map(str, p)),
    )
    def test_stack_record_missing_key(self, small_coco, tmp_path, capsys, path):
        record = {
            "image_id": 2,
            "scale_id": 0,
            "canvas": {"width": 500, "height": 375},
            "chip": None,
            "detections": [{"bbox": [10, 10, 150, 150], "score": 0.6, "category_id": 1}],
        }
        holder = record
        for key in path[:-1]:
            holder = holder[key]
        del holder[path[-1]]
        det_file = tmp_path / "dets.json"
        det_file.write_text(json.dumps([record]))
        rc = main(
            ["stack", "--annotations", str(small_coco), "--detections", str(det_file),
             "--out", str(tmp_path / "merged.json")]
        )
        assert rc == 1
        assert self._only_error(capsys)["type"] == "FormatError"
        assert not (tmp_path / "merged.json").exists()

    @pytest.mark.parametrize(
        "change",
        [{"bbox": [float("nan"), 10, 150, 150]},
         {"bbox": [10, 10, float("inf"), 150]},
         {"bbox": [10, float("-inf"), 150, 150]},
         {"bbox": [10, 10, -5, 150]},
         {"bbox": [10, 10, 150, -0.5]},
         {"score": 1.5},
         {"score": float("nan")},
         {"chip": [0, 0, float("nan"), 375]},
         # a 640x480 image seen on a 320x240 canvas: x + w doubles past the
         # largest float when projected to the image
         {"image_id": 1, "canvas": {"width": 320, "height": 240},
          "bbox": [0, 0, 1e308, 1e-300]}],
        ids=["nan-x", "inf-w", "neg-inf-y", "negative-w", "negative-h", "score-above-1", "nan-score",
             "nan-chip", "overflow-after-projection"],
    )
    def test_stack_bad_detection(self, small_coco, tmp_path, capsys, change):
        # too small for scale 0, so the range filter drops it before projection
        small = {"bbox": [5, 5, 10, 10], "score": 0.5, "category_id": 1}
        good = {"bbox": [200, 200, 150, 150], "score": 0.7, "category_id": 1}
        bad = {"bbox": [10, 10, 150, 150], "score": 0.6, "category_id": 1}
        record = {
            "image_id": 2,
            "scale_id": 0,
            "canvas": {"width": 500, "height": 375},
            "chip": None,
            "detections": [small, good, bad],
        }
        for key, value in change.items():
            (record if key in record else bad)[key] = value
        det_file = tmp_path / "dets.json"
        det_file.write_text(json.dumps([record]))
        rc = main(
            ["stack", "--annotations", str(small_coco), "--detections", str(det_file),
             "--out", str(tmp_path / "merged.json")]
        )
        assert rc == 1
        error = self._only_error(capsys)
        assert error["type"] == "FormatError"
        assert "record 0" in error["message"]
        if "chip" not in change:
            assert "detection 2" in error["message"]
        assert not (tmp_path / "merged.json").exists()

    STACK_DETECTION = {"bbox": [200, 200, 150, 150], "score": 0.7, "category_id": 1}
    STACK_RECORD = {
        "image_id": 2,
        "scale_id": 0,
        "canvas": {"width": 500, "height": 375},
        "chip": None,
        "detections": [STACK_DETECTION,
                       {"bbox": [20, 20, 150, 150], "score": 0.6, "category_id": 2}],
    }

    def _stack_records(self, small_coco, tmp_path, records):
        det_file = tmp_path / "dets.json"
        det_file.write_text(json.dumps(records))
        out = tmp_path / "merged.json"
        rc = main(["stack", "--annotations", str(small_coco), "--detections", str(det_file),
                   "--out", str(out)])
        return rc, out

    @staticmethod
    def _changed(record, path, value):
        record = json.loads(json.dumps(record))
        holder = record
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        return record

    @pytest.mark.parametrize("bbox", [[1e17, 10, -1, 20], [10, 1e17, 20, -1]],
                             ids=["negative-w", "negative-h"])
    def test_stack_negative_extent_hidden_by_rounding(self, small_coco, tmp_path, capsys, bbox):
        # x + w rounds back to x, so a test on the corners misses the
        # negative extent, and the range filter used to drop the detection.
        bad = {"bbox": bbox, "score": 0.6, "category_id": 1}
        record = self._changed(self.STACK_RECORD, ("detections",),
                               [self.STACK_DETECTION, bad])
        rc, out = self._stack_records(small_coco, tmp_path, [record])
        assert rc == 1
        error = self._only_error(capsys)
        assert error["type"] == "FormatError"
        assert error["message"] == (
            f"{tmp_path / 'dets.json'}: record 0: detection 1: bbox width and height must be "
            f"non-negative: {bad!r}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value",
        [(("image_id",), 1.9), (("image_id",), True), (("scale_id",), 0.5),
         (("scale_id",), False), (("canvas", "width"), 500.5), (("canvas", "height"), "375"),
         (("detections", 1, "category_id"), 2.7), (("detections", 1, "category_id"), True),
         (("detections", 1, "category_id"), float("inf"))],
        ids=["fractional-image", "true-image", "fractional-scale", "false-scale",
             "fractional-width", "string-height", "fractional-category", "true-category",
             "infinite-category"],
    )
    def test_stack_integer_fields(self, small_coco, tmp_path, capsys, path, value):
        # int() would truncate 1.9 to image 1 and 2.7 to class 2 and exit 0.
        good = self.STACK_RECORD
        records = [good, good, self._changed(good, path, value), good]
        rc, out = self._stack_records(small_coco, tmp_path, records)
        assert rc == 1
        error = self._only_error(capsys)
        assert error["type"] == "FormatError"
        name = "canvas " + path[-1] if path[0] == "canvas" else path[-1]
        detection = "detection 1: " if path[0] == "detections" else ""
        assert error["message"] == (
            f"{tmp_path / 'dets.json'}: record 2: {detection}{name} must be an integer: {value!r}")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0.5", True, None, [0.5]])
    def test_stack_score_must_be_a_number(self, small_coco, tmp_path, capsys, value):
        # A numpy float array would read "0.5" and true, and null as NaN.
        good = self.STACK_RECORD
        records = [good, good, self._changed(good, ("detections", 1, "score"), value)]
        rc, out = self._stack_records(small_coco, tmp_path, records)
        assert rc == 1
        error = self._only_error(capsys)
        assert error["type"] == "FormatError"
        assert error["message"] == (
            f"{tmp_path / 'dets.json'}: record 2: detection 1: score must be a number: {value!r}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value, problem",
        [(("detections", 1, "bbox"), ["20", "20", "150", "150"],
          "detection 1: bbox must be a number: '20'"),
         (("detections", 1, "bbox"), [10, 10, True, "50"],
          "detection 1: bbox must be a number: True"),
         (("chip",), ["0", "0", "500", "375"], "chip must be a number: '0'"),
         (("chip",), [0, 0, 500, True], "chip must be a number: True")],
        ids=["text-bbox", "true-bbox", "text-chip", "true-chip"],
    )
    def test_stack_bbox_and_chip_values_must_be_numbers(self, small_coco, tmp_path, capsys, path,
                                                        value, problem):
        # A numpy float array reads "20" as 20 and true as 1, and the
        # detection would be merged and written as numbers.
        good = self.STACK_RECORD
        records = [good, good, self._changed(good, path, value)]
        rc, out = self._stack_records(small_coco, tmp_path, records)
        assert rc == 1
        error = self._only_error(capsys)
        assert error["type"] == "FormatError"
        assert error["message"] == f"{tmp_path / 'dets.json'}: record 2: {problem}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, problem",
        [({}, "detections must be a JSON array: {}"),
         ("", "detections must be a JSON array: ''"),
         (None, "detections must be a JSON array: None"),
         ({"bbox": [1, 2, 3, 4]}, "detections must be a JSON array: {'bbox': [1, 2, 3, 4]}"),
         ([STACK_DETECTION, 5], "detection 1 must be a JSON object: 5"),
         ([STACK_DETECTION, [1, 2, 3, 4]], "detection 1 must be a JSON object: [1, 2, 3, 4]")],
        ids=["object", "text", "null", "one-detection-object", "number-detection",
             "list-detection"],
    )
    def test_stack_detections_must_be_an_array_of_objects(self, small_coco, tmp_path, capsys,
                                                          value, problem):
        # {} and "" have a length, and used to read as no detections.
        good = self.STACK_RECORD
        records = [good, self._changed(good, ("detections",), value), good]
        rc, out = self._stack_records(small_coco, tmp_path, records)
        assert rc == 1
        error = self._only_error(capsys)
        assert error["type"] == "FormatError"
        assert error["message"] == f"{tmp_path / 'dets.json'}: record 1: {problem}"
        assert not out.exists()

    def test_stack_record_without_detections_has_none(self, small_coco, tmp_path):
        good = self.STACK_RECORD
        empty = self._changed(good, ("detections",), [])
        del empty["detections"]
        rc, out = self._stack_records(small_coco, tmp_path, [good, empty])
        assert rc == 0
        assert out.read_text() == self._stack_records(small_coco, tmp_path, [good])[1].read_text()

    def test_stack_canvas_too_large_for_a_float(self, small_coco, tmp_path, capsys):
        # Used to end in an OverflowError traceback when pruning.
        record = self._changed(self.STACK_RECORD, ("canvas", "width"), 2**1100)
        rc, out = self._stack_records(small_coco, tmp_path, [self.STACK_RECORD, record])
        assert rc == 1
        assert self._only_error(capsys)["message"] == (
            f"{tmp_path / 'dets.json'}: record 1: int too large to convert to float")
        assert not out.exists()

    def test_stack_integral_floats_read_as_ints(self, small_coco, tmp_path):
        as_ints = self._stack_records(small_coco, tmp_path, [self.STACK_RECORD])[1].read_text()
        record = self._changed(self.STACK_RECORD, ("image_id",), 2.0)
        record = self._changed(record, ("canvas", "width"), 500.0)
        record = self._changed(record, ("detections", 1, "category_id"), 2.0)
        rc, out = self._stack_records(small_coco, tmp_path, [record])
        assert rc == 0
        assert out.read_text() == as_ints

    def test_stack_error_names_the_lowest_record(self, small_coco, tmp_path, capsys):
        # Record 2 parses, but one box overflows once projected to the image;
        # record 5 lacks a bbox. Record 2 comes first.
        good = self.STACK_RECORD
        overflow = self._changed(good, ("image_id",), 1)
        overflow["canvas"] = {"width": 320, "height": 240}
        overflow["detections"].append({"bbox": [0, 0, 1e308, 1e-300], "score": 0.6,
                                       "category_id": 1})
        no_bbox = self._changed(good, ("detections", 1), {"score": 0.5, "category_id": 1})
        records = [good, good, overflow, good, good, no_bbox]
        rc, out = self._stack_records(small_coco, tmp_path, records)
        assert rc == 1
        assert self._only_error(capsys)["message"] == (
            f"{tmp_path / 'dets.json'}: record 2: detection 2: bbox is not finite in the "
            f"original image frame: {overflow['detections'][2]!r}")
        assert not out.exists()

    def test_stack_error_names_the_lower_of_two_bad_records(self, small_coco, tmp_path, capsys):
        good = self.STACK_RECORD
        bad_score = self._changed(good, ("detections", 1, "score"), 1.5)
        unknown_image = self._changed(good, ("image_id",), 9)
        records = [good, unknown_image, good, bad_score]
        assert self._stack_records(small_coco, tmp_path, records)[0] == 1
        assert self._only_error(capsys)["message"] == "detections reference unknown image id 9"
        records = [good, bad_score, good, unknown_image]
        assert self._stack_records(small_coco, tmp_path, records)[0] == 1
        assert self._only_error(capsys)["message"] == (
            f"{tmp_path / 'dets.json'}: record 1: detection 1: score must be in [0, 1]: "
            f"{bad_score['detections'][1]!r}")

    def test_stack_unknown_ids_name_the_first_record(self, small_coco, tmp_path, capsys):
        good = self.STACK_RECORD
        unknown_scale = self._changed(good, ("scale_id",), 7)
        unknown_image = self._changed(good, ("image_id",), 9)
        records = [good, unknown_scale, good, unknown_image]
        rc, out = self._stack_records(small_coco, tmp_path, records)
        assert rc == 1
        assert self._only_error(capsys)["message"] == "detections reference unknown scale id 7"
        assert not out.exists()
        # In one record, the image id is checked before the scale id.
        both = self._changed(unknown_scale, ("image_id",), 9)
        assert self._stack_records(small_coco, tmp_path, [good, both])[0] == 1
        assert self._only_error(capsys)["message"] == "detections reference unknown image id 9"

    @pytest.mark.parametrize("image_id", [2**63, -(2**63) - 1, 2**70])
    def test_stack_image_id_past_int64_is_unknown(self, small_coco, tmp_path, capsys, image_id):
        records = [self.STACK_RECORD, self._changed(self.STACK_RECORD, ("image_id",), image_id)]
        rc, out = self._stack_records(small_coco, tmp_path, records)
        assert rc == 1
        assert self._only_error(capsys)["message"] == (
            f"detections reference unknown image id {image_id}")
        assert not out.exists()

    def test_zero_stride_map(self, tmp_path, capsys):
        maps_dir = tmp_path / "pmaps"
        maps_dir.mkdir()
        header = struct.pack("<4s5I2s", b"FMAP", 2, 2, 0, 64, 64, b"f4")
        (maps_dir / "1_s0.fmap").write_bytes(header + np.ones(4, dtype="<f4").tobytes())
        rc = main(["focus", "chips", "--probmaps", str(maps_dir), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert self._only_error(capsys)["type"] == "FormatError"

    @pytest.mark.parametrize(
        "payload",
        [np.array([0.9, np.nan, 0.1, 0.0], dtype="<f4").tobytes(), bytes(7)],
        ids=["nan-cell", "partial-cell"],
    )
    def test_bad_probability_map_named(self, tmp_path, capsys, payload):
        maps_dir = tmp_path / "pmaps"
        maps_dir.mkdir()
        header = struct.pack("<4s5I2s", b"FMAP", 2, 2, 32, 64, 64, b"f4")
        (maps_dir / "1_s0.fmap").write_bytes(header + payload)
        out = tmp_path / "o.json"
        rc = main(["focus", "chips", "--probmaps", str(maps_dir), "--out", str(out)])
        assert rc == 1
        error = self._only_error(capsys)
        assert error["type"] == "FormatError"
        assert "1_s0.fmap" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_probmaps_must_be_a_directory(self, tmp_path, capsys, kind):
        # Used to exit 0 and write no chips from 0 maps.
        probmaps = tmp_path / "pmaps"
        if kind == "file":
            probmaps.write_bytes(b"")
        out = tmp_path / "o.json"
        assert main(["focus", "chips", "--probmaps", str(probmaps), "--out", str(out)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "FormatError"
        assert error["message"] == (
            f"{probmaps}: --probmaps must name a directory of .fmap files")
        assert not out.exists()

    def test_empty_probmaps_directory_gives_no_chips(self, tmp_path):
        (tmp_path / "pmaps").mkdir()
        out = tmp_path / "o.json"
        assert main(["focus", "chips", "--probmaps", str(tmp_path / "pmaps"),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == []

    @pytest.mark.parametrize("junk", [b"[\xff]", b'[{"image_id": 1,'], ids=["not-utf8", "not-json"])
    @pytest.mark.parametrize("which", ["annotations", "proposals"])
    def test_undecodable_dataset_file_is_named(self, small_coco, tmp_path, capsys, junk, which):
        path = small_coco if which == "annotations" else tmp_path / "props.json"
        path.write_bytes(junk)
        out = tmp_path / "neg.json"
        assert main(["chips", "negative", "--annotations", str(small_coco),
                     "--proposals", str(tmp_path / "props.json"), "--out", str(out)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "DatasetParseError"
        assert error["message"].startswith(f"malformed JSON in {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("junk", [b"[\xff]", b'[{"image_id": 1,'], ids=["not-utf8", "not-json"])
    def test_undecodable_stack_file_is_named(self, small_coco, tmp_path, capsys, junk):
        # In a directory, the error names the one file that does not decode.
        folder = tmp_path / "dets"
        folder.mkdir()
        (folder / "a.json").write_text(json.dumps([self.STACK_RECORD]))
        (folder / "b.json").write_bytes(junk)
        (folder / "c.json").write_text(json.dumps([self.STACK_RECORD]))
        out = tmp_path / "merged.json"
        assert main(["stack", "--annotations", str(small_coco), "--detections", str(folder),
                     "--out", str(out)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == "FormatError"
        assert error["message"].startswith(f"malformed JSON in {folder / 'b.json'}: ")
        assert not out.exists()

    @pytest.mark.parametrize("which", ["annotations", "proposals", "detections"])
    def test_deeply_nested_json_is_named(self, small_coco, tmp_path, capsys, which):
        # Too deep for Python's decoder, which raises RecursionError.
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 200_000 + "]" * 200_000)
        argv = {
            "annotations": ["stats", "roiscale", "--annotations", str(nested)],
            "proposals": ["chips", "negative", "--annotations", str(small_coco),
                          "--proposals", str(nested)],
            "detections": ["stack", "--annotations", str(small_coco), "--detections", str(nested)],
        }[which]
        out = tmp_path / "o.json"
        assert main(argv + ["--out", str(out)]) == 1
        error = self._only_error(capsys)
        assert error["type"] == ("FormatError" if which == "detections" else "DatasetParseError")
        assert error["message"].startswith(f"malformed JSON in {nested}: ")
        assert not out.exists()

    @pytest.mark.parametrize("ks", ["64,64", "0", "-64", "64,128,64"])
    def test_speedup_bad_k(self, small_coco, tmp_path, capsys, ks):
        out = tmp_path / "sp.json"
        rc = main(["stats", "speedup", "--annotations", str(small_coco), "--out", str(out),
                   "--k", ks])
        assert rc == 1
        assert self._only_error(capsys)["type"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("which", ["speedup", "focuspixels"])
    @pytest.mark.parametrize("dilation", ["0", "-3", "2", "4"])
    def test_stats_bad_dilation(self, small_coco, tmp_path, capsys, which, dilation):
        out = tmp_path / "o.json"
        rc = main(["stats", which, "--annotations", str(small_coco), "--out", str(out),
                   "--dilation", dilation])
        assert rc == 1
        assert self._only_error(capsys)["type"] == "ValueError"
        assert not out.exists()


class TestErrorRecordsInPieces(TestErrorRecords):
    """Every error case above with its proposal file decoded in pieces:
    files of 16 characters or more per piece split, on four CPUs. The same
    error line comes out."""

    @pytest.fixture(autouse=True)
    def in_pieces(self, monkeypatch):
        monkeypatch.setattr(serialization, "MIN_PIECE_CHARS", 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


class TestChipsPositive:
    def test_writes_chips_and_is_deterministic(self, small_coco, tmp_path):
        out1 = tmp_path / "chips1.json"
        out2 = tmp_path / "chips2.json"
        assert main(["chips", "positive", "--annotations", str(small_coco), "--out", str(out1)]) == 0
        assert main(["chips", "positive", "--annotations", str(small_coco), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        records = json.loads(out1.read_text())
        assert records, "expected at least one chip"
        kinds = {r["kind"] for r in records}
        assert kinds == {"positive"}
        # every record is well-formed
        for r in records:
            assert set(r) == {"image_id", "scale_id", "rect", "kind", "covered_gt_ids", "cropped_gt"}


class TestChipsNegative:
    def test_pool_and_sample(self, small_coco, tmp_path):
        props = tmp_path / "props.json"
        records = []
        rng = np.random.default_rng(0)
        for _ in range(30):
            x, y = rng.uniform(0, 600), rng.uniform(0, 440)
            records.append(
                {"image_id": 1, "bbox": [float(x), float(y), 20.0, 20.0], "score": 0.7}
            )
        props.write_text(json.dumps(records))
        out = tmp_path / "neg.json"
        assert main(
            ["chips", "negative", "--annotations", str(small_coco),
             "--proposals", str(props), "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"pool", "sampled"}
        assert len(payload["sampled"]) <= len(payload["pool"])
        for rec in payload["pool"]:
            assert rec["kind"] == "negative"


class TestFocusPipeline:
    def test_labels_then_chips(self, small_coco, tmp_path):
        maps_dir = tmp_path / "maps"
        assert main(
            ["focus", "labels", "--annotations", str(small_coco), "--scale", "2",
             "--out", str(maps_dir), "--json"]
        ) == 0
        files = sorted(maps_dir.glob("*.fmap"))
        assert [f.name for f in files] == ["1_s2.fmap", "2_s2.fmap"]
        lm = read_map_binary(files[0])
        # the 15-px object is a focus object at 3x (side 45)
        assert (lm.cells == 1).any()
        assert (maps_dir / "1_s2.json").exists()

        out = tmp_path / "fchips.json"
        assert main(
            ["focus", "chips", "--probmaps", str(maps_dir), "--out", str(out),
             "--min-chip-size", "64"]
        ) == 0
        records = json.loads(out.read_text())
        assert records and all(r["kind"] == "focus" for r in records)
        by_image = {r["image_id"] for r in records}
        assert 1 in by_image

    def test_negative_ids_round_trip(self, small_coco, tmp_path):
        # Image ids and config scale ids may be negative; focus chips reads
        # back every map name that focus labels writes.
        data = json.loads(small_coco.read_text())
        data["images"][0]["id"] = -5
        for ann in data["annotations"]:
            ann["image_id"] = -5 if ann["image_id"] == 1 else ann["image_id"]
        small_coco.write_text(json.dumps(data))
        config = config_to_dict(coco_default())
        config["pyramid"][2]["scale_id"] = -1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        maps_dir = tmp_path / "maps"
        assert main(["focus", "labels", "--annotations", str(small_coco), "--config", str(cfg),
                     "--scale", "-1", "--out", str(maps_dir)]) == 0
        assert sorted(f.name for f in maps_dir.glob("*.fmap")) == ["-5_s-1.fmap", "2_s-1.fmap"]
        out = tmp_path / "fchips.json"
        assert main(["focus", "chips", "--probmaps", str(maps_dir), "--config", str(cfg),
                     "--out", str(out), "--threshold", "1"]) == 0
        records = json.loads(out.read_text())
        assert {r["scale_id"] for r in records} == {-1}
        assert -5 in {r["image_id"] for r in records}

    @pytest.mark.parametrize("min_chip_size", [1, 64])
    def test_excerpt_labels_then_chips(self, tmp_path, capsys, min_chip_size):
        maps_dir = tmp_path / "maps"
        for scale in ("1", "2"):
            assert main(["focus", "labels", "--annotations", str(EXCERPT_PATH), "--scale", scale,
                         "--out", str(maps_dir)]) == 0
        out = tmp_path / "fchips.json"
        assert main(["focus", "chips", "--probmaps", str(maps_dir), "--out", str(out),
                     "--threshold", "1", "--min-chip-size", str(min_chip_size)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"wrote 783 focus chips from 400 maps to {out}")
        assert len(json.loads(out.read_text())) == 783

    def test_chips_from_probability_maps(self, small_coco, tmp_path):
        maps_dir = tmp_path / "pmaps"
        maps_dir.mkdir()
        cells = np.zeros((15, 20))
        cells[7, 11] = 0.9
        pm = FocusMap(cells=cells, stride=32, image=ImageSize(640, 480))
        write_map_binary(maps_dir / "1_s2.fmap", pm)
        out = tmp_path / "fchips.json"
        assert main(
            ["focus", "chips", "--probmaps", str(maps_dir), "--out", str(out),
             "--threshold", "0.5", "--dilation", "3", "--min-chip-size", "8"]
        ) == 0
        records = json.loads(out.read_text())
        assert len(records) == 1
        assert records[0]["rect"] == [320.0, 192.0, 416.0, 288.0]


    def test_maps_of_mixed_strides_match_one_map_calls(self, tmp_path):
        # One directory holds label and probability maps of three strides;
        # each map's chips are those of generate_focus_chips, in name order.
        rng = np.random.default_rng(3)
        maps_dir = tmp_path / "pmaps"
        maps_dir.mkdir()
        maps = {}
        for k, stride in enumerate([8, 32, 16, 32, 8]):
            h, w = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            image = ImageSize(w * stride - int(rng.integers(0, stride)),
                              h * stride - int(rng.integers(0, stride)))
            cells = rng.random((h, w)) * (rng.random((h, w)) < 0.2)
            if k % 2:
                m = FocusMap(cells=(cells > 0).astype(np.int8), stride=stride, image=image)
            else:
                m = FocusMap(cells=cells.astype(np.float32), stride=stride, image=image)
            maps[f"{k}_s{k % 3}.fmap"] = m
            write_map_binary(maps_dir / f"{k}_s{k % 3}.fmap", m)
        out = tmp_path / "fchips.json"
        assert main(["focus", "chips", "--probmaps", str(maps_dir), "--out", str(out),
                     "--threshold", "0.3", "--dilation", "3", "--min-chip-size", "48"]) == 0
        params = FocusParams(threshold=0.3, dilation=3, min_chip_size=48)
        want = [
            (int(name.split("_")[0]), chip)
            for name in sorted(maps)
            for chip in generate_focus_chips(read_map_binary(maps_dir / name), params,
                                             maps[name].image).tolist()
        ]
        records = json.loads(out.read_text())
        assert want and [(r["image_id"], r["rect"]) for r in records] == want


class TestStack:
    def test_prune_filter_project_merge(self, small_coco, tmp_path):
        # chip at (300, 300) on the 3x canvas of image 1 (1920x1440)
        det_file = tmp_path / "dets.json"
        det_file.write_text(
            json.dumps(
                [
                    {
                        "image_id": 1,
                        "scale_id": 2,
                        "canvas": {"width": 1920, "height": 1440},
                        "chip": [300, 300, 812, 812],
                        "detections": [
                            {"bbox": [100, 100, 40, 40], "score": 0.9, "category_id": 1},
                            {"bbox": [0, 100, 40, 40], "score": 0.8, "category_id": 1},
                        ],
                    }
                ]
            )
        )
        out = tmp_path / "merged.json"
        assert main(
            ["stack", "--annotations", str(small_coco), "--detections", str(det_file),
             "--out", str(out)]
        ) == 0
        records = json.loads(out.read_text())
        # the detection flush with the chip's interior left edge is pruned
        assert len(records) == 1
        rec = records[0]
        assert rec["image_id"] == 1 and rec["score"] == 0.9
        # chip-local [100,100] -> canvas [400,400] -> original /3
        assert rec["bbox"][0] == pytest.approx(400 / 3)
        assert rec["bbox"][2] == pytest.approx(40 / 3)

    def test_full_image_marker(self, small_coco, tmp_path):
        det_file = tmp_path / "dets.json"
        det_file.write_text(
            json.dumps(
                [
                    {
                        "image_id": 2,
                        "scale_id": 0,
                        "canvas": {"width": 500, "height": 375},
                        "chip": None,
                        "detections": [
                            {"bbox": [10, 10, 150, 150], "score": 0.6, "category_id": 1}
                        ],
                    }
                ]
            )
        )
        out = tmp_path / "merged.json"
        assert main(
            ["stack", "--annotations", str(small_coco), "--detections", str(det_file),
             "--out", str(out)]
        ) == 0
        records = json.loads(out.read_text())
        assert len(records) == 1
        # the record's canvas equals the original size, so projection is identity
        assert records[0]["bbox"][0] == pytest.approx(10.0)
        assert records[0]["bbox"][2] == pytest.approx(150.0)

    @pytest.mark.parametrize(
        "records, rc",
        [
            ([{"image_id": 2, "scale_id": 0, "canvas": {"width": 500, "height": 375},
               "detections": [{"bbox": [10, 10, 150, 150], "score": 0.6, "category_id": 1}]}],
             0),
            ([{"image_id": 2, "scale_id": 0, "canvas": {"width": 500, "height": 375},
               "detections": [{"bbox": [10, 10, 150, 150], "score": 2.0, "category_id": 1}]}],
             1),
            ({"not": "an array"}, 1),
            ("[{", 1),
        ],
        ids=["ok", "bad-score", "not-an-array", "malformed-json"],
    )
    def test_collector_is_off_while_records_are_alive_and_restored(
        self, small_coco, tmp_path, monkeypatch, capsys, collector, records, rc
    ):
        det_file = tmp_path / "dets.json"
        det_file.write_text(records if isinstance(records, str) else json.dumps(records))
        seen = []

        def spy(fn):
            def call(*args):
                seen.append((fn.__name__, gc.isenabled()))
                return fn(*args)
            return call

        monkeypatch.setattr(cli, "_load_stack_records", spy(cli._load_stack_records))
        monkeypatch.setattr(cli, "_stack", spy(cli._stack))
        assert main(["stack", "--annotations", str(small_coco), "--detections", str(det_file),
                     "--out", str(tmp_path / "merged.json")]) == rc
        if rc:
            assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert seen and seen[0] == ("_load_stack_records", False)
        assert all(enabled is False for _, enabled in seen)
        assert gc.isenabled() is collector


class TestImageOrder:
    """A file whose image ids are not sorted, with an image without boxes
    and one without proposals between the others: the statistics sum in
    file order and the chip commands work in ascending id order, each as its
    oracle does."""

    IDS = [7, 2, 11, 5, 3]

    @pytest.fixture
    def files(self, tmp_path):
        rng = np.random.default_rng(5)
        sizes = {7: (640, 480), 2: (500, 375), 11: (300, 620), 5: (420, 420), 3: (160, 90)}
        annotations = []
        for k in range(24):
            image_id = [7, 11, 5, 3][k % 4]  # image 2 has no boxes
            w, h = sizes[image_id]
            side = float(rng.choice([4.0, 12.0, 30.0, 70.0, rng.uniform(2, 150)]))
            x, y = float(rng.uniform(0, w - 1)), float(rng.uniform(0, h - 1))
            annotations.append({"id": k + 1, "image_id": image_id, "category_id": 1,
                                "bbox": [x, y, side, side * float(rng.uniform(0.5, 2))],
                                "iscrowd": int(k % 7 == 6)})
        coco = {"images": [{"id": i, "width": w, "height": h} for i, (w, h) in sizes.items()],
                "annotations": annotations, "categories": [{"id": 1, "name": "thing"}]}
        proposals = []
        for k in range(60):
            image_id = [3, 7, 2, 11][k % 4]  # image 5 has no proposals
            w, h = sizes[image_id]
            x, y = float(rng.uniform(0, w)), float(rng.uniform(0, h))
            proposals.append({"image_id": image_id, "score": 0.5,
                              "bbox": [x, y, float(rng.uniform(5, 90)), float(rng.uniform(5, 90))]})
        ann, props = tmp_path / "ann.json", tmp_path / "props.json"
        ann.write_text(json.dumps(coco))
        props.write_text(json.dumps(proposals))
        return ann, props

    def test_statistics_sum_in_file_order(self, files, tmp_path):
        ann, _ = files
        cfg = coco_default()
        sizes, gts, _, _ = load_dataset_oracle(ann)
        assert list(sizes) == self.IDS
        thresholds = dict(stride=cfg.stride, min_side=cfg.focus_min_side,
                          max_side=cfg.focus_max_side, ignore_max_side=cfg.focus_ignore_max_side,
                          dilation=cfg.focus_params.dilation)
        out = tmp_path / "speedup.json"
        assert main(["stats", "speedup", "--annotations", str(ann), "--out", str(out)]) == 0
        want = speedup_upper_bound_oracle(gts, sizes, cfg.pyramid, [64, 128, 256, 512],
                                          **thresholds)
        assert [tuple(point) for point in json.loads(out.read_text())["curve"]] == want
        out = tmp_path / "focus.json"
        assert main(["stats", "focuspixels", "--annotations", str(ann), "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        for scale_id, (focus, total, dilated, projected, canvas) in focus_pixel_stats_oracle(
            gts, sizes, cfg.pyramid, **thresholds
        ).items():
            assert got[str(scale_id)] == {
                "fraction": focus / total, "fraction_dilated": dilated / total,
                "mean_projected_area": projected, "mean_canvas_area": canvas,
            }

    def test_chips_come_in_id_order(self, files, tmp_path):
        ann, props = files
        cfg = coco_default()
        sizes, gts, _, _ = load_dataset_oracle(ann)
        proposals = load_proposals_oracle(props, sizes)
        positive, negative = tmp_path / "pos.json", tmp_path / "neg.json"
        assert main(["chips", "positive", "--annotations", str(ann), "--out", str(positive)]) == 0
        assert main(["chips", "negative", "--annotations", str(ann), "--proposals", str(props),
                     "--out", str(negative)]) == 0
        want_positive, want_negative = [], []
        for image_id in sorted(sizes):
            original, mine = sizes[image_id], []
            for spec in cfg.pyramid:
                canvas = resolve_oracle(spec, original)
                grid = [BoundingBox(*rect) for rect in chip_grid_oracle(
                    canvas.width, canvas.height, spec.chip_size, spec.chip_stride)]
                r_min, r_max = spec.effective_range
                resized = [rescale_box(g.box, original, canvas) for g in gts[image_id]
                           if not g.is_crowd]
                picked, _ = greedy_cover_oracle(
                    grid, [box for box in resized if r_min < box.area < r_max])
                mine += [(spec.scale_id, grid[i]) for i in picked]
            want_positive += [(image_id, scale_id, list(r.as_tuple())) for scale_id, r in mine]
            if image_id in proposals:
                boxes = [BoundingBox(*b) for b in proposals[image_id][0]]
                want_negative += [(image_id, scale_id, list(rect)) for scale_id, rect in
                                  select_negative_chips_oracle(
                                      boxes, mine, cfg.pyramid, original,
                                      cfg.min_neg_proposals, cfg.negative_membership)]
        got = [(r["image_id"], r["scale_id"], r["rect"]) for r in json.loads(positive.read_text())]
        assert got == want_positive and {i for i, _, _ in got} == {3, 5, 7, 11}
        pool = json.loads(negative.read_text())["pool"]
        got = [(r["image_id"], r["scale_id"], r["rect"]) for r in pool]
        assert got == want_negative and {i for i, _, _ in got} == {2, 7, 11}


class TestStats:
    def test_areafractions_on_excerpt(self, tmp_path, capsys):
        out = tmp_path / "bands.json"
        assert main(
            ["stats", "areafractions", "--annotations", str(EXCERPT_PATH), "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert 0.30 <= payload["small"]["instance_fraction"] <= 0.50

    def test_roiscale_with_curve(self, small_coco, tmp_path):
        out = tmp_path / "roi.json"
        curve = tmp_path / "roi.dat"
        assert main(
            ["stats", "roiscale", "--annotations", str(small_coco), "--out", str(out),
             "--curve", str(curve)]
        ) == 0
        assert curve.read_text().startswith("#")
        payload = json.loads(out.read_text())
        assert len(payload["deciles"]) == 9

    def test_focuspixels(self, small_coco, tmp_path):
        out = tmp_path / "fp.json"
        assert main(
            ["stats", "focuspixels", "--annotations", str(small_coco), "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"0", "1", "2"}
        for entry in payload.values():
            assert entry["fraction_dilated"] >= entry["fraction"]

    def test_focuspixels_counts_past_int64(self, tmp_path):
        # (2^32 - 1)^2 focus cells on one image, past 2^63: int64 counts
        # wrapped and wrote a negative fraction.
        side = 2**32 - 1
        ann, cfg, out = tmp_path / "ann.json", tmp_path / "cfg.json", tmp_path / "fp.json"
        ann.write_text(json.dumps({
            "images": [{"id": 1, "width": side, "height": side}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, side, side]}],
            "categories": [{"id": 1, "name": "a"}],
        }))
        cfg.write_text(json.dumps({
            "pyramid": [{"scale_id": 0, "target": {"factor": 1}}],
            "focus": {"stride": 1, "max_side": 1e12, "ignore_max_side": 2e12},
        }))
        assert main(["stats", "focuspixels", "--dilation", "1", "--annotations", str(ann),
                     "--config", str(cfg), "--out", str(out)]) == 0
        entry = json.loads(out.read_text())["0"]
        assert entry["fraction"] == entry["fraction_dilated"] == 1.0
        assert entry["mean_projected_area"] > 0

    def test_speedup(self, small_coco, tmp_path):
        out = tmp_path / "sp.json"
        assert main(
            ["stats", "speedup", "--annotations", str(small_coco), "--out", str(out),
             "--k", "64,512"]
        ) == 0
        payload = json.loads(out.read_text())
        curve = dict((int(k), v) for k, v in payload["curve"])
        assert curve[64] >= curve[512] >= 1.0

    @pytest.mark.parametrize("which", ["speedup", "focuspixels"])
    def test_dilation_defaults_to_config(self, tmp_path, which):
        def run(*extra):
            out = tmp_path / "o.json"
            argv = ["stats", which, "--annotations", str(EXCERPT_PATH), "--out", str(out)]
            assert main(argv + ["--k", "64,256"] * (which == "speedup") + list(extra)) == 0
            return out.read_text()

        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"profile": "coco-default", "focus": {"dilation": 7}}))
        default = run()
        assert run("--dilation", "3") == default
        assert run("--dilation", "7") != default
        assert run("--config", str(config)) == run("--dilation", "7")


# Runs the CLI with its address space capped, so that a command that asks
# for memory in proportion to canvas area fails to allocate instead of
# allocating for real.
_LIMITED_MAIN = """
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from pyrsample.cli import main
sys.exit(main(sys.argv[2:]))
"""
MEMORY_LIMIT = 2 * 1024**3


def run_limited(argv: list[str], limit: int = MEMORY_LIMIT) -> subprocess.CompletedProcess:
    src = str(Path(pyrsample.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", _LIMITED_MAIN, str(limit), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def assert_error_contract(proc: subprocess.CompletedProcess) -> dict | None:
    """Exit 0, or exit 1 with exactly one JSON error line on stderr."""
    if proc.returncode == 0:
        return None
    assert proc.returncode == 1, proc.stderr[-2000:]
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr[-2000:]
    return json.loads(lines[0])["error"]


class TestUsageErrors:
    """A command line the parser does not accept exits 1 with one JSON
    ``UsageError`` line, as any other failure does."""

    @pytest.mark.parametrize(
        "argv, flag",
        [(["roiscale", "--annotations", "{ann}", "--bins", "abc"], "--bins"),
         (["roiscale"], "--annotations"),
         (["areafractions", "--annotations", "{ann}", "--bins", "7"], "--bins"),
         (["areafractions", "--annotations", "{ann}", "--dilation", "2"], "--dilation"),
         (["focuspixels", "--annotations", "{ann}", "--curve", "{curve}"], "--curve"),
         (["focuspixels", "--annotations", "{ann}", "--k", "3"], "--k"),
         (["roiscale", "--annotations", "{ann}", "--chips-at-coarsest"], "--chips-at-coarsest"),
         (["speedup", "--annotations", "{ann}", "--k", "64,,128"], "--k"),
         (["speedup", "--annotations", "{ann}", "--k", "a"], "--k")],
        ids=["bad-int", "missing-annotations", "bins-on-areafractions",
             "dilation-on-areafractions", "curve-on-focuspixels", "k-on-focuspixels",
             "chips-at-coarsest-on-roiscale", "k-empty-item", "k-not-int"],
    )
    def test_stats_usage_error_is_one_line(self, small_coco, tmp_path, argv, flag):
        out, curve = tmp_path / "o.json", tmp_path / "fp.dat"
        argv = [a.format(ann=small_coco, curve=curve) for a in argv]
        proc = run_limited(["stats", *argv, "--out", str(out)])
        error = assert_error_contract(proc)
        assert error is not None and error["type"] == "UsageError"
        assert error["message"].startswith("pyrsample") and flag in error["message"]
        assert not out.exists() and not curve.exists()

    @pytest.mark.parametrize("argv", [[], ["convert", "voc"], ["stats", "cost"]])
    def test_unknown_or_missing_command(self, argv):
        error = assert_error_contract(run_limited(argv))
        assert error is not None and error["type"] == "UsageError"

    @pytest.mark.parametrize("argv", [["--help"], ["stats", "speedup", "--help"]])
    def test_help_exits_zero(self, argv):
        proc = run_limited(argv)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("usage: pyrsample")


class TestBoundedResources:
    @pytest.fixture
    def huge_image(self, tmp_path):
        def write(side):
            data = {
                "images": [{"id": 1, "width": 10**7, "height": 10**7, "file_name": "a.jpg"}],
                "annotations": [{"id": 1, "image_id": 1, "category_id": 1,
                                 "bbox": [5000.0, 7000.0, side, side], "iscrowd": 0}],
                "categories": [{"id": 1, "name": "thing"}],
            }
            path = tmp_path / f"huge_{side}.json"
            path.write_text(json.dumps(data))
            return path
        return write

    # A 50-pixel box is focus at no level of the default pyramid; a 20-pixel
    # one is focus at the two large levels, so chips are built there.
    @pytest.mark.parametrize("side", [50.0, 20.0])
    @pytest.mark.parametrize(
        "argv",
        [["focuspixels"], ["speedup"], ["speedup", "--chips-at-coarsest"]],
        ids=["focuspixels", "speedup", "speedup-chips-at-coarsest"],
    )
    def test_stats_on_a_huge_image_stay_within_memory(self, huge_image, tmp_path, side, argv):
        out = tmp_path / "o.json"
        proc = run_limited(
            ["stats", argv[0], "--annotations", str(huge_image(side)), "--out", str(out),
             *argv[1:]]
        )
        assert assert_error_contract(proc) is None, proc.stderr
        payload = json.loads(out.read_text())
        if argv[0] == "focuspixels":
            focus = [entry["fraction"] for entry in payload.values()]
            assert (max(focus) > 0) == (side == 20.0)
            assert max(focus) < 1e-9
        else:
            assert all(s >= 1.0 for _, s in payload["curve"])

    @pytest.mark.parametrize("which", ["positive", "negative"])
    def test_chips_on_a_huge_image_keep_the_error_contract(self, huge_image, tmp_path, which):
        # The cover works on the cells that hold a box, so a 10^7 x 10^7
        # image costs what its boxes cost. At scale 1 (x1.667) the box spans
        # x 8335 to 8418.35 and y 11669 to 11752.35; the first 512-pixel cell
        # at stride 32 that encloses it starts at the first multiple of 32 at
        # or past x2 - 512 and y2 - 512. The two proposals 10 pixels apart
        # at (9e6, 9e6) share one negative chip there.
        out = tmp_path / "chips.json"
        argv = ["chips", which, "--annotations", str(huge_image(50.0)), "--out", str(out)]
        if which == "negative":
            props = tmp_path / "props.json"
            props.write_text(json.dumps([
                {"image_id": 1, "bbox": [5000, 7000, 50, 50], "score": 0.5},
                {"image_id": 1, "bbox": [9e6, 9e6, 40, 40], "score": 0.5},
                {"image_id": 1, "bbox": [9e6 + 10, 9e6, 40, 40], "score": 0.5},
            ]))
            argv += ["--proposals", str(props)]
        proc = run_limited(argv)
        assert assert_error_contract(proc) is None, proc.stderr
        records = json.loads(out.read_text())
        if which == "positive":
            assert [(r["scale_id"], r["rect"], r["covered_gt_ids"]) for r in records] == [
                (1, [7936.0, 11264.0, 8448.0, 11776.0], [0])]
        else:
            # 9e6 * 1.667 = 15003000; the centers sit at x 15003033.34 and
            # 15003050.01, y 15003033.34, and the first cell holding both
            # ends at or past the larger x and the y.
            assert [(r["scale_id"], r["rect"]) for r in records["pool"]] == [
                (1, [15002560.0, 15002528.0, 15003072.0, 15003040.0])]
            assert records["sampled"] == records["pool"]

    @staticmethod
    def crowded_coco(path, n_images):
        # Each image holds a diagonal of 500 boxes of side 30, 64 pixels
        # apart: focus at scale 1 only (50 pixels there), and no two share a
        # cell edge, so each map has 1000 distinct column and row edges, and
        # 10^6 elementary rectangles.
        side, step, n_boxes = 30.0, 64.0, 500
        extent = int(step * n_boxes + 100)
        data = {
            "images": [{"id": i, "width": extent, "height": extent, "file_name": f"{i}.jpg"}
                       for i in range(1, n_images + 1)],
            "annotations": [
                {"id": i * n_boxes + r, "image_id": i, "category_id": 1,
                 "bbox": [r * step, r * step, side, side], "iscrowd": 0}
                for i in range(1, n_images + 1) for r in range(n_boxes)
            ],
            "categories": [{"id": 1, "name": "thing"}],
        }
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("which", ["focuspixels", "speedup"])
    def test_stats_on_many_crowded_images_stay_within_memory(self, tmp_path, which):
        # Counting all 64 maps of a level at once needs over 1 GB; a block of
        # maps at a time stays far below it.
        crowded = self.crowded_coco(tmp_path / "crowded.json", 64)
        out = tmp_path / "crowded_out.json"
        proc = run_limited(
            ["stats", which, "--annotations", str(crowded), "--out", str(out)],
            limit=1024**3,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        # Every image is the same, so the dataset reads as one image does.
        one = self.crowded_coco(tmp_path / "one.json", 1)
        one_out = tmp_path / "one_out.json"
        assert main(["stats", which, "--annotations", str(one), "--out", str(one_out)]) == 0
        assert out.read_text() == one_out.read_text()
        if which == "focuspixels":
            assert json.loads(out.read_text())["1"]["fraction"] > 0

    @pytest.mark.parametrize("mode", ["gaussian", "hard"])
    def test_stack_one_dense_class_stays_within_memory(self, tmp_path, mode):
        # 6000 disjoint boxes of one class on one image: a pair matrix of the
        # class would need gigabytes; suppression keeps every box unchanged.
        coco = {"images": [{"id": 1, "width": 20000, "height": 20000, "file_name": "a.jpg"}],
                "annotations": [], "categories": [{"id": 1, "name": "thing"}]}
        n = 6000
        scores = np.random.default_rng(7).uniform(0.01, 1.0, n).round(6).tolist()
        dets = [{"bbox": [k % 100 * 200.0, k // 100 * 200.0, 10.0, 10.0], "score": scores[k],
                 "category_id": 1} for k in range(n)]
        record = {"image_id": 1, "scale_id": 2, "canvas": {"width": 20000, "height": 20000},
                  "chip": None, "detections": dets}
        ann, det_file, config = (tmp_path / name for name in ("ann.json", "dets.json", "cfg.json"))
        ann.write_text(json.dumps(coco))
        det_file.write_text(json.dumps([record]))
        config.write_text(json.dumps({"profile": "coco-default", "merge": {"mode": mode}}))
        out = tmp_path / "merged.json"
        proc = run_limited(["stack", "--config", str(config), "--annotations", str(ann),
                            "--detections", str(det_file), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr[-2000:]
        merged = json.loads(out.read_text())
        assert len(merged) == n
        assert sorted((r["score"], r["bbox"][:2]) for r in merged) == sorted(
            (d["score"], d["bbox"][:2]) for d in dets)

    def test_focus_labels_refuse_a_map_past_the_cell_bound(self, tmp_path):
        # One 10^6 x 10^6 image at scale 1 (x1.667, stride 32) makes a map of
        # 52094 x 52094 int8 cells, 2.5 GiB: under a 1 GiB address space the
        # allocation would fail with a MemoryError, and without a limit it
        # would be made. The bound refuses it before any map is allocated.
        data = {
            "images": [{"id": 3, "width": 10**6, "height": 10**6, "file_name": "a.jpg"}],
            "annotations": [{"id": 1, "image_id": 3, "category_id": 1,
                             "bbox": [5000.0, 7000.0, 20.0, 20.0], "iscrowd": 0}],
            "categories": [{"id": 1, "name": "thing"}],
        }
        ann, out = tmp_path / "huge.json", tmp_path / "maps"
        ann.write_text(json.dumps(data))
        proc = run_limited(["focus", "labels", "--annotations", str(ann), "--scale", "1",
                            "--out", str(out)], limit=1024**3)
        assert assert_error_contract(proc) == {
            "type": "ValueError",
            "message": f"image 3: its label map at scale 1 would hold {52094**2} cells, "
                       f"more than the {2**28} a map may hold",
        }
        assert not out.exists()

    def test_focus_labels_cell_bound_is_inclusive(self, small_coco, tmp_path, capsys,
                                                  monkeypatch):
        # Image 1 (640 x 480) at scale 2 (x3) is 60 x 45 cells; image 2
        # (500 x 375) is 47 x 36.
        for bound, rc in ((60 * 45, 0), (60 * 45 - 1, 1)):
            monkeypatch.setattr(cli, "MAX_MAP_CELLS", bound)
            out = tmp_path / f"maps_{bound}"
            assert main(["focus", "labels", "--annotations", str(small_coco), "--scale", "2",
                         "--out", str(out)]) == rc
        assert sorted(p.name for p in (tmp_path / f"maps_{60 * 45}").iterdir()) == [
            "1_s2.fmap", "2_s2.fmap"]
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"]["message"] == (
            f"image 1: its label map at scale 2 would hold 2700 cells, more than the 2699 a map "
            f"may hold"
        )
        assert not (tmp_path / f"maps_{60 * 45 - 1}").exists()

    def test_focus_labels_hold_one_block_of_maps(self, tmp_path):
        # Scale 0 fits each 1000 x 1000 image in 512 x 512 pixels, so at
        # stride 1 each of the 160 maps holds 2^18 cells: 40 MiB in all,
        # against 16 MiB in one block of maps.
        n = 160
        data = {
            "images": [{"id": i, "width": 1000, "height": 1000} for i in range(1, n + 1)],
            "annotations": [
                {"id": i * 10 + k, "image_id": i, "category_id": 1,
                 "bbox": [k * 90.0, i % 700, 4.0 + 9 * k, 20.0], "iscrowd": 0}
                for i in range(1, n + 1) for k in range(10)
            ],
            "categories": [{"id": 1, "name": "thing"}],
        }
        ann, config, out = tmp_path / "ann.json", tmp_path / "cfg.json", tmp_path / "maps"
        ann.write_text(json.dumps(data))
        config.write_text(json.dumps({"profile": "coco-default", "focus": {"stride": 1}}))
        tracemalloc.start()
        try:
            assert main(["focus", "labels", "--config", str(config), "--annotations", str(ann),
                         "--scale", "0", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        maps = [read_map_binary(out / f"{i}_s0.fmap") for i in range(1, n + 1)]
        assert {m.cells.shape for m in maps} == {(512, 512)}
        assert all((m.cells == 1).any() for m in maps)
        assert peak < 24 * 2**20, peak

    def test_huge_bins_exit_with_one_error_line(self, small_coco, tmp_path):
        out = tmp_path / "roi.json"
        proc = run_limited(
            ["stats", "roiscale", "--annotations", str(small_coco), "--out", str(out),
             "--bins", "10000000000"]
        )
        error = assert_error_contract(proc)
        assert error is not None and error["type"] == "ValueError"
        assert "bins" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("bins", ["0", "-3", "100001"])
    def test_bins_out_of_range_rejected(self, small_coco, tmp_path, capsys, bins):
        out = tmp_path / "roi.json"
        rc = main(["stats", "roiscale", "--annotations", str(small_coco), "--out", str(out),
                   "--bins", bins])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]["type"] == "ValueError"
        assert not out.exists()

    def test_one_bin_accepted(self, small_coco, tmp_path):
        out = tmp_path / "roi.json"
        assert main(["stats", "roiscale", "--annotations", str(small_coco), "--out", str(out),
                     "--bins", "1"]) == 0
        assert json.loads(out.read_text())["fractions"] == [1.0]

    def test_huge_dilation_equals_full_extent(self, small_coco, tmp_path):
        # The largest canvas is 1920 x 1440 pixels, 60 x 45 cells at stride 32.
        def run(which, dilation, *extra):
            out = tmp_path / f"{which}.json"
            assert main(["stats", which, "--annotations", str(small_coco), "--out", str(out),
                         "--dilation", dilation, *extra]) == 0
            return out.read_text()

        for which, extra in (("focuspixels", ()), ("speedup", ("--chips-at-coarsest",))):
            assert run(which, "2000000001", *extra) == run(which, "121", *extra)

    def test_focus_chips_huge_dilation(self, tmp_path):
        maps_dir = tmp_path / "pmaps"
        maps_dir.mkdir()
        cells = np.zeros((15, 20))
        cells[7, 11] = 0.9
        write_map_binary(maps_dir / "1_s2.fmap",
                         FocusMap(cells=cells, stride=32, image=ImageSize(640, 480)))

        def run(dilation):
            out = tmp_path / "fchips.json"
            assert main(["focus", "chips", "--probmaps", str(maps_dir), "--out", str(out),
                         "--dilation", dilation]) == 0
            return json.loads(out.read_text())

        records = run("2000000001")
        assert records == run("41")
        assert [r["rect"] for r in records] == [[0.0, 0.0, 640.0, 480.0]]
