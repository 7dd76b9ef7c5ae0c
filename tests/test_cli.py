import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pyrsample
from pyrsample import cli
from pyrsample.cli import main
from pyrsample.focus_labels import ProbabilityMap
from pyrsample.geometry import ImageSize
from pyrsample.serialization import read_map_binary, write_map_binary

from conftest import EXCERPT_PATH


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
        pm = ProbabilityMap(cells=cells, stride=32, image=ImageSize(128, 128))
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
        pm = ProbabilityMap(cells=cells, stride=32, image=ImageSize(128, 128))
        for name in ("7_s1.fmap", "\u0667_s1.fmap"):
            write_map_binary(maps_dir / name, pm)
        out = tmp_path / "fchips.json"
        assert main(["focus", "chips", "--probmaps", str(maps_dir), "--out", str(out),
                     "--min-chip-size", "8"]) == 0
        assert "from 1 maps" in capsys.readouterr().out
        assert [r["image_id"] for r in json.loads(out.read_text())] == [7]

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

    STACK_RECORD = {
        "image_id": 2,
        "scale_id": 0,
        "canvas": {"width": 500, "height": 375},
        "chip": None,
        "detections": [{"bbox": [200, 200, 150, 150], "score": 0.7, "category_id": 1},
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

    def test_worker_count_clamped_to_cpus(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        monkeypatch.setenv(cli.WORKERS_ENV, str(10**9))
        assert cli._workers() == 3
        monkeypatch.setenv(cli.WORKERS_ENV, "-5")
        assert cli._workers() == 1


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

    def test_worker_pool_matches_sequential(self, small_coco, tmp_path, monkeypatch):
        argv = ["focus", "labels", "--annotations", str(small_coco), "--scale", "2", "--json"]
        assert main([*argv, "--out", str(tmp_path / "seq")]) == 0
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        assert main([*argv, "--out", str(tmp_path / "par")]) == 0
        seq, par = (sorted((tmp_path / d).iterdir()) for d in ("seq", "par"))
        assert [f.name for f in seq] == [f.name for f in par] and len(seq) == 4
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(seq, par))

    def test_chips_from_probability_maps(self, small_coco, tmp_path):
        maps_dir = tmp_path / "pmaps"
        maps_dir.mkdir()
        cells = np.zeros((15, 20))
        cells[7, 11] = 0.9
        pm = ProbabilityMap(cells=cells, stride=32, image=ImageSize(640, 480))
        write_map_binary(maps_dir / "1_s2.fmap", pm)
        out = tmp_path / "fchips.json"
        assert main(
            ["focus", "chips", "--probmaps", str(maps_dir), "--out", str(out),
             "--threshold", "0.5", "--dilation", "3", "--min-chip-size", "8"]
        ) == 0
        records = json.loads(out.read_text())
        assert len(records) == 1
        assert records[0]["rect"] == [320.0, 192.0, 416.0, 288.0]


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
                         ProbabilityMap(cells=cells, stride=32, image=ImageSize(640, 480)))

        def run(dilation):
            out = tmp_path / "fchips.json"
            assert main(["focus", "chips", "--probmaps", str(maps_dir), "--out", str(out),
                         "--dilation", dilation]) == 0
            return json.loads(out.read_text())

        records = run("2000000001")
        assert records == run("41")
        assert [r["rect"] for r in records] == [[0.0, 0.0, 640.0, 480.0]]


class TestConvertVoc:
    def test_convert_then_load(self, tmp_path):
        voc = tmp_path / "voc"
        voc.mkdir()
        (voc / "img1.xml").write_text(
            "<annotation><filename>img1.jpg</filename>"
            "<size><width>200</width><height>100</height></size>"
            "<object><name>cat</name>"
            "<bndbox><xmin>11</xmin><ymin>21</ymin><xmax>50</xmax><ymax>60</ymax></bndbox>"
            "</object></annotation>"
        )
        out = tmp_path / "coco.json"
        assert main(["convert", "voc", "--voc-dir", str(voc), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["images"][0]["width"] == 200
        assert data["annotations"][0]["bbox"] == [10, 20, 40, 40]
