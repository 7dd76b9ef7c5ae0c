import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrsample.chips import UncoverableBoxes
from pyrsample.focus_labels import LabelMap, ProbabilityMap
from pyrsample.geometry import DetectionBatch, ImageSize
from pyrsample.serialization import (
    FormatError,
    atomic_write_text,
    map_to_debug_json,
    read_map_binary,
    save_chip_records,
    save_detection_records,
    save_negative_chip_records,
    save_uncoverable_records,
    write_curve,
    write_map_binary,
)

from conftest import chip_batch, detection_batch


SAMPLE_ROW = (42, 1, (32, 64, 544, 576), (0, 2), ((3, (32, 64, 100, 90)),))

SAMPLE_RECORD = {
    "image_id": 42,
    "scale_id": 1,
    "rect": [32, 64, 544, 576],
    "kind": "positive",
    "covered_gt_ids": [0, 2],
    "cropped_gt": [[3, [32, 64, 100, 90]]],
}


class TestChipRecords:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "chips.json"
        save_chip_records(path, chip_batch([SAMPLE_ROW], "positive"))
        assert json.loads(path.read_text()) == [SAMPLE_RECORD]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "chips.json"
        save_chip_records(path, chip_batch([(1, *SAMPLE_ROW[1:]), (2, *SAMPLE_ROW[1:])],
                                           "positive"))
        assert json.loads(path.read_text()) == [
            {**SAMPLE_RECORD, "image_id": 1}, {**SAMPLE_RECORD, "image_id": 2}
        ]


def _json_text(records) -> str:
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


def _detection_dicts(per_image) -> list[dict]:
    """The COCO-results records of (image id, batch) pairs, one row at a time."""
    return [
        {"image_id": image_id, "category_id": row.class_id,
         "bbox": [x1, y1, x2 - x1, y2 - y1], "score": row.score}
        for image_id, batch in per_image
        for row in batch
        for x1, y1, x2, y2 in [row.box]
    ]


class TestSaveDetectionRecords:
    """The column writer gives exactly the bytes of ``json.dumps`` of the
    records."""

    SPECIAL = [1.0, 0.0, -0.0, 1e-07, 1e16, 1e+22, 123456789.0, 0.1 + 0.2, 5e-324,
               1.7976931348623157e308, 2.5, 1 / 3]

    def _check(self, tmp_path, per_image):
        path = tmp_path / "dets.json"
        save_detection_records(path, per_image)
        assert path.read_text() == _json_text(_detection_dicts(per_image))

    def test_empty(self, tmp_path):
        self._check(tmp_path, [])
        assert (tmp_path / "dets.json").read_text() == "[]\n"
        self._check(tmp_path, [(1, DetectionBatch.empty()), (2, DetectionBatch.empty())])
        assert (tmp_path / "dets.json").read_text() == "[]\n"

    def test_random_records(self, tmp_path):
        rng = np.random.default_rng(71)

        def value():
            kind = rng.integers(0, 3)
            if kind == 0:
                return self.SPECIAL[rng.integers(0, len(self.SPECIAL))]
            if kind == 1:
                return float(rng.integers(-1000, 1000))
            return float(rng.uniform(-1e4, 1e4)) * 10.0 ** int(rng.integers(-12, 18))

        for _ in range(20):
            per_image = []
            for _ in range(int(rng.integers(1, 6))):
                rows = []
                for _ in range(int(rng.integers(0, 20))):
                    x, y, w, h = (value() for _ in range(4))
                    if not all(map(math.isfinite, (x + w - x, y + h - y))):
                        w = h = 1.0
                    rows.append(((x, y, x + w, y + h), value(), int(rng.integers(0, 2**40))))
                image_id = int(rng.integers(0, 2**62 if rng.random() < 0.3 else 100))
                per_image.append((image_id, detection_batch(rows)))
            self._check(tmp_path, per_image)

    def test_special_values(self, tmp_path):
        rows = [
            ((1e-07, -0.0, 1e-07 + 1e16, 2.5), 1e-07, 2**63 - 1),
            ((5e-324, 1.7976931348623157e308, 5e-324, 1.7976931348623157e308), 5e-324, 0),
        ]
        per_image = [(10**30, detection_batch(rows)), (3, detection_batch(rows[::-1]))]
        self._check(tmp_path, per_image)
        text = (tmp_path / "dets.json").read_text()
        for literal in ("1e-07", "1e+16", "-0.0", "5e-324", "1.7976931348623157e+308",
                        str(2**63 - 1), str(10**30)):
            assert literal in text

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 2**70),
        st.lists(st.tuples(
            st.tuples(*[st.floats(-1e300, 1e300)] * 4),
            st.floats(0.0, 1.0),
            st.integers(0, 2**63 - 1),
        ), max_size=5),
    ), max_size=4))
    def test_columns_match_json_dumps(self, tmp_path_factory, images):
        per_image = [(image_id, detection_batch(rows)) for image_id, rows in images]
        self._check(tmp_path_factory.mktemp("dets"), per_image)

    @pytest.mark.parametrize(
        "box, score",
        [((0.0, float("nan"), 1.0, 1.0), 0.5), ((0.0, 0.0, float("inf"), 1.0), 0.5),
         ((-1e308, 0.0, 1e308, 1.0), 0.5), ((0.0, 0.0, 1.0, 1.0), float("nan"))],
        ids=["nan-y", "inf-corner", "overflowing-width", "nan-score"],
    )
    def test_non_finite_values_are_refused(self, tmp_path, box, score):
        path = tmp_path / "dets.json"
        per_image = [(1, detection_batch([((0.0, 0.0, 1.0, 1.0), 0.5, 2), (box, score, 2)]))]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            save_detection_records(path, per_image)
        assert not path.exists()


def _random_value(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return TestSaveDetectionRecords.SPECIAL[rng.integers(0, len(TestSaveDetectionRecords.SPECIAL))]
    if kind == 1:
        return float(rng.integers(0, 2000))
    return float(rng.uniform(0, 1e4)) * 10.0 ** int(rng.integers(-12, 18))


def _random_chip_rows(rng, n):
    return [
        (
            int(rng.integers(-(2**62), 2**62)),
            int(rng.integers(0, 4)),
            tuple(_random_value(rng) for _ in range(4)),
            tuple(int(v) for v in rng.integers(0, 10**6, int(rng.integers(0, 4)))),
            tuple(
                (int(rng.integers(0, 100)), tuple(_random_value(rng) for _ in range(4)))
                for _ in range(int(rng.integers(0, 3)))
            ),
        )
        for _ in range(n)
    ]


def _records(batch) -> list[dict]:
    """The chip records of a batch, one row at a time."""
    return [row._asdict() for row in batch]


finite = st.floats(allow_nan=False, allow_infinity=False)
int64 = st.integers(-(2**63), 2**63 - 1)
chip_rows = st.lists(st.tuples(
    int64, int64, st.tuples(*[finite] * 4),
    st.lists(int64, max_size=3),
    st.lists(st.tuples(int64, st.tuples(*[finite] * 4)), max_size=3),
), max_size=5)


class TestSaveChipRecords:
    """The chip, negative-pool and diagnostics writers give exactly the bytes
    of ``json.dumps`` of the rows."""

    def test_random_records(self, tmp_path):
        rng = np.random.default_rng(72)
        path = tmp_path / "chips.json"
        for n in [0, 1, 2, 5, 30]:
            batch = chip_batch(_random_chip_rows(rng, n), str(rng.choice(["positive", "focus"])))
            save_chip_records(path, batch)
            assert path.read_text() == _json_text(_records(batch))

    def test_records_of_chips(self, tmp_path):
        path = tmp_path / "chips.json"
        batch = chip_batch([SAMPLE_ROW, (8, 0, (0.5, 0.0, 1e16, 1e-07), (), ())], "focus")
        save_chip_records(path, batch)
        assert path.read_text() == _json_text(_records(batch))
        assert '"rect": [\n      0.5,\n      0.0,\n      1e+16,\n      1e-07\n    ]' in \
            path.read_text()

    def test_negative_pool(self, tmp_path):
        rng = np.random.default_rng(73)
        path = tmp_path / "neg.json"
        for n_pool, n_sampled in [(0, 0), (3, 0), (0, 2), (6, 4)]:
            pool = chip_batch(_random_chip_rows(rng, n_pool), "negative")
            sampled = chip_batch(_random_chip_rows(rng, n_sampled), "negative")
            save_negative_chip_records(path, pool, sampled)
            assert path.read_text() == _json_text(
                {"pool": _records(pool), "sampled": _records(sampled)})

    def test_diagnostics(self, tmp_path):
        rng = np.random.default_rng(74)
        path = tmp_path / "diag.json"
        for n in [0, 1, 7]:
            uncoverable = UncoverableBoxes(
                rng.integers(0, 2**40, n), rng.integers(0, 50, n), rng.integers(0, 3, n),
                np.array([[_random_value(rng) for _ in range(4)] for _ in range(n)]).reshape(-1, 4),
            )
            save_uncoverable_records(path, uncoverable)
            assert path.read_text() == _json_text([
                {"gt_id": gt_id, "image_id": image_id, "resized_box": box, "scale_id": scale_id}
                for image_id, gt_id, scale_id, box in zip(
                    uncoverable.image_ids.tolist(), uncoverable.gt_ids.tolist(),
                    uncoverable.scale_ids.tolist(), uncoverable.resized_boxes.tolist())
            ])

    @settings(max_examples=200, deadline=None)
    @given(chip_rows, chip_rows, st.text(max_size=6))
    def test_writers_match_json_dumps(self, tmp_path_factory, rows, more_rows, kind):
        path = tmp_path_factory.mktemp("chips") / "chips.json"
        pool, sampled = chip_batch(rows, kind), chip_batch(more_rows, kind)
        save_chip_records(path, pool)
        assert path.read_text() == _json_text(_records(pool))
        save_negative_chip_records(path, pool, sampled)
        assert path.read_text() == _json_text(
            {"pool": _records(pool), "sampled": _records(sampled)})
        uncoverable = UncoverableBoxes(pool.image_ids, pool.covered_offsets[1:],
                                       pool.scale_ids, pool.rects)
        save_uncoverable_records(path, uncoverable)
        assert path.read_text() == _json_text([
            {"gt_id": gt_id, "image_id": row.image_id, "resized_box": row.rect,
             "scale_id": row.scale_id}
            for row, gt_id in zip(pool, pool.covered_offsets[1:].tolist())
        ])

    @pytest.mark.parametrize("kind", ['fo"cus\u00e9\n', "infocus"],
                             ids=["escaped-kind", "kind-with-inf"])
    def test_kinds_are_written_as_json(self, tmp_path, kind):
        path = tmp_path / "chips.json"
        batch = chip_batch([SAMPLE_ROW, (7, 2, (0.0, 1.5, 2.0, 3.0), (), ())], kind)
        save_chip_records(path, batch)
        assert path.read_text() == _json_text(_records(batch))
        assert json.loads(path.read_text())[0]["kind"] == kind

    @pytest.mark.parametrize(
        "row",
        [(1, 0, (0.0, float("nan"), 1.0, 1.0), (), ()),
         (1, 0, (0.0, 0.0, 1.0, 1.0), (), ((1, (0.0, 0.0, float("inf"), 1.0)),))],
        ids=["nan-rect", "inf-crop"],
    )
    def test_non_finite_values_are_refused(self, tmp_path, row):
        path = tmp_path / "chips.json"
        batch = chip_batch([SAMPLE_ROW, row], "positive")
        with pytest.raises(ValueError):
            save_chip_records(path, batch)
        with pytest.raises(ValueError):
            save_negative_chip_records(path, batch[:1], batch)
        boxes = np.concatenate([batch.rects, batch.cropped_boxes])
        ids = np.zeros(len(boxes), dtype=np.int64)
        with pytest.raises(ValueError):
            save_uncoverable_records(path, UncoverableBoxes(ids, ids, ids, boxes))
        assert not path.exists()


class TestDetectionRecords:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "dets.json"
        save_detection_records(path, [(7, detection_batch([((10, 20, 40, 60), 0.75, 5)]))])
        assert json.loads(path.read_text()) == [
            {"image_id": 7, "category_id": 5, "bbox": [10, 20, 30, 40], "score": 0.75}
        ]


class TestMapBinary:
    def test_label_map_round_trip(self, tmp_path):
        cells = np.array([[1, 0, -1], [0, 1, 0]], dtype=np.int8)
        lm = LabelMap(cells=cells, stride=32, image=ImageSize(96, 64))
        path = tmp_path / "m.fmap"
        write_map_binary(path, lm)
        again = read_map_binary(path)
        assert isinstance(again, LabelMap)
        assert (again.cells == cells).all()
        assert again.stride == 32 and again.image == lm.image

    def test_probability_map_round_trip(self, tmp_path):
        cells = np.linspace(0, 1, 12).reshape(3, 4)
        pm = ProbabilityMap(cells=cells, stride=16, image=ImageSize(64, 48))
        path = tmp_path / "p.fmap"
        write_map_binary(path, pm)
        again = read_map_binary(path)
        assert isinstance(again, ProbabilityMap)
        assert np.allclose(again.cells, cells, atol=1e-7)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.fmap"
        path.write_bytes(b"FM")
        with pytest.raises(FormatError):
            read_map_binary(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.fmap"
        path.write_bytes(b"XXXX" + b"\0" * 40)
        with pytest.raises(FormatError):
            read_map_binary(path)

    def test_debug_json_round_trip(self, tmp_path):
        cells = np.array([[1, -1], [0, 1]], dtype=np.int8)
        lm = LabelMap(cells=cells, stride=32, image=ImageSize(64, 48))
        path = tmp_path / "m.json"
        atomic_write_text(path, json.dumps(map_to_debug_json(lm)))
        assert json.loads(path.read_text()) == {
            "dtype": "labels", "width_cells": 2, "height_cells": 2, "stride": 32,
            "image": {"width": 64, "height": 48}, "cells": [[1, -1], [0, 1]],
        }


class TestWriters:
    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_leaves_nothing(self, tmp_path):
        target = tmp_path / "missing_dir" / "out.txt"
        with pytest.raises(FileNotFoundError):
            atomic_write_text(target, "hello")
        assert not target.exists()

    def test_curve(self, tmp_path):
        path = tmp_path / "c.dat"
        write_curve(path, "k speedup", [(64, 9.5), (512, 2.0)])
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "64 9.5"
