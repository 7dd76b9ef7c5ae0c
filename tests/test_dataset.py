import gc
import json
import math

import numpy as np
import pytest

from pyrsample.dataset import (
    DatasetParseError,
    DatasetStructureError,
    load_dataset,
)
from pyrsample.geometry import GroundTruthSet

from conftest import EXCERPT_PATH
from oracles import load_dataset_oracle, load_proposals_oracle


def minimal_coco(tmp_path, annotations=None, images=None):
    data = {
        "images": images
        if images is not None
        else [{"id": 1, "width": 640, "height": 480, "file_name": "img_000001.jpg"}],
        "annotations": annotations
        if annotations is not None
        else [
            {
                "id": 10,
                "image_id": 1,
                "category_id": 3,
                "bbox": [10, 10, 20, 20],
                "iscrowd": 0,
            }
        ],
        "categories": [{"id": 3, "name": "thing"}],
    }
    path = tmp_path / "ann.json"
    path.write_text(json.dumps(data))
    return path


class TestLoadDataset:
    def test_minimal_file(self, tmp_path):
        index = load_dataset(minimal_coco(tmp_path))
        assert index.image_ids.tolist() == [1]
        assert index.sizes.tolist() == [[640, 480]]
        assert len(index.annotations[1]) == 1
        assert index.categories == {3: "thing"}

    def test_bbox_corner_conversion(self, tmp_path):
        index = load_dataset(minimal_coco(tmp_path))
        assert index.annotations[1].boxes.tolist() == [[10, 10, 30, 30]]

    def test_clamping_counts(self, tmp_path):
        path = minimal_coco(
            tmp_path,
            annotations=[
                {"id": 1, "image_id": 1, "category_id": 3, "bbox": [630, 470, 40, 40]},
                {"id": 2, "image_id": 1, "category_id": 3, "bbox": [0, 0, 10, 10]},
            ],
        )
        index = load_dataset(path)
        assert index.clamp_warnings == 1
        assert index.annotations[1].boxes[0].tolist() == [630, 470, 640, 480]

    def test_annotations_are_columns_per_image_in_file_order(self, tmp_path):
        path = minimal_coco(
            tmp_path,
            images=[{"id": 7, "width": 100, "height": 50}, {"id": 2, "width": 640, "height": 480},
                    {"id": 5, "width": 9, "height": 9}],
            annotations=[
                {"id": 1, "image_id": 2, "category_id": 4, "bbox": [1, 2, 3, 4]},
                {"id": 2, "image_id": 7, "category_id": 0, "bbox": [-0.0, 40, 1e308, 20],
                 "iscrowd": 1},
                {"id": 3, "image_id": 2, "category_id": 9, "bbox": [5, 5, 0, 0]},
            ],
        )
        index = load_dataset(path)
        assert list(index.annotations) == [7, 2, 5]
        gts = index.annotations[7]
        assert isinstance(gts, GroundTruthSet)
        assert gts.boxes.dtype == np.float64 and gts.class_ids.dtype == np.int64
        # -0.0 is kept, as max(-0.0, 0.0) keeps it; x + w overflows to inf
        # and is clamped to the width.
        assert gts.boxes.tolist() == [[0.0, 40.0, 100.0, 50.0]]
        assert math.copysign(1.0, gts.boxes[0, 0]) == -1.0
        assert gts.crowd.tolist() == [True]
        assert index.annotations[2].boxes.tolist() == [[1, 2, 4, 6], [5, 5, 5, 5]]
        assert index.annotations[2].class_ids.tolist() == [4, 9]
        assert len(index.annotations[5]) == 0 and index.annotations[5].boxes.shape == (0, 4)
        assert index.clamp_warnings == 1
        # The views are keyed by id alone, and map every image.
        assert 4 not in index.annotations and "7" not in index.annotations
        assert index.annotations[np.int64(2)].class_ids.tolist() == [4, 9]
        assert list(index.proposals) == [7, 2, 5] and len(index.proposals[7]) == 0

    @pytest.mark.parametrize(
        "images, categories, message",
        [
            ([{"id": 1, "width": 640}], [], "bad image entry {'id': 1, 'width': 640}: 'height'"),
            ([{"id": 1, "width": 5, "height": 5}, {"id": 2, "width": 5.5, "height": 5}], [],
             "bad image entry {'id': 2, 'width': 5.5, 'height': 5}: width must be an integer: 5.5"),
            ([{"id": 2**63, "width": 5, "height": 5}], [],
             f"bad image entry {{'id': {2**63}, 'width': 5, 'height': 5}}: id must be in "
             f"[{-2**63}, {2**63 - 1}]: {2**63}"),
            ([{"id": 1, "width": 5, "height": 0}], [],
             "bad image entry {'id': 1, 'width': 5, 'height': 0}: image size must be "
             "positive: 5x0"),
            # The first problem in file order wins, whatever its kind.
            ([{"id": 1, "width": 5, "height": 5}, {"id": 1, "width": 5, "height": 5}, 7], [],
             "duplicate image id 1"),
            ([{"id": 3, "width": 2**32, "height": 5}, {"id": 4}], [],
             "image id 3: width and height must be at most 4294967295"),
            ([{"id": 1, "width": 5, "height": 5}], [{"id": 1}, {"name": "x"}],
             "bad category entry {'name': 'x'}: 'id'"),
            ([{"id": 1, "width": 5, "height": 5}], [{"id": True, "name": "x"}],
             "bad category entry {'id': True, 'name': 'x'}: id must be an integer: True"),
            ([{"id": 1, "width": 5, "height": 5}], ["cat"],
             "bad category entry 'cat': string indices must be integers, not 'str'"),
        ],
    )
    def test_bad_image_or_category_entry_names_the_first(self, tmp_path, images, categories,
                                                         message):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"images": images, "categories": categories}))
        with pytest.raises(DatasetStructureError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: {message}"

    def test_categories_keep_the_last_name_of_an_id(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({
            "images": [], "categories": [{"id": 4, "name": "a"}, {"id": 2}, {"id": 4.0, "name": 7}],
        }))
        categories = load_dataset(path).categories
        assert categories == {4: "7", 2: "2"} and list(categories) == [4, 2]

    def test_duplicate_image_id_raises(self, tmp_path):
        path = minimal_coco(
            tmp_path,
            images=[{"id": 1, "width": 640, "height": 480}, {"id": 1, "width": 10, "height": 10}],
        )
        with pytest.raises(DatasetStructureError, match="duplicate image id 1"):
            load_dataset(path)

    @pytest.mark.parametrize("category_id", [-3, 2**63, 2**70])
    def test_category_id_out_of_int64_range_names_annotation(self, tmp_path, category_id):
        path = minimal_coco(
            tmp_path,
            annotations=[{"id": 12, "image_id": 1, "category_id": category_id,
                          "bbox": [0, 0, 5, 5]}],
        )
        with pytest.raises(DatasetStructureError,
                           match=rf"annotation id 12: category_id must be in .*{category_id}"):
            load_dataset(path)

    def test_dangling_image_id_raises(self, tmp_path):
        path = minimal_coco(
            tmp_path,
            annotations=[{"id": 1, "image_id": 99, "category_id": 3, "bbox": [0, 0, 5, 5]}],
        )
        with pytest.raises(DatasetStructureError, match="99"):
            load_dataset(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DatasetParseError, match="bad.json"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetParseError):
            load_dataset(tmp_path / "nope.json")

    def test_not_coco_shape(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(DatasetStructureError):
            load_dataset(path)

    def test_crowd_flag(self, tmp_path):
        path = minimal_coco(
            tmp_path,
            annotations=[
                {"id": 1, "image_id": 1, "category_id": 3, "bbox": [0, 0, 5, 5], "iscrowd": 1}
            ],
        )
        index = load_dataset(path)
        assert index.annotations[1].crowd.tolist() == [True]

    @pytest.mark.parametrize("flag, crowd", [(0, False), (1, True), (False, False),
                                             (True, True), (1.0, True), (0.0, False),
                                             (-0.0, False)])
    def test_crowd_flag_values(self, tmp_path, flag, crowd):
        path = minimal_coco(
            tmp_path,
            annotations=[
                {"id": 1, "image_id": 1, "category_id": 3, "bbox": [0, 0, 5, 5], "iscrowd": flag}
            ],
        )
        assert load_dataset(path).annotations[1].crowd.tolist() == [crowd]

    @pytest.mark.parametrize("flag", ["0", "1", 2, -1, 0.5, None, [1]])
    def test_crowd_flag_other_than_0_1_false_true_raises(self, tmp_path, flag):
        path = minimal_coco(
            tmp_path,
            annotations=[
                {"id": 1, "image_id": 1, "category_id": 3, "bbox": [0, 0, 5, 5]},
                {"id": 8, "image_id": 1, "category_id": 3, "bbox": [0, 0, 5, 5], "iscrowd": flag},
            ],
        )
        with pytest.raises(DatasetStructureError) as info:
            load_dataset(path)
        assert str(info.value) == (
            f"{path}: annotation id 8: iscrowd must be 0, 1, false or true: {flag!r}"
        )

    def test_proposals(self, tmp_path):
        ann = minimal_coco(tmp_path)
        props = tmp_path / "props.json"
        props.write_text(
            json.dumps(
                [
                    {"image_id": 1, "bbox": [0, 0, 10, 10], "score": 0.5},
                    {"image_id": 1, "bbox": [5, 5, 10, 10], "score": 0.25},
                ]
            )
        )
        index = load_dataset(ann, proposals_path=props)
        assert len(index.proposals[1].boxes) == 2

    def test_proposals_are_columns_per_image_in_file_order(self, tmp_path):
        ann = minimal_coco(
            tmp_path,
            images=[{"id": 1, "width": 640, "height": 480}, {"id": 2, "width": 100, "height": 50}],
        )
        props = tmp_path / "props.json"
        props.write_text(
            json.dumps(
                [
                    {"image_id": 2, "bbox": [90, -5, 20, 20], "score": 0.5},
                    {"image_id": 1, "bbox": [0.5, 1, 2, 3], "score": 1},
                    {"image_id": 2, "bbox": [10, 10, 0, 5]},
                ]
            )
        )
        index = load_dataset(ann, proposals_path=props)
        assert index.proposal_offsets.tolist() == [0, 1, 3]
        proposals = index.proposals
        assert list(proposals) == [1, 2]  # the order of the images
        assert proposals[2].boxes.dtype == np.float64
        assert proposals[2].boxes.tolist() == [[90, 0, 100, 15], [10, 10, 10, 15]]
        assert proposals[2].scores.tolist() == [0.5, 1.0]
        assert proposals[1].boxes.tolist() == [[0.5, 1, 2.5, 4]]

    def test_proposal_corners_clamp_as_annotation_corners(self, tmp_path):
        ann = minimal_coco(tmp_path, [], images=[{"id": 7, "width": 100, "height": 50}])
        props = tmp_path / "props.json"
        props.write_text(json.dumps([{"image_id": 7, "bbox": [-0.0, 40, 1e308, 20]},
                                     {"image_id": 7, "bbox": [-3, -0.0, 5, 1e308]}]))
        boxes = load_dataset(ann, proposals_path=props).proposals[7].boxes
        # -0.0 is kept, as max(-0.0, 0.0) keeps it; x + w and y + h overflow
        # to inf and are clamped to the image.
        assert boxes.tolist() == [[0.0, 40.0, 100.0, 50.0], [0.0, 0.0, 2.0, 50.0]]
        assert np.signbit(boxes).tolist() == [[True, False, False, False],
                                              [False, True, False, False]]
        want, _ = load_proposals_oracle(props, load_dataset_oracle(ann)[0])[7]
        assert boxes.tobytes() == np.array(want, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("score", [2.0, -0.25, float("nan")], ids=["above-1", "negative", "nan"])
    def test_bad_proposal_score_names_entry(self, tmp_path, score):
        ann = minimal_coco(tmp_path)
        props = tmp_path / "props.json"
        props.write_text(
            json.dumps(
                [{"image_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5},
                 {"image_id": 1, "bbox": [1, 1, 5, 5], "score": score}]
            )
        )
        with pytest.raises(DatasetStructureError, match=r"props\.json: entry 1: score"):
            load_dataset(ann, proposals_path=props)

    @pytest.mark.parametrize("score", ["0.5", True, False, None, [0.5]])
    def test_proposal_score_that_is_not_a_number_names_entry(self, tmp_path, score):
        ann = minimal_coco(tmp_path)
        props = tmp_path / "props.json"
        props.write_text(
            json.dumps(
                [{"image_id": 1, "bbox": [0, 0, 5, 5], "score": 1},
                 {"image_id": 1, "bbox": [1, 1, 5, 5], "score": score}]
            )
        )
        with pytest.raises(DatasetStructureError) as info:
            load_dataset(ann, proposals_path=props)
        assert str(info.value) == f"{props}: entry 1: score must be a number: {score!r}"

    def test_dangling_proposal_raises(self, tmp_path):
        ann = minimal_coco(tmp_path)
        props = tmp_path / "props.json"
        props.write_text(json.dumps([{"image_id": 7, "bbox": [0, 0, 1, 1], "score": 0.5}]))
        with pytest.raises(DatasetStructureError, match="7"):
            load_dataset(ann, proposals_path=props)

    @pytest.mark.parametrize(
        "kind, entry, name",
        [
            ("annotations", {"id": 5, "image_id": 1, "category_id": 3}, "annotation id 5"),
            ("proposals", {"image_id": 1, "bbox": [0, 0, float("inf"), 1]}, "entry 0"),
        ],
    )
    def test_bad_entry_names_it(self, tmp_path, kind, entry, name):
        if kind == "annotations":
            ann = minimal_coco(tmp_path, annotations=[entry])
            paths = {}
        else:
            ann = minimal_coco(tmp_path)
            results = tmp_path / f"{kind}.json"
            results.write_text(json.dumps([entry]))
            paths = {f"{kind}_path": results}
        with pytest.raises(DatasetStructureError, match=name):
            load_dataset(ann, **paths)


BAD_PROPOSALS = [{"image_id": 1, "bbox": [0, 0, 10, 10], "score": 2.0}]


class TestCollectorPause:
    """``load_dataset`` holds the cyclic collector off while decoded JSON is
    alive and leaves it as it found it, whether it returns or raises."""

    @pytest.mark.parametrize(
        "annotations, proposals, error",
        [
            (None, None, None),
            (None, [{"image_id": 1, "bbox": [0, 0, 10, 10], "score": 0.5}], None),
            ("{not json", None, DatasetParseError),
            ({"images": [{"id": 1, "width": 0, "height": 5}]}, None, DatasetStructureError),
            (None, BAD_PROPOSALS, DatasetStructureError),
        ],
        ids=["annotations", "with-proposals", "malformed-json", "bad-image", "bad-proposal"],
    )
    def test_state_is_restored(self, tmp_path, monkeypatch, collector, annotations, proposals,
                               error):
        if annotations is None:
            ann = minimal_coco(tmp_path)
        else:
            ann = tmp_path / "given.json"
            ann.write_text(annotations if isinstance(annotations, str) else json.dumps(annotations))
        paths = {}
        if proposals is not None:
            paths["proposals_path"] = tmp_path / "props.json"
            paths["proposals_path"].write_text(json.dumps(proposals))
        decoding = []

        def load(fh):
            decoding.append(gc.isenabled())
            return json.loads(fh.read())

        monkeypatch.setattr(json, "load", load)
        if error is None:
            load_dataset(ann, **paths)
        else:
            with pytest.raises(error):
                load_dataset(ann, **paths)
        assert decoding == [False] * (1 + (proposals is not None))
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("with_proposals", [False, True], ids=["annotations", "with-proposals"])
    def test_no_collection_runs_while_loading(self, tmp_path, with_proposals):
        # The decoded files hold thousands of containers. Were they alive when
        # the collector came back, its first young collection would walk them.
        paths = {}
        if with_proposals:
            paths["proposals_path"] = tmp_path / "props.json"
            paths["proposals_path"].write_text(json.dumps([
                {"image_id": image["id"], "bbox": [0, 0, 10, 10], "score": 0.5}
                for image in json.loads(EXCERPT_PATH.read_text())["images"]
            ] * 5))
        assert gc.isenabled()
        gc.collect()
        runs = []

        def note(phase, info):
            if phase == "start":
                runs.append(info["generation"])

        gc.callbacks.append(note)
        try:
            load_dataset(EXCERPT_PATH, **paths)
        finally:
            gc.callbacks.remove(note)
        assert runs == []
