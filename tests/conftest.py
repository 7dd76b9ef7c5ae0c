import gc
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pyrsample.dataset import load_dataset
from pyrsample.chips import ChipBatch
from pyrsample.geometry import DetectionBatch, GroundTruthSet

EXCERPT_PATH = Path(__file__).parent.parent / "src" / "pyrsample" / "data" / "excerpt_200.json"
REFERENCE_PATH = Path(__file__).parent / "data" / "excerpt_reference.json"

# Locations tried for the full COCO val2017 annotation file; the bundled
# excerpt is used when none exists.
COCO_ENV = "PYRSAMPLE_COCO_VAL2017"
COCO_CANDIDATES = (
    Path("instances_val2017.json"),
    Path.home() / "data" / "coco" / "annotations" / "instances_val2017.json",
    Path("/data/coco/annotations/instances_val2017.json"),
)


def find_coco_val2017() -> Path | None:
    env = os.environ.get(COCO_ENV)
    if env:
        p = Path(env)
        if p.exists():
            return p
    for candidate in COCO_CANDIDATES:
        if candidate.exists():
            return candidate
    return None


@pytest.fixture(scope="session")
def coco_val2017_path():
    return find_coco_val2017()


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic garbage collector switched on or off, as the param says,
    for the test; it is switched back on afterwards."""
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    gc.enable()


@pytest.fixture(scope="session")
def excerpt_index():
    return load_dataset(EXCERPT_PATH)


def gt_set(rows) -> GroundTruthSet:
    """One image's ground truth from (box, class_id) or (box, class_id,
    is_crowd) rows, such as the oracles' ``Gt`` tuples; each box is a
    ``BoundingBox``."""
    rows = [(*row, False)[:3] for row in rows]
    return GroundTruthSet(
        np.array([box.as_tuple() for box, _, _ in rows], dtype=np.float64).reshape(-1, 4),
        np.array([class_id for _, class_id, _ in rows], dtype=np.int64),
        np.array([is_crowd for _, _, is_crowd in rows], dtype=bool),
    )


def gt_sets(rows_by_image: dict) -> dict:
    """Per image id, the :func:`gt_set` of its rows."""
    return {image_id: gt_set(rows) for image_id, rows in rows_by_image.items()}


def box_columns(boxes: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-image (n_i, 4) box arrays as run-wide columns: the stacked
    (N, 4) boxes and their (n + 1,) offsets."""
    return np.concatenate([np.zeros((0, 4)), *boxes]), np.cumsum([0] + [len(b) for b in boxes])


def gt_columns(rows_by_image: dict, sizes_by_image: dict) -> tuple:
    """The run-wide columns of a dataset given per image id, images in the
    order of ``rows_by_image``: one :class:`GroundTruthSet` of every image's
    rows (a set, or rows for :func:`gt_set`), their (n + 1,) offsets, and
    the (n, 2) int64 sizes (width, height) from ``sizes_by_image``."""
    sets = [g if isinstance(g, GroundTruthSet) else gt_set(g) for g in rows_by_image.values()]
    sizes = [sizes_by_image[image_id] for image_id in rows_by_image]
    boxes, offsets = box_columns([g.boxes for g in sets])
    return (
        GroundTruthSet(
            boxes,
            np.concatenate([np.zeros(0, dtype=np.int64), *(g.class_ids for g in sets)]),
            np.concatenate([np.zeros(0, dtype=bool), *(g.crowd for g in sets)]),
        ),
        offsets,
        np.array([(s.width, s.height) for s in sizes], dtype=np.int64).reshape(-1, 2),
    )


def detection_batch(rows) -> DetectionBatch:
    """A batch of (box, score, class_id) rows, each box x1, y1, x2, y2."""
    rows = list(rows)
    return DetectionBatch(
        np.array([box for box, _, _ in rows], dtype=np.float64).reshape(-1, 4),
        np.array([score for _, score, _ in rows], dtype=np.float64),
        np.array([class_id for _, _, class_id in rows], dtype=np.int64),
    )


def chip_batch(rows, kind: str) -> ChipBatch:
    """A batch of (image_id, scale_id, rect, covered_gt_ids, cropped_gt)
    rows, each rect x1, y1, x2, y2 and each cropped entry (gt id, box)."""
    rows = list(rows)

    def offsets(lists):
        return np.cumsum([0] + [len(items) for items in lists])

    covered = [ids for _, _, _, ids, _ in rows]
    cropped = [crops for _, _, _, _, crops in rows]
    flat = [crop for crops in cropped for crop in crops]
    return ChipBatch(
        np.array([image_id for image_id, _, _, _, _ in rows], dtype=np.int64),
        np.array([scale_id for _, scale_id, _, _, _ in rows], dtype=np.int64),
        np.array([rect for _, _, rect, _, _ in rows], dtype=np.float64).reshape(-1, 4),
        kind,
        (offsets(covered), np.array([i for ids in covered for i in ids], dtype=np.int64)),
        (offsets(cropped), np.array([gt_id for gt_id, _ in flat], dtype=np.int64),
         np.array([box for _, box in flat], dtype=np.float64).reshape(-1, 4)),
    )
