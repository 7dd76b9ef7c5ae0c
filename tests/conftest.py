import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pyrsample.dataset import load_dataset
from pyrsample.geometry import DetectionBatch

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


@pytest.fixture(scope="session")
def excerpt_index():
    return load_dataset(EXCERPT_PATH)


def detection_batch(rows) -> DetectionBatch:
    """A batch of (box, score, class_id) rows, each box x1, y1, x2, y2."""
    rows = list(rows)
    return DetectionBatch(
        np.array([box for box, _, _ in rows], dtype=np.float64).reshape(-1, 4),
        np.array([score for _, score, _ in rows], dtype=np.float64),
        np.array([class_id for _, _, class_id in rows], dtype=np.int64),
    )
