"""Pixel-cost bounds and annotation-only dataset statistics.

Everything here works from boxes alone: the speed-up attainable with
perfectly predicted focus regions, charged in pixels over the whole run
against the full pyramid, the distribution of object scale relative to
image scale, and instance/area fractions per size band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .focus_chips import chips_from_bounds
from .focus_labels import (
    DEFAULT_DILATION,
    DEFAULT_IGNORE_MAX_SIDE,
    DEFAULT_MAX_SIDE,
    DEFAULT_MIN_SIDE,
    DEFAULT_STRIDE,
)
from .focus_spans import check_kernel_size, dilated_focus_spans, span_components
from .geometry import GroundTruthSet, ScaleSpec, _float_areas, _in_order_sum, pyramid_canvases

# Upper bound on histogram bins, so that a bin count cannot ask for an
# arbitrary allocation.
MAX_HISTOGRAM_BINS = 100_000

# COCO-convention size-band breakpoints, in squared pixels.
SIZE_BANDS = (
    ("small", 0.0, 32.0**2),
    ("medium", 32.0**2, 96.0**2),
    ("large", 96.0**2, math.inf),
)


def speedup_upper_bound(
    gts: GroundTruthSet,
    offsets: np.ndarray,
    sizes: np.ndarray,
    pyramid: list[ScaleSpec],
    min_chip_sizes: Sequence[int],
    stride: int = DEFAULT_STRIDE,
    min_side: float = DEFAULT_MIN_SIDE,
    max_side: float = DEFAULT_MAX_SIDE,
    ignore_max_side: float = DEFAULT_IGNORE_MAX_SIDE,
    dilation: int = DEFAULT_DILATION,
    process_coarsest_fully: bool = True,
) -> list[tuple[int, float]]:
    """Speed-up attainable with perfectly predicted focus regions.

    Image i has size ``sizes[i]`` (width, height) and the rows
    ``offsets[i]:offsets[i + 1]`` of the run-wide ground truth ``gts``.
    For every image and pyramid level, ground-truth focus cells (probability
    1 on focus labels, 0 elsewhere) are turned into chips with the standard
    generation pipeline, sweeping the minimum chip side ``k``; the same ``k``
    applies at every level. The coarsest level (first in the pyramid) is
    charged as a full pass by default, matching an inference cascade that
    starts there. Returns (k, speedup) with speedup the ratio of total
    baseline pixels to total chip pixels over the dataset.

    Each ``k`` must be a distinct integer >= 1, and ``dilation`` odd and
    >= 1. The focus maps of a block of images, at all levels, are built
    from cell spans in one batch (see :mod:`pyrsample.focus_spans`), and
    their components are shared by every ``k``. Each map's chip areas are
    summed in chip order and added map by map in (image, level) order.
    """
    if not len(sizes):
        raise ValueError("no images in dataset")
    if not min_chip_sizes:
        raise ValueError("no chip sizes to sweep")
    if len(set(min_chip_sizes)) != len(min_chip_sizes):
        raise ValueError(f"chip sizes must not repeat: {list(min_chip_sizes)}")
    if min(min_chip_sizes) < 1:
        raise ValueError(f"chip sizes must be >= 1: {list(min_chip_sizes)}")
    check_kernel_size(dilation, "dilation")
    # Per (image, level): the canvas and its area.
    canvases = pyramid_canvases(pyramid, sizes)
    areas = _float_areas(canvases)
    # The levels that are maps; the coarsest may be charged as a full pass.
    mapped = np.arange(int(process_coarsest_fully), len(pyramid))
    processed = dict.fromkeys(min_chip_sizes, 0.0)
    for lo, hi, _, grown, owners, _ in dilated_focus_spans(
        gts.boxes, offsets, sizes, canvases, mapped, stride, min_side, max_side,
        ignore_max_side, dilation,
    ):
        bounds, comp_maps = span_components(grown, owners)
        limits = canvases[lo:hi, mapped].reshape(-1, 2)
        # Per (image, level) of the block: the area charged for a full pass,
        # or the map's chip area.
        charges = areas[lo:hi].copy()
        for k in min_chip_sizes:
            chips, chip_maps = chips_from_bounds(bounds, comp_maps, limits, stride, k)
            chip_areas = (chips[:, 2] - chips[:, 0]) * (chips[:, 3] - chips[:, 1])
            charges[:, mapped] = _map_sums(chip_areas, chip_maps, len(limits)).reshape(hi - lo, -1)
            processed[k] = _in_order_sum(charges, processed[k])
    # Every sum adds its terms one by one, in (image, level) order.
    baseline_total = _in_order_sum(areas)
    return [
        (k, math.inf if processed[k] == 0 else baseline_total / processed[k])
        for k in min_chip_sizes
    ]


def _map_sums(values: np.ndarray, maps: np.ndarray, n_maps: int) -> np.ndarray:
    """Per map, the sum of its ``values`` added one by one in order, as a
    Python loop adds them; ``maps`` is non-decreasing. All maps take their
    p-th value at once."""
    sums = np.zeros(n_maps)
    first = np.searchsorted(maps, np.arange(n_maps))
    count = np.bincount(maps, minlength=n_maps)
    for p in range(int(count.max(initial=0))):
        has = np.flatnonzero(count > p)
        sums[has] += values[first[has] + p]
    return sums


def _box_areas(boxes: np.ndarray) -> np.ndarray:
    """Every box's area, (x2 - x1) * (y2 - y1), crowd boxes included."""
    return (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])


@dataclass
class RoiScaleHistogram:
    """Distribution of sqrt(box area) / sqrt(image area) over a dataset."""

    bin_edges: np.ndarray
    fractions: np.ndarray
    deciles: np.ndarray = field(default_factory=lambda: np.zeros(9))
    n_instances: int = 0

    @property
    def decile_spread(self) -> float:
        """90th / 10th percentile ratio of relative scale."""
        if self.deciles[0] <= 0:
            return math.inf
        return float(self.deciles[-1] / self.deciles[0])


def roi_scale_histogram(
    gts: GroundTruthSet,
    offsets: np.ndarray,
    sizes: np.ndarray,
    n_bins: int = 50,
) -> RoiScaleHistogram:
    """Normalized histogram of object scale relative to its image, in
    ``n_bins`` equal bins over [0, 1], 1 <= n_bins <= MAX_HISTOGRAM_BINS.
    Image i has size ``sizes[i]`` and the rows ``offsets[i]:offsets[i + 1]``
    of the run-wide ground truth ``gts``."""
    if not 1 <= n_bins <= MAX_HISTOGRAM_BINS:
        raise ValueError(f"bins must be in [1, {MAX_HISTOGRAM_BINS}]: {n_bins}")
    areas = _box_areas(gts.boxes)
    if not len(areas):
        raise ValueError("no instances in dataset")
    # math.sqrt(box area) / math.sqrt(image area), per box.
    arr = np.sqrt(areas) / np.sqrt(np.repeat(_float_areas(sizes), np.diff(offsets)))
    counts, edges = np.histogram(arr, bins=n_bins, range=(0.0, 1.0))
    return RoiScaleHistogram(
        bin_edges=edges,
        fractions=counts / counts.sum(),
        deciles=np.percentile(arr, np.arange(10, 100, 10)),
        n_instances=len(arr),
    )


@dataclass
class SizeBandStats:
    name: str
    area_lo: float
    area_hi: float
    instance_fraction: float
    area_fraction: float
    n_instances: int


def size_area_fractions(
    gts: GroundTruthSet,
    offsets: np.ndarray,
    sizes: np.ndarray,
) -> list[SizeBandStats]:
    """Instance and image-area fractions per object-size band of
    :data:`SIZE_BANDS`, crowd boxes included.

    The area fraction of a band is the summed box area of its instances over
    the summed area of all images, so it answers "how much of the dataset's
    pixels do objects of this size cover". Bands are half-open [lo, hi) in
    squared pixels of the original frame. Image i has size ``sizes[i]`` and
    the rows ``offsets[i]:offsets[i + 1]`` of the run-wide ground truth
    ``gts``.
    """
    if not len(sizes):
        raise ValueError("no images in dataset")
    # Image areas are added one by one in image order, as a Python loop adds them.
    total_image_area = _in_order_sum(_float_areas(sizes))
    areas = _box_areas(gts.boxes)
    n_total = len(areas)
    if n_total == 0:
        raise ValueError("no instances in dataset")
    # Each box goes to the first band that holds it. A band's areas are
    # added one by one in file order: a pairwise sum could round differently.
    counts, sums = [], []
    left = np.ones(n_total, dtype=bool)
    for _, lo, hi in SIZE_BANDS:
        hit = left & (lo <= areas) & (areas < hi)
        left &= ~hit
        counts.append(int(hit.sum()))
        sums.append(_in_order_sum(areas[hit]))
    return [
        SizeBandStats(
            name=name,
            area_lo=lo,
            area_hi=hi,
            instance_fraction=counts[idx] / n_total,
            area_fraction=sums[idx] / total_image_area,
            n_instances=counts[idx],
        )
        for idx, (name, lo, hi) in enumerate(SIZE_BANDS)
    ]

