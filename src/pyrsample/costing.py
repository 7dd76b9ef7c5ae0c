"""Pixels-processed accounting and annotation-only dataset statistics.

Everything here works from boxes and chip rectangles alone: processed-pixel
totals per pyramid level, theoretical speed-up bounds from ground-truth
focus maps, the distribution of object scale relative to image scale, and
instance/area fractions per size band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .geometry import GroundTruthSet, ImageSize, ScaleSpec, canvas_sizes
from .focus_labels import (
    DEFAULT_IGNORE_MAX_SIDE,
    DEFAULT_MAX_SIDE,
    DEFAULT_MIN_SIDE,
    DEFAULT_STRIDE,
)
from .focus_chips import check_kernel_size, chips_from_bounds
from .focus_spans import dilate_spans, focus_spans, image_blocks, span_components

FULL_IMAGE = "full"

# Upper bound on histogram bins, so that a bin count cannot ask for an
# arbitrary allocation.
MAX_HISTOGRAM_BINS = 100_000

# COCO-convention size-band breakpoints, in squared pixels.
SIZE_BANDS = (
    ("small", 0.0, 32.0**2),
    ("medium", 32.0**2, 96.0**2),
    ("large", 96.0**2, math.inf),
)


@dataclass
class CostReport:
    """Processed-pixel accounting versus a full-pyramid baseline.

    Additive over images: an aggregate report is the field-wise sum of the
    per-image reports with ``n_images`` accumulated, so per-image means stay
    comparable across datasets.
    """

    per_scale_pixels: dict[int, float]
    baseline_per_scale: dict[int, float]
    n_images: int = 1

    @property
    def processed_pixels(self) -> float:
        return sum(self.per_scale_pixels.values())

    @property
    def baseline_pixels(self) -> float:
        return sum(self.baseline_per_scale.values())

    @property
    def speedup(self) -> float:
        processed = self.processed_pixels
        if processed == 0:
            return math.inf
        return self.baseline_pixels / processed

    @property
    def mean_processed_side(self) -> float:
        """sqrt(mean processed pixels per image), the side-length convention
        used when quoting average resolutions."""
        return math.sqrt(self.processed_pixels / self.n_images)

    @property
    def mean_baseline_side(self) -> float:
        return math.sqrt(self.baseline_pixels / self.n_images)


def pixels_processed(
    chips_per_scale: Mapping[int, np.ndarray | str],
    pyramid: list[ScaleSpec],
    original: ImageSize,
) -> CostReport:
    """Per-image cost report for one chip assignment.

    ``chips_per_scale`` maps scale_id to either an (n, 4) array of chip
    corners x1, y1, x2, y2 (already clipped to the canvas) or the marker
    ``FULL_IMAGE`` for a full-canvas pass. A scale absent from the mapping,
    or with no chips, is skipped. Chip areas are added in chip order.
    """
    per_scale: dict[int, float] = {}
    baseline: dict[int, float] = {}
    for spec in pyramid:
        canvas = spec.resolve(original)
        baseline[spec.scale_id] = float(canvas.area)
        work = chips_per_scale.get(spec.scale_id, np.zeros((0, 4)))
        if isinstance(work, str):
            if work != FULL_IMAGE:
                raise ValueError(f"unknown scale marker: {work!r}")
            per_scale[spec.scale_id] = float(canvas.area)
        else:
            areas = (work[:, 2] - work[:, 0]) * (work[:, 3] - work[:, 1])
            per_scale[spec.scale_id] = float(sum(areas.tolist()))
    return CostReport(per_scale_pixels=per_scale, baseline_per_scale=baseline)


def aggregate_cost_reports(reports: Sequence[CostReport]) -> CostReport:
    """Field-wise sum of per-image reports."""
    if not reports:
        raise ValueError("no reports to aggregate")
    per_scale: dict[int, float] = {}
    baseline: dict[int, float] = {}
    n = 0
    for report in reports:
        for sid, px in report.per_scale_pixels.items():
            per_scale[sid] = per_scale.get(sid, 0.0) + px
        for sid, px in report.baseline_per_scale.items():
            baseline[sid] = baseline.get(sid, 0.0) + px
        n += report.n_images
    return CostReport(per_scale_pixels=per_scale, baseline_per_scale=baseline, n_images=n)


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
    dilation: int = 3,
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
    # Per (image, level): the canvas and its area as a float64 product, which
    # rounds as the int area converts.
    canvases = np.zeros((len(sizes), len(pyramid), 2), dtype=np.int64)
    for level, spec in enumerate(pyramid):
        canvases[:, level] = canvas_sizes(spec, sizes)
    areas = canvases[..., 0] * canvases[..., 1].astype(np.float64)
    # The levels that are maps; the coarsest may be charged as a full pass.
    mapped = np.arange(int(process_coarsest_fully), len(pyramid))
    processed = dict.fromkeys(min_chip_sizes, 0.0)
    for lo, hi in image_blocks(offsets, len(pyramid)):
        images = np.repeat(np.arange(lo, hi), len(mapped))
        limits = canvases[lo:hi, mapped].reshape(-1, 2)
        spans, owners, grids = focus_spans(
            gts.boxes, offsets, sizes, images, limits, stride, min_side, max_side,
            ignore_max_side,
        )
        bounds, comp_maps = span_components(dilate_spans(spans, owners, grids, dilation), owners)
        # Per (image, level) of the block: the area charged for a full pass,
        # or the map's chip area.
        charges = areas[lo:hi].copy()
        for k in min_chip_sizes:
            chips, chip_maps = chips_from_bounds(bounds, comp_maps, limits, stride, k)
            chip_areas = (chips[:, 2] - chips[:, 0]) * (chips[:, 3] - chips[:, 1])
            charges[:, mapped] = _map_sums(chip_areas, chip_maps, len(images)).reshape(hi - lo, -1)
            processed[k] = float(np.cumsum(np.append(processed[k], charges))[-1])
    # Every sum adds its terms one by one, in (image, level) order.
    baseline_total = float(np.cumsum(np.append(0.0, areas))[-1])
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


def _image_areas(sizes: np.ndarray) -> np.ndarray:
    """The area of each of the (n, 2) int ``sizes`` as a float64 product,
    which rounds as the exact int product does."""
    return sizes[:, 0] * sizes[:, 1].astype(np.float64)


def _box_areas(
    gts: GroundTruthSet, offsets: np.ndarray, sizes: np.ndarray, exclude_crowd: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Every box's area, (x2 - x1) * (y2 - y1), and the area of its image,
    in run order; crowd boxes are left out when ``exclude_crowd`` is set."""
    boxes = gts.boxes
    image_areas = np.repeat(_image_areas(sizes), np.diff(offsets))
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    if exclude_crowd:
        return areas[~gts.crowd], image_areas[~gts.crowd]
    return areas, image_areas


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
    exclude_crowd: bool = False,
) -> RoiScaleHistogram:
    """Normalized histogram of object scale relative to its image, in
    ``n_bins`` equal bins over [0, 1], 1 <= n_bins <= MAX_HISTOGRAM_BINS.
    Image i has size ``sizes[i]`` and the rows ``offsets[i]:offsets[i + 1]``
    of the run-wide ground truth ``gts``."""
    if not 1 <= n_bins <= MAX_HISTOGRAM_BINS:
        raise ValueError(f"bins must be in [1, {MAX_HISTOGRAM_BINS}]: {n_bins}")
    areas, image_areas = _box_areas(gts, offsets, sizes, exclude_crowd)
    if not len(areas):
        raise ValueError("no instances in dataset")
    # math.sqrt(box area) / math.sqrt(image area), per box.
    arr = np.sqrt(areas) / np.sqrt(image_areas)
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
    bands: Sequence[tuple[str, float, float]] = SIZE_BANDS,
    exclude_crowd: bool = False,
) -> list[SizeBandStats]:
    """Instance and image-area fractions per object-size band.

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
    total_image_area = float(np.cumsum(np.append(0.0, _image_areas(sizes)))[-1])
    areas, _ = _box_areas(gts, offsets, sizes, exclude_crowd)
    n_total = len(areas)
    if n_total == 0:
        raise ValueError("no instances in dataset")
    # Each box goes to the first band that holds it. A band's areas are
    # added one by one in file order: a pairwise sum could round differently.
    counts, sums = [], []
    left = np.ones(n_total, dtype=bool)
    for _, lo, hi in bands:
        hit = left & (lo <= areas) & (areas < hi)
        left &= ~hit
        counts.append(int(hit.sum()))
        sums.append(float(np.cumsum(np.append(0.0, areas[hit]))[-1]))
    return [
        SizeBandStats(
            name=name,
            area_lo=lo,
            area_hi=hi,
            instance_fraction=counts[idx] / n_total,
            area_fraction=sums[idx] / total_image_area,
            n_instances=counts[idx],
        )
        for idx, (name, lo, hi) in enumerate(bands)
    ]

