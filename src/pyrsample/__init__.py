"""Scale-normalized image-pyramid sampling on boxes, grids, and annotations.

The library covers four pieces of a multi-scale detection pipeline that need
no trained network: valid-range labeling of boxes per pyramid level, greedy
positive/negative chip generation for training, focus-pixel label maps and
focus-chip extraction for coarse-to-fine inference, and cross-scale stacking
of detections with (soft-)NMS, plus pixels-processed cost accounting.
"""
from .geometry import (
    DetectionBatch,
    GroundTruthSet,
    ImageSize,
    MaxSideTarget,
    ScaleSpec,
)
from .range_labels import (
    assign_roi_labels,
    filter_detections_by_range,
    invalidate_anchors,
)
from .chips import (
    ChipBatch,
    ProposalSet,
    UncoverableBoxes,
    sample_negative_chips,
    select_negative_chips,
    select_positive_chips,
)
from .focus_labels import FocusMap, build_focus_label_map, focus_pixel_stats
from .focus_chips import (
    FocusParams,
    connected_components,
    dilate,
    generate_focus_chips,
    threshold_map,
)
from .stacking import (
    MergePolicy,
    merge_detections,
    project_to_image,
    prune_boundary_detections,
)
from .costing import (
    CostReport,
    aggregate_cost_reports,
    pixels_processed,
    roi_scale_histogram,
    size_area_fractions,
    speedup_upper_bound,
)
from .config import PipelineConfig, coco_default, load_config, validate_config
from .dataset import DatasetIndex, load_dataset, voc_to_coco

__version__ = "0.1.0"

__all__ = [
    "ChipBatch",
    "CostReport",
    "DatasetIndex",
    "DetectionBatch",
    "FocusMap",
    "FocusParams",
    "GroundTruthSet",
    "ImageSize",
    "MaxSideTarget",
    "MergePolicy",
    "PipelineConfig",
    "ProposalSet",
    "ScaleSpec",
    "UncoverableBoxes",
    "aggregate_cost_reports",
    "assign_roi_labels",
    "build_focus_label_map",
    "coco_default",
    "connected_components",
    "dilate",
    "filter_detections_by_range",
    "focus_pixel_stats",
    "generate_focus_chips",
    "invalidate_anchors",
    "load_config",
    "load_dataset",
    "merge_detections",
    "pixels_processed",
    "project_to_image",
    "prune_boundary_detections",
    "roi_scale_histogram",
    "sample_negative_chips",
    "select_negative_chips",
    "select_positive_chips",
    "size_area_fractions",
    "speedup_upper_bound",
    "threshold_map",
    "validate_config",
    "voc_to_coco",
]
