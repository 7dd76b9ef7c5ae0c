"""Scale-normalized image-pyramid sampling on boxes, grids, and annotations.

The library covers four pieces of a multi-scale detection pipeline that need
no trained network: valid-range labeling of boxes per pyramid level, greedy
positive/negative chip generation for training, focus-pixel label maps and
focus-chip extraction for coarse-to-fine inference, and cross-scale stacking
of detections with (soft-)NMS, plus pixels-processed cost accounting.
"""
from .geometry import (
    BoundingBox,
    DetectionBatch,
    GroundTruthInstance,
    GroundTruthSet,
    ImageSize,
    MaxSideTarget,
    ScaleSpec,
    iou,
)
from .range_labels import (
    AnchorValidity,
    LabelKind,
    RoiLabel,
    assign_roi_labels,
    classify_box_validity,
    filter_detections_by_range,
    invalidate_anchors,
)
from .chips import (
    Chip,
    ProposalSet,
    UncoverableGt,
    sample_negative_chips,
    select_negative_chips,
    select_positive_chips,
)
from .focus_labels import (
    LabelMap,
    ProbabilityMap,
    build_focus_label_map,
    focus_pixel_stats,
    probability_map_from_labels,
)
from .focus_chips import (
    BinaryMap,
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
    "AnchorValidity",
    "BinaryMap",
    "BoundingBox",
    "Chip",
    "CostReport",
    "DatasetIndex",
    "DetectionBatch",
    "FocusParams",
    "GroundTruthInstance",
    "GroundTruthSet",
    "ImageSize",
    "LabelKind",
    "LabelMap",
    "MaxSideTarget",
    "MergePolicy",
    "PipelineConfig",
    "ProbabilityMap",
    "ProposalSet",
    "RoiLabel",
    "ScaleSpec",
    "UncoverableGt",
    "aggregate_cost_reports",
    "assign_roi_labels",
    "build_focus_label_map",
    "classify_box_validity",
    "coco_default",
    "connected_components",
    "dilate",
    "filter_detections_by_range",
    "focus_pixel_stats",
    "generate_focus_chips",
    "invalidate_anchors",
    "iou",
    "load_config",
    "load_dataset",
    "merge_detections",
    "pixels_processed",
    "probability_map_from_labels",
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
