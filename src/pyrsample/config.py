"""Declarative pipeline configuration and the shipped default profile.

A config bundles the pyramid definition (scale targets, valid area ranges,
chip lattice), chip-sampling parameters, focus-map thresholds, and the
detection merge policy, so every command reads constants from one place.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .focus_chips import FocusParams
from .geometry import ImageSize, MaxSideTarget, ScaleSpec, ScaleTarget
from .stacking import MergePolicy


class ConfigError(Exception):
    pass


@dataclass
class PipelineConfig:
    pyramid: list[ScaleSpec]
    min_neg_proposals: int = 2
    n_negative_per_image: int = 2
    seed: int = 0
    negative_membership: str = "center"
    stride: int = 32
    focus_min_side: float = 5.0
    focus_max_side: float = 64.0
    focus_ignore_max_side: float = 90.0
    focus_params: FocusParams = field(default_factory=FocusParams)
    merge: MergePolicy = field(default_factory=MergePolicy)
    boundary_eps: float = 1.0
    profile: str = "custom"


def coco_default() -> PipelineConfig:
    """Three-level pyramid with 512-pixel chips at stride 32.

    The coarsest level caps the longer side at 512 and takes the large-area
    band; the finest level triples the resolution and takes the small-area
    band, so each object trains at the level where its resized size lands in
    a narrow window. The extreme levels absorb out-of-range areas on their
    open side so every box is valid somewhere.
    """
    return PipelineConfig(
        pyramid=[
            ScaleSpec(
                scale_id=0,
                target=MaxSideTarget(512),
                valid_range=(120.0**2, math.inf),
                chip_size=512,
                chip_stride=32,
                absorb_above=True,
            ),
            ScaleSpec(
                scale_id=1,
                target=1.667,
                valid_range=(32.0**2, 150.0**2),
                chip_size=512,
                chip_stride=32,
            ),
            ScaleSpec(
                scale_id=2,
                target=3.0,
                valid_range=(0.0, 80.0**2),
                chip_size=512,
                chip_stride=32,
                absorb_below=True,
            ),
        ],
        profile="coco-default",
    )


PROFILES = {"coco-default": coco_default}


def _target_to_dict(target: ScaleTarget) -> dict:
    if isinstance(target, ImageSize):
        return {"width": target.width, "height": target.height}
    if isinstance(target, MaxSideTarget):
        return {"max_side": target.max_side}
    return {"factor": float(target)}


def _target_from_dict(data: dict) -> ScaleTarget:
    if "factor" in data:
        return float(data["factor"])
    if "max_side" in data:
        return MaxSideTarget(int(data["max_side"]))
    if "width" in data and "height" in data:
        return ImageSize(int(data["width"]), int(data["height"]))
    raise ConfigError(f"unrecognized scale target: {data!r}")


def config_to_dict(cfg: PipelineConfig) -> dict:
    return {
        "profile": cfg.profile,
        "pyramid": [
            {
                "scale_id": s.scale_id,
                "target": _target_to_dict(s.target),
                "valid_range": [
                    s.valid_range[0],
                    None if math.isinf(s.valid_range[1]) else s.valid_range[1],
                ],
                "chip_size": s.chip_size,
                "chip_stride": s.chip_stride,
                "absorb_below": s.absorb_below,
                "absorb_above": s.absorb_above,
            }
            for s in cfg.pyramid
        ],
        "chips": {
            "min_neg_proposals": cfg.min_neg_proposals,
            "n_negative_per_image": cfg.n_negative_per_image,
            "seed": cfg.seed,
            "negative_membership": cfg.negative_membership,
        },
        "focus": {
            "stride": cfg.stride,
            "min_side": cfg.focus_min_side,
            "max_side": cfg.focus_max_side,
            "ignore_max_side": cfg.focus_ignore_max_side,
            "threshold": cfg.focus_params.threshold,
            "dilation": cfg.focus_params.dilation,
            "min_chip_size": cfg.focus_params.min_chip_size,
            "strict_threshold": cfg.focus_params.strict_threshold,
        },
        "merge": {
            "mode": cfg.merge.mode,
            "iou_threshold": cfg.merge.iou_threshold,
            "sigma": cfg.merge.sigma,
            "score_floor": cfg.merge.score_floor,
        },
        "stacking": {"boundary_eps": cfg.boundary_eps},
    }


def config_from_dict(data: dict) -> PipelineConfig:
    base_name = data.get("profile", "custom")
    if base_name in PROFILES:
        cfg = PROFILES[base_name]()
    else:
        cfg = PipelineConfig(pyramid=[], profile=base_name)
    if "pyramid" in data:
        specs = []
        for entry in data["pyramid"]:
            r_min, r_max = entry.get("valid_range", [0.0, None])
            specs.append(
                ScaleSpec(
                    scale_id=int(entry["scale_id"]),
                    target=_target_from_dict(entry["target"]),
                    valid_range=(
                        float(r_min),
                        math.inf if r_max is None else float(r_max),
                    ),
                    chip_size=int(entry.get("chip_size", 512)),
                    chip_stride=int(entry.get("chip_stride", 32)),
                    absorb_below=bool(entry.get("absorb_below", False)),
                    absorb_above=bool(entry.get("absorb_above", False)),
                )
            )
        cfg.pyramid = specs
    if not cfg.pyramid:
        raise ConfigError("config defines no pyramid levels")
    chip_cfg = data.get("chips", {})
    cfg.min_neg_proposals = int(chip_cfg.get("min_neg_proposals", cfg.min_neg_proposals))
    cfg.n_negative_per_image = int(
        chip_cfg.get("n_negative_per_image", cfg.n_negative_per_image)
    )
    cfg.seed = int(chip_cfg.get("seed", cfg.seed))
    cfg.negative_membership = str(
        chip_cfg.get("negative_membership", cfg.negative_membership)
    )
    focus_cfg = data.get("focus", {})
    cfg.stride = int(focus_cfg.get("stride", cfg.stride))
    cfg.focus_min_side = float(focus_cfg.get("min_side", cfg.focus_min_side))
    cfg.focus_max_side = float(focus_cfg.get("max_side", cfg.focus_max_side))
    cfg.focus_ignore_max_side = float(
        focus_cfg.get("ignore_max_side", cfg.focus_ignore_max_side)
    )
    cfg.focus_params = FocusParams(
        threshold=float(focus_cfg.get("threshold", cfg.focus_params.threshold)),
        dilation=int(focus_cfg.get("dilation", cfg.focus_params.dilation)),
        min_chip_size=int(focus_cfg.get("min_chip_size", cfg.focus_params.min_chip_size)),
        strict_threshold=bool(
            focus_cfg.get("strict_threshold", cfg.focus_params.strict_threshold)
        ),
    )
    merge = data.get("merge", {})
    cfg.merge = MergePolicy(
        mode=str(merge.get("mode", cfg.merge.mode)),
        iou_threshold=float(merge.get("iou_threshold", cfg.merge.iou_threshold)),
        sigma=float(merge.get("sigma", cfg.merge.sigma)),
        score_floor=float(merge.get("score_floor", cfg.merge.score_floor)),
    )
    stacking = data.get("stacking", {})
    cfg.boundary_eps = float(stacking.get("boundary_eps", cfg.boundary_eps))
    return cfg


def load_config(path: str | Path | None) -> PipelineConfig:
    """Read a JSON config; None loads the default profile."""
    if path is None:
        return coco_default()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config JSON in {path}: {exc}") from exc
    return config_from_dict(data)


def validate_config(
    cfg: PipelineConfig, probe: ImageSize = ImageSize(640, 480)
) -> list[str]:
    """Check config invariants; returns warnings, raises ConfigError on
    violations.

    Resolution ordering is evaluated on a probe image size since targets mix
    explicit sizes, factors, and max-side caps.
    """
    if not cfg.pyramid:
        raise ConfigError("pyramid has no levels")
    seen_ids = set()
    for spec in cfg.pyramid:
        if spec.scale_id in seen_ids:
            raise ConfigError(f"duplicate scale_id {spec.scale_id}")
        seen_ids.add(spec.scale_id)
    areas = [spec.resolve(probe).area for spec in cfg.pyramid]
    if any(b <= a for a, b in zip(areas, areas[1:])):
        raise ConfigError(
            f"pyramid levels must be ordered by increasing resolution "
            f"(probe {probe.width}x{probe.height} resolves to areas {areas})"
        )
    warnings = []
    intervals = sorted(spec.effective_range for spec in cfg.pyramid)
    if intervals[0][0] > 0.0:
        warnings.append(
            f"area gap below {intervals[0][0]:.0f}: the smallest boxes are valid nowhere"
        )
    reach = intervals[0][1]
    for r_min, r_max in intervals[1:]:
        if r_min > reach:
            warnings.append(f"area gap between {reach:.0f} and {r_min:.0f}")
        reach = max(reach, r_max)
    if not math.isinf(reach):
        warnings.append(f"area gap above {reach:.0f}: the largest boxes are valid nowhere")
    if cfg.stride < 1:
        raise ConfigError(f"stride must be >= 1, got {cfg.stride}")
    if not (cfg.focus_min_side < cfg.focus_max_side < cfg.focus_ignore_max_side):
        raise ConfigError(
            "focus thresholds must increase: "
            f"{cfg.focus_min_side}, {cfg.focus_max_side}, {cfg.focus_ignore_max_side}"
        )
    if cfg.min_neg_proposals < 1:
        raise ConfigError("min_neg_proposals must be >= 1")
    if cfg.n_negative_per_image < 0:
        raise ConfigError("n_negative_per_image must be >= 0")
    if cfg.negative_membership not in ("center", "enclose"):
        raise ConfigError(f"unknown negative_membership {cfg.negative_membership!r}")
    return warnings
