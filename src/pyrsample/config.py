"""Declarative pipeline configuration and the shipped default profile.

A config bundles the pyramid definition (scale targets, valid area ranges,
chip lattice), chip-sampling parameters, focus-map thresholds, and the
detection merge policy, so every command reads constants from one place.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import reduce
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

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


# The scalar fields of the JSON form: (section, key, attribute path of a
# PipelineConfig). Both directions read this table. Each field is decoded by
# the codec of its annotated type, and unknown keys are ignored.
FIELDS = (
    ("chips", "min_neg_proposals", "min_neg_proposals"),
    ("chips", "n_negative_per_image", "n_negative_per_image"),
    ("chips", "seed", "seed"),
    ("chips", "negative_membership", "negative_membership"),
    ("focus", "stride", "stride"),
    ("focus", "min_side", "focus_min_side"),
    ("focus", "max_side", "focus_max_side"),
    ("focus", "ignore_max_side", "focus_ignore_max_side"),
    *(("focus", f.name, f"focus_params.{f.name}") for f in fields(FocusParams)),
    *(("merge", f.name, f"merge.{f.name}") for f in fields(MergePolicy)),
    ("stacking", "boundary_eps", "boundary_eps"),
)
# The ScaleSpec fields that a pyramid entry holds under their own names.
_LEVEL_KEYS = ("scale_id", "chip_size", "chip_stride", "absorb_below", "absorb_above")


# The annotated type of each field, by attribute path or pyramid entry key.
_TYPES = {
    path: reduce(lambda owner, name: get_type_hints(owner)[name], path.split("."), PipelineConfig)
    for _, _, path in FIELDS
}
_TYPES.update((key, get_type_hints(ScaleSpec)[key]) for key in _LEVEL_KEYS)


def _decode(kind: type, value, where: str):
    """The codec of a field of scalar type ``kind``: what ``kind(value)`` accepts."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: cannot read {value!r} as {kind.__name__}") from exc


def _json(kind: type, value, where: str):
    if not isinstance(value, kind):
        name = "object" if kind is dict else "array"
        raise ConfigError(f"{where} must be a JSON {name}, got {value!r}")
    return value


def _target_from_dict(data, where: str) -> ScaleTarget:
    data = _json(dict, data, where)
    if "factor" in data:
        return _decode(float, data["factor"], f"{where}.factor")
    if "max_side" in data:
        return MaxSideTarget(_decode(int, data["max_side"], f"{where}.max_side"))
    if "width" in data and "height" in data:
        return ImageSize(*(_decode(int, data[k], f"{where}.{k}") for k in ("width", "height")))
    raise ConfigError(f"{where}: unrecognized scale target: {data!r}")


def _level_to_dict(spec: ScaleSpec) -> dict:
    r_min, r_max = spec.valid_range
    target = spec.target
    return {
        **{key: getattr(spec, key) for key in _LEVEL_KEYS},
        # ImageSize and MaxSideTarget write their fields; a factor is a float.
        "target": asdict(target) if is_dataclass(target) else {"factor": float(target)},
        "valid_range": [r_min, None if math.isinf(r_max) else r_max],
    }


def _level_from_dict(entry, where: str) -> ScaleSpec:
    entry = _json(dict, entry, where)
    given = {key: _decode(_TYPES[key], entry[key], f"{where}.{key}")
             for key in _LEVEL_KEYS if key in entry}
    bounds = _json(list, entry.get("valid_range", [0.0, None]), f"{where}.valid_range")
    given["valid_range"] = tuple(
        math.inf if v is None else _decode(float, v, f"{where}.valid_range") for v in bounds
    )
    try:
        return ScaleSpec(target=_target_from_dict(entry.get("target"), f"{where}.target"),
                         **given)
    except (TypeError, ValueError) as exc:  # a missing scale_id, or a value out of range
        raise ConfigError(f"{where}: {exc}") from exc


def config_to_dict(cfg: PipelineConfig) -> dict:
    data = {"profile": cfg.profile, "pyramid": [_level_to_dict(s) for s in cfg.pyramid]}
    for section, key, path in FIELDS:
        data.setdefault(section, {})[key] = attrgetter(path)(cfg)
    return data


def config_from_dict(data) -> PipelineConfig:
    """A config from its JSON form: the named profile, or an empty custom
    one, with each field that the form gives replaced."""
    data = _json(dict, data, "config")
    profile = _decode(str, data.get("profile", "custom"), "profile")
    if profile in PROFILES:
        cfg = PROFILES[profile]()
    else:
        cfg = PipelineConfig(pyramid=[], profile=profile)
    if "pyramid" in data:
        levels = _json(list, data["pyramid"], "pyramid")
        cfg.pyramid = [_level_from_dict(e, f"pyramid[{i}]") for i, e in enumerate(levels)]
    for section, key, path in FIELDS:
        values = _json(dict, data.get(section, {}), section)
        if key not in values:
            continue
        value = _decode(_TYPES[path], values[key], f"{section}.{key}")
        owner, _, name = path.rpartition(".")
        try:
            if owner:  # a frozen part, such as FocusParams, checks its fields
                setattr(cfg, owner, replace(getattr(cfg, owner), **{name: value}))
            else:
                setattr(cfg, name, value)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from exc
    return cfg


def load_config(path: str | Path | None) -> PipelineConfig:
    """Read a JSON config and apply the hard checks of
    :func:`validate_config`; None loads the default profile."""
    if path is None:
        return coco_default()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"malformed config JSON in {path}: {exc}") from exc
    cfg = config_from_dict(data)
    validate_config(cfg)
    return cfg


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
    try:
        areas = [spec.resolve(probe).area for spec in cfg.pyramid]
    except (ValueError, OverflowError) as exc:
        raise ConfigError(
            f"a pyramid level does not resolve on probe {probe.width}x{probe.height}: {exc}"
        ) from exc
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
    if not (math.isfinite(cfg.boundary_eps) and cfg.boundary_eps >= 0):
        raise ConfigError(
            f"stacking.boundary_eps must be finite and >= 0, got {cfg.boundary_eps}"
        )
    return warnings
