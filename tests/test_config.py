import json
import math
import re
from operator import attrgetter

import numpy as np
import pytest

from pyrsample.config import (
    FIELDS,
    ConfigError,
    PipelineConfig,
    coco_default,
    config_from_dict,
    config_to_dict,
    load_config,
    validate_config,
)
from pyrsample.focus_chips import FocusParams
from pyrsample.geometry import ImageSize, MaxSideTarget, ScaleSpec
from pyrsample.stacking import MergePolicy
from pyrsample.range_labels import valid_area_mask


def valid_sides(sides, spec):
    """Which square sides (boxes at the origin) are valid at ``spec``."""
    return valid_area_mask(np.array([[0.0, 0.0, side, side] for side in sides]), spec).tolist()


class TestCocoDefault:
    def test_validates_cleanly(self):
        cfg = coco_default()
        assert validate_config(cfg) == []

    def test_levels_increase_in_resolution(self):
        cfg = coco_default()
        probe = ImageSize(640, 480)
        areas = [s.resolve(probe).area for s in cfg.pyramid]
        assert areas == sorted(areas)

    def test_every_area_valid_somewhere(self):
        cfg = coco_default()
        sides = [1, 10, 33, 80, 100, 121, 200, 1000, 5000]
        valid = np.array([valid_sides(sides, s) for s in cfg.pyramid])
        assert valid.any(axis=0).all(), sides

    def test_finest_scale_takes_small_areas(self):
        cfg = coco_default()
        finest = cfg.pyramid[-1]
        assert finest.resolve(ImageSize(100, 100)).width == 300
        assert valid_sides([60, 200], finest) == [True, False]

    def test_coarsest_scale_takes_large_areas(self):
        coarsest = coco_default().pyramid[0]
        assert isinstance(coarsest.target, MaxSideTarget)
        assert valid_sides([200, 60], coarsest) == [True, False]


class TestRoundTrip:
    def test_dict_round_trip(self):
        # Every field differs from its default, and every kind of scale
        # target appears.
        cfg = PipelineConfig(
            pyramid=[
                ScaleSpec(scale_id=4, target=ImageSize(320, 240), valid_range=(10.0, 900.0),
                          chip_size=256, chip_stride=16, absorb_below=True),
                ScaleSpec(scale_id=7, target=2.5, valid_range=(400.0, 9e4),
                          chip_size=300, chip_stride=20),
                ScaleSpec(scale_id=9, target=MaxSideTarget(2000), valid_range=(1e3, math.inf),
                          chip_size=128, chip_stride=128, absorb_above=True),
            ],
            min_neg_proposals=3,
            n_negative_per_image=5,
            seed=11,
            negative_membership="enclose",
            stride=16,
            focus_min_side=4.0,
            focus_max_side=50.0,
            focus_ignore_max_side=70.0,
            focus_params=FocusParams(
                threshold=0.25, dilation=5, min_chip_size=96, strict_threshold=True
            ),
            merge=MergePolicy(mode="hard", iou_threshold=0.6, sigma=0.3, score_floor=0.01),
            boundary_eps=2.5,
            profile="my-profile",
        )
        default = PipelineConfig(pyramid=[])
        for _, _, path in FIELDS:
            assert attrgetter(path)(cfg) != attrgetter(path)(default), path
        assert cfg.profile != default.profile
        assert validate_config(cfg) == []
        for start in (cfg, coco_default()):
            again = config_from_dict(json.loads(json.dumps(config_to_dict(start))))
            assert again == start

    @pytest.mark.parametrize(
        "data, where",
        [
            ({"profile": "coco-default", "chips": {"seed": None}}, "chips.seed"),
            ({"profile": "coco-default", "focus": {"threshold": "high"}}, "focus.threshold"),
            ({"profile": "coco-default", "focus": {"threshold": 2.0}}, "focus.threshold"),
            ({"profile": "coco-default", "merge": []}, "merge"),
            ({"pyramid": [{"scale_id": 0, "target": {"max_side": "big"}}]},
             "pyramid[0].target.max_side"),
            ({"pyramid": [{"scale_id": 0, "target": {"factor": 1.0}, "valid_range": 5}]},
             "pyramid[0].valid_range"),
        ],
    )
    def test_bad_field_names_its_place(self, data, where):
        with pytest.raises(ConfigError, match=re.escape(where)):
            config_from_dict(data)

    @pytest.mark.parametrize("value", [-(2**63), 2**63 - 1])
    def test_integers_take_int64(self, value):
        assert config_from_dict({"chips": {"seed": value}}).seed == value

    @pytest.mark.parametrize("value", [-(2**63) - 1, 2**63, 1e30])
    def test_integers_past_int64_name_their_place(self, value):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"pyramid": [{"scale_id": 0, "target": {"max_side": value}}]})
        assert str(info.value) == (
            f"pyramid[0].target.max_side: must be in [{-(2**63)}, {2**63 - 1}]: {value!r}")

    def test_retired_stacking_key_still_loads(self, tmp_path):
        # prune_before_range_filter was removed: both filters are per-detection
        # predicates, so their order never changed an output. Unknown keys
        # are ignored, so an older config still loads.
        path = tmp_path / "old.json"
        path.write_text(json.dumps(
            {"profile": "coco-default",
             "stacking": {"boundary_eps": 2.0, "prune_before_range_filter": False}}
        ))
        cfg = load_config(path)
        assert cfg.boundary_eps == 2.0
        assert not hasattr(cfg, "prune_before_range_filter")
        assert "prune_before_range_filter" not in config_to_dict(cfg)["stacking"]

    def test_load_default_when_no_path(self):
        assert load_config(None).profile == "coco-default"

    def test_load_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "profile": "coco-default",
                    "chips": {"min_neg_proposals": 4},
                    "merge": {"mode": "hard"},
                }
            )
        )
        cfg = load_config(path)
        assert cfg.min_neg_proposals == 4
        assert cfg.merge.mode == "hard"
        assert len(cfg.pyramid) == 3

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{")
        with pytest.raises(ConfigError):
            load_config(path)


class TestValidateConfig:
    def _cfg_with_pyramid(self, pyramid):
        cfg = coco_default()
        cfg.pyramid = pyramid
        return cfg

    def test_wrong_resolution_order_rejected(self):
        cfg = self._cfg_with_pyramid(
            [
                ScaleSpec(scale_id=0, target=3.0),
                ScaleSpec(scale_id=1, target=1.0),
            ]
        )
        with pytest.raises(ConfigError, match="increasing resolution"):
            validate_config(cfg)

    def test_duplicate_scale_ids_rejected(self):
        cfg = self._cfg_with_pyramid(
            [
                ScaleSpec(scale_id=0, target=1.0),
                ScaleSpec(scale_id=0, target=2.0),
            ]
        )
        with pytest.raises(ConfigError, match="duplicate"):
            validate_config(cfg)

    def test_range_gap_warns(self):
        cfg = self._cfg_with_pyramid(
            [
                ScaleSpec(scale_id=0, target=1.0, valid_range=(0.0, 100.0)),
                ScaleSpec(scale_id=1, target=2.0, valid_range=(400.0, math.inf)),
            ]
        )
        warnings = validate_config(cfg)
        assert any("gap" in w for w in warnings)

    def test_missing_top_coverage_warns(self):
        cfg = self._cfg_with_pyramid(
            [ScaleSpec(scale_id=0, target=1.0, valid_range=(0.0, 100.0))]
        )
        warnings = validate_config(cfg)
        assert any("above" in w for w in warnings)

    def test_empty_pyramid_rejected(self):
        cfg = coco_default()
        cfg.pyramid = []
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_bad_focus_thresholds_rejected(self):
        cfg = coco_default()
        cfg.focus_min_side = 100.0
        with pytest.raises(ConfigError, match="thresholds"):
            validate_config(cfg)
