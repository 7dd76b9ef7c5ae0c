import json
import math

import pytest

from pyrsample.config import (
    ConfigError,
    coco_default,
    config_from_dict,
    config_to_dict,
    load_config,
    validate_config,
)
from pyrsample.geometry import ImageSize, MaxSideTarget, ScaleSpec
from pyrsample.range_labels import classify_box_validity
from pyrsample.geometry import BoundingBox


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
        for side in (1, 10, 33, 80, 100, 121, 200, 1000, 5000):
            box = BoundingBox(0, 0, side, side)
            assert any(classify_box_validity(box, s) for s in cfg.pyramid), side

    def test_finest_scale_takes_small_areas(self):
        cfg = coco_default()
        finest = cfg.pyramid[-1]
        assert finest.resolve(ImageSize(100, 100)).width == 300
        assert classify_box_validity(BoundingBox(0, 0, 60, 60), finest)
        assert not classify_box_validity(BoundingBox(0, 0, 200, 200), finest)

    def test_coarsest_scale_takes_large_areas(self):
        coarsest = coco_default().pyramid[0]
        assert isinstance(coarsest.target, MaxSideTarget)
        assert classify_box_validity(BoundingBox(0, 0, 200, 200), coarsest)
        assert not classify_box_validity(BoundingBox(0, 0, 60, 60), coarsest)


class TestRoundTrip:
    def test_dict_round_trip(self):
        cfg = coco_default()
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert again.pyramid == cfg.pyramid
        assert again.merge == cfg.merge
        assert again.focus_params == cfg.focus_params
        assert again.min_neg_proposals == cfg.min_neg_proposals

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
