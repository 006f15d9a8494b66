import json
import random
from fractions import Fraction as F

import pytest

from ansing.bigness import (
    ConfigError,
    SurfaceConfig,
    VERDICT_BIG,
    VERDICT_INCONCLUSIVE,
    config_from_dict,
    evaluate_criterion,
    load_config,
)


def test_no_singularities_positive_chern():
    cfg = config_from_dict({"name": "smooth", "s2": "1", "singularities": []})
    result = evaluate_criterion(cfg)
    assert result["total"] == F(1, 6)
    assert result["verdict"] == VERDICT_BIG


def test_six_nodes_example():
    cfg = config_from_dict(
        {"name": "nodal", "s2": "-4/5", "singularities": [{"n": 1, "count": 6}]}
    )
    result = evaluate_criterion(cfg)
    assert result["localized"] == F(8, 9)
    assert result["total"] == F(34, 45)
    assert result["verdict"] == VERDICT_BIG


def test_overwhelming_negative_chern_is_inconclusive():
    cfg = config_from_dict(
        {"name": "neg", "s2": "-100", "singularities": [{"n": 2, "count": 1}]}
    )
    result = evaluate_criterion(cfg)
    assert result["total"] < 0
    assert result["verdict"] == VERDICT_INCONCLUSIVE


def test_monotone_in_singularities():
    rng = random.Random(31)
    for _ in range(50):
        sings = tuple(
            (rng.randint(1, 8), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))
        )
        s2 = F(rng.randint(-40, 10), rng.randint(1, 5))
        base = evaluate_criterion(SurfaceConfig("x", s2, sings))
        extra = sings + ((rng.randint(1, 8), 1),)
        bigger = evaluate_criterion(SurfaceConfig("x", s2, extra))
        assert bigger["total"] > base["total"]


def test_order_independence():
    sings = [{"n": 3, "count": 2}, {"n": 1, "count": 5}, {"n": 7, "count": 1}]
    a = evaluate_criterion(config_from_dict({"s2": "-2/3", "singularities": sings}))
    b = evaluate_criterion(
        config_from_dict({"s2": "-2/3", "singularities": sings[::-1]})
    )
    assert a["total"] == b["total"] and a["verdict"] == b["verdict"]


def test_chern_pair_input_and_consistency():
    cfg = config_from_dict({"c1sq": "9", "c2": "8", "singularities": []})
    assert cfg.s2 == 1
    with pytest.raises(ConfigError):
        config_from_dict({"s2": "2", "c1sq": "9", "c2": "8", "singularities": []})


def test_rejections():
    with pytest.raises(ConfigError):
        config_from_dict({"singularities": []})  # no Chern data
    with pytest.raises(ConfigError):
        config_from_dict({"s2": "1", "singularities": [{"type": "D", "n": 4, "count": 1}]})
    with pytest.raises(ConfigError):
        config_from_dict({"s2": "1", "singularities": [{"n": 0, "count": 1}]})
    with pytest.raises(ConfigError):
        config_from_dict({"s2": "1", "singularities": [{"n": 2, "count": 0}]})
    with pytest.raises(ConfigError):
        config_from_dict({"s2": True, "singularities": []})


def test_rejects_unparsable_rational():
    with pytest.raises(ConfigError):
        config_from_dict({"s2": "abc", "singularities": []})


def test_rejects_zero_denominator():
    with pytest.raises(ConfigError):
        config_from_dict({"s2": "1/0", "singularities": []})


def test_rejects_bool_singularity_index():
    with pytest.raises(ConfigError):
        config_from_dict({"s2": "1", "singularities": [{"n": True, "count": 1}]})


def test_rejects_bool_count():
    with pytest.raises(ConfigError):
        config_from_dict({"s2": "1", "singularities": [{"n": 1, "count": True}]})


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(
        json.dumps({"name": "demo", "s2": "-4/5", "singularities": [{"n": 1, "count": 6}]})
    )
    cfg = load_config(path)
    assert cfg.name == "demo"
    assert evaluate_criterion(cfg)["total"] == F(34, 45)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
