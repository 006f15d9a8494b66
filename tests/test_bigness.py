import json
import random
from fractions import Fraction as F

import pytest

from ansing.bigness import (
    BYTES_LIMIT,
    COUNT_LIMIT,
    DIGITS_LIMIT,
    ENTRIES_LIMIT,
    N_LIMIT,
    ConfigError,
    VERDICT_BIG,
    VERDICT_INCONCLUSIVE,
    config_from_dict,
    evaluate_criterion,
    load_config,
)
from ansing.invariants import h1_omega


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
        base = evaluate_criterion(("x", s2, sings))
        extra = sings + ((rng.randint(1, 8), 1),)
        bigger = evaluate_criterion(("x", s2, extra))
        assert bigger["total"] > base["total"]


def test_order_independence():
    sings = [{"n": 3, "count": 2}, {"n": 1, "count": 5}, {"n": 7, "count": 1}]
    a = evaluate_criterion(config_from_dict({"s2": "-2/3", "singularities": sings}))
    b = evaluate_criterion(
        config_from_dict({"s2": "-2/3", "singularities": sings[::-1]})
    )
    assert a["total"] == b["total"] and a["verdict"] == b["verdict"]


def test_one_basel_pass_matches_the_per_entry_rates():
    # repeated n, neighbours, n = 1 and the largest n first or last: the one
    # pass must hand each entry the partial sum at its own n
    rng = random.Random(97)
    configs = [
        ((5, 2), (5, 3), (4, 1), (6, 1)),
        ((1, 1), (1, 7)),
        ((60, 1), (1, 2), (59, 3), (60, 4), (2, 1)),
        ((2, 1), (3, 1), (4, 2), (3, 5)),
    ]
    for _ in range(20):
        centre = rng.randint(1, 80)
        configs.append(
            tuple((max(1, centre + rng.randint(-2, 2)), rng.randint(1, 9)) for _ in range(rng.randint(1, 8)))
        )
    for sings in configs:
        s2 = F(rng.randint(-50, 50), rng.randint(1, 7))
        expected = sum((count * h1_omega(n) for n, count in sings), F(0))
        result = evaluate_criterion(("x", s2, sings))
        assert result["localized"] == expected
        assert result["total"] == expected + s2 / 6


def test_chern_pair_input_and_consistency():
    cfg = config_from_dict({"c1sq": "9", "c2": "8", "singularities": []})
    assert cfg[1] == 1
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
    assert cfg[0] == "demo"
    assert evaluate_criterion(cfg)["total"] == F(34, 45)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def _with_entry(n=1, count=1, entries=1, s2="-1"):
    return {"s2": s2, "singularities": [{"n": n, "count": count}] * entries}


@pytest.mark.parametrize(
    "field, at_bound, past_bound",
    [
        ("n", _with_entry(n=N_LIMIT), _with_entry(n=N_LIMIT + 1)),
        ("count", _with_entry(count=COUNT_LIMIT), _with_entry(count=COUNT_LIMIT + 1)),
        ("entries", _with_entry(entries=ENTRIES_LIMIT), _with_entry(entries=ENTRIES_LIMIT + 1)),
        ("p digits", _with_entry(s2="-" + "9" * DIGITS_LIMIT), _with_entry(s2="-1" + "0" * DIGITS_LIMIT)),
        ("q digits", _with_entry(s2="1/" + "9" * DIGITS_LIMIT), _with_entry(s2="1/1" + "0" * DIGITS_LIMIT)),
        ("int", _with_entry(s2=10**DIGITS_LIMIT - 1), _with_entry(s2=10**DIGITS_LIMIT)),
        ("negative int", _with_entry(s2=1 - 10**DIGITS_LIMIT), _with_entry(s2=-(10**DIGITS_LIMIT))),
    ],
)
def test_bounds_admit_their_value_and_reject_the_next(field, at_bound, past_bound):
    config_from_dict(at_bound)
    with pytest.raises(ConfigError):
        config_from_dict(past_bound)


def test_c1sq_and_c2_have_the_digit_bound_too():
    ok = "9" * DIGITS_LIMIT + "/" + "7" * DIGITS_LIMIT
    assert config_from_dict({"c1sq": ok, "c2": ok})[1] == 0
    for key in ("c1sq", "c2"):
        with pytest.raises(ConfigError):
            config_from_dict({"c1sq": ok, "c2": ok, key: "1" * (DIGITS_LIMIT + 1)})


@pytest.mark.parametrize(
    "value",
    ["0.5", "1e3", "1e10000000000", "1_000", " 1/2", "1/2 ", "+-1", "1/-2", "١", "", "/", "1/", 1.5, None, [1]],
)
def test_only_integers_and_p_over_q_strings(value):
    with pytest.raises(ConfigError):
        config_from_dict({"s2": value})


def test_overlong_parts_are_config_errors():
    # past the int-to-str digit limit, so Fraction() would raise a bare ValueError
    for value in ("1" * 60000, "1/" + "1" * 60000, "+" + "1" * 60000 + "/0"):
        with pytest.raises(ConfigError, match="^expected an integer"):
            config_from_dict({"s2": value})


def test_signed_forms_are_rationals():
    assert config_from_dict({"s2": "+12/8"})[1] == F(3, 2)
    assert config_from_dict({"s2": "-0"})[1] == 0
    assert config_from_dict({"s2": -7})[1] == -7


@pytest.mark.parametrize("singularities", [5, "abc", {"n": 1, "count": 1}, None])
def test_singularities_must_be_a_list(singularities):
    with pytest.raises(ConfigError):
        config_from_dict({"s2": "1", "singularities": singularities})


@pytest.mark.parametrize(
    "text",
    [
        '{"s2": ' + "7" * 5000 + "}",  # past the int-to-str digit limit
        "[" * 10_000,  # past the recursion limit
    ],
)
def test_load_config_maps_json_value_errors(tmp_path, text):
    path = tmp_path / "surface.json"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "surface.json"
    path.write_bytes(b'\xff{"s2": "1"}')
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_reads_at_most_the_byte_bound(tmp_path):
    text = json.dumps({"s2": "-4/5", "singularities": [{"n": 1, "count": 6}]})
    path = tmp_path / "surface.json"
    path.write_text(text + " " * (BYTES_LIMIT - len(text)))
    assert load_config(path)[1] == F(-4, 5)
    path.write_text(text + " " * (BYTES_LIMIT + 1 - len(text)))
    with pytest.raises(ConfigError, match="larger than"):
        load_config(path)


def test_an_integer_past_the_digit_limit_is_a_config_error():
    with pytest.raises(ConfigError, match=r"got an integer of 16610 bits$"):
        config_from_dict({"s2": 10**5000})
