import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ansing import cli
from ansing.exactmath import parse_rational
from ansing.invariants import chi_orb, mu


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_raw(capsys, argv):
    code = cli.run(argv)
    return code, capsys.readouterr()


def test_omega_verb(capsys):
    code, payload = run_json(capsys, ["omega", "--n", "2", "--no-timestamp"])
    assert code == 0
    assert payload == {"n": 2, "h0_omega": "29/216", "h1_omega": "67/216"}


def test_hsum_verb(capsys):
    code, payload = run_json(capsys, ["hsum", "--n", "2", "--m", "6", "--no-timestamp"])
    assert code == 0
    assert payload == {"n": 2, "m": 6, "hsum": 44}


def test_oracle_verify_verb(capsys):
    code, payload = run_json(
        capsys, ["oracle-verify", "--n", "1", "--m", "2", "--no-timestamp"]
    )
    assert code == 0
    assert payload["formula"] == 3 and payload["oracle"] == 3 and payload["match"]


def test_oracle_verify_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli.latticesum, "hsum", lambda n, m: 999)
    code, payload = run_json(
        capsys, ["oracle-verify", "--n", "1", "--m", "2", "--no-timestamp"]
    )
    assert code == 3
    assert not payload["match"]


def test_mu_and_chi_orb_verbs(capsys):
    code, payload = run_json(capsys, ["mu", "--n", "2", "--m", "2", "--no-timestamp"])
    assert code == 0 and payload["mu"] == "0"
    code, payload = run_json(
        capsys, ["chi-orb", "--n", "1", "--m", "2", "--no-timestamp"]
    )
    assert code == 0 and payload["chi_orb"] == "-45/8"


def test_h1_verb_checks_integrality(capsys):
    code, payload = run_json(capsys, ["h1", "--n", "2", "--m", "2", "--no-timestamp"])
    assert code == 0
    assert payload["h1"] == "7" and payload["integral_and_nonnegative"]


def test_divisor_verb(capsys):
    code, payload = run_json(
        capsys, ["divisor", "--n", "3", "--m", "5", "--no-timestamp"]
    )
    assert code == 0
    assert payload["coefficients"] == [2, 3, 2]


def test_polygon_verb(capsys):
    code, payload = run_json(
        capsys, ["polygon", "--n", "2", "--m", "6", "--no-timestamp"]
    )
    assert code == 0
    assert payload["half_planes"] == [[-1, 0, 0], [0, -1, 0], [1, -1, 6], [-1, 3, 8]]
    assert [piece["label"] for piece in payload["pieces"]] == [0, 1, 2, 3]


def test_fit_verb(capsys):
    code, payload = run_json(
        capsys, ["fit", "--n", "2", "--m-to", "47", "--no-timestamp"]
    )
    assert code == 0
    assert payload["period"] == 6
    assert payload["branches"][1] == ["-143/216", "1/8", "29/72", "29/216"]


def test_fit_verb_no_period_exits_3(capsys):
    code, captured = run_raw(
        capsys,
        ["fit", "--n", "2", "--m-to", "47", "--max-period", "5", "--no-timestamp"],
    )
    assert code == 3
    assert "no period" in captured.err


# exact --no-timestamp output of the verbs built on divisor_D, polygon,
# pieces and fit, so a change in what they return shows byte for byte
PINNED_OUTPUT = [
    (("divisor", "--n", "3", "--m", "5"), 0, '{"n": 3, "m": 5, "coefficients": [2, 3, 2]}\n', ""),
    (("divisor", "--n", "1", "--m", "0"), 0, '{"n": 1, "m": 0, "coefficients": [0]}\n', ""),
    (("polygon", "--n", "2", "--m", "3"), 0, '{"n": 2, "m": 3, "half_planes": [[-1, 0, 0], [0, -1, 0], [1, -1, 3], [-1, 3, 5]], "pieces": [{"label": 0, "vertices": [["0", "1"], ["1", "2/3"], ["1", "0"], ["0", "0"]], "weight": {"x1": "1", "x2": "0", "m": "0", "const": "1"}}, {"label": 1, "vertices": [["1", "2/3"], ["5/3", "4/3"], ["3", "0"], ["1", "0"]], "weight": {"x1": "-1", "x2": "0", "m": "1", "const": "0"}}, {"label": 2, "vertices": [["5/3", "4/3"], ["7", "4"], ["3", "0"]], "weight": {"x1": "-1/2", "x2": "1/2", "m": "1/2", "const": "0"}}, {"label": 3, "vertices": [["0", "5/3"], ["7", "4"], ["5/3", "4/3"], ["1", "2/3"], ["0", "1"]], "weight": {"x1": "1/2", "x2": "-3/2", "m": "1/2", "const": "1"}}]}\n', ""),
    (("polygon", "--n", "2", "--m", "3", "--csv"), 0, 'label,vertices,weight_x1,weight_x2,weight_m,weight_const\n0,"[[""0"", ""1""], [""1"", ""2/3""], [""1"", ""0""], [""0"", ""0""]]",1,0,0,1\n1,"[[""1"", ""2/3""], [""5/3"", ""4/3""], [""3"", ""0""], [""1"", ""0""]]",-1,0,1,0\n2,"[[""5/3"", ""4/3""], [""7"", ""4""], [""3"", ""0""]]",-1/2,1/2,1/2,0\n3,"[[""0"", ""5/3""], [""7"", ""4""], [""5/3"", ""4/3""], [""1"", ""2/3""], [""0"", ""1""]]",1/2,-3/2,1/2,1\n', ""),
    (("fit", "--n", "1"), 0, '{"n": 1, "degree": 3, "max_period": 12, "m_to": 71, "period": 6, "branches": [["0", "1/6", "11/36", "11/108"], ["-35/108", "-1/12", "11/36", "11/108"], ["5/27", "7/18", "11/36", "11/108"], ["-1/4", "-1/12", "11/36", "11/108"], ["-2/27", "1/6", "11/36", "11/108"], ["-7/108", "5/36", "11/36", "11/108"]]}\n', ""),
    (("fit", "--n", "3"), 3, "", '{"error": "no period <= 12 fits the samples"}\n'),
    (("h1", "--n", "2", "--m", "2"), 0, '{"n": 2, "m": 2, "mu": "0", "chi_orb": "-10", "hsum": 3, "h1": "7", "integral_and_nonnegative": true}\n', ""),
    (("integral-check", "--n", "2", "--m", "6"), 0, '{"n": 2, "m": 6, "hsum": 44, "integral": "9695/216", "residual": "-191/216"}\n', ""),
    # the n = 1 polygon vanishes at m = 0
    (("integral-check", "--n", "1", "--m", "0"), 0, '{"n": 1, "m": 0, "hsum": 0, "integral": "0", "residual": "0"}\n', ""),
    (("hsum-sweep", "--n", "2", "--m-from", "0", "--m-to", "3"), 0, '{"n": 2, "rows": [{"m": 0, "hsum": 0, "mu": "2/9", "chi_orb": "2/9", "h1": "0"}, {"m": 1, "hsum": 0, "mu": "-2/9", "chi_orb": "-20/9", "h1": "2"}, {"m": 2, "hsum": 3, "mu": "0", "chi_orb": "-10", "h1": "7"}, {"m": 3, "hsum": 8, "mu": "2/9", "chi_orb": "-232/9", "h1": "18"}]}\n', ""),
    (("hsum-sweep", "--n", "2", "--m-from", "0", "--m-to", "3", "--csv"), 0, "m,hsum,mu,chi_orb,h1\n0,0,2/9,2/9,0\n1,0,-2/9,-20/9,2\n2,3,0,-10,7\n3,8,2/9,-232/9,18\n", ""),
]


@pytest.mark.parametrize(
    "argv, code, stdout, stderr", PINNED_OUTPUT, ids=[" ".join(a) for a, *_ in PINNED_OUTPUT]
)
def test_verbs_print_the_pinned_bytes(capsys, argv, code, stdout, stderr):
    assert cli.run([*argv, "--no-timestamp"]) == code
    assert capsys.readouterr() == (stdout, stderr)


def test_integral_check_verb(capsys):
    code, payload = run_json(
        capsys, ["integral-check", "--n", "2", "--m", "6", "--no-timestamp"]
    )
    assert code == 0
    assert payload["hsum"] == 44
    residual = parse_rational(payload["residual"])
    assert abs(residual) < 6  # O(m) deviation at m = 6


def test_bigness_verb(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"name": "demo", "s2": "-4/5", "singularities": [{"n": 1, "count": 6}]})
    )
    code, payload = run_json(
        capsys, ["bigness", "--config", str(cfg), "--no-timestamp"]
    )
    assert code == 0
    assert payload["total"] == "34/45"
    assert payload["verdict"] == "big (criterion satisfied)"


@pytest.mark.parametrize(
    "flags, stdout",
    [
        ((), '{"name": "demo", "localized": "2483/1350", "chern_term": "-1/15", "total": "2393/1350", "verdict": "big (criterion satisfied)"}\n'),
        (("--csv",), "name,localized,chern_term,total,verdict\ndemo,2483/1350,-1/15,2393/1350,big (criterion satisfied)\n"),
    ],
    ids=["json", "csv"],
)
def test_bigness_prints_the_pinned_bytes(capsys, tmp_path, flags, stdout):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "name": "demo",
                "c1sq": "9",
                "c2": "47/5",
                "singularities": [{"n": 1, "count": 6}, {"n": 3, "count": 2}],
            }
        )
    )
    assert cli.run(["bigness", "--config", str(cfg), "--no-timestamp", *flags]) == 0
    assert capsys.readouterr() == (stdout, "")


def test_bigness_unreadable_config_exits_2(capsys, tmp_path):
    code, captured = run_raw(
        capsys, ["bigness", "--config", str(tmp_path / "nope.json"), "--no-timestamp"]
    )
    assert code == 2
    assert "unreadable" in captured.err


def test_bigness_malformed_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    for data in (
        {"s2": "abc", "singularities": []},
        {"s2": "1/0", "singularities": []},
        {"s2": "1", "singularities": [{"n": True, "count": 1}]},
    ):
        cfg.write_text(json.dumps(data))
        code, captured = run_raw(capsys, ["bigness", "--config", str(cfg)])
        assert code == 2
        assert captured.out == ""
        assert "error" in json.loads(captured.err)


@pytest.mark.parametrize(
    "config",
    [
        {"s2": "1" * 60_000},
        {"s2": "1", "singularities": [{"type": "D" * 60_000, "n": 1, "count": 1}]},
    ],
    ids=["s2", "type"],
)
def test_config_errors_echo_a_bounded_prefix(capsys, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, captured = run_raw(capsys, ["bigness", "--config", str(cfg)])
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 1024
    assert "(60002 characters)" in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"s2": "1e5000", "singularities": []}),
        json.dumps({"s2": "-1", "singularities": [{"n": 5000, "count": 1}]}),
        '{"s2": ' + "9" * 5000 + ', "singularities": []}',
        json.dumps({"s2": "1", "singularities": 5}),
        "[" * 10_000,
        json.dumps({"s2": "1", "name": "x" * cli.bigness.BYTES_LIMIT}),
    ],
    ids=["exponent", "n-5000", "int-5000-digits", "singularities-int", "deep-nesting", "too-large"],
)
def test_bigness_config_past_a_bound_exits_2_with_one_json_error(capsys, tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, captured = run_raw(capsys, ["bigness", "--config", str(cfg)])
    assert code == 2
    assert captured.out == ""
    assert list(json.loads(captured.err)) == ["error"]


def test_largest_admitted_bigness_config_prints(capsys, tmp_path):
    # every bound at its value: the 16 largest n, each with the largest
    # count, and c1sq, c2 with p and q of DIGITS_LIMIT digits
    digits = cli.bigness.DIGITS_LIMIT
    n_top = cli.bigness.N_LIMIT
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "c1sq": "9" * digits + "/1" + "0" * (digits - 2) + "1",
                "c2": "-" + "9" * digits + "/1" + "0" * (digits - 2) + "3",
                "singularities": [
                    {"n": n, "count": cli.bigness.COUNT_LIMIT}
                    for n in range(n_top - cli.bigness.ENTRIES_LIMIT + 1, n_top + 1)
                ],
            }
        )
    )
    code, payload = run_json(capsys, ["bigness", "--config", str(cfg), "--no-timestamp"])
    assert code == 0
    assert payload["verdict"] == "big (criterion satisfied)"


def test_limits_verb(capsys):
    code, payload = run_json(capsys, ["limits", "--n", "30", "--no-timestamp"])
    assert code == 0
    assert payload["h0"]["strictly_increasing"]
    assert payload["h1"]["strictly_increasing"]


# sha256 prefixes of `limits --n N --no-timestamp` stdout, each computed in a
# fresh process; at and past n = 400 the h0 report reads the same exact cap
LIMITS_STDOUT_SHA256 = {
    100000: "04957c40286b0160",
    2: "a31685da076ca1fd",
    400: "d6163c2741d4e1bd",
    399: "49737f8a508b88a6",
    1427: "abd78959766df02c",
    401: "9efda68731b2f906",
}


def test_limits_stdout_is_pinned_whatever_ran_before(capsys):
    # one process, caps in mixed order: no report may read another's value
    for n, digest in LIMITS_STDOUT_SHA256.items():
        code, captured = run_raw(capsys, ["limits", "--n", str(n), "--no-timestamp"])
        assert code == 0
        assert hashlib.sha256(captured.out.encode()).hexdigest()[:16] == digest, n


def test_sweep_values(capsys):
    code, payload = run_json(
        capsys, ["hsum-sweep", "--n", "1", "--m-from", "0", "--m-to", "2", "--no-timestamp"]
    )
    assert code == 0
    r1 = mu(1, 1) - chi_orb(1, 1) - 0
    assert [row["h1"] for row in payload["rows"]] == ["0", str(r1), "3"]
    assert [row["m"] for row in payload["rows"]] == [0, 1, 2]


def test_sweep_empty_range(capsys):
    code, payload = run_json(
        capsys, ["hsum-sweep", "--n", "2", "--m-from", "3", "--m-to", "2", "--no-timestamp"]
    )
    assert code == 0
    assert payload["rows"] == []


def test_sweep_csv_has_header(capsys):
    code, captured = run_raw(
        capsys, ["hsum-sweep", "--n", "1", "--m-from", "0", "--m-to", "2", "--csv"]
    )
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "m,hsum,mu,chi_orb,h1"
    assert lines[1] == "0,0,1/8,1/8,0"
    assert len(lines) == 4
    # an empty range still prints the header
    code, captured = run_raw(
        capsys, ["hsum-sweep", "--n", "2", "--m-from", "3", "--m-to", "2", "--csv"]
    )
    assert code == 0
    assert captured.out == "m,hsum,mu,chi_orb,h1\n"


def test_single_record_csv(capsys):
    code, captured = run_raw(capsys, ["omega", "--n", "2", "--csv"])
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "n,h0_omega,h1_omega"
    assert lines[1] == "2,29/216,67/216"


def test_deterministic_output_without_timestamp(capsys):
    _, first = run_raw(capsys, ["omega", "--n", "3", "--no-timestamp"])
    _, second = run_raw(capsys, ["omega", "--n", "3", "--no-timestamp"])
    assert first.out == second.out


def test_timestamp_present_by_default(capsys):
    code, payload = run_json(capsys, ["hsum", "--n", "1", "--m", "2"])
    assert code == 0
    assert "timestamp" in payload


def test_round_trip_matches_fresh_computation(capsys):
    code, payload = run_json(capsys, ["h1", "--n", "3", "--m", "7", "--no-timestamp"])
    assert code == 0
    assert parse_rational(payload["mu"]) == mu(3, 7)
    assert parse_rational(payload["chi_orb"]) == chi_orb(3, 7)
    assert parse_rational(payload["h1"]) == mu(3, 7) - chi_orb(3, 7) - payload["hsum"]


def test_cache_reuse_and_corruption_recovery(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    args = [
        "hsum-sweep", "--n", "2", "--m-from", "0", "--m-to", "4",
        "--cache", str(cache), "--no-timestamp",
    ]
    code, first = run_json(capsys, args)
    assert code == 0
    assert cache.exists() and len(cache.read_text().strip().splitlines()) == 5

    # corrupt one cached row; the sweep must recompute it and still be right
    lines = cache.read_text().strip().splitlines()
    record = json.loads(lines[2])
    record["row"]["hsum"] = 10**6
    lines[2] = json.dumps(record)
    cache.write_text("\n".join(lines) + "\n")

    code, second = run_json(capsys, args)
    assert code == 0
    assert second["rows"] == first["rows"]


def test_csv_identical_with_warm_cache(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    args = ["hsum-sweep", "--n", "1", "--m-from", "0", "--m-to", "3", "--csv"]
    _, cold = run_raw(capsys, args + ["--cache", str(cache)])
    _, warm = run_raw(capsys, args + ["--cache", str(cache)])
    _, plain = run_raw(capsys, args)
    assert cold.out == warm.out == plain.out


def _old_writer_lines(n, m_to):
    """Each row's cache line as `json.dumps` of the whole record gives it."""
    lines = []
    for m in range(m_to + 1):
        row = cli._sweep_row(n, m)
        canonical = json.dumps({"n": n, "row": row}, sort_keys=True, separators=(",", ":"))
        checksum = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        record = {"n": n, "row": row, "checksum": checksum}
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    return lines


def _sweep_argv(n, m_to):
    return ["hsum-sweep", "--n", str(n), "--m-from", "0", "--m-to", str(m_to), "--no-timestamp"]


def _cached_sweep(capsys, cache, n, m_to):
    """stdout of a sweep over `cache` and the number of lines it appended."""
    before = len(cache.read_bytes().splitlines())
    code, captured = run_raw(capsys, _sweep_argv(n, m_to) + ["--cache", str(cache)])
    assert code == 0 and captured.err == ""
    return captured.out, len(cache.read_bytes().splitlines()) - before


def _cold_sweep(capsys, n, m_to):
    code, captured = run_raw(capsys, _sweep_argv(n, m_to))
    assert code == 0
    return captured.out


def test_cache_writer_keeps_record_layout(tmp_path):
    for n in (1, 3, 10):
        cache = tmp_path / f"rows-{n}.jsonl"
        cli._append_cache(cache, n, [cli._sweep_row(n, m) for m in range(6)])
        cli._append_cache(cache, n, [cli._sweep_row(n, 6)])
        assert cache.read_bytes() == b"".join(_old_writer_lines(n, 6))


def test_cache_from_old_writer_served_in_full(capsys, tmp_path):
    cache = tmp_path / "rows.jsonl"
    cache.write_bytes(b"".join(_old_writer_lines(12, 3) + _old_writer_lines(2, 7)))
    out, appended = _cached_sweep(capsys, cache, 2, 7)
    assert appended == 0
    assert out == _cold_sweep(capsys, 2, 7)


@pytest.mark.parametrize("stored, asked", [(10, 1), (1, 10)])
def test_cache_rows_of_another_n_never_served(capsys, tmp_path, stored, asked):
    cache = tmp_path / "rows.jsonl"
    cache.write_bytes(b"".join(_old_writer_lines(stored, 4)))
    out, appended = _cached_sweep(capsys, cache, asked, 4)
    assert appended == 5
    assert out == _cold_sweep(capsys, asked, 4)


def _flip_hex_digit(line):
    digit = line[20:21]
    return line[:20] + (b"0" if digit != b"0" else b"1") + line[21:]


def _flip_row_byte(line):
    at = line.index(b'"hsum":') + len(b'"hsum":')
    return line[:at] + str((int(line[at:at + 1]) + 1) % 10).encode() + line[at + 1:]


def _pretty_print(line):
    return json.dumps(json.loads(line), sort_keys=True).encode() + b"\n"


@pytest.mark.parametrize(
    "corrupt",
    [
        _flip_hex_digit,
        _flip_row_byte,
        lambda line: line[:-12] + b"\n",  # truncated
        _pretty_print,
        lambda line: b"\xff\xfe" + line[2:],  # not UTF-8
    ],
    ids=["hex-digit", "row-byte", "truncated", "pretty-printed", "non-utf8"],
)
def test_corrupt_cache_line_is_recomputed_once(capsys, tmp_path, corrupt):
    cache = tmp_path / "rows.jsonl"
    lines = _old_writer_lines(2, 4)
    lines[3] = corrupt(lines[3])
    cache.write_bytes(b"".join(lines))
    cold = _cold_sweep(capsys, 2, 4)
    assert _cached_sweep(capsys, cache, 2, 4) == (cold, 1)
    assert _cached_sweep(capsys, cache, 2, 4) == (cold, 0)


def test_torn_cache_tail_costs_one_recompute(capsys, tmp_path):
    cache = tmp_path / "rows.jsonl"
    cache.write_bytes(b"".join(_old_writer_lines(2, 4))[:-20])  # killed mid-line
    cold = _cold_sweep(capsys, 2, 4)
    assert _cached_sweep(capsys, cache, 2, 4) == (cold, 1)
    assert cache.read_bytes().endswith(b"\n" + _old_writer_lines(2, 4)[4])
    assert _cached_sweep(capsys, cache, 2, 4) == (cold, 0)


def test_cache_of_binary_bytes_is_recomputed(capsys, tmp_path):
    cache = tmp_path / "rows.jsonl"
    cache.write_bytes(bytes(range(256)) * 4)
    cold = _cold_sweep(capsys, 2, 3)
    assert _cached_sweep(capsys, cache, 2, 3) == (cold, 4)
    assert _cached_sweep(capsys, cache, 2, 3) == (cold, 0)


@pytest.mark.parametrize("where", ["missing-dir/rows.jsonl", "."], ids=["missing-dir", "directory"])
def test_unusable_cache_path_exits_2(capsys, tmp_path, where):
    argv = _sweep_argv(2, 3) + ["--cache", str(tmp_path / where)]
    code, captured = run_raw(capsys, argv)
    assert code == 2
    assert captured.out == ""
    assert "--cache" in json.loads(captured.err)["error"]


def test_parallel_sweep_matches_serial(capsys):
    serial_code, serial = run_json(
        capsys, ["hsum-sweep", "--n", "2", "--m-from", "0", "--m-to", "6", "--no-timestamp"]
    )
    parallel_code, parallel = run_json(
        capsys,
        [
            "hsum-sweep", "--n", "2", "--m-from", "0", "--m-to", "6",
            "--parallel", "3", "--no-timestamp",
        ],
    )
    assert serial_code == parallel_code == 0
    assert serial["rows"] == parallel["rows"]


@pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
@pytest.mark.parametrize("parallel", ["1", "2", "64"])
def test_parallel_leaves_sweep_output_unchanged(capsys, tmp_path, parallel, cache):
    serial = _cold_sweep(capsys, 2, 6)
    argv = _sweep_argv(2, 6) + ["--parallel", parallel]
    if cache:
        argv += ["--cache", str(tmp_path / "rows.jsonl")]
    for _ in range(2):  # with --cache: every row computed, then every row served
        code, captured = run_raw(capsys, argv)
        assert code == 0 and captured.err == ""
        assert captured.out == serial


SRC = Path(cli.__file__).resolve().parents[1]


def test_cli_imports_no_process_machinery():
    script = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
from ansing import cli
code = cli.run(["hsum-sweep", "--n", "2", "--m-from", "0", "--m-to", "6", "--parallel", "4"])
loaded = [name for name in sys.modules
          if name.partition(".")[0] == "multiprocessing" or name.startswith("concurrent.futures")]
print(code, loaded, file=sys.stderr)
"""
    result = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True)
    assert result.stderr == "0 []\n"


def test_cli_imports_no_argument_parser():
    script = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import ansing.cli
print([name for name in ("argparse", "gettext") if name in sys.modules], file=sys.stderr)
"""
    result = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True)
    assert result.stderr == "[]\n"


def _cli_process(argv, int_digits=None):
    env = {key: val for key, val in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(SRC)
    if int_digits is not None:
        env["PYTHONINTMAXSTRDIGITS"] = int_digits
    command = [sys.executable, "-m", "ansing.cli", *argv]
    return subprocess.run(command, env=env, capture_output=True, text=True)


def test_cli_pins_the_int_digit_limit_it_was_sized_for():
    argv = ["omega", "--n", str(cli.OMEGA_N_LIMIT), "--no-timestamp"]
    default, lowered = _cli_process(argv), _cli_process(argv, "640")
    assert default.returncode == lowered.returncode == 0
    assert lowered.stdout == default.stdout and lowered.stderr == ""
    # a raised limit is pinned back too: 4301 digits are no integer to the CLI
    huge = _cli_process(["hsum", "--n", "1", "--m", "1" * 4301], "0")
    assert huge.returncode == 2 and huge.stdout == ""
    assert "invalid int value" in json.loads(huge.stderr)["error"]


def test_run_pins_the_int_digit_limit_for_an_embedding_caller():
    # cli.run called from Python, not through main(): the limit holds for
    # the call and the caller's own limit is back afterwards
    argv = ["omega", "--n", str(cli.OMEGA_N_LIMIT), "--no-timestamp"]
    script = (
        "import sys; from ansing import cli; "
        f"code = cli.run({argv!r}); "
        "print(code, sys.get_int_max_str_digits(), file=sys.stderr)"
    )
    env = {key: val for key, val in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONINTMAXSTRDIGITS"] = "640"
    embedded = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert embedded.stderr.split() == ["0", "640"]
    assert embedded.stdout == _cli_process(argv).stdout


def test_invalid_inputs_exit_2(capsys):
    # a rule across flags, which the verb checks; each flag's own bounds are tested below
    code, _ = run_raw(capsys, ["hsum-sweep", "--n", "1", "--m-from", "5", "--m-to", "2"])
    assert code == 2


def test_unknown_verb_exits_2(capsys):
    assert cli.run(["frobnicate"]) == 2


def test_cached_parser_matches_fresh_parser(capsys):
    # the parser is built once per process; runs with different verbs and
    # flags must not leak state into each other
    assert cli.build_parser() is cli.build_parser()
    runs = [
        ["hsum", "--n", "2", "--m", "6", "--csv"],
        ["h1", "--n", "2", "--m", "2", "--no-timestamp"],
        ["hsum", "--n", "abc"],
        ["fit", "--n", "2", "--max-period", "6", "--no-timestamp"],
        ["mu", "--n", "5", "--m", "12", "--no-timestamp"],
    ]
    cached = [run_raw(capsys, argv) for argv in runs]
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(run_raw(capsys, argv))
    for (code_a, out_a), (code_b, out_b) in zip(cached, fresh):
        assert code_a == code_b
        assert out_a.out == out_b.out and out_a.err == out_b.err
    assert [code for code, _ in cached] == [0, 0, 2, 0, 0]


def _assert_json_usage_error(capsys, argv):
    code, captured = run_raw(capsys, argv)
    assert code == 2
    assert captured.out == ""
    error = json.loads(captured.err)
    assert list(error) == ["error"] and error["error"]
    return error["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["hsum", "--n", "abc", "--m", "3"],
        ["frobnicate"],
        [],
        ["hsum", "--n", "2", "--m", "3", "--bogus", "1"],
        ["--he"],
        ["--h"],
        ["hsum", "--n=--", "--m", "3"],
        ["bigness", "--config=--"],
    ],
    ids=[
        "bad-int", "unknown-verb", "no-verb", "unknown-flag", "abbreviated-help",
        "abbreviated-help-h", "int-equals-double-dash", "path-equals-double-dash",
    ],
)
def test_usage_errors_exit_2_with_json_error(capsys, argv):
    _assert_json_usage_error(capsys, argv)


@pytest.mark.parametrize(
    "argv, foreign",
    [
        (["omega", "--n", "3", "--m", "5"], "--m"),
        (["divisor", "--n", "2", "--m", "3", "--parallel", "7", "--degree", "9"], "--parallel"),
        (["limits", "--n", "30", "--cache", "rows.jsonl"], "--cache"),
        (["fit", "--n", "2", "--m", "5"], "--m"),
        (["bigness", "--n", "2"], "--n"),
        (["hsum-sweep", "--n", "2", "--m", "3"], "--m"),
    ],
    ids=["omega-m", "divisor-pool-degree", "limits-cache", "fit-m", "bigness-n", "sweep-m"],
)
def test_verbs_reject_flags_they_do_not_read(capsys, argv, foreign):
    assert foreign in _assert_json_usage_error(capsys, argv)


def test_every_verb_takes_the_output_flags_after_its_own(capsys):
    for verb, (_, flags) in cli._VERBS.items():
        own = [token for flag in flags for token in (flag, "1")]
        args = cli.build_parser().parse_args([verb, *own, "--csv", "--json", "--no-timestamp"])
        assert args.csv and args.json and args.no_timestamp


HSUM_USAGE = "ansing hsum [--n N] [--m M] [--csv] [--json] [--no-timestamp]"


def test_help_still_prints_usage_and_exits_0(capsys):
    code, captured = run_raw(capsys, ["hsum", "--help"])
    assert code == 0
    assert captured.out == f"usage: {HSUM_USAGE}\n"
    assert captured.err == ""
    # before a verb: one usage line per verb
    code, captured = run_raw(capsys, ["--help"])
    assert code == 0 and captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == f"usage: {HSUM_USAGE}"
    assert [line.split("ansing ")[1].split()[0] for line in lines] == list(cli._VERBS)


def _argv_at(verb, values):
    """`verb` with each bounded flag at its value in `values`, or left out if
    that is None, and every other bounded flag at its least."""
    argv = [verb]
    for flag, bounds in cli._VERBS[verb][1].items():
        value = values.get(flag, bounds and bounds[0])
        if value is not None:
            argv += [flag, str(value)]
    return argv


def _id(verb, flags, end=""):
    """A case's id: the verb (hsum-sweep as sweep), its flags (--max-period as
    period) and the end of the bounds, if it is not the greatest."""
    names = [{"--max-period": "period"}.get(flag, flag[2:]) for flag in flags]
    return "-".join([{"hsum-sweep": "sweep"}.get(verb, verb), *names]) + (end and f"-{end}")


# each (verb, flag, least, greatest) of the verb table
BOUNDS = [
    (verb, flag, *bounds)
    for verb, (_, flags) in cli._VERBS.items()
    for flag, bounds in flags.items()
    if bounds is not None
]
# each verb's flags with a greatest value, at it
TOPS = {verb: {flag: top for v, flag, _, top in BOUNDS if v == verb and top is not None} for verb in cli._VERBS}
FIT_M_TO = ["fit", "--n", "2", "--m-to"]  # derived by default, so held by the verb

AT_BOUND = [
    *(pytest.param(_argv_at(v, {flag: least}), id=_id(v, [flag], "least")) for v, flag, least, _ in BOUNDS),
    *(pytest.param(_argv_at(v, {flag: top}), id=_id(v, [flag])) for v, flag, _, top in BOUNDS if top is not None),
    *(  # every flag with a greatest at it at once, where a verb has more than one
        pytest.param(_argv_at(v, tops), id=_id(v, tops)) for v, tops in TOPS.items() if len(tops) > 1
    ),
    pytest.param(FIT_M_TO + [str(cli.M_TO_LIMIT)], id="fit-m-to"),
    # and the default --m-to they imply, (degree + 3) * max_period - 1
    pytest.param(
        ["fit", "--n", "2", "--degree", str(cli.DEGREE_LIMIT), "--max-period", str(cli.MAX_PERIOD_LIMIT)],
        id="fit-degree-and-period",
    ),
]

BEYOND = [
    *(
        pytest.param(_argv_at(v, {flag: least - 1}), f"{flag} must be an integer >= {least}", id=_id(v, [flag], "least"))
        for v, flag, least, _ in BOUNDS
    ),
    *(  # no value counts as one below the least
        pytest.param(_argv_at(v, {flag: None}), f"{flag} must be an integer >= {least}", id=_id(v, [flag], "missing"))
        for v, flag, least, _ in BOUNDS
        if cli._FLAGS[flag][1] is None
    ),
    *(
        pytest.param(_argv_at(v, {flag: top + 1}), f"{flag} must be <= {top}", id=_id(v, [flag]))
        for v, flag, _, top in BOUNDS
        if top is not None
    ),
    pytest.param(FIT_M_TO + [str(cli.M_TO_LIMIT + 1)], f"--m-to must be <= {cli.M_TO_LIMIT}", id="fit-m-to"),
    pytest.param(FIT_M_TO + ["-1"], "--m-to must be >= 0", id="fit-m-to-least"),
]


@pytest.mark.parametrize("argv", AT_BOUND)
def test_arguments_at_their_bound_are_accepted(capsys, free_kernels, argv):
    code, captured = run_raw(capsys, argv + ["--no-timestamp"])
    assert code == 0 and captured.err == ""


@pytest.mark.parametrize("argv, bound", BEYOND)
def test_arguments_beyond_their_bound_exit_2(capsys, argv, bound):
    assert _assert_json_usage_error(capsys, argv) == bound
