"""Property test: the CLI contract holds for any argv.

Argument lists are built from the verbs and flags of the CLI's tables
(``cli._VERBS``, ``cli._FLAGS``).  Nine in ten name a verb with its own
flags at small or negative integers, so that most reach the handler and its
real kernels; the others draw any verb and any flag, so each verb also meets
flags it does not read, with junk tokens among the values.  Whatever the
input, ``cli.run`` returns instead of raising, the exit code is 0, 2 or 3,
every exit 0 prints one JSON object, or CSV with a header row under --csv,
and every exit 2 prints nothing on stdout and one JSON object with an
"error" key on stderr.  Inputs stay small enough that every accepted call
is fast: n <= 12, m <= 20, oracle-verify m <= 8, limits --n <= 500;
--parallel goes up to 64, since a sweep starts no process.  The same
property is drawn again for a verb with its own flags, each bounded one
often at the least or greatest value the verb table gives it or one to
either side, with the costly kernels stubbed (``free_kernels``).  A second
property draws the bigness config file itself: the
rationals in every accepted and rejected form, n and count at and past
their bounds, and entry lists around their bound.  Files only ever go to a
temporary directory.  A third property holds the CLI's parser to the
argparse parser it replaced (``argparse_oracle``): for every argv drawn, and
for a fixed corpus of argparse's corner cases, both accept it with equal
values, both reject it, or both print the usage.  Needs hypothesis (the
``test`` extra); the module is skipped without it.
"""

import contextlib
import csv
import functools
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from ansing import asymptotics, bigness, cli  # noqa: E402
from argparse_oracle import build_parser as reference_parser  # noqa: E402

VERBS = list(cli._VERBS)
FLAGS = list(cli._FLAGS)
JUNK = ["abc", "", "-", "--", "--bogus", "-x", "1.5", "0x10", "--n=abc", "é", "{}", "3 4"]
SWITCHES = ["--csv", "--json", "--no-timestamp"]
CONFIGS = {
    "valid.json": json.dumps({"s2": "-4/5", "singularities": [{"n": 1, "count": 6}]}),
    "bad.json": json.dumps({"s2": "abc", "singularities": []}),
}
PATHS = {
    "--cache": ["{tmp}/rows.jsonl", "{tmp}/missing/rows.jsonl", "{tmp}"],
    "--config": ["{tmp}/valid.json", "{tmp}/bad.json", "{tmp}/missing.json", "{tmp}"],
}


def _ints(low: int, high: int):
    return st.integers(low, high).map(str)


def _mostly(admitted, rejected):
    """Draws from `admitted` nine times in ten, so that most draws are admitted."""
    return st.integers(0, 9).flatmap(lambda k: rejected if k == 0 else admitted)


def _small(verb: str, flag: str):
    """A path for `flag`, or a small integer: every accepted call is fast."""
    if flag in PATHS:
        return st.sampled_from(PATHS[flag])
    if flag == "--n":
        return _ints(-3, 500 if verb == "limits" else 12)
    if flag == "--m":
        return _ints(-3, 8 if verb == "oracle-verify" else 20)
    if flag == "--parallel":
        return _ints(-2, 64)
    # --m-from, --m-to, --degree, --max-period
    return _ints(-3, 20 if flag.startswith("--m-") else 12)


def _value(verb: str, flag: str):
    value = _small(verb, flag)
    return value if flag in PATHS else value | st.sampled_from(JUNK)


@st.composite
def any_argvs(draw) -> list[str]:
    verb = draw(st.sampled_from([*VERBS, "frobnicate"]) | st.none())
    tokens = [] if verb is None else [verb]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["flag", "flag", "flag", "switch", "junk"]))
        if kind == "flag":
            flag = draw(st.sampled_from(FLAGS))
            tokens += [flag, draw(_value(verb or "", flag))]
        else:
            tokens.append(draw(st.sampled_from(SWITCHES if kind == "switch" else JUNK)))
    return tokens


@st.composite
def own_argvs(draw) -> list[str]:
    """A verb with most of its own flags, in any order, at small values, and
    some switches: most of these reach the verb's handler."""
    verb = draw(st.sampled_from(VERBS))
    tokens = [verb]
    for flag in draw(st.permutations(list(cli._VERBS[verb][1]))):
        if draw(st.integers(0, 9)):  # nine times in ten
            tokens += [flag, draw(_small(verb, flag))]
    return tokens + draw(st.lists(st.sampled_from(SWITCHES), max_size=2))


def argvs():
    return _mostly(own_argvs(), any_argvs())


@st.composite
def bound_argvs(draw) -> list[str]:
    """A verb with most of its own flags, in any order, each bounded one
    mostly at an end of its bounds in the verb table or next to it."""
    verb = draw(st.sampled_from(VERBS))
    tokens = [verb]
    for flag, bounds in draw(st.permutations(list(cli._VERBS[verb][1].items()))):
        value = _value(verb, flag)
        if bounds is not None:
            ends = [end + step for end in bounds if end is not None for step in (-1, 0, 1)]
            value = _mostly(st.sampled_from(ends).map(str), value)
        if draw(st.integers(0, 9)):  # nine times in ten
            tokens += [flag, draw(value)]
    return tokens


def _assert_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CONFIGS.items():
            (Path(tmp) / name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([token.replace("{tmp}", tmp) for token in argv])
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
        if "--csv" in argv:
            assert next(csv.reader(io.StringIO(out.getvalue())))  # a header row
        else:
            assert isinstance(json.loads(out.getvalue()), dict)
    if code == 2:
        assert out.getvalue() == ""
        error = json.loads(err.getvalue())
        assert isinstance(error, dict) and list(error) == ["error"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argv=argvs())
def test_cli_contract_holds_for_any_argv(argv):
    _assert_contract(argv)


@settings(  # the stubs are constants, so one fixture serves every example
    derandomize=True, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=bound_argvs())
def test_cli_contract_holds_near_every_bound(free_kernels, argv):
    _assert_contract(argv)


@contextlib.contextmanager
def _digit_limit(digits: int):
    """The int-to-str limit `cli.run` pins, around a bare parse_args call."""
    if not hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _parse_outcome(parser, argv):
    """("accept", the namespace's values), ("reject",) or ("help",)."""
    with _digit_limit(4300), contextlib.redirect_stdout(io.StringIO()):
        try:
            return "accept", vars(parser.parse_args(list(argv)))
        except SystemExit:
            return ("help",)
        except cli.CliInputError:
            return ("reject",)


# argparse's corners, each a place where a one-pass reader could go wrong
PARSER_CORPUS = [
    ["hsum", "--n=2", "--m", "3"],
    ["hsum", "--n=", "--m", "3"],
    ["hsum", "--n=-1"],
    ["hsum-sweep", "--cache="],
    ["hsum", "--n", "-"],
    ["hsum", "-"],
    ["-", "hsum"],
    ["hsum", "--n", "-1"],
    ["hsum", "--n", "-.5"],
    ["hsum", "--n", "-1 2"],
    ["hsum", "--n", "-0x1"],
    ["hsum", "--n", "-1\n"],  # a negative number by argparse's `$`
    ["hsum", "-hx"],
    ["hsum", "-h x"],
    ["hsum-sweep", "--cache", "-h x"],
    ["hsum-sweep", "--cache", "--n=a b"],  # a flag of the verb, so no value
    ["hsum-sweep", "--cache", "--m=a b"],  # not a flag of the verb: a value
    ["hsum-sweep", "--cache", "--foo bar"],
    ["--"],
    ["hsum", "--"],
    ["hsum", "--n", "2", "--"],
    ["hsum", "--", "--help"],
    ["--", "hsum", "--n", "2"],
    ["hsum", "--csv=1"],
    ["hsum", "--csv="],
    ["--help=x"],
    ["hsum", "--n", "2", "--m", "3", "--n", "5", "--m", "4"],
    ["hsum-sweep", "--n", "2", "--cache", "-"],
    ["hsum-sweep", "--n", "2", "--cache", "--csv"],
    ["hsum", "--n", "2", "--m", "1" * 4301],
    ["--help", "hsum", "--n", "2"],
    ["-h"],
    ["hsum", "--n", "2", "--help", "--m", "x"],
    ["hsum", "--n", "x", "--help"],
    ["hsum", "--n", "2", "--m", "3", "--help"],
    ["hsum", "--bogus", "--help"],
    ["hsum", "stray", "-h"],
    ["--csv", "--help"],
    ["--bogus", "hsum", "--help"],
    ["--bogus", "hsum", "--n", "2"],
    ["stray", "--help"],
    ["--he"],
    ["--h"],
    ["hsum", "--he"],
    ["-1", "hsum"],
    [],
]


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=[repr(argv)[:48] for argv in PARSER_CORPUS])
def test_parser_agrees_with_argparse_on_its_corners(argv):
    assert _parse_outcome(cli.build_parser(), argv) == _parse_outcome(reference_parser(), argv)


def test_bundled_help_is_a_usage_error():
    # argparse read -hh and -h=h as -h given twice and printed the usage; the
    # parser takes -h alone, like every other flag
    for argv in (["hsum", "-hh"], ["hsum", "-h=h"]):
        assert _parse_outcome(reference_parser(), argv) == ("help",)
        assert _parse_outcome(cli.build_parser(), argv) == ("reject",)


def test_double_dash_after_equals_is_the_value():
    # argparse dropped the "--" of --n=-- and set n to [], which the verbs'
    # checks met with a traceback; the parser reads "--" as the value
    assert _parse_outcome(reference_parser(), ["hsum", "--n=--"])[1]["n"] == []
    assert _parse_outcome(cli.build_parser(), ["hsum", "--n=--"]) == ("reject",)
    assert _parse_outcome(cli.build_parser(), ["bigness", "--config=--"])[1]["config"] == "--"


# tokens argvs() never draws: --help anywhere in an argv, and the = forms
PARSER_TOKENS = [
    "-h", "--help", "--he", "-hx", "-h x", "--help=", "--n=2", "--m=", "--n=-1",
    "--cache=", "--config=a b", "--csv=1", "-1", "-.5", "-1 2", "-0x1", "--n=a b", "--x y",
]


@st.composite
def own_flag_argvs(draw) -> list[str]:
    """A verb with its own flags and the switches only, as `--flag value` or
    `--flag=value`, so that most of these parse.  They are only parsed, so
    a path may be junk or a flag too."""
    verb = draw(st.sampled_from(VERBS))
    tokens = [verb]
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(list(cli._VERBS[verb][1])) | st.sampled_from(SWITCHES))
        if flag in SWITCHES:
            tokens.append(flag)
            continue
        value = draw(_value(verb, flag) | st.sampled_from(JUNK + SWITCHES + FLAGS))
        tokens += [flag, value] if draw(st.booleans()) else [f"{flag}={value}"]
    return tokens


@st.composite
def parser_argvs(draw) -> list[str]:
    argv = draw(any_argvs() | own_flag_argvs())
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(PARSER_TOKENS)))
    # --flag=-- parts from argparse on purpose (the test above)
    hypothesis.assume(all(token.partition("=")[2] != "--" for token in argv))
    return argv


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argv=parser_argvs())
def test_parser_agrees_with_argparse_on_any_argv(argv):
    assert _parse_outcome(cli.build_parser(), argv) == _parse_outcome(reference_parser(), argv)


def _json(values):
    return st.sampled_from(values).map(json.dumps)


DIGITS = bigness.DIGITS_LIMIT
# each a JSON text: ints, p/q, decimal, exponent and over-long forms
RATIONALS = _mostly(
    st.integers(-99, 99).map(str)
    | st.builds("\"{}/{}\"".format, st.integers(-60, 60), st.integers(1, 9))
    | _json([10**DIGITS - 1, 1 - 10**DIGITS, "9" * DIGITS, "-1/" + "9" * DIGITS]),
    _json([10**DIGITS, -(10**DIGITS), "1" * (DIGITS + 1), "1/" + "7" * (DIGITS + 1), "1/0"])
    | _json(["0.5", "-1.25", "1e3", "1e5000", "2E-7", "1e10000000000", "abc", "", " 3", True, None, 1.5])
    | st.just("9" * 5000),  # an integer past the int-to-str digit limit
)
INDICES = _mostly(
    st.integers(1, 12).map(str) | _json([bigness.N_LIMIT]),
    _json([0, -1, bigness.N_LIMIT + 1, 5000, True, False, "3", 2.0, None]),
)
COUNTS = _mostly(
    st.integers(1, 20).map(str) | _json([bigness.COUNT_LIMIT]),
    _json([0, -5, bigness.COUNT_LIMIT + 1, True, "2", 1.0]),
)
CHERN_KEYS = _mostly(
    st.sampled_from([("s2",), ("c1sq", "c2")]),
    st.sampled_from([("s2", "c1sq", "c2"), ("c1sq",), ()]),
)
SIZES = _mostly(
    st.integers(0, 3) | st.just(bigness.ENTRIES_LIMIT),
    st.just(bigness.ENTRIES_LIMIT + 1),
)


@st.composite
def config_texts(draw) -> str:
    fields = [f'"{key}": {draw(RATIONALS)}' for key in draw(CHERN_KEYS)]
    entries = [f'{{"n": {draw(INDICES)}, "count": {draw(COUNTS)}}}' for _ in range(draw(SIZES))]
    fields.append(f'"singularities": [{", ".join(entries)}]')
    return "{" + ", ".join(fields) + "}"


# the real Basel partial sums, computed once per bound: admitted n at the
# bound stay cheap.  The original function is captured here, before the test
# patches its name, or the prefix would call the patch itself.
_basel_sums = asymptotics._basel_sums
_basel_prefix = functools.cache(lambda n_max: tuple(_basel_sums(n_max)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(text=config_texts())
def test_cli_contract_holds_for_any_bigness_config(text):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        asymptotics, "_basel_sums", lambda n_max: iter(_basel_prefix(n_max))
    ):
        path = Path(tmp) / "surface.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["bigness", "--config", str(path), "--no-timestamp"])
    assert code in (0, 2)
    if code == 0:
        assert json.loads(out.getvalue())["verdict"] and err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert list(json.loads(err.getvalue())) == ["error"]
