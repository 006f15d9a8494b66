"""Property test: the CLI contract holds for any argv.

Argument lists are built from the verbs, every verb's flags (so each verb
also meets flags it does not read), small or negative integers and junk
tokens.  Whatever the input, ``cli.run`` returns instead of raising, the
exit code is 0, 2 or 3, and every exit 2 prints nothing on stdout and one
JSON object with an "error" key on stderr.  Inputs stay small enough that
every accepted call is fast: n <= 12, m <= 20, oracle-verify m <= 8,
limits --n <= 500; --parallel goes up to 64, since a sweep starts no
process.  Files only ever go to a temporary directory.  Needs hypothesis
(the ``test`` extra); the module is skipped without it.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ansing import cli  # noqa: E402

VERBS = [
    "hsum", "hsum-sweep", "oracle-verify", "omega", "mu", "chi-orb", "h1",
    "divisor", "polygon", "fit", "integral-check", "bigness", "limits",
]
FLAGS = [
    "--n", "--m", "--m-from", "--m-to", "--degree", "--max-period", "--parallel",
    "--cache", "--config",
]
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


def _value(verb: str, flag: str):
    if flag in PATHS:
        return st.sampled_from(PATHS[flag])
    if flag == "--n":
        number = _ints(-3, 500 if verb == "limits" else 12)
    elif flag == "--m":
        number = _ints(-3, 8 if verb == "oracle-verify" else 20)
    elif flag == "--parallel":
        number = _ints(-2, 64)
    else:  # --m-from, --m-to, --degree, --max-period
        number = _ints(-3, 20 if flag.startswith("--m-") else 12)
    return number | st.sampled_from(JUNK)


@st.composite
def argvs(draw) -> list[str]:
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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argv=argvs())
def test_cli_contract_holds_for_any_argv(argv):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CONFIGS.items():
            (Path(tmp) / name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([token.replace("{tmp}", tmp) for token in argv])
    assert code in (0, 2, 3)
    if code == 0:
        assert out.getvalue() and err.getvalue() == ""
    if code == 2:
        assert out.getvalue() == ""
        error = json.loads(err.getvalue())
        assert isinstance(error, dict) and list(error) == ["error"]
