"""Property tests: the sweep cache's reader serves what the line-by-line
loader served, and its writer writes what ``json.dumps`` wrote.

``cli._load_cache`` splits the file on the sweep's key and checks only the
rows of wanted m; ``cache_oracle.load_cache_by_lines`` is the loader it
replaced.  Caches are written by ``cli._append_cache`` for several n (1, 10
and 11 share a key prefix), with repeated m, and then corrupted: bytes
flipped, deleted or inserted (spaces, stray ``\\r``, zeros), the file cut
short, lines joined, every line ended in CRLF, and leading zeros put into an
int and signed again.  On every such file both loaders serve the same rows.
Needs hypothesis (the ``test`` extra); the module is skipped without it.
"""

import hashlib
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402

from ansing import cli  # noqa: E402
from ansing.exactmath import format_rational  # noqa: E402
from cache_oracle import load_cache_by_lines  # noqa: E402

NS = (1, 2, 10, 11)
M_TOP = 12

rationals = st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**4)).map(format_rational)
rows = st.builds(
    lambda m, hsum, mu, chi_orb, h1: {"m": m, "hsum": hsum, "mu": mu, "chi_orb": chi_orb, "h1": h1},
    st.integers(0, M_TOP),
    st.integers(0, 10**12),
    rationals,
    rationals,
    rationals,
)
batches = st.lists(st.tuples(st.sampled_from(NS), st.lists(rows, min_size=1, max_size=4)), min_size=1, max_size=8)
edits = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(min_value=0), st.integers(0, 255)),
        st.tuples(st.just("delete"), st.integers(min_value=0)),
        st.tuples(st.just("insert"), st.integers(min_value=0), st.sampled_from([b" ", b"\r", b"\n", b"0", b"\r\n"])),
        st.tuples(st.just("truncate"), st.integers(min_value=0)),
        st.tuples(st.just("join"), st.integers(min_value=0)),
        st.tuples(st.just("crlf")),
        st.tuples(st.just("zero-signed"), st.integers(min_value=0), st.sampled_from([b'"m":', b'"hsum":'])),
    ),
    max_size=4,
)


def _signed(line: bytes) -> bytes:
    """The line with its checksum computed again over its own text."""
    canonical = b"{" + line[79:]
    return b'{"checksum":"%s",%s' % (hashlib.sha256(canonical).hexdigest().encode(), line[79:])


def _edit(data: bytes, edit) -> bytes:
    kind, *args = edit
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if not data:
        return data
    at = args[0] % len(data)
    if kind == "flip":
        return data[:at] + bytes([args[1]]) + data[at + 1 :]
    if kind == "delete":
        return data[:at] + data[at + 1 :]
    if kind == "insert":
        return data[:at] + args[1] + data[at:]
    if kind == "truncate":
        return data[:at]
    lines = data.split(b"\n")
    if kind == "join":  # drop one line break
        at = args[0] % len(lines)
        return b"\n".join(lines[:at] + [b"".join(lines[at : at + 2])] + lines[at + 2 :])
    at = args[0] % len(lines)  # zero-signed: a leading zero in an int, the checksum made to match
    field = args[1]
    if field not in lines[at] or len(lines[at]) < 79:
        return data
    lines[at] = _signed(lines[at].replace(field, field + b"0", 1))
    return b"\n".join(lines)


# no shrink phase: each example writes and re-reads a cache file, so
# shrinking a failure took minutes; the failing example is reported unshrunk
@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
@given(batches=batches, edits=edits, low=st.integers(0, M_TOP + 1), width=st.integers(0, M_TOP + 2))
def test_reader_serves_what_the_line_by_line_loader_serves(batches, edits, low, width):
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "rows.jsonl"
        for n, batch in batches:
            cli._append_cache(cache, n, batch)
        data = cache.read_bytes()
        for edit in edits:
            data = _edit(data, edit)
        cache.write_bytes(data)
        for wanted in (range(0, M_TOP + 1), range(low, low + width)):
            for n in (*NS, 3):
                assert cli._load_cache(cache, n, wanted) == load_cache_by_lines(cache, n, wanted)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n=st.integers(1, 10**6), batch=st.lists(rows, min_size=1, max_size=5))
@example(n=1, batch=[{"m": 0, "hsum": 0, "mu": "-1/2", "chi_orb": "-10", "h1": "-7/3"}])
def test_writer_bytes_are_json_dumps_of_the_record(n, batch):
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "rows.jsonl"
        cli._append_cache(cache, n, batch)
        expected = b""
        for row in batch:
            canonical = json.dumps({"n": n, "row": row}, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            expected += f'{{"checksum":"{digest}",{canonical[1:]}\n'.encode("utf-8")
        assert cache.read_bytes() == expected
        assert cli._load_cache(cache, n, range(M_TOP + 1)) == {row["m"]: row for row in batch}
