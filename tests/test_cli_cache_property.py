"""Property test: a sweep over a corrupted cache prints what a cold sweep prints.

Random bytes of a warm cache are overwritten or deleted; the sweep must serve
only the rows that still verify, recompute the rest, and append them so that
the next sweep recomputes nothing.  Needs hypothesis (the ``test`` extra); the
module is skipped without it.
"""

import contextlib
import functools
import io
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ansing import cli  # noqa: E402

SWEEPS = [  # two n whose keys share a prefix, so a loose match on n would show
    ["hsum-sweep", "--n", "1", "--m-from", "0", "--m-to", "6", "--no-timestamp"],
    ["hsum-sweep", "--n", "10", "--m-from", "2", "--m-to", "6", "--no-timestamp"],
]


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    return out.getvalue()


@functools.cache
def _cold(index: int) -> str:
    return _stdout(SWEEPS[index])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.integers(min_value=0), st.none() | st.integers(0, 255)),
        min_size=1,
        max_size=6,
    )
)
def test_corrupted_cache_sweeps_like_cold(edits):
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "rows.jsonl"
        warm = [argv + ["--cache", str(cache)] for argv in SWEEPS]
        for argv in warm:
            _stdout(argv)
        data = bytearray(cache.read_bytes())
        for at, value in edits:  # None deletes the byte
            at %= len(data)
            if value is None:
                del data[at]
            else:
                data[at] = value
        cache.write_bytes(bytes(data))
        for index, argv in enumerate(warm):
            assert _stdout(argv) == _cold(index)
        healed = cache.read_bytes()
        for index, argv in enumerate(warm):
            assert _stdout(argv) == _cold(index)
        assert cache.read_bytes() == healed
