"""Property test: ``oracle.rank`` equals rank over Fraction.

Rows are drawn dense or with a single nonzero entry.  Entries are drawn
near multiples of the oracle's prime p as well as small, so some matrices
lose rank mod p and take the Bareiss fallback while the rest are certified
mod p; the test asserts that the fallback is still reached.  Needs
hypothesis (the ``test`` extra); the module is skipped without it.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ansing.oracle import _PRIME, rank  # noqa: E402
from test_oracle import _count_bareiss, _rank_fraction_elimination  # noqa: E402

ENTRIES = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(
        lambda k, offset: k * _PRIME + offset,
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-1, max_value=1),
    ),
)


@st.composite
def rows_of(draw, ncols):
    if draw(st.booleans()):
        return draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
    row = [0] * ncols
    row[draw(st.integers(min_value=0, max_value=ncols - 1))] = draw(ENTRIES.filter(bool))
    return row


@st.composite
def matrices(draw):
    nrows = draw(st.integers(min_value=0, max_value=8))
    ncols = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.lists(rows_of(ncols), min_size=nrows, max_size=nrows))
    return rows, ncols


def test_rank_equals_fraction_elimination(monkeypatch):
    fallbacks = _count_bareiss(monkeypatch)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(matrices())
    def check(matrix):
        rows, ncols = matrix
        assert rank(rows, ncols) == _rank_fraction_elimination(rows, ncols)

    check()
    # the certificate must not keep the fallback from being exercised
    assert fallbacks, "no example reached the Bareiss fallback"
