"""Property test: the certified modular rank equals rank over Fraction.

Entries are drawn near multiples of the oracle's prime p as well as small,
so some matrices lose rank mod p and take the Bareiss fallback while the
rest are settled by the modular pass.  Needs hypothesis (the ``test``
extra); the module is skipped without it.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ansing.oracle import _PRIME, rank  # noqa: E402
from test_oracle import _rank_fraction_elimination  # noqa: E402

ENTRIES = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(
        lambda k, offset: k * _PRIME + offset,
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-1, max_value=1),
    ),
)


@st.composite
def matrices(draw):
    nrows = draw(st.integers(min_value=0, max_value=8))
    ncols = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    return rows, ncols


@settings(derandomize=True, max_examples=120, deadline=None)
@given(matrices())
def test_rank_equals_fraction_elimination(matrix):
    rows, ncols = matrix
    assert rank(rows, ncols) == _rank_fraction_elimination(rows, ncols)
