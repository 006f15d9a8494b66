"""Property tests: the closed-form row sums equal the pointwise walk, and
the bisection row sums up to degrees the walk cannot reach.

Needs hypothesis (the ``test`` extra); the module is skipped without it.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ansing.latticesum import hsum  # noqa: E402
from lattice_oracle import hsum_bisection, hsum_pointwise  # noqa: E402


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=30), m=st.integers(min_value=0, max_value=80))
def test_hsum_equals_pointwise_walk(n, m):
    assert hsum(n, m) == hsum_pointwise(n, m)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=60), m=st.integers(min_value=0, max_value=2000))
def test_hsum_equals_bisection(n, m):
    assert hsum(n, m) == hsum_bisection(n, m)
