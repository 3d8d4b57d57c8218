"""The selector's best/runner-up pick must equal the first two columns
of a stable ``argsort`` on every row — including the rows where a naive
two-pass ``argmin`` goes wrong."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.selector import _UNATTRACTIVE, _top2

INF = np.inf

#: few distinct values, so ties, +inf (forbidden) and _UNATTRACTIVE
#: (failed/unprobed) rows come up constantly
VALUES = st.sampled_from([-0.01, 0.0, 0.05, 0.05, 0.3, 1.0, _UNATTRACTIVE, INF, -INF])


def reference(values):
    order = np.argsort(values, axis=1, kind="stable")
    return order[:, 0], order[:, 1]


def assert_matches_sort(values):
    best, second = _top2(values)
    ref_best, ref_second = reference(values)
    np.testing.assert_array_equal(best, ref_best)
    np.testing.assert_array_equal(second, ref_second)
    assert best.dtype == ref_best.dtype and second.dtype == ref_second.dtype


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda m: arrays(np.float64, st.tuples(st.integers(0, 12), st.just(m + 1)), elements=VALUES)
    )
)
def test_equals_stable_argsort(values):
    assert_matches_sort(values)


@settings(max_examples=100, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(2, 5)),
        elements=st.one_of(VALUES, st.just(np.nan)),
    )
)
def test_nan_rows_keep_sort_order(values):
    assert_matches_sort(values)


def test_all_inf_row_is_zero_then_one():
    # naive masking would return the winner twice: (0, 0)
    best, second = _top2(np.full((3, 4), INF))
    assert best.tolist() == [0, 0, 0]
    assert second.tolist() == [1, 1, 1]


def test_finite_winner_among_infs():
    values = np.array([[0.2, INF, INF], [INF, 0.2, INF], [INF, INF, 0.2]])
    best, second = _top2(values)
    assert best.tolist() == [0, 1, 2]
    assert second.tolist() == [1, 0, 0]


def test_ties_go_to_the_lowest_index():
    values = np.array([[0.1, 0.1, 0.1], [0.5, 0.1, 0.1], [0.1, 0.5, 0.1]])
    best, second = _top2(values)
    assert best.tolist() == [0, 1, 0]
    assert second.tolist() == [1, 2, 2]


def test_unattractive_ranks_above_forbidden():
    values = np.array([[INF, _UNATTRACTIVE, INF], [_UNATTRACTIVE, INF, _UNATTRACTIVE]])
    best, second = _top2(values)
    assert best.tolist() == [1, 0]
    assert second.tolist() == [0, 2]


def test_two_column_rows():
    values = np.array([[0.3, 0.1], [0.1, 0.3], [INF, INF], [INF, 0.0], [0.0, INF]])
    best, second = _top2(values)
    assert best.tolist() == [1, 0, 0, 1, 0]
    assert second.tolist() == [0, 1, 1, 0, 1]
