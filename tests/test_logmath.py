"""Tests for log-domain arithmetic."""

from __future__ import annotations

import functools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tokenwise.logmath import (
    LOG_ONE,
    LOG_ZERO,
    log_add,
    log_normalize,
    log_sum_exp,
)


def test_log_add_zero_is_identity() -> None:
    assert log_add(LOG_ZERO, -1.5) == -1.5
    assert log_add(-1.5, LOG_ZERO) == -1.5
    assert log_add(LOG_ZERO, LOG_ZERO) == LOG_ZERO


def test_log_add_matches_linear_domain() -> None:
    rng = np.random.default_rng(101)
    for _ in range(500):
        a = float(rng.uniform(-30.0, 3.0))
        b = float(rng.uniform(-30.0, 3.0))
        expected = math.log(math.exp(a) + math.exp(b))
        assert abs(log_add(a, b) - expected) < 1e-12
        assert log_add(a, b) == log_add(b, a)


def test_log_add_extreme_magnitudes() -> None:
    assert log_add(0.0, -800.0) == 0.0
    near = log_add(-800.0, -800.0)
    assert abs(near - (-800.0 + math.log(2.0))) < 1e-12


def test_log_sum_exp_empty_is_zero_probability() -> None:
    assert log_sum_exp(np.empty(0), 0).tolist() == [LOG_ZERO]


def test_log_sum_exp_thousand_small_terms() -> None:
    total = log_sum_exp(np.full(1000, math.log(0.001)), 0)[0]
    assert abs(total - LOG_ONE) < 1e-9


def test_log_sum_exp_matches_scalar_fold() -> None:
    rng = np.random.default_rng(7)
    for _ in range(50):
        values = rng.uniform(-20.0, 0.0, size=rng.integers(1, 40))
        got = log_sum_exp(values, 0)
        want = functools.reduce(log_add, values.tolist(), LOG_ZERO)
        assert got.shape == (1,)
        assert abs(got[0] - want) < 1e-12


def test_log_sum_exp_axis_and_infinities() -> None:
    values = np.array([[LOG_ZERO, LOG_ZERO], [0.0, math.log(3.0)]])
    by_row = log_sum_exp(values, 1)[:, 0]
    assert by_row[0] == LOG_ZERO
    assert abs(by_row[1] - math.log(4.0)) < 1e-12
    assert not np.isnan(by_row).any()


def test_log_sum_exp_empty_axis() -> None:
    values = np.empty((3, 0))
    out = log_sum_exp(values, 1)
    assert out.shape == (3, 1)
    assert (out == LOG_ZERO).all()
    assert log_sum_exp(np.empty(0), 0).tolist() == [LOG_ZERO]


def test_log_normalize_rows_sum_to_one() -> None:
    rng = np.random.default_rng(13)
    values = rng.uniform(-5.0, 5.0, size=(6, 9))
    normalized = log_normalize(values, axis=-1)
    totals = log_sum_exp(normalized, -1)
    assert np.abs(totals).max() < 1e-12


def test_log_normalize_keeps_zero_entries() -> None:
    values = np.array([[0.0, LOG_ZERO, 0.0]])
    normalized = log_normalize(values, axis=-1)
    assert normalized[0, 1] == LOG_ZERO
    assert abs(normalized[0, 0] - math.log(0.5)) < 1e-12


# Reference formulas, written out with numpy's generic reductions, an
# error-state context and shape round trips: the shared kernel must
# reproduce them bit for bit.
def _reference_log_sum(values: np.ndarray, axis: int) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.shape[axis] == 0:
        shape = list(values.shape)
        del shape[axis % values.ndim]
        return np.full(shape, LOG_ZERO)
    peak = np.max(values, axis=axis, keepdims=True)
    anchor = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(values - anchor).sum(axis=axis)) + np.squeeze(anchor, axis=axis)


def _reference_log_normalize(values: np.ndarray, axis: int = -1) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    total = _reference_log_sum(values, axis=axis)
    return values - np.expand_dims(total, axis)


KERNEL_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)

# Finite log-values, exact ties, LOG_ZERO, NaN and +inf.
_entries = st.one_of(
    st.floats(-60.0, 5.0),
    st.sampled_from([LOG_ZERO, LOG_ZERO, 0.0, -1.0, math.nan, math.inf]),
)


@st.composite
def _arrays_and_axes(draw, min_side: int):
    shape = draw(array_shapes(min_dims=1, max_dims=3, min_side=min_side, max_side=5))
    values = draw(arrays(np.float64, shape, elements=_entries))
    if draw(st.booleans()):
        # Whole slices of LOG_ZERO along the last axis.
        values[draw(arrays(np.bool_, shape[:-1]))] = LOG_ZERO
    axis = draw(st.sampled_from([None, -1, *range(len(shape))]))
    return values, axis


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.array_equal(got, want, equal_nan=True)


@KERNEL_SETTINGS
@given(case=_arrays_and_axes(min_side=0))
def test_log_sum_exp_equals_the_reference_formula_exactly(case) -> None:
    # Empty slices included; a drawn axis of None sums the flattened array along axis 0.
    values, axis = case
    if axis is None:
        values, axis = values.ravel(), 0
    with np.errstate(all="ignore"):
        want = np.expand_dims(_reference_log_sum(values, axis), axis)
        got = log_sum_exp(values, axis)
    assert _same(got, want)


@KERNEL_SETTINGS
@given(case=_arrays_and_axes(min_side=0))
def test_log_normalize_equals_the_reference_formula_exactly(case) -> None:
    values, axis = case
    axis = -1 if axis is None else axis
    with np.errstate(all="ignore"):
        want = _reference_log_normalize(values, axis)
        got = log_normalize(values, axis)
    assert _same(got, want)


@KERNEL_SETTINGS
@given(case=_arrays_and_axes(min_side=1))
def test_log_sum_exp_keeps_the_reduced_axis(case) -> None:
    values, axis = case
    axis = 0 if axis is None else axis
    with np.errstate(all="ignore"):
        want = np.expand_dims(_reference_log_sum(values, axis), axis)
        got = log_sum_exp(values, axis)
    assert _same(got, want)


def test_log_sum_exp_on_finite_input_raises_no_warning() -> None:
    values = np.array([[0.0, -1.0, -700.0], [-3.0, -3.0, -3.0]])
    with np.errstate(all="raise"):
        got = log_sum_exp(values, 1)
    assert got.shape == (2, 1)
    assert abs(got[1, 0] - (-3.0 + math.log(3.0))) < 1e-12
