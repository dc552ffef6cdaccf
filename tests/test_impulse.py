"""Impulse-train solutions: step counting, kernel-tail superposition, and the
sampled table used by the CLI dataset."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracburgers import (
    FractionalOrder,
    ImpulseTrain,
    TimeGrid,
    fractional_impulse_solution,
    impulse_table,
    step_solution,
)

INV_SQRT_PI = 0.5641895835477563
CAPTION_TRAIN = ImpulseTrain(np.array([1.0, 2.0, 3.0, 4.0]))
CAPTION_ALPHAS = [0.1, 0.25, 0.5, 0.75, 0.875, 0.9, 0.99, 1.0]


def test_train_validation():
    with pytest.raises(ValueError):
        ImpulseTrain(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        ImpulseTrain(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        ImpulseTrain(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ImpulseTrain(np.array([]))


def test_step_solution():
    assert step_solution(CAPTION_TRAIN, 2.5) == 2
    assert step_solution(CAPTION_TRAIN, 0.0) == 0
    # strict inequality: the impulse at p_1 has not acted yet at t = p_1
    assert step_solution(CAPTION_TRAIN, 1.0) == 0
    assert step_solution(CAPTION_TRAIN, 10.0) == 4
    with pytest.raises(ValueError):
        step_solution(CAPTION_TRAIN, -1.0)


def test_fractional_before_first_impulse():
    assert fractional_impulse_solution(CAPTION_TRAIN, FractionalOrder(0.5), 0.5) == 0.0


def test_fractional_single_impulse_value():
    train = ImpulseTrain(np.array([1.0]))
    val = fractional_impulse_solution(train, FractionalOrder(0.5), 2.0)
    assert val == pytest.approx(INV_SQRT_PI, rel=1e-13)


def test_divergence_at_impulse_time():
    with pytest.raises(ValueError):
        fractional_impulse_solution(CAPTION_TRAIN, FractionalOrder(0.5), 2.0)
    with pytest.raises(ValueError):
        fractional_impulse_solution(CAPTION_TRAIN, FractionalOrder(1.0), 2.5)


def test_superposition():
    order = FractionalOrder(0.35)
    for t in (0.5, 1.7, 2.5, 3.3, 4.9, 17.2):
        total = fractional_impulse_solution(CAPTION_TRAIN, order, t)
        parts = sum(
            fractional_impulse_solution(ImpulseTrain(np.array([p])), order, t)
            for p in CAPTION_TRAIN.times
        )
        assert total == pytest.approx(parts, rel=1e-13)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5])
def test_right_divergence(alpha):
    order = FractionalOrder(alpha)
    for p in CAPTION_TRAIN.times:
        assert fractional_impulse_solution(CAPTION_TRAIN, order, p + 1e-8) > 1e3


def test_classical_limit_pointwise():
    # away from the impulses the fractional solution approaches the step count
    gaps = []
    for alpha in (0.9, 0.99, 0.999):
        val = fractional_impulse_solution(CAPTION_TRAIN, FractionalOrder(alpha), 2.5)
        gaps.append(abs(val - step_solution(CAPTION_TRAIN, 2.5)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] <= 0.1  # alpha = 0.99 already sits within 0.1 of the count


class TestTable:
    def test_caption_table_shape(self):
        table = impulse_table(CAPTION_TRAIN, CAPTION_ALPHAS, TimeGrid(0.01, 500))
        assert table.values.shape == (501, 8)
        assert table.column_labels[0] == "alpha=0.1"
        assert table.column_labels[-1] == "alpha=1"

    def test_colliding_nodes_shifted(self):
        table = impulse_table(CAPTION_TRAIN, [0.5, 1.0], TimeGrid(0.01, 500))
        for p in CAPTION_TRAIN.times:
            assert np.all(np.abs(table.times - p) > 1e-6)
        # the node that sat on the first impulse moved forward half a step
        assert np.any(np.isclose(table.times, 1.005))

    def test_classical_column_is_step_count(self):
        table = impulse_table(CAPTION_TRAIN, CAPTION_ALPHAS, TimeGrid(0.01, 500))
        col = table.column(1.0)
        assert np.all(col == np.round(col))
        assert np.all(np.diff(col) >= 0.0)
        assert col[-1] == 4.0
        expected = np.array([step_solution(CAPTION_TRAIN, t) for t in table.times])
        assert np.array_equal(col, expected)

    def test_fractional_columns_decay_after_last_impulse(self):
        table = impulse_table(CAPTION_TRAIN, CAPTION_ALPHAS, TimeGrid(0.5, 100))
        i_late = int(np.argmin(np.abs(table.times - 50.0)))
        i_near = int(np.argmin(np.abs(table.times - 4.5)))
        for alpha in CAPTION_ALPHAS[:-1]:
            col = table.column(alpha)
            assert col[i_late] < col[i_near]

    def test_rejects_orders_outside_unit_interval(self):
        with pytest.raises(ValueError):
            impulse_table(CAPTION_TRAIN, [0.5, 1.5], TimeGrid(0.01, 100))
        with pytest.raises(ValueError):
            impulse_table(CAPTION_TRAIN, [], TimeGrid(0.01, 100))


@settings(max_examples=60)
@given(
    step=st.sampled_from([0.01, 0.05, 0.1, 0.3]),
    count=st.integers(1, 120),
    slots=st.lists(st.integers(1, 130), min_size=1, max_size=40, unique=True),
    offsets=st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.7, 0.95]), min_size=40, max_size=40),
    alphas=st.lists(st.floats(0.0, 1.0, exclude_min=True) | st.just(1.0), min_size=1, max_size=5),
)
def test_table_equals_pointwise_closed_forms(step, count, slots, offsets, alphas):
    # impulses at grid nodes (offset 0, shifted past by the table) or between
    # them, some beyond the last node; every order's column must equal the
    # per-node closed form bit for bit
    times = sorted((k + off) * step for k, off in zip(slots, offsets))
    train = ImpulseTrain(np.array(times))
    table = impulse_table(train, alphas, TimeGrid(step, count))
    assert table.values.shape == (count + 1, len(alphas))
    for j, a in enumerate(table.alphas):
        if a == 1.0:
            expected = [step_solution(train, t) for t in table.times]
        else:
            expected = [fractional_impulse_solution(train, FractionalOrder(a), t) for t in table.times]
        assert np.array_equal(table.values[:, j], expected)
