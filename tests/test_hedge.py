import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftp_rl.hedge import (
    LOSS_TOL,
    HedgeState,
    checked_loss,
    clamp_mask,
    hedge_regret,
    hedge_step,
    normalized_weights,
    rescale_loss,
)
from reference import SEEDS


def adversarial_worst_coordinate(k, n_rounds, rng):
    """Loss sequence that always charges the currently heaviest coordinate."""
    state = HedgeState.create(k, n_rounds)
    losses = np.zeros((n_rounds, k))
    for t in range(n_rounds):
        loss = np.zeros(k)
        loss[int(np.argmax(state.weights))] = 1.0
        losses[t] = loss
        state = hedge_step(state, loss)
    return losses


class TestHedgeStep:
    def test_zero_loss_keeps_weights(self):
        state = HedgeState.create(3, 10)
        after = hedge_step(state, np.zeros(3))
        assert np.allclose(after.weights, state.weights, atol=1e-15)
        assert after.t == 1

    def test_two_coordinate_formula(self):
        # Direct formula: with beta = 1 and loss (1, 0) from uniform weights,
        # w = (e^-1 / (1 + e^-1), 1 / (1 + e^-1)).
        state = HedgeState(log_weights=np.zeros(2), beta=1.0)
        after = hedge_step(state, np.array([1.0, 0.0]))
        expected = np.array([math.exp(-1.0), 1.0]) / (1.0 + math.exp(-1.0))
        assert np.allclose(after.weights, expected, atol=1e-12)
        assert abs(after.weights[0] - 0.2689) < 1e-4

    def test_identical_losses_keep_weights(self):
        state = HedgeState.create(4, 100)
        after = hedge_step(state, np.full(4, 0.7))
        assert np.allclose(after.weights, state.weights, atol=1e-15)

    def test_out_of_range_loss_is_a_hard_error(self):
        state = HedgeState.create(2, 10)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            hedge_step(state, np.array([1.2, 0.0]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            hedge_step(state, np.array([-0.1, 0.0]))

    @pytest.mark.parametrize(
        "loss, clipped",
        [([-1e-13, 0.5], [0.0, 0.5]), ([1.0 + 1e-13, 0.25], [1.0, 0.25]), ([-1e-13, 1.0 + 1e-13], [0.0, 1.0])],
        ids=["below", "above", "both"],
    )
    def test_overshoot_within_tolerance_equals_clipped_loss(self, loss, clipped):
        state = HedgeState(log_weights=np.array([0.3, -0.2]), beta=0.7, t=4)
        after = hedge_step(state, np.array(loss))
        expected = hedge_step(state, np.array(clipped))
        assert after.log_weights.tobytes() == expected.log_weights.tobytes()
        assert (after.beta, after.t) == (expected.beta, expected.t)

    @pytest.mark.parametrize("loss", [np.zeros(3), np.zeros((2, 1)), np.zeros(1), 0.5])
    def test_wrong_shape_raises(self, loss):
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            hedge_step(HedgeState.create(2, 10), loss)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loss_raises(self, bad):
        state = HedgeState.create(2, 10)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            hedge_step(state, np.array([0.5, bad]))

    def test_step_counts_rounds_and_leaves_input_state_unchanged(self):
        state = HedgeState(log_weights=np.array([0.1, -0.4, 0.0]), beta=0.3, t=7)
        before = state.log_weights.copy()
        after = hedge_step(state, np.array([1.0, 0.0, 0.5]))
        assert after.t == 8
        assert after.beta == state.beta
        assert state.t == 7
        assert state.log_weights.tobytes() == before.tobytes()
        assert after.log_weights.tobytes() == (before - 0.3 * np.array([1.0, 0.0, 0.5])).tobytes()

    def test_learning_rate_formula(self):
        state = HedgeState.create(16, 400)
        assert abs(state.beta - math.sqrt(math.log(16) / 400)) < 1e-15

    def test_single_coordinate_is_degenerate(self):
        state = HedgeState.create(1, 100)
        assert state.beta == 0.0
        after = hedge_step(state, np.array([1.0]))
        assert after.weights[0] == 1.0

    def test_log_domain_survives_long_horizons(self):
        state = HedgeState.create(2, 100_000)
        for _ in range(5000):
            state = hedge_step(state, np.array([1.0, 0.0]))
        assert np.isfinite(state.weights).all()
        assert abs(state.weights.sum() - 1.0) < 1e-12


class TestSharedHelpers:
    @settings(max_examples=60)
    @given(st.integers(1, 17), st.integers(1, 300), SEEDS)
    def test_stacked_rows_get_the_bits_of_single_rows(self, k, n_rows, seed):
        log_weights = np.random.default_rng(seed).normal(scale=5.0, size=(n_rows, k))
        stacked = normalized_weights(log_weights)
        for row, weights in zip(log_weights, stacked):
            assert weights.tobytes() == HedgeState(row, 0.1).weights.tobytes()

    def test_single_row_is_the_max_shifted_formula(self):
        log_weights = np.array([0.3, -1.2, 2.5, 0.0])
        shifted = np.exp(log_weights - log_weights.max())
        assert normalized_weights(log_weights).tobytes() == (shifted / shifted.sum()).tobytes()

    @pytest.mark.parametrize("bad", [-2 * LOSS_TOL, 1.0 + 2 * LOSS_TOL, np.nan])
    def test_checked_loss_rejects_what_hedge_step_rejects(self, bad):
        loss = np.array([0.5, bad])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            checked_loss(loss)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            hedge_step(HedgeState.create(2, 10), loss)

    def test_checked_loss_clips_within_tolerance_and_passes_the_rest(self):
        inside = np.array([0.0, 0.25, 1.0])
        assert checked_loss(inside) is inside
        clipped = checked_loss(np.array([-LOSS_TOL, 0.25, 1.0 + LOSS_TOL]))
        assert clipped.tobytes() == inside.tobytes()


class TestRescaleLoss:
    def test_zero_maps_to_half(self):
        assert np.allclose(rescale_loss(np.zeros(3), 2.0), 0.5)

    def test_endpoints(self):
        assert np.allclose(rescale_loss(np.array([-2.0, 2.0]), 2.0), [0.0, 1.0])

    def test_midpoint_formula(self):
        assert np.allclose(rescale_loss(np.array([1.0]), 2.0), [0.75])

    def test_clamping_and_mask(self):
        g = np.array([-3.0, 0.0, 5.0])
        out = rescale_loss(g, 2.0)
        assert np.allclose(out, [0.0, 0.5, 1.0])
        assert np.array_equal(clamp_mask(g, 2.0), [True, False, True])

    def test_the_bound_itself_is_not_clamped(self):
        bound = 8.226067272402588
        g = np.array([-bound, bound])
        assert rescale_loss(g, bound).tolist() == [0.0, 1.0]
        assert clamp_mask(g, bound) == [False, False]

    def test_one_ulp_beyond_the_bound_is_clamped(self):
        bound = 8.226067272402588
        g = np.nextafter(np.array([-bound, bound]), [-np.inf, np.inf])
        assert rescale_loss(g, bound).tolist() == [0.0, 1.0]
        assert clamp_mask(g, bound) == [True, True]

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            rescale_loss(np.zeros(2), 0.0)


class TestRegretBound:
    @pytest.mark.parametrize("k", [2, 4, 16])
    @pytest.mark.parametrize("n_rounds", [100, 2000])
    def test_random_sequences(self, k, n_rounds):
        rng = np.random.default_rng(k * 1000 + n_rounds)
        losses = rng.random((n_rounds, k))
        assert hedge_regret(losses) <= 2.0 * math.sqrt(n_rounds * math.log(k))

    @pytest.mark.parametrize("k", [2, 8, 16])
    def test_adversarial_worst_coordinate(self, k):
        n_rounds = 3000
        losses = adversarial_worst_coordinate(k, n_rounds, None)
        assert hedge_regret(losses) <= 2.0 * math.sqrt(n_rounds * math.log(k))

    def test_alternating_sequences(self):
        n_rounds, k = 10_000, 2
        losses = np.zeros((n_rounds, k))
        losses[0::2, 0] = 1.0
        losses[1::2, 1] = 1.0
        assert hedge_regret(losses) <= 2.0 * math.sqrt(n_rounds * math.log(k))

    def test_rescaled_regret_bound(self):
        rng = np.random.default_rng(5)
        n_rounds, k, bound = 5000, 4, 3.0
        gains = rng.uniform(-bound, bound, size=(n_rounds, k))
        state = HedgeState.create(k, n_rounds)
        incurred = 0.0
        for g in gains:
            incurred += float(state.weights @ g)
            state = hedge_step(state, rescale_loss(g, bound))
        regret = (incurred - gains.sum(axis=0).min()) / n_rounds
        assert regret <= 4.0 * bound * math.sqrt(math.log(k) / n_rounds)

    def test_scale_shift_coherence(self):
        # Running Hedge on rescaled losses relates unrescaled and rescaled
        # regret by exactly the factor 2B.
        rng = np.random.default_rng(8)
        n_rounds, k, bound = 1000, 3, 2.5
        gains = rng.uniform(-bound, bound, size=(n_rounds, k))
        state = HedgeState.create(k, n_rounds)
        incurred_raw = 0.0
        incurred_rescaled = 0.0
        rescaled_sum = np.zeros(k)
        for g in gains:
            tilde = rescale_loss(g, bound)
            incurred_raw += float(state.weights @ g)
            incurred_rescaled += float(state.weights @ tilde)
            rescaled_sum += tilde
            state = hedge_step(state, tilde)
        regret_raw = incurred_raw - gains.sum(axis=0).min()
        regret_rescaled = incurred_rescaled - rescaled_sum.min()
        assert abs(regret_raw - 2.0 * bound * regret_rescaled) < 1e-9
