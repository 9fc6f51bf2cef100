"""Hedge (exponential weights) with losses in [0, 1], plus the shift-and-scale
transform that brings a [-B, B] payoff vector into that range.

Weights are kept in the log domain so long horizons cannot underflow; the
observable normalized weights are unchanged by the stabilization.

One Hedge round works on a length-k vector, often k = 2, where a numpy
call costs more than its arithmetic. ``hedge_step`` therefore checks, clips
and subtracts on Python floats, and ``rescale_loss`` and ``clamp_mask``
rescale and flag a column the same way. Each is elementwise IEEE
arithmetic, so it returns the bits of the numpy expression it documents.
``normalized_weights`` stays numpy: its ``np.exp`` and sum are not
guaranteed to round as Python's ``math.exp`` and ``sum`` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOSS_TOL = 1e-12


@dataclass(frozen=True)
class HedgeState:
    """Exponential-weights state over k coordinates for a T-round horizon."""

    log_weights: np.ndarray
    beta: float
    t: int = 0

    @classmethod
    def create(cls, k: int, horizon: int) -> "HedgeState":
        if k < 1 or horizon < 1:
            raise ValueError("need k >= 1 and horizon >= 1")
        return cls(log_weights=np.zeros(k), beta=math.sqrt(math.log(k) / horizon), t=0)

    @property
    def k(self) -> int:
        return self.log_weights.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """Normalized weight vector (``normalized_weights`` of the log-weights)."""
        return normalized_weights(self.log_weights)


def normalized_weights(log_weights: np.ndarray) -> np.ndarray:
    """Normalized weights along the last axis of (..., k) log-weights.

    The max log-weight is subtracted before exponentiation, which leaves the
    normalized result unchanged. Each row of a stacked array gets the same
    bits as that row on its own.
    """
    # The ufunc reductions skip the Python wrappers of ndarray.max and .sum,
    # whose overhead counts on the one-row call every Hedge round makes.
    shifted = np.exp(log_weights - np.maximum.reduce(log_weights, axis=-1, keepdims=True))
    shifted /= np.add.reduce(shifted, axis=-1, keepdims=True)
    return shifted


def checked_loss(loss: np.ndarray) -> np.ndarray:
    """The loss Hedge applies: entries within ``LOSS_TOL`` outside [0, 1] are
    clipped to it; any other entry, NaN included, raises ValueError."""
    low, high = np.minimum.reduce(loss), np.maximum.reduce(loss)
    # Written so that a NaN, which fails every comparison, fails the check.
    if not (low >= -LOSS_TOL and high <= 1.0 + LOSS_TOL):
        raise ValueError("loss entries must lie in [0, 1]")
    if low < 0.0 or high > 1.0:
        return np.clip(loss, 0.0, 1.0)
    return loss


def hedge_step(state: HedgeState, loss: np.ndarray) -> HedgeState:
    """Multiplicative update W_i *= exp(-beta * loss_i); loss must lie in [0, 1].

    The loss is checked and clipped as ``checked_loss`` does; a wrong shape
    raises ValueError. The input state is unchanged. The update runs on
    Python floats, one ``tolist()`` of the loss and one of the log-weights,
    and gives the bits of ``log_weights - beta * checked_loss(loss)``: the
    loss is converted to float64 first, so a float32 loss is widened, not
    multiplied in float32.
    """
    loss = np.asarray(loss, dtype=float)
    if loss.shape != (state.k,):
        raise ValueError(f"loss must have shape ({state.k},)")
    values = loss.tolist()
    # Each entry is tested on its own: min() and max() skip a NaN that is
    # not first, and a NaN fails both comparisons.
    for v in values:
        if not -LOSS_TOL <= v <= 1.0 + LOSS_TOL:
            raise ValueError("loss entries must lie in [0, 1]")
    beta = state.beta
    log_weights = [
        w - beta * (0.0 if v < 0.0 else 1.0 if v > 1.0 else v)
        for w, v in zip(state.log_weights.tolist(), values)
    ]
    return HedgeState(np.array(log_weights), beta, state.t + 1)


def rescale_loss(g: np.ndarray, bound: float) -> np.ndarray:
    """Map a payoff vector in [-B, B] to a loss in [0, 1] via (g + B) / 2B.

    Entries that fall outside [0, 1] after rescaling (inputs beyond the
    bound) are clamped; use ``clamp_mask`` to count them. The arithmetic
    runs on Python floats, one ``tolist()`` of ``g``, and gives the bits of
    ``np.clip((g + B) / (2 * B), 0.0, 1.0)``.
    """
    if bound <= 0.0:
        raise ValueError("bound must be positive")
    scale = 2.0 * bound
    values = [(x + bound) / scale for x in np.asarray(g, dtype=float).tolist()]
    return np.array([0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in values])


def clamp_mask(g: np.ndarray, bound: float) -> list[bool]:
    """Per-coordinate flags of the payoff vector's entries the rescale had to
    clamp: those below -B or above B."""
    return [x < -bound or x > bound for x in np.asarray(g, dtype=float).tolist()]


def hedge_regret(losses: np.ndarray, horizon: int | None = None) -> float:
    """Realized regret of Hedge on a loss sequence: sum_t w_t . c_t - min_i sum_t c_t(i).

    The comparator minimum over the simplex is attained at a vertex, so the
    coordinate minimum suffices.
    """
    losses = np.asarray(losses, dtype=float)
    n_rounds, k = losses.shape
    state = HedgeState.create(k, horizon if horizon is not None else n_rounds)
    incurred = 0.0
    for row in losses:
        incurred += float(state.weights @ row)
        state = hedge_step(state, row)
    return incurred - float(losses.sum(axis=0).min())
