"""Data model for finite Markov chains, tabular MDPs, and policies.

Conventions used throughout the package:

- transition matrices are row-stochastic, rows indexed by source state;
- an MDP stores one matrix per action, shape (n_actions, n_states, n_states);
- reward means live in [0, 1] and sampling is bounded in [0, 1];
- state and action indices are 0-based integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonErgodicError

ROW_SUM_TOL = 1e-12
# The three constants below pick inverse_cdf's strategy. Their tables come
# from tools/kernel_probe.py: best of 15, us per call on 1-D rows of a
# table with n rows, 2-core Intel Xeon, numpy 2.4.
#
# Rows wider than COUNT_MAX_STATES compare whole rows below this many
# entries (u.size * n) and binary-search above (draws: u.size):
#
#       n  draws  entries  compare  search
#      12    128     1536      6.6    11.9
#      12    512     6144     20.8    15.4
#      16    512     8192     24.8    17.5
#      50    128     6400     12.9    18.3
#      50    512    25600     42.9    24.9
#     200     32     6400     10.2    21.6
#     200     64    12800     18.9    23.1
#     200    128    25600     34.3    24.6
#     200    512   102400    125.5    31.0
#
# The crossover lies between 1.3e4 and 2.6e4 entries at n = 200 and between
# 6.4e3 and 2.6e4 at n = 50, the widths of perfbench's sample-large chains.
# At n = 12 and 16 it lies lower, between 1.5e3 and 8e3, so calls of a few
# hundred draws there compare where a search would be faster (20.8 against
# 15.4 us at n = 12 and 512 draws). The probe prints, per n, the smallest
# measured draw count at which search wins beside the one at which this cut
# picks it.
SEARCH_MIN_ENTRIES = 2**14
# Rows of at most this many entries count thresholds (the uint8 counts
# hold up to 255). From n = 12 on, the search wins the large calls:
#
#       n  draws  compare  count  search
#       8    512     21.8    9.9    20.2
#       8   2640     92.8   30.4    39.3
#       8  12000    441.8  110.2   122.6
#      12    512     26.3   18.6    40.7
#      12   2640    119.0   62.6    59.3
#      12  12000    646.6  245.5   154.0
#      16   2640    155.0   85.6    79.8
#
# The same cut picks sampling._map_blocks' layout. One batched CFTP step
# of ``maps`` maps, drawn and composed, in us:
#
#       n  maps  state-major  map-major
#       6     1          8.5        8.1
#       6   256         22.8       28.0
#       6  2000         89.2      132.2
#       8  2000        135.6      201.7
#      12   256         69.3       67.4
#      12  2000        419.4      440.4
#     200  2000      16291.1    15745.5
COUNT_MAX_STATES = 8
# Calls of fewer draws than this compare whole rows even at n <= 8, where a
# count's fixed cost is not yet paid back (n = 6, table of 12 rows):
#
#     draws  compare  count
#         2      3.0    3.6
#        16      3.5    6.6
#        32      6.8    7.0
#        48      6.9    6.2
#        64      7.9    4.3
#       128      7.0    5.3
#       512     19.5    9.5
COUNT_MIN_DRAWS = 64


def _in_unit_interval(array: np.ndarray) -> bool:
    """Whether every entry lies in [0, 1]; a NaN entry fails, as it fails every comparison."""
    return bool(((array >= 0.0) & (array <= 1.0)).all())


def _check_row_stochastic(matrix: np.ndarray, what: str) -> None:
    if not _in_unit_interval(matrix):
        raise ValueError(f"{what}: entries must lie in [0, 1]")
    row_sums = matrix.sum(axis=-1)
    if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
        raise ValueError(f"{what}: rows must sum to 1 within {ROW_SUM_TOL}")


def _frozen(array: np.ndarray, dtype=float) -> np.ndarray:
    out = np.array(array, dtype=dtype)
    out.setflags(write=False)
    return out


def cdf_table(probs: np.ndarray) -> np.ndarray:
    """Cumulative probabilities along the last axis, for ``inverse_cdf``.

    Each row's tail, from its last positive-probability entry on, is pinned
    to exactly 1.0 and no entry exceeds 1.0. A uniform u < 1 then never
    selects a zero-probability category, whatever the rounding of the sum,
    and every row stays sorted.
    """
    cum = np.cumsum(probs, axis=-1)
    cum[cum >= cum[..., -1:]] = 1.0
    np.minimum(cum, 1.0, out=cum)
    return cum


def inverse_cdf(table: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each u[i], the number of entries <= u[i] in row rows[i] of a 2-D table.

    On ``cdf_table`` rows and uniforms from ``Generator.random`` this is an
    exact categorical draw per row. An MDP's table is flattened state-major,
    to rows s * n_actions + a (``TabularMDP.cumulative``). ``rows`` may be
    any integer array that broadcasts to ``u``'s shape, such as per-state
    rows of shape (n, 1) against (n, k) uniforms; the result has ``u``'s
    shape and equals the call on rows tiled to it.

    Three exact strategies, chosen from the row width and the number of
    draws alone. Rows of at most ``COUNT_MAX_STATES`` entries count
    thresholds once a call has ``COUNT_MIN_DRAWS`` draws: each of the
    table's threshold columns is compared with every u at once and the hits
    are added up, with no data-dependent gather per draw (inversion by
    sequential search, Devroye 1986, ch. III). Smaller calls on such rows,
    and calls on wider rows below ``SEARCH_MIN_ENTRIES`` entries, compare u
    with whole gathered rows. Larger calls on wider rows run a branchless
    binary search gathered over all draws at once (O(log n) per draw).
    Each search step is one ``take`` of the probes and one compare; a step
    of width one adds the hit itself, not one times it, and the result is
    finished in place. Every strategy counts the last entry, pinned to
    1.0, so u = 1.0 gives the row's width.
    """
    n = table.shape[1]
    if n <= COUNT_MAX_STATES and u.size >= COUNT_MIN_DRAWS:
        # The counts fit uint8; widened so callers' index arithmetic cannot overflow.
        return np.add.reduce(table.T.take(rows, axis=1) <= u, axis=0, dtype=np.uint8).astype(np.intp)
    if n <= COUNT_MAX_STATES or u.size * n < SEARCH_MIN_ENTRIES:
        return (u[..., None] >= table.take(rows, axis=0)).sum(axis=-1)
    flat = table.ravel()
    start = rows * n
    pos = np.empty(u.shape, dtype=start.dtype)
    pos[...] = start
    width = n
    while width > 1:
        half = width // 2
        hit = flat.take(pos + half) <= u
        pos += hit if half == 1 else half * hit
        width -= half
    pos += flat.take(pos) <= u
    pos -= start
    return pos


def closed_class(transition: np.ndarray) -> tuple[np.ndarray | None, bool]:
    """The chain's one closed class, as a read-only boolean mask, and whether it is aperiodic.

    (None, False) when there are several closed classes. States off the class
    are transient. CFTP's maps coalesce, and the exact oracles solve, exactly
    when the class exists and is aperiodic. From a state s: if every state
    reaches s, the class is what s reaches; else move to a state s reaches
    that cannot reach back (the reached set shrinks, so at most n moves), and
    if there is none, two closed classes exist. The class is aperiodic when
    it has a self-loop or the gcd of d[u] + 1 - d[v] over its edges u -> v is
    1, d being BFS depth from s; for a strongly connected graph that gcd is
    the period.
    """
    support = transition > 0.0
    s = 0
    while True:
        depth = _bfs_depth(support, s)
        reached = depth >= 0
        reaches_s = _bfs_depth(support.T, s) >= 0
        if reaches_s.all():
            break
        escape = np.flatnonzero(reached & ~reaches_s)
        if escape.size == 0:
            return None, False
        s = escape[0]
    reached.setflags(write=False)
    if support.diagonal()[reached].any():
        return reached, True
    u, v = np.nonzero(support & reached[:, None])
    return reached, bool(np.gcd.reduce(np.abs(depth[u] + 1 - depth[v])) == 1)


def _bfs_depth(support: np.ndarray, start: int) -> np.ndarray:
    n = support.shape[0]
    depth = np.full(n, -1, dtype=int)
    depth[start] = 0
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        step = support[frontier].any(axis=0) & (depth < 0)
        depth[step] = d
        frontier = list(np.nonzero(step)[0])
    return depth


class RewardModel:
    """Bounded stochastic reward with known means in [0, 1].

    ``bernoulli`` mode samples Bernoulli(mean); ``mean`` mode returns the
    mean deterministically. Both keep samples inside [0, 1].
    """

    MODES = ("bernoulli", "mean")

    def __init__(self, means: np.ndarray, mode: str = "bernoulli"):
        means = np.asarray(means, dtype=float)
        if not _in_unit_interval(means):
            raise ValueError("reward means must lie in [0, 1]")
        if mode not in self.MODES:
            raise ValueError(f"unknown reward mode {mode!r}")
        self.means = _frozen(means)
        self.mode = mode

    @property
    def uniforms_per_entry(self) -> int:
        """Uniforms one reward draw reads: 1 in ``bernoulli`` mode, 0 in ``mean`` mode."""
        return 1 if self.mode == "bernoulli" else 0

    def sample(self, means_selected: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw one reward per entry of ``means_selected``."""
        means_selected = np.asarray(means_selected, dtype=float)
        u = rng.random(means_selected.shape) if self.uniforms_per_entry else None
        return self.sample_from(means_selected, u)

    def sample_from(self, means_selected: np.ndarray, u: np.ndarray | None) -> np.ndarray:
        """One reward per entry of ``means_selected``, read from the uniforms ``u``.

        ``u`` holds ``uniforms_per_entry`` uniforms per entry, in entry order
        (None when that is 0); ``sample`` draws them from a Generator.
        """
        if self.mode == "mean":
            return means_selected.copy()
        return (u.reshape(means_selected.shape) < means_selected).astype(float)


class MarkovChain:
    """Finite-state chain: row-stochastic transition matrix plus a per-state reward model."""

    def __init__(self, transition: np.ndarray, reward: RewardModel):
        transition = np.asarray(transition, dtype=float)
        if transition.ndim != 2 or transition.shape[0] != transition.shape[1]:
            raise ValueError("transition must be a square matrix")
        _check_row_stochastic(transition, "transition")
        if reward.means.shape != (transition.shape[0],):
            raise ValueError("reward means must have one entry per state")
        self.n_states = transition.shape[0]
        self.transition = _frozen(transition)
        self.reward = reward
        self._closed_class: tuple[np.ndarray | None, bool] | None = None

    def closed_class(self) -> tuple[np.ndarray | None, bool]:
        """``closed_class`` of the transition matrix, computed on first use and cached."""
        if self._closed_class is None:
            self._closed_class = closed_class(self.transition)
        return self._closed_class

    @property
    def ergodic(self) -> bool:
        """Irreducible and aperiodic: the one closed class is every state, and it is aperiodic."""
        mask, aperiodic = self.closed_class()
        return aperiodic and bool(mask.all())

    def require_coalescing(self) -> np.ndarray:
        """The one closed class's mask; NonErgodicError unless it exists and is aperiodic.

        The one check of every sampler and exact oracle. Transient states are
        allowed; the stationary law is 0 on them.
        """
        mask, aperiodic = self.closed_class()
        if not aperiodic:
            raise NonErgodicError("the chain has no single closed class, or that class is periodic")
        return mask

    def cumulative(self) -> np.ndarray:
        """Per-row cumulative probabilities, for inverse-CDF sampling."""
        return cdf_table(self.transition)


class TabularMDP:
    """Finite MDP: per-action transition matrices, per-(state, action) rewards, optional features."""

    def __init__(
        self,
        transition: np.ndarray,
        reward: RewardModel,
        features: np.ndarray | None = None,
    ):
        transition = np.asarray(transition, dtype=float)
        if transition.ndim != 3 or transition.shape[1] != transition.shape[2]:
            raise ValueError("transition must have shape (n_actions, n_states, n_states)")
        _check_row_stochastic(transition, "transition")
        n_actions, n_states, _ = transition.shape
        if reward.means.shape != (n_states, n_actions):
            raise ValueError("reward means must have shape (n_states, n_actions)")
        if features is not None:
            features = np.asarray(features, dtype=float)
            if features.ndim != 2 or features.shape[0] != n_states:
                raise ValueError("features must have shape (n_states, k)")
            if not _in_unit_interval(features):
                raise ValueError("feature entries must lie in [0, 1]")
            features = _frozen(features)
        self.n_states = n_states
        self.n_actions = n_actions
        self.transition = _frozen(transition)
        self.reward = reward
        self.features = features
        # The one per-policy cache: a solvers.PolicyEvaluation for each
        # deterministic policy whose induced chain passed the coalescing
        # check, keyed by DeterministicPolicy.key(); filled by
        # solvers.policy_evaluation. A failure is never cached.
        self.policy_evaluations: dict[tuple[int, ...], object] = {}
        self._cum: np.ndarray | None = None

    def cumulative(self) -> np.ndarray:
        """Read-only CDF table whose row s * n_actions + a is that of P^a(s, .).

        Built on first use and shared by every sampler of this MDP.
        """
        if self._cum is None:
            table = cdf_table(self.transition.transpose(1, 0, 2)).reshape(-1, self.n_states)
            self._cum = _frozen(table)
        return self._cum

    @property
    def n_features(self) -> int:
        if self.features is None:
            raise ValueError("MDP has no feature map")
        return self.features.shape[1]


class DeterministicPolicy:
    """One action index per state."""

    def __init__(self, actions: np.ndarray):
        actions = np.asarray(actions, dtype=int)
        if actions.ndim != 1:
            raise ValueError("actions must be a 1-d array of action indices")
        self.actions = _frozen(actions, dtype=int)
        self._key = tuple(self.actions.tolist())

    def action_probs(self, n_actions: int) -> np.ndarray:
        if ((self.actions < 0) | (self.actions >= n_actions)).any():
            raise ValueError("policy uses an action index outside the MDP")
        probs = np.zeros((self.actions.shape[0], n_actions))
        probs[np.arange(self.actions.shape[0]), self.actions] = 1.0
        return probs

    def key(self) -> tuple[int, ...]:
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, DeterministicPolicy) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"DeterministicPolicy({list(self.actions)})"


class StochasticPolicy:
    """Row-stochastic matrix over actions, one row per state."""

    def __init__(self, probs: np.ndarray):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 2:
            raise ValueError("probs must have shape (n_states, n_actions)")
        _check_row_stochastic(probs, "policy probabilities")
        self.probs = _frozen(probs)

    def action_probs(self, n_actions: int) -> np.ndarray:
        if self.probs.shape[1] != n_actions:
            raise ValueError("policy action dimension does not match the MDP")
        return self.probs


class MixedPolicy:
    """Distribution over deterministic policies, selected once at time 0."""

    def __init__(self, weights: np.ndarray, members: list[DeterministicPolicy]):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or len(members) != weights.shape[0]:
            raise ValueError("one weight per member policy required")
        if not (weights >= 0.0).all():
            raise ValueError("mixture weights must be non-negative")
        if abs(weights.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"mixture weights must sum to 1 within {ROW_SUM_TOL}")
        self.weights = _frozen(weights)
        self.members = list(members)


def policy_matrix(policy, mdp: TabularMDP) -> np.ndarray:
    """Action-probability matrix of a deterministic or stochastic policy."""
    if isinstance(policy, MixedPolicy):
        raise ValueError("mixed policies do not induce a single chain; handle members separately")
    probs = policy.action_probs(mdp.n_actions)
    if probs.shape[0] != mdp.n_states:
        raise ValueError("policy state dimension does not match the MDP")
    return probs


def induce_chain(mdp: TabularMDP, policy) -> MarkovChain:
    """Markov chain induced by running ``policy`` in ``mdp``.

    P(x, y) = sum_a pi(a|x) P^a(x, y); the reward model is the
    action-marginalized reward with the MDP's sampling mode.
    """
    if isinstance(policy, DeterministicPolicy):
        if policy.actions.shape[0] != mdp.n_states:
            raise ValueError("policy state dimension does not match the MDP")
        if policy.actions.min() < 0 or policy.actions.max() >= mdp.n_actions:
            raise ValueError("policy uses an action index outside the MDP")
        idx = np.arange(mdp.n_states)
        transition = mdp.transition[policy.actions, idx, :]
        means = mdp.reward.means[idx, policy.actions]
    else:
        probs = policy_matrix(policy, mdp)
        transition = np.einsum("xa,axy->xy", probs, mdp.transition)
        # Renormalize away accumulated float error so the 1e-12 row-sum
        # validation never trips on an exactly-valid input.
        transition = transition / transition.sum(axis=1, keepdims=True)
        means = np.clip(np.einsum("xa,xa->x", probs, mdp.reward.means), 0.0, 1.0)
    return MarkovChain(transition, RewardModel(means, mdp.reward.mode))


@dataclass
class SampleLedger:
    """Monotone counters of generative-model and expert-model calls."""

    generative_calls: int = 0
    expert_calls: int = 0

    def add_generative(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("ledger increments must be non-negative")
        self.generative_calls += int(n)

    def add_expert(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("ledger increments must be non-negative")
        self.expert_calls += int(n)
