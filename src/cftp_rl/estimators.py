"""Unbiased Monte-Carlo estimators built from coalescing trajectory pairs.

Both estimators share one mechanism: draw a stationary start state, launch
two trajectories that differ only in their first action, let both follow
the same policy afterwards with independent transitions and independently
sampled rewards, and accumulate the per-step difference until the
trajectories occupy the same state. The expected accumulated difference is
a Q-value difference, which yields the average-reward gap between policies
and, combined with the score function, the policy gradient.
"""

from __future__ import annotations

import numpy as np

from .chains import (
    DeterministicPolicy,
    SampleLedger,
    StochasticPolicy,
    TabularMDP,
    cdf_table,
    induce_chain,
    inverse_cdf,
    policy_matrix,
)
from .errors import CapExceededError
from .sampling import _pair_walk, _require_count, cftp_batch
from .seeding import as_generator
from .solvers import policy_evaluation, require_coalescing_policy, stationary_distribution


class SoftmaxPolicy:
    """Tabular softmax parametrization: pi(a|s) = exp(theta[s,a]) / sum_b exp(theta[s,b])."""

    def __init__(self, theta: np.ndarray):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 2:
            raise ValueError("theta must have shape (n_states, n_actions)")
        self.theta = theta.copy()
        shifted = np.exp(theta - theta.max(axis=1, keepdims=True))
        self.probs = shifted / shifted.sum(axis=1, keepdims=True)

    def as_policy(self) -> StochasticPolicy:
        return StochasticPolicy(self.probs)

    def grad_log(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """d log pi(states[i], actions[i]) / d theta for each i, shape (len(states), S, A)."""
        rows = np.arange(len(states))
        grads = np.zeros((len(states),) + self.theta.shape)
        grads[rows, states, :] = -self.probs[states]
        grads[rows, states, actions] += 1.0
        return grads


def coupled_difference_batch(
    mdp: TabularMDP,
    s0: np.ndarray,
    first_actions_a: np.ndarray,
    first_actions_b: np.ndarray,
    draw_actions,
    rng,
    value: str = "reward",
    step_cap: int = 1_000_000,
    ledger: SampleLedger | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulated A-minus-B differences over coalescing trajectory pairs.

    Trajectory A starts with ``first_actions_a`` at ``s0``, B with
    ``first_actions_b``; afterwards both draw actions via ``draw_actions``
    (a callable mapping a state batch to an action batch). Transitions and
    reward samples are independent between the trajectories; accumulation
    stops once a pair occupies the same state after a synchronized step.

    ``value="reward"`` accumulates reward samples, returning shape (n,);
    ``value="features"`` accumulates feature vectors, returning (n, k).

    The pairs charge ``ledger`` as ``sampling._pair_walk`` charges, also
    when they then raise. ``draw_actions`` hides the policy, so no chain is
    checked here: only ``step_cap`` bounds pairs that can never meet
    (CapExceededError).
    """
    gen = as_generator(rng)
    s0 = np.asarray(s0, dtype=np.int64)
    step_uniforms = 0
    if value == "reward":
        reward = mdp.reward
        means = reward.means.ravel()  # entry s * n_actions + a, as the walk indexes
        step_uniforms = reward.uniforms_per_entry
        acc = np.zeros(s0.shape[0])

        def on_step(active, xy, index, u):
            r = reward.sample_from(means[index], u)
            acc[active] += r[: active.size] - r[active.size :]

    elif value == "features":
        feats = mdp.features
        if feats is None:
            raise ValueError("feature accumulation requires an MDP with features")
        acc = np.zeros((s0.shape[0], feats.shape[1]))

        def on_step(active, xy, index, u):
            f = feats[xy]
            acc[active] += f[0] - f[1]

    else:
        raise ValueError(f"unknown value kind {value!r}")
    t_c, apart = _pair_walk(
        mdp.cumulative(), np.array((s0, s0)),
        np.array((first_actions_a, first_actions_b), dtype=np.int64),
        draw_actions, gen, step_cap, on_step, step_uniforms, ledger,
    )
    if apart.size:
        raise CapExceededError(f"trajectories did not coalesce within {step_cap} steps")
    return acc, t_c


def policy_action_drawer(policy, mdp: TabularMDP, gen: np.random.Generator):
    """Batched action sampler for a deterministic or stochastic policy."""
    if isinstance(policy, DeterministicPolicy):
        actions = policy.actions

        def draw(states: np.ndarray) -> np.ndarray:
            return actions[states]

    else:
        cum = cdf_table(policy_matrix(policy, mdp))

        def draw(states: np.ndarray) -> np.ndarray:
            return inverse_cdf(cum, states, gen.random(states.shape[0]))

    return draw


def delta_rho_batch(
    mdp: TabularMDP,
    pi,
    pi_prime,
    n_samples: int,
    rng,
    s0_source: str = "exact_solve",
    step_cap: int = 1_000_000,
    ledger: SampleLedger | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Independent samples whose mean is rho(pi_prime) - rho(pi).

    Start states follow the stationary distribution of ``pi_prime`` (exact
    linear solve, or CFTP when only sampling access is wanted); trajectory A
    takes pi_prime's action first, B takes pi's, and both follow ``pi``.
    The pairs charge ``ledger``, and so does a CFTP start.

    Raises ValueError before any check or draw for a negative
    ``n_samples`` or ``step_cap``; NonErgodicError before drawing when
    ``pi``'s chain, which the pairs follow, cannot coalesce
    (``MarkovChain.require_coalescing``); CapExceededError when a pair has
    not met within ``step_cap`` steps.
    A deterministic ``pi`` that passes gets a ``solvers.policy_evaluation``
    entry, which solves nothing, and is not checked again on that MDP. An
    exact start law for a deterministic ``pi_prime`` is its entry's
    ``mu_cdf``, solved once per MDP; a stochastic one is solved per call.
    """
    _require_count(n_samples, "n_samples")
    _require_count(step_cap, "step_cap")
    require_coalescing_policy(mdp, pi)
    gen = as_generator(rng)
    if s0_source == "exact_solve":
        if isinstance(pi_prime, DeterministicPolicy):
            cum = policy_evaluation(mdp, pi_prime).mu_cdf
        else:
            cum = cdf_table(stationary_distribution(induce_chain(mdp, pi_prime)))[None, :]
        s0 = inverse_cdf(cum, np.zeros(n_samples, dtype=np.int64), gen.random(n_samples))
    elif s0_source == "cftp":
        s0, _ = cftp_batch(induce_chain(mdp, pi_prime), n_samples, gen, step_cap=step_cap, ledger=ledger)
    else:
        raise ValueError(f"unknown start-state source {s0_source!r}")
    draw_pi = policy_action_drawer(pi, mdp, gen)
    draw_pi_prime = policy_action_drawer(pi_prime, mdp, gen)
    values, t_c = coupled_difference_batch(
        mdp,
        s0,
        draw_pi_prime(s0),
        draw_pi(s0),
        draw_pi,
        gen,
        value="reward",
        step_cap=step_cap,
        ledger=ledger,
    )
    return values, t_c


def policy_gradient_batch(
    mdp: TabularMDP,
    policy: SoftmaxPolicy,
    n_samples: int,
    rng,
    step_cap: int = 1_000_000,
    ledger: SampleLedger | None = None,
) -> np.ndarray:
    """Independent gradient samples with mean d rho / d theta, shape (n, S, A).

    Each sample: s from the stationary distribution of the policy via CFTP,
    two actions drawn independently from pi(s), a coalescing-pair estimate
    of their Q-value difference, times the score d log pi(s, a) / d theta.
    The second trajectory acts as a mean-zero baseline, so only the first
    action's score enters.

    The start-state CFTP and the pairs charge ``ledger``. Raises ValueError
    before any check or draw for a negative ``n_samples``; NonErgodicError
    before drawing when the policy's chain cannot coalesce
    (``MarkovChain.require_coalescing``); CapExceededError when a
    start-state CFTP or a pair runs ``step_cap`` steps.
    """
    _require_count(n_samples, "n_samples")
    stoch = policy.as_policy()
    gen = as_generator(rng)
    s0, _ = cftp_batch(induce_chain(mdp, stoch), n_samples, gen, step_cap=step_cap, ledger=ledger)
    draw = policy_action_drawer(stoch, mdp, gen)
    a_main = draw(s0)
    a_base = draw(s0)
    q_hat, _ = coupled_difference_batch(
        mdp, s0, a_main, a_base, draw, gen, value="reward", step_cap=step_cap, ledger=ledger
    )
    return policy.grad_log(s0, a_main) * q_hat[:, None, None]
