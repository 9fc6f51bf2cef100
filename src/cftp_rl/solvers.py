"""Exact linear-algebra solvers for chains and MDP policies with one aperiodic closed class.

These are the ground-truth oracles every stochastic estimator in the
package is validated against: stationary distribution, average reward,
bias and Q-values (Poisson equation), mixing time by exact distribution
iteration, and average-reward policy iteration. They accept exactly what
the samplers accept (``MarkovChain.require_coalescing``), transient states
included. Each MDP has one per-policy cache: a lazily filled
``PolicyEvaluation`` per deterministic policy that passed the coalescing
check, reached only through ``policy_evaluation``.

scipy's LAPACK wrappers (``dgetrf``/``dgetrs``, for the bias solve) are
imported on first use by ``_lapack``, not with this module: importing
``scipy.linalg`` took about 0.1-0.14 s of a 0.3 s ``import cftp_rl`` on a
2-core AMD EPYC, and the samplers never solve a linear system through it.
Without it and ``scipy.optimize`` the package imports in about 0.05 s.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chains import DeterministicPolicy, MarkovChain, TabularMDP, cdf_table, induce_chain
from .errors import CapExceededError, SolveError

STATIONARY_TOL = 1e-10
MIXING_THRESHOLD = 1.0 / 8.0
# Policy improvement keeps any action whose Q-value is within this of the
# state's best, and takes the lowest such index (``improved_actions``).
IMPROVEMENT_TOL = 1e-10


@functools.cache
def _lapack():
    """``scipy.linalg.lapack``, imported on the first call and then cached.

    ``bias_and_q`` calls this thousands of times per policy-iteration run;
    the cached call costs about 20 ns, a function-level import about 150 ns.
    """
    from scipy.linalg import lapack

    return lapack


def stationary_distribution(chain: MarkovChain) -> np.ndarray:
    """Unique mu with mu^T P = mu^T, sum(mu) = 1: > 0 on the closed class, exactly 0 off it.

    Solves (P_C^T - I) mu_C = 0 on the one closed class C (``require_coalescing``)
    with the last equation replaced by the normalization constraint. Dense
    and exact; this layer is the oracle.
    """
    return _stationary_on(chain.transition, chain.require_coalescing())


def _stationary_on(transition: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``stationary_distribution`` of ``transition``, given its closed class's mask."""
    m = int(mask.sum())
    a = transition[np.ix_(mask, mask)].T - np.eye(m)
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    try:
        mu_class = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolveError("stationary solve is singular") from exc
    mu = np.zeros(transition.shape[0])
    mu[mask] = mu_class
    residual = np.max(np.abs(mu @ transition - mu))
    if residual > STATIONARY_TOL or np.any(mu_class <= 0.0):
        raise SolveError(f"stationary solve residual {residual:.3g} beyond tolerance")
    return mu


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Half the L1 distance between two distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same length")
    for name, vec in (("p", p), ("q", q)):
        if not ((vec >= 0.0).all() and abs(vec.sum() - 1.0) <= 1e-9):
            raise ValueError(f"{name} is not a normalized distribution")
    return 0.5 * float(np.abs(p - q).sum())


def mixing_time(chain: MarkovChain, cap: int = 100_000) -> int:
    """Smallest t with max over starts of TV(delta_x P^t, mu) <= 1/8.

    Computed by exact distribution iteration; raises CapExceededError when
    ``cap`` steps do not suffice (slow mixing or near-periodic structure).
    """
    mu = stationary_distribution(chain)
    dist = np.eye(chain.n_states)
    for t in range(1, cap + 1):
        dist = dist @ chain.transition
        worst = 0.5 * np.abs(dist - mu).sum(axis=1).max()
        if worst <= MIXING_THRESHOLD:
            return t
    raise CapExceededError(f"chain did not mix within {cap} steps")


def average_reward(chain: MarkovChain) -> float:
    """rho = sum_s mu(s) r(s) using the exact stationary distribution."""
    mu = stationary_distribution(chain)
    return float(mu @ chain.reward.means)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class PolicyEvaluation:
    """What is known about one deterministic policy of an MDP, each field built on first read.

    An entry holds only the mask of its induced chain's closed class, which
    the coalescing check returned, until a field is read. Each field is a
    ``functools.cached_property``: computed at most once, a plain attribute
    read afterwards, read-only; a computation that raises (SolveError for a
    singular solve) stores nothing. ``lu``/``piv`` is scipy's ``dgetrf``
    factor of I - P + 1 mu^T for the induced chain P, reached through
    ``_lapack``, so scipy loads at the first factor, not at import.
    """

    mdp: TabularMDP
    policy: DeterministicPolicy
    mask: np.ndarray

    def _transition(self) -> np.ndarray:
        """The induced chain's transition matrix P."""
        return self.mdp.transition[self.policy.actions, np.arange(self.mdp.n_states)]

    @functools.cached_property
    def mu(self) -> np.ndarray:
        """Stationary distribution of P (``stationary_distribution``), solved on ``mask``."""
        return _read_only(_stationary_on(self._transition(), self.mask))

    @functools.cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.mdp.n_states
        p = self._transition()
        lu, piv, info = _lapack().dgetrf(np.eye(n) - p + np.outer(np.ones(n), self.mu))
        if info != 0:
            raise SolveError("bias solve is singular")
        return _read_only(lu), _read_only(piv)

    lu = functools.cached_property(lambda self: self._factor[0])
    piv = functools.cached_property(lambda self: self._factor[1])

    @functools.cached_property
    def mu_cdf(self) -> np.ndarray:
        """mu's ``cdf_table`` as a one-row table; ``inverse_cdf`` draws start states from row 0."""
        return _read_only(cdf_table(self.mu[None, :]))

    @functools.cached_property
    def phi(self) -> np.ndarray:
        """Feature expectations Phi = mu @ features of an MDP with features."""
        return _read_only(self.mu @ self.mdp.features)

    @functools.cached_property
    def q_features(self) -> np.ndarray:
        """``state_reward_q`` for the MDP's features: times w, the Q-table of the reward phi . w."""
        return _read_only(state_reward_q(self.mdp, self.policy, self.mdp.features))


def policy_evaluation(mdp: TabularMDP, policy: DeterministicPolicy) -> PolicyEvaluation:
    """The entry of ``policy`` in the MDP's one per-policy cache, ``mdp.policy_evaluations``.

    A missing entry is made, holding the closed-class mask and no solve,
    once the induced chain passes ``MarkovChain.require_coalescing``; a
    failed check inserts nothing and raises on every call. Keyed by
    ``policy.key()``; lives as long as the MDP.
    """
    evaluation = mdp.policy_evaluations.get(policy.key())
    if evaluation is None:
        mask = induce_chain(mdp, policy).require_coalescing()
        evaluation = mdp.policy_evaluations[policy.key()] = PolicyEvaluation(mdp, policy, mask)
    return evaluation


def require_coalescing_policy(mdp: TabularMDP, policy) -> None:
    """Raise unless CFTP's maps coalesce on the chain ``policy`` induces.

    ValueError for an action index outside the MDP (``induce_chain``),
    NonErgodicError when the chain has no single aperiodic closed class
    (``MarkovChain.require_coalescing``); transient states are accepted. A
    deterministic policy that passes gets its ``policy_evaluation`` entry,
    which keeps the mask and solves nothing, and is not checked again.
    """
    if isinstance(policy, DeterministicPolicy):
        policy_evaluation(mdp, policy)
    else:
        induce_chain(mdp, policy).require_coalescing()


def bias_and_q(
    mdp: TabularMDP,
    policy: DeterministicPolicy,
    reward: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Gain rho, bias h, and Q-values of a deterministic policy.

    h solves (I - P) h = r - rho with the normalization E_mu[h] = 0, the one
    under which h(s) equals the convergent series of expected differential
    rewards from s. Uses the nonsingular system (I - P + 1 mu^T) h = r - rho,
    whose solution automatically satisfies mu^T h = 0.

    Q(s, a) = r(s, a) - rho + sum_s' P^a(s, s') h(s').

    ``reward`` replaces the MDP's (n_states, n_actions) reward means. mu
    and the LU factor come from ``policy_evaluation``, so a repeat call on
    the same MDP and policy costs one back-substitution plus the Q
    contraction, whatever the reward.
    """
    evaluation = policy_evaluation(mdp, policy)
    if reward is None:
        reward = mdp.reward.means
    else:
        reward = np.asarray(reward, dtype=float)
        if reward.shape != (mdp.n_states, mdp.n_actions):
            raise ValueError("reward must have shape (n_states, n_actions)")
    r_pi = reward[np.arange(mdp.n_states), policy.actions]
    rho = float(evaluation.mu @ r_pi)
    h, _ = _lapack().dgetrs(evaluation.lu, evaluation.piv, r_pi - rho)
    q = reward - rho + np.einsum("axy,y->xa", mdp.transition, h)
    return rho, h, q


def state_reward_q(mdp: TabularMDP, policy: DeterministicPolicy, rewards: np.ndarray) -> np.ndarray:
    """Q-tables of ``policy`` for k per-state rewards at once, shape (n_states * n_actions, k).

    Column j, at row s * n_actions + a, is the Q(s, a) that ``bias_and_q``
    gives for the reward ``rewards[:, j]`` repeated across actions. One
    ``dgetrs`` call solves all k bias systems on the policy's cached LU
    factor. Q is linear in the reward, so the table times a weight vector w
    is the Q-table of the per-state reward ``rewards @ w``.
    """
    evaluation = policy_evaluation(mdp, policy)
    rewards = np.asarray(rewards, dtype=float)
    if rewards.ndim != 2 or rewards.shape[0] != mdp.n_states:
        raise ValueError("rewards must have shape (n_states, k)")
    centred = rewards - evaluation.mu @ rewards
    h, _ = _lapack().dgetrs(evaluation.lu, evaluation.piv, centred)
    q = centred[:, None, :] + np.einsum("axy,yk->xak", mdp.transition, h)
    return q.reshape(mdp.n_states * mdp.n_actions, -1)


def improved_actions(q: np.ndarray) -> np.ndarray:
    """Policy iteration's improvement rule on (..., n_states, n_actions) Q-tables.

    Per state, the lowest action index whose Q-value is within
    ``IMPROVEMENT_TOL`` of the state's best.
    """
    return np.argmax(q >= q.max(axis=-1, keepdims=True) - IMPROVEMENT_TOL, axis=-1)


def keeps_actions(q: list[float], actions: list[int], n_actions: int) -> bool:
    """Whether ``improved_actions`` keeps ``actions``, on a flat Q-table of Python floats.

    ``q`` is a finite (n_states * n_actions) table in row-major order, as
    ``q.ravel().tolist()``; the answer is that of
    ``(improved_actions(q.reshape(n_states, n_actions)) == actions).all()``,
    from the same comparisons, without a numpy call per state. It costs a
    few Python steps per state, so it beats the numpy form only on small
    tables. With Q_F . w and its ``tolist()``, on a 2-core Intel Xeon, it
    took 3.5 us against numpy's 7.4 us at 4 x 2, 10 against 8 at 16 x 4,
    30 against 11 at 50 x 4 and 550 against 65 at 1000 x 4.
    """
    start = 0
    for action in actions:
        row = q[start : start + n_actions]
        start += n_actions
        threshold = max(row) - IMPROVEMENT_TOL
        # An earlier action at the threshold would be argmax's first pick.
        if not row[action] >= threshold or (action and max(row[:action]) >= threshold):
            return False
    return True


def optimal_policy(
    mdp: TabularMDP,
    reward_override: np.ndarray | None = None,
    max_iterations: int = 1000,
    start: DeterministicPolicy | None = None,
) -> DeterministicPolicy:
    """Average-reward Howard policy iteration with exact gain/bias solves.

    ``reward_override`` replaces the MDP's reward with a per-state reward
    (the action only affects dynamics), clipped to [0, 1]. Iteration starts
    from ``start`` (default: action 0 everywhere); every policy visited
    must induce one aperiodic closed class, with transient states allowed.
    Each iteration is one ``bias_and_q`` call on the MDP's policy-evaluation
    cache and one ``improved_actions`` step, whose ties break toward the
    lowest action index. The returned policy is certified
    by a one-step improvement test on its own Q-values; failure to certify
    raises SolveError.
    """
    reward = None
    if reward_override is not None:
        reward_override = np.asarray(reward_override, dtype=float)
        if reward_override.shape != (mdp.n_states,):
            raise ValueError("reward_override must have one entry per state")
        reward = np.repeat(np.clip(reward_override, 0.0, 1.0)[:, None], mdp.n_actions, axis=1)

    policy = DeterministicPolicy(np.zeros(mdp.n_states, dtype=int)) if start is None else start
    seen = {policy.key()}
    for _ in range(max_iterations):
        _, _, q = bias_and_q(mdp, policy, reward)
        improved = DeterministicPolicy(improved_actions(q))
        if improved == policy:
            break
        if improved.key() in seen:
            # Exact ties can cycle between equal-gain policies; keep the
            # current one, which the certificate below still has to pass.
            break
        seen.add(improved.key())
        policy = improved
    else:
        raise CapExceededError(f"policy iteration did not converge in {max_iterations} iterations")

    # q holds the Q-values of ``policy``: both exits above leave it unchanged.
    slack = q[np.arange(mdp.n_states), policy.actions] - q.max(axis=1)
    if slack.min() < -1e-8:
        raise SolveError("policy iteration certificate failed: one-step improvement exists")
    return policy
