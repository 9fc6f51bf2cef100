import itertools

import numpy as np
import pytest

from cftp_rl.chains import (
    DeterministicPolicy,
    MarkovChain,
    RewardModel,
    TabularMDP,
    induce_chain,
)
from cftp_rl.errors import CapExceededError, NonErgodicError
from cftp_rl.instances import random_ergodic_chain, random_mdp, two_state_chain
from cftp_rl.sampling import lower_bound_chain
from cftp_rl.solvers import (
    average_reward,
    bias_and_q,
    mixing_time,
    optimal_policy,
    stationary_distribution,
    total_variation,
)


class TestStationaryDistribution:
    def test_example_chain(self):
        mu = stationary_distribution(two_state_chain())
        assert np.allclose(mu, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_doubly_stochastic_chain_is_uniform(self):
        p = np.array(
            [
                [0.5, 0.3, 0.2],
                [0.2, 0.5, 0.3],
                [0.3, 0.2, 0.5],
            ]
        )
        chain = MarkovChain(p, RewardModel(np.zeros(3)))
        assert np.allclose(stationary_distribution(chain), np.full(3, 1 / 3), atol=1e-12)

    def test_lazy_uniform_chain_is_uniform(self):
        chain = lower_bound_chain(20, 0.1)
        assert np.allclose(stationary_distribution(chain), np.full(20, 0.05), atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_fixed_point_invariant_on_random_chains(self, seed):
        chain = random_ergodic_chain(2 + seed, rng=seed)
        mu = stationary_distribution(chain)
        assert np.max(np.abs(mu @ chain.transition - mu)) <= 1e-10
        assert np.all(mu > 0)
        assert abs(mu.sum() - 1.0) < 1e-12

    def test_non_ergodic_chain_rejected(self):
        chain = MarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]]), RewardModel(np.zeros(2)))
        with pytest.raises(NonErgodicError):
            stationary_distribution(chain)


class TestTotalVariation:
    def test_identical_distributions(self):
        p = np.array([0.4, 0.6])
        assert total_variation(p, p) == 0.0

    def test_disjoint_support(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_direct_sum_value(self):
        # Oracle by hand: 0.5 * (|2/3 - 1| + |1/3 - 0|) = 1/3.
        got = total_variation(np.array([2 / 3, 1 / 3]), np.array([1.0, 0.0]))
        assert abs(got - 1.0 / 3.0) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            total_variation(np.array([1.0]), np.array([0.5, 0.5]))

    def test_unnormalized_input(self):
        with pytest.raises(ValueError, match="normalized"):
            total_variation(np.array([0.7, 0.7]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="normalized"):
            total_variation(np.array([bad, 0.5]), np.array([0.5, 0.5]))


def brute_force_mixing_time(chain, cap=1000):
    """Independent oracle: per-start distribution iteration with plain loops."""
    mu = stationary_distribution(chain)
    worst_t = 0
    for start in range(chain.n_states):
        dist = np.zeros(chain.n_states)
        dist[start] = 1.0
        for t in range(1, cap + 1):
            dist = dist @ chain.transition
            if 0.5 * np.abs(dist - mu).sum() <= 1 / 8:
                worst_t = max(worst_t, t)
                break
        else:
            raise AssertionError("oracle cap exceeded")
    # The worst start can dip under 1/8 later than others; rescan globally.
    for t in itertools.count(1):
        dists = np.linalg.matrix_power(chain.transition, t)
        if all(0.5 * np.abs(dists[s] - mu).sum() <= 1 / 8 for s in range(chain.n_states)):
            return t
        if t > cap:
            raise AssertionError("oracle cap exceeded")


class TestMixingTime:
    def test_rank_one_chain_mixes_in_one_step(self, uniform_chain):
        assert mixing_time(uniform_chain(4)) == 1

    def test_example_chain_value(self):
        chain = two_state_chain()
        oracle = brute_force_mixing_time(chain)
        assert mixing_time(chain) == oracle == 3

    def test_lazy_chain_upper_bound(self):
        # Mixing threshold 1/8 within 3 / epsilon steps.
        chain = lower_bound_chain(20, 0.1)
        t = mixing_time(chain)
        assert t <= 30
        assert t == brute_force_mixing_time(chain)

    @pytest.mark.parametrize("seed", range(4))
    def test_threshold_is_tight(self, seed):
        chain = random_ergodic_chain(5, rng=100 + seed, concentration=0.3)
        mu = stationary_distribution(chain)
        t = mixing_time(chain)
        at_t = np.linalg.matrix_power(chain.transition, t)
        assert max(0.5 * np.abs(at_t[s] - mu).sum() for s in range(5)) <= 1 / 8
        if t > 1:
            before = np.linalg.matrix_power(chain.transition, t - 1)
            assert max(0.5 * np.abs(before[s] - mu).sum() for s in range(5)) > 1 / 8

    def test_cap_exceeded(self):
        chain = lower_bound_chain(10, 0.001)
        with pytest.raises(CapExceededError):
            mixing_time(chain, cap=5)


class TestAverageReward:
    def test_example_chain(self):
        assert abs(average_reward(two_state_chain()) - 2.0 / 3.0) < 1e-12

    def test_constant_reward(self):
        chain = MarkovChain(
            np.array([[0.5, 0.5], [0.25, 0.75]]), RewardModel(np.array([0.3, 0.3]))
        )
        assert abs(average_reward(chain) - 0.3) < 1e-12

    def test_against_long_run_simulation(self):
        chain = random_ergodic_chain(5, rng=42, reward_mode="mean")
        rho = average_reward(chain)
        rng = np.random.default_rng(7)
        cum = chain.cumulative()
        n_steps = 1_000_000
        state = 0
        u = rng.random(n_steps)
        total = 0.0
        for t in range(n_steps):
            total += chain.reward.means[state]
            state = int(np.searchsorted(cum[state], u[t], side="right"))
        sample_mean = total / n_steps
        # Autocorrelated chain: allow a generous effective-sample-size cut.
        se = chain.reward.means.std() / np.sqrt(n_steps / 20)
        assert abs(sample_mean - rho) < 3 * se


def truncated_bias_series(mdp, policy, horizon=200):
    """Oracle: partial sums of expected differential rewards, exactly."""
    chain = induce_chain(mdp, policy)
    mu = stationary_distribution(chain)
    rho = float(mu @ chain.reward.means)
    dist = np.eye(mdp.n_states)
    acc = np.zeros(mdp.n_states)
    for _ in range(horizon):
        acc += dist @ chain.reward.means - rho
        dist = dist @ chain.transition
    return rho, acc


class TestBiasAndQ:
    def test_single_state_mdp(self):
        transition = np.ones((2, 1, 1))
        mdp = TabularMDP(transition, RewardModel(np.array([[0.9, 0.4]])))
        rho, h, q = bias_and_q(mdp, DeterministicPolicy(np.array([0])))
        assert abs(rho - 0.9) < 1e-12
        assert abs(h[0]) < 1e-12
        assert np.allclose(q[0], [0.0, -0.5], atol=1e-12)

    def test_bias_matches_truncated_series(self):
        transition = np.array([[[0.5, 0.5], [1.0, 0.0]]])
        mdp = TabularMDP(transition, RewardModel(np.array([[1.0], [0.0]])))
        policy = DeterministicPolicy(np.array([0, 0]))
        rho, h, q = bias_and_q(mdp, policy)
        rho_oracle, h_oracle = truncated_bias_series(mdp, policy)
        assert abs(rho - rho_oracle) < 1e-10
        assert np.allclose(h, h_oracle, atol=1e-8)
        assert np.allclose(q[:, 0], h, atol=1e-10)

    def test_bias_normalization_is_stationary_mean_zero(self):
        mdp = random_mdp(4, 2, rng=5)
        policy = DeterministicPolicy(np.array([0, 1, 0, 1]))
        _, h, _ = bias_and_q(mdp, policy)
        mu = stationary_distribution(induce_chain(mdp, policy))
        assert abs(mu @ h) < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_reward_difference_identity(self, seed):
        # For all deterministic pairs: rho(pi') - rho(pi) equals the
        # stationary expectation under pi' of Q_pi(s, pi'(s)) - Q_pi(s, pi(s)).
        mdp = random_mdp(4, 3, rng=200 + seed)
        policies = [
            DeterministicPolicy(np.array(acts))
            for acts in itertools.product(range(3), repeat=4)
        ]
        solved = {}
        for pi in policies:
            rho, _, q = bias_and_q(mdp, pi)
            mu = stationary_distribution(induce_chain(mdp, pi))
            solved[pi.key()] = (rho, q, mu)
        idx = np.arange(4)
        for pi in policies[:: 9]:
            rho_pi, q_pi, _ = solved[pi.key()]
            for pi_prime in policies[:: 7]:
                rho_prime, _, mu_prime = solved[pi_prime.key()]
                gap = mu_prime @ (q_pi[idx, pi_prime.actions] - q_pi[idx, pi.actions])
                assert abs(gap - (rho_prime - rho_pi)) < 1e-8


def enumerate_best_policy(mdp):
    """Oracle: exhaustive enumeration by exact average reward."""
    best_value, best_keys = -np.inf, set()
    for actions in itertools.product(range(mdp.n_actions), repeat=mdp.n_states):
        policy = DeterministicPolicy(np.array(actions))
        rho = average_reward(induce_chain(mdp, policy))
        if rho > best_value + 1e-10:
            best_value, best_keys = rho, {actions}
        elif rho > best_value - 1e-10:
            best_keys.add(actions)
    return best_value, best_keys


class TestOptimalPolicy:
    def test_single_action_mdp(self):
        mdp = random_mdp(3, 1, rng=0)
        assert optimal_policy(mdp).key() == (0, 0, 0)

    def test_dominant_action_everywhere(self):
        shared = np.array([[0.4, 0.6], [0.7, 0.3]])
        mdp = TabularMDP(
            np.stack([shared, shared]),
            RewardModel(np.array([[0.2, 0.9], [0.1, 0.8]])),
        )
        assert optimal_policy(mdp).key() == (1, 1)

    @pytest.mark.parametrize(
        "n_states,n_actions,seed",
        [(4, 3, 1), (4, 3, 2), (3, 3, 3), (4, 2, 4), (6, 2, 5), (2, 3, 6)],
    )
    def test_matches_enumeration(self, n_states, n_actions, seed):
        mdp = random_mdp(n_states, n_actions, rng=300 + seed)
        best_value, best_keys = enumerate_best_policy(mdp)
        found = optimal_policy(mdp)
        assert found.key() in best_keys
        assert abs(average_reward(induce_chain(mdp, found)) - best_value) < 1e-9

    def test_ties_break_to_lowest_action_index(self):
        # Two identical actions: every policy is optimal; canonical answer is action 0.
        shared = np.array([[0.5, 0.5], [0.5, 0.5]])
        mdp = TabularMDP(
            np.stack([shared, shared]),
            RewardModel(np.array([[0.5, 0.5], [0.5, 0.5]])),
        )
        assert optimal_policy(mdp).key() == (0, 0)

    def test_reward_override_changes_the_answer(self):
        mdp = random_mdp(3, 2, rng=77)
        override = np.array([1.0, 0.0, 0.0])
        policy = optimal_policy(mdp, reward_override=override)
        # The chosen policy maximizes stationary mass on state 0.
        best_mass, best = -1.0, None
        for actions in itertools.product(range(2), repeat=3):
            candidate = DeterministicPolicy(np.array(actions))
            mass = stationary_distribution(induce_chain(mdp, candidate))[0]
            if mass > best_mass + 1e-12:
                best_mass, best = mass, candidate.key()
        assert policy.key() == best


class TestUnichainOracles:
    """The exact oracles on MDPs whose policies have one aperiodic closed class and transient states."""

    @pytest.mark.parametrize("n_states,n_actions,seed", [(3, 2, 1), (4, 2, 7), (5, 2, 3), (4, 3, 4), (6, 2, 5)])
    def test_identities_hold_with_transient_states(self, unichain_mdp, n_states, n_actions, seed):
        mdp = unichain_mdp(n_states, n_actions, seed)
        idx = np.arange(n_states)
        transient = 0
        for actions in itertools.product(range(n_actions), repeat=n_states):
            policy = DeterministicPolicy(np.array(actions))
            chain = induce_chain(mdp, policy)
            mu = stationary_distribution(chain)
            mask = chain.closed_class()[0]
            assert (mu[~mask] == 0.0).all() and (mu[mask] > 0.0).all()
            transient += not mask.all()
            rho, h, _ = bias_and_q(mdp, policy)
            r = mdp.reward.means[idx, policy.actions]
            assert np.max(np.abs(h - chain.transition @ h - (r - rho))) <= 1e-10
            assert abs(mu @ h) <= 1e-12
        assert transient > 0
        best_value, best_keys = enumerate_best_policy(mdp)
        found = optimal_policy(mdp)
        assert found.key() in best_keys
        assert abs(bias_and_q(mdp, found)[0] - best_value) <= 1e-10
