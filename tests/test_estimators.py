from unittest import mock

import numpy as np
import pytest

from cftp_rl import chains, estimators
from cftp_rl.apprenticeship import ExpertModel, game_column_batch
from cftp_rl.chains import (
    DeterministicPolicy,
    MarkovChain,
    RewardModel,
    SampleLedger,
    StochasticPolicy,
    TabularMDP,
    cdf_table,
    induce_chain,
)
from cftp_rl.errors import CapExceededError, NonErgodicError
from cftp_rl.estimators import (
    SoftmaxPolicy,
    coupled_difference_batch,
    delta_rho_batch,
    policy_gradient_batch,
)
from cftp_rl.instances import random_mdp
from cftp_rl.sampling import cftp_batch, coalescence_times_batch, lower_bound_chain
from cftp_rl.solvers import average_reward, mixing_time, stationary_distribution


def exact_rho(mdp, policy):
    return average_reward(induce_chain(mdp, policy))


def exact_rho_theta(mdp, theta):
    return exact_rho(mdp, SoftmaxPolicy(theta).as_policy())


def finite_difference_gradient(mdp, theta, step=1e-5):
    """Central differences of the exact average reward in theta."""
    grad = np.zeros_like(theta)
    for s in range(theta.shape[0]):
        for a in range(theta.shape[1]):
            up = theta.copy()
            up[s, a] += step
            down = theta.copy()
            down[s, a] -= step
            grad[s, a] = (exact_rho_theta(mdp, up) - exact_rho_theta(mdp, down)) / (2 * step)
    return grad


def single_state_mdp(means=(0.9, 0.4)):
    transition = np.ones((len(means), 1, 1))
    return TabularMDP(transition, RewardModel(np.array([list(means)])))


class TestSoftmaxPolicy:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        policy = SoftmaxPolicy(rng.normal(size=(4, 3)) * 3)
        assert np.allclose(policy.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_grad_log_matches_numerical_derivative(self):
        rng = np.random.default_rng(1)
        theta = rng.normal(size=(3, 2))
        policy = SoftmaxPolicy(theta)
        # Every (state, action) pair once, and state 1 a second time.
        states = np.array([0, 0, 1, 1, 2, 2, 1])
        actions = np.array([0, 1, 0, 1, 0, 1, 0])
        analytic = policy.grad_log(states, actions)
        assert analytic.shape == (states.size, 3, 2)
        step = 1e-6
        for i, (s, a) in enumerate(zip(states, actions)):
            for sp in range(3):
                for b in range(2):
                    up = theta.copy()
                    up[sp, b] += step
                    down = theta.copy()
                    down[sp, b] -= step
                    numeric = (
                        np.log(SoftmaxPolicy(up).probs[s, a])
                        - np.log(SoftmaxPolicy(down).probs[s, a])
                    ) / (2 * step)
                    assert abs(analytic[i, sp, b] - numeric) < 1e-6

    def test_extreme_parameters_stay_finite(self):
        policy = SoftmaxPolicy(np.array([[1000.0, -1000.0]]))
        assert np.isfinite(policy.probs).all()
        assert abs(policy.probs[0, 0] - 1.0) < 1e-12


class TestDeltaRho:
    def test_same_deterministic_policy_first_actions_coincide(self):
        mdp = random_mdp(3, 2, rng=0)
        pi = DeterministicPolicy(np.array([0, 1, 0]))
        values, _ = delta_rho_batch(mdp, pi, pi, 20_000, rng=1)
        se = values.std() / np.sqrt(values.size)
        assert abs(values.mean()) < 3 * max(se, 1e-12)

    def test_single_state_two_actions(self):
        mdp = single_state_mdp()
        pi_prime = DeterministicPolicy(np.array([0]))
        pi = DeterministicPolicy(np.array([1]))
        values, t_c = delta_rho_batch(mdp, pi, pi_prime, 20_000, rng=2)
        assert (t_c == 1).all()  # single state: pairs meet after one step
        assert set(np.unique(values)).issubset({-1.0, 0.0, 1.0})
        se = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - 0.5) < 3 * se

    @pytest.mark.parametrize("s0_source", ["exact_solve", "cftp"])
    @pytest.mark.parametrize("seed", range(3))
    def test_unbiased_against_exact_gap(self, s0_source, seed):
        rng = np.random.default_rng(500 + seed)
        mdp = random_mdp(4, 2, rng=600 + seed)
        pi = DeterministicPolicy(rng.integers(0, 2, size=4))
        pi_prime = DeterministicPolicy(rng.integers(0, 2, size=4))
        truth = exact_rho(mdp, pi_prime) - exact_rho(mdp, pi)
        values, _ = delta_rho_batch(mdp, pi, pi_prime, 40_000, rng=seed, s0_source=s0_source)
        se = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - truth) < 3 * se

    @pytest.mark.parametrize("s0_source", ["exact_solve", "cftp"])
    def test_unbiased_when_pi_prime_has_transient_states(self, unichain_mdp, s0_source):
        mdp = unichain_mdp(4, 2, seed=7)
        pi = DeterministicPolicy(np.array([1, 0, 0, 0]))
        pi_prime = DeterministicPolicy(np.array([0, 1, 1, 1]))
        mu_prime = stationary_distribution(induce_chain(mdp, pi_prime))
        assert (mu_prime == 0.0).any()
        truth = exact_rho(mdp, pi_prime) - exact_rho(mdp, pi)
        values, _ = delta_rho_batch(mdp, pi, pi_prime, 40_000, rng=16, s0_source=s0_source)
        se = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - truth) < 4 * se

    def test_stochastic_policies_supported(self):
        mdp = random_mdp(3, 2, rng=9)
        rng = np.random.default_rng(10)
        pi = StochasticPolicy(rng.dirichlet(np.ones(2), size=3))
        pi_prime = StochasticPolicy(rng.dirichlet(np.ones(2), size=3))
        truth = exact_rho(mdp, pi_prime) - exact_rho(mdp, pi)
        values, _ = delta_rho_batch(mdp, pi, pi_prime, 60_000, rng=11)
        se = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - truth) < 3 * se

    def test_antisymmetry_in_expectation(self):
        mdp = random_mdp(4, 2, rng=13)
        pi = DeterministicPolicy(np.array([0, 1, 1, 0]))
        pi_prime = DeterministicPolicy(np.array([1, 0, 0, 1]))
        forward, _ = delta_rho_batch(mdp, pi, pi_prime, 40_000, rng=14)
        backward, _ = delta_rho_batch(mdp, pi_prime, pi, 40_000, rng=15)
        se = np.hypot(
            forward.std() / np.sqrt(forward.size), backward.std() / np.sqrt(backward.size)
        )
        assert abs(forward.mean() + backward.mean()) < 3 * se

    def test_coalescence_times_respect_the_tail_bound(self):
        mdp = random_mdp(4, 2, rng=21)
        pi = DeterministicPolicy(np.array([0, 0, 1, 1]))
        pi_prime = DeterministicPolicy(np.array([1, 1, 0, 0]))
        t_mix = mixing_time(induce_chain(mdp, pi))
        _, t_c = delta_rho_batch(mdp, pi, pi_prime, 20_000, rng=22)
        for delta in (0.1, 0.05):
            threshold = 2 * 4 * t_mix * np.log(1 / delta)
            frac = (t_c > threshold).mean()
            slack = 3 * np.sqrt(delta * (1 - delta) / t_c.size)
            assert frac <= delta + slack

    def test_single_sample_record(self):
        mdp = random_mdp(3, 2, rng=30)
        pi = DeterministicPolicy(np.array([0, 1, 0]))
        pi_prime = DeterministicPolicy(np.array([1, 0, 1]))
        ledger = SampleLedger()
        values, t_c = delta_rho_batch(mdp, pi, pi_prime, 1, rng=31, ledger=ledger)
        assert values.shape == t_c.shape == (1,)
        assert np.isfinite(values[0])
        assert t_c[0] >= 1
        assert ledger.generative_calls == 2 * t_c[0]  # exact-solve start costs no calls


class TestPolicyGradient:
    def test_symmetric_actions_have_zero_gradient(self):
        shared = np.array([[0.4, 0.6], [0.7, 0.3]])
        mdp = TabularMDP(
            np.stack([shared, shared]),
            RewardModel(np.array([[0.5, 0.5], [0.2, 0.2]])),
        )
        policy = SoftmaxPolicy(np.zeros((2, 2)))
        grads = policy_gradient_batch(mdp, policy, 20_000, rng=3)
        mean = grads.mean(axis=0)
        se = grads.std(axis=0) / np.sqrt(grads.shape[0])
        assert (np.abs(mean) <= 3 * np.maximum(se, 1e-12)).all()

    def test_single_state_closed_form(self):
        # rho(theta) = sum_a softmax(theta)_a r_a; at theta = 0 with rewards
        # (1, 0) the exact gradient is (1/4, -1/4).
        mdp = single_state_mdp(means=(1.0, 0.0))
        policy = SoftmaxPolicy(np.zeros((1, 2)))
        exact = np.array([[0.25, -0.25]])
        probs = policy.probs[0]
        rho = float(probs @ np.array([1.0, 0.0]))
        analytic = probs * (np.array([1.0, 0.0]) - rho)
        assert np.allclose(analytic, exact[0], atol=1e-12)
        grads = policy_gradient_batch(mdp, policy, 40_000, rng=4)
        mean = grads.mean(axis=0)
        se = grads.std(axis=0) / np.sqrt(grads.shape[0])
        assert (np.abs(mean - exact) <= 3 * se).all()

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(700 + seed)
        mdp = random_mdp(3, 2, rng=800 + seed)
        theta = rng.normal(size=(3, 2)) * 0.5
        policy = SoftmaxPolicy(theta)
        oracle = finite_difference_gradient(mdp, theta)
        grads = policy_gradient_batch(mdp, policy, 60_000, rng=seed)
        mean = grads.mean(axis=0)
        se = grads.std(axis=0) / np.sqrt(grads.shape[0])
        assert (np.abs(mean - oracle) <= 3 * np.maximum(se, 1e-9)).all()

    def test_single_sample_shape(self):
        mdp = random_mdp(3, 2, rng=40)
        grads = policy_gradient_batch(mdp, SoftmaxPolicy(np.zeros((3, 2))), 1, rng=41)
        assert grads.shape == (1, 3, 2)
        grad = grads[0]
        # Only one state row can be nonzero: the sampled start state.
        nonzero_rows = np.unique(np.nonzero(grad)[0])
        assert nonzero_rows.size <= 1


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestBoundedFailure:
    """A pair chain that can never meet fails at once, before any draw."""

    def test_delta_rho_rejects_a_periodic_followed_policy(self):
        # Action 0 swaps the states; both trajectories follow pi = (0, 0),
        # so pairs started apart alternate forever. pi_prime's chain is fine.
        mdp = TabularMDP(np.stack([SWAP, np.full((2, 2), 0.5)]), RewardModel(np.full((2, 2), 0.5)))
        pi, pi_prime = DeterministicPolicy(np.array([0, 0])), DeterministicPolicy(np.array([1, 1]))
        for source in ("exact_solve", "cftp", "exact_solve"):
            gen = np.random.default_rng(0)
            before = gen.bit_generator.state
            ledger = SampleLedger()
            with pytest.raises(NonErgodicError):
                delta_rho_batch(mdp, pi, pi_prime, 10, gen, s0_source=source, ledger=ledger)
            assert ledger.generative_calls == 0
            assert gen.bit_generator.state == before
        # A failure is never cached, so every call above raised.
        assert mdp.policy_evaluations == {}

    def test_delta_rho_caches_a_passing_verdict_per_policy(self, monkeypatch):
        mdp = random_mdp(4, 2, rng=3)
        pi, pi_prime = DeterministicPolicy(np.array([0, 1, 0, 1])), DeterministicPolicy(np.ones(4, dtype=int))
        first = delta_rho_batch(mdp, pi, pi_prime, 20, rng=5)
        # pi's verdict, and pi_prime's exact start law, each have an entry.
        assert list(mdp.policy_evaluations) == [pi.key(), pi_prime.key()]
        checks = []
        gate = MarkovChain.require_coalescing
        monkeypatch.setattr(MarkovChain, "require_coalescing", lambda chain: checks.append(chain) or gate(chain))
        second = delta_rho_batch(mdp, pi, pi_prime, 20, rng=5)
        # Both are cached, so the repeat call checks no chain.
        assert checks == []
        # The cached start law has the bits of a fresh solve, so the start states are those of one.
        fresh = cdf_table(stationary_distribution(induce_chain(mdp, pi_prime)))[None, :]
        assert np.array_equal(mdp.policy_evaluations[pi_prime.key()].mu_cdf, fresh)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_policy_gradient_rejects_a_periodic_policy_chain(self):
        mdp = TabularMDP(np.stack([SWAP, SWAP]), RewardModel(np.full((2, 2), 0.5)))
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        ledger = SampleLedger()
        with pytest.raises(NonErgodicError):
            policy_gradient_batch(mdp, SoftmaxPolicy(np.zeros((2, 2))), 10, gen, ledger=ledger)
        assert ledger.generative_calls == 0
        assert gen.bit_generator.state == before

    def test_policy_gradient_induces_and_checks_its_chain_once(self):
        mdp = random_mdp(4, 2, rng=3)
        policy = SoftmaxPolicy(np.zeros((4, 2)))
        want = policy_gradient_batch(mdp, policy, 20, rng=5)
        with (
            mock.patch.object(estimators, "induce_chain", wraps=estimators.induce_chain) as induce,
            mock.patch.object(chains, "closed_class", wraps=chains.closed_class) as check,
        ):
            assert np.array_equal(policy_gradient_batch(mdp, policy, 20, rng=5), want)
        assert (induce.call_count, check.call_count) == (1, 1)

    def test_slow_ergodic_chain_still_hits_the_cap(self):
        # Action 0 is the lazy chain, action 1 jumps uniformly. Pairs that
        # follow action 0 after a first jump meet only after about n / eps steps.
        lazy = lower_bound_chain(10, 0.001).transition
        mdp = TabularMDP(np.stack([lazy, np.full((10, 10), 0.1)]), RewardModel(np.full((10, 2), 0.5)))
        pi, pi_prime = DeterministicPolicy(np.zeros(10, dtype=int)), DeterministicPolicy(np.ones(10, dtype=int))
        with pytest.raises(CapExceededError):
            delta_rho_batch(mdp, pi, pi_prime, 50, rng=0, step_cap=5)
        # The start-state CFTP on the lazy chain hits the cap.
        mdp = TabularMDP(np.stack([lazy, lazy]), RewardModel(np.full((10, 2), 0.5)))
        with pytest.raises(CapExceededError):
            policy_gradient_batch(mdp, SoftmaxPolicy(np.zeros((10, 2))), 4, rng=0, step_cap=5)


def constant_policy(mdp, action):
    return DeterministicPolicy(np.full(mdp.n_states, action))


def action_zero_chain(mdp):
    return induce_chain(mdp, constant_policy(mdp, 0))


def delta_rho(source):
    return lambda mdp, k, gen: delta_rho_batch(
        mdp, constant_policy(mdp, 0), constant_policy(mdp, 1), k, gen, s0_source=source
    )


def uniform_softmax_gradient(mdp, k, gen):
    return (policy_gradient_batch(mdp, SoftmaxPolicy(np.zeros((mdp.n_states, mdp.n_actions))), k, gen),)


def game_column(mdp, k, gen):
    featured = TabularMDP(mdp.transition, mdp.reward, np.full((mdp.n_states, 1), 0.5))
    expert = ExpertModel(constant_policy(mdp, 1), mdp.n_actions, rng=0)
    return game_column_batch(featured, expert, constant_policy(mdp, 0), k, gen)


# Each sampler that takes a sample count: the argument's name, and a call
# on an MDP (or the chain of its action-0 policy) returning its arrays.
COUNTED_SAMPLERS = {
    "cftp_batch": ("n_samples", lambda mdp, k, gen: cftp_batch(action_zero_chain(mdp), k, gen)),
    "coalescence_times_batch": (
        "n_runs", lambda mdp, k, gen: (coalescence_times_batch(action_zero_chain(mdp), 0, 1, k, gen),)
    ),
    "delta_rho_batch-exact_solve": ("n_samples", delta_rho("exact_solve")),
    "delta_rho_batch-cftp": ("n_samples", delta_rho("cftp")),
    "policy_gradient_batch": ("n_samples", uniform_softmax_gradient),
    "game_column_batch": ("n_samples", game_column),
}


class TestSampleCounts:
    @pytest.mark.parametrize("sampler", list(COUNTED_SAMPLERS))
    def test_a_negative_count_is_named_before_any_check_or_draw(self, sampler):
        name, call = COUNTED_SAMPLERS[sampler]
        # Every policy of this MDP swaps the states, so a valid count would
        # raise NonErgodicError: the count is checked first.
        periodic = TabularMDP(np.stack([SWAP, SWAP]), RewardModel(np.full((2, 2), 0.5)))
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        with pytest.raises(ValueError, match=f"{name} must be non-negative, got -2"):
            call(periodic, -2, gen)
        assert gen.bit_generator.state == before
        for array in call(random_mdp(4, 2, rng=3), 0, gen):
            assert array.shape[0] == 0


class TestCoupledDifferenceBatch:
    @pytest.mark.parametrize("n", [1, 3])
    def test_features_of_an_mdp_without_them_are_rejected_before_drawing(self, n):
        mdp = random_mdp(3, 2, rng=5)
        s0, actions = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        gen = np.random.default_rng(6)
        before = gen.bit_generator.state
        ledger = SampleLedger()
        with pytest.raises(ValueError, match="requires an MDP with features"):
            coupled_difference_batch(
                mdp, s0, actions, actions, lambda states: np.zeros_like(states), gen,
                value="features", ledger=ledger,
            )
        assert gen.bit_generator.state == before
        assert ledger.generative_calls == 0
