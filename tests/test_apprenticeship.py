import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import linprog

from cftp_rl import solvers
from cftp_rl.chains import (
    DeterministicPolicy,
    MixedPolicy,
    RewardModel,
    SampleLedger,
    StochasticPolicy,
    TabularMDP,
    cdf_table,
    induce_chain,
    inverse_cdf,
)
from cftp_rl.apprenticeship import (
    ExpertModel,
    estimate_expert_features,
    expert_stationary_samples,
    feature_expectations_exact,
    game_column_batch,
    game_matrix,
    game_value_oracle,
    margin_against_all_rewards,
    mwal,
    mwal_generative,
    mwal_rounds_csv,
    solve_game_lp,
)
from cftp_rl.errors import CapExceededError
from cftp_rl.instances import (
    random_mdp,
    random_stochastic_policy,
    sparse_cycle_mdp,
    two_state_chain,
)
from cftp_rl.seeding import KeyedUniforms, seed_sequence
from cftp_rl.solvers import average_reward, optimal_policy, stationary_distribution


def two_state_feature_mdp():
    """Hand-built instance where one policy beats the expert by exactly 0.1.

    Both actions have state-independent rows, so stationary distributions
    are explicit: all-0 gives (0.9, 0.1), all-1 gives (0.1, 0.9), and the
    feature gap between the two vertex policies is 0.8 * (phi(0) - phi(1)).
    """
    row0 = np.array([0.9, 0.1])
    row1 = np.array([0.1, 0.9])
    transition = np.stack([np.vstack([row0, row0]), np.vstack([row1, row1])])
    features = np.array([[0.5, 0.7], [0.375, 0.575]])
    rewards = np.full((2, 2), 0.5)
    return TabularMDP(transition, RewardModel(rewards), features)


def thm8_style_instance(seed):
    """Random 4-state 2-action 2-feature MDP with an expert optimal for some w*."""
    mdp = random_mdp(4, 2, rng=seed, n_features=2)
    w_star = np.array([0.7, 0.3])
    expert_policy = optimal_policy(mdp, reward_override=mdp.features @ w_star)
    return mdp, expert_policy


class TestExpertModel:
    def test_seeded_reproducibility_and_ledger(self):
        policy = StochasticPolicy(np.array([[0.3, 0.7], [0.5, 0.5], [0.9, 0.1]]))
        runs = []
        for _ in range(2):
            expert = ExpertModel(policy, 2, rng=99)
            runs.append(expert.act_batch(np.arange(30) % 3).tolist())
            assert expert.ledger.expert_calls == 30
        assert runs[0] == runs[1]

    def test_action_frequencies(self):
        policy = StochasticPolicy(np.array([[0.2, 0.8]]))
        expert = ExpertModel(policy, 2, rng=1)
        draws = expert.act_batch(np.zeros(20_000, dtype=np.int64))
        se = math.sqrt(0.2 * 0.8 / draws.size)
        assert abs((draws == 1).mean() - 0.8) < 3 * se

    def test_deterministic_expert_accepted(self):
        expert = ExpertModel(DeterministicPolicy(np.array([1, 0])), 2, rng=0)
        assert expert.act_batch(np.array([0, 1])).tolist() == [1, 0]

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("kind", ["deterministic", "stochastic"])
    def test_single_queries_equal_one_batch(self, kind, k):
        gen = np.random.default_rng(k)
        n, n_actions = 4, 3
        if kind == "deterministic":
            policy = DeterministicPolicy(gen.integers(0, n_actions, n))
        else:
            policy = random_stochastic_policy(n, n_actions, gen)
        states = gen.integers(0, n, k)
        single, batch = ExpertModel(policy, n_actions, rng=7), ExpertModel(policy, n_actions, rng=7)
        actions = [single.act(int(s)) for s in states]
        assert all(type(a) is int for a in actions)
        assert actions == batch.act_batch(states).tolist()
        assert single.rng.bit_generator.state == batch.rng.bit_generator.state
        assert single.ledger.expert_calls == batch.ledger.expert_calls == k


class TestFeatureExpectationsExact:
    def test_constant_features(self):
        mdp = random_mdp(3, 2, rng=1)
        mdp = TabularMDP(mdp.transition, mdp.reward, features=np.full((3, 2), 0.4))
        for actions in ([0, 0, 0], [1, 0, 1]):
            phi = feature_expectations_exact(mdp, DeterministicPolicy(np.array(actions)))
            assert np.allclose(phi, 0.4, atol=1e-12)

    def test_example_chain_indicator_feature(self):
        chain = two_state_chain()
        mdp = TabularMDP(
            chain.transition[None, :, :],
            RewardModel(chain.reward.means[:, None]),
            features=np.array([[1.0], [0.0]]),
        )
        phi = feature_expectations_exact(mdp, DeterministicPolicy(np.zeros(2, dtype=int)))
        assert abs(phi[0] - 2.0 / 3.0) < 1e-12

    def test_matches_trajectory_average(self):
        mdp = random_mdp(4, 2, rng=3, n_features=2)
        policy = DeterministicPolicy(np.array([0, 1, 1, 0]))
        phi = feature_expectations_exact(mdp, policy)
        chain = induce_chain(mdp, policy)
        cum = chain.cumulative()
        rng = np.random.default_rng(4)
        n_steps = 1_000_000
        u = rng.random(n_steps)
        counts = np.zeros(4)
        state = 0
        for t in range(n_steps):
            counts[state] += 1
            state = int(np.searchsorted(cum[state], u[t], side="right"))
        empirical = (counts / n_steps) @ mdp.features
        se = 1.0 / np.sqrt(n_steps / 20)
        assert np.all(np.abs(empirical - phi) < 3 * se)

    def test_mixed_policy_linearity_is_exact(self):
        mdp = random_mdp(3, 2, rng=5, n_features=2)
        members = [
            DeterministicPolicy(np.array([0, 1, 0])),
            DeterministicPolicy(np.array([1, 1, 0])),
            DeterministicPolicy(np.array([0, 0, 1])),
        ]
        weights = np.array([0.5, 0.25, 0.25])
        mixture = MixedPolicy(weights, members)
        phi_mix = feature_expectations_exact(mdp, mixture)
        phi_members = np.array([feature_expectations_exact(mdp, m) for m in members])
        assert np.array_equal(phi_mix, weights @ phi_members)
        rho_members = np.array([average_reward(induce_chain(mdp, m)) for m in members])
        assert abs(weights @ rho_members - sum(w * r for w, r in zip(weights, rho_members))) == 0.0

    def test_repeated_members_are_evaluated_once_with_the_per_member_sum(self):
        a, b = DeterministicPolicy(np.array([0, 1, 0])), DeterministicPolicy(np.array([1, 1, 0]))
        stochastic = random_stochastic_policy(3, 2, rng=8)
        members = [a, b, DeterministicPolicy(np.array([0, 1, 0])), stochastic, a, stochastic, b, a]
        weights = np.random.default_rng(9).dirichlet(np.ones(len(members)))
        warm = random_mdp(3, 2, rng=7, n_features=3)
        per_member = np.array([feature_expectations_exact(warm, m) for m in members])
        mdp = random_mdp(3, 2, rng=7, n_features=3)  # cold: no policy evaluated on it yet
        with mock.patch(
            "cftp_rl.apprenticeship.stationary_distribution", wraps=stationary_distribution
        ) as solves, mock.patch(
            "cftp_rl.solvers._stationary_on", wraps=solvers._stationary_on
        ) as all_solves:
            phi_mix = feature_expectations_exact(mdp, MixedPolicy(weights, members))
        assert phi_mix.tobytes() == np.einsum("m,mk->k", weights, per_member).tobytes()
        assert solves.call_count == 2  # each stochastic member on its own
        assert all_solves.call_count == 4  # those two, and a and b once each, by key

    def test_missing_features_rejected(self):
        mdp = random_mdp(3, 2, rng=6)
        with pytest.raises(ValueError, match="feature"):
            feature_expectations_exact(mdp, DeterministicPolicy(np.zeros(3, dtype=int)))


def reference_expert_samples(mdp, expert, m, gen, step_cap=1_000_000):
    """Lockstep reference: m scalar CFTP runs, advanced one step at a time.

    At step t each unfinished sample, in index order, draws its n dynamics
    uniforms from ``gen``, queries the expert once for each of its n
    states and composes that one map into its own composite, the newest
    map applied first.
    """
    n = mdp.n_states
    cum = cdf_table(mdp.transition).reshape(-1, n)
    all_states = np.arange(n)
    composites = [all_states] * m
    samples = np.full(m, -1, dtype=np.int64)
    times = np.zeros(m, dtype=np.int64)
    calls = 0
    for t in range(1, step_cap + 1):
        for i in np.flatnonzero(samples < 0):
            u = gen.random(n)
            actions = expert.act_batch(all_states)
            calls += n
            composites[i] = composites[i][inverse_cdf(cum, actions * n + all_states, u)]
            if (composites[i] == composites[i][0]).all():
                samples[i], times[i] = composites[i][0], t
        if (samples >= 0).all():
            return samples, times, calls
    raise CapExceededError(f"no coalescence within {step_cap} steps")


def example_chain_mdp():
    """The two-state chain with a second, lazier action out of state 0.

    Under both actions state 1 always returns to state 0, so forward
    coupling from both states can only meet in state 0: sampling at the
    forward meeting time, or composing maps in the wrong order, is heavily
    biased here.
    """
    lazy = np.array([[0.75, 0.25], [1.0, 0.0]])
    transition = np.stack([two_state_chain().transition, lazy])
    return TabularMDP(transition, RewardModel(np.full((2, 2), 0.5)))


@st.composite
def expert_instances(draw, stochastic):
    """A random Dirichlet MDP with an expert on it, a sample count and a seed."""
    n = draw(st.integers(1, 5))
    n_actions = draw(st.integers(1, 3))
    mdp = random_mdp(n, n_actions, draw(st.integers(0, 2**32 - 1)))
    if stochastic:
        policy = random_stochastic_policy(n, n_actions, draw(st.integers(0, 2**32 - 1)))
    else:
        actions = draw(st.lists(st.integers(0, n_actions - 1), min_size=n, max_size=n))
        policy = DeterministicPolicy(np.array(actions, dtype=int))
    m = draw(st.integers(1, 40))
    return mdp, policy, m, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))


RNG_KINDS = ["int", "seed_sequence", "generator"]


class TestExpertStationarySamples:
    @staticmethod
    def assert_matches_reference(case, rng_kind):
        # Every sample, time and counter, and the state of both generators,
        # must equal the lockstep loop's, whatever form the seed takes.
        mdp, policy, m, expert_seed, seed = case
        ref_gen = np.random.default_rng(seed)
        ref_expert = ExpertModel(policy, mdp.n_actions, expert_seed)
        expected = reference_expert_samples(mdp, ref_expert, m, ref_gen)
        rng = {
            "int": seed,
            "seed_sequence": np.random.SeedSequence(seed),
            "generator": np.random.default_rng(seed),
        }[rng_kind]
        expert = ExpertModel(policy, mdp.n_actions, expert_seed)
        ledger = SampleLedger()
        samples, times = expert_stationary_samples(mdp, expert, m, rng, ledger=ledger)
        assert np.array_equal(samples, expected[0])
        assert np.array_equal(times, expected[1])
        assert ledger.generative_calls == expected[2]
        assert expert.ledger == ref_expert.ledger
        assert expert.rng.bit_generator.state == ref_expert.rng.bit_generator.state
        if rng_kind == "generator":
            assert rng.bit_generator.state == ref_gen.bit_generator.state

    @settings(max_examples=80)
    @given(expert_instances(stochastic=False), st.sampled_from(RNG_KINDS))
    def test_deterministic_expert_matches_per_sample_reference(self, case, rng_kind):
        self.assert_matches_reference(case, rng_kind)

    @settings(max_examples=80)
    @given(expert_instances(stochastic=True), st.sampled_from(RNG_KINDS))
    def test_stochastic_expert_matches_per_sample_reference(self, case, rng_kind):
        self.assert_matches_reference(case, rng_kind)

    @settings(max_examples=60)
    @given(expert_instances(stochastic=True), st.booleans())
    def test_stochastic_expert_counts_one_query_per_map_entry(self, case, as_int):
        mdp, policy, m, expert_seed, seed = case
        n = mdp.n_states
        expert = ExpertModel(policy, mdp.n_actions, expert_seed)
        rng = seed if as_int else np.random.default_rng(seed)
        ledger = SampleLedger()
        samples, times = expert_stationary_samples(mdp, expert, m, rng, ledger=ledger)
        calls = ledger.generative_calls
        assert samples.shape == times.shape == (m,)
        assert ((samples >= 0) & (samples < n)).all() and (times >= 1).all()
        assert expert.ledger.expert_calls == calls == int(times.sum()) * n
        if not as_int:
            # The Generator supplied exactly one uniform per map entry.
            replay = np.random.default_rng(seed)
            replay.random(calls)
            assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("as_int", [True, False], ids=["int", "generator"])
    def test_stochastic_expert_samples_are_exact(self, as_int):
        mdp = example_chain_mdp()
        policy = StochasticPolicy(np.array([[0.3, 0.7], [0.6, 0.4]]))
        mu = stationary_distribution(induce_chain(mdp, policy))
        expert = ExpertModel(policy, 2, rng=31)
        rng = 32 if as_int else np.random.default_rng(32)
        samples, _ = expert_stationary_samples(mdp, expert, 4000, rng)
        counts = np.bincount(samples, minlength=2)
        _, p_value = stats.chisquare(counts, mu * samples.size)
        assert p_value > 0.001

    @pytest.mark.parametrize("as_int", [True, False], ids=["int", "generator"])
    def test_step_cap_exceeded(self, as_int):
        # Near-identity dynamics: the maps almost never merge all 6 states.
        transition = np.full((1, 6, 6), 0.001 / 6)
        transition[0][np.diag_indices(6)] += 0.999
        mdp = TabularMDP(transition, RewardModel(np.full((6, 1), 0.5)))
        expert = ExpertModel(DeterministicPolicy(np.zeros(6, dtype=int)), 1, rng=0)
        rng = 5 if as_int else np.random.default_rng(5)
        with pytest.raises(CapExceededError):
            expert_stationary_samples(mdp, expert, 8, rng, step_cap=20)

    @pytest.mark.parametrize("m", [0, -3])
    def test_nonpositive_sample_count_is_rejected_before_drawing(self, m):
        mdp, expert_policy = thm8_style_instance(seed=41)
        expert = ExpertModel(expert_policy, 2, rng=42)
        before = expert.rng.bit_generator.state
        gen = np.random.default_rng(43)
        gen_before = gen.bit_generator.state
        with pytest.raises(ValueError, match="expert sample"):
            expert_stationary_samples(mdp, expert, m, gen)
        with pytest.raises(ValueError, match="expert sample"):
            estimate_expert_features(mdp, expert, m, rng=44)
        with pytest.raises(ValueError, match="expert sample"):
            mwal(mdp, expert, k=2, n_rounds=5, m=m, rng=45)
        assert gen.bit_generator.state == gen_before
        assert expert.rng.bit_generator.state == before
        assert expert.ledger.expert_calls == 0

    @settings(max_examples=40)
    @given(
        st.integers(1, 6), st.integers(1, 3), st.data(), st.integers(0, 2**32 - 1), st.booleans()
    )
    def test_rank_one_dynamics_coalesce_in_one_step(self, n, n_actions, data, seed, as_int):
        # Every action sends every state to the same state j: each map is
        # constant, so every sample is j at t_c = 1.
        j = data.draw(st.integers(0, n - 1))
        transition = np.zeros((n_actions, n, n))
        transition[:, :, j] = 1.0
        mdp = TabularMDP(transition, RewardModel(np.full((n, n_actions), 0.5)))
        policy = random_stochastic_policy(n, n_actions, seed)
        expert = ExpertModel(policy, n_actions, seed)
        m = data.draw(st.integers(1, 20))
        rng = seed if as_int else np.random.default_rng(seed)
        ledger = SampleLedger()
        samples, times = expert_stationary_samples(mdp, expert, m, rng, ledger=ledger)
        assert (samples == j).all() and (times == 1).all()
        assert ledger.generative_calls == expert.ledger.expert_calls == m * n


class TestExpertMustFitTheMdp:
    """An expert whose policy table is not (n_states, n_actions) fails before any draw."""

    @staticmethod
    def assert_rejected_before_drawing(mdp, expert):
        gen = np.random.default_rng(3)
        gen_before, expert_before = gen.bit_generator.state, expert.rng.bit_generator.state
        pi_t = DeterministicPolicy(np.zeros(mdp.n_states, dtype=int))
        with pytest.raises(ValueError, match="expert policy"):
            expert_stationary_samples(mdp, expert, 20, gen)
        with pytest.raises(ValueError, match="expert policy"):
            estimate_expert_features(mdp, expert, 20, gen)
        with pytest.raises(ValueError, match="expert policy"):
            game_column_batch(mdp, expert, pi_t, 20, gen)
        assert gen.bit_generator.state == gen_before
        assert expert.rng.bit_generator.state == expert_before
        assert expert.ledger.expert_calls == 0

    def test_expert_with_more_states_is_rejected(self):
        mdp = random_mdp(4, 2, rng=60, n_features=2)
        expert = ExpertModel(DeterministicPolicy(np.array([0, 1, 0, 1, 1, 0])), 2, rng=61)
        self.assert_rejected_before_drawing(mdp, expert)

    def test_expert_with_more_actions_is_rejected(self):
        mdp = random_mdp(4, 2, rng=62, n_features=2)
        expert = ExpertModel(StochasticPolicy(np.full((4, 3), 1.0 / 3.0)), 3, rng=63)
        self.assert_rejected_before_drawing(mdp, expert)


class TestEstimateExpertFeatures:
    def test_single_state_single_sample(self):
        transition = np.ones((2, 1, 1))
        mdp = TabularMDP(
            transition, RewardModel(np.array([[0.5, 0.5]])), features=np.array([[0.3, 0.9]])
        )
        expert = ExpertModel(DeterministicPolicy(np.array([0])), 2, rng=0)
        estimate = estimate_expert_features(mdp, expert, 1, rng=1)
        assert np.array_equal(estimate.phi, [0.3, 0.9])
        assert estimate.total_steps == 1

    def test_samples_match_expert_stationary_distribution(self):
        mdp = random_mdp(4, 2, rng=7, n_features=2)
        expert_policy = DeterministicPolicy(np.array([1, 0, 1, 0]))
        expert = ExpertModel(expert_policy, 2, rng=8)
        samples, _ = expert_stationary_samples(mdp, expert, 5000, rng=9)
        mu = stationary_distribution(induce_chain(mdp, expert_policy))
        counts = np.bincount(samples, minlength=4)
        _, p_value = stats.chisquare(counts, mu * samples.size)
        assert p_value > 0.001

    def test_ledger_accounting(self):
        mdp = random_mdp(3, 2, rng=10, n_features=2)
        expert = ExpertModel(StochasticPolicy(np.full((3, 2), 0.5)), 2, rng=11)
        estimate = estimate_expert_features(mdp, expert, 50, rng=12)
        # Every map draw queries the expert once per state, so the expert
        # ledger equals steps x n_states exactly (and the +-20% check that
        # m x mean-steps approximates it holds trivially).
        assert estimate.expert_calls == estimate.total_steps * 3
        assert estimate.generative_calls == estimate.total_steps * 3
        approx = estimate.n_samples * (estimate.total_steps / estimate.n_samples) * 3
        assert abs(estimate.expert_calls - approx) <= 0.2 * approx

    def test_accuracy_at_the_hoeffding_sample_size(self):
        # m = ceil(2 ln(2k/delta) / eps^2) keeps the sup-norm error below
        # eps = 0.1 in at least 95% of repetitions.
        epsilon, delta, k = 0.1, 0.05, 2
        m = math.ceil(2.0 * math.log(2 * k / delta) / epsilon**2)
        assert m == 877
        mdp = random_mdp(3, 2, rng=13, n_features=k)
        expert_policy = StochasticPolicy(np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]))
        phi_true = feature_expectations_exact(mdp, expert_policy)
        successes = 0
        n_reps = 200
        for rep in range(n_reps):
            expert = ExpertModel(expert_policy, 2, rng=(1000 + rep))
            estimate = estimate_expert_features(mdp, expert, m, rng=(5000 + rep))
            if np.max(np.abs(estimate.phi - phi_true)) <= epsilon:
                successes += 1
        assert successes >= 0.95 * n_reps


class TestGameColumn:
    def test_single_state_is_identically_zero(self):
        transition = np.ones((2, 1, 1))
        mdp = TabularMDP(
            transition, RewardModel(np.array([[0.5, 0.5]])), features=np.array([[0.4, 0.6]])
        )
        expert = ExpertModel(DeterministicPolicy(np.array([1])), 2, rng=0)
        g, t_c = game_column_batch(mdp, expert, DeterministicPolicy(np.array([0])), 1, rng=1)
        assert np.array_equal(g, [[0.0, 0.0]])
        assert np.array_equal(t_c, [1])

    def test_expert_equals_candidate_has_mean_zero(self):
        mdp = random_mdp(4, 2, rng=20, n_features=2)
        policy = DeterministicPolicy(np.array([0, 1, 0, 1]))
        expert = ExpertModel(policy, 2, rng=21)
        g, _ = game_column_batch(mdp, expert, policy, 20_000, rng=22)
        se = g.std(axis=0) / np.sqrt(g.shape[0])
        assert np.all(np.abs(g.mean(axis=0)) <= 3 * np.maximum(se, 1e-12))

    @pytest.mark.parametrize("seed", range(3))
    def test_unbiased_against_exact_columns(self, seed):
        mdp = random_mdp(4, 2, rng=30 + seed, n_features=2)
        rng = np.random.default_rng(40 + seed)
        pi_t = DeterministicPolicy(rng.integers(0, 2, size=4))
        expert_policy = StochasticPolicy(rng.dirichlet(np.ones(2), size=4))
        expert = ExpertModel(expert_policy, 2, rng=50 + seed)
        truth = feature_expectations_exact(mdp, pi_t) - feature_expectations_exact(
            mdp, expert_policy
        )
        g, _ = game_column_batch(mdp, expert, pi_t, 60_000, rng=60 + seed)
        se = g.std(axis=0) / np.sqrt(g.shape[0])
        assert np.all(np.abs(g.mean(axis=0) - truth) <= 3 * se)

    def test_expert_ledger_counts_trajectory_queries(self):
        mdp = random_mdp(3, 2, rng=70, n_features=2)
        expert = ExpertModel(StochasticPolicy(np.full((3, 2), 0.5)), 2, rng=71)
        before = expert.ledger.expert_calls
        game_column_batch(mdp, expert, DeterministicPolicy(np.array([0, 1, 0])), 1, rng=72)
        assert expert.ledger.expert_calls > before


class TestGameValueOracle:
    def test_attainable_expert_gives_zero(self):
        mdp = two_state_feature_mdp()
        expert = ExpertModel(DeterministicPolicy(np.array([0, 0])), 2, rng=0)
        value = game_value_oracle(mdp, expert)
        assert abs(value.value) < 1e-9

    def test_dominated_expert_gives_the_dominance_gap(self):
        mdp = two_state_feature_mdp()
        expert = ExpertModel(DeterministicPolicy(np.array([1, 1])), 2, rng=0)
        value = game_value_oracle(mdp, expert)
        assert value.value >= 0.1 - 1e-9
        assert abs(value.value - 0.1) < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_minimax_sanity(self, seed):
        mdp = random_mdp(3, 2, rng=80 + seed, n_features=2)
        expert = ExpertModel(DeterministicPolicy(np.array([0, 1, 0])), 2, rng=0)
        g, _ = game_matrix(mdp, expert)
        lp_value, psi = solve_game_lp(g)
        oracle = game_value_oracle(mdp, expert)
        assert abs(lp_value - oracle.value) < 1e-8
        assert abs(psi.sum() - 1.0) < 1e-8

    def test_self_play_oracle_agrees(self):
        # Independent no-regret check: two Hedge players on the same matrix
        # converge to the game value within the sum of their regret bounds.
        mdp = random_mdp(3, 2, rng=90, n_features=2)
        expert = ExpertModel(DeterministicPolicy(np.array([1, 0, 1])), 2, rng=0)
        g, _ = game_matrix(mdp, expert)
        v_star = game_value_oracle(mdp, expert).value
        k, n_cols = g.shape
        n_rounds = 1_000_000
        bound = 1.0  # feature expectations live in [0, 1], so |G| <= 1
        eta_row = math.sqrt(math.log(k) / n_rounds)
        eta_col = math.sqrt(math.log(n_cols) / n_rounds)
        g_list = g.tolist()
        log_w = [0.0] * k
        log_psi = [0.0] * n_cols
        total = 0.0
        for _ in range(n_rounds):
            mw = max(log_w)
            w = [math.exp(v - mw) for v in log_w]
            sw = sum(w)
            w = [v / sw for v in w]
            mp = max(log_psi)
            p = [math.exp(v - mp) for v in log_psi]
            sp = sum(p)
            p = [v / sp for v in p]
            g_psi = [sum(g_list[i][j] * p[j] for j in range(n_cols)) for i in range(k)]
            w_g = [sum(w[i] * g_list[i][j] for i in range(k)) for j in range(n_cols)]
            total += sum(w[i] * g_psi[i] for i in range(k))
            for i in range(k):
                log_w[i] -= eta_row * (g_psi[i] + bound) / (2 * bound)
            for j in range(n_cols):
                log_psi[j] -= eta_col * (1.0 - (w_g[j] + bound) / (2 * bound))
        v_hat = total / n_rounds
        regret_bound = (
            4 * bound * math.sqrt(n_rounds * math.log(k))
            + 4 * bound * math.sqrt(n_rounds * math.log(n_cols))
        ) / n_rounds
        assert abs(v_hat - v_star) <= 2 * regret_bound

    def test_enumeration_budget(self):
        mdp = random_mdp(5, 4, rng=95, n_features=2)
        expert = ExpertModel(DeterministicPolicy(np.zeros(5, dtype=int)), 4, rng=0)
        with pytest.raises(CapExceededError):
            game_value_oracle(mdp, expert)

    @settings(max_examples=50)
    @given(
        st.integers(2, 4), st.integers(2, 3), st.integers(2, 4),
        st.integers(0, 2**32 - 1), st.data(),
    )
    def test_value_equals_the_row_players_lp(self, n, n_actions, k, seed, data):
        mdp = random_mdp(n, n_actions, rng=seed, n_features=k)
        expert = data.draw(st.lists(st.integers(0, n_actions - 1), min_size=n, max_size=n))

        def phi(actions):
            # Stationary law of the induced chain: mu (P - I) = 0, sum mu = 1.
            p = mdp.transition[actions, np.arange(n)]
            a = np.vstack([p.T - np.eye(n), np.ones(n)])
            mu = np.linalg.lstsq(a, np.r_[np.zeros(n), 1.0], rcond=None)[0]
            return mu @ mdp.features

        columns = [phi(np.array(pi)) for pi in itertools.product(range(n_actions), repeat=n)]
        g = (np.array(columns) - phi(np.array(expert))).T
        # Row player: minimize v over (w, v) with w^T G <= v, w in the simplex.
        res = linprog(
            np.r_[np.zeros(k), 1.0],
            A_ub=np.hstack([g.T, -np.ones((g.shape[1], 1))]),
            b_ub=np.zeros(g.shape[1]),
            A_eq=np.r_[np.ones(k), 0.0][None, :],
            b_eq=[1.0],
            bounds=[(0.0, None)] * k + [(None, None)],
            method="highs",
        )
        assert res.success
        oracle = game_value_oracle(mdp, DeterministicPolicy(np.array(expert)))
        assert abs(oracle.value - res.fun) <= 1e-9


class TestMwal:
    def test_single_feature_degenerates_to_one_policy(self):
        mdp = random_mdp(3, 2, rng=100, n_features=1)
        expert_policy = DeterministicPolicy(np.array([0, 0, 0]))
        expert = ExpertModel(expert_policy, 2, rng=101)
        result = mwal(mdp, expert, k=1, n_rounds=20, m=200, rng=102)
        assert np.allclose(result.weights, 1.0)
        assert len({p.key() for p in result.policies}) == 1
        rho_mix = float(feature_expectations_exact(mdp, result.mixture)[0])
        rho_expert = float(feature_expectations_exact(mdp, expert_policy)[0])
        assert rho_mix >= rho_expert - 1e-12

    def test_losses_stay_in_unit_interval_exactly(self):
        mdp, expert_policy = thm8_style_instance(seed=110)
        expert = ExpertModel(expert_policy, 2, rng=111)
        result = mwal(mdp, expert, k=2, n_rounds=50, m=300, rng=112)
        assert np.all(result.losses >= 0.0) and np.all(result.losses <= 1.0)

    def test_the_policy_cache_outlives_a_run(self, monkeypatch):
        mdp, expert_policy = thm8_style_instance(seed=150)

        def run(model, seed):
            return mwal(model, ExpertModel(expert_policy, 2, rng=seed), 2, 200, 100, rng=seed)

        run(mdp, 151)
        q_tables = {
            key: entry.q_features for key, entry in mdp.policy_evaluations.items()
            if "q_features" in vars(entry)
        }
        computed = []
        state_reward_q = solvers.state_reward_q
        with monkeypatch.context() as patch:
            patch.setattr(
                solvers, "state_reward_q",
                lambda model, policy, rewards: computed.append(policy.key())
                or state_reward_q(model, policy, rewards),
            )
            second = run(mdp, 152)
        reused = {p.key() for p in second.policies} & set(q_tables)
        assert reused  # the second run meets a best response the first one cached
        assert not reused & set(computed)
        for key, table in q_tables.items():
            assert mdp.policy_evaluations[key].q_features is table
        fresh = run(TabularMDP(mdp.transition, mdp.reward, mdp.features), 152)
        assert [p.key() for p in second.policies] == [p.key() for p in fresh.policies]
        assert mwal_rounds_csv(second) == mwal_rounds_csv(fresh)
        assert second.phi_expert_estimate.tobytes() == fresh.phi_expert_estimate.tobytes()

    def test_mixture_weights_are_uniform(self):
        mdp, expert_policy = thm8_style_instance(seed=120)
        expert = ExpertModel(expert_policy, 2, rng=121)
        result = mwal(mdp, expert, k=2, n_rounds=40, m=100, rng=122)
        assert np.allclose(result.mixture.weights, 1.0 / 40.0, atol=1e-15)
        assert len(result.policies) == 40

    def test_margin_approaches_the_game_value(self):
        mdp, expert_policy = thm8_style_instance(seed=130)
        expert = ExpertModel(expert_policy, 2, rng=131)
        v_star = game_value_oracle(mdp, expert).value
        phi_expert = feature_expectations_exact(mdp, expert_policy)
        result = mwal(mdp, expert, k=2, n_rounds=600, m=2000, rng=132)
        margin = margin_against_all_rewards(mdp, result.mixture, phi_expert)
        assert margin >= v_star - 0.25

    def test_adversarial_reward_check(self):
        mdp, expert_policy = thm8_style_instance(seed=140)
        expert = ExpertModel(expert_policy, 2, rng=141)
        v_star = game_value_oracle(mdp, expert).value
        phi_expert = feature_expectations_exact(mdp, expert_policy)
        result = mwal(mdp, expert, k=2, n_rounds=600, m=2000, rng=142)
        phi_mix = feature_expectations_exact(mdp, result.mixture)
        rng = np.random.default_rng(143)
        for _ in range(100):
            w = rng.dirichlet(np.ones(2))
            assert w @ (phi_mix - phi_expert) >= v_star - 0.25


    @pytest.mark.parametrize("n_rounds", [0, -1])
    def test_nonpositive_rounds_rejected_before_drawing(self, n_rounds):
        mdp, expert_policy = thm8_style_instance(seed=195)
        expert = ExpertModel(expert_policy, 2, rng=196)
        with pytest.raises(ValueError, match="round"):
            mwal(mdp, expert, k=2, n_rounds=n_rounds, m=5000, rng=197)
        assert expert.ledger.expert_calls == 0


class TestMwalGenerative:
    @pytest.mark.parametrize("n_rounds", [0, -1])
    def test_nonpositive_rounds_rejected_before_drawing(self, n_rounds):
        mdp, expert_policy = thm8_style_instance(seed=198)
        expert = ExpertModel(expert_policy, 2, rng=199)
        with pytest.raises(ValueError, match="round"):
            mwal_generative(mdp, expert, 2, n_rounds, delta=0.1, b=2.0, rng=200)
        assert expert.ledger.expert_calls == 0

    @pytest.mark.parametrize("b", [math.inf, math.nan, 0.0, -1.0])
    def test_a_b_not_positive_and_finite_is_rejected_before_drawing(self, b):
        mdp, expert_policy = thm8_style_instance(seed=198)
        expert = ExpertModel(expert_policy, 2, rng=199)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"need b > 0 and finite"):
                mwal_generative(mdp, expert, 2, 20, delta=0.1, b=b, rng=200)
        assert expert.ledger.expert_calls == 0

    def test_single_feature_degenerates(self):
        mdp = random_mdp(3, 2, rng=150, n_features=1)
        expert = ExpertModel(DeterministicPolicy(np.array([1, 1, 1])), 2, rng=151)
        result = mwal_generative(mdp, expert, k=1, n_rounds=15, delta=0.1, b=2.0, rng=152)
        assert np.allclose(result.weights, 1.0)
        assert len({p.key() for p in result.policies}) == 1

    def test_rescale_bound_formula_and_clamp_record(self):
        mdp, expert_policy = thm8_style_instance(seed=160)
        expert = ExpertModel(expert_policy, 2, rng=161)
        n_rounds, delta, b = 25, 0.1, 2.0
        result = mwal_generative(mdp, expert, 2, n_rounds, delta, b, rng=162)
        assert result.rescale_bound == pytest.approx(b * math.log(2 * n_rounds * 2 / delta))
        assert result.clamped.shape == (n_rounds, 2)
        assert result.raw_columns.shape == (n_rounds, 2)
        assert np.all(result.losses >= 0.0) and np.all(result.losses <= 1.0)

    @pytest.mark.parametrize("seed", [163, np.random.SeedSequence(164, spawn_key=(2, 5))])
    def test_round_t_draws_from_the_keyed_stream_at_t(self, seed):
        """Round t's column is ``game_column_batch`` on the keyed stream at counter t.

        A fresh ``KeyedUniforms`` per round replays it, with an expert seeded
        as the run's and stepped in round order, so a round's own draws are a
        pure function of (seed, t).
        """
        mdp, expert_policy = thm8_style_instance(seed=165)
        expert_policy = StochasticPolicy(0.8 * expert_policy.action_probs(2) + 0.1)
        expert = ExpertModel(expert_policy, 2, rng=166)
        result = mwal_generative(mdp, expert, 2, 40, delta=0.1, b=2.0, rng=seed)
        expert_replay = ExpertModel(expert_policy, 2, rng=166)
        for t, pi_t in enumerate(result.policies):
            g, _ = game_column_batch(
                mdp, expert_replay, pi_t, 1, KeyedUniforms(seed_sequence(seed)).at(t)
            )
            assert g[0].tobytes() == result.raw_columns[t].tobytes(), t
        assert expert_replay.ledger.expert_calls == result.expert_calls
        assert expert_replay.rng.bit_generator.state == expert.rng.bit_generator.state

    def test_sparse_cycle_tail_decays_exponentially(self):
        mdp = sparse_cycle_mdp(8, 0.01)
        expert = ExpertModel(DeterministicPolicy(np.zeros(8, dtype=int)), 2, rng=170)
        pi_t = DeterministicPolicy(np.ones(8, dtype=int))
        g, _ = game_column_batch(mdp, expert, pi_t, 20_000, rng=171)
        norms = np.abs(g).max(axis=1)
        p_sparse = 1  # features are supported on a single state
        for ell in range(1, 5):
            frac = (norms > ell * p_sparse).mean()
            slack = 3 * math.sqrt(math.exp(-ell) * (1 - math.exp(-ell)) / norms.size)
            assert frac <= math.exp(-ell) + slack

    def test_margin_improves_with_rounds(self):
        mdp, expert_policy = thm8_style_instance(seed=180)
        expert = ExpertModel(expert_policy, 2, rng=181)
        v_star = game_value_oracle(mdp, expert).value
        phi_expert = feature_expectations_exact(mdp, expert_policy)
        result = mwal_generative(mdp, expert, 2, 800, delta=0.1, b=2.0, rng=182)
        margin = margin_against_all_rewards(mdp, result.mixture, phi_expert)
        assert margin >= v_star - 0.3


class TestRoundsCsv:
    def test_schema_and_summary_line(self):
        mdp, expert_policy = thm8_style_instance(seed=190)
        expert = ExpertModel(expert_policy, 2, rng=191)
        result = mwal(mdp, expert, k=2, n_rounds=5, m=50, rng=192)
        text = mwal_rounds_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == "t,w_0,w_1,rho_t,loss_0,loss_1"
        assert len(lines) == 1 + 5 + 1
        assert lines[-1].startswith("# summary expert_calls=")
        gen_result = mwal_generative(mdp, expert, 2, 4, delta=0.1, b=2.0, rng=193)
        gen_lines = mwal_rounds_csv(gen_result).strip().split("\n")
        assert gen_lines[0] == "t,w_0,w_1,rho_t,loss_0,loss_1,g_0,g_1,clamped_0,clamped_1"
