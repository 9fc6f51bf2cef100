import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cftp_rl import eval_store, solvers
from cftp_rl.chains import DeterministicPolicy, RewardModel, TabularMDP, induce_chain
from cftp_rl.errors import CapExceededError, NonErgodicError
from cftp_rl.eval_store import SampleMatrix, StoreEnsemble, estimate_all, evaluate_policy
from cftp_rl.instances import random_mdp
from cftp_rl.sampling import lower_bound_chain
from cftp_rl.solvers import average_reward, mixing_time, stationary_distribution
from reference import SEEDS

PROPERTY_SETTINGS = settings(max_examples=60)


def all_policies(mdp):
    return [
        DeterministicPolicy(np.array(actions))
        for actions in itertools.product(range(mdp.n_actions), repeat=mdp.n_states)
    ]


def lazy_mdp(n, eps):
    chain = lower_bound_chain(n, eps, reward_mode="mean")
    return TabularMDP(
        chain.transition[None, :, :], RewardModel(chain.reward.means[:, None], "mean")
    )


def swap_mdp():
    """Two states, one action that swaps them: a periodic induced chain."""
    transition = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    return TabularMDP(transition, RewardModel(np.full((2, 1), 0.5), "mean"))


@st.composite
def store_instances(draw, modes=RewardModel.MODES):
    """A random Dirichlet MDP and a list of its policies, with repeats allowed."""
    n = draw(st.integers(1, 5))
    n_actions = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(modes))
    mdp = random_mdp(n, n_actions, draw(SEEDS), reward_mode=mode)
    action_lists = st.lists(st.integers(0, n_actions - 1), min_size=n, max_size=n)
    policies = [
        DeterministicPolicy(np.array(actions, dtype=int))
        for actions in draw(st.lists(action_lists, min_size=1, max_size=6))
    ]
    return mdp, policies, draw(SEEDS)


def assert_same_rows(a, b):
    assert len(a) == len(b)
    for row_a, row_b in zip(a.rows, b.rows):
        assert np.array_equal(row_a.next_state, row_b.next_state)
        assert np.array_equal(row_a.reward, row_b.reward)


class TestSampleMatrix:
    def test_rows_are_immutable_and_stable(self):
        mdp = random_mdp(3, 2, rng=2)
        store = SampleMatrix(mdp, rng=3)
        row = store.row_at(1)
        with pytest.raises(ValueError):
            row.next_state[0, 0] = 1
        snapshot = row.next_state.copy()
        store.row_at(10)
        assert np.array_equal(store.row_at(1).next_state, snapshot)

    def test_restricted_map_matches_policy_rows(self):
        # Column restriction of many rows reproduces the induced-chain rows.
        mdp = random_mdp(3, 2, rng=4)
        policy = DeterministicPolicy(np.array([1, 0, 1]))
        chain = induce_chain(mdp, policy)
        store = SampleMatrix(mdp, rng=5)
        n_rows = 12_000
        maps = np.array([store.restricted_map(t, policy) for t in range(1, n_rows + 1)])
        for s in range(3):
            counts = np.bincount(maps[:, s], minlength=3)
            _, p_value = stats.chisquare(counts, chain.transition[s] * n_rows)
            assert p_value > 0.001

    def test_row_draws_match_per_action_rows(self):
        mdp = random_mdp(2, 2, rng=6)
        store = SampleMatrix(mdp, rng=7)
        store.row_at(8000)
        draws = np.array([[row.next_state[s, a] for row in store.rows] for s in range(2) for a in range(2)])
        for idx, (s, a) in enumerate((s, a) for s in range(2) for a in range(2)):
            counts = np.bincount(draws[idx], minlength=2)
            _, p_value = stats.chisquare(counts, mdp.transition[a, s] * draws.shape[1])
            assert p_value > 0.001

    def test_row_index_starts_at_1(self):
        store = SampleMatrix(random_mdp(3, 2, rng=8), rng=9)
        for t in (0, -1):
            with pytest.raises(ValueError, match="starts at 1"):
                store.row_at(t)
        assert len(store) == 0
        assert store.ledger.generative_calls == 0


class TestBatchedEvaluation:
    """Policies split over several calls on one ensemble give the one call's bits.

    ``test_same_bits`` checks the batched loop against its per-pair reference.
    """

    @PROPERTY_SETTINGS
    @given(store_instances(), st.lists(st.integers(1, 5), min_size=1, max_size=4))
    def test_policy_groups_on_one_ensemble_match_one_call(self, instance, sizes):
        mdp, policies, seed = instance
        whole = StoreEnsemble(mdp, 0.6, 0.5, len(policies), seed)
        grouped = StoreEnsemble(mdp, 0.6, 0.5, len(policies), seed)
        expected = estimate_all(whole, policies)
        parts, start = [], 0
        for size in sizes + [len(policies)]:
            if start < len(policies):
                parts.append(estimate_all(grouped, policies[start:start + size]))
                start += size
        assert np.concatenate(parts).tobytes() == expected.tobytes()
        for copy, ref_copy in zip(grouped.copies, whole.copies):
            assert_same_rows(copy, ref_copy)


class TestChunkedPairs:
    @PROPERTY_SETTINGS
    @given(store_instances(), st.data())
    def test_any_chunk_size_gives_the_one_chunk_result(self, instance, data):
        # Chunk sizes run from one pair entry to above all pairs; the
        # reference walks every pair in one chunk.
        mdp, policies, seed = instance
        whole = StoreEnsemble(mdp, 0.6, 0.5, len(policies), seed)
        n_pairs = whole.n_copies * len(policies)
        with mock.patch.object(eval_store, "PAIR_BLOCK_ENTRIES", n_pairs * mdp.n_states):
            expected = estimate_all(whole, policies)
        block = data.draw(st.integers(1, (n_pairs + 1) * mdp.n_states))
        chunked = StoreEnsemble(mdp, 0.6, 0.5, len(policies), seed)
        cftp_chunk, seen = eval_store._cftp_chunk, []

        def record(*args):
            seen.append(cftp_chunk(*args))
            return seen[-1]

        with mock.patch.object(eval_store, "PAIR_BLOCK_ENTRIES", block), \
                mock.patch.object(eval_store, "_cftp_chunk", record):
            estimates = estimate_all(chunked, policies)
        # A chunk holds whole copies, at least one.
        copies_per_chunk = max(1, block // (mdp.n_states * len(policies)))
        assert len(seen) == math.ceil(chunked.n_copies / copies_per_chunk)
        assert estimates.tobytes() == expected.tobytes()
        for copy, ref_copy in zip(chunked.copies, whole.copies):
            assert_same_rows(copy, ref_copy)
            assert copy.ledger.generative_calls == ref_copy.ledger.generative_calls
        states, times, rewards = (
            np.concatenate(out).reshape(chunked.n_copies, -1) for out in zip(*seen)
        )
        for i, copy in enumerate(chunked.copies):
            for j, policy in enumerate(policies):
                sample = evaluate_policy(copy, policy)
                assert (sample.reward, sample.rows_consumed, sample.state) == (
                    rewards[i, j], times[i, j], states[i, j]
                )
        assert chunked.ledger_total == whole.ledger_total

    def test_no_policies_give_an_empty_array(self):
        # A chunk of whole copies holds n_states x policies entries per copy;
        # with no policies there is no chunk to walk and no row to draw.
        ensemble = StoreEnsemble(random_mdp(3, 2, rng=8), 0.5, 0.5, 1, rng=9)
        estimates = estimate_all(ensemble, [])
        assert estimates.shape == (0,)
        assert ensemble.ledger_total == 0 and ensemble.unshared.generative_calls == 0


class TestPolicyChecks:
    @pytest.mark.parametrize("bad_action", [-1, 2])
    def test_action_outside_the_mdp_is_rejected_before_any_row(self, bad_action):
        mdp = random_mdp(3, 2, rng=40)
        policy = DeterministicPolicy(np.array([bad_action, 0, 1]))
        store = SampleMatrix(mdp, rng=41)
        with pytest.raises(ValueError, match="action index outside the MDP"):
            evaluate_policy(store, policy)
        ensemble = StoreEnsemble(mdp, 0.5, 0.5, 2, rng=42)
        with pytest.raises(ValueError, match="action index outside the MDP"):
            estimate_all(ensemble, [DeterministicPolicy(np.zeros(3, dtype=int)), policy])
        assert len(store) == 0 and store.ledger.generative_calls == 0
        assert all(len(copy) == 0 for copy in ensemble.copies) and ensemble.ledger_total == 0

    def test_non_ergodic_policy_fails_at_once(self):
        mdp = swap_mdp()
        policy = DeterministicPolicy(np.zeros(2, dtype=int))
        store = SampleMatrix(mdp, rng=43)
        with pytest.raises(NonErgodicError):
            evaluate_policy(store, policy)
        ensemble = StoreEnsemble(mdp, 0.3, 0.3, 1, rng=44)
        with pytest.raises(NonErgodicError):
            estimate_all(ensemble, [policy])
        assert len(store) == 0 and store.ledger.generative_calls == 0
        assert all(len(copy) == 0 for copy in ensemble.copies) and ensemble.ledger_total == 0

    def test_transient_states_are_accepted(self):
        # State 2 is transient; the closed class {0, 1} is aperiodic, so
        # CFTP coalesces there, as ``cftp`` does on such a chain.
        transition = np.array([[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]]])
        mdp = TabularMDP(transition, RewardModel(np.array([[0.2], [0.6], [1.0]]), "mean"))
        policy = DeterministicPolicy(np.zeros(3, dtype=int))
        states = [evaluate_policy(SampleMatrix(mdp, rng=i), policy).state for i in range(200)]
        assert set(states) <= {0, 1}
        assert 60 <= states.count(0) <= 140
        estimate = estimate_all(StoreEnsemble(mdp, 0.3, 0.3, 1, rng=46), [policy])[0]
        assert 0.2 <= estimate <= 0.6

    def test_cap_leaves_every_unfinished_copy_at_the_cap(self):
        # A lazy chain on 4 states almost never coalesces within 3 steps.
        mdp = lazy_mdp(4, 0.02)
        ensemble = StoreEnsemble(mdp, 0.5, 0.5, 1, rng=45)
        with pytest.raises(CapExceededError):
            estimate_all(ensemble, [DeterministicPolicy(np.zeros(4, dtype=int))], step_cap=3)
        assert [len(copy) for copy in ensemble.copies] == [3] * ensemble.n_copies
        assert ensemble.ledger_total == 3 * 4 * ensemble.n_copies


class TestEvaluatePolicy:
    def test_single_state_mdp(self):
        mdp = TabularMDP(np.ones((1, 1, 1)), RewardModel(np.array([[0.8]]), "mean"))
        store = SampleMatrix(mdp, rng=0)
        record = evaluate_policy(store, DeterministicPolicy(np.array([0])))
        assert record.reward == 0.8
        assert record.rows_consumed == 1 and len(store) == 1

    def test_repeated_evaluation_is_deterministic(self):
        mdp = random_mdp(3, 1, rng=8)
        store = SampleMatrix(mdp, rng=9)
        policy = DeterministicPolicy(np.zeros(3, dtype=int))
        first = evaluate_policy(store, policy)
        rows_after = len(store)
        second = evaluate_policy(store, policy)
        assert first == second
        assert len(store) == rows_after

    def test_row_reuse_across_policies(self):
        mdp = random_mdp(3, 2, rng=10)
        store = SampleMatrix(mdp, rng=11)
        pi = DeterministicPolicy(np.array([0, 0, 0]))
        pi_prime = DeterministicPolicy(np.array([1, 1, 1]))
        evaluate_policy(store, pi)
        evaluate_policy(store, pi_prime)
        grown = len(store)
        third = evaluate_policy(store, pi)
        assert len(store) == grown  # the third call consumed no new rows
        assert third.rows_consumed <= grown

    def test_unbiased_for_every_policy(self):
        # Bias is measured across fresh matrices; within one matrix the
        # estimates of different policies share rows and are correlated.
        mdp = random_mdp(3, 2, rng=14)
        policies = all_policies(mdp)
        exact = np.array([average_reward(induce_chain(mdp, p)) for p in policies])
        n_stores = 10_000
        sums = np.zeros(len(policies))
        squares = np.zeros(len(policies))
        for i in range(n_stores):
            store = SampleMatrix(mdp, rng=(100_000 + i))
            for j, policy in enumerate(policies):
                r = evaluate_policy(store, policy).reward
                sums[j] += r
                squares[j] += r * r
        means = sums / n_stores
        variances = squares / n_stores - means**2
        ses = np.sqrt(variances / n_stores)
        assert np.all(np.abs(means - exact) <= 3 * np.maximum(ses, 1e-12))

    def test_expected_rows_scale_with_size_times_mixing(self):
        # Mean rows to evaluate grows linearly in n * Tmix; the slope stays
        # within a factor 4 of the two-chain constant 2.
        xs, ys = [], []
        for n, eps, seed in [(4, 0.5, 0), (4, 0.25, 1), (6, 0.5, 2), (6, 0.25, 3)]:
            mdp = lazy_mdp(n, eps)
            t_mix = mixing_time(induce_chain(mdp, DeterministicPolicy(np.zeros(n, dtype=int))))
            rows = []
            for i in range(150):
                store = SampleMatrix(mdp, rng=(seed * 1000 + i))
                rows.append(evaluate_policy(store, DeterministicPolicy(np.zeros(n, dtype=int))).rows_consumed)
            xs.append(n * t_mix)
            ys.append(np.mean(rows))
        slope = float(np.dot(xs, ys) / np.dot(xs, xs))
        assert 2.0 / 4.0 <= slope <= 2.0 * 4.0


class TestStoreEnsemble:
    def test_copy_count_formula(self):
        mdp = random_mdp(3, 2, rng=20)
        ensemble = StoreEnsemble(mdp, epsilon=0.1, delta=0.1, n_policies=8, rng=21)
        assert ensemble.n_copies == math.ceil(math.log(8 / 0.1) / 0.1**2) == 439

    @pytest.mark.parametrize(
        "epsilon, delta, n_policies",
        [(0.0, 0.5, 2), (1.0, 0.5, 2), (0.5, 0.0, 2), (0.5, 1.0, 2), (0.5, 0.5, 0)],
        ids=["epsilon_0", "epsilon_1", "delta_0", "delta_1", "no_policies"],
    )
    def test_bad_arguments_are_rejected(self, epsilon, delta, n_policies):
        with pytest.raises(ValueError, match="epsilon, delta"):
            StoreEnsemble(random_mdp(3, 2, rng=20), epsilon, delta, n_policies, rng=21)

    def test_copies_are_a_tuple_of_slots_in_one_row_table(self):
        # Every copy's rows sit in slot i of the ensemble's one row table,
        # and no copy can be swapped for a matrix with a table of its own.
        mdp = random_mdp(3, 2, rng=22)
        ensemble = StoreEnsemble(mdp, epsilon=0.5, delta=0.5, n_policies=2, rng=23)
        assert isinstance(ensemble.copies, tuple)
        with pytest.raises(TypeError):
            ensemble.copies[0] = SampleMatrix(mdp, rng=23)
        table = ensemble.copies[0]._table
        assert all(copy._table is table for copy in ensemble.copies)
        assert [copy._slot for copy in ensemble.copies] == list(range(ensemble.n_copies))

    def test_copies_use_disjoint_streams(self):
        mdp = random_mdp(3, 2, rng=22)
        ensemble = StoreEnsemble(mdp, epsilon=0.5, delta=0.5, n_policies=2, rng=23)
        rows = [copy.row_at(1) for copy in ensemble.copies[:2]]
        assert not np.array_equal(rows[0].next_state, rows[1].next_state) or not np.array_equal(
            rows[0].reward, rows[1].reward
        )

    def test_single_policy_constant_reward_is_exact(self):
        transition = np.ones((1, 2, 2)) * 0.5
        mdp = TabularMDP(transition, RewardModel(np.full((2, 1), 0.7), "mean"))
        ensemble = StoreEnsemble(mdp, epsilon=0.3, delta=0.3, n_policies=1, rng=24)
        estimates = estimate_all(ensemble, [DeterministicPolicy(np.zeros(2, dtype=int))])
        assert estimates[0] == 0.7

    def test_simultaneous_accuracy(self):
        mdp = random_mdp(3, 2, rng=25)
        policies = all_policies(mdp)
        exact = np.array([average_reward(induce_chain(mdp, p)) for p in policies])
        ensemble = StoreEnsemble(mdp, epsilon=0.15, delta=0.1, n_policies=8, rng=26)
        estimates = estimate_all(ensemble, policies)
        assert np.max(np.abs(estimates - exact)) <= 0.15

    def test_simultaneous_accuracy_with_transient_states(self, unichain_mdp):
        # Every policy has one aperiodic closed class; most leave states
        # transient, where the exact oracle's mu is 0.
        mdp = unichain_mdp(4, 2, seed=7)
        policies = all_policies(mdp)
        mus = [stationary_distribution(induce_chain(mdp, p)) for p in policies]
        assert all((mu == 0.0).any() for mu in mus)
        exact = np.array([average_reward(induce_chain(mdp, p)) for p in policies])
        ensemble = StoreEnsemble(mdp, epsilon=0.15, delta=0.1, n_policies=len(policies), rng=27)
        estimates = estimate_all(ensemble, policies)
        assert np.max(np.abs(estimates - exact)) <= 0.15


def test_the_coalescing_check_solves_nothing(monkeypatch):
    policies = all_policies(random_mdp(6, 2, 21))
    expected = estimate_all(StoreEnsemble(random_mdp(6, 2, 21), 0.5, 0.5, 64, 22), policies)

    def refuse(*args):
        raise AssertionError("the coalescing check solved a system")

    monkeypatch.setattr(solvers, "_stationary_on", refuse)
    monkeypatch.setattr(solvers, "_lapack", refuse)
    mdp = random_mdp(6, 2, 21)
    estimates = estimate_all(StoreEnsemble(mdp, 0.5, 0.5, 64, 22), policies)
    assert estimates.tobytes() == expected.tobytes()
    # 64 entries, each holding only its MDP, policy and class mask: no field was filled.
    assert len(mdp.policy_evaluations) == 64
    for entry in mdp.policy_evaluations.values():
        assert set(vars(entry)) == {"mdp", "policy", "mask"}
