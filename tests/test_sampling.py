from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cftp_rl.chains import DeterministicPolicy, MarkovChain, RewardModel, SampleLedger, closed_class
from cftp_rl.errors import CapExceededError, NonErgodicError
from cftp_rl import sampling
from cftp_rl.apprenticeship import ExpertModel, game_column_batch, mwal_generative
from cftp_rl.estimators import delta_rho_batch
from cftp_rl.eval_store import SampleMatrix, StoreEnsemble, estimate_all, evaluate_policy
from cftp_rl.instances import random_ergodic_chain, random_mdp
from cftp_rl.seeding import substream
from cftp_rl.sampling import (
    CoalescenceRecord,
    GrandCouplingRecord,
    _cftp_batch_core,
    _cftp_core,
    cftp,
    cftp_batch,
    coalescence_times_batch,
    draw_random_map,
    grand_coupling_sim,
    lower_bound_chain,
)
from cftp_rl.solvers import mixing_time, stationary_distribution


def swap_chain():
    """Two states that swap every step: periodic, so no coupling ever meets."""
    return MarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]]), RewardModel(np.zeros(2)))


def rank_one_chain(n, j):
    """Every row is the point mass on state j: P = 1 e_j^T."""
    transition = np.zeros((n, n))
    transition[:, j] = 1.0
    return MarkovChain(transition, RewardModel(np.zeros(n)))


def transient_chains(count):
    """The first ``count`` chains, by seed, that coalesce but are not irreducible.

    Each has 3 to 8 states and one or two positive entries per row.
    """
    chains, seed = [], 0
    while len(chains) < count:
        gen = np.random.default_rng(substream(3000, seed))
        seed += 1
        n = int(gen.integers(3, 9))
        transition = np.zeros((n, n))
        for row in transition:
            cols = gen.choice(n, int(gen.integers(1, 3)), replace=False)
            row[cols] = gen.uniform(0.1, 1.0, cols.size)
        transition /= transition.sum(axis=1, keepdims=True)
        mask, aperiodic = closed_class(transition)
        if aperiodic and not mask.all():
            chains.append(MarkovChain(transition, RewardModel(np.zeros(n))))
    return chains


class TestDrawRandomMap:
    def test_deterministic_chain_yields_the_successor_function(self):
        p = np.zeros((3, 3))
        p[0, 1] = p[1, 2] = p[2, 0] = 1.0
        chain = MarkovChain(p, RewardModel(np.zeros(3)))
        image = draw_random_map(chain, np.random.default_rng(0))
        assert np.array_equal(image, [1, 2, 0])

    def test_forced_row_in_example_chain(self, example_chain):
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert draw_random_map(example_chain, rng)[1] == 0

    def test_image_frequencies_are_binomial(self, example_chain):
        rng = np.random.default_rng(11)
        draws = np.array([draw_random_map(example_chain, rng)[0] for _ in range(100_000)])
        freq = (draws == 0).mean()
        se = (0.25 / draws.size) ** 0.5
        assert abs(freq - 0.5) < 3 * se


class TestCftp:
    def test_single_state_chain(self):
        chain = MarkovChain(np.ones((1, 1)), RewardModel(np.zeros(1)))
        ledger = SampleLedger()
        state, record = cftp(chain, rng=0, ledger=ledger)
        assert state == 0
        assert record == CoalescenceRecord(t_c=1, state=0)
        assert ledger.generative_calls == 1

    def test_column_of_ones_coalesces_immediately(self):
        p = np.zeros((3, 3))
        p[:, 1] = 1.0
        chain = MarkovChain(p, RewardModel(np.zeros(3)))
        state, record = cftp(chain, rng=5)
        assert state == 1 and record.t_c == 1

    def test_composition_applies_newest_map_first(self):
        f1 = np.array([1, 1, 2])
        f2 = np.array([0, 0, 1])
        maps = {1: f1, 2: f2}
        state, t_c = _cftp_core(lambda t: maps[t], 3, step_cap=10)
        # f1 o f2 is constant at 1; f2 o f1 is not constant.
        assert (state, t_c) == (1, 2)
        composed_wrong = f2[f1]
        assert not (composed_wrong == composed_wrong[0]).all()

    def test_batched_composition_applies_each_runs_newest_map_first(self):
        f1 = np.array([1, 1, 2])
        f2 = np.array([0, 0, 1])
        g = np.array([0, 1, 0])
        # Even runs see f1 then f2 (f1 o f2 is constant at 1); odd runs see
        # f2 then f1 (f2 o f1 is not constant) and coalesce at 0 under g.
        steps = iter([
            ([0, 1, 2, 3], [f1, f2, f1, f2]), ([0, 1, 2, 3], [f2, f1, f2, f1]), ([1, 3], [g, g]),
        ])

        def draw_maps(active):
            runs, maps = next(steps)
            assert active.tolist() == runs
            return np.array(maps).T  # state-major: column j is run active[j]'s map

        states, times = _cftp_batch_core(draw_maps, 4, 3, step_cap=10)
        assert states.tolist() == [1, 0, 1, 0] and times.tolist() == [2, 3, 2, 3]

    @pytest.mark.parametrize("step_cap", [15, 10**6])
    def test_each_step_draws_for_exactly_the_ascending_unfinished_runs(self, step_cap):
        # eval_store's map source slices its pairs by the runs it is handed,
        # so step t must hand it run r exactly when r has not coalesced before t.
        chain = lower_bound_chain(6, 0.3)

        def run(step_cap, ledger=None):
            gen = np.random.default_rng(12)
            seen = []

            def draw_maps(active):
                seen.append(active.copy())
                return np.stack([draw_random_map(chain, gen) for _ in active], axis=1)

            try:
                return seen, _cftp_batch_core(draw_maps, 40, 6, step_cap, ledger)[1]
            except CapExceededError:
                return seen, None

        seen, times = run(10**6)
        assert len(seen) == times.max()
        assert len({int(t) for t in times}) > 3  # the runs retire at many different steps
        for t, active in enumerate(seen, 1):
            np.testing.assert_array_equal(active, np.flatnonzero(times >= t))
        # The cap leaves some runs unfinished: the loop draws what the uncapped
        # one draws up to the cap, charges each run min(t_c, cap) steps and raises.
        ledger = SampleLedger()
        capped, capped_times = run(step_cap, ledger)
        assert (capped_times is None) == (step_cap == 15) == (times.max() > step_cap)
        np.testing.assert_equal(capped, seen[:step_cap])
        assert ledger.generative_calls == 6 * int(np.minimum(times, step_cap).sum())

    def test_empirical_distribution_matches_stationary(self, example_chain):
        states, _ = cftp_batch(example_chain, 100_000, rng=7)
        freq = np.bincount(states, minlength=2) / states.size
        tv = 0.5 * np.abs(freq - np.array([2 / 3, 1 / 3])).sum()
        assert tv < 0.01

    def test_ledger_and_calls_accounting(self, example_chain):
        ledger = SampleLedger()
        _, record = cftp(example_chain, rng=3, ledger=ledger)
        assert ledger.generative_calls == record.t_c * 2

    @pytest.mark.parametrize("seed", range(3))
    def test_exactness_chi_square(self, chain_factory, seed):
        chain = chain_factory(4 + seed * 3, seed=20 + seed)
        mu = stationary_distribution(chain)
        gen = np.random.default_rng(seed)
        scalar = np.array([cftp(chain, gen)[0] for _ in range(20_000)])
        batch, _ = cftp_batch(chain, 20_000, rng=seed)
        for states in (scalar, batch):
            counts = np.bincount(states, minlength=chain.n_states)
            _, p_value = stats.chisquare(counts, mu * states.size)
            assert p_value > 0.001

    def test_exact_on_chains_with_transient_states(self):
        """cftp_batch against the stationary law on 20 chains with transient states.

        No draw may land on a transient state, where mu is exactly 0. A class
        of one state is checked exactly: every draw lands on it. A larger
        class takes a chi-square test over its states at level 0.001, so the
        family-wise false-failure rate is at most 20 x 0.001 = 0.02; the
        seeds are fixed, so the outcome is deterministic.
        """
        one_state = 0
        for i, chain in enumerate(transient_chains(20)):
            mask = chain.closed_class()[0]
            mu = stationary_distribution(chain)
            assert (mu[~mask] == 0.0).all() and (mu[mask] > 0.0).all()
            states, _ = cftp_batch(chain, 50_000, substream(4000, i))
            counts = np.bincount(states, minlength=chain.n_states)
            assert counts[~mask].sum() == 0, f"chain {i}: a draw landed on a transient state"
            if mask.sum() == 1:
                one_state += 1
                assert counts[mask].tolist() == [states.size]
                continue
            _, p_value = stats.chisquare(counts[mask], mu[mask] * states.size)
            assert p_value > 0.001, f"chain {i}: p={p_value:.5f}"
        assert 0 < one_state < 20

    def test_step_cap_exceeded(self):
        chain = lower_bound_chain(10, 0.001)
        with pytest.raises(CapExceededError):
            cftp(chain, rng=0, step_cap=5)
        with pytest.raises(CapExceededError):
            cftp_batch(chain, 4, rng=0, step_cap=5)

    def test_non_ergodic_chain_is_rejected_before_any_draw(self):
        swap = swap_chain()
        ledger = SampleLedger()
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        with pytest.raises(NonErgodicError):
            cftp(swap, gen, ledger=ledger)
        assert ledger.generative_calls == 0 and gen.bit_generator.state == before
        with pytest.raises(NonErgodicError):
            cftp_batch(swap, 4, gen)
        assert gen.bit_generator.state == before

    @settings(max_examples=40)
    @given(st.integers(1, 8), st.data(), st.integers(0, 2**32 - 1))
    def test_rank_one_chain_coalesces_in_one_step(self, n, data, seed):
        j = data.draw(st.integers(0, n - 1))
        chain = rank_one_chain(n, j)
        ledger = SampleLedger()
        state, record = cftp(chain, rng=seed, ledger=ledger)
        assert (state, record.t_c, ledger.generative_calls) == (j, 1, n)
        states, times = cftp_batch(chain, data.draw(st.integers(1, 20)), rng=seed)
        assert (states == j).all() and (times == 1).all()

    @settings(max_examples=40)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_ledger_counts_t_c_maps_and_coalesces_exactly_at_t_c(self, n, chain_seed, seed):
        chain = random_ergodic_chain(n, chain_seed)
        ledger = SampleLedger()
        state, record = cftp(chain, np.random.default_rng(seed), ledger=ledger)
        assert ledger.generative_calls == record.t_c * n
        # Replay the run's maps, newest applied first, from the same stream.
        replay = np.random.default_rng(seed)
        composite = np.arange(n)
        for _ in range(record.t_c):
            # Not constant before t_c (a one-state chain is constant from the start).
            assert n == 1 or (composite != composite[0]).any()
            composite = composite[draw_random_map(chain, replay)]
        assert (composite == state).all()


BIT_GENERATORS = (np.random.PCG64, np.random.Philox, np.random.MT19937, np.random.SFC64)


def half_used_generator(bit_generator, seed):
    """A Generator whose last draw left half of a 64-bit word buffered."""
    gen = np.random.Generator(bit_generator(seed))
    gen.integers(0, 2**32, dtype=np.uint32)
    return gen


def searched_maps(cum, u):
    """Random maps from (k, n_states) uniforms by np.searchsorted per state, without inverse_cdf.

    The references below draw their maps here, so a fault in inverse_cdf
    cannot show on both sides of a comparison.
    """
    return np.stack([np.searchsorted(row, col, side="right") for row, col in zip(cum, u.T)], axis=1)


def reference_map(chain, gen):
    """One random map, drawn from the uniforms draw_random_map reads."""
    return searched_maps(chain.cumulative(), gen.random((1, chain.n_states)))[0]


def per_step_cftp(chain, gen, step_cap):
    """Reference scalar CFTP: one freshly drawn map per step."""
    state, t_c = _cftp_core(lambda t: reference_map(chain, gen), chain.n_states, step_cap)
    return state, t_c, t_c * chain.n_states


def per_step_grand_coupling(chain, gen, step_cap):
    """Reference grand coupling: one freshly drawn map per step, classes by np.unique."""
    n = chain.n_states
    position = np.arange(n)
    counts = [n]
    if n == 1:
        return GrandCouplingRecord(merge_time=0, class_counts=counts, final_state=0)
    for t in range(1, step_cap + 1):
        position = np.unique(reference_map(chain, gen)[position])
        counts.append(position.size)
        if position.size == 1:
            return GrandCouplingRecord(t, counts, int(position[0]))
    raise CapExceededError(f"no full merge within {step_cap} steps")


def per_step_cftp_batch(chain, n_samples, gen, step_cap):
    """Reference batched CFTP: each step draws one fresh map per unfinished run, in run order."""
    n = chain.n_states
    cum = chain.cumulative()
    states = np.zeros(n_samples, dtype=np.int64)
    times = np.zeros(n_samples, dtype=np.int64)
    active = np.arange(n_samples)
    composite = np.tile(np.arange(n), (n_samples, 1))
    for t in range(1, step_cap + 1):
        if not active.size:
            return states, times
        maps = searched_maps(cum, gen.random((active.size, n)))
        composite = np.take_along_axis(composite, maps, axis=1)
        done = (composite == composite[:, :1]).all(axis=1)
        states[active[done]] = composite[done, 0]
        times[active[done]] = t
        active, composite = active[~done], composite[~done]
    if active.size:
        raise CapExceededError(f"no coalescence within {step_cap} steps")
    return states, times


def outcome(call):
    try:
        return call()
    except CapExceededError:
        return "cap exceeded"


class TestBlockedMaps:
    """The maps of cftp and cftp_batch, drawn a block ahead, are the per-step loop's.

    So are grand_coupling_sim's. Each must also leave the Generator in the
    per-step loop's state, calls of all three interleaved on one Generator.
    """

    @settings(max_examples=40)
    @given(
        st.integers(1, 60),
        st.integers(0, 40),
        st.sampled_from(BIT_GENERATORS),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(2, 100),
        st.sampled_from((16, 100, sampling.MAP_BLOCK_ENTRIES)),
    )
    def test_same_draws_and_generator_state_as_the_per_step_loop(
        self, n, n_samples, bit_generator, chain_seed, seed, cap, block_entries
    ):
        chain = random_ergodic_chain(n, chain_seed)
        # Almost never coalesces within ``cap`` steps, so the cap (which may
        # fall inside a block) ends most of its runs.
        lazy = lower_bound_chain(n, 0.001)
        blocked = half_used_generator(bit_generator, seed)
        per_step = half_used_generator(bit_generator, seed)
        runs = [(chain, 10**6)] * 3 + [(lazy, cap), (chain, 10**6)]
        # A small block cap makes the largest block, of any number of maps, come early.
        with mock.patch.object(sampling, "MAP_BLOCK_ENTRIES", block_entries):
            for target, step_cap in runs:
                got = outcome(lambda: cftp_batch(target, n_samples, blocked, step_cap=step_cap))
                want = outcome(lambda: per_step_cftp_batch(target, n_samples, per_step, step_cap))
                np.testing.assert_equal(got, want)
                np.testing.assert_equal(blocked.bit_generator.state, per_step.bit_generator.state)
                ledger = SampleLedger()
                got = outcome(lambda: cftp(target, blocked, step_cap=step_cap, ledger=ledger))
                want = outcome(lambda: per_step_cftp(target, per_step, step_cap))
                if got != "cap exceeded":
                    state, record = got
                    got = (state, record.t_c, ledger.generative_calls)
                assert got == want
                np.testing.assert_equal(blocked.bit_generator.state, per_step.bit_generator.state)
            for target, step_cap in runs:
                got = outcome(lambda: grand_coupling_sim(target, blocked, step_cap=step_cap))
                want = outcome(lambda: per_step_grand_coupling(target, per_step, step_cap))
                assert got == want
                np.testing.assert_equal(blocked.bit_generator.state, per_step.bit_generator.state)
        assert np.array_equal(blocked.random(5), per_step.random(5))

    @pytest.mark.parametrize("n", [6, 12])
    def test_wide_batch_at_the_default_block_cap(self, n):
        # Two thousand runs: a step's maps outgrow the block cap. At n = 6
        # they are counted into state-major blocks; at n = 12, above
        # COUNT_MAX_STATES, they are searched map-major.
        chain = random_ergodic_chain(n, 19)
        blocked, per_step = np.random.default_rng(23), np.random.default_rng(23)
        got = cftp_batch(chain, 2000, blocked)
        want = per_step_cftp_batch(chain, 2000, per_step, 10**6)
        np.testing.assert_equal(got, want)
        np.testing.assert_equal(blocked.bit_generator.state, per_step.bit_generator.state)


def negative_cap_runs():
    """(id, run(gen, ledger), takes a ledger) for every sampler that takes a ``step_cap`` of -1.

    An expert acts with ``gen`` and charges ``ledger``, so both show its queries.
    """
    chain, mdp = lower_bound_chain(4, 0.5), random_mdp(3, 2, rng=7, n_features=2)
    pi, pi_prime = DeterministicPolicy(np.zeros(3, dtype=int)), DeterministicPolicy(np.ones(3, dtype=int))
    return [
        ("cftp", lambda gen, ledger: cftp(chain, gen, step_cap=-1, ledger=ledger), True),
        ("cftp_batch", lambda gen, ledger: cftp_batch(chain, 3, gen, step_cap=-1, ledger=ledger), True),
        ("coalescence_times_batch", lambda gen, _: coalescence_times_batch(chain, 0, 1, 3, gen, step_cap=-1), False),
        ("coalescence_times_batch-censored", lambda gen, _: coalescence_times_batch(
            chain, 0, 1, 3, gen, step_cap=-1, censor_at_cap=True), False),
        ("grand_coupling_sim", lambda gen, _: grand_coupling_sim(chain, gen, step_cap=-1), False),
        ("delta_rho_batch", lambda gen, ledger: delta_rho_batch(
            mdp, pi, pi_prime, 3, gen, step_cap=-1, ledger=ledger), True),
        # Stores are keyed by a seed, not a Generator. estimate_all always
        # charges its ensemble's ledger; evaluate_policy charges none.
        ("estimate_all", lambda gen, _: estimate_all(
            StoreEnsemble(mdp, 0.5, 0.5, 2, 0), [pi, pi_prime], step_cap=-1), False),
        ("evaluate_policy", lambda gen, _: evaluate_policy(SampleMatrix(mdp, 0), pi, step_cap=-1), False),
        ("game_column_batch", lambda gen, ledger: game_column_batch(
            mdp, ExpertModel(pi, 2, gen, ledger), pi_prime, 4, gen, step_cap=-1, ledger=ledger), True),
        # mwal_generative keys its rounds by a seed; only its expert acts with gen.
        ("mwal_generative", lambda gen, ledger: mwal_generative(
            mdp, ExpertModel(pi, 2, gen, ledger), 2, 4, 0.1, 1.0, 0, step_cap=-1), True),
    ]


class TestBoundedFailure:
    """Couplings of a chain that can never coalesce fail at once, at the default cap."""

    @pytest.mark.parametrize(
        "run, ledger",
        [
            pytest.param(run, ledger, id=f"{name}-{'ledger' if ledger else 'no-ledger'}")
            for name, run, takes_ledger in negative_cap_runs()
            for ledger in ((None, SampleLedger()) if takes_ledger else (None,))
        ],
    )
    def test_a_negative_cap_raises_value_error(self, run, ledger):
        # Whatever the sampler and whether or not it charges a ledger, a cap
        # of -1 is a bad argument: not a cap reached, a censored time or a
        # negative ledger charge. It is rejected before any draw: the
        # Generator does not move and no generative or expert call is charged.
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        with pytest.raises(ValueError, match="step_cap must be non-negative"):
            run(gen, ledger)
        assert gen.bit_generator.state == before
        assert ledger is None or (ledger.generative_calls, ledger.expert_calls) == (0, 0)

    def test_coalescence_times_batch(self):
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        with pytest.raises(NonErgodicError):
            coalescence_times_batch(swap_chain(), 0, 1, 10, gen)
        with pytest.raises(NonErgodicError):
            coalescence_times_batch(swap_chain(), 0, 1, 10, gen, censor_at_cap=True)
        assert gen.bit_generator.state == before

    def test_grand_coupling_sim(self):
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        with pytest.raises(NonErgodicError):
            grand_coupling_sim(swap_chain(), gen)
        assert gen.bit_generator.state == before

    def test_equal_starts_need_no_check(self):
        # Two chains started together have met at t = 0, even on a chain
        # that can never coalesce as a whole.
        assert (coalescence_times_batch(swap_chain(), 1, 1, 5, rng=0) == 0).all()

    def test_slow_ergodic_chain_still_hits_the_cap(self):
        chain = lower_bound_chain(10, 0.001)
        with pytest.raises(CapExceededError):
            coalescence_times_batch(chain, 0, 1, 4, rng=0, step_cap=5)
        with pytest.raises(CapExceededError):
            grand_coupling_sim(chain, rng=0, step_cap=5)


class TestCoalescenceTimesBatch:
    def test_start_states_outside_the_chain_are_rejected_before_drawing(self):
        # -1 would read as state 4, and 5 would raise a bare IndexError.
        chain = lower_bound_chain(5, 0.3)
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        for i, j in ((-1, 0), (0, 5), (5, 5)):
            with pytest.raises(ValueError, match="start states"):
                coalescence_times_batch(chain, i, j, 5, gen)
        assert gen.bit_generator.state == before

    def test_independent_coupling_mean_bound(self, chain_factory):
        for seed in range(3):
            chain = chain_factory(10, seed=40 + seed)
            t_mix = mixing_time(chain)
            times = coalescence_times_batch(chain, 0, 9, 2000, rng=seed)
            assert times.mean() <= 2 * 10 * t_mix

    def test_example_chain_times_are_geometric(self, example_chain):
        # From (0, 1) the pair meets with probability 1/2 at every step:
        # state 1 always moves to 0, and state 0 stays with probability 1/2.
        # So t_c ~ Geometric(1/2), with mean 2 and variance 2.
        times = coalescence_times_batch(example_chain, 0, 1, 20_000, rng=6)
        assert times.min() >= 1
        assert abs(times.mean() - 2.0) < 3 * np.sqrt(2.0 / times.size)

    def test_tail_bound(self, chain_factory):
        chain = chain_factory(5, seed=60)
        t_mix = mixing_time(chain)
        times = coalescence_times_batch(chain, 0, 4, 3000, rng=0)
        for delta in (0.1, 0.05):
            threshold = 2 * 5 * t_mix * np.log(1 / delta)
            exceed = int((times > threshold).sum())
            # One-sided binomial test at significance 0.001.
            p_value = stats.binomtest(exceed, times.size, delta, alternative="greater").pvalue
            assert p_value > 0.001

    @settings(max_examples=60)
    @given(
        st.integers(2, 10),
        st.integers(0, 2**32 - 1),
        st.one_of(st.none(), st.floats(0.05, 0.95)),
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
    )
    def test_censoring_truncates_the_uncapped_times(self, n, chain_seed, lazy_eps, seed, cap):
        # The first ``cap`` steps read the same uniforms with or without the
        # cap, so censoring at ``cap`` is exactly min(t_c, cap).
        if lazy_eps is None:
            chain = random_ergodic_chain(n, chain_seed)
        else:
            chain = lower_bound_chain(n, lazy_eps)
        uncapped = coalescence_times_batch(chain, 0, n - 1, 200, rng=seed)
        capped = coalescence_times_batch(
            chain, 0, n - 1, 200, rng=seed, step_cap=cap, censor_at_cap=True
        )
        assert np.array_equal(capped, np.minimum(uncapped, cap))


class TestLowerBoundChain:
    def test_matrix_matches_the_construction(self):
        chain = lower_bound_chain(4, 0.2)
        expected = np.full((4, 4), 0.05)
        expected[np.diag_indices(4)] += 0.8
        assert np.allclose(chain.transition, expected, atol=1e-15)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            lower_bound_chain(4, 0.0)

    def test_slow_pairwise_coalescence(self):
        # Mean coalescence of independent chains is at least n / (2 eps).
        chain = lower_bound_chain(20, 0.1)
        times = coalescence_times_batch(chain, 0, 1, 2000, rng=3)
        lower = 20 / (2 * 0.1)
        rel_se = times.std() / np.sqrt(times.size) / times.mean()
        assert times.mean() >= lower * (1 - 3 * rel_se)


class TestGrandCoupling:
    def test_single_state(self):
        chain = MarkovChain(np.ones((1, 1)), RewardModel(np.zeros(1)))
        record = grand_coupling_sim(chain, rng=0)
        assert record.merge_time == 0 and record.class_counts == [1]

    def test_column_of_ones_merges_in_one_step(self):
        p = np.zeros((4, 4))
        p[:, 2] = 1.0
        chain = MarkovChain(p, RewardModel(np.zeros(4)))
        record = grand_coupling_sim(chain, rng=1)
        assert record.merge_time == 1 and record.final_state == 2
        assert record.class_counts == [4, 1]

    @settings(max_examples=60)
    @given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_class_counts_monotone(self, n, chain_seed, seed):
        chain = random_ergodic_chain(n, chain_seed)
        record = grand_coupling_sim(chain, rng=seed)
        counts = record.class_counts
        assert counts[0] == n and counts[-1] == 1
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert len(counts) == record.merge_time + 1

    def test_forward_coalescence_is_biased_on_the_example_chain(self, example_chain):
        # Forward simulation until all chains merge can only ever end in the
        # left state here, the bias CFTP exists to avoid.
        rng = np.random.default_rng(23)
        for _ in range(10_000):
            record = grand_coupling_sim(example_chain, rng)
            assert record.final_state == 0

    def test_merge_time_bound(self, chain_factory):
        chain = chain_factory(16, seed=80)
        t_mix = mixing_time(chain)
        bound = 512 * 16 * t_mix * np.log(1 / 0.05)
        merges = np.array([grand_coupling_sim(chain, rng=1000 + i).merge_time for i in range(200)])
        assert (merges > bound).mean() <= 0.05
