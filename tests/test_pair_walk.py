"""The coupled-pair loop draws what a per-step loop draws, in the same order.

The reference below steps the pairs the plain way: the reward uniforms of a
step come from one ``Generator.random`` call and the move uniforms from a
second one, and every next state is read off a whole CDF row. Each batched
pair sampler must return the reference's values and coalescence times and
leave every Generator it reads (the expert's included) where the reference
leaves it.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cftp_rl import apprenticeship, estimators, sampling
from cftp_rl.apprenticeship import ExpertModel, game_column_batch
from cftp_rl.chains import DeterministicPolicy, RewardModel, SampleLedger, inverse_cdf
from cftp_rl.errors import CapExceededError
from cftp_rl.estimators import SoftmaxPolicy, delta_rho_batch, policy_gradient_batch
from cftp_rl.instances import random_ergodic_chain, random_mdp, random_stochastic_policy
from cftp_rl.sampling import coalescence_times_batch, lower_bound_chain
from cftp_rl.solvers import policy_evaluation


def per_step_pair_walk(cum, xy, a, draw_actions, gen, step_cap, on_step=None):
    """Reference pair loop; ``on_step(active, xy, a)`` draws its own uniforms."""
    n_actions = cum.shape[0] // cum.shape[1]
    times = np.zeros(xy.shape[1], dtype=np.int64)
    active = np.arange(xy.shape[1])
    t = 0
    while active.size and t < step_cap:
        t += 1
        if on_step is not None:
            on_step(active, xy, a)
        u = gen.random(xy.size)
        rows = cum[(xy * n_actions + a).ravel()]
        xy = (u[:, None] >= rows).sum(axis=1).reshape(2, -1)
        met = xy[0] == xy[1]
        times[active[met]] = t
        active, xy = active[~met], xy[:, ~met]
        if active.size and draw_actions is not None and t < step_cap:
            a = draw_actions(xy.ravel()).reshape(xy.shape)
    times[active] = step_cap
    return times, active


def per_step_coupled_difference(
    mdp, s0, first_actions_a, first_actions_b, draw_actions, rng,
    value="reward", step_cap=1_000_000, ledger=None,
):
    """Reference ``coupled_difference_batch``: a step's rewards draw before its moves, apart."""
    gen = rng
    s0 = np.asarray(s0, dtype=np.int64)
    if value == "reward":
        reward = mdp.reward
        acc = np.zeros(s0.shape[0])

        def on_step(active, xy, a):
            r = reward.sample(reward.means[xy, a], gen)
            acc[active] += r[0] - r[1]

    else:
        acc = np.zeros((s0.shape[0], mdp.features.shape[1]))

        def on_step(active, xy, a):
            f = mdp.features[xy]
            acc[active] += f[0] - f[1]

    t_c, apart = per_step_pair_walk(
        mdp.cumulative(), np.stack((s0, s0)),
        np.stack((first_actions_a, first_actions_b)).astype(np.int64),
        draw_actions, gen, step_cap, on_step,
    )
    if ledger is not None:
        ledger.add_generative(2 * int(t_c.sum()))
    if apart.size:
        raise CapExceededError(f"trajectories did not coalesce within {step_cap} steps")
    return acc, t_c


def outcome(call):
    try:
        return call()
    except CapExceededError:
        return "cap exceeded"


def twice(call, module, name, reference):
    """``call()`` as it is, then with ``module.name`` swapped for ``reference``."""
    got = outcome(call)
    with mock.patch.object(module, name, reference):
        want = outcome(call)
    return got, want


def random_policy(kind, n, n_actions, gen):
    if kind == "deterministic":
        return DeterministicPolicy(gen.integers(0, n_actions, n))
    return random_stochastic_policy(n, n_actions, gen)


POLICY_KINDS = st.sampled_from(("deterministic", "stochastic"))
SEEDS = st.integers(0, 2**32 - 1)
# A cap of 3 steps ends some start-state CFTP runs and some pairs early.
CAPS = st.sampled_from((3, 10**6))


class TestSameDrawsAsThePerStepLoop:
    @settings(max_examples=60)
    @given(
        st.integers(1, 5), st.integers(1, 3), st.sampled_from(RewardModel.MODES),
        st.sampled_from(("exact_solve", "cftp")), POLICY_KINDS, POLICY_KINDS,
        st.integers(0, 40), SEEDS, CAPS,
    )
    def test_delta_rho_batch(
        self, n, n_actions, mode, source, kind, kind_prime, n_samples, seed, cap
    ):
        mdp = random_mdp(n, n_actions, seed, reward_mode=mode)
        gen = np.random.default_rng(seed)
        pi = random_policy(kind, n, n_actions, gen)
        pi_prime = random_policy(kind_prime, n, n_actions, gen)
        gens, ledgers = [], []

        def call():
            gens.append(np.random.default_rng(seed + 1))
            ledgers.append(SampleLedger())
            return delta_rho_batch(
                mdp, pi, pi_prime, n_samples, gens[-1], s0_source=source, step_cap=cap,
                ledger=ledgers[-1],
            )

        got, want = twice(call, estimators, "coupled_difference_batch", per_step_coupled_difference)
        np.testing.assert_equal(got, want)
        np.testing.assert_equal(gens[0].bit_generator.state, gens[1].bit_generator.state)
        assert ledgers[0] == ledgers[1]

    @settings(max_examples=30)
    @given(
        st.integers(1, 4), st.integers(1, 3), st.sampled_from(RewardModel.MODES),
        st.integers(1, 30), SEEDS, CAPS,
    )
    def test_policy_gradient_batch(self, n, n_actions, mode, n_samples, seed, cap):
        mdp = random_mdp(n, n_actions, seed, reward_mode=mode)
        policy = SoftmaxPolicy(np.random.default_rng(seed).normal(size=(n, n_actions)))
        gens = []

        def call():
            gens.append(np.random.default_rng(seed + 1))
            return policy_gradient_batch(mdp, policy, n_samples, gens[-1], step_cap=cap)

        got, want = twice(call, estimators, "coupled_difference_batch", per_step_coupled_difference)
        np.testing.assert_equal(got, want)
        np.testing.assert_equal(gens[0].bit_generator.state, gens[1].bit_generator.state)

    # One sample walks in Python scalars, not in coupled_difference_batch, so
    # patching that would compare the one-sample walk with itself; it has
    # its own test below.
    @settings(max_examples=30)
    @given(st.integers(1, 5), st.integers(1, 3), POLICY_KINDS, st.integers(2, 30), SEEDS, CAPS)
    def test_game_column_batch(self, n, n_actions, kind, n_samples, seed, cap):
        mdp = random_mdp(n, n_actions, seed, n_features=2)
        gen = np.random.default_rng(seed)
        pi_t = DeterministicPolicy(gen.integers(0, n_actions, n))
        expert_policy = random_policy(kind, n, n_actions, gen)
        gens, experts = [], []

        def call():
            gens.append(np.random.default_rng(seed + 1))
            experts.append(ExpertModel(expert_policy, n_actions, rng=seed + 2))
            return game_column_batch(mdp, experts[-1], pi_t, n_samples, gens[-1], step_cap=cap)

        got, want = twice(
            call, apprenticeship, "coupled_difference_batch", per_step_coupled_difference
        )
        np.testing.assert_equal(got, want)
        np.testing.assert_equal(gens[0].bit_generator.state, gens[1].bit_generator.state)
        np.testing.assert_equal(
            experts[0].rng.bit_generator.state, experts[1].rng.bit_generator.state
        )
        assert experts[0].ledger == experts[1].ledger

    @settings(max_examples=150)
    @given(
        st.integers(1, 5), st.integers(1, 3), POLICY_KINDS, st.integers(1, 3), SEEDS,
        st.sampled_from((0, 1, 2, 3, 10**6)),
    )
    def test_game_column_batch_of_one_sample(self, n, n_actions, kind, n_features, seed, cap):
        mdp = random_mdp(n, n_actions, seed, n_features=n_features)
        gen = np.random.default_rng(seed)
        pi_t = DeterministicPolicy(gen.integers(0, n_actions, n))
        expert_policy = random_policy(kind, n, n_actions, gen)
        runs = []

        def start(reference):
            gen = np.random.default_rng(seed + 1)
            ledger = SampleLedger()
            expert = ExpertModel(expert_policy, n_actions, rng=seed + 2)
            runs.append((gen, ledger, expert))
            if not reference:
                return game_column_batch(mdp, expert, pi_t, 1, gen, step_cap=cap, ledger=ledger)
            # The start state and first actions, drawn as the batched path draws them.
            mu_cdf = policy_evaluation(mdp, pi_t).mu_cdf
            s0 = inverse_cdf(mu_cdf, np.zeros(1, np.int64), gen.random(1))
            return per_step_coupled_difference(
                mdp, s0, pi_t.actions[s0], expert.act_batch(s0), expert.act_batch, gen,
                value="features", step_cap=cap, ledger=ledger,
            )

        got, want = outcome(lambda: start(False)), outcome(lambda: start(True))
        assert (got == "cap exceeded") == (want == "cap exceeded")
        if want != "cap exceeded":
            for a, b in zip(got, want):
                assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
        (gen, ledger, expert), (ref_gen, ref_ledger, ref_expert) = runs
        assert gen.bit_generator.state == ref_gen.bit_generator.state
        assert expert.rng.bit_generator.state == ref_expert.rng.bit_generator.state
        assert ledger == ref_ledger
        assert expert.ledger == ref_expert.ledger

    @settings(max_examples=30)
    @given(
        st.integers(2, 8), st.booleans(), st.integers(0, 40), SEEDS, st.sampled_from((5, 10**7))
    )
    def test_coalescence_times_batch(self, n, lazy, n_runs, seed, cap):
        chain = lower_bound_chain(n, 0.05) if lazy else random_ergodic_chain(n, seed)
        i, j = np.random.default_rng(seed).choice(n, 2, replace=False)
        gens = []

        def call():
            gens.append(np.random.default_rng(seed + 1))
            return coalescence_times_batch(
                chain, i, j, n_runs, gens[-1], step_cap=cap, censor_at_cap=True
            )

        got, want = twice(call, sampling, "_pair_walk", per_step_pair_walk)
        np.testing.assert_equal(got, want)
        np.testing.assert_equal(gens[0].bit_generator.state, gens[1].bit_generator.state)
