"""One ledger contract: the sampler that makes the queries charges them.

Each row of the table runs one sampler at a fixed seed and returns its
outputs (generator states included) and the count its docstring gives for
the times it returned, as (generative, expert) calls. The row is run twice:
with a ledger, whose delta must equal that count, and without one, which
must return the same outputs and leave every Generator in the same state.
A row whose sampler calls another sampler reads the inner sampler's times
through a spy, so the count is checked against the times that paid for it.

The ``-cap`` rows run a sampler into its step cap. It must raise
CapExceededError after charging what it composed: each run or pair counts
min(t_c, cap) steps, with t_c from the same call without a cap, which
draws the same maps up to the cap. A ``-cap0`` row runs at cap 0, where
nothing steps; a one-sample row whose pair meets by the cap returns.
"""

from unittest import mock

import numpy as np
import pytest

from cftp_rl import eval_store, estimators
from cftp_rl.apprenticeship import (
    ExpertModel,
    estimate_expert_features,
    expert_stationary_samples,
    game_column_batch,
)
from cftp_rl.chains import DeterministicPolicy, SampleLedger, StochasticPolicy, induce_chain
from cftp_rl.estimators import (
    SoftmaxPolicy,
    coupled_difference_batch,
    delta_rho_batch,
    policy_action_drawer,
    policy_gradient_batch,
)
from cftp_rl.errors import CapExceededError
from cftp_rl.eval_store import StoreEnsemble, estimate_all
from cftp_rl.instances import random_mdp
from cftp_rl.sampling import cftp, cftp_batch, lower_bound_chain

MDP = random_mdp(4, 2, rng=5, n_features=2)
N, M = MDP.n_states, MDP.n_actions
PI = DeterministicPolicy(np.array([0, 1, 1, 0]))
PI_PRIME = DeterministicPolicy(np.array([1, 1, 0, 0]))
EXPERT = StochasticPolicy(np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1], [0.4, 0.6]]))
# Some runs or pairs of each -cap row below coalesce by its cap, and some do
# not. A store copy grows to the largest t_c of its pairs, so its cap is later.
CAP, STORE_CAP = 2, 6


def spy(module, name, seen):
    """Patch ``module.name`` to record each return value in ``seen``."""
    real = getattr(module, name)

    def record(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(out)
        return out

    return mock.patch.object(module, name, record)


def pair_times(ensemble, policies):
    """Run ``estimate_all``; return its estimates and (copies, policies) t_c, read per chunk."""
    seen = []
    with spy(eval_store, "_cftp_chunk", seen):
        estimates = estimate_all(ensemble, policies)
    times = np.concatenate([times for _, times, _ in seen]).reshape(ensemble.n_copies, -1)
    return estimates, times


def run_cftp(ledger, seed):
    gen = np.random.default_rng(seed)
    state, record = cftp(induce_chain(MDP, PI), gen, ledger=ledger)
    return (state, record.t_c, gen.bit_generator.state), (record.t_c * N, 0)


def run_cftp_batch(ledger, seed):
    gen = np.random.default_rng(seed)
    states, times = cftp_batch(induce_chain(MDP, PI), 40, gen, ledger=ledger)
    return (states, times, gen.bit_generator.state), (int(times.sum()) * N, 0)


def run_expert_stationary_samples(ledger, seed):
    gen = np.random.default_rng(seed)
    expert = ExpertModel(EXPERT, M, seed + 1, ledger)
    samples, times = expert_stationary_samples(MDP, expert, 30, gen, ledger=ledger)
    calls = int(times.sum()) * N
    return (samples, times, gen.bit_generator.state, expert.rng.bit_generator.state), (calls, calls)


def run_estimate_expert_features(ledger, seed):
    # The estimate's generative count comes from its own ledger; the expert's
    # ledger is the one a caller passes in.
    gen = np.random.default_rng(seed)
    expert = ExpertModel(EXPERT, M, seed + 1, ledger)
    est = estimate_expert_features(MDP, expert, 30, gen)
    calls = est.total_steps * N
    assert est.generative_calls == est.expert_calls == calls
    outputs = (est.phi, est.total_steps, est.generative_calls, est.expert_calls)
    return outputs + (gen.bit_generator.state, expert.rng.bit_generator.state), (0, calls)


def run_coupled_difference_batch(ledger, seed):
    gen = np.random.default_rng(seed)
    s0 = np.arange(N).repeat(10)
    draw = policy_action_drawer(PI, MDP, gen)
    values, t_c = coupled_difference_batch(
        MDP, s0, PI_PRIME.actions[s0], PI.actions[s0], draw, gen, ledger=ledger
    )
    return (values, t_c, gen.bit_generator.state), (2 * int(t_c.sum()), 0)


def run_delta_rho_batch(source):
    def run(ledger, seed):
        gen = np.random.default_rng(seed)
        starts = []
        with spy(estimators, "cftp_batch", starts):
            values, t_c = delta_rho_batch(
                MDP, PI, PI_PRIME, 40, gen, s0_source=source, ledger=ledger
            )
        start_calls = sum(int(times.sum()) * N for _, times in starts)
        assert len(starts) == (source == "cftp")
        calls = start_calls + 2 * int(t_c.sum())
        return (values, t_c, gen.bit_generator.state), (calls, 0)

    return run


def run_policy_gradient_batch(ledger, seed):
    gen = np.random.default_rng(seed)
    starts, pairs = [], []
    with spy(estimators, "cftp_batch", starts), spy(estimators, "coupled_difference_batch", pairs):
        policy = SoftmaxPolicy(np.array([[0.3, -0.2], [0.0, 1.0], [-0.5, 0.5], [0.1, 0.0]]))
        grads = policy_gradient_batch(MDP, policy, 40, gen, ledger=ledger)
    [(_, start_times)], [(_, pair_times)] = starts, pairs
    calls = int(start_times.sum()) * N + 2 * int(pair_times.sum())
    return (grads, gen.bit_generator.state), (calls, 0)


def run_game_column_batch(n_samples):
    # The expert acts once at each start, then once per side on every step
    # but the one at which its pair meets: 2 sum(t_c) - n_samples queries.
    # One sample walks in Python scalars, more walk batched; both charge so.
    def run(ledger, seed):
        gen = np.random.default_rng(seed)
        expert = ExpertModel(EXPERT, M, seed + 1, ledger)
        g, t_c = game_column_batch(MDP, expert, PI, n_samples, gen, ledger=ledger)
        calls = 2 * int(t_c.sum())
        outputs = (g, t_c, gen.bit_generator.state, expert.rng.bit_generator.state)
        return outputs, (calls, calls - n_samples)

    return run


def run_estimate_all(ledger, seed):
    # Every copy of a fresh ensemble grows to the largest t_c of its pairs,
    # and each row is one generative call per (state, action).
    ensemble = StoreEnsemble(MDP, 0.5, 0.5, 4, seed)
    if ledger is not None:
        for copy in ensemble.copies:
            copy.ledger = ledger
    estimates, times = pair_times(ensemble, [PI, PI_PRIME])
    return (estimates, times), (N * M * int(times.max(axis=1).sum()), 0)


def store_state(ensemble):
    """Per copy: the rows it holds, next states and rewards, and its row Generator's state."""
    return [
        ([row.next_state for row in copy.rows], [row.reward for row in copy.rows],
         copy._keyed._generator.bit_generator.state)
        for copy in ensemble.copies
    ]


def run_estimate_all_unshared(ledger, seed):
    # Each (copy, policy) pair charges n_states calls per step it composed,
    # as cftp_batch charges each run; no row is drawn for the charge.
    ensemble = StoreEnsemble(MDP, 0.5, 0.5, 4, seed)
    if ledger is not None:
        ensemble.unshared = ledger
    estimates, times = pair_times(ensemble, [PI, PI_PRIME])
    outputs = (estimates, times, store_state(ensemble), ensemble.ledger_total)
    return outputs, (N * int(times.sum()), 0)


def run_cftp_cap(ledger, seed):
    # A lazy 50-state chain cannot coalesce in 20 steps.
    gen = np.random.default_rng(seed)
    with pytest.raises(CapExceededError):
        cftp(lower_bound_chain(50, 0.001), gen, step_cap=20, ledger=ledger)
    return (gen.bit_generator.state,), (20 * 50, 0)


def run_cftp_batch_cap(ledger, seed):
    _, times = cftp_batch(induce_chain(MDP, PI), 40, np.random.default_rng(seed))
    gen = np.random.default_rng(seed)
    with pytest.raises(CapExceededError):
        cftp_batch(induce_chain(MDP, PI), 40, gen, step_cap=CAP, ledger=ledger)
    assert (times <= CAP).any()
    return (gen.bit_generator.state,), (int(np.minimum(times, CAP).sum()) * N, 0)


def run_expert_stationary_samples_cap(ledger, seed):
    _, times = expert_stationary_samples(
        MDP, ExpertModel(EXPERT, M, seed + 1), 30, np.random.default_rng(seed)
    )
    gen = np.random.default_rng(seed)
    expert = ExpertModel(EXPERT, M, seed + 1, ledger)
    with pytest.raises(CapExceededError):
        expert_stationary_samples(MDP, expert, 30, gen, step_cap=CAP, ledger=ledger)
    assert (times <= CAP).any()
    calls = int(np.minimum(times, CAP).sum()) * N
    return (gen.bit_generator.state, expert.rng.bit_generator.state), (calls, calls)


def run_coupled_difference_batch_cap(ledger, seed):
    s0 = np.arange(N).repeat(10)

    def run(step_cap, ledger, gen):
        draw = policy_action_drawer(PI, MDP, gen)
        return coupled_difference_batch(
            MDP, s0, PI_PRIME.actions[s0], PI.actions[s0], draw, gen, step_cap=step_cap, ledger=ledger
        )

    _, t_c = run(1_000_000, None, np.random.default_rng(seed))
    gen = np.random.default_rng(seed)
    with pytest.raises(CapExceededError):
        run(CAP, ledger, gen)
    assert (t_c <= CAP).any()
    return (gen.bit_generator.state,), (2 * int(np.minimum(t_c, CAP).sum()), 0)


def run_delta_rho_batch_cap(ledger, seed):
    # A stochastic pi draws each side's actions from the Generator: one at
    # its start and one after each step that another step follows, so
    # 2 * sum(min(t_c, cap)) in all, as many as the generative calls.
    def run(step_cap, ledger, gen, drawn):
        drawer = estimators.policy_action_drawer

        def counting_drawer(policy, mdp, gen):
            draw = drawer(policy, mdp, gen)

            def counted(states):
                drawn.append(states.size)
                return draw(states)

            return counted

        with mock.patch.object(estimators, "policy_action_drawer", counting_drawer):
            return delta_rho_batch(MDP, EXPERT, PI_PRIME, 40, gen, step_cap=step_cap, ledger=ledger)

    _, t_c = run(1_000_000, None, np.random.default_rng(seed), [])
    gen, drawn = np.random.default_rng(seed), []
    with pytest.raises(CapExceededError):
        run(CAP, ledger, gen, drawn)
    assert (t_c <= CAP).any()
    calls = 2 * int(np.minimum(t_c, CAP).sum())
    assert sum(drawn) == calls
    return (gen.bit_generator.state,), (calls, 0)


def run_game_column_batch_cap(n_samples, step_cap):
    # The expert acts once at each start and once per side after each step
    # that another step follows: 2 * sum(min(t_c, cap)) - n_samples queries.
    # At cap 0 no pair steps, so the expert answers only the n_samples first
    # queries and the dynamics none. The call raises exactly when some pair
    # is still apart at the cap, so one sample that meets by it returns; 40
    # samples hold pairs on both sides of the cap.
    def run(ledger, seed):
        _, t_c = game_column_batch(
            MDP, ExpertModel(EXPERT, M, seed + 1), PI, n_samples, np.random.default_rng(seed)
        )
        gen = np.random.default_rng(seed)
        expert = ExpertModel(EXPERT, M, seed + 1, ledger)
        try:
            game_column_batch(MDP, expert, PI, n_samples, gen, step_cap=step_cap, ledger=ledger)
        except CapExceededError:
            assert step_cap == 0 or (t_c > step_cap).any()
        else:
            assert step_cap > 0 and (t_c <= step_cap).all()
        if n_samples > 1:
            assert step_cap == 0 or (t_c <= step_cap).any()
        calls = 2 * int(np.minimum(t_c, step_cap).sum())
        outputs = (gen.bit_generator.state, expert.rng.bit_generator.state)
        return outputs, (calls, calls - n_samples if step_cap else n_samples)

    return run


def run_estimate_all_cap(ledger, seed):
    # A copy grows to the largest t_c of its pairs, or to the cap if one of
    # them has not coalesced by then.
    _, times = pair_times(StoreEnsemble(MDP, 0.5, 0.5, 4, seed), [PI, PI_PRIME])
    ensemble = StoreEnsemble(MDP, 0.5, 0.5, 4, seed)
    if ledger is not None:
        for copy in ensemble.copies:
            copy.ledger = ledger
    with pytest.raises(CapExceededError):
        estimate_all(ensemble, [PI, PI_PRIME], step_cap=STORE_CAP)
    rows = np.minimum(times.max(axis=1), STORE_CAP)
    assert (rows < STORE_CAP).any()
    return ([len(copy) for copy in ensemble.copies],), (N * M * int(rows.sum()), 0)


def run_estimate_all_unshared_cap(ledger, seed):
    # Each unfinished pair counts step_cap steps, as an unfinished
    # cftp_batch run does.
    _, times = pair_times(StoreEnsemble(MDP, 0.5, 0.5, 4, seed), [PI, PI_PRIME])
    ensemble = StoreEnsemble(MDP, 0.5, 0.5, 4, seed)
    if ledger is not None:
        ensemble.unshared = ledger
    with pytest.raises(CapExceededError):
        estimate_all(ensemble, [PI, PI_PRIME], step_cap=STORE_CAP)
    assert (times < STORE_CAP).any()
    outputs = (store_state(ensemble), ensemble.ledger_total)
    return outputs, (N * int(np.minimum(times, STORE_CAP).sum()), 0)


ROWS = {
    "cftp": run_cftp,
    "cftp_batch": run_cftp_batch,
    "expert_stationary_samples": run_expert_stationary_samples,
    "estimate_expert_features": run_estimate_expert_features,
    "coupled_difference_batch": run_coupled_difference_batch,
    "delta_rho_batch-exact_solve": run_delta_rho_batch("exact_solve"),
    "delta_rho_batch-cftp": run_delta_rho_batch("cftp"),
    "policy_gradient_batch": run_policy_gradient_batch,
    "game_column_batch": run_game_column_batch(40),
    "game_column_batch-1": run_game_column_batch(1),
    "estimate_all": run_estimate_all,
    "estimate_all-unshared": run_estimate_all_unshared,
    "cftp-cap": run_cftp_cap,
    "cftp_batch-cap": run_cftp_batch_cap,
    "expert_stationary_samples-cap": run_expert_stationary_samples_cap,
    "coupled_difference_batch-cap": run_coupled_difference_batch_cap,
    "delta_rho_batch-cap": run_delta_rho_batch_cap,
    "game_column_batch-cap": run_game_column_batch_cap(40, CAP),
    "game_column_batch-cap0": run_game_column_batch_cap(40, 0),
    "game_column_batch-1-cap": run_game_column_batch_cap(1, CAP),
    "game_column_batch-1-cap0": run_game_column_batch_cap(1, 0),
    "estimate_all-cap": run_estimate_all_cap,
    "estimate_all-unshared-cap": run_estimate_all_unshared_cap,
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(ROWS))
def test_ledger_charges_the_documented_count_and_changes_nothing(name, seed):
    ledger = SampleLedger()
    charged, documented = ROWS[name](ledger, seed)
    assert (ledger.generative_calls, ledger.expert_calls) == documented
    assert sum(documented) > 0  # a row that charges nothing would pass vacuously
    free, free_documented = ROWS[name](None, seed)
    np.testing.assert_equal(charged, free)
    assert free_documented == documented
