"""The references of every "same bits" check, each written once: plain, per step and slow on purpose.

Each library sampler that draws a block ahead, batches its runs or walks in
Python scalars has a reference here that draws one step at a time, in the
order the sampler's docstring gives. A reference takes the library
function's arguments, returns its values, charges ``ledger`` the documented
count (n_states calls per CFTP run per step, 2 per pair step) and raises
CapExceededError where the library does. ``tests/test_same_bits.py`` runs
one row per sampler against them.

Every categorical draw here is ``categorical`` on tables built by
``cdf_rows``, and every reward draw ``reward_draws``; none calls the
library's ``inverse_cdf``, ``cdf_table`` or ``RewardModel.sample``, so a
fault in that kernel cannot show on both sides of a comparison. The
references that are not samplers (Howard's iteration, the MWAL rounds and
the closed class) and the hypothesis strategies the tests share live here
too.
"""

import math

import numpy as np
from hypothesis import strategies as st

from cftp_rl.apprenticeship import ExpertFeatureEstimate, feature_expectations_exact
from cftp_rl.chains import DeterministicPolicy, RewardModel, SampleLedger, TabularMDP, induce_chain
from cftp_rl.errors import CapExceededError
from cftp_rl.hedge import HedgeState, hedge_step
from cftp_rl.instances import random_mdp, random_stochastic_policy
from cftp_rl.sampling import CoalescenceRecord, GrandCouplingRecord
from cftp_rl.solvers import optimal_policy, stationary_distribution

# ---------------------------------------------------------------------------
# Shared strategies and instances
# ---------------------------------------------------------------------------

SEEDS = st.integers(0, 2**32 - 1)
# Caps 0 to 3 end runs and pairs at or within their first steps; 10**6 lets them finish.
CAPS = st.sampled_from((0, 1, 2, 3, 10**6))
BIT_GENERATORS = (np.random.PCG64, np.random.Philox, np.random.MT19937, np.random.SFC64)
# (bit generator kind, seed, half used): the arguments of ``generator``.
GENERATORS = st.tuples(st.sampled_from(BIT_GENERATORS), SEEDS, st.booleans())
POLICY_KINDS = st.sampled_from(("deterministic", "stochastic"))
CAPPED = "cap exceeded"


def generator(bit_generator, seed, half_used=True):
    """A Generator on ``bit_generator(seed)``; a half-used one's last draw left half of a 64-bit word buffered."""
    gen = np.random.Generator(bit_generator(seed))
    if half_used:
        gen.integers(0, 2**32, dtype=np.uint32)
    return gen


def outcome(call):
    """``call()``, or CAPPED if it raised CapExceededError."""
    try:
        return call()
    except CapExceededError:
        return CAPPED


def unichain_mdp(n_states, n_actions, seed, reward_mode="bernoulli", n_features=None):
    """Random MDP whose policies all have one aperiodic closed class, most with transient states.

    Every row of every action moves to state 0 with probability in
    [0.2, 0.8] and puts the rest on one random state. So every policy
    reaches state 0 from everywhere, and state 0 keeps a self-loop; most
    policies leave some states transient. Features, if asked for, are drawn last.
    """
    gen = np.random.default_rng(seed)
    transition = np.zeros((n_actions, n_states, n_states))
    to_zero = gen.uniform(0.2, 0.8, (n_actions, n_states))
    a, s = np.indices((n_actions, n_states))
    transition[a, s, 0] = to_zero
    transition[a, s, gen.integers(0, n_states, (n_actions, n_states))] += 1.0 - to_zero
    reward = RewardModel(gen.random((n_states, n_actions)), reward_mode)
    features = gen.random((n_states, n_features)) if n_features else None
    return TabularMDP(transition, reward, features)


@st.composite
def mdps(draw, n_states=st.integers(1, 5), n_actions=st.integers(1, 3), n_features=st.none()):
    """A random Dirichlet MDP or a ``unichain_mdp``, of any reward mode."""
    n, m, k = draw(n_states), draw(n_actions), draw(n_features)
    mode, seed = draw(st.sampled_from(RewardModel.MODES)), draw(SEEDS)
    if draw(st.booleans()):
        return unichain_mdp(n, m, seed, mode, k)
    return random_mdp(n, m, seed, n_features=k, reward_mode=mode)


def random_policy(kind, n_states, n_actions, rng):
    """A deterministic policy of random actions, or a Dirichlet stochastic one."""
    gen = np.random.default_rng(rng)
    if kind == "deterministic":
        return DeterministicPolicy(gen.integers(0, n_actions, n_states))
    return random_stochastic_policy(n_states, n_actions, gen)


def policies(mdp, kinds=POLICY_KINDS):
    """Strategy: a policy on ``mdp`` of one of ``kinds``."""
    return st.builds(random_policy, kinds, st.just(mdp.n_states), st.just(mdp.n_actions), SEEDS)


# ---------------------------------------------------------------------------
# The categorical draw
# ---------------------------------------------------------------------------


def cdf_rows(probs):
    """Running sums of ``probs`` along the last axis, left to right, as the samplers' tables hold them.

    Every sum from the first that reaches the row's total on is 1.0, and
    none exceeds 1.0, so a uniform below 1 never lands on a category of
    probability 0.
    """
    cum = np.cumsum(probs, axis=-1)
    return np.where(cum >= cum[..., -1:], 1.0, np.minimum(cum, 1.0))


def mdp_rows(mdp):
    """``cdf_rows`` of each (state, action) next-state law, at row state * n_actions + action."""
    return cdf_rows(mdp.transition.transpose(1, 0, 2).reshape(-1, mdp.n_states))


def categorical(table, rows, u):
    """The reference categorical draw: for each u, the number of entries <= u in its row of ``table``.

    ``rows`` broadcasts to ``u``'s shape; each u is compared with every
    entry of its row.
    """
    return (table[rows] <= np.asarray(u)[..., None]).sum(axis=-1)


def random_map(table, gen):
    """One random map of the chain with CDF rows ``table``: one uniform per state, in state order."""
    n = table.shape[0]
    return categorical(table, np.arange(n), gen.random(n))


def stationary_draws(mdp, policy, count, gen):
    """``count`` start states from the stationary law of ``policy``'s chain, one uniform each."""
    mu = stationary_distribution(induce_chain(mdp, policy))
    return categorical(cdf_rows(mu)[None], np.zeros(count, dtype=np.int64), gen.random(count))


def policy_actions(policy, mdp, gen):
    """``estimators.policy_action_drawer``: a deterministic policy's actions, or one uniform per state."""
    if isinstance(policy, DeterministicPolicy):
        return lambda states: policy.actions[states]
    table = cdf_rows(policy.action_probs(mdp.n_actions))
    return lambda states: categorical(table, states, gen.random(states.shape[0]))


def expert_actions(expert):
    """``ExpertModel.act_batch``: one uniform from the expert's Generator and one charged query per state."""
    table = cdf_rows(expert.policy.probs)

    def act(states):
        u = expert.rng.random(states.shape[0])
        expert.ledger.add_expert(states.shape[0])
        return categorical(table, states, u)

    return act


def generator_of(rng):
    """A Generator as is; an int or SeedSequence seeds a default one."""
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


def reward_draws(reward, means, gen):
    """One reward per entry of ``means``, without ``RewardModel.sample``.

    In "bernoulli" mode, 1.0 when the entry's uniform is below its mean,
    else 0.0; in "mean" mode, the means themselves.
    """
    if reward.mode == "mean":
        return np.array(means, dtype=float)
    return (gen.random(means.shape) < means).astype(float)


def charge(ledger, calls):
    if ledger is not None:
        ledger.add_generative(calls)


# ---------------------------------------------------------------------------
# CFTP
# ---------------------------------------------------------------------------


def reference_cftp(map_at, n_states, step_cap):
    """Per-step scalar CFTP over the maps ``map_at(t)`` for past times t = 1, 2, ...; returns (state, t_c).

    Composes the newest map first, one map per step, and tests every
    composite. Raises CapExceededError when none is constant within
    ``step_cap`` steps.
    """
    composite = np.arange(n_states)
    for t in range(1, step_cap + 1):
        composite = composite[map_at(t)]
        if (composite == composite[0]).all():
            return int(composite[0]), t
    raise CapExceededError(f"no coalescence within {step_cap} steps")


def per_step_cftp(chain, rng, step_cap=1_000_000, ledger=None):
    """Reference ``sampling.cftp``: one freshly drawn map per step."""
    table, gen, n = cdf_rows(chain.transition), generator_of(rng), chain.n_states
    try:
        state, t_c = reference_cftp(lambda t: random_map(table, gen), n, step_cap)
    except CapExceededError:
        charge(ledger, step_cap * n)
        raise
    charge(ledger, t_c * n)
    return state, CoalescenceRecord(t_c=t_c, state=state)


def per_step_grand_coupling(chain, rng, step_cap=10_000_000):
    """Reference ``sampling.grand_coupling_sim``: one freshly drawn map per step, classes by np.unique."""
    table, gen, n = cdf_rows(chain.transition), generator_of(rng), chain.n_states
    position = np.arange(n)
    counts = [n]
    if n == 1:
        return GrandCouplingRecord(merge_time=0, class_counts=counts, final_state=0)
    for t in range(1, step_cap + 1):
        position = np.unique(random_map(table, gen)[position])
        counts.append(position.size)
        if position.size == 1:
            return GrandCouplingRecord(t, counts, int(position[0]))
    raise CapExceededError(f"no full merge within {step_cap} steps")


def per_step_cftp_batch(chain, n_samples, rng, step_cap=1_000_000, ledger=None):
    """Reference ``sampling.cftp_batch``: each step draws one fresh map per unfinished run, in run order."""
    table, gen, n = cdf_rows(chain.transition), generator_of(rng), chain.n_states
    states = np.zeros(n_samples, dtype=np.int64)
    times = np.zeros(n_samples, dtype=np.int64)
    active = np.arange(n_samples)
    composite = np.tile(np.arange(n), (n_samples, 1))
    for t in range(1, step_cap + 1):
        if not active.size:
            break
        maps = categorical(table, np.arange(n), gen.random((active.size, n)))
        composite = np.take_along_axis(composite, maps, axis=1)
        done = (composite == composite[:, :1]).all(axis=1)
        states[active[done]] = composite[done, 0]
        times[active[done]] = t
        active, composite = active[~done], composite[~done]
    times[active] = step_cap
    charge(ledger, int(times.sum()) * n)
    if active.size:
        raise CapExceededError(f"no coalescence within {step_cap} steps")
    return states, times


def reference_expert_samples(mdp, expert, m, rng, step_cap=1_000_000, ledger=None):
    """Reference ``apprenticeship.expert_stationary_samples``: m scalar CFTP runs in lockstep.

    At step t each unfinished sample, in index order, draws its n dynamics
    uniforms, queries the expert once for each of its n states and composes
    that one map into its own composite, the newest map applied first.
    """
    gen, n, table = generator_of(rng), mdp.n_states, mdp_rows(mdp)
    act = expert_actions(expert)
    all_states = np.arange(n)
    composites = [all_states] * m
    samples = np.full(m, -1, dtype=np.int64)
    times = np.full(m, step_cap, dtype=np.int64)
    for t in range(1, step_cap + 1):
        unfinished = np.flatnonzero(samples < 0)
        if not unfinished.size:
            break
        for i in unfinished:
            u = gen.random(n)
            f = categorical(table, all_states * mdp.n_actions + act(all_states), u)
            composites[i] = composites[i][f]
            if (composites[i] == composites[i][0]).all():
                samples[i], times[i] = composites[i][0], t
    charge(ledger, int(times.sum()) * n)
    if (samples < 0).any():
        raise CapExceededError(f"no coalescence within {step_cap} steps")
    return samples, times


def reference_expert_features(mdp, expert, m, rng, step_cap=1_000_000):
    """Reference ``apprenticeship.estimate_expert_features``: the mean feature of the reference samples."""
    ledger, before = SampleLedger(), expert.ledger.expert_calls
    samples, times = reference_expert_samples(mdp, expert, m, rng, step_cap, ledger)
    return ExpertFeatureEstimate(
        phi=mdp.features[samples].mean(axis=0), n_samples=m, total_steps=int(times.sum()),
        expert_calls=expert.ledger.expert_calls - before, generative_calls=ledger.generative_calls,
    )


# ---------------------------------------------------------------------------
# Coupled pairs
# ---------------------------------------------------------------------------


def per_step_pair_walk(cum, xy, a, draw_actions, gen, step_cap, on_step=None):
    """Reference pair loop; returns (times, apart). ``on_step(active, xy, a)`` draws its own uniforms.

    Each step moves the x sides, then the y sides, with one uniform each,
    retires the pairs that met, and, if another step follows, draws the
    next actions of the pairs still apart.
    """
    n_actions = cum.shape[0] // cum.shape[1]
    times = np.zeros(xy.shape[1], dtype=np.int64)
    active = np.arange(xy.shape[1])
    t = 0
    while active.size and t < step_cap:
        t += 1
        if on_step is not None:
            on_step(active, xy, a)
        u = gen.random(xy.size)
        xy = categorical(cum, (xy * n_actions + a).ravel(), u).reshape(2, -1)
        met = xy[0] == xy[1]
        times[active[met]] = t
        active, xy = active[~met], xy[:, ~met]
        if active.size and draw_actions is not None and t < step_cap:
            a = draw_actions(xy.ravel()).reshape(xy.shape)
    times[active] = step_cap
    return times, active


def reference_coalescence_times(chain, i, j, n_runs, rng, step_cap=10_000_000, censor_at_cap=False):
    """Reference ``sampling.coalescence_times_batch``."""
    if i == j:
        return np.zeros(n_runs, dtype=np.int64)
    xy = np.array([[i], [j]], dtype=np.int64).repeat(n_runs, axis=1)
    times, apart = per_step_pair_walk(cdf_rows(chain.transition), xy, 0, None, generator_of(rng), step_cap)
    if apart.size and not censor_at_cap:
        raise CapExceededError(f"no coalescence within {step_cap} steps")
    return times


def per_step_coupled_difference(
    mdp, s0, first_actions_a, first_actions_b, draw_actions, rng,
    value="reward", step_cap=1_000_000, ledger=None,
):
    """Reference ``estimators.coupled_difference_batch``: a step's rewards draw before its moves, apart."""
    gen = generator_of(rng)
    s0 = np.asarray(s0, dtype=np.int64)
    if value == "reward":
        acc = np.zeros(s0.shape[0])

        def on_step(active, xy, a):
            r = reward_draws(mdp.reward, mdp.reward.means[xy, a], gen)
            acc[active] += r[0] - r[1]

    else:
        acc = np.zeros((s0.shape[0], mdp.features.shape[1]))

        def on_step(active, xy, a):
            f = mdp.features[xy]
            acc[active] += f[0] - f[1]

    t_c, apart = per_step_pair_walk(
        mdp_rows(mdp), np.stack((s0, s0)),
        np.stack((first_actions_a, first_actions_b)).astype(np.int64),
        draw_actions, gen, step_cap, on_step,
    )
    charge(ledger, 2 * int(t_c.sum()))
    if apart.size:
        raise CapExceededError(f"trajectories did not coalesce within {step_cap} steps")
    return acc, t_c


def reference_delta_rho(
    mdp, pi, pi_prime, n_samples, rng, s0_source="exact_solve", step_cap=1_000_000, ledger=None
):
    """Reference ``estimators.delta_rho_batch``: starts, then pi_prime's first actions, then pi's."""
    gen = generator_of(rng)
    if s0_source == "exact_solve":
        s0 = stationary_draws(mdp, pi_prime, n_samples, gen)
    else:
        s0, _ = per_step_cftp_batch(induce_chain(mdp, pi_prime), n_samples, gen, step_cap, ledger)
    draw_pi, draw_pi_prime = policy_actions(pi, mdp, gen), policy_actions(pi_prime, mdp, gen)
    return per_step_coupled_difference(
        mdp, s0, draw_pi_prime(s0), draw_pi(s0), draw_pi, gen, "reward", step_cap, ledger
    )


def reference_policy_gradient(mdp, policy, n_samples, rng, step_cap=1_000_000, ledger=None):
    """Reference ``estimators.policy_gradient_batch``: CFTP starts, the main then the baseline actions."""
    gen, stochastic = generator_of(rng), policy.as_policy()
    s0, _ = per_step_cftp_batch(induce_chain(mdp, stochastic), n_samples, gen, step_cap, ledger)
    draw = policy_actions(stochastic, mdp, gen)
    a_main = draw(s0)
    a_base = draw(s0)
    q_hat, _ = per_step_coupled_difference(mdp, s0, a_main, a_base, draw, gen, "reward", step_cap, ledger)
    return policy.grad_log(s0, a_main) * q_hat[:, None, None]


def reference_game_column(mdp, expert, pi_t, n_samples, rng, step_cap=1_000_000, ledger=None):
    """Reference ``apprenticeship.game_column_batch``, of one sample or many.

    Exact start states, pi_t's first actions, then the expert's, and the
    expert thereafter on both sides.
    """
    gen, act = generator_of(rng), expert_actions(expert)
    s0 = stationary_draws(mdp, pi_t, n_samples, gen)
    return per_step_coupled_difference(
        mdp, s0, pi_t.actions[s0], act(s0), act, gen, "features", step_cap, ledger
    )


# ---------------------------------------------------------------------------
# Sample matrices
# ---------------------------------------------------------------------------


def store_seed(seed, copy=None):
    """The SeedSequence of a stand-alone matrix keyed by ``seed``, or of an ensemble's copy ``copy``."""
    return np.random.SeedSequence(seed, spawn_key=() if copy is None else (copy,))


def reference_row(mdp, seed, t):
    """Row t of the sample matrix keyed by the SeedSequence ``seed``: (next states, rewards).

    The uniforms come from a fresh Philox stream built here, its key from
    ``seed``, its counter at (0, t): one per (state, action), state-major,
    for the next states, then the rewards'.
    """
    n, m = mdp.n_states, mdp.n_actions
    key = seed.generate_state(2, np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=[0, t, 0, 0]))
    next_state = categorical(mdp_rows(mdp), np.arange(n * m), gen.random(n * m)).reshape(n, m)
    return next_state, reward_draws(mdp.reward, mdp.reward.means, gen)


def reference_evaluate(mdp, seed, policy, rows, step_cap=1_000_000):
    """Scalar CFTP for ``policy`` on the matrix keyed by ``seed``; returns (reward, t_c, state).

    ``rows`` holds the rows drawn so far, ``reference_row`` at t = 1, 2,
    ...; a row is appended when first read. The reward is the one stored
    at (state, pi(state)) in row t_c.
    """
    n = mdp.n_states

    def map_at(t):
        if t > len(rows):
            rows.append(reference_row(mdp, seed, t))
        return rows[t - 1][0][np.arange(n), policy.actions]

    state, t_c = reference_cftp(map_at, n, step_cap)
    return float(rows[t_c - 1][1][state, policy.actions[state]]), t_c, state


def reference_store_rows(mdp, seed, stops):
    """A stand-alone matrix grown to each length in ``stops``: its rows and its ledger's calls."""
    rows = [reference_row(mdp, store_seed(seed), t) for t in range(1, max(stops, default=0) + 1)]
    return rows, len(rows) * mdp.n_states * mdp.n_actions


def reference_evaluations(mdp, seed, policies, step_cap):
    """``evaluate_policy`` of each policy in turn on one stand-alone matrix: the results, rows and calls."""
    rows = []
    results = [
        outcome(lambda: reference_evaluate(mdp, store_seed(seed), policy, rows, step_cap))
        for policy in policies
    ]
    return results, rows, len(rows) * mdp.n_states * mdp.n_actions


def reference_estimate_all(mdp, seed, policies, lengths, step_cap):
    """Reference ``estimate_all``: one scalar CFTP per (copy, policy) pair, copy order.

    Copy i starts with ``lengths[i]`` rows. Returns the estimates (CAPPED
    if a pair ran ``step_cap`` steps), every copy's rows and row calls, and
    the unshared calls: n_states per step of each pair.
    """
    n, m = mdp.n_states, mdp.n_actions
    estimates = np.zeros(len(policies))
    copies, unshared, capped = [], 0, False
    for i, length in enumerate(lengths):
        seed_i = store_seed(seed, i)
        rows = [reference_row(mdp, seed_i, t) for t in range(1, length + 1)]
        for j, policy in enumerate(policies):
            try:
                reward, t_c, _ = reference_evaluate(mdp, seed_i, policy, rows, step_cap)
                estimates[j] += reward
            except CapExceededError:
                capped, t_c = True, step_cap
            unshared += n * t_c
        copies.append(rows)
    result = CAPPED if capped else estimates / len(lengths)
    return result, copies, [len(rows) * n * m for rows in copies], unshared


# ---------------------------------------------------------------------------
# References that are not samplers
# ---------------------------------------------------------------------------


def dense_bias_and_q(mdp, policy, reward):
    """Uncached reference: mu and h by least squares on the stacked, constrained systems."""
    n = mdp.n_states
    idx = np.arange(n)
    p = mdp.transition[policy.actions, idx, :]
    stacked = np.vstack([p.T - np.eye(n), np.ones(n)])
    mu = np.linalg.lstsq(stacked, np.eye(n + 1)[-1], rcond=None)[0]
    r = reward[idx, policy.actions]
    rho = float(mu @ r)
    stacked = np.vstack([np.eye(n) - p, mu])
    h = np.linalg.lstsq(stacked, np.append(r - rho, 0.0), rcond=None)[0]
    q = reward - rho + np.einsum("axy,y->xa", mdp.transition, h)
    return rho, h, q


def reference_howard(mdp, reward, tol=1e-10):
    """Cold-start Howard iteration on the dense reference, lowest-index tie-breaking."""
    policy = DeterministicPolicy(np.zeros(mdp.n_states, dtype=int))
    seen = {policy.key()}
    while True:
        _, _, q = dense_bias_and_q(mdp, policy, reward)
        improved = DeterministicPolicy(np.argmax(q >= q.max(axis=1, keepdims=True) - tol, axis=1))
        if improved == policy or improved.key() in seen:
            return policy
        seen.add(improved.key())
        policy = improved


def reference_mwal_rounds(mdp, k, n_rounds, loss):
    """The Hedge loop with a warm-started ``optimal_policy`` call every round."""
    state = HedgeState.create(k, n_rounds)
    policies, weights, losses, values = [], [], [], []
    pi_t = None
    for t in range(n_rounds):
        w = state.weights
        pi_t = optimal_policy(mdp, reward_override=mdp.features @ w, start=pi_t)
        phi_t = feature_expectations_exact(mdp, pi_t)
        g = loss(t, pi_t, phi_t)
        policies.append(pi_t)
        weights.append(w)
        losses.append(g)
        values.append(float(w @ phi_t))
        state = hedge_step(state, g)
    return policies, np.array(weights), np.array(losses), np.array(values)


def reference_class(transition):
    """Closed class and aperiodicity by boolean matrix powers, with no graph search.

    The closed class is the set of states reached from every state, if any.
    Its period is the gcd of the lengths t <= |class| of its closed walks:
    every simple cycle is one of them, and every closed walk's length is a
    multiple of the period.
    """
    support = (transition > 0.0).astype(int)
    n = support.shape[0]
    walks = reach = np.eye(n, dtype=int)
    for _ in range(n):
        walks = np.minimum(walks @ support, 1)
        reach = reach | walks
    core = reach.all(axis=0)
    if not core.any():
        return None, False
    inner = support[np.ix_(core, core)]
    walks = np.eye(inner.shape[0], dtype=int)
    period = 0
    for t in range(1, inner.shape[0] + 1):
        walks = np.minimum(walks @ inner, 1)
        if walks.diagonal().any():
            period = math.gcd(period, t)
    return core, period == 1
