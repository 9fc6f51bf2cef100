"""Property tests for the per-MDP policy-evaluation cache, warm-started policy iteration,
the per-policy feature Q-tables the MWAL rounds check their warm start against, the
blocked MWAL rounds against the round-by-round reference, and the single round's
Python-float pieces against their numpy forms."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cftp_rl import chains, solvers
from cftp_rl.apprenticeship import _mwal_rounds, _row_dots, feature_expectations_exact
from cftp_rl.chains import DeterministicPolicy, RewardModel, TabularMDP, induce_chain
from cftp_rl.errors import NonErgodicError, SolveError
from cftp_rl.hedge import (
    LOSS_TOL, HedgeState, checked_loss, clamp_mask, hedge_step, rescale_loss,
)
from cftp_rl.instances import random_mdp
from cftp_rl.solvers import (
    IMPROVEMENT_TOL, bias_and_q, improved_actions, keeps_actions, optimal_policy,
    policy_evaluation, state_reward_q, stationary_distribution,
)

PROPERTY_SETTINGS = settings(max_examples=60)


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


@st.composite
def instances(draw):
    """A random ergodic MDP (Dirichlet rows), a per-state reward and a policy on it."""
    n = draw(st.integers(2, 6))
    n_actions = draw(st.integers(2, 3))
    mdp = random_mdp(n, n_actions, draw(st.integers(0, 2**32 - 1)))
    reward = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    actions = draw(st.lists(st.integers(0, n_actions - 1), min_size=n, max_size=n))
    return mdp, reward, DeterministicPolicy(np.array(actions))


def per_action(mdp, reward):
    return np.repeat(reward[:, None], mdp.n_actions, axis=1)


@PROPERTY_SETTINGS
@given(instances())
def test_cached_bias_and_q_matches_dense_reference(instance):
    mdp, reward, policy = instance
    for means in (None, per_action(mdp, reward)):
        expected = dense_bias_and_q(mdp, policy, mdp.reward.means if means is None else means)
        for _ in range(2):  # the first call fills the cache, the second reads it
            rho, h, q = bias_and_q(mdp, policy, means)
            assert abs(rho - expected[0]) <= 1e-12
            assert np.max(np.abs(h - expected[1])) <= 1e-12
            assert np.max(np.abs(q - expected[2])) <= 1e-12
    assert list(mdp.policy_evaluations) == [policy.key()]


@PROPERTY_SETTINGS
@given(instances())
def test_cold_start_matches_reference_howard(instance):
    mdp, reward, _ = instance
    found = optimal_policy(mdp, reward_override=reward)
    assert found == reference_howard(mdp, per_action(mdp, reward))


@PROPERTY_SETTINGS
@given(instances())
def test_warm_start_reaches_the_cold_start_gain(instance):
    mdp, reward, start = instance
    means = per_action(mdp, reward)
    cold = optimal_policy(mdp, reward_override=reward)
    warm = optimal_policy(mdp, reward_override=reward, start=start)
    rho_cold = dense_bias_and_q(mdp, cold, means)[0]
    rho_warm, _, q = dense_bias_and_q(mdp, warm, means)
    assert abs(rho_warm - rho_cold) <= 1e-10
    slack = q[np.arange(mdp.n_states), warm.actions] - q.max(axis=1)
    assert slack.min() >= -1e-8


@PROPERTY_SETTINGS
@given(instances())
def test_cached_arrays_are_read_only(instance):
    mdp, _, policy = instance
    evaluation = policy_evaluation(mdp, policy)
    assert policy_evaluation(mdp, policy) is evaluation
    assert evaluation.mu_cdf is evaluation.mu_cdf
    for array in (evaluation.mu, evaluation.mu_cdf, evaluation.lu, evaluation.piv):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def periodic_first_action_mdp(n, n_actions, seed):
    """Action 0 is a deterministic n-cycle (period n); the others are dense."""
    dense = random_mdp(n, n_actions, seed)
    transition = np.array(dense.transition)
    transition[0] = np.roll(np.eye(n), 1, axis=1)
    return TabularMDP(transition, RewardModel(np.array(dense.reward.means)))


@PROPERTY_SETTINGS
@given(st.integers(2, 6), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_periodic_policy_raises_on_every_call(n, n_actions, seed):
    mdp = periodic_first_action_mdp(n, n_actions, seed)
    cycle = DeterministicPolicy(np.zeros(n, dtype=int))
    for _ in range(3):
        with pytest.raises(NonErgodicError):
            bias_and_q(mdp, cycle)
        with pytest.raises(NonErgodicError):
            optimal_policy(mdp)
    assert cycle.key() not in mdp.policy_evaluations
    dense = DeterministicPolicy(np.ones(n, dtype=int))
    bias_and_q(mdp, dense)
    assert list(mdp.policy_evaluations) == [dense.key()]


@PROPERTY_SETTINGS
@given(instances(), st.integers(0, 2**32 - 1))
def test_mdps_of_one_shape_never_share_entries(instance, other_seed):
    mdp, _, policy = instance
    other = random_mdp(mdp.n_states, mdp.n_actions, other_seed)
    for model in (mdp, other, mdp, other):
        rho, h, q = bias_and_q(model, policy)
        expected = dense_bias_and_q(model, policy, model.reward.means)
        assert abs(rho - expected[0]) <= 1e-12
        assert np.max(np.abs(q - expected[2])) <= 1e-12
    assert mdp.policy_evaluations[policy.key()] is not other.policy_evaluations[policy.key()]


def test_reward_shape_is_checked():
    mdp = random_mdp(3, 2, 0)
    policy = DeterministicPolicy(np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="shape"):
        bias_and_q(mdp, policy, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="one entry per state"):
        optimal_policy(mdp, reward_override=np.zeros(2))


@st.composite
def feature_instances(draw):
    """A random ergodic MDP (Dirichlet rows) with k features, w on the simplex and a policy."""
    n = draw(st.integers(2, 6))
    n_actions = draw(st.integers(2, 3))
    k = draw(st.sampled_from((2, 3, 4, 1)))
    mdp = random_mdp(n, n_actions, draw(st.integers(0, 2**32 - 1)), n_features=k)
    w = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(k))
    actions = draw(st.lists(st.integers(0, n_actions - 1), min_size=n, max_size=n))
    return mdp, w, DeterministicPolicy(np.array(actions))


@PROPERTY_SETTINGS
@given(feature_instances())
# A nearly absorbing chain (switch probabilities 0.0011 and 0.0015) with
# max |Q| = 22.9, where the two solves differ by 1.6e-12: the bound is
# relative to |Q| at the same 12 digits.
@example((
    random_mdp(2, 2, 1108, n_features=2),
    np.random.default_rng(0).dirichlet(np.ones(2)),
    DeterministicPolicy(np.array([1, 1])),
))
def test_feature_q_table_times_w_matches_dense_reference(instance):
    mdp, w, policy = instance
    table = state_reward_q(mdp, policy, mdp.features)
    assert table.shape == (mdp.n_states * mdp.n_actions, mdp.n_features)
    q = (table @ w).reshape(mdp.n_states, mdp.n_actions)
    expected = dense_bias_and_q(mdp, policy, per_action(mdp, mdp.features @ w))[2]
    np.testing.assert_allclose(q, expected, rtol=1e-12, atol=1e-12)


FIELDS = ("mu", "lu", "piv", "mu_cdf", "phi", "q_features")


@PROPERTY_SETTINGS
@given(feature_instances())
def test_entry_fields_are_built_once_on_first_read(instance):
    mdp, _, policy = instance
    evaluation = policy_evaluation(mdp, policy)
    assert set(vars(evaluation)) == {"mdp", "policy", "mask"}
    with mock.patch(
        "cftp_rl.solvers._stationary_on", wraps=solvers._stationary_on
    ) as solves, mock.patch(
        "cftp_rl.solvers.state_reward_q", wraps=state_reward_q
    ) as q_tables, mock.patch("cftp_rl.solvers._lapack", wraps=solvers._lapack) as factors:
        first = [getattr(evaluation, name) for name in FIELDS]
        second = [getattr(policy_evaluation(mdp, policy), name) for name in FIELDS]
    assert (solves.call_count, q_tables.call_count) == (1, 1)
    assert factors.call_count == 2  # one dgetrf for lu and piv, one dgetrs for q_features
    for name, a, b in zip(FIELDS, first, second):
        assert a is b, name
        assert not a.flags.writeable, name
    assert evaluation.phi.tobytes() == (evaluation.mu @ mdp.features).tobytes()
    assert evaluation.q_features.tobytes() == state_reward_q(mdp, policy, mdp.features).tobytes()


def test_a_singular_factor_raises_on_every_read(monkeypatch):
    mdp = random_mdp(3, 2, 4)
    evaluation = policy_evaluation(mdp, DeterministicPolicy(np.zeros(3, dtype=int)))
    singular = SimpleNamespace(dgetrf=lambda a: (a, np.zeros(3, dtype=np.int32), 2))
    monkeypatch.setattr(solvers, "_lapack", lambda: singular)
    for name in ("lu", "piv", "lu"):
        with pytest.raises(SolveError, match="singular"):
            getattr(evaluation, name)
    assert set(vars(evaluation)) == {"mdp", "policy", "mask", "mu"}


@PROPERTY_SETTINGS
@given(feature_instances())
def test_a_cold_policy_is_checked_once(instance):
    """The first ``phi`` read checks the chain once; ``mu`` solves on the check's mask."""
    mdp, _, policy = instance
    with mock.patch("cftp_rl.chains.closed_class", wraps=chains.closed_class) as checks:
        phi = policy_evaluation(mdp, policy).phi
    assert checks.call_count == 1
    mu = stationary_distribution(induce_chain(mdp, policy))
    assert phi.tobytes() == (mu @ mdp.features).tobytes()
    assert policy_evaluation(mdp, policy).mu.tobytes() == mu.tobytes()


def sweep_loss(k):
    """Rounds and a loss that carry w from vertex to vertex of the simplex.

    Block j charges every coordinate but j, for (j + 1) L rounds, so at its
    end coordinate j leads every other by L rounds of losses, and w is
    near e_j. L is set so that beta * L >= 3, with beta = sqrt(ln k / T).
    """
    if k == 1:
        return 40, lambda t, pi_t, phi_t: np.ones(1)
    blocks = k * (k + 1) // 2
    n_rounds = math.ceil(9 * blocks**2 / math.log(k))
    length = n_rounds // blocks
    starts = np.cumsum([(j + 1) * length for j in range(k - 1)])
    charges = 1.0 - np.eye(k)
    return n_rounds, lambda t, pi_t, phi_t: charges[np.searchsorted(starts, t, side="right")]


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


@settings(max_examples=30, deadline=None)
@given(feature_instances())
def test_mwal_rounds_match_a_full_solve_every_round(instance):
    mdp, _, _ = instance
    k = mdp.n_features
    n_rounds, loss = sweep_loss(k)
    policies, weights, losses, values = reference_mwal_rounds(mdp, k, n_rounds, loss)
    changes = sum(a != b for a, b in zip(policies, policies[1:]))
    if k > 1:
        # Keep instances on which the best response changes, so the rounds
        # that leave the cached Q-table for optimal_policy run.
        assume(changes > 0)
    result = _mwal_rounds(mdp, k, n_rounds, loss)
    assert [p.key() for p in result.policies] == [p.key() for p in policies]
    assert sum(a != b for a, b in zip(result.policies, result.policies[1:])) == changes
    for got, expected in (
        (result.weights, weights),
        (result.losses, losses),
        (result.round_values, values),
    ):
        assert got.tobytes() == expected.tobytes()


def mwal_loss(phi_expert):
    """``mwal``'s loss: it depends on the round's policy alone."""
    return lambda t, pi_t, phi_t: (phi_t - phi_expert + 1.0) / 2.0


@st.composite
def hull_instances(draw):
    """A random Dirichlet MDP with k = 1..4 features, an expert feature vector
    inside the hull of a few policies' Phi, and an odd T (T = 1 included).

    The hull's corners are the best responses to each single feature, plus
    up to two random policies, so no one policy tends to beat the expert on
    every feature and the best responses alternate. An odd T above 1 is not
    a multiple of any block size above 1.
    """
    n = draw(st.integers(2, 5))
    n_actions = draw(st.integers(2, 3))
    k = draw(st.sampled_from((2, 3, 4, 1)))
    mdp = random_mdp(n, n_actions, draw(st.integers(0, 2**32 - 1)), n_features=k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    corners = [optimal_policy(mdp, reward_override=mdp.features[:, j]) for j in range(k)]
    corners += [
        DeterministicPolicy(rng.integers(0, n_actions, size=n))
        for _ in range(draw(st.integers(0, 2)))
    ]
    phis = np.array([feature_expectations_exact(mdp, p) for p in corners])
    phi_expert = rng.dirichlet(np.ones(len(corners))) @ phis
    n_rounds = 2 * draw(st.integers(0, 700)) + 1
    return mdp, phi_expert, n_rounds


def rule_proposes_a_change(mdp, policy, w):
    q = (state_reward_q(mdp, policy, mdp.features) @ w).reshape(mdp.n_states, mdp.n_actions)
    return bool((improved_actions(q) != policy.actions).any())


@settings(max_examples=60, deadline=None)
@given(hull_instances())
def test_blocked_rounds_match_the_per_round_reference(instance):
    mdp, phi_expert, n_rounds = instance
    k = mdp.n_features
    loss = mwal_loss(phi_expert)
    policies, weights, losses, values = reference_mwal_rounds(mdp, k, n_rounds, loss)
    with mock.patch("cftp_rl.apprenticeship.optimal_policy", wraps=optimal_policy) as spy:
        result = _mwal_rounds(mdp, k, n_rounds, loss, policy_only=True)
    assert [p.key() for p in result.policies] == [p.key() for p in policies]
    for got, expected in (
        (result.weights, weights),
        (result.losses, losses),
        (result.round_values, values),
    ):
        assert got.tobytes() == expected.tobytes()
    assert result.beta == HedgeState.create(k, n_rounds).beta
    proposals = sum(
        rule_proposes_a_change(mdp, policies[t - 1], weights[t]) for t in range(1, n_rounds)
    )
    assert spy.call_count == 1 + proposals


@pytest.mark.parametrize("policy_only", [False, True])
@pytest.mark.parametrize("bad", [-2 * LOSS_TOL, 1.0 + 2 * LOSS_TOL, np.nan])
def test_an_out_of_range_loss_raises_in_both_paths(policy_only, bad):
    mdp = random_mdp(3, 2, 27, n_features=2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _mwal_rounds(mdp, 2, 50, lambda t, pi_t, phi_t: np.array([0.5, bad]), policy_only=policy_only)


def test_a_loss_within_tolerance_is_clipped_in_every_blocked_round():
    mdp = random_mdp(3, 2, 27, n_features=2)
    n_rounds = 301
    over = _mwal_rounds(
        mdp, 2, n_rounds, lambda t, pi_t, phi_t: np.array([1.0 + LOSS_TOL, 0.25]), policy_only=True
    )
    clipped = _mwal_rounds(
        mdp, 2, n_rounds, lambda t, pi_t, phi_t: np.array([1.0, 0.25]), policy_only=True
    )
    per_round = _mwal_rounds(mdp, 2, n_rounds, lambda t, pi_t, phi_t: np.array([1.0 + LOSS_TOL, 0.25]))
    for result in (over, per_round):
        assert result.weights.tobytes() == clipped.weights.tobytes()
        assert result.round_values.tobytes() == clipped.round_values.tobytes()
    assert over.losses.tobytes() == per_round.losses.tobytes()
    assert (over.losses[:, 0] == 1.0 + LOSS_TOL).all()


def test_row_dots_give_each_row_the_bits_of_its_own_product():
    """The block's rule Q-rows and round values equal the single round's
    ``q_features @ w`` and ``w @ phi``; one matrix product does not."""
    rng = np.random.default_rng(27)
    product_differs = 0
    for _ in range(300):
        k = int(rng.integers(1, 5))
        n_rows = int(rng.integers(1, 257))
        table = rng.normal(size=(int(rng.integers(2, 19)), k))
        phi = rng.uniform(size=k)
        w = rng.dirichlet(np.ones(k), size=n_rows)
        expected = np.array([table @ row for row in w])
        assert _row_dots(w, table).tobytes() == expected.tobytes()
        values = np.array([float(row @ phi) for row in w])
        assert _row_dots(w, phi).tobytes() == values.tobytes()
        product_differs += (w @ table.T).tobytes() != expected.tobytes()
    assert product_differs > 0


# The single round on Python floats. Each scalar piece must give the bits of
# the numpy expression it documents: the blocked rounds and the CSVs depend on it.

LOSS_EDGES = [0.0, -0.0, 1.0, 0.5, -LOSS_TOL, 1.0 + LOSS_TOL, -LOSS_TOL / 2, 1.0 + LOSS_TOL / 2]


@st.composite
def hedge_inputs(draw):
    """Log-weights, beta and a loss within ``LOSS_TOL`` of [0, 1], as float64 or float32."""
    k = draw(st.integers(1, 5))
    log_weights = draw(st.lists(st.floats(-50.0, 50.0), min_size=k, max_size=k))
    loss = draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from(LOSS_EDGES), min_size=k, max_size=k))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return np.array(log_weights), draw(st.floats(0.0, 2.0)), np.array(loss, dtype=dtype)


@settings(max_examples=200)
@given(hedge_inputs())
@example((np.array([0.3, -0.2]), 0.7, np.array([1.0 + LOSS_TOL, -LOSS_TOL])))
@example((np.array([0.1, 0.2, 0.3]), 0.25, np.array([0.5, 1.0 + LOSS_TOL, 0.125], dtype=np.float32)))
# A -0.0 loss entry beside one that needs the clip: the sign of the zero
# reaches a -0.0 log-weight.
@example((np.array([-0.0, 0.1]), 0.7, np.array([-0.0, 1.0 + LOSS_TOL])))
@example((np.array([-0.0, 0.1]), 0.7, np.array([-0.0, 0.5])))
def test_hedge_step_is_the_numpy_update(inputs):
    log_weights, beta, loss = inputs
    state = HedgeState(log_weights, beta, 3)
    try:
        expected = log_weights - beta * checked_loss(np.asarray(loss, dtype=float))
    except ValueError:
        # float32 can round -LOSS_TOL a hair below the tolerance.
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            hedge_step(state, loss)
        return
    after = hedge_step(state, loss)
    assert after.log_weights.dtype == np.float64
    assert after.log_weights.tobytes() == expected.tobytes()
    assert (after.beta, after.t) == (beta, 4)


@st.composite
def bounded_columns(draw):
    """A bound and a column with entries inside it, at +-bound and just beyond."""
    bound = draw(st.floats(1e-3, 1e3))
    edges = [
        bound, -bound, float(np.nextafter(bound, np.inf)), float(np.nextafter(-bound, -np.inf)),
        0.0, -0.0,
    ]
    entries = st.floats(-3.0 * bound, 3.0 * bound) | st.sampled_from(edges)
    return bound, draw(st.lists(entries, min_size=1, max_size=5))


@settings(max_examples=200)
@given(bounded_columns())
@example((8.226067272402588, [6.790710291491807, -8.226067272402588, 8.226067272402589]))
def test_rescale_loss_and_clamp_mask_are_the_numpy_formulas(instance):
    bound, column = instance
    g = np.array(column)
    expected = np.clip((g + bound) / (2.0 * bound), 0.0, 1.0)
    assert rescale_loss(g, bound).tobytes() == expected.tobytes()
    assert clamp_mask(g, bound) == ((g < -bound) | (g > bound)).tolist()


@st.composite
def tied_q_tables(draw):
    """A Q-table whose rows tie within ``IMPROVEMENT_TOL``, some at the threshold
    exactly, and actions: the improvement rule's own, or any."""
    n_states, n_actions = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = []
    for _ in range(n_states):
        # At 1e7 the best minus the tolerance rounds back to the best.
        best = draw(st.sampled_from([0.0, 1.0, -3.5, 1e7]) | st.floats(-10.0, 10.0))
        threshold = best - IMPROVEMENT_TOL
        near = [
            best, threshold, float(np.nextafter(threshold, -np.inf)), best - IMPROVEMENT_TOL / 2,
            best - 3 * IMPROVEMENT_TOL, best - 1.0,
        ]
        row = draw(st.lists(st.sampled_from(near), min_size=n_actions, max_size=n_actions))
        row[draw(st.integers(0, n_actions - 1))] = best
        rows.append(row)
    q = np.array(rows)
    if draw(st.booleans()):
        actions = improved_actions(q).tolist()
    else:
        actions = draw(st.lists(st.integers(0, n_actions - 1), min_size=n_states, max_size=n_states))
    return q, actions


@settings(max_examples=300)
@given(tied_q_tables())
@example((np.array([[-IMPROVEMENT_TOL, 0.0]]), [0]))
@example((np.array([[-IMPROVEMENT_TOL, 0.0]]), [1]))
@example((np.array([[1e7, 1e7], [0.0, 1.0]]), [0, 1]))
def test_keeps_actions_is_the_improvement_rule(instance):
    q, actions = instance
    kept = keeps_actions(q.ravel().tolist(), actions, q.shape[1])
    assert kept == bool((improved_actions(q) == actions).all())


BAD_POSITIONS = [(k, i) for k in range(1, 5) for i in range(k)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k, position", BAD_POSITIONS)
def test_a_non_finite_loss_raises_at_every_coordinate(k, position, bad):
    loss = np.full(k, 0.5)
    loss[position] = bad
    mdp = random_mdp(3, 2, 27, n_features=k)
    for policy_only in (False, True):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            _mwal_rounds(mdp, k, 50, lambda t, pi_t, phi_t: loss, policy_only=policy_only)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        hedge_step(HedgeState.create(k, 50), loss)
    # The blocked rounds' check.
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        checked_loss(loss)


@pytest.mark.parametrize("over, clipped", [(-LOSS_TOL, 0.0), (1.0 + LOSS_TOL, 1.0)])
@pytest.mark.parametrize("k, position", BAD_POSITIONS)
def test_a_loss_within_tolerance_is_clipped_in_the_update_and_stored_as_given(k, position, over, clipped):
    base = np.linspace(0.2, 0.8, k)
    loss, reference = base.copy(), base.copy()
    loss[position], reference[position] = over, clipped
    mdp = random_mdp(3, 2, 27, n_features=k)
    for policy_only in (False, True):
        got = _mwal_rounds(mdp, k, 40, lambda t, pi_t, phi_t: loss, policy_only=policy_only)
        want = _mwal_rounds(mdp, k, 40, lambda t, pi_t, phi_t: reference, policy_only=policy_only)
        assert [p.key() for p in got.policies] == [p.key() for p in want.policies]
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.round_values.tobytes() == want.round_values.tobytes()
        assert got.losses.tobytes() == np.tile(loss, (40, 1)).tobytes()
