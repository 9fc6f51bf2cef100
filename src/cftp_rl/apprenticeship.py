"""Apprenticeship learning as a zero-sum game over feature expectations.

The learner only observes an expert through a generative model (state in,
sampled expert action out) inside known dynamics. Two multiplicative-weights
learners are provided:

- ``mwal``: estimate the expert's feature expectations once, up front, from
  exact stationary samples obtained by running CFTP against the expert
  model; then play Hedge against exactly-evaluated candidate policies.
- ``mwal_generative``: never estimate expert feature expectations; instead,
  each round queries the expert for two coalescing trajectories to get an
  unbiased sample of the game-matrix column of the current candidate. That
  one sample is walked with Python scalars (``game_column_batch`` at
  ``n_samples=1``), with the draws and bits of the batched pair loop.

Both run the same Hedge loop and differ only in the loss they feed it; both
return a mixed policy mixing the per-round optimal policies uniformly. Phi and
the feature Q-table of a deterministic policy come from the MDP's one
policy cache (``solvers.policy_evaluation``), so every run shares them.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .chains import (
    DeterministicPolicy,
    MixedPolicy,
    SampleLedger,
    StochasticPolicy,
    TabularMDP,
    cdf_table,
    induce_chain,
    inverse_cdf,
)
from .errors import CapExceededError
from .estimators import coupled_difference_batch
from .hedge import (
    HedgeState, checked_loss, clamp_mask, hedge_step, normalized_weights, rescale_loss,
)
from .sampling import _cftp_batch_core, _require_count
from .seeding import KeyedUniforms, as_generator, seed_sequence, substream
from .solvers import (
    improved_actions, keeps_actions, optimal_policy, policy_evaluation, stationary_distribution,
)

# Most deterministic policies, |A| ** |S|, the exact game-value oracle enumerates.
ENUMERATION_BUDGET = 256
# Most rounds one block of ``_mwal_rounds`` computes at once; it bounds the
# rows a block that meets a policy switch computes and then throws away.
_MAX_BLOCK = 256


class ExpertModel:
    """Generative access to an expert policy: one sampled action per query.

    The expert policy itself may be stochastic and is never estimated; all
    consumers work from sampled actions only. Queries are counted in the
    ledger and reproducible under a fixed seed.
    """

    def __init__(self, policy, n_actions: int, rng, ledger: SampleLedger | None = None):
        if not isinstance(policy, (DeterministicPolicy, StochasticPolicy)):
            raise TypeError("expert policy must be deterministic or stochastic")
        probs = policy.action_probs(n_actions)
        self.policy = StochasticPolicy(probs)
        self._cum = cdf_table(probs)
        self._rows = self._cum.tolist()
        self.rng = as_generator(rng)
        self.ledger = ledger if ledger is not None else SampleLedger()

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        actions = inverse_cdf(self._cum, states, self.rng.random(states.shape[0]))
        self.ledger.add_expert(states.shape[0])
        return actions

    def act(self, state: int) -> int:
        """One query: ``act_batch`` of the single state, as a Python int.

        It draws the same uniform from the same Generator, counts the
        entries <= u of the same CDF row (held as a list, so one
        ``bisect_right``) and charges the same ledger one call.
        """
        action = bisect_right(self._rows[state], self.rng.random())
        self.ledger.add_expert(1)
        return action


def _require_expert_fits(mdp: TabularMDP, expert: ExpertModel) -> None:
    """Raise ValueError unless the expert acts on every state and action of ``mdp``."""
    if expert.policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(
            f"expert policy has shape {expert.policy.probs.shape}, "
            f"the MDP has {mdp.n_states} states and {mdp.n_actions} actions"
        )


def feature_expectations_exact(mdp: TabularMDP, policy) -> np.ndarray:
    """Phi(pi) = sum_s mu_pi(s) phi(s); mixed policies average their members.

    A deterministic policy's Phi is the read-only ``phi`` of its entry in
    the MDP's policy cache (``solvers.policy_evaluation``), computed once
    per policy; a stochastic policy's mu is solved afresh. A mixture sums
    its members' values in member order, so a repeated deterministic member
    costs one cache lookup.
    """
    if mdp.features is None:
        raise ValueError("MDP has no feature map")
    if isinstance(policy, MixedPolicy):
        member_values = [feature_expectations_exact(mdp, member) for member in policy.members]
        return np.einsum("m,mk->k", policy.weights, np.array(member_values))
    if isinstance(policy, DeterministicPolicy):
        return policy_evaluation(mdp, policy).phi
    return stationary_distribution(induce_chain(mdp, policy)) @ mdp.features


@dataclass
class ExpertFeatureEstimate:
    """Monte-Carlo estimate of the expert's feature expectations via CFTP."""

    phi: np.ndarray
    n_samples: int
    total_steps: int
    expert_calls: int
    generative_calls: int


def expert_stationary_samples(
    mdp: TabularMDP,
    expert: ExpertModel,
    m: int,
    rng,
    step_cap: int = 1_000_000,
    ledger: SampleLedger | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """m exact samples from the stationary distribution the expert induces.

    Runs CFTP on the expert-induced chain without ever representing that
    chain: each random-map entry queries the expert once for an action and
    the dynamics once for the resulting transition. All m runs share one
    loop: step t queries the expert once for every (unfinished sample,
    state) entry, and each sample retires at its own coalescence time.
    Returns the sampled states and per-sample coalescence times. The expert
    (``ExpertModel.act_batch``) and the loop (``sampling._cftp_batch_core``)
    charge sum(t_c) * n_states calls, to its ledger and to ``ledger``.

    The dynamics uniforms come from ``as_generator(rng)``: step t draws
    n_states doubles for each unfinished sample, in sample order. Unlike
    ``cftp_batch``, which shares this loop, the maps are drawn step by
    step, not a block ahead: every map entry is a ledgered expert query, so
    maps drawn ahead and then discarded would charge expert calls that no
    sample used. Raises ValueError before drawing for m < 1 or an expert
    whose policy table is not (n_states, n_actions) of ``mdp``;
    CapExceededError once a sample has run ``step_cap`` steps without
    coalescing: the expert's chain is unknown, so only ``step_cap`` bounds
    a chain that cannot coalesce.
    """
    if m < 1:
        raise ValueError(f"need at least one expert sample, got m={m}")
    _require_expert_fits(mdp, expert)
    gen = as_generator(rng)
    n, n_actions = mdp.n_states, mdp.n_actions
    cum = mdp.cumulative()
    # Entry r * n + s of a step's stacked maps belongs to state s.
    map_states = np.tile(np.arange(n), m)

    def draw_maps(active: np.ndarray) -> np.ndarray:
        u = gen.random(active.size * n)
        states = map_states[: u.size]
        actions = expert.act_batch(states)
        return inverse_cdf(cum, states * n_actions + actions, u).reshape(active.size, n).T

    return _cftp_batch_core(draw_maps, m, n, step_cap, ledger)


def estimate_expert_features(
    mdp: TabularMDP,
    expert: ExpertModel,
    m: int,
    rng,
    step_cap: int = 1_000_000,
) -> ExpertFeatureEstimate:
    """Average phi over m exact samples from the expert's stationary distribution.

    Raises ValueError before drawing where ``expert_stationary_samples`` does.
    """
    if mdp.features is None:
        raise ValueError("MDP has no feature map")
    ledger = SampleLedger()
    expert_before = expert.ledger.expert_calls
    samples, times = expert_stationary_samples(mdp, expert, m, rng, step_cap, ledger)
    return ExpertFeatureEstimate(
        phi=mdp.features[samples].mean(axis=0),
        n_samples=m,
        total_steps=int(times.sum()),
        expert_calls=expert.ledger.expert_calls - expert_before,
        generative_calls=ledger.generative_calls,
    )


def game_column_batch(
    mdp: TabularMDP,
    expert: ExpertModel,
    pi_t: DeterministicPolicy,
    n_samples: int,
    rng,
    step_cap: int = 1_000_000,
    ledger: SampleLedger | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched game-column samples; each coordinate mean is Phi(pi_t)[i] - Phi(expert)[i].

    Start states come from the stationary distribution of ``pi_t`` by exact
    linear solve (the dynamics and pi_t are known): their CDF table is read
    from the MDP's policy-evaluation cache (``PolicyEvaluation.mu_cdf``),
    built once per policy on first use, not once per call. Trajectory A takes pi_t's
    action first and follows the expert afterwards; trajectory B follows the expert from the
    start; feature differences (A minus B) accumulate until the pair
    coalesces, charging ``ledger`` 2 * sum(t_c) calls and the expert
    2 * sum(t_c) - n_samples. The expert's chain is unknown, so only
    ``step_cap`` bounds pairs that can never meet (CapExceededError); a
    pair still apart counts t_c = ``step_cap`` in both charges. At
    ``step_cap=0`` no pair steps: the expert is charged the n_samples first
    actions and ``ledger`` nothing before the error.
    Raises ValueError before any check or draw for a negative
    ``n_samples``, and before drawing for an expert whose policy table is
    not (n_states, n_actions) of ``mdp`` or for a negative ``step_cap``.

    Two or more samples walk together in ``estimators.coupled_difference_batch``.
    One sample, the size ``mwal_generative`` asks for once per round, walks
    in ``_game_column_one`` with Python scalars, since numpy's per-call cost
    exceeds the work of a one-pair step; it draws the same uniforms in the
    same order and returns the same bits, Generator states and charges.
    """
    _require_count(n_samples, "n_samples")
    _require_expert_fits(mdp, expert)
    _require_count(step_cap, "step_cap")
    gen = as_generator(rng)
    cum_mu = policy_evaluation(mdp, pi_t).mu_cdf
    if n_samples == 1:
        return _game_column_one(mdp, expert, pi_t, cum_mu, gen, step_cap, ledger)
    s0 = inverse_cdf(cum_mu, np.zeros(n_samples, dtype=np.int64), gen.random(n_samples))
    first_a = pi_t.actions[s0]
    first_b = expert.act_batch(s0)
    g, t_c = coupled_difference_batch(
        mdp,
        s0,
        first_a,
        first_b,
        expert.act_batch,
        gen,
        value="features",
        step_cap=step_cap,
        ledger=ledger,
    )
    return g, t_c


def _game_column_one(mdp, expert, pi_t, cum_mu, gen, step_cap, ledger):
    """``game_column_batch`` of one sample, walked with Python scalars.

    Every categorical draw is one ``bisect_right`` on the list of its
    ``cdf_table`` row: the count of entries <= u that ``inverse_cdf``
    returns. The uniforms come one at a time in the batched walk's order: a
    step moves side A, then side B (``sampling._pair_walk``), and the
    expert then acts for A, then B, unless the pair met or the cap is
    reached. Each step adds f(x) - f(y) at the states before the move, as
    ``acc + (f_x - f_y)`` per feature: the batched walk's float operations.
    Each feature or CDF row becomes a list once per call, on the walk's
    first visit to it (``feature_rows``, ``cdf_rows``); the lookup
    ``get(i) or setdefault(i, ...)`` relies on a row list never being empty.
    """
    s = bisect_right(cum_mu[0].tolist(), gen.random())
    x = y = s
    a_x = int(pi_t.actions[s])
    a_y = expert.act(s)
    features = mdp.features
    if features is None:
        raise ValueError("feature accumulation requires an MDP with features")
    cum, n_actions = mdp.cumulative(), mdp.n_actions
    feature_rows, cdf_rows = {}, {}
    acc = [0.0] * features.shape[1]
    t = 0
    met = False
    while t < step_cap:
        t += 1
        f_x = feature_rows.get(x) or feature_rows.setdefault(x, features[x].tolist())
        f_y = feature_rows.get(y) or feature_rows.setdefault(y, features[y].tolist())
        acc = [c + (p - q) for c, p, q in zip(acc, f_x, f_y)]
        i, j = x * n_actions + a_x, y * n_actions + a_y
        x = bisect_right(cdf_rows.get(i) or cdf_rows.setdefault(i, cum[i].tolist()), gen.random())
        y = bisect_right(cdf_rows.get(j) or cdf_rows.setdefault(j, cum[j].tolist()), gen.random())
        if x == y:
            met = True
            break
        if t < step_cap:
            a_x = expert.act(x)
            a_y = expert.act(y)
    if ledger is not None:
        ledger.add_generative(2 * t)
    if not met:
        raise CapExceededError(f"trajectories did not coalesce within {step_cap} steps")
    return np.array([acc]), np.array([t], dtype=np.int64)


@dataclass
class MwalResult:
    """Mixed policy plus the per-round trail of a multiplicative-weights run."""

    mixture: MixedPolicy
    policies: list[DeterministicPolicy]
    weights: np.ndarray  # (T, k) min-player strategies w^(t)
    losses: np.ndarray  # (T, k) Hedge losses (rescaled game columns)
    round_values: np.ndarray  # (T,) w^(t) . Phi(pi^(t)), the value PI maximized
    beta: float
    expert_calls: int
    generative_calls: int
    phi_expert_estimate: np.ndarray | None = None
    raw_columns: np.ndarray | None = None  # (T, k) unrescaled g_t (direct-estimation runs)
    clamped: np.ndarray | None = None  # (T, k) rescale clamp indicators
    rescale_bound: float | None = None


def _row_dots(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``table @ w`` for every row w of ``rows``, each with the bits of that product alone.

    The stacked matmul runs one vector product per row, as a single round
    does; ``rows @ table.T`` runs one matrix product, whose rounding differs
    from the per-row products in the last bit.
    """
    return np.matmul(rows[:, None, :], table.T)[:, 0]


def _mwal_rounds(
    mdp: TabularMDP, k: int, n_rounds: int, loss, *, policy_only: bool = False,
) -> MwalResult:
    """The Hedge loop both learners share: T rounds of w^(t) against a best response.

    Round t takes the policy pi_t that is optimal for the reward
    phi . w^(t) (policy iteration warm-starts from pi_{t-1}), evaluates
    Phi(pi_t) exactly and feeds Hedge the loss ``loss(t, pi_t, Phi(pi_t))``
    in [0, 1]^k. Returns the uniform mixture of the per-round policies and
    the trail; the ledger counts are left at 0 for the caller to fill in.

    Q is linear in the reward, so a best response's feature Q-table Q_F and
    Phi are read from its policy cache entry (``q_features``, ``phi``). A round first
    applies policy iteration's improvement rule to Q_F . w, which is, up to
    rounding, the Q-table of pi_{t-1} for the reward phi . w: phi lies in
    [0, 1] and w on the simplex, so the reward clip in ``optimal_policy``
    does not bind. If the rule keeps pi_{t-1}, the warm-started iteration
    would stop at once and return it, so the round keeps it; only when the
    rule proposes a change does the round call ``optimal_policy``.

    A single round's bookkeeping runs on Python floats, where a numpy call
    costs more than its arithmetic: the Hedge update, ``hedge.hedge_step``,
    on length-k vectors, and the stay test, ``solvers.keeps_actions``, on
    one ``tolist()`` of Q_F . w. The stay test costs a few Python steps per
    state, S . A entries in all, so it pays off only on small tables; from
    about 16 x 4 up the numpy form is faster (see ``keeps_actions``).
    Numpy keeps the calls whose rounding the results depend on and Python's
    need not match: ``hedge.normalized_weights`` (``np.exp`` and the sum),
    ``Q_F @ w`` and ``w @ Phi``. Both learners run this one single-round
    path.

    ``policy_only=True`` says the loss depends on pi_t alone, not on t.
    Then, while pi_t stays, every round subtracts the same beta * loss from
    the log-weights, so after each single round the loop computes a block
    of the next rounds at once: their log-weights by one
    ``np.add.accumulate`` (the sequential sums, bit for bit), their weights
    by ``hedge.normalized_weights`` and their rules and values by
    ``_row_dots``, which give each row the bits of the single round. The
    block is kept up to the first round whose rule proposes a change; that
    round runs singly and calls ``optimal_policy``. Blocks double from 1 to
    ``_MAX_BLOCK`` rounds and restart at 1 after each ``optimal_policy``
    call. Every decision, weight, loss and value equals the round-by-round
    loop's, and ``optimal_policy`` runs in the same rounds.
    """
    state = HedgeState.create(k, n_rounds)
    policies: list[DeterministicPolicy] = []
    weights = np.empty((n_rounds, k))
    losses = np.empty((n_rounds, k))
    round_values = np.empty(n_rounds)
    features = mdp.features
    shape = (mdp.n_states, mdp.n_actions)
    pi_t = None
    block = 1
    t = 0
    while t < n_rounds:
        w = state.weights
        weights[t] = w
        if pi_t is None or not keeps_actions((q_features @ w).tolist(), actions, mdp.n_actions):
            pi_t = optimal_policy(mdp, reward_override=features @ w, start=pi_t)
            evaluation = policy_evaluation(mdp, pi_t)
            q_features, phi_t = evaluation.q_features, evaluation.phi
            actions = pi_t.actions.tolist()
            block = 1
        policies.append(pi_t)
        g_tilde = loss(t, pi_t, phi_t)
        losses[t] = g_tilde
        round_values[t] = float(w @ phi_t)
        state = hedge_step(state, g_tilde)
        t += 1
        if not policy_only or t == n_rounds:
            continue
        b = min(block, n_rounds - t)
        log_w = np.empty((b + 1, k))
        log_w[0] = state.log_weights
        log_w[1:] = -(state.beta * checked_loss(np.asarray(g_tilde, dtype=float)))
        np.add.accumulate(log_w, axis=0, out=log_w)
        w_rows = normalized_weights(log_w[:b])
        changes = (
            improved_actions(_row_dots(w_rows, q_features).reshape(b, *shape)) != pi_t.actions
        ).any(axis=1)
        kept = int(changes.argmax()) if changes.any() else b
        weights[t : t + kept] = w_rows[:kept]
        losses[t : t + kept] = g_tilde
        round_values[t : t + kept] = _row_dots(w_rows[:kept], phi_t)
        policies.extend([pi_t] * kept)
        state = HedgeState(log_w[kept], state.beta, t + kept)
        t += kept
        if kept == b:
            block = min(2 * block, _MAX_BLOCK)
    return MwalResult(
        mixture=MixedPolicy(np.full(n_rounds, 1.0 / n_rounds), policies),
        policies=policies,
        weights=weights,
        losses=losses,
        round_values=round_values,
        beta=state.beta,
        expert_calls=0,
        generative_calls=0,
    )


def _require_game(mdp: TabularMDP, k: int, n_rounds: int) -> None:
    """Raise ValueError, before any draw, unless k features and n_rounds >= 1 make a game."""
    if mdp.features is None or mdp.features.shape[1] != k:
        raise ValueError("MDP features must be present with width k")
    if n_rounds < 1:
        raise ValueError(f"need at least one round, got n_rounds={n_rounds}")


def mwal(
    mdp: TabularMDP,
    expert: ExpertModel,
    k: int,
    n_rounds: int,
    m: int,
    rng,
    step_cap: int = 1_000_000,
) -> MwalResult:
    """Multiplicative-weights apprenticeship with up-front expert estimation.

    Estimates the expert's feature expectations once from m CFTP samples,
    then for T rounds plays Hedge over features against the exactly
    evaluated optimal policy for the current feature weighting; policy
    iteration warm-starts from the previous round's policy. Returns the
    uniform mixture of the per-round policies. Raises ValueError for
    n_rounds < 1 or m < 1 before drawing.
    """
    _require_game(mdp, k, n_rounds)
    estimate = estimate_expert_features(
        mdp, expert, m, substream(seed_sequence(rng), 0), step_cap=step_cap
    )
    result = _mwal_rounds(
        mdp, k, n_rounds, lambda t, pi_t, phi_t: (phi_t - estimate.phi + 1.0) / 2.0,
        policy_only=True,
    )
    return replace(
        result,
        expert_calls=estimate.expert_calls,
        generative_calls=estimate.generative_calls,
        phi_expert_estimate=estimate.phi,
    )


def mwal_generative(
    mdp: TabularMDP,
    expert: ExpertModel,
    k: int,
    n_rounds: int,
    delta: float,
    b: float,
    rng,
    step_cap: int = 1_000_000,
) -> MwalResult:
    """Multiplicative-weights apprenticeship with per-round column sampling.

    Each round draws one unbiased game-column sample from two expert
    trajectories, rescales it into [0, 1] with B = b log(2 T k / delta)
    (clamping the low-probability overshoots), and feeds it to Hedge.
    Round t draws from one keyed Philox stream per call,
    ``KeyedUniforms(seed_sequence(rng)).at(t)``, not from a substream of
    its own, so the uniforms it reads are a pure function of (rng, t) and
    cost no ``SeedSequence``; the expert answers from its own Generator, in
    round order. Policy iteration warm-starts from the previous round's policy.
    The round's column is rescaled and its clamps flagged on Python floats
    (``hedge.rescale_loss``, ``hedge.clamp_mask``); the rounds run singly,
    never in blocks, since each round's loss is a fresh sample.
    Raises ValueError before drawing for n_rounds < 1, for a ``b`` that is
    not positive and finite, and for ``delta`` outside (0, 1).
    """
    _require_game(mdp, k, n_rounds)
    if not 0.0 < b < math.inf or not 0.0 < delta < 1.0:
        raise ValueError("need b > 0 and finite, and delta in (0, 1)")
    bound = b * math.log(2.0 * n_rounds * k / delta)
    keyed = KeyedUniforms(seed_sequence(rng))
    ledger = SampleLedger()
    expert_before = expert.ledger.expert_calls
    raw = np.empty((n_rounds, k))
    clamped = np.zeros((n_rounds, k), dtype=bool)

    def sampled_loss(t, pi_t, phi_t):
        g, _ = game_column_batch(
            mdp, expert, pi_t, 1, keyed.at(t), step_cap=step_cap, ledger=ledger,
        )
        raw[t] = g[0]
        clamped[t] = clamp_mask(g[0], bound)
        return rescale_loss(g[0], bound)

    result = _mwal_rounds(mdp, k, n_rounds, sampled_loss)
    return replace(
        result,
        expert_calls=expert.ledger.expert_calls - expert_before,
        generative_calls=ledger.generative_calls,
        raw_columns=raw,
        clamped=clamped,
        rescale_bound=bound,
    )


def enumerate_deterministic_policies(n_states: int, n_actions: int) -> list[DeterministicPolicy]:
    return [
        DeterministicPolicy(np.array(actions))
        for actions in itertools.product(range(n_actions), repeat=n_states)
    ]


@dataclass
class GameValue:
    """min over w in the simplex of max over policies of w . G(., pi), solved exactly."""

    value: float


def game_matrix(mdp: TabularMDP, expert) -> tuple[np.ndarray, list[DeterministicPolicy]]:
    """Full k x |Pi| matrix G(i, pi) = Phi(pi)[i] - Phi(expert)[i] by exact solves.

    ``expert`` may be an ExpertModel or a bare policy; only its underlying
    policy table is needed for the exact computation.
    """
    policies = enumerate_deterministic_policies(mdp.n_states, mdp.n_actions)
    expert_policy = expert.policy if isinstance(expert, ExpertModel) else expert
    phi_expert = feature_expectations_exact(mdp, expert_policy)
    columns = np.array([feature_expectations_exact(mdp, pi) for pi in policies])
    return (columns - phi_expert).T, policies


def game_value_oracle(mdp: TabularMDP, expert) -> GameValue:
    """Exact game value for any number of features, by the LP over the full game matrix.

    Enumerates every deterministic policy, so it requires
    |A| ** |S| <= ENUMERATION_BUDGET and raises CapExceededError otherwise.
    ``expert`` may be an ExpertModel or a bare policy.
    """
    n_policies = mdp.n_actions ** mdp.n_states
    if n_policies > ENUMERATION_BUDGET:
        raise CapExceededError(
            f"enumeration needs {n_policies} policies, budget is {ENUMERATION_BUDGET}"
        )
    value, _ = solve_game_lp(game_matrix(mdp, expert)[0])
    return GameValue(value=value)


def solve_game_lp(g: np.ndarray) -> tuple[float, np.ndarray]:
    """Column player's side: max over mixtures psi of min_i (G psi)_i, by LP.

    The LP runs in scipy's HiGHS ``linprog``, imported here rather than
    with the module: ``scipy.optimize`` took about 0.1-0.14 s of a 0.3 s
    ``import cftp_rl`` on a 2-core AMD EPYC, and only the exact oracle
    solves a game.
    """
    from scipy.optimize import linprog

    k, n_cols = g.shape
    c = np.zeros(n_cols + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-g, np.ones((k, 1))])
    b_ub = np.zeros(k)
    a_eq = np.zeros((1, n_cols + 1))
    a_eq[0, :n_cols] = 1.0
    b_eq = np.ones(1)
    bounds = [(0.0, None)] * n_cols + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"game LP failed: {res.message}")
    # HiGHS reports a zero optimum as 0.0, so its negation is -0.0; adding
    # 0.0 turns that into 0.0, and a CSV cell reads 0 rather than -0.
    return -float(res.fun) + 0.0, res.x[:n_cols]


def margin_against_all_rewards(mdp: TabularMDP, mixture: MixedPolicy, phi_expert: np.ndarray) -> float:
    """min over w in the simplex of w . (Phi(mixture) - Phi(expert)).

    Linear in w, so the minimum is the smallest coordinate of the gap.
    """
    gap = feature_expectations_exact(mdp, mixture) - phi_expert
    return float(gap.min())


def mwal_rounds_csv(result: MwalResult) -> str:
    """CSV serialization: one row per round, then a summary line with ledger totals."""
    k = result.weights.shape[1]
    header = ["t"] + [f"w_{i}" for i in range(k)] + ["rho_t"] + [f"loss_{i}" for i in range(k)]
    if result.raw_columns is not None:
        header += [f"g_{i}" for i in range(k)] + [f"clamped_{i}" for i in range(k)]
    lines = [",".join(header)]
    for t in range(result.weights.shape[0]):
        row = [str(t + 1)]
        row += [f"{v:.17g}" for v in result.weights[t]]
        row.append(f"{result.round_values[t]:.17g}")
        row += [f"{v:.17g}" for v in result.losses[t]]
        if result.raw_columns is not None:
            row += [f"{v:.17g}" for v in result.raw_columns[t]]
            row += [str(int(v)) for v in result.clamped[t]]
        lines.append(",".join(row))
    lines.append(
        f"# summary expert_calls={result.expert_calls} "
        f"generative_calls={result.generative_calls} beta={result.beta:.17g}"
    )
    return "\n".join(lines) + "\n"
