"""Shared sample matrix for unbiased policy evaluation across many policies.

The matrix holds, per row, one next-state draw and one reward draw for every
(state, action) pair. Restricting a row to the columns (s, pi(s)) of a
deterministic policy pi yields a valid random map of the chain pi induces,
so the same rows drive CFTP for every policy. Rows are appended on demand
and never modified, which is what lets exponentially many policies share
polynomially many generative calls.

Every evaluation runs one CFTP loop over all (matrix, policy) pairs at once:
step t reads row t of each matrix that still has an unfinished pair, and
each pair retires at its own coalescence time. Row t is drawn from
``KeyedUniforms(seed).at(t)`` and so depends only on (seed, t): the order
in which rows are drawn does not change any result. Growth is batched: one
``_append_rows`` call appends row t to every matrix of the step that holds
t - 1 rows, with one ``random`` call per matrix and then one inverse-CDF
call and one reward step for all of them, from the MDP's one CDF table.
Policies are checked up front: an action index outside the MDP raises
ValueError and an induced chain on which CFTP cannot coalesce raises
NonErgodicError, before any row is drawn. Chains with transient states are
accepted, as ``cftp`` accepts them.

Reusing rows across policies correlates their estimates within one matrix;
averaging over independent copies (StoreEnsemble) restores concentration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import (
    DeterministicPolicy, SampleLedger, TabularMDP, inverse_cdf, parse_table,
    require_coalescing_policy,
)
from .errors import CapExceededError
from .sampling import _compose
from .seeding import KeyedUniforms, child_sequence, seed_sequence


@dataclass
class StoreRow:
    """One sample per (state, action): next-state indices and reward draws."""

    next_state: np.ndarray  # (n_states, n_actions) int
    reward: np.ndarray  # (n_states, n_actions) float


class SampleMatrix:
    """Append-only matrix of per-(state, action) samples; rows double as CFTP maps.

    Row t reads ``KeyedUniforms(rng).at(t)``: first the n_states * n_actions
    next-state uniforms, state-major, then the reward uniforms
    (``RewardModel.uniforms_per_entry`` per entry), so a matrix grown after
    a checkpoint restore, or grown in a batch with other matrices
    (``_append_rows``), is bit-identical to one grown alone without
    interruption. Every matrix of one MDP inverts with the MDP's one CDF
    table (``TabularMDP.cumulative``).
    Single-writer: do not evaluate one matrix concurrently, growth during
    evaluation is part of the contract.
    """

    def __init__(self, mdp: TabularMDP, rng, ledger: SampleLedger | None = None):
        self.mdp = mdp
        self._keyed = KeyedUniforms(rng)
        self.rows: list[StoreRow] = []
        self.ledger = ledger if ledger is not None else SampleLedger()

    def __len__(self) -> int:
        return len(self.rows)

    def row_at(self, t: int) -> StoreRow:
        """Row for past time -t (1-indexed), growing the matrix on demand."""
        if t < 1:
            raise ValueError("row index starts at 1")
        for missing in range(len(self.rows) + 1, t + 1):
            _append_rows([self], missing)
        return self.rows[t - 1]

    def restricted_map(self, t: int, policy: DeterministicPolicy) -> np.ndarray:
        """Row t restricted to columns (s, pi(s)): a random map of pi's chain."""
        row = self.row_at(t)
        return row.next_state[np.arange(self.mdp.n_states), policy.actions]


def _append_rows(stores: list[SampleMatrix], t: int) -> None:
    """Append row t to every store of one MDP in ``stores``; each holds t - 1 rows.

    One ``KeyedUniforms.at(t)`` and one ``random`` call per store, covering
    its next-state uniforms and then its reward uniforms; then one
    ``inverse_cdf`` call and one ``RewardModel.sample_from`` call for all
    of them. Each store's row equals the one it would draw alone.
    """
    mdp = stores[0].mdp
    count = len(stores)
    entries = mdp.n_states * mdp.n_actions
    u = np.empty((count, entries * (1 + mdp.reward.uniforms_per_entry)))
    for i, store in enumerate(stores):
        store._keyed.at(t).random(out=u[i])
    table_rows, means = np.arange(entries), mdp.reward.means[None]
    if count > 1:
        table_rows, means = np.tile(table_rows, count), means.repeat(count, axis=0)
    next_state = inverse_cdf(mdp.cumulative(), table_rows, u[:, :entries].ravel())
    next_state = next_state.reshape(count, mdp.n_states, mdp.n_actions)
    reward = mdp.reward.sample_from(means, u[:, entries:])
    next_state.setflags(write=False)
    reward.setflags(write=False)
    for i, store in enumerate(stores):
        store.rows.append(StoreRow(next_state=next_state[i], reward=reward[i]))
        store.ledger.add_generative(entries)


@dataclass
class EvaluationRecord:
    """One unbiased average-reward sample for a policy, from stored rows."""

    reward: float
    rows_consumed: int
    state: int


def _cftp_pairs(
    stores: list[SampleMatrix],
    policies: list[DeterministicPolicy],
    step_cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CFTP for every (store, policy) pair on the stored rows, in one loop.

    Returns (states, t_c, rewards), each of shape (len(stores), len(policies)).
    A pair composes its restricted maps exactly as scalar CFTP does and reads
    rows 1..t_c of its store; a store grows to the largest t_c of its pairs.
    The composites are held state-major and composed as ``cftp_batch``'s
    are (``sampling._compose``): pair p's image of state x sits at
    x * width + p of the last step's raveled composites, and a pair that
    coalesces retires by column, with no survivor copied.
    """
    n, m = stores[0].mdp.n_states, stores[0].mdp.n_actions
    shape = (len(stores), len(policies))
    states = np.empty(shape, dtype=np.int64)
    times = np.empty(shape, dtype=np.int64)
    rewards = np.empty(shape)
    actions = np.array([policy.actions for policy in policies], dtype=np.int64).reshape(-1, n)
    # Active pairs, store-major; entry[x, p] is pair p's offset of
    # (x, pi(x)) in a row flattened to n * m entries.
    pair_store, pair_policy = np.indices(shape).reshape(2, -1)
    entry = (np.arange(n)[:, None] * m + actions.T)[:, pair_policy]
    columns = np.arange(pair_store.size)
    # Before the first step every composite is the identity, one column.
    flat, width, cols = np.arange(n), 1, 0
    # Every live store holds at least ``grown`` rows. A step past it
    # appends row t to the live stores that lack it, raising it to t.
    grown = min(len(store) for store in stores)
    t = 0
    while pair_store.size:
        # The stores with an active pair (live), each pair's position among
        # them (slot), and where its maps sit in the stacked rows (gather).
        # pair_store stays sorted, so a live store's pairs form one run.
        first = np.empty(pair_store.size, dtype=bool)
        first[0] = True
        np.not_equal(pair_store[1:], pair_store[:-1], out=first[1:])
        slot = first.cumsum() - 1
        live = [stores[i] for i in pair_store[first]]
        gather = slot * (n * m) + entry
        done = np.zeros(pair_store.size, dtype=bool)
        while not done.any():
            t += 1
            if t > step_cap:
                raise CapExceededError(f"no coalescence within {step_cap} steps")
            if t > grown:
                short = [store for store in live if len(store.rows) == t - 1]
                if short:
                    _append_rows(short, t)
                grown = t
            rows = [store.rows[t - 1] for store in live]
            next_state = np.concatenate([row.next_state for row in rows]).ravel()
            composite, done = _compose(flat, width, cols, next_state.take(gather))
            flat, width, cols = composite.ravel(), pair_store.size, columns[: pair_store.size]
        i, j, state = pair_store[done], pair_policy[done], composite[0, done]
        reward = np.concatenate([row.reward for row in rows]).ravel()
        states[i, j] = state
        times[i, j] = t
        rewards[i, j] = reward[slot[done] * (n * m) + state * m + actions[j, state]]
        cols = np.flatnonzero(~done)
        pair_store, pair_policy, entry = pair_store[cols], pair_policy[cols], entry[:, cols]
    return states, times, rewards


def evaluate_policy(
    store: SampleMatrix,
    policy: DeterministicPolicy,
    step_cap: int = 1_000_000,
) -> EvaluationRecord:
    """Run CFTP for ``policy`` on the stored rows; returns the reward sample.

    The one-store, one-policy case of ``estimate_all``'s loop. Row t
    supplies the random map for past time -t, with rows appended until
    coalescence. The returned reward is the sample stored at (coalescence
    state, pi(state)) in the row whose addition made the composite constant;
    reward draws are independent of every next-state draw, so the stored
    sample is an unbiased draw of R(state, pi(state)).

    Raises ValueError for an action index outside the MDP and
    NonErgodicError for an induced chain on which CFTP cannot coalesce
    (``MarkovChain.require_coalescing``), before drawing a row;
    CapExceededError once ``step_cap`` rows are read without coalescence.
    """
    require_coalescing_policy(store.mdp, policy)
    states, times, rewards = _cftp_pairs([store], [policy], step_cap)
    return EvaluationRecord(
        reward=float(rewards[0, 0]), rows_consumed=int(times[0, 0]), state=int(states[0, 0])
    )


class StoreEnsemble:
    """Independent sample matrices whose averaged estimates concentrate.

    n = ceil(log(n_policies / delta) / epsilon^2) copies suffice for all
    ``n_policies`` estimates to be within epsilon simultaneously with
    probability at least 1 - delta. Copy i is keyed by
    ``child_sequence(rng, i)``, so each copy has its own Philox key and its
    rows do not depend on the number of copies.
    """

    def __init__(self, mdp: TabularMDP, epsilon: float, delta: float, n_policies: int, rng):
        if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0 or n_policies < 1:
            raise ValueError("need epsilon, delta in (0, 1) and n_policies >= 1")
        self.epsilon = epsilon
        self.delta = delta
        self.n_policies = n_policies
        self.n_copies = math.ceil(math.log(n_policies / delta) / epsilon**2)
        base = seed_sequence(rng)
        self.copies = [SampleMatrix(mdp, child_sequence(base, i)) for i in range(self.n_copies)]

    @property
    def ledger_total(self) -> int:
        return sum(copy.ledger.generative_calls for copy in self.copies)


def estimate_all(
    ensemble: StoreEnsemble,
    policies: list[DeterministicPolicy],
    step_cap: int = 1_000_000,
) -> np.ndarray:
    """Per-policy average-reward estimates, averaging one sample per copy.

    One CFTP loop runs over every (copy, policy) pair; each sample equals
    ``evaluate_policy(copy, policy)`` and each copy grows to the largest
    coalescence time among its pairs. Samples are summed in copy order.

    Every policy's induced chain is checked before any row is drawn:
    ValueError for an action index outside the MDP, NonErgodicError for a
    chain without a single aperiodic closed class (transient states are
    accepted). A chain that can coalesce but has not coalesced within
    ``step_cap`` rows raises CapExceededError; by then every copy with an
    unfinished pair has drawn ``step_cap`` rows.
    """
    for policy in policies:
        require_coalescing_policy(ensemble.copies[0].mdp, policy)
    _, _, rewards = _cftp_pairs(ensemble.copies, policies, step_cap)
    estimates = np.zeros(len(policies))
    for per_copy in rewards:
        estimates += per_copy
    return estimates / ensemble.n_copies


# ---------------------------------------------------------------------------
# Persistence: header "states n actions m rows t", then two lines per row
# (next-state indices, then 17-significant-digit reward decimals). Growing a
# restored matrix reproduces the uninterrupted run bit for bit because row
# t's draws depend only on (seed, t).
# ---------------------------------------------------------------------------

def dumps_store(store: SampleMatrix) -> str:
    n, m = store.mdp.n_states, store.mdp.n_actions
    lines = [f"states {n} actions {m} rows {len(store.rows)}"]
    for row in store.rows:
        lines.append(" ".join(str(int(v)) for v in row.next_state.ravel()))
        lines.append(" ".join(f"{float(v):.17g}" for v in row.reward.ravel()))
    return "\n".join(lines) + "\n"


def loads_store(text: str, mdp: TabularMDP, rng, ledger: SampleLedger | None = None) -> SampleMatrix:
    """Parse ``dumps_store`` text into a matrix that grows on from its last row.

    Raises ValueError for empty text, a bad header, a shape other than the
    MDP's, a row count or row width other than the header's, a next-state
    index outside [0, n_states) or a reward outside [0, 1].
    """
    (n, m, t), body = parse_table(
        text, ("states", "actions", "rows"), lambda n, m, t: [(2 * t, n * m)]
    )
    if (n, m) != (mdp.n_states, mdp.n_actions):
        raise ValueError("stored shape does not match the MDP")
    store = SampleMatrix(mdp, rng, ledger=ledger)
    for i in range(t):
        nxt = np.array([int(v) for v in body[2 * i]], dtype=np.int64)
        reward = np.array([float(v) for v in body[2 * i + 1]])
        if not ((nxt >= 0) & (nxt < n)).all():
            raise ValueError(f"row {i + 1}: next-state index outside [0, {n})")
        if not ((reward >= 0.0) & (reward <= 1.0)).all():
            raise ValueError(f"row {i + 1}: reward outside [0, 1]")
        nxt, reward = nxt.reshape(n, m), reward.reshape(n, m)
        nxt.setflags(write=False)
        reward.setflags(write=False)
        store.rows.append(StoreRow(next_state=nxt, reward=reward))
    return store


def save_store(store: SampleMatrix, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_store(store))


def load_store(path, mdp: TabularMDP, rng, ledger: SampleLedger | None = None) -> SampleMatrix:
    with open(path) as fh:
        return loads_store(fh.read(), mdp, rng, ledger=ledger)
