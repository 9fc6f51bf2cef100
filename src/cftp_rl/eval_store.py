"""Shared sample matrix for unbiased policy evaluation across many policies.

The matrix holds, per row, one next-state draw and one reward draw for every
(state, action) pair. Restricting a row to the columns (s, pi(s)) of a
deterministic policy pi yields a valid random map of the chain pi induces,
so the same rows drive CFTP for every policy. Rows are appended on demand
and never modified, which is what lets exponentially many policies share
polynomially many generative calls.

The rows of every copy of a ``StoreEnsemble`` live in one row table
(``_RowTable``): next states and rewards as (capacity, copies,
n_states * n_actions) arrays whose capacity doubles on demand. A stand-alone
``SampleMatrix`` is a one-copy table, and ``rows`` and ``row_at`` hand out
read-only views of it.

Each (matrix, policy) pair is one run of the one batched CFTP loop,
``sampling._cftp_batch_core``: step t reads row t of every unfinished
pair's matrix, with one ``take`` from the table's row-t slab, and each
pair retires at its own coalescence time. The pairs are walked in chunks
of whole matrices, at most ``PAIR_BLOCK_ENTRIES`` pair entries (pairs x
n_states) or one matrix, each handed to the caller as it ends, so the
per-pair arrays stay bounded however many copies there are.
Row t is drawn from ``KeyedUniforms(seed).at(t)`` and so depends only on
(seed, t): neither the order in which rows are drawn nor the chunking
changes any result. Growth is batched: one ``_append_rows`` call appends
row t to every matrix of the step that holds t - 1 rows, with one
``random`` call per matrix and then one inverse-CDF call and one reward
step for all of them, from the MDP's one CDF table. Policies are checked up front: an action
index outside the MDP raises ValueError and an induced chain on which CFTP
cannot coalesce raises NonErgodicError, before any row is drawn. Chains
with transient states are accepted, as ``cftp`` accepts them.

Reusing rows across policies correlates their estimates within one matrix;
averaging over independent copies (StoreEnsemble) restores concentration.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .chains import (
    DeterministicPolicy, SampleLedger, TabularMDP, inverse_cdf, require_coalescing_policy,
)
from .sampling import _cftp_batch_core
from .seeding import KeyedUniforms, child_sequence, seed_sequence

# _cftp_pairs walks its (matrix, policy) pairs in chunks of whole matrices, of
# at most this many pair entries (pairs x n_states) or else one matrix; a
# chunk's loop holds a few int64 arrays of that size. One matrix's pairs hold
# n_states x policies entries, the size of the ``entry`` offsets _cftp_pairs
# builds anyway. Measured on every policy of random_mdp(n, 2, 0) at epsilon =
# delta = 0.1 (StoreEnsemble plus estimate_all, wall s and process peak RSS,
# 2-core AMD EPYC): at n = 10 (924 copies x 1024 policies), 2.31 s and 111 MB
# at 2**12, 0.92 s / 116 MB at 2**16, 0.81 / 119 at 2**17, 0.74-0.77 / 126 at
# 2**18, 0.73 / 144 at 2**19, 0.84 / 176 at 2**20 and 1.14 / 350 at 2**22; at
# n = 12 (1063 x 4096), 4.00 s / 227 MB at 2**17, 3.73 / 232 at 2**18 and
# 3.83 / 249 at 2**19. One pair set of the policy-eval benchmark (220 copies
# x 8 policies x 6 states) fits in one chunk.
PAIR_BLOCK_ENTRIES = 2**18


@dataclass
class StoreRow:
    """One sample per (state, action): next-state indices and reward draws."""

    next_state: np.ndarray  # (n_states, n_actions) int
    reward: np.ndarray  # (n_states, n_actions) float


class _RowTable:
    """The rows of one or more sample matrices of one MDP, in one pair of arrays.

    Row t of the matrix in slot c is ``next_state[t - 1, c]`` and
    ``reward[t - 1, c]``, n_states * n_actions entries each, state-major.
    The arrays are time-major, so step t's rows of every slot form one
    contiguous slab and an offset into it does not move when the capacity
    grows. Capacity doubles on demand, from 8 rows, which cover most
    one-copy evaluations; a written row is never rewritten, so views of it
    stay valid after a regrowth.
    """

    def __init__(self, mdp: TabularMDP, slots: int):
        self.entries = mdp.n_states * mdp.n_actions
        self.lengths = np.zeros(slots, dtype=np.int64)
        self.next_state = np.empty((0, slots, self.entries), dtype=np.int64)
        self.reward = np.empty((0, slots, self.entries))

    def write(self, t: int, slots, next_state: np.ndarray, reward: np.ndarray) -> None:
        """Store row t of the matrices in ``slots``, each of which holds t - 1 rows."""
        if t > len(self.next_state):
            capacity = max(2 * len(self.next_state), t, 8)
            for name in ("next_state", "reward"):
                old = getattr(self, name)
                new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
                new[: len(old)] = old
                setattr(self, name, new)
        self.next_state[t - 1, slots] = next_state
        self.reward[t - 1, slots] = reward
        self.lengths[slots] = t


class SampleMatrix:
    """Append-only matrix of per-(state, action) samples; rows double as CFTP maps.

    Row t reads ``KeyedUniforms(rng).at(t)``: first the n_states * n_actions
    next-state uniforms, state-major, then the reward uniforms
    (``RewardModel.uniforms_per_entry`` per entry), so a matrix grown in a
    batch with other matrices (``_append_rows``) is bit-identical to one
    grown alone. Every matrix of one MDP inverts with the MDP's one CDF
    table (``TabularMDP.cumulative``). The rows sit in one slot of a
    ``_RowTable``: a table of their own, or their ensemble's.
    Single-writer: do not evaluate one matrix concurrently, growth during
    evaluation is part of the contract.
    """

    def __init__(
        self, mdp: TabularMDP, rng, ledger: SampleLedger | None = None,
        *, _row_slot: tuple[_RowTable, int] | None = None,
    ):
        self.mdp = mdp
        self._keyed = KeyedUniforms(rng)
        self._table, self._slot = _row_slot if _row_slot is not None else (_RowTable(mdp, 1), 0)
        self.ledger = ledger if ledger is not None else SampleLedger()

    def __len__(self) -> int:
        return int(self._table.lengths[self._slot])

    @property
    def rows(self) -> list[StoreRow]:
        """Read-only views of rows 1..len(self), in order, as the matrix holds them now."""
        return [self._row(t) for t in range(1, len(self) + 1)]

    def _row(self, t: int) -> StoreRow:
        shape = (self.mdp.n_states, self.mdp.n_actions)
        next_state = self._table.next_state[t - 1, self._slot].reshape(shape)
        reward = self._table.reward[t - 1, self._slot].reshape(shape)
        next_state.setflags(write=False)
        reward.setflags(write=False)
        return StoreRow(next_state=next_state, reward=reward)

    def row_at(self, t: int) -> StoreRow:
        """Row for past time -t (1-indexed), growing the matrix on demand."""
        if t < 1:
            raise ValueError("row index starts at 1")
        for missing in range(len(self) + 1, t + 1):
            _append_rows([self], missing)
        return self._row(t)

    def restricted_map(self, t: int, policy: DeterministicPolicy) -> np.ndarray:
        """Row t restricted to columns (s, pi(s)): a random map of pi's chain."""
        row = self.row_at(t)
        return row.next_state[np.arange(self.mdp.n_states), policy.actions]


def _append_rows(stores: list[SampleMatrix], t: int) -> None:
    """Append row t to every matrix in ``stores``: one MDP, one row table, t - 1 rows each.

    One ``KeyedUniforms.at(t)`` and one ``random`` call per matrix, covering
    its next-state uniforms and then its reward uniforms; then one
    ``inverse_cdf`` call and one ``RewardModel.sample_from`` call for all
    of them, written into the table as one slab. Each matrix's row equals
    the one it would draw alone.
    """
    mdp, table = stores[0].mdp, stores[0]._table
    count, entries = len(stores), table.entries
    u = np.empty((count, entries * (1 + mdp.reward.uniforms_per_entry)))
    for i, store in enumerate(stores):
        store._keyed.at(t).random(out=u[i])
        store.ledger.add_generative(entries)
    table_rows, means, slots = np.arange(entries), mdp.reward.means[None], stores[0]._slot
    if count > 1:
        table_rows, means = np.tile(table_rows, count), means.repeat(count, axis=0)
        slots = np.array([store._slot for store in stores])
    next_state = inverse_cdf(mdp.cumulative(), table_rows, u[:, :entries].ravel())
    reward = mdp.reward.sample_from(means, u[:, entries:])
    table.write(t, slots, next_state.reshape(count, entries), reward.reshape(count, entries))


@dataclass
class EvaluationRecord:
    """One unbiased average-reward sample for a policy, from stored rows."""

    reward: float
    rows_consumed: int
    state: int


def _cftp_pairs(
    stores: Sequence[SampleMatrix],
    policies: list[DeterministicPolicy],
    step_cap: int,
    unshared: SampleLedger | None = None,
):
    """CFTP for every (store, policy) pair on the stored rows, handed out a chunk at a time.

    The stores share one row table: one stand-alone matrix, or the copies
    of one ensemble. A chunk is consecutive stores, at most
    ``PAIR_BLOCK_ENTRIES // (n_states * len(policies))`` and at least one,
    with all their pairs, store-major, in one ``_cftp_chunk`` call. Yields
    its (states, t_c, rewards), each shaped (stores, policies); no policies
    yield nothing. A pair composes its restricted maps exactly as scalar
    CFTP does and reads rows 1..t_c of its store; a store grows to the
    largest t_c of its pairs. A pair's result depends only on its store's
    rows, so the chunking changes no result, row or ledger count. A chunk
    that reaches ``step_cap`` raises CapExceededError, and the chunks after
    it are not run. Each chunk charges ``unshared``.
    """
    if not policies:
        return
    n, m, k = stores[0].mdp.n_states, stores[0].mdp.n_actions, len(policies)
    actions = np.array([policy.actions for policy in policies], dtype=np.int64)
    # entry[x, j] is policy j's offset of (x, pi_j(x)) in a row of n * m entries.
    entry = np.arange(n)[:, None] * m + actions.T
    slot = np.array([store._slot for store in stores])
    chunk = max(1, PAIR_BLOCK_ENTRIES // (n * k))
    for first in range(0, len(stores), chunk):
        chunk_stores = np.arange(first, min(first + chunk, len(stores)))
        # Column i * k + j of read is the chunk's store i with policy j.
        read = (slot[chunk_stores, None] * (n * m) + entry[:, None]).reshape(n, -1)
        out = _cftp_chunk(stores, slot, chunk_stores.repeat(k), read, step_cap, unshared)
        yield tuple(a.reshape(-1, k) for a in out)


def _cftp_chunk(
    stores: Sequence[SampleMatrix],
    slot: np.ndarray,
    pair_store: np.ndarray,
    read: np.ndarray,
    step_cap: int,
    unshared: SampleLedger | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CFTP over pairs whose stores share one row table; returns (states, t_c, rewards).

    Pair p reads ``stores[pair_store[p]]``, whose rows sit in ``slot[pair_store[p]]``
    of the table, and ``pair_store`` ascends. ``read[x, p]`` is the offset of
    pair p's map entry for state x in one step's slab of the table (slot * n
    * m + x * m + pi(x)). The pairs are runs of ``sampling._cftp_batch_core``
    whose step-t maps are one ``take`` from the row-t slab, after row t is
    appended to the stores with an unfinished pair that lack it. The rewards
    are one gather after the loop. The loop charges ``unshared`` and raises
    at ``step_cap`` as it does for ``cftp_batch``: row t restricted to
    (s, pi(s)) is a map of pi's chain, so runs that drew maps of their own
    would coalesce at the same t_c.
    """
    table = stores[pair_store[0]]._table
    n, k = read.shape
    step_read, live = read, _distinct(pair_store)
    # Every live store holds at least ``grown`` rows. A step past it
    # appends row t to the live stores that lack it, raising it to t.
    grown = int(table.lengths[slot[live]].min())
    t = 0

    def draw_maps(active: np.ndarray) -> np.ndarray:
        nonlocal t, grown, step_read, live
        t += 1
        if active.size < step_read.shape[1]:
            step_read, live = read[:, active], _distinct(pair_store[active])
        if t > grown:
            short = live[table.lengths[slot[live]] < t]
            if short.size:
                _append_rows([stores[i] for i in short], t)
            grown = t
        return table.next_state[t - 1].take(step_read)

    states, times = _cftp_batch_core(draw_maps, k, n, step_cap, unshared)
    rewards = table.reward.reshape(len(table.reward), -1)[times - 1, read[states, np.arange(k)]]
    return states, times, rewards


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of a non-empty ascending array."""
    first = np.empty(ascending.size, dtype=bool)
    first[0] = True
    np.not_equal(ascending[1:], ascending[:-1], out=first[1:])
    return ascending[first]


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
    [(states, times, rewards)] = _cftp_pairs([store], [policy], step_cap)
    return EvaluationRecord(
        reward=float(rewards[0, 0]), rows_consumed=int(times[0, 0]), state=int(states[0, 0])
    )


class StoreEnsemble:
    """Independent sample matrices whose averaged estimates concentrate.

    n = ceil(log(n_policies / delta) / epsilon^2) copies suffice for all
    ``n_policies`` estimates to be within epsilon simultaneously with
    probability at least 1 - delta. Copy i is keyed by
    ``child_sequence(rng, i)``, so each copy has its own Philox key and its
    rows do not depend on the number of copies. Copy i's rows sit in slot i
    of the ensemble's one row table, which allocates nothing before the
    first row is drawn; ``copies`` is a tuple, so every copy stays in that
    table. ``estimate_all`` charges ``unshared`` the calls its
    CFTP runs would draw with no row shared.
    """

    def __init__(self, mdp: TabularMDP, epsilon: float, delta: float, n_policies: int, rng):
        if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0 or n_policies < 1:
            raise ValueError("need epsilon, delta in (0, 1) and n_policies >= 1")
        self.epsilon = epsilon
        self.delta = delta
        self.n_policies = n_policies
        self.n_copies = math.ceil(math.log(n_policies / delta) / epsilon**2)
        base = seed_sequence(rng)
        table = _RowTable(mdp, self.n_copies)
        self.copies = tuple(
            SampleMatrix(mdp, child_sequence(base, i), _row_slot=(table, i))
            for i in range(self.n_copies)
        )
        self.unshared = SampleLedger()

    @property
    def ledger_total(self) -> int:
        return sum(copy.ledger.generative_calls for copy in self.copies)


def estimate_all(
    ensemble: StoreEnsemble,
    policies: list[DeterministicPolicy],
    step_cap: int = 1_000_000,
) -> np.ndarray:
    """Per-policy average-reward estimates, averaging one sample per copy.

    One CFTP loop runs over the (copy, policy) pairs, a bounded chunk of
    whole copies at a time (``_cftp_pairs``); each sample equals
    ``evaluate_policy(copy, policy)`` and each copy grows to the largest
    coalescence time among its pairs. Samples are summed a copy at a time,
    in copy order, as each chunk ends; no policies give an empty array.

    Every policy's induced chain is checked before any row is drawn:
    ValueError for an action index outside the MDP, NonErgodicError for a
    chain without a single aperiodic closed class (transient states are
    accepted). A chain that can coalesce but has not coalesced within
    ``step_cap`` rows raises CapExceededError; by then every copy with an
    unfinished pair in that chunk has drawn ``step_cap`` rows, and no pair
    of a later chunk has run.
    """
    for policy in policies:
        require_coalescing_policy(ensemble.copies[0].mdp, policy)
    estimates = np.zeros(len(policies))
    for _, _, rewards in _cftp_pairs(ensemble.copies, policies, step_cap, ensemble.unshared):
        for per_copy in rewards:
            estimates += per_copy
    return estimates / ensemble.n_copies
