"""Random maps and coupling from the past (CFTP).

A random map realizes one next-state draw per state. CFTP composes maps
backward in time until the composite sends every state to the same one;
that value is an exact draw from the stationary distribution.

Composition order matters: with maps f_{-1}, f_{-2}, ... (drawn in that
order, each for one step further into the past), the composite after t
maps is f_{-1} o f_{-2} o ... o f_{-t}, i.e. the newest map is applied
first. Each map is drawn once, for one past time, and used once: it is
composed into the running composite and never read again. Drawing a second
map for a past time already composed would break exactness.

Every batched CFTP runs the one batched loop, ``_cftp_batch_core``.
``cftp``, ``cftp_batch`` and ``grand_coupling_sim`` take their maps from
one source that draws them a block ahead (``_map_blocks``): one
``Generator.random`` call and one inverse-CDF call per block, not per map
or per step. Each map is still drawn for its step from the uniforms a
per-step loop would give it, and used at most once. ``cftp`` and
``grand_coupling_sim`` take a block at a time as a pass, apply its maps one
gather each, and test the whole pass at once; the maps after the step that
ends the run go back to the source unused. When a run ends, the maps it
did not use are discarded and the Generator is rewound, so outputs and
generator state are those of the per-step loop. Small chains count their
blocks state-major, so a batched step's maps reach ``_compose`` as
contiguous per-state rows; wider ones search them map-major. The coupled
pairs (``_pair_walk``) draw per step, and do their bookkeeping only on a
step where some pair met. Every loop that takes a ``step_cap`` raises
ValueError for a negative one before its first step; 0 is legal.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .chains import COUNT_MAX_STATES, MarkovChain, RewardModel, SampleLedger, inverse_cdf
from .errors import CapExceededError
from .seeding import as_generator


@dataclass
class CoalescenceRecord:
    """Outcome of a coalescence run: first hit time and state."""

    t_c: int
    state: int


# _map_blocks draws blocks that double from one map up to this many entries
# (maps x n_states), or to the maps one request asks for if that is more.
# Measured per scalar cftp call on a random chain with n = 200: 2.5 ms at
# 2**10, 1.9 at 2**11, 1.66 at 2**12, 1.63 at 2**13, 2.0 at 2**14 and 2.5 at
# 2**15 (larger blocks waste more unused maps); at n <= 50, 2**11 to 2**13
# differ within noise. Per cftp_batch call (random chain, best of 5, 2-core
# AMD EPYC): 64 runs at n = 6 take 218-223 us at every cap from 2**11 to
# 2**14 (322 us drawing per step); 30 runs at n = 200 take 42.6, 40.3, 38.6
# and 36.1 ms at 2**11, 2**12, 2**13 and 2**14 (55.5 ms per step).
MAP_BLOCK_ENTRIES = 2**13


def _require_count(value: int, name: str) -> None:
    """ValueError naming ``name`` when the sample count ``value`` is negative; 0 is allowed."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def draw_random_map(chain: MarkovChain, rng: np.random.Generator) -> np.ndarray:
    """One realized next state per state, drawn independently across states."""
    n = chain.n_states
    return inverse_cdf(chain.cumulative(), np.arange(n), rng.random(n))


def _map_blocks(cum: np.ndarray, gen: np.random.Generator):
    """Hand out the random maps for steps t = 1, 2, ..., drawn a block ahead.

    Start the generator with ``next``. After that, ``send(k)`` returns the
    next k maps as a (k, n_states) array, and ``next`` returns a pass: the
    maps left in the block, after drawing a fresh block if none are left.
    ``send(-j)`` hands the last j maps of the last pass back (it returns an
    empty array): they count as never handed out. Each block is one ``gen.random`` call inverted by one
    ``inverse_cdf`` call. A block holds at least the maps requested (a pass
    asks for one); beyond that, blocks double from one map up to
    ``MAP_BLOCK_ENTRIES`` entries, so passes that each drain their block
    double likewise. Maps left over when a request outgrows the block are
    carried, in order, to the front of the next one. Map t gets the
    uniforms a per-step ``draw_random_map`` loop would give it: for float64
    draws, ``random(a)`` then ``random(b)`` equals ``random(a + b)`` on
    every numpy BitGenerator. The state before a block that may outlast its
    first request is kept: a block longer than its ``send(k)``, or a pass
    of more than one map, whose tail may be handed back. Closing the
    iterator restores that state and redraws the part of the block handed
    out. The Generator then ends where the per-step loop stopping at the
    last map handed out would leave it. Callers must close the iterator
    however the run ends.

    A block is indexed map-major, as (maps, n_states), so ``next`` and
    ``send`` hand out rows. Rows of at most ``COUNT_MAX_STATES`` entries are
    counted state-major, from a state-major copy of the uniforms against
    per-state rows of shape (n_states, 1), and the block is the transposed
    view of that (n_states, maps) count: the (n_states, k) transpose of
    ``send(k)``, which ``_compose`` reads, has contiguous per-state rows.
    Wider rows are searched map-major, as one flat call on tiled rows, and
    keep that memory order. Carrying maps over keeps either order, since
    ``np.concatenate`` follows its inputs' layout.
    """
    n = cum.shape[0]
    max_maps = max(1, MAP_BLOCK_ENTRIES // n)
    counted = n <= COUNT_MAX_STATES
    # Per-state rows; for wider rows, the CDF row of each entry of the largest draw so far.
    rows = np.arange(n)[:, None] if counted else np.arange(n)
    block = None
    size = pos = fresh = 0  # maps in the block, handed out, from its own draw
    saved = None
    req = yield
    try:
        while True:
            # A negative k draws nothing and moves pos back over the maps
            # handed back; the empty slice it returns hands out none.
            k = 1 if req is None else req
            if pos + k > size:
                carried = size - pos
                size = min(2 * size, max_maps)
                if size < k:
                    size = k
                fresh = size - carried
                saved = gen.bit_generator.state if size > k else None
                u = gen.random(fresh * n)
                if counted:
                    drawn = inverse_cdf(cum, rows, u.reshape(fresh, n).T.copy()).T
                else:
                    while rows.size < u.size:
                        rows = np.concatenate((rows, rows))
                    drawn = inverse_cdf(cum, rows[: u.size], u).reshape(fresh, n)
                block = np.concatenate((block[pos:], drawn)) if carried else drawn
                pos = 0
            end = size if req is None else pos + k
            out = block[pos:end]
            pos = end
            req = yield out
    finally:
        if saved is not None and pos < size:
            gen.bit_generator.state = saved
            gen.random((fresh - size + pos) * n)


def _compose(flat: np.ndarray, width: int, cols, maps: np.ndarray):
    """One ``_cftp_batch_core`` step; returns (composites, which runs coalesced).

    ``flat`` is the last step's composites, raveled from an (n_states,
    ``width``) array: run c's image of state x sits at x * width + c.
    ``maps`` holds the new maps state-major, column j for the run at column
    ``cols[j]`` of ``flat``. The new composite of that run is its old one
    applied after its new map, as ``cftp`` composes, and sits in
    column j of the returned (n_states, len(cols)) array. A run has
    coalesced when every state's image equals state 0's: n_states - 1
    compares of whole rows, and no row at all for one state.
    """
    composite = flat.take(maps * width + cols)
    return composite, np.logical_and.reduce(composite[1:] == composite[0], axis=0)


def _cftp_batch_core(
    draw_maps, n_samples: int, n_states: int, step_cap: int, ledger: SampleLedger | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The one batched CFTP loop; returns (states, coalescence times).

    Its callers, ``cftp_batch``, ``apprenticeship.expert_stationary_samples``
    and ``eval_store._cftp_chunk``, differ only in ``draw_maps(active)``: it
    gets the ascending indices of the k unfinished runs and returns their
    next step's maps state-major, (n_states, k), column j for run
    ``active[j]``. Each run composes its own maps as ``cftp`` does,
    newest first, and retires at its t_c, in one gather (``_compose``) for
    all runs from the last step's composites, held state-major. A run
    retires by column: the next gather reads the survivors' columns of the
    last composite in place. Before the first step every composite is the
    identity, one column that all runs read.

    Charges ``ledger`` n_states calls per run per step composed,
    sum(t_c) * n_states, as ``cftp`` charges its run. A run still
    apart after ``step_cap`` steps counts ``step_cap`` steps, and the loop
    then raises CapExceededError.
    """
    _require_count(step_cap, "step_cap")
    states = np.empty(n_samples, dtype=np.int64)
    times = np.empty(n_samples, dtype=np.int64)
    active = np.arange(n_samples)
    columns = np.arange(n_samples)
    flat, width, cols = np.arange(n_states), 1, 0
    t = 0
    while active.size and t < step_cap:
        t += 1
        composite, done = _compose(flat, width, cols, draw_maps(active))
        flat, width, cols = composite.ravel(), active.size, columns[: active.size]
        if done.any():
            states[active[done]] = composite[0, done]
            times[active[done]] = t
            cols = np.flatnonzero(~done)
            active = active[cols]
    times[active] = step_cap
    if ledger is not None:
        ledger.add_generative(int(times.sum()) * n_states)
    if active.size:
        raise CapExceededError(f"no coalescence within {step_cap} steps")
    return states, times


def cftp(
    chain: MarkovChain,
    rng,
    step_cap: int = 1_000_000,
    ledger: SampleLedger | None = None,
) -> tuple[int, CoalescenceRecord]:
    """Exact draw from the stationary distribution of a chain with one aperiodic closed class.

    Extends the past one step per map, with maps drawn from
    ``as_generator(rng)`` a pass at a time (see ``_map_blocks``). Each map
    is composed into the running composite by one gather into a row of a
    (pass, n_states) array, so each step costs O(n_states) and no map is
    kept once composed; one compare over the pass then finds the first
    constant row. The maps after it go back to ``_map_blocks`` unused.

    Charges ``ledger`` the map entries composed, t_c * n_states, or
    step_cap * n_states before it raises CapExceededError at the cap.
    Raises NonErgodicError before drawing when the maps can never coalesce
    (``MarkovChain.require_coalescing``).
    """
    chain.require_coalescing()
    _require_count(step_cap, "step_cap")
    n = chain.n_states
    composite = np.arange(n)
    t = t_c = 0
    with closing(_map_blocks(chain.cumulative(), as_generator(rng))) as maps:
        next(maps)
        while not t_c and t < step_cap:
            block = next(maps)
            paths = np.empty((min(len(block), step_cap - t), n), dtype=composite.dtype)
            for f, out in zip(block, paths):
                # Every map entry is a state, so no index wraps; "wrap" skips
                # the bounds check that buffers ``out``.
                composite = composite.take(f, out=out, mode="wrap")
            coalesced = np.flatnonzero((paths == paths[:, :1]).all(axis=1))
            used = int(coalesced[0]) + 1 if coalesced.size else len(paths)
            if used < len(block):
                maps.send(used - len(block))
            t += used
            if coalesced.size:
                t_c, state = t, int(paths[used - 1, 0])
    if ledger is not None:
        ledger.add_generative((t_c or step_cap) * n)
    if not t_c:
        raise CapExceededError(f"no coalescence within {step_cap} steps")
    return state, CoalescenceRecord(t_c=t_c, state=state)


def cftp_batch(
    chain: MarkovChain,
    n_samples: int,
    rng,
    step_cap: int = 1_000_000,
    ledger: SampleLedger | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized independent CFTP runs; returns (states, coalescence times).

    Each run extends its own past one step per iteration with its own maps,
    exactly as ``cftp`` does run by run, so the output distribution is the
    same; only the loop is shared across runs. Step t takes one map per
    unfinished run, in run order, from the block-ahead source ``cftp`` uses
    (``_map_blocks``), so states, times and the final generator state are
    those of a loop that draws each step's maps with one ``gen.random``
    call. Charges ``ledger`` and raises CapExceededError at ``step_cap`` as
    ``_cftp_batch_core`` does. Raises NonErgodicError before drawing, as
    ``cftp`` does, when the maps can never coalesce. A negative
    ``n_samples`` raises ValueError before any check or draw.
    """
    _require_count(n_samples, "n_samples")
    chain.require_coalescing()
    with closing(_map_blocks(chain.cumulative(), as_generator(rng))) as maps:
        next(maps)
        return _cftp_batch_core(
            lambda active: maps.send(active.size).T, n_samples, chain.n_states, step_cap, ledger
        )


def _pair_walk(
    cum, xy, a, draw_actions, gen, step_cap, on_step=None, step_uniforms=0, ledger=None
):
    """Walk coupled pairs forward until each pair meets; returns (times, apart).

    ``xy`` is a (2, k) array: pair p starts at states (xy[0, p], xy[1, p])
    with first actions ``a`` of the same shape, or a scalar action shared by
    every pair and step when ``draw_actions`` is None. ``cum`` is a
    flattened CDF table whose row s * n_actions + a is the next-state law of
    action a in state s. Each step flattens the pairs' rows s * n_actions +
    a into one index, x sides first; moves both sides with one inverse-CDF
    call on it; compares the sides once, and on a step where some pair
    met retires those pairs; and, if another step follows, draws the next
    actions with one ``draw_actions`` call on the raveled states. A
    one-action table with the scalar action 0 needs no index: its rows are
    the states. A pair's time is the step at which it met. After
    ``step_cap`` steps the pairs still apart, ``apart``, get time
    ``step_cap``; the caller raises or censors. Charges ``ledger`` 2 calls
    per pair per step, one per side: 2 * sum(times).

    If given, ``on_step(active, xy, index, u)`` runs before each move with
    the flattened index. It reads ``step_uniforms`` uniforms per index entry
    from ``u``, which is None when it reads none. A step takes its uniforms
    from one ``gen.random`` call: on_step's first, then the move's, one per
    entry. A step whose on_step reads none draws just the move's. Since
    ``random(a)`` then ``random(b)`` equals ``random(a + b)``, the draws are
    those of an on_step that draws its own uniforms before the move's.
    """
    _require_count(step_cap, "step_cap")
    n_actions = cum.shape[0] // cum.shape[1]
    by_state = n_actions == 1 and draw_actions is None and a == 0
    times = np.zeros(xy.shape[1], dtype=np.int64)
    active = np.arange(xy.shape[1])
    t = 0
    while active.size and t < step_cap:
        t += 1
        index = xy.ravel() if by_state else (xy * n_actions + a).ravel()
        if step_uniforms:
            u = gen.random(index.size * (step_uniforms + 1))
            split = index.size * step_uniforms
            on_step(active, xy, index, u[:split])
            u = u[split:]
        else:
            if on_step is not None:
                on_step(active, xy, index, None)
            u = gen.random(index.size)
        xy = inverse_cdf(cum, index, u).reshape(2, -1)
        met = xy[0] == xy[1]
        if np.count_nonzero(met):
            times[active[met]] = t
            keep = ~met
            active, xy = active[keep], xy[:, keep]
        if active.size and draw_actions is not None and t < step_cap:
            a = draw_actions(xy.ravel()).reshape(xy.shape)
    times[active] = step_cap
    if ledger is not None:
        ledger.add_generative(2 * int(times.sum()))
    return times, active


def coalescence_times_batch(
    chain: MarkovChain,
    i: int,
    j: int,
    n_runs: int,
    rng,
    step_cap: int = 10_000_000,
    censor_at_cap: bool = False,
) -> np.ndarray:
    """Vectorized independent-coupling coalescence times over many runs.

    With ``censor_at_cap`` runs still apart at the cap report ``step_cap``
    as a censored time instead of raising, so sweeps can record the
    exceedance and continue. Raises ValueError before drawing when
    ``n_runs`` is negative or i or j is not a state. Returns zeros when
    i == j; otherwise raises NonErgodicError before drawing unless the
    whole chain can coalesce (``MarkovChain.require_coalescing``), even
    where the pair itself could meet (a periodic chain with i and j in one
    phase, say), and then ValueError for a negative ``step_cap``.
    """
    _require_count(n_runs, "n_runs")
    if not (0 <= i < chain.n_states and 0 <= j < chain.n_states):
        raise ValueError(f"start states must lie in [0, {chain.n_states})")
    if i == j:
        return np.zeros(n_runs, dtype=np.int64)
    chain.require_coalescing()
    # The chain is a one-action table. Its action 0 stays a scalar, so the
    # loop builds no action arrays and indexes rows by the states themselves.
    xy = np.array([[i], [j]], dtype=np.int64).repeat(n_runs, axis=1)
    times, apart = _pair_walk(chain.cumulative(), xy, 0, None, as_generator(rng), step_cap)
    if apart.size and not censor_at_cap:
        raise CapExceededError(f"no coalescence within {step_cap} steps")
    return times


def lower_bound_chain(n_states: int, epsilon: float, reward_mode: str = "bernoulli") -> MarkovChain:
    """Lazy chain that stays put w.p. 1 - eps, else jumps uniformly.

    P(s'|s) = (1 - eps) 1{s = s'} + eps / n. Its stationary distribution is
    uniform, it mixes in O(1/eps) steps, yet two independent chains need
    about n / (2 eps) steps to meet, which makes it the worst case for
    pairwise coalescence.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    transition = np.full((n_states, n_states), epsilon / n_states)
    transition[np.diag_indices(n_states)] += 1.0 - epsilon
    rewards = np.linspace(0.0, 1.0, n_states)
    return MarkovChain(transition, RewardModel(rewards, reward_mode))


@dataclass
class GrandCouplingRecord:
    """Outcome of a grand coupling: merge time, class-count path, final state."""

    merge_time: int
    class_counts: list[int]
    final_state: int


def grand_coupling_sim(
    chain: MarkovChain,
    rng,
    step_cap: int = 10_000_000,
) -> GrandCouplingRecord:
    """Run n_states forward chains under shared random maps until one class remains.

    Chains occupying the same state move together from then on, so the
    surviving classes are the distinct occupied states; the returned
    trajectory records their count after each step, starting at n_states
    before any step. Its maps come from ``_map_blocks`` a pass at a time, as
    ``cftp``'s do: each map moves the classes of the pass's start by one
    gather into a row of a (pass, classes) array, one sort of its rows
    counts the classes after every step, and the maps after the first
    step that leaves one class go back unused. Raises NonErgodicError
    before drawing when the shared maps can never merge every chain
    (``MarkovChain.require_coalescing``).
    """
    chain.require_coalescing()
    _require_count(step_cap, "step_cap")
    n = chain.n_states
    position = np.arange(n)  # the distinct occupied states, sorted
    counts = [n]
    if n == 1:
        return GrandCouplingRecord(merge_time=0, class_counts=counts, final_state=0)
    t = 0
    with closing(_map_blocks(chain.cumulative(), as_generator(rng))) as maps:
        next(maps)
        while t < step_cap:
            block = next(maps)
            paths = np.empty((min(len(block), step_cap - t), position.size), dtype=block.dtype)
            row = position
            for f, out in zip(block, paths):
                row = f.take(row, out=out, mode="wrap")  # as in cftp
            paths.sort(axis=1)
            classes = 1 + np.count_nonzero(paths[:, 1:] != paths[:, :-1], axis=1)
            merged = np.flatnonzero(classes == 1)
            used = int(merged[0]) + 1 if merged.size else len(paths)
            if used < len(block):
                maps.send(used - len(block))
            t += used
            counts += classes[:used].tolist()
            if merged.size:
                return GrandCouplingRecord(merge_time=t, class_counts=counts, final_state=int(paths[used - 1, 0]))
            position = np.unique(paths[-1])
    raise CapExceededError(f"no full merge within {step_cap} steps")
