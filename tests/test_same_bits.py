"""One table of "same bits" checks: each library sampler against its reference in ``reference.py``.

A row names one sampler call, built from a case its strategy draws, and
the table runs that call twice on fresh Generators and ledgers: once with
the library (``LIBRARY``) and once with the per-step references
(``REFERENCE``). One checker then compares

- the values and t_c, by bytes, shape and dtype;
- every Generator's state after each call, the expert's included;
- every ledger, the sampler's and the expert's; the references charge
  the documented count, n_states per CFTP run per step and 2 per pair step;
- the cap outcome.

A case may pass no ledger (``charged``); the values and Generators must
then be the same, so a ledger changes nothing. Each row runs its drawn
cases in one test and each of its fixed cases in a test of its own, so a
failing fixed case is named by its id. ``ROWS`` is also the one
registry of how to call each sampler: other tables build their calls from
it. A new sampler or fast path adds its reference to ``reference.py`` and
one row here.
"""

import math
from dataclasses import astuple, dataclass, field, is_dataclass
from types import SimpleNamespace
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftp_rl import sampling
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
from cftp_rl.eval_store import SampleMatrix, StoreEnsemble, estimate_all, evaluate_policy
from cftp_rl.instances import random_ergodic_chain, random_mdp
from cftp_rl.sampling import (
    cftp,
    cftp_batch,
    coalescence_times_batch,
    grand_coupling_sim,
    lower_bound_chain,
)
from reference import (
    CAPS,
    GENERATORS,
    SEEDS,
    generator,
    mdps,
    outcome,
    per_step_cftp,
    per_step_cftp_batch,
    per_step_coupled_difference,
    per_step_grand_coupling,
    policies,
    policy_actions,
    reference_coalescence_times,
    reference_delta_rho,
    reference_estimate_all,
    reference_evaluations,
    reference_expert_features,
    reference_expert_samples,
    reference_game_column,
    reference_policy_gradient,
    reference_store_rows,
)

# Every store ensemble here is built at these epsilon and delta.
EPSILON, DELTA = 0.6, 0.5


def n_copies(n_policies):
    """``StoreEnsemble.n_copies`` at EPSILON and DELTA."""
    return math.ceil(math.log(n_policies / DELTA) / EPSILON**2)


def rows_of(store):
    return [(row.next_state, row.reward) for row in store.rows]


def library_store_rows(mdp, seed, stops):
    store = SampleMatrix(mdp, seed)
    for stop in stops:
        if stop:
            store.row_at(stop)
    return rows_of(store), store.ledger.generative_calls


def library_evaluations(mdp, seed, policies, step_cap):
    store = SampleMatrix(mdp, seed)
    results = [outcome(lambda: astuple(evaluate_policy(store, p, step_cap))) for p in policies]
    return results, rows_of(store), store.ledger.generative_calls


def library_estimate_all(mdp, seed, policies, lengths, step_cap):
    ensemble = StoreEnsemble(mdp, EPSILON, DELTA, len(policies), seed)
    assert ensemble.n_copies == len(lengths)
    for copy, length in zip(ensemble.copies, lengths):
        if length:
            copy.row_at(length)
    estimates = outcome(lambda: estimate_all(ensemble, policies, step_cap))
    copies = ensemble.copies
    return (
        estimates, [rows_of(copy) for copy in copies],
        [copy.ledger.generative_calls for copy in copies], ensemble.unshared.generative_calls,
    )


LIBRARY = SimpleNamespace(
    cftp=cftp,
    cftp_batch=cftp_batch,
    grand_coupling_sim=grand_coupling_sim,
    coalescence_times_batch=coalescence_times_batch,
    policy_action_drawer=policy_action_drawer,
    coupled_difference_batch=coupled_difference_batch,
    delta_rho_batch=delta_rho_batch,
    policy_gradient_batch=policy_gradient_batch,
    game_column_batch=game_column_batch,
    expert_stationary_samples=expert_stationary_samples,
    estimate_expert_features=estimate_expert_features,
    store_rows=library_store_rows,
    evaluations=library_evaluations,
    estimate_all=library_estimate_all,
)

REFERENCE = SimpleNamespace(
    cftp=per_step_cftp,
    cftp_batch=per_step_cftp_batch,
    grand_coupling_sim=per_step_grand_coupling,
    coalescence_times_batch=reference_coalescence_times,
    policy_action_drawer=policy_actions,
    coupled_difference_batch=per_step_coupled_difference,
    delta_rho_batch=reference_delta_rho,
    policy_gradient_batch=reference_policy_gradient,
    game_column_batch=reference_game_column,
    expert_stationary_samples=reference_expert_samples,
    estimate_expert_features=reference_expert_features,
    store_rows=reference_store_rows,
    evaluations=reference_evaluations,
    estimate_all=reference_estimate_all,
)


def case(**fields):
    """A case: the fields a row's call reads, on a fresh PCG64 Generator, a ledger and no cap by default."""
    return SimpleNamespace(**{"gen": (np.random.PCG64, 0, False), "charged": True, "cap": 10**6, **fields})


class Record:
    """The Generators and ledgers of one run of a row, in the order its calls make them."""

    def __init__(self, case):
        self.case, self.gen = case, None
        self.generators, self.ledgers, self.states = [], [], []

    def generator(self):
        """The run's one Generator, built from the case on first use."""
        if self.gen is None:
            self.gen = generator(*self.case.gen)
            self.generators.append(self.gen)
        return self.gen

    def ledger(self):
        """A fresh ledger, or None for a case that passes none."""
        if not self.case.charged:
            return None
        self.ledgers.append(SampleLedger())
        return self.ledgers[-1]

    def expert(self, case):
        """The case's expert, on a Generator and ledger of its own."""
        expert = ExpertModel(case.expert, case.mdp.n_actions, case.expert_seed)
        self.generators.append(expert.rng)
        self.ledgers.append(expert.ledger)
        return expert

    def snapshot(self):
        self.states.append([gen.bit_generator.state for gen in self.generators])


@dataclass
class Row:
    call: Callable  # (case, impl, record) -> the sampler's return value
    cases: st.SearchStrategy
    max_examples: int
    count: str | None = None  # the sample-count argument, for samplers that take one
    examples: list = field(default_factory=list)
    runs: Callable = lambda case: [case]  # the cases called in turn on one Generator


def run(row, case, impl):
    """Each call of ``row.runs(case)`` with ``impl``: the outcomes, Generator states after each, and ledgers."""
    record = Record(case)
    outcomes = []
    block_entries = getattr(case, "block_entries", sampling.MAP_BLOCK_ENTRIES)
    with mock.patch.object(sampling, "MAP_BLOCK_ENTRIES", block_entries):
        for call_case in row.runs(case):
            outcomes.append(outcome(lambda: row.call(call_case, impl, record)))
            record.snapshot()
    return outcomes, record.states, [astuple(ledger) for ledger in record.ledgers]


def assert_same_bits(got, want):
    """Arrays equal in shape, dtype and bytes; records field by field; scalars in type and repr."""
    if is_dataclass(want):
        assert type(got) is type(want)
        assert_same_bits(astuple(got), astuple(want))
    elif isinstance(want, (tuple, list)):
        assert isinstance(got, (tuple, list)) and len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_bits(a, b)
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
    else:
        assert (type(got), repr(got)) == (type(want), repr(want))


def assert_matches_reference(row, case):
    got_values, got_states, got_ledgers = run(row, case, LIBRARY)
    want_values, want_states, want_ledgers = run(row, case, REFERENCE)
    assert_same_bits(got_values, want_values)
    np.testing.assert_equal(got_states, want_states)
    assert got_ledgers == want_ledgers


def expert_rng(case, record):
    """The case's rng as an int seed, a SeedSequence or the run's Generator."""
    if case.rng_kind == "int":
        return case.seed
    if case.rng_kind == "seed_sequence":
        return np.random.SeedSequence(case.seed)
    return record.generator()


@st.composite
def blocked_cases(draw):
    """A chain of 1 to 60 states, its lazy twin under a cap from 0 to 100, and a small block cap."""
    n = draw(st.integers(1, 60))
    return case(
        chain=random_ergodic_chain(n, draw(SEEDS)),
        # Almost never coalesces within its cap, which may fall inside a block.
        lazy=lower_bound_chain(n, 0.001),
        lazy_cap=draw(st.integers(0, 100)),
        n=draw(st.integers(0, 40)),
        gen=draw(GENERATORS),
        charged=draw(st.booleans()),
        # A small block cap makes the largest block, of any number of maps, come early.
        block_entries=draw(st.sampled_from((16, 100, sampling.MAP_BLOCK_ENTRIES))),
    )


def blocked_runs(case):
    """Three runs on the chain, one into the lazy chain's cap and one more on the chain."""
    on_chain = replace_case(case, chain=case.chain, cap=10**6)
    return [on_chain] * 3 + [replace_case(case, chain=case.lazy, cap=case.lazy_cap), on_chain]


def replace_case(case, **fields):
    return SimpleNamespace(**{**vars(case), **fields})


@st.composite
def pair_chain_cases(draw):
    n = draw(st.integers(2, 8))
    i, j = np.random.default_rng(draw(SEEDS)).choice(n, 2, replace=False)
    return case(
        chain=lower_bound_chain(n, 0.05) if draw(st.booleans()) else random_ergodic_chain(n, draw(SEEDS)),
        i=int(i), j=int(j),
        n=draw(st.integers(0, 40)), gen=draw(GENERATORS), cap=draw(st.sampled_from((0, 1, 2, 3, 5, 10**7))),
        censor=draw(st.booleans()),
    )


@st.composite
def pair_cases(draw, n_features=st.none()):
    """An MDP, coupled pairs' starts and first actions, and a policy that draws their actions."""
    mdp = draw(mdps(n_features=n_features))
    k = draw(st.integers(0, 40))
    gen = np.random.default_rng(draw(SEEDS))
    return case(
        mdp=mdp, s0=gen.integers(0, mdp.n_states, k), first_a=gen.integers(0, mdp.n_actions, k),
        first_b=gen.integers(0, mdp.n_actions, k), pi=draw(policies(mdp)), gen=draw(GENERATORS),
        cap=draw(CAPS), charged=draw(st.booleans()),
    )


@st.composite
def delta_rho_cases(draw):
    mdp = draw(mdps())
    return case(
        mdp=mdp, pi=draw(policies(mdp)), pi_prime=draw(policies(mdp)), n=draw(st.integers(0, 40)),
        gen=draw(GENERATORS), cap=draw(CAPS), charged=draw(st.booleans()),
    )


@st.composite
def policy_gradient_cases(draw):
    mdp = draw(mdps(n_states=st.integers(1, 4)))
    theta = np.random.default_rng(draw(SEEDS)).normal(size=(mdp.n_states, mdp.n_actions))
    return case(
        mdp=mdp, softmax=SoftmaxPolicy(theta), n=draw(st.integers(0, 30)), gen=draw(GENERATORS),
        cap=draw(CAPS), charged=draw(st.booleans()),
    )


@st.composite
def expert_cases(draw, n_samples, n_features=st.none()):
    """An MDP, a deterministic pi, an expert of either kind and its seed."""
    mdp = draw(mdps(n_features=n_features))
    return case(
        mdp=mdp, pi=draw(policies(mdp, st.just("deterministic"))), expert=draw(policies(mdp)),
        expert_seed=draw(SEEDS), n=draw(n_samples), gen=draw(GENERATORS), cap=draw(CAPS),
        charged=draw(st.booleans()),
    )


@st.composite
def expert_sample_cases(draw, n_features=st.none()):
    """``expert_cases`` of 1 to 40 samples, whose rng is an int, a SeedSequence or a Generator."""
    return replace_case(
        draw(expert_cases(st.integers(1, 40), n_features)),
        rng_kind=draw(st.sampled_from(("int", "seed_sequence", "generator"))), seed=draw(SEEDS),
    )


@st.composite
def store_cases(draw):
    """An MDP, 1 to 6 deterministic policies on it, repeats allowed, a seed and a cap."""
    mdp = draw(mdps())
    actions = st.lists(st.integers(0, mdp.n_actions - 1), min_size=mdp.n_states, max_size=mdp.n_states)
    policy_list = [
        DeterministicPolicy(np.array(a, dtype=int)) for a in draw(st.lists(actions, min_size=1, max_size=6))
    ]
    return case(mdp=mdp, policies=policy_list, seed=draw(SEEDS), cap=draw(CAPS))


@st.composite
def ensemble_cases(draw):
    """``store_cases`` whose copies start empty, or at unequal lengths up to 12 rows."""
    c = draw(store_cases())
    copies = n_copies(len(c.policies))
    fresh = st.just([0] * copies)
    grown = st.lists(st.integers(0, 12), min_size=copies, max_size=copies)
    return replace_case(c, lengths=draw(st.one_of(fresh, grown)))


@st.composite
def store_row_cases(draw):
    total = draw(st.integers(1, 30))
    return case(mdp=draw(mdps()), seed=draw(SEEDS), stops=(draw(st.integers(0, total)), total))


# Fixed cases, each run as a test of its own: one instance at three seeds, capped
# where some runs or pairs coalesce by the cap and some do not, at cap 0 and
# uncapped, as the former ledger table ran it.

MDP = random_mdp(4, 2, rng=5, n_features=2)
PI = DeterministicPolicy(np.array([0, 1, 1, 0]))
PI_PRIME = DeterministicPolicy(np.array([1, 1, 0, 0]))
EXPERT = StochasticPolicy(np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1], [0.4, 0.6]]))
FIXED_CAPS = (2, 0, 10**6)


def fixed(**fields):
    """``case(**fields)`` on MDP, PI, PI_PRIME and EXPERT, at each seed 0, 1, 2 and each of FIXED_CAPS."""
    base = dict(
        mdp=MDP, pi=PI, pi_prime=PI_PRIME, expert=EXPERT, n=40, rng_kind="generator",
        chain=induce_chain(MDP, PI),
    )
    return [
        case(**{**base, "gen": (np.random.PCG64, seed, False), "expert_seed": seed + 1, "seed": seed,
                "cap": cap, **fields})
        for seed in range(3) for cap in FIXED_CAPS
    ]


FIXED_PAIRS = dict(
    s0=np.arange(4).repeat(10), first_a=PI_PRIME.actions.repeat(10), first_b=PI.actions.repeat(10)
)
FIXED_BLOCKED = dict(
    lazy=lower_bound_chain(50, 0.001), lazy_cap=20, charged=True, block_entries=sampling.MAP_BLOCK_ENTRIES
)


def delta_rho(source):
    return lambda c, impl, rec: impl.delta_rho_batch(
        c.mdp, c.pi, c.pi_prime, c.n, rec.generator(), s0_source=source, step_cap=c.cap, ledger=rec.ledger()
    )


def coupled_difference(value):
    def call(c, impl, rec):
        draw = impl.policy_action_drawer(c.pi, c.mdp, rec.generator())
        return impl.coupled_difference_batch(
            c.mdp, c.s0, c.first_a, c.first_b, draw, rec.generator(), value=value, step_cap=c.cap,
            ledger=rec.ledger(),
        )

    return call


def game_column(c, impl, rec):
    return impl.game_column_batch(
        c.mdp, rec.expert(c), c.pi, c.n, rec.generator(), step_cap=c.cap, ledger=rec.ledger()
    )


# Each row's call takes (case, impl, record) and returns what the sampler returns.
ROWS = {
    "cftp": Row(
        lambda c, impl, rec: impl.cftp(c.chain, rec.generator(), step_cap=c.cap, ledger=rec.ledger()),
        blocked_cases(), 40, runs=blocked_runs, examples=fixed(**FIXED_BLOCKED),
    ),
    "cftp_batch": Row(
        lambda c, impl, rec: impl.cftp_batch(c.chain, c.n, rec.generator(), step_cap=c.cap, ledger=rec.ledger()),
        blocked_cases(), 40, count="n_samples", runs=blocked_runs,
        examples=fixed(**{**FIXED_BLOCKED, "lazy": induce_chain(MDP, PI), "lazy_cap": 2}),
    ),
    "grand_coupling_sim": Row(
        lambda c, impl, rec: impl.grand_coupling_sim(c.chain, rec.generator(), step_cap=c.cap),
        blocked_cases(), 40, runs=blocked_runs, examples=fixed(**FIXED_BLOCKED),
    ),
    "coalescence_times_batch": Row(
        lambda c, impl, rec: impl.coalescence_times_batch(
            c.chain, c.i, c.j, c.n, rec.generator(), step_cap=c.cap, censor_at_cap=c.censor
        ),
        pair_chain_cases(), 40, count="n_runs", examples=fixed(i=0, j=3, censor=False),
    ),
    "coupled_difference_batch-reward": Row(
        coupled_difference("reward"), pair_cases(), 60, examples=fixed(**FIXED_PAIRS)
    ),
    "coupled_difference_batch-features": Row(
        coupled_difference("features"), pair_cases(n_features=st.integers(1, 3)), 60,
        examples=fixed(**FIXED_PAIRS, pi=EXPERT),
    ),
    "delta_rho_batch-exact_solve": Row(
        delta_rho("exact_solve"), delta_rho_cases(), 60, count="n_samples", examples=fixed() + fixed(pi=EXPERT)
    ),
    "delta_rho_batch-cftp": Row(
        delta_rho("cftp"), delta_rho_cases(), 60, count="n_samples", examples=fixed() + fixed(pi=EXPERT)
    ),
    "policy_gradient_batch": Row(
        lambda c, impl, rec: impl.policy_gradient_batch(
            c.mdp, c.softmax, c.n, rec.generator(), step_cap=c.cap, ledger=rec.ledger()
        ),
        policy_gradient_cases(), 30, count="n_samples",
        examples=fixed(softmax=SoftmaxPolicy(np.array([[0.3, -0.2], [0.0, 1.0], [-0.5, 0.5], [0.1, 0.0]]))),
    ),
    # One sample walks in Python scalars, two or more batched.
    "game_column_batch": Row(
        game_column, expert_cases(st.integers(2, 30), st.integers(1, 3)), 30, count="n_samples",
        examples=fixed(),
    ),
    "game_column_batch-1": Row(
        game_column, expert_cases(st.just(1), st.integers(1, 3)), 150, examples=fixed(n=1)
    ),
    "expert_stationary_samples": Row(
        lambda c, impl, rec: impl.expert_stationary_samples(
            c.mdp, rec.expert(c), c.n, expert_rng(c, rec), step_cap=c.cap, ledger=rec.ledger()
        ),
        expert_sample_cases(), 160, examples=fixed(n=30),
    ),
    "estimate_expert_features": Row(
        lambda c, impl, rec: impl.estimate_expert_features(
            c.mdp, rec.expert(c), c.n, expert_rng(c, rec), step_cap=c.cap
        ),
        expert_sample_cases(st.integers(1, 3)), 30, examples=fixed(n=30),
    ),
    "store_rows": Row(lambda c, impl, rec: impl.store_rows(c.mdp, c.seed, c.stops), store_row_cases(), 60),
    "evaluate_policy": Row(
        lambda c, impl, rec: impl.evaluations(c.mdp, c.seed, c.policies, c.cap), store_cases(), 60
    ),
    "estimate_all": Row(
        lambda c, impl, rec: impl.estimate_all(c.mdp, c.seed, c.policies, c.lengths, c.cap),
        ensemble_cases(), 180,
        examples=[
            case(mdp=MDP, policies=[PI, PI_PRIME], seed=seed, cap=cap, lengths=[0] * n_copies(2))
            for seed in range(3) for cap in (6, 0, 10**6)
        ],
    ),
}


@pytest.mark.parametrize("name", list(ROWS))
def test_sampler_matches_its_reference(name):
    row = ROWS[name]

    @settings(max_examples=row.max_examples)
    @given(row.cases)
    def check(case):
        assert_matches_reference(row, case)

    check()


FIXED_CASES = [(name, index) for name, row in ROWS.items() for index in range(len(row.examples))]


@pytest.mark.parametrize("name, index", FIXED_CASES, ids=[f"{name}-{index}" for name, index in FIXED_CASES])
def test_sampler_matches_its_reference_at_a_fixed_case(name, index):
    row = ROWS[name]
    assert_matches_reference(row, row.examples[index])
