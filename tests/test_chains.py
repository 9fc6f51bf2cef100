import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftp_rl import chains
from cftp_rl.chains import (
    DeterministicPolicy,
    MarkovChain,
    MixedPolicy,
    RewardModel,
    SampleLedger,
    StochasticPolicy,
    TabularMDP,
    cdf_table,
    closed_class,
    induce_chain,
    inverse_cdf,
)
from cftp_rl.errors import NonErgodicError
from cftp_rl.instances import random_mdp, two_state_chain
from cftp_rl.sampling import cftp_batch
from cftp_rl.solvers import stationary_distribution


def test_transition_rows_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        MarkovChain(np.array([[0.6, 0.5], [1.0, 0.0]]), RewardModel(np.zeros(2)))


def test_transition_entries_must_be_probabilities():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        MarkovChain(np.array([[1.5, -0.5], [1.0, 0.0]]), RewardModel(np.zeros(2)))


def test_reward_means_bounded():
    with pytest.raises(ValueError, match="reward means"):
        RewardModel(np.array([0.5, 1.2]))


def test_feature_entries_bounded():
    transition = np.full((1, 2, 2), 0.5)
    with pytest.raises(ValueError, match="feature entries"):
        TabularMDP(transition, RewardModel(np.zeros((2, 1))), features=np.array([[0.5], [1.5]]))


NONFINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NONFINITE, ids=["nan", "inf", "-inf"])
class TestNonFiniteEntriesAreRejected:
    """Every [0, 1] check raises its ValueError on a NaN or infinite entry."""

    def test_chain_transition(self, bad):
        transition = np.array([[0.5, 0.5], [bad, 0.5]])
        with pytest.raises(ValueError, match=r"transition: entries must lie in \[0, 1\]"):
            MarkovChain(transition, RewardModel(np.zeros(2)))

    def test_mdp_transition(self, bad):
        transition = np.full((2, 2, 2), 0.5)
        transition[1, 0, 1] = bad
        with pytest.raises(ValueError, match=r"transition: entries must lie in \[0, 1\]"):
            TabularMDP(transition, RewardModel(np.zeros((2, 2))))

    def test_stochastic_policy(self, bad):
        with pytest.raises(ValueError, match=r"policy probabilities: entries must lie in \[0, 1\]"):
            StochasticPolicy(np.array([[bad, 0.5], [0.5, 0.5]]))

    def test_reward_mean(self, bad):
        with pytest.raises(ValueError, match="reward means"):
            RewardModel(np.array([0.5, bad]))

    def test_feature(self, bad):
        with pytest.raises(ValueError, match="feature entries"):
            TabularMDP(
                np.full((1, 2, 2), 0.5), RewardModel(np.zeros((2, 1))), features=np.array([[0.5], [bad]])
            )

    def test_mixture_weight(self, bad):
        member = DeterministicPolicy(np.array([0, 1]))
        with pytest.raises(ValueError, match="mixture weights"):
            MixedPolicy(np.array([bad, 0.5]), [member, member])


# Module constants that force each inverse_cdf strategy; the counts are
# exact for rows of up to 255 entries, and the cases here have at most 40.
STRATEGIES = {
    "compare": {"COUNT_MIN_DRAWS": 2**62, "SEARCH_MIN_ENTRIES": 2**62},
    "count": {"COUNT_MIN_DRAWS": 0, "COUNT_MAX_STATES": 255},
    "search": {"COUNT_MAX_STATES": 0, "SEARCH_MIN_ENTRIES": 0},
}
by_strategy = pytest.mark.parametrize("strategy", list(STRATEGIES))


def cdf_rows_and_uniforms(draw, shape):
    """A cdf_table over random rows with zero entries, plus rows and u of ``shape(n)`` to look up.

    u mixes uniforms with exact table entries (1.0, the pinned last entry,
    included) and the largest double below 1.
    """
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    n_rows = draw(st.integers(1, 6))
    probs = gen.random((n_rows, n)) * (gen.random((n_rows, n)) < draw(st.floats(0.2, 1.0)))
    probs[np.arange(n_rows), gen.integers(0, n, n_rows)] += 0.5
    probs /= probs.sum(axis=1, keepdims=True)
    table = cdf_table(probs)
    size = shape(n)
    rows = gen.integers(0, n_rows, size)
    u = gen.random(size)
    exact = gen.random(size) < 0.5
    u[exact] = table[gen.integers(0, n_rows, exact.sum()), gen.integers(0, n, exact.sum())]
    u[gen.random(size) < 0.05] = np.nextafter(1.0, 0.0)
    return probs, table, rows, u


@st.composite
def cdf_cases(draw):
    """A 1-D lookup, its batch well below or above the size at which the default constants search."""
    if draw(st.booleans()):
        extra = draw(st.integers(1, 50))
        return cdf_rows_and_uniforms(draw, lambda n: chains.SEARCH_MIN_ENTRIES // n + extra)
    size = draw(st.integers(1, 40))
    return cdf_rows_and_uniforms(draw, lambda n: size)


@st.composite
def broadcast_cases(draw):
    """A lookup of (m, k) uniforms whose rows, of shape (m, 1), give one table row per line."""
    m, k = draw(st.integers(1, 8)), draw(st.integers(1, 90))
    probs, table, rows, u = cdf_rows_and_uniforms(draw, lambda n: (m, k))
    return probs, table, rows[:, :1], u


def searched(table, rows, u):
    return np.array([np.searchsorted(table[r], x, side="right") for r, x in zip(rows, u)])


class TestInverseCdf:
    @by_strategy
    @settings(max_examples=150)
    @given(case=cdf_cases())
    def test_counts_entries_at_or_below_u(self, strategy, case):
        probs, table, rows, u = case
        with mock.patch.multiple(chains, **STRATEGIES[strategy]):
            got = inverse_cdf(table, rows, u)
        assert got.dtype == np.intp
        assert np.array_equal(got, searched(table, rows, u))
        below_one = u < 1.0
        assert (probs[rows[below_one], got[below_one]] > 0.0).all()

    @by_strategy
    @settings(max_examples=60)
    @given(case=broadcast_cases())
    def test_broadcast_rows_give_the_call_on_tiled_rows(self, strategy, case):
        # Per-line rows of shape (m, 1) against (m, k) uniforms, as
        # sampling._map_blocks passes per-state rows and state-major uniforms.
        _, table, rows, u = case
        tiled = np.broadcast_to(rows, u.shape).ravel()
        with mock.patch.multiple(chains, **STRATEGIES[strategy]):
            got = inverse_cdf(table, rows, u)
            flat = inverse_cdf(table, tiled, u.ravel())
        assert got.shape == u.shape
        assert np.array_equal(got.ravel(), flat)
        assert np.array_equal(flat, searched(table, tiled, u.ravel()))

    @by_strategy
    def test_zero_probability_tail_is_never_drawn(self, strategy):
        # Both rows sum to just below 1, so a clamp to the last index or a
        # forced last entry alone returns the zero-probability tail.
        short = cdf_table(np.array([[0.5, 0.4999999999999, 0.0]]))
        tenths = cdf_table(np.array([[0.1] * 10 + [0.0]]))
        top = np.nextafter(1.0, 0.0)
        with mock.patch.multiple(chains, **STRATEGIES[strategy]):
            assert inverse_cdf(short, np.array([0]), np.array([0.99999999999995])).tolist() == [1]
            assert inverse_cdf(tenths, np.array([0]), np.array([top])).tolist() == [9]


def ergodic(transition):
    """``MarkovChain.ergodic`` of the chain with this transition matrix."""
    transition = np.asarray(transition, dtype=float)
    return MarkovChain(transition, RewardModel(np.zeros(transition.shape[0]))).ergodic


class TestErgodicity:
    def test_two_cycle_is_periodic(self):
        assert not ergodic(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_directed_four_cycle_is_periodic(self):
        p = np.zeros((4, 4))
        for s in range(4):
            p[s, (s + 1) % 4] = 1.0
        assert not ergodic(p)

    def test_reducible_chain_rejected(self):
        p = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert not ergodic(p)

    def test_cycle_with_self_loop_is_ergodic(self):
        p = np.zeros((4, 4))
        for s in range(3):
            p[s, s + 1] = 1.0
        p[3, 3] = 0.5
        p[3, 0] = 0.5
        assert ergodic(p)

    def test_example_chain_is_ergodic(self):
        assert two_state_chain().ergodic

    def test_dense_random_chain_is_ergodic(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(5), size=5)
        p = p / p.sum(axis=1, keepdims=True)
        assert ergodic(p)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[0.5, 0.5], [1.0, 0.0]], True),  # ergodic
            ([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]], True),  # transient states
            ([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]], True),  # transient entry state
            (np.eye(6, k=1) + np.diag([0, 0, 0, 0, 0, 1.0]), True),  # path into an absorbing state
            ([[0.0, 1.0], [1.0, 0.0]], False),  # periodic
            ([[1.0, 0.0], [0.0, 1.0]], False),  # two closed classes
            ([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], False),  # transient into a 2-cycle
            ([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]], False),  # two absorbing states
        ],
    )
    def test_coalescence_needs_one_aperiodic_closed_class(self, rows, expected):
        assert closed_class(np.array(rows))[1] is expected


@st.composite
def sparse_chains(draw):
    """A chain on 1 to 8 states with one to three positive entries per row, weights 1 to 9."""
    n = draw(st.integers(1, 8))
    transition = np.zeros((n, n))
    for row in transition:
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        row[cols] = draw(st.lists(st.integers(1, 9), min_size=len(cols), max_size=len(cols)))
    return transition / transition.sum(axis=1, keepdims=True)


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


class TestOneChainContract:
    @settings(max_examples=300)
    @given(sparse_chains(), st.integers(0, 2**32 - 1))
    def test_samplers_and_oracles_accept_the_same_chains(self, transition, seed):
        mask, aperiodic = closed_class(transition)
        core, expected = reference_class(transition)
        assert aperiodic is expected
        assert mask is None if core is None else np.array_equal(mask, core)
        assert ergodic(transition) is (expected and bool(core.all()))
        chain = MarkovChain(transition, RewardModel(np.zeros(transition.shape[0])))
        raised = []
        try:
            stationary_distribution(chain)
        except NonErgodicError:
            raised.append("oracle")
        gen = np.random.default_rng(seed)
        before = gen.bit_generator.state
        try:
            cftp_batch(chain, 2, gen)
        except NonErgodicError:
            raised.append("sampler")
            assert gen.bit_generator.state == before
        assert raised == ([] if aperiodic else ["oracle", "sampler"])


class TestPolicies:
    def test_stochastic_rows_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            StochasticPolicy(np.array([[0.6, 0.6], [0.5, 0.5]]))

    def test_mixed_weights_validated(self):
        member = DeterministicPolicy(np.array([0, 1]))
        with pytest.raises(ValueError, match="sum to 1"):
            MixedPolicy(np.array([0.5, 0.4]), [member, member])
        with pytest.raises(ValueError, match="non-negative"):
            MixedPolicy(np.array([1.5, -0.5]), [member, member])

    def test_deterministic_policy_key_equality(self):
        assert DeterministicPolicy(np.array([0, 1])) == DeterministicPolicy(np.array([0, 1]))
        assert DeterministicPolicy(np.array([0, 1])) != DeterministicPolicy(np.array([1, 1]))

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_action_probs_rejects_an_action_outside_the_range(self, bad):
        # -1 would otherwise index the last action and pass unnoticed.
        policy = DeterministicPolicy(np.array([0, bad, 1]))
        with pytest.raises(ValueError, match="outside"):
            policy.action_probs(2)


class TestInduceChain:
    def test_single_action_mdp_keeps_matrix(self):
        transition = np.array([[[0.5, 0.5], [1.0, 0.0]]])
        mdp = TabularMDP(transition, RewardModel(np.array([[1.0], [0.0]])))
        chain = induce_chain(mdp, DeterministicPolicy(np.zeros(2, dtype=int)))
        assert np.array_equal(chain.transition, transition[0])
        assert np.array_equal(chain.reward.means, np.array([1.0, 0.0]))

    def test_action_independent_dynamics_under_uniform_policy(self):
        shared = np.array([[0.3, 0.7], [0.6, 0.4]])
        mdp = TabularMDP(
            np.stack([shared, shared]),
            RewardModel(np.array([[0.2, 0.8], [0.5, 0.5]])),
        )
        uniform = StochasticPolicy(np.full((2, 2), 0.5))
        chain = induce_chain(mdp, uniform)
        assert np.allclose(chain.transition, shared, atol=1e-15)

    def test_deterministic_rows_selected_from_tensor(self):
        mdp = random_mdp(3, 2, rng=7)
        policy = DeterministicPolicy(np.array([1, 0, 1]))
        chain = induce_chain(mdp, policy)
        for s, a in enumerate(policy.actions):
            assert np.array_equal(chain.transition[s], mdp.transition[a, s])
            assert chain.reward.means[s] == mdp.reward.means[s, a]

    def test_dimension_mismatch_rejected(self):
        mdp = random_mdp(3, 2, rng=7)
        with pytest.raises(ValueError):
            induce_chain(mdp, DeterministicPolicy(np.array([0, 1])))
        with pytest.raises(ValueError):
            induce_chain(mdp, DeterministicPolicy(np.array([0, 1, 2])))


class TestLedgerAndGenerativeModel:
    def test_ledger_monotone(self):
        ledger = SampleLedger()
        ledger.add_generative(3)
        ledger.add_expert()
        assert (ledger.generative_calls, ledger.expert_calls) == (3, 1)
        with pytest.raises(ValueError):
            ledger.add_generative(-1)


def test_immutability_of_stored_arrays():
    chain = two_state_chain()
    with pytest.raises(ValueError):
        chain.transition[0, 0] = 0.9
    mdp = random_mdp(2, 2, rng=1, n_features=1)
    with pytest.raises(ValueError):
        mdp.features[0, 0] = 0.3
