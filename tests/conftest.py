import numpy as np
import pytest
from hypothesis import settings

from cftp_rl.chains import MarkovChain, RewardModel, TabularMDP
from cftp_rl.errors import CapExceededError
from cftp_rl.instances import random_ergodic_chain, random_mdp, two_state_chain

# Property tests draw numpy work whose time varies with load, so no example
# has a deadline; each test sets its own max_examples.
settings.register_profile("cftp-rl", deadline=None)
settings.load_profile("cftp-rl")


@pytest.fixture
def example_chain():
    return two_state_chain()


@pytest.fixture
def chain_factory():
    def make(n_states, seed, **kwargs):
        return random_ergodic_chain(n_states, seed, **kwargs)

    return make


@pytest.fixture
def mdp_factory():
    def make(n_states, n_actions, seed, **kwargs):
        return random_mdp(n_states, n_actions, seed, **kwargs)

    return make


@pytest.fixture
def unichain_mdp():
    def make(n_states, n_actions, seed, reward_mode="bernoulli"):
        """Random MDP whose deterministic policies all have one aperiodic closed class.

        Every row of every action moves to state 0 with probability in
        [0.2, 0.8] and puts the rest on one random state. So every policy
        reaches state 0 from everywhere, and state 0 keeps a self-loop; most
        policies leave some states transient.
        """
        gen = np.random.default_rng(seed)
        transition = np.zeros((n_actions, n_states, n_states))
        to_zero = gen.uniform(0.2, 0.8, (n_actions, n_states))
        a, s = np.indices((n_actions, n_states))
        transition[a, s, 0] = to_zero
        transition[a, s, gen.integers(0, n_states, (n_actions, n_states))] += 1.0 - to_zero
        return TabularMDP(transition, RewardModel(gen.random((n_states, n_actions)), reward_mode))

    return make


def exact_tv(p, q):
    """Independent total-variation oracle used to check the library one."""
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q))


@pytest.fixture
def uniform_chain():
    def make(n):
        transition = np.full((n, n), 1.0 / n)
        return MarkovChain(transition, RewardModel(np.linspace(0, 1, n)))

    return make


def reference_cftp(map_at, n_states, step_cap):
    """Per-step scalar CFTP over the maps ``map_at(t)`` for past times t = 1, 2, ...; returns (state, t_c).

    Composes the newest map first, one map per step, and tests every
    composite. Raises CapExceededError when none is constant within
    ``step_cap`` steps. The library's loops are compared against it.
    """
    composite = np.arange(n_states)
    for t in range(1, step_cap + 1):
        composite = composite[map_at(t)]
        if (composite == composite[0]).all():
            return int(composite[0]), t
    raise CapExceededError(f"no coalescence within {step_cap} steps")
