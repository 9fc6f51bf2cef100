import numpy as np
import pytest
from hypothesis import settings

from cftp_rl.chains import MarkovChain, RewardModel
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


def exact_tv(p, q):
    """Independent total-variation oracle used to check the library one."""
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q))


@pytest.fixture
def uniform_chain():
    def make(n):
        transition = np.full((n, n), 1.0 / n)
        return MarkovChain(transition, RewardModel(np.linspace(0, 1, n)))

    return make
