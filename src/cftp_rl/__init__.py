"""Exact stationary-distribution sampling for Markov chains with unknown
mixing times, and the average-reward RL estimators built on it: unbiased
policy evaluation, reward-difference and policy-gradient sampling, and
multiplicative-weights apprenticeship learning, all validated against exact
linear-algebra oracles. Both accept a chain with one closed class that is
aperiodic; transient states are allowed and have stationary probability 0.
"""

from .chains import (
    DeterministicPolicy,
    MarkovChain,
    MixedPolicy,
    RewardModel,
    SampleLedger,
    StochasticPolicy,
    TabularMDP,
    induce_chain,
)
from .errors import CapExceededError, NonErgodicError, SolveError
from .solvers import (
    average_reward,
    bias_and_q,
    mixing_time,
    optimal_policy,
    stationary_distribution,
    total_variation,
)
from .sampling import (
    CoalescenceRecord,
    cftp,
    cftp_batch,
    draw_random_map,
    grand_coupling_sim,
    lower_bound_chain,
)
from .estimators import (
    SoftmaxPolicy,
    delta_rho_batch,
    policy_gradient_batch,
)
from .hedge import HedgeState, hedge_step, rescale_loss
from .apprenticeship import (
    ExpertModel,
    MwalResult,
    estimate_expert_features,
    feature_expectations_exact,
    game_value_oracle,
    mwal,
    mwal_generative,
)
from .eval_store import SampleMatrix, StoreEnsemble, estimate_all, evaluate_policy

__version__ = "0.1.0"
