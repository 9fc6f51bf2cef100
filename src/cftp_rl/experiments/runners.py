"""Batch experiment runners: estimator-bias curves, coalescence scaling,
apprenticeship and policy-gradient validation runs, and the shared-store
sample-accounting study. Every runner writes CSV tables (hash-stamped from
the resolved config) plus SVG charts where there are curves to draw, and is
byte-deterministic in its configuration.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from ..apprenticeship import (
    ExpertModel,
    enumerate_deterministic_policies,
    feature_expectations_exact,
    game_value_oracle,
    margin_against_all_rewards,
    mwal,
    mwal_generative,
    mwal_rounds_csv,
)
from ..chains import induce_chain, inverse_cdf
from ..errors import CapExceededError
from ..estimators import SoftmaxPolicy, policy_gradient_batch
from ..eval_store import StoreEnsemble, estimate_all
from ..instances import random_ergodic_chain, random_mdp, two_state_chain
from ..sampling import (
    cftp_batch,
    coalescence_times_batch,
    grand_coupling_sim,
    lower_bound_chain,
)
from ..seeding import child_sequence, substream
from ..solvers import average_reward, mixing_time, optimal_policy, policy_evaluation
from .config import ExperimentConfig
from .svg import line_chart

TRUTH_EXAMPLE = 2.0 / 3.0


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list], config: ExperimentConfig) -> None:
    lines = [f"# config_hash={config.config_hash()}", ",".join(header)]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _prepare_out(config: ExperimentConfig) -> Path:
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(
        config.resolved_text() + f"config_hash={config.config_hash()}\n"
    )
    return out


def _grid_1_2_5(lo: int, hi: int) -> list[int]:
    points = []
    base = 1
    while base <= hi:
        for mult in (1, 2, 5):
            value = base * mult
            if lo <= value <= hi:
                points.append(value)
        base *= 10
    if not points or points[-1] != hi:
        points.append(hi)
    return points


# ---------------------------------------------------------------------------
# example: estimator-bias study on the two-state chain
# ---------------------------------------------------------------------------

def _example_replicate(payload: tuple) -> tuple[int, dict]:
    seed, replicate, n_runs, t_guess_list, step_cap = payload
    chain = two_state_chain()
    cum = chain.cumulative()
    reward = chain.reward
    results = {}
    for idx, t_guess in enumerate(t_guess_list):
        gen = substream(seed, replicate, idx)
        states = np.ones(n_runs, dtype=np.int64)  # initial distribution (0, 1)
        for _ in range(t_guess):
            states = inverse_cdf(cum, states, gen.random(n_runs))
        rewards = reward.sample(reward.means[states], gen)
        steps = np.full(n_runs, t_guess, dtype=np.int64)
        results[f"guess_{t_guess}"] = (rewards, steps)
    gen = substream(seed, replicate, len(t_guess_list))
    states, t_c = cftp_batch(chain, n_runs, gen, step_cap=step_cap)
    rewards = reward.sample(reward.means[states], gen)
    steps = t_c * chain.n_states + 1  # map draws plus the final reward query
    results["cftp"] = (rewards, steps)
    return replicate, results


def _example_bias_floor(t_guess: int) -> float:
    chain = two_state_chain()
    dist = np.array([0.0, 1.0])
    for _ in range(t_guess):
        dist = dist @ chain.transition
    return float((dist @ chain.reward.means - TRUTH_EXAMPLE) ** 2)


def _mse_se(errors) -> tuple[float, float]:
    """Mean squared error over replicates and its standard error."""
    sq = np.asarray(errors) ** 2
    se = float(sq.std(ddof=1) / math.sqrt(len(sq))) if len(sq) > 1 else 0.0
    return float(sq.mean()), se


def _curve(rows: list[list], name: str, x_col: int, y_col: int) -> tuple[list, list]:
    """Columns x_col and y_col of the rows whose first cell is ``name``."""
    picked = [row for row in rows if row[0] == name]
    return [row[x_col] for row in picked], [row[y_col] for row in picked]


def run_example(config: ExperimentConfig) -> None:
    out = _prepare_out(config)
    n_runs = config.param("runs")
    t_guess_list = config.param("t_guess")
    step_cap = config.param("step_cap")
    estimators = [f"guess_{t}" for t in t_guess_list] + ["cftp"]

    payloads = [
        (config.seed, r, n_runs, tuple(t_guess_list), step_cap)
        for r in range(config.replicates)
    ]
    # A forked pool starts all its workers at the first submit: one per replicate at most.
    workers = min(config.jobs, config.replicates)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            collected = dict(pool.map(_example_replicate, payloads))
    else:
        collected = dict(map(_example_replicate, payloads))
    per_replicate = [collected[r] for r in range(config.replicates)]

    run_grid = _grid_1_2_5(10, n_runs)
    rows_runs = []
    for name in estimators:
        for checkpoint in run_grid:
            mse, se = _mse_se(
                [rep[name][0][:checkpoint].mean() - TRUTH_EXAMPLE for rep in per_replicate]
            )
            mean_steps = float(
                np.mean([rep[name][1][:checkpoint].sum() for rep in per_replicate])
            )
            rows_runs.append([name, checkpoint, mse, se, mean_steps])
    _write_csv(
        out / "example_mse_vs_runs.csv",
        ["estimator", "runs", "mse", "se_mse", "mean_steps"],
        rows_runs,
        config,
    )

    step_grid = _grid_1_2_5(
        100, min(int(rep[name][1].sum()) for rep in per_replicate for name in estimators)
    )
    rows_steps = []
    for name in estimators:
        for checkpoint in step_grid:
            errors = []
            used_runs = []
            for rep in per_replicate:
                cumulative = np.cumsum(rep[name][1])
                k = int(np.searchsorted(cumulative, checkpoint, side="right"))
                if k == 0:
                    continue
                errors.append(rep[name][0][:k].mean() - TRUTH_EXAMPLE)
                used_runs.append(k)
            rows_steps.append([name, checkpoint, *_mse_se(errors), float(np.mean(used_runs))])
    _write_csv(
        out / "example_mse_vs_steps.csv",
        ["estimator", "steps", "mse", "se_mse", "mean_runs"],
        rows_steps,
        config,
    )

    # Summary: analytic bias floors, the tail log-log slope of the unbiased
    # curve, and each estimator's MSE at the last run checkpoint.
    tail = [(c, mse) for c, mse in zip(*_curve(rows_runs, "cftp", 1, 2)) if c >= n_runs / 10]
    slope = float(np.polyfit(np.log([c for c, _ in tail]),
                             np.log([max(mse, 1e-300) for _, mse in tail]), 1)[0])
    final_mse = {row[0]: row[2] for row in rows_runs}  # the last checkpoint wins
    summary_rows = [
        [f"guess_{t}", _example_bias_floor(t), final_mse[f"guess_{t}"], np.nan]
        for t in t_guess_list
    ]
    summary_rows.append(["cftp", 0.0, final_mse["cftp"], slope])
    _write_csv(
        out / "example_summary.csv",
        ["estimator", "bias_floor", "final_mse_vs_runs", "tail_loglog_slope"],
        summary_rows,
        config,
    )

    for stem, rows, x_label in (
        ("example_mse_vs_runs", rows_runs, "runs"),
        ("example_mse_vs_steps", rows_steps, "simulation steps"),
    ):
        series = [(name, *_curve(rows, name, 1, 2)) for name in estimators]
        (out / f"{stem}.svg").write_text(
            line_chart(series, stem.replace("_", " "), x_label, "MSE", log_x=True, log_y=True)
        )


# ---------------------------------------------------------------------------
# coalescence: scaling studies for pairwise and grand couplings
# ---------------------------------------------------------------------------

COALESCENCE_HEADER = [
    "family", "size", "chain_id", "eps", "t_mix", "mean_tc",
    "q50", "q90", "q99", "mean_bound", "tail_threshold", "exceed_frac", "n_runs", "status",
]

# family -> (curve label, reference label, reference column, title, x label)
COALESCENCE_CHARTS = {
    "random": ("mean coalescence time", "2 n Tmix", "mean_bound",
               "two-chain coalescence, random ergodic chains", "states"),
    "lazy": ("mean coalescence time", "n / (2 eps)", "mean_bound",
             "two-chain coalescence, lazy chains", "1 / eps"),
    "grand": ("mean merge time", "512 n Tmix log(1/delta)", "tail_threshold",
              "grand coupling merge times", "states"),
}


def _coalescence_row(family, size, chain_id, eps, t_mix, times, mean_bound, threshold, capped):
    return [
        family, size, chain_id, eps, t_mix,
        float(times.mean()),
        float(np.quantile(times, 0.5)),
        float(np.quantile(times, 0.9)),
        float(np.quantile(times, 0.99)),
        mean_bound,
        threshold,
        float((times > threshold).mean()),
        int(times.size),
        "capped" if capped else "ok",
    ]


def run_coalescence(config: ExperimentConfig) -> None:
    out = _prepare_out(config)
    log_delta = math.log(1 / config.param("delta"))
    step_cap = config.param("step_cap")
    n_runs = config.param("runs")
    rows = []
    for size in config.param("sizes"):
        for chain_id in range(config.param("chains_per_size")):
            chain = random_ergodic_chain(size, substream(config.seed, 1, size, chain_id))
            t_mix = mixing_time(chain)
            times = coalescence_times_batch(
                chain, 0, size - 1, n_runs, substream(config.seed, 2, size, chain_id),
                step_cap, censor_at_cap=True,
            )
            rows.append(_coalescence_row(
                "random", size, chain_id, np.nan, t_mix, times, 2.0 * size * t_mix,
                2 * size * t_mix * log_delta, (times >= step_cap).sum(),
            ))
    lazy_size = config.param("lazy_size")
    for eps in config.param("lazy_eps"):
        chain = lower_bound_chain(lazy_size, eps)
        t_mix = mixing_time(chain)
        times = coalescence_times_batch(
            chain, 0, 1, n_runs, substream(config.seed, 3, int(1000 * eps)),
            step_cap, censor_at_cap=True,
        )
        rows.append(_coalescence_row(
            "lazy", lazy_size, 0, eps, t_mix, times, lazy_size / (2 * eps),
            2 * lazy_size * t_mix * log_delta, (times >= step_cap).sum(),
        ))
    for size in config.param("grand_sizes"):
        chain = random_ergodic_chain(size, substream(config.seed, 4, size))
        t_mix = mixing_time(chain)
        merges, capped = [], 0
        for i in range(config.param("grand_runs")):
            try:
                merges.append(
                    grand_coupling_sim(chain, substream(config.seed, 5, size, i), step_cap).merge_time
                )
            except CapExceededError:
                merges.append(step_cap)
                capped += 1
        rows.append(_coalescence_row(
            "grand", size, 0, np.nan, t_mix, np.array(merges), 2.0 * size * t_mix,
            512 * size * t_mix * log_delta, capped,
        ))
    _write_csv(out / "coalescence.csv", COALESCENCE_HEADER, rows, config)
    col = COALESCENCE_HEADER.index
    for family, (label, ref_label, ref, title, x_label) in COALESCENCE_CHARTS.items():
        sizes, means = _curve(rows, family, col("size"), col("mean_tc"))
        eps, refs = _curve(rows, family, col("eps"), col(ref))
        xs = [1.0 / e for e in eps] if family == "lazy" else sizes
        (out / f"coalescence_{family}.svg").write_text(line_chart(
            [(label, xs, means), (ref_label, xs, refs)],
            title, x_label, "steps", log_y=family == "grand",
        ))


# ---------------------------------------------------------------------------
# mwal / mwal-gen: apprenticeship runs with oracle comparisons
# ---------------------------------------------------------------------------

def _mwal_instance(n_states: int, n_actions: int, k: int, instance_seed: int):
    mdp = random_mdp(n_states, n_actions, instance_seed, n_features=k)
    w_star = np.arange(k, 0, -1, dtype=float)
    w_star /= w_star.sum()
    expert_policy = optimal_policy(mdp, reward_override=mdp.features @ w_star)
    return mdp, expert_policy


def _run_apprenticeship(config: ExperimentConfig, stem: str, n_rounds: int, learn) -> None:
    """Shared body of mwal and mwal-gen.

    ``learn(mdp, expert, rng)`` runs one replicate's learner and returns its
    result plus two dicts of summary cells: those that go between n_rounds
    and v_star, and those that go between success and expert_calls.
    """
    out = _prepare_out(config)
    k = config.param("k")
    mdp, expert_policy = _mwal_instance(
        config.param("n_states"), config.param("n_actions"), k, config.param("instance_seed")
    )
    phi_expert = feature_expectations_exact(mdp, expert_policy)
    v_star = game_value_oracle(mdp, expert_policy).value
    summary = []
    for replicate in range(config.replicates):
        expert = ExpertModel(expert_policy, mdp.n_actions, substream(config.seed, replicate, 0))
        result, lead, trail = learn(mdp, expert, child_sequence(config.seed, replicate, 1))
        margin = margin_against_all_rewards(mdp, result.mixture, phi_expert)
        summary.append({
            "replicate": replicate, "n_rounds": n_rounds, **lead,
            "v_star": v_star, "margin": margin,
            "success": margin >= v_star - config.param("epsilon"), **trail,
            "expert_calls": result.expert_calls, "generative_calls": result.generative_calls,
        })
        if replicate == 0:
            text = f"# config_hash={config.config_hash()}\n" + mwal_rounds_csv(result)
            (out / f"{stem}_rounds.csv").write_text(text)
            series = [
                (f"w_{i}", list(range(1, n_rounds + 1)), list(result.weights[:, i]))
                for i in range(k)
            ]
            (out / f"{stem}_weights.svg").write_text(
                line_chart(series, "feature weights per round", "round", "weight")
            )
    _write_csv(
        out / f"{stem}_summary.csv", list(summary[0]), [list(row.values()) for row in summary],
        config,
    )


def run_mwal(config: ExperimentConfig) -> None:
    n_rounds, m = config.mwal_budgets()

    def learn(mdp, expert, rng):
        result = mwal(
            mdp, expert, config.param("k"), n_rounds, m, rng, step_cap=config.param("step_cap")
        )
        return result, {"m": m, "beta": result.beta}, {}

    _run_apprenticeship(config, "mwal", n_rounds, learn)


def run_mwal_gen(config: ExperimentConfig) -> None:
    n_rounds, b = config.param("n_rounds"), config.param("b")

    def learn(mdp, expert, rng):
        result = mwal_generative(
            mdp, expert, config.param("k"), n_rounds, config.param("delta"), b, rng,
            step_cap=config.param("step_cap"),
        )
        norms = np.abs(result.raw_columns).max(axis=1)
        tails = {f"tail_{ell}b": float((norms > ell * b).mean()) for ell in range(1, 5)}
        return (
            result,
            {"b": b, "rescale_bound": result.rescale_bound},
            {"n_clamped": int(result.clamped.sum()), **tails},
        )

    _run_apprenticeship(config, "mwal_gen", n_rounds, learn)


# ---------------------------------------------------------------------------
# pg: policy-gradient estimator validation
# ---------------------------------------------------------------------------

def _pg_instances(config: ExperimentConfig):
    choice = config.param("instance")
    instances = []
    if choice in ("single_state", "both"):
        from ..chains import RewardModel, TabularMDP

        mdp = TabularMDP(np.ones((2, 1, 1)), RewardModel(np.array([[1.0, 0.0]])))
        instances.append(("single_state", mdp, SoftmaxPolicy(np.zeros((1, 2)))))
    if choice in ("random", "both"):
        mdp = random_mdp(
            config.param("n_states"), config.param("n_actions"), config.param("instance_seed")
        )
        theta = substream(config.seed, 90).normal(size=(mdp.n_states, mdp.n_actions)) * 0.5
        instances.append(("random", mdp, SoftmaxPolicy(theta)))
    return instances


def _exact_gradient(mdp, policy: SoftmaxPolicy, step: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(policy.theta)
    for s in range(grad.shape[0]):
        for a in range(grad.shape[1]):
            up = policy.theta.copy()
            up[s, a] += step
            down = policy.theta.copy()
            down[s, a] -= step
            rho_up = average_reward(induce_chain(mdp, SoftmaxPolicy(up).as_policy()))
            rho_down = average_reward(induce_chain(mdp, SoftmaxPolicy(down).as_policy()))
            grad[s, a] = (rho_up - rho_down) / (2 * step)
    return grad


def run_pg(config: ExperimentConfig) -> None:
    out = _prepare_out(config)
    n_samples = config.param("samples")
    rows = []
    for name, mdp, policy in _pg_instances(config):
        oracle = _exact_gradient(mdp, policy)
        grads = policy_gradient_batch(
            mdp, policy, n_samples, substream(config.seed, 91, len(rows)),
            step_cap=config.param("step_cap"),
        )
        mean = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / math.sqrt(n_samples)
        for s in range(mdp.n_states):
            for a in range(mdp.n_actions):
                z = (mean[s, a] - oracle[s, a]) / max(se[s, a], 1e-300)
                rows.append(
                    [name, s, a, mean[s, a], se[s, a], oracle[s, a], z, abs(z) <= 3.0]
                )
    _write_csv(
        out / "pg_components.csv",
        ["instance", "state", "action", "estimate", "se", "oracle", "z", "within_3se"],
        rows,
        config,
    )


# ---------------------------------------------------------------------------
# eval-store: sample sharing across all deterministic policies
# ---------------------------------------------------------------------------

def run_eval_store(config: ExperimentConfig) -> None:
    out = _prepare_out(config)
    epsilon, delta = config.param("epsilon"), config.param("delta")
    mdp = random_mdp(
        config.param("n_states"), config.param("n_actions"), config.param("instance_seed")
    )
    policies = enumerate_deterministic_policies(mdp.n_states, mdp.n_actions)
    # Each policy's cache entry, made here, also serves the store's coalescing checks.
    states = np.arange(mdp.n_states)
    exact = np.array([
        float(policy_evaluation(mdp, p).mu @ mdp.reward.means[states, p.actions]) for p in policies
    ])
    rows = []
    summary_rows = []
    for replicate in range(config.replicates):
        ensemble = StoreEnsemble(
            mdp, epsilon, delta, len(policies), child_sequence(config.seed, replicate)
        )
        estimates = estimate_all(ensemble, policies, step_cap=config.param("step_cap"))
        shared_calls, unshared_calls = ensemble.ledger_total, ensemble.unshared.generative_calls
        for j, policy in enumerate(policies):
            rows.append(
                [
                    replicate, "-".join(str(a) for a in policy.actions),
                    estimates[j], exact[j], abs(estimates[j] - exact[j]),
                ]
            )
        max_err = float(np.max(np.abs(estimates - exact)))
        summary_rows.append(
            [
                replicate, ensemble.n_copies, max_err, max_err <= epsilon,
                shared_calls, unshared_calls, shared_calls < unshared_calls,
            ]
        )
    _write_csv(
        out / "eval_store_policies.csv",
        ["replicate", "policy", "estimate", "exact", "abs_err"],
        rows,
        config,
    )
    _write_csv(
        out / "eval_store_summary.csv",
        [
            "replicate", "n_copies", "max_err", "within_eps",
            "shared_calls", "unshared_calls", "shared_below_unshared",
        ],
        summary_rows,
        config,
    )


RUNNERS = {
    "example": run_example,
    "coalescence": run_coalescence,
    "mwal": run_mwal,
    "mwal-gen": run_mwal_gen,
    "pg": run_pg,
    "eval-store": run_eval_store,
}
