"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at fixed seeds with at least 3-sigma slack, so the
suite is deterministic; exact criteria use the library's oracle solvers.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import contextlib
import itertools
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from cftp_rl.apprenticeship import (
    ExpertModel,
    enumerate_deterministic_policies,
    feature_expectations_exact,
    game_column_batch,
    game_value_oracle,
    margin_against_all_rewards,
    mwal,
    mwal_generative,
)
from cftp_rl.chains import DeterministicPolicy, induce_chain
from cftp_rl.estimators import SoftmaxPolicy, delta_rho_batch, policy_gradient_batch
from cftp_rl.eval_store import StoreEnsemble, estimate_all
from cftp_rl.experiments.cli import main as cli_main
from cftp_rl.hedge import HedgeState, hedge_regret, hedge_step, rescale_loss
from cftp_rl.instances import random_ergodic_chain, random_mdp, sparse_cycle_mdp
from cftp_rl.sampling import (
    cftp_batch,
    coalescence_times_batch,
    grand_coupling_sim,
    lower_bound_chain,
)
from cftp_rl.seeding import child_sequence, substream
from cftp_rl.solvers import average_reward, mixing_time, optimal_policy, stationary_distribution


@contextlib.contextmanager
def criterion(cid: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {cid:2d} {name}: FAIL ({time.perf_counter() - start:.1f} s)")
        raise
    print(f"\nACCEPTANCE {cid:2d} {name}: PASS ({time.perf_counter() - start:.1f} s)")


def read_csv(path: Path) -> list[dict[str, str]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_01_cftp_exactness():
    with criterion(1, "CFTP samples pass chi-square against exact stationary laws"):
        for i in range(20):
            n = 3 + (i % 10)
            chain = random_ergodic_chain(n, substream(1000, i))
            mu = stationary_distribution(chain)
            states, _ = cftp_batch(chain, 100_000, substream(2000, i))
            counts = np.bincount(states, minlength=n)
            _, p_value = stats.chisquare(counts, mu * states.size)
            assert p_value > 0.001, f"chain {i} (n={n}): p={p_value:.5f}"


def test_02_example_study(tmp_path):
    with criterion(2, "two-state example: bias floors, 1/n decay, step-budget win"):
        out = tmp_path / "example"
        code = cli_main(
            ["example", "--out", str(out), "--seed", "0", "--runs", "30000", "--replicates", "10"]
        )
        assert code == 0
        runs_rows = read_csv(out / "example_mse_vs_runs.csv")
        estimators = {row["estimator"] for row in runs_rows}
        assert estimators == {"guess_2", "guess_4", "guess_30", "cftp"}

        summary = {row["estimator"]: row for row in read_csv(out / "example_summary.csv")}
        floor = float(summary["guess_2"]["bias_floor"])
        assert abs(floor - 1.0 / 36.0) < 1e-12
        final_rows = [r for r in runs_rows if r["estimator"] == "guess_2"]
        last = max(final_rows, key=lambda r: int(r["runs"]))
        mse, se = float(last["mse"]), float(last["se_mse"])
        assert mse >= floor - 3 * se and mse >= 0.5 * floor  # plateau, not 1/n decay

        slope = float(summary["cftp"]["tail_loglog_slope"])
        assert -1.15 <= slope <= -0.85, f"slope {slope}"

        step_rows = read_csv(out / "example_mse_vs_steps.csv")
        by_estimator: dict[str, dict[int, float]] = {}
        for row in step_rows:
            by_estimator.setdefault(row["estimator"], {})[int(row["steps"])] = float(row["mse"])
        last_common = min(max(points) for points in by_estimator.values())
        assert by_estimator["cftp"][last_common] < by_estimator["guess_30"][last_common]


def test_03_two_chain_upper_bound():
    with criterion(3, "two-chain coalescence mean and tail within the 2 n Tmix law"):
        for size, seed in itertools.product((5, 10, 20), (0, 1)):
            chain = random_ergodic_chain(size, substream(3000, size, seed))
            t_mix = mixing_time(chain)
            times = coalescence_times_batch(
                chain, 0, size - 1, 3000, substream(3001, size, seed)
            )
            assert times.mean() <= 2 * size * t_mix
            for delta in (0.1, 0.05):
                threshold = 2 * size * t_mix * math.log(1 / delta)
                exceed = int((times > threshold).sum())
                p_value = stats.binomtest(
                    exceed, times.size, delta, alternative="greater"
                ).pvalue
                assert p_value > 0.001


def test_04_lower_bound_chain():
    with criterion(4, "lazy chain forces mean coalescence >= n / (2 eps)"):
        chain = lower_bound_chain(20, 0.1)
        assert mixing_time(chain) <= 30
        times = coalescence_times_batch(chain, 0, 1, 2000, substream(4000))
        lower = 20 / (2 * 0.1)
        rel_se = times.std() / math.sqrt(times.size) / times.mean()
        assert times.mean() >= lower * (1 - 3 * rel_se)


def test_05_grand_coupling_bound():
    with criterion(5, "grand coupling merges within 512 n Tmix log(1/delta)"):
        delta = 0.05
        exceed = 0
        total = 0
        for chain_idx in range(4):
            chain = random_ergodic_chain(16, substream(5000, chain_idx))
            t_mix = mixing_time(chain)
            bound = 512 * 16 * t_mix * math.log(1 / delta)
            for i in range(250):
                record = grand_coupling_sim(chain, substream(5001, chain_idx, i))
                total += 1
                exceed += record.merge_time > bound
        slack = 3 * math.sqrt(delta * (1 - delta) / total)
        assert exceed / total <= delta + slack


def test_06_delta_rho_unbiased():
    with criterion(6, "reward-difference estimator unbiased at 3 SE on 10 instances"):
        for i in range(10):
            rng = np.random.default_rng(6000 + i)
            mdp = random_mdp(4, 2, 6100 + i)
            pi = DeterministicPolicy(rng.integers(0, 2, size=4))
            pi_prime = DeterministicPolicy(rng.integers(0, 2, size=4))
            truth = average_reward(induce_chain(mdp, pi_prime)) - average_reward(
                induce_chain(mdp, pi)
            )
            source = "exact_solve" if i % 2 == 0 else "cftp"
            values, _ = delta_rho_batch(
                mdp, pi, pi_prime, 100_000, substream(6200, i), s0_source=source
            )
            se = values.std() / math.sqrt(values.size)
            assert abs(values.mean() - truth) <= 3 * se, f"instance {i} ({source})"


def test_07_policy_gradient():
    with criterion(7, "policy-gradient estimator matches closed form and finite differences"):
        from cftp_rl.chains import RewardModel, TabularMDP

        single = TabularMDP(np.ones((2, 1, 1)), RewardModel(np.array([[1.0, 0.0]])))
        policy = SoftmaxPolicy(np.zeros((1, 2)))
        grads = policy_gradient_batch(single, policy, 100_000, substream(7000))
        mean = grads.mean(axis=0)
        se = grads.std(axis=0) / math.sqrt(grads.shape[0])
        assert (np.abs(mean - np.array([[0.25, -0.25]])) <= 3 * se).all()

        def exact_rho(mdp, theta):
            return average_reward(induce_chain(mdp, SoftmaxPolicy(theta).as_policy()))

        for i in range(5):
            mdp = random_mdp(3, 2, 7100 + i)
            theta = np.random.default_rng(7200 + i).normal(size=(3, 2)) * 0.5
            oracle = np.zeros_like(theta)
            step = 1e-5
            for s in range(3):
                for a in range(2):
                    up, down = theta.copy(), theta.copy()
                    up[s, a] += step
                    down[s, a] -= step
                    oracle[s, a] = (exact_rho(mdp, up) - exact_rho(mdp, down)) / (2 * step)
            grads = policy_gradient_batch(mdp, SoftmaxPolicy(theta), 100_000, substream(7300, i))
            mean = grads.mean(axis=0)
            se = grads.std(axis=0) / math.sqrt(grads.shape[0])
            assert (np.abs(mean - oracle) <= 3 * np.maximum(se, 1e-9)).all(), f"instance {i}"


def test_08_hedge_regret():
    with criterion(8, "Hedge regret within 2 sqrt(T log k); rescaled within 4B sqrt(log k / T)"):
        for k in (2, 4, 16):
            for n_rounds in (100, 1000, 10_000):
                bound = 2.0 * math.sqrt(n_rounds * math.log(k))
                rng = np.random.default_rng(8000 + 17 * k + n_rounds)
                assert hedge_regret(rng.random((n_rounds, k))) <= bound
                state = HedgeState.create(k, n_rounds)
                worst = np.zeros((n_rounds, k))
                for t in range(n_rounds):
                    row = np.zeros(k)
                    row[int(np.argmax(state.weights))] = 1.0
                    worst[t] = row
                    state = hedge_step(state, row)
                assert hedge_regret(worst) <= bound
                alternating = np.zeros((n_rounds, k))
                alternating[0::2, 0] = 1.0
                alternating[1::2, 1 % k] = 1.0
                assert hedge_regret(alternating) <= bound
        b = 3.0
        for k in (2, 8):
            n_rounds = 5000
            gains = np.random.default_rng(8500 + k).uniform(-b, b, size=(n_rounds, k))
            state = HedgeState.create(k, n_rounds)
            incurred = 0.0
            for g in gains:
                incurred += float(state.weights @ g)
                state = hedge_step(state, rescale_loss(g, b))
            regret = (incurred - gains.sum(axis=0).min()) / n_rounds
            assert regret <= 4.0 * b * math.sqrt(math.log(k) / n_rounds)


def _mwal_acceptance_instance(n_states, inst_seed):
    mdp = random_mdp(n_states, 2, inst_seed, n_features=2)
    expert_policy = optimal_policy(mdp, reward_override=mdp.features @ np.array([0.7, 0.3]))
    phi_expert = feature_expectations_exact(mdp, expert_policy)
    v_star = game_value_oracle(mdp, ExpertModel(expert_policy, 2, rng=0)).value
    return mdp, expert_policy, phi_expert, v_star


def test_09_mwal_estimated_expert():
    with criterion(9, "MWAL with up-front expert estimation reaches v* - 0.1 in >= 14/20 runs"):
        epsilon, delta, k = 0.1, 0.1, 2
        n_rounds = math.ceil(144.0 / epsilon**2 * math.log(k))
        m = math.ceil(18.0 / epsilon**2 * math.log(2 * k / delta))
        mdp, expert_policy, phi_expert, v_star = _mwal_acceptance_instance(4, 3)
        successes = 0
        for rep in range(20):
            expert = ExpertModel(expert_policy, 2, child_sequence(9000, rep, 0))
            result = mwal(mdp, expert, k, n_rounds, m, child_sequence(9000, rep, 1))
            margin = margin_against_all_rewards(mdp, result.mixture, phi_expert)
            successes += margin >= v_star - epsilon
        # 90% of 20 less 3-sigma binomial slack: 18 - 4.02 -> at least 14.
        assert successes >= 14, f"{successes}/20"


def test_10_mwal_generative():
    with criterion(10, "direct column estimation: unbiased, thin tails, 13/20 at desk-scale T"):
        for i in range(10):
            rng = np.random.default_rng(10_500 + i)
            mdp = random_mdp(4, 2, 10_600 + i, n_features=2)
            pi_t = DeterministicPolicy(rng.integers(0, 2, size=4))
            expert_policy = optimal_policy(
                mdp, reward_override=mdp.features @ np.array([0.5, 0.5])
            )
            expert = ExpertModel(expert_policy, 2, child_sequence(10_700, i))
            truth = feature_expectations_exact(mdp, pi_t) - feature_expectations_exact(
                mdp, expert_policy
            )
            g, _ = game_column_batch(mdp, expert, pi_t, 30_000, substream(10_800, i))
            se = g.std(axis=0) / math.sqrt(g.shape[0])
            assert (np.abs(g.mean(axis=0) - truth) <= 3 * np.maximum(se, 1e-12)).all()

        mdp = sparse_cycle_mdp(8, 0.01)
        expert = ExpertModel(DeterministicPolicy(np.zeros(8, dtype=int)), 2, rng=10_900)
        pi_t = DeterministicPolicy(np.ones(8, dtype=int))
        g, _ = game_column_batch(mdp, expert, pi_t, 20_000, substream(10_901))
        norms = np.abs(g).max(axis=1)
        for ell in range(1, 5):
            frac = (norms > ell).mean()  # features are 1-sparse
            slack = 3 * math.sqrt(math.exp(-ell) * (1 - math.exp(-ell)) / norms.size)
            assert frac <= math.exp(-ell) + slack, f"tail at l={ell}: {frac}"

        # Desk-scale optimality: T = 1500, b = 2 (T has no usable closed
        # form; these values are declared here and as the CLI defaults).
        epsilon, delta, k = 0.15, 0.1, 2
        mdp, expert_policy, phi_expert, v_star = _mwal_acceptance_instance(3, 11)
        successes = 0
        for rep in range(20):
            expert = ExpertModel(expert_policy, 2, child_sequence(11_000, rep, 0))
            result = mwal_generative(
                mdp, expert, k, 1500, delta, 2.0, child_sequence(11_000, rep, 1)
            )
            margin = margin_against_all_rewards(mdp, result.mixture, phi_expert)
            successes += margin >= v_star - epsilon
        # 85% of 20 less 3-sigma binomial slack: 17 - 4.79 -> at least 13.
        assert successes >= 13, f"{successes}/20"


def test_11_eval_store():
    with criterion(11, "shared store: simultaneous 0.1-accuracy and fewer calls than fresh CFTP"):
        mdp = random_mdp(3, 2, 3)
        policies = enumerate_deterministic_policies(3, 2)
        exact = np.array([average_reward(induce_chain(mdp, p)) for p in policies])
        successes = 0
        first_ensemble = None
        for rep in range(100):
            ensemble = StoreEnsemble(mdp, 0.1, 0.1, 8, child_sequence(11_500, rep))
            estimates = estimate_all(ensemble, policies)
            successes += float(np.max(np.abs(estimates - exact))) <= 0.1
            if first_ensemble is None:
                first_ensemble = ensemble
        # 90% of 100 less 3-sigma binomial slack: 90 - 9 -> at least 81.
        assert successes >= 81, f"{successes}/100"

        shared_calls = first_ensemble.ledger_total
        fresh_calls = 0
        for j, policy in enumerate(policies):
            chain = induce_chain(mdp, policy)
            _, times = cftp_batch(chain, first_ensemble.n_copies, substream(11_600, j))
            fresh_calls += int(times.sum()) * chain.n_states
        assert shared_calls < fresh_calls


T12_COMMANDS = {
    "example": ["--runs", "400", "--replicates", "3"],
    "coalescence": [
        "--runs", "120", "--sizes", "4", "--chains-per-size", "1",
        "--grand-sizes", "5", "--grand-runs", "25", "--lazy-eps", "0.4,0.2",
    ],
    "mwal": ["--n-rounds", "25", "--m", "60", "--replicates", "2"],
    "mwal-gen": ["--n-rounds", "30", "--replicates", "2"],
    "pg": ["--samples", "1500"],
    "eval-store": ["--epsilon", "0.25", "--delta", "0.25", "--replicates", "1"],
}


@pytest.fixture(scope="module")
def t12_runs(tmp_path_factory):
    """Every subcommand run twice at seed 3: {subcommand: [(exit code, out dir), (exit code, out dir)]}."""
    root = tmp_path_factory.mktemp("t12")
    return {
        sub: [
            (cli_main([sub, "--out", str(root / f"{sub}-{tag}"), "--seed", "3", *extra]), root / f"{sub}-{tag}")
            for tag in ("a", "b")
        ]
        for sub, extra in T12_COMMANDS.items()
    }


def test_12_determinism(t12_runs):
    with criterion(12, "every subcommand reruns to byte-identical CSVs"):
        for sub, runs in t12_runs.items():
            for code, _ in runs:
                assert code == 0, f"{sub} exited {code}"
            outs = [out for _, out in runs]
            csvs = sorted(p.name for p in outs[0].glob("*.csv"))
            assert csvs, f"{sub} wrote no CSVs"
            for name in csvs:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                    f"{sub}: {name} differs between reruns"
                )


def stated_headers(help_text: str, k: int) -> dict[str, list[str]]:
    """File name to header of each CSV a subcommand's help states, with w_*, loss_*, g_* and
    clamped_* expanded to k columns and tail_1b..tail_4b to four."""
    stated = " ".join(help_text.split("Emitted CSVs:")[1].split("\n\n")[0].split())
    headers = {}
    for entry in re.sub(r" \([^)]*\)", "", stated).split(";"):
        name, header = (part.strip() for part in entry.split(":"))
        cells = []
        for cell in header.split(","):
            if cell.endswith("_*"):
                cells += [f"{cell[:-1]}{i}" for i in range(k)]
            elif cell == "tail_1b..tail_4b":
                cells += [f"tail_{ell}b" for ell in range(1, 5)]
            else:
                cells.append(cell)
        headers[name] = cells
    return headers


def test_help_states_the_csvs_each_run_writes(t12_runs, capsys):
    for sub, [(_, out), _] in t12_runs.items():
        with pytest.raises(SystemExit):
            cli_main([sub, "--help"])
        config = dict(line.split("=", 1) for line in (out / "config.txt").read_text().splitlines())
        stated = stated_headers(capsys.readouterr().out, int(config.get("k", 0)))
        written = {path.name: path.read_text().splitlines()[1].split(",") for path in out.glob("*.csv")}
        assert stated == written, sub
