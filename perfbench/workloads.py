"""The three benchmark workloads: instances, timed phases and correctness checks.

Each workload builds fixed instances and computes the exact oracles its
checks need (set-up, not timed). As with the CLI's ``instance_seed``, the
instances do not depend on the workload seed: across random instances the
work varies by up to 25%, which would swamp the timings. The workload seed
drives every random stream instead: each is a SeedSequence keyed by
(seed, phase, unit), so a seed fixes all inputs.

A phase is a list of units, each one public library call or a short loop
of them; run.py times every unit. Every iteration of a run repeats
exactly the same work on freshly built instance objects.

Only public cftp_rl functions are called, always through the module
attribute (``sampling.cftp``), so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from cftp_rl import apprenticeship, chains, eval_store, estimators, sampling, solvers

# A statistical check fails a correct program with probability at most
# this much at a fresh seed, unless its stated bound says otherwise.
CHECK_ALPHA = 1e-4
# Seed of the sample-large chain and the policy-eval MDP (the eval-store
# CLI's default instance seed).
INSTANCE_SEED = 3


@dataclass
class Check:
    name: str
    passed: bool
    detail: str
    bound: str


@dataclass
class Phase:
    """A timed phase: ``units(inst, seed)`` lists zero-argument calls, and
    ``combine(inst, results)`` turns their results into the phase output
    (untimed). The output's ``digest`` must repeat exactly at a fixed seed."""

    metric: str
    name: str
    units: object
    combine: object
    n_checks: int  # checks charged as failed when the phase raises
    repeats: int = 1  # runs of each unit per untraced iteration, for a steadier median


class Workload:
    """Defaults for workloads that add no report fields or ledger counts."""

    def report(self, inst, out) -> dict:
        return {}

    def layer_counts(self, out) -> dict:
        return {}


def _ss(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))


def digest(*arrays) -> str:
    """Short content hash of arrays, for exact-repeat comparison across commits."""
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(np.asarray(arr))
        h.update(a.astype("<f8" if a.dtype.kind == "f" else "<i8").tobytes())
    return h.hexdigest()[:16]


def _dirichlet_mdp(gen, n_states, n_actions, n_features=None):
    """Dense random MDP drawn the way ``cftp_rl.instances.random_mdp`` draws it.

    Drawn here, so that a change to the library's instance generators
    cannot change the benchmark's inputs."""
    transition = gen.dirichlet(np.ones(n_states), size=(n_actions, n_states))
    transition = transition / transition.sum(axis=2, keepdims=True)
    rewards = gen.random((n_states, n_actions))
    features = gen.random((n_states, n_features)) if n_features else None
    return chains.TabularMDP(transition, chains.RewardModel(rewards), features)


def _policy_code(policy) -> int:
    return int(sum(int(a) << i for i, a in enumerate(policy.actions)))


# ---------------------------------------------------------------------------
# sample-large: the inverse-CDF map kernel at n = 200
# ---------------------------------------------------------------------------

@dataclass
class SampleLargeInstance:
    chain: object
    mu: np.ndarray  # exact stationary distribution (oracle)
    grand: object  # lazy chain for the grand couplings
    lazy: object  # lazy chain for the coalescing pairs
    pair_p: float  # exact one-step meeting probability of two lazy chains (oracle)


class SampleLarge(Workload):
    name = "sample-large"
    why = (
        "n=200 random chain: a = scalar cftp (8k steps), b = two cftp_batch of 30, c = grand couplings "
        "(n=50) and lazy pairs (n=200); the O(n^2) inverse-CDF map dominates"
    )

    def __init__(self, sizes: dict):
        self.sizes = sizes
        self.phases = [
            Phase("phase_a_s", "cftp", self.cftp_units, self.cftp_combine, 1),
            Phase("phase_b_s", "cftp_batch", self.batch_units, self.batch_combine, 1),
            Phase("phase_c_s", "coalescence", self.coalescence_units, self.coalescence_combine, 2),
        ]

    def setup(self) -> SampleLargeInstance:
        n, eps = self.sizes["n"], self.sizes["lazy_eps"]
        gen = np.random.default_rng(np.random.SeedSequence(INSTANCE_SEED))
        transition = gen.dirichlet(np.ones(n), size=n)
        transition = transition / transition.sum(axis=1, keepdims=True)
        chain = chains.MarkovChain(transition, chains.RewardModel(gen.random(n)))
        mu = solvers.stationary_distribution(chain)
        # Two independent lazy chains at distinct states meet in one step with
        # probability sum_z P(x,z) P(y,z) = eps (2 - eps) / n, from any pair.
        # Grand-coupling merge times have a coefficient of variation near 0.5
        # per run, so many runs on a smaller chain keep the phase time steady.
        grand = sampling.lower_bound_chain(self.sizes["grand_n"], self.sizes["grand_eps"])
        return SampleLargeInstance(chain, mu, grand, sampling.lower_bound_chain(n, eps), eps * (2 - eps) / n)

    def cftp_units(self, inst, seed):
        # CFTP times have a coefficient of variation near 0.55, so a unit draws
        # until it has spent a fixed number of steps, not a fixed number of draws.
        budget = self.sizes["scalar_steps"] // self.sizes["scalar_chunks"]

        def chunk(j):
            ledger = chains.SampleLedger()
            draws, spent = [], 0
            while spent < budget:
                state, record = sampling.cftp(inst.chain, _ss(seed, 1, 0, j, len(draws)), ledger=ledger)
                draws.append((state, record.t_c))
                spent += record.t_c
            return draws, ledger.generative_calls

        return [lambda j=j: chunk(j) for j in range(self.sizes["scalar_chunks"])]

    def cftp_combine(self, inst, results):
        states, t_c = (np.array(col, dtype=np.int64) for col in zip(*(d for draws, _ in results for d in draws)))
        budget = self.sizes["scalar_steps"] // self.sizes["scalar_chunks"]
        return {"states": states, "draws": int(states.size), "t_c_sum": int(t_c.sum()),
                "generative_calls": sum(calls for _, calls in results), "digest": digest(states, t_c),
                "unit_scale": [budget / sum(t for _, t in draws) for draws, _ in results]}

    def batch_units(self, inst, seed):
        return [lambda j=j: sampling.cftp_batch(inst.chain, self.sizes["batch_draws"], _ss(seed, 1, 1, j))
                for j in range(self.sizes["batches"])]

    def batch_combine(self, inst, results):
        states = np.concatenate([s for s, _ in results])
        times = np.concatenate([t for _, t in results])
        return {"states": states, "t_c_sum": int(times.sum()), "digest": digest(states, times),
                "unit_scale": [self.sizes["batch_work"] / self.batch_work(t) for _, t in results]}

    @staticmethod
    def batch_work(times) -> float:
        """Cost of one cftp_batch call in loop steps. The loop runs until the
        slowest draw coalesces; each step makes n searchsorted calls whatever
        the number of active draws, plus work per active draw, which at n=200
        costs about 0.028 of the fixed part (least squares over 24 seeds on
        a 2-vCPU Xeon; it cuts the spread of time over work from 7.4% to 5.5%)."""
        return float(np.max(times)) + 0.028 * float(np.sum(times))

    def coalescence_units(self, inst, seed):
        units = [lambda i=i: sampling.grand_coupling_sim(inst.grand, _ss(seed, 1, 2, i))
                 for i in range(self.sizes["grand_runs"])]
        units.append(lambda: sampling.coalescence_times_batch(inst.lazy, 0, 1, self.sizes["pair_runs"], _ss(seed, 1, 3)))
        return units

    def coalescence_combine(self, inst, results):
        *records, pair_times = results
        monotone = all(
            rec.class_counts[0] == inst.grand.n_states and rec.class_counts[-1] == 1
            and bool(np.all(np.diff(rec.class_counts) <= 0))
            for rec in records
        )
        merge = [rec.merge_time for rec in records]
        pair_times = np.asarray(pair_times)
        return {"monotone": monotone, "merge_time_sum": int(sum(merge)), "pair_times": pair_times,
                "pair_time_sum": int(pair_times.sum()), "digest": digest(merge, pair_times),
                "unit_scale": [self.sizes["grand_steps"] / t for t in merge]
                + [self.sizes["pair_runs"] * self.sizes["pair_steps"] / int(pair_times.sum())]}

    def checks(self, inst, out) -> list[Check]:
        checks = []
        draws = [out[name]["states"] for name in ("cftp", "cftp_batch") if name in out]
        if draws:
            checks.append(chi_square_check(np.concatenate(draws), inst.mu, self.sizes["chi_bins"]))
        if "coalescence" in out:
            times = out["coalescence"]["pair_times"]
            p = inst.pair_p
            mean, se = 1.0 / p, math.sqrt(1.0 - p) / p / math.sqrt(times.size)
            z = abs(times.mean() - mean) / se
            checks.append(Check("lazy pair mean time", bool(z <= 4.0),
                                f"mean {times.mean():.2f} vs n/(eps(2-eps)) = {mean:.2f}, |z| = {z:.2f} <= 4",
                                "geometric times, CLT two-sided 4 SE: 6.3e-5"))
            checks.append(Check("grand coupling class counts", out["coalescence"]["monotone"],
                                "counts start at n, never increase, end at 1", "deterministic invariant: 0"))
        return checks

    def named(self, inst, phase_s, out):
        return {
            "cftp_draws_per_s": out["cftp"]["draws"] / phase_s["phase_a_s"] if "cftp" in out else None,
            "batch_draws_per_s": self.sizes["batches"] * self.sizes["batch_draws"] / phase_s["phase_b_s"],
            "coalescence_s": phase_s["phase_c_s"],
        }


def chi_square_check(states: np.ndarray, mu: np.ndarray, n_bins: int) -> Check:
    """Pearson chi-square of draws against exact mu over near-equal-mass bins of mu."""
    n_bins = max(2, min(n_bins, states.size // 5))
    mid = np.cumsum(mu) - mu / 2.0
    bin_of_state = np.minimum((mid * n_bins).astype(int), n_bins - 1)
    observed = np.bincount(bin_of_state[states], minlength=n_bins)
    expected = states.size * np.bincount(bin_of_state, weights=mu, minlength=n_bins)
    keep = expected > 0
    stat = float((((observed - expected) ** 2)[keep] / expected[keep]).sum())
    dof = int(keep.sum()) - 1
    p_value = float(stats.chi2.sf(stat, dof))
    return Check("pooled draws vs exact mu", p_value >= CHECK_ALPHA,
                 f"chi2 {stat:.2f} on {dof} dof over {states.size} draws, p = {p_value:.3g} >= {CHECK_ALPHA}",
                 f"asymptotic chi-square level: {CHECK_ALPHA}")


# ---------------------------------------------------------------------------
# apprentice: policy iteration inside MWAL dominates
# ---------------------------------------------------------------------------

@dataclass
class ApprenticeInstance:
    mdp: object
    expert_policy: object
    phi_expert: np.ndarray  # exact (oracle)
    v_star: float
    mdp_gen: object
    expert_gen: object
    phi_expert_gen: np.ndarray
    v_star_gen: float


def _phi_exact(mdp, policy) -> np.ndarray:
    return solvers.stationary_distribution(chains.induce_chain(mdp, policy)) @ mdp.features


def _margin(mdp, policies, phi_expert) -> float:
    """min over reward weights of Phi(uniform mixture of ``policies``) - Phi(expert)."""
    counts: dict[tuple, list] = {}
    for p in policies:
        entry = counts.setdefault(tuple(int(a) for a in p.actions), [p, 0])
        entry[1] += 1
    phi = sum(c * _phi_exact(mdp, p) for p, c in counts.values()) / len(policies)
    return float((phi - phi_expert).min())


class Apprentice(Workload):
    name = "apprentice"
    why = (
        "a = 3 mwal at eps=0.4 budgets (T=624, m=415), b = 4 mwal_generative (T=250), c = 4 expert CFTP "
        "estimates (m=830); fixed test_09/test_10 MDPs; policy iteration dominates"
    )

    def __init__(self, sizes: dict):
        self.sizes = sizes
        eps, delta, k = sizes["epsilon"], sizes["delta"], 2
        # Theorem-8 budgets, as the mwal CLI derives them from epsilon and delta.
        self.rounds = sizes.get("rounds") or math.ceil(144.0 / eps**2 * math.log(k))
        self.m = sizes.get("m") or math.ceil(18.0 / eps**2 * math.log(2 * k / delta))
        self.phases = [
            Phase("phase_a_s", "mwal", self.mwal_units, self.mwal_combine, 2),
            Phase("phase_b_s", "mwal_gen", self.mwal_gen_units, self.mwal_gen_combine, 1),
            Phase("phase_c_s", "expert_est", self.expert_est_units, self.expert_est_combine, 2),
        ]

    def setup(self) -> ApprenticeInstance:
        # The acceptance-test instances of test_09 and test_10 (random_mdp seeds 3 and 11).
        w_expert = np.array([0.7, 0.3])
        mdp = _dirichlet_mdp(np.random.default_rng(np.random.SeedSequence(3)), 4, 2, n_features=2)
        mdp_gen = _dirichlet_mdp(np.random.default_rng(np.random.SeedSequence(11)), 3, 2, n_features=2)
        expert = solvers.optimal_policy(mdp, reward_override=mdp.features @ w_expert)
        expert_gen = solvers.optimal_policy(mdp_gen, reward_override=mdp_gen.features @ w_expert)
        return ApprenticeInstance(
            mdp, expert, _phi_exact(mdp, expert), apprenticeship.game_value_oracle(mdp, expert).value,
            mdp_gen, expert_gen, _phi_exact(mdp_gen, expert_gen),
            apprenticeship.game_value_oracle(mdp_gen, expert_gen).value,
        )

    @staticmethod
    def _mwal_record(results, mdp, phi_expert):
        """One phase output from several (MwalResult, ExpertModel) pairs."""
        codes, weights, well_formed, margins, phis = [], [], True, [], []
        for result, _ in results:
            c = np.array([_policy_code(p) for p in result.policies], dtype=np.int64)
            w = np.asarray(result.weights)
            losses = np.asarray(result.losses)
            well_formed &= bool(
                c.size == w.shape[0] == losses.shape[0]
                and np.allclose(w.sum(axis=1), 1.0) and np.all(w >= 0.0)
                and np.all((losses >= 0.0) & (losses <= 1.0))
            )
            codes.append(c)
            weights.append(w)
            margins.append(_margin(mdp, result.policies, phi_expert))
            if result.phi_expert_estimate is not None:
                phis.append(np.asarray(result.phi_expert_estimate))
        codes = np.concatenate(codes)
        return {"expert_calls": int(sum(expert.ledger.expert_calls for _, expert in results)),
                "generative_calls": int(sum(result.generative_calls for result, _ in results)),
                "distinct_policies": int(np.unique(codes).size),
                "margins": margins,
                "well_formed": well_formed,
                "phis": phis,
                "digest": digest(codes, np.concatenate(weights))}

    def mwal_units(self, inst, seed):
        def unit(j):
            expert = apprenticeship.ExpertModel(inst.expert_policy, 2, _ss(seed, 1, 0, j, 0))
            return apprenticeship.mwal(inst.mdp, expert, 2, self.rounds, self.m, _ss(seed, 1, 0, j, 1)), expert

        return [lambda j=j: unit(j) for j in range(self.sizes["mwal_calls"])]

    def mwal_combine(self, inst, results):
        return self._mwal_record(results, inst.mdp, inst.phi_expert)

    def mwal_gen_units(self, inst, seed):
        def unit(j):
            expert = apprenticeship.ExpertModel(inst.expert_gen, 2, _ss(seed, 1, 1, j, 0))
            result = apprenticeship.mwal_generative(
                inst.mdp_gen, expert, 2, self.sizes["gen_rounds"], self.sizes["delta"],
                self.sizes["b"], _ss(seed, 1, 1, j, 1),
            )
            return result, expert

        return [lambda j=j: unit(j) for j in range(self.sizes["gen_calls"])]

    def mwal_gen_combine(self, inst, results):
        return self._mwal_record(results, inst.mdp_gen, inst.phi_expert_gen)

    def expert_est_units(self, inst, seed):
        def unit(j):
            expert = apprenticeship.ExpertModel(inst.expert_policy, 2, _ss(seed, 1, 2, j, 0))
            return apprenticeship.estimate_expert_features(inst.mdp, expert, self.sizes["expert_m"],
                                                           _ss(seed, 1, 2, j, 1))

        return [lambda j=j: unit(j) for j in range(self.sizes["expert_chunks"])]

    def expert_est_combine(self, inst, results):
        # Equal-size chunks: the pooled estimate is the mean of the chunk estimates.
        phi = np.mean([np.asarray(est.phi) for est in results], axis=0)
        t_c = np.array([est.total_steps for est in results], dtype=np.int64)
        return {"phis": [phi], "m": self.sizes["expert_m"] * len(results), "t_c_sum": int(t_c.sum()),
                "expert_calls": int(sum(est.expert_calls for est in results)),
                "generative_calls": int(sum(est.generative_calls for est in results)),
                "digest": digest(phi, t_c)}

    @staticmethod
    def _hoeffding(label, phis, m, phi_exact) -> Check:
        # P(|mean - Phi_i| >= r) <= 2 exp(-2 m r^2) per feature in [0, 1]; union over
        # the k features and the len(phis) estimates.
        k = phi_exact.size
        radius = math.sqrt(math.log(2 * k * len(phis) / CHECK_ALPHA) / (2 * m))
        err = max(float(np.abs(phi - phi_exact).max()) for phi in phis)
        return Check(f"{label} Phi(expert) estimates", err <= radius,
                     f"max error {err:.4f} over {len(phis)} estimates <= Hoeffding radius {radius:.4f} at m={m}",
                     f"Hoeffding, union over {k} features and {len(phis)} estimates: {CHECK_ALPHA}")

    def checks(self, inst, out) -> list[Check]:
        checks = []
        if "mwal" in out:
            checks.append(self._hoeffding("mwal", out["mwal"]["phis"], self.m, inst.phi_expert))
        for label in ("mwal", "mwal_gen"):
            if label in out:
                checks.append(Check(f"{label} trails", out[label]["well_formed"],
                                    "one policy per round, weights on the simplex, losses in [0, 1]",
                                    "deterministic invariant: 0"))
        if "expert_est" in out:
            o, n = out["expert_est"], inst.mdp.n_states
            checks.append(self._hoeffding("expert_est", o["phis"], o["m"], inst.phi_expert))
            checks.append(Check("expert_est ledger", o["expert_calls"] == o["generative_calls"] == o["t_c_sum"] * n,
                                f"expert calls {o['expert_calls']}, generative {o['generative_calls']}, "
                                f"t_c sum x n = {o['t_c_sum'] * n}", "deterministic invariant: 0"))
        return checks

    def named(self, inst, phase_s, out):
        return {"mwal_s": phase_s["phase_a_s"], "mwal_gen_s": phase_s["phase_b_s"],
                "expert_est_s": phase_s["phase_c_s"]}

    def report(self, inst, out):
        """MWAL margins against v* - epsilon: numbers, not checks (test_09 accepts 14/20)."""
        return {
            "mwal_margins": out["mwal"]["margins"] if "mwal" in out else None,
            "mwal_target": inst.v_star - self.sizes["epsilon"],
            "mwal_gen_margins": out["mwal_gen"]["margins"] if "mwal_gen" in out else None,
            "mwal_gen_target": inst.v_star_gen - self.sizes["gen_epsilon"],
        }

    def layer_counts(self, out):
        return {"apprenticeship.expert_calls": sum(o["expert_calls"] for o in out.values())}


# ---------------------------------------------------------------------------
# policy-eval: shared store against fresh CFTP, and wide delta-rho batches
# ---------------------------------------------------------------------------

@dataclass
class PolicyEvalInstance:
    mdp: object
    policies: list
    rho: np.ndarray  # exact average reward of every policy (oracle)
    copies: int  # StoreEnsemble size; the fresh comparison draws as many per policy


class PolicyEval(Workload):
    name = "policy-eval"
    why = (
        "all 64 policies of a 6-state MDP: a = StoreEnsemble (eps=0.2) + estimate_all, b = delta_rho_batch "
        "x64, c = fresh cftp_batch per policy; small-n CFTP call overhead dominates"
    )

    def __init__(self, sizes: dict):
        self.sizes = sizes
        self.phases = [
            Phase("phase_a_s", "store", self.store_units, self.store_combine, 1),
            Phase("phase_b_s", "delta_rho", self.delta_rho_units, self.delta_rho_combine, 1),
            Phase("phase_c_s", "fresh", self.fresh_units, self.fresh_combine, 1, repeats=3),
        ]

    def setup(self) -> PolicyEvalInstance:
        n = self.sizes["n_states"]
        mdp = _dirichlet_mdp(np.random.default_rng(np.random.SeedSequence(INSTANCE_SEED)), n, 2)
        policies = [chains.DeterministicPolicy(np.array(a)) for a in itertools.product(range(2), repeat=n)]
        rho = np.array([solvers.average_reward(chains.induce_chain(mdp, p)) for p in policies])
        copies = eval_store.StoreEnsemble(mdp, self.sizes["epsilon"], self.sizes["delta"], len(policies), 0).n_copies
        return PolicyEvalInstance(mdp, policies, rho, copies)

    def store_units(self, inst, seed):
        # The ensemble's rows are drawn on first read, so splitting the policies
        # into groups, with the same ensemble, gives the same estimates as one
        # estimate_all over all of them; the first group pays most of the writes.
        held = {}

        def build():
            held["ens"] = eval_store.StoreEnsemble(
                inst.mdp, self.sizes["epsilon"], self.sizes["delta"], len(inst.policies), _ss(seed, 1, 0)
            )
            return held["ens"]

        size = self.sizes["policy_group"]
        groups = [inst.policies[i:i + size] for i in range(0, len(inst.policies), size)]
        return [build] + [lambda g=g: eval_store.estimate_all(held["ens"], g) for g in groups]

    def store_combine(self, inst, results):
        ens, *parts = results
        est = np.concatenate([np.asarray(p) for p in parts])
        return {"estimates": est, "copies": ens.n_copies, "rows_written": int(sum(len(c) for c in ens.copies)),
                "shared_calls": int(ens.ledger_total), "digest": digest(est)}

    def delta_rho_units(self, inst, seed):
        return [
            lambda j=j: estimators.delta_rho_batch(
                inst.mdp, inst.policies[0], inst.policies[j], self.sizes["pairs"], _ss(seed, 1, 1, j),
                s0_source="cftp",
            )
            for j in range(len(inst.policies))
        ]

    def delta_rho_combine(self, inst, results):
        values = np.array([v for v, _ in results])
        t_c = np.array([t for _, t in results])
        return {"mean": values.mean(axis=1), "se": values.std(axis=1) / math.sqrt(values.shape[1]),
                "pairs": values.shape[1], "t_c_sum": int(t_c.sum()), "digest": digest(values, t_c)}

    def fresh_units(self, inst, seed):
        def unit(j):
            chain = chains.induce_chain(inst.mdp, inst.policies[j])
            _, times = sampling.cftp_batch(chain, inst.copies, _ss(seed, 1, 2, j))
            return int(np.sum(times)), chain.n_states

        return [lambda j=j: unit(j) for j in range(len(inst.policies))]

    def fresh_combine(self, inst, results):
        t_c = np.array([t for t, _ in results])
        calls = sum(t * n for t, n in results)
        return {"fresh_calls": int(calls), "t_c_sum": int(t_c.sum()), "digest": digest(t_c)}

    def checks(self, inst, out) -> list[Check]:
        checks = []
        eps, delta = self.sizes["epsilon"], self.sizes["delta"]
        if "store" in out:
            o = out["store"]
            err = float(np.abs(o["estimates"] - inst.rho).max())
            checks.append(Check("store max |estimate - exact rho|", err <= eps,
                                f"{err:.4f} <= epsilon {eps} over {len(inst.policies)} policies, {o['copies']} copies",
                                f"StoreEnsemble guarantee: delta = {delta}"))
        if "store" in out and "fresh" in out:
            shared, fresh = out["store"]["shared_calls"], out["fresh"]["fresh_calls"]
            checks.append(Check("shared calls < fresh calls", shared < fresh, f"{shared} < {fresh}",
                                "Chebyshev over the copies; measured ratio ~0.1, bound far below 1e-4"))
        if "delta_rho" in out:
            o = out["delta_rho"]
            truth = inst.rho - inst.rho[0]
            # Bonferroni over the family of policies keeps the family-wise
            # false-failure rate at CHECK_ALPHA.
            z_max = float(stats.norm.isf(CHECK_ALPHA / (2 * len(truth))))
            z = np.abs(o["mean"] - truth) / np.maximum(o["se"], 1e-12)
            checks.append(Check("delta_rho means vs exact rho(pi_j) - rho(pi_0)", bool(np.all(z <= z_max)),
                                f"max |z| {float(z.max()):.2f} <= {z_max:.2f} over {len(truth)} policies, "
                                f"{o['pairs']} pairs each",
                                f"CLT, Bonferroni over {len(truth)} policies: {CHECK_ALPHA}"))
        return checks

    def named(self, inst, phase_s, out):
        n_pol = len(inst.policies)
        return {"store_evals_per_s": n_pol * inst.copies / phase_s["phase_a_s"],
                "delta_rho_per_s": n_pol * self.sizes["pairs"] / phase_s["phase_b_s"],
                "fresh_s": phase_s["phase_c_s"]}

    def layer_counts(self, out):
        counts = {}
        if "store" in out:
            counts["eval_store.rows_written"] = out["store"]["rows_written"]
            counts["eval_store.shared_calls"] = out["store"]["shared_calls"]
        if "fresh" in out:
            counts["eval_store.fresh_calls"] = out["fresh"]["fresh_calls"]
        return counts


WORKLOADS = {w.name: w for w in (SampleLarge, Apprentice, PolicyEval)}

# Sizes of one iteration. FULL is what the benchmark measures; TINY keeps the
# benchmark's own tests fast while running every code path.
FULL = {
    "sample-large": {"n": 200, "lazy_eps": 0.1, "scalar_steps": 8000, "scalar_chunks": 4,
                     "batches": 2, "batch_draws": 30, "batch_work": 1250,
                     "grand_n": 50, "grand_eps": 0.25, "grand_runs": 100, "grand_steps": 230,
                     "pair_runs": 500, "pair_steps": 1050, "chi_bins": 10},
    "apprentice": {"epsilon": 0.4, "delta": 0.1, "mwal_calls": 3, "gen_calls": 4, "gen_rounds": 250,
                   "gen_epsilon": 0.15, "b": 2.0, "expert_chunks": 4, "expert_m": 830},
    "policy-eval": {"n_states": 6, "epsilon": 0.2, "delta": 0.01, "policy_group": 8, "pairs": 2000},
}
TINY = {
    "sample-large": {"n": 12, "lazy_eps": 0.3, "scalar_steps": 120, "scalar_chunks": 2,
                     "batches": 2, "batch_draws": 30, "batch_work": 40,
                     "grand_n": 6, "grand_eps": 0.3, "grand_runs": 3, "grand_steps": 20,
                     "pair_runs": 60, "pair_steps": 40, "chi_bins": 4},
    "apprentice": {"epsilon": 0.1, "delta": 0.1, "rounds": 40, "m": 300, "mwal_calls": 2, "gen_calls": 2,
                   "gen_rounds": 30, "gen_epsilon": 0.15, "b": 2.0, "expert_chunks": 2, "expert_m": 150},
    "policy-eval": {"n_states": 3, "epsilon": 0.3, "delta": 0.05, "policy_group": 3, "pairs": 300},
}
