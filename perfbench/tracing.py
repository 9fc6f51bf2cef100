"""Spans around the public entry points of each cftp_rl layer.

The traced run replaces each boundary function with a wrapper in every
module namespace that holds a reference to it, so calls made inside the
library (``estimate_all`` calling ``evaluate_policy``, ``optimal_policy``
calling ``bias_and_q``) are seen as well as calls from the workloads.
Nothing in the library changes; ``Tracer.install`` returns a function
that puts the originals back.

Boundaries that fire more than about 1e5 times per run
(``SampleMatrix.row_at``, ``restricted_map``, ``MapStore.map_at``) are not
spanned: their work is counted from return values and ledgers instead.
A boundary that a later refactor deletes is reported as absent, and its
metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np


def _count_cftp(stat, args, kwargs, result):
    t_c = int(result[1].t_c)
    stat.steps += t_c
    stat.entries += t_c * args[0].n_states


def _count_cftp_batch(stat, args, kwargs, result):
    steps = int(np.sum(result[1]))
    stat.steps += steps
    stat.entries += steps * args[0].n_states


def _count_grand(stat, args, kwargs, result):
    stat.steps += int(result.merge_time)


def _count_times(index):
    def count(stat, args, kwargs, result):
        stat.steps += int(np.sum(result[index]))

    return count


def _count_rows_read(stat, args, kwargs, result):
    stat.steps += int(result.rows_consumed)


def _count_policy(stat, args, kwargs, result):
    stat.distinct.add(tuple(int(a) for a in result.actions))


# (layer module, function, counter run on each return value or None)
BOUNDARIES = [
    ("chains", "is_ergodic", None),
    ("chains", "induce_chain", None),
    ("solvers", "optimal_policy", _count_policy),
    ("solvers", "bias_and_q", None),
    ("solvers", "stationary_distribution", None),
    ("seeding", "substream", None),
    ("sampling", "cftp", _count_cftp),
    ("sampling", "cftp_batch", _count_cftp_batch),
    ("sampling", "grand_coupling_sim", _count_grand),
    ("sampling", "coalescence_times_batch", _count_times(slice(None))),
    ("eval_store", "estimate_all", None),
    ("eval_store", "evaluate_policy", _count_rows_read),
    ("estimators", "delta_rho_batch", _count_times(1)),
    ("estimators", "coupled_difference_batch", _count_times(1)),
    ("hedge", "hedge_step", None),
    ("apprenticeship", "mwal", None),
    ("apprenticeship", "mwal_generative", None),
    ("apprenticeship", "expert_stationary_samples", _count_times(1)),
    ("apprenticeship", "game_column_batch", None),
]


class BoundaryStat:
    """Calls, self time and work counts of one boundary."""

    __slots__ = ("calls", "self_s", "total_s", "steps", "entries", "distinct")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.steps = 0
        self.entries = 0
        self.distinct: set = set()


class Tracer:
    """In-memory span accounting: self time is a span's duration minus its child spans.

    ``covered_s`` is the time inside outermost spans, so the sum of all
    self times equals ``covered_s`` and the rest of a phase's wall time is
    time spent outside any boundary.
    """

    def __init__(self):
        self.stats = {f"{layer}.{name}": BoundaryStat() for layer, name, _ in BOUNDARIES}
        self.absent: list[str] = []
        self.covered_s = 0.0
        self._child_s: list[float] = []

    def _wrap(self, key, fn, count):
        stat = self.stats[key]
        child_s = self._child_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                inner = child_s.pop()
                stat.calls += 1
                stat.self_s += duration - inner
                stat.total_s += duration
                if child_s:
                    child_s[-1] += duration
                else:
                    self.covered_s += duration
            if count is not None:
                count(stat, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every boundary in every loaded cftp_rl module; returns the undo function."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "cftp_rl" or name.startswith("cftp_rl."))
        ]
        patched = []
        for layer, name, count in BOUNDARIES:
            key = f"{layer}.{name}"
            try:
                original = getattr(importlib.import_module(f"cftp_rl.{layer}"), name)
            except (ImportError, AttributeError):
                if key not in self.absent:
                    self.absent.append(key)
                continue
            wrapper = self._wrap(key, original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))

        def restore():
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

        return restore


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, n_iterations: int, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer values per traced iteration: span totals, ledger ``counts``, and ratios."""
    s = tracer.stats
    out: dict[str, float] = {}
    for key, stat in s.items():
        out[f"{key}.calls"] = stat.calls / n_iterations
        out[f"{key}.self_s"] = stat.self_s / n_iterations
        out[f"{key}.steps"] = stat.steps / n_iterations
    for key in ("sampling.cftp", "sampling.cftp_batch"):
        out[f"{key}.ns_per_entry"] = 1e9 * _ratio(s[key].self_s, s[key].entries)
    solves = s["solvers.optimal_policy"].calls
    out["solvers.pi_iters_per_solve"] = _ratio(s["solvers.bias_and_q"].calls, solves)
    out["solvers.distinct_policy_frac"] = _ratio(len(s["solvers.optimal_policy"].distinct), solves)
    out["eval_store.rows_read"] = s["eval_store.evaluate_policy"].steps / n_iterations
    for key in ("eval_store.rows_written", "eval_store.shared_calls", "eval_store.fresh_calls",
                "apprenticeship.expert_calls"):
        out[key] = counts.get(key, 0.0) / n_iterations
    out["eval_store.reads_per_write"] = _ratio(out["eval_store.rows_read"], out["eval_store.rows_written"])
    return out


# Per-layer metrics: (name, unit, better, end-to-end metrics it should move).
# Phase letters refer to each workload's phase_a_s / phase_b_s / phase_c_s.
PER_LAYER = [
    ("chains.is_ergodic.calls", "count", "lower", "apprentice: phase_a_s, phase_b_s; flat on sample-large"),
    ("chains.is_ergodic.self_s", "s", "lower", "apprentice: phase_a_s, phase_b_s; flat on sample-large"),
    ("chains.induce_chain.calls", "count", "lower", "apprentice: phase_a_s, phase_b_s; flat on sample-large"),
    ("chains.induce_chain.self_s", "s", "lower", "apprentice: phase_a_s, phase_b_s; flat on sample-large"),
    ("solvers.optimal_policy.calls", "count", "lower", "apprentice: phase_a_s, phase_b_s; zero elsewhere"),
    ("solvers.optimal_policy.self_s", "s", "lower", "apprentice: phase_a_s, phase_b_s; zero elsewhere"),
    ("solvers.bias_and_q.calls", "count", "lower", "apprentice: phase_a_s, phase_b_s; zero elsewhere"),
    ("solvers.bias_and_q.self_s", "s", "lower", "apprentice: phase_a_s, phase_b_s; zero elsewhere"),
    ("solvers.stationary_distribution.calls", "count", "lower", "apprentice: phase_a_s, phase_b_s; zero elsewhere"),
    ("solvers.stationary_distribution.self_s", "s", "lower", "apprentice: phase_a_s, phase_b_s; zero elsewhere"),
    ("solvers.pi_iters_per_solve", "ratio", "lower", "apprentice: phase_a_s, phase_b_s"),
    ("solvers.distinct_policy_frac", "ratio", "lower", "apprentice: phase_a_s, phase_b_s (policy-cache headroom)"),
    ("seeding.substream.calls", "count", "lower", "sample-large: phase_a_s; policy-eval: phase_a_s; apprentice: phase_a_s, phase_c_s"),
    ("seeding.substream.self_s", "s", "lower", "sample-large: phase_a_s; policy-eval: phase_a_s; apprentice: phase_a_s, phase_c_s"),
    ("sampling.cftp.calls", "count", "lower", "sample-large: phase_a_s"),
    ("sampling.cftp.self_s", "s", "lower", "sample-large: phase_a_s"),
    ("sampling.cftp.steps", "count", "lower", "sample-large: phase_a_s (semantic, should not move)"),
    ("sampling.cftp_batch.calls", "count", "lower", "sample-large: phase_b_s; policy-eval: phase_b_s, phase_c_s must not slow"),
    ("sampling.cftp_batch.self_s", "s", "lower", "sample-large: phase_b_s; policy-eval: phase_b_s, phase_c_s must not slow"),
    ("sampling.cftp_batch.steps", "count", "lower", "sample-large: phase_b_s (semantic, should not move)"),
    ("sampling.grand_coupling_sim.calls", "count", "lower", "sample-large: phase_c_s"),
    ("sampling.grand_coupling_sim.self_s", "s", "lower", "sample-large: phase_c_s"),
    ("sampling.grand_coupling_sim.steps", "count", "lower", "sample-large: phase_c_s (semantic, should not move)"),
    ("sampling.coalescence_times_batch.calls", "count", "lower", "sample-large: phase_c_s"),
    ("sampling.coalescence_times_batch.self_s", "s", "lower", "sample-large: phase_c_s"),
    ("sampling.coalescence_times_batch.steps", "count", "lower", "sample-large: phase_c_s (semantic, should not move)"),
    ("sampling.cftp.ns_per_entry", "ns", "lower", "sample-large: phase_a_s"),
    ("sampling.cftp_batch.ns_per_entry", "ns", "lower", "sample-large: phase_b_s; policy-eval: must not rise at n=6"),
    ("eval_store.estimate_all.self_s", "s", "lower", "policy-eval: phase_a_s"),
    ("eval_store.evaluate_policy.calls", "count", "lower", "policy-eval: phase_a_s"),
    ("eval_store.evaluate_policy.self_s", "s", "lower", "policy-eval: phase_a_s"),
    ("eval_store.rows_written", "count", "lower", "policy-eval: phase_a_s (semantic, should not move)"),
    ("eval_store.rows_read", "count", "lower", "policy-eval: phase_a_s (semantic, should not move)"),
    ("eval_store.reads_per_write", "ratio", "higher", "policy-eval: phase_a_s"),
    ("eval_store.shared_calls", "count", "lower", "policy-eval: phase_a_s"),
    ("eval_store.fresh_calls", "count", "lower", "policy-eval: phase_c_s"),
    ("estimators.delta_rho_batch.calls", "count", "lower", "policy-eval: phase_b_s"),
    ("estimators.delta_rho_batch.self_s", "s", "lower", "policy-eval: phase_b_s"),
    ("estimators.delta_rho_batch.steps", "count", "lower", "policy-eval: phase_b_s (semantic, should not move)"),
    ("estimators.coupled_difference_batch.calls", "count", "lower", "policy-eval: phase_b_s; apprentice: phase_b_s"),
    ("estimators.coupled_difference_batch.self_s", "s", "lower", "policy-eval: phase_b_s; apprentice: phase_b_s"),
    ("estimators.coupled_difference_batch.steps", "count", "lower", "policy-eval: phase_b_s; apprentice: phase_b_s"),
    ("hedge.hedge_step.calls", "count", "lower", "apprentice: phase_a_s, phase_b_s"),
    ("hedge.hedge_step.self_s", "s", "lower", "apprentice: phase_a_s, phase_b_s"),
    ("apprenticeship.mwal.self_s", "s", "lower", "apprentice: phase_a_s"),
    ("apprenticeship.mwal_generative.self_s", "s", "lower", "apprentice: phase_b_s"),
    ("apprenticeship.expert_stationary_samples.calls", "count", "lower", "apprentice: phase_a_s, phase_c_s"),
    ("apprenticeship.expert_stationary_samples.self_s", "s", "lower", "apprentice: phase_a_s, phase_c_s"),
    ("apprenticeship.expert_stationary_samples.steps", "count", "lower", "apprentice: phase_a_s, phase_c_s (semantic)"),
    ("apprenticeship.game_column_batch.calls", "count", "lower", "apprentice: phase_b_s"),
    ("apprenticeship.game_column_batch.self_s", "s", "lower", "apprentice: phase_b_s"),
    ("apprenticeship.expert_calls", "count", "lower", "apprentice: phase_a_s, phase_b_s, phase_c_s"),
    ("trace.overhead_frac", "ratio", "lower", "none: traced wall_s over untraced wall_s, minus 1"),
]
