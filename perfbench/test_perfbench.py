"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.use_checkout_library()

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.PER_LAYER
    ]
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result, report = run.run(name, SEED, 0, False, sizes=workloads.TINY, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["failed_frac"] == 0.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_accounts_for_wall_time(name):
    result, report = run.run(name, SEED, 0, True, sizes=workloads.TINY, setup_repeats=1)
    assert result["correct"]
    expected = {n: unit for n, unit, _, _ in tracing.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert report["trace_detail"]["absent"] == []

    # Per traced iteration: the layers' self times plus the time outside any
    # span add up to the phases' wall time.
    detail = report["trace_detail"]
    n_traced = sum(i["traced"] for i in report["iterations"])
    assert n_traced >= 1
    wall = detail["traced_wall_s"] / n_traced
    remainder = (detail["traced_wall_s"] - detail["covered_s"]) / n_traced
    self_total = sum(v["value"] for k, v in result["metrics"].items() if k.endswith(".self_s"))
    assert remainder >= 0.0
    assert all(v["value"] >= -1e-9 for k, v in result["metrics"].items() if k.endswith(".self_s"))
    assert self_total + remainder == pytest.approx(wall, rel=1e-9, abs=1e-9)


def test_phase_time_is_the_sum_of_scaled_calibrated_unit_medians():
    from probe import NOMINAL_S

    phase = workloads.Phase("phase_a_s", "p", None, None, 1)
    workload = workloads.Workload()
    workload.phases = [phase]
    # Two units, three iterations; the second unit did twice its nominal work.
    times = [[[1.0], [4.0]], [[3.0], [8.0]], [[2.0], [6.0]]]
    refs = [[[NOMINAL_S], [2 * NOMINAL_S]], [[NOMINAL_S], [NOMINAL_S]], [[NOMINAL_S], [NOMINAL_S]]]
    iterations = [{"times": {"p": t}, "refs": {"p": r}, "outs": {"p": {"unit_scale": [1.0, 0.5]}}}
                  for t, r in zip(times, refs)]
    assert run.phase_seconds(workload, iterations)["phase_a_s"] == pytest.approx(2.0 + 0.5 * 6.0)
    assert run.phase_seconds(workload, iterations, calibrated=True)["phase_a_s"] == pytest.approx(2.0 + 0.5 * 6.0)
    refs[0][0][0] = 0.25 * NOMINAL_S  # a slow stretch measured around one sample
    assert run.phase_seconds(workload, iterations, calibrated=True)["phase_a_s"] == pytest.approx(3.0 + 0.5 * 6.0)


def test_speed_probe_averages_the_references_around_a_sample():
    from probe import SpeedProbe

    probe = SpeedProbe()
    probe.marks = [(1.0, 0.02), (2.0, 0.04), (3.0, 0.03)]
    assert probe.around(1.5) == pytest.approx(0.03)
    assert probe.around(0.5) == pytest.approx(0.02)
    assert probe.around(3.5) == pytest.approx(0.03)


def _shift_rho(inst):
    inst.rho = inst.rho + 0.5 * (np.arange(inst.rho.size) == 3)


@pytest.mark.parametrize("name, corrupt", [
    ("sample-large", lambda inst: setattr(inst, "pair_p", inst.pair_p * 3)),
    ("apprentice", lambda inst: setattr(inst, "phi_expert", inst.phi_expert + 0.5)),
    ("policy-eval", _shift_rho),
])
def test_a_wrong_oracle_value_fails_a_check(name, corrupt):
    workload = workloads.WORKLOADS[name](workloads.TINY[name])
    iterations, _ = run.measure(workload, SEED, 0, False)
    assert all(c.passed for c in run.evaluate(workload, iterations))
    corrupt(iterations[0]["inst"])
    assert sum(not c.passed for c in run.evaluate(workload, iterations)) > 0


def test_a_raising_phase_fails_its_checks():
    workload = workloads.WORKLOADS["policy-eval"](workloads.TINY["policy-eval"])

    def boom():
        raise RuntimeError("boundary removed")

    workload.phases[0].units = lambda inst, seed: [boom]
    iterations, _ = run.measure(workload, SEED, 0, False)
    assert sum(not c.passed for c in run.evaluate(workload, iterations)) >= workload.phases[0].n_checks


def test_tracer_restores_the_library():
    from cftp_rl import eval_store, sampling

    before = (eval_store.evaluate_policy, sampling.cftp_batch)
    restore = tracing.Tracer().install()
    assert eval_store.evaluate_policy is not before[0]
    restore()
    assert (eval_store.evaluate_policy, sampling.cftp_batch) == before


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample-large", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
